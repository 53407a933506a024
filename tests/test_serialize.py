import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detchan import SchemaError, SizeMismatchError, StateSet, fingerprint, synthesize
from detchan import serialize as ser


def irrational_set():
    return StateSet.from_vectors(
        [[1, 0], [2**-0.5, 2**-0.5], [1 / 3**0.5, (2 / 3) ** 0.5]],
        normalize=True,
    )


def test_float_format_roundtrips_exactly():
    for x in [1 / 3, 2**-0.5, 1e-17, 12345.678901234567, -1.0, 0.1 + 0.2]:
        assert float(ser.format_float(x)) == x


def test_float_format_normalizes_zero():
    assert ser.format_float(0.0) == "0"
    assert ser.format_float(-0.0) == "0"


def test_dumps_is_deterministic_and_valid_json():
    obj = {"a": [1.0, 2.5], "b": {"c": [[1, 2], [3, 4]]}, "d": None, "e": True}
    text = ser.dumps(obj)
    assert text == ser.dumps(obj)
    assert text.endswith("\n")
    assert json.loads(text) == {
        "a": [1.0, 2.5],
        "b": {"c": [[1, 2], [3, 4]]},
        "d": None,
        "e": True,
    }


def test_state_set_roundtrip_is_bit_exact():
    s = irrational_set()
    obj = json.loads(ser.dumps(ser.state_set_to_obj(s)))
    restored = ser.state_set_from_obj(obj)
    np.testing.assert_array_equal(restored.states, s.states)
    assert restored.dimension == s.dimension
    assert fingerprint(restored) == fingerprint(s)


def test_state_set_labels_roundtrip():
    s = StateSet.from_vectors(np.eye(2), labels=["zero", "one"])
    obj = json.loads(ser.dumps(ser.state_set_to_obj(s)))
    assert ser.state_set_from_obj(obj).labels == ("zero", "one")


def test_empty_labels_are_a_size_mismatch_not_dropped():
    # An empty list is a label list of the wrong length, as () is; only
    # None means "no labels".
    for labels in ([], ()):
        with pytest.raises(SizeMismatchError):
            StateSet.from_vectors(np.eye(2), labels=labels)
    with pytest.raises(SizeMismatchError):
        ser.state_set_from_obj({"states": [[[1, 0], [0, 0]]], "labels": []})
    assert StateSet.from_vectors(np.eye(2), labels=None).labels is None
    assert ser.state_set_from_obj({"states": [[[1, 0], [0, 0]]], "labels": None}).labels is None


def test_kraus_document_dimension_and_fingerprints_are_typed():
    ops = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]
    for bad in ({"dimension": 2.0}, {"initial_fingerprint": 7}, {"final_fingerprint": None}):
        with pytest.raises(SchemaError):
            ser.kraus_set_from_obj({"operators": ops, **bad})
    ks = ser.kraus_set_from_obj({"dimension": 2, "operators": ops, "initial_fingerprint": "ab"})
    assert (ks.dimension, ks.initial_fingerprint, ks.final_fingerprint) == (2, "ab", "")


def test_kraus_set_roundtrip():
    initial = StateSet.from_vectors([[1, 0], [2**-0.5, 2**-0.5]])
    final = StateSet.from_vectors([[1, 0], [0.9, np.sqrt(0.19)]])
    ks = synthesize(initial, final)
    obj = json.loads(ser.dumps(ser.kraus_set_to_obj(ks)))
    restored = ser.kraus_set_from_obj(obj)
    assert restored.kraus_count == ks.kraus_count
    for a, b in zip(restored.operators, ks.operators):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(restored.c_factor, ks.c_factor)
    assert restored.initial_fingerprint == ks.initial_fingerprint


def test_density_roundtrip():
    rho = np.array([[0.75, 0.1 + 0.2j], [0.1 - 0.2j, 0.25]])
    obj = json.loads(ser.dumps(ser.density_to_obj(rho)))
    np.testing.assert_array_equal(ser.density_from_obj(obj), rho)


def test_schema_errors_on_malformed_documents():
    with pytest.raises(SchemaError):
        ser.state_set_from_obj({"dimension": 2})
    with pytest.raises(SchemaError):
        ser.state_set_from_obj({"states": [[["x", 0]]]})
    with pytest.raises(SchemaError):
        ser.kraus_set_from_obj({"operators": []})
    with pytest.raises(SchemaError):
        ser.kraus_set_from_obj({"dimension": 3, "operators": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]})
    with pytest.raises(SchemaError):
        ser.pairs_to_matrix([[[1, 0]], [[1, 0], [0, 0]]])
    # JSON booleans are not numbers, and ragged state rows are a schema error.
    with pytest.raises(SchemaError):
        ser.state_set_from_obj({"dimension": True, "states": [[[True, False]]]})
    with pytest.raises(SchemaError):
        ser.state_set_from_obj({"dimension": True, "states": [[[1, 0]]]})
    with pytest.raises(SchemaError):
        ser.state_set_from_obj({"states": [[[1, False]]]})
    with pytest.raises(SchemaError):
        ser.state_set_from_obj({"states": [[[1, 0]], [[1, 0], [0, 0]]]})
    with pytest.raises(SchemaError):
        ser.kraus_set_from_obj({"dimension": True, "operators": [[[[1, 0]]]]})


def test_dumps_rejects_non_finite():
    for value in (float("nan"), float("inf"), -float("inf"), *np.array([np.nan, np.inf, -np.inf])):
        for doc in ({"x": value}, [value], {"a": [[1.0, value]]}, [[[0.5, value]]]):
            with pytest.raises(SchemaError):
                ser.dumps(doc)


# ---------------------------------------------------------------- emitter reference


def _reference_depth(obj) -> int:
    if isinstance(obj, (list, tuple)):
        return 1 + max((_reference_depth(x) for x in obj), default=0)
    if isinstance(obj, dict):
        return 99
    return 0


def _reference_emit(obj, out, level, indent):
    # The emitter as first written: a list nesting at most two deep goes on
    # one line, measured by walking its whole subtree.
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    keyed = isinstance(obj, dict)
    if (keyed or isinstance(obj, (list, tuple))) and not obj:
        out.append("{}" if keyed else "[]")
    elif isinstance(obj, (list, tuple)) and _reference_depth(obj) <= 2:
        out.append("[")
        for i, value in enumerate(obj):
            _reference_emit(value, out, level, indent)
            if i < len(obj) - 1:
                out.append(", ")
        out.append("]")
    elif keyed or isinstance(obj, (list, tuple)):
        out.append("{\n" if keyed else "[\n")
        for i, (key, value) in enumerate(obj.items() if keyed else enumerate(obj)):
            out.append(inner + (f"{json.dumps(str(key))}: " if keyed else ""))
            _reference_emit(value, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + ("}" if keyed else "]"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        v = float(obj)
        assert np.isfinite(v)
        out.append("0" if v == 0.0 else format(v, ".17g"))
    else:
        assert obj is None
        out.append("null")


def _reference_dumps(obj, indent=2) -> str:
    out = []
    _reference_emit(obj, out, 0, indent)
    return "".join(out) + "\n"


_finite = st.floats(allow_nan=False, allow_infinity=False)
_scalars = st.one_of(
    _finite,
    _finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.sampled_from([0.0, -0.0, np.float64(-0.0)]),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(max_size=6),
)
_documents = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(doc=_documents, indent=st.integers(0, 4))
def test_dumps_matches_the_reference_emitter(doc, indent):
    assert ser.dumps(doc, indent) == _reference_dumps(doc, indent)
