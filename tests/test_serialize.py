import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    # Operators of different shapes, and state rows that are not lists.
    with pytest.raises(SchemaError):
        ser.kraus_set_from_obj({"operators": [[[[1, 0]]], [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]})
    with pytest.raises(SchemaError):
        ser.state_set_from_obj({"states": [1, 2]})


_ROW = [[1.0, 0.0], [0.0, 0.0]]


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[[np.float64(0.5), np.float64(-0.25)]]], [[0.5 - 0.25j]]),
        ([[(1, 0), (0.5, 2)]], [[1, 0.5 + 2j]]),
        ([([1, 0], [0, 1]), ((2, 3), (4, 5))], [[1, 1j], [2 + 3j, 4 + 5j]]),
        ([[[1, -0.0]]], [[complex(1, -0.0)]]),
    ],
)
def test_pairs_to_matrix_accepts_numbers_in_lists_and_tuples(rows, expected):
    m = ser.pairs_to_matrix(rows)
    assert m.dtype == np.complex128
    np.testing.assert_array_equal(m, np.array(expected, dtype=np.complex128))
    assert np.signbit(m.imag).tolist() == np.signbit(np.array(expected).imag).tolist()


@pytest.mark.parametrize(
    "rows",
    [
        [[[True, 0]]],  # booleans are not numbers
        [[[1, np.bool_(False)]]],
        [[["1", 0]]],  # strings
        [[[None, 0]]],
        [[[[1], 0]]],  # a nested leaf
        [[[1, 0], [[0, 0], [0, 0]]]],
        [[[1]]],  # pairs of 1 and 3 entries
        [[[1, 0, 0]]],
        [[[10**400, 0]]],  # an integer too large for a double
        [[[1, 0]], [[1, 0], [0, 0]]],  # ragged rows
        [[]],  # an empty row
        [],  # no rows
        [_ROW, []],
        [_ROW, "ab"],  # rows that are not lists
        [_ROW, {"a": 1, "b": 2}],
        [_ROW, 7],
        [[1, 0]],
        ([_ROW],),  # the row list itself must be a list
        {"rows": _ROW},
        None,
    ],
)
def test_pairs_to_matrix_rejects_malformed_nesting(rows):
    with pytest.raises(SchemaError):
        ser.pairs_to_matrix(rows)


def test_dumps_rejects_non_finite():
    for value in (float("nan"), float("inf"), -float("inf"), *np.array([np.nan, np.inf, -np.inf])):
        arrays = (
            np.array([complex(value, 0.0)]),
            np.array([[1.0, complex(0.5, value)]]),
            np.full((2, 2, 3), complex(1.0, value)),
        )
        docs = ({"x": value}, [value], {"a": [[1.0, value]]}, [[[0.5, value]]])
        docs += tuple({"m": a} for a in arrays) + tuple([[a]] for a in arrays)
        for doc in docs:
            with pytest.raises(SchemaError, match="non-finite"):
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


# ---------------------------------------------------------------- complex arrays


def _nested_pairs(arr):
    # An array as the nested [re, im] lists the emitter's reference writes.
    if arr.ndim == 1:
        return [[z.real, z.imag] for z in arr.tolist()]
    return [_nested_pairs(sub) for sub in arr]


_edge_doubles = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e300, -1e-300,
     1.7976931348623157e308, -1.7976931348623157e308, 1.0, -1 / 3]
)
_doubles = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _edge_doubles)


def _complex_arrays(min_dims, max_dims, min_side):
    shapes = hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=min_side, max_side=4)
    return shapes.flatmap(
        lambda shape: hnp.arrays(np.float64, (*shape, 2), elements=_doubles).map(
            lambda floats: floats.view(np.complex128)[..., 0]
        )
    )


@settings(max_examples=300, deadline=None)
@given(
    arr=_complex_arrays(1, 3, 0),  # empty and zero-width shapes included
    transpose=st.booleans(),
    indent=st.integers(0, 4),
    wrap=st.integers(0, 3),
)
def test_dumps_writes_complex_arrays_as_their_nested_pairs(arr, transpose, indent, wrap):
    if transpose:
        arr = arr.T  # not C-contiguous once it has two axes or more
    doc, reference = arr, _nested_pairs(arr)
    for depth in range(wrap):  # the array at several indentation levels
        doc, reference = {"k": doc, "n": depth}, {"k": reference, "n": depth}
    assert ser.dumps(doc, indent) == _reference_dumps(reference, indent)
    assert ser.dumps([doc, 1.5], indent) == _reference_dumps([reference, 1.5], indent)


@settings(max_examples=200, deadline=None)
@given(arr=_complex_arrays(2, 2, 1))
def test_complex_arrays_round_trip_bit_exactly_but_for_the_sign_of_zero(arr):
    restored = ser.pairs_to_matrix(json.loads(ser.dumps({"m": arr}))["m"])
    assert restored.shape == arr.shape
    # -0.0 is written as "0", so it comes back as +0.0; every other bit holds.
    expected = arr.view(np.float64) + 0.0
    np.testing.assert_array_equal(restored.view(np.uint64), expected.view(np.uint64))
