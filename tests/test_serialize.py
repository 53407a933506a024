import json

import numpy as np
import pytest

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
    with pytest.raises(SchemaError):
        ser.dumps({"x": float("nan")})
