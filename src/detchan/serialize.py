"""Deterministic JSON encoding for state sets, channels and reports.

Floats are rendered with 17 significant digits so every double round-trips
exactly; dictionaries keep a fixed key order; complex scalars are [re, im]
pairs.  Emission is hand-rolled to keep the byte stream fully
deterministic (golden-file friendly): the same object always serializes
to the same bytes.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .coherence import CoherenceRoundTrip
from .errors import SchemaError
from .feasibility import FeasibilityReport
from .states import StateSet
from .synthesis import KrausSet


def format_float(x) -> str:
    v = float(x)
    if not np.isfinite(v):
        raise SchemaError(f"cannot serialize non-finite value {v!r}")
    if v == 0.0:
        return "0"
    return format(v, ".17g")


def _depth(obj) -> int:
    if isinstance(obj, (list, tuple)):
        return 1 + max((_depth(x) for x in obj), default=0)
    if isinstance(obj, dict):
        return 99
    return 0


def _emit(obj, out: list[str], level: int, indent: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    keyed = isinstance(obj, dict)
    if (keyed or isinstance(obj, (list, tuple))) and not obj:
        out.append("{}" if keyed else "[]")
    elif isinstance(obj, (list, tuple)) and _depth(obj) <= 2:
        out.append("[")
        for i, value in enumerate(obj):
            _emit(value, out, level, indent)
            if i < len(obj) - 1:
                out.append(", ")
        out.append("]")
    elif keyed or isinstance(obj, (list, tuple)):
        # One item per line; a dict's items are prefixed with their keys.
        out.append("{\n" if keyed else "[\n")
        for i, (key, value) in enumerate(obj.items() if keyed else enumerate(obj)):
            out.append(inner + (f"{json.dumps(str(key))}: " if keyed else ""))
            _emit(value, out, level + 1, indent)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + ("}" if keyed else "]"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(repr(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif obj is None:
        out.append("null")
    else:
        raise SchemaError(f"cannot serialize value of type {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    """Serialize to deterministic, diff-friendly JSON (trailing newline)."""
    out: list[str] = []
    _emit(obj, out, 0, indent)
    out.append("\n")
    return "".join(out)


# ----------------------------------------------------------------------
# complex <-> [re, im] codecs

def complex_pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def vector_to_pairs(v) -> list:
    return [complex_pair(z) for z in np.asarray(v).reshape(-1)]


def matrix_to_pairs(m) -> list:
    return [vector_to_pairs(row) for row in np.asarray(m)]


def _pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise SchemaError(f"expected an [re, im] pair, got {pair!r}")
    # JSON true/false load as bool, a subclass of int; they are not numbers.
    if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in pair):
        raise SchemaError(f"non-numeric [re, im] pair {pair!r}")
    return complex(*pair)


def pairs_to_vector(pairs) -> np.ndarray:
    return np.array([_pair_to_complex(p) for p in pairs], dtype=np.complex128)


def _optional(convert, value):
    """``convert(value)``, or None for a None value (JSON null)."""
    return None if value is None else convert(value)


def pairs_to_matrix(pairs) -> np.ndarray:
    if not isinstance(pairs, list) or not pairs:
        raise SchemaError("expected a non-empty list of rows")
    rows = [pairs_to_vector(row) for row in pairs]
    lengths = {row.shape[0] for row in rows}
    if len(lengths) != 1:
        raise SchemaError("matrix rows have inconsistent lengths")
    return np.vstack(rows)


# ----------------------------------------------------------------------
# domain objects

def state_set_to_obj(s: StateSet) -> dict:
    return {
        "dimension": s.dimension,
        "states": [vector_to_pairs(row) for row in s.states],
        "labels": _optional(list, s.labels),
    }


def state_set_from_obj(obj) -> StateSet:
    if not isinstance(obj, dict) or "states" not in obj:
        raise SchemaError("state-set document needs a 'states' key")
    states = obj["states"]
    if not isinstance(states, list) or not states:
        raise SchemaError("'states' must be a non-empty list")
    arr = pairs_to_matrix(states)
    dimension = _dimension(obj, arr.shape[1])
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
    ):
        raise SchemaError("'labels' must be a list of strings or null")
    return StateSet(dimension=dimension, states=arr, labels=labels)


def _dimension(obj: dict, default: int) -> int:
    """The document's ``dimension`` (``default`` when absent): a JSON integer."""
    dimension = obj.get("dimension", default)
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise SchemaError(f"'dimension' must be an integer, got {dimension!r}")
    return dimension


def kraus_set_to_obj(ks: KrausSet) -> dict:
    return {
        "dimension": ks.dimension,
        "operators": [matrix_to_pairs(op) for op in ks.operators],
        "c_factor": _optional(matrix_to_pairs, ks.c_factor),
        "initial_fingerprint": ks.initial_fingerprint,
        "final_fingerprint": ks.final_fingerprint,
    }


def kraus_set_from_obj(obj) -> KrausSet:
    if not isinstance(obj, dict) or "operators" not in obj:
        raise SchemaError("Kraus document needs an 'operators' key")
    ops = obj["operators"]
    if not isinstance(ops, list) or not ops:
        raise SchemaError("'operators' must be a non-empty list")
    c_factor = obj.get("c_factor")
    fingerprints = [obj.get(key, "") for key in ("initial_fingerprint", "final_fingerprint")]
    if not all(isinstance(f, str) for f in fingerprints):
        raise SchemaError(f"fingerprints must be strings, got {fingerprints!r}")
    ks = KrausSet(
        operators=[pairs_to_matrix(op) for op in ops],
        c_factor=_optional(pairs_to_matrix, c_factor),
        initial_fingerprint=fingerprints[0],
        final_fingerprint=fingerprints[1],
    )
    dimension = _dimension(obj, ks.dimension)
    if dimension != ks.dimension:
        raise SchemaError(
            f"'dimension' {dimension!r} does not match operators of shape "
            f"{ks.operators.shape[1:]}"
        )
    return ks


def density_to_obj(rho) -> dict:
    r = np.asarray(rho, dtype=np.complex128)
    return {"dimension": r.shape[0], "matrix": matrix_to_pairs(r)}


def density_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise SchemaError("density document needs a 'matrix' key")
    r = pairs_to_matrix(obj["matrix"])
    if r.shape[0] != r.shape[1]:
        raise SchemaError(f"density matrix must be square, got {r.shape}")
    return r


# ----------------------------------------------------------------------
# reports

def feasibility_report_to_obj(report: FeasibilityReport) -> dict:
    return {
        "verdict": report.verdict,
        "min_eigenvalue": report.min_eigenvalue,
        # Each flagged record without its violation field, which is true.
        "violating_pairs": [
            {"j": j, "k": k, "initial_overlap": initial, "final_overlap": final}
            for j, k, initial, final, _ in report.violating_pairs.tolist()
        ],
        "initial_independent": report.initial_independent,
        "final_independent": report.final_independent,
        "notes": list(report.notes),
    }


def roundtrip_to_obj(rec: CoherenceRoundTrip) -> dict:
    return {
        "purity": rec.probe.output_purity,
        "is_pure": rec.probe.is_pure,
        "probe_verdict": rec.probe.verdict,
        "test_verdict": rec.test.verdict,
        "agree": rec.agree,
        "support": list(rec.probe.support),
        "phases": _optional(lambda phases: [float(p) for p in phases], rec.test.phases),
        "unitary": _optional(matrix_to_pairs, rec.test.extracted_unitary),
        "output_coefficients": _optional(vector_to_pairs, rec.probe.output_coefficients),
        "coefficient_law_residual": rec.coefficient_law_residual,
        "device_residual": rec.device_residual,
    }


def load_document(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
