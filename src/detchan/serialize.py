"""Deterministic JSON encoding for state sets, channels and reports.

Floats are rendered with 17 significant digits so every double round-trips
exactly; dictionaries keep a fixed key order; complex scalars are [re, im]
pairs.  Emission is hand-rolled to keep the byte stream fully
deterministic (golden-file friendly): the same object always serializes
to the same bytes.  Every number must be finite and fit a double.
Complex arrays go in and out whole: the ``*_to_obj`` documents hold the objects'
own complex128 arrays (not copies), ``dumps`` writes each in one pass exactly as
its nested [re, im] lists, and ``pairs_to_matrix`` checks nested pairs in one
pass and converts them, bit for bit, with one ``np.array`` call.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import SchemaError
from .states import StateSet

if TYPE_CHECKING:
    from .coherence import CoherenceRoundTrip
    from .feasibility import FeasibilityReport
    from .synthesis import KrausSet


def format_float(x) -> str:
    v = float(x)
    if not math.isfinite(v):
        raise SchemaError(f"cannot serialize non-finite value {v!r}")
    return format(v, ".17g") if v else "0"


def _flat(seq) -> bool:
    """True when no item of the list ``seq`` is a dict or a list holding a
    container, i.e. it nests at most two lists deep: it goes on one line.
    An array counts as its nested lists: it holds pairs or rows unless empty."""
    for x in seq:
        if isinstance(x, (list, tuple)):
            if any(isinstance(y, (list, tuple, dict, np.ndarray)) for y in x):
                return False
        elif isinstance(x, dict) or (isinstance(x, np.ndarray) and x.shape[:1] != (0,)):
            return False
    return True


def _emit(obj, out: list[str], level: int, indent: int) -> None:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    keyed = isinstance(obj, dict)
    if isinstance(obj, np.ndarray) and obj.dtype == np.complex128 and obj.ndim:
        _emit_complex(obj, out, level, indent)
    elif (keyed or isinstance(obj, (list, tuple))) and not obj:
        out.append("{}" if keyed else "[]")
    elif isinstance(obj, (list, tuple)) and _flat(obj):
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


def _emit_complex(arr: np.ndarray, out: list[str], level: int, indent: int) -> None:
    """A complex128 array laid out as its nested [re, im] lists: each row of
    pairs on one line, every outer axis one item per line."""
    if not arr.size:  # no number in it: written as its (empty) nested lists
        return _emit(arr.tolist(), out, level, indent)
    floats = np.ascontiguousarray(arr).view(np.float64)
    finite = np.isfinite(floats)
    if not finite.all():
        raise SchemaError(f"cannot serialize non-finite value {float(floats[~finite][0])!r}")
    # Adding 0.0 turns -0.0 into 0.0, so every zero prints "0" as in format_float.
    cells = iter([format(v, ".17g") for v in (floats + 0.0).ravel().tolist()])
    pairs, width = map(", ".join, zip(cells, cells)), arr.shape[-1]
    items = ["[[" + "], [".join(islice(pairs, width)) + "]]" for _ in range(arr.size // width)]
    for depth, count in enumerate(reversed(arr.shape[:-1])):
        pad = " " * (indent * (level + arr.ndim - 2 - depth))
        inner = pad + " " * indent
        items = [f"[\n{inner}" + f",\n{inner}".join(items[i : i + count]) + f"\n{pad}]"
                 for i in range(0, len(items), count)]
    out.append(items[0])


def dumps(obj, indent: int = 2) -> str:
    """Serialize to deterministic, diff-friendly JSON (trailing newline)."""
    out: list[str] = []
    _emit(obj, out, 0, indent)
    out.append("\n")
    return "".join(out)


# ----------------------------------------------------------------------
# [re, im] pairs -> complex arrays

def _entries(seqs, what: str, length: int | None = None) -> list:
    """The entries, in order, of ``seqs``: a non-empty list of lists or tuples
    that share one nonzero length (``length`` when given)."""
    if not isinstance(seqs, list) or not seqs or not all(
        issubclass(t, (list, tuple)) for t in set(map(type, seqs))
    ):
        raise SchemaError(f"{what} must be a non-empty list of lists")
    if not seqs[0] or set(map(len, seqs)) != {length or len(seqs[0])}:
        raise SchemaError(f"{what} must be non-empty and of one length")
    return list(chain.from_iterable(seqs))


def pairs_to_matrix(rows) -> np.ndarray:
    """The (rows, width) complex128 array of a non-empty list of equal-length
    rows of [re, im] pairs, with the exact bits of each number (-0.0 too)."""
    numbers = _entries(_entries(rows, "matrix rows"), "[re, im] pairs", 2)
    # JSON true/false load as bool, a subclass of int; they are not numbers.
    if not all(issubclass(t, (int, float)) and t is not bool for t in set(map(type, numbers))):
        raise SchemaError("[re, im] pairs must hold two numbers each")
    try:
        return np.array(numbers, dtype=np.float64).view(np.complex128).reshape(len(rows), -1)
    except OverflowError as exc:
        raise SchemaError(f"amplitude does not fit a double: {exc}") from exc


def _optional(convert, value):
    """``convert(value)``, or None for a None value (JSON null)."""
    return None if value is None else convert(value)


# ----------------------------------------------------------------------
# domain objects

def state_set_to_obj(s: StateSet) -> dict:
    return {"dimension": s.dimension, "states": s.states, "labels": _optional(list, s.labels)}


def state_set_from_obj(obj) -> StateSet:
    if not isinstance(obj, dict) or "states" not in obj:
        raise SchemaError("state-set document needs a 'states' key")
    arr = pairs_to_matrix(obj["states"])
    labels = obj.get("labels")
    if labels is not None and (
        not isinstance(labels, list) or not all(isinstance(x, str) for x in labels)
    ):
        raise SchemaError("'labels' must be a list of strings or null")
    return StateSet(_dimension(obj, arr.shape[1]), arr, labels)


def _dimension(obj: dict, default: int) -> int:
    """The document's ``dimension`` (``default`` when absent): a JSON integer."""
    dimension = obj.get("dimension", default)
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        raise SchemaError(f"'dimension' must be an integer, got {dimension!r}")
    return dimension


def kraus_set_to_obj(ks: KrausSet) -> dict:
    return {
        "dimension": ks.dimension,
        "operators": ks.operators,
        "c_factor": ks.c_factor,
        "initial_fingerprint": ks.initial_fingerprint,
        "final_fingerprint": ks.final_fingerprint,
    }


def kraus_set_from_obj(obj) -> KrausSet:
    from .synthesis import KrausSet

    if not isinstance(obj, dict) or "operators" not in obj:
        raise SchemaError("Kraus document needs an 'operators' key")
    ops = obj["operators"]
    fingerprints = [obj.get(key, "") for key in ("initial_fingerprint", "final_fingerprint")]
    if not all(isinstance(f, str) for f in fingerprints):
        raise SchemaError(f"fingerprints must be strings, got {fingerprints!r}")
    rows = _entries(ops, "'operators'")
    operators = pairs_to_matrix(rows).reshape(len(ops), len(rows) // len(ops), -1)
    ks = KrausSet(operators, _optional(pairs_to_matrix, obj.get("c_factor")), *fingerprints)
    dimension = _dimension(obj, ks.dimension)
    if dimension != ks.dimension:
        shape = ks.operators.shape[1:]
        raise SchemaError(f"'dimension' {dimension!r} does not match operators of shape {shape}")
    return ks


def density_to_obj(rho) -> dict:
    return {"dimension": len(rho), "matrix": np.asarray(rho, dtype=np.complex128)}


def density_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "matrix" not in obj:
        raise SchemaError("density document needs a 'matrix' key")
    r = pairs_to_matrix(obj["matrix"])
    if r.shape[0] != r.shape[1]:
        raise SchemaError(f"density matrix must be square, got {r.shape}")
    if _dimension(obj, r.shape[0]) != r.shape[0]:
        raise SchemaError(f"'dimension' {obj['dimension']!r} does not match a {r.shape} matrix")
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
        "unitary": rec.test.extracted_unitary,
        "output_coefficients": rec.probe.output_coefficients,
        "coefficient_law_residual": rec.coefficient_law_residual,
        "device_residual": rec.device_residual,
    }


def load_document(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError as exc:
            raise SchemaError(f"{path}: JSON nested too deeply to read") from exc
