"""Deterministic-transformability analysis.

The central object is the overlap-ratio matrix: entry (j, k) divides the
initial overlap <psi1_k|psi1_j> by the final overlap <psi2_k|psi2_j>.
Positive semidefiniteness of that matrix is necessary for a deterministic
channel mapping each initial state onto its target, and sufficient when
the initial states are linearly independent.  Ratios with vanishing
denominator are tracked explicitly rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, SizeMismatchError, UndefinedEntryError
from .numerics import DEFAULT_TOL, _psd_verdict, hermitian_eig, hermitian_rank
from .states import StateSet, gram

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
NECESSARY_ONLY = "NecessaryOnly"
UNDETERMINED = "Undetermined"


@dataclass(frozen=True, eq=False)
class RatioMatrix:
    """Entrywise ratio of initial to final state overlaps.

    ``entries[j, k] = <psi1_k|psi1_j> / <psi2_k|psi2_j>`` wherever the
    final overlap is nonzero; ``defined[j, k]`` records which entries
    exist (undefined slots are stored as 0).  Pairs whose final overlap
    vanishes while the initial one does not are collected in
    ``undefined_nonzero_pairs``; they rule out any deterministic channel.
    Pairs where both overlaps vanish are unconstrained (``free_pairs``).
    The diagonal is always defined and exactly 1.
    """

    entries: np.ndarray
    defined: np.ndarray
    n_states: int
    dimension: int
    undefined_nonzero_pairs: tuple[tuple[int, int], ...]
    free_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for name in ("entries", "defined"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def fully_defined(self) -> bool:
        return bool(np.all(self.defined))


@dataclass(frozen=True)
class PairOverlap:
    """Overlap moduli of one state pair in both sets."""

    j: int
    k: int
    initial_overlap: float
    final_overlap: float
    violation: bool


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Verdict on deterministic transformability plus diagnostics.

    ``Feasible`` requires an independent initial set, fully defined ratio
    entries (or a unitary shortcut, see notes) and a PSD ratio matrix.
    ``NecessaryOnly`` means the positivity test passed but the initial set
    is dependent, where positivity is not known to suffice.
    ``Undetermined`` marks instances whose ratio matrix has unconstrained
    entries; no positive completion is attempted.

    ``violating_pairs`` holds only the flagged pairs of the
    distinguishability audit, in (j, k) order with j < k; call
    ``distinguishability_audit`` for every pair.  ``ratio_matrix`` is the
    overlap-ratio matrix the verdict was read from (not serialized).
    ``spectrum`` is ``hermitian_eig`` of the matrix that certified a
    Feasible verdict: the ratio matrix, or its completion with 1 when the
    Gram matrices coincide.  ``synthesize`` factors it, so no eigensolve
    is repeated.  It is None for every other verdict (not serialized).
    """

    verdict: str
    min_eigenvalue: float | None
    violating_pairs: tuple[PairOverlap, ...]
    initial_independent: bool
    final_independent: bool
    notes: tuple[str, ...]
    ratio_matrix: RatioMatrix
    spectrum: tuple[np.ndarray, np.ndarray] | None = None


def build_ratio_matrix(
    initial: StateSet, final: StateSet, tol: float = DEFAULT_TOL
) -> RatioMatrix:
    """Overlap-ratio matrix of a transformation instance.

    Final overlaps with modulus <= ``tol`` leave the entry undefined; the
    diagonal is normalized to exactly 1 (both overlaps are 1 there).
    """
    _check_shapes(initial, final)
    g1, g2 = gram(initial), gram(final)
    return _ratio_matrix(g1, g2, np.abs(g1), np.abs(g2), initial.dimension, tol)


def distinguishability_audit(
    initial: StateSet, final: StateSet, tol: float = DEFAULT_TOL
) -> tuple[PairOverlap, ...]:
    """Pairwise overlap moduli for both sets, flagging forbidden pairs.

    A deterministic channel can never make a pair of states more
    distinguishable, so a pair is flagged when its initial overlap modulus
    exceeds the final one by more than ``tol``.  Every pair j < k is
    listed, in (j, k) order.
    """
    if initial.n != final.n:
        raise SizeMismatchError(f"{initial.n} initial states vs {final.n} final states")
    j, k = np.triu_indices(initial.n, 1)
    return _pair_overlaps(np.abs(gram(initial)), np.abs(gram(final)), j, k, tol)


def _check_shapes(initial: StateSet, final: StateSet) -> None:
    if initial.n != final.n:
        raise SizeMismatchError(f"{initial.n} initial states vs {final.n} final states")
    if initial.dimension != final.dimension:
        raise DimensionMismatchError(
            f"initial dimension {initial.dimension} != final dimension {final.dimension}"
        )


def _ratio_matrix(g1, g2, abs1, abs2, dimension: int, tol: float) -> RatioMatrix:
    # abs1, abs2 are the entrywise moduli of the Gram matrices g1, g2.
    defined = abs2 > tol
    np.fill_diagonal(defined, True)
    entries = np.zeros_like(g1)
    entries[defined] = g1[defined] / g2[defined]
    np.fill_diagonal(entries, 1.0)
    entries = (entries + entries.conj().T) / 2.0
    # np.nonzero walks the strict upper triangle row by row: (j, k) order.
    j, k = np.nonzero(np.triu(~defined, 1))
    nonzero = abs1[j, k] > tol
    return RatioMatrix(
        entries,
        defined,
        len(g1),
        dimension,
        tuple(zip(j[nonzero].tolist(), k[nonzero].tolist())),
        tuple(zip(j[~nonzero].tolist(), k[~nonzero].tolist())),
    )


def _pair_overlaps(abs1, abs2, j, k, tol: float) -> tuple[PairOverlap, ...]:
    initial, final = abs1[j, k], abs2[j, k]
    return tuple(
        map(
            PairOverlap,
            j.tolist(),
            k.tolist(),
            initial.tolist(),
            final.tolist(),
            (initial > final + tol).tolist(),
        )
    )


def witness_value(m: RatioMatrix, j: int, k: int) -> float:
    """Quadratic form <v, M v> for the phase-aligned two-index probe.

    The probe vector has components (delta_j - e^{-i theta} delta_k)/sqrt(2)
    with theta the argument of entry (j, k); for a unit-diagonal ratio
    matrix the value equals 1 - |mu_jk|, so a negative result certifies
    that no deterministic channel exists.
    """
    if j == k:
        raise ValueError("witness requires two distinct indices")
    n = m.n_states
    if not (0 <= j < n and 0 <= k < n):
        raise IndexError(f"indices ({j}, {k}) out of range for {n} states")
    if not m.defined[j, k]:
        raise UndefinedEntryError(f"entry ({j}, {k}) has a vanishing final overlap")
    theta = float(np.angle(m.entries[j, k]))
    v = np.zeros(n, dtype=np.complex128)
    v[j] = 1.0 / np.sqrt(2.0)
    v[k] = -np.exp(-1j * theta) / np.sqrt(2.0)
    return float(np.real(v.conj() @ m.entries @ v))


def feasibility_check(
    initial: StateSet, final: StateSet, tol: float = DEFAULT_TOL
) -> FeasibilityReport:
    """Decide whether a deterministic channel can map each initial state
    onto its final counterpart.

    The verdict is ``Feasible`` iff the initial set is independent and the
    (fully defined) ratio matrix is PSD -- or the two Gram matrices agree
    entrywise and the ratio matrix with its unconstrained entries completed
    with 1 is PSD, in which case a unitary channel exists.  Failures of positivity,
    pairs made strictly more distinguishable, or a final span exceeding
    the initial span each yield ``Infeasible``.  Dependent initial sets
    cap the verdict at ``NecessaryOnly``; unconstrained entries without a
    unitary shortcut give ``Undetermined``.
    """
    _check_shapes(initial, final)
    n = initial.n
    g1, g2 = gram(initial), gram(final)
    abs1, abs2 = np.abs(g1), np.abs(g2)
    m = _ratio_matrix(g1, g2, abs1, abs2, initial.dimension, tol)
    rank1, rank2 = hermitian_rank(g1, tol), hermitian_rank(g2, tol)
    flagged = np.nonzero(np.triu(abs1 > abs2 + tol, 1))
    violations = _pair_overlaps(abs1, abs2, *flagged, tol)
    notes: list[str] = []
    if rank1 < n:
        notes.append(f"initial set is linearly dependent (rank {rank1} of {n})")
    if rank2 < n:
        notes.append(f"final set is linearly dependent (rank {rank2} of {n})")

    def report(verdict, min_eig, spectrum=None):
        for part in spectrum or ():
            part.setflags(write=False)
        return FeasibilityReport(
            verdict, min_eig, violations, rank1 == n, rank2 == n, tuple(notes), m, spectrum
        )

    if m.undefined_nonzero_pairs:
        pairs = ", ".join(f"({j}, {k})" for j, k in m.undefined_nonzero_pairs)
        notes.append(f"orthogonal final pairs with non-orthogonal initial counterparts: {pairs}")
        return report(INFEASIBLE, None)

    if rank2 > rank1:
        notes.append(
            f"final states span {rank2} dimensions, initial states only {rank1}; "
            "a linear map cannot enlarge the span"
        )
        return report(INFEASIBLE, None)

    # Entries with 0/0 overlaps are unconstrained.  When the Gram matrices
    # coincide, completing them with 1 reproduces the unitary channel if the
    # completion is PSD; Grams equal within tol can hold ratios far from 1
    # between tiny overlaps, and then the audit below decides.
    equal_grams = not m.fully_defined and float(np.max(np.abs(g1 - g2))) <= tol
    if m.fully_defined or equal_grams:
        spectrum = hermitian_eig(np.where(m.defined, m.entries, 1.0), tol)
        ok, min_eig = _psd_verdict(spectrum[0], tol)
    if m.fully_defined and not ok:
        notes.append(f"ratio matrix has negative eigenvalue {min_eig:.6e}")
        return report(INFEASIBLE, min_eig)
    if m.fully_defined or (equal_grams and ok):
        if equal_grams:
            notes.append(
                "initial and final Gram matrices coincide: a unitary channel realizes "
                "the transformation (unconstrained entries completed with 1)"
            )
        if rank1 == n:
            return report(FEASIBLE, min_eig, spectrum)
        if equal_grams:
            notes.append("verdict capped at NecessaryOnly because the initial set is dependent")
        else:
            notes.append(
                "ratio matrix is PSD, which is necessary but not known sufficient "
                "for a dependent initial set"
            )
        return report(NECESSARY_ONLY, min_eig)
    if violations:
        notes.append("a final pair is more distinguishable than its initial counterpart")
        return report(INFEASIBLE, None)
    notes.append(
        f"{len(m.free_pairs)} state pair(s) leave the ratio matrix underdetermined; "
        "no positive completion attempted"
    )
    return report(UNDETERMINED, None)
