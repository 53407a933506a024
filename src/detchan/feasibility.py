"""Deterministic-transformability analysis.

The central object is the overlap-ratio matrix: entry (j, k) divides the
initial overlap <psi1_k|psi1_j> by the final overlap <psi2_k|psi2_j>.
A deterministic channel mapping each initial state onto its target exists
iff G1 = M o G2 for some PSD, unit-diagonal M, whatever the rank of either
set (Chefles, Jozsa & Winter, quant-ph/0307227): M must agree with the
ratio matrix wherever the final overlap is nonzero.  Ratios with vanishing
denominator are tracked explicitly rather than guessed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, SizeMismatchError
from .numerics import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    _certifies_full_rank,
    _check_tolerances,
    _psd_verdict,
    _spectral_factor,
    numerical_rank,
)
from .states import StateSet, _overlap_inverse, gram

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNDETERMINED = "Undetermined"

#: One record of the distinguishability audit (a record dtype, so that a
#: record array views it without converting, and records answer ``p.j``).
_AUDIT_RECORD = np.dtype(
    (np.record, [("j", np.intp), ("k", np.intp), ("initial_overlap", np.float64),
                 ("final_overlap", np.float64), ("violation", np.bool_)])
)


@dataclass(frozen=True, eq=False)
class RatioMatrix:
    """Entrywise ratio of initial to final state overlaps.

    ``entries[j, k] = <psi1_k|psi1_j> / <psi2_k|psi2_j>`` wherever the
    final overlap is nonzero; ``defined[j, k]`` records which entries
    exist (undefined slots are stored as 0).  Pairs whose final overlap
    vanishes while the initial one does not are collected in
    ``undefined_nonzero_pairs``; they rule out any deterministic channel.
    A final overlap below 2^-1000 of the initial one counts as vanishing.
    Pairs where both overlaps vanish are unconstrained (``free_pairs``).
    The diagonal is always defined and exactly 1.
    """

    entries: np.ndarray
    defined: np.ndarray
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


class _PairAnalysis(NamedTuple):
    """The check's read-only G1, G2, ``_certifies_full_rank(G2, tol)`` (False
    also when not tried) and, for a Feasible verdict, G1's ``_overlap_inverse``
    and the ratio spectrum (None after a fast accept, except a build check's spectrum)."""

    g1: np.ndarray
    g2: np.ndarray
    certified2: bool
    spectrum: tuple[np.ndarray, np.ndarray] | None
    inverse: np.ndarray | None


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Verdict on deterministic transformability plus diagnostics.

    ``verdict`` is decided as ``feasibility_check`` describes: a
    ``Feasible`` pair is one ``synthesize`` builds (at the default
    ``rank_tol``), and ``Infeasible`` comes with a named witness in the notes.

    ``violating_pairs`` holds only the flagged records of the
    distinguishability audit, a read-only record array of the same fields,
    in (j, k) order with j < k; call ``distinguishability_audit`` for every
    pair.  ``ratio_matrix`` is the overlap-ratio matrix the verdict was
    read from (not serialized).
    The check owns the pair's Gram matrices: its private ``_pair`` record
    keeps G1, G2 and what it computed from them, which ``synthesize`` and
    ``coherence_roundtrip`` read instead of computing them again.
    """

    verdict: str
    min_eigenvalue: float | None
    violating_pairs: np.recarray
    initial_independent: bool
    final_independent: bool
    notes: tuple[str, ...]
    ratio_matrix: RatioMatrix
    _pair: _PairAnalysis


def build_ratio_matrix(
    initial: StateSet, final: StateSet, tol: float = DEFAULT_TOL
) -> RatioMatrix:
    """Overlap-ratio matrix of a transformation instance.

    Final overlaps with modulus <= ``tol`` leave the entry undefined; the
    diagonal is normalized to exactly 1 (both overlaps are 1 there).
    """
    _check_shapes(initial, final, tol)
    g1, g2 = gram(initial), gram(final)
    return _ratio_matrix(g1, g2, np.abs(g1), np.abs(g2), tol)


def distinguishability_audit(
    initial: StateSet, final: StateSet, tol: float = DEFAULT_TOL
) -> np.recarray:
    """Pairwise overlap moduli for both sets, flagging forbidden pairs.

    A deterministic channel can never make a pair of states more
    distinguishable, so a pair is flagged when its initial overlap modulus
    exceeds the final one by more than ``tol``.  Every pair j < k is
    listed, in (j, k) order, as one record of a read-only ``np.recarray``
    with fields ``j``, ``k``, ``initial_overlap``, ``final_overlap`` and
    ``violation``.
    """
    _check_tolerances(tol=tol)
    if initial.n != final.n:
        raise SizeMismatchError(f"{initial.n} initial states vs {final.n} final states")
    j, k = np.triu_indices(initial.n, 1)
    return _pair_overlaps(np.abs(gram(initial)), np.abs(gram(final)), j, k, tol)


def _check_shapes(initial: StateSet, final: StateSet, tol: float) -> None:
    _check_tolerances(tol=tol)
    if initial.n != final.n:
        raise SizeMismatchError(f"{initial.n} initial states vs {final.n} final states")
    if initial.dimension != final.dimension:
        raise DimensionMismatchError(
            f"initial dimension {initial.dimension} != final dimension {final.dimension}"
        )


def _ratio_matrix(g1, g2, abs1, abs2, tol: float) -> RatioMatrix:
    # abs1, abs2 are the entrywise moduli of g1, g2.  The floor 2^-1000 abs1
    # (below any tol > 1e-301, as |g1| <= 1) keeps every defined ratio finite.
    defined = abs2 > np.maximum(tol, abs1 * 2.0**-1000)
    np.fill_diagonal(defined, True)
    entries = np.divide(g1, g2, out=np.zeros_like(g1), where=defined)
    np.fill_diagonal(entries, 1.0)
    entries = (entries + entries.conj().T) / 2.0  # sets the signs of zeros, which eigh sees
    j, k = np.divmod(np.flatnonzero(~defined), len(defined))  # row by row: (j, k) order
    j, k = j[j < k], k[j < k]
    nonzero = abs1[j, k] > tol
    return RatioMatrix(
        entries,
        defined,
        tuple(zip(j[nonzero].tolist(), k[nonzero].tolist())),
        tuple(zip(j[~nonzero].tolist(), k[~nonzero].tolist())),
    )


def _pair_overlaps(abs1, abs2, j, k, tol: float) -> np.recarray:
    # One record per index pair (j, k), filled column by column.
    initial, final = abs1[j, k], abs2[j, k]
    records = np.empty(len(j), _AUDIT_RECORD).view(np.recarray)
    for name, column in zip(_AUDIT_RECORD.names, (j, k, initial, final, initial > final + tol)):
        records[name] = column
    records.setflags(write=False)
    return records


def feasibility_check(
    initial: StateSet, final: StateSet, tol: float = DEFAULT_TOL
) -> FeasibilityReport:
    """Decide whether a deterministic channel can map each initial state
    onto its final counterpart.

    One criterion serves every rank: the ratio matrix with its unconstrained
    (0/0) entries completed with 1 must be PSD.  Before that test, a final
    pair orthogonal while its initial pair is not, or a final span exceeding
    the initial span, yields ``Infeasible``.  A completion that is not PSD
    yields ``Infeasible`` when the ratio matrix is fully defined or a pair is
    made strictly more distinguishable, and ``Undetermined`` otherwise.  A
    PSD one yields ``Feasible`` exactly when the channel ``synthesize``
    builds (default ``rank_tol``) passes its guard: at once for a certified
    set without free pairs whose factor drops no ratio eigenvalue, at
    tol >= 1e-9 (one Cholesky of the completion proves it); else when both
    exact ``_guard_residuals`` are within half the guard, and
    ``Undetermined`` otherwise.  Duals over the 1e12 condition ceiling (only
    for tol < 1e-12) raise ``IllConditionedError``, as in ``synthesize``.
    """
    return _check(initial, final, tol, build=False)


def _check(initial: StateSet, final: StateSet, tol: float, build: bool) -> FeasibilityReport:
    """``feasibility_check``; ``build`` keeps the ratio spectrum ``_synthesize_from`` factors."""
    _check_shapes(initial, final, tol)
    n = initial.n
    g1, g2 = gram(initial), gram(final)
    abs1, abs2 = np.abs(g1), np.abs(g2)
    m = _ratio_matrix(g1, g2, abs1, abs2, tol)
    # gram() is exactly Hermitian, so no hermitian_rank check.  A dependent
    # initial set, or one with a free pair, keeps G1's eigenpairs for the
    # residuals and the duals.
    certified = not m.free_pairs and _certifies_full_rank(g1, tol)
    eig1 = None if certified else np.linalg.eigh(g1)
    rank1 = n if eig1 is None else numerical_rank(eig1[0], tol)
    certified2 = _certifies_full_rank(g2, tol)
    rank2 = n if certified2 else numerical_rank(np.linalg.eigvalsh(g2), tol)
    j, k = np.divmod(np.flatnonzero(abs1 > abs2 + tol), n)  # row by row: (j, k) order
    violations = _pair_overlaps(abs1, abs2, j[j < k], k[j < k], tol)
    notes: list[str] = []
    for name, rank in (("initial", rank1), ("final", rank2)):
        if rank < n:
            notes.append(f"{name} set is linearly dependent (rank {rank} of {n})")

    def report(verdict, min_eig, spectrum=None, inverse=None):
        for part in (g1, g2, *(spectrum or ()), *(() if inverse is None else (inverse,))):
            part.setflags(write=False)
        pair = _PairAnalysis(g1, g2, certified2, spectrum, inverse)
        return FeasibilityReport(
            verdict, min_eig, violations, rank1 == n, rank2 == n, tuple(notes), m, pair
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

    # A channel exists iff G1 = M o G2 for a PSD, unit-diagonal M.  Entries
    # with 0/0 overlaps leave M free; completing them with 1 keeps the
    # unitary channel of equal Gram matrices.  The completion is exactly
    # Hermitian and finite by construction, so eigh reads it unchecked.
    completion = np.where(m.defined, m.entries, 1.0)
    # A factor that drops nothing leaves the built channel only rounding, below
    # 1.4 eps kappa(G1) < 1.4 eps / tol (the certificate): within half the guard,
    # 500 tol, for tol >= 1e-9; a shifted Cholesky proves it with a margin over eigh.
    fast = certified and tol >= 1e-9
    if fast and not build and _certifies_full_rank(completion, DEFAULT_RANK_TOL):
        return report(FEASIBLE, float(np.linalg.eigvalsh(completion)[0]))
    w, v = np.linalg.eigh(completion)
    spectrum = (w[::-1].copy(), v[:, ::-1].copy())  # descending
    ok, min_eig = _psd_verdict(spectrum[0], tol)
    if ok:
        if m.free_pairs:
            notes.append(
                f"{len(m.free_pairs)} state pair(s) orthogonal in both sets leave "
                "their ratio free; completed with 1"
            )
        if fast and min_eig > DEFAULT_RANK_TOL * w[-1]:
            return report(FEASIBLE, min_eig, spectrum)
        inverse = _overlap_inverse(g1, tol, certified, eig1)
        residuals = _guard_residuals(g1, g2, spectrum, inverse, eig1, rank1, tol)
        if all(residual <= 0.5e3 * tol for residual in residuals):  # NaN fails too
            return report(FEASIBLE, min_eig, spectrum, inverse)
        notes.append(
            "the completion with 1 is PSD only to within tol: its channel's residuals "
            "(per-state {:.3e}, completeness {:.3e}) exceed half the guard".format(*residuals)
        )
        return report(UNDETERMINED, min_eig)
    if m.fully_defined:
        notes.append(f"ratio matrix has negative eigenvalue {min_eig:.6e}")
        return report(INFEASIBLE, min_eig)
    if len(violations):
        notes.append("a final pair is more distinguishable than its initial counterpart")
        return report(INFEASIBLE, None)
    notes.append(
        f"{len(m.free_pairs)} state pair(s) leave the ratio matrix underdetermined; "
        "their completion with 1 is not PSD and no other completion is searched"
    )
    return report(UNDETERMINED, None)


def _guard_residuals(g1, g2, spectrum, inverse, eig1, rank1: int, tol: float):
    """Both residuals the synthesis guard reads off the channel ``synthesize``
    builds (default ``rank_tol``), exactly, from ``inverse`` = (conj G1)^+
    and G1's ascending eigenpairs ``eig1`` (None when G1 was certified).

    With T = (C C^dag) o G2 and G = conj(G1), the operators sum to
    I + Psi G^+ (conj(T) - G) G^+ Psi^dag, whose Frobenius norm is
    sqrt(Re tr(X X)) with X = G^+ (conj(T) - G).  State j's squared residual
    is y^dag (V_d^dag T V_d + diag(w_d)) y with y = V_d^dag e_j for G1's
    dropped eigenpairs (V_d, w_d; w_d is the sink's share), 0 if none.
    """
    c = _spectral_factor(*spectrum, DEFAULT_RANK_TOL, tol)
    t = (c @ c.conj().T) * g2
    x = inverse @ (t - g1).conj()
    completeness = np.sqrt(max(float(np.sum(x * x.T).real), 0.0))  # NaN stays NaN
    per_state = 0.0
    k = len(g1) - rank1
    if k:
        w, v = eig1
        y = v[:, :k].conj().T  # column j is y_j
        b = y @ t @ y.conj().T + np.diag(w[:k])
        squares = np.sum(y.conj() * (b @ y), axis=0).real  # y_j^dag b y_j
        per_state = np.sqrt(max(float(np.max(squares)), 0.0))
    return float(per_state), float(completeness)
