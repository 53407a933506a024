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
from .states import StateSet, _certified, _gram_rank, _kept_spectrum, _overlap_inverse, gram

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNDETERMINED = "Undetermined"

#: Synthesis guard on a built channel's residuals, in units of tol; Feasible needs half.
_GUARD = 1e3
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
    The diagonal is always defined and exactly 1.  Read-only arrays owning
    their data (the check's) are kept; anything else is copied and frozen.
    """

    entries: np.ndarray
    defined: np.ndarray
    undefined_nonzero_pairs: tuple[tuple[int, int], ...]
    free_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for name in ("entries", "defined"):
            arr = getattr(self, name)
            if not (isinstance(arr, np.ndarray) and arr.flags.owndata and not arr.flags.writeable):
                arr = np.array(arr)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @property
    def fully_defined(self) -> bool:
        return bool(np.all(self.defined))


class _PairAnalysis(NamedTuple):
    """What ``_check`` returns beside its report: the read-only G1, G2,
    ``_certified(G2, tol)`` (False also when not tried, as for a dependent
    G1), G1's numerical rank, the completed ratio matrix (``m.entries``
    itself when fully defined) and, for a Feasible verdict, the completion's
    factor C (None after a bare fast accept) and G1's ``_overlap_inverse``
    (formed for a build check only)."""

    g1: np.ndarray
    g2: np.ndarray
    certified2: bool
    rank1: int
    completion: np.ndarray
    c: np.ndarray | None
    inverse: np.ndarray | None


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Verdict on deterministic transformability plus diagnostics.

    ``verdict`` is decided as ``feasibility_check`` describes: a
    ``Feasible`` pair is one ``synthesize`` builds, and ``Infeasible`` comes
    with a named witness in the notes.

    ``violating_pairs`` holds only the flagged records of the
    distinguishability audit, a read-only record array of the same fields,
    in (j, k) order with j < k; call ``distinguishability_audit`` for every
    pair.  ``ratio_matrix`` is the overlap-ratio matrix the verdict was
    read from (not serialized).  The report keeps nothing else: the Gram
    matrices and what ``synthesize`` builds from stay in the check's record
    (``_check``), so a kept report does not pin them.
    """

    verdict: str
    min_eigenvalue: float | None
    violating_pairs: np.recarray
    initial_independent: bool
    final_independent: bool
    notes: tuple[str, ...]
    ratio_matrix: RatioMatrix


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
    entries += entries.conj().T  # with the halving, sets the signs of zeros, which eigh sees
    entries /= 2.0
    entries.setflags(write=False)
    defined.setflags(write=False)
    j, k = _upper_pairs(~defined)
    nonzero = abs1[j, k] > tol
    undefined_nonzero = tuple(zip(j[nonzero].tolist(), k[nonzero].tolist()))
    free = tuple(zip(j[~nonzero].tolist(), k[~nonzero].tolist()))
    return RatioMatrix(entries, defined, undefined_nonzero, free)


def _upper_pairs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices (j, k), j < k, of a square mask's True entries, in (j, k) order."""
    j, k = np.divmod(np.flatnonzero(mask), len(mask))
    return j[j < k], k[j < k]


def _pair_overlaps(abs1, abs2, j, k, tol: float) -> np.recarray:
    initial, final = abs1[j, k], abs2[j, k]
    records = np.empty(len(j), _AUDIT_RECORD).view(np.recarray)  # numpy.rec is not loaded
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
    made strictly more distinguishable, and ``Undetermined`` otherwise.  A PSD
    one yields ``Feasible`` exactly when the channel ``synthesize`` builds
    passes its guard: at once for a certified set without free pairs whose
    factor drops no ratio eigenvalue, at tol >= 1e-9 (one Cholesky of the
    completion proves it; none is tried once a pair is flagged); else when
    both exact ``_guard_residuals`` are within half the guard, and
    ``Undetermined`` otherwise, with a note that blames G1's rank cut when
    the per-state residual fails.  A completion counts as PSD when its
    smallest eigenvalue is at least -tol * max(1, spectral radius), so an
    instance infeasible by less than that is never ``Infeasible``: it is
    ``Feasible`` only by the residuals, else ``Undetermined``.  A completion
    with a flagged pair is read from one ``eigvalsh``, and takes ``eigh``
    only if it is PSD within tol, for the factor.  Gram matrices
    are certified as in ``span_duals``; the residuals of a G1 that is not
    come from its eigenpairs, with no inverse formed.  Duals over the 1e12
    condition ceiling (only for tol < 1e-12) raise ``IllConditionedError``.
    """
    return _check(initial, final, tol, build=False)[0]


def _check(
    initial: StateSet, final: StateSet, tol: float, build: bool
) -> tuple[FeasibilityReport, _PairAnalysis]:
    """``feasibility_check``'s report and the record of what it computed;
    ``build`` also keeps, for a Feasible verdict, the factor C and G1's
    inverse that ``_synthesize_from`` builds from (for a dependent G1, formed
    from its eigenpairs)."""
    _check_shapes(initial, final, tol)
    n = initial.n
    g1, g2 = gram(initial), gram(final)
    abs1, abs2 = np.abs(g1), np.abs(g2)
    m = _ratio_matrix(g1, g2, abs1, abs2, tol)
    violations = _pair_overlaps(abs1, abs2, *_upper_pairs(abs1 > abs2 + tol), tol)
    del abs1, abs2  # freed before any factorization
    # gram() is exactly Hermitian: eigh and the certificates read it as is.  A
    # dependent initial set, or one with a free pair, keeps G1's eigenpairs for
    # the residuals and the duals.  No Cholesky is tried where it cannot serve
    # a Feasible verdict: rank(G1) <= D, and a Feasible pair has rank(G2) <=
    # rank(G1), so a dependent G1 leaves G2's rank to its eigenvalues.
    certified = not m.free_pairs and n <= initial.dimension and _certified(g1, tol)
    eig1 = None if certified else np.linalg.eigh(g1)
    rank1 = n if eig1 is None else numerical_rank(eig1[0], tol)
    rank2, certified2 = (_gram_rank(g2, tol) if rank1 == n
                         else (numerical_rank(np.linalg.eigvalsh(g2), tol), False))
    notes: list[str] = []
    for name, rank in (("initial", rank1), ("final", rank2)):
        if rank < n:
            notes.append(f"{name} set is linearly dependent (rank {rank} of {n})")

    # A channel exists iff G1 = M o G2 for a PSD, unit-diagonal M.  Entries
    # with 0/0 overlaps leave M free; completing them with 1 keeps the
    # unitary channel of equal Gram matrices.  The completion is exactly
    # Hermitian and finite by construction, so eigh reads it unchecked.
    completion = m.entries if m.fully_defined else np.where(m.defined, m.entries, 1.0)

    def report(verdict, min_eig, c=None, inverse=None):
        for part in (g1, g2, completion, c, inverse):
            if part is not None:
                part.setflags(write=False)
        kept = FeasibilityReport(
            verdict, min_eig, violations, rank1 == n, rank2 == n, tuple(notes), m
        )
        return kept, _PairAnalysis(g1, g2, certified2, rank1, completion, c, inverse)

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

    # A factor that drops nothing leaves the built channel only rounding, below
    # 1.4 eps kappa(G1) < 1.4 eps / tol (the certificate): within half the guard,
    # 500 tol, for tol >= 1e-9; a shifted Cholesky proves it with a margin over eigh.
    # No Cholesky once a pair is flagged: its ratio is defined (the check returned otherwise),
    # so |mu| > 1 + tol, and its 2x2 minor, hence by interlacing the completion, has an
    # eigenvalue below -tol, past the backward error (n + 1) eps trace (4e-12 at n = 128).
    # That eigenvalue fails the PSD rule too unless the spectral radius excuses it, so
    # eigenvalues decide a flagged pair, and only one that passes takes eigh for its factor.
    flagged = len(violations) > 0
    fast = certified and tol >= 1e-9 and not flagged
    if fast and not build and _certifies_full_rank(completion, DEFAULT_RANK_TOL):
        return report(FEASIBLE, float(np.linalg.eigvalsh(completion)[0]))
    if flagged:
        ok, min_eig = _psd_verdict(np.linalg.eigvalsh(completion)[::-1], tol)
    if not flagged or ok:
        w, v = np.linalg.eigh(completion)
        spectrum = (w[::-1], v[:, ::-1])  # descending views
        ok, min_eig = _psd_verdict(spectrum[0], tol)
    if ok:
        if m.free_pairs:
            notes.append(
                f"{len(m.free_pairs)} state pair(s) orthogonal in both sets leave "
                "their ratio free; completed with 1"
            )
        # A fast accept reads no residuals, but still keeps the factor (and,
        # in a build check, G1's inverse) that synthesis builds from.
        c = _spectral_factor(*spectrum, tol)
        accept = fast and c.shape[1] == n  # the factor drops no ratio eigenvalue
        # A build check keeps G1's inverse, and the residuals of a certified G1
        # read it; any other G1's residuals come from its eigenpairs.
        needs_inverse = build or (certified and not accept)
        inverse = _overlap_inverse(g1, tol, certified, eig1) if needs_inverse else None
        residuals = () if accept else _guard_residuals(g1, g2, c, inverse, eig1, rank1, tol)
        if all(residual <= _GUARD / 2 * tol for residual in residuals):  # NaN fails too
            return report(FEASIBLE, min_eig, c, inverse if build else None)
        # A per-state residual is nonzero only where G1's rank cut drops eigenpairs.
        cause = ("the initial set's rank cut drops directions the channel must map"
                 if residuals[0] > _GUARD / 2 * tol
                 else "the completion with 1 is PSD only to within tol")
        notes.append(cause + ": its channel's residuals (per-state {:.3e}, completeness {:.3e}) "
                     "exceed half the guard".format(*residuals))
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


def _guard_residuals(g1, g2, c, inverse, eig1, rank1: int, tol: float):
    """Both residuals the synthesis guard reads off the channel ``synthesize``
    builds from the factor ``c``, exactly: from ``inverse`` = (conj G1)^+
    when G1 was certified (``eig1`` None), else from G1's ascending
    eigenpairs ``eig1``, with no inverse formed.

    With T = (C C^dag) o G2 and G = conj(G1), the operators sum to
    I + Psi G^+ (conj(T) - G) G^+ Psi^dag, whose Frobenius norm is
    sqrt(Re tr(X X)) with X = G^+ (conj(T) - G).  Over G1's kept eigenpairs
    (V_r, W_r; ``_overlap_inverse``'s rank cut and condition ceiling) that is
    ||W_r^-1/2 V_r^dag (T - G1) V_r W_r^-1/2||_F, summed as |y_jk|^2 / (w_j w_k)
    over Y = V_r^dag (T - G1) V_r.  State j's squared residual
    is y^dag (V_d^dag T V_d + diag(w_d)) y with y = V_d^dag e_j for G1's
    dropped eigenpairs (V_d, w_d; w_d is the sink's share), 0 if none.
    """
    t = c @ c.conj().T
    t *= g2
    per_state = 0.0
    k = len(g1) - rank1
    if k:
        w, v = eig1
        y = v[:, :k].conj().T  # column j is y_j
        b = y @ t @ y.conj().T + np.diag(w[:k])
        squares = np.sum(y.conj() * (b @ y), axis=0).real  # y_j^dag b y_j
        per_state = np.sqrt(max(float(np.max(squares)), 0.0))
    t -= g1  # T - G1; T is not read again
    if eig1 is None:
        x = inverse @ t.conj()
        completeness = np.sqrt(max(float(np.sum(x * x.T).real), 0.0))  # NaN stays NaN
    else:
        w, v = _kept_spectrum(*eig1, tol)
        y = v.conj().T @ t @ v
        squares = np.sum((y.real**2 + y.imag**2) / np.outer(w, w))  # |y_jk|^2 / (w_j w_k)
        completeness = np.sqrt(max(float(squares), 0.0))  # NaN stays NaN
    return float(per_state), float(completeness)
