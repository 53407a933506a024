"""Superposition-purity probes and unitary-relation extraction.

A deterministic channel between two independent state sets either comes
from a unitary (up to per-state phases) or it decoheres every
superposition that involves the whole set: purity of a single complete
superposition output forces the unitary relation.  This module measures
purity directly (probe), tests the structural criterion on the
overlap-ratio matrix (mu_jk = e^{i(phi_j - phi_k)} on every defined pair,
decided by phase synchronisation), extracts the unitary and phases when
they exist, and cross-checks the two routes.  The structural test's
tolerances are the module constants ``PHASE_TOL`` and ``UNITARY_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import index

import numpy as np

from .errors import (
    FingerprintMismatchError,
    NotIndependentError,
    SupportTooSmallError,
)
from .numerics import DEFAULT_PURITY_TOL, DEFAULT_TOL, _check_tolerances, phase_pin
from .states import (
    StateSet,
    _gram_rank,
    _overlap_inverse,
    _span_duals,
    fingerprint,
    gram,
    superpose,
)
from .synthesis import KrausSet, _pure_output, _synthesize_from, purity
from .feasibility import RatioMatrix, _check, _check_shapes, _ratio_matrix

UNITARY_RELATED = "UnitaryRelated"
DECOHERING = "Decohering"

#: Allowed deviation of a defined ratio entry from e^{i(phi_j - phi_k)},
#: and of its modulus from 1, in the unitary-relation test.
PHASE_TOL = 1e-6
#: Largest per-state mapping residual ||U psi1_j - e^{i phi_j} psi2_j||
#: accepted for the Procrustes unitary U of the unitary-relation test.
UNITARY_TOL = 1e-8


@dataclass(frozen=True, eq=False, kw_only=True)
class CoherenceReport:
    """Outcome of a purity probe or a unitary-relation test.

    Fields that do not apply to the producing operation are None: the
    probe fills the purity side, the structural test fills the unitary
    side.  ``extracted_unitary`` is present only with a UnitaryRelated
    verdict; it is unitary by construction and maps every initial state
    of the support onto its final state within ``UNITARY_TOL``.
    """

    coefficients: np.ndarray | None = None
    support: tuple[int, ...]
    #: Channel output for the normalized superposition (not serialized).
    output_density: np.ndarray | None = None
    output_purity: float | None = None
    is_pure: bool | None = None
    output_state: np.ndarray | None = None
    output_coefficients: np.ndarray | None = None
    extracted_unitary: np.ndarray | None = None
    phases: np.ndarray | None = None
    #: Overlap-ratio matrix of the support the test decided on (not serialized).
    ratio_matrix: RatioMatrix | None = None
    verdict: str


@dataclass(frozen=True, eq=False)
class CoherenceRoundTrip:
    """Cross-check of the purity probe against the structural test."""

    probe: CoherenceReport
    test: CoherenceReport
    agree: bool
    #: max |r_j r_k^* - q_j q_k^* mu_jk| from the recovered expansion.
    coefficient_law_residual: float | None
    #: same law read off the output density matrix through Psi2^+, the
    #: final states' conjugated duals, which orthonormalizes them.
    device_residual: float | None


def coherence_probe(
    ks: KrausSet,
    initial: StateSet,
    coefficients,
    purity_tol: float = DEFAULT_PURITY_TOL,
    final: StateSet | None = None,
    tol: float = DEFAULT_TOL,
) -> CoherenceReport:
    """Send a superposition of the initial states through the channel and
    measure whether it survives as a pure state.

    The Kraus set must carry the fingerprint of ``initial`` (and of
    ``final`` when supplied, which must match ``initial`` in size and
    dimension).  At least two coefficients must be nonzero.  The output
    rho is pure when 1 - Tr rho^2 / t^2 <= ``purity_tol``, with t = Tr rho
    (1 for a trace-preserving channel; a zero output is never pure).  For
    the input v, rho = B B^dag in O(D^2 K) from B, the (D, K) matrix of
    columns A_k v, formed once (``DimensionMismatchError`` unless the channel
    acts on the states' dimension); a pure output's state is B's top left
    singular vector, from one thin SVD in O(D K^2).  When the final set is
    available and independent on the support (``_gram_rank``, whose
    certificate also serves the duals), the output is additionally expanded
    in the final states, r = Psi2^+ output_state with Psi2^+ their conjugated
    ``span_duals`` on the support, to recover its combination coefficients.
    ``coherence_roundtrip`` skips the fingerprint checks.
    """
    _check_tolerances(purity_tol=purity_tol)
    q, vec, support = _superposition(initial, coefficients, tol)
    if final is not None:
        # A hand-assembled channel carries no final fingerprint to catch these.
        _check_shapes(initial, final, tol)
    if fingerprint(initial) != ks.initial_fingerprint:
        raise FingerprintMismatchError("Kraus set was not synthesized from this initial set")
    if final is not None and ks.final_fingerprint and fingerprint(final) != ks.final_fingerprint:
        raise FingerprintMismatchError("Kraus set was not synthesized onto this final set")
    probe = _probe(ks, q, vec, support, purity_tol)[0]
    if probe.is_pure and final is not None:
        sub = final.subset(support)
        # One Gram and one shifted Cholesky serve the rank test and the duals.
        g = gram(sub)
        rank, certified = _gram_rank(g, tol)
        if rank == len(g):
            probe = _expanded(probe, sub.states, g, tol, certified)[0]
    return probe


def _superposition(initial: StateSet, coefficients, tol):
    # q, its normalized superposition and support, checked before any Gram work.
    q = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    vec, support = superpose(initial, q, tol)
    if len(support) < 2:
        raise SupportTooSmallError("need at least two nonzero coefficients")
    return q, vec, support


def _probe(ks: KrausSet, q, vec, support, purity_tol):
    # ``coherence_probe``'s purity side for the checked vec, and the amplitudes B of rho = B B^dag.
    b, rho = _pure_output(ks, vec)
    p = purity(rho)
    # Purity of rho / t, since a hand-assembled set need not preserve trace.
    t = float(np.trace(rho).real)
    is_pure = t > 0.0 and 1.0 - p / t / t <= purity_tol
    output_state = None
    if is_pure:
        top = np.linalg.svd(b, full_matrices=False)[0][:, 0]
        output_state = top * phase_pin(top)
    return CoherenceReport(
        coefficients=q,
        support=support,
        output_density=rho,
        output_purity=p,
        is_pure=is_pure,
        output_state=output_state,
        verdict=UNITARY_RELATED if is_pure else DECOHERING,
    ), b


def _expanded(probe: CoherenceReport, states, g, tol, certified):
    # ``probe`` with its coefficients r = Psi2^+ output_state, and Psi2^+: the
    # conjugated duals of the final ``states`` on the support, of Gram matrix g.
    bras = _span_duals(states, _overlap_inverse(g, tol, certified)).conj()
    r = np.zeros(len(probe.coefficients), dtype=np.complex128)
    r[list(probe.support)] = bras @ probe.output_state
    return replace(probe, output_coefficients=r), bras


def unitary_relation_test(
    initial: StateSet,
    final: StateSet,
    support=None,
    tol: float = DEFAULT_TOL,
) -> CoherenceReport:
    """Decide whether the two sets are related by one unitary on the
    support, and extract it when they are.

    Restricted to the support, a unitary-related pair has overlap ratios
    mu_jk = e^{i(phi_j - phi_k)} on every defined pair; pairs orthogonal in
    both sets (0/0 entries) leave the phases free.  The phases are found
    by phase synchronisation over the graph of defined pairs: each
    connected component starts from its lowest index at phase 0, every
    newly reached state takes the phase the reaching entry implies, and
    every defined entry must then match to within ``PHASE_TOL``.  Both
    sets must be independent on the support (a unitary cannot create a
    dependent image).  The candidate unitary is the one closest to mapping
    every psi1_j onto e^{i phi_j} psi2_j, the polar factor of Y X^dag with
    X the initial and Y the phased final states as columns (orthogonal
    Procrustes, Schoenemann 1966); it is unitary by construction and is
    accepted only if every per-state residual ||U psi1_j - e^{i phi_j} psi2_j||
    stays within ``UNITARY_TOL``.  The global phase is pinned by making
    the largest-modulus entry of the first column real positive.
    ``coherence_roundtrip`` runs the same test from its check's report,
    whose independence flags already guard every support.
    """
    _check_shapes(initial, final, tol)
    n = initial.n
    support = tuple(range(n)) if support is None else tuple(sorted(set(map(_index, support))))
    if any(i < 0 or i >= n for i in support):
        raise IndexError(f"support {support} out of range for {n} states")
    if len(support) < 2:
        raise SupportTooSmallError("support must contain at least two states")
    sub1, sub2 = initial.subset(support), final.subset(support)
    g1, g2 = gram(sub1), gram(sub2)
    if _gram_rank(g1, tol)[0] < len(g1):
        raise NotIndependentError("initial states are dependent on the support")
    if _gram_rank(g2, tol)[0] < len(g2):
        raise NotIndependentError(
            "final states are dependent on the support; no unitary produces a dependent image"
        )
    m = _ratio_matrix(g1, g2, np.abs(g1), np.abs(g2), tol)
    return _unitary_relation(sub1, sub2, support, m)


def _index(i) -> int:
    # operator.index, which takes Python bools as 0 and 1: a mask is refused
    # as numpy refuses its own bools, never read as a list of indices.
    if isinstance(i, (bool, np.bool_)):
        raise TypeError(f"support indices must be integers, not {type(i).__name__}")
    return index(i)


def _unitary_relation(sub1: StateSet, sub2: StateSet, support, m) -> CoherenceReport:
    """``unitary_relation_test`` on guarded support sets with ratio matrix m."""
    phases = None if m.undefined_nonzero_pairs else _phase_sync(m)
    u = None if phases is None else _procrustes_unitary(sub1, sub2, phases)
    if u is None:
        return CoherenceReport(support=support, ratio_matrix=m, verdict=DECOHERING)
    return CoherenceReport(
        support=support,
        extracted_unitary=u * phase_pin(u[:, 0]),
        phases=phases,
        ratio_matrix=m,
        verdict=UNITARY_RELATED,
    )


def _phase_sync(m) -> np.ndarray | None:
    # Unconstrained (0/0) pairs are consistent with any phases, so the
    # per-state phases are propagated over the graph of defined pairs and
    # verified on every defined entry, per connected component.
    s = len(m.entries)
    offdiag = np.array(m.defined)
    np.fill_diagonal(offdiag, False)
    # Moduli must be 1 on every defined off-diagonal entry.
    if np.any(np.abs(np.abs(m.entries[offdiag]) - 1.0) > PHASE_TOL):
        return None
    phases = np.zeros(s)
    seen = np.zeros(s, dtype=bool)
    for root in range(s):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        # No state is reassigned once seen, so the walk ends once all are.
        while stack and not seen.all():
            j = stack.pop()
            reached = np.flatnonzero(offdiag[j] & ~seen)
            # mu_jk = e^{i(phi_j - phi_k)}
            phases[reached] = phases[j] - np.angle(m.entries[j, reached])
            seen[reached] = True
            stack.extend(reached.tolist())
    # e^{i(phi_j - phi_k)} as z_j conj(z_k): N exponentials, not N^2.
    z = np.exp(1j * phases)
    if np.any(np.abs(m.entries - np.outer(z, z.conj()))[offdiag] > PHASE_TOL):
        return None
    return phases


def _procrustes_unitary(sub1: StateSet, sub2: StateSet, phases) -> np.ndarray | None:
    # The unitary minimising ||U X - Y|| is w @ zh from the SVD of Y X^dag.
    # For N < D it is unique on span(X) only; off the span any unitary
    # completion serves.  None unless it maps every state within UNITARY_TOL.
    x = sub1.states.T
    y = sub2.states.T * np.exp(1j * np.asarray(phases))
    w, _, zh = np.linalg.svd(y @ x.conj().T)
    u = w @ zh
    if np.max(np.linalg.norm(u @ x - y, axis=0)) > UNITARY_TOL:
        return None
    return u


def coherence_roundtrip(
    initial: StateSet,
    final: StateSet,
    coefficients,
    tol: float = DEFAULT_TOL,
    purity_tol: float = DEFAULT_PURITY_TOL,
) -> CoherenceRoundTrip:
    """Run the purity probe and the structural test on one instance and
    cross-check them.

    Runs the check once; its report's independence flags guard the input on
    every support, and its record gives the channel (the instance must be
    Feasible).  Probes the superposition given by ``coefficients``
    (restricting to its support, which must contain at least two states) and
    runs the structural test on the same support, from the check's Gram
    matrices; the two verdicts must agree.  For pure outputs the coefficient
    law r_j r_k^* = q_j q_k^* mu_jk is verified twice, through Psi2^+, the
    final states' conjugated duals on the support: once from the expansion
    coefficients r = Psi2^+ output_state and once by reading the output
    density matrix through Psi2^+, which sends the final states to an
    orthonormal basis, as (Psi2^+ B)(Psi2^+ B)^dag with the probe's B.
    Psi2^+ is built once, from the check's G2 and its certificate, so no
    Gram is formed again.  Its probe skips ``coherence_probe``'s fingerprint
    checks; the reader of B still checks the dimension.
    """
    _check_tolerances(tol=tol, purity_tol=purity_tol)
    q, vec, support = _superposition(initial, coefficients, tol)
    report, pair = _check(initial, final, tol, build=True)
    if not report.initial_independent:
        raise NotIndependentError("initial set must be linearly independent")
    if not report.final_independent:
        raise NotIndependentError("final set must be linearly independent")
    ks = _synthesize_from(report, pair, initial, final, tol)
    probe, b = _probe(ks, q, vec, support, purity_tol)  # expanded below
    if len(support) == initial.n:
        # The report's ratio matrix covers exactly this support.
        sub1, sub2, g2, m, mu = initial, final, pair.g2, report.ratio_matrix, pair.completion
    else:
        # Principal submatrices of the check's Gram matrices: by Cauchy
        # interlacing they keep the smallest eigenvalue no lower and the trace
        # no larger, so the report's flags and G2's certificate hold for them.
        block = np.ix_(support, support)
        sub1, sub2 = initial.subset(support), final.subset(support)
        g1, g2, mu = pair.g1[block], pair.g2[block], pair.completion[block]
        m = _ratio_matrix(g1, g2, np.abs(g1), np.abs(g2), tol)
    test = _unitary_relation(sub1, sub2, support, m)
    agree = bool(probe.is_pure) == (test.verdict == UNITARY_RELATED)
    law_residual = None
    device_residual = None
    if probe.is_pure:
        probe, bras = _expanded(probe, sub2.states, g2, tol, pair.certified2)
        support = list(support)
        # Effective coefficients of the normalized input superposition.
        q_eff = q / float(np.linalg.norm(q @ initial.states))
        qs = q_eff[support]
        analytic = (qs[:, None] * qs.conj()[None, :]) * mu
        rs = probe.output_coefficients[support]
        law_residual = float(np.max(np.abs(np.outer(rs, rs.conj()) - analytic)))
        read = bras @ b
        device = read @ read.conj().T
        device_residual = float(np.max(np.abs(device - analytic)))
    return CoherenceRoundTrip(probe, test, agree, law_residual, device_residual)
