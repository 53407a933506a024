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

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FingerprintMismatchError,
    NotIndependentError,
    SizeMismatchError,
    SupportTooSmallError,
)
from .numerics import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    hermitian_eig,
    phase_pin,
)
from .states import (
    StateSet,
    fingerprint,
    linear_independence,
    span_duals,
    superpose,
)
from .synthesis import KrausSet, _synthesize_from, apply_channel, state_to_density
from .feasibility import RatioMatrix, _check_shapes, build_ratio_matrix, feasibility_check

UNITARY_RELATED = "UnitaryRelated"
DECOHERING = "Decohering"

#: A state counts as pure when 1 - Tr(rho^2) is at most this.
DEFAULT_PURITY_TOL = 1e-9
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
    #: same law read off the output density matrix through an
    #: orthogonalizing map built from the final set's duals.
    device_residual: float | None


def purity(rho) -> float:
    """Tr(rho^2); 1 for pure states, 1/D for the maximally mixed state."""
    r = np.asarray(rho, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise SizeMismatchError(f"density matrix must be square, got {r.shape}")
    return float(np.real(np.trace(r @ r)))


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
    ``final`` when supplied).  At least two coefficients must be nonzero.
    For a pure output the state is recovered as the top eigenvector of
    the output density matrix; when the final set is available and
    independent on the support, the output is additionally expanded in
    the final states to recover its combination coefficients.
    """
    if fingerprint(initial) != ks.initial_fingerprint:
        raise FingerprintMismatchError("Kraus set was not synthesized from this initial set")
    if final is not None and ks.final_fingerprint and fingerprint(final) != ks.final_fingerprint:
        raise FingerprintMismatchError("Kraus set was not synthesized onto this final set")
    if initial.dimension != ks.dimension:
        raise DimensionMismatchError(
            f"state dimension {initial.dimension} != channel dimension {ks.dimension}"
        )
    q = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    vec, support = superpose(initial, q, tol)
    if len(support) < 2:
        raise SupportTooSmallError("need at least two nonzero coefficients")
    rho = apply_channel(ks, state_to_density(vec))
    p = purity(rho)
    is_pure = (1.0 - p) <= purity_tol
    output_state = None
    output_coefficients = None
    if is_pure:
        _, vecs = hermitian_eig(rho, tol=1e-6)
        top = vecs[:, 0]
        output_state = top * phase_pin(top)
        if final is not None:
            sub = final.subset(support)
            if linear_independence(sub, tol):
                r_support, *_ = np.linalg.lstsq(sub.states.T, output_state, rcond=None)
                r = np.zeros(initial.n, dtype=np.complex128)
                r[list(support)] = r_support
                output_coefficients = r
    return CoherenceReport(
        coefficients=q,
        support=support,
        output_density=rho,
        output_purity=p,
        is_pure=is_pure,
        output_state=output_state,
        output_coefficients=output_coefficients,
        verdict=UNITARY_RELATED if is_pure else DECOHERING,
    )


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
    At full support ``coherence_roundtrip`` reuses its check's guards and ratio matrix.
    """
    _check_shapes(initial, final)
    n = initial.n
    support = tuple(range(n)) if support is None else tuple(sorted({int(i) for i in support}))
    if any(i < 0 or i >= n for i in support):
        raise IndexError(f"support {support} out of range for {n} states")
    if len(support) < 2:
        raise SupportTooSmallError("support must contain at least two states")
    sub1 = initial.subset(support)
    sub2 = final.subset(support)
    if not linear_independence(sub1, tol):
        raise NotIndependentError("initial states are dependent on the support")
    if not linear_independence(sub2, tol):
        raise NotIndependentError(
            "final states are dependent on the support; no unitary produces a dependent image"
        )
    return _unitary_relation(sub1, sub2, support, build_ratio_matrix(sub1, sub2, tol))


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
        while stack:
            j = stack.pop()
            reached = np.flatnonzero(offdiag[j] & ~seen)
            # mu_jk = e^{i(phi_j - phi_k)}
            phases[reached] = phases[j] - np.angle(m.entries[j, reached])
            seen[reached] = True
            stack.extend(reached.tolist())
    expected = np.exp(1j * (phases[:, None] - phases[None, :]))
    if np.any(np.abs(m.entries - expected)[offdiag] > PHASE_TOL):
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
    rank_tol: float = DEFAULT_RANK_TOL,
    purity_tol: float = DEFAULT_PURITY_TOL,
) -> CoherenceRoundTrip:
    """Run the purity probe and the structural test on one instance and
    cross-check them.

    Runs ``feasibility_check`` once; its independence flags guard the
    input and the channel is synthesized from its Feasible spectrum (the
    instance must be Feasible).  Probes the superposition given by
    ``coefficients`` (restricting to its support, which must contain at
    least two states) and runs the structural test on the same support;
    the two verdicts must agree; at full support the test reads the
    report's ratio matrix and flags.  For pure outputs
    the coefficient law r_j r_k^* = q_j q_k^* mu_jk is verified twice:
    once from the recovered expansion coefficients and once by reading the
    output density matrix through an orthogonalizing map that sends the
    final states to an orthonormal basis (built from their duals).
    """
    report = feasibility_check(initial, final, tol)
    if not report.initial_independent:
        raise NotIndependentError("initial set must be linearly independent")
    if not report.final_independent:
        raise NotIndependentError("final set must be linearly independent")
    q = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    ks = _synthesize_from(report, initial, final, tol, rank_tol)
    probe = coherence_probe(ks, initial, q, purity_tol, final=final, tol=tol)
    if len(probe.support) == initial.n:
        # The report's flags and ratio matrix cover exactly this support.
        test = _unitary_relation(initial, final, probe.support, report.ratio_matrix)
    else:
        test = unitary_relation_test(initial, final, probe.support, tol)
    agree = bool(probe.is_pure) == (test.verdict == UNITARY_RELATED)
    law_residual = None
    device_residual = None
    if probe.is_pure and probe.output_coefficients is not None:
        support = list(probe.support)
        sub2 = final.subset(support)
        m = test.ratio_matrix
        mu = np.where(m.defined, m.entries, 1.0)
        # Effective coefficients of the normalized input superposition.
        q_eff = q / float(np.linalg.norm(q @ initial.states))
        qs = q_eff[support]
        analytic = (qs[:, None] * qs.conj()[None, :]) * mu
        rs = probe.output_coefficients[support]
        law_residual = float(np.max(np.abs(np.outer(rs, rs.conj()) - analytic)))
        ortho_map = span_duals(sub2, tol).conj()
        device = ortho_map @ probe.output_density @ ortho_map.conj().T
        device_residual = float(np.max(np.abs(device - analytic)))
    return CoherenceRoundTrip(probe, test, agree, law_residual, device_residual)
