import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detchan import (
    DECOHERING,
    DimensionMismatchError,
    FingerprintMismatchError,
    KrausSet,
    NotFiniteError,
    NotIndependentError,
    SizeMismatchError,
    StateSet,
    SupportTooSmallError,
    UNITARY_RELATED,
    ZeroVectorError,
    coherence_probe,
    coherence_roundtrip,
    feasibility_check,
    gram,
    purity,
    random_state_set,
    span_duals,
    state_to_density,
    synthesize,
    unitary_relation_test,
)
from detchan import coherence
from detchan.numerics import frobenius
from helpers import (
    INV_SQRT2,
    bounded_complete_coefficients,
    cos09_final,
    embedded,
    feasible_pair,
    haar_unitary,
    near_parallel_pair,
    perturbed,
    sub_seed,
    subset_instance,
    tally,
    zero_plus,
)


# ---------------------------------------------------------------- purity


def test_purity_of_pure_projector():
    v = np.array([0.6, 0.8j])
    assert purity(state_to_density(v)) == pytest.approx(1.0, abs=1e-14)


def test_purity_of_maximally_mixed():
    assert purity(np.eye(2) / 2.0) == pytest.approx(0.5, abs=1e-14)


def test_purity_of_diagonal_mixture():
    assert purity(np.diag([0.75, 0.25])) == pytest.approx(0.625, abs=1e-14)


# ---------------------------------------------------------------- probe


def test_probe_identity_channel_keeps_purity():
    s = zero_plus()
    ks = synthesize(s, s)
    report = coherence_probe(ks, s, [1, 1], final=s)
    assert report.is_pure and report.output_purity >= 1.0 - 1e-9
    assert report.verdict == UNITARY_RELATED
    assert report.support == (0, 1)


def test_probe_unitary_image_keeps_purity_for_any_complete_q():
    rng = np.random.default_rng(61)
    base = random_state_set(4, 4, sub_seed(rng), mode="independent")
    image = random_state_set(4, 4, sub_seed(rng), mode="unitary_image", base=base)
    ks = synthesize(base, image)
    for _ in range(10):
        q = bounded_complete_coefficients(rng, 4)
        report = coherence_probe(ks, base, q, final=image)
        assert report.is_pure


def test_probe_non_unitary_feasible_pair_decoheres():
    initial = zero_plus()
    final = cos09_final()
    ks = synthesize(initial, final)
    report = coherence_probe(ks, initial, np.array([1, 1]) / np.sqrt(2), final=final)
    assert not report.is_pure
    assert report.output_purity < 1.0 - 1e-6
    assert report.verdict == DECOHERING


def test_probe_recovers_expansion_coefficients():
    s = zero_plus()
    ks = synthesize(s, s)
    report = coherence_probe(ks, s, [1, 1], final=s)
    # output = input here; its expansion must reproduce the normalized q
    q_eff = np.array([1.0, 1.0]) / np.linalg.norm(np.array([1.0, 1.0]) @ s.states)
    r = report.output_coefficients
    phase = r[0] / q_eff[0]
    assert abs(abs(phase) - 1.0) <= 1e-9
    np.testing.assert_allclose(r, phase * q_eff, atol=1e-9)


def test_probe_fingerprint_mismatch():
    s = zero_plus()
    ks = synthesize(s, s)
    other = cos09_final()
    with pytest.raises(FingerprintMismatchError):
        coherence_probe(ks, other, [1, 1])


def test_probe_final_fingerprint_and_dimension_mismatch(monkeypatch):
    s = zero_plus()
    # A hand-assembled channel carries no final fingerprint, so a final set
    # that does not match the initial one is refused by its shape.
    hand = KrausSet.from_operators([np.eye(2)], initial=s)
    cases = [
        (synthesize(s, s), cos09_final(), FingerprintMismatchError, "onto this final set"),
        # A hand-assembled 3-dimensional channel that carries the fingerprint
        # of a 2-dimensional set.
        (
            KrausSet.from_operators([np.eye(3)], initial=s),
            None,
            DimensionMismatchError,
            "channel dimension 3",
        ),
        (
            hand,
            StateSet.from_vectors(np.eye(3)[:2]),
            DimensionMismatchError,
            "initial dimension 2 != final dimension 3",
        ),
        (
            hand,
            StateSet.from_vectors([[1, 0], [0, 1], [INV_SQRT2, INV_SQRT2]]),
            SizeMismatchError,
            "2 initial states vs 3 final states",
        ),
    ]
    counts = tally(monkeypatch)
    for ks, final, error, reason in cases:
        with pytest.raises(error, match=reason):
            coherence_probe(ks, s, [1, 1], final=final)
    # Refused before any Gram work or channel application.
    assert counts["gram"] == counts["cholesky"] == counts["apply_channel"] == 0


def test_probe_needs_two_support_states():
    s = zero_plus()
    ks = synthesize(s, s)
    with pytest.raises(SupportTooSmallError):
        coherence_probe(ks, s, [1, 0])


#: Malformed coefficient lists for a two-state set, with the error each raises.
MALFORMED_COEFFICIENTS = [
    ([1, 1, 1], SizeMismatchError, "3 coefficients for 2 states"),
    ([1, np.nan], NotFiniteError, "coefficients contain NaN or Inf"),
    ([1, 0], SupportTooSmallError, "need at least two nonzero coefficients"),
    ([0, 0], ZeroVectorError, "superposition norm 0.000e\\+00 is below tolerance"),
]


@pytest.mark.parametrize("coefficients, error, reason", MALFORMED_COEFFICIENTS)
def test_malformed_coefficients_are_refused_before_any_gram_work(
    monkeypatch, coefficients, error, reason
):
    # The probe and the roundtrip check the coefficients first: no Gram matrix
    # is formed, no Cholesky runs and no check starts before they are refused.
    s = zero_plus()
    ks = synthesize(s, s)
    counts = tally(monkeypatch)
    with pytest.raises(error, match=reason):
        coherence_roundtrip(s, s, coefficients)
    with pytest.raises(error, match=reason):
        coherence_probe(ks, s, coefficients, final=s)
    assert not counts


def unitary_probe_instance(seed: int = 67):
    rng = np.random.default_rng(seed)
    base = random_state_set(4, 4, sub_seed(rng), mode="independent")
    image = random_state_set(4, 4, sub_seed(rng), mode="unitary_image", base=base)
    return base, image, bounded_complete_coefficients(rng, 4)


def test_probe_forms_one_gram_of_the_final_support(monkeypatch):
    # The independence test of the final states on the support and their
    # duals read one Gram matrix and one shifted Cholesky of it; the
    # expansion is span_duals' bit for bit.
    base, image, q = unitary_probe_instance()
    ks = synthesize(base, image)
    counts = tally(monkeypatch)
    report = coherence_probe(ks, base, q, final=image)
    assert (counts["gram"], counts["cholesky"]) == (1, 1)
    expected = span_duals(image).conj() @ report.output_state
    np.testing.assert_array_equal(report.output_coefficients, expected, strict=True)


@st.composite
def psd_matrices(draw):
    """PSD matrices of any trace, D <= 12 and rank 1 to D, whose eigenvalue
    weights spread over twelve decades, so near-rank-one spectra are common."""
    d = draw(st.integers(min_value=2, max_value=12))
    rank = draw(st.integers(min_value=1, max_value=d))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    b = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    b *= 10.0 ** rng.uniform(-6.0, 0.0, size=rank)
    rho = 10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0)) * (b @ b.conj().T)
    return (rho + rho.conj().T) / 2.0


@settings(max_examples=200, deadline=None, derandomize=True)
@given(psd_matrices())
def test_purity_bounds_the_spectral_gap_and_the_start_overlap(rho):
    # The footing of the probe's power readout, in numpy alone: for PSD rho
    # of trace t and purity p, lambda_1 >= p/t and lambda_2 <= t - p/t, so
    # lambda_2 / lambda_1 <= (t^2 - p)/p; and at rho's largest diagonal j,
    # |<v1|e_j>|^2 >= (rho_jj - (t - p/t))/t.  Slack 1e-12 covers rounding.
    lam, vecs = np.linalg.eigh(rho)
    t = np.trace(rho).real
    p = np.trace(rho @ rho).real
    assert lam[-2] / lam[-1] <= (t * t - p) / p + 1e-12
    j = int(np.argmax(rho.diagonal().real))
    assert abs(vecs[j, -1]) ** 2 >= (rho[j, j].real - (t - p / t)) / t - 1e-12


def eigh_top_state(rho):
    """The top eigenvector of rho from a full eigh, its largest-modulus
    entry made real positive."""
    top = np.linalg.eigh(rho)[1][:, -1]
    pivot = top[np.argmax(np.abs(top))]
    return top * (abs(pivot) / pivot)


def readout_instances():
    """(name, channel, initial, final, q) on which the probe reads a state:
    unitary-related pairs at N = D, N < D and on a partial support; a
    unitary followed by a dephasing of strength 1e-8; and a decohering
    D = 2 pair, pure only at a loose purity_tol."""
    rng = np.random.default_rng(53)
    rows = []
    for name, n, d, zero in [("N = D", 6, 6, None), ("N < D", 4, 7, None), ("partial", 6, 6, 2)]:
        for _ in range(5):
            base = random_state_set(d, n, sub_seed(rng), mode="independent")
            image = random_state_set(d, n, sub_seed(rng), mode="unitary_image", base=base)
            q = bounded_complete_coefficients(rng, n)
            if zero is not None:
                q[zero] = 0.0
            rows.append((name, synthesize(base, image), base, image, q))
    base = random_state_set(4, 4, sub_seed(rng), mode="independent")
    u = haar_unitary(4, sub_seed(rng))
    flip = np.diag([1.0, -1.0, 1.0, -1.0])
    dephased = [np.sqrt(1.0 - 1e-8) * u, np.sqrt(1e-8) * flip @ u]
    q = bounded_complete_coefficients(rng, 4)
    rows.append(("dephased", KrausSet.from_operators(dephased, initial=base), base, None, q))
    initial, final = zero_plus(), cos09_final()
    rows.append(("decohering", synthesize(initial, final), initial, final, [1, 1]))
    return rows


@pytest.mark.parametrize("purity_tol", [0.0, 1e-9, 1e-6, 0.5])
def test_probe_reads_the_top_eigenvector_without_eigh(monkeypatch, purity_tol):
    # The probe's output state equals eigh's phase-pinned top eigenvector
    # within 1e-13.  Near-pure outputs take products with rho only; the
    # decohering D = 2 output, pure at the loose 0.5, is where the purity
    # bound certifies nothing, and there the probe runs eigh.
    counts = tally(monkeypatch)
    read = set()
    for name, ks, initial, final, q in readout_instances():
        counts.clear()
        report = coherence_probe(ks, initial, q, purity_tol=purity_tol, final=final)
        assert report.is_pure == (1.0 - report.output_purity <= purity_tol)
        if report.is_pure:
            read.add(name)
            assert counts["eigh"] == (name == "decohering")
            expected = eigh_top_state(report.output_density)
            np.testing.assert_allclose(report.output_state, expected, rtol=0, atol=1e-13)
    # Rounding decides purity at purity_tol = 0, yet every kind of pair is
    # read at least once; the dephased output is pure from 1e-6 up.
    expected_kinds = {"N = D", "N < D", "partial"}
    if purity_tol >= 1e-6:
        expected_kinds.add("dephased")
    if purity_tol >= 0.5:
        expected_kinds.add("decohering")
    assert read == expected_kinds


def test_probe_of_a_channel_that_is_not_trace_preserving_runs_eigh():
    # A1 = |0><v|, A2 = |1><v| with v = (|0> + |1>)/sqrt 2 send v to rho = I,
    # of trace 2 and purity 2: no eigenvalue dominates, so no product with rho
    # can single one out.  The probe reads eigh's top eigenvector, [0, 1];
    # a readout that took the trace as 1 would return rho's column [1, 0].
    basis = StateSet.from_vectors(np.eye(2))
    v = np.array([INV_SQRT2, INV_SQRT2])
    ks = KrausSet.from_operators([np.outer([1, 0], v), np.outer([0, 1], v)], initial=basis)
    report = coherence_probe(ks, basis, [1, 1])
    np.testing.assert_array_equal(report.output_density, np.eye(2))
    assert report.output_purity == 2.0 and report.is_pure
    np.testing.assert_array_equal(report.output_state, [0, 1])


# ------------------------------------------------------- unitary_relation_test


def test_identity_pair_is_unitary_related():
    s = zero_plus()
    report = unitary_relation_test(s, s)
    assert report.verdict == UNITARY_RELATED
    np.testing.assert_allclose(report.phases, [0.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(report.extracted_unitary, np.eye(2), atol=1e-8)


def test_reference_rotation_pair():
    initial = zero_plus()
    final = StateSet.from_vectors([[0, 1], [INV_SQRT2, -INV_SQRT2]])
    report = unitary_relation_test(initial, final)
    assert report.verdict == UNITARY_RELATED
    u = report.extracted_unitary
    assert frobenius(u.conj().T @ u - np.eye(2)) <= 1e-8
    # matches [[0, 1], [-1, 0]] up to a global phase
    reference = np.array([[0.0, 1.0], [-1.0, 0.0]])
    phase = u[1, 0] / reference[1, 0]
    assert abs(abs(phase) - 1.0) <= 1e-9
    np.testing.assert_allclose(u, phase * reference, atol=1e-8)
    for j in range(2):
        p1 = state_to_density(initial.states[j])
        p2 = state_to_density(final.states[j])
        assert frobenius(u @ p1 @ u.conj().T - p2) <= 1e-8


def test_rank_two_ratio_matrix_decoheres():
    report = unitary_relation_test(zero_plus(), cos09_final())
    assert report.verdict == DECOHERING
    assert report.extracted_unitary is None


def test_orthonormal_bases_are_unitary_related():
    # ratio matrix is all 0/0 off the diagonal; the graph fallback applies
    basis = StateSet.from_vectors(np.eye(3))
    shuffled = StateSet.from_vectors(np.eye(3)[[2, 0, 1]])
    report = unitary_relation_test(basis, shuffled)
    assert report.verdict == UNITARY_RELATED
    u = report.extracted_unitary
    for j in range(3):
        np.testing.assert_allclose(
            np.abs(u @ basis.states[j]), np.abs(shuffled.states[j]), atol=1e-8
        )


def test_dependent_initial_set_on_the_support_refused():
    initial = StateSet.from_vectors([[1, 0, 0], [1, 0, 0], [0, 1, 0]])
    final = StateSet.from_vectors(np.eye(3))
    with pytest.raises(NotIndependentError, match="initial states are dependent"):
        unitary_relation_test(initial, final, support=[0, 1])
    assert unitary_relation_test(initial, final, support=[1, 2]).verdict == UNITARY_RELATED


@pytest.mark.parametrize("support", [[0, 2], [-1, 0]])
def test_support_out_of_range_refused(support):
    s = zero_plus()
    with pytest.raises(IndexError, match="out of range for 2 states"):
        unitary_relation_test(s, s, support=support)


def test_support_indices_must_be_integers():
    # A fractional index is an error, never truncated to a neighbouring state,
    # and a boolean mask is not a list of indices, whether of Python or numpy
    # bools; numpy integers are indices like any other.
    s = zero_plus()
    for support in [[0.2, 1.9], [False, True, True], np.array([False, True, True])]:
        with pytest.raises(TypeError):
            unitary_relation_test(s, s, support=support)
    report = unitary_relation_test(s, s, support=np.array([1, 0]))
    assert report.support == (0, 1) and report.verdict == UNITARY_RELATED


def test_dependent_final_set_refused():
    initial = StateSet.from_vectors(np.eye(2))
    final = StateSet.from_vectors([[1, 0], [1, 0]])
    with pytest.raises(NotIndependentError):
        unitary_relation_test(initial, final)


def test_support_must_have_two_states():
    s = zero_plus()
    with pytest.raises(SupportTooSmallError):
        unitary_relation_test(s, s, support=[0])


def test_unitary_image_pairs_pass_with_tight_unitarity():
    rng = np.random.default_rng(67)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        base = random_state_set(n, n, sub_seed(rng), mode="independent")
        image = random_state_set(n, n, sub_seed(rng), mode="unitary_image", base=base)
        report = unitary_relation_test(base, image)
        assert report.verdict == UNITARY_RELATED
        u = report.extracted_unitary
        assert frobenius(u.conj().T @ u - np.eye(n)) <= 1e-8
        for j in range(n):
            p1 = state_to_density(base.states[j])
            p2 = state_to_density(image.states[j])
            assert frobenius(u @ p1 @ u.conj().T - p2) <= 1e-8


def test_near_parallel_pair_is_unitary_related():
    # Gram condition 1.8e8 lies below the 1e9 rank cutoff, so the test decides.
    s = near_parallel_pair()
    report = unitary_relation_test(s, s)
    assert report.verdict == UNITARY_RELATED
    # The extracted unitary carries a pinned global phase.
    images = s.states @ report.extracted_unitary.T
    overlaps = np.sum(s.states.conj() * images, axis=1)
    residual = np.linalg.norm(images - overlaps[:, None] * s.states, axis=1)
    assert np.max(residual) <= coherence.UNITARY_TOL


@pytest.mark.parametrize("n, d", [(4, 4), (3, 6)])
def test_acceptance_boundary_of_the_unitary_test(n, d):
    # Far on either side of UNITARY_TOL = 1e-8: a unitary image moved by
    # 1e-12 stays UnitaryRelated, one moved by 1e-6 is Decohering.
    rng = np.random.default_rng(101)
    for _ in range(5):
        base = random_state_set(d, n, sub_seed(rng), mode="independent")
        image = random_state_set(d, n, sub_seed(rng), mode="unitary_image", base=base)
        near = unitary_relation_test(base, perturbed(image, rng, 1e-12))
        assert near.verdict == UNITARY_RELATED
        u = near.extracted_unitary
        assert frobenius(u.conj().T @ u - np.eye(d)) <= 1e-12
        far = unitary_relation_test(base, perturbed(image, rng, 1e-6))
        assert far.verdict == DECOHERING and far.extracted_unitary is None


def test_phase_gauge_never_changes_verdict():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        base = random_state_set(n, n, sub_seed(rng), mode="independent")
        image = random_state_set(n, n, sub_seed(rng), mode="unitary_image", base=base)
        for initial, final, expected in [
            (base, image, UNITARY_RELATED),
            (zero_plus(), cos09_final(), DECOHERING),
        ]:
            m = initial.n
            phases1 = np.exp(2j * np.pi * rng.random(m))
            phases2 = np.exp(2j * np.pi * rng.random(m))
            rotated_initial = StateSet(initial.dimension, phases1[:, None] * initial.states)
            rotated_final = StateSet(final.dimension, phases2[:, None] * final.states)
            assert unitary_relation_test(rotated_initial, rotated_final).verdict == expected


def test_unitary_relation_preserves_overlap_moduli():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        base = random_state_set(n, n, sub_seed(rng), mode="independent")
        image = random_state_set(n, n, sub_seed(rng), mode="unitary_image", base=base)
        report = unitary_relation_test(base, image)
        assert report.verdict == UNITARY_RELATED
        np.testing.assert_allclose(
            np.abs(gram(base)), np.abs(gram(image)), atol=1e-9
        )


@st.composite
def unitary_images(draw):
    """Independent initial sets, some with exactly orthogonal pairs forced
    in (each state on a random set of basis directions), and their images
    under a random unitary with random per-state phases."""
    d = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=2, max_value=d))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    rows = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    if draw(st.booleans()):
        masks = draw(st.lists(st.integers(min_value=1, max_value=2**d - 1), min_size=n, max_size=n))
        rows = rows * ((np.array(masks)[:, None] >> np.arange(d)) & 1)
    initial = StateSet.from_vectors(rows, normalize=True)
    assume(np.linalg.eigvalsh(gram(initial))[0] >= 1e-3)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    phases = np.exp(2j * np.pi * rng.random(n))
    return initial, StateSet(d, phases[:, None] * (initial.states @ u.T))


def phase_sync_reference(mu, defined):
    """Depth-first phase propagation, one neighbour at a time."""
    s = len(mu)
    phases, seen = np.zeros(s), [False] * s
    for root in range(s):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            j = stack.pop()
            for k in range(s):
                if k != j and defined[j, k] and not seen[k]:
                    phases[k] = phases[j] - float(np.angle(mu[j, k]))
                    seen[k] = True
                    stack.append(k)
    return phases


@settings(max_examples=100, deadline=None, derandomize=True)
@given(unitary_images())
def test_phase_sync_reproduces_every_defined_ratio(instance):
    initial, final = instance
    report = unitary_relation_test(initial, final)
    assert report.verdict == UNITARY_RELATED
    phi = report.phases
    assert phi[0] == 0.0
    m = feasibility_check(initial, final).ratio_matrix
    reference = phase_sync_reference(m.entries, m.defined)
    np.testing.assert_allclose(phi, reference, rtol=0, atol=1e-13)
    g1 = initial.states @ initial.states.conj().T
    g2 = final.states @ final.states.conj().T
    defined = np.abs(g2) > 1e-9
    expected = np.exp(1j * (phi[:, None] - phi[None, :]))
    assert np.max(np.abs(g1[defined] / g2[defined] - expected[defined])) <= 1e-9
    images = initial.states @ report.extracted_unitary.T
    overlaps = np.abs(np.sum(final.states.conj() * images, axis=1))
    np.testing.assert_allclose(overlaps, 1.0, atol=1e-9)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=2**31 - 1))
def test_non_unitary_feasible_pairs_decohere(n, seed):
    initial, final, _ = feasible_pair(np.random.default_rng(seed), n, min_subdominant=0.01)
    report = unitary_relation_test(initial, final)
    assert report.verdict == DECOHERING
    assert report.phases is None and report.extracted_unitary is None


# -------------------------------------------------------- coherence_roundtrip


def test_roundtrip_unitary_pair_in_three_dims():
    rng = np.random.default_rng(79)
    base = random_state_set(3, 3, sub_seed(rng), mode="independent")
    image = random_state_set(3, 3, sub_seed(rng), mode="unitary_image", base=base)
    q = np.ones(3) / np.sqrt(3)
    rec = coherence_roundtrip(base, image, q)
    assert rec.agree
    assert rec.probe.is_pure and rec.test.verdict == UNITARY_RELATED
    assert rec.coefficient_law_residual <= 1e-8
    assert rec.device_residual <= 1e-8


def test_roundtrip_non_unitary_pair_agrees_on_decoherence():
    rec = coherence_roundtrip(zero_plus(), cos09_final(), [1, 1])
    assert rec.agree
    assert not rec.probe.is_pure and rec.test.verdict == DECOHERING
    assert rec.coefficient_law_residual is None


def test_roundtrip_subset_support():
    initial, final = subset_instance()
    full = coherence_roundtrip(initial, final, [1, 1, 1])
    assert full.agree and full.test.verdict == DECOHERING
    sub = coherence_roundtrip(initial, final, [1, 1, 0])
    assert sub.agree and sub.test.verdict == UNITARY_RELATED
    assert sub.probe.support == (0, 1)
    assert sub.probe.is_pure
    assert sub.coefficient_law_residual <= 1e-8
    assert sub.device_residual <= 1e-8


def test_roundtrip_randomized_equivalence_desk_scale():
    # purity probe and structural test must agree on every instance
    rng = np.random.default_rng(83)
    disagreements = 0
    for trial in range(40):
        n = int(rng.integers(2, 7))
        if trial % 2 == 0:
            initial = random_state_set(n, n, sub_seed(rng), mode="independent")
            final = random_state_set(n, n, sub_seed(rng), mode="unitary_image", base=initial)
        else:
            initial, final, _ = feasible_pair(rng, n, min_subdominant=0.01)
        q = bounded_complete_coefficients(rng, n)
        rec = coherence_roundtrip(initial, final, q, purity_tol=1e-6)
        if not rec.agree:
            disagreements += 1
    assert disagreements == 0


def test_roundtrip_requires_independent_sets():
    dependent = StateSet.from_vectors([[1, 0], [1, 0]])
    with pytest.raises(NotIndependentError):
        coherence_roundtrip(dependent, dependent, [1, 1])


def test_ratio_trace_is_support_size_on_subsets():
    initial, final = subset_instance()
    for support in [(0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        m = feasibility_check(initial.subset(support), final.subset(support)).ratio_matrix
        assert np.trace(m.entries).real == pytest.approx(len(support), abs=1e-12)


def test_spectral_work_per_roundtrip(monkeypatch):
    # One feasibility check owns both Gram matrices: it forms each once,
    # settles each rank by one shifted Cholesky with no eigenvalue solve,
    # and supplies the ratio factor synthesis builds from (one eigh); the
    # probe reads a pure output's state by products with the output, whose
    # measured purity bounds the spectral gap, so it adds no eigh.  A
    # unitary pair's ratio matrix has rank one, so its factor drops
    # rounding-sized eigenvalues, and the check computes the built
    # channel's residuals from G1's inverse (one solve, no Cholesky), which
    # the initial duals then read; a decohering pair's duals come from one
    # solve with the certified G1.  For a pure output the final duals are
    # built once, from the check's G2 and certificate, and serve both the
    # expansion of the output state and the device residual.  At full
    # support the unitary test reads the check's ratio matrix and
    # independence flags, so it builds no ratio matrix and no Gram.  It
    # takes one SVD (the Procrustes polar factor) and no eigh, for N = D and
    # N < D alike.  The channel runs once: the device residual reads the
    # probe's output density.
    rng = np.random.default_rng(89)
    cases = []
    for n, d in [(8, 8), (6, 8)]:
        base = random_state_set(d, n, sub_seed(rng), mode="independent")
        image = random_state_set(d, n, sub_seed(rng), mode="unitary_image", base=base)
        initial, final, _ = feasible_pair(rng, n, min_subdominant=0.01)
        initial, final = embedded(initial, rng, d), embedded(final, rng, d)
        q = bounded_complete_coefficients(rng, n)
        cases += [(base, image, q, UNITARY_RELATED), (initial, final, q, DECOHERING)]
    counts = tally(monkeypatch)
    for a, b, q, verdict in cases:
        counts.clear()
        rec = coherence_roundtrip(a, b, q)
        assert rec.test.verdict == verdict
        # Every case is at full support: the coefficients are complete.
        work = (counts["eigh"], counts["eigvalsh"], counts["cholesky"], counts["gram"])
        assert work == (1, 0, 2, 2)
        assert counts["cond"] == 0 and counts["svd"] <= 1
        assert counts["coherence.apply_channel"] == 1
        assert counts["coherence._ratio_matrix"] == 0
        # One initial-dual construction (synthesis) and, per pure output,
        # one final-dual construction; no public re-entry, no least squares.
        pure = verdict == UNITARY_RELATED
        assert (counts["_span_duals"], counts["span_duals"]) == (1 + pure, 0)
        # G1's inverse once, in the check, G2's per pure output.
        assert counts["_overlap_inverse"] == 1 + pure
        assert (counts["linear_independence"], counts["lstsq"]) == (0, 0)
        assert (rec.device_residual is not None) == (verdict == UNITARY_RELATED)
    # One zero coefficient at N = 6, D = 8: the unitary test runs on the
    # support, from the principal submatrices of the check's G1 and G2, so
    # no Gram is formed beyond the check's two and it builds one ratio
    # matrix.  By Cauchy interlacing the check's independence flags and G2's
    # certificate hold for the submatrices, so the spectral work is the
    # full support's.
    for a, b, q, verdict in cases[2:]:
        q = q.copy()
        q[2] = 0.0
        counts.clear()
        rec = coherence_roundtrip(a, b, q)
        support = (0, 1, 3, 4, 5)
        assert rec.probe.support == rec.test.support == support
        work = (counts["eigh"], counts["eigvalsh"], counts["cholesky"], counts["gram"])
        assert work == (1, 0, 2, 2)
        assert counts["coherence._ratio_matrix"] == 1
        assert (counts["linear_independence"], counts["span_duals"]) == (0, 0)
        pure = verdict == UNITARY_RELATED
        assert counts["_span_duals"] == counts["_overlap_inverse"] == 1 + pure
        ref = unitary_relation_test(a, b, support=support)
        assert rec.test.verdict == ref.verdict == verdict and rec.agree
        if verdict == UNITARY_RELATED:
            np.testing.assert_allclose(rec.test.phases, ref.phases, rtol=0, atol=1e-12)
            assert_same_unitary_on_span(rec.test, ref, a.subset(support))


def assert_same_unitary_on_span(test, ref, sub):
    # Two extracted unitaries agree to 1e-12 on the span of the support's
    # initial states.  Off that span either is an arbitrary completion,
    # which also moves the global phase pinned on its first column.
    x = sub.states.T
    ux, ref_ux = test.extracted_unitary @ x, ref.extracted_unitary @ x
    phase = np.vdot(ux, ref_ux)
    np.testing.assert_allclose(ux * (phase / abs(phase)), ref_ux, rtol=0, atol=1e-12)


def test_roundtrip_hashes_nothing_and_forms_each_gram_once(monkeypatch):
    # A roundtrip forms the check's two Grams and nothing else does, and the
    # channel it probes, built from these very sets, is neither fingerprinted
    # nor checked against them.  (The probe reads a pure output's state by
    # products with the output density and runs no eigh, as
    # ``test_spectral_work_per_roundtrip`` counts.)
    rng = np.random.default_rng(97)
    base = random_state_set(6, 6, sub_seed(rng), mode="independent")
    image = random_state_set(6, 6, sub_seed(rng), mode="unitary_image", base=base)
    initial, final, _ = feasible_pair(rng, 5, min_subdominant=0.01)
    decohering = embedded(initial, rng, 6), embedded(final, rng, 6)
    counts = tally(monkeypatch)
    for (a, b), verdict in [((base, image), UNITARY_RELATED), (decohering, DECOHERING)]:
        counts.clear()
        rec = coherence_roundtrip(a, b, bounded_complete_coefficients(rng, a.n))
        assert rec.agree and rec.test.verdict == verdict
        assert (counts["gram"], counts["fingerprint"]) == (2, 0)


def lstsq_coefficients(final, probe):
    # Reference: the least-squares expansion of the output state in the
    # final states on the support.
    r = np.zeros(len(probe.coefficients), dtype=np.complex128)
    sub = final.subset(probe.support)
    r[list(probe.support)] = np.linalg.lstsq(sub.states.T, probe.output_state, rcond=None)[0]
    return r


@pytest.mark.parametrize("n, d, zero", [(6, 6, None), (4, 7, None), (6, 6, 2), (5, 8, 0)])
def test_dual_coefficients_match_a_least_squares_expansion(n, d, zero):
    # Unitary-related pairs at N = D, N < D and on partial supports: the
    # coefficients read through Psi2^+ equal a least-squares expansion to
    # rounding, in the roundtrip and in the public probe, and both law
    # residuals stay at rounding level.
    rng = np.random.default_rng(1000 * n + d)
    for _ in range(5):
        base = random_state_set(d, n, sub_seed(rng), mode="independent")
        image = random_state_set(d, n, sub_seed(rng), mode="unitary_image", base=base)
        q = bounded_complete_coefficients(rng, n)
        if zero is not None:
            q[zero] = 0.0
        rec = coherence_roundtrip(base, image, q)
        assert rec.probe.is_pure and rec.test.verdict == UNITARY_RELATED
        expected = lstsq_coefficients(image, rec.probe)
        np.testing.assert_allclose(rec.probe.output_coefficients, expected, rtol=0, atol=1e-12)
        assert rec.coefficient_law_residual <= 1e-10 and rec.device_residual <= 1e-10
        probe = coherence_probe(synthesize(base, image), base, q, final=image)
        np.testing.assert_allclose(probe.output_coefficients, expected, rtol=0, atol=1e-12)


def test_roundtrip_on_a_partial_support_runs_the_full_test(monkeypatch):
    # A zero coefficient leaves a smaller support; the check's ratio matrix
    # and flags cover every state, so the test on the support is run in
    # full (one ratio matrix, from the check's Gram submatrices) and must
    # match the public unitary_relation_test there to rounding (the sliced
    # and the recomputed Gram matrices sum in different orders).
    rng = np.random.default_rng(90)
    base = random_state_set(6, 5, sub_seed(rng), mode="independent")
    image = random_state_set(6, 5, sub_seed(rng), mode="unitary_image", base=base)
    initial, final, _ = feasible_pair(rng, 5, min_subdominant=0.01)
    counts = tally(monkeypatch)
    for a, b in [(base, image), (initial, final)]:
        q = bounded_complete_coefficients(rng, 5)
        q[2] = 0.0
        counts.clear()
        rec = coherence_roundtrip(a, b, q)
        assert counts["coherence._ratio_matrix"] == 1
        ref = unitary_relation_test(a, b, support=(0, 1, 3, 4))
        assert rec.test.support == ref.support == (0, 1, 3, 4)
        assert rec.test.verdict == ref.verdict
        np.testing.assert_allclose(
            rec.test.ratio_matrix.entries, ref.ratio_matrix.entries, rtol=0, atol=1e-12
        )
        if ref.verdict == UNITARY_RELATED:
            np.testing.assert_allclose(rec.test.phases, ref.phases, rtol=0, atol=1e-12)
            assert_same_unitary_on_span(rec.test, ref, a.subset(ref.support))
        assert rec.agree
