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
    apply_channel,
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
from detchan import coherence, synthesis
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
    rounding_bound,
    spectral_factor,
    sub_seed,
    subset_instance,
    tally,
    unit_row_factor,
    well_conditioned_set,
    zero_plus,
)


# ---------------------------------------------------------------- purity


def test_purity_is_the_trace_of_the_square_for_any_square_input():
    # Re sum_ij rho_ij rho_ji is Tr rho^2 also off the Hermitian matrices,
    # where sum_ij |rho_ij|^2 is not: this nilpotent input squares to zero.
    assert purity([[0, 1], [0, 0]]) == 0.0
    rng = np.random.default_rng(3)
    r = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    # Each of the two sums of 25 products rounds by at most 25 eps sum |r_ij r_ji|.
    bound = 2 * 25 * np.finfo(float).eps * np.sum(np.abs(r * r.T))
    assert abs(purity(r) - np.trace(r @ r).real) <= bound


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


def eigh_top_state(rho):
    """The top eigenvector of rho from a full eigh, its largest-modulus
    entry made real positive."""
    top = np.linalg.eigh(rho)[1][:, -1]
    pivot = top[np.argmax(np.abs(top))]
    return top * (abs(pivot) / pivot)


def rank_one_block_pair(rng, d):
    """A feasible N = 4 pair, carried into C^d, whose ratio matrix
    M = C C^dag has rank three while its block on states 0 and 1 is rank
    one: C's rows 0 and 1 are equal, so M_01 = 1."""
    final = well_conditioned_set(rng, 4, 4)
    c = unit_row_factor(rng, 4, 3)
    c[1] = c[0]
    initial = StateSet.from_vectors(spectral_factor((c @ c.conj().T) * gram(final)), normalize=True)
    return embedded(initial, rng, d), embedded(final, rng, d)


def readout_instances():
    """(name, channel, initial, final, q) on which the probe reads a state:
    unitary-related pairs at N = D, N < D and on a partial support; a
    unitary written as three phased copies U / sqrt 3 (K = 3, operators);
    a rank-three ratio matrix probed on its rank-one block (K = 3 at D = 4,
    4 with the sink at D = 6, factor); a unitary followed by a dephasing of
    strength 1e-8; and a decohering D = 2 pair, pure only at a loose
    purity_tol."""
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
    copies = [np.exp(1j * k) * u / np.sqrt(3.0) for k in range(3)]
    q = bounded_complete_coefficients(rng, 4)
    rows.append(("phased copies", KrausSet.from_operators(copies, initial=base), base, None, q))
    for d in (4, 6):
        initial, final = rank_one_block_pair(rng, d)
        q = bounded_complete_coefficients(rng, 4)
        q[2:] = 0.0
        rows.append(("rank-one block", synthesize(initial, final), initial, final, q))
    flip = np.diag([1.0, -1.0, 1.0, -1.0])
    dephased = [np.sqrt(1.0 - 1e-8) * u, np.sqrt(1e-8) * flip @ u]
    q = bounded_complete_coefficients(rng, 4)
    rows.append(("dephased", KrausSet.from_operators(dephased, initial=base), base, None, q))
    initial, final = zero_plus(), cos09_final()
    rows.append(("decohering", synthesize(initial, final), initial, final, [1, 1]))
    return rows


@pytest.mark.parametrize("purity_tol", [0.0, 1e-9, 1e-6, 0.5])
def test_probe_reads_the_top_eigenvector_without_eigh(monkeypatch, purity_tol):
    # The output is pure when the purity of rho / Tr rho is within purity_tol
    # of 1.  A pure output's state, B's top left singular vector, equals
    # eigh's phase-pinned top eigenvector of rho = B B^dag within 1e-13, on
    # both branches of _pure_output and at K = 1 to 4; no probe runs eigh,
    # and B is formed once per probe, pure or not.
    counts = tally(monkeypatch)
    read = set()
    for name, ks, initial, final, q in readout_instances():
        counts.clear()
        report = coherence_probe(ks, initial, q, purity_tol=purity_tol, final=final)
        t = np.trace(report.output_density).real
        assert report.is_pure == (t > 0.0 and 1.0 - report.output_purity / t / t <= purity_tol)
        assert (counts["eigh"], counts["_pure_output"]) == (0, 1)
        if name in ("phased copies", "rank-one block"):
            assert ks.kraus_count >= 3
        if report.is_pure:
            read.add(name)
            expected = eigh_top_state(report.output_density)
            np.testing.assert_allclose(report.output_state, expected, rtol=0, atol=1e-13)
    # Rounding decides purity at purity_tol = 0, yet each kind of unitary
    # pair, five instances apiece, is read at least once (the K >= 3 outputs,
    # one to two apiece, may or may not be); from 1e-9 up every unitary
    # output is pure, the dephased output from 1e-6 up.
    few = {"phased copies", "rank-one block"}
    expected_kinds = {"N = D", "N < D", "partial"}
    if purity_tol >= 1e-9:
        expected_kinds |= few
    if purity_tol >= 1e-6:
        expected_kinds.add("dephased")
    if purity_tol >= 0.5:
        expected_kinds.add("decohering")
    assert expected_kinds <= read <= expected_kinds | few


def test_amplitudes_of_a_factored_set_match_its_operators():
    # B read off the factor, Phi diag(Psi^+ v) C with the sink's column,
    # equals the columns A_k v of the built operators, with and without a
    # sink, for K = 1 to 4.
    for _, ks, initial, _, q in readout_instances():
        if ks.c_factor is None:
            continue
        v = np.asarray(q, dtype=complex) @ initial.states
        b = synthesis._pure_output(ks, v)[0]
        assert b.shape == (ks.dimension, ks.kraus_count)
        np.testing.assert_allclose(b, (ks.operators @ v).T, rtol=0, atol=1e-13)


def test_probe_output_is_the_channel_output_on_the_pure_input():
    # The probe reads rho = B B^dag off the amplitudes; apply_channel on
    # |v><v| (unit Frobenius norm) is the independent route.  The two agree
    # within delta = ``rounding_bound``, and their purities within
    # 2 t delta + 2 D^2 eps t^2: Tr rho^2 moves by at most
    # (||rho||_F + ||rho'||_F) ||rho - rho'||_F, with ||rho||_F <= t = Tr rho,
    # and its sum of D^2 products rounds by at most D^2 eps ||rho||_F^2.
    # Synthesized sets with and without a sink (at N = D, N < D and with
    # zero coefficients), three phased copies (K = 3) and a dephased unitary.
    eps = np.finfo(float).eps
    cases = [(ks, initial, q) for _, ks, initial, _, q in readout_instances()]
    cases += [(synthesize(a, b), a, q) for a, b, q, _ in roundtrip_cases()]
    layouts = set()
    for ks, initial, q in cases:
        f = ks._factor
        layouts.add("operators" if f is None else "sink" if f.kets is not None else "no sink")
        report = coherence_probe(ks, initial, q)
        vec = np.asarray(q, dtype=complex) @ initial.states
        rho = apply_channel(ks, state_to_density(vec / np.linalg.norm(vec)))
        delta, d, t = rounding_bound(ks), ks.dimension, np.trace(rho).real
        assert frobenius(report.output_density - rho) <= delta
        assert abs(report.output_purity - purity(rho)) <= 2 * t * delta + 2 * d * d * eps * t * t
        np.testing.assert_array_equal(report.output_density, report.output_density.conj().T)
    assert layouts == {"operators", "sink", "no sink"}


def test_probe_of_a_channel_that_is_not_trace_preserving_normalizes_purity():
    # A1 = |0><v|, A2 = |1><v| with v = (|0> + |1>)/sqrt 2 send v to rho = I,
    # of trace 2 and purity 2: rho / 2 is maximally mixed, so the output
    # decoheres and no state is read.  A zero channel's output is never pure.
    basis = StateSet.from_vectors(np.eye(2))
    v = np.array([INV_SQRT2, INV_SQRT2])
    ks = KrausSet.from_operators([np.outer([1, 0], v), np.outer([0, 1], v)], initial=basis)
    report = coherence_probe(ks, basis, [1, 1])
    np.testing.assert_array_equal(report.output_density, np.eye(2))
    assert report.output_purity == 2.0 and not report.is_pure
    assert report.verdict == DECOHERING and report.output_state is None
    zero = KrausSet.from_operators([np.zeros((2, 2))], initial=basis)
    report = coherence_probe(zero, basis, [1, 1])
    assert report.output_purity == 0.0 and report.verdict == DECOHERING


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


def roundtrip_cases():
    """(initial, final, complete q, verdict): a unitary-related and a
    decohering pair at N = D = 8 and at N = 6 < D = 8."""
    rng = np.random.default_rng(89)
    cases = []
    for n, d in [(8, 8), (6, 8)]:
        base = random_state_set(d, n, sub_seed(rng), mode="independent")
        image = random_state_set(d, n, sub_seed(rng), mode="unitary_image", base=base)
        initial, final, _ = feasible_pair(rng, n, min_subdominant=0.01)
        initial, final = embedded(initial, rng, d), embedded(final, rng, d)
        q = bounded_complete_coefficients(rng, n)
        cases += [(base, image, q, UNITARY_RELATED), (initial, final, q, DECOHERING)]
    return cases


def test_spectral_work_per_roundtrip(monkeypatch):
    # One feasibility check owns both Gram matrices: it forms each once,
    # settles each rank by one shifted Cholesky with no eigenvalue solve,
    # and supplies the ratio factor synthesis builds from (one eigh); the
    # probe reads a pure output's state as the top left singular vector of
    # the channel's amplitudes B (one thin SVD of a D x K matrix, no eigh).
    # A unitary pair's ratio matrix has rank one, so its factor drops
    # rounding-sized eigenvalues, and the check computes the built
    # channel's residuals from G1's inverse (one solve, no Cholesky), which
    # the initial duals then read; a decohering pair's duals come from one
    # solve with the certified G1.  For a pure output the final duals are
    # built once, from the check's G2 and certificate, and serve both the
    # expansion of the output state and the device residual.  At full
    # support the unitary test reads the check's ratio matrix and
    # independence flags, so it builds no ratio matrix and no Gram.  It
    # takes one SVD (the Procrustes polar factor) and no eigh, for N = D and
    # N < D alike; a decohering pair fails phase synchronisation first and
    # takes no SVD.  The channel is read once, as the probe's amplitudes B,
    # which give the output density and the device residual; apply_channel
    # never runs.
    cases = roundtrip_cases()
    counts = tally(monkeypatch)
    for a, b, q, verdict in cases:
        counts.clear()
        rec = coherence_roundtrip(a, b, q)
        assert rec.test.verdict == verdict
        pure = verdict == UNITARY_RELATED
        # Every case is at full support: the coefficients are complete.
        work = (counts["eigh"], counts["eigvalsh"], counts["cholesky"], counts["gram"])
        assert work == (1, 0, 2, 2)
        assert (counts["cond"], counts["svd"], counts["_pure_output"]) == (0, 2 * pure, 1)
        assert counts["apply_channel"] == 0
        assert counts["coherence._ratio_matrix"] == 0
        # One initial-dual construction (synthesis) and, per pure output,
        # one final-dual construction; no public re-entry, no least squares.
        assert (counts["_span_duals"], counts["span_duals"]) == (1 + pure, 0)
        # G1's inverse once, in the check, G2's per pure output.
        assert counts["_overlap_inverse"] == 1 + pure
        assert (counts["linear_independence"], counts["lstsq"]) == (0, 0)
        assert (rec.device_residual is not None) == pure
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
        assert counts["svd"] == 2 * pure
        ref = unitary_relation_test(a, b, support=support)
        assert rec.test.verdict == ref.verdict == verdict and rec.agree
        if verdict == UNITARY_RELATED:
            np.testing.assert_allclose(rec.test.phases, ref.phases, rtol=0, atol=1e-12)
            assert_same_unitary_on_span(rec.test, ref, a.subset(support))


def test_probe_purity_is_an_n_by_n_formula_on_the_ratio_matrix():
    # For a synthesized channel on an independent set, A_k psi1_j =
    # C_jk psi2_j sends the unit input sum_j q~_j psi1_j, q~ = q / ||sum_j
    # q_j psi1_j||, to rho = Phi A Phi^dag with A = M o (q~ q~^dag) and M the
    # completed ratio matrix; Phi^dag Phi = G2^T, so Tr rho^2 = Tr[(A G2^T)^2]
    # with no D x D product.
    for a, b, q, _ in roundtrip_cases():
        m = feasibility_check(a, b).ratio_matrix
        q_unit = q / np.linalg.norm(q @ a.states)
        ag = (np.where(m.defined, m.entries, 1.0) * np.outer(q_unit, q_unit.conj())) @ gram(b).T
        probe = coherence_probe(synthesize(a, b), a, q)
        assert abs(np.trace(ag @ ag).real - probe.output_purity) <= 1e-13


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
    # one SVD of the channel's amplitudes and runs no eigh, as
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
