import hashlib
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detchan import (
    DetchanError,
    DimensionMismatchError,
    FEASIBLE,
    IllConditionedError,
    KrausSet,
    NotFeasibleError,
    NotFiniteError,
    SizeMismatchError,
    StateSet,
    UNDETERMINED,
    apply_channel,
    coherence_probe,
    coherence_roundtrip,
    feasibility_check,
    kraus_to_choi,
    purity,
    state_to_density,
    synthesize,
    validate_density,
    verify_completeness,
)
from detchan import serialize, states, synthesis
from detchan.numerics import frobenius
from helpers import (
    FIXTURES,
    bounded_complete_coefficients,
    channel_residuals,
    INV_SQRT2,
    count_calls,
    cos09_final,
    embedded,
    feasible_pair,
    haar_unitary,
    near_parallel_pair,
    output_trace,
    product_pair,
    sub_seed,
    tally,
    transforms,
    well_conditioned_set,
    zero_plus,
)


def measurement_channel(d=2, initial=None, final=None):
    ops = [np.zeros((d, d), dtype=complex) for _ in range(d)]
    for k in range(d):
        ops[k][k, k] = 1.0
    return KrausSet.from_operators(ops, initial=initial, final=final)


def reorder_gauge(ks, w):
    """Same channel with factor C @ w: operators A'_m = sum_k w[k, m] A_k."""
    ops = [
        sum(w[k, m] * ks.operators[k] for k in range(ks.kraus_count))
        for m in range(w.shape[1])
    ]
    return KrausSet.from_operators(ops)


# ---------------------------------------------------------------- KrausSet


def test_kraus_set_holds_one_read_only_copy():
    source = np.stack([np.eye(2), np.diag([0.0, 1.0])]).astype(complex)
    ks = KrausSet.from_operators(source)
    assert ks.operators.shape == (2, 2, 2)
    assert ks.operators.dtype == np.complex128 and ks.operators.flags.c_contiguous
    assert (ks.dimension, ks.kraus_count) == (2, 2)
    with pytest.raises(ValueError):
        ks.operators[0, 0, 0] = 5.0
    source[0, 0, 0] = 7.0
    assert ks.operators[0, 0, 0] == 1.0
    # The dimension is read off the operators, never passed in.
    with pytest.raises(TypeError):
        KrausSet(dimension=2, operators=source)


@pytest.mark.parametrize(
    "operators",
    [[], np.zeros((0, 2, 2)), [np.eye(2), np.eye(3)], [np.ones((2, 3))], np.eye(2)],
    ids=["empty-list", "empty-array", "mixed-shapes", "non-square", "single-matrix"],
)
def test_kraus_set_rejects_malformed_shapes(operators):
    with pytest.raises(SizeMismatchError):
        KrausSet.from_operators(operators)


def test_kraus_set_rejects_non_finite_entries():
    op = np.eye(2, dtype=complex)
    op[0, 1] = np.nan
    with pytest.raises(NotFiniteError):
        KrausSet.from_operators([np.eye(2), op])


def per_operator_reference(ops, rho):
    """Per-operator loops for the completeness residual, the channel
    output and the Choi matrix."""
    d = ops[0].shape[0]
    completeness = np.zeros((d, d), dtype=complex)
    out = np.zeros((d, d), dtype=complex)
    choi = np.zeros((d * d, d * d), dtype=complex)
    for op in ops:
        completeness += op.conj().T @ op
        out += op @ rho @ op.conj().T
        w = op.T.reshape(-1)
        choi += np.outer(w, w.conj())
    return frobenius(completeness - np.eye(d)), (out + out.conj().T) / 2.0, choi


def random_rows(rng, n, d):
    return rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, 2 * d))),
    st.integers(0, 2**32 - 1),
)
def test_tensor_kernels_match_per_operator_loops(shape, seed):
    # K blocks of a (K D, D) isometry form a complete Kraus set.
    d, k = shape
    rng = np.random.default_rng(seed)
    isometry, _ = np.linalg.qr(random_rows(rng, k * d, d))
    ks = KrausSet.from_operators(isometry.reshape(k, d, d))
    psi = random_rows(rng, 1, d)[0]
    rho = state_to_density(psi / np.linalg.norm(psi))
    completeness, out, choi = per_operator_reference(list(ks.operators), rho)
    assert abs(verify_completeness(ks) - completeness) <= 1e-12
    np.testing.assert_allclose(apply_channel(ks, rho), out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(kraus_to_choi(ks), choi, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- factored sets


def test_factored_set_builds_its_operators_once_on_first_read(monkeypatch):
    rng = np.random.default_rng(5)
    initial, final, _ = feasible_pair(rng, 4)
    initial, final = embedded(initial, rng, 6), embedded(final, rng, 6)
    counts = count_calls(monkeypatch, (synthesis, "_kraus_stack"))
    ks = synthesize(initial, final)
    assert (ks.dimension, ks.kraus_count) == (6, ks.c_factor.shape[1] + 1)
    assert counts["_kraus_stack"] == 0
    ops = ks.operators
    assert counts["_kraus_stack"] == 1
    assert ops.shape == (ks.kraus_count, 6, 6)
    assert ops.dtype == np.complex128 and ops.flags.c_contiguous
    assert ks.operators is ops and counts["_kraus_stack"] == 1
    with pytest.raises(ValueError):
        ops[0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        ks.c_factor[0, 0] = 5.0
    np.testing.assert_array_equal(ops[-1], ks._factor.sink)


def test_kraus_set_is_immutable_and_takes_one_source():
    ks = synthesize(zero_plus(), cos09_final())
    with pytest.raises(AttributeError):
        ks.c_factor = None
    with pytest.raises(AttributeError):
        ks.operators = np.eye(2)[None]
    with pytest.raises(AttributeError, match="cannot delete 'c_factor'"):
        del ks.c_factor
    with pytest.raises(TypeError):
        KrausSet()
    with pytest.raises(TypeError):
        KrausSet(operators=[np.eye(2)], _factor=ks._factor)
    assert repr(ks) == "KrausSet(dimension=2, kraus_count=2)"


def test_kraus_set_rejects_a_non_finite_factor():
    f = synthesize(zero_plus(), cos09_final())._factor
    bras = np.array(f.bras)
    bras[0, 0] = np.inf
    with pytest.raises(NotFiniteError):
        KrausSet(_factor=f._replace(bras=bras))


def test_concurrent_first_reads_share_one_array():
    # The lazy build may run in several threads at once; every reader must
    # still get the one stored array.
    rng = np.random.default_rng(9)
    initial, final, _ = feasible_pair(rng, 8)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ks = synthesize(initial, final)
            barrier = threading.Barrier(8)
            seen = []

            def read():
                barrier.wait(timeout=10)
                seen.append(ks.operators)

            threads = [threading.Thread(target=read) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 8 and all(ops is ks.operators for ops in seen)
    finally:
        sys.setswitchinterval(switch)


def test_synthesized_fingerprints_are_hashed_on_first_read(monkeypatch):
    # synthesize hashes neither set; each set is hashed once, when its
    # fingerprint is first read through the channel or directly, and keeps
    # the digest: probing the channel against its two sets hashes nothing
    # more.  A hand-assembled set keeps the strings it was given.
    initial, final = zero_plus(), cos09_final()
    hashes = count_calls(monkeypatch, (hashlib, "sha256"))
    ks = synthesize(initial, final)
    assert hashes["sha256"] == 0
    assert ks.initial_fingerprint == states.fingerprint(initial)
    assert ks.final_fingerprint == states.fingerprint(final)
    assert ks.initial_fingerprint != ks.final_fingerprint  # read again, not hashed again
    assert hashes["sha256"] == 2
    for _ in range(2):
        coherence_probe(ks, initial, [1, 1], final=final)
    given = KrausSet(ks.operators, None, "a", "b")
    assert (given.initial_fingerprint, given.final_fingerprint) == ("a", "b")
    assert KrausSet(_factor=ks._factor).initial_fingerprint == ""
    assert hashes["sha256"] == 2
    with pytest.raises(AttributeError):
        ks.initial_fingerprint = "x"


def test_concurrent_first_fingerprint_reads_share_one_string():
    # Each round reads the fingerprint of a fresh, never hashed copy of the
    # initial set from four threads at once.
    rng = np.random.default_rng(10)
    initial, final, _ = feasible_pair(rng, 8)
    expected = states.fingerprint(initial)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ks = synthesize(StateSet(initial.dimension, initial.states), final)
            barrier = threading.Barrier(4)
            seen = []

            def read():
                barrier.wait(timeout=10)
                seen.append(ks.initial_fingerprint)

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert len(seen) == 4 and all(fp is ks.initial_fingerprint for fp in seen)
            assert seen[0] == expected
    finally:
        sys.setswitchinterval(switch)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(1, 8).flatmap(lambda d: st.tuples(st.integers(1, d), st.just(d))),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_factor_matches_per_operator_loops(shape, unitary, seed):
    # Feasible pairs (N = D), the same pairs embedded by different
    # isometries (N < D), and unitary images: the factored channel, its
    # completeness and its guard against the materialised operators.
    n, d = shape
    rng = np.random.default_rng(seed)
    if unitary:
        initial = well_conditioned_set(rng, n, d)
        final = StateSet(d, initial.states @ haar_unitary(d, sub_seed(rng)).T)
    else:
        initial, final, _ = feasible_pair(rng, n, int(rng.integers(1, n + 1)))
        if n < d:
            initial, final = embedded(initial, rng, d), embedded(final, rng, d)
    ks = synthesize(initial, final)
    f = ks._factor
    psi = random_rows(rng, 1, d)[0]
    rho = state_to_density(psi / np.linalg.norm(psi))
    reference = KrausSet.from_operators(ks.operators)
    assert ks.kraus_count == reference.kraus_count == len(ks.operators)
    np.testing.assert_allclose(
        apply_channel(ks, rho), apply_channel(reference, rho), rtol=0, atol=1e-13
    )
    g2 = states.gram(final)
    _, completeness = synthesis._verify_synthesis(f, initial, g2, 1e-9)
    assert abs(completeness - verify_completeness(ks)) <= 1e-13
    # A 1e-5 error in the reciprocal states trips the factored guard, whose
    # per-state residual is the root of the sum over operators of the
    # per-operator residuals, never below their maximum.
    bad = f._replace(bras=f.bras + 1e-5 * random_rows(rng, n, d))
    with pytest.raises(IllConditionedError):
        synthesis._verify_synthesis(bad, initial, g2, 1e-9)
    worst, completeness = synthesis._verify_synthesis(bad, initial, g2, 1.0)
    bad_set = KrausSet(_factor=bad)
    per_operator = 0.0
    for k in range(bad.c.shape[1]):
        images = initial.states @ bad_set.operators[k].T
        expected = bad.c[:, k, None] * final.states
        per_operator = max(per_operator, float(np.max(np.linalg.norm(images - expected, axis=1))))
    assert worst >= per_operator * (1 - 1e-9)
    assert abs(completeness - verify_completeness(bad_set)) <= 1e-12


def test_guard_counts_the_sink_image_of_a_near_dependent_set():
    # Tilted by 2e-5, the pair counts as rank one: the dropped direction's
    # share of psi_1 lands in the sink, whose target coefficient is 0.  The
    # guard's per-state residual is the root of the sum over every operator,
    # the sink included, of ||A_k psi_j - c_jk psi_j||^2.
    # The identity's factor: M = C C^dag is all ones, and the rank-one
    # pseudo-inverse leaves the sink I - P.
    s = StateSet.from_vectors([[1, 0], [np.cos(2e-5), np.sin(2e-5)]])
    bras = states.span_duals(s).conj()
    sink = np.eye(2) - s.states.T @ bras
    f = synthesis._Factor(s.states.T, np.ones((2, 1)), np.ones((2, 2)), bras, sink)
    worst, _ = synthesis._verify_synthesis(f, s, states.gram(s), 1.0)
    ops = KrausSet(_factor=f).operators
    coefficients = np.hstack([f.c, np.zeros((2, 1))])
    images = np.einsum("kij,nj->nki", ops, s.states) - coefficients[:, :, None] * s.states[:, None]
    per_state = np.sqrt(np.sum(np.abs(images) ** 2, axis=(1, 2)))
    assert worst == pytest.approx(np.max(per_state), rel=1e-9)
    assert worst == pytest.approx(2e-5 / np.sqrt(2), rel=1e-6)
    with pytest.raises(IllConditionedError):
        synthesis._verify_synthesis(f, s, states.gram(s), 1e-9)


def fixture_state_sets():
    docs = (serialize.load_document(path) for path in sorted(FIXTURES.glob("*.json")))
    return [serialize.state_set_from_obj(doc) for doc in docs if "states" in doc]


def test_apply_channel_is_the_factored_reference_bit_for_bit():
    # For every pair of same-shape fixtures that synthesize builds, the
    # channel's output is, bit for bit, the re-Hermitized
    # Phi ((C C^dag) o (Psi^+ rho Psi^+^dag)) Phi^dag + S rho S^dag with
    # C C^dag formed here from c_factor: the C C^dag the factor carries
    # is that product.
    built = 0
    for initial, final in itertools.product(fixture_state_sets(), repeat=2):
        if initial.states.shape != final.states.shape:
            continue
        try:
            ks = synthesize(initial, final)
        except NotFeasibleError:
            continue
        built += 1
        f, c, d = ks._factor, ks.c_factor, initial.dimension
        for rho in [state_to_density(psi) for psi in initial.states] + [np.eye(d) / d + 0j]:
            inner = (c @ c.conj().T) * (f.bras @ rho @ f.bras.conj().T)
            out = f.targets @ inner @ f.targets.conj().T
            if f.sink is not None:
                out += f.sink @ rho @ f.sink.conj().T
            expected = (out + out.conj().T) / 2.0
            assert apply_channel(ks, rho).tobytes() == expected.tobytes()
    assert built == 42


def test_roundtrips_and_channel_use_the_factor(monkeypatch):
    # Decohering roundtrips (N = D = 8 and N = 6 < D = 8) and synthesize
    # followed by apply_channel never build the (K, D, D) stack.
    rng = np.random.default_rng(31)
    counts = count_calls(monkeypatch, (synthesis, "_kraus_stack"))
    spanning = feasible_pair(rng, 8, min_subdominant=0.2)[:2]
    pair = feasible_pair(rng, 6, min_subdominant=0.2)[:2]
    for initial, final in (spanning, (embedded(pair[0], rng, 8), embedded(pair[1], rng, 8))):
        q = bounded_complete_coefficients(rng, initial.n)
        rec = coherence_roundtrip(initial, final, q)
        assert rec.probe.verdict == rec.test.verdict == "Decohering"
        ks = synthesize(initial, final)
        apply_channel(ks, state_to_density(initial.states[0]))
        assert (ks.dimension, ks.kraus_count) == (8, ks.c_factor.shape[1] + (initial.n < 8))
    assert counts["_kraus_stack"] == 0


# ---------------------------------------------------------------- synthesize


def test_identity_channel_on_orthonormal_basis():
    basis = StateSet.from_vectors(np.eye(3))
    ks = synthesize(basis, basis)
    assert ks.kraus_count == 1
    np.testing.assert_allclose(ks.operators[0], np.eye(3), atol=1e-12)
    np.testing.assert_allclose(ks.c_factor, np.ones((3, 1)), atol=1e-12)


def test_orthonormal_initial_gives_d_operators():
    basis = StateSet.from_vectors(np.eye(2))
    final = cos09_final()
    ks = synthesize(basis, final)
    assert ks.kraus_count == 2
    # channel equals {|psi2_k><k|} as a map (compare Choi matrices,
    # operator lists are gauge-redundant)
    reference = KrausSet.from_operators(
        [np.outer(final.states[k], np.eye(2)[k]) for k in range(2)]
    )
    assert frobenius(kraus_to_choi(ks) - kraus_to_choi(reference)) <= 1e-9


def test_full_pipeline_cos09():
    initial = zero_plus()
    final = cos09_final()
    ks = synthesize(initial, final)
    assert ks.kraus_count == 2
    assert verify_completeness(ks) <= 1e-9
    fidelities, coefficients = transforms(ks, initial, final)
    assert np.all(fidelities >= 1.0 - 1e-9)
    np.testing.assert_allclose(np.sum(np.abs(coefficients) ** 2, axis=1), 1.0, rtol=0, atol=1e-9)


def test_synthesize_refuses_infeasible():
    initial = zero_plus()
    final = StateSet.from_vectors([[1, 0], [0.5, np.sqrt(0.75)]])
    with pytest.raises(NotFeasibleError) as err:
        synthesize(initial, final)
    assert err.value.report is not None
    assert err.value.report.verdict == "Infeasible"


def test_synthesize_refuses_condition_above_the_ceiling():
    # Gram condition of this pair is about 400.
    s = StateSet.from_vectors([[1, 0], [np.cos(0.1), np.sin(0.1)]])
    assert synthesize(s, s).kraus_count == 1
    # Condition about 1e13 passes the rank cutoff at tol = 1e-15, but not
    # the fixed 1e12 ceiling of the reciprocal states.
    worse = StateSet.from_vectors([[1, 0], [np.cos(6e-7), np.sin(6e-7)]])
    with pytest.raises(IllConditionedError):
        synthesize(worse, worse, tol=1e-15)


def test_spectral_work_per_synthesize(monkeypatch):
    # One eigh: the feasibility check's, of the ratio matrix, whose factor
    # the check's pair record keeps for synthesis.  The duals read the
    # inverse the check took from its certified G1 with one solve,
    # and no SVD-based condition number.  The check's two Grams are the
    # only Grams: the ratio matrix and G1 are read off the report, never
    # rebuilt.
    initial, final, _ = feasible_pair(np.random.default_rng(16), 16)
    counts = tally(monkeypatch)
    synthesize(initial, final)
    assert counts["eigh"] == 1
    assert (counts["cond"], counts["svd"]) == (0, 0)
    assert counts["gram"] == 2
    assert counts["_ratio_matrix"] == 1


def test_dependent_synthesis_takes_no_more_eigh_than_its_check(monkeypatch):
    # A dependent initial set's duals come from the pseudo-inverse of G1
    # that the build check forms from its eigenpairs once the verdict is
    # Feasible, so synthesis adds that one inverse to a bare check's work and
    # no eigh, Cholesky or Gram; no SVD anywhere.
    initial, final = product_pair(np.random.default_rng(5), 7, 3, 2)
    counts = tally(monkeypatch)
    assert feasibility_check(initial, final).verdict == FEASIBLE
    names = ("eigh", "cholesky", "feasibility.gram", "feasibility._overlap_inverse")
    check_work = [counts[name] for name in names]
    counts.clear()
    synthesize(initial, final)
    # The build check's pseudo-inverse of G1, kept on its record, gives the duals.
    assert check_work[3] == 0
    assert [counts[name] for name in names] == check_work[:3] + [1]
    assert (counts["svd"], counts["synthesis._span_duals"]) == (0, 1)


def test_spanning_dependent_synthesis_gets_no_sink():
    # N = 8 states spanning C^6: rank D, so P = I and no sink is added;
    # K is the rank of the ratio matrix, the ancillas' Gram of rank 2.
    initial, final = product_pair(np.random.default_rng(6), 8, 3, 2)
    ks = synthesize(initial, final)
    assert ks._factor.sink is None
    assert ks.kraus_count == ks.c_factor.shape[1] == 2
    assert max(channel_residuals(ks, initial, final)) <= 1e-12
    # Repeating a state of a non-spanning set keeps the sink.
    pair = StateSet.from_vectors([[1, 0, 0], [INV_SQRT2, INV_SQRT2, 0]])
    repeated = StateSet.from_vectors(np.vstack([pair.states, pair.states[:1]]))
    ks = synthesize(repeated, repeated)
    assert ks._factor.sink is not None
    np.testing.assert_allclose(ks._factor.sink, np.diag([0, 0, 1]), atol=1e-14)


def test_per_state_action_matches_factor():
    rng = np.random.default_rng(2)
    initial, final, _ = feasible_pair(rng, 4)
    ks = synthesize(initial, final)
    c = ks.c_factor
    for k in range(c.shape[1]):
        images = initial.states @ ks.operators[k].T
        expected = c[:, k][:, None] * final.states
        assert np.max(np.linalg.norm(images - expected, axis=1)) <= 1e-9


def test_coefficient_products_reproduce_ratio_matrix():
    rng = np.random.default_rng(8)
    initial, final, _ = feasible_pair(rng, 5)
    ks = synthesize(initial, final)
    m = feasibility_check(initial, final).ratio_matrix
    _, coefficients = transforms(ks, initial, final)
    recovered = coefficients @ coefficients.conj().T
    np.testing.assert_allclose(recovered, m.entries, atol=1e-9)


def test_kraus_count_bounded_by_dimension():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        initial, final, m = feasible_pair(rng, n)
        ks = synthesize(initial, final)
        rank = int(np.sum(np.linalg.eigvalsh(m) > 1e-10 * np.max(np.linalg.eigvalsh(m))))
        assert ks.kraus_count == rank
        assert ks.kraus_count <= n


def test_non_spanning_synthesis_completes_identity():
    initial = StateSet.from_vectors([[1, 0, 0], [INV_SQRT2, INV_SQRT2, 0]])
    final = StateSet.from_vectors([[1, 0, 0], [0.9, np.sqrt(0.19), 0]])
    ks = synthesize(initial, final)
    assert ks.kraus_count <= 3
    assert verify_completeness(ks) <= 1e-9
    assert np.all(transforms(ks, initial, final)[0] >= 1.0 - 1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(2, 8).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d))),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_non_spanning_synthesis_is_complete(shape, unitary, seed):
    # The final states leave span(psi1): either a feasible pair whose two
    # sets are embedded by different isometries, or a Haar unitary image.
    # The rank(C) span operators give sum A^dag A = P and the single sink
    # I - P completes it, so any operator mixing the two breaks completeness.
    n, d = shape
    rng = np.random.default_rng(seed)
    if unitary:
        initial = well_conditioned_set(rng, n, d)
        final = StateSet(d, initial.states @ haar_unitary(d, sub_seed(rng)).T)
    else:
        initial, final, _ = feasible_pair(rng, n, int(rng.integers(1, n + 1)))
        initial, final = embedded(initial, rng, d), embedded(final, rng, d)
    ks = synthesize(initial, final)
    assert verify_completeness(ks) <= 1e-9
    assert np.all(transforms(ks, initial, final)[0] >= 1.0 - 1e-9)
    trace = output_trace(kraus_to_choi(ks), d)
    assert frobenius(trace - np.eye(d)) <= 1e-9
    w = np.linalg.eigvalsh(feasibility_check(initial, final).ratio_matrix.entries)
    rank = int(np.sum(w > 1e-10 * w[-1]))
    assert ks.kraus_count == rank + 1 <= d


def test_near_parallel_pair_synthesizes():
    # Gram condition 1.8e8 lies below the 1e9 rank cutoff, so the identity
    # on this pair must synthesize and pass its own verification.
    # Roundoff grows with the condition, so the
    # residuals are held to that verification bound, 1e3 * tol.
    s = near_parallel_pair()
    ks = synthesize(s, s)
    assert ks.kraus_count == 2
    assert verify_completeness(ks) <= 1e-6
    assert np.all(transforms(ks, s, s)[0] >= 1.0 - 1e-6)


def unitary_related_pair(n: int, lambda_min: float, seed: int):
    """Independent pair in C^n with psi2_j = e^{i phi_j} U psi1_j: the rows of
    Q diag(sqrt(w)) V, normalized, with w log-spaced from ``lambda_min`` up to
    1 (G1's eigenvalues before the rows are normalized) and Q, V, U Haar.
    The seed fixes Q, V, U and the phases, so only ``lambda_min`` varies
    across a column."""
    rng = np.random.default_rng([n, seed])
    q, v, u = (haar_unitary(n, sub_seed(rng)) for _ in range(3))
    w = np.logspace(np.log10(lambda_min), 0.0, n)
    initial = StateSet.from_vectors((q * np.sqrt(w)) @ v, normalize=True)
    phases = np.exp(2j * np.pi * rng.random(n))
    return initial, StateSet.from_vectors(phases[:, None] * (initial.states @ u.T))


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("lambda_min", [1e-4, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12, 1e-14])
def test_unitary_related_envelope(n, lambda_min):
    # A unitary channel maps every such pair, but today's construction needs
    # G1's inverse: once G1's rank cut drops eigenpairs (lambda_min <= 1e-10)
    # the sink's per-state residual fails the guard, and the pair is
    # Undetermined.  At 1e-9, the boundary, the three draws may go either
    # way (at N = 16 one of them is Undetermined).  In every cell the check
    # is Feasible exactly when synthesize builds.
    outcomes = []
    for seed in range(3):
        initial, final = unitary_related_pair(n, lambda_min, seed)
        try:
            synthesize(initial, final)
            error = None
        except DetchanError as exc:
            error = type(exc).__name__
        outcomes.append((feasibility_check(initial, final).verdict, error))
    assert all((verdict == FEASIBLE) == (error is None) for verdict, error in outcomes)
    if lambda_min >= 1e-8:
        assert outcomes == [(FEASIBLE, None)] * 3
    elif lambda_min <= 1e-10:
        assert outcomes == [(UNDETERMINED, "NotFeasibleError")] * 3


# ---------------------------------------------------------- verify_completeness


def test_completeness_of_single_unitary():
    u = haar_unitary(3, seed=1)
    ks = KrausSet.from_operators([u])
    assert verify_completeness(ks) <= 1e-14


def test_deleting_an_operator_breaks_completeness():
    basis = StateSet.from_vectors(np.eye(2))
    ks = synthesize(basis, cos09_final())
    assert ks.kraus_count >= 2
    truncated = KrausSet.from_operators(list(ks.operators[:-1]))
    assert verify_completeness(truncated) > 1e-9


# ---------------------------------------------------------------- apply_channel


def test_identity_channel_preserves_rho():
    ks = KrausSet.from_operators([np.eye(2)])
    rho = np.array([[0.75, 0.1j], [-0.1j, 0.25]])
    np.testing.assert_allclose(apply_channel(ks, rho), rho, atol=1e-14)


def test_channel_maps_initial_projectors_to_final_projectors():
    rng = np.random.default_rng(23)
    initial, final, _ = feasible_pair(rng, 4)
    ks = synthesize(initial, final)
    for j in range(4):
        out = apply_channel(ks, state_to_density(initial.states[j]))
        assert frobenius(out - state_to_density(final.states[j])) <= 1e-9


def test_measurement_channel_dephases_plus_state():
    ks = measurement_channel(2)
    plus = np.full(2, INV_SQRT2)
    out = apply_channel(ks, state_to_density(plus))
    np.testing.assert_allclose(out, np.eye(2) / 2.0, atol=1e-14)


def test_apply_channel_dimension_mismatch():
    ks = KrausSet.from_operators([np.eye(2)])
    with pytest.raises(DimensionMismatchError):
        apply_channel(ks, np.eye(3) / 3.0)


def test_apply_channel_rejects_a_non_finite_density():
    ks = KrausSet.from_operators([np.eye(2)])
    with pytest.raises(NotFiniteError, match="NaN or Inf"):
        apply_channel(ks, [[0.5, np.nan], [np.nan, 0.5]])


@pytest.mark.parametrize(
    "rho", [np.eye(2)[:1], np.ones(2) / 2.0, np.ones((1, 2, 2))], ids=["1x2", "1-D", "3-D"]
)
def test_density_checks_need_a_square_matrix(rho):
    # purity and validate_density refuse anything but a square matrix, the
    # latter with one check of both the rank and the shape.
    with pytest.raises(SizeMismatchError, match="density matrix must be square"):
        purity(rho)
    with pytest.raises(SizeMismatchError, match="density matrix must be square"):
        validate_density(rho)


def test_validate_density_returns_the_complex_matrix_it_checked():
    rho = validate_density([[0.75, 0.25], [0.25, 0.25]])
    assert rho.dtype == np.complex128
    np.testing.assert_array_equal(rho, [[0.75, 0.25], [0.25, 0.25]])
    with pytest.raises(NotFiniteError, match="density matrix contains NaN or Inf"):
        validate_density([[1.0, 0.0], [0.0, np.inf]])


def test_channel_output_is_valid_density():
    rng = np.random.default_rng(29)
    initial, final, _ = feasible_pair(rng, 3)
    ks = synthesize(initial, final)
    vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vec = vec / np.linalg.norm(vec)
    out = apply_channel(ks, state_to_density(vec))
    validate_density(out)  # hermitian, unit trace, PSD


# ---------------------------------------------------------------- coefficients c_jk


def test_identity_channel_coefficients_are_one():
    s = zero_plus()
    ks = synthesize(s, s)
    assert ks.kraus_count == 1
    np.testing.assert_allclose(transforms(ks, s, s)[1], 1.0, rtol=0, atol=1e-9)


def test_measurement_channel_coefficients_are_kronecker():
    basis = StateSet.from_vectors(np.eye(2))
    ks = measurement_channel(2, initial=basis, final=basis)
    np.testing.assert_allclose(transforms(ks, basis, basis)[1], np.eye(2), rtol=0, atol=1e-14)


# ---------------------------------------------------------------- Choi matrix


def test_choi_of_identity_channel():
    ks = KrausSet.from_operators([np.eye(2)])
    choi = kraus_to_choi(ks)
    w = np.linalg.eigvalsh(choi)
    np.testing.assert_allclose(np.sort(w), [0, 0, 0, 2], atol=1e-12)
    np.testing.assert_allclose(output_trace(choi, 2), np.eye(2), atol=1e-12)


def test_choi_of_measurement_channel_is_diagonal():
    choi = kraus_to_choi(measurement_channel(2))
    np.testing.assert_allclose(choi, np.diag([1.0, 0, 0, 1.0]), atol=1e-14)


def test_choi_gauge_invariance():
    rng = np.random.default_rng(37)
    initial, final, _ = feasible_pair(rng, 3)
    ks = synthesize(initial, final)
    choi = kraus_to_choi(ks)
    for seed in range(5):
        w = haar_unitary(ks.kraus_count, seed=seed)
        assert frobenius(kraus_to_choi(reorder_gauge(ks, w)) - choi) <= 1e-9


def test_choi_psd_and_trace_preserving_for_synthesized_channels():
    rng = np.random.default_rng(43)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        initial, final, _ = feasible_pair(rng, n)
        ks = synthesize(initial, final)
        choi = kraus_to_choi(ks)
        w = np.linalg.eigvalsh(choi)
        assert w[0] >= -1e-9 * max(1.0, w[-1])
        assert frobenius(output_trace(choi, n) - np.eye(n)) <= 1e-9
