import numpy as np
import pytest

import detchan.states
from detchan import (
    IllConditionedError,
    InvalidDimensionsError,
    NotNormalizedError,
    SizeMismatchError,
    StateSet,
    ZeroVectorError,
    fingerprint,
    gram,
    linear_independence,
    random_state_set,
    span_duals,
    superpose,
)
from detchan.numerics import hermitian_rank
from helpers import count_calls

INV_SQRT2 = 2**-0.5


def basis(d):
    return StateSet.from_vectors(np.eye(d))


def zero_plus():
    return StateSet.from_vectors([[1, 0], [INV_SQRT2, INV_SQRT2]])


# ---------------------------------------------------------------- StateSet


def test_stateset_rejects_unnormalized():
    with pytest.raises(NotNormalizedError):
        StateSet.from_vectors([[1.0, 1.0]])


def test_stateset_normalize_flag():
    s = StateSet.from_vectors([[1.0, 1.0]], normalize=True)
    np.testing.assert_allclose(s.states[0], [INV_SQRT2, INV_SQRT2])


def test_stateset_rejects_empty_and_mismatched():
    with pytest.raises(InvalidDimensionsError):
        StateSet(dimension=3, states=np.eye(2))
    with pytest.raises(SizeMismatchError):
        StateSet.from_vectors(np.eye(2), labels=["only-one"])


def test_stateset_is_readonly():
    s = basis(2)
    with pytest.raises(ValueError):
        s.states[0, 0] = 0.0


def test_subset_keeps_dimension_and_labels():
    s = StateSet.from_vectors(np.eye(3), labels=["a", "b", "c"])
    sub = s.subset([2, 0])
    assert sub.dimension == 3 and sub.n == 2
    assert sub.labels == ("c", "a")
    np.testing.assert_allclose(sub.states[0], [0, 0, 1])


# ---------------------------------------------------------------- gram


def test_gram_orthonormal_basis_is_identity():
    np.testing.assert_allclose(gram(basis(3)), np.eye(3), atol=1e-15)


def test_gram_zero_plus_pair():
    expected = np.array([[1.0, INV_SQRT2], [INV_SQRT2, 1.0]])
    np.testing.assert_allclose(gram(zero_plus()), expected, atol=1e-15)


def test_gram_repeated_state_is_all_ones():
    s = StateSet.from_vectors([[1, 0], [1, 0], [1, 0]])
    np.testing.assert_allclose(gram(s), np.ones((3, 3)), atol=1e-15)


def test_gram_convention_entry_jk_is_bra_k_ket_j():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    s = StateSet.from_vectors(v, normalize=True)
    g = gram(s)
    expected = np.vdot(s.states[1], s.states[0])  # <psi_1 | psi_0>
    assert g[0, 1] == pytest.approx(expected, abs=1e-15)


def test_gram_is_the_symmetrized_product_bit_for_bit():
    # (g + g^dag) / 2, bit for bit, also where overlaps have zero parts:
    # scaling by 0.5 instead of dividing by 2 would keep some -0 that the
    # complex division turns into +0 (the last two sets, with OpenBLAS).
    rng = np.random.default_rng(43)
    sets = [random_state_set(d, n, int(rng.integers(2**31))) for n, d in ((2, 2), (5, 3), (8, 8))]
    sets += [basis(3), StateSet.from_vectors([[-1, 0, 0], [0, 1, 0], [0, -1, 0], [1, 0, 0]])]
    for rows in ([[-1 + 1j, -1 + 1j], [-1j, 1j]], [[0, 1 - 1j, 1j], [-1j, -1j, -1 - 1j]]):
        sets.append(StateSet.from_vectors(rows, normalize=True))
    for s in sets:
        g = s.states @ s.states.conj().T
        assert gram(s).tobytes() == ((g + g.conj().T) / 2.0).tobytes()


def test_gram_unit_diagonal_psd_property():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        s = random_state_set(d, n, int(rng.integers(2**31)))
        g = gram(s)
        np.testing.assert_allclose(np.diag(g).real, np.ones(n), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(g)) >= -1e-12


# ------------------------------------------------- linear_independence


def test_independence_orthonormal():
    assert linear_independence(basis(4)) is True
    assert hermitian_rank(gram(basis(4))) == 4


def test_dependence_three_states_in_two_dims():
    s = StateSet.from_vectors([[1, 0], [0, 1], [INV_SQRT2, INV_SQRT2]])
    assert linear_independence(s) is False
    assert hermitian_rank(gram(s)) == 2


def test_dependence_two_identical_states():
    s = StateSet.from_vectors([[1, 0], [1, 0]])
    assert linear_independence(s) is False
    assert hermitian_rank(gram(s)) == 1


def test_more_states_than_dimensions_are_dependent():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = d + int(rng.integers(1, 3))
        s = random_state_set(d, n, int(rng.integers(2**31)))
        assert linear_independence(s) is False
        assert hermitian_rank(gram(s)) <= d


def test_linear_independence_takes_one_cholesky_unless_dependent(monkeypatch):
    # A well-conditioned set is certified by the shifted Cholesky alone; a
    # dependent one fails it and is decided by one eigenvalues-only solve.
    s = random_state_set(16, 16, 5, mode="independent")
    dependent = random_state_set(4, 6, 5)
    counts = count_calls(
        monkeypatch, (np.linalg, "eigvalsh"), (np.linalg, "eigh"), (np.linalg, "cholesky")
    )
    assert linear_independence(s) is True
    assert (counts["eigvalsh"], counts["eigh"], counts["cholesky"]) == (0, 0, 1)
    counts.clear()
    assert linear_independence(dependent) is False
    assert (counts["eigvalsh"], counts["eigh"], counts["cholesky"]) == (1, 0, 1)


# ---------------------------------------------------------------- duals


def test_duals_of_orthonormal_basis_are_the_basis():
    np.testing.assert_allclose(span_duals(basis(3)), np.eye(3), atol=1e-14)


def test_duals_zero_plus_pair_closed_form():
    # Gram-inverse oracle gives duals {|0> - |1>, sqrt(2)|1>}
    w = span_duals(zero_plus())
    np.testing.assert_allclose(w[0], [1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(w[1], [0.0, np.sqrt(2.0)], atol=1e-12)


def test_duals_biorthogonality_and_identity_resolution():
    s = random_state_set(5, 5, 123, mode="independent")
    w = span_duals(s)
    overlap = w.conj() @ s.states.T  # <w_j|psi_k>
    np.testing.assert_allclose(overlap, np.eye(5), atol=1e-9)
    resolution = s.states.T @ w.conj()  # sum_j |psi_j><w_j|
    assert np.linalg.norm(resolution - np.eye(5)) <= 1e-9
    adjoint = w.T @ s.states.conj()  # sum_j |w_j><psi_j|
    assert np.linalg.norm(adjoint - np.eye(5)) <= 1e-9


def test_duals_of_a_dependent_set_are_the_pseudo_inverse():
    rng = np.random.default_rng(71)
    repeated = StateSet.from_vectors([[1, 0], [1, 0]])
    spanning = random_state_set(3, 5, 72)  # N > D
    # rank 2 inside C^4: a third state in the span of the first two
    pair = random_state_set(4, 2, 73, mode="independent")
    mixed = StateSet.from_vectors(
        np.vstack([pair.states, rng.standard_normal(2) @ pair.states]), normalize=True
    )
    for s, rank in ((repeated, 1), (spanning, 3), (mixed, 2)):
        w = span_duals(s)
        np.testing.assert_allclose(w.conj(), np.linalg.pinv(s.states.T), atol=1e-10)
        resolution = s.states.T @ w.conj()  # projector onto the span
        np.testing.assert_allclose(resolution @ resolution, resolution, atol=1e-10)
        assert np.trace(resolution).real == pytest.approx(rank, abs=1e-10)


def test_span_duals_non_spanning():
    s = StateSet.from_vectors([[1, 0, 0], [INV_SQRT2, INV_SQRT2, 0]])
    w = span_duals(s)
    np.testing.assert_allclose(w.conj() @ s.states.T, np.eye(2), atol=1e-12)
    # sum_j |psi_j><w_j| is the projector onto the span, not the identity.
    np.testing.assert_allclose(s.states.T @ w.conj(), np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def tilted_pair(theta):
    # Gram [[1, cos theta], [cos theta, 1]]: condition (1 + cos) / (1 - cos).
    return StateSet.from_vectors([[1, 0], [np.cos(theta), np.sin(theta)]])


def gram_condition(s):
    w = np.linalg.eigvalsh(gram(s))
    return w[-1] / w[0]


def test_rank_cutoff_fires_before_the_default_ceiling():
    # Condition ~1e10 is below the 1e12 ceiling, but lambda_min is below
    # tol * lambda_max at tol = 1e-9, so the set counts as rank one: its
    # duals are the pseudo-inverse with that direction dropped (singular
    # values of the states below sqrt(tol) times the largest).
    s = tilted_pair(2e-5)
    assert 5e9 < gram_condition(s) < 2e10
    rank_one = np.linalg.pinv(s.states.T, rcond=np.sqrt(1e-9))
    np.testing.assert_allclose(span_duals(s).conj(), rank_one, atol=1e-10)
    # With a smaller tol the rank passes and the condition is admissible.
    w = span_duals(s, tol=1e-12)
    np.testing.assert_allclose(w.conj() @ s.states.T, np.eye(2), atol=1e-5)
    # Past the default ceiling only a smaller tol lets the ceiling decide.
    worse = tilted_pair(6e-7)
    assert 5e12 < gram_condition(worse) < 2e13
    rank_one = np.linalg.pinv(worse.states.T, rcond=np.sqrt(1e-9))
    np.testing.assert_allclose(span_duals(worse).conj(), rank_one, atol=1e-10)
    with pytest.raises(IllConditionedError):
        span_duals(worse, tol=1e-15)


def test_span_duals_takes_one_gram_and_no_eigh(monkeypatch):
    s = random_state_set(16, 16, 5, mode="independent")
    counts = count_calls(
        monkeypatch,
        (detchan.states, "gram"),
        (np.linalg, "eigh"),
        (np.linalg, "cond"),
        (np.linalg, "eigvalsh"),
        (np.linalg, "cholesky"),
    )
    span_duals(s)
    assert (counts["gram"], counts["eigh"], counts["cond"]) == (1, 0, 0)
    # One Cholesky proves rank and condition; no eigenvalue is computed.
    assert (counts["cholesky"], counts["eigvalsh"]) == (1, 0)


# ---------------------------------------------------------------- superpose


def test_superpose_single_basis_coefficient():
    s = zero_plus()
    vec, support = superpose(s, [1, 0])
    np.testing.assert_allclose(vec, s.states[0])
    assert support == (0,)


def test_superpose_uniform_on_basis():
    vec, support = superpose(basis(2), [1, 1])
    np.testing.assert_allclose(vec, [INV_SQRT2, INV_SQRT2])
    assert support == (0, 1)


def test_superpose_cancellation_gives_minus_one_state():
    vec, _ = superpose(zero_plus(), [1.0, -np.sqrt(2.0)])
    np.testing.assert_allclose(vec, [0.0, -1.0], atol=1e-12)


def test_superpose_zero_vector_raises():
    s = StateSet.from_vectors([[1, 0], [1, 0]])
    with pytest.raises(ZeroVectorError):
        superpose(s, [1.0, -1.0])


# ---------------------------------------------------------------- random sets


def test_random_state_set_deterministic_in_seed():
    a = random_state_set(3, 4, seed=99)
    b = random_state_set(3, 4, seed=99)
    np.testing.assert_array_equal(a.states, b.states)
    assert fingerprint(a) == fingerprint(b)


def test_random_independent_has_full_rank():
    s = random_state_set(2, 2, seed=7, mode="independent")
    g = gram(s)
    assert abs(np.linalg.det(g)) > 0


def test_random_independent_rejects_n_above_d():
    with pytest.raises(InvalidDimensionsError):
        random_state_set(2, 3, seed=0, mode="independent")


def test_unitary_image_preserves_gram():
    base = random_state_set(4, 4, seed=5, mode="independent")
    image = random_state_set(4, 4, seed=6, mode="unitary_image", base=base)
    np.testing.assert_allclose(gram(image), gram(base), atol=1e-12)
    assert linear_independence(image) is linear_independence(base) is True


def test_unitary_image_of_orthonormal_basis_is_orthonormal():
    image = random_state_set(3, 3, seed=8, mode="unitary_image", base=basis(3))
    np.testing.assert_allclose(gram(image), np.eye(3), atol=1e-12)


def test_fingerprint_ignores_labels_but_not_amplitudes():
    a = StateSet.from_vectors(np.eye(2), labels=["x", "y"])
    b = StateSet.from_vectors(np.eye(2))
    assert fingerprint(a) == fingerprint(b)
    c = StateSet.from_vectors([[0, 1], [1, 0]])
    assert fingerprint(a) != fingerprint(c)
