import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detchan.states
from detchan import (
    IllConditionedError,
    InvalidDimensionsError,
    NotFiniteError,
    NotIndependentError,
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
from detchan.numerics import DEFAULT_TOL
from detchan.states import _gram_rank
from helpers import INV_SQRT2, count_calls, tally, zero_plus


def basis(d):
    return StateSet.from_vectors(np.eye(d))


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


@pytest.mark.parametrize(
    "dimension, states, error, reason",
    [
        (2, [1.0, 0.0], InvalidDimensionsError, "must be 2-D"),
        (2, np.zeros((0, 2)), InvalidDimensionsError, "need N >= 1 and D >= 1"),
        (2, [[np.nan, 1.0]], NotFiniteError, "NaN or Inf"),
        (2, [[np.inf, 0.0]], NotFiniteError, "NaN or Inf"),
        # Its square overflows: the norm reads inf, with no numpy warning.
        (2, [[1e200, 0.0]], NotNormalizedError, "deviate from 1 by up to inf"),
    ],
    ids=["1-D", "no-states", "nan", "inf", "overflow"],
)
@pytest.mark.filterwarnings("error")
def test_stateset_rejects_malformed_amplitudes(dimension, states, error, reason):
    with pytest.raises(error, match=reason):
        StateSet(dimension, states)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_from_vectors_refuses_non_finite_amplitudes_before_normalizing(amplitude):
    # No norm is taken of a NaN or Inf row, so numpy warns of no invalid division.
    with pytest.raises(NotFiniteError, match="NaN or Inf"):
        StateSet.from_vectors([[1.0, 0.0], [amplitude, 1.0]], normalize=True)


@pytest.mark.filterwarnings("error")
def test_from_vectors_scales_only_rows_whose_squares_overflow():
    # A row past 1e154 is divided by its largest modulus before its norm is
    # taken, so it normalizes with no overflow warning to the state of its
    # unscaled copy (to rounding); every other row keeps its bits.
    rows = [[1e200 * np.cos(0.3), 1e200j * np.sin(0.3)], [1.5e308, -1.5e308], [3.0, 4.0j]]
    s = StateSet.from_vectors(rows, normalize=True)
    plain = StateSet.from_vectors([[np.cos(0.3), 1j * np.sin(0.3)], [1.0, -1.0]], normalize=True)
    np.testing.assert_allclose(s.states[:2], plain.states, rtol=0, atol=4e-16)
    np.testing.assert_array_equal(
        s.states[2], StateSet.from_vectors([rows[2]], normalize=True).states[0], strict=True
    )


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "rows, state", [([[1e-200, 0], [0, 1]], [1, 0]), ([[3e-160, 4e-160], [0, 1]], [0.6, 0.8])]
)
def test_from_vectors_scales_rows_whose_squares_underflow(rows, state):
    # Squares below the smallest double vanish, and subnormal ones lose
    # digits, so a row below 1e-150 is also divided by its largest modulus
    # before its norm is taken.
    s = StateSet.from_vectors(rows, normalize=True)
    np.testing.assert_allclose(s.states, [state, [0, 1]], rtol=0, atol=2e-16)


def test_from_vectors_refuses_to_normalize_a_zero_vector():
    with pytest.raises(ZeroVectorError, match="cannot normalize a zero vector"):
        StateSet.from_vectors([[1.0, 0.0], [0.0, 0.0]], normalize=True)


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


@settings(max_examples=300, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    kind=st.sampled_from(["complex", "real", "integer"]),
    seed=st.integers(0, 2**31),
)
def test_gram_is_its_own_hermitian_part_bit_for_bit(shape, kind, seed):
    # The Gram rank, the certificates and eigh read gram() output as exactly
    # Hermitian, unchecked: symmetrizing it again changes no bit, also for
    # integer and real amplitudes whose overlaps have exact zeros.
    rng = np.random.default_rng(seed)
    if kind == "integer":
        rows = rng.integers(-2, 3, shape).astype(float) + 1j * rng.integers(-2, 3, shape)
    else:
        rows = rng.standard_normal(shape) * (rng.random(shape) < 0.6)
        if kind == "complex":
            rows = rows + 1j * rng.standard_normal(shape) * (rng.random(shape) < 0.6)
    rows[:, 0] += np.all(rows == 0, axis=1)  # no zero vector to normalize
    g = gram(StateSet.from_vectors(rows, normalize=True))
    assert ((g + g.conj().T) / 2.0).tobytes() == g.tobytes()


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
    assert _gram_rank(gram(basis(4)), DEFAULT_TOL)[0] == 4


def test_dependence_three_states_in_two_dims():
    s = StateSet.from_vectors([[1, 0], [0, 1], [INV_SQRT2, INV_SQRT2]])
    assert linear_independence(s) is False
    assert _gram_rank(gram(s), DEFAULT_TOL)[0] == 2


def test_dependence_two_identical_states():
    s = StateSet.from_vectors([[1, 0], [1, 0]])
    assert linear_independence(s) is False
    assert _gram_rank(gram(s), DEFAULT_TOL)[0] == 1


def test_more_states_than_dimensions_are_dependent():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        n = d + int(rng.integers(1, 3))
        s = random_state_set(d, n, int(rng.integers(2**31)))
        assert linear_independence(s) is False
        assert _gram_rank(gram(s), DEFAULT_TOL)[0] <= d


def test_linear_independence_takes_one_cholesky_unless_dependent(monkeypatch):
    # A well-conditioned set is certified by the shifted Cholesky alone; a
    # dependent one fails it and is decided by one eigenvalues-only solve.
    s = random_state_set(16, 16, 5, mode="independent")
    dependent = random_state_set(4, 6, 5)
    counts = tally(monkeypatch)
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
    counts = tally(monkeypatch)
    span_duals(s)
    assert (counts["states.gram"], counts["eigh"], counts["cond"]) == (1, 0, 0)
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


@pytest.mark.parametrize(
    "coefficients, error, reason",
    [
        ([1.0, 1.0, 1.0], SizeMismatchError, "3 coefficients for 2 states"),
        ([1.0, np.nan], NotFiniteError, "NaN or Inf"),
    ],
)
def test_superpose_rejects_malformed_coefficients(coefficients, error, reason):
    with pytest.raises(error, match=reason):
        superpose(zero_plus(), coefficients)


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


@pytest.mark.parametrize(
    "args, kwargs, reason",
    [
        ((0, 2, 1), {}, "need D >= 1 and N >= 1"),
        ((2, 0, 1), {}, "need D >= 1 and N >= 1"),
        ((2, 2, 1), {"mode": "unitary_image"}, "requires a base set"),
        ((3, 2, 1), {"mode": "unitary_image", "base": basis(2)}, "must match the base set"),
        ((2, 3, 1), {"mode": "unitary_image", "base": basis(2)}, "must match the base set"),
        ((2, 2, 1), {"mode": "orthonormal"}, "unknown mode 'orthonormal'"),
        ((2, 2, 1), {"base": basis(2)}, "others take none"),
        ((2, 2, 1), {"mode": "independent", "base": basis(2)}, "others take none"),
    ],
)
def test_random_state_set_rejects_bad_requests(args, kwargs, reason):
    with pytest.raises(InvalidDimensionsError, match=reason):
        random_state_set(*args, **kwargs)


def test_random_independent_gives_up_after_its_draw_limit(monkeypatch):
    # Every draw is refused, so the mode stops after its 1000 draws of one
    # 1 x 1 set each, rather than looping.
    counts = count_calls(monkeypatch, (detchan.states, "_sphere_points"))
    monkeypatch.setattr(detchan.states, "linear_independence", lambda s, tol: False)
    with pytest.raises(NotIndependentError, match="after 1000 attempts"):
        random_state_set(1, 1, 0, mode="independent")
    assert counts["_sphere_points"] == 1000


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
