import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detchan import (
    DEFAULT_TOL,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
    validate_density,
)
from detchan.numerics import (
    _certifies_full_rank,
    _psd_verdict,
    frobenius,
    numerical_rank,
    phase_pin,
    pin_column_phases,
)
from detchan.states import _gram_rank
from helpers import descending_eig, haar_unitary, spectral_factor


def rand_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def char_poly_roots(h):
    """Independent eigenvalue oracle: characteristic-polynomial coefficients
    via the Faddeev-LeVerrier trace recursion, then companion-matrix roots
    (np.roots). No symmetric eigensolver involved."""
    n = h.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(h @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


# ---------------------------------------------------------------- descending_eig
# ``descending_eig`` is eigh of the Hermitian part, in the order
# ``_spectral_factor`` reads the spectrum; ``validate_density`` checks a
# density matrix before it reads one.


def test_eig_identity():
    w, v = descending_eig(np.eye(2))
    np.testing.assert_allclose(w, [1.0, 1.0])
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-14)


def test_eig_rank_one_all_ones():
    w, _ = descending_eig(np.ones((2, 2)))
    np.testing.assert_allclose(w, [2.0, 0.0], atol=1e-14)


def test_eig_matches_companion_matrix_oracle():
    rng = np.random.default_rng(42)
    h = rand_hermitian(rng, 5)
    w, _ = descending_eig(h)
    np.testing.assert_allclose(w, char_poly_roots(h), atol=1e-8)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError, match="symmetry residual"):
        validate_density([[0.5, 1.0], [0.0, 0.5]])


def test_eig_rejects_nan():
    with pytest.raises(NotFiniteError):
        validate_density([[np.nan, 0.0], [0.0, 1.0]])


def test_eig_reconstruction_and_orthonormality_up_to_dim_16():
    rng = np.random.default_rng(7)
    for n in [1, 2, 3, 5, 8, 13, 16]:
        h = rand_hermitian(rng, n, scale=rng.uniform(0.1, 10.0))
        w, v = descending_eig(h)
        scale = max(1.0, frobenius(h))
        assert frobenius(v @ np.diag(w) @ v.conj().T - h) <= 1e-10 * scale
        assert frobenius(v.conj().T @ v - np.eye(n)) <= 1e-10 * scale
        assert np.all(np.diff(w) <= 1e-12)  # descending


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    scale=st.floats(min_value=1e-3, max_value=1e3),
)
def test_eig_invariants_property(n, seed, scale):
    h = rand_hermitian(np.random.default_rng(seed), n, scale=scale)
    w, v = descending_eig(h)
    bound = 1e-10 * max(1.0, frobenius(h))
    assert frobenius(v @ np.diag(w) @ v.conj().T - h) <= bound
    assert frobenius(v.conj().T @ v - np.eye(n)) <= bound


# ---------------------------------------------------------------- _psd_verdict


def psd_verdict(h):
    # The rule a check and ``validate_density`` apply to a descending spectrum.
    return _psd_verdict(descending_eig(h)[0], DEFAULT_TOL)


def test_psd_identity():
    ok, min_eig = psd_verdict(np.eye(3))
    assert ok and min_eig == pytest.approx(1.0)


def test_psd_indefinite_two_by_two():
    # eigenvalues are 1 +- sqrt(2)
    ok, min_eig = psd_verdict([[1.0, np.sqrt(2.0)], [np.sqrt(2.0), 1.0]])
    assert not ok
    assert min_eig == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-14)


def test_psd_boundary_rank_one():
    ok, min_eig = psd_verdict(np.ones((2, 2)))
    assert ok and min_eig == pytest.approx(0.0, abs=1e-14)


def test_psd_agrees_with_sylvester_minor_oracle():
    # For Hermitian matrices with eigenvalues bounded away from zero,
    # PSD <=> PD <=> all leading principal minors positive (LU-based
    # determinants, no eigensolver).
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(400):
        n = int(rng.integers(2, 4))
        h = rand_hermitian(rng, n)
        w = np.linalg.eigvalsh(h)
        if np.min(np.abs(w)) < 1e-6:
            continue
        minors_positive = all(
            np.linalg.det(h[: k + 1, : k + 1]).real > 0.0 for k in range(n)
        )
        ok, _ = psd_verdict(h)
        assert ok == minors_positive
        checked += 1
    assert checked > 300


# ---------------------------------------------------------------- _spectral_factor


def test_factor_identity():
    c = spectral_factor(np.eye(4))
    assert c.shape == (4, 4)
    np.testing.assert_allclose(c @ c.conj().T, np.eye(4), atol=1e-12)


def test_factor_all_ones_is_single_unit_column():
    n = 5
    c = spectral_factor(np.ones((n, n)))
    assert c.shape == (n, 1)
    np.testing.assert_allclose(np.abs(c[:, 0]), np.ones(n), atol=1e-12)
    np.testing.assert_allclose(c @ c.conj().T, np.ones((n, n)), atol=1e-12)


def test_factor_roundtrip_rank_two():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    m = b @ b.conj().T
    c = spectral_factor(m)
    assert c.shape == (4, 2)
    assert frobenius(c @ c.conj().T - m) <= 1e-10


def test_factor_rejects_indefinite():
    with pytest.raises(NotPSDError):
        spectral_factor([[1.0, np.sqrt(2.0)], [np.sqrt(2.0), 1.0]])


def test_factor_clamps_tiny_negatives():
    m = np.ones((2, 2)) + np.diag([1e-13, -1e-13])
    c = spectral_factor(m)
    assert frobenius(c @ c.conj().T - m) <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_factor_roundtrip_property(n, k, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    m = b @ b.conj().T
    c = spectral_factor(m)
    assert frobenius(c @ c.conj().T - m) <= 1e-10 * max(1.0, frobenius(m))
    assert c.shape[1] <= min(n, k)


def test_pin_column_phases_gauges_only():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    pinned = pin_column_phases(c)
    np.testing.assert_allclose(np.abs(pinned), np.abs(c), atol=1e-14)
    np.testing.assert_allclose(
        pinned @ pinned.conj().T, c @ c.conj().T, atol=1e-12
    )
    for k in range(2):
        pivot = pinned[np.argmax(np.abs(pinned[:, k])), k]
        assert pivot.imag == pytest.approx(0.0, abs=1e-14)
        assert pivot.real > 0


def test_pin_column_phases_matches_the_column_loop_bitwise():
    # Reference: phase_pin applied column by column.  Factors as
    # _spectral_factor builds them (its column selection is column-major),
    # with zero, real and widely scaled columns, come out bit for bit.
    def column_loop(c):
        out = np.array(c, dtype=np.complex128)
        for k in range(out.shape[1]):
            out[:, k] *= phase_pin(out[:, k])
        return out

    rng = np.random.default_rng(17)
    for trial in range(200):
        n = int(rng.integers(1, 40))
        _, v = descending_eig(rand_hermitian(rng, n))
        keep = rng.random(n) < 0.8
        c = v[:, keep] * 10.0 ** rng.uniform(-100, 100, int(keep.sum()))
        if trial % 5 == 0 and c.shape[1]:
            c[:, 0] = 0.0
        if trial % 7 == 0:
            c = c.real.astype(np.complex128)
        pinned, reference = pin_column_phases(c), column_loop(c)
        assert pinned.tobytes() == reference.tobytes()
        assert pinned.flags.f_contiguous == reference.flags.f_contiguous


# ------------------------------------------------------------ _gram_rank


def rank_grid_spectra(rng, n):
    """Spectra around the rank cutoff: one eigenvalue swept over 1e-13 ...
    1e-1 of max(lambda_max, 1) above a bulk whose trace is below 1 or far
    above it, plus indefinite and negative-definite spectra."""
    for bulk_scale in (0.5 / n, 1e3):
        bulk = bulk_scale * rng.uniform(0.5, 1.0, n)
        for sweep in np.logspace(-13, -1, 13):
            w = bulk.copy()
            w[0] = sweep * max(float(np.max(bulk)), 1.0)
            yield w
        yield np.where(np.arange(n) == 0, -bulk, bulk)
        yield -bulk


@pytest.mark.parametrize("tol", [1e-9, 1e-12, 1e-15])
@pytest.mark.parametrize("n", [1, 2, 4, 16, 64, 128, 256])
def test_hermitian_rank_equals_the_eigenvalue_rule(n, tol):
    # The Cholesky certificate may only ever answer what the eigenvalue rule
    # answers; on the sweep it decides the clearly full-rank half.  The Gram
    # rank takes it at max(tol, 1e-12), which proves rank n at tol too.
    seed = 100 * n + int(-np.log10(tol))
    rng = np.random.default_rng(seed)
    v = haar_unitary(n, seed)
    certified = 0
    for w in rank_grid_spectra(rng, n):
        h = (v * w) @ v.conj().T
        m = (h + h.conj().T) / 2.0
        expected = numerical_rank(np.linalg.eigvalsh(m), tol)
        rank, gram_certified = _gram_rank(m, tol)
        assert rank == expected
        if _certifies_full_rank(m, tol):
            assert expected == n
            certified += 1
        if gram_certified:
            assert expected == n
    assert certified > 0


def test_certificate_factors_m_minus_shift_times_identity_bit_for_bit(monkeypatch):
    # The shift comes off the diagonal of a copy, leaving m untouched; the
    # factored matrix is m - shift * I, bit for bit, with the shift of the
    # docstring.
    factored = []
    cholesky = np.linalg.cholesky

    def capture(a):
        factored.append(a.copy())
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", capture)
    rng = np.random.default_rng(41)
    for n, tol in ((1, 1e-9), (3, 0.0), (16, 1e-10), (64, 1e-9)):
        v = haar_unitary(n, n)
        for w in rank_grid_spectra(rng, n):
            h = (v * w) @ v.conj().T
            m = (h + h.conj().T) / 2.0
            kept = m.copy()
            factored.clear()
            _certifies_full_rank(m, tol)
            eps = np.finfo(float).eps
            shift = (tol * (1.0 + 1e-6) + 4.0 * n * (n + 1) * eps) * max(float(np.trace(m).real), 1.0)
            assert factored[0].tobytes() == (m - shift * np.eye(n)).tobytes()
            assert m.tobytes() == kept.tobytes()
