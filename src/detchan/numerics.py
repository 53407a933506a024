"""Dense complex-matrix kernels: Hermitian eigendecomposition, positivity
tests and rank-revealing PSD factorization.

All decisions (Hermiticity, positivity, rank) are made relative to the
spectral scale of the input; nothing here assumes exact arithmetic.
Matrices are plain ``numpy.ndarray`` values with ``complex128`` entries.
Every function is pure, so concurrent use needs no locking.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    InvalidToleranceError,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
    SizeMismatchError,
)

#: Relative tolerance for Hermiticity and positivity decisions.
DEFAULT_TOL = 1e-9
#: Relative eigenvalue cutoff of every PSD factor: ``psd_factor`` and the
#: ratio matrix's factor C that each synthesized channel is built from.
DEFAULT_RANK_TOL = 1e-10
#: A state counts as pure when 1 - Tr(rho^2) is at most this.
DEFAULT_PURITY_TOL = 1e-9


def as_complex_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise SizeMismatchError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotFiniteError(f"{name} contains NaN or Inf entries")
    return m


def _check_tolerances(**tolerances: float) -> None:
    """``InvalidToleranceError`` unless each tolerance is finite and >= 0."""
    for name, value in tolerances.items():
        if not 0.0 <= value < np.inf:
            raise InvalidToleranceError(f"{name} must be finite and >= 0, got {value!r}")


def frobenius(a) -> float:
    return float(np.linalg.norm(a, "fro"))


def hermitian_eig(h, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, v)`` of a square matrix ``h`` that is
    Hermitian within ``tol * max(1, ||h||_F)`` (``tol`` is the relative
    symmetry tolerance): real eigenvalues w in descending order and
    orthonormal eigenvector columns v, so ``v @ diag(w) @ v.conj().T``
    reconstructs ``h``."""
    w, v = np.linalg.eigh(_hermitian_part(h, tol))
    return w[::-1].copy(), v[:, ::-1].copy()


def hermitian_rank(h, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of a Hermitian matrix (checked as in ``hermitian_eig``):
    n when one shifted Cholesky proves it (``_certifies_full_rank``), else
    ``numerical_rank`` of its eigenvalues."""
    m = _hermitian_part(h, tol)
    if _certifies_full_rank(m, tol):
        return len(m)
    return numerical_rank(np.linalg.eigvalsh(m), tol)


def numerical_rank(w: np.ndarray, tol: float) -> int:
    """Number of eigenvalues ``w`` above ``tol * max(lambda_max, 1)``."""
    return int(np.sum(w > tol * max(float(np.max(w)), 1.0)))


def _certifies_full_rank(m: np.ndarray, tol: float) -> bool:
    """True only if ``numerical_rank(eigvalsh(m), tol)`` is n, proved by one
    Cholesky factorization of the exactly Hermitian m shifted down by
    (tol (1 + 1e-6) + 4 n (n + 1) eps) max(trace(m), 1).

    A factorization that completes has backward error at most about
    (n + 1) eps trace(m) in norm (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3).  So m is positive definite,
    trace(m) >= lambda_max, and every eigenvalue clears the cutoff
    tol max(lambda_max, 1) by 3 n (n + 1) eps max(trace(m), 1), more than
    the rounding of ``eigvalsh`` and of the shift; the factor 1 + 1e-6
    covers its computed lambda_max.  A failed factorization proves nothing.
    """
    n = len(m)
    scale = max(float(np.trace(m).real), 1.0)
    shift = (tol * (1.0 + 1e-6) + 4.0 * n * (n + 1) * np.finfo(float).eps) * scale
    shifted = m.copy()
    np.fill_diagonal(shifted, m.diagonal() - shift)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _hermitian_part(h, tol: float) -> np.ndarray:
    """Finite, square, Hermitian within ``tol * max(1, ||h||_F)``; returns
    the exactly Hermitian part ``(h + h^dag) / 2``."""
    _check_tolerances(tol=tol)
    m = as_complex_matrix(h, name="h")
    if m.shape[0] != m.shape[1]:
        raise SizeMismatchError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, frobenius(m))
    sym_residual = frobenius(m - m.conj().T)
    if sym_residual > tol * scale:
        raise NotHermitianError(
            f"symmetry residual {sym_residual:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    return (m + m.conj().T) / 2.0


def psd_check(h, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Decide positive semidefiniteness of a Hermitian matrix.

    Returns ``(is_psd, min_eigenvalue)``.  The verdict tolerates
    eigenvalues down to ``-tol * max(1, spectral radius)``.
    """
    return _psd_verdict(hermitian_eig(h, tol)[0], tol)


def _psd_verdict(w: np.ndarray, tol: float) -> tuple[bool, float]:
    min_eig = float(w[-1])
    radius = float(np.max(np.abs(w)))
    return min_eig >= -tol * max(1.0, radius), min_eig


def psd_factor(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rank-revealing factor ``C`` with ``m = C @ C.conj().T``.

    Eigenvalues in the band between ``-tol`` (relative) and
    ``DEFAULT_RANK_TOL * lambda_max`` are treated as zero, so boundary-PSD
    inputs such as rank-one matrices factor cleanly; anything more negative
    makes the input non-PSD. The number of columns of ``C`` equals the
    numerical rank of ``m``.

    Column phases are pinned (largest-modulus entry real positive) to make
    the output deterministic; any ``C @ W`` with ``W`` unitary is an
    equally valid factor of the same matrix.  A build check runs the same
    steps (``_spectral_factor``) on the ratio spectrum it certifies.
    """
    return _spectral_factor(*hermitian_eig(m, tol), tol)


def _spectral_factor(w: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """``psd_factor`` of the matrix whose descending spectrum is ``(w, v)``."""
    ok, min_eig = _psd_verdict(w, tol)
    if not ok:
        raise NotPSDError(f"matrix is not PSD: min eigenvalue {min_eig:.3e}")
    w = np.clip(w, 0.0, None)
    lam_max = float(w[0])
    keep = w > DEFAULT_RANK_TOL * lam_max
    c = v[:, keep] * np.sqrt(w[keep])
    return pin_column_phases(c)


def pin_column_phases(c) -> np.ndarray:
    """Rotate each column so its largest-modulus entry is real positive."""
    # ``phase_pin`` of every column at once, column-major (as a factor's
    # columns already are): each column is scaled as one contiguous run,
    # bitwise the arithmetic of scaling it alone.
    out = np.array(c, dtype=np.complex128, order="F")
    pivots = out[np.argmax(np.abs(out), axis=0), np.arange(out.shape[1])]
    moduli = np.abs(pivots)
    out *= np.divide(moduli, pivots, out=np.ones_like(pivots), where=moduli > 0.0)
    return out


def phase_pin(v: np.ndarray) -> complex:
    """Unit factor that makes the largest-modulus entry of ``v`` real
    positive (1 for a zero vector)."""
    pivot = v[int(np.argmax(np.abs(v)))]
    return np.abs(pivot) / pivot if np.abs(pivot) > 0.0 else 1.0

