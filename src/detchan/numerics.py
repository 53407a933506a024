"""Dense complex-matrix kernels: numerical rank, its Cholesky certificate,
positivity verdicts and the rank-revealing PSD factor of a descending
spectrum.

All decisions (positivity, rank) are made relative to the
spectral scale of the input; nothing here assumes exact arithmetic.
Matrices are plain ``numpy.ndarray`` values with ``complex128`` entries.
Every function is pure, so concurrent use needs no locking.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidToleranceError, NotPSDError

#: Relative tolerance for Hermiticity and positivity decisions.
DEFAULT_TOL = 1e-9
#: Relative eigenvalue cutoff of every PSD factor (``_spectral_factor``): the
#: ratio matrix's factor C that each synthesized channel is built from.
DEFAULT_RANK_TOL = 1e-10
#: A state counts as pure when 1 - Tr(rho^2) / Tr(rho)^2 is at most this.
DEFAULT_PURITY_TOL = 1e-9


def _check_tolerances(**tolerances: float) -> None:
    """``InvalidToleranceError`` unless each tolerance is in [0, 1)."""
    for name, value in tolerances.items():
        if not 0.0 <= value < 1.0:
            raise InvalidToleranceError(
                f"{name} must be finite and >= 0, got {value!r} (tolerances lie in [0, 1))"
            )


def frobenius(a) -> float:
    return float(np.linalg.norm(a, "fro"))


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


def _psd_verdict(w: np.ndarray, tol: float) -> tuple[bool, float]:
    min_eig = float(w[-1])
    radius = float(np.max(np.abs(w)))
    return min_eig >= -tol * max(1.0, radius), min_eig


def _spectral_factor(w: np.ndarray, v: np.ndarray, tol: float) -> np.ndarray:
    """Factor C, one column per eigenvalue above ``DEFAULT_RANK_TOL * lambda_max``
    and phases pinned, with C C^dag the matrix of descending spectrum ``(w, v)``
    (``NotPSDError`` unless ``_psd_verdict`` passes; smaller eigenvalues are 0)."""
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

