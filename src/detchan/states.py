"""Pure-state sets: construction, Gram matrices, linear independence,
reciprocal (dual) states, superpositions and seeded random generation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    IllConditionedError,
    InvalidDimensionsError,
    NotFiniteError,
    NotIndependentError,
    NotNormalizedError,
    SizeMismatchError,
    ZeroVectorError,
)
from .numerics import DEFAULT_TOL, _certifies_full_rank, _check_tolerances, numerical_rank

#: States must be normalized this tightly at construction time.
UNIT_NORM_TOL = 1e-12
#: ``span_duals`` refuses Gram condition numbers above this ceiling.
_COND_CEILING = 1e12
#: Most draws ``random_state_set`` makes in its ``independent`` mode.
_MAX_ATTEMPTS = 1000


@dataclass(frozen=True, eq=False)
class StateSet:
    """A set of N unit-norm pure states in a D-dimensional complex space.

    ``states`` holds one amplitude vector per row, shape (N, D).  Instances
    are immutable: the underlying array is marked read-only, so sets can be
    shared freely across threads.
    """

    dimension: int
    states: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        arr = np.array(self.states, dtype=np.complex128)
        if arr.ndim != 2:
            raise InvalidDimensionsError(f"states must be 2-D, got shape {arr.shape}")
        n, d = arr.shape
        if n < 1 or d < 1:
            raise InvalidDimensionsError(f"need N >= 1 and D >= 1, got N={n}, D={d}")
        if d != self.dimension:
            raise InvalidDimensionsError(
                f"declared dimension {self.dimension} != vector length {d}"
            )
        if not np.all(np.isfinite(arr)):
            raise NotFiniteError("state amplitudes contain NaN or Inf")
        worst = float(np.max(np.abs(np.linalg.norm(arr, axis=1) - 1.0)))
        if worst > UNIT_NORM_TOL:
            raise NotNormalizedError(f"state norms deviate from 1 by up to {worst:.3e}")
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != n:
                raise SizeMismatchError(f"{len(labels)} labels for {n} states")
            object.__setattr__(self, "labels", labels)
        arr.setflags(write=False)
        object.__setattr__(self, "states", arr)

    @classmethod
    def from_vectors(cls, vectors, labels=None, normalize: bool = False) -> "StateSet":
        """Build a set from a sequence of amplitude vectors (rows)."""
        arr = np.atleast_2d(np.asarray(vectors, dtype=np.complex128))
        if normalize:
            norms = np.linalg.norm(arr, axis=1, keepdims=True)
            if np.any(norms == 0.0):
                raise ZeroVectorError("cannot normalize a zero vector")
            arr = arr / norms
        return cls(
            dimension=arr.shape[1],
            states=arr,
            labels=None if labels is None else tuple(labels),
        )

    @property
    def n(self) -> int:
        """Number of states in the set."""
        return self.states.shape[0]

    def subset(self, indices: Sequence[int]) -> "StateSet":
        """Restriction to the given state indices (same ambient dimension)."""
        idx = list(indices)
        labels = None if self.labels is None else tuple(self.labels[i] for i in idx)
        return StateSet(self.dimension, self.states[idx, :], labels)


def gram(s: StateSet) -> np.ndarray:
    """Gram matrix with entry (j, k) = <psi_k | psi_j>, a fresh array.

    Its Hermitian part is formed in place; PSD with unit diagonal for unit-norm states.
    """
    g = s.states @ s.states.conj().T
    g += g.conj().T
    g /= 2.0
    return g


def linear_independence(s: StateSet, tol: float = DEFAULT_TOL) -> bool:
    """True when the Gram matrix has full numerical rank N
    (``_gram_rank``: one shifted Cholesky for a well-conditioned set)."""
    _check_tolerances(tol=tol)
    return _gram_rank(gram(s), tol)[0] == s.n


def _certified(g: np.ndarray, tol: float) -> bool:
    """The Gram certificate, ``_certifies_full_rank`` at the cutoff max(tol,
    1e-12): when it passes, g has rank n at ``tol`` and condition <= 1e12."""
    return _certifies_full_rank(g, max(tol, 1.0 / _COND_CEILING))


def _gram_rank(g: np.ndarray, tol: float, certify: bool = True) -> tuple[int, bool]:
    """``(rank, certified)`` of the exactly Hermitian ``gram()`` output ``g`` at
    ``tol``: n and True when ``_certified`` proves it (tried only if
    ``certify``), else ``numerical_rank`` of its eigenvalues and False."""
    if certify and _certified(g, tol):
        return len(g), True
    return numerical_rank(np.linalg.eigvalsh(g), tol), False


def span_duals(s: StateSet, tol: float = DEFAULT_TOL) -> np.ndarray:
    """In-span reciprocal vectors of a state set of any rank, one per row.

    With Psi the D x N matrix of the states as columns, the conjugated
    rows are the Moore-Penrose pseudo-inverse Psi^+, so every row lies in
    span(s) and ``sum_j |psi_j><w_j|`` is the projector onto span(s) (the
    identity when the set spans C^D).  For an independent set this means
    <w_j|psi_k> = delta_jk.  This is the package's one dual constructor.

    One shifted Cholesky (``_certified``) proves full rank N and condition
    <= 1e12 at the cutoff max(tol, 1e-12); Psi^+ then comes from one linear
    solve with the Gram matrix.  Any other set takes one ``eigh`` of its
    Gram matrix and inverts the ``numerical_rank`` eigenvalues above the cutoff
    ``tol * lambda_max``, which drops a dependent direction and every
    condition above 1 / tol (1e9 at the default ``tol``).  The fixed 1e12
    ceiling on the kept eigenvalues raises ``IllConditionedError`` only for
    ``tol`` below 1e-12.
    """
    _check_tolerances(tol=tol)
    g = gram(s)
    return _span_duals(s.states, _overlap_inverse(g, tol, _certified(g, tol)))


def _span_duals(states: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """``span_duals`` of the rows ``states`` from their ``_overlap_inverse``."""
    return (states.T @ inverse).T


def _overlap_inverse(g: np.ndarray, tol: float, certified: bool, eig=None) -> np.ndarray:
    """Inverse, or pseudo-inverse at the rank cutoff, of the overlap matrix
    Psi^dag Psi = conj(g) of states with Gram matrix ``g``, as ``span_duals``.

    ``certified`` is ``_certified(g, tol)``, taken by the caller: a solve
    inverts a certified g.  ``eig`` is g's ascending eigh when the caller
    took it; its conjugate is the eigh of conj(g) (bitwise so with numpy
    2.4's LAPACK on 210 random Gram matrices), so the inverse matches that
    of a fresh eigh here.
    """
    overlap = g.conj()  # entry (j, k) = <psi_j | psi_k>
    if certified:
        return np.linalg.solve(overlap, np.eye(len(g), dtype=np.complex128))
    w, v = np.linalg.eigh(overlap) if eig is None else (eig[0], eig[1].conj())  # ascending
    w, v = _kept_spectrum(w, v, tol)
    return (v / w) @ v.conj().T


def _kept_spectrum(w: np.ndarray, v: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs an ``_overlap_inverse`` inverts, from an ascending eigh
    ``(w, v)``: the ``numerical_rank`` largest, or ``IllConditionedError``
    when their condition exceeds the 1e12 ceiling (only for tol < 1e-12)."""
    rank = numerical_rank(w, tol)
    w, v = w[-rank:], v[:, -rank:]
    cond = float(w[-1] / w[0])
    if cond > _COND_CEILING:
        raise IllConditionedError(
            f"Gram condition {cond:.3e} exceeds ceiling {_COND_CEILING:.1e}"
        )
    return w, v


def superpose(
    s: StateSet, coefficients, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, tuple[int, ...]]:
    """``(vector, support)``: the normalized ``sum_j q_j |psi_j>`` and the
    support {j : q_j != 0}."""
    _check_tolerances(tol=tol)
    q = np.asarray(coefficients, dtype=np.complex128).reshape(-1)
    if q.shape[0] != s.n:
        raise SizeMismatchError(f"{q.shape[0]} coefficients for {s.n} states")
    if not np.all(np.isfinite(q)):
        raise NotFiniteError("coefficients contain NaN or Inf")
    support = tuple(int(j) for j in np.nonzero(q)[0])
    vec = q @ s.states
    norm = float(np.linalg.norm(vec))
    if norm <= tol * max(1.0, float(np.linalg.norm(q))):
        raise ZeroVectorError(f"superposition norm {norm:.3e} is below tolerance")
    return vec / norm, support


def fingerprint(s: StateSet) -> str:
    """Stable identity of a state set (dimension plus exact amplitudes).

    Labels are deliberately excluded; negative zeros are normalized so the
    fingerprint survives serialization round trips.  Each (immutable) set is
    hashed once and keeps its digest, stored atomically with setdefault.
    """
    digest = s.__dict__.get("_fingerprint")
    if digest is None:
        import hashlib  # loads OpenSSL: paid only by the callers that fingerprint
        h = hashlib.sha256()
        h.update(f"stateset:{s.n}:{s.dimension}:".encode())
        h.update(np.ascontiguousarray(s.states + (0.0 + 0.0j)).tobytes())
        digest = s.__dict__.setdefault("_fingerprint", h.hexdigest())
    return digest


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag = np.where(np.abs(diag) < 1e-300, 1.0, diag)
    return q * (diag / np.abs(diag))


def random_state_set(
    dimension: int,
    n_states: int,
    seed: int,
    mode: str = "generic",
    base: StateSet | None = None,
    tol: float = DEFAULT_TOL,
) -> StateSet:
    """Seeded random state sets (numpy PCG64; same seed, same set).

    Modes
    -----
    generic
        Each state drawn independently from the rotation-invariant
        distribution on the unit sphere.
    independent
        Generic draws re-sampled (at most 1000 draws) until the Gram
        matrix has full rank N; requires N <= D.
    unitary_image
        Returns {U |psi_j>} for a Haar-random U applied to ``base`` (only this
        mode takes one); ``dimension``/``n_states`` must match the base set.
    """
    if dimension < 1 or n_states < 1:
        raise InvalidDimensionsError(f"need D >= 1 and N >= 1, got D={dimension}, N={n_states}")
    if (base is None) == (mode == "unitary_image"):
        raise InvalidDimensionsError("unitary_image mode requires a base set; others take none")
    rng = np.random.default_rng(seed)
    if mode == "generic":
        return StateSet.from_vectors(_sphere_points(rng, n_states, dimension))
    if mode == "independent":
        if n_states > dimension:
            raise InvalidDimensionsError(
                f"independent draws need N <= D, got N={n_states}, D={dimension}"
            )
        for _ in range(_MAX_ATTEMPTS):
            candidate = StateSet.from_vectors(_sphere_points(rng, n_states, dimension))
            if linear_independence(candidate, tol):
                return candidate
        raise NotIndependentError(
            f"no independent set of {n_states} states in dimension {dimension} "
            f"after {_MAX_ATTEMPTS} attempts"
        )
    if mode == "unitary_image":
        if dimension != base.dimension or n_states != base.n:
            raise InvalidDimensionsError(
                f"unitary_image dimensions ({n_states}, {dimension}) must match "
                f"the base set ({base.n}, {base.dimension})"
            )
        u = _haar_unitary(rng, dimension)
        return StateSet(base.dimension, base.states @ u.T, base.labels)
    raise InvalidDimensionsError(f"unknown mode {mode!r}")


def _sphere_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    vecs = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    return vecs / norms
