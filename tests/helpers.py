"""Shared instance builders for the test suite.

Random feasible pairs are built constructively rather than by rejection:
draw a PSD unit-diagonal coefficient matrix ``M = C C^dag`` (rows of C
normalized), draw a random independent final set, and define the initial
Gram as the entrywise product ``G1 = M * G2``.  The Schur product of a PSD
matrix with positive diagonal and a positive-definite matrix is positive
definite, so factoring G1 yields an independent spanning initial set whose
overlap-ratio matrix equals M up to roundoff.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from detchan import (
    StateSet,
    gram,
    hermitian_eig,
    psd_factor,
    random_state_set,
)

# Gram matrices with smallest eigenvalue below this are re-drawn: dual
# vectors scale with the inverse Gram, and the 1e-9 residual targets are
# unreachable for near-singular sets (the library itself refuses them
# only at the far larger condition ceiling).
MIN_GRAM_EIG = 1e-4


# Three states with free pair (0, 2) and ratios 0.5 at (1, 0) and -0.5 at
# (1, 2): the completion with 1 (rows 0 and 2 equal) is not PSD, but -0.5
# completes it PSD, and no pair is made more distinguishable, so the check
# is Undetermined.  Rows are (initial, final), each of unit norm.
FREE_UNDETERMINED = (
    [[1, 0, 0], [0.3, -0.3, np.sqrt(0.82)], [0, 1, 0]],
    [[1, 0, 0], [0.6, 0.6, np.sqrt(0.28)], [0, 1, 0]],
)


def sub_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def haar_unitary(dimension: int, seed: int) -> np.ndarray:
    """Haar-distributed unitary, deterministic in the seed (PCG64): the QR
    factor of a complex Gaussian matrix with the phases of R divided out
    (Mezzadri, Notices AMS 2007)."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((dimension, dimension)) + 1j * rng.standard_normal(
        (dimension, dimension)
    )
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def pair_witness(m, j: int, k: int) -> float:
    """Smallest eigenvalue of the (j, k) principal 2x2 submatrix of a ratio
    matrix: 1 - |mu_jk| for a unit diagonal, so a negative value is a pair
    that no PSD completion can hold."""
    idx = [j, k]
    return float(np.linalg.eigvalsh(m.entries[np.ix_(idx, idx)])[0])


def well_conditioned_set(rng: np.random.Generator, n: int, d: int) -> StateSet:
    while True:
        s = random_state_set(d, n, sub_seed(rng), mode="independent")
        w, _ = hermitian_eig(gram(s))
        if float(w[-1]) >= MIN_GRAM_EIG:
            return s


def unit_row_factor(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    c = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return c / np.linalg.norm(c, axis=1, keepdims=True)


def feasible_pair(
    rng: np.random.Generator,
    n: int,
    k: int | None = None,
    min_subdominant: float | None = None,
):
    """Independent spanning pair (D = N) whose ratio matrix is PSD.

    ``k`` bounds the rank of the coefficient matrix; ``min_subdominant``
    asks for a ratio matrix genuinely far from rank one
    (lambda_2 / lambda_1 at least that large).
    """
    k = n if k is None else k
    while True:
        final = well_conditioned_set(rng, n, n)
        g2 = gram(final)
        c = unit_row_factor(rng, n, k)
        m = c @ c.conj().T
        w, _ = hermitian_eig(m)
        if min_subdominant is not None and n > 1:
            if float(w[1]) < min_subdominant * float(w[0]):
                continue
        g1 = m * g2
        w1, _ = hermitian_eig(g1)
        if float(w1[-1]) < MIN_GRAM_EIG:
            continue
        b = psd_factor(g1)
        if b.shape[1] != n:
            continue
        initial = StateSet.from_vectors(b, normalize=True)
        return initial, final, m


def product_pair(rng: np.random.Generator, n: int, d: int, d_anc: int):
    """Feasible pair psi_j = phi_j (x) a_j -> phi_j (x) |0> in C^(d * d_anc).

    G1 = G2 o Gram(a), so the ratio matrix is Gram(a): PSD with unit
    diagonal by construction.  With n > d * d_anc the initial set is
    dependent and spans C^(d * d_anc).
    """
    def gaussian_rows(m):
        z = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
        return z / np.linalg.norm(z, axis=1, keepdims=True)

    phi, anc = gaussian_rows(d), gaussian_rows(d_anc)
    parked = np.zeros((n, d, d_anc), dtype=complex)
    parked[:, :, 0] = phi
    product = (phi[:, :, None] * anc[:, None, :]).reshape(n, -1)
    initial = StateSet.from_vectors(product, normalize=True)
    return initial, StateSet.from_vectors(parked.reshape(n, -1), normalize=True)


def channel_residuals(ks, initial: StateSet, final: StateSet) -> tuple[float, float]:
    """Completeness ||sum_k A_k^dag A_k - I||_F and the worst per-state
    mapping residual sqrt(sum_k ||(I - |phi_j><phi_j|) A_k psi_j||^2) of a
    Kraus set, from its (K, D, D) operators with plain numpy."""
    ops = ks.operators
    completeness = np.linalg.norm(np.einsum("kij,kil->jl", ops.conj(), ops) - np.eye(ks.dimension))
    images = np.einsum("kij,nj->nki", ops, initial.states)  # A_k psi_n
    along = np.einsum("ni,nki->nk", final.states.conj(), images)
    off = images - along[:, :, None] * final.states[:, None, :]
    mapping = np.sqrt(np.max(np.sum(np.abs(off) ** 2, axis=(1, 2))))
    return float(completeness), float(mapping)


def embedded(s: StateSet, rng: np.random.Generator, d: int) -> StateSet:
    """The set carried into C^d (d >= its dimension) by a random isometry;
    its Gram matrix, and so every verdict, is unchanged."""
    z = rng.standard_normal((d, s.dimension)) + 1j * rng.standard_normal((d, s.dimension))
    isometry, _ = np.linalg.qr(z)
    return StateSet.from_vectors(s.states @ isometry.T, normalize=True)


def near_parallel_pair() -> StateSet:
    """Two independent states in C^4 with Gram condition about 1.8e8,
    below the 1e9 rank cutoff.  I - P on their span is not Hermitian to
    ``hermitian_eig``'s tolerance, so no path may eigensolve it."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a = a / np.linalg.norm(a)
    b = a + 1e-4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
    return StateSet.from_vectors([a, b / np.linalg.norm(b)])


def perturbed(s: StateSet, rng: np.random.Generator, eps: float) -> StateSet:
    """Every state moved by ``eps`` in a random direction, then renormalized."""
    z = rng.standard_normal(s.states.shape) + 1j * rng.standard_normal(s.states.shape)
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    return StateSet.from_vectors(s.states + eps * z, normalize=True)


def bounded_complete_coefficients(rng: np.random.Generator, n: int) -> np.ndarray:
    """Complete coefficient vectors with moduli bounded away from zero.

    The purity gap of a decohering channel vanishes as the superposition
    approaches a single basis direction, so gap assertions need
    coefficients kept away from the axes.
    """
    moduli = 0.35 + 0.65 * rng.random(n)
    phases = np.exp(2j * np.pi * rng.random(n))
    q = moduli * phases
    return q / np.linalg.norm(q)


def subset_instance(seed: int = 101, theta: float = 0.7, beta: float = 0.3):
    """Three-state Feasible pair whose ratio matrix is rank two with a
    unimodular (0, 1) entry: the pair (0, 1) is unitary-related while the
    full set is not."""
    final = random_state_set(3, 3, seed, mode="independent")
    g2 = gram(final)
    c = np.array(
        [
            [1.0, 0.0],
            [np.exp(-1j * theta), 0.0],
            [beta, np.sqrt(1.0 - beta**2)],
        ],
        dtype=complex,
    )
    g1 = (c @ c.conj().T) * g2
    initial = StateSet.from_vectors(psd_factor(g1), normalize=True)
    return initial, final


def count_calls(monkeypatch, *targets) -> Counter:
    """Wrap each ``(module, name)`` target in a call counter; the returned
    Counter is keyed by name and updates live."""
    counts = Counter()
    for owner, name in targets:

        def wrapper(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return counts
