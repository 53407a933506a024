"""Seeded ground-truth instances, built constructively.

Every instance comes from a construction whose verdict is known in
advance, so no draw is ever rejected and the N = 128 pools build in well
under a second.  Only numpy is used here: the library under test sees the
arrays (or the JSON files written from them) and nothing else.

Conventions follow the library: a state set is an (N, D) array with one
amplitude vector per row, and the Gram entry (j, k) is <psi_k|psi_j>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

#: Ratio matrices of feasible instances are (1 - ALPHA) C C^dag + ALPHA I:
#: PSD with smallest eigenvalue >= ALPHA and off-diagonal moduli <= 1 - ALPHA.
ALPHA = 0.2
#: Singular values of the raw state matrices lie in [SV_LOW, SV_HIGH], which
#: bounds every Gram condition number far below the library's ceiling.
SV_LOW, SV_HIGH = 0.5, 1.5

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
DEPENDENT = "dependent"
UNITARY = "unitary"
DECOHERING = "decohering"


@dataclass
class Instance:
    """One (initial, final) pair with the truth its construction fixes."""

    kind: str
    initial: np.ndarray
    final: np.ndarray
    #: Complete superposition coefficients (roundtrip instances only).
    coefficients: np.ndarray | None = None
    #: Indices (j, k) of a pair certifying infeasibility via |mu_jk| > 1.
    witness: tuple[int, int] | None = None

    @property
    def size(self) -> tuple[int, int]:
        return self.initial.shape


def gram(states: np.ndarray) -> np.ndarray:
    return states @ states.conj().T


def ratio_matrix(initial: np.ndarray, final: np.ndarray) -> np.ndarray:
    """Entrywise G1 / G2 (every final overlap is nonzero in these pools)."""
    return gram(initial) / gram(final)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def normalize_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=1, keepdims=True)


def random_phases(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(2j * np.pi * rng.random(n))


def well_conditioned_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n unit vectors in C^d spanning min(n, d) dimensions, well conditioned.

    The raw matrix U diag(s) V has singular values s in [SV_LOW, SV_HIGH];
    normalizing rows changes them by at most the spread of row norms.
    """
    m = min(n, d)
    s = rng.uniform(SV_LOW, SV_HIGH, m)
    raw = haar_unitary(rng, n)[:, :m] * s @ haar_unitary(rng, d)[:m, :]
    return normalize_rows(raw)


def unit_diagonal_psd(rng: np.random.Generator, n: int) -> np.ndarray:
    c = normalize_rows(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    m = (1.0 - ALPHA) * (c @ c.conj().T) + ALPHA * np.eye(n)
    np.fill_diagonal(m, 1.0)
    return m


def states_with_gram(rng: np.random.Generator, g: np.ndarray, d: int) -> np.ndarray:
    """Unit vectors in C^d whose Gram matrix is the positive-definite ``g``."""
    w, v = np.linalg.eigh(g)
    factor = v * np.sqrt(np.clip(w, 0.0, None))
    isometry = haar_unitary(rng, d)[: g.shape[0], :]
    return normalize_rows(factor @ isometry)


def feasible(rng: np.random.Generator, n: int, d: int) -> Instance:
    """G1 = M o G2 with M PSD and unit-diagonal: feasible by construction.

    By the Schur product theorem lambda_min(G1) >= lambda_min(G2), so the
    initial set is as well conditioned as the final one.
    """
    final = well_conditioned_rows(rng, n, d)
    initial = states_with_gram(rng, unit_diagonal_psd(rng, n) * gram(final), d)
    return Instance(FEASIBLE, initial, final)


def infeasible(rng: np.random.Generator, n: int, d: int) -> Instance:
    """A feasible instance run backwards.

    Its ratio matrix is 1 / M entrywise, so every off-diagonal modulus is at
    least 1 / (1 - ALPHA) = 1.25 and each pair is a 2x2 witness: the minor
    [[1, mu], [mu*, 1]] has determinant 1 - |mu|^2 < 0.
    """
    fwd = feasible(rng, n, d)
    return Instance(INFEASIBLE, fwd.final, fwd.initial, witness=(0, 1))


def dependent(rng: np.random.Generator, n: int, d: int, rank: int) -> Instance:
    """A rank-deficient set and its image under a Haar unitary (feasible)."""
    coeffs = well_conditioned_rows(rng, n, rank)
    initial = normalize_rows(coeffs @ haar_unitary(rng, d)[:rank, :])
    final = initial @ haar_unitary(rng, d).T
    return Instance(DEPENDENT, initial, final)


def unitary(rng: np.random.Generator, n: int, d: int) -> Instance:
    """psi2_j = e^{i phi_j} U psi1_j: a unitary relation with per-state phases."""
    initial = well_conditioned_rows(rng, n, d)
    final = random_phases(rng, n)[:, None] * (initial @ haar_unitary(rng, d).T)
    return Instance(UNITARY, initial, final)


def complete_coefficients(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit coefficient vector with every modulus bounded away from zero.

    A decohering channel's purity gap vanishes as the superposition nears a
    single state, so the moduli are drawn from [0.35, 1] before normalizing.
    """
    q = (0.35 + 0.65 * rng.random(n)) * random_phases(rng, n)
    return q / np.linalg.norm(q)


# ---------------------------------------------------------------- pools

#: check_n128: half feasible, a quarter infeasible, a quarter dependent.
CHECK_PATTERN = (FEASIBLE, INFEASIBLE, FEASIBLE, DEPENDENT)
CHECK_N = 128
CHECK_RANK = 96
CHECK_POOL = 16

#: roundtrip_n64: half unitary, half decohering; a quarter with N < D.
ROUNDTRIP_PATTERN = (
    (UNITARY, 64), (DECOHERING, 64), (UNITARY, 64), (DECOHERING, 64),
    (UNITARY, 48), (DECOHERING, 48), (UNITARY, 64), (DECOHERING, 64),
)
ROUNDTRIP_D = 64
ROUNDTRIP_POOL = 16


def check_pool(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 128])
    pool = []
    for i in range(CHECK_POOL):
        kind = CHECK_PATTERN[i % len(CHECK_PATTERN)]
        if kind == FEASIBLE:
            pool.append(feasible(rng, CHECK_N, CHECK_N))
        elif kind == INFEASIBLE:
            pool.append(infeasible(rng, CHECK_N, CHECK_N))
        else:
            pool.append(dependent(rng, CHECK_N, CHECK_N, CHECK_RANK))
    return pool


def roundtrip_pool(seed: int) -> list[Instance]:
    rng = np.random.default_rng([seed, 64])
    pool = []
    for i in range(ROUNDTRIP_POOL):
        kind, n = ROUNDTRIP_PATTERN[i % len(ROUNDTRIP_PATTERN)]
        make = unitary if kind == UNITARY else feasible
        inst = make(rng, n, ROUNDTRIP_D)
        inst.kind = kind
        inst.coefficients = complete_coefficients(rng, n)
        pool.append(inst)
    return pool


# ---------------------------------------------------------------- files

def pairs(a: np.ndarray) -> list:
    """Nested [re, im] pairs, the library's JSON encoding of complex arrays."""
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [pairs(x) for x in a]


def state_set_doc(states: np.ndarray) -> dict:
    return {"dimension": states.shape[1], "states": pairs(states), "labels": None}


def write_json(path, doc) -> None:
    # json renders floats with repr, which round-trips every double.
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def random_kraus(rng: np.random.Generator, d: int, k: int) -> np.ndarray:
    """K operators cut from a random isometry C^d -> C^(k d): sum A^dag A = I."""
    return haar_unitary(rng, k * d)[:, :d].reshape(k, d, d)


def plane_rotation(states: np.ndarray, theta: float) -> np.ndarray:
    """Rotate every state by theta in the plane of the first two basis vectors."""
    out = np.array(states)
    c, s = np.cos(theta), np.sin(theta)
    out[:, 0] = c * states[:, 0] - s * states[:, 1]
    out[:, 1] = s * states[:, 0] + c * states[:, 1]
    return out


def sweep_template(rng: np.random.Generator, n: int) -> tuple[dict, Instance]:
    """Sweep template: a feasible instance whose initial set is turned by a
    real rotation of angle theta (see ``plane_rotation``).

    A unitary leaves the Gram matrix alone, so every grid point is feasible
    and every seed gives a sweep with the same amount of work.
    """
    base = feasible(rng, n, n)

    def component(row, i, part):
        x0, x1 = part(row[0]), part(row[1])
        if i == 0:
            return f"{x0!r}*cos(theta)+{-x1!r}*sin(theta)"
        if i == 1:
            return f"{x0!r}*sin(theta)+{x1!r}*cos(theta)"
        return part(row[i])

    parts = (lambda z: float(z.real), lambda z: float(z.imag))
    initial = [[[component(row, i, part) for part in parts] for i in range(n)]
               for row in base.initial]
    return {"dimension": n, "initial": initial, "final": pairs(base.final)}, base
