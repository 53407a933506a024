"""Kraus-operator synthesis for feasible deterministic transformations,
channel application, per-state verification and Choi-matrix utilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    NotFiniteError,
    NotHermitianError,
    NotPSDError,
    NotFeasibleError,
    SizeMismatchError,
)
from .feasibility import FEASIBLE, feasibility_check
from .numerics import (
    DEFAULT_COND_CEILING,
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    as_complex_matrix,
    frobenius,
    psd_check,
    psd_factor,
)
from .states import StateSet, fingerprint, span_duals


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operator-sum representation of a channel.

    ``operators`` is one read-only, C-contiguous complex128 array of shape
    (K, D, D): ``operators[k]`` is the Kraus operator A_k, and the set
    satisfies the completeness relation ``sum_k A_k^dag A_k = I``.  The
    constructor accepts any (K, D, D) array or sequence of K (D, D)
    matrices and copies it once, so the caller's input is never aliased.
    ``dimension`` (D) and ``kraus_count`` (K) are read off the array.
    ``c_factor`` is the rank-revealing factor of the overlap-ratio matrix
    the operators were built from (None for hand-assembled sets); the
    fingerprints identify the state sets used during synthesis.
    Instances are immutable.
    """

    operators: np.ndarray
    c_factor: np.ndarray | None = None
    initial_fingerprint: str = ""
    final_fingerprint: str = ""

    def __post_init__(self):
        try:
            ops = np.array(self.operators, dtype=np.complex128, order="C")
        except ValueError as exc:
            # numpy refuses ragged input (operators of different shapes).
            raise SizeMismatchError(f"Kraus operators do not form a (K, D, D) array: {exc}") from exc
        if ops.ndim != 3 or ops.shape[0] < 1 or ops.shape[1] != ops.shape[2]:
            raise SizeMismatchError(
                f"Kraus operators must form a (K, D, D) array with K >= 1, got shape {ops.shape}"
            )
        if not np.all(np.isfinite(ops)):
            raise NotFiniteError("Kraus operators contain NaN or Inf entries")
        ops.setflags(write=False)
        object.__setattr__(self, "operators", ops)
        if self.c_factor is not None:
            c = np.array(self.c_factor, dtype=np.complex128)
            c.setflags(write=False)
            object.__setattr__(self, "c_factor", c)

    @property
    def dimension(self) -> int:
        return self.operators.shape[1]

    @property
    def kraus_count(self) -> int:
        return self.operators.shape[0]

    @classmethod
    def from_operators(cls, operators, initial: StateSet | None = None,
                       final: StateSet | None = None) -> "KrausSet":
        """Wrap explicit operators; fingerprints filled in when the source
        state sets are supplied."""
        return cls(
            operators=operators,
            c_factor=None,
            initial_fingerprint=fingerprint(initial) if initial is not None else "",
            final_fingerprint=fingerprint(final) if final is not None else "",
        )


def _kraus_stack(targets, c, bras) -> np.ndarray:
    """Operators ``A_k = targets @ diag(c[:, k]) @ bras`` as a (K, D, D) stack.

    ``targets`` is (D, N) with the image states as columns, ``c`` is (N, K)
    and ``bras`` is (N, D), so ``A_k = sum_j c_jk |target_j><bra_j|``.  All
    K operators come from one (D, N) @ (N, K * D) product.
    """
    n, k = c.shape
    d = bras.shape[1]
    scaled = (c[:, :, None] * bras[:, None, :]).reshape(n, k * d)
    return (targets @ scaled).reshape(targets.shape[0], k, d).transpose(1, 0, 2)


def synthesize(
    initial: StateSet,
    final: StateSet,
    tol: float = DEFAULT_TOL,
    rank_tol: float = DEFAULT_RANK_TOL,
    cond_ceiling: float = DEFAULT_COND_CEILING,
) -> KrausSet:
    """Explicit Kraus operators realizing a Feasible transformation.

    Writes the ratio matrix as ``C @ C^dag`` with C of minimal column
    count and sets ``A_k = sum_j C_jk |psi2_j><w_j|`` with w the reciprocal
    vectors of the initial set, so ``A_k |psi1_j> = C_jk |psi2_j>`` and the
    operator count equals the numerical rank of the ratio matrix.  These
    operators give ``sum_k A_k^dag A_k = P``, the projector onto the span
    of the initial set.  When that span is an N < D subspace, one more
    operator, ``I - P``, completes the identity resolution: it annihilates
    the span and is itself a projector, so it adds ``I - P`` to the sum.
    The count is then rank(C) + 1 <= D.

    Raises ``NotFeasibleError`` (carrying the report) unless the
    feasibility verdict is Feasible.
    """
    report = feasibility_check(initial, final, tol)
    if report.verdict != FEASIBLE:
        raise NotFeasibleError(
            f"feasibility verdict is {report.verdict}; synthesis needs Feasible",
            report=report,
        )
    m = report.ratio_matrix
    # A Feasible verdict with unconstrained entries implies equal Grams,
    # where completing with 1 reproduces the unitary channel.
    entries = m.entries if m.fully_defined else np.where(m.defined, m.entries, 1.0)
    c = psd_factor(entries, rank_tol=rank_tol, tol=tol)
    duals = span_duals(initial, tol, cond_ceiling)
    ops = _kraus_stack(final.states.T, c, duals.conj())
    if initial.n < initial.dimension:
        sink = np.eye(initial.dimension) - initial.states.T @ duals.conj()
        ops = np.concatenate([ops, sink[None]])
    ks = KrausSet(
        operators=ops,
        c_factor=c,
        initial_fingerprint=fingerprint(initial),
        final_fingerprint=fingerprint(final),
    )
    _verify_synthesis(ks, initial, final, c, tol)
    return ks


def _verify_synthesis(ks, initial, final, c, tol):
    # Construction guard: residuals stay near machine precision for
    # admissible conditions, so anything above 1e3 * tol means the Gram
    # matrices were too ill-conditioned to trust the result.
    worst = 0.0
    for k in range(c.shape[1]):
        images = initial.states @ ks.operators[k].T
        expected = c[:, k][:, None] * final.states
        worst = max(worst, float(np.max(np.linalg.norm(images - expected, axis=1))))
    completeness = verify_completeness(ks)
    if worst > 1e3 * tol or completeness > 1e3 * tol:
        raise IllConditionedError(
            f"synthesis residuals too large (per-state {worst:.3e}, "
            f"completeness {completeness:.3e}); Gram matrix too ill-conditioned"
        )


def verify_completeness(ks: KrausSet) -> float:
    """Frobenius norm of ``sum_k A_k^dag A_k - I``."""
    acc = np.zeros((ks.dimension, ks.dimension), dtype=np.complex128)
    for op in ks.operators:
        acc += op.conj().T @ op
    return frobenius(acc - np.eye(ks.dimension))


def apply_channel(ks: KrausSet, rho) -> np.ndarray:
    """Operator-sum action ``sum_k A_k rho A_k^dag``.

    The output is re-Hermitized as (X + X^dag)/2 to suppress floating-point
    asymmetry, keeping density-matrix invariants checkable at tight
    tolerances.
    """
    r = np.asarray(rho, dtype=np.complex128)
    if r.shape != (ks.dimension, ks.dimension):
        raise DimensionMismatchError(
            f"density matrix shape {r.shape} does not match channel dimension {ks.dimension}"
        )
    if not np.all(np.isfinite(r)):
        raise NotFiniteError("density matrix contains NaN or Inf")
    out = np.zeros_like(r)
    for op in ks.operators:
        out += op @ r @ op.conj().T
    return (out + out.conj().T) / 2.0


def state_to_density(state) -> np.ndarray:
    """Projector |psi><psi| of an amplitude vector."""
    v = np.asarray(state, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())


def validate_density(
    rho,
    hermitian_tol: float = 1e-12,
    trace_tol: float = 1e-12,
    psd_tol: float = 1e-10,
) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a density matrix."""
    r = as_complex_matrix(rho, name="density matrix")
    if r.shape[0] != r.shape[1]:
        raise SizeMismatchError(f"density matrix must be square, got {r.shape}")
    scale = max(1.0, frobenius(r))
    if frobenius(r - r.conj().T) > hermitian_tol * scale:
        raise NotHermitianError("density matrix is not Hermitian")
    tr = complex(np.trace(r))
    if abs(tr - 1.0) > trace_tol * scale:
        raise SizeMismatchError(f"density matrix trace {tr:.12g} != 1")
    ok, min_eig = psd_check(r, psd_tol)
    if not ok:
        raise NotPSDError(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return r


@dataclass(frozen=True, eq=False)
class TransformRecord:
    """Per-state audit of a synthesized channel."""

    index: int
    fidelity: float
    #: c_jk = <psi2_j| A_k |psi1_j>, one entry per operator.
    coefficients: np.ndarray
    #: sum_k |c_jk|^2; equals 1 for a deterministic transformation.
    total_probability: float


def transform_report(
    ks: KrausSet, initial: StateSet, final: StateSet
) -> tuple[TransformRecord, ...]:
    """Fidelities and recovered coefficients for every state of the pair."""
    if initial.n != final.n:
        raise SizeMismatchError(f"{initial.n} initial states vs {final.n} final states")
    if initial.dimension != ks.dimension or final.dimension != ks.dimension:
        raise DimensionMismatchError(
            f"state sets of dimension ({initial.dimension}, {final.dimension}) "
            f"do not match channel dimension {ks.dimension}"
        )
    records = []
    for j in range(initial.n):
        psi1 = initial.states[j]
        psi2 = final.states[j]
        out = apply_channel(ks, state_to_density(psi1))
        coeffs = (ks.operators @ psi1) @ psi2.conj()
        records.append(
            TransformRecord(
                index=j,
                fidelity=float(np.real(psi2.conj() @ out @ psi2)),
                coefficients=coeffs,
                total_probability=float(np.sum(np.abs(coeffs) ** 2)),
            )
        )
    return tuple(records)


def kraus_to_choi(ks: KrausSet) -> np.ndarray:
    """Choi matrix ``sum_ij |i><j| (x) L(|i><j|)`` of the channel.

    PSD for any operator list; its partial trace over the output factor is
    the identity exactly when the completeness relation holds.  Channel
    equality should always be tested on Choi matrices: Kraus lists are
    gauge-redundant.
    """
    # Row k of w is A_k^T flattened: w[k, i*d + m] = A_k[m, i].
    w = ks.operators.transpose(0, 2, 1).reshape(ks.kraus_count, -1)
    return w.T @ w.conj()


def choi_output_trace(choi, dimension: int) -> np.ndarray:
    """Partial trace of a Choi matrix over the output factor."""
    d = dimension
    c = np.asarray(choi, dtype=np.complex128)
    if c.shape != (d * d, d * d):
        raise SizeMismatchError(f"Choi shape {c.shape} != ({d * d}, {d * d})")
    return np.einsum("imjm->ij", c.reshape(d, d, d, d))
