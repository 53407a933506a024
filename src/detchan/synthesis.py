"""Kraus-operator synthesis for feasible deterministic transformations,
channel application, per-state verification and Choi-matrix utilities."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
from .feasibility import FEASIBLE, FeasibilityReport, _check
from .numerics import (
    DEFAULT_RANK_TOL,
    DEFAULT_TOL,
    _check_tolerances,
    _spectral_factor,
    as_complex_matrix,
    frobenius,
    psd_check,
)
from .states import StateSet, _overlap_inverse, _span_duals, fingerprint


class _Factor(NamedTuple):
    """The synthesized operators in factored form, as ``KrausSet`` describes:
    ``targets`` is Phi (D, N), ``c`` the (N, K) factor C of the ratio
    matrix, ``bras`` is Psi^+ (N, D), and ``sink`` is I - P or None."""

    targets: np.ndarray
    c: np.ndarray
    bras: np.ndarray
    sink: np.ndarray | None


class KrausSet:
    """Operator-sum representation of a channel.

    ``operators`` is one read-only, C-contiguous complex128 array of shape
    (K, D, D): ``operators[k]`` is the Kraus operator A_k, and the set
    satisfies the completeness relation ``sum_k A_k^dag A_k = I``.  The
    constructor accepts any (K, D, D) array or sequence of K (D, D)
    matrices and copies it once, so the caller's input is never aliased.
    ``c_factor`` is the rank-revealing factor of the overlap-ratio matrix
    the operators were built from (None for hand-assembled sets); the
    fingerprints identify the state sets used during synthesis.

    A set returned by ``synthesize`` is held in factored form instead:
    ``A_k = Phi diag(C[:, k]) Psi^+`` plus the sink ``I - P`` when the
    initial set spans a proper subspace, with Phi the final states as
    columns, C = ``c_factor`` and Psi^+ the pseudo-inverse of the initial
    states (their conjugated reciprocal states).  Its (K, D, D)
    ``operators`` array is built from the factor on first read, checked
    like a constructor argument and kept; ``apply_channel`` and the
    synthesis guard never read it.  ``dimension`` (D) and ``kraus_count``
    (K) come from the factor or the array and never build it.

    Instances are immutable and safe to share across threads: the lazy
    build is a pure function of the factor and is stored once, so
    concurrent first reads may both compute it but all of them return the
    same array.
    """

    def __init__(
        self,
        operators=None,
        c_factor=None,
        initial_fingerprint: str = "",
        final_fingerprint: str = "",
        *,
        _factor: _Factor | None = None,
    ):
        if (operators is None) == (_factor is None):
            raise TypeError("KrausSet takes either operators or a synthesis factor")
        fields = self.__dict__
        if _factor is None:
            try:
                ops = np.array(operators, dtype=np.complex128, order="C")
            except ValueError as exc:
                # numpy refuses ragged input (operators of different shapes).
                raise SizeMismatchError(
                    f"Kraus operators do not form a (K, D, D) array: {exc}"
                ) from exc
            fields["_operators"] = _checked_operators(ops)
            fields["_factor"] = None
            fields["dimension"], fields["kraus_count"] = ops.shape[1], ops.shape[0]
            if c_factor is not None:
                c_factor = np.array(c_factor, dtype=np.complex128)
                c_factor.setflags(write=False)
        else:
            for part in _factor:
                if part is not None:
                    if not np.all(np.isfinite(part)):
                        raise NotFiniteError("Kraus factor contains NaN or Inf entries")
                    part.setflags(write=False)
            fields["_factor"] = _factor
            fields["dimension"] = _factor.bras.shape[1]
            fields["kraus_count"] = _factor.c.shape[1] + (_factor.sink is not None)
            c_factor = _factor.c
        fields["c_factor"] = c_factor
        fields["initial_fingerprint"] = initial_fingerprint
        fields["final_fingerprint"] = final_fingerprint

    def __setattr__(self, name, value):
        raise AttributeError(f"KrausSet is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"KrausSet is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"KrausSet(dimension={self.dimension}, kraus_count={self.kraus_count})"

    @property
    def operators(self) -> np.ndarray:
        ops = self.__dict__.get("_operators")
        if ops is None:
            f = self._factor
            built = np.empty((self.kraus_count, self.dimension, self.dimension), np.complex128)
            built[: f.c.shape[1]] = _kraus_stack(f.targets, f.c, f.bras)
            if f.sink is not None:
                built[-1] = f.sink
            # setdefault is atomic: the first stored array is the one every
            # reader gets, however many threads raced to build it.
            ops = self.__dict__.setdefault("_operators", _checked_operators(built))
        return ops

    @classmethod
    def from_operators(cls, operators, initial: StateSet | None = None,
                       final: StateSet | None = None) -> "KrausSet":
        """Wrap explicit operators; fingerprints filled in when the source
        state sets are supplied."""
        return cls(
            operators=operators,
            initial_fingerprint=fingerprint(initial) if initial is not None else "",
            final_fingerprint=fingerprint(final) if final is not None else "",
        )


def _checked_operators(ops: np.ndarray) -> np.ndarray:
    """``ops`` made read-only once it is a finite (K, D, D) stack with K >= 1."""
    if ops.ndim != 3 or ops.shape[0] < 1 or ops.shape[1] != ops.shape[2]:
        raise SizeMismatchError(
            f"Kraus operators must form a (K, D, D) array with K >= 1, got shape {ops.shape}"
        )
    if not np.all(np.isfinite(ops)):
        raise NotFiniteError("Kraus operators contain NaN or Inf entries")
    ops.setflags(write=False)
    return ops


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
) -> KrausSet:
    """Kraus operators realizing a Feasible transformation, in factored form.

    Runs ``feasibility_check`` as a build check, which keeps the ratio
    spectrum, and reads its private pair record, so no Gram matrix is
    formed, factored or eigensolved a second time.  That spectrum is
    written as ``C @ C^dag`` with C of minimal column count (``rank_tol``
    cuts the rank), and ``A_k = sum_j C_jk |psi2_j><w_j|`` with w the
    reciprocal vectors of the initial set (``span_duals`` from the check's
    inverse of G1 or certified G1: the pseudo-inverse Psi^+, any rank), so
    ``A_k |psi1_j> = C_jk |psi2_j>``.  For a dependent initial set this
    holds because G1 = M o G2 makes ``sum_j n_j C_jk |psi2_j>`` vanish for
    every null vector n of the initial states.  These operators give
    ``sum_k A_k^dag A_k = P``, the projector onto the span of the initial
    set.  When that span is a proper subspace (rank < D), one more
    operator, ``I - P``, completes the identity resolution: it annihilates
    the span and is itself a projector, so it adds ``I - P`` to the sum.
    The count is K = rank(C) + [rank < D] with rank(C) <= N, so the bound
    K <= D of an independent set does not carry over to N > D.

    The returned set keeps the factor (final states, C, reciprocal states,
    sink) and builds its (K, D, D) ``operators`` only when they are first
    read; its completeness and per-state residuals are checked on the
    factor in O(N^2 D + N D^2 + D^3), whatever K is.

    Raises ``NotFeasibleError`` (carrying the report) unless the verdict
    is Feasible, and ``IllConditionedError`` when the residuals exceed
    ``1e3 * tol``, which a Feasible verdict has ruled out.
    """
    _check_tolerances(rank_tol=rank_tol)
    report = _check(initial, final, tol, build=True)
    return _synthesize_from(report, initial, final, tol, rank_tol)


def _synthesize_from(
    report: FeasibilityReport, initial: StateSet, final: StateSet, tol: float, rank_tol: float
) -> KrausSet:
    """``synthesize`` from the pair's ``feasibility_check`` report."""
    if report.verdict != FEASIBLE:
        raise NotFeasibleError(
            f"feasibility verdict is {report.verdict}; synthesis needs Feasible",
            report=report,
        )
    pair = report._pair
    c = _spectral_factor(*pair.spectrum, rank_tol, tol)
    inverse = pair.inverse
    if inverse is None:  # the fast accept certified G1 at tol >= 1e-9
        inverse = _overlap_inverse(pair.g1, tol, certified=True)
    bras = _span_duals(initial.states, inverse).conj()
    sink = None
    # The trace of the projector Psi^+ Psi is the rank of the initial set.
    if round(float(np.sum(bras * initial.states).real)) < initial.dimension:
        sink = np.eye(initial.dimension) - initial.states.T @ bras
    ks = KrausSet(
        initial_fingerprint=fingerprint(initial),
        final_fingerprint=fingerprint(final),
        _factor=_Factor(final.states.T, c, bras, sink),
    )
    _verify_synthesis(ks._factor, initial, tol)
    return ks


def _verify_synthesis(f: _Factor, initial: StateSet, tol: float) -> tuple[float, float]:
    """Construction guard: the worst per-state residual and the
    completeness residual of the factored set, or ``IllConditionedError``.

    Residuals stay near machine precision for admissible conditions, so
    anything above 1e3 * tol means the Gram matrices were too
    ill-conditioned to trust the result.  ``feasibility_check`` computes
    both from G1 beforehand (``_guard_residuals``).
    """
    # Both residuals are read off the factor.  With G2 = Phi^dag Phi and
    # mid = (conj(C) C^T) o G2 (N x N), sum_k A_k^dag A_k over the span
    # operators is (Psi^+)^dag mid Psi^+.  With E = Psi^+ Psi - I, the
    # mapping error A_k psi1_j - C_jk psi2_j is Phi diag(C[:, k]) E[:, j],
    # whose squared norm summed over k is E[:, j]^dag mid E[:, j]: the
    # per-state residual below is never below the worst single operator's.
    # The sink's target coefficient is 0, so its whole image of psi1_j
    # (nonzero when a near-null direction was dropped) adds to that sum.
    mid = (f.c.conj() @ f.c.T) * (f.targets.conj().T @ f.targets)
    acc = f.bras.conj().T @ mid @ f.bras
    e = f.bras @ initial.states.T - np.eye(initial.n)
    per_state = np.real(np.sum(e.conj() * (mid @ e), axis=0))
    if f.sink is not None:
        acc += f.sink.conj().T @ f.sink
        per_state += np.sum(np.abs(initial.states @ f.sink.T) ** 2, axis=1)
    completeness = frobenius(acc - np.eye(acc.shape[0]))
    worst = float(np.sqrt(max(float(np.max(per_state)), 0.0)))
    # Written so that a NaN residual fails the guard too.
    if not (worst <= 1e3 * tol and completeness <= 1e3 * tol):
        raise IllConditionedError(
            f"synthesis residuals too large (per-state {worst:.3e}, "
            f"completeness {completeness:.3e}); Gram matrix too ill-conditioned"
        )
    return worst, completeness


def verify_completeness(ks: KrausSet) -> float:
    """Frobenius norm of ``sum_k A_k^dag A_k - I``, summed operator by
    operator over ``ks.operators`` (so a factored set builds them)."""
    acc = np.zeros((ks.dimension, ks.dimension), dtype=np.complex128)
    for op in ks.operators:
        acc += op.conj().T @ op
    return frobenius(acc - np.eye(ks.dimension))


def apply_channel(ks: KrausSet, rho) -> np.ndarray:
    """Operator-sum action ``sum_k A_k rho A_k^dag``.

    A set from ``synthesize`` is applied through its factor, as the Schur
    multiplier ``Phi ((C C^dag) o (Psi^+ rho (Psi^+)^dag)) Phi^dag`` plus
    ``S rho S^dag`` for the sink S, in O(D^3) for any K and without
    building ``operators``; other sets run the per-operator sum.  The
    output is re-Hermitized as (X + X^dag)/2 to suppress floating-point
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
    f = ks._factor
    if f is None:
        out = np.zeros_like(r)
        for op in ks.operators:
            out += op @ r @ op.conj().T
    else:
        inner = (f.c @ f.c.conj().T) * (f.bras @ r @ f.bras.conj().T)
        out = f.targets @ inner @ f.targets.conj().T
        if f.sink is not None:
            out += f.sink @ r @ f.sink.conj().T
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
