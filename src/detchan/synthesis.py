"""Kraus-operator synthesis for feasible deterministic transformations,
channel application, density-matrix helpers (projector, purity,
validation), the completeness residual and the Choi matrix."""

from __future__ import annotations

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
from .feasibility import _GUARD, FEASIBLE, FeasibilityReport, _check, _PairAnalysis
from .numerics import DEFAULT_TOL, _psd_verdict, frobenius
from .states import StateSet, _span_duals, fingerprint


class _Factor(NamedTuple):
    """The synthesized operators in factored form, as ``KrausSet`` describes:
    ``targets`` is Phi (D, N), ``c`` the (N, K) factor C of the ratio matrix,
    ``m`` is C C^dag, ``bras`` is Psi^+ (N, D) and ``kets`` is Psi1 (D, N)
    when the sink I - Psi1 Psi^+ completes the set, else None."""

    targets: np.ndarray
    c: np.ndarray
    m: np.ndarray
    bras: np.ndarray
    kets: np.ndarray | None


class KrausSet:
    """Operator-sum representation of a channel.

    ``operators`` is one read-only, C-contiguous complex128 array of shape
    (K, D, D): ``operators[k]`` is the Kraus operator A_k, and the set
    satisfies the completeness relation ``sum_k A_k^dag A_k = I``.  The
    constructor accepts any (K, D, D) array or sequence of K (D, D) matrices
    and copies it once, so the caller's input is never aliased.
    ``c_factor`` is the rank-revealing factor of the overlap-ratio matrix
    the operators were built from, or None when none was given (a set read
    back from a ``detchan synth`` document keeps the document's); the
    fingerprints identify the state sets used during synthesis.

    A set returned by ``synthesize`` is held in factored form instead, built
    by the private ``_from_factor``: ``A_k = Phi diag(C[:, k]) Psi^+`` plus
    the sink ``I - Psi1 Psi^+`` when the initial set spans a proper
    subspace, with Phi and Psi1 the final and initial states as columns,
    C = ``c_factor`` and Psi^+ the pseudo-inverse of Psi1.  Its (K, D, D)
    ``operators`` array is built from the factor on first read, checked
    like a constructor argument and kept; ``apply_channel``, the pure-input
    reader and the synthesis guard never read it, the last two take O(D^2 N)
    for any K; its fingerprints are those of its two state sets, each hashed once.
    ``dimension`` (D) and ``kraus_count`` (K) come from the factor or the
    array and never build it.

    Instances are immutable and safe to share across threads: each lazy
    value is a pure function of what the set was built from and is stored
    once, so concurrent first reads may both compute it but all of them
    return the same object.
    """

    def __init__(
        self, operators, c_factor=None, initial_fingerprint: str = "", final_fingerprint: str = ""
    ):
        try:
            ops = np.array(operators, dtype=np.complex128, order="C")
        except ValueError as exc:
            # numpy refuses ragged input (operators of different shapes).
            raise SizeMismatchError(
                f"Kraus operators do not form a (K, D, D) array: {exc}"
            ) from exc
        fields = self.__dict__
        fields["_operators"] = _checked_operators(ops)
        fields["_factor"] = None
        fields["dimension"], fields["kraus_count"] = ops.shape[1], ops.shape[0]
        if c_factor is not None:
            c_factor = np.array(c_factor, dtype=np.complex128)
            c_factor.setflags(write=False)
        fields["c_factor"] = c_factor
        fields["_sources"] = (initial_fingerprint, final_fingerprint)

    @classmethod
    def _from_factor(cls, factor: _Factor, sources: tuple) -> "KrausSet":
        """A set held as ``factor``, made read-only once each part is finite;
        ``sources`` are its two state sets, or two fingerprint strings."""
        for part in factor:
            if part is not None:
                if not np.all(np.isfinite(part)):
                    raise NotFiniteError("Kraus factor contains NaN or Inf entries")
                part.setflags(write=False)
        ks = cls.__new__(cls)
        fields = ks.__dict__
        fields["_factor"], fields["c_factor"] = factor, factor.c
        fields["dimension"] = factor.bras.shape[1]
        fields["kraus_count"] = factor.c.shape[1] + (factor.kets is not None)
        fields["_sources"] = sources
        return ks

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
            if f.kets is not None:
                built[-1] = np.eye(self.dimension) - f.kets @ f.bras
            # setdefault is atomic: the first stored array is the one every
            # reader gets, however many threads raced to build it.
            ops = self.__dict__.setdefault("_operators", _checked_operators(built))
        return ops

    # ``_sources``: the two given strings, or the two source sets (each hashed once).
    initial_fingerprint = property(lambda self: _fingerprint_of(self._sources[0]))
    final_fingerprint = property(lambda self: _fingerprint_of(self._sources[1]))

    @classmethod
    def from_operators(cls, operators, initial: StateSet | None = None,
                       final: StateSet | None = None) -> "KrausSet":
        """Wrap explicit operators; fingerprints filled in when the source
        state sets are supplied."""
        fingerprints = (fingerprint(s) if s is not None else "" for s in (initial, final))
        return cls(operators, None, *fingerprints)


def _fingerprint_of(source: StateSet | str) -> str:
    return source if isinstance(source, str) else fingerprint(source)


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


def synthesize(initial: StateSet, final: StateSet, tol: float = DEFAULT_TOL) -> KrausSet:
    """Kraus operators realizing a Feasible transformation, in factored form.

    Runs ``feasibility_check`` as a build check and reads the record it
    returns beside the report, so no Gram matrix is formed, factored,
    eigensolved or inverted, nor its rank decided, a second time.  The
    record keeps the certified ratio matrix as ``C @ C^dag`` with C of
    minimal column count (``_spectral_factor``, cut at
    ``DEFAULT_RANK_TOL``), and ``A_k = sum_j C_jk |psi2_j><w_j|`` with w the
    reciprocal vectors of the initial set (``span_duals`` from the check's
    inverse of G1: the pseudo-inverse Psi^+, any rank), so
    ``A_k |psi1_j> = C_jk |psi2_j>``.  For a dependent initial set this
    holds because G1 = M o G2 makes ``sum_j n_j C_jk |psi2_j>`` vanish for
    every null vector n of the initial states.  These operators give
    ``sum_k A_k^dag A_k = P``, the projector onto the span of the initial
    set.  When that span is a proper subspace (rank < D), one more operator,
    ``I - P``, completes the identity resolution: it annihilates the span
    and is itself a projector, so it adds ``I - P`` to the sum.  The count
    is K = rank(C) + [rank < D] with rank(C) <= N, so the bound K <= D of an
    independent set does not carry over to N > D.

    The returned set keeps the factor (final states, C, C C^dag, reciprocal
    states, the initial states for a sink) and builds its (K, D, D)
    ``operators`` only when first read; its residuals are checked on the
    factor and the check's G2 in O(N^2 D + N D^2), whatever K is.

    Raises ``NotFeasibleError`` (carrying the report) unless the verdict
    is Feasible, and ``IllConditionedError`` when the residuals exceed
    ``1e3 * tol``, which a Feasible verdict has ruled out.
    """
    report, pair = _check(initial, final, tol, build=True)
    return _synthesize_from(report, pair, initial, final, tol)


def _synthesize_from(report: FeasibilityReport, pair: _PairAnalysis, initial: StateSet,
                     final: StateSet, tol: float) -> KrausSet:
    """``synthesize`` from the report and record of the pair's build check
    (``_check(..., build=True)``)."""
    if report.verdict != FEASIBLE:
        raise NotFeasibleError(
            f"feasibility verdict is {report.verdict}; synthesis needs Feasible",
            report=report,
        )
    bras = _span_duals(initial.states, pair.inverse).conj()
    kets = initial.states.T if pair.rank1 < initial.dimension else None  # a sink: rank < D
    factor = _Factor(final.states.T, pair.c, pair.c @ pair.c.conj().T, bras, kets)
    ks = KrausSet._from_factor(factor, (initial, final))
    _verify_synthesis(factor, initial, pair.g2, tol)
    return ks


def _verify_synthesis(f: _Factor, initial: StateSet, g2, tol: float) -> tuple[float, float]:
    """Construction guard: the worst per-state residual and the
    completeness residual of the factored set, with G2 the check's Gram
    matrix of the final set, or ``IllConditionedError``.

    Residuals stay near machine precision for admissible conditions, so
    anything above 1e3 * tol means the Gram matrices were too
    ill-conditioned to trust the result.  ``feasibility_check`` computes
    both from G1 beforehand (``_guard_residuals``).
    """
    # Both residuals are read off the factor.  Phi^dag Phi is conj(G2)
    # (``gram`` puts <psi_k|psi_j> at (j, k)), so with M = C C^dag and
    # mid = conj(M o G2) (N x N), sum_k A_k^dag A_k over the span
    # operators is (Psi^+)^dag mid Psi^+.  With E = Psi^+ Psi - I, the
    # mapping error A_k psi1_j - C_jk psi2_j is Phi diag(C[:, k]) E[:, j],
    # whose squared norm summed over k is E[:, j]^dag mid E[:, j]: the
    # per-state residual below is never below the worst single operator's.
    # The sink S = I - X Psi^+ (X = Psi1) has target coefficient 0, so its
    # whole image psi1_j - X Psi^+ psi1_j adds to that sum, and with its
    # S^dag S, acc - I is (Psi^+)^dag (mid + X^dag X) Psi^+ - X Psi^+ - (X Psi^+)^dag.
    mid = np.conj(f.m * g2)
    duals = f.bras @ initial.states.T  # column j is Psi^+ psi1_j
    e = duals - np.eye(initial.n)
    per_state = np.real(np.sum(e.conj() * (mid @ e), axis=0))
    if f.kets is None:
        acc = f.bras.conj().T @ mid @ f.bras - np.eye(initial.dimension)
    else:
        per_state += np.sum(np.abs(f.kets - f.kets @ duals) ** 2, axis=0)
        p = f.kets @ f.bras
        acc = f.bras.conj().T @ (mid + f.kets.conj().T @ f.kets) @ f.bras - p - p.conj().T
    completeness = frobenius(acc)
    worst = float(np.sqrt(max(float(np.max(per_state)), 0.0)))
    # Written so that a NaN residual fails the guard too.
    if not (worst <= _GUARD * tol and completeness <= _GUARD * tol):
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
    """Operator-sum action ``sum_k A_k rho A_k^dag`` on a density matrix (a
    pure input's output is read off the amplitudes A_k v by ``_pure_output``).
    A set from ``synthesize`` is applied through its factor, as the Schur
    multiplier ``Phi ((C C^dag) o (Psi^+ rho (Psi^+)^dag)) Phi^dag`` plus
    ``S rho S^dag`` for the sink S = I - Psi1 Psi^+, in O(D^2 N) without a
    sink and O(D^3) with one, for any K and without building ``operators``
    or C C^dag, which the factor keeps; other sets run the per-operator sum.
    The output is re-Hermitized as (X + X^dag)/2 to suppress floating-point
    asymmetry, keeping density-matrix invariants checkable at tight tolerances.
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
        out = f.targets @ (f.m * (f.bras @ r @ f.bras.conj().T)) @ f.targets.conj().T
        if f.kets is not None:
            sink = np.eye(ks.dimension) - f.kets @ f.bras
            out += sink @ r @ sink.conj().T
    out += out.conj().T
    out /= 2.0
    return out


def _pure_output(ks: KrausSet, v) -> tuple[np.ndarray, np.ndarray]:
    """The channel's output on the pure input |v><v|, the one route to it: the
    (D, K) matrix B of columns A_k v and rho = B B^dag, made exactly Hermitian.
    A set from ``synthesize`` reads its factor, B = Phi diag(Psi^+ v) C, with
    the sink's v - X Psi^+ v last."""
    if len(v) != ks.dimension:
        raise DimensionMismatchError(
            f"state dimension {len(v)} != channel dimension {ks.dimension}"
        )
    f = ks._factor
    if f is None:
        b = (ks.operators @ v).T
    else:
        duals = f.bras @ v
        b = f.targets @ (duals[:, None] * f.c)
        b = b if f.kets is None else np.column_stack((b, v - f.kets @ duals))
    rho = b @ b.conj().T
    return b, (rho + rho.conj().T) / 2.0


def state_to_density(state) -> np.ndarray:
    """Projector |psi><psi| of an amplitude vector."""
    v = np.asarray(state, dtype=np.complex128).reshape(-1)
    return np.outer(v, v.conj())


def purity(rho) -> float:
    """Tr(rho^2), read as Re sum_ij rho_ij rho_ji in O(D^2) for any square
    rho; 1 for pure states, 1/D for the maximally mixed state."""
    r = np.asarray(rho, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise SizeMismatchError(f"density matrix must be square, got {r.shape}")
    return float(np.vdot(r.conj().T, r).real)


def validate_density(rho) -> np.ndarray:
    """Check a density matrix and return it as a complex128 array: square
    and finite, Hermitian and of unit trace within 1e-12 * max(1, ||rho||_F),
    and PSD within 1e-10 (``_psd_verdict``'s relative rule, read off the
    exactly Hermitian part)."""
    r = np.asarray(rho, dtype=np.complex128)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise SizeMismatchError(f"density matrix must be square, got {r.shape}")
    if not np.all(np.isfinite(r)):
        raise NotFiniteError("density matrix contains NaN or Inf entries")
    scale = max(1.0, frobenius(r))
    residual = frobenius(r - r.conj().T)
    if residual > 1e-12 * scale:
        raise NotHermitianError(f"symmetry residual {residual:.3e} exceeds 1.0e-12 * {scale:.3e}")
    tr = complex(np.trace(r))
    if abs(tr - 1.0) > 1e-12 * scale:
        raise SizeMismatchError(f"density matrix trace {tr.real:.12g} != 1")
    ok, min_eig = _psd_verdict(np.linalg.eigvalsh((r + r.conj().T) / 2.0)[::-1], 1e-10)
    if not ok:
        raise NotPSDError(f"density matrix has negative eigenvalue {min_eig:.3e}")
    return r


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
