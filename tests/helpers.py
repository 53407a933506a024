"""Shared instance builders for the test suite, and the one place each kind
of pin is made: the kernel tally (``tally``), the golden comparison
(``matches_golden``) and the allocation probe (``traced_bare_check``).

Random feasible pairs are built constructively rather than by rejection:
draw a PSD unit-diagonal coefficient matrix ``M = C C^dag`` (rows of C
normalized), draw a random independent final set, and define the initial
Gram as the entrywise product ``G1 = M * G2``.  The Schur product of a PSD
matrix with positive diagonal and a positive-definite matrix is positive
definite, so factoring G1 yields an independent spanning initial set whose
overlap-ratio matrix equals M up to roundoff.
"""

from __future__ import annotations

import json
import os
import pkgutil
import tracemalloc
from collections import Counter
from importlib import import_module
from pathlib import Path

import numpy as np

import detchan
from detchan import (
    DEFAULT_TOL,
    StateSet,
    apply_channel,
    feasibility_check,
    gram,
    random_state_set,
    state_to_density,
)
from detchan.numerics import _spectral_factor

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
#: The environment of a fresh interpreter that imports the package under test.
FRESH_ENV = {**os.environ, "PYTHONPATH": str(Path(detchan.__file__).resolve().parents[1])}


def fx(name) -> str:
    return str(FIXTURES / name)


INV_SQRT2 = 2**-0.5


def zero_plus() -> StateSet:
    """|0> and |+>."""
    return StateSet.from_vectors([[1, 0], [INV_SQRT2, INV_SQRT2]])


def cos09_final() -> StateSet:
    """|0> and a state of overlap 0.9 with it, whose second amplitude is
    sqrt(0.19) (1 - 0.9**2 is not 0.19 in floating point)."""
    return StateSet.from_vectors([[1, 0], [0.9, np.sqrt(0.19)]])


#: The 50-point sweep of sweep_cos.csv.
SWEEP_ARGV = [
    "sweep", fx("sweep_template.json"), "--start", "0.02", "--stop", "1.55", "--steps", "50"
]

#: The one list of CLI golden files: each file in ``GOLDEN`` with the argv
#: that writes it and the exit code.  The in-process golden test, acceptance
#: criterion 10 and the console entry point test all read it, and a test
#: fails when it and the directory disagree.
GOLDEN_CASES = [
    (["check", fx("plus_pair.json"), fx("target_09.json")], 0, "check_feasible.json"),
    (["check", fx("plus_pair.json"), fx("target_half.json")], 1, "check_infeasible.json"),
    (
        ["check", fx("dependent_pair.json"), fx("dependent_pair.json")],
        0,
        "check_dependent_pair.json",
    ),
    (["synth", fx("basis2.json"), fx("basis2.json")], 0, "synth_identity.json"),
    (["synth", fx("basis2.json"), fx("target_09.json")], 0, "synth_basis_to_target.json"),
    (
        ["apply", fx("kraus_measure2.json"), fx("plus_state.json")],
        0,
        "apply_measure_plus.json",
    ),
    (
        ["coherence", fx("basis2.json"), fx("swapped_basis.json"), "--coeffs", "1,1"],
        0,
        "coherence_unitary.json",
    ),
    (
        ["coherence", fx("plus_pair.json"), fx("target_09.json"), "--coeffs", "1,1"],
        1,
        "coherence_decohering.json",
    ),
    (SWEEP_ARGV, 0, "sweep_cos.csv"),
    (["gen", "2", "2", "--mode", "independent", "--seed", "7"], 0, "gen_2x2_seed7.json"),
    (
        ["synth", fx("dependent_pair.json"), fx("dependent_pair.json")],
        0,
        "synth_dependent_pair.json",
    ),
    (
        ["check", fx("equiangular_half.json"), fx("equiangular_quarter.json")],
        1,
        "check_infeasible_all_pairs.json",
    ),
]


def matches_golden(output: str | bytes, name: str) -> bool:
    """Whether a CLI output, text or bytes, is the golden file ``name`` byte
    for byte: the one comparison of an output with a golden file."""
    data = output if isinstance(output, bytes) else output.encode()
    return data == (GOLDEN / name).read_bytes()


def assert_sweep_near_golden(text: str) -> None:
    """A sweep's CSV output against sweep_cos.csv: the same header, rows,
    theta and verdict, and each other number within 1e-12, empty where the
    golden's is."""
    rows = [line.split(",") for line in text.splitlines()]
    golden = [line.split(",") for line in (GOLDEN / "sweep_cos.csv").read_text().splitlines()]
    assert len(rows) == len(golden) and rows[0] == golden[0]
    for row, want in zip(rows[1:], golden[1:]):
        assert (row[0], row[2]) == (want[0], want[2])  # theta, verdict
        for i in (1, 3, 4):  # min_eig, max_mu, uniform_purity
            assert (row[i] == "") == (want[i] == "")
            assert row[i] == "" or abs(float(row[i]) - float(want[i])) <= 1e-12


#: Stands in an ``ERROR_CASES`` argv for the file that holds the row's document.
DOC = "<document>"
#: A two-point sweep grid.
GRID = ["--start", "0", "--stop", "1", "--steps", "2"]
#: A 401-digit JSON integer: valid JSON, but too large for a double.
HUGE = "1" + "0" * 400
#: 100,000 unclosed brackets: deeper than the JSON reader can recurse.
DEEP = "[" * 100_000


def template(pair: str) -> str:
    """Sweep template text whose second initial state starts with ``pair``,
    the JSON text of one [re, im] pair."""
    return ('{"dimension": 2, "initial": [[[1, 0], [0, 0]], [%s, [1, 0]]], '
            '"final": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}' % pair)


def density(rows, dimension=2) -> str:
    """Density-matrix document text of a real matrix under ``dimension``."""
    return json.dumps({"dimension": dimension, "matrix": [[[x, 0] for x in row] for row in rows]})


#: Argv of each subcommand that takes a tolerance flag, on a feasible pair,
#: with those flags.
TOLERANCE_ARGV = {
    "check": (["check", fx("plus_pair.json"), fx("target_09.json")], ("--tol",)),
    "synth": (["synth", fx("plus_pair.json"), fx("target_09.json")], ("--tol",)),
    "coherence": (
        ["coherence", fx("plus_pair.json"), fx("target_09.json"), "--coeffs", "1,1"],
        ("--tol", "--purity-tol"),
    ),
    "sweep": (["sweep", fx("sweep_template.json"), *GRID], ("--tol",)),
}

#: The one list of CLI error outcomes.  Per id: the argv, the text of the
#: row's input document (written to the file ``DOC`` stands for) or None, the
#: exit code, and the reason the one ``error:`` line on stderr must contain.
#: Each row runs in process and through the console entry point, with an
#: ``--out`` file that it must not create.
ERROR_CASES = {
    "check-malformed-json": (["check", DOC, fx("basis2.json")], "{not json", 2,
                             "Expecting property name enclosed in double quotes"),
    "check-missing-file": (["check", "does-not-exist.json", fx("basis2.json")], None, 2,
                           "No such file or directory: 'does-not-exist.json'"),
    "check-size-mismatch": (["check", fx("plus_state.json"), fx("basis2.json")], None, 2,
                            "1 initial states vs 2 final states"),
    # Exit 1 would read as Infeasible; an unreadable amplitude exits 2.
    "check-huge-amplitude": (["check", DOC, fx("plus_pair.json")],
                             '{"states": [[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]}' % HUGE, 2,
                             "amplitude does not fit a double"),
    # An amplitude whose square overflows a double is refused with no numpy warning.
    "check-overflowing-amplitude": (["check", DOC, fx("plus_pair.json")],
                                    '{"states": [[[1e200, 0], [0, 0]], [[0, 0], [1, 0]]]}', 2,
                                    "state norms deviate from 1 by up to inf"),
    "check-deep-document": (["check", DOC, fx("plus_pair.json")], DEEP, 2,
                            "JSON nested too deeply to read"),
    "synth-infeasible": (["synth", fx("plus_pair.json"), fx("target_half.json")], None, 1,
                         "feasibility verdict is Infeasible; synthesis needs Feasible"),
    "apply-dimension-mismatch": (
        ["apply", fx("kraus_measure2.json"), DOC],
        json.dumps({"dimension": 3, "states": [[[1, 0], [0, 0], [0, 0]]]}), 2,
        "density matrix shape (3, 3) does not match channel dimension 2",
    ),
    "apply-not-hermitian": (["apply", fx("kraus_measure2.json"), DOC],
                            density([[0.5, 0.5], [0.0, 0.5]]), 2, "symmetry residual"),
    "apply-trace-2": (["apply", fx("kraus_measure2.json"), DOC],
                      density([[1.0, 0.0], [0.0, 1.0]]), 2, "density matrix trace 2 != 1"),
    "apply-negative-eigenvalue": (["apply", fx("kraus_measure2.json"), DOC],
                                  density([[1.5, 0.0], [0.0, -0.5]]), 2, "negative eigenvalue"),
    # A valid density matrix under a wrong "dimension", refused as state-set
    # and Kraus documents refuse theirs.
    "apply-density-dimension-3": (["apply", fx("kraus_measure2.json"), DOC],
                                  density([[0.5, 0.0], [0.0, 0.5]], 3), 2, "does not match"),
    "apply-density-dimension-string": (["apply", fx("kraus_measure2.json"), DOC],
                                       density([[0.5, 0.0], [0.0, 0.5]], "two"), 2,
                                       "'dimension' must be an integer, got 'two'"),
    "apply-two-states": (["apply", fx("kraus_measure2.json"), DOC],
                         json.dumps({"states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}), 2,
                         "apply expects a single state, got 2"),
    "apply-neither-document": (["apply", fx("kraus_measure2.json"), DOC],
                               json.dumps({"vectors": [[[1, 0], [0, 0]]]}), 2,
                               "input must be a StateSet or density-matrix document"),
    **{
        f"coherence-{name}": (
            ["coherence", fx("basis2.json"), fx("basis2.json"), "--coeffs", coeffs], None, 2,
            reason,
        )
        for name, coeffs, reason in [
            ("unparseable", "1,one", "unparseable coefficient list '1,one'"),
            ("count", "1,1,1", "3 coefficients for 2 states"),
            ("nan", "1,nan", "coefficients contain NaN or Inf"),
            ("support", "1,0", "need at least two nonzero coefficients"),
        ]
    },
    "coherence-dependent-final": (
        ["coherence", fx("basis2.json"), fx("dependent_pair.json"), "--coeffs", "1,1"], None, 2,
        "final set must be linearly independent",
    ),
    "coherence-infeasible": (
        ["coherence", fx("plus_pair.json"), fx("target_half.json"), "--coeffs", "1,1"], None, 2,
        "feasibility verdict is Infeasible; synthesis needs Feasible",
    ),
    # A NaN tolerance once made a feasible check print Infeasible, inf ended in
    # a traceback and a negative one in a bogus symmetry error; at 1 a dependent
    # set's rank was 0 and its rounding eigenvalue was inverted.
    **{
        f"{command}{flag}={value}": (
            [*argv, f"{flag}={value}"], None, 2,
            f"error: {flag[2:].replace('-', '_')} must be finite and >= 0, got {float(value)!r}",
        )
        for command, (argv, flags) in TOLERANCE_ARGV.items()
        for flag in flags
        for value in ("nan", "inf", "-1e-9", "1")
    },
    "sweep-single-step": (["sweep", fx("sweep_template.json"), "--start", "0", "--stop", "1",
                           "--steps", "1"], None, 2, "sweep needs at least 2 steps, got 1"),
    # Non-finite bounds, or a span past the doubles, never reach np.linspace.
    **{
        f"sweep-{name}": (["sweep", fx("sweep_template.json"), *bounds, "--steps", "2"], None, 2,
                          reason)
        for name, bounds, reason in [
            ("start-nan", ["--start", "nan", "--stop", "1"],
             "sweep --start must be finite, got nan"),
            ("start-inf", ["--start", "inf", "--stop", "1"],
             "sweep --start must be finite, got inf"),
            ("stop-minus-inf", ["--start", "0", "--stop=-inf"],
             "sweep --stop must be finite, got -inf"),
            ("span-overflow", ["--start=-1e308", "--stop", "1e308"],
             "sweep range -1e+308 to 1e+308 overflows a double"),
        ]
    },
    "sweep-no-final": (["sweep", DOC, *GRID], json.dumps({"initial": [[[1, 0], [0, 0]]]}), 2,
                       "template needs 'initial' and 'final' state lists"),
    "sweep-empty-initial": (["sweep", DOC, *GRID],
                            json.dumps({"initial": [], "final": [[[1, 0], [0, 0]]]}), 2,
                            "template state list must be a non-empty list"),
    "sweep-string-final": (["sweep", DOC, *GRID],
                           json.dumps({"initial": [[[1, 0], [0, 0]]], "final": "cos(theta)"}), 2,
                           "template state list must be a non-empty list"),
    "sweep-deep-template": (["sweep", DOC, *GRID], '{"dimension": 2, "initial": ' + DEEP, 2,
                            "JSON nested too deeply to read"),
    # JSON true/false are not the numbers 1 and 0, as in state documents.
    "sweep-boolean-component": (["sweep", DOC, *GRID], template("[true, 0]"), 2,
                                "must be a number or string, got True"),
    "sweep-short-pair": (["sweep", DOC, *GRID], template("[1]"), 2,
                         "template states must be lists of [re, im] pairs"),
    "sweep-object-pair": (["sweep", DOC, *GRID], template('{"re": 1, "im": 0}'), 2,
                          "template states must be lists of [re, im] pairs"),
    # Templates are untrusted input: only arithmetic on numbers, the parameter,
    # pi and the whitelisted one-argument functions is run, in float
    # arithmetic, so even a huge power fails at once.  A number, bare or
    # literal, must be a finite double.
    **{
        f"sweep-{name}": (["sweep", DOC, *GRID], template(f"[{component}, 0]"), 2, reason)
        for name, component, reason in [
            ("unknown-function", '"nope(theta)"', "bad template expression 'nope(theta)'"),
            ("import", '"__import__(\'os\')"', "bad template expression"),
            ("class-attribute", '"().__class__"', "bad template expression"),
            ("theta-attribute", '"theta.real"', "bad template expression"),
            ("lambda", '"lambda: 0"', "bad template expression"),
            ("two-arguments", '"cos(theta, 1)"', "bad template expression"),
            ("unknown-name", '"phi"', "bad template expression 'phi'"),
            ("huge-power", '"9**9**9"', "template expression failed at 0.0"),
            ("huge-literal", f'"{HUGE} * theta"', "bad template expression"),
            ("huge-number", HUGE, "bad template expression"),
            ("literal-1e400", '"1e400"', "bad template expression '1e400'"),
            ("number-1e400", "1e400", "bad template expression inf"),
            ("number-infinity", "Infinity", "bad template expression inf"),
        ]
    },
    "gen-too-many-independent": (["gen", "2", "3", "--mode", "independent", "--seed", "0"], None,
                                 2, "independent draws need N <= D, got N=3, D=2"),
    # README: a subcommand rejects any flag it does not read; only
    # unitary_image mode reads --base.
    **{
        f"gen-base-{name}": (["gen", "2", "2", "--base", fx("basis2.json"), *mode], None, 2,
                             "unitary_image mode requires a base set; others take none")
        for name, mode in [("default", []), ("generic", ["--mode", "generic"]),
                           ("independent", ["--mode", "independent"])]
    },
}


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


def descending_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of the exactly Hermitian part
    ``(h + h^dag) / 2`` of a complex128 matrix: the spectrum, in the order a
    build check hands it to ``_spectral_factor``."""
    m = np.asarray(h, dtype=np.complex128)
    w, v = np.linalg.eigh((m + m.conj().T) / 2.0)
    return w[::-1].copy(), v[:, ::-1].copy()


def spectral_factor(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rank-revealing, phase-pinned factor C with ``m = C @ C^dag``, as the
    library factors a ratio matrix (``NotPSDError`` for a non-PSD ``m``)."""
    return _spectral_factor(*descending_eig(m), tol)


def transforms(ks, initial: StateSet, final: StateSet) -> tuple[np.ndarray, np.ndarray]:
    """Per state pair j, the fidelity <psi2_j| L(|psi1_j><psi1_j|) |psi2_j>
    of a channel L and the coefficients c_jk = <psi2_j| A_k |psi1_j> (row j)."""
    fidelities = np.array([
        np.real(psi2.conj() @ apply_channel(ks, state_to_density(psi1)) @ psi2)
        for psi1, psi2 in zip(initial.states, final.states)
    ])
    coefficients = np.einsum("kij,nj,ni->nk", ks.operators, initial.states, final.states.conj())
    return fidelities, coefficients


def output_trace(choi, d: int) -> np.ndarray:
    """Partial trace of a (d^2, d^2) Choi matrix over its output factor."""
    return np.einsum("imjm->ij", np.asarray(choi).reshape(d, d, d, d))


def well_conditioned_set(rng: np.random.Generator, n: int, d: int) -> StateSet:
    while True:
        s = random_state_set(d, n, sub_seed(rng), mode="independent")
        w, _ = descending_eig(gram(s))
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
        w, _ = descending_eig(m)
        if min_subdominant is not None and n > 1:
            if float(w[1]) < min_subdominant * float(w[0]):
                continue
        g1 = m * g2
        w1, _ = descending_eig(g1)
        if float(w1[-1]) < MIN_GRAM_EIG:
            continue
        b = spectral_factor(g1)
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
    within 1e-9, so no path may eigensolve it."""
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
    initial = StateSet.from_vectors(spectral_factor(g1), normalize=True)
    return initial, final


def check_mix(seed: int, n: int = 64, rank: int = 48):
    """Three seeded (initial, final) pairs of N = D = ``n`` states, the kinds a
    large-N check benchmark mixes, built with plain numpy: a pair feasible by
    construction (G1 = M o G2 with M = 0.8 C C^dag + 0.2 I, C unit rows, so
    every |mu_jk| <= 0.8), its reverse (ratios 1 / M: every pair flagged, a
    fully defined Infeasible check) and a rank-``rank`` set onto its image
    under a Haar unitary (a dependent Feasible check)."""
    rng = np.random.default_rng(seed)
    final, c = unit_row_factor(rng, n, n), unit_row_factor(rng, n, n)
    g2 = final @ final.conj().T
    w, v = np.linalg.eigh((0.8 * (c @ c.conj().T) + 0.2 * np.eye(n)) * g2)
    initial = v * np.sqrt(w)  # rows with Gram matrix G1
    dependent = unit_row_factor(rng, n, rank) @ haar_unitary(n, sub_seed(rng))[:rank]
    image = dependent @ haar_unitary(n, sub_seed(rng)).T
    sets = [StateSet.from_vectors(a, normalize=True) for a in (initial, final, dependent, image)]
    return [(sets[0], sets[1]), (sets[1], sets[0]), (sets[2], sets[3])]


def traced_bare_check(initial, final):
    """A bare check's report, and the traced peak and retained memory of the
    call (tracemalloc sees numpy's array data), in units of N^2 complex128."""
    feasibility_check(initial, final)  # warm-up: lazy imports and caches
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        report = feasibility_check(initial, final)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    unit = initial.n**2 * 16
    return report, (peak - base) / unit, (kept - base) / unit


def count_calls(monkeypatch, *targets) -> Counter:
    """Wrap each ``(module, name)`` target in a call counter.  The returned
    Counter updates live and is keyed both by name, summed over the targets,
    and by ``module.name`` with the module's last dotted part (``linalg.eigh``,
    ``feasibility.gram``)."""
    counts = Counter()
    for owner, name in targets:
        keys = (name, f"{owner.__name__.rpartition('.')[2]}.{name}")

        def wrapper(*args, _keys=keys, _fn=getattr(owner, name), **kwargs):
            counts.update(_keys)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return counts


#: The kernel tally's table: the numpy.linalg kernels it counts, and the
#: library functions it counts in every detchan module that binds them.
TALLY_KERNELS = ("cholesky", "eigh", "eigvalsh", "solve", "svd", "cond", "lstsq")
TALLY_FUNCTIONS = (
    "gram", "_ratio_matrix", "_overlap_inverse", "_span_duals", "span_duals",
    "linear_independence", "apply_channel", "fingerprint", "_check",
)


def tally(monkeypatch) -> Counter:
    """``count_calls`` on every entry of the tally's table, for the rest of
    the test."""
    modules = [import_module(f"detchan.{m.name}") for m in pkgutil.iter_modules(detchan.__path__)]
    bound = [(m, name) for name in TALLY_FUNCTIONS for m in modules if hasattr(m, name)]
    return count_calls(monkeypatch, *((np.linalg, name) for name in TALLY_KERNELS), *bound)
