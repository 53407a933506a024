import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import detchan
from detchan import DEFAULT_PURITY_TOL, StateSet, cli, synthesis
from detchan import serialize as ser
from helpers import FREE_UNDETERMINED, count_calls

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def fx(name) -> str:
    return str(FIXTURES / name)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_golden(text, name):
    expected = (GOLDEN / name).read_text()
    assert text == expected, f"output does not match golden file {name}"


# ---------------------------------------------------------------- golden files


#: The 50-point sweep of sweep_cos.csv.
SWEEP_ARGV = [
    "sweep", fx("sweep_template.json"), "--start", "0.02", "--stop", "1.55", "--steps", "50"
]

#: Every golden file with the argv that writes it and the exit code.
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
]


@pytest.mark.parametrize("argv, expect_code, golden", GOLDEN_CASES)
def test_golden_outputs_and_exit_codes(capsys, argv, expect_code, golden):
    code, out, _ = run(capsys, argv)
    assert code == expect_code
    assert_golden(out, golden)
    # byte-identical on a second run
    code2, out2, _ = run(capsys, argv)
    assert code2 == code and out2 == out


#: uniform_purity column of sweep_cos.csv as the per-operator channel sum
#: computed it, before the channel was applied through its Schur-multiplier
#: factor; None where the verdict is Infeasible.
PER_OPERATOR_UNIFORM_PURITY = [
    0.99996570372764104, 0.9997756887981798, 0.99942213149104475, 0.9989106492420925,
    0.99824953103628755, 0.99744979313609794, 0.99652525596245334, 0.99549264512885172,
    0.99437172060102097, 0.99318543910969748, 0.9919601563438698, 0.99072587717495053,
    0.9895165643111643, 0.98837051849119573, 0.98733084677714211, 0.98644603994154234,
    0.98577068569141302, 0.98536635198582911, 0.98530268460766635, 0.98565877631823118,
    0.98652488258742954, 0.98800458280783499, 0.9902175185987846, 0.99330288597557992,
    0.99742392124450352,
] + [None] * 25


def test_sweep_purity_matches_the_per_operator_sum(capsys):
    # The factored and per-operator sums differ only in summation order,
    # so every cell agrees to a few ulp.
    code, out, _ = run(capsys, SWEEP_ARGV)
    assert code == 0
    cells = [line.split(",")[4] for line in out.strip().split("\n")[1:]]
    assert len(cells) == len(PER_OPERATOR_UNIFORM_PURITY)
    for cell, expected in zip(cells, PER_OPERATOR_UNIFORM_PURITY):
        if expected is None:
            assert cell == ""
        else:
            assert abs(float(cell) - expected) <= 1e-14


def test_sweep_checks_each_grid_point_once(capsys, monkeypatch):
    # A Feasible grid point builds its channel from that point's check, a
    # build check that keeps the factor C and G1's inverse the channel is built from.
    counts = count_calls(
        monkeypatch, (cli, "_check"), (cli, "feasibility_check"), (synthesis, "_check")
    )
    code, out, _ = run(capsys, SWEEP_ARGV)
    assert code == 0
    assert (counts["_check"], counts["feasibility_check"]) == (50, 0)
    assert_golden(out, "sweep_cos.csv")


def test_repeated_calls_share_only_the_parser(capsys, monkeypatch):
    # Every golden call in one process, forwards and then backwards.  Between
    # them a check with a non-default --tol (1e-6 leaves every check
    # fixture's output as it is, 0.3 changes it), a default check and a
    # usage error: no flag value or failure carries over to the next call.
    # The parser tree (root plus six subcommands) is built once.
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    check = ["check", fx("plus_pair.json"), fx("target_09.json")]
    feasible = (GOLDEN / "check_feasible.json").read_text()
    loose = set()
    for argv, expect_code, golden in GOLDEN_CASES + GOLDEN_CASES[::-1]:
        code, out, _ = run(capsys, argv)
        assert code == expect_code
        assert_golden(out, golden)
        assert run(capsys, check + ["--tol", "1e-6"])[:2] == (0, feasible)
        loose.add(run(capsys, check + ["--tol", "0.3"])[:2])
        assert run(capsys, check)[:2] == (0, feasible)
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", fx("plus_pair.json")])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err
    assert len(loose) == 1 and loose.pop()[1] != feasible
    assert len(built) == 7


def test_importing_detchan_builds_no_parser():
    src = str(Path(detchan.__file__).resolve().parents[1])
    probe = (
        "import detchan, detchan.cli; "
        "assert detchan.cli._build_parser.cache_info().currsize == 0"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)


#: Run in a fresh interpreter: the modules detchan adds to those numpy loads,
#: after import and one check, then after one `detchan check`.
STARTUP_PROBE = """
import contextlib, io, sys
import numpy as np
before = set(sys.modules)
import detchan, detchan.cli
s = detchan.StateSet.from_vectors([[1, 0], [0, 1]])
detchan.feasibility_check(s, s)
first = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    assert detchan.cli.main(["check", sys.argv[1], sys.argv[2]]) == 0
after_check = set(sys.modules) - before
import json
print(json.dumps([sorted(first), sorted(after_check)]))
"""


def test_startup_imports_only_what_the_first_call_runs():
    src = str(Path(detchan.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-c", STARTUP_PROBE, fx("plus_pair.json"), fx("target_09.json")]
    out = subprocess.run(argv, check=True, env=env, capture_output=True, text=True).stdout
    first, after_check = map(set, json.loads(out))
    assert {"detchan.feasibility", "detchan.cli"} <= first
    assert not first & {"detchan.coherence", "detchan.synthesis", "detchan.serialize",
                        "argparse", "hashlib"}
    assert "detchan.serialize" in after_check
    assert not after_check & {"detchan.coherence", "detchan.synthesis", "hashlib"}


# ---------------------------------------------------------------- --out files


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["check", fx("plus_pair.json"), fx("target_09.json"), "--out", str(out_file)]
    )
    assert code == 0 and out == ""
    assert out_file.read_bytes() == (GOLDEN / "check_feasible.json").read_bytes()


def test_synth_failure_writes_no_file(capsys, tmp_path):
    out_file = tmp_path / "kraus.json"
    code, _, err = run(
        capsys,
        ["synth", fx("plus_pair.json"), fx("target_half.json"), "--out", str(out_file)],
    )
    assert code == 1
    assert "error" in err
    assert not out_file.exists()


def test_synth_output_applies_back(capsys, tmp_path):
    kraus_file = tmp_path / "kraus.json"
    code, _, _ = run(
        capsys,
        ["synth", fx("plus_pair.json"), fx("target_09.json"), "--out", str(kraus_file)],
    )
    assert code == 0
    # channel maps |0> onto the first target state exactly
    code, out, _ = run(capsys, ["apply", str(kraus_file), fx("zero_state.json")])
    assert code == 0
    doc = json.loads(out)
    rho = ser.pairs_to_matrix(doc["matrix"])
    assert doc["purity"] >= 1.0 - 1e-9
    assert abs(rho[0, 0] - 1.0) <= 1e-9


# ---------------------------------------------------------------- flags

SUBCOMMAND_ARGV = {
    "check": ["check", fx("plus_pair.json"), fx("target_09.json")],
    "synth": ["synth", fx("basis2.json"), fx("target_09.json")],
    "apply": ["apply", fx("kraus_measure2.json"), fx("plus_state.json")],
    "coherence": ["coherence", fx("basis2.json"), fx("swapped_basis.json"), "--coeffs", "1,1"],
    "sweep": ["sweep", fx("sweep_template.json"), "--start", "0", "--stop", "1", "--steps", "2"],
    "gen": ["gen", "2", "2"],
}
#: The optional flags the README documents for each subcommand.
DOCUMENTED_FLAGS = {
    "check": {"--tol", "--out"},
    "synth": {"--tol", "--out"},
    "apply": {"--out"},
    "coherence": {"--tol", "--purity-tol", "--out"},
    "sweep": {"--tol", "--out"},
    "gen": {"--seed", "--out"},
}
FLAG_VALUES = {
    "--tol": ("1e-6", 1e-6),
    "--rank-tol": ("1e-7", 1e-7),
    "--purity-tol": ("1e-5", 1e-5),
    "--seed": ("3", 3),
    "--out": ("result.json", "result.json"),
}


@pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_each_subcommand_takes_only_the_flags_it_reads(capsys, command, flag):
    # A flag a subcommand would ignore is a usage error, never silently accepted.
    text, value = FLAG_VALUES[flag]
    argv = SUBCOMMAND_ARGV[command] + [flag, text]
    if flag in DOCUMENTED_FLAGS[command]:
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == value
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_purity_tol_default_is_the_library_default():
    args = cli._build_parser().parse_args(SUBCOMMAND_ARGV["coherence"])
    assert args.purity_tol == DEFAULT_PURITY_TOL


# ---------------------------------------------------------------- error paths


def test_malformed_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["check", str(bad), fx("basis2.json")])
    assert code == 2 and "error" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["check", "does-not-exist.json", fx("basis2.json")])
    assert code == 2 and "error" in err


def test_size_mismatch_exits_2(capsys):
    code, _, _ = run(capsys, ["check", fx("plus_state.json"), fx("basis2.json")])
    assert code == 2


def test_apply_dimension_mismatch_exits_2(capsys, tmp_path):
    three = tmp_path / "three.json"
    three.write_text(
        ser.dumps(ser.state_set_to_obj(StateSet.from_vectors([[1, 0, 0]])))
    )
    code, _, _ = run(capsys, ["apply", fx("kraus_measure2.json"), str(three)])
    assert code == 2


@pytest.mark.parametrize(
    "matrix, reason",
    [
        ([[0.5, 0.5], [0.0, 0.5]], "symmetry residual"),  # not Hermitian
        ([[1.0, 0.0], [0.0, 1.0]], "trace"),
        ([[1.5, 0.0], [0.0, -0.5]], "negative eigenvalue"),  # Hermitian, trace 1
    ],
)
def test_apply_rejects_an_invalid_density_matrix(capsys, tmp_path, matrix, reason):
    rho = tmp_path / "rho.json"
    rho.write_text(ser.dumps(ser.density_to_obj(np.array(matrix))))
    code, out, err = run(capsys, ["apply", fx("kraus_measure2.json"), str(rho)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and reason in err


def test_coherence_single_nonzero_coefficient_exits_2(capsys):
    code, _, err = run(
        capsys,
        ["coherence", fx("basis2.json"), fx("basis2.json"), "--coeffs", "1,0"],
    )
    assert code == 2 and "nonzero" in err


#: The tolerance flags each subcommand takes, with a feasible pair's argv.
TOLERANCE_ARGV = {
    "check": (["check", fx("plus_pair.json"), fx("target_09.json")], ("--tol",)),
    "synth": (["synth", fx("plus_pair.json"), fx("target_09.json")], ("--tol",)),
    "coherence": (
        ["coherence", fx("plus_pair.json"), fx("target_09.json"), "--coeffs", "1,1"],
        ("--tol", "--purity-tol"),
    ),
    "sweep": (SUBCOMMAND_ARGV["sweep"], ("--tol",)),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-1e-9"])
@pytest.mark.parametrize("command", sorted(TOLERANCE_ARGV))
def test_invalid_tolerances_exit_2_with_a_message(capsys, command, value):
    # A NaN tolerance once made a feasible check print Infeasible, inf ended
    # in a traceback and a negative one in a bogus symmetry error.
    argv, flags = TOLERANCE_ARGV[command]
    for flag in flags:
        code, out, err = run(capsys, argv + [f"{flag}={value}"])
        assert (code, out) == (2, "")
        name = flag[2:].replace("-", "_")
        assert err.startswith(f"error: {name} must be finite and >= 0, got ")


def test_zero_tolerance_stays_legal(capsys):
    # tol = 0 is decided, not refused: the synthesis guard 1e3 * tol then
    # admits no rounding, so the check says Undetermined (exit 3) and synth
    # refuses the pair (exit 1), as at every tol where the channel fails.
    pair = [fx("plus_pair.json"), fx("target_09.json"), "--tol=0"]
    code, out, _ = run(capsys, ["check", *pair])
    assert code == 3 and '"verdict": "Undetermined"' in out
    assert run(capsys, ["synth", *pair])[0] == 1


@pytest.mark.parametrize(
    "fixture, check_code, synth_code",
    # The exact per-state residual of the tilted pair mapped onto itself is
    # about theta / sqrt(2): within half the 1e-6 guard at theta = 6.3e-7,
    # beyond it at 2e-5 (below the rank cutoff near 6.3e-5).
    [("tilted_6.3e-7.json", 0, 0), ("tilted_2e-5.json", 3, 1)],
)
def test_near_dependent_check_exits_0_exactly_when_synth_builds(
    capsys, fixture, check_code, synth_code
):
    code, out, _ = run(capsys, ["check", fx(fixture), fx(fixture)])
    assert code == check_code
    assert json.loads(out)["verdict"] == ("Feasible" if code == 0 else "Undetermined")
    assert run(capsys, ["synth", fx(fixture), fx(fixture)])[0] == synth_code


def test_check_exits_0_exactly_when_synth_succeeds_on_every_fixture_pair(capsys):
    # Every ordered pair of state-set fixtures of one shape (N, D), each set
    # with itself included: a Feasible verdict always comes with a built
    # channel, and synth builds none the check did not accept.
    shapes = {}
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        if "states" in doc:
            shapes.setdefault((len(doc["states"]), doc["dimension"]), []).append(str(path))
    pairs = [(a, b) for group in shapes.values() for a in group for b in group]
    assert len(pairs) == 72
    mismatched = [
        (Path(a).name, Path(b).name, check, synth)
        for a, b in pairs
        if ((check := run(capsys, ["check", a, b])[0]) == 0)
        != ((synth := run(capsys, ["synth", a, b])[0]) == 0)
    ]
    assert mismatched == []


def test_certified_check_accepts_without_eigenvectors(capsys, monkeypatch):
    # A certified N = 4 pair whose check accepts on one shifted Cholesky of
    # the completed ratio matrix and reads min_eigenvalue (exactly 1/2) with
    # eigvalsh, whose last bits at N >= 3 may differ between LAPACK builds;
    # the console-script step of CI runs the same comparison.
    counts = count_calls(monkeypatch, (np.linalg, "eigh"), (np.linalg, "eigvalsh"))
    pair = [fx("equiangular_quarter.json"), fx("equiangular_half.json")]
    code, out, _ = run(capsys, ["check", *pair])
    report = json.loads(out)
    assert (code, report["verdict"]) == (0, "Feasible")
    assert abs(report["min_eigenvalue"] - 0.5) <= 1e-12
    assert (counts["eigh"], counts["eigvalsh"]) == (0, 1)


def test_undetermined_check_exits_3(capsys, tmp_path):
    # Free pair (0, 2) whose completion with 1 is not PSD and no violating
    # pair: the one verdict that exits 3.
    paths = []
    for name, rows in zip(("initial", "final"), FREE_UNDETERMINED):
        path = tmp_path / f"{name}.json"
        path.write_text(ser.dumps(ser.state_set_to_obj(StateSet.from_vectors(rows))))
        paths.append(str(path))
    code, out, _ = run(capsys, ["check", *paths])
    assert (code, json.loads(out)["verdict"]) == (3, "Undetermined")


def test_coherence_dependent_final_exits_2(capsys):
    code, _, _ = run(
        capsys,
        ["coherence", fx("basis2.json"), fx("dependent_pair.json"), "--coeffs", "1,1"],
    )
    assert code == 2


def test_coherence_infeasible_instance_exits_2(capsys):
    code, _, _ = run(
        capsys,
        ["coherence", fx("plus_pair.json"), fx("target_half.json"), "--coeffs", "1,1"],
    )
    assert code == 2


def test_sweep_two_point_grid_both_feasible(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", fx("sweep_template.json"), "--start", "0.1", "--stop", "0.2", "--steps", "2"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3  # header + 2 rows
    assert all(line.split(",")[2] == "Feasible" for line in lines[1:])


def test_sweep_identity_family_has_zero_min_eigenvalue(capsys, tmp_path):
    # initial == final at every grid point: ratio matrix is all-ones
    template = tmp_path / "identity_family.json"
    family = [
        [[1, 0], [0, 0]],
        [["cos(theta)", 0], ["sin(theta)", 0]],
    ]
    template.write_text(ser.dumps({"dimension": 2, "initial": family, "final": family}))
    code, out, _ = run(
        capsys, ["sweep", str(template), "--start", "0.3", "--stop", "1.2", "--steps", "5"]
    )
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        theta, min_eig, verdict, max_mu, uniform_purity = line.split(",")
        assert verdict == "Feasible"
        assert abs(float(min_eig)) <= 1e-12
        assert float(max_mu) == pytest.approx(1.0, abs=1e-12)
        assert float(uniform_purity) >= 1.0 - 1e-9


def test_sweep_through_a_near_coincidence_writes_every_row(capsys, tmp_path):
    # psi_1 -> psi_1 with psi_1 tilted by theta from psi_0: exactly
    # dependent at 0, independent past theta = 7e-5, and in between
    # dependent only to within tol, where the channel built for the
    # dependent set misses its guard.  Those points are Undetermined, with
    # no purity; the sweep still writes every row and exits 0.
    template = tmp_path / "tilted_family.json"
    family = [[[1, 0], [0, 0]], [["cos(theta)", 0], ["sin(theta)", 0]]]
    template.write_text(ser.dumps({"dimension": 2, "initial": family, "final": family}))
    argv = ["sweep", str(template), "--start", "0", "--stop", "1e-4", "--steps", "6"]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[2] for row in rows] == ["Feasible"] + ["Undetermined"] * 3 + ["Feasible"] * 2
    # The Feasible points near the cutoff have Gram condition near 1e9, so
    # the identity is rebuilt only to the synthesis guard's 1e-6.
    for theta, _, verdict, _, uniform_purity in rows:
        assert (uniform_purity != "") == (verdict == "Feasible")
        if verdict == "Feasible":
            assert float(uniform_purity) >= 1.0 - 2e-6


def test_sweep_passes_tol_to_superpose(capsys, monkeypatch):
    original = cli.superpose
    seen = []

    def spy(s, coefficients, tol=None):
        seen.append(tol)
        return original(s, coefficients, tol)

    monkeypatch.setattr(cli, "superpose", spy)
    argv = SUBCOMMAND_ARGV["sweep"] + ["--tol", "1e-6"]
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert seen and all(tol == 1e-6 for tol in seen)


def test_sweep_rejects_single_step(capsys):
    code, _, _ = run(
        capsys,
        ["sweep", fx("sweep_template.json"), "--start", "0", "--stop", "1", "--steps", "1"],
    )
    assert code == 2


def test_sweep_bad_expression_exits_2(capsys, tmp_path):
    bad = tmp_path / "tpl.json"
    bad.write_text(
        ser.dumps(
            {
                "dimension": 2,
                "initial": [[[1, 0], [0, 0]], [["nope(theta)", 0], [0, 0]]],
                "final": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            }
        )
    )
    code, _, err = run(capsys, ["sweep", str(bad), "--start", "0", "--stop", "1", "--steps", "2"])
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "expression",
    [
        "__import__('os')",
        "().__class__",
        "theta.real",
        "lambda: 0",
        "cos(theta, 1)",
        "phi",
        "9**9**9",
    ],
)
def test_sweep_rejects_expressions_outside_the_grammar(capsys, tmp_path, expression):
    # Templates are untrusted input: only arithmetic on numbers, the
    # parameter, pi and the whitelisted one-argument functions is run, in
    # float arithmetic, so even a huge power fails at once.
    tpl = tmp_path / "tpl.json"
    tpl.write_text(
        ser.dumps(
            {
                "dimension": 2,
                "initial": [[[1, 0], [0, 0]], [[expression, 0], [1, 0]]],
                "final": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            }
        )
    )
    code, out, err = run(capsys, ["sweep", str(tpl), "--start", "0", "--stop", "1", "--steps", "2"])
    assert code == 2 and out == "" and "template expression" in err


#: A 401-digit JSON integer: valid JSON, but too large for a double.
HUGE = "1" + "0" * 400


@pytest.mark.parametrize("component", [f'"{HUGE} * theta"', HUGE], ids=["expression", "number"])
def test_sweep_rejects_a_literal_too_large_for_a_double(capsys, tmp_path, component):
    # Inside an expression or as a bare number, the literal is an input
    # error (exit 2), not a traceback that would exit 1.
    tpl = tmp_path / "tpl.json"
    tpl.write_text(
        '{"dimension": 2, "initial": [[[1, 0], [0, 0]], [[%s, 0], [1, 0]]], '
        '"final": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}' % component
    )
    code, out, err = run(capsys, ["sweep", str(tpl), "--start", "0", "--stop", "1", "--steps", "2"])
    assert code == 2 and out == "" and "template expression" in err


def test_check_rejects_an_amplitude_too_large_for_a_double(capsys, tmp_path):
    # Exit 1 would read as Infeasible; an unreadable amplitude exits 2.
    big = tmp_path / "big.json"
    big.write_text('{"states": [[[%s, 0], [0, 0]], [[0, 0], [1, 0]]]}' % HUGE)
    code, out, err = run(capsys, ["check", str(big), fx("plus_pair.json")])
    assert (code, out) == (2, "") and "fit a double" in err


#: 100,000 unclosed brackets: deeper than the JSON reader can recurse.
DEEP = "[" * 100_000


def test_check_rejects_a_document_nested_too_deeply(capsys, tmp_path):
    # The reader's RecursionError is an input error (exit 2), not an exit 1
    # that would read as Infeasible.
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    code, out, err = run(capsys, ["check", str(deep), fx("plus_pair.json")])
    assert (code, out) == (2, "") and "nested too deeply" in err


def test_sweep_rejects_a_template_nested_too_deeply(capsys, tmp_path):
    tpl = tmp_path / "tpl.json"
    tpl.write_text('{"dimension": 2, "initial": ' + DEEP)
    code, out, err = run(capsys, ["sweep", str(tpl), "--start", "0", "--stop", "1", "--steps", "2"])
    assert (code, out) == (2, "") and "nested too deeply" in err


@pytest.mark.parametrize(
    "first_pair, message",
    [
        # JSON true/false are not the numbers 1 and 0, as in state documents.
        ("[true, 0]", "must be a number or string, got True"),
        ("[1]", "lists of [re, im] pairs"),
        ('{"re": 1, "im": 0}', "lists of [re, im] pairs"),
    ],
    ids=["boolean", "short", "object"],
)
def test_sweep_rejects_a_malformed_amplitude(capsys, tmp_path, first_pair, message):
    tpl = tmp_path / "tpl.json"
    tpl.write_text(
        '{"dimension": 2, "initial": [[%s, [0, 0]], [[0, 0], [1, 0]]], '
        '"final": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}' % first_pair
    )
    code, out, err = run(capsys, ["sweep", str(tpl), "--start", "0", "--stop", "1", "--steps", "2"])
    assert (code, out) == (2, "") and message in err


def test_gen_invalid_dimensions_exit_2(capsys):
    code, _, _ = run(capsys, ["gen", "2", "3", "--mode", "independent", "--seed", "0"])
    assert code == 2


def test_gen_unitary_image_preserves_gram(capsys):
    code, out, _ = run(
        capsys,
        ["gen", "2", "2", "--mode", "unitary_image", "--base", fx("plus_pair.json"), "--seed", "4"],
    )
    assert code == 0
    from detchan import gram

    image = ser.state_set_from_obj(json.loads(out))
    base = ser.state_set_from_obj(json.loads(Path(fx("plus_pair.json")).read_text()))
    np.testing.assert_allclose(gram(image), gram(base), atol=1e-12)


def test_gen_output_reloads_and_regenerates(capsys, tmp_path):
    out_file = tmp_path / "set.json"
    code, _, _ = run(
        capsys, ["gen", "3", "2", "--mode", "independent", "--seed", "11", "--out", str(out_file)]
    )
    assert code == 0
    first = out_file.read_bytes()
    code, _, _ = run(
        capsys, ["gen", "3", "2", "--mode", "independent", "--seed", "11", "--out", str(out_file)]
    )
    assert code == 0
    assert out_file.read_bytes() == first
    ser.state_set_from_obj(json.loads(first))
