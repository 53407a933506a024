import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from detchan import DEFAULT_PURITY_TOL, StateSet, cli, synthesis
from detchan import serialize as ser
from helpers import (
    DOC,
    ERROR_CASES,
    FIXTURES,
    FREE_UNDETERMINED,
    FRESH_ENV,
    GOLDEN,
    GOLDEN_CASES,
    SWEEP_ARGV,
    assert_sweep_near_golden,
    count_calls,
    feasible_pair,
    fx,
    matches_golden,
    tally,
)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- golden files


def test_golden_table_names_every_golden_file_once():
    assert sorted(name for _, _, name in GOLDEN_CASES) == sorted(os.listdir(GOLDEN))


@pytest.mark.parametrize("argv, expect_code, golden", GOLDEN_CASES)
def test_golden_outputs_and_exit_codes(capsys, argv, expect_code, golden):
    code, out, _ = run(capsys, argv)
    assert code == expect_code
    assert matches_golden(out, golden)
    # byte-identical on a second run
    code2, out2, _ = run(capsys, argv)
    assert code2 == code and out2 == out


def console(argv, cwd):
    """``argv`` run in a fresh process with warnings raised as errors: through
    the installed `detchan` script when there is one, else `python -m
    detchan.cli`, importing the package under test."""
    script = shutil.which("detchan")
    command = [script] if script else [sys.executable, "-W", "error", "-m", "detchan.cli"]
    env = {**FRESH_ENV, "PYTHONWARNINGS": "error"}
    return subprocess.run(command + argv, env=env, cwd=cwd, capture_output=True)


#: How many console-entry-point processes run at once.
CONSOLE_PROCESSES = 2


@pytest.fixture(scope="module")
def console_runs(request, tmp_path_factory):
    """Per selected console-entry-point test id, the directory its fresh
    process runs in and a future of its ``console`` result.  Every one is
    queued on first use, in test order, and ``CONSOLE_PROCESSES`` run at once."""
    runs = {}
    with ThreadPoolExecutor(CONSOLE_PROCESSES) as pool:
        for item in request.session.items:
            if item.name.startswith("test_console_entry_point"):
                params, cwd = item.callspec.params, tmp_path_factory.mktemp("console")
                argv = params["argv"]
                if "document" in params:
                    argv = error_argv(cwd, argv, params["document"])
                runs[item.nodeid] = cwd, pool.submit(console, argv, cwd)
        yield runs
        pool.shutdown(cancel_futures=True)


@pytest.mark.parametrize("argv, expect_code, golden", GOLDEN_CASES)
def test_console_entry_point_reproduces_the_goldens(
    request, console_runs, argv, expect_code, golden
):
    # The same bytes and exit code, and nothing on stderr.
    done = console_runs[request.node.nodeid][1].result()
    assert (done.returncode, done.stderr.decode()) == (expect_code, "")
    assert matches_golden(done.stdout, golden)


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
    assert matches_golden(out, "sweep_cos.csv")


def test_only_synth_fingerprints_its_sets(capsys, monkeypatch):
    # sweep and coherence build channels that they never write out, so
    # they hash no state set; synth writes both fingerprints.  Every output
    # on a pure input comes from the one reader, _pure_output: once per
    # Feasible sweep point (25 of 50), per probe, per synth state (N = 2)
    # and per apply on a state document; apply_channel never runs.
    counts = tally(monkeypatch)
    code, out, _ = run(capsys, SWEEP_ARGV)
    assert code == 0
    assert matches_golden(out, "sweep_cos.csv")
    assert counts["_pure_output"] == 25
    assert run(capsys, SUBCOMMAND_ARGV["coherence"])[0] == 0
    assert counts["fingerprint"] == 0
    assert counts["_pure_output"] == 26
    assert run(capsys, SUBCOMMAND_ARGV["synth"])[0] == 0
    assert counts["fingerprint"] == 2
    assert counts["_pure_output"] == 28
    assert run(capsys, SUBCOMMAND_ARGV["apply"])[0] == 0
    assert (counts["_pure_output"], counts["apply_channel"]) == (29, 0)


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
    feasible = run(capsys, check)[1]
    assert matches_golden(feasible, "check_feasible.json")
    loose = set()
    for argv, expect_code, golden in GOLDEN_CASES + GOLDEN_CASES[::-1]:
        code, out, _ = run(capsys, argv)
        assert code == expect_code
        assert matches_golden(out, golden)
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
    probe = (
        "import detchan, detchan.cli; "
        "assert detchan.cli._build_parser.cache_info().currsize == 0"
    )
    subprocess.run([sys.executable, "-c", probe], check=True, env=FRESH_ENV)


#: Run in a fresh interpreter: the modules detchan adds to those numpy loads,
#: after import and one check, then after one `detchan check`, one `apply`,
#: one `coherence` and one `sweep`, and one `synth`.
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
with contextlib.redirect_stdout(io.StringIO()):
    assert detchan.cli.main(["apply", sys.argv[3], sys.argv[4]]) == 0
after_apply = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    assert detchan.cli.main(["coherence", *sys.argv[5:7], "--coeffs", "1,1"]) == 0
    sweep = ["sweep", sys.argv[7], "--start", "0", "--stop", "1", "--steps", "3"]
    assert detchan.cli.main(sweep) == 0
after_sweep = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    assert detchan.cli.main(["synth", *sys.argv[5:7]]) == 0
after_synth = set(sys.modules) - before
import json
loaded = [first, after_check, after_apply, after_sweep, after_synth]
print(json.dumps([sorted(modules) for modules in loaded]))
"""


def test_startup_imports_only_what_the_first_call_runs():
    argv = [sys.executable, "-c", STARTUP_PROBE, fx("plus_pair.json"), fx("target_09.json"),
            fx("kraus_measure2.json"), fx("plus_state.json"), fx("basis2.json"),
            fx("swapped_basis.json"), fx("sweep_template.json")]
    out = subprocess.run(argv, check=True, env=FRESH_ENV, capture_output=True, text=True).stdout
    first, after_check, after_apply, after_sweep, after_synth = map(set, json.loads(out))
    assert {"detchan.feasibility", "detchan.cli"} <= first
    assert not first & {"detchan.coherence", "detchan.synthesis", "detchan.serialize",
                        "argparse", "hashlib"}
    assert "detchan.serialize" in after_check
    assert not after_check & {"detchan.coherence", "detchan.synthesis", "hashlib"}
    # apply reads a purity, which synthesis defines beside the density helpers.
    assert "detchan.synthesis" in after_apply and "detchan.coherence" not in after_apply
    # coherence and sweep build channels but hash no set; synth writes fingerprints.
    assert "detchan.coherence" in after_sweep and "hashlib" not in after_sweep
    assert "hashlib" in after_synth


# ---------------------------------------------------------------- --out files


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, ["check", fx("plus_pair.json"), fx("target_09.json"), "--out", str(out_file)]
    )
    assert code == 0 and out == ""
    assert matches_golden(out_file.read_bytes(), "check_feasible.json")


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


def test_synth_total_probability_matches_per_operator_loop(capsys, tmp_path):
    # Each state's sum_k |<psi2|A_k|psi1>|^2 and fidelity
    # <psi2| sum_k A_k |psi1><psi1| A_k^dag |psi2> that synth reports, against
    # per-operator loops over the Kraus operators it writes, for a random
    # feasible pair whose channel has more than one operator.
    initial, final, _ = feasible_pair(np.random.default_rng(5), 4)
    paths = []
    for name, s in [("initial", initial), ("final", final)]:
        path = tmp_path / f"{name}.json"
        path.write_text(ser.dumps(ser.state_set_to_obj(s)))
        paths.append(str(path))
    code, out, _ = run(capsys, ["synth", *paths])
    assert code == 0
    doc = json.loads(out)
    ops = list(ser.kraus_set_from_obj(doc).operators)
    assert len(ops) > 1
    records = doc["verification"]["states"]
    for record, psi1, psi2 in zip(records, initial.states, final.states, strict=True):
        expected = sum(abs(psi2.conj() @ (op @ psi1)) ** 2 for op in ops)
        assert abs(record["total_probability"] - expected) <= 1e-12
        rho = sum(op @ np.outer(psi1, psi1.conj()) @ op.conj().T for op in ops)
        assert abs(record["fidelity"] - np.real(psi2.conj() @ rho @ psi2)) <= 1e-12


# ---------------------------------------------------------------- flags

SUBCOMMAND_ARGV = {
    "check": ["check", fx("plus_pair.json"), fx("target_09.json")],
    "synth": ["synth", fx("basis2.json"), fx("target_09.json")],
    "apply": ["apply", fx("kraus_measure2.json"), fx("plus_state.json")],
    "coherence": ["coherence", fx("basis2.json"), fx("swapped_basis.json"), "--coeffs", "1,1"],
    "sweep": ["sweep", fx("sweep_template.json"), "--start", "0", "--stop", "1", "--steps", "2"],
    "gen": ["gen", "2", "2"],
}
README = Path(__file__).resolve().parents[1] / "README.md"
#: Per subcommand, the flags its row of README's CLI table lists.
README_FLAGS = {
    command: set(re.findall(r"--[a-z-]+", flags))
    for command, flags in re.findall(r"^\| `(\w+)` +\|(.*)\|$", README.read_text("utf-8"), re.M)
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
    if flag in README_FLAGS[command]:
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == value
    else:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
def test_subcommand_help_lists_exactly_the_flags_of_its_readme_row(capsys, command):
    listed = set(re.findall(r"--[a-z][a-z-]*", help_text(capsys, [command, "--help"])))
    assert listed - {"--help"} == README_FLAGS[command]


def test_root_help_names_the_six_subcommands_of_the_readme_table(capsys):
    choices = re.search(r"\{([a-z,]+)\}", help_text(capsys, ["--help"])).group(1)
    assert sorted(choices.split(",")) == sorted(README_FLAGS) == sorted(SUBCOMMAND_ARGV)


def test_purity_tol_default_is_the_library_default():
    args = cli._build_parser().parse_args(SUBCOMMAND_ARGV["coherence"])
    assert args.purity_tol == DEFAULT_PURITY_TOL


# ---------------------------------------------------------------- error paths


def error_argv(tmp_path, argv, document):
    """An ``ERROR_CASES`` argv with its document written to a file, and an
    ``--out`` file in ``tmp_path`` that the error must not create."""
    path = tmp_path / "input.json"
    if document is not None:
        path.write_text(document)
    return [str(path) if arg == DOC else arg for arg in argv] + ["--out", str(tmp_path / "out")]


def assert_error_outcome(tmp_path, code, out, err, expect_code, reason):
    assert (code, out) == (expect_code, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and reason in err, err
    assert not (tmp_path / "out").exists()


ERROR_ROWS = pytest.mark.parametrize(
    "argv, document, expect_code, reason", ERROR_CASES.values(), ids=list(ERROR_CASES)
)


@pytest.mark.filterwarnings("error")
@ERROR_ROWS
def test_error_outcomes(capsys, tmp_path, argv, document, expect_code, reason):
    # The exit code, nothing on stdout or in --out, and one stderr line that
    # gives the reason; a warning raised on the way fails the row.
    code, out, err = run(capsys, error_argv(tmp_path, argv, document))
    assert_error_outcome(tmp_path, code, out, err, expect_code, reason)


@ERROR_ROWS
def test_console_entry_point_reports_each_error(
    request, console_runs, argv, document, expect_code, reason
):
    cwd, future = console_runs[request.node.nodeid]
    done = future.result()
    out, err = done.stdout.decode(), done.stderr.decode()
    assert_error_outcome(cwd, done.returncode, out, err, expect_code, reason)


@pytest.mark.parametrize("name", ["unparseable", "count", "nan", "support"])
def test_coherence_rejects_bad_coefficients(capsys, monkeypatch, name):
    # The library's coefficient checks, the only copy, run before any Gram
    # work; test_error_outcomes checks each row's outcome.
    counts = tally(monkeypatch)
    argv, _, expect_code, _ = ERROR_CASES[f"coherence-{name}"]
    assert run(capsys, argv)[0] == expect_code
    assert not counts


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
    # eigvalsh, whose last bits at N >= 3 may differ between LAPACK builds,
    # so it is compared within 1e-12, not byte for byte.
    counts = tally(monkeypatch)
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


@pytest.mark.parametrize(
    "expression, theta, value",
    [("pi", 0.5, math.pi), ("-theta", 0.5, -0.5), ("+cos(pi / 3)", 0.0, math.cos(math.pi / 3)),
     ("2 ** -theta", 1.0, 0.5)],
)
def test_template_grammar_reads_pi_and_unary_signs(expression, theta, value):
    # README lists pi and unary signs among the forms a template may use.
    assert cli._compile_component(expression, "theta")(theta) == value


def test_sweep_with_pi_and_signs_reproduces_the_golden_sweep(capsys, tmp_path):
    # sweep_template.json with cos(theta) written as -(-cos(theta + 0 * pi))
    # and sin(theta) as +sin(theta): exact rewrites, so the same bytes.
    tpl = json.loads((FIXTURES / "sweep_template.json").read_text())
    tpl["final"][1] = [["-(-cos(theta + 0 * pi))", 0], ["+sin(theta)", 0]]
    path = tmp_path / "tpl.json"
    path.write_text(json.dumps(tpl))
    code, out, _ = run(capsys, [SWEEP_ARGV[0], str(path), *SWEEP_ARGV[2:]])
    assert code == 0
    assert matches_golden(out, "sweep_cos.csv")


def test_sweep_of_a_scaled_row_matches_the_unscaled_sweep(capsys, tmp_path):
    # cos(theta) and sin(theta) times 1e200 square past the largest double,
    # and times 1e-200 below the smallest, so normalizing divides that row by
    # its largest modulus first: the same states to rounding, hence the same
    # verdicts and numbers to 1e-12.
    tpl = json.loads((FIXTURES / "sweep_template.json").read_text())
    path = tmp_path / "tpl.json"
    for scale in ("1e200", "1e-200"):
        tpl["final"][1] = [[f"{scale}*cos(theta)", 0], [f"{scale}*sin(theta)", 0]]
        path.write_text(json.dumps(tpl))
        code, out, err = run(capsys, [SWEEP_ARGV[0], str(path), *SWEEP_ARGV[2:]])
        assert (code, err) == (0, "")
        assert_sweep_near_golden(out)


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
