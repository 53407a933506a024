"""Benchmark worker: one workload, measured in this process.

Started by run.py, which pins BLAS to one thread and puts the checkout's
``src`` first on the import path.  The worker builds the seeded inputs,
then drives the public API with one closed-loop caller: each operation is
issued only after the previous one returned and its output was checked.
Only the library call is inside the timed region; generation and checking
are not.  Fresh-interpreter set-up is timed through probe.py, and every
timing is calibrated against the machine-speed reference of calibrate.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

import instances as inst
from calibrate import NOMINAL_MS, Reference
from checks import VERDICT_BAND, Checker, certify
from tracer import Tracer

import detchan
import detchan.cli

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_RUNS = 7
VERDICTS = ("Feasible", "Infeasible", "NecessaryOnly", "Undetermined")
#: cli_n4 sweep: grid and size.
SWEEP_START, SWEEP_STOP, SWEEP_STEPS = 0.0, 1.55, 10
CLI_N = 4

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "success_rate": "share",
    "peak_rss_mb": "MB",
}


class Workload(NamedTuple):
    """A fixed cycle of (call, check) pairs plus what set-up probes need.

    ``tail_pct`` is the percentile ``op_ms_tail`` reports.  It is fixed per
    workload, so a faster or slower program reports the same statistic; it
    leaves dozens of samples beyond it in a 40-second run.
    """

    name: str
    calls: list
    sizes: dict
    probe_input: str
    tail_pct: float


def save_npz(path: Path, instance: inst.Instance) -> str:
    arrays = {"initial": instance.initial, "final": instance.final}
    if instance.coefficients is not None:
        arrays["coefficients"] = instance.coefficients
    np.savez(path, **arrays)
    return str(path)


def state_sets(instance: inst.Instance):
    return (detchan.StateSet.from_vectors(instance.initial),
            detchan.StateSet.from_vectors(instance.final))


def check_workload(seed: int, work: Path, checker: Checker) -> Workload:
    pool = inst.check_pool(seed)
    calls = []
    for instance in pool:
        truth = certify(instance)
        initial, final = state_sets(instance)
        calls.append((
            lambda a=initial, b=final: detchan.feasibility_check(a, b),
            lambda report, t=truth: checker.feasibility(t, report),
        ))
    kinds = Counter(i.kind for i in pool)
    sizes = {"N": inst.CHECK_N, "D": inst.CHECK_N, "dependent_rank": inst.CHECK_RANK,
             "pool": len(pool), "mix": dict(kinds)}
    return Workload("check_n128", calls, sizes, save_npz(work / "probe.npz", pool[0]), 90.0)


def roundtrip_workload(seed: int, work: Path, checker: Checker) -> Workload:
    pool = inst.roundtrip_pool(seed)
    calls = []
    for instance in pool:
        initial, final = state_sets(instance)
        calls.append((
            lambda a=initial, b=final, q=instance.coefficients: detchan.coherence_roundtrip(a, b, q),
            lambda rec, i=instance: checker.roundtrip(i, rec),
        ))
    mix = Counter(f"{i.kind}_n{i.size[0]}" for i in pool)
    sizes = {"N": [48, 64], "D": inst.ROUNDTRIP_D, "pool": len(pool), "mix": dict(mix)}
    return Workload("roundtrip_n64", calls, sizes, save_npz(work / "probe.npz", pool[0]), 90.0)


def cli_workload(seed: int, work: Path, checker: Checker) -> Workload:
    rng = np.random.default_rng([seed, CLI_N])
    n = CLI_N

    def pair(name, instance):
        paths = (str(work / f"{name}_initial.json"), str(work / f"{name}_final.json"))
        inst.write_json(paths[0], inst.state_set_doc(instance.initial))
        inst.write_json(paths[1], inst.state_set_doc(instance.final))
        return paths

    def channel(name, kraus, state):
        paths = (str(work / f"{name}_kraus.json"), str(work / f"{name}_state.json"))
        inst.write_json(paths[0], {
            "dimension": n, "operators": inst.pairs(kraus), "c_factor": None,
            "initial_fingerprint": "", "final_fingerprint": "",
        })
        inst.write_json(paths[1], inst.state_set_doc(state[None, :]))
        return paths

    feasible = [inst.feasible(rng, n, n) for _ in range(2)]
    infeasible = inst.infeasible(rng, n, n)
    dependent = inst.dependent(rng, n, n, n - 1)
    unitary = inst.unitary(rng, n, n)
    for instance in (unitary, feasible[1]):
        instance.coefficients = inst.complete_coefficients(rng, n)
    truths = {i.kind: certify(i) for i in (feasible[0], infeasible, dependent)}
    f0, f1 = pair("f0", feasible[0]), pair("f1", feasible[1])
    kraus = [inst.random_kraus(rng, n, k) for k in (2, 3)]
    states = [inst.well_conditioned_rows(rng, 1, n)[0] for _ in range(2)]
    k0, k1 = channel("k0", kraus[0], states[0]), channel("k1", kraus[1], states[1])

    doc, swept = inst.sweep_template(rng, n)
    template = str(work / "sweep.json")
    inst.write_json(template, doc)
    sweep_expected = []
    for theta in np.linspace(SWEEP_START, SWEEP_STOP, SWEEP_STEPS):
        mu = inst.ratio_matrix(inst.plane_rotation(swept.initial, theta), swept.final)
        min_eig = float(np.linalg.eigvalsh((mu + mu.conj().T) / 2.0)[0])
        if min_eig > VERDICT_BAND:
            verdicts = {"Feasible"}
        elif min_eig < -VERDICT_BAND:
            verdicts = {"Infeasible"}
        else:
            verdicts = {"Feasible", "Infeasible"}
        sweep_expected.append((float(theta), min_eig, verdicts))

    def coeffs(instance):
        return ",".join(repr(complex(z)) for z in instance.coefficients)

    spec = [
        (["check", *f0], lambda c, o: checker.cli_check(truths[inst.FEASIBLE], c, o)),
        (["synth", *f0], lambda c, o: checker.cli_synth(feasible[0], c, o)),
        (["apply", *k0], lambda c, o: checker.cli_apply(kraus[0], states[0], c, o)),
        (["coherence", *pair("u0", unitary), "--coeffs", coeffs(unitary)],
         lambda c, o: checker.cli_coherence(unitary, c, o)),
        (["check", *pair("i0", infeasible)], lambda c, o: checker.cli_check(truths[inst.INFEASIBLE], c, o)),
        (["synth", *f1], lambda c, o: checker.cli_synth(feasible[1], c, o)),
        (["apply", *k1], lambda c, o: checker.cli_apply(kraus[1], states[1], c, o)),
        (["coherence", *f1, "--coeffs", coeffs(feasible[1])],
         lambda c, o: checker.cli_coherence(feasible[1], c, o)),
        (["check", *pair("d0", dependent)], lambda c, o: checker.cli_check(truths[inst.DEPENDENT], c, o)),
        (["sweep", template, "--start", repr(SWEEP_START), "--stop", repr(SWEEP_STOP),
          "--steps", str(SWEEP_STEPS)],
         lambda c, o: checker.cli_sweep(sweep_expected, c, o)),
    ]
    calls = [(lambda argv=argv: run_cli(argv), with_stderr(check)) for argv, check in spec]
    probe_argv = work / "probe_argv.json"
    inst.write_json(probe_argv, spec[0][0])
    sizes = {"N": n, "D": n, "calls_per_cycle": len(spec),
             "mix": dict(Counter(argv[0] for argv, _ in spec)), "sweep_steps": SWEEP_STEPS}
    # A sweep is one call in ten and the slowest by far, so p90 would sit on
    # the edge between sweeps and the rest; p99 lies inside the sweeps.
    return Workload("cli_n4", calls, sizes, str(probe_argv), 99.0)


def run_cli(argv):
    """One in-process CLI call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = detchan.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def with_stderr(check):
    """Adapt a (code, stdout) check to run_cli results, quoting stderr on failure."""
    def checked(result):
        code, out, err = result
        problem = check(code, out)
        return f"{problem}; stderr: {err.strip()[:200]}" if problem and err else problem
    return checked


WORKLOADS = {
    "check_n128": check_workload,
    "roundtrip_n64": roundtrip_workload,
    "cli_n4": cli_workload,
}


# -------------------------------------------------------------------- set-up

class SetupProbes:
    """Fresh-interpreter set-up runs, spread evenly over the measuring window.

    The load other tenants put on the shared cores changes over seconds, so
    probes spaced through the run sample it the way the operations do.  One
    unmeasured probe first writes the bytecode caches, as an installed
    package would have them.
    """

    def __init__(self, workload: Workload, reference: Reference):
        self.cmd = [sys.executable, str(HERE / "probe.py"), workload.name, workload.probe_input]
        self.reference = reference
        #: (wall set-up s, calibrated set-up s, numpy import ms, detchan import ms)
        self.samples: list[tuple[float, float, float, float]] = []
        self.due: list[float] = []

    def start(self, seconds: float) -> None:
        self._run()
        self.samples.clear()
        now = time.perf_counter()
        self.due = [now + (k + 0.5) * seconds / SETUP_RUNS for k in range(SETUP_RUNS)]

    def poll(self) -> None:
        if self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self._run()

    def _run(self) -> None:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60, check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        wall = (rec["result_ns"] - spawn_ns - rec["load_ns"]) / 1e9
        self.samples.append((wall, wall * self.reference.scale(),
                             rec["numpy_import_ns"] / 1e6, rec["detchan_import_ns"] / 1e6))

    def medians(self) -> dict:
        for _ in self.due:  # probes the loop ended before
            self._run()
        self.due.clear()
        return {name: statistics.median(s[i] for s in self.samples) for i, name in enumerate(
            ("wall.setup_s", "setup_s", "setup.numpy_import_ms", "setup.detchan_import_ms"))}


# -------------------------------------------------------------------- loop

class Run:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.wall_ms: list[float] = []
        self.calibrated_ms: list[float] = []


def call_once(call, check, run: Run, traced=contextlib.nullcontext()) -> int | None:
    """One checked operation; returns its wall time in ns unless it raised.

    ``traced`` is entered around the library call only, not around the check.
    """
    run.attempted += 1
    try:
        with traced:
            start = time.perf_counter_ns()
            result = call()
            elapsed = time.perf_counter_ns() - start
    except Exception as exc:  # an unexpected library error is a failed operation
        run.failures.append(f"{type(exc).__name__}: {exc}")
        return None
    try:
        problem = check(result)
    except Exception as exc:  # malformed output the checker could not read
        problem = f"unreadable output ({type(exc).__name__}: {exc})"
    if problem:
        run.failures.append(problem)
    return elapsed


def closed_loop(workload: Workload, seconds: float, run: Run, start_index: int,
                reference: Reference, probes: SetupProbes, tracer: Tracer | None = None) -> int:
    """Issue operations back to back for ``seconds``; returns the next index.

    Reference runs and set-up probes that fall due run between operations,
    outside their timing.
    """
    calls = workload.calls
    i = start_index
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        call, check = calls[i % len(calls)]
        if tracer is None:
            elapsed = call_once(call, check, run)
        else:
            elapsed = call_once(call, check, run, tracer.operation(i))
        if elapsed is not None:
            run.wall_ms.append(elapsed / 1e6)
            run.calibrated_ms.append(elapsed / 1e6 * reference.scale())
        i += 1
        reference.poll()
        probes.poll()
    return i


def measure(workload: Workload, seconds: float, trace: int):
    """Warm up, then run the closed loop untraced; with ``trace`` the second
    half of the time runs traced, so both halves share one process state."""
    untraced, traced = Run(), Run()
    for call, check in workload.calls:  # warm-up: caches filled, outputs checked, not timed
        call_once(call, check, untraced)
    reference = Reference()
    reference.start()
    probes = SetupProbes(workload, reference)
    probes.start(seconds)
    tracer = None
    if not trace:
        closed_loop(workload, seconds, untraced, 0, reference, probes)
    else:
        i = closed_loop(workload, seconds / 2, untraced, 0, reference, probes)
        tracer = Tracer()
        tracer.install()
        try:
            closed_loop(workload, seconds / 2, traced, i, reference, probes, tracer)
        finally:
            tracer.restore()
    setup = probes.medians()
    setup["reference.ms"] = statistics.median(reference.all_ms)
    return untraced, traced, tracer, setup


def timing(run: Run, tail_pct: float, calibrated: bool = True) -> dict:
    """ops_per_s, op_ms_p50 and op_ms_tail of one run, calibrated or wall-clock."""
    latencies = sorted(run.calibrated_ms if calibrated else run.wall_ms)
    if not latencies:  # every operation raised
        return {"ops_per_s": 0.0, "op_ms_p50": 0.0, "op_ms_tail": 0.0}
    return {
        "ops_per_s": len(latencies) / (sum(latencies) / 1e3),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_tail": latencies[math.ceil(tail_pct / 100.0 * len(latencies)) - 1],
    }


# -------------------------------------------------------------------- report

def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "detchan": detchan.__file__,
    }


def per_layer(tracer: Tracer, setup: dict, checker: Checker, untraced: Run, traced: Run,
              tail_pct: float) -> dict:
    calls, self_ns = tracer.totals()
    counters = tracer.counters
    n_ops = len(traced.wall_ms)
    wall = timing(untraced, tail_pct, calibrated=False)
    metrics = {}
    for name in LAYER_METRICS:
        base, _, stat = name.rpartition(".")
        if name in setup:
            value = setup[name]
        elif base == "wall":
            value = wall[stat]
        elif stat == "calls":
            value = calls[base] / n_ops
        elif stat == "self_ms":
            value = self_ns[base] / 1e6 / n_ops
        elif name == "feasibility.distinguishability_audit.useful_share":
            records = counters["feasibility.distinguishability_audit.records"]
            value = counters["feasibility.distinguishability_audit.violating"] / records if records else 0.0
        elif name.startswith("feasibility.verdict."):
            value = checker.verdicts[stat] / (untraced.attempted + traced.attempted)
        elif name == "trace.overhead_share":
            value = 1.0 - (timing(traced, tail_pct)["ops_per_s"]
                           / timing(untraced, tail_pct)["ops_per_s"])
        else:
            value = counters[name] / n_ops
        metrics[name] = value
    return metrics


#: Per-layer metrics of the traced run, with units.  Every value is per
#: operation (a mean over the traced operations) unless it is a share, a
#: median over set-up probes or reference runs, or a ``wall.*`` figure.
#: The ``wall.*`` figures are the uncalibrated end-to-end timings of the
#: untraced half, and ``reference.ms`` is the machine-speed reference.
LAYER_UNITS = {
    "kernel.eigh.calls": "count", "kernel.eigh.self_ms": "ms",
    "kernel.cond.calls": "count", "kernel.solve.calls": "count",
    "kernel.svd.calls": "count", "kernel.lstsq.calls": "count",
    "states.gram.calls": "count", "states.linear_independence.calls": "count",
    "states.StateSet.calls": "count",
    "numerics.hermitian_eig.calls": "count", "numerics.psd_factor.self_ms": "ms",
    "states.span_duals.self_ms": "ms",
    "feasibility.distinguishability_audit.self_ms": "ms",
    "feasibility.distinguishability_audit.records": "count",
    "feasibility.distinguishability_audit.useful_share": "share",
    "feasibility.build_ratio_matrix.calls": "count",
    "feasibility.build_ratio_matrix.self_ms": "ms",
    "feasibility.feasibility_check.calls": "count",
    "feasibility.verdict.Feasible": "count", "feasibility.verdict.Infeasible": "count",
    "feasibility.verdict.NecessaryOnly": "count", "feasibility.verdict.Undetermined": "count",
    "synthesis.synthesize.self_ms": "ms",
    "synthesis.KrausSet.calls": "count", "synthesis.KrausSet.self_ms": "ms",
    "synthesis.verify_completeness.self_ms": "ms",
    "synthesis.apply_channel.calls": "count", "synthesis.apply_channel.self_ms": "ms",
    "numerics.as_complex_matrix.calls": "count",
    "synthesis.kraus_count": "count",
    "coherence.coherence_probe.self_ms": "ms",
    "coherence.unitary_relation_test.self_ms": "ms",
    "coherence.coherence_roundtrip.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "serialize.dumps.self_ms": "ms", "serialize.dumps.bytes": "bytes",
    "serialize.load_document.self_ms": "ms", "serialize.state_set_from_obj.self_ms": "ms",
    "setup.numpy_import_ms": "ms", "setup.detchan_import_ms": "ms",
    "trace.overhead_share": "share",
    "wall.setup_s": "s", "wall.ops_per_s": "1/s", "wall.op_ms_p50": "ms", "wall.op_ms_tail": "ms",
    "reference.ms": "ms",
}
LAYER_METRICS = tuple(LAYER_UNITS)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # One core for the operations, the reference and the set-up probes
    # (children inherit it), so the reference sees the load they see.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    checker = Checker()
    try:
        workload = WORKLOADS[args.workload](args.seed, work, checker)
        untraced, traced, tracer, setup = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = untraced.attempted + traced.attempted
    failures = untraced.failures + traced.failures
    tail_pct = workload.tail_pct
    calibrated = timing(untraced, tail_pct)
    wall = timing(untraced, tail_pct, calibrated=False)
    end_to_end = {
        "setup_s": setup["setup_s"],
        "ops_per_s": calibrated["ops_per_s"],
        "op_ms_p50": calibrated["op_ms_p50"],
        "op_ms_tail": calibrated["op_ms_tail"],
        "success_rate": 1.0 - len(failures) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "sizes": workload.sizes,
        "samples": {"timed_ops": len(untraced.wall_ms), "traced_ops": len(traced.wall_ms),
                    "setup_runs": SETUP_RUNS, "tail_percentile": tail_pct},
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "verdicts": {v: checker.verdicts[v] for v in VERDICTS},
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "wall": dict(wall, setup_s=setup["wall.setup_s"], reference_ms=setup["reference.ms"]),
    }
    if tracer is not None:
        record["per_layer"] = per_layer(tracer, setup, checker, untraced, traced, tail_pct)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print_summary(record)
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        metrics = {k: {"value": record["per_layer"][k], "unit": LAYER_UNITS[k]}
                   for k in LAYER_METRICS}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def print_summary(record: dict) -> None:
    env, samples, wall = record["env"], record["samples"], record["wall"]
    print(f"perfbench {record['workload']} seed={env['seed']} trace={record['trace']}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']} "
          f"(threads {env['blas_threads']}), nproc {env['nproc']}")
    print(f"  sizes: {json.dumps(record['sizes'])}")
    print(f"  samples: {samples['timed_ops']} timed ops, {samples['traced_ops']} traced ops, "
          f"{samples['setup_runs']} set-up runs")
    print(f"  timings calibrated to a {NOMINAL_MS:g} ms reference (measured median "
          f"{wall['reference_ms']:.4g} ms); wall-clock figures in brackets")
    e2e = record["end_to_end"]
    for name, unit in END_TO_END.items():
        note = f"  [{wall[name]:.6g}]" if name in wall else ""
        if name == "op_ms_tail":
            note += f"  (p{samples['tail_percentile']:g} of {samples['timed_ops']} samples)"
        print(f"  {name:<14} {e2e[name]:.6g} {unit}{note}")
    print(f"  {'error_rate':<14} {record['error_rate']:.6g} share  "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    print("  verdicts: " + ", ".join(f"{k} {v}" for k, v in record["verdicts"].items()))
    for failure in record["failures"]:
        print(f"  failure: {failure}")
    for name, value in record.get("per_layer", {}).items():
        print(f"  {name:<50} {value:.6g} {LAYER_UNITS[name]}")


if __name__ == "__main__":
    sys.exit(main())
