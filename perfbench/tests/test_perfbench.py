"""Self-tests of the benchmark: generator truth, checker, tracer, smoke runs.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import json
import shutil
from dataclasses import replace
import subprocess
import sys

import numpy as np
import pytest

import checks
import instances as inst
import worker
from conftest import BENCH, ROOT
from tracer import KERNELS, Tracer

import detchan
import numpy.linalg

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# ---------------------------------------------------------------- generator

def test_pools_are_seeded():
    a, b = inst.check_pool(5), inst.check_pool(5)
    assert all(np.array_equal(x.initial, y.initial) and np.array_equal(x.final, y.final)
               for x, y in zip(a, b))
    assert not np.array_equal(a[0].initial, inst.check_pool(6)[0].initial)


def test_check_pool_truth():
    pool = inst.check_pool(1)
    assert [i.kind for i in pool].count(inst.FEASIBLE) == len(pool) // 2
    for instance in pool:
        assert np.allclose(np.linalg.norm(instance.initial, axis=1), 1.0, atol=1e-13)
        mu = inst.ratio_matrix(instance.initial, instance.final)
        lowest = np.linalg.eigvalsh((mu + mu.conj().T) / 2)[0]
        if instance.kind == inst.FEASIBLE:
            assert lowest > inst.ALPHA - 1e-9
        elif instance.kind == inst.INFEASIBLE:
            checks.certify(instance)
            off = ~np.eye(len(mu), dtype=bool)
            assert np.min(np.abs(mu[off])) > 1.2
        else:
            w = np.linalg.eigvalsh(inst.gram(instance.initial))
            assert int(np.sum(w > 1e-9)) == inst.CHECK_RANK


# ---------------------------------------------------------------- checker

def test_checker_accepts_truth_and_rejects_contradictions():
    checker = checks.Checker()
    pool = inst.check_pool(2)
    for kind in (inst.FEASIBLE, inst.INFEASIBLE, inst.DEPENDENT):
        instance = next(i for i in pool if i.kind == kind)
        truth = checks.certify(instance)
        report = detchan.feasibility_check(detchan.StateSet.from_vectors(instance.initial),
                                           detchan.StateSet.from_vectors(instance.final))
        assert checker.feasibility(truth, report) is None
        wrong_verdict = "Feasible" if kind == inst.INFEASIBLE else "Infeasible"
        assert checker.feasibility(truth, replace(report, verdict=wrong_verdict))
        shifted = replace(report, min_eigenvalue=report.min_eigenvalue + 0.1)
        assert checker.feasibility(truth, shifted)
        flipped = replace(report, initial_independent=not truth.independent)
        assert checker.feasibility(truth, flipped)
        if kind == inst.INFEASIBLE:
            n = len(instance.initial)
            assert len(report.violating_pairs) == n * (n - 1) // 2
            # An audit that drops its records, or misreports one, is caught.
            assert checker.feasibility(truth, replace(report, violating_pairs=()))
            first = replace(report.violating_pairs[0], initial_overlap=0.5)
            pairs = (first,) + report.violating_pairs[1:]
            assert checker.feasibility(truth, replace(report, violating_pairs=pairs))
        else:
            flagged = (detchan.feasibility.PairOverlap(0, 1, 0.5, 0.4, True),)
            assert checker.feasibility(truth, replace(report, violating_pairs=flagged))


def test_checker_rejects_wrong_channel_output():
    rng = np.random.default_rng(0)
    kraus = inst.random_kraus(rng, 4, 2)
    state = inst.well_conditioned_rows(rng, 1, 4)[0]
    rho = np.einsum("kij,j,l,kml->im", kraus, state, state.conj(), kraus.conj())
    good = {"matrix": inst.pairs(rho), "purity": float(np.real(np.trace(rho @ rho)))}
    checker = checks.Checker()
    assert checker.cli_apply(kraus, state, 0, json.dumps(good)) is None
    bad = dict(good, matrix=inst.pairs(rho * 1.001))
    assert checker.cli_apply(kraus, state, 0, json.dumps(bad))


def test_checker_rejects_wrong_unitary():
    instance = inst.roundtrip_pool(1)[0]
    assert instance.kind == inst.UNITARY
    a = detchan.StateSet.from_vectors(instance.initial)
    b = detchan.StateSet.from_vectors(instance.final)
    rec = detchan.coherence_roundtrip(a, b, instance.coefficients)
    assert checks.Checker().roundtrip(instance, rec) is None
    u = rec.test.extracted_unitary
    assert checks.unitary_problem(instance, u @ inst.haar_unitary(np.random.default_rng(1), len(u)))
    assert checks.law_problem(instance, rec.probe.output_coefficients[::-1])


# ---------------------------------------------------------------- tracer

def bindings():
    """Every detchan module attribute, the linalg kernels and class initializers."""
    snap = {(name, attr): value
            for name, module in sys.modules.items() if name.startswith("detchan")
            for attr, value in vars(module).items()}
    snap.update({("numpy.linalg", k): getattr(numpy.linalg, k) for k in KERNELS})
    snap.update({(cls.__name__, "__init__"): cls.__init__
                 for cls in (detchan.StateSet, detchan.KrausSet)})
    return snap


def test_tracer_restores_every_original():
    import detchan.cli  # noqa: F401  (cli and serialize bind names too)

    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert detchan.feasibility.gram is not before[("detchan.states", "gram")]
        assert detchan.gram is detchan.feasibility.gram
        assert numpy.linalg.eigh is not before[("numpy.linalg", "eigh")]
    finally:
        tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def span_counts(tracer, root):
    """Per-name span counts under each span called ``root``, averaged."""
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s[0] == root]
    counts = {}
    for i, span in enumerate(spans):
        parent = span[3]
        while parent >= 0 and parent not in roots:
            parent = spans[parent][3]
        if parent >= 0:
            counts[span[0]] = counts.get(span[0], 0) + 1
    return {k: v / len(roots) for k, v in counts.items()}


def test_trace_reproduces_spectral_call_counts():
    instance = inst.feasible(np.random.default_rng(4), 16, 16)
    a = detchan.StateSet.from_vectors(instance.initial)
    b = detchan.StateSet.from_vectors(instance.final)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation(0):
            detchan.feasibility_check(a, b)
        with tracer.operation(1):
            detchan.synthesize(a, b)
    finally:
        tracer.restore()
    # synthesize runs a feasibility_check of its own: two checks in all.
    check = span_counts(tracer, "feasibility.feasibility_check")
    synth = span_counts(tracer, "synthesis.synthesize")
    assert (check["kernel.eigh"], check["states.gram"]) == (3, 6)
    assert (synth["kernel.eigh"], synth["kernel.cond"]) == (6, 2)
    calls, self_ns = tracer.totals()
    assert calls["feasibility.feasibility_check"] == 2
    assert all(v >= 0 for v in self_ns.values())


# ---------------------------------------------------------------- runs

def test_metric_lists_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == worker.END_TO_END
    assert layers == worker.LAYER_UNITS
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(worker.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0
        assert "error_rate     0 share" in proc.stdout


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("check_n128", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
