"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Randomized criteria
use >= 1000 seeded trials at desk scale (N, D <= 8); every tolerance is
fixed here, nothing is calibrated at runtime.
"""

import numpy as np
import pytest

from detchan import (
    FEASIBLE,
    UNITARY_RELATED,
    KrausSet,
    StateSet,
    coherence_probe,
    distinguishability_audit,
    feasibility_check,
    gram,
    kraus_to_choi,
    random_state_set,
    span_duals,
    state_to_density,
    synthesize,
    unitary_relation_test,
    verify_completeness,
)
from detchan import cli
from detchan.numerics import frobenius
from helpers import (
    bounded_complete_coefficients,
    descending_eig,
    feasible_pair,
    haar_unitary,
    pair_witness,
    sub_seed,
    subset_instance,
    transforms,
    well_conditioned_set,
)

INV_SQRT2 = 2**-0.5
N_TRIALS = 1000

_feasible_instances = None


def feasible_instances():
    """1000 seeded independent spanning pairs with PSD ratio matrix,
    N = D cycling 2..8, coefficient rank cycling over 1..N."""
    global _feasible_instances
    if _feasible_instances is None:
        rng = np.random.default_rng(987654321)
        out = []
        for i in range(N_TRIALS):
            n = 2 + i % 7
            k = 1 + (i // 7) % n
            out.append(feasible_pair(rng, n, k=k))
        _feasible_instances = out
    return _feasible_instances


def record(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status}{(' -- ' + detail) if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def test_criterion_01_sufficiency_roundtrip():
    failures = []
    for idx, (initial, final, _) in enumerate(feasible_instances()):
        report = feasibility_check(initial, final)
        if report.verdict != FEASIBLE:
            failures.append((idx, "verdict", report.verdict))
            continue
        ks = synthesize(initial, final)
        residual = verify_completeness(ks)
        if residual > 1e-9:
            failures.append((idx, "completeness", residual))
        for fidelity in transforms(ks, initial, final)[0]:
            if fidelity < 1.0 - 1e-9:
                failures.append((idx, "fidelity", fidelity))
    record(
        1,
        "sufficiency round-trip on PSD instances",
        not failures,
        f"{len(feasible_instances())} instances, failures: {failures[:3]}",
    )


def test_criterion_02_necessity_certificates():
    rng = np.random.default_rng(24680)
    checked = 0
    failures = []
    while checked < N_TRIALS:
        n = 2 + checked % 7
        initial = well_conditioned_set(rng, n, n)
        final = well_conditioned_set(rng, n, n)
        m = feasibility_check(initial, final).ratio_matrix
        if not m.fully_defined:
            continue
        w, _ = descending_eig(m.entries)
        min_eig = float(w[-1])
        if min_eig >= -1e-9 * max(1.0, float(np.max(np.abs(w)))):
            continue  # criterion targets instances where positivity fails
        checked += 1
        witness_negative = any(
            pair_witness(m, j, k) < 0.0
            for j in range(n)
            for k in range(j + 1, n)
        )
        audit_violation = any(p.violation for p in distinguishability_audit(initial, final))
        if not (min_eig < 0.0 or witness_negative or audit_violation):
            failures.append((checked, "no certificate"))
        if feasibility_check(initial, final).verdict == FEASIBLE:
            failures.append((checked, "claimed Feasible"))
    record(2, "necessity certificates on non-PSD instances", not failures, f"{checked} instances")


def test_criterion_03_two_state_closed_form():
    initial = StateSet.from_vectors([[1, 0], [INV_SQRT2, INV_SQRT2]])

    def final_for(theta):
        return StateSet.from_vectors([[1, 0], [np.cos(theta), np.sin(theta)]])

    def is_feasible(theta):
        return feasibility_check(initial, final_for(theta)).verdict == FEASIBLE

    mismatches = 0
    thetas = np.linspace(0.01, np.pi / 2 - 0.01, 10_000)
    for theta in thetas:
        mu = INV_SQRT2 / np.cos(theta)
        if abs(mu - 1.0) <= 1e-9:
            continue  # boundary band: either verdict accepted
        if is_feasible(float(theta)) != (mu < 1.0):
            mismatches += 1
    # flip location: bisect the bracketing grid interval down to 1e-9
    lo, hi = np.pi / 8, 3 * np.pi / 8  # feasible at lo, infeasible at hi
    assert is_feasible(lo) and not is_feasible(hi)
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if is_feasible(mid):
            lo = mid
        else:
            hi = mid
    flip_cos = np.cos(0.5 * (lo + hi))
    ok = mismatches == 0 and abs(flip_cos - 2**-0.5) <= 1e-6
    record(
        3,
        "two-state closed form over 10^4 grid",
        ok,
        f"mismatches={mismatches}, flip at cos={flip_cos:.9f}",
    )


def test_criterion_04_kraus_count_bound():
    failures = []
    for idx, (initial, final, m_target) in enumerate(feasible_instances()):
        ks = synthesize(initial, final)
        w = np.linalg.eigvalsh(m_target)
        rank = int(np.sum(w > 1e-10 * float(np.max(w))))
        if ks.kraus_count != rank or ks.kraus_count > initial.dimension:
            failures.append((idx, ks.kraus_count, rank))
    identity_counts = []
    for s in [
        StateSet.from_vectors(np.eye(4)),
        random_state_set(5, 5, 31415, mode="independent"),
    ]:
        identity_counts.append(synthesize(s, s).kraus_count)
    ok = not failures and identity_counts == [1, 1]
    record(
        4,
        "operator count equals ratio-matrix rank, at most D",
        ok,
        f"failures: {failures[:3]}, identity counts: {identity_counts}",
    )


def test_criterion_05_factor_gauge_invariance():
    rng = np.random.default_rng(1357)
    initial, final, _ = feasible_pair(rng, 5)
    ks = synthesize(initial, final)
    choi = kraus_to_choi(ks)
    worst = 0.0
    for seed in range(100):
        w = haar_unitary(ks.kraus_count, seed=seed)
        mixed = [
            sum(w[k, m] * ks.operators[k] for k in range(ks.kraus_count))
            for m in range(ks.kraus_count)
        ]
        worst = max(worst, frobenius(kraus_to_choi(KrausSet.from_operators(mixed)) - choi))
    record(5, "factor gauge invariance of the channel", worst <= 1e-9, f"max Choi diff {worst:.3e}")


def test_criterion_06_distinguishability_monotonicity():
    failures = 0
    for initial, final, _ in feasible_instances():
        for p in distinguishability_audit(initial, final):
            if p.final_overlap < p.initial_overlap - 1e-9:
                failures += 1
    record(6, "no pair becomes more distinguishable on feasible instances", failures == 0)


def test_criterion_07_purity_unitarity_equivalence():
    rng = np.random.default_rng(11235)
    disagreements = 0
    unitary_failures = []
    for i in range(10):
        n = 2 + i % 7
        base = well_conditioned_set(rng, n, n)
        image = random_state_set(n, n, sub_seed(rng), mode="unitary_image", base=base)
        ks = synthesize(base, image)
        rep = unitary_relation_test(base, image)
        if rep.verdict != UNITARY_RELATED:
            unitary_failures.append((i, "verdict"))
            continue
        u = rep.extracted_unitary
        if frobenius(u.conj().T @ u - np.eye(n)) > 1e-8:
            unitary_failures.append((i, "unitarity"))
        for j in range(n):
            mapped = u @ state_to_density(base.states[j]) @ u.conj().T
            if frobenius(mapped - state_to_density(image.states[j])) > 1e-8:
                unitary_failures.append((i, f"projector {j}"))
        for _ in range(100):
            q = bounded_complete_coefficients(rng, n)
            probe = coherence_probe(ks, base, q, purity_tol=1e-6, final=image)
            if probe.output_purity < 1.0 - 1e-6:
                unitary_failures.append((i, "purity", probe.output_purity))
            if probe.is_pure != (rep.verdict == UNITARY_RELATED):
                disagreements += 1
    decohering_failures = []
    for i in range(10):
        n = 2 + i % 7
        initial, final, _ = feasible_pair(rng, n, min_subdominant=0.05)
        ks = synthesize(initial, final)
        rep = unitary_relation_test(initial, final)
        if rep.verdict == UNITARY_RELATED:
            decohering_failures.append((i, "verdict"))
            continue
        for _ in range(100):
            q = bounded_complete_coefficients(rng, n)
            probe = coherence_probe(ks, initial, q, purity_tol=1e-6, final=final)
            if probe.output_purity > 1.0 - 1e-6:
                decohering_failures.append((i, "purity", probe.output_purity))
            if probe.is_pure != (rep.verdict == UNITARY_RELATED):
                disagreements += 1
    ok = not unitary_failures and not decohering_failures and disagreements == 0
    record(
        7,
        "purity preserved iff unitary-related (2000 probes)",
        ok,
        f"unitary {unitary_failures[:3]}, decohering {decohering_failures[:3]}, "
        f"disagreements {disagreements}",
    )


def test_criterion_08_subset_support_generalization():
    initial, final = subset_instance()
    assert feasibility_check(initial, final).verdict == FEASIBLE
    sub = unitary_relation_test(initial, final, support=[0, 1])
    full = unitary_relation_test(initial, final)
    ks = synthesize(initial, final)
    probe_sub = coherence_probe(ks, initial, [1, 1, 0], final=final)
    probe_full = coherence_probe(ks, initial, [1, 1, 1], final=final)
    ok = (
        sub.verdict == UNITARY_RELATED
        and full.verdict != UNITARY_RELATED
        and probe_sub.is_pure
        and not probe_full.is_pure
    )
    record(8, "unitary relation on a strict support subset", ok)


def test_criterion_09_dual_identity_resolution():
    rng = np.random.default_rng(192837)
    worst = 0.0
    for i in range(N_TRIALS):
        n = 2 + i % 7
        s = well_conditioned_set(rng, n, n)
        resolution = s.states.T @ span_duals(s).conj()
        worst = max(worst, frobenius(resolution - np.eye(n)))
    record(9, "reciprocal-state identity resolution", worst <= 1e-9, f"max residual {worst:.3e}")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    import pathlib

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    golden = pathlib.Path(__file__).parent / "golden"
    commands = [
        (["check", str(fixtures / "plus_pair.json"), str(fixtures / "target_09.json")],
         "check_feasible.json"),
        (["check", str(fixtures / "plus_pair.json"), str(fixtures / "target_half.json")],
         "check_infeasible.json"),
        (["check", str(fixtures / "equiangular_half.json"),
          str(fixtures / "equiangular_quarter.json")], "check_infeasible_all_pairs.json"),
        (["check", str(fixtures / "dependent_pair.json"), str(fixtures / "dependent_pair.json")],
         "check_dependent_pair.json"),
        (["synth", str(fixtures / "dependent_pair.json"), str(fixtures / "dependent_pair.json")],
         "synth_dependent_pair.json"),
        (["synth", str(fixtures / "basis2.json"), str(fixtures / "target_09.json")],
         "synth_basis_to_target.json"),
        (["apply", str(fixtures / "kraus_measure2.json"), str(fixtures / "plus_state.json")],
         "apply_measure_plus.json"),
        (["coherence", str(fixtures / "basis2.json"), str(fixtures / "swapped_basis.json"),
          "--coeffs", "1,1"], "coherence_unitary.json"),
        (["sweep", str(fixtures / "sweep_template.json"),
          "--start", "0.02", "--stop", "1.55", "--steps", "50"], "sweep_cos.csv"),
        (["gen", "2", "2", "--mode", "independent", "--seed", "7"], "gen_2x2_seed7.json"),
    ]
    ok = True
    details = []
    for argv, golden_name in commands:
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        second = capsys.readouterr().out
        expected = (golden / golden_name).read_text()
        if first != second:
            ok = False
            details.append(f"{golden_name}: nondeterministic")
        if first != expected:
            ok = False
            details.append(f"{golden_name}: differs from golden")
    record(10, "CLI golden files byte-identical", ok, "; ".join(details))
