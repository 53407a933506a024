"""Independent output checks.

Every check recomputes what it needs with the benchmark's own numpy code
from the constructed instance; none calls back into the library.  A
check returns None when the output is right and a one-line reason when it
is not, and the caller counts the reason as a failed operation.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

import instances as inst

#: ||U^dag U - I||_F and per-state mapping residual of an extracted unitary.
UNITARY_TOL = 1e-8
#: max |r_j r_k^* - q_j q_k^* mu_jk| for a pure output.
LAW_TOL = 1e-8
#: A decohering output must have purity at most 1 - PURITY_GAP.
PURITY_GAP = 1e-6
#: Completeness and per-state residuals of a synthesized Kraus set.
KRAUS_TOL = 1e-9
#: Entrywise agreement of parsed numbers with the benchmark's own values.
VALUE_TOL = 1e-9
#: Sweep points whose own ratio-matrix minimum eigenvalue lies within this
#: band of zero may carry either verdict.
VERDICT_BAND = 1e-6
#: Reported smallest ratio-matrix eigenvalue against the benchmark's own,
#: relative to max(1, spectral radius).
EIG_TOL = 1e-8
#: Each pair of an infeasible instance gains at least this much overlap
#: modulus from final to initial, far above the library's flagging tolerance;
#: no pair of a feasible or dependent instance gains more than ROUNDING.
AUDIT_MARGIN = 1e-6
ROUNDING = 1e-12

#: Verdicts a feasibility check may return for each kind of instance.
#: Dependent feasible sets may be reported as NecessaryOnly today.
ACCEPTED_VERDICTS = {
    inst.FEASIBLE: {"Feasible"},
    inst.INFEASIBLE: {"Infeasible"},
    inst.DEPENDENT: {"Feasible", "NecessaryOnly"},
}
EXIT_BY_VERDICT = {"Feasible": 0, "Infeasible": 1, "NecessaryOnly": 3, "Undetermined": 3}


@dataclass(frozen=True)
class Truth:
    """What a feasibility check must report on one constructed instance."""

    kind: str
    n: int
    #: Sorted flat indices j * N + k (j < k) of the pairs the audit must flag,
    #: and their overlap moduli |G1| and |G2|.
    violating: np.ndarray
    initial_overlap: np.ndarray
    final_overlap: np.ndarray
    min_eigenvalue: float
    radius: float
    #: Both sets independent (feasible, infeasible) or both dependent.
    independent: bool


def certify(instance: inst.Instance) -> Truth:
    """Assert the truth the construction promises and return it (set-up only)."""
    g1 = np.abs(inst.gram(instance.initial))
    g2 = np.abs(inst.gram(instance.final))
    n = len(g1)
    upper = np.triu_indices(n, 1)
    gain = (g1 - g2)[upper]
    mu = inst.ratio_matrix(instance.initial, instance.final)
    if instance.kind == inst.INFEASIBLE:
        j, k = instance.witness
        if not abs(mu[j, k]) > 1.2:
            raise AssertionError(f"witness ({j}, {k}) has |mu| = {abs(mu[j, k]):.3f}, not > 1.2")
        if not gain.min() > AUDIT_MARGIN:
            raise AssertionError(f"an infeasible pair gains only {gain.min():.3e} overlap")
        violating = upper[0] * n + upper[1]
    else:
        if not gain.max() <= ROUNDING:
            raise AssertionError(f"a {instance.kind} pair gains {gain.max():.3e} overlap")
        violating = np.empty(0, dtype=np.intp)
    eig = np.linalg.eigvalsh((mu + mu.conj().T) / 2.0)
    return Truth(instance.kind, n, violating, g1.flat[violating], g2.flat[violating],
                 float(eig[0]), float(np.max(np.abs(eig))), instance.kind != inst.DEPENDENT)


def feasibility_problem(truth: Truth, verdict: str, min_eig, pairs: list,
                        independent: tuple[bool, bool]) -> str | None:
    """Check one feasibility report; ``pairs`` are its violating pairs as
    (j, k, initial overlap, final overlap)."""
    if verdict not in ACCEPTED_VERDICTS[truth.kind]:
        return f"{truth.kind} instance reported {verdict}"
    if independent != (truth.independent, truth.independent):
        return f"{truth.kind} instance reported independence {independent}"
    eig_tol = EIG_TOL * max(1.0, truth.radius)
    if min_eig is None or not abs(min_eig - truth.min_eigenvalue) <= eig_tol:
        return f"min_eigenvalue {min_eig!r}, expected {truth.min_eigenvalue!r}"
    got = np.array(pairs, dtype=float).reshape(-1, 4)
    index = got[:, 0].astype(np.intp) * truth.n + got[:, 1].astype(np.intp)
    got = got[np.argsort(index)]
    if not np.array_equal(np.sort(index), truth.violating):
        return f"audit flagged {len(index)} pairs, expected {len(truth.violating)}"
    if len(index) and max(np.max(np.abs(got[:, 2] - truth.initial_overlap)),
                          np.max(np.abs(got[:, 3] - truth.final_overlap))) > VALUE_TOL:
        return "audit overlap moduli differ from |G1| and |G2|"
    return None


def complex_array(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


class Checker:
    def __init__(self):
        #: Verdicts seen in checked outputs, by name.
        self.verdicts: Counter = Counter()

    # ------------------------------------------------------------ library calls

    def feasibility(self, truth: Truth, report) -> str | None:
        self.verdicts[report.verdict] += 1
        pairs = [(p.j, p.k, p.initial_overlap, p.final_overlap) for p in report.violating_pairs]
        return feasibility_problem(truth, report.verdict, report.min_eigenvalue, pairs,
                                   (report.initial_independent, report.final_independent))

    def roundtrip(self, instance: inst.Instance, rec) -> str | None:
        expected = "UnitaryRelated" if instance.kind == inst.UNITARY else "Decohering"
        if (rec.probe.verdict, rec.test.verdict, rec.agree) != (expected, expected, True):
            return (f"{instance.kind} instance gave probe {rec.probe.verdict}, "
                    f"test {rec.test.verdict}, agree {rec.agree}")
        if expected == "Decohering":
            if not rec.probe.output_purity <= 1.0 - PURITY_GAP:
                return f"decohering output has purity {rec.probe.output_purity!r}"
            return None
        return (unitary_problem(instance, rec.test.extracted_unitary)
                or law_problem(instance, rec.probe.output_coefficients))

    # ------------------------------------------------------------ cli

    def cli_check(self, truth: Truth, code: int, out: str) -> str | None:
        doc = json.loads(out)
        verdict = doc["verdict"]
        self.verdicts[verdict] += 1
        if code != EXIT_BY_VERDICT.get(verdict):
            return f"check exit code {code} for verdict {verdict}"
        pairs = [(p["j"], p["k"], p["initial_overlap"], p["final_overlap"])
                 for p in doc["violating_pairs"]]
        return feasibility_problem(truth, verdict, doc["min_eigenvalue"], pairs,
                                   (doc["initial_independent"], doc["final_independent"]))

    def cli_synth(self, instance: inst.Instance, code: int, out: str) -> str | None:
        if code != 0:
            return f"synth exit code {code}"
        doc = json.loads(out)
        ops = complex_array(doc["operators"])
        if doc["verification"]["kraus_count"] != len(ops) or len(ops) > instance.size[1]:
            return f"synth reported {doc['verification']['kraus_count']} of {len(ops)} operators"
        return kraus_problem(instance, ops)

    def cli_apply(self, kraus: np.ndarray, state: np.ndarray, code: int, out: str) -> str | None:
        if code != 0:
            return f"apply exit code {code}"
        doc = json.loads(out)
        rho = np.outer(state, state.conj())
        expected = np.einsum("kij,jl,kml->im", kraus, rho, kraus.conj())
        got = complex_array(doc["matrix"])
        if got.shape != expected.shape or np.max(np.abs(got - expected)) > VALUE_TOL:
            return "apply output differs from sum_k A rho A^dag"
        if abs(doc["purity"] - np.real(np.trace(expected @ expected))) > VALUE_TOL:
            return f"apply purity {doc['purity']!r} is wrong"
        return None

    def cli_coherence(self, instance: inst.Instance, code: int, out: str) -> str | None:
        doc = json.loads(out)
        unitary = instance.kind == inst.UNITARY
        expected = "UnitaryRelated" if unitary else "Decohering"
        if (code, doc["probe_verdict"], doc["test_verdict"], doc["agree"]) != (
            0 if unitary else 1, expected, expected, True
        ):
            return f"coherence on {instance.kind} instance: exit {code}, {doc['test_verdict']}"
        if not unitary:
            return None
        return (unitary_problem(instance, complex_array(doc["unitary"]))
                or law_problem(instance, complex_array(doc["output_coefficients"])))

    def cli_sweep(self, expected: list[tuple[float, float, set]], code: int, out: str) -> str | None:
        if code != 0:
            return f"sweep exit code {code}"
        rows = list(csv.DictReader(io.StringIO(out)))
        if len(rows) != len(expected):
            return f"sweep printed {len(rows)} rows, expected {len(expected)}"
        for row, (theta, min_eig, verdicts) in zip(rows, expected):
            self.verdicts[row["verdict"]] += 1
            if float(row["theta"]) != theta:
                return f"sweep theta {row['theta']} != {theta!r}"
            if row["verdict"] not in verdicts:
                return f"sweep at theta {theta!r} reported {row['verdict']}"
            if abs(float(row["min_eigenvalue"]) - min_eig) > VALUE_TOL:
                return f"sweep min_eigenvalue {row['min_eigenvalue']} != {min_eig!r}"
            if (row["uniform_purity"] != "") != (row["verdict"] == "Feasible"):
                return f"sweep uniform_purity {row['uniform_purity']!r} for {row['verdict']}"
        return None


def unitary_problem(instance: inst.Instance, u) -> str | None:
    if u is None:
        return "unitary-related instance came back without a unitary"
    d = u.shape[0]
    unitarity = np.linalg.norm(u.conj().T @ u - np.eye(d))
    images = instance.initial @ u.T
    overlaps = np.sum(instance.final.conj() * images, axis=1)
    mapping = np.max(np.linalg.norm(images - overlaps[:, None] * instance.final, axis=1))
    if not (unitarity <= UNITARY_TOL and mapping <= UNITARY_TOL):
        return f"extracted unitary residuals {unitarity:.3e} (U^dag U) and {mapping:.3e} (map)"
    return None


def law_problem(instance: inst.Instance, r) -> str | None:
    """Coherence law r_j r_k^* = q_j q_k^* mu_jk for the normalized input."""
    if r is None:
        return "pure output came back without coefficients"
    q = instance.coefficients / np.linalg.norm(instance.coefficients @ instance.initial)
    mu = inst.ratio_matrix(instance.initial, instance.final)
    residual = np.max(np.abs(np.outer(r, r.conj()) - np.outer(q, q.conj()) * mu))
    if not residual <= LAW_TOL:
        return f"coherence law residual {residual:.3e}"
    return None


def kraus_problem(instance: inst.Instance, ops: np.ndarray) -> str | None:
    d = ops.shape[1]
    completeness = np.linalg.norm(np.einsum("kji,kjl->il", ops.conj(), ops) - np.eye(d))
    images = np.einsum("kij,nj->kni", ops, instance.initial)  # A_k psi1_n
    coeff = np.einsum("ni,kni->kn", instance.final.conj(), images)
    off_target = np.max(np.linalg.norm(images - coeff[..., None] * instance.final, axis=2))
    probability = np.max(np.abs(np.sum(np.abs(coeff) ** 2, axis=0) - 1.0))
    if max(completeness, off_target, probability) > KRAUS_TOL:
        return (f"Kraus residuals: completeness {completeness:.3e}, "
                f"off-target {off_target:.3e}, probability {probability:.3e}")
    return None
