import numpy as np
import pytest

from detchan import (
    DimensionMismatchError,
    IllConditionedError,
    KrausSet,
    NotFeasibleError,
    StateSet,
    apply_channel,
    build_ratio_matrix,
    choi_output_trace,
    kraus_to_choi,
    random_unitary,
    state_to_density,
    synthesize,
    transform_report,
    validate_density,
    verify_completeness,
)
from detchan.numerics import frobenius
from helpers import count_calls, feasible_pair

INV_SQRT2 = 2**-0.5


def zero_plus():
    return StateSet.from_vectors([[1, 0], [INV_SQRT2, INV_SQRT2]])


def cos09_final():
    return StateSet.from_vectors([[1, 0], [0.9, np.sqrt(0.19)]])


def measurement_channel(d=2, initial=None, final=None):
    ops = [np.zeros((d, d), dtype=complex) for _ in range(d)]
    for k in range(d):
        ops[k][k, k] = 1.0
    return KrausSet.from_operators(ops, initial=initial, final=final)


def reorder_gauge(ks, w):
    """Same channel with factor C @ w: operators A'_m = sum_k w[k, m] A_k."""
    ops = [
        sum(w[k, m] * ks.operators[k] for k in range(ks.kraus_count))
        for m in range(w.shape[1])
    ]
    return KrausSet.from_operators(ops)


# ---------------------------------------------------------------- synthesize


def test_identity_channel_on_orthonormal_basis():
    basis = StateSet.from_vectors(np.eye(3))
    ks = synthesize(basis, basis)
    assert ks.kraus_count == 1
    np.testing.assert_allclose(ks.operators[0], np.eye(3), atol=1e-12)
    np.testing.assert_allclose(ks.c_factor, np.ones((3, 1)), atol=1e-12)


def test_orthonormal_initial_gives_d_operators():
    basis = StateSet.from_vectors(np.eye(2))
    final = cos09_final()
    ks = synthesize(basis, final)
    assert ks.kraus_count == 2
    # channel equals {|psi2_k><k|} as a map (compare Choi matrices,
    # operator lists are gauge-redundant)
    reference = KrausSet.from_operators(
        [np.outer(final.states[k], np.eye(2)[k]) for k in range(2)]
    )
    assert frobenius(kraus_to_choi(ks) - kraus_to_choi(reference)) <= 1e-9


def test_full_pipeline_cos09():
    initial = zero_plus()
    final = cos09_final()
    ks = synthesize(initial, final)
    assert ks.kraus_count == 2
    assert verify_completeness(ks) <= 1e-9
    for rec in transform_report(ks, initial, final):
        assert rec.fidelity >= 1.0 - 1e-9
        assert rec.total_probability == pytest.approx(1.0, abs=1e-9)


def test_synthesize_refuses_infeasible():
    initial = zero_plus()
    final = StateSet.from_vectors([[1, 0], [0.5, np.sqrt(0.75)]])
    with pytest.raises(NotFeasibleError) as err:
        synthesize(initial, final)
    assert err.value.report is not None
    assert err.value.report.verdict == "Infeasible"


def test_synthesize_refuses_condition_above_a_lowered_ceiling():
    # Gram condition of this pair is about 400.
    s = StateSet.from_vectors([[1, 0], [np.cos(0.1), np.sin(0.1)]])
    assert synthesize(s, s).kraus_count == 1
    with pytest.raises(IllConditionedError):
        synthesize(s, s, cond_ceiling=100.0)


def test_spectral_work_per_synthesize(monkeypatch):
    # The feasibility check's ratio-matrix eigh and the PSD factor's eigh;
    # the duals take eigenvalues only, and no SVD-based condition number.
    initial, final, _ = feasible_pair(np.random.default_rng(16), 16)
    counts = count_calls(
        monkeypatch, (np.linalg, "eigh"), (np.linalg, "cond"), (np.linalg, "svd")
    )
    synthesize(initial, final)
    assert counts["eigh"] <= 2
    assert (counts["cond"], counts["svd"]) == (0, 0)


def test_per_state_action_matches_factor():
    rng = np.random.default_rng(2)
    initial, final, _ = feasible_pair(rng, 4)
    ks = synthesize(initial, final)
    c = ks.c_factor
    for k in range(c.shape[1]):
        images = initial.states @ ks.operators[k].T
        expected = c[:, k][:, None] * final.states
        assert np.max(np.linalg.norm(images - expected, axis=1)) <= 1e-9


def test_coefficient_products_reproduce_ratio_matrix():
    rng = np.random.default_rng(8)
    initial, final, _ = feasible_pair(rng, 5)
    ks = synthesize(initial, final)
    m = build_ratio_matrix(initial, final)
    recovered = np.zeros((5, 5), dtype=complex)
    records = transform_report(ks, initial, final)
    for j in range(5):
        for k in range(5):
            recovered[j, k] = np.sum(records[j].coefficients * records[k].coefficients.conj())
    np.testing.assert_allclose(recovered, m.entries, atol=1e-9)


def test_kraus_count_bounded_by_dimension():
    rng = np.random.default_rng(14)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        initial, final, m = feasible_pair(rng, n)
        ks = synthesize(initial, final)
        rank = int(np.sum(np.linalg.eigvalsh(m) > 1e-10 * np.max(np.linalg.eigvalsh(m))))
        assert ks.kraus_count == rank
        assert ks.kraus_count <= n


def test_non_spanning_synthesis_completes_identity():
    initial = StateSet.from_vectors([[1, 0, 0], [INV_SQRT2, INV_SQRT2, 0]])
    final = StateSet.from_vectors([[1, 0, 0], [0.9, np.sqrt(0.19), 0]])
    ks = synthesize(initial, final)
    assert ks.kraus_count <= 3
    assert verify_completeness(ks) <= 1e-9
    for rec in transform_report(ks, initial, final):
        assert rec.fidelity >= 1.0 - 1e-9


# ---------------------------------------------------------- verify_completeness


def test_completeness_of_single_unitary():
    u = random_unitary(3, seed=1)
    ks = KrausSet.from_operators([u])
    assert verify_completeness(ks) <= 1e-14


def test_deleting_an_operator_breaks_completeness():
    basis = StateSet.from_vectors(np.eye(2))
    ks = synthesize(basis, cos09_final())
    assert ks.kraus_count >= 2
    truncated = KrausSet.from_operators(list(ks.operators[:-1]))
    assert verify_completeness(truncated) > 1e-9


# ---------------------------------------------------------------- apply_channel


def test_identity_channel_preserves_rho():
    ks = KrausSet.from_operators([np.eye(2)])
    rho = np.array([[0.75, 0.1j], [-0.1j, 0.25]])
    np.testing.assert_allclose(apply_channel(ks, rho), rho, atol=1e-14)


def test_channel_maps_initial_projectors_to_final_projectors():
    rng = np.random.default_rng(23)
    initial, final, _ = feasible_pair(rng, 4)
    ks = synthesize(initial, final)
    for j in range(4):
        out = apply_channel(ks, state_to_density(initial.states[j]))
        assert frobenius(out - state_to_density(final.states[j])) <= 1e-9


def test_measurement_channel_dephases_plus_state():
    ks = measurement_channel(2)
    plus = np.full(2, INV_SQRT2)
    out = apply_channel(ks, state_to_density(plus))
    np.testing.assert_allclose(out, np.eye(2) / 2.0, atol=1e-14)


def test_apply_channel_dimension_mismatch():
    ks = KrausSet.from_operators([np.eye(2)])
    with pytest.raises(DimensionMismatchError):
        apply_channel(ks, np.eye(3) / 3.0)


def test_channel_output_is_valid_density():
    rng = np.random.default_rng(29)
    initial, final, _ = feasible_pair(rng, 3)
    ks = synthesize(initial, final)
    vec = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    vec = vec / np.linalg.norm(vec)
    out = apply_channel(ks, state_to_density(vec))
    validate_density(out)  # hermitian, unit trace, PSD


# ---------------------------------------------------------------- transform_report


def test_identity_channel_coefficients_are_one():
    s = zero_plus()
    ks = synthesize(s, s)
    assert ks.kraus_count == 1
    for rec in transform_report(ks, s, s):
        assert rec.coefficients[0] == pytest.approx(1.0, abs=1e-9)


def test_measurement_channel_coefficients_are_kronecker():
    basis = StateSet.from_vectors(np.eye(2))
    ks = measurement_channel(2, initial=basis, final=basis)
    for rec in transform_report(ks, basis, basis):
        expected = np.zeros(2)
        expected[rec.index] = 1.0
        np.testing.assert_allclose(rec.coefficients, expected, atol=1e-14)


# ---------------------------------------------------------------- Choi matrix


def test_choi_of_identity_channel():
    ks = KrausSet.from_operators([np.eye(2)])
    choi = kraus_to_choi(ks)
    w = np.linalg.eigvalsh(choi)
    np.testing.assert_allclose(np.sort(w), [0, 0, 0, 2], atol=1e-12)
    np.testing.assert_allclose(choi_output_trace(choi, 2), np.eye(2), atol=1e-12)


def test_choi_of_measurement_channel_is_diagonal():
    choi = kraus_to_choi(measurement_channel(2))
    np.testing.assert_allclose(choi, np.diag([1.0, 0, 0, 1.0]), atol=1e-14)


def test_choi_gauge_invariance():
    rng = np.random.default_rng(37)
    initial, final, _ = feasible_pair(rng, 3)
    ks = synthesize(initial, final)
    choi = kraus_to_choi(ks)
    for seed in range(5):
        w = random_unitary(ks.kraus_count, seed=seed)
        assert frobenius(kraus_to_choi(reorder_gauge(ks, w)) - choi) <= 1e-9


def test_choi_psd_and_trace_preserving_for_synthesized_channels():
    rng = np.random.default_rng(43)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        initial, final, _ = feasible_pair(rng, n)
        ks = synthesize(initial, final)
        choi = kraus_to_choi(ks)
        w = np.linalg.eigvalsh(choi)
        assert w[0] >= -1e-9 * max(1.0, w[-1])
        assert frobenius(choi_output_trace(choi, n) - np.eye(n)) <= 1e-9
