import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detchan.feasibility
from detchan import (
    DimensionMismatchError,
    FEASIBLE,
    INFEASIBLE,
    NECESSARY_ONLY,
    PairOverlap,
    SizeMismatchError,
    StateSet,
    UNDETERMINED,
    UndefinedEntryError,
    build_ratio_matrix,
    distinguishability_audit,
    feasibility_check,
    gram,
    linear_independence,
    psd_factor,
    random_state_set,
    synthesize,
    witness_value,
)
from helpers import count_calls, feasible_pair, sub_seed

INV_SQRT2 = 2**-0.5


def zero_plus():
    return StateSet.from_vectors([[1, 0], [INV_SQRT2, INV_SQRT2]])


def cos_family_final(cos_theta):
    return StateSet.from_vectors([[1, 0], [cos_theta, np.sqrt(1 - cos_theta**2)]])


# ------------------------------------------------------------ build_ratio_matrix


def test_ratio_matrix_identity_pair_is_all_ones():
    s = zero_plus()
    m = build_ratio_matrix(s, s)
    assert m.fully_defined
    np.testing.assert_allclose(m.entries, np.ones((2, 2)), atol=1e-12)


def test_ratio_matrix_orthonormal_initial_is_identity():
    basis = StateSet.from_vectors(np.eye(2))
    final = StateSet.from_vectors([[1, 0], [0.6, 0.8]])
    m = build_ratio_matrix(basis, final)
    assert m.fully_defined
    np.testing.assert_allclose(m.entries, np.eye(2), atol=1e-12)


def test_ratio_matrix_cos_half_offdiagonal():
    m = build_ratio_matrix(zero_plus(), cos_family_final(0.5))
    assert m.entries[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_ratio_matrix_undefined_entries():
    # final pair orthogonal, initial pair not: forbidden
    initial = zero_plus()
    final = StateSet.from_vectors(np.eye(2))
    m = build_ratio_matrix(initial, final)
    assert not m.fully_defined
    assert m.undefined_nonzero_pairs == ((0, 1),)
    # both orthogonal: unconstrained
    m2 = build_ratio_matrix(final, final)
    assert m2.free_pairs == ((0, 1),)
    assert m2.undefined_nonzero_pairs == ()


def test_ratio_matrix_shape_errors():
    two = zero_plus()
    one = StateSet.from_vectors([[1, 0]])
    three_dim = StateSet.from_vectors([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(SizeMismatchError):
        build_ratio_matrix(two, one)
    with pytest.raises(DimensionMismatchError):
        build_ratio_matrix(two, three_dim)


def test_ratio_matrix_trace_equals_n():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        initial, final, _ = feasible_pair(rng, n)
        m = build_ratio_matrix(initial, final)
        assert np.trace(m.entries).real == pytest.approx(n, abs=1e-12)
        assert np.trace(m.entries).imag == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------ feasibility_check


def test_orthonormal_initial_always_feasible():
    basis = StateSet.from_vectors(np.eye(2))
    final = StateSet.from_vectors([[1, 0], [0.6, 0.8]])
    report = feasibility_check(basis, final)
    assert report.verdict == FEASIBLE


def test_cos_half_infeasible_with_closed_form_eigenvalue():
    report = feasibility_check(zero_plus(), cos_family_final(0.5))
    assert report.verdict == INFEASIBLE
    assert report.min_eigenvalue == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)
    assert len(report.violating_pairs) == 1
    pair = report.violating_pairs[0]
    assert (pair.j, pair.k) == (0, 1)
    assert pair.initial_overlap == pytest.approx(INV_SQRT2, abs=1e-12)
    assert pair.final_overlap == pytest.approx(0.5, abs=1e-12)


def test_identity_transformation_is_feasible():
    s = zero_plus()
    report = feasibility_check(s, s)
    assert report.verdict == FEASIBLE


def test_identity_on_orthonormal_basis_is_feasible():
    # all off-diagonal ratios are 0/0; equal Grams resolve them
    basis = StateSet.from_vectors(np.eye(3))
    report = feasibility_check(basis, basis)
    assert report.verdict == FEASIBLE


def test_dependent_initial_caps_at_necessary_only():
    s = StateSet.from_vectors([[1, 0], [1, 0]])
    report = feasibility_check(s, s)
    assert report.verdict == NECESSARY_ONLY
    assert not report.initial_independent


def test_dependent_initial_with_violation_is_infeasible():
    initial = StateSet.from_vectors([[1, 0], [1, 0]])
    final = zero_plus()
    report = feasibility_check(initial, final)
    assert report.verdict == INFEASIBLE


def test_span_growth_is_infeasible():
    # dependent initial, independent final with an orthogonal pair whose
    # initial counterpart is orthogonal too: positivity alone is silent,
    # the span comparison is not
    initial = StateSet.from_vectors([[1, 0, 0], [0, 1, 0], [INV_SQRT2, INV_SQRT2, 0]])
    final = StateSet.from_vectors(
        [[1, 0, 0], [0, 1, 0], [INV_SQRT2, INV_SQRT2, 0]]
    )
    # same sets: NecessaryOnly (dependent, grams equal)
    assert feasibility_check(initial, final).verdict == NECESSARY_ONLY
    grown = StateSet.from_vectors(
        [[1, 0, 0], [0, 1, 0], [0.5, 0.5, INV_SQRT2]]
    )
    report = feasibility_check(initial, grown)
    assert report.verdict == INFEASIBLE


def test_undetermined_free_entries():
    initial = StateSet.from_vectors(
        [[1, 0, 0], [0, 1, 0], [1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3)]]
    )
    final = StateSet.from_vectors(
        [[1, 0, 0], [0, 1, 0], [INV_SQRT2, INV_SQRT2, 0]]
    )
    # pair (0,1) is 0/0; the remaining ratios have modulus sqrt(2/3) < 1
    report = feasibility_check(initial, final)
    assert report.verdict == UNDETERMINED
    assert report.min_eigenvalue is None


def test_unitary_image_pairs_are_feasible():
    rng = np.random.default_rng(77)
    for _ in range(10):
        n, d = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        n = min(n, d)
        base = random_state_set(d, n, sub_seed(rng), mode="independent")
        image = random_state_set(d, n, sub_seed(rng), mode="unitary_image", base=base)
        assert feasibility_check(base, image).verdict == FEASIBLE


def test_n2_closed_form_criterion():
    initial = zero_plus()
    for cos_theta in np.linspace(0.05, 0.999, 97):
        report = feasibility_check(initial, cos_family_final(cos_theta))
        mu = INV_SQRT2 / cos_theta
        expected = FEASIBLE if mu <= 1.0 + 1e-9 else INFEASIBLE
        assert report.verdict == expected
        # det M = 1 - |mu|^2 and min eigenvalue 1 - |mu|
        assert report.min_eigenvalue == pytest.approx(1.0 - mu, abs=1e-12)


def test_phase_gauge_invariance_of_verdict():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        initial, final, _ = feasible_pair(rng, n)
        report = feasibility_check(initial, final)
        phases1 = np.exp(2j * np.pi * rng.random(n))
        phases2 = np.exp(2j * np.pi * rng.random(n))
        rotated_initial = StateSet(n, phases1[:, None] * initial.states)
        rotated_final = StateSet(n, phases2[:, None] * final.states)
        rotated = feasibility_check(rotated_initial, rotated_final)
        assert rotated.verdict == report.verdict
        assert rotated.min_eigenvalue == pytest.approx(report.min_eigenvalue, abs=1e-9)


# ---------------------------------------------------- distinguishability_audit


def test_audit_identity_pair_no_violations():
    s = zero_plus()
    assert all(not p.violation for p in distinguishability_audit(s, s))


def test_audit_orthonormal_initial_never_violates():
    basis = StateSet.from_vectors(np.eye(2))
    final = StateSet.from_vectors([[1, 0], [0.6, 0.8]])
    assert all(not p.violation for p in distinguishability_audit(basis, final))


def test_audit_flags_cos_half_pair():
    records = distinguishability_audit(zero_plus(), cos_family_final(0.5))
    assert len(records) == 1
    assert records[0].violation
    assert records[0].initial_overlap > records[0].final_overlap


def test_feasible_implies_no_violations():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        initial, final, _ = feasible_pair(rng, n)
        assert feasibility_check(initial, final).verdict == FEASIBLE
        assert all(not p.violation for p in distinguishability_audit(initial, final))


# ---------------------------------------------------------------- witness_value


def test_witness_on_identity_matrix():
    basis = StateSet.from_vectors(np.eye(3))
    final = StateSet.from_vectors(
        [[1, 0, 0], [0.6, 0.8, 0], [0.6, 0, 0.8]]
    )
    m = build_ratio_matrix(basis, final)
    for j in range(3):
        for k in range(3):
            if j != k:
                assert witness_value(m, j, k) == pytest.approx(1.0, abs=1e-12)


def test_witness_on_all_ones():
    s = zero_plus()
    m = build_ratio_matrix(s, s)
    assert witness_value(m, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_witness_flags_cos_half():
    m = build_ratio_matrix(zero_plus(), cos_family_final(0.5))
    assert witness_value(m, 0, 1) == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)


def test_witness_equals_one_minus_modulus_everywhere():
    # two code paths: explicit quadratic form vs modulus formula
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        initial = random_state_set(n, n, sub_seed(rng), mode="independent")
        final = random_state_set(n, n, sub_seed(rng), mode="independent")
        m = build_ratio_matrix(initial, final)
        for j in range(n):
            for k in range(n):
                if j != k and m.defined[j, k]:
                    expected = 1.0 - abs(m.entries[j, k])
                    assert witness_value(m, j, k) == pytest.approx(expected, abs=1e-12)


def test_witness_undefined_entry_raises():
    initial = zero_plus()
    final = StateSet.from_vectors(np.eye(2))
    m = build_ratio_matrix(initial, final)
    with pytest.raises(UndefinedEntryError):
        witness_value(m, 0, 1)
    with pytest.raises(ValueError):
        witness_value(m, 1, 1)


# ------------------------------------------------------ feasibility_check branches


def unit_rows(vectors):
    return StateSet.from_vectors(vectors, normalize=True)


FREE_EQUAL_NOTE = (
    "initial and final Gram matrices coincide: a unitary channel realizes the "
    "transformation (unconstrained entries completed with 1)"
)
DEPENDENT_3 = [[1, 0, 0], [0, 1, 0], [1, 1, 0]]

# (initial, final, verdict, min_eigenvalue, notes, flagged pairs).  The
# expected figures are exact, as in the CLI goldens: a change in any bit
# is a change of behaviour.
BRANCH_CASES = {
    "undefined_nonzero_pairs": (
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]],
        np.eye(4),
        INFEASIBLE,
        None,
        ("orthogonal final pairs with non-orthogonal initial counterparts: (0, 2), (1, 3)",),
        [(0, 2), (1, 3)],
    ),
    "final_span_larger": (
        DEPENDENT_3,
        [[1, 0, 0], [0, 1, 0], [0.5, 0.5, INV_SQRT2]],
        INFEASIBLE,
        None,
        (
            "initial set is linearly dependent (rank 2 of 3)",
            "final states span 3 dimensions, initial states only 2; "
            "a linear map cannot enlarge the span",
        ),
        [(0, 2), (1, 2)],
    ),
    "defined_psd": (
        [[1, 0], [1, 1]],
        [[1, 0], [0.9, np.sqrt(0.19)]],
        FEASIBLE,
        0.21432579868161394,
        (),
        [],
    ),
    "defined_not_psd": (
        [[1, 0], [1, 1]],
        [[1, 0], [0.5, np.sqrt(0.75)]],
        INFEASIBLE,
        -0.41421356237309465,
        ("ratio matrix has negative eigenvalue -4.142136e-01",),
        [(0, 1)],
    ),
    "defined_dependent": (
        [[1, 0], [1, 1], [1, 1j]],
        [[1j, 0], [-1, -1], [1, 1j]],
        NECESSARY_ONLY,
        -3.922544539841766e-16,
        (
            "initial set is linearly dependent (rank 2 of 3)",
            "final set is linearly dependent (rank 2 of 3)",
            "ratio matrix is PSD, which is necessary but not known sufficient "
            "for a dependent initial set",
        ),
        [],
    ),
    "free_equal_grams_independent": (
        np.eye(3),
        [[0, 1, 0], [0, 0, 1j], [1, 0, 0]],
        FEASIBLE,
        -4.531559571436954e-16,
        (FREE_EQUAL_NOTE,),
        [],
    ),
    "free_equal_grams_dependent": (
        DEPENDENT_3,
        DEPENDENT_3,
        NECESSARY_ONLY,
        -4.531559571436954e-16,
        (
            "initial set is linearly dependent (rank 2 of 3)",
            "final set is linearly dependent (rank 2 of 3)",
            FREE_EQUAL_NOTE,
            "verdict capped at NecessaryOnly because the initial set is dependent",
        ),
        [],
    ),
    "free_with_violation": (
        [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
        [[1, 0, 0], [0, 1, 0], [2, 1, 0]],
        INFEASIBLE,
        None,
        (
            "final set is linearly dependent (rank 2 of 3)",
            "a final pair is more distinguishable than its initial counterpart",
        ),
        [(1, 2)],
    ),
    "free_undetermined": (
        [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
        UNDETERMINED,
        None,
        (
            "final set is linearly dependent (rank 2 of 3)",
            "1 state pair(s) leave the ratio matrix underdetermined; "
            "no positive completion attempted",
        ),
        [],
    ),
    "single_state": ([[0.6, 0.8j]], [[1, 0]], FEASIBLE, 1.0, (), []),
    # The Grams agree within tol, but the (0, 1) ratio is 0.4, so the
    # completion with 1 of the free (0, 2) pair is not PSD (min eigenvalue
    # -0.228): no Kraus set realizes it, and the verdict may not be
    # Feasible.  x = 0.4 completes it PSD, so Infeasible would be wrong too.
    "free_equal_grams_not_psd": (
        [[1, 0, 0], [0.6e-9, 0.5, np.sqrt(0.75)], [0, 1, 0]],
        [[1, 0, 0], [1.5e-9, 0.5, np.sqrt(0.75)], [0, 1, 0]],
        UNDETERMINED,
        None,
        (
            "1 state pair(s) leave the ratio matrix underdetermined; "
            "no positive completion attempted",
        ),
        [],
    ),
}


@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_feasibility_check_branches(case):
    initial, final, verdict, min_eig, notes, flagged = BRANCH_CASES[case]
    a, b = unit_rows(initial), unit_rows(final)
    report = feasibility_check(a, b)
    assert report.verdict == verdict
    assert report.notes == notes
    assert report.min_eigenvalue == min_eig
    assert [(p.j, p.k) for p in report.violating_pairs] == flagged
    assert report.violating_pairs == tuple(p for p in distinguishability_audit(a, b) if p.violation)


@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_only_feasible_reports_keep_the_certifying_spectrum(case):
    # The spectrum reconstructs the matrix the verdict was read from: the
    # ratio matrix, or its completion with 1 when the Grams coincide (the
    # free_equal_grams_independent case, whose 0/0 pairs are completed).
    # Synthesis factors exactly that spectrum.
    a, b = unit_rows(BRANCH_CASES[case][0]), unit_rows(BRANCH_CASES[case][1])
    report = feasibility_check(a, b)
    if report.verdict != FEASIBLE:
        assert report.spectrum is None
        return
    m = report.ratio_matrix
    assert bool(m.free_pairs) == (case == "free_equal_grams_independent")
    certified = np.where(m.defined, m.entries, 1.0)
    w, v = report.spectrum
    assert np.all(np.diff(w) <= 0) and report.min_eigenvalue == w[-1]
    assert not w.flags.writeable and not v.flags.writeable
    np.testing.assert_allclose((v * w) @ v.conj().T, certified, atol=1e-12)
    np.testing.assert_array_equal(synthesize(a, b).c_factor, psd_factor(certified))


def test_feasible_spectrum_reconstructs_random_ratio_matrices():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        initial, final, _ = feasible_pair(rng, n)
        report = feasibility_check(initial, final)
        assert report.verdict == FEASIBLE
        w, v = report.spectrum
        np.testing.assert_allclose(
            (v * w) @ v.conj().T, report.ratio_matrix.entries, atol=1e-12
        )


@st.composite
def orthogonality_instances(draw):
    """Pairs of state sets with exactly orthogonal pairs forced in.

    Each state lives on a random nonempty set of basis directions, so
    states with disjoint supports are orthogonal; the initial set may
    repeat its first state, which makes it dependent.  The final set is
    drawn the same way, or is a unitary image of the initial set (equal
    Grams, same orthogonal pairs), or pulls each initial state towards one
    common vector on its own support (same orthogonal pairs, larger
    overlaps), or is the initial set of such a pulled pair.
    """
    d = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=1, max_value=d + 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def draw_rows():
        masks = draw(st.lists(st.integers(min_value=1, max_value=2**d - 1), min_size=n, max_size=n))
        on = (np.array(masks)[:, None] >> np.arange(d)) & 1
        return on, gaussian(n, d) * on

    on, rows = draw_rows()
    if n > 1 and draw(st.booleans()):
        on[-1], rows[-1] = on[0], 1j * rows[0]
    initial = unit_rows(rows)
    mode = draw(st.sampled_from(["drawn", "unitary", "pulled", "pushed"]))
    if mode == "drawn":
        return initial, unit_rows(draw_rows()[1])
    if mode == "unitary":
        u = np.linalg.qr(gaussian(d, d))[0]
        return initial, StateSet(d, initial.states @ u.T)
    pull = draw(st.sampled_from([0.5, 2.0, 8.0]))
    pulled = unit_rows(initial.states + pull * gaussian(1, d) * on)
    return (initial, pulled) if mode == "pulled" else (pulled, initial)


def loop_reference(a, b, tol=1e-9):
    """Audit records and undefined pairs, one pair at a time."""
    g1, g2 = np.abs(gram(a)), np.abs(gram(b))
    audit, nonzero, free = [], [], []
    for j in range(a.n):
        for k in range(j + 1, a.n):
            m1, m2 = float(g1[j, k]), float(g2[j, k])
            audit.append(PairOverlap(j, k, m1, m2, m1 > m2 + tol))
            if m2 <= tol:
                (nonzero if m1 > tol else free).append((j, k))
    return tuple(audit), tuple(nonzero), tuple(free)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(orthogonality_instances())
def test_feasibility_check_agrees_with_public_pieces(instance):
    a, b = instance
    report = feasibility_check(a, b)
    audit, nonzero, free = loop_reference(a, b)
    assert distinguishability_audit(a, b) == audit
    assert report.violating_pairs == tuple(p for p in audit if p.violation)
    assert report.initial_independent == linear_independence(a)
    assert report.final_independent == linear_independence(b)
    m = build_ratio_matrix(a, b)
    assert (m.undefined_nonzero_pairs, m.free_pairs) == (nonzero, free)
    if m.undefined_nonzero_pairs:
        pairs = ", ".join(f"({j}, {k})" for j, k in m.undefined_nonzero_pairs)
        assert report.verdict == INFEASIBLE and report.notes[-1].endswith(pairs)
    if report.verdict == UNDETERMINED:
        assert report.notes[-1].startswith(f"{len(m.free_pairs)} state pair(s)")


def test_spectral_work_per_check(monkeypatch):
    # One Gram product per set, one shifted Cholesky per set certifying its
    # full rank and one full eigendecomposition of the ratio matrix.  Only a
    # dependent set, which no Cholesky can certify, takes an eigenvalues-only
    # solve for its rank.
    initial, final, _ = feasible_pair(np.random.default_rng(16), 16)
    dependent = unit_rows(DEPENDENT_3)
    counts = count_calls(
        monkeypatch,
        (detchan.feasibility, "gram"),
        (np.linalg, "eigvalsh"),
        (np.linalg, "eigh"),
        (np.linalg, "cholesky"),
    )
    assert feasibility_check(initial, final).verdict == FEASIBLE
    assert (counts["gram"], counts["cholesky"], counts["eigvalsh"], counts["eigh"]) == (2, 2, 0, 1)
    counts.clear()
    assert feasibility_check(dependent, dependent).verdict == NECESSARY_ONLY
    assert (counts["gram"], counts["cholesky"], counts["eigvalsh"], counts["eigh"]) == (2, 2, 2, 1)
