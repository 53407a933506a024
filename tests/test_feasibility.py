import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import detchan.feasibility
import detchan.synthesis
from detchan import (
    DEFAULT_TOL,
    DimensionMismatchError,
    FEASIBLE,
    INFEASIBLE,
    IllConditionedError,
    NotFeasibleError,
    SizeMismatchError,
    StateSet,
    UNDETERMINED,
    build_ratio_matrix,
    distinguishability_audit,
    feasibility_check,
    gram,
    linear_independence,
    psd_factor,
    random_state_set,
    synthesize,
    transform_report,
)
from detchan.feasibility import _check
from helpers import (
    FREE_UNDETERMINED,
    channel_residuals,
    count_calls,
    embedded,
    feasible_pair,
    haar_unitary,
    pair_witness,
    product_pair,
    sub_seed,
)

INV_SQRT2 = 2**-0.5


AUDIT_DTYPE = np.dtype(
    [
        ("j", np.int64),
        ("k", np.int64),
        ("initial_overlap", np.float64),
        ("final_overlap", np.float64),
        ("violation", np.bool_),
    ]
)


def assert_same_records(got, expected):
    # The audit's read-only record array against a reference, field by
    # field, with exact values, dtypes and shapes.
    assert isinstance(got, np.recarray) and not got.flags.writeable
    assert got.dtype.names == AUDIT_DTYPE.names
    for name in AUDIT_DTYPE.names:
        np.testing.assert_array_equal(got[name], expected[name], strict=True)


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


def test_dependent_initial_is_feasible():
    # Positivity suffices for a dependent initial set too: the identity on
    # a repeated state is one operator on its span plus the sink off it.
    s = StateSet.from_vectors([[1, 0], [1, 0]])
    report = feasibility_check(s, s)
    assert report.verdict == FEASIBLE
    assert not report.initial_independent
    ks = synthesize(s, s)
    assert ks.kraus_count == 2
    np.testing.assert_allclose(ks.operators, [np.diag([1, 0]), np.diag([0, 1])], atol=1e-15)


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
    # same sets: Feasible (dependent, grams equal)
    assert feasibility_check(initial, final).verdict == FEASIBLE
    grown = StateSet.from_vectors(
        [[1, 0, 0], [0, 1, 0], [0.5, 0.5, INV_SQRT2]]
    )
    report = feasibility_check(initial, grown)
    assert report.verdict == INFEASIBLE


def test_undetermined_free_entries():
    # Pair (0, 2) is 0/0 and the ratios (1, 0) = 0.5 and (1, 2) = -0.5 differ,
    # so the completion with 1 (rows 0 and 2 equal) is not PSD; no pair is
    # made more distinguishable.  The completion -0.5 is PSD, so Infeasible
    # would be wrong: only a completion search could say Feasible.
    initial = unit_rows(FREE_UNDETERMINED[0])
    final = unit_rows(FREE_UNDETERMINED[1])
    report = feasibility_check(initial, final)
    assert report.verdict == UNDETERMINED
    assert report.min_eigenvalue is None
    m = report.ratio_matrix
    assert m.free_pairs == ((0, 2),)
    np.testing.assert_allclose([m.entries[1, 0], m.entries[1, 2]], [0.5, -0.5], atol=1e-15)


def test_free_entries_completed_with_one_are_feasible():
    initial = StateSet.from_vectors(
        [[1, 0, 0], [0, 1, 0], [1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3)]]
    )
    final = StateSet.from_vectors(
        [[1, 0, 0], [0, 1, 0], [INV_SQRT2, INV_SQRT2, 0]]
    )
    # pair (0,1) is 0/0; the remaining ratios have modulus sqrt(2/3) < 1 and
    # the completion with 1 is PSD, so the channel is built.
    report = feasibility_check(initial, final)
    assert report.verdict == FEASIBLE
    assert report.min_eigenvalue == pytest.approx(0.0, abs=1e-12)
    ks = synthesize(initial, final)
    for rec in transform_report(ks, initial, final):
        assert rec.fidelity == pytest.approx(1.0, abs=1e-12)


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


def equiangular(c):
    # Four real states in C^4 with every pairwise overlap c.
    t = (np.sqrt(1 + 3 * c) - np.sqrt(1 - c)) / 4
    return StateSet.from_vectors(np.sqrt(1 - c) * np.eye(4) + t * np.ones((4, 4)))


def test_audit_is_one_read_only_record_array():
    # Every ratio is 2, so all six pairs are flagged and the ratio matrix
    # 2J - I has eigenvalue -1.
    a, b = equiangular(0.5), equiangular(0.25)
    audit = distinguishability_audit(a, b)
    report = feasibility_check(a, b)
    assert report.verdict == INFEASIBLE
    assert report.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
    assert [(p.j, p.k) for p in audit] == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    np.testing.assert_allclose(audit.initial_overlap, 0.5, atol=1e-15)
    np.testing.assert_allclose(audit.final_overlap, 0.25, atol=1e-15)
    assert audit.violation.all()
    assert_same_records(audit, np.array(audit, dtype=AUDIT_DTYPE))
    assert_same_records(report.violating_pairs, audit)
    with pytest.raises(ValueError):
        report.violating_pairs.violation[0] = False
    # No pair flagged: an empty record array, tested by length.
    clean = feasibility_check(b, a).violating_pairs
    assert len(clean) == 0
    assert_same_records(clean, np.array([], dtype=AUDIT_DTYPE))


def test_feasible_implies_no_violations():
    rng = np.random.default_rng(41)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        initial, final, _ = feasible_pair(rng, n)
        assert feasibility_check(initial, final).verdict == FEASIBLE
        assert all(not p.violation for p in distinguishability_audit(initial, final))


# ------------------------------------------------------- 2x2 pair witnesses
# A flagged pair of the audit is a negative principal 2x2 minor of the
# ratio matrix (``pair_witness``), which rules out every PSD completion.


def test_witness_on_identity_matrix():
    basis = StateSet.from_vectors(np.eye(3))
    final = StateSet.from_vectors(
        [[1, 0, 0], [0.6, 0.8, 0], [0.6, 0, 0.8]]
    )
    m = build_ratio_matrix(basis, final)
    for j in range(3):
        for k in range(3):
            if j != k:
                assert pair_witness(m, j, k) == pytest.approx(1.0, abs=1e-12)


def test_witness_on_all_ones():
    s = zero_plus()
    m = build_ratio_matrix(s, s)
    assert pair_witness(m, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_witness_flags_cos_half():
    initial, final = zero_plus(), cos_family_final(0.5)
    m = build_ratio_matrix(initial, final)
    assert pair_witness(m, 0, 1) == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)
    assert [(p.j, p.k) for p in feasibility_check(initial, final).violating_pairs] == [(0, 1)]


def test_witness_equals_one_minus_modulus_everywhere():
    # two code paths: the 2x2 eigenvalue vs the modulus formula; every pair
    # the audit flags has a negative witness
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
                    assert pair_witness(m, j, k) == pytest.approx(expected, abs=1e-12)
        for p in feasibility_check(initial, final).violating_pairs:
            assert pair_witness(m, p.j, p.k) < 0.0


# ------------------------------------------------------ feasibility_check branches


def unit_rows(vectors):
    return StateSet.from_vectors(vectors, normalize=True)


def free_note(count):
    return f"{count} state pair(s) orthogonal in both sets leave their ratio free; completed with 1"


UNDETERMINED_NOTE = (
    "1 state pair(s) leave the ratio matrix underdetermined; "
    "their completion with 1 is not PSD and no other completion is searched"
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
        FEASIBLE,
        -3.922544539841766e-16,
        (
            "initial set is linearly dependent (rank 2 of 3)",
            "final set is linearly dependent (rank 2 of 3)",
        ),
        [],
    ),
    "free_equal_grams_independent": (
        np.eye(3),
        [[0, 1, 0], [0, 0, 1j], [1, 0, 0]],
        FEASIBLE,
        -4.531559571436954e-16,
        (free_note(3),),
        [],
    ),
    "free_equal_grams_dependent": (
        DEPENDENT_3,
        DEPENDENT_3,
        FEASIBLE,
        -4.531559571436954e-16,
        (
            "initial set is linearly dependent (rank 2 of 3)",
            "final set is linearly dependent (rank 2 of 3)",
            free_note(1),
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
    "free_completed_psd": (
        [[1, 0, 0], [0, 1, 0], [1, 1, 1]],
        [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
        FEASIBLE,
        -3.639748517740032e-16,
        ("final set is linearly dependent (rank 2 of 3)", free_note(1)),
        [],
    ),
    "free_undetermined": (*FREE_UNDETERMINED, UNDETERMINED, None, (UNDETERMINED_NOTE,), []),
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
        (UNDETERMINED_NOTE,),
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
    audit = distinguishability_audit(a, b)
    assert_same_records(report.violating_pairs, audit[audit.violation])


@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_only_feasible_reports_keep_the_certifying_spectrum(case):
    # A build check's private pair record keeps the spectrum, which
    # reconstructs the matrix the verdict was read from: the ratio matrix
    # with its 0/0 pairs completed with 1 (the free_* cases).  Synthesis
    # factors exactly that spectrum, for either rank.  A bare check that
    # accepts on its Cholesky (here the two certified cases without a
    # dependent set or a free pair) takes no spectrum; any other keeps the
    # same one.
    a, b = unit_rows(BRANCH_CASES[case][0]), unit_rows(BRANCH_CASES[case][1])
    report = _check(a, b, DEFAULT_TOL, build=True)
    bare = feasibility_check(a, b)
    assert not hasattr(report, "spectrum")
    if report.verdict != FEASIBLE:
        assert report._pair.spectrum is None and bare._pair.spectrum is None
        return
    if case in ("defined_psd", "single_state"):
        assert bare._pair.spectrum is None and bare._pair.inverse is None
    else:
        for got, kept in zip(bare._pair.spectrum, report._pair.spectrum):
            np.testing.assert_array_equal(got, kept, strict=True)
    m = report.ratio_matrix
    assert bool(m.free_pairs) == case.startswith("free_")
    certified = np.where(m.defined, m.entries, 1.0)
    w, v = report._pair.spectrum
    assert np.all(np.diff(w) <= 0) and report.min_eigenvalue == w[-1]
    assert not w.flags.writeable and not v.flags.writeable
    np.testing.assert_allclose((v * w) @ v.conj().T, certified, atol=1e-12)
    np.testing.assert_array_equal(synthesize(a, b).c_factor, psd_factor(certified))


def test_feasible_spectrum_reconstructs_random_ratio_matrices():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        initial, final, _ = feasible_pair(rng, n)
        report = _check(initial, final, DEFAULT_TOL, build=True)
        assert report.verdict == FEASIBLE
        assert feasibility_check(initial, final)._pair.spectrum is None
        w, v = report._pair.spectrum
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
            audit.append((j, k, m1, m2, m1 > m2 + tol))
            if m2 <= tol:
                (nonzero if m1 > tol else free).append((j, k))
    return np.array(audit, dtype=AUDIT_DTYPE), tuple(nonzero), tuple(free)


def assert_feasible_iff_built(a, b, bound=1e-9):
    # Feasible <=> synthesize returns a set that an independent numpy check
    # of completeness and of every state's mapping accepts within bound.
    feasible = feasibility_check(a, b).verdict == FEASIBLE
    try:
        ks = synthesize(a, b)
    except NotFeasibleError:
        assert not feasible
        return
    assert feasible
    assert max(channel_residuals(ks, a, b)) <= bound


@settings(max_examples=150, deadline=None, derandomize=True)
@given(orthogonality_instances())
def test_feasibility_check_agrees_with_public_pieces(instance):
    a, b = instance
    report = feasibility_check(a, b)
    audit, nonzero, free = loop_reference(a, b)
    assert_same_records(distinguishability_audit(a, b), audit)
    assert_same_records(report.violating_pairs, audit[audit["violation"]])
    assert report.initial_independent == linear_independence(a)
    assert report.final_independent == linear_independence(b)
    m = build_ratio_matrix(a, b)
    assert (m.undefined_nonzero_pairs, m.free_pairs) == (nonzero, free)
    if m.undefined_nonzero_pairs:
        pairs = ", ".join(f"({j}, {k})" for j, k in m.undefined_nonzero_pairs)
        assert report.verdict == INFEASIBLE and report.notes[-1].endswith(pairs)
    if report.verdict == UNDETERMINED:
        assert report.notes[-1].startswith(f"{len(m.free_pairs)} state pair(s)")
    assert_feasible_iff_built(a, b)


@st.composite
def invariance_instances(draw):
    """An independent pair with its check's report, feasible by
    construction or generic (mostly infeasible), in C^d with d >= n; only
    pairs whose ratio-matrix lambda_min is at least 1e-3 away from 0, so
    that no verdict sits at a tolerance boundary."""
    n = draw(st.integers(min_value=2, max_value=5))
    d = n + draw(st.integers(min_value=0, max_value=2))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    if draw(st.booleans()):
        a, b, _ = feasible_pair(rng, n)
        a, b = embedded(a, rng, d), embedded(b, rng, d)
    else:
        a, b = (random_state_set(d, n, sub_seed(rng), mode="independent") for _ in "ab")
    report = feasibility_check(a, b)
    assume(report.min_eigenvalue is not None and abs(report.min_eigenvalue) >= 1e-3)
    return a, b, report, rng, draw(st.permutations(range(n)))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(invariance_instances())
def test_verdict_is_invariant_under_unitaries_phases_and_relabelling(instance):
    # The ratio matrix only depends on the Gram matrices, which a global
    # unitary on either set leaves unchanged; per-state phases conjugate
    # it by a diagonal unitary and a shared permutation permutes it, so
    # its spectrum, and the verdict, cannot change.
    a, b, report, rng, perm = instance
    d, n = a.dimension, a.n

    def rotated(s):
        return StateSet(d, s.states @ haar_unitary(d, sub_seed(rng)).T)

    def phased(s):
        return StateSet(d, np.exp(2j * np.pi * rng.random(n))[:, None] * s.states)

    variants = [
        (rotated(a), b),
        (a, rotated(b)),
        (phased(a), phased(b)),
        (a.subset(perm), b.subset(perm)),
    ]
    for a2, b2 in variants:
        other = feasibility_check(a2, b2)
        assert other.verdict == report.verdict
        assert (other.initial_independent, other.final_independent) == (True, True)


@st.composite
def product_instances(draw):
    """Dependent instances psi_j = phi_j (x) a_j -> phi_j (x) |0> with
    N > D d_a, so the initial set spans C^(D d_a) with N states."""
    d = draw(st.integers(min_value=1, max_value=4))
    d_anc = draw(st.integers(min_value=1, max_value=2))
    n = d * d_anc + draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    return product_pair(rng, n, d, d_anc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(product_instances())
def test_dependent_product_instances_are_feasible_and_built(instance):
    a, b = instance
    assert not linear_independence(a)
    assert feasibility_check(a, b).verdict == FEASIBLE
    assert_feasible_iff_built(a, b)


# ----------------------------------------------- verdicts near the rank cutoff
# A dependent set, or a free pair, is decided to within tol, and that slack
# reaches the built channel as a residual near sqrt(tol).  Feasible must
# still mean that synthesize builds the channel: the check computes the
# residuals the synthesis guard will read and says Undetermined unless they
# are within half the 1e3 * tol guard.  The independent check runs at the
# guard.

GUARD = 1e3 * 1e-9
RESIDUALS_NOTE = "the completion with 1 is PSD only to within tol: its channel's residuals"


def tilted(theta):
    # Gram eigenvalues 1 -+ cos(theta): the smaller one, about theta^2 / 2,
    # crosses the rank cutoff tol * lambda_max = 2e-9 near theta = 6.3e-5.
    return StateSet.from_vectors([[1, 0], [np.cos(theta), np.sin(theta)]])


def test_near_dependent_pairs_are_feasible_only_when_built():
    verdicts = {}
    for theta in np.geomspace(1e-7, 1e-3, 41):
        s = tilted(theta)
        report = feasibility_check(s, s)
        verdicts[theta] = report.verdict
        assert report.verdict in (FEASIBLE, UNDETERMINED)
        if report.verdict == UNDETERMINED:
            assert not report.initial_independent
            assert report.notes[-1].startswith(RESIDUALS_NOTE)
            assert report.min_eigenvalue is not None and report._pair.spectrum is None
        assert_feasible_iff_built(s, s, GUARD)
    # The dropped direction costs a per-state residual of about
    # theta / sqrt(2) (theta / 2 on the span operators, theta / 2 in the
    # sink), which the check computes exactly: within half the guard below
    # theta = 7.07e-7, beyond it up to the cutoff, and exact duals past it.
    assert all(v == FEASIBLE for t, v in verdicts.items() if t < 7e-7 or t > 7e-5)
    assert all(v == UNDETERMINED for t, v in verdicts.items() if 7.5e-7 < t < 6e-5)
    assert feasibility_check(tilted(2e-5), tilted(2e-5)).verdict == UNDETERMINED


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 3e-10, 1e-9])
def test_dependent_set_with_tiny_free_overlaps_is_feasible_only_when_built(eps):
    # Three states in C^2 with pair (0, 1) free: overlaps -eps and +eps,
    # both below tol, are completed with 1.  The slack 2 eps reaches the
    # channel through the dependency; from eps = 3e-10 on its bound misses
    # the guard, and the check says so instead of promising a channel.
    a = unit_rows([[1, 0], [-eps, 1], [1 - eps, 1]])
    b = unit_rows([[1, 0], [eps, 1], [1 + eps, 1]])
    report = feasibility_check(a, b)
    assert report.ratio_matrix.free_pairs == ((0, 1),)
    assert not report.initial_independent
    assert report.verdict == (FEASIBLE if eps < 3e-10 else UNDETERMINED)
    assert_feasible_iff_built(a, b, GUARD)


@st.composite
def near_cutoff_instances(draw):
    """Instances decided to within tol: a dependent product pair or a pair
    with exactly orthogonal (free) pairs, each initial state tilted by
    about delta and each final state by about tau, log-uniform across the
    rank cutoff (tilts near 3e-5) and the free-pair cutoff (overlaps near
    1e-9), so dropped directions and free pairs carry slack."""
    a, b = draw(st.one_of(product_instances(), orthogonality_instances()))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))

    def tilted(s, exponent):
        noise = rng.standard_normal(s.states.shape) + 1j * rng.standard_normal(s.states.shape)
        return unit_rows(s.states + 10.0**exponent * noise)

    a = tilted(a, draw(st.floats(min_value=-12, max_value=-3)))
    return a, tilted(b, draw(st.floats(min_value=-12, max_value=-3)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(near_cutoff_instances())
def test_feasible_near_the_cutoffs_means_built(instance):
    a, b = instance
    assert_feasible_iff_built(a, b, GUARD)


# A certified independent pair is decided to within tol as well: a ratio
# eigenvalue down to -tol passes as PSD, and the factor clips it.  Through
# an ill-conditioned Gram matrix that dropped mass reaches the channel's
# completeness as ||dropped||_F / lambda_min(G1).


def overlap_pair(c):
    # |0> and a state with overlap c with it.
    return StateSet.from_vectors([[1, 0], [c, np.sqrt(1 - c * c)]])


def test_certified_pair_with_a_clipped_ratio_eigenvalue_is_not_feasible():
    # Gram condition about 1.8e8 and ratio modulus 1 + 5e-10: the clipped
    # eigenvalue -5e-10 costs the built channel a completeness of about
    # 4.4e-2, far beyond the guard, so the check may not say Feasible.
    theta = 1.5e-4
    a, b = tilted(theta), overlap_pair(np.cos(theta) / (1 + 5e-10))
    report = feasibility_check(a, b)
    assert report.initial_independent
    assert report.verdict == UNDETERMINED
    assert report.min_eigenvalue == pytest.approx(-5e-10, rel=1e-3)
    assert report.notes[-1].startswith(RESIDUALS_NOTE)
    assert_feasible_iff_built(a, b, GUARD)


def test_zero_tol_lets_no_dropped_mass_pass():
    # At tol = 0 the synthesis guard is 0, so a factor that drops the ratio
    # eigenvalue 1e-11 builds no channel the guard accepts.
    a, b = tilted(0.3), overlap_pair(np.cos(0.3) / (1 - 1e-11))
    assert feasibility_check(a, b, 0.0).verdict == UNDETERMINED
    with pytest.raises(NotFeasibleError):
        synthesize(a, b, 0.0)
    assert feasibility_check(a, b).verdict == FEASIBLE


def test_certified_pairs_near_the_ratio_cutoff_are_feasible_only_when_built():
    # Angles across the conditioning range, final overlaps cos(theta) / (1 + s)
    # with ratio moduli 1 + s on both sides of 1 (overlaps above 1 skipped).
    shifts = np.concatenate(([0.0], np.geomspace(1e-14, 1e-9, 11), -np.geomspace(1e-14, 1e-9, 6)))
    certified = set()
    for theta in np.geomspace(1e-5, 1e-2, 25):
        for s in shifts:
            c = np.cos(theta) / (1 + s)
            if c > 1.0:
                continue
            a, b = tilted(theta), overlap_pair(c)
            report = feasibility_check(a, b)
            if report.initial_independent:
                certified.add(report.verdict)
            assert_feasible_iff_built(a, b, GUARD)
    assert certified == {FEASIBLE, UNDETERMINED}


def exact_and_built_residuals(a, b):
    """The residuals the check computes on its exact path (None when it
    takes the fast accept or the completion is not PSD) and those
    ``_verify_synthesis`` reads off the channel built from the same report,
    with the check's verdict forced to Feasible and the guard lifted."""
    guard_residuals = detchan.feasibility._guard_residuals
    verify = detchan.synthesis._verify_synthesis
    seen = {}

    def exact(*args):
        seen["exact"] = guard_residuals(*args)
        return 0.0, 0.0

    def built(factor, initial, tol):
        seen["built"] = verify(factor, initial, np.inf)
        return seen["built"]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(detchan.feasibility, "_guard_residuals", exact)
        patch.setattr(detchan.synthesis, "_verify_synthesis", built)
        try:
            synthesize(a, b)
        except NotFeasibleError:
            return None
    return (seen["exact"], seen["built"]) if "exact" in seen else None


def assert_exact_residuals_match_the_built_channel(a, b):
    # Rounding in either computation grows with G1's condition number,
    # capped by the 1e9 rank cutoff.  The built channel also carries its
    # construction's own rounding, a few N eps, where the exact per-state
    # residual is 0 (no dropped direction).
    residuals = exact_and_built_residuals(a, b)
    if residuals is None:
        return
    w = np.linalg.eigvalsh(gram(a))
    kappa = min(w[-1] / w[0] if w[0] > 0 else np.inf, 1e9)
    for exact, built in zip(*residuals):
        assert abs(exact - built) <= 1e-3 * built + np.finfo(float).eps * (kappa + 4 * a.n)


def boundary_instances():
    """The tier-1 boundary grids: the tilted(theta) pairs mapped onto
    themselves, the certified tilted(theta) -> overlap_pair sweep across the
    ratio cutoff and the dependent sets with tiny free overlaps."""
    shifts = np.concatenate(([0.0], np.geomspace(1e-14, 1e-9, 11), -np.geomspace(1e-14, 1e-9, 6)))
    pairs = [(tilted(t), tilted(t)) for t in np.geomspace(1e-7, 1e-3, 41)]
    pairs += [
        (tilted(t), overlap_pair(np.cos(t) / (1 + s)))
        for t in np.geomspace(1e-5, 1e-2, 25)
        for s in shifts
        if np.cos(t) / (1 + s) <= 1.0
    ]
    for eps in (1e-12, 1e-10, 3e-10, 1e-9):
        pairs.append(
            (unit_rows([[1, 0], [-eps, 1], [1 - eps, 1]]), unit_rows([[1, 0], [eps, 1], [1 + eps, 1]]))
        )
    return pairs


def test_exact_residuals_match_the_built_channel_on_the_boundary_grids():
    compared = 0
    for a, b in boundary_instances():
        compared += exact_and_built_residuals(a, b) is not None
        assert_exact_residuals_match_the_built_channel(a, b)
    assert compared > 400


@settings(max_examples=100, deadline=None, derandomize=True)
@given(near_cutoff_instances())
def test_exact_residuals_match_the_built_channel_near_the_cutoffs(instance):
    assert_exact_residuals_match_the_built_channel(*instance)


def test_duals_above_the_condition_ceiling_raise_in_the_check():
    # Gram condition about 1.1e13: certified full rank at tol = 1e-15, but
    # the unitary ratio matrix drops rounding-sized eigenvalues, so the
    # check builds the duals the channel needs and refuses them as
    # synthesize would.
    s = tilted(6e-7)
    with pytest.raises(IllConditionedError):
        feasibility_check(s, s, 1e-15)
    with pytest.raises(IllConditionedError):
        synthesize(s, s, 1e-15)


@pytest.mark.filterwarnings("error")
def test_ratio_beyond_any_float_is_infeasible_at_zero_tol():
    # At tol = 0 the final overlap 1e-309 is nonzero, but 0.5 / 1e-309 is no
    # float: the pair is left undefined with a nonzero initial overlap.
    a = StateSet.from_vectors([[1, 0], [0.5, np.sqrt(0.75)]])
    b = StateSet.from_vectors([[1, 0], [1e-309, 1]])
    report = feasibility_check(a, b, 0.0)
    assert report.verdict == INFEASIBLE and report.min_eigenvalue is None
    assert report.ratio_matrix.undefined_nonzero_pairs == ((0, 1),)
    assert report.notes[-1].endswith("(0, 1)")
    assert np.all(np.isfinite(report.ratio_matrix.entries))


@pytest.mark.parametrize("tol", [1e-10, 3e-10, 1e-9])
def test_fast_accept_holds_only_where_rounding_fits_the_guard(tol):
    # Certified pairs whose ratio matrix keeps full rank: the fast accept
    # skips the residuals, which is sound while the channel's rounding,
    # about eps kappa(G1) < eps / tol, fits within half the guard, 500 tol:
    # from tol = 1e-9.  Below it the check computes them, and at tol = 1e-10
    # this grid holds pairs whose fast-accepted channel the guard refuses.
    # Feasible must mean that synthesize passes its guard (IllConditionedError
    # fails the test).
    for theta in np.geomspace(1e-6, 1e-3, 31):
        for s in np.concatenate(([0.0], -np.geomspace(1e-14, 1e-3, 23))):
            c = np.cos(theta) / (1 + s)
            if c > 1.0:
                continue
            a, b = tilted(theta), overlap_pair(c)
            feasible = feasibility_check(a, b, tol).verdict == FEASIBLE
            try:
                synthesize(a, b, tol)
            except NotFeasibleError:
                assert not feasible
            else:
                assert feasible


def test_spectral_work_per_check(monkeypatch):
    # One Gram product per set and one shifted Cholesky per set certifying
    # its full rank.  A certified feasible check then proves its fast accept
    # with a third shifted Cholesky, of the completed ratio matrix, and reads
    # min_eigenvalue with one eigvalsh: no eigenvectors.  Where that Cholesky
    # fails (a fully defined Infeasible pair) one full eigh decides, and a
    # build check, whose spectrum synthesis factors, takes that eigh at once.
    # Only a dependent set takes more: the initial set's eigenpairs (one
    # eigh, which also bounds the built channel's residuals; with a free
    # pair, as in this one, no Cholesky is tried first), the final set's
    # eigenvalues (one eigvalsh after its failed Cholesky) and the ratio
    # matrix's eigh.
    initial, final, _ = feasible_pair(np.random.default_rng(16), 16)
    dependent = unit_rows(DEPENDENT_3)
    counts = count_calls(
        monkeypatch,
        (detchan.feasibility, "gram"),
        (np.linalg, "eigvalsh"),
        (np.linalg, "eigh"),
        (np.linalg, "cholesky"),
    )

    def work(report, verdict):
        assert report.verdict == verdict
        tally = (counts["gram"], counts["cholesky"], counts["eigvalsh"], counts["eigh"])
        counts.clear()
        return tally

    assert work(feasibility_check(initial, final), FEASIBLE) == (2, 3, 1, 0)
    assert work(_check(initial, final, DEFAULT_TOL, build=True), FEASIBLE) == (2, 2, 0, 1)
    assert work(feasibility_check(final, initial), INFEASIBLE) == (2, 3, 0, 1)
    assert work(feasibility_check(dependent, dependent), FEASIBLE) == (2, 1, 1, 2)


# ------------------------------------- decide-only and build checks agree
# feasibility_check decides; the build check (_check with build=True) also
# keeps the ratio spectrum that synthesize, the roundtrip and cli sweep
# factor.  A certified decide-only check proves its fast accept with one
# shifted Cholesky of the completion and reads min_eigenvalue with eigvalsh,
# which for N >= 3 may differ from eigh's in the last bits.


def assert_checks_agree(a, b, tol=DEFAULT_TOL):
    bare = feasibility_check(a, b, tol)
    built = _check(a, b, tol, build=True)
    assert (bare.verdict, bare.notes) == (built.verdict, built.notes)
    assert bare.initial_independent == built.initial_independent
    assert bare.final_independent == built.final_independent
    assert_same_records(bare.violating_pairs, built.violating_pairs)
    if built.min_eigenvalue is None or a.n <= 2:
        assert repr(bare.min_eigenvalue) == repr(built.min_eigenvalue)
    else:
        m = built.ratio_matrix
        radius = np.max(np.abs(np.linalg.eigvalsh(np.where(m.defined, m.entries, 1.0))))
        assert abs(bare.min_eigenvalue - built.min_eigenvalue) <= 1e-12 * max(1.0, radius)
    if bare.verdict == FEASIBLE:
        synthesize(a, b, tol)  # IllConditionedError or NotFeasibleError fails the test
    return bare.verdict


def test_decide_only_and_build_checks_agree_on_the_boundary_instances():
    verdicts = [assert_checks_agree(a, b) for a, b in boundary_instances()]
    assert len(verdicts) == 487
    counts = {v: verdicts.count(v) for v in (FEASIBLE, INFEASIBLE, UNDETERMINED)}
    assert counts == {FEASIBLE: 147, INFEASIBLE: 1, UNDETERMINED: 339}


def test_decide_only_and_build_checks_agree_on_random_pools():
    # Feasible pairs, certified and fast-accepted, and the same pairs
    # reversed, which are fully defined and mostly Infeasible: there the
    # Cholesky stops early and one eigh decides, as in the build check.
    rng = np.random.default_rng(29)
    verdicts = []
    for n in range(2, 9):
        for _ in range(4):
            initial, final, _ = feasible_pair(rng, n)
            verdicts.append(assert_checks_agree(initial, final))
            verdicts.append(assert_checks_agree(final, initial))
    assert verdicts[::2] == [FEASIBLE] * 28 and INFEASIBLE in verdicts[1::2]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(orthogonality_instances(), near_cutoff_instances(), product_instances()))
def test_decide_only_and_build_checks_agree_on_drawn_instances(instance):
    assert_checks_agree(*instance)


def raw_quotient(g1, g2, defined):
    q = np.zeros_like(g1)
    q[defined] = g1[defined] / g2[defined]
    np.fill_diagonal(q, 1.0)
    return q


def test_ratio_entries_are_the_symmetrized_quotient_bit_for_bit():
    # The entries are (q + q^dag) / 2 for the raw quotient q, bit for bit, and
    # exactly Hermitian.  q itself is Hermitian in value (G1, G2 are, the
    # defined pattern is symmetric and complex division commutes with
    # conjugation), so the symmetrization changes no value: only the sign of
    # some zero parts (of orthogonal or real states), which eigh's last bits
    # can see, so it stays.  Random pairs, pairs with free and orthogonal
    # pairs, and the tol = 0 pair whose 1e-309 overlap is left undefined.
    rng = np.random.default_rng(31)
    instances = [(*feasible_pair(rng, n)[:2], DEFAULT_TOL) for n in (2, 5, 8)]
    instances += [(unit_rows(i), unit_rows(f), DEFAULT_TOL) for i, f, *_ in BRANCH_CASES.values()]
    instances.append(
        (
            StateSet.from_vectors([[1, 0], [0.5, np.sqrt(0.75)]]),
            StateSet.from_vectors([[1, 0], [1e-309, 1]]),
            0.0,
        )
    )
    for a, b, tol in instances:
        g1, g2 = gram(a), gram(b)
        m = build_ratio_matrix(a, b, tol)
        q = raw_quotient(g1, g2, m.defined)
        assert m.entries.tobytes() == ((q + q.conj().T) / 2.0).tobytes()
        np.testing.assert_array_equal(m.entries, m.entries.conj().T)
        np.testing.assert_array_equal(q, m.entries)
        nonzero = q.view(np.float64) != 0.0
        assert q.view(np.float64)[nonzero].tobytes() == m.entries.view(np.float64)[nonzero].tobytes()
