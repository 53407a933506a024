import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import detchan
import detchan.feasibility
import detchan.synthesis
from detchan import (
    DEFAULT_TOL,
    DimensionMismatchError,
    FEASIBLE,
    INFEASIBLE,
    IllConditionedError,
    InvalidToleranceError,
    NotFeasibleError,
    RatioMatrix,
    SizeMismatchError,
    StateSet,
    UNDETERMINED,
    distinguishability_audit,
    feasibility_check,
    gram,
    linear_independence,
    random_state_set,
    span_duals,
    synthesize,
)
from detchan.feasibility import _check
from detchan.numerics import (
    DEFAULT_RANK_TOL,
    _certifies_full_rank,
    _psd_verdict,
    _spectral_factor,
    numerical_rank,
)
from detchan.states import _overlap_inverse
from helpers import (
    FREE_UNDETERMINED,
    FRESH_ENV,
    INV_SQRT2,
    channel_residuals,
    check_mix,
    descending_eig,
    embedded,
    feasible_pair,
    haar_unitary,
    pair_witness,
    product_pair,
    spectral_factor,
    sub_seed,
    tally,
    traced_bare_check,
    transforms,
    unit_row_factor,
    well_conditioned_set,
    zero_plus,
)


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


def cos_family_final(cos_theta):
    return StateSet.from_vectors([[1, 0], [cos_theta, np.sqrt(1 - cos_theta**2)]])


# ------------------------------------------------------------ ratio matrix


def test_ratio_matrix_identity_pair_is_all_ones():
    s = zero_plus()
    m = feasibility_check(s, s).ratio_matrix
    assert m.fully_defined
    np.testing.assert_allclose(m.entries, np.ones((2, 2)), atol=1e-12)


def test_ratio_matrix_orthonormal_initial_is_identity():
    basis = StateSet.from_vectors(np.eye(2))
    final = StateSet.from_vectors([[1, 0], [0.6, 0.8]])
    m = feasibility_check(basis, final).ratio_matrix
    assert m.fully_defined
    np.testing.assert_allclose(m.entries, np.eye(2), atol=1e-12)


def test_ratio_matrix_cos_half_offdiagonal():
    m = feasibility_check(zero_plus(), cos_family_final(0.5)).ratio_matrix
    assert m.entries[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)


def test_ratio_matrix_undefined_entries():
    # final pair orthogonal, initial pair not: forbidden
    initial = zero_plus()
    final = StateSet.from_vectors(np.eye(2))
    m = feasibility_check(initial, final).ratio_matrix
    assert not m.fully_defined
    assert m.undefined_nonzero_pairs == ((0, 1),)
    # both orthogonal: unconstrained
    m2 = feasibility_check(final, final).ratio_matrix
    assert m2.free_pairs == ((0, 1),)
    assert m2.undefined_nonzero_pairs == ()


def test_ratio_matrix_copies_what_callers_hand_it():
    entries = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    defined = np.ones((2, 2), dtype=bool)
    view = entries.view()  # read-only, but its base stays writable
    view.setflags(write=False)
    built = [
        RatioMatrix(entries, defined, (), ()),
        RatioMatrix(view, defined, (), ()),
        RatioMatrix(entries.tolist(), defined.tolist(), (), ()),
    ]
    entries[0, 1] = 7.0
    defined[0, 1] = False
    for m in built:
        assert m.entries[0, 1] == 0.5j
        assert m.defined[0, 1]
        assert not m.entries.flags.writeable and not m.defined.flags.writeable
    # The check hands over the arrays it built: frozen, owning their data.
    kept = feasibility_check(zero_plus(), zero_plus()).ratio_matrix
    for arr in (kept.entries, kept.defined):
        assert arr.flags.owndata and not arr.flags.writeable


def test_ratio_matrix_shape_errors():
    two = zero_plus()
    one = StateSet.from_vectors([[1, 0]])
    three_dim = StateSet.from_vectors([[1, 0, 0], [0, 1, 0]])
    # The ratio matrix comes from a check, which refuses mismatched sets.
    with pytest.raises(SizeMismatchError):
        feasibility_check(two, one)
    with pytest.raises(DimensionMismatchError):
        feasibility_check(two, three_dim)


def test_ratio_matrix_trace_equals_n():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        initial, final, _ = feasible_pair(rng, n)
        m = feasibility_check(initial, final).ratio_matrix
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
    fidelities, _ = transforms(ks, initial, final)
    np.testing.assert_allclose(fidelities, 1.0, rtol=0, atol=1e-12)


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


def test_audit_needs_one_final_state_per_initial_state():
    with pytest.raises(SizeMismatchError, match="2 initial states vs 1 final states"):
        distinguishability_audit(zero_plus(), StateSet.from_vectors([[1, 0]]))


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


#: Run in a fresh interpreter: bare checks with and without flagged pairs and
#: one full audit, then whether numpy.rec was imported on the way.
REC_PROBE = """
import sys
import numpy as np
import detchan
a, b = (detchan.StateSet.from_vectors(np.eye(3) + c, normalize=True) for c in (0.5, 0.25))
for initial, final in ((a, b), (b, a)):
    detchan.feasibility_check(initial, final)
detchan.distinguishability_audit(a, b)
print("numpy.rec" in sys.modules)
"""


def test_audit_records_leave_numpy_rec_unloaded():
    # The records are one filled array viewed as a record array, the dtype and
    # bytes np.rec.fromarrays made; that call imported numpy.rec besides.
    done = subprocess.run([sys.executable, "-c", REC_PROBE], env=FRESH_ENV, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "False\n"


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
    m = feasibility_check(basis, final).ratio_matrix
    for j in range(3):
        for k in range(3):
            if j != k:
                assert pair_witness(m, j, k) == pytest.approx(1.0, abs=1e-12)


def test_witness_on_all_ones():
    s = zero_plus()
    m = feasibility_check(s, s).ratio_matrix
    assert pair_witness(m, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_witness_flags_cos_half():
    report = feasibility_check(zero_plus(), cos_family_final(0.5))
    assert pair_witness(report.ratio_matrix, 0, 1) == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)
    assert [(p.j, p.k) for p in report.violating_pairs] == [(0, 1)]


def test_witness_equals_one_minus_modulus_everywhere():
    # two code paths: the 2x2 eigenvalue vs the modulus formula; every pair
    # the audit flags has a negative witness
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        initial = random_state_set(n, n, sub_seed(rng), mode="independent")
        final = random_state_set(n, n, sub_seed(rng), mode="independent")
        m = feasibility_check(initial, final).ratio_matrix
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
    # A build check's private pair record keeps the factor C of the
    # certified spectrum, which reconstructs the matrix the verdict was read
    # from: the ratio matrix with its 0/0 pairs completed with 1 (the free_*
    # cases).  Synthesis builds from exactly that C and the kept inverse of
    # G1, for either rank.  A bare check keeps no inverse: one that accepts
    # at once (here the two certified cases without a dependent set or a free
    # pair) keeps no C either; any other computed C for the residuals and
    # keeps the same one.  Every record keeps the completion itself, read-only,
    # and no copy of a fully defined ratio matrix.
    a, b = unit_rows(BRANCH_CASES[case][0]), unit_rows(BRANCH_CASES[case][1])
    report = _check(a, b, DEFAULT_TOL, build=True)
    bare = feasibility_check(a, b)
    assert not hasattr(report, "spectrum") and not hasattr(report._pair, "spectrum")
    for r in (report, bare):
        m, completion = r.ratio_matrix, r._pair.completion
        np.testing.assert_array_equal(completion, np.where(m.defined, m.entries, 1.0), strict=True)
        assert not completion.flags.writeable and (completion is m.entries) == m.fully_defined
    if report.verdict != FEASIBLE:
        for pair in (report._pair, bare._pair):
            assert pair.c is None and pair.inverse is None
        return
    assert bare._pair.inverse is None
    if case in ("defined_psd", "single_state"):
        assert bare._pair.c is None
    else:
        np.testing.assert_array_equal(bare._pair.c, report._pair.c, strict=True)
    m = report.ratio_matrix
    assert bool(m.free_pairs) == case.startswith("free_")
    certified = np.where(m.defined, m.entries, 1.0)
    c, inverse = report._pair.c, report._pair.inverse
    assert not c.flags.writeable and not inverse.flags.writeable
    np.testing.assert_allclose(c @ c.conj().T, certified, atol=1e-12)
    np.testing.assert_array_equal(c, spectral_factor(certified), strict=True)
    np.testing.assert_array_equal(synthesize(a, b).c_factor, c, strict=True)


def test_feasible_spectrum_reconstructs_random_ratio_matrices():
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        initial, final, _ = feasible_pair(rng, n)
        report = _check(initial, final, DEFAULT_TOL, build=True)
        assert report.verdict == FEASIBLE
        assert feasibility_check(initial, final)._pair.c is None
        c = report._pair.c
        np.testing.assert_allclose(c @ c.conj().T, report.ratio_matrix.entries, atol=1e-12)


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
    m = report.ratio_matrix
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
RANK_CUT_NOTE = (
    "the initial set's rank cut drops directions the channel must map: its channel's residuals"
)


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
            # The completion is all ones: only the dropped direction costs.
            assert not report.initial_independent
            assert report.notes[-1].startswith(RANK_CUT_NOTE)
            assert report.min_eigenvalue is not None and report._pair.c is None
        assert_feasible_iff_built(s, s, GUARD)
    # The dropped direction costs a per-state residual of about
    # theta / sqrt(2) (theta / 2 on the span operators, theta / 2 in the
    # sink), which the check computes exactly: within half the guard below
    # theta = 7.07e-7, beyond it up to the cutoff, and exact duals past it.
    assert all(v == FEASIBLE for t, v in verdicts.items() if t < 7e-7 or t > 7e-5)
    assert all(v == UNDETERMINED for t, v in verdicts.items() if 7.5e-7 < t < 6e-5)
    assert feasibility_check(tilted(2e-5), tilted(2e-5)).verdict == UNDETERMINED


def test_residual_note_names_the_rank_cut_when_the_per_state_residual_fails():
    # An N = D = 16 set mapped onto itself whose Gram eigenvalues are spaced
    # logarithmically from 1e-10 to 1 before the diagonal is normalized: the
    # ratio matrix is all ones, PSD but for rounding, yet G1's rank cut keeps
    # 14 of 16 directions, and the channel cannot map the two it drops.
    n = 16
    v = haar_unitary(n, 3)
    g = (v * np.logspace(-10, 0, n)) @ v.conj().T
    scale = 1.0 / np.sqrt(np.diag(g).real)
    g *= np.outer(scale, scale)
    w, u = np.linalg.eigh((g + g.conj().T) / 2.0)
    s = StateSet.from_vectors(u * np.sqrt(np.clip(w, 0.0, None)), normalize=True)
    report = feasibility_check(s, s)
    assert report.verdict == UNDETERMINED
    assert report.notes[0] == "initial set is linearly dependent (rank 14 of 16)"
    assert abs(report.min_eigenvalue) < 1e-13
    assert report.notes[-1].startswith(RANK_CUT_NOTE)
    per_state, completeness = map(float, re.findall(r"\d\.\d{3}e[-+]\d+", report.notes[-1]))
    assert per_state > 0.5 * GUARD >= completeness
    assert_feasible_iff_built(s, s, GUARD)


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

    def built(factor, initial, g2, tol):
        seen["built"] = verify(factor, initial, g2, np.inf)
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


def assert_completeness_formulas_agree(a, b, c, tol=DEFAULT_TOL):
    # The completeness residual the check reads for the factor c from G1's
    # eigenpairs against the pseudo-inverse formula sqrt(Re tr(X X)) with
    # X = G^+ (conj(T) - G), within rounding of the kept condition number.
    g1, g2 = gram(a), gram(b)
    eig1 = np.linalg.eigh(g1)
    rank1 = numerical_rank(eig1[0], tol)
    eigenbasis = detchan.feasibility._guard_residuals(g1, g2, c, None, eig1, rank1, tol)[1]
    x = _overlap_inverse(g1, tol, False, eig1) @ ((c @ c.conj().T) * g2 - g1).conj()
    inverse = np.sqrt(max(float(np.sum(x * x.T).real), 0.0))
    kappa = eig1[0][-1] / eig1[0][-rank1]
    assert abs(eigenbasis - inverse) <= 1e-9 * inverse + np.finfo(float).eps * kappa


@st.composite
def rank_deficient_instances(draw):
    """A dependent set of N <= 12 states of rank r < N in C^D, with a final
    set of the same rank, or its unitary image, and a factor C: the check's
    own when the completion is PSD, else random rows of unit norm.  The
    coefficient columns fall off geometrically, so G1's kept condition
    ranges up to the 1e9 cutoff."""
    n = draw(st.integers(min_value=2, max_value=12))
    r = draw(st.integers(min_value=1, max_value=n - 1))
    d = draw(st.integers(min_value=r, max_value=12))
    decay = draw(st.floats(min_value=0.0, max_value=5.0))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def rows():
        basis = np.linalg.qr(gaussian(d, d))[0][:, :r].T
        return unit_rows((gaussian(n, r) * np.logspace(0, -decay, r)) @ basis)

    a = rows()
    b = rows() if draw(st.booleans()) else StateSet(d, a.states @ haar_unitary(d, sub_seed(rng)).T)
    m = feasibility_check(a, b).ratio_matrix
    completion = np.where(m.defined, m.entries, 1.0)
    if _psd_verdict(descending_eig(completion)[0], DEFAULT_TOL)[0] and draw(st.booleans()):
        return a, b, spectral_factor(completion)
    c = gaussian(n, draw(st.integers(min_value=1, max_value=n)))
    return a, b, c / np.linalg.norm(c, axis=1, keepdims=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rank_deficient_instances())
def test_eigenbasis_completeness_is_the_pseudo_inverse_formula(instance):
    # A check that G1's Cholesky cannot certify reads the completeness
    # residual in G1's eigenbasis and forms no inverse; it is the same
    # number as the pseudo-inverse formula, within rounding.
    assert_completeness_formulas_agree(*instance)


def test_eigenbasis_completeness_is_the_pseudo_inverse_formula_on_the_boundary_grids():
    compared = 0
    for a, b in boundary_instances():
        m = feasibility_check(a, b).ratio_matrix
        completion = np.where(m.defined, m.entries, 1.0)
        if _psd_verdict(descending_eig(completion)[0], DEFAULT_TOL)[0]:
            assert_completeness_formulas_agree(a, b, spectral_factor(completion))
            compared += 1
    assert compared > 400


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


def test_a_gram_condition_between_the_ceiling_and_one_over_tol_takes_one_cholesky_each(
    monkeypatch,
):
    # Gram condition about 1e13 at tol = 1e-15: every Gram certificate is
    # taken at max(tol, 1e-12), so it fails once per Gram matrix and the
    # ranks come from eigenvalues; no certificate is taken twice.  The check
    # still raises where synthesize does, and the set still counts as
    # independent at tol.
    s = tilted(6.3e-7)
    counts = tally(monkeypatch)
    with pytest.raises(IllConditionedError):
        feasibility_check(s, s, 1e-15)
    assert (counts["cholesky"], counts["eigh"], counts["eigvalsh"]) == (2, 2, 1)
    counts.clear()
    assert linear_independence(s, 1e-15)
    assert (counts["cholesky"], counts["eigvalsh"]) == (1, 1)
    counts.clear()
    with pytest.raises(IllConditionedError):
        span_duals(s, 1e-15)
    assert (counts["cholesky"], counts["eigh"], counts["solve"]) == (1, 1, 0)


def test_dependent_duals_above_the_condition_ceiling_raise_in_the_check():
    # tilted(6e-7) with its first state repeated: rank 2 of 3 at tol = 1e-14,
    # and the kept eigenvalues, 3 and about 2.4e-13, have condition about
    # 1.25e13.  The check reads its residuals from G1's eigenpairs without
    # inverting them, but it applies the same rank cut and condition ceiling
    # as the duals, so it raises where synthesize does.  At tol = 1e-13 the
    # small eigenvalue falls below the cut, 3e-13, and the dropped direction
    # leaves a residual beyond the guard: Undetermined, and no channel.
    s = tilted(6e-7)
    s = StateSet.from_vectors(np.vstack([s.states, s.states[:1]]))
    for tol in (1e-14, 1e-15):
        with pytest.raises(IllConditionedError):
            feasibility_check(s, s, tol)
        with pytest.raises(IllConditionedError):
            synthesize(s, s, tol)
    report = feasibility_check(s, s, 1e-13)
    assert not report.initial_independent and report.verdict == UNDETERMINED
    with pytest.raises(NotFeasibleError):
        synthesize(s, s, 1e-13)


def test_a_bare_accept_between_the_cholesky_and_the_rank_cut_keeps_the_factor(monkeypatch):
    # N = 8: a well-conditioned final set and a unit-diagonal M whose
    # smallest eigenvalue, about 5.3e-10, lies between the factor's cutoff
    # 1e-10 lambda_max and the shift of the completion's certificate, with
    # G1 = M o G2 (certified: lambda_min(M o G2) >= lambda_min(G2), Schur).
    # The completion's Cholesky fails, so the bare check accepts on eigh,
    # without residuals, and keeps the factor C as a build check does, but
    # solves nothing: G1's inverse is for residuals and synthesis only.
    n, seed = 8, 10
    rng = np.random.default_rng(seed)
    v = haar_unitary(n, seed)
    w = rng.uniform(0.5, 1.5, n)
    w[0] = 10 ** rng.uniform(-10.5, -8)
    m = (v * w) @ v.conj().T
    scale = 1.0 / np.sqrt(np.diag(m).real)
    m *= np.outer(scale, scale)
    final = random_state_set(n, n, seed, mode="independent")
    g1 = m * gram(final)
    g1 = (g1 + g1.conj().T) / 2.0
    w1, v1 = np.linalg.eigh(g1)
    initial = StateSet.from_vectors(v1 * np.sqrt(w1), normalize=True)
    counts = tally(monkeypatch)
    bare = feasibility_check(initial, final)
    assert counts["solve"] == 0
    built = _check(initial, final, DEFAULT_TOL, build=True)
    completion = bare.ratio_matrix.entries
    assert not _certifies_full_rank(completion, DEFAULT_RANK_TOL)
    lam = np.linalg.eigvalsh(completion)
    assert DEFAULT_RANK_TOL * lam[-1] < lam[0] < DEFAULT_RANK_TOL * n
    assert bare.verdict == built.verdict == FEASIBLE and bare.notes == ()
    assert bare.min_eigenvalue == built.min_eigenvalue
    assert bare._pair.c is not None and bare._pair.inverse is None
    np.testing.assert_array_equal(bare._pair.c, built._pair.c, strict=True)


def test_only_a_build_check_keeps_the_inverse():
    # Past the fast accept, a Feasible bare check keeps the factor C its
    # residuals were read from, but no inverse of G1: only a build check,
    # whose channel synthesize builds, forms it (from G1's eigenpairs when
    # the set is dependent, by a solve when it is certified).
    dependent = unit_rows(DEPENDENT_3)
    certified = tilted(1e-3), overlap_pair(np.cos(1e-3))
    for a, b in ((dependent, dependent), certified):
        bare, built = feasibility_check(a, b), _check(a, b, DEFAULT_TOL, build=True)
        assert bare.verdict == built.verdict == FEASIBLE
        assert bare._pair.c is not None and bare._pair.inverse is None
        np.testing.assert_array_equal(bare._pair.c, built._pair.c, strict=True)
        inverse = built._pair.inverse
        assert inverse is not None and not inverse.flags.writeable
        np.testing.assert_allclose(
            inverse @ gram(a).conj() @ inverse, inverse, atol=1e-9 * np.linalg.norm(inverse)
        )


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
    # min_eigenvalue with one eigvalsh: no eigenvectors.  A build check of
    # that pair, whose spectrum it factors for synthesis, takes one eigh at
    # once.  A fully defined Infeasible pair flags a pair in the audit, so
    # its completion has an eigenvalue below -tol and no Cholesky of it is
    # tried (it could not succeed): one eigvalsh decides, bare or build, and
    # no eigh follows, as the completion fails the PSD rule.
    # Only a dependent set takes more: the initial set's eigenpairs (one
    # eigh, which also gives the built channel's residuals; with a free
    # pair, as in this one, no Cholesky is tried first), the final set's
    # eigenvalues (one eigvalsh; no Cholesky, which cannot certify G2 on a
    # Feasible pair once G1 is dependent) and the ratio matrix's eigh.
    initial, final, _ = feasible_pair(np.random.default_rng(16), 16)
    dependent = unit_rows(DEPENDENT_3)
    counts = tally(monkeypatch)

    def work(report, verdict):
        assert report.verdict == verdict
        seen = counts["feasibility.gram"], counts["cholesky"], counts["eigvalsh"], counts["eigh"]
        counts.clear()
        return seen

    assert work(feasibility_check(initial, final), FEASIBLE) == (2, 3, 1, 0)
    assert work(_check(initial, final, DEFAULT_TOL, build=True), FEASIBLE) == (2, 2, 0, 1)
    assert work(feasibility_check(final, initial), INFEASIBLE) == (2, 2, 1, 0)
    assert work(_check(final, initial, DEFAULT_TOL, build=True), INFEASIBLE) == (2, 2, 1, 0)
    assert work(feasibility_check(dependent, dependent), FEASIBLE) == (2, 0, 1, 2)


def flagged_pairs(rng: np.random.Generator, n: int, tol: float, near: bool):
    """Two independent sets of n states in C^n: at random (clearly infeasible)
    or, ``near`` the boundary, feasible but for one pair whose ratio modulus
    is pushed just past 1 (|G1_jk| - |G2_jk| between 0.5 tol and 2.5 tol, so
    flagged or just not)."""
    final = unit_row_factor(rng, n, n)
    if not near:
        return StateSet.from_vectors(unit_row_factor(rng, n, n)), StateSet.from_vectors(final)
    g2 = final @ final.conj().T
    c = unit_row_factor(rng, n, n)
    m = 0.5 * (c @ c.conj().T) + 0.5 * np.eye(n)
    j, k = rng.choice(n, 2, replace=False)
    modulus = 1.0 + (0.5 + 2.0 * rng.random()) * tol / abs(g2[j, k])
    m[j, k] = modulus * np.exp(2j * np.pi * rng.random())
    m[k, j] = np.conj(m[j, k])
    w, v = np.linalg.eigh(m * g2)
    initial = v * np.sqrt(np.clip(w, 0.0, None))  # rows with Gram matrix M o G2
    return StateSet.from_vectors(initial, normalize=True), StateSet.from_vectors(final)


def test_no_completion_cholesky_could_certify_a_flagged_pair():
    # A bare check with a certified G1 tries no shifted Cholesky of the
    # completion once the audit flags a pair.  That factorization could
    # never succeed: with no undefined nonzero pair the flagged ratio is
    # defined with |mu| > 1 + tol, so the completion has an eigenvalue below
    # -tol, far past the factorization's backward error.  Its eigenvalues
    # decide instead: where the completion fails the PSD rule, a bare and a
    # build check both report eigvalsh's smallest eigenvalue, bit for bit.
    rng = np.random.default_rng(2103)
    sizes = [n for n in range(3, 9) for _ in range(20)] + [64]
    skipped = {False: 0, True: 0}  # by near
    decided = 0
    for n in sizes:
        for tol in (1e-9, 1e-6, 1e-3):
            for near in (False, True):
                initial, final = flagged_pairs(rng, n, tol, near)
                report = feasibility_check(initial, final, tol)
                m = report.ratio_matrix
                if not len(report.violating_pairs) or m.undefined_nonzero_pairs:
                    continue
                completion = np.where(m.defined, m.entries, 1.0)
                assert not _certifies_full_rank(completion, DEFAULT_RANK_TOL)
                certified = not m.free_pairs and _certifies_full_rank(report._pair.g1, tol)
                skipped[near] += certified
                w = np.linalg.eigvalsh(completion)
                if report.min_eigenvalue is None or _psd_verdict(w[::-1], tol)[0]:
                    continue  # decided before any eigensolve, or PSD within tol
                note = f"ratio matrix has negative eigenvalue {w[0]:.6e}"
                for r in (report, _check(initial, final, tol, build=True)):
                    assert (r.verdict, r.notes[-1], r._pair.c) == (INFEASIBLE, note, None)
                    assert repr(r.min_eigenvalue) == repr(float(w[0]))
                decided += 1
    assert min(skipped.values()) >= 200, skipped
    assert decided >= 400, decided


def flagged_psd_pair(rng: np.random.Generator, n: int, tol: float):
    """Two independent sets of n states in C^n with G1 = G2 but for the pair
    (j, k) of largest final overlap, whose initial overlap is scaled by
    1 + eps: the completion is J + eps (E_jk + E_kj), with smallest
    eigenvalue -eps and spectral radius about n.  eps lies between
    tol / |G2_jk| (so the pair is flagged) and tol * n (so the completion
    passes the relative PSD rule); n |G2_jk| > 1 is needed."""
    final = well_conditioned_set(rng, n, n)
    g2 = gram(final)
    off = np.abs(g2) - np.eye(n)
    j, k = np.unravel_index(np.argmax(off), off.shape)
    assert n * off[j, k] > 1.0
    g1 = g2.copy()
    eps = 0.5 * tol * (1.0 / off[j, k] + n)
    g1[j, k] *= 1.0 + eps
    g1[k, j] *= 1.0 + eps
    return StateSet.from_vectors(spectral_factor(g1), normalize=True), final


def test_flagged_completion_psd_within_tol_takes_eigh(monkeypatch):
    # A flagged completion whose smallest eigenvalue lies in
    # [-tol max(1, radius), -tol) passes the PSD rule: the check then takes
    # eigh, as an unflagged one does, and its min_eigenvalue, factor C,
    # verdict and notes are those of that eigh, bit for bit.  At N = 2
    # eigh's and eigvalsh's eigenvalues agree bitwise, so these pairs are
    # N >= 3.
    rng = np.random.default_rng(2612)
    counts = tally(monkeypatch)
    for n in (3, 4, 6, 8):
        initial, final = flagged_psd_pair(rng, n, DEFAULT_TOL)
        for build in (False, True):
            counts.clear()
            report = _check(initial, final, DEFAULT_TOL, build)
            assert (counts["eigvalsh"], counts["eigh"]) == (1, 1)
            assert len(report.violating_pairs) == 1
            completion = report._pair.completion
            w, v = np.linalg.eigh(completion)
            radius = float(np.max(np.abs(w)))
            assert -DEFAULT_TOL * radius <= w[0] < -DEFAULT_TOL
            assert report.verdict == FEASIBLE and report.notes == ()
            assert repr(report.min_eigenvalue) == repr(float(w[0]))
            c = _spectral_factor(w[::-1], v[:, ::-1], DEFAULT_TOL)
            np.testing.assert_array_equal(report._pair.c, c, strict=True)


def test_bare_check_allocation_budget():
    # Each N x N array is built once and dies once dead: the Gram matrices'
    # and the ratio matrix's Hermitian parts are formed in place, the report
    # keeps the ratio matrix's own arrays, a fully defined completion is the
    # ratio matrix, |G1| and |G2| die before any factorization, and a flagged
    # pair skips the completion's Cholesky.  The report keeps G1, G2 and the
    # ratio matrix, plus the audit records (about one unit for the
    # infeasible pair, which flags all 2016).
    budgets = {  # verdict, independent, peak at most, kept within
        "feasible": (FEASIBLE, True, 6.25, (3.0, 3.2)),
        "reversed": (INFEASIBLE, True, 7.5, (4.0, 4.2)),
        "dependent": (FEASIBLE, False, 8.25, (3.0, 3.2)),
    }
    for (initial, final), (kind, budget) in zip(check_mix(6401), budgets.items()):
        verdict, independent, most, (low, high) = budget
        report, peak, kept = traced_bare_check(initial, final)
        assert (report.verdict, report.initial_independent) == (verdict, independent), kind
        assert peak <= most, kind
        assert low <= kept <= high, kind


# ------------------------------------- decide-only and build checks agree
# feasibility_check decides; the build check (_check with build=True) also
# keeps the factor C and G1's inverse that synthesize, the roundtrip and
# cli sweep build from.  A certified decide-only check proves its fast accept with one
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


@pytest.mark.parametrize("tol", [1.0, 3.0])
def test_checks_refuse_a_tol_that_leaves_no_gram_eigenvalue_above_the_cut(tol):
    # At tol >= 1 no eigenvalue of G1 would clear tol * lambda_max: its rank
    # would be 0 and a dependent set's rounding-sized eigenvalue would be
    # inverted, yet the 1e3 * tol guard would pass the channel.  The bare
    # and the build check both refuse such a tol before any Gram is formed.
    a = unit_rows(DEPENDENT_3)
    for build in (False, True):
        with pytest.raises(InvalidToleranceError, match="^tol must be finite and >= 0"):
            _check(a, a, tol, build)


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
        m = feasibility_check(a, b, tol).ratio_matrix
        q = raw_quotient(g1, g2, m.defined)
        assert m.entries.tobytes() == ((q + q.conj().T) / 2.0).tobytes()
        np.testing.assert_array_equal(m.entries, m.entries.conj().T)
        np.testing.assert_array_equal(q, m.entries)
        nonzero = q.view(np.float64) != 0.0
        assert q.view(np.float64)[nonzero].tobytes() == m.entries.view(np.float64)[nonzero].tobytes()
