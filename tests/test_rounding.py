import numpy as np
import pytest

from gadgetgraph.errors import BoundViolation, ValidationError
from gadgetgraph.instances import BOUND_FAMILIES, bound_suite_trial
from gadgetgraph.linalg import random_pvm, two_norm
from gadgetgraph.rounding import (
    PERM3,
    InequalityReport,
    check_commutator_transfer,
    check_cutdown_sum,
    check_prism,
    check_quantum_permutation,
    check_three_sum_zero,
    perturb_pvm,
    perturb_pvm_with_reports,
    perturb_two,
)


def coord(d: int, i: int) -> np.ndarray:
    out = np.zeros((d, d), dtype=np.complex128)
    out[i % d, i % d] = 1.0
    return out


def coord_pvm(shift: int = 0):
    return [coord(3, i + shift) for i in range(3)]


# ---------------------------------------------------------------------------
# report plumbing


def test_report_slack_and_require():
    good = InequalityReport("demo", lhs=1.0, rhs=1.5)
    assert good.slack == pytest.approx(0.5)
    assert good.require() is good


def test_report_require_raises_with_context():
    bad = InequalityReport("demo bound", lhs=2.0, rhs=1.0)
    with pytest.raises(BoundViolation, match="demo bound"):
        bad.require()


def test_report_require_tolerates_tiny_negatives():
    InequalityReport("demo", lhs=1.0, rhs=1.0 - 1e-12).require()
    with pytest.raises(BoundViolation):
        InequalityReport("demo", lhs=1.0, rhs=1.0 - 1e-6).require()


def test_perm3_is_all_bijections():
    assert len(set(PERM3)) == 6
    assert all(sorted(p) == [1, 2, 3] for p in PERM3)


# ---------------------------------------------------------------------------
# exact cases: both sides land on zero, so the slack is exactly zero and
# any sign error in either side would show up immediately


def test_three_sum_zero_on_zeros():
    z = np.zeros((3, 3))
    report = check_three_sum_zero(z, z, z)
    assert report.lhs == 0.0 and report.rhs == 0.0
    report.require(tol=0.0)


def test_three_sum_zero_rejects_nonzero_sum():
    with pytest.raises(ValidationError, match="add to zero"):
        check_three_sum_zero(np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))


def test_three_sum_zero_rejects_non_hermitian():
    skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError):
        check_three_sum_zero(skew, -skew, np.zeros((2, 2)))


def test_commutator_transfer_exact_diagonal():
    triple = coord_pvm()
    report = check_commutator_transfer(triple, coord_pvm(1))
    assert report.lhs == 0.0 and report.rhs == 0.0
    report.require(tol=0.0)


def test_commutator_transfer_rejects_non_projections():
    half = [0.5 * np.eye(2)] * 3
    with pytest.raises(ValidationError):
        check_commutator_transfer(half, half)


def test_commutator_transfer_needs_three():
    pair = [coord(3, 0), np.eye(3) - coord(3, 0)]
    with pytest.raises(ValidationError, match="three"):
        check_commutator_transfer(pair, pair)


def test_quantum_permutation_exact_shifts():
    rows = [coord_pvm(x) for x in range(3)]
    report = check_quantum_permutation(rows)
    assert report.lhs == 0.0 and report.rhs == 0.0
    report.require(tol=0.0)


def test_quantum_permutation_needs_three_rows():
    with pytest.raises(ValidationError, match="three"):
        check_quantum_permutation([coord_pvm(), coord_pvm(1)])


def test_prism_exact_latin_square():
    p = [[coord(3, i + j) for j in range(3)] for i in range(3)]
    q = [[coord(3, i + j + 1) for j in range(3)] for i in range(3)]
    report = check_prism(p, q)
    assert report.lhs == 0.0 and report.rhs == 0.0
    report.require(tol=0.0)


def test_prism_rejects_broken_column():
    p = [[coord(3, i + j) for j in range(3)] for i in range(3)]
    bad = [[coord(3, 0) for _ in range(3)] for _ in range(3)]
    with pytest.raises(ValidationError, match="column"):
        check_prism(p, bad)


def test_prism_rejects_wrong_shape():
    p = [[coord(3, i + j) for j in range(3)] for i in range(3)]
    with pytest.raises(ValidationError, match="3x3"):
        check_prism(p, p[:2])


def test_prism_rejects_mixed_dimensions():
    p3 = [[coord(3, i + j) for j in range(3)] for i in range(3)]
    p6 = [
        [np.kron(np.eye(2), coord(3, i + j)).astype(np.complex128) for j in range(3)]
        for i in range(3)
    ]
    with pytest.raises(ValidationError, match="dimensions"):
        check_prism(p3, p6)


def test_cutdown_exact_shifted_coordinates():
    # with the three PVMs pairwise disjoint coordinate shifts, exactly three
    # of the six sandwich orders survive and they tile the identity
    report = check_cutdown_sum(coord_pvm(0), coord_pvm(1), coord_pvm(2))
    assert report.lhs == 0.0 and report.rhs == 0.0
    report.require(tol=0.0)


def test_cutdown_rejects_wrong_outcome_count():
    quad = [coord(4, i) for i in range(4)]
    with pytest.raises(ValidationError, match="three"):
        check_cutdown_sum(quad, quad, quad)


# ---------------------------------------------------------------------------
# rounding constructions


def test_perturb_two_exact_orthogonal_is_identity_map():
    a, b = coord(3, 0), coord(3, 1)
    out = perturb_two(a, b)
    assert np.allclose(out, b, atol=1e-12)
    assert two_norm(a @ out) == 0.0


def test_perturb_two_rejects_non_projection():
    with pytest.raises(ValidationError):
        perturb_two(0.5 * np.eye(2), coord(2, 0))


def test_perturb_pvm_fixes_exact_pvm():
    mats = coord_pvm()
    pvm, reports = perturb_pvm_with_reports(mats)
    assert len(pvm) == len(reports) == 3
    for before, after in zip(mats, pvm):
        assert np.allclose(after, before, atol=1e-12)
    assert reports[0].lhs == 0.0 and reports[0].rhs == 0.0
    assert all(r.slack >= 0.0 for r in reports)


def test_perturb_pvm_single_input_completion_is_sharp():
    # a single projection rounds to the identity; the certified distance for
    # the completion step is exactly the sum defect, so the slack is zero
    e1 = coord(3, 0)
    pvm, reports = perturb_pvm_with_reports([e1])
    assert np.allclose(pvm[0], np.eye(3))
    assert reports[0].lhs == pytest.approx(reports[0].rhs, abs=1e-12)


def test_perturb_pvm_rejects_empty_and_noncontraction():
    with pytest.raises(ValidationError):
        perturb_pvm_with_reports([])
    with pytest.raises(ValidationError):
        perturb_pvm([1.5 * coord(2, 0), 0.5 * np.eye(2)])


def test_perturb_pvm_takes_a_stack(rng):
    with pytest.raises(ValidationError, match="need at least one input"):
        perturb_pvm(np.zeros((0, 4, 4)))
    pvm = random_pvm(rng, 4, 3)
    blocks = [np.stack([pvm[0], 0.5 * np.eye(4)]), np.stack([pvm[1], 0.25 * np.eye(4)])]
    for mats in (list(pvm), blocks):
        from_list, list_reports = perturb_pvm_with_reports(mats)
        from_stack, stack_reports = perturb_pvm_with_reports(np.stack(mats))
        assert all(np.array_equal(a, b) for a, b in zip(from_list, from_stack, strict=True))
        assert stack_reports == list_reports


def test_perturb_pvm_output_is_exact(rng):
    noisy = [m + 0.0 for m in random_pvm(rng, 5, 4)]
    pvm, _ = perturb_pvm_with_reports(noisy)
    total = sum(pvm)
    assert np.allclose(total, np.eye(5), atol=1e-12)


# ---------------------------------------------------------------------------
# randomized sweep (a short version of the acceptance criterion)


def test_bound_suite_short_sweep():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(60):
        d = int(rng.integers(2, 7))
        for family, report in bound_suite_trial(rng, d):
            seen.add(family)
            assert report.slack >= -1e-9, f"{family}: {report.context}"
    assert seen == set(BOUND_FAMILIES)
