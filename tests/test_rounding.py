import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from helpers import raised_message
from gadgetgraph import instances, rounding
from gadgetgraph.errors import BoundViolation, ValidationError
from gadgetgraph.instances import BOUND_FAMILIES, bound_suite_trial
from gadgetgraph.linalg import random_projection, random_pvm, spectral_projection_half, two_norm
from gadgetgraph.rounding import (
    PERM3,
    InequalityReport,
    _perturb_checked_two,
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


def test_a_batch_rounds_each_pair_as_perturb_two_does(rng):
    pairs = [(random_projection(rng, 5), random_projection(rng, 5)) for _ in range(6)]
    batch = _perturb_checked_two(np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs]))
    assert batch.shape == (6, 5, 5)
    for got, (a, b) in zip(batch, pairs, strict=True):
        assert got.tobytes() == perturb_two(a, b).tobytes()


def test_perturb_two_rounds_a_block_stack_block_by_block(rng):
    # The complement was once taken at the stack's length, not its block
    # size, and a (2, 3, 3) stack failed to broadcast.
    a, b = (np.stack([random_projection(rng, 3) for _ in range(2)]) for _ in range(2))
    rounded = perturb_two(a, b)
    assert rounded.shape == (2, 3, 3)
    for got, pa, pb in zip(rounded, a, b, strict=True):
        assert np.allclose(got, perturb_two(pa, pb), atol=1e-10)


def test_a_batch_raises_for_its_first_failing_item():
    # Unchecked inputs that fail one check each: the spectrum window (2 1
    # is rounded), orthogonality (a = 2 e_1 is not a projection), and the
    # Hermitian check (a NaN).  A batch raises its first failing item's
    # error, whichever layer checks it.
    ok = coord(3, 0), coord(3, 1)
    wide = np.zeros((3, 3)), 2.0 * np.eye(3)
    skew = 2.0 * coord(3, 0), np.eye(3)
    nan = np.zeros((3, 3)), np.full((3, 3), np.nan)

    def batch(*pairs):
        return _perturb_checked_two(*(np.array(side, dtype=np.complex128) for side in zip(*pairs)))

    window = raised_message(lambda: spectral_projection_half(2.0 * np.eye(3)))
    hermitian = raised_message(lambda: spectral_projection_half(np.full((3, 3), np.nan)))
    assert window.startswith("spectral_projection_half input spectrum")
    assert hermitian.startswith("spectral_projection_half input is not Hermitian")
    assert raised_message(lambda: batch(ok, wide, skew, nan)) == window
    assert raised_message(lambda: batch(ok, nan, wide)) == hermitian
    orthogonal = r"^perturbed projection is not orthogonal: \|\|a out\|\|_2 = 1\.155e\+00$"
    with pytest.raises(BoundViolation, match=orthogonal):
        batch(ok, skew, wide, nan)


def test_perturb_pvm_names_the_first_input_that_fails():
    good, wide, skew = 0.5 * np.eye(2), np.diag([0.0, 1.5]), np.array([[0.0, 1.0], [0.0, 0.0]])
    assert raised_message(lambda: perturb_pvm([good, wide, skew])) == (
        "input 2 spectrum [0.000e+00, 1.500e+00] leaves [0,1] by 5.000e-01, beyond tolerance 1e-09"
    )
    assert raised_message(lambda: perturb_pvm([good, skew, wide])) == (
        "input 2 is not Hermitian: entrywise defect 1.000e+00 > 1e-12"
    )
    # Inputs that do not stack are checked one by one before their shapes.
    assert raised_message(lambda: perturb_pvm([good, skew, np.eye(3)])).startswith("input 2 is not Hermitian")
    assert raised_message(lambda: perturb_pvm([good, np.eye(3)])).startswith("mixed dimensions")


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


# ---------------------------------------------------------------------------
# the stack checkers against the per-operator reference


#: Each checker of the bound suite, by name, and its per-operator reference.
REFERENCES = {
    "check_three_sum_zero": helpers.reference_check_three_sum_zero,
    "check_commutator_transfer": helpers.reference_check_commutator_transfer,
    "check_quantum_permutation": helpers.reference_check_quantum_permutation,
    "check_prism": helpers.reference_check_prism,
    "check_cutdown_sum": helpers.reference_check_cutdown_sum,
}


def bits(report) -> tuple:
    return report.context, float(report.lhs).hex(), float(report.rhs).hex()


@settings(max_examples=40, deadline=None)
@given(d=st.integers(min_value=1, max_value=6), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_stack_checkers_report_the_reference_bits(d, seed):
    # bound_suite_trial draws both the structured and the unstructured
    # families; each checker it calls is compared with its reference there.
    compared = []

    def against_reference(name):
        def both(*args):
            got = getattr(rounding, name)(*args)
            assert bits(got) == bits(REFERENCES[name](*args))
            compared.append(name)
            return got
        return both

    with pytest.MonkeyPatch.context() as mp:
        for name in REFERENCES:
            mp.setattr(instances, name, against_reference(name))
        bound_suite_trial(np.random.default_rng(seed), d)
    assert compared == list(REFERENCES)


def grid():
    return [[coord(3, i + j) for j in range(3)] for i in range(3)]


SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])
NAN = np.full((3, 3), np.nan)

#: Malformed inputs of each checker; where two faults meet, the first in
#: the reference's order is the one named.
MALFORMED = [
    ("check_three_sum_zero", (np.eye(2), np.zeros((2, 2)), np.zeros((2, 2)))),
    ("check_three_sum_zero", (SKEW, -SKEW, np.zeros((2, 2)))),
    ("check_three_sum_zero", (np.zeros((2, 2)), np.zeros((3, 3)), SKEW)),
    ("check_three_sum_zero", (np.zeros((2, 2)), np.zeros((3, 3)), np.zeros((2, 2)))),
    ("check_commutator_transfer", ([0.5 * np.eye(2)] * 3, [0.5 * np.eye(2)] * 3)),
    ("check_commutator_transfer", ([coord(3, 0), np.eye(3) - coord(3, 0)],) * 2),
    ("check_commutator_transfer", (coord_pvm(), [coord(2, 0)] * 3)),
    ("check_commutator_transfer", (coord_pvm(), [coord(2, 0), coord(2, 1)])),
    ("check_commutator_transfer", (coord_pvm(), [coord(3, 0), NAN, 2.0 * coord(3, 0)])),
    ("check_quantum_permutation", ([coord_pvm(), coord_pvm(1)],)),
    ("check_quantum_permutation", ([coord_pvm(), [coord(4, i) for i in range(4)], coord_pvm()],)),
    ("check_quantum_permutation", ([coord_pvm(), coord_pvm(), [coord(2, 0), coord(2, 1), np.zeros((2, 2))]],)),
    ("check_quantum_permutation", ([coord_pvm(), [coord(3, 0), NAN, coord(3, 1)], [coord(3, 0)] * 3],)),
    ("check_quantum_permutation", ([coord_pvm(), [], coord_pvm()],)),
    ("check_prism", (grid(), [[coord(3, 0)] * 3] * 3)),
    ("check_prism", (grid(), grid()[:2])),
    ("check_prism", (grid(), [[np.kron(np.eye(2), m) for m in row] for row in grid()])),
    ("check_prism", (grid(), [[m[None] for m in row] for row in grid()])),
    ("check_prism", (grid(), [row[:2] + [coord(2, 0)] for row in grid()])),
    ("check_prism", ([[0.5 * np.eye(3)] * 3] * 3, [[NAN] * 3] * 3)),
    ("check_cutdown_sum", ([coord(4, i) for i in range(4)],) * 3),
    ("check_cutdown_sum", (coord_pvm(), coord_pvm(1), [coord(2, 0), coord(2, 1), np.zeros((2, 2))])),
    ("check_cutdown_sum", (coord_pvm(), [coord(2, 0), coord(2, 1)], [NAN] * 3)),
]


@pytest.mark.parametrize("name, args", MALFORMED)
def test_stack_checkers_raise_the_reference_message(name, args):
    want = raised_message(lambda: REFERENCES[name](*args))
    assert want is not None
    assert raised_message(lambda: getattr(rounding, name)(*args)) == want
