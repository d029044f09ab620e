import inspect
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    block_diagonal,
    raised_message,
    reference_hermitian_defect,
    reference_projection_defect,
    reference_pvm_defect,
    reference_require_projection,
    reference_require_pvm,
)
from gadgetgraph import linalg
from gadgetgraph.errors import ValidationError
from gadgetgraph.games import matrix_from_json
from gadgetgraph.linalg import (
    PVM_CHUNK,
    TOL_EIGENVALUE,
    TOL_PROJECTION,
    _stack_defects,
    commutator,
    haar_unitary,
    identity,
    random_hermitian,
    random_positive_contraction,
    random_projection,
    random_pvm,
    require_hermitian,
    require_positive_contraction,
    require_projection,
    require_pvm,
    require_pvm_family,
    spectral_projection_half,
    trace_product,
    two_norm,
)
from gadgetgraph.rounding import perturb_pvm_with_reports


def test_normalized_trace_of_identity_is_one():
    for d in (1, 2, 5):
        assert trace_product(identity(d), identity(d)) == pytest.approx(1.0)


def test_trace_is_tracial(rng):
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    assert trace_product(a, b) == pytest.approx(trace_product(b, a), abs=1e-12)


def test_trace_drops_imaginary_part(rng):
    # tau must be real on Hermitian inputs even with float dust in the
    # off-diagonal entries.
    a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
    assert isinstance(trace_product(a, b), float)


def test_two_norm_normalization():
    assert two_norm(identity(7)) == pytest.approx(1.0)
    assert two_norm(np.zeros((4, 4))) == 0.0


def test_projection_product_norm_equals_trace(rng):
    # ||PQ||_2^2 = tau(PQP) = tau(PQ) for projections: the workhorse
    # identity behind every off-color estimate.
    p = random_projection(rng, 5, rank=2)
    q = random_projection(rng, 5, rank=3)
    assert two_norm(p @ q) ** 2 == pytest.approx(trace_product(p, q), abs=1e-12)


def test_commutator_antisymmetry(rng):
    a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
    assert np.allclose(commutator(a, b), -commutator(b, a))


def hermitian_defect(m) -> float:
    """The Hermitian defect ``_stack_defects`` gives one operator, a matrix or a block stack."""
    return float(next(_stack_defects(np.asarray(m, dtype=np.complex128)[None, None]))[0][0, 0])


def test_require_hermitian_rejects_skew():
    bad = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ValidationError):
        require_hermitian(bad)
    assert hermitian_defect(bad) > 0.1


def test_require_projection_accepts_noisy_exact(rng):
    p = random_projection(rng, 4, rank=2)
    noisy = p + 1e-13 * random_hermitian(rng, 4)
    require_projection(noisy)


def test_require_projection_rejects_half():
    with pytest.raises(ValidationError):
        require_projection(0.5 * identity(3))
    assert reference_projection_defect(0.5 * identity(3)) == pytest.approx(0.25)


def test_require_pvm_happy_path(rng):
    mats = random_pvm(rng, 6, 4)
    out = require_pvm(mats)
    assert len(out) == 4
    assert np.allclose(sum(out), identity(6))


@pytest.mark.parametrize("fault", [None, "half", "repeated", "merged"])
def test_a_stacked_pvm_validates_as_its_list(rng, fault):
    u = haar_unitary(rng, 3)
    mats = [np.outer(u[:, a], u[:, a].conj()) for a in range(3)]  # rank one each
    if fault == "half":
        mats[1] = 0.5 * mats[1]
    elif fault == "repeated":
        mats[2] = mats[0]
    elif fault == "merged":
        mats[0] = mats[0] + mats[1]
    listed, stacked = raised_message(lambda: require_pvm(mats)), raised_message(lambda: require_pvm(np.stack(mats)))
    assert stacked == listed and (stacked is None) == (fault is None)
    if fault is None:
        assert all(np.array_equal(a, b) for a, b in zip(require_pvm(np.stack(mats)), require_pvm(mats)))
    assert raised_message(lambda: require_pvm(np.empty((0, 3, 3)))) == "PVM has no outcomes"


def test_require_pvm_rejects_broken_sum(rng):
    mats = list(random_pvm(rng, 4, 3))
    mats[0] = np.zeros((4, 4))
    with pytest.raises(ValidationError):
        require_pvm(mats)


@settings(max_examples=25, deadline=None)
@given(
    size=st.sampled_from([1, 15, 16, 17, 33]),
    b=st.sampled_from([None, 1, 3]),
    d=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=4),
    scale=st.sampled_from([1e-10, 1e-8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_family_defects_match_the_per_member_checks_bit_for_bit(size, b, d, k, scale, seed):
    # Near-PVMs, off by noise around the tolerances so that no defect is 0;
    # 1, 15, 16, 17 and 33 keys put every stack boundary somewhere new.  At
    # the smaller noise the projection defects settle the eigenvalue check.
    # Outcomes are d-by-d matrices (b None) or (b, d, d) block operators.
    rng = np.random.default_rng(seed)
    shape = (d, d) if b is None else (b, d, d)

    def near_pvm():
        if b is None:
            pvm = random_pvm(rng, d, k)
        else:
            pvm = [np.stack(blocks) for blocks in zip(*(random_pvm(rng, d, k) for _ in range(b)))]
        return [p + scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for p in pvm]

    family = {f"v{i}": near_pvm() for i in range(size)}
    keys, pvms = list(family), list(family.values())
    full = np.array(pvms)
    slices = [(start, start + PVM_CHUNK) for start in range(0, size, PVM_CHUNK)]
    checked = []  # the stacks require_pvm_family checks, with their labels
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_require_stack", lambda stack, name, tol: checked.append(
            (stack, [name(i) for i in range(len(stack))])
        ))
        require_pvm_family(full, keys)
    labels = [[f"PVM at {key!r}" for key in keys[lo:hi]] for lo, hi in slices]
    assert [names for _, names in checked] == labels
    for (stack, _), (lo, hi) in zip(checked, slices, strict=True):
        assert np.shares_memory(stack, full) and np.array_equal(stack, full[lo:hi])
    # Each 16-row slice of the stack, and each PVM alone as require_pvm stacks it.
    for lo, hi in slices + [(i, i + 1) for i in range(size)]:
        members = pvms[lo:hi]
        stack = full[lo:hi]
        (herm, *_), (proj, *_), *eigen, (pvm, *_) = _stack_defects(stack)
        assert herm.tolist() == [[reference_hermitian_defect(m) for m in mats] for mats in members]
        assert proj.tolist() == [[reference_projection_defect(m) for m in mats] for mats in members]
        eigs = [[np.linalg.eigvalsh(m) for m in mats] for mats in members]
        off = [[float(np.max(np.minimum(np.abs(e), np.abs(e - 1.0)))) for e in row] for row in eigs]
        if eigen:
            assert eigen[0][0].tolist() == off
        else:
            assert 2.0 * math.sqrt((b or 1) * d) * proj.max() <= TOL_EIGENVALUE
            assert max(map(max, off)) <= TOL_EIGENVALUE
        assert pvm.tolist() == [reference_pvm_defect(mats) for mats in members]
    for mats in family.values():
        *_, (worst, _, _) = _stack_defects(np.stack(mats)[None])
        assert worst[0] == reference_pvm_defect(mats)
        assert [hermitian_defect(m) for m in mats] == [reference_hermitian_defect(m) for m in mats]
        # Same verdicts; the messages may differ when two checks fail.
        for check, reference, arg in [(require_pvm, reference_require_pvm, mats)] + [
            (require_projection, reference_require_projection, m) for m in mats
        ]:
            assert (raised_message(lambda: check(arg)) is None) == (raised_message(lambda: reference(arg)) is None)


def test_valid_families_skip_the_eigenvalue_check(monkeypatch):
    # PVMs exact to rounding have projection defects near 1e-16, far below
    # the 1e-8 / (2 sqrt(d)) that settles the eigenvalue check, so no stack
    # of them reaches eigvalsh up to the documented d = 64.
    def forbidden(a):
        raise AssertionError("eigvalsh called")

    rng = np.random.default_rng(5)
    stacks = [np.array([random_pvm(rng, d, 3) for _ in range(20)]) for d in (1, 16, 64)]
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    for stack in stacks:
        require_pvm_family(stack, range(20))


def test_block_operators_take_the_skip_rule_at_their_full_dimension():
    # A PVM of (6, 22, 22) block operators, N = 132, whose outcome 1 has one
    # eigenvalue at 1 + 1.05e-8, lifted along its own range so that the PVM
    # defect stays 9.1e-10.  ||P^2 - P||_2 = 1.05e-8 / sqrt(132) = 9.1e-10
    # passes the projection check; 2 sqrt(132) times it is 2.1e-8, so the
    # eigenvalue check runs and fails.  At d = 22 the rule would skip it.
    u = haar_unitary(np.random.default_rng(9), 22)
    parts = [u[:, lo:hi] @ u[:, lo:hi].conj().T for lo, hi in ((0, 7), (7, 15), (15, 22))]
    mats = [np.stack([(p + p.conj().T) / 2.0] * 6) for p in parts]
    require_pvm(mats)
    v = u[:, :1]
    mats[0][3] += 1.05e-8 * (v @ v.conj().T)
    defect = reference_projection_defect(mats[0])
    assert defect <= TOL_PROJECTION
    assert 2.0 * math.sqrt(22) * defect <= TOL_EIGENVALUE < 2.0 * math.sqrt(132) * defect
    eigenvalue = r"has an eigenvalue 1\.05\de-08 away from \{0,1\} \(tolerance 1e-08\)$"
    with pytest.raises(ValidationError, match="^PVM outcome 1 " + eigenvalue):
        require_pvm(mats)
    with pytest.raises(ValidationError, match="^matrix " + eigenvalue):
        require_projection(mats[0])


_FAULTS = {
    "hermitian": lambda p: p + np.triu(np.full_like(p, 1e-6), 1),
    "projection": lambda p: 0.5 * identity(len(p)),
    "pvm": lambda p: identity(len(p)),
}


#: Faults at (key, outcome) of a 20-key family, and the error's start: the
#: first failing check, in it the first key, then the first outcome, all
#: within the first 16-row slice that fails.
@pytest.mark.parametrize(
    "faults,named",
    [
        ({(5, 1): "projection", (5, 2): "hermitian"}, "PVM at 5 outcome 2 is not Hermitian"),
        ({(3, 1): "projection", (5, 3): "hermitian"}, "PVM at 5 outcome 3 is not Hermitian"),
        ({(1, 2): "pvm", (4, 1): "projection"}, "PVM at 4 outcome 1 is not a projection"),
        ({(5, 1): "projection", (3, 3): "projection", (3, 2): "projection"}, "PVM at 3 outcome 2 is not a projection"),
        ({(2, 1): "projection", (18, 1): "hermitian"}, "PVM at 2 outcome 1 is not a projection"),
    ],
)
def test_two_fault_families_name_the_first_failure_in_check_order(faults, named):
    rng = np.random.default_rng(13)
    family = {key: list(random_pvm(rng, 3, 3)) for key in range(1, 21)}
    for (key, outcome), kind in faults.items():
        family[key][outcome - 1] = _FAULTS[kind](family[key][outcome - 1])
    stack = np.array([family[key] for key in range(1, 21)])
    assert raised_message(lambda: require_pvm_family(stack, range(1, 21))).startswith(named)
    key = int(named.split()[2])
    assert raised_message(lambda: require_pvm(family[key], what=f"PVM at {key}")).startswith(named)


@pytest.mark.parametrize(
    "outcomes,message",
    [
        (("half", "ok", "small"), "PVM outcome 1 is not a projection"),
        (("ok", "small", "half"), "PVM outcome 3 is not a projection"),
        (("ok", "ok", "small"), "PVM outcome 3 has shape (2, 2), expected (3, 3)"),
    ],
)
def test_ragged_pvms_name_each_outcome_before_the_shape_mismatch(outcomes, message):
    spelled = {"ok": np.diag([1.0, 0.0, 0.0]), "half": 0.5 * identity(3), "small": np.zeros((2, 2))}
    mats = [spelled[name] for name in outcomes]
    got = raised_message(lambda: require_pvm(mats))
    assert got.startswith(message) and got == raised_message(lambda: reference_require_pvm(mats))
    assert raised_message(lambda: require_pvm([])) == "PVM has no outcomes"


def test_positive_contraction_window():
    require_positive_contraction(np.diag([0.0, 0.5, 1.0]))
    with pytest.raises(ValidationError):
        require_positive_contraction(np.diag([0.0, 0.5, 1.0 + 1e-6]))
    with pytest.raises(ValidationError):
        require_positive_contraction(np.diag([-1e-6, 0.5, 1.0]))


def test_spectral_projection_half_fixes_projections(rng):
    p = random_projection(rng, 5, rank=2)
    assert two_norm(spectral_projection_half(p) - p) < 1e-12


def test_spectral_projection_half_ties_go_up():
    out = spectral_projection_half(0.5 * identity(3))
    assert np.allclose(out, identity(3))


def test_spectral_projection_half_respects_distance_bound(rng):
    for _ in range(50):
        a = random_positive_contraction(rng, 6)
        b = spectral_projection_half(a)
        assert reference_projection_defect(b) < 1e-12
        assert two_norm(a - b) <= 2.0 * math.sqrt(2.0) * two_norm(a - a @ a) + 1e-9


def test_spectral_projection_half_decomposes_once(monkeypatch, rng):
    # One eigh gives both the window check and the projection; eigvalsh
    # would be a second decomposition of the same matrix.
    def forbidden(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    for _ in range(10):
        a = random_positive_contraction(rng, 6)
        eigs, vecs = np.linalg.eigh(a)
        keep = np.clip(eigs, 0.0, 1.0) >= 0.5
        expected = vecs[:, keep] @ vecs[:, keep].conj().T
        assert np.array_equal(spectral_projection_half(a), (expected + expected.conj().T) / 2.0)
    window = r"spectral_projection_half input spectrum \[.*\] leaves \[0,1\] beyond tolerance 1e-09"
    for bad in ([0.0, 0.5, 1.0 + 1e-6], [-1e-6, 0.5, 1.0]):
        with pytest.raises(ValidationError, match=window):
            spectral_projection_half(np.diag(bad))


def test_haar_unitary_is_unitary(rng):
    u = haar_unitary(rng, 5)
    assert np.allclose(u @ u.conj().T, identity(5), atol=1e-12)


def test_random_projection_rank(rng):
    p = random_projection(rng, 6, rank=4)
    assert round(np.trace(p).real) == 4
    assert reference_projection_defect(p) < 1e-12


@pytest.mark.parametrize("rank", [-1, 7])
def test_random_projection_refuses_a_rank_outside_the_dimension(rng, rank):
    with pytest.raises(ValidationError, match=f"^rank {rank} out of range for dimension 6$"):
        random_projection(rng, 6, rank=rank)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(min_value=1, max_value=8), outcomes=st.integers(min_value=1, max_value=5))
def test_random_pvm_always_valid(d, outcomes):
    rng = np.random.default_rng(d * 100 + outcomes)
    require_pvm(random_pvm(rng, d, outcomes))


def test_matrix_json_round_trip(rng):
    m = random_hermitian(rng, 3) + 1j * np.triu(np.ones((3, 3)))
    m = np.asarray(m, dtype=np.complex128)
    back = matrix_from_json(m.view(np.float64).reshape(-1, 2).tolist(), 3)
    assert np.array_equal(back, m)


def test_matrix_json_rejects_wrong_length():
    with pytest.raises(ValidationError):
        matrix_from_json([[1.0, 0.0]] * 3, 2)


@pytest.mark.parametrize(
    "data,message",
    [
        ([1.0, 0.0, 0.0, 1.0], "matrix entry 0 is not an \\[re, im\\] pair"),
        ([[1.0, 0.0], [0.0], [0.0, 0.0], [1.0, 0.0]], "matrix entry 1 is not an \\[re, im\\] pair"),
        ([[1.0, 0.0, 0.0]] * 4, "matrix entry 0 is not an \\[re, im\\] pair"),
        ([[1.0, 0.0], [0.0, 0.0], {"re": 0.0}, [1.0, 0.0]], "matrix entry 2 is not an \\[re, im\\] pair"),
    ],
)
def test_matrix_json_rejects_non_pair_entry(data, message):
    with pytest.raises(ValidationError, match=message):
        matrix_from_json(data, 2)


@pytest.mark.parametrize("part", ["1.0", None, [1.0]])
def test_matrix_json_rejects_non_numeric_parts(part):
    data = [[1.0, 0.0], [0.0, 0.0], [0.0, part], [1.0, 0.0]]
    with pytest.raises(ValidationError, match="matrix entry 2 has non-numeric parts"):
        matrix_from_json(data, 2)


def test_matrix_json_takes_integer_parts_and_refuses_booleans():
    back = matrix_from_json([[1, 0], [0, 2**64], [0.5, -3], [1, 0]], 2)
    assert np.array_equal(back, np.array([[1, 2.0**64 * 1j], [0.5 - 3j, 1]]))
    with pytest.raises(ValidationError, match="beyond the float range"):
        matrix_from_json([[1, 0], [0, 10**400], [0, 0], [1, 0]], 2)
    # A JSON true or false is no number, as in a game file.
    for part in (True, False):
        with pytest.raises(ValidationError, match=r"^matrix entry 3 has non-numeric parts$"):
            matrix_from_json([[1, 0], [0, 0], [0.5, -3], [part, 0]], 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_validation_rejects_non_finite_entries(bad, where):
    p = np.diag([1.0, 0.0]).astype(np.complex128)
    p[where] = bad
    with pytest.raises(ValidationError):
        require_hermitian(p)
    with pytest.raises(ValidationError):
        require_pvm([p, identity(2) - p])


# ---------------------------------------------------------------------------
# (k, d, d) stacks read as their block-diagonal matrices


def _twisted_pvm_stack(rng, k: int, d: int, outcomes: int, angle: float) -> list:
    """Per block, a random PVM whose outcomes are each conjugated by their own
    small unitary: projections that are almost, not exactly, a PVM."""
    blocks = []
    for _ in range(k):
        twisted = []
        for p in random_pvm(rng, d, outcomes):
            w, v = np.linalg.eigh(random_hermitian(rng, d))
            u = (v * np.exp(1j * angle * w)) @ v.conj().T
            twisted.append(u @ p @ u.conj().T)
        blocks.append(twisted)
    return [np.stack([block[o] for block in blocks]) for o in range(outcomes)]


def _accepts_window(m) -> bool:
    try:
        require_positive_contraction(m)
    except ValidationError:
        return False
    return True


@settings(max_examples=25, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stacks_read_as_their_block_diagonal_matrix(k, d, seed):
    rng = np.random.default_rng(seed)

    def ginibre():
        return rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))

    a, b = ginibre(), ginibre()
    dense_a, dense_b = block_diagonal(a), block_diagonal(b)
    assert two_norm(a) == pytest.approx(two_norm(dense_a), rel=1e-12)
    assert trace_product(a, b) == pytest.approx(trace_product(dense_a, dense_b), rel=1e-9, abs=1e-12)
    assert hermitian_defect(a) == hermitian_defect(dense_a)

    contractions = np.stack([random_positive_contraction(rng, d) for _ in range(k)])
    j = int(rng.integers(k))
    for shift, inside in ((1e-10, True), (1e-6, False)):
        moved = contractions.copy()
        moved[j] += (1.0 + shift - np.linalg.eigvalsh(moved[j])[-1]) * identity(d)
        assert _accepts_window(moved) == _accepts_window(block_diagonal(moved)) == inside

    rounded = spectral_projection_half(contractions)
    assert rounded.shape == (k, d, d)
    assert np.allclose(block_diagonal(rounded), spectral_projection_half(block_diagonal(contractions)), atol=1e-10)
    # An eigenvalue of exactly 1/2 in every block goes up in every block.
    ties = np.stack([np.diag([0.5, *rng.uniform(0.0, 1.0, d - 1)]) for _ in range(k)]).astype(np.complex128)
    rounded = spectral_projection_half(ties)
    assert np.all(rounded[:, 0, 0] == 1.0)
    assert np.array_equal(block_diagonal(rounded), spectral_projection_half(block_diagonal(ties)))

    inputs = _twisted_pvm_stack(rng, k, d, 3, 0.02)
    pvm, reports = perturb_pvm_with_reports(inputs)
    dense_pvm, dense_reports = perturb_pvm_with_reports([block_diagonal(m) for m in inputs])
    for got, want in zip(pvm, dense_pvm, strict=True):
        assert got.shape == (k, d, d)
        assert np.allclose(block_diagonal(got), want, atol=1e-10)
    for got, want in zip(reports, dense_reports, strict=True):
        assert got.lhs == pytest.approx(want.lhs, rel=1e-9, abs=1e-12)
        assert got.rhs == pytest.approx(want.rhs, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("shape", [(0, 0), (0, 2, 2), (2, 0, 0)])
@pytest.mark.parametrize(
    "check",
    [
        pytest.param(lambda m: require_pvm([m]), id="require_pvm"),
        pytest.param(lambda m: require_pvm_family(m[None, None], [1]), id="require_pvm_family"),
        pytest.param(require_projection, id="require_projection"),
        pytest.param(two_norm, id="two_norm"),
        pytest.param(require_hermitian, id="require_hermitian"),
    ],
)
def test_an_empty_operator_is_invalid_input(check, shape):
    # It used to fail with a raw numpy ValueError or a ZeroDivisionError.
    with pytest.raises(ValidationError, match=r"^expected a nonempty operator, got shape"):
        check(np.zeros(shape))


@pytest.mark.parametrize("shape", [(2, 3), (4,), (1, 2, 2, 2)])
def test_an_operator_that_is_not_square_is_invalid_input(shape):
    message = rf"^expected a square matrix or a \(k, d, d\) stack, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValidationError, match=message):
        two_norm(np.zeros(shape))


def test_a_family_check_makes_as_many_public_calls_at_any_row_count(monkeypatch, rng):
    # Every traced command of a benchmark run must make the same calls, so
    # the public calls of a check must not grow with the rows it checks.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in list(vars(linalg).items()):
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == linalg.__name__:
            monkeypatch.setattr(linalg, name, counting(name, fn))
    pvm = np.array(random_pvm(rng, 4, 3))

    def public_calls(rows: int) -> dict:
        calls.clear()
        linalg.require_pvm_family(np.stack([pvm] * rows), range(rows))
        return dict(calls)

    assert public_calls(16) == public_calls(48) == {"require_pvm_family": 1}
