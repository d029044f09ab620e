import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gadgetgraph.errors import ValidationError
from gadgetgraph.linalg import (
    commutator,
    haar_unitary,
    hermitian_defect,
    identity,
    matrix_from_json,
    matrix_to_json,
    normalized_trace,
    projection_defect,
    random_hermitian,
    random_positive_contraction,
    random_projection,
    random_pvm,
    require_hermitian,
    require_positive_contraction,
    require_projection,
    require_pvm,
    spectral_projection_half,
    two_norm,
)


def test_normalized_trace_of_identity_is_one():
    for d in (1, 2, 5):
        assert normalized_trace(identity(d)) == pytest.approx(1.0)


def test_trace_is_tracial(rng):
    a = random_hermitian(rng, 4)
    b = random_hermitian(rng, 4)
    assert normalized_trace(a @ b) == pytest.approx(normalized_trace(b @ a), abs=1e-12)


def test_trace_drops_imaginary_part(rng):
    # tau must be real on Hermitian inputs even with float dust in the
    # off-diagonal entries.
    a = random_hermitian(rng, 3)
    assert isinstance(normalized_trace(a), float)


def test_two_norm_normalization():
    assert two_norm(identity(7)) == pytest.approx(1.0)
    assert two_norm(np.zeros((4, 4))) == 0.0


def test_projection_product_norm_equals_trace(rng):
    # ||PQ||_2^2 = tau(PQP) = tau(PQ) for projections: the workhorse
    # identity behind every off-color estimate.
    p = random_projection(rng, 5, rank=2)
    q = random_projection(rng, 5, rank=3)
    assert two_norm(p @ q) ** 2 == pytest.approx(normalized_trace(p @ q), abs=1e-12)


def test_commutator_antisymmetry(rng):
    a, b = random_hermitian(rng, 3), random_hermitian(rng, 3)
    assert np.allclose(commutator(a, b), -commutator(b, a))


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
    assert projection_defect(0.5 * identity(3)) == pytest.approx(0.25)


def test_require_pvm_happy_path(rng):
    mats = random_pvm(rng, 6, 4)
    out = require_pvm(mats)
    assert len(out) == 4
    assert np.allclose(sum(out), identity(6))


def test_require_pvm_rejects_broken_sum(rng):
    mats = list(random_pvm(rng, 4, 3))
    mats[0] = np.zeros((4, 4))
    with pytest.raises(ValidationError):
        require_pvm(mats)


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
        assert projection_defect(b) < 1e-12
        assert two_norm(a - b) <= 2.0 * math.sqrt(2.0) * two_norm(a - a @ a) + 1e-9


def test_haar_unitary_is_unitary(rng):
    u = haar_unitary(rng, 5)
    assert np.allclose(u @ u.conj().T, identity(5), atol=1e-12)


def test_random_projection_rank(rng):
    p = random_projection(rng, 6, rank=4)
    assert round(np.trace(p).real) == 4
    assert projection_defect(p) < 1e-12


@settings(max_examples=25, deadline=None)
@given(d=st.integers(min_value=1, max_value=8), outcomes=st.integers(min_value=1, max_value=5))
def test_random_pvm_always_valid(d, outcomes):
    rng = np.random.default_rng(d * 100 + outcomes)
    require_pvm(random_pvm(rng, d, outcomes))


def test_matrix_json_round_trip(rng):
    m = random_hermitian(rng, 3) + 1j * np.triu(np.ones((3, 3)))
    m = np.asarray(m, dtype=np.complex128)
    back = matrix_from_json(matrix_to_json(m), 3)
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


def test_matrix_json_takes_integer_and_boolean_parts():
    back = matrix_from_json([[1, 0], [False, 2**64], [0.5, -3], [True, 0]], 2)
    assert np.array_equal(back, np.array([[1, 2.0**64 * 1j], [0.5 - 3j, 1]]))
    with pytest.raises(ValidationError, match="beyond the float range"):
        matrix_from_json([[1, 0], [0, 10**400], [0, 0], [1, 0]], 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_validation_rejects_non_finite_entries(bad, where):
    p = np.diag([1.0, 0.0]).astype(np.complex128)
    p[where] = bad
    with pytest.raises(ValidationError):
        require_hermitian(p)
    with pytest.raises(ValidationError):
        require_pvm([p, identity(2) - p])
