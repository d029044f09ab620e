"""Dense complex Hermitian linear algebra over M_d with the normalized trace.

Everything downstream measures operators in the trace 2-norm
``||A||_2 = (tr(A*A)/d)^(1/2)``, normalized so the identity has norm 1.
Matrices are plain complex numpy arrays; this module supplies the norms,
validation predicates (Hermitian / projection / PVM, with the tolerances the
rest of the package relies on), spectral projections, and seeded random
generators for test instances.

Dimensions stay desk-scale (d <= 64), so everything is dense and eigh-based.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import BoundViolation, ValidationError

# Validation tolerances. Hermitian checks are entrywise; the rest are in the
# trace 2-norm unless stated otherwise.
TOL_HERMITIAN = 1e-12
TOL_PROJECTION = 1e-9      # ||P^2 - P||_2
TOL_EIGENVALUE = 1e-8      # distance of each eigenvalue from {0, 1}
TOL_PVM = 1e-9             # pairwise products and sum-to-identity defect
TOL_SPECTRUM = 1e-9        # positive-contraction clamp window
TOL_SLACK = 1e-9           # minimum slack for asserted inequalities

ROOT2 = math.sqrt(2.0)


def as_matrix(m, d: int | None = None) -> np.ndarray:
    """Coerce to a square complex128 array, checking shape."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if d is not None and a.shape[0] != d:
        raise ValidationError(f"expected dimension {d}, got {a.shape[0]}")
    return a


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(a b)/d as a real number, without forming the product.

    Contracts sum_ij a_ij b_ji in O(d^2) where forming ``a @ b`` costs a
    d-by-d matmul.  The imaginary part is discarded; for the Hermitian
    operators and projection products used here it is zero up to rounding.
    """
    return float(np.einsum("ij,ji->", a, b).real) / a.shape[0]


def two_norm(m) -> float:
    """Trace 2-norm (tr(m* m)/d)^(1/2); the identity has norm 1.

    Agrees with the Frobenius norm divided by sqrt(d).
    """
    a = as_matrix(m)
    return float(np.linalg.norm(a)) / math.sqrt(a.shape[0])


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128)


def zero(d: int) -> np.ndarray:
    return np.zeros((d, d), dtype=np.complex128)


# ---------------------------------------------------------------------------
# validation


def hermitian_defect(m) -> float:
    """Largest entrywise deviation |m - m*|."""
    a = as_matrix(m)
    if not a.size:
        return 0.0
    # An infinite entry gives inf - inf = NaN here, which the callers reject.
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(m, tol: float = TOL_HERMITIAN, what: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    defect = hermitian_defect(a)
    if not defect <= tol:  # written so that a NaN defect fails too
        raise ValidationError(f"{what} is not Hermitian: entrywise defect {defect:.3e} > {tol:.0e}")
    return a


def projection_defect(m) -> float:
    """||m^2 - m||_2."""
    a = as_matrix(m)
    return two_norm(a @ a - a)


def require_projection(m, tol: float = TOL_PROJECTION, what: str = "matrix") -> np.ndarray:
    """Validate a projection: Hermitian, ||P^2-P||_2 small, spectrum on {0,1}."""
    a = require_hermitian(m, what=what)
    defect = projection_defect(a)
    if not defect <= tol:
        raise ValidationError(f"{what} is not a projection: ||P^2-P||_2 = {defect:.3e} > {tol:.0e}")
    eigs = np.linalg.eigvalsh(a)
    off = float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1.0)))) if eigs.size else 0.0
    if not off <= TOL_EIGENVALUE:
        raise ValidationError(
            f"{what} has an eigenvalue {off:.3e} away from {{0,1}} (tolerance {TOL_EIGENVALUE:.0e})"
        )
    return a


def pvm_defect(mats: Sequence[np.ndarray]) -> float:
    """Worst PVM defect: max of pairwise ||E_a E_b||_2 and ||sum E - 1||_2."""
    mats = [as_matrix(m) for m in mats]
    d = mats[0].shape[0]
    worst = two_norm(sum(mats) - identity(d))
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            worst = max(worst, two_norm(a @ b))
    return worst


def require_pvm(mats: Sequence[np.ndarray], tol: float = TOL_PVM, what: str = "PVM") -> tuple[np.ndarray, ...]:
    """Validate a PVM: each outcome a projection, pairwise orthogonal, summing to 1."""
    if not mats:
        raise ValidationError(f"{what} has no outcomes")
    out = tuple(require_projection(m, what=f"{what} outcome {i + 1}") for i, m in enumerate(mats))
    d = out[0].shape[0]
    for i, m in enumerate(out):
        if m.shape[0] != d:
            raise ValidationError(f"{what} outcome {i + 1} has dimension {m.shape[0]}, expected {d}")
    defect = pvm_defect(out)
    if not defect <= tol:
        raise ValidationError(f"{what} defect {defect:.3e} > {tol:.0e}")
    return out


def require_positive_contraction(m, tol: float = TOL_SPECTRUM, what: str = "matrix") -> np.ndarray:
    """Validate 0 <= m <= 1 up to the clamp window (spectrum in [-tol, 1+tol])."""
    a = require_hermitian(m, what=what)
    _require_spectrum_window(np.linalg.eigvalsh(a), tol, what)
    return a


def _require_spectrum_window(eigs: np.ndarray, tol: float, what: str) -> None:
    """Raise unless the ascending eigenvalues ``eigs`` lie in [-tol, 1+tol]."""
    if eigs.size and (eigs[0] < -tol or eigs[-1] > 1.0 + tol):
        raise ValidationError(
            f"{what} spectrum [{eigs[0]:.3e}, {eigs[-1]:.3e}] leaves [0,1] beyond tolerance {tol:.0e}"
        )


# ---------------------------------------------------------------------------
# spectral projections


def spectral_projection_half(m) -> np.ndarray:
    """Spectral projection of a positive contraction onto [1/2, 1].

    Eigenvalues are clamped into [0, 1] (raising if they sit outside by more
    than 1e-9), and an eigenvalue of exactly 1/2 is *included* — the interval
    is closed on the left, so ties go up. The output B satisfies the certified
    distance bound ||m - B||_2 <= 2*sqrt(2)*||m - m^2||_2, which is asserted.
    """
    a = require_hermitian(m, what="spectral_projection_half input")
    eigs, vecs = np.linalg.eigh(a)
    _require_spectrum_window(eigs, TOL_SPECTRUM, "spectral_projection_half input")
    eigs = np.clip(eigs, 0.0, 1.0)
    keep = eigs >= 0.5
    b = (vecs[:, keep] @ vecs[:, keep].conj().T).astype(np.complex128)
    b = (b + b.conj().T) / 2.0
    lhs = two_norm(a - b)
    rhs = 2.0 * ROOT2 * two_norm(a - a @ a)
    if rhs - lhs < -TOL_SLACK:
        raise BoundViolation(
            f"spectral projection distance {lhs:.6e} exceeds 2*sqrt(2)*||A-A^2||_2 = {rhs:.6e}"
        )
    return b


# ---------------------------------------------------------------------------
# seeded random instances


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    """GUE-style Hermitian matrix with entries at the given scale."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2.0


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    # Fix the phase ambiguity so the distribution is exactly Haar.
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def random_projection(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """Rank-`rank` projection in generic position (Haar-conjugated diagonal)."""
    if rank is None:
        rank = int(rng.integers(0, d + 1))
    if not 0 <= rank <= d:
        raise ValidationError(f"rank {rank} out of range for dimension {d}")
    u = haar_unitary(rng, d)
    diag = np.zeros(d)
    diag[:rank] = 1.0
    p = (u * diag) @ u.conj().T
    return (p + p.conj().T) / 2.0


def random_pvm(rng: np.random.Generator, d: int, outcomes: int) -> tuple[np.ndarray, ...]:
    """Random PVM: Haar-conjugated coordinate blocks of random sizes.

    Outcome multiplicities form a random composition of d into `outcomes`
    parts, zeros allowed, so some outcomes may be the zero projection.
    """
    cuts = np.sort(rng.integers(0, d + 1, size=outcomes - 1))
    sizes = np.diff(np.concatenate(([0], cuts, [d])))
    u = haar_unitary(rng, d)
    mats = []
    start = 0
    for s in sizes:
        diag = np.zeros(d)
        diag[start:start + s] = 1.0
        p = (u * diag) @ u.conj().T
        mats.append((p + p.conj().T) / 2.0)
        start += s
    return tuple(mats)


def random_positive_contraction(rng: np.random.Generator, d: int) -> np.ndarray:
    """Positive contraction with Haar eigenvectors and uniform [0,1] spectrum."""
    u = haar_unitary(rng, d)
    diag = rng.uniform(0.0, 1.0, size=d)
    a = (u * diag) @ u.conj().T
    return (a + a.conj().T) / 2.0
