"""Dense complex Hermitian linear algebra over M_d with the normalized trace.

Everything downstream measures operators in the trace 2-norm
``||A||_2 = (tr(A*A)/d)^(1/2)``, normalized so the identity has norm 1.
Matrices are plain complex numpy arrays; this module supplies the norms,
validation predicates (Hermitian / projection / PVM, with the tolerances the
rest of the package relies on), spectral projections, and seeded random
generators for test instances.

Dimensions stay desk-scale (d <= 64), so everything is dense and eigh-based.
Every function that measures, validates or rounds operators also reads a
``(k, d, d)`` stack as the block-diagonal matrix of dimension k*d: norms and
traces are normalized by k*d, spectra range over all blocks, products act
block by block, and an identity of the block size broadcasts.  Only
``as_matrix`` and the strategy constructors keep to d-by-d matrices.

One stack check validates projections and PVMs: ``_stack_defects`` takes
K PVMs of k outcomes as a (K, k, ...) stack.  ``require_projection`` is its
1 x 1 case, ``require_pvm`` its K = 1 case, and ``require_pvm_family`` takes
slices of a strategy's stack, 16 rows each.  An error names the first
failure in check order (Hermitian, projection, eigenvalue, PVM defect),
within a check the first failing key, then outcome.
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


def _operator(m) -> np.ndarray:
    """Coerce to complex128: a nonempty square matrix or (k, d, d) block stack."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix or a (k, d, d) stack, got shape {a.shape}")
    if not a.size:
        raise ValidationError(f"expected a nonempty operator, got shape {a.shape}")
    return a


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """tr(a b)/d as a real number, without forming the product.

    Contracts sum_ij a_ij b_ji in O(d^2) where forming ``a @ b`` costs a
    d-by-d matmul.  The imaginary part is discarded; for the Hermitian
    operators and projection products used here it is zero up to rounding.
    """
    if a.ndim == 2:
        return float(np.einsum("ij,ji->", a, b).real) / a.shape[0]
    return float(np.einsum("kij,kji->", a, b).real) / math.prod(a.shape[:-1])


def two_norm(m) -> float:
    """Trace 2-norm (tr(m* m)/d)^(1/2); the identity has norm 1.

    Agrees with the Frobenius norm divided by sqrt(d).
    """
    a = _operator(m)
    return float(np.linalg.norm(a)) / math.sqrt(math.prod(a.shape[:-1]))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def identity(d: int) -> np.ndarray:
    return np.eye(d, dtype=np.complex128)


def zero(d: int) -> np.ndarray:
    return np.zeros((d, d), dtype=np.complex128)


# ---------------------------------------------------------------------------
# validation


def require_hermitian(m, what: str = "matrix") -> np.ndarray:
    a = _operator(m)
    _raise_first([_hermitian_check(a[None], lambda i: what)[1]])
    return a


def require_projection(m, what: str = "matrix") -> np.ndarray:
    """Validate a projection: Hermitian, ||P^2-P||_2 small, spectrum on {0,1}."""
    a = _operator(m)
    _require_stack(a[None, None], lambda key: what, None)
    return a


def require_pvm(mats: Sequence[np.ndarray], what: str = "PVM") -> tuple[np.ndarray, ...]:
    """Validate a PVM: each outcome a projection, pairwise orthogonal, summing to 1."""
    if not len(mats):  # also of a (k, d, d) array
        raise ValidationError(f"{what} has no outcomes")
    out = tuple(np.asarray(m, dtype=np.complex128) for m in mats)
    shape = _operator(out[0]).shape
    ragged = [i for i, m in enumerate(out) if m.shape != shape]
    if ragged:  # each outcome's own faults are named before the mismatch
        for i, m in enumerate(out):
            require_projection(m, what=f"{what} outcome {i + 1}")
        i = ragged[0]
        raise ValidationError(f"{what} outcome {i + 1} has shape {out[i].shape}, expected {shape}")
    _require_stack(np.stack(out)[None], lambda key: what, TOL_PVM)
    return out


#: Rows of a PVM stack validated at a time; bounds the memory of a check.
PVM_CHUNK = 16


def require_pvm_family(
    stack: np.ndarray, keys: Sequence, tol: float = TOL_PVM, what: str = "PVM at {!r}"
) -> None:
    """Validate every row of a (K, k, *op) stack of K PVMs as ``require_pvm``
    validates one, row i labelled ``what.format(keys[i])``, 16 rows at a time:
    each is a slice of the stack, not a copy, and the first that fails raises."""
    if not stack.size:
        raise ValidationError(f"expected a nonempty operator, got shape {stack.shape[2:]}")
    for start in range(0, len(keys), PVM_CHUNK):
        _require_stack(stack[start:start + PVM_CHUNK], lambda i: what.format(keys[start + i]), tol)


def _require_stack(stack: np.ndarray, name, tol: float | None) -> None:
    """Raise the first failure of ``_stack_defects``: in check order, then
    by key, then by outcome.  ``name(key)`` labels a PVM and "<name> outcome
    i" its outcomes, unless ``tol`` is None: then each is a lone operator."""
    for defects, limit, message in _stack_defects(stack, tol):
        failed = ~(defects <= limit)  # a NaN defect fails too
        if failed.any():
            at = np.unravel_index(np.argmax(failed), failed.shape)
            label = name(at[0])
            if len(at) == 2 and tol is not None:
                label = f"{label} outcome {at[1] + 1}"
            raise ValidationError(message.format(label, defects[at], limit))


def _stack_defects(stack: np.ndarray, tol: float | None = TOL_PVM):
    """The checks of a PVM on a (K, k, *op) stack of K PVMs with k outcomes,
    in the order they run, as (defects, limit, message) triples: the
    Hermitian, projection and eigenvalue defects per outcome (K, k), then
    the PVM defect per key (K,), left out when ``tol`` is None.  An outcome
    ``op`` is a d-by-d matrix or a (b, d, d) block operator, read as the
    block-diagonal matrix of dimension N = b d: each defect reduces over
    all of its trailing axes, bit for bit as ``two_norm`` and ``eigvalsh``
    give it for that matrix.

    The Hermitian check comes first because any inf or NaN entry fails it,
    so a consumer that stops at the first failure never hands one to
    ``eigvalsh``.

    The eigenvalue check is skipped when the projection defects already
    pass it, that is when 2 sqrt(N) p <= TOL_EIGENVALUE for the stack's
    largest defect p.  For Hermitian H, ||H^2 - H||_F = sqrt(N) ||H^2 - H||_2
    bounds every |lambda (lambda - 1)|, which is at least delta / 2 for an
    eigenvalue at distance delta <= 1/2 from {0, 1} and about delta for a
    small delta; so delta <= sqrt(N) p (1 + 2 delta), half the tolerance.
    The other half covers the Hermitian defect: ``eigvalsh`` reads the
    Hermitian matrix L of each block's lower triangle, ||L - P||_F <=
    N TOL_HERMITIAN, which moves ||L^2 - L||_F by about 3 N TOL_HERMITIAN,
    below TOL_EIGENVALUE / 2 up to N = 1,600.
    """
    d = stack.shape[-1]
    blocks = stack.reshape(*stack.shape[:2], -1, d, d)
    # An entry that overflows gives a failing inf or NaN defect, not a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        hermitian = np.abs(blocks - blocks.conj().swapaxes(-1, -2)).max(axis=(-3, -2, -1))
    yield hermitian, TOL_HERMITIAN, "{} is not Hermitian: entrywise defect {:.3e} > {:.0e}"
    with np.errstate(over="ignore", invalid="ignore"):
        projection = _two_norms(blocks @ blocks - blocks)
    yield projection, TOL_PROJECTION, "{} is not a projection: ||P^2-P||_2 = {:.3e} > {:.0e}"
    if 2.0 * math.sqrt(blocks.shape[2] * d) * projection.max() > TOL_EIGENVALUE:
        eigs = np.linalg.eigvalsh(blocks)
        off = np.minimum(np.abs(eigs), np.abs(eigs - 1.0)).max(axis=(-2, -1))
        yield off, TOL_EIGENVALUE, "{} has an eigenvalue {:.3e} away from {{0,1}} (tolerance {:.0e})"
    if tol is None:
        return
    k = blocks.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        total = blocks[:, 0]
        for i in range(1, k):
            total = total + blocks[:, i]  # summed in the order sum() adds them
        worst = _two_norms(total - np.eye(d, dtype=np.complex128))
        for i in range(k - 1):  # outcome i against every later one
            products = blocks[:, i:i + 1] @ blocks[:, i + 1:]
            worst = np.maximum(worst, _two_norms(products).max(axis=1))
    yield worst, tol, "{} defect {:.3e} > {:.0e}"


def _two_norms(stack: np.ndarray) -> np.ndarray:
    """``two_norm`` of each (b, d, d) block operator of a C-ordered stack,
    bit for bit: ``np.linalg.norm`` sums the squares of the real and the
    imaginary parts with one ``dot`` each, and a row-times-column ``matmul``
    makes that same ``dot`` call per operator."""
    flat = stack.reshape(*stack.shape[:-3], math.prod(stack.shape[-3:]))  # also when there are none
    re, im = flat.real, flat.imag
    squares = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return np.sqrt(squares[..., 0, 0]) / math.sqrt(stack.shape[-3] * stack.shape[-2])


# ---------------------------------------------------------------------------
# gathered stack kernels

#: Bytes of one gathered operand, 256 KiB: 14 edges of a symmetrized
#: coloring at d = 8, three (6, 8, 8) block operators each.  Chunks of 1.2 MB
#: (64 such edges) measured slower, 7.3 ms against 4.1 ms for the 486 edges
#: of a symmetrized coloring value.
GATHER_BYTES = 1 << 18


def _gathered(stack: np.ndarray, *rows: np.ndarray):
    """``stack[r]`` for each of equally long index arrays r, in chunks: per
    chunk its slice of the indices and one gathered operand per r, each at
    most GATHER_BYTES.  A row larger than that comes alone, as a view of
    the stack rather than a copy."""
    fit = GATHER_BYTES // (stack.itemsize * math.prod(stack.shape[1:]))  # rows per chunk, also of an empty stack
    step = max(fit, 1)
    for start in range(0, len(rows[0]), step):
        part = slice(start, start + step)
        yield part, [stack[r[part]] if fit else stack[r[start]][None] for r in rows]


def _overlaps(stack: np.ndarray, rows_u: np.ndarray, rows_v: np.ndarray) -> np.ndarray:
    """``trace_product`` of outcome c of row rows_u[t] with outcome c of row
    rows_v[t] of a (K, k, *op) stack, as a (T, k) array.  On d-by-d
    outcomes each value is ``trace_product``'s bit for bit; on (b, d, d)
    block operators ``einsum`` sums the b d^2 terms in another order, so a
    value can differ from it in the last bits."""
    d = stack.shape[-1]
    blocks = stack.reshape(*stack.shape[:2], math.prod(stack.shape[2:-2]), d, d)  # also of an empty stack
    out = np.empty((len(rows_u), stack.shape[1]))
    for part, (u, v) in _gathered(blocks, rows_u, rows_v):
        out[part] = np.einsum("tkbij,tkbji->tk", u, v).real
    return out / (blocks.shape[2] * d)


# ---------------------------------------------------------------------------
# per-item checks of a (G, *op) batch: G operators, each d-by-d or (b, d, d),
# each checked as the one-operator functions check it.  A check is a pair
# (failed, fail): a bool array over the leading items it covers, and a
# function that gives (or raises) item i's error.


def _raise_first(checks) -> None:
    """Raise for the first item that fails a check, its first check in the
    order given, as checking the items one at a time would."""
    firsts = [(int(np.argmax(failed)), k) for k, (failed, _) in enumerate(checks) if failed.any()]
    if firsts:
        i, k = min(firsts)
        raise checks[k][1](i)


def _hermitian_check(batch: np.ndarray, name) -> tuple:
    """(n, check) for ``require_hermitian`` of each item, item i labelled
    ``name(i)``; only the first n items, which pass, may go on to ``eigh``."""
    defects, _, message = next(_stack_defects(batch[:, None], None))
    failed = ~(defects[:, 0] <= TOL_HERMITIAN)  # a NaN defect fails too
    n = int(np.argmax(failed)) if failed.any() else len(batch)
    return n, (failed, lambda i: ValidationError(message.format(name(i), defects[i, 0], TOL_HERMITIAN)))


def _window_check(eigs: np.ndarray, tol: float, name) -> tuple:
    """The check that each item's eigenvalues, a row of ``eigs``, lie in [-tol, 1+tol]."""
    axes = tuple(range(1, eigs.ndim))
    low, high = eigs.min(axis=axes), eigs.max(axis=axes)
    return (low < -tol) | (high > 1.0 + tol), lambda i: ValidationError(
        f"{name(i)} spectrum [{low[i]:.3e}, {high[i]:.3e}] leaves [0,1] beyond tolerance {tol:.0e}"
    )


def _norms(batch: np.ndarray) -> np.ndarray:
    """``two_norm`` of each item of a (G, *op) batch, bit for bit."""
    return _two_norms(batch.reshape(len(batch), math.prod(batch.shape[1:-2]), *batch.shape[-2:]))


def require_positive_contraction(m, what: str = "matrix") -> np.ndarray:
    """Validate 0 <= m <= 1 up to the clamp window: spectrum in [-TOL_SPECTRUM, 1 + TOL_SPECTRUM]."""
    a = _operator(m)
    _require_contractions(a[None], lambda i: what)
    return a


def _require_contractions(batch: np.ndarray, name, tol: float = TOL_SPECTRUM) -> None:
    """``require_positive_contraction`` of each item of a (G, *op) batch,
    item i labelled ``name(i)``, with one ``eigvalsh``."""
    n, hermitian = _hermitian_check(batch, name)
    _raise_first([hermitian, _window_check(np.linalg.eigvalsh(batch[:n]), tol, name)])


# ---------------------------------------------------------------------------
# spectral projections


def spectral_projection_half(m) -> np.ndarray:
    """Spectral projection of a positive contraction onto [1/2, 1].

    Eigenvalues are clamped into [0, 1] (raising if they sit outside by more
    than 1e-9), and an eigenvalue of exactly 1/2 is *included* — the interval
    is closed on the left, so ties go up. The output B satisfies the certified
    distance bound ||m - B||_2 <= 2*sqrt(2)*||m - m^2||_2, which is asserted.
    """
    a = _operator(m)
    out, checks = _spectral_halves(a[None])
    _raise_first(checks)
    return out[0]


def _spectral_halves(batch: np.ndarray) -> tuple:
    """(projections, checks): ``spectral_projection_half`` of the items of a
    (G, *op) batch that pass the Hermitian check, all G but for a failure,
    with one ``eigh``, and its three checks, to which a caller may add."""
    what = "spectral_projection_half input"
    n, hermitian = _hermitian_check(batch, lambda i: what)
    a = batch[:n]
    eigs, vecs = np.linalg.eigh(a)
    keep = np.clip(eigs, 0.0, 1.0) >= 0.5
    d = a.shape[-1]
    blocks = zip(vecs.reshape(-1, d, d), keep.reshape(-1, d))  # each keeps its own eigenvectors
    b = np.array([v[:, k] @ v[:, k].conj().T for v, k in blocks], dtype=np.complex128).reshape(a.shape)
    b = (b + b.conj().swapaxes(-1, -2)) / 2.0
    lhs, rhs = _norms(a - b), 2.0 * ROOT2 * _norms(a - a @ a)
    too_far = (rhs - lhs < -TOL_SLACK, lambda i: BoundViolation(
        f"spectral projection distance {lhs[i]:.6e} exceeds 2*sqrt(2)*||A-A^2||_2 = {rhs[i]:.6e}"
    ))
    return b, [hermitian, _window_check(eigs, TOL_SPECTRUM, lambda i: what), too_far]


# ---------------------------------------------------------------------------
# seeded random instances


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    """GUE-style Hermitian matrix with entries at the given scale."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2.0


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_from_ginibre(rng.standard_normal((1, d, d)) + 1j * rng.standard_normal((1, d, d)))[0]


def _haar_from_ginibre(g: np.ndarray) -> np.ndarray:
    """The Haar unitaries of a (G, d, d) stack of complex Ginibre matrices, with one QR;
    each Q's phases are fixed by its R's diagonal, so the distribution is exactly Haar."""
    q, r = np.linalg.qr(g)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diagonal / np.abs(diagonal))[:, None, :]


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
