"""Inequality checkers and projection-rounding constructions.

Two families live here.  The ``check_*`` functions measure both sides of a
certified inequality and hand back an :class:`InequalityReport`; they
validate their hypotheses (raising ``ValidationError``) but leave the
decision about a negative slack to the caller.  The ``perturb_*`` functions
are constructive: they build genuinely orthogonal projections out of
almost-orthogonal data and *assert* their certified distance bounds,
raising ``BoundViolation`` if a bound fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, ValidationError
from .linalg import (
    ROOT2,
    TOL_SLACK,
    _norms,
    _raise_first,
    _require_contractions,
    _spectral_distance,
    _spectral_halves,
    _two_norms,
    identity,
    require_hermitian,
    require_positive_contraction,
    require_projection,
    require_pvm,
    two_norm,
)

#: The six bijections of {1,2,3}, in lexicographic order.
PERM3 = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1))


@dataclass(frozen=True)
class InequalityReport:
    """One measured inequality: lhs <= rhs expected, slack = rhs - lhs."""

    context: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def require(self, tol: float = TOL_SLACK) -> "InequalityReport":
        """Raise BoundViolation unless slack >= -tol; returns self for chaining."""
        if self.slack < -tol:
            raise BoundViolation(
                f"{self.context}: lhs {self.lhs:.6e} exceeds rhs {self.rhs:.6e} "
                f"(slack {self.slack:.3e})"
            )
        return self


# ---------------------------------------------------------------------------
# inequality checkers: each checks its input family once, then scores it as
# one stack, every norm from ``_two_norms`` on (..., b, d, d) operators


def _family(items, check, name, miscounted: str | None = None) -> np.ndarray:
    """The operators (or PVMs) ``items`` as one (n, b, d, d) (or (n, k, b,
    d, d)) stack, each operator a (b, d, d) block stack, b = 1 for a d-by-d
    matrix.  Each item is checked by ``check``, labelled ``name(i)``, in
    order; then ``miscounted``, the caller's error for a wrong number of
    items or outcomes, is raised if given; then mixed shapes are refused."""
    checked = [check(item, what=name(i)) for i, item in enumerate(items)]
    if miscounted:
        raise ValidationError(miscounted)
    mats = [m for item in checked for m in (item if isinstance(item, tuple) else (item,))]
    shape = mats[0].shape
    for m in mats:
        if m.shape != shape:
            raise ValidationError(f"mixed dimensions: shapes {shape} and {m.shape}")
    stack = np.array(checked)
    return stack.reshape(*stack.shape[:stack.ndim - len(shape)], -1, shape[-1], shape[-1])


def _worst(context, lhs: np.ndarray, rhs, key: np.ndarray) -> InequalityReport:
    """The report of the instance k with the smallest ``key[k]``, the first
    of equals, as the checkers' loops kept it with a strict comparison.
    ``context(k)`` names it; ``rhs`` is one value or one per instance."""
    k = int(np.argmin(key))
    return InequalityReport(context(k), float(lhs[k]), float(np.broadcast_to(rhs, lhs.shape)[k]))


def check_three_sum_zero(a1, a2, a3) -> InequalityReport:
    """Three Hermitian operators summing to zero are each small in 2-norm
    whenever each is close to being a projection."""
    s = _family((a1, a2, a3), require_hermitian, lambda i: f"summand {i + 1}")
    defect = two_norm(s[0] + s[1] + s[2])
    if defect > 1e-10:
        raise ValidationError(f"summands must add to zero; ||sum||_2 = {defect:.3e}")
    lhs = max(_two_norms(s).tolist())
    rhs = math.sqrt(3.0) * math.sqrt(sum(_two_norms(s @ s - s).tolist()))
    return InequalityReport("zero-sum triple norm bound", lhs, rhs)


#: The six pairs (i, j) of distinct indices of a triple, row-major.
_PAIR_I, _PAIR_J = np.nonzero(~np.eye(3, dtype=bool))


def check_commutator_transfer(a_triple, b_triple) -> InequalityReport:
    """If same-index pairs of two projection triples almost commute and both
    triples almost sum to 1, then cross-index pairs almost commute."""
    a_triple, b_triple = list(a_triple), list(b_triple)
    n_a = len(a_triple)
    ops = _family(
        a_triple + b_triple, require_projection,
        lambda i: f"first triple entry {i + 1}" if i < n_a else f"second triple entry {i - n_a + 1}",
        None if n_a == len(b_triple) == 3 else "both triples must have exactly three projections",
    )
    a, b, one = ops[:3], ops[3:], identity(ops.shape[-1])
    ab, ba = a[:, None] @ b[None, :], b[:, None] @ a[None, :]
    norms = _two_norms(ab - ba.swapaxes(0, 1))  # [i, j]: ||[a_i, b_j]||_2
    rhs = 2.0 * (
        two_norm(one - (a[0] + a[1] + a[2]))
        + two_norm(one - (b[0] + b[1] + b[2]))
        + sum(norms.diagonal().tolist())
    )
    cross = norms[_PAIR_I, _PAIR_J]
    return _worst(lambda k: f"cross commutator at (i={_PAIR_I[k] + 1}, j={_PAIR_J[k] + 1})", cross, rhs, -cross)


def check_quantum_permutation(rows) -> InequalityReport:
    """Three 3-outcome PVMs whose same-outcome projections are almost
    mutually orthogonal almost form a quantum permutation: every column
    sum is close to the identity.  Reports the worst column."""
    if len(rows) != 3:
        raise ValidationError("need exactly three PVMs")
    miscounted = None if all(len(row) == 3 for row in rows) else "each PVM must have exactly three outcomes"
    p = _family(rows, require_pvm, lambda x: f"PVM {x + 1}", miscounted)
    cross = _two_norms(p[_PAIR_I] @ p[_PAIR_J])  # [pair (x, y), outcome b]: ||p_x[b] p_y[b]||_2
    rhs = math.sqrt(3.0) * math.sqrt(sum(cross.T.ravel().tolist()))  # summed outcome by outcome
    columns = _two_norms(p[0] + p[1] + p[2] - identity(p.shape[-1]))
    return _worst(lambda a: f"quantum permutation column {a + 1}", columns, rhs, -columns)


def _prism_grid(grid, what: str):
    if len(grid) != 3 or any(len(row) != 3 for row in grid):
        raise ValidationError(f"{what} must be a 3x3 array of projections")
    flat = [m for row in grid for m in row]
    cells = _family(flat, require_projection, lambda c: f"{what}[{c // 3 + 1}][{c % 3 + 1}]")
    out, one = cells.reshape(3, 3, *cells.shape[1:]), identity(cells.shape[-1])
    for j, defect in enumerate(_two_norms(out[0] + out[1] + out[2] - one).tolist()):
        if defect > 1e-9:
            raise ValidationError(f"{what} column {j + 1} sums to 1 with defect {defect:.3e}")
    return out, one


def check_prism(p_grid, q_grid) -> InequalityReport:
    """Commutator control between two 3x3 projection grids with unit column
    sums, as forced by coloring a triangular prism.

    Three cases — same row, same column, or both indices different — each
    with its own right-hand side; the returned report is the worst-slack
    instance across all of them.
    """
    p, one = _prism_grid(p_grid, "first grid")
    q, _ = _prism_grid(q_grid, "second grid")
    if np.shape(p_grid[0][0]) != np.shape(q_grid[0][0]):
        raise ValidationError("grids have mixed dimensions")
    same = _two_norms(p @ q)  # [i, j]: ||p[i][j] q[i][j]||_2
    col_cross = same[0] + same[1] + same[2]
    # per row i: its sum defects in both grids plus twice its cross products
    row_terms = (
        _two_norms(one - (p[:, 0] + p[:, 1] + p[:, 2]))
        + _two_norms(one - (q[:, 0] + q[:, 1] + q[:, 2]))
        + 2.0 * (same[:, 0] + same[:, 1] + same[:, 2])
    )
    full_rhs = 4.0 * sum(row_terms.tolist())
    # every cell (i, j) of p against every other cell (k, l) of q, row-major
    i, j, k, ell = np.nonzero(~np.eye(9, dtype=bool).reshape(3, 3, 3, 3))
    lhs = _two_norms(p[i, j] @ q[k, ell] - q[k, ell] @ p[i, j])
    rhs = np.where(i == k, 2.0 * row_terms[i], np.where(j == ell, 4.0 * col_cross[j], full_rhs))
    case = np.where(i == k, "same row", np.where(j == ell, "same column", "disjoint indices"))
    return _worst(
        lambda n: f"prism {case[n]} at (i={i[n] + 1},j={j[n] + 1},k={k[n] + 1},l={ell[n] + 1})", lhs, rhs, rhs - lhs
    )


def check_cutdown_sum(pa, pb, pc) -> InequalityReport:
    """The six sandwich products over the control triangle almost sum to 1
    when same-index projections across the triangle are almost orthogonal."""
    miscounted = None if len(pa) == len(pb) == len(pc) == 3 else "all three PVMs must have exactly three outcomes"
    a, b, c = _family((pa, pb, pc), require_pvm, lambda x: ("first", "second", "third")[x] + " PVM", miscounted)
    i, j, k = np.array(PERM3).T - 1
    left = a[i] @ b[j]
    total = sum(left @ c[k] @ left.conj().swapaxes(-1, -2))  # added in PERM3 order
    lhs = two_norm(identity(a.shape[-1]) - total)
    rhs = 159.0 * sum((_two_norms(a @ b) + _two_norms(a @ c) + _two_norms(b @ c)).tolist())
    return InequalityReport("sandwich-product sum", lhs, rhs)


# ---------------------------------------------------------------------------
# rounding constructions


def perturb_two(a, b) -> np.ndarray:
    """A projection near b and exactly orthogonal to a.

    Compresses b by the complement of a and rounds spectrally.  Asserts the
    certified distance ||b - out||_2 <= (8*sqrt(2)+2)*||a b||_2 and that the
    output annihilates a (within 1e-10); both failures raise BoundViolation.
    """
    pa, pb = _family((a, b), require_projection, lambda i: ("first", "second")[i] + " projection")
    return _perturb_checked_two(pa[None], pb[None])[0].reshape(np.shape(a))


#: The certified distance multiplier of ``perturb_two``.
PERTURB_TWO_FACTOR = 8.0 * ROOT2 + 2.0


def _perturb_checked_two(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """``perturb_two`` of each pair of items of two (G, *op) batches of
    projections the package has validated, such as a ``GameStrategy``'s
    outcomes: one ``eigh``, and the first item that fails a bound raised."""
    comp = identity(pa.shape[-1]) - pa
    squeezed = comp @ pb @ comp
    out, checks = _spectral_halves(squeezed)
    n = len(out)  # all G, unless an item fails the Hermitian check
    pa, pb = pa[:n], pb[:n]
    checks.append(_spectral_distance(squeezed[:n], out))
    ortho = _norms(pa @ out)
    lhs, rhs = _norms(pb - out), PERTURB_TWO_FACTOR * _norms(pa @ pb)
    checks.append((ortho > 1e-10, lambda i: BoundViolation(
        f"perturbed projection is not orthogonal: ||a out||_2 = {ortho[i]:.3e}"
    )))
    checks.append((rhs - lhs < -TOL_SLACK, lambda i: InequalityReport(
        "perturbed-projection distance", lhs[i], rhs[i]
    ).require()))  # which raises
    _raise_first(checks)
    return out


#: The certified multipliers of the rounded-outcome bounds of
#: ``perturb_pvm_with_reports``, on the history h, the own defect o and the
#: sum defect s: outcome 1 is within 2 sqrt(2) o of its input, an interior
#: outcome within 19 h + 2 sqrt(2) o, the last within 38 h + 4 sqrt(2) o + s.
ROUNDED_OWN_FACTOR = 2.0 * ROOT2
ROUNDED_HISTORY_FACTOR = 19.0
ROUNDED_LAST_HISTORY_FACTOR = 38.0
ROUNDED_LAST_OWN_FACTOR = 4.0 * ROOT2


def perturb_pvm_with_reports(mats):
    """Round positive contractions to an exact PVM, sequentially.

    The first entry is rounded spectrally; each later entry is compressed by
    the complement of everything already produced and then rounded; the last
    entry is whatever is left of the identity.  Distance bounds are asserted
    per index (three cases: first / interior / completion) and returned.
    On (k, d, d) stacks every block is rounded in the same order, on its own.
    ``mats`` is a sequence of operators or a (count, *op) array of them.
    """
    if len(mats) == 0:
        raise ValidationError("need at least one input")
    try:
        inputs = np.asarray(mats, dtype=np.complex128)  # (count, *op)
    except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
        inputs = np.empty(0)
    if inputs.ndim not in (3, 4) or not inputs.size or inputs.shape[-1] != inputs.shape[-2]:
        # Checked one by one, which names the first input that fails, then refused for their shapes.
        _family(mats, require_positive_contraction, lambda i: f"input {i + 1}")
    _require_contractions(inputs, lambda i: f"input {i + 1}")
    count = len(inputs)
    one = np.broadcast_to(identity(inputs.shape[-1]), inputs[0].shape).copy()

    # Step k rounds steps[k] into outs[k].  Its Hermitian and window checks
    # run at once; the distance bounds of all steps run in one batch, and
    # before a later step's failure, so the first failure is a per-step loop's.
    steps, outs = np.empty((2, count - 1, *one.shape), dtype=np.complex128)
    total = 0  # sum(outs[:k]), added in the order sum() adds them
    for k in range(count - 1):
        comp = one - total
        steps[k] = comp @ inputs[k] @ comp if k else inputs[0]
        out, checks = _spectral_halves(steps[k:k + 1])
        if any(failed.any() for failed, _ in checks):
            _raise_first([_spectral_distance(steps[:k], outs[:k])])
            _raise_first(checks)
        outs[k] = out[0]
        total = total + outs[k]
    _raise_first([_spectral_distance(steps, outs)])
    outs = np.concatenate([outs, (one - total)[None]])

    # The distances and own defects at once, the cross norms one input at a time.
    distances = _norms(outs - inputs).tolist()
    owns = _norms(inputs @ inputs - inputs).tolist()
    sum_defect = two_norm(one - sum(inputs))
    reports = []
    for idx in range(count):
        i = idx + 1
        own = owns[idx]
        cross = _norms(inputs[idx] @ inputs[:idx]).tolist()  # with each j < idx
        # left to right, as the bits of the bound depend on the order
        history = sum(distances[j] + cross[j] for j in range(idx))
        if i == count:
            rhs = ROUNDED_LAST_HISTORY_FACTOR * history + ROUNDED_LAST_OWN_FACTOR * own + sum_defect
        elif i == 1:
            rhs = ROUNDED_OWN_FACTOR * own
        else:
            rhs = ROUNDED_HISTORY_FACTOR * history + ROUNDED_OWN_FACTOR * own
        reports.append(
            InequalityReport(f"rounded outcome {i} of {count}", distances[idx], rhs).require()
        )
    pvm = require_pvm(outs, what="rounded family")
    return pvm, tuple(reports)


def perturb_pvm(mats):
    """Round positive contractions to an exact PVM (see perturb_pvm_with_reports)."""
    return perturb_pvm_with_reports(mats)[0]
