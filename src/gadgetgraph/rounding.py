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
    as_matrix,
    commutator,
    identity,
    require_hermitian,
    require_positive_contraction,
    require_projection,
    require_pvm,
    spectral_projection_half,
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


def _common_dim(mats) -> int:
    d = mats[0].shape[0]
    for m in mats[1:]:
        if m.shape[0] != d:
            raise ValidationError(f"mixed dimensions {d} and {m.shape[0]}")
    return d


# ---------------------------------------------------------------------------
# inequality checkers


def check_three_sum_zero(a1, a2, a3) -> InequalityReport:
    """Three Hermitian operators summing to zero are each small in 2-norm
    whenever each is close to being a projection."""
    mats = [
        require_hermitian(as_matrix(m), what=f"summand {i + 1}")
        for i, m in enumerate((a1, a2, a3))
    ]
    _common_dim(mats)
    defect = two_norm(mats[0] + mats[1] + mats[2])
    if defect > 1e-10:
        raise ValidationError(f"summands must add to zero; ||sum||_2 = {defect:.3e}")
    lhs = max(two_norm(m) for m in mats)
    rhs = math.sqrt(3.0) * math.sqrt(sum(two_norm(m @ m - m) for m in mats))
    return InequalityReport("zero-sum triple norm bound", lhs, rhs)


def check_commutator_transfer(a_triple, b_triple) -> InequalityReport:
    """If same-index pairs of two projection triples almost commute and both
    triples almost sum to 1, then cross-index pairs almost commute."""
    a = [require_projection(m, what=f"first triple entry {i + 1}") for i, m in enumerate(a_triple)]
    b = [require_projection(m, what=f"second triple entry {i + 1}") for i, m in enumerate(b_triple)]
    if len(a) != 3 or len(b) != 3:
        raise ValidationError("both triples must have exactly three projections")
    d = _common_dim(a + b)
    one = identity(d)
    rhs = 2.0 * (
        two_norm(one - (a[0] + a[1] + a[2]))
        + two_norm(one - (b[0] + b[1] + b[2]))
        + sum(two_norm(commutator(a[i], b[i])) for i in range(3))
    )
    lhs, where = -1.0, None
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            val = two_norm(commutator(a[i], b[j]))
            if val > lhs:
                lhs, where = val, (i + 1, j + 1)
    return InequalityReport(f"cross commutator at (i={where[0]}, j={where[1]})", lhs, rhs)


def check_quantum_permutation(rows) -> InequalityReport:
    """Three 3-outcome PVMs whose same-outcome projections are almost
    mutually orthogonal almost form a quantum permutation: every column
    sum is close to the identity.  Reports the worst column."""
    if len(rows) != 3:
        raise ValidationError("need exactly three PVMs")
    pvms = [require_pvm(row, what=f"PVM {x + 1}") for x, row in enumerate(rows)]
    for p in pvms:
        if len(p) != 3:
            raise ValidationError("each PVM must have exactly three outcomes")
    d = _common_dim([m for p in pvms for m in p])
    one = identity(d)
    cross = 0.0
    for b in range(3):
        for x in range(3):
            for y in range(3):
                if x != y:
                    cross += two_norm(pvms[x][b] @ pvms[y][b])
    rhs = math.sqrt(3.0) * math.sqrt(cross)
    lhs, worst = -1.0, None
    for a in range(3):
        val = two_norm(sum(pvms[x][a] for x in range(3)) - one)
        if val > lhs:
            lhs, worst = val, a + 1
    return InequalityReport(f"quantum permutation column {worst}", lhs, rhs)


def _prism_grid(grid, what: str):
    if len(grid) != 3 or any(len(row) != 3 for row in grid):
        raise ValidationError(f"{what} must be a 3x3 array of projections")
    out = [
        [require_projection(grid[i][j], what=f"{what}[{i + 1}][{j + 1}]") for j in range(3)]
        for i in range(3)
    ]
    d = _common_dim([m for row in out for m in row])
    one = identity(d)
    for j in range(3):
        defect = two_norm(sum(out[i][j] for i in range(3)) - one)
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
    if p[0][0].shape != q[0][0].shape:
        raise ValidationError("grids have mixed dimensions")

    row_defect_p = [two_norm(one - sum(p[i][x] for x in range(3))) for i in range(3)]
    row_defect_q = [two_norm(one - sum(q[i][x] for x in range(3))) for i in range(3)]
    row_cross = [sum(two_norm(p[i][x] @ q[i][x]) for x in range(3)) for i in range(3)]
    col_cross = [sum(two_norm(p[a][j] @ q[a][j]) for a in range(3)) for j in range(3)]
    full_rhs = 4.0 * sum(
        row_defect_p[a] + row_defect_q[a] + 2.0 * row_cross[a] for a in range(3)
    )

    worst = None
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for ell in range(3):
                    if i == k and j == ell:
                        continue
                    lhs = two_norm(commutator(p[i][j], q[k][ell]))
                    if i == k:
                        rhs = 2.0 * (row_defect_p[i] + row_defect_q[i] + 2.0 * row_cross[i])
                        case = "same row"
                    elif j == ell:
                        rhs = 4.0 * col_cross[j]
                        case = "same column"
                    else:
                        rhs = full_rhs
                        case = "disjoint indices"
                    report = InequalityReport(
                        f"prism {case} at (i={i + 1},j={j + 1},k={k + 1},l={ell + 1})", lhs, rhs
                    )
                    if worst is None or report.slack < worst.slack:
                        worst = report
    return worst


def check_cutdown_sum(pa, pb, pc) -> InequalityReport:
    """The six sandwich products over the control triangle almost sum to 1
    when same-index projections across the triangle are almost orthogonal."""
    pvm_a = require_pvm(pa, what="first PVM")
    pvm_b = require_pvm(pb, what="second PVM")
    pvm_c = require_pvm(pc, what="third PVM")
    if not len(pvm_a) == len(pvm_b) == len(pvm_c) == 3:
        raise ValidationError("all three PVMs must have exactly three outcomes")
    d = _common_dim(list(pvm_a + pvm_b + pvm_c))
    total = np.zeros((d, d), dtype=np.complex128)
    for i, j, k in PERM3:
        left = pvm_a[i - 1] @ pvm_b[j - 1]
        total += left @ pvm_c[k - 1] @ left.conj().T
    lhs = two_norm(identity(d) - total)
    rhs = 159.0 * sum(
        two_norm(pvm_a[i] @ pvm_b[i])
        + two_norm(pvm_a[i] @ pvm_c[i])
        + two_norm(pvm_b[i] @ pvm_c[i])
        for i in range(3)
    )
    return InequalityReport("sandwich-product sum", lhs, rhs)


# ---------------------------------------------------------------------------
# rounding constructions


def perturb_two(a, b) -> np.ndarray:
    """A projection near b and exactly orthogonal to a.

    Compresses b by the complement of a and rounds spectrally.  Asserts the
    certified distance ||b - out||_2 <= (8*sqrt(2)+2)*||a b||_2 and that the
    output annihilates a (within 1e-10); both failures raise BoundViolation.
    """
    pa = require_projection(a, what="first projection")
    pb = require_projection(b, what="second projection")
    _common_dim([pa, pb])
    return _perturb_checked_two(pa, pb)


def _perturb_checked_two(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """``perturb_two`` on projections of one dimension that the package has
    already validated, such as two outcomes of a ``GameStrategy``."""
    comp = identity(pa.shape[0]) - pa
    out = spectral_projection_half(comp @ pb @ comp)
    ortho = two_norm(pa @ out)
    if ortho > 1e-10:
        raise BoundViolation(f"perturbed projection is not orthogonal: ||a out||_2 = {ortho:.3e}")
    InequalityReport(
        "perturbed-projection distance", two_norm(pb - out), (8.0 * ROOT2 + 2.0) * two_norm(pa @ pb)
    ).require()
    return out


def perturb_pvm_with_reports(mats):
    """Round positive contractions to an exact PVM, sequentially.

    The first entry is rounded spectrally; each later entry is compressed by
    the complement of everything already produced and then rounded; the last
    entry is whatever is left of the identity.  Distance bounds are asserted
    per index (three cases: first / interior / completion) and returned.
    """
    if not mats:
        raise ValidationError("need at least one input")
    inputs = [
        require_positive_contraction(as_matrix(m), what=f"input {i + 1}")
        for i, m in enumerate(mats)
    ]
    d = _common_dim(inputs)
    count = len(inputs)
    one = identity(d)

    outs = []
    for k in range(count - 1):
        if k == 0:
            outs.append(spectral_projection_half(inputs[0]))
        else:
            comp = one - sum(outs)
            outs.append(spectral_projection_half(comp @ inputs[k] @ comp))
    outs.append(one - sum(outs) if outs else one)

    distances = [two_norm(b - a) for a, b in zip(inputs, outs)]
    sum_defect = two_norm(one - sum(inputs))
    reports = []
    for idx in range(count):
        i = idx + 1
        own = two_norm(inputs[idx] @ inputs[idx] - inputs[idx])
        history = sum(distances[j] + two_norm(inputs[idx] @ inputs[j]) for j in range(idx))
        if i == count:
            rhs = 38.0 * history + 4.0 * ROOT2 * own + sum_defect
        elif i == 1:
            rhs = 2.0 * ROOT2 * own
        else:
            rhs = 19.0 * history + 2.0 * ROOT2 * own
        reports.append(
            InequalityReport(f"rounded outcome {i} of {count}", distances[idx], rhs).require()
        )
    pvm = require_pvm(outs, what="rounded family")
    return pvm, tuple(reports)


def perturb_pvm(mats):
    """Round positive contractions to an exact PVM (see perturb_pvm_with_reports)."""
    return perturb_pvm_with_reports(mats)[0]
