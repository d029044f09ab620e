"""Reverse translation: approximate colorings of the gadget graph back to
game strategies.

This is the constructive half of the equivalence.  A coloring strategy is
first symmetrized so every color-indexed quantity becomes invariant under
relabeling the three colors.  The control-triangle projections are then
compressed into six sandwich operators (one per color permutation), the
answer-carrying block cells are squeezed between them, and the resulting
6m positive contractions per question are rounded into an exact PVM whose
permutation-grouped sums are the recovered measurement operators.

Quality is tracked by four diagnostic families over the graph's
triangles, prisms and edges (zeta, eta, xi, theta), and the explicit
constants tying commutators against the sandwich operators to those
diagnostics are certified on demand.  Constants that the analysis leaves
implicit are evaluated left-hand-side only and logged.

Everything is gathered by vertex id, as in ``forward``, and the
diagnostics are arrays aligned with the graph's id tables.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BoundViolation, ValidationError
from .forward import _require_compiled_from, _vertex_rows, coloring_value
from .games import ColoringStrategy, GameStrategy, SyncGame, _held, _prebuilt
from .graphs import (
    _A, _B, _BLOCK_COLUMNS, _C, _ORTHO_COLUMNS, DELTA, GadgetGraph, _answer_cell, _answer_ids, _slot_columns,
)
from .linalg import TOL_SLACK, _gathered, _norms, _raise_first, _require_contractions, _two_norms, identity, two_norm
from .rounding import PERM3, InequalityReport, perturb_pvm

log = logging.getLogger(__name__)

#: Largest tolerated drift of the coloring value under symmetrization.
SYMMETRIZE_TOL = 1e-10

#: Clamp window for the sandwich operators' spectra.
CONTRACTION_TOL = 1e-10

#: Certified multiplier of a triangle's sum defect: eta <= 3 sqrt(zeta).
ETA_FACTOR = 3.0

#: Certified multipliers of the control sandwiches' three almost-PVM bounds,
#: each on the color-averaged zeta of the control triangle.
SANDWICH_SUM_FACTOR = 238.5
SANDWICH_PROJECTION_FACTOR = 72.0
SANDWICH_CROSS_FACTOR = 36.0

#: Certified multiplier of the aggregate off-color estimate: sum_e theta_e^(1/2) <= 2 |E| eps^(1/4).
OFFCOLOR_FACTOR = 2.0


#: _RELABEL[c - 1][slot] is the input color that block ``slot`` plays as color c.
_RELABEL = np.array(PERM3).T - 1

#: The index i - 1 of the first color of each permutation (i, j, k) of PERM3.
_FIRST_COLOR = np.array([perm[0] for perm in PERM3]) - 1

#: A triangle's three vertex pairs, as indices of its vertices.
_TRIANGLE_PAIRS = np.array([(0, 1), (0, 2), (1, 2)])

#: The nine products P_{c,p} P_{c,q} of a triangle's zeta, color by color,
#: each as (vertex p, vertex q, color c) indices of its three vertices.
_ZETA_LEFT, _ZETA_RIGHT, _ZETA_COLOR = np.array([(p, q, c) for c in range(3) for p, q in _TRIANGLE_PAIRS]).T

_ROWS = tuple(tuple((i, j) for j in (1, 2, 3)) for i in (1, 2, 3))
_COLS = tuple(zip(*_ROWS))
_TOP = ("t1", "A", "t3")  # the prism's top triangle, aligned rung by rung with row 1

#: A block's seven triangles as columns of ``GadgetGraph.block_rows``: its
#: rows, its columns and the top triangle; a gadget's six in ``ortho_rows``.
_BLOCK_TRIANGLES = _slot_columns(_BLOCK_COLUMNS, _ROWS + _COLS + (_TOP,))
_ORTHO_TRIANGLES = _slot_columns(_ORTHO_COLUMNS, _ROWS + _COLS)

#: A block's four prisms as (12, 2) columns of ``block_rows``, three rungs
#: each: the top prism (row 1 under the top triangle), then the prisms
#: between rows (1,2), (1,3) and (2,3).
_PRISM_SIDES = ((_ROWS[0], _TOP), (_ROWS[0], _ROWS[1]), (_ROWS[0], _ROWS[2]), (_ROWS[1], _ROWS[2]))
_BLOCK_PRISMS = _slot_columns(_BLOCK_COLUMNS, tuple(chain.from_iterable(zip(*sides) for sides in _PRISM_SIDES)))

#: The edges whose theta the commutator bounds read, as columns of
#: ``block_rows``: v(1,1)~B (v(1,2) is B), v(2,1)~C, v(3,3)~A and v(2,2)~B.
_RHS_EDGES = _slot_columns(_BLOCK_COLUMNS, (((1, 1), (1, 2)), ((2, 1), "C"), ((3, 3), "A"), ((2, 2), (1, 2))))

#: The 30 ordered pairs (p1, p2), p1 != p2, of the six control sandwiches.
_CROSS_LEFT, _CROSS_RIGHT = np.array([(p1, p2) for p1 in range(6) for p2 in range(6) if p1 != p2]).T


def symmetrize(cs: ColoringStrategy, graph: GadgetGraph | None = None) -> ColoringStrategy:
    """Average over color relabelings: six relabelled copies side by side.

    The output acts on a space six times larger (its ``d`` is 6d) and is
    block-diagonal, so each outcome is a (6, d, d) stack whose block for
    permutation sigma plays color `c` with the input's color `sigma(c)`.
    Color-indexed quantities then agree for all three colors by
    construction.  The output is held on ``cs`` (``_held``).  When the
    target graph is supplied, the coloring value before and after is
    compared and must agree within SYMMETRIZE_TOL, on every call; both
    values are held too, so a repeat scores nothing.
    """
    result = _relabelled(cs)
    if graph is not None:
        before = coloring_value(graph, cs).value
        after = coloring_value(graph, result).value
        if abs(after - before) > SYMMETRIZE_TOL:
            raise BoundViolation(
                f"symmetrization moved the coloring value from {before!r} "
                f"to {after!r}"
            )
    return result


@_held
def _relabelled(cs: ColoringStrategy) -> ColoringStrategy:
    # Each block is a validated input PVM, so the defects are the input's.
    # np.take, unlike cs.stack[:, _RELABEL], lays the result out in C order.
    return _prebuilt(ColoringStrategy, 6 * cs.d, cs.keys, np.take(cs.stack, _RELABEL, axis=1))


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Coloring-quality functionals of a symmetrized strategy, at color 1,
    which on a symmetrized strategy stands for all three colors.

    theta holds each edge's product norm of its endpoint projections, in
    ``edge_ids`` order.  zeta and eta hold each triangle's sum of same-color
    products over its vertex pairs and its three-projection sum defect, for
    the control triangle, then each block's rows 1-3, columns 1-3 and top
    triangle (t1, A, t3), then each gadget's rows 1-3 and columns 1-3.  xi
    is (blocks, 4): the sum of the three rung products of each block's top
    prism, then of its prisms between rows (1,2), (1,3) and (2,3).
    """

    zeta: np.ndarray
    eta: np.ndarray
    xi: np.ndarray
    theta: np.ndarray


def _gathered_norms(cs: ColoringStrategy, rows: np.ndarray, combine) -> np.ndarray:
    """``two_norm`` of ``combine`` of the color-1 operators at each row of
    stack rows of ``rows``, chunk by chunk."""
    out = np.empty(len(rows))
    for part, ops in _gathered(cs.stack[:, 0], *rows.T):
        out[part] = _two_norms(combine(*ops))
    return out


def _edge_products(cs: ColoringStrategy, rows: np.ndarray) -> np.ndarray:
    """Color-1 product norm of each pair of stack rows of the (E, 2) array
    ``rows``, for symmetrize's output."""
    if cs.stack.shape[2:] != (6, cs.d // 6, cs.d // 6):
        raise ValidationError("operators are not (6, d, d) stacks; symmetrize the strategy first")
    return _gathered_norms(cs, rows, np.matmul)


def _triangles(graph: GadgetGraph) -> np.ndarray:
    """Every triangle's vertex ids as a (T, 3) table: the control triangle,
    then each block's rows 1-3, columns 1-3 and top triangle, then each
    gadget's rows 1-3 and columns 1-3."""
    return np.concatenate([
        [[_A, _B, _C]],
        graph.block_rows[:, _BLOCK_TRIANGLES].reshape(-1, 3),
        graph.ortho_rows[:, _ORTHO_TRIANGLES].reshape(-1, 3),
    ])


def _triangle_label(graph: GadgetGraph, t: int) -> tuple:
    """The name of triangle t of ``_triangles``: ('delta',), ('row' or
    'col', i, alpha, x), ('top', alpha, x), or ('qrow' or 'qcol', i, a, b,
    x, y) for the gadget of the losing tuple (a, b, x, y)."""
    if t == 0:
        return ("delta",)
    per_x, blocks = graph.game.m - 2, len(graph.block_rows)
    k, s = divmod(t - 1, len(_BLOCK_TRIANGLES))
    if k < blocks:
        alpha, x = k % per_x + 1, k // per_x + 1
        return ("top", alpha, x) if s == 6 else ("row" if s < 3 else "col", s % 3 + 1, alpha, x)
    k, s = divmod(t - 1 - len(_BLOCK_TRIANGLES) * blocks, len(_ORTHO_TRIANGLES))
    return ("qrow" if s < 3 else "qcol", s % 3 + 1) + graph.game.losing_sorted[graph.ortho_at[k]]


def compute_diagnostics(graph: GadgetGraph, cs: ColoringStrategy) -> Diagnostics:
    """Evaluate zeta/eta/xi/theta over the graph's triangles, prisms and edges.

    Expects symmetrize's output and raises ValidationError on anything
    else.  For every triangle the sum defect eta is certified against
    ETA_FACTOR * sqrt(zeta), and the first that fails is raised.
    """
    rows = _vertex_rows(graph, cs)
    theta = _edge_products(cs, rows[graph.edge_ids])
    triangles, one = _triangles(graph), identity(cs.d // 6)
    eta = _gathered_norms(cs, rows[triangles], lambda u, v, w: one - (u + v + w))  # ||1 - (P_u + P_v + P_w)||_2
    sides = theta[graph.edge_index(triangles[:, _TRIANGLE_PAIRS])]
    zeta = 2.0 * (sides[:, 0] + sides[:, 1] + sides[:, 2])
    bound = ETA_FACTOR * np.sqrt(zeta)
    _raise_first([(bound - eta < -TOL_SLACK, lambda t: InequalityReport(
        f"triangle sum defect at {_triangle_label(graph, t)!r}", eta[t], bound[t]
    ).require())])  # which raises
    rungs = theta[graph.edge_index(graph.block_rows[:, _BLOCK_PRISMS])].reshape(-1, 3)
    xi = np.array(list(map(math.fsum, rungs.tolist()))).reshape(-1, 4)
    return Diagnostics(zeta=zeta, eta=eta, xi=xi, theta=theta)


# ---------------------------------------------------------------------------
# control compressions


@dataclass(frozen=True, eq=False)
class ControlCompressions:
    """The six control sandwiches P_iA P_jB P_kC P_jB P_iA.

    ``stack`` holds the six operators as one (6, 6, d, d) stack, row r that
    of the color permutation (i, j, k) = PERM3[r].  Each operator is
    validated as a positive contraction, and the family's three almost-PVM
    bounds (sum defect, projection defect, cross products) are certified at
    construction time against the color-averaged control-triangle zeta.
    """

    stack: np.ndarray
    reports: tuple


def _zeta_color_average(ops: np.ndarray) -> float:
    """Color-averaged zeta of a triangle from its (vertex, color, ...) PVM
    stack; defined for any strategy and equal to the color-1 zeta once the
    strategy is symmetrized."""
    products = ops[_ZETA_LEFT, _ZETA_COLOR] @ ops[_ZETA_RIGHT, _ZETA_COLOR]
    return 2.0 * math.fsum(_norms(products)) / 3.0


@_held
def control_compressions(cs: ColoringStrategy) -> ControlCompressions:
    """The control sandwiches of a symmetrized coloring, held on it (``_held``)."""
    rows = [bisect_left(cs.keys, letter) for letter in DELTA]  # the keys are sorted
    for row, letter in zip(rows, DELTA):
        if cs.keys[row:row + 1] != (letter,):
            raise ValidationError(
                f"coloring strategy lacks a PVM for control vertex {letter!r}"
            )
    ops = cs.stack[rows]  # (vertex, color, ...)
    a, b, c = ops
    stack = np.stack([a[i - 1] @ b[j - 1] @ c[k - 1] @ b[j - 1] @ a[i - 1] for i, j, k in PERM3])
    _require_contractions(stack, lambda i: f"control sandwich {PERM3[i]}", CONTRACTION_TOL)
    stack.setflags(write=False)  # held and shared by every caller, so none may write it
    z_delta = _zeta_color_average(ops)
    total = sum(stack)
    one = identity(total.shape[-1])
    sum_report = InequalityReport(
        "control sandwich sum-to-1",
        two_norm(one - total),
        SANDWICH_SUM_FACTOR * z_delta,
    ).require()
    proj_report = InequalityReport(
        "control sandwich projection defect",
        math.fsum(_norms(stack @ stack - stack)),
        SANDWICH_PROJECTION_FACTOR * z_delta,
    ).require()
    cross_report = InequalityReport(
        "control sandwich cross products",
        math.fsum(_norms(stack[_CROSS_LEFT] @ stack[_CROSS_RIGHT])),
        SANDWICH_CROSS_FACTOR * z_delta,
    ).require()
    return ControlCompressions(stack, (sum_report, proj_report, cross_report))


# ---------------------------------------------------------------------------
# lemma certification


def _commutator_rhs(diag: Diagnostics, theta: list, m: int, a: int, x: int) -> float:
    """Explicit bound on ||[P_{i,vhat(a,x)}, S_{i,j,k}]||_2, by answer class,
    from the diagnostics of the block that carries answer a; ``theta[k]``
    holds block k's _RHS_EDGES."""
    k = (x - 1) * (m - 2) + _answer_cell(a, m)[0] - 1
    z = diag.zeta[1 + 7 * k:8 + 7 * k].tolist()  # block k's rows 1-3, columns 1-3, top
    xi = diag.xi[k].tolist()  # top, rows (1,2), (1,3), (2,3)
    corner_b, left_c, corner_a, center_b = theta[k]
    sd = math.sqrt(diag.zeta[0])
    if a == 1:  # v̂(1, x) is v(1,1)
        return (
            54.0 * sd
            + 48.0 * math.sqrt(z[0])
            + 32.0 * xi[0]
            + 36.0 * corner_b
        )
    if a < m:  # v̂(a, x) is v(2,1)
        return (
            24.0 * sd
            + 72.0 * math.sqrt(z[0])
            + 84.0 * math.sqrt(z[1])
            + 56.0 * xi[1]
            + 16.0 * left_c
        )
    # v̂(m - 1, x) is v(2,1) and v̂(m, x) is v(2,2)
    return (
        66.0 * sd
        + 66.0 * math.sqrt(z[1])
        + 84.0 * math.sqrt(z[0])
        + 32.0 * xi[1]
        + 4.0 * left_c
        + 18.0 * math.sqrt(z[5])
        + 32.0 * xi[0]
        + 12.0 * left_c
        + 2.0 * corner_a
        + 24.0 * center_b
    )


def _question_sandwiches(cc: ControlCompressions, cells: np.ndarray) -> np.ndarray:
    """The 6m operators S P_{i,vhat(a,x)} S of one question as a (6m, 6, d, d)
    stack, ordered by (answer, permutation), from its ``_answer_cells``."""
    s = cc.stack
    return (s @ cells @ s).reshape(-1, *s.shape[1:])


def _answer_cells(cs: ColoringStrategy, rows: np.ndarray) -> np.ndarray:
    """P_{i,vhat(a,x)} for every answer a and permutation (i, j, k), as an
    (m, 6, 6, d, d) stack, from the stack rows of v̂(1, x), ..., v̂(m, x)."""
    return cs.stack[rows[:, None], _FIRST_COLOR]


def certify_reverse_lemmas(
    game: SyncGame, graph: GadgetGraph, cs: ColoringStrategy
) -> list:
    """Measure every reverse-direction inequality on one coloring strategy.

    Returns the control-sandwich family bounds, one commutator report per
    (answer, question) pair with its explicit diagnostic-based constant,
    and per-question lhs-only reports (rhs infinity) for the quantities
    whose constants the analysis leaves implicit.  Explicit bounds are
    certified; a violation raises BoundViolation.
    """
    _require_compiled_from(graph, game)
    sym = symmetrize(cs, graph)
    diag = compute_diagnostics(graph, sym)
    cc = control_compressions(sym)
    reports = list(cc.reports)
    m, s = game.m, cc.stack
    rows = _vertex_rows(graph, sym)[_answer_ids(graph.block_rows, game.n, m)]  # v̂(a, x)'s at [x - 1, a - 1]
    theta = diag.theta[graph.edge_index(graph.block_rows[:, _RHS_EDGES])].tolist()
    one = identity(sym.d // 6)
    implicit = []  # (question, label, value) of each lhs-only quantity, reported after every commutator
    for x in range(1, game.n + 1):
        target = _answer_cells(sym, rows[x - 1])
        # per answer, the largest ||[P_{i,vhat(a,x)}, S_{i,j,k}]||_2 over the permutations
        lhs = _two_norms(target @ s - s @ target).max(axis=1).tolist()
        for a, norm in enumerate(lhs, start=1):
            reports.append(
                InequalityReport(
                    f"sandwich commutator (answer {a}, question {x})",
                    norm,
                    _commutator_rhs(diag, theta, m, a, x),
                ).require()
            )
        ops = _question_sandwiches(cc, target)
        total = sum(ops)
        cross = np.stack([_two_norms(op @ ops) for op in ops])  # [p, q]: ||ops[p] @ ops[q]||_2
        implicit += [
            (x, "sandwich family sum defect", two_norm(one - total)),
            (x, "sandwich family projection defect", math.fsum(_two_norms(ops @ ops - ops).tolist())),
            (x, "sandwich family cross products", math.fsum(cross[~np.eye(len(ops), dtype=bool)].tolist())),
        ]
    for x, label, value in implicit:
        log.info("question %d: %s %.12g", x, label, value)
        reports.append(InequalityReport(f"{label} (question {x}; lhs only)", value, math.inf))
    return reports


# ---------------------------------------------------------------------------
# the translation itself


def reverse_translate(
    game: SyncGame, graph: GadgetGraph, cs: ColoringStrategy
) -> GameStrategy:
    """Round a coloring strategy into measurements for the original game.

    Pipeline: symmetrize, build the control sandwiches, squeeze each
    answer cell between them (6m positive contractions per question,
    ordered by answer then permutation), round the family into an exact
    PVM, and sum each answer's six permutation blocks into one projection.
    Only the output is laid out densely, and checked as an exact PVM family.
    """
    _require_compiled_from(graph, game)
    sym = symmetrize(cs, graph)
    cc = control_compressions(sym)
    m = game.m
    rows = _vertex_rows(graph, sym)[_answer_ids(graph.block_rows, game.n, m)]  # v̂(a, x)'s at [x - 1, a - 1]
    pvms = {}
    for x in range(1, game.n + 1):
        ops = _question_sandwiches(cc, _answer_cells(sym, rows[x - 1]))
        if log.isEnabledFor(logging.INFO):
            total = sum(ops)
            top = float(np.linalg.eigvalsh(0.5 * (total + total.conj().swapaxes(1, 2))).max())
            log.info("question %d: sandwich sum max eigenvalue %.12g", x, top)
        rounded = perturb_pvm(ops)
        pvms[x] = [
            _block_diagonal(sum(rounded[(a - 1) * len(PERM3) + r] for r in range(len(PERM3))))
            for a in range(1, m + 1)
        ]
    return GameStrategy(d=sym.d, pvms=pvms)


def _block_diagonal(stack: np.ndarray) -> np.ndarray:
    """The (k*d)-by-(k*d) matrix with the k blocks of a (k, d, d) stack."""
    k, d, _ = stack.shape
    dense = np.zeros((k, d, k, d), dtype=np.complex128)
    dense[range(k), :, range(k), :] = stack
    return dense.reshape(k * d, k * d)


def aggregate_offcolor_estimate(
    graph: GadgetGraph, cs: ColoringStrategy
) -> InequalityReport:
    """Certify the root-sum of edge defects against the coloring loss.

    For a symmetrized strategy with coloring value 1 - eps, the sum over
    edges of theta^(1/2) is at most 2|E| eps^(1/4).
    """
    value = coloring_value(graph, cs).value
    theta = _edge_products(cs, _vertex_rows(graph, cs)[graph.edge_ids])
    eps = max(0.0, 1.0 - value)
    lhs = math.fsum(map(math.sqrt, theta.tolist()))
    rhs = OFFCOLOR_FACTOR * graph.n_edges * eps**0.25
    return InequalityReport("aggregate off-color estimate", lhs, rhs).require()
