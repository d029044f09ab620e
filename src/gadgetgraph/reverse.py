"""Reverse translation: approximate colorings of the gadget graph back to
game strategies.

This is the constructive half of the equivalence.  A coloring strategy is
first symmetrized so every color-indexed quantity becomes invariant under
relabeling the three colors.  The control-triangle projections are then
compressed into six sandwich operators (one per color permutation), the
answer-carrying block cells are squeezed between them, and the resulting
6m positive contractions per question are rounded into an exact PVM whose
permutation-grouped sums are the recovered measurement operators.

Quality is tracked by four diagnostic families over the graph's named
triangles, prisms and edges (zeta, eta, xi, theta), and the explicit
constants tying commutators against the sandwich operators to those
diagnostics are certified on demand.  Constants that the analysis leaves
implicit are evaluated left-hand-side only and logged.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import BoundViolation, ValidationError
from .forward import _require_compiled_from, _require_coverage, coloring_value
from .games import ColoringStrategy, GameStrategy, SyncGame, _prebuilt, _rows
from .graphs import DELTA, GadgetGraph
from .linalg import _gathered, _norms, _require_contractions, _two_norms, identity, two_norm
from .rounding import PERM3, InequalityReport, perturb_pvm

log = logging.getLogger(__name__)

#: Largest tolerated drift of the coloring value under symmetrization.
SYMMETRIZE_TOL = 1e-10

#: Clamp window for the sandwich operators' spectra.
CONTRACTION_TOL = 1e-10


#: _RELABEL[c - 1][slot] is the input color that block ``slot`` plays as color c.
_RELABEL = np.array(PERM3).T - 1

#: The index i - 1 of the first color of each permutation (i, j, k) of PERM3.
_FIRST_COLOR = np.array([perm[0] for perm in PERM3]) - 1

#: The nine products P_{c,p} P_{c,q} of a triangle's zeta, color by color,
#: each as (vertex p, vertex q, color c) indices of its three vertices.
_ZETA_LEFT, _ZETA_RIGHT, _ZETA_COLOR = np.array(
    [(p, q, c) for c in range(3) for p, q in ((0, 1), (0, 2), (1, 2))]
).T

#: The 30 ordered pairs (p1, p2), p1 != p2, of the six control sandwiches.
_CROSS_LEFT, _CROSS_RIGHT = np.array([(p1, p2) for p1 in range(6) for p2 in range(6) if p1 != p2]).T


def symmetrize(cs: ColoringStrategy, graph: GadgetGraph | None = None) -> ColoringStrategy:
    """Average over color relabelings: six relabelled copies side by side.

    The output acts on a space six times larger (its ``d`` is 6d) and is
    block-diagonal, so each outcome is a (6, d, d) stack whose block for
    permutation sigma plays color `c` with the input's color `sigma(c)`.
    Color-indexed quantities then agree for all three colors by
    construction.  When the target graph is supplied, the coloring value
    before and after is compared and must agree within SYMMETRIZE_TOL.
    """
    # Each block is a validated input PVM, so the defects are the input's.
    # np.take, unlike cs.stack[:, _RELABEL], lays the result out in C order.
    result = _prebuilt(ColoringStrategy, 6 * cs.d, cs.keys, np.take(cs.stack, _RELABEL, axis=1))
    if graph is not None:
        before = coloring_value(graph, cs).value
        after = coloring_value(graph, result).value
        if abs(after - before) > SYMMETRIZE_TOL:
            raise BoundViolation(
                f"symmetrization moved the coloring value from {before!r} "
                f"to {after!r}"
            )
    return result


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Coloring-quality functionals of a symmetrized strategy.

    zeta maps each named triangle to the sum of same-color products over
    its ordered vertex pairs, eta to its three-projection sum defect, xi
    maps each named prism to the sum of its three rung products, and theta
    maps each graph edge to the product norm of its endpoint projections.
    Everything is evaluated at color 1, which on a symmetrized strategy
    stands for all three colors.  theta is keyed by the pairs of
    ``graph.edges``, and edge_key is the graph's ``GadgetGraph.edge_key``,
    which orders any pair of names that way.
    """

    zeta: dict
    eta: dict
    xi: dict
    theta: dict
    edge_key: Callable[[str, str], tuple]

    def theta_edge(self, u: str, v: str) -> float:
        """Theta for an edge named in either endpoint order."""
        pair = self.edge_key(u, v)
        if pair not in self.theta:
            raise ValidationError(f"no edge between {u!r} and {v!r}")
        return self.theta[pair]


def _edge_products(graph: GadgetGraph, cs: ColoringStrategy) -> dict:
    """Color-1 product norm per edge of symmetrize's output."""
    if cs.stack.shape[2:] != (6, cs.d // 6, cs.d // 6):
        raise ValidationError("operators are not (6, d, d) stacks; symmetrize the strategy first")
    rows = _rows(cs, chain.from_iterable(graph.edges)).reshape(-1, 2)
    norms = []
    for _, (u, v) in _gathered(cs.stack[:, 0], *rows.T):
        norms.extend(_two_norms(u @ v).tolist())
    return dict(zip(graph.edges, norms))


def _theta_at(theta: dict, edge_key, u: str, v: str) -> float:
    pair = edge_key(u, v)
    if pair not in theta:
        raise AssertionError(f"gadget edge {u}~{v} missing from the edge table")
    return theta[pair]


def _named_triangles(graph: GadgetGraph):
    yield ("delta",), DELTA
    for b in graph.blocks:
        for i in (1, 2, 3):
            yield ("row", i, b.alpha, b.x), b.row(i)
        for j in (1, 2, 3):
            yield ("col", j, b.alpha, b.x), b.col(j)
        yield ("top", b.alpha, b.x), b.t_triangle()
    for o in graph.orthos:
        for i in (1, 2, 3):
            yield ("qrow", i) + o.tup, o.row(i)
        for j in (1, 2, 3):
            yield ("qcol", j) + o.tup, o.col(j)


def _named_prisms(graph: GadgetGraph):
    for b in graph.blocks:
        yield ("top", b.alpha, b.x), tuple(zip(b.row(1), b.t_triangle()))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            yield ("rows", i, j, b.alpha, b.x), tuple(zip(b.row(i), b.row(j)))


def _triangle_sum_defects(cs: ColoringStrategy, triangles) -> list:
    """eta of each (u, v, w) triangle at color 1, ||1 - (P_u + P_v + P_w)||_2,
    over gathered (T, 6, d, d) stacks, chunk by chunk."""
    rows = _rows(cs, chain.from_iterable(triangles)).reshape(-1, 3)
    one = identity(cs.d // 6)
    out = []
    for _, (u, v, w) in _gathered(cs.stack[:, 0], *rows.T):
        out.extend(_two_norms(one - (u + v + w)).tolist())
    return out


def compute_diagnostics(graph: GadgetGraph, cs: ColoringStrategy) -> Diagnostics:
    """Evaluate zeta/eta/xi/theta over the graph's named substructures.

    Expects symmetrize's output and raises ValidationError on anything
    else.  For every triangle the sum defect eta is certified against
    3*sqrt(zeta).
    """
    _require_coverage(graph, cs)
    theta = _edge_products(graph, cs)
    key = graph.edge_key
    triangles = list(_named_triangles(graph))
    defects = _triangle_sum_defects(cs, [names for _, names in triangles])
    zeta, eta, xi = {}, {}, {}
    for (label, (u, v, w)), defect in zip(triangles, defects):
        z = 2.0 * (
            _theta_at(theta, key, u, v) + _theta_at(theta, key, u, w) + _theta_at(theta, key, v, w)
        )
        zeta[label] = z
        eta[label] = defect
        InequalityReport(
            f"triangle sum defect at {label!r}", eta[label], 3.0 * math.sqrt(z)
        ).require()
    for label, rungs in _named_prisms(graph):
        xi[label] = math.fsum(_theta_at(theta, key, u, v) for u, v in rungs)
    return Diagnostics(zeta=zeta, eta=eta, xi=xi, theta=theta, edge_key=key)


# ---------------------------------------------------------------------------
# control compressions


@dataclass(frozen=True, eq=False)
class ControlCompressions:
    """The six control sandwiches P_iA P_jB P_kC P_jB P_iA.

    Keyed by the color permutation (i, j, k); each operator is validated
    as a positive contraction, and the family's three almost-PVM bounds
    (sum defect, projection defect, cross products) are certified at
    construction time against the color-averaged control-triangle zeta.
    """

    operators: dict
    reports: tuple

    def operator(self, perm) -> np.ndarray:
        return self.operators[tuple(perm)]

    @cached_property
    def stack(self) -> np.ndarray:
        """The six operators as one (6, 6, d, d) stack, in PERM3 order."""
        return np.stack([self.operators[perm] for perm in PERM3])


def _zeta_color_average(cs: ColoringStrategy, names) -> float:
    """Color-averaged zeta of a triangle; defined for any strategy and
    equal to the color-1 zeta once the strategy is symmetrized."""
    ops = np.stack([cs.pvms[name] for name in names])  # (vertex, color, ...)
    products = ops[_ZETA_LEFT, _ZETA_COLOR] @ ops[_ZETA_RIGHT, _ZETA_COLOR]
    return 2.0 * math.fsum(_norms(products)) / 3.0


def control_compressions(cs: ColoringStrategy) -> ControlCompressions:
    for letter in DELTA:
        if letter not in cs.pvms:
            raise ValidationError(
                f"coloring strategy lacks a PVM for control vertex {letter!r}"
            )
    a, b, c = (cs.pvms[letter] for letter in DELTA)
    stack = np.stack([a[i - 1] @ b[j - 1] @ c[k - 1] @ b[j - 1] @ a[i - 1] for i, j, k in PERM3])
    _require_contractions(stack, lambda i: f"control sandwich {PERM3[i]}", CONTRACTION_TOL)
    operators = dict(zip(PERM3, stack))
    z_delta = _zeta_color_average(cs, DELTA)
    total = sum(stack)
    one = identity(total.shape[-1])
    sum_report = InequalityReport(
        "control sandwich sum-to-1",
        two_norm(one - total),
        238.5 * z_delta,
    ).require()
    proj_report = InequalityReport(
        "control sandwich projection defect",
        math.fsum(_norms(stack @ stack - stack)),
        72.0 * z_delta,
    ).require()
    cross_report = InequalityReport(
        "control sandwich cross products",
        math.fsum(_norms(stack[_CROSS_LEFT] @ stack[_CROSS_RIGHT])),
        36.0 * z_delta,
    ).require()
    return ControlCompressions(
        operators=operators, reports=(sum_report, proj_report, cross_report)
    )


# ---------------------------------------------------------------------------
# lemma certification


def _commutator_rhs(graph: GadgetGraph, diag: Diagnostics, m: int, a: int, x: int) -> float:
    """Explicit bound on ||[P_{i,vhat(a,x)}, S_{i,j,k}]||_2, by answer class."""
    sd = math.sqrt(diag.zeta[("delta",)])
    th = diag.theta_edge
    answer = graph.answer_vertex
    if a == 1:
        return (
            54.0 * sd
            + 48.0 * math.sqrt(diag.zeta[("row", 1, 1, x)])
            + 32.0 * diag.xi[("top", 1, x)]
            + 36.0 * th(answer(1, x), "B")
        )
    if a < m:
        al = a - 1
        return (
            24.0 * sd
            + 72.0 * math.sqrt(diag.zeta[("row", 1, al, x)])
            + 84.0 * math.sqrt(diag.zeta[("row", 2, al, x)])
            + 56.0 * diag.xi[("rows", 1, 2, al, x)]
            + 16.0 * th(answer(a, x), "C")
        )
    al = m - 2
    cells = graph.block(al, x).cells
    return (
        66.0 * sd
        + 66.0 * math.sqrt(diag.zeta[("row", 2, al, x)])
        + 84.0 * math.sqrt(diag.zeta[("row", 1, al, x)])
        + 32.0 * diag.xi[("rows", 1, 2, al, x)]
        + 4.0 * th(answer(m - 1, x), "C")
        + 18.0 * math.sqrt(diag.zeta[("col", 3, al, x)])
        + 32.0 * diag.xi[("top", al, x)]
        + 12.0 * th(cells[(2, 1)], "C")
        + 2.0 * th(cells[(3, 3)], "A")
        + 24.0 * th(answer(m, x), "B")
    )


def _question_sandwiches(
    graph: GadgetGraph, cs: ColoringStrategy, cc: ControlCompressions, x: int, m: int
) -> np.ndarray:
    """The 6m operators S P_{i,vhat(a,x)} S as a (6m, 6, d, d) stack, ordered
    by (answer, permutation)."""
    s = cc.stack
    return (s @ _answer_cells(graph, cs, x, m) @ s).reshape(-1, *s.shape[1:])


def _answer_cells(graph: GadgetGraph, cs: ColoringStrategy, x: int, m: int) -> np.ndarray:
    """P_{i,vhat(a,x)} for every answer a and permutation (i, j, k), as an
    (m, 6, 6, d, d) stack."""
    rows = _rows(cs, (graph.answer_vertex(a, x) for a in range(1, m + 1)))
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
    for x in range(1, game.n + 1):
        target = _answer_cells(graph, sym, x, m)
        # per answer, the largest ||[P_{i,vhat(a,x)}, S_{i,j,k}]||_2 over the permutations
        lhs = _two_norms(target @ s - s @ target).max(axis=1).tolist()
        for a, norm in enumerate(lhs, start=1):
            reports.append(
                InequalityReport(
                    f"sandwich commutator (answer {a}, question {x})",
                    norm,
                    _commutator_rhs(graph, diag, m, a, x),
                ).require()
            )
    one = identity(sym.d // 6)
    for x in range(1, game.n + 1):
        ops = _question_sandwiches(graph, sym, cc, x, m)
        total = sum(ops)
        # ||ops[p] @ ops[q]||_2 for q != p, one p at a time against slices (views) of ops
        cross = [
            _two_norms(op @ others).tolist() for p, op in enumerate(ops) for others in (ops[:p], ops[p + 1:])
        ]
        quantities = (
            ("sandwich family sum defect", two_norm(one - total)),
            ("sandwich family projection defect", math.fsum(_two_norms(ops @ ops - ops).tolist())),
            ("sandwich family cross products", math.fsum(chain.from_iterable(cross))),
        )
        for label, value in quantities:
            log.info("question %d: %s %.12g", x, label, value)
            reports.append(
                InequalityReport(f"{label} (question {x}; lhs only)", value, math.inf)
            )
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
    pvms = {}
    for x in range(1, game.n + 1):
        ops = _question_sandwiches(graph, sym, cc, x, m)
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
    theta = _edge_products(graph, cs)
    eps = max(0.0, 1.0 - value)
    lhs = math.fsum(math.sqrt(theta[edge]) for edge in graph.edges)
    rhs = 2.0 * graph.n_edges * eps**0.25
    return InequalityReport("aggregate off-color estimate", lhs, rhs).require()
