"""Forward pipeline: from a game strategy to a coloring strategy.

Every vertex of the gadget graph receives a triple of projections (its
3-coloring PVM) built out of the game strategy's measurement operators:
the control triangle gets the three coordinate colors, each rook block and
its prism tops three structured operator matrices over partial sums of the
question's PVM, each orthogonality gadget a second family built around a
perturbed projection that exactly annihilates one measurement operator.
Each gadget kind is colored from one template, all its gadgets at once.

Gluing consistency is *verified*, not assumed: when two gadgets both name
a vertex, their color assignments are compared — bitwise for two
assignments built from the same expressions, and up to a tolerance scaled
by the input family's PVM defect when the expressions differ only by the
sum-to-identity relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import fsum

import numpy as np

from .errors import BoundViolation, ValidationError
from .games import (
    ColoringStrategy,
    GameStrategy,
    LossEntry,
    PriorDistribution,
    SyncGame,
    ValueReport,
    _held,
    _prebuilt,
    _require_strategy_fits,
    sync_value,
)
from .graphs import _A, _B, _C, _CELL, _CELLS, _ORTHO_SLOTS, GadgetGraph
from .linalg import _overlaps, _stack_defects, identity, require_pvm_family, trace_product, zero
from .rounding import InequalityReport, _perturb_checked_two

#: The PVM tolerance of ``forward_translate``'s check of its own output; a
#: failure is the translation's, so it raises BoundViolation.
FORWARD_PVM_TOL = 1e-10

#: Certified per-gadget loss multiplier: each orthogonality gadget's summed
#: same-color mass is at most this many times the tuple's probability.
GADGET_LOSS_FACTOR = 712.0

#: Certified value-transfer multiplier in the forward bound.
FORWARD_FACTOR = 356.0


# The operators of a gadget's colors, by index.  Block (alpha, x) takes sums
# of the question-x PVM E, each added from zero in outcome order (as sum()
# adds): low = E_1..E_alpha, low1 = E_1..E_{alpha+1}, high =
# E_{alpha+1}..E_m, high1 = E_{alpha+2}..E_m, and mid = E_{alpha+1}.  The
# gadget of (a, b, x, y) takes e_a = E^x_a, e_b = E^y_b, a projection g near
# e_b with g e_a = 0 exactly, and rest = 1 - e_a - g.
_Z, _ONE, _LOW, _LOW1, _HIGH, _HIGH1, _MID, _NOT_MID = range(8)
_E_A, _E_B, _G, _NOT_A, _NOT_B, _REST, _A_G = range(2, 9)


def _template(*colors) -> tuple:
    """Each cell's operator per color, row-major, from each color's 3x3
    matrix of operators; the cells of a matrix sum to the identity."""
    return tuple(zip(*(chain.from_iterable(rows) for rows in colors)))


_H1 = ((_LOW, _Z, _HIGH), (_MID, _HIGH1, _LOW), (_HIGH1, _LOW1, _Z))
_H2 = ((_Z, _ONE, _Z), (_NOT_MID, _Z, _MID), (_MID, _Z, _NOT_MID))
_H3 = ((_HIGH, _Z, _LOW), (_Z, _LOW1, _HIGH1), (_LOW, _HIGH1, _MID))
_J1 = ((_E_A, _Z, _NOT_A), (_REST, _E_B, _E_A), (_G, _NOT_B, _Z))
_J2 = ((_Z, _ONE, _Z), (_A_G, _Z, _REST), (_REST, _Z, _A_G))
_J3 = ((_NOT_A, _Z, _E_A), (_Z, _NOT_B, _G), (_E_A, _E_B, _REST))

#: A block's slots in put order, as columns of ``GadgetGraph.block_rows``:
#: its nine cells, then the prism tops t1 and t3.
_BLOCK_PUT_COLUMNS = (*range(9), 11, 12)
_SLOT_LABELS = (*_CELLS, "t1", "t3")
_BLOCK_TEMPLATE = _template(_H1, _H2, _H3) + ((_Z, _HIGH, _LOW), (_Z, _LOW, _HIGH))
#: An orthogonality gadget's, by kind: interior-answer gadgets ('f') swap
#: colors 2 and 3.
_ORTHO_TEMPLATES = {"e": _template(_J1, _J2, _J3), "f": _template(_J1, _J3, _J2)}


def _gadgets(mask: np.ndarray):
    """The gadgets of a mask: a slice when it takes them all, so that
    indexing an operand with it makes no copy, else their indices."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def _check_inputs(game: SyncGame, graph: GadgetGraph, strategy: GameStrategy) -> float:
    _require_compiled_from(graph, game)
    _require_strategy_fits(game, strategy)
    *_, (defects, _, _) = _stack_defects(strategy.stack[:game.n])  # questions 1..n
    return float(defects.max())


@_held
def forward_translate(
    game: SyncGame, graph: GadgetGraph, strategy: GameStrategy
) -> ColoringStrategy:
    """The coloring strategy of the gadget graph built out of a game
    strategy, as one (V, 3, d, d) stack whose rows are the sorted names.

    Each gadget kind is colored from its template, in put order: the
    control letters, the rook blocks, then the orthogonality gadgets, whose
    projections g come from one batched rounding.  A vertex takes the
    colors of the first slot that names it in that order, where its gadget
    declares it; every later slot glues a gadget to it and is compared.
    The coloring is held on the strategy for the game and graph (``_held``).
    """
    input_defect = _check_inputs(game, graph, strategy)
    n, m, d = game.n, game.m, strategy.d
    one, z = identity(d), zero(d)
    # Assignments reached through different expressions agree only up to the
    # input family's sum-to-identity defect; wiring bugs show up at order 1.
    cross_tol = max(1e-12, 4.0 * np.sqrt(d) * input_defect)

    names = sorted(graph.vertices)  # the rows of the output stack
    rank, vertices = graph.rank, graph.vertices
    stack = np.empty((len(names), 3, d, d), dtype=np.complex128)

    # Every slot in put order; the first slot of each vertex declares it.
    control = np.array([_A, _B, _C])
    blocks = graph.block_rows[:, _BLOCK_PUT_COLUMNS]
    orthos = graph.ortho_rows[:, :9]
    ids = np.concatenate([control, blocks.ravel(), orthos.ravel()])
    declares = np.zeros(len(ids), dtype=bool)
    declares[np.unique(ids, return_index=True)[1]] = True
    block_declares = declares[3:3 + blocks.size].reshape(blocks.shape)
    ortho_declares = declares[3 + blocks.size:].reshape(orthos.shape)

    def place(slots, declared, template, operands, tol, gadget) -> None:
        """Color gadgets of one kind: slot j of gadget k names the vertex
        ``slots[k, j]`` and takes the operators ``template[j]``, indices
        into ``operands``, one (G, d, d) array each.  A declared slot writes
        its vertex; a glued one must agree with it, exactly when ``tol`` is
        None, and the first that does not, in put order, is named."""
        for j, colors in enumerate(template):
            if not declared[:, j].any():
                continue
            rows = _gadgets(declared[:, j])
            for c, op in enumerate(colors):
                stack[rank[slots[rows, j]], c] = operands[op][rows]
        failed = np.zeros(slots.shape + (3,), dtype=bool)
        for j, colors in enumerate(template):
            if declared[:, j].all():
                continue
            rows = _gadgets(~declared[:, j])
            for c, op in enumerate(colors):
                held, new = stack[rank[slots[rows, j]], c], operands[op][rows]
                if tol is None:
                    failed[rows, j, c] = ~(held == new).all(axis=(-2, -1))
                else:  # written so that a NaN difference fails too
                    failed[rows, j, c] = ~(np.abs(held - new).max(axis=(-2, -1)) <= tol)
        if failed.any():
            k, j, c = np.unravel_index(np.argmax(failed), failed.shape)
            raise ValidationError(
                f"gluing inconsistency at {vertices[slots[k, j]]} ({gadget(k)}, cell {_SLOT_LABELS[j]}, "
                f"color {c + 1}): two gadgets assign different operators"
            )

    stack[rank[control]] = 0.0  # the control letters come first: color c on letter c
    stack[rank[control], [0, 1, 2]] = one

    pvms = strategy.stack[:n]  # question x at row x - 1
    low = np.zeros((n, m + 1, d, d), dtype=np.complex128)  # low[:, t]: outcomes 1..t
    high = np.zeros((n, m + 1, d, d), dtype=np.complex128)  # high[:, s]: outcomes s+1..m
    for t in range(m):
        low[:, t + 1] = low[:, t] + pvms[:, t]
        high[:, :t + 1] += pvms[:, t, None]
    question, alpha = np.divmod(np.arange(len(blocks)), m - 2)  # both 0-based
    at, after = (question, alpha + 1), (question, alpha + 2)
    mid = pvms[at]
    zs, ones = np.broadcast_to(z, mid.shape), np.broadcast_to(one, mid.shape)
    place(
        blocks, block_declares, _BLOCK_TEMPLATE,
        (zs, ones, low[at], low[after], high[at], high[after], mid, one - mid), None,
        lambda k: f"block alpha={alpha[k] + 1} x={question[k] + 1}",
    )

    tuples = game.losing_table[graph.ortho_at]
    a, b, x, y = tuples.T - 1
    e_a, e_b = pvms[x, a], pvms[y, b]
    g = _perturb_checked_two(e_a, e_b)
    not_a = one - e_a
    zs, ones = np.broadcast_to(z, g.shape), np.broadcast_to(one, g.shape)
    operands = (zs, ones, e_a, e_b, g, not_a, one - e_b, not_a - g, e_a + g)
    # The e-set's gadgets come first; their hub q(1,2) is B, the f-set's C.
    n_e = int(np.count_nonzero(orthos[:, _CELL[(1, 2)]] == _B))
    for start, stop, kind in ((0, n_e, "e"), (n_e, len(orthos), "f")):
        part = slice(start, stop)
        place(
            orthos[part], ortho_declares[part], _ORTHO_TEMPLATES[kind], [op[part] for op in operands], cross_tol,
            lambda k: "orthogonality ({},{},{},{})".format(*tuples[start + k]),
        )

    assigned = np.zeros(len(vertices), dtype=bool)
    assigned[ids] = True
    if not assigned.all():
        raise AssertionError(f"vertices never assigned: {[vertices[v] for v in np.flatnonzero(~assigned)[:5]]}")

    # The one PVM check of the output, tighter than the constructor's.
    try:
        require_pvm_family(stack, names, tol=FORWARD_PVM_TOL, what="coloring PVM at {}")
    except ValidationError as exc:  # the input passed its checks, so the output is at fault
        raise BoundViolation(str(exc)) from exc
    return _prebuilt(ColoringStrategy, d, names, stack)


def _require_compiled_from(graph: GadgetGraph, game: SyncGame) -> None:
    """Raise unless ``graph`` is the gadget graph of ``game``."""
    if graph.game != game:
        raise ValidationError("graph was compiled from a different game")


def _vertex_rows(graph: GadgetGraph, cs: ColoringStrategy) -> np.ndarray:
    """The row of ``cs.stack`` that holds each vertex's PVM, by vertex id;
    raises unless ``cs`` has a PVM for every graph vertex.  A strategy of
    exactly the graph's vertices holds them in sorted order, so those rows
    are ``graph.rank``; one with more keys is searched, its keys being sorted."""
    held = set(cs.keys)
    if not held.issuperset(graph.vertices):
        missing = [v for v in graph.vertices if v not in held]
        raise ValidationError(
            f"coloring strategy lacks PVMs for {len(missing)} graph "
            f"vertices, first {missing[0]!r}"
        )
    if len(cs.keys) == graph.n_vertices:
        return graph.rank
    return np.searchsorted(np.array(cs.keys), np.array(graph.vertices))


def _edge_losses(cs: ColoringStrategy, rows: np.ndarray) -> list:
    """Same-color probability sum_c tr(P_{c,u} P_{c,v})/d of each pair
    (u, v) of stack rows in the (E, 2) array ``rows``: every overlap comes
    from one gathered ``einsum`` per chunk of edges, and each edge
    ``fsum``s its three."""
    return list(map(fsum, _overlaps(cs.stack, rows[:, 0], rows[:, 1]).tolist()))


@_held
def coloring_value(graph: GadgetGraph, cs: ColoringStrategy) -> ValueReport:
    """Value of the 3-coloring game of the graph under the edge-uniform prior.

    Equal to 1 minus the average same-color mass per edge; summing each
    unordered edge once at weight 1/|E| agrees with summing both orders at
    1/(2|E|) because the trace is symmetric in the two projections.  Each
    edge costs three O(d^2) trace contractions, gathered over chunks of
    edges (``_edge_losses``).  The report is held on the coloring for the
    graph (``_held``).
    """
    weight = 1.0 / graph.n_edges
    probabilities = _edge_losses(cs, _vertex_rows(graph, cs)[graph.edge_ids])
    value = 1.0 - fsum(weight * p for p in probabilities)
    return ValueReport(
        value, lambda: tuple(LossEntry(e, weight, p) for e, p in zip(graph.edges, probabilities))
    )


@dataclass(frozen=True)
class GadgetLoss:
    """Same-color mass across one orthogonality gadget's 19 edges, counted
    once each, against the certified multiple of the tuple's probability."""

    tup: tuple
    kind: str
    loss: float
    probability: float

    @property
    def report(self) -> InequalityReport:
        a, b, x, y = self.tup
        return InequalityReport(
            f"gadget ({a},{b},{x},{y}) loss", self.loss, GADGET_LOSS_FACTOR * self.probability
        )


def ortho_gadget_losses(
    game: SyncGame,
    graph: GadgetGraph,
    strategy: GameStrategy,
    cs: ColoringStrategy,
) -> tuple:
    """Per-gadget loss accounting for every orthogonality gadget."""
    _require_compiled_from(graph, game)
    _require_strategy_fits(game, strategy)
    per = len(_ORTHO_SLOTS)  # edges of one gadget: its rook pairs, then A~q(3,3)
    losses = _edge_losses(cs, _vertex_rows(graph, cs)[graph.ortho_rows[:, _ORTHO_SLOTS]].reshape(-1, 2))
    hubs = graph.ortho_rows[:, _CELL[(1, 2)]].tolist()
    out, stack = [], strategy.stack  # a strategy that fits holds question x at row x - 1
    for i, (at, hub) in enumerate(zip(graph.ortho_at.tolist(), hubs)):
        tup = game.losing_sorted[at]
        a, b, x, y = tup
        loss = fsum(losses[i * per:(i + 1) * per])
        p = trace_product(stack[x - 1, a - 1], stack[y - 1, b - 1])
        out.append(GadgetLoss(tup=tup, kind="e" if hub == _B else "f", loss=loss, probability=p))
    return tuple(out)


def certify_forward(
    game: SyncGame, graph: GadgetGraph, strategy: GameStrategy
) -> InequalityReport:
    """Certified value transfer: the translated coloring strategy loses at
    most 356 n^2 / |E| times the game strategy's loss.  Asserted."""
    cs = forward_translate(game, graph, strategy)
    lhs = 1.0 - coloring_value(graph, cs).value
    value = sync_value(game, strategy, PriorDistribution.uniform_questions(game.n)).value
    # A value rounded above 1 would make the bound negative; a loss is >= 0.
    game_loss = max(0.0, 1.0 - value)
    rhs = (FORWARD_FACTOR * game.n * game.n / graph.n_edges) * game_loss
    return InequalityReport(
        f"forward value transfer (n={game.n}, edges={graph.n_edges})", lhs, rhs
    ).require()
