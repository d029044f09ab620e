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
from .linalg import _as_table, _overlaps, _pvm_defects, _require_indexed_family, identity, trace_product
from .rounding import InequalityReport, _perturb_checked_two

#: The PVM tolerance of ``forward_translate``'s check of its own output; a
#: failure is the translation's, so it raises BoundViolation.
FORWARD_PVM_TOL = 1e-10

#: Certified per-gadget loss multiplier: each orthogonality gadget's summed
#: same-color mass is at most this many times the tuple's probability.
GADGET_LOSS_FACTOR = 712.0

#: Certified value-transfer multiplier in the forward bound.
FORWARD_FACTOR = 356.0


# The operators of a gadget's colors, by column of its row, which holds
# their table rows.  Block (alpha, x) takes sums of the question-x PVM E,
# each added from zero in outcome order (as sum() adds): low = E_1..E_alpha,
# low1 = E_1..E_{alpha+1}, high = E_{alpha+1}..E_m, high1 = E_{alpha+2}..E_m,
# and mid = E_{alpha+1}.  The gadget of (a, b, x, y) takes e_a = E^x_a, e_b =
# E^y_b, a projection g near e_b with g e_a = 0 exactly, and rest = 1 - e_a
# - g.  Columns _Z and _ONE are zero and one, table rows 0 and 1.
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


def _check_inputs(game: SyncGame, graph: GadgetGraph, strategy: GameStrategy) -> float:
    _require_compiled_from(graph, game)
    _require_strategy_fits(game, strategy)
    return float(_pvm_defects(*_as_table(strategy.stack[:game.n])).max())  # questions 1..n


@_held
def forward_translate(
    game: SyncGame, graph: GadgetGraph, strategy: GameStrategy
) -> ColoringStrategy:
    """The coloring strategy of the gadget graph built out of a game
    strategy, as one (V, 3, d, d) stack whose rows are the sorted names.

    Every color is one of a table of operators: zero, the identity, each
    outcome E of the strategy and 1 - E, the partial sums of the blocks,
    and each orthogonality gadget's g, rest and e_a + g, its projections g
    from one batched rounding.  Each gadget kind is colored from its
    template, in put order: the control letters, the rook blocks, then the
    orthogonality gadgets.  A vertex takes the table rows of the first slot
    that names it in that order, where its gadget declares it; every later
    slot glues a gadget to it and is compared, by table row and, where the
    rows differ, by matrix.  The output check measures each table operator
    once, and the stack is gathered from the table last.  The coloring is
    held on the strategy for the game and graph (``_held``).
    """
    input_defect = _check_inputs(game, graph, strategy)
    n, m, d = game.n, game.m, strategy.d
    one = identity(d)
    # Assignments reached through different expressions agree only up to the
    # input family's sum-to-identity defect; wiring bugs show up at order 1.
    cross_tol = max(1e-12, 4.0 * np.sqrt(d) * input_defect)

    names = sorted(graph.vertices)  # the rows of the output stack
    rank, vertices = graph.rank, graph.vertices
    index = np.full((len(names), 3), -1)  # each vertex's colors, as table rows

    # Every slot in put order; the first slot of each vertex declares it.
    control = np.array([_A, _B, _C])
    blocks = graph.block_rows[:, _BLOCK_PUT_COLUMNS]
    orthos = graph.ortho_rows[:, :9]
    ids = np.concatenate([control, blocks.ravel(), orthos.ravel()])
    declares = np.zeros(len(ids), dtype=bool)
    declares[np.unique(ids, return_index=True)[1]] = True
    block_declares = declares[3:3 + blocks.size].reshape(blocks.shape)
    ortho_declares = declares[3 + blocks.size:].reshape(orthos.shape)

    # The table: zero, one, E^x_a and 1 - E^x_a by (x, a), the sums the
    # blocks take, low[x - 1, t - 1] = E_1..E_t and high[x - 1, t - 1] =
    # E_{t+1}..E_m by (x, t) for t in 1..m-1, and every gadget's g, then
    # rest, then e_a + g.
    n_orthos, n_outcomes, n_sums = len(orthos), n * m, n * (m - 1)
    first_e, first_sum, first_gadget = 2, 2 + 2 * n_outcomes, 2 + 2 * n_outcomes + 2 * n_sums
    table = np.zeros((first_gadget + 3 * n_orthos, d, d), dtype=np.complex128)
    pvms = strategy.stack[:n]  # question x at row x - 1
    table[1] = one
    table[first_e:first_sum] = np.concatenate([pvms, one - pvms]).reshape(-1, d, d)
    low, high = table[first_sum:first_gadget].reshape(2, n, m - 1, d, d)
    for t in range(m):  # each sum added from zero in outcome order
        low[:, t:] += pvms[:, t, None]
        high[:, :t] += pvms[:, t, None]

    def place(slots, declared, colors, tol, gadget) -> None:
        """Color gadgets of one kind: slot j of gadget k names the vertex
        ``slots[k, j]`` and takes the table rows ``colors[k, j]``.  A
        declared slot writes its vertex; a glued one must agree with it, by
        table row or else by matrix, exactly when ``tol`` is None, and the
        first that does not, in put order, is named."""
        index[rank[slots[declared]]] = colors[declared]
        differ = np.zeros(colors.shape, dtype=bool)
        differ[~declared] = index[rank[slots[~declared]]] != colors[~declared]
        k, j, c = np.nonzero(differ)  # in put order
        held, new = table[index[rank[slots[k, j]], c]], table[colors[k, j, c]]
        if tol is None:
            failed = ~(held == new).all(axis=(-2, -1))
        else:  # written so that a NaN difference fails too
            failed = ~(np.abs(held - new).max(axis=(-2, -1)) <= tol)
        if failed.any():
            k, j, c = (at[np.argmax(failed)] for at in (k, j, c))
            raise ValidationError(
                f"gluing inconsistency at {vertices[slots[k, j]]} ({gadget(k)}, cell {_SLOT_LABELS[j]}, "
                f"color {c + 1}): two gadgets assign different operators"
            )

    index[rank[control]] = np.where(np.eye(3, dtype=bool), _ONE, _Z)  # color c on letter c

    question, alpha = np.divmod(np.arange(len(blocks)), m - 2)  # both 0-based
    low_at = first_sum + question * (m - 1) + alpha  # low[question, alpha]
    mid = first_e + question * m + alpha + 1  # E_{alpha+1} for alpha 1-based
    columns = (0, 1, low_at, low_at + 1, low_at + n_sums, low_at + n_sums + 1, mid, mid + n_outcomes)
    place(
        blocks, block_declares, np.stack(np.broadcast_arrays(*columns), axis=1)[:, _BLOCK_TEMPLATE], None,
        lambda k: f"block alpha={alpha[k] + 1} x={question[k] + 1}",
    )

    tuples = game.losing_table[graph.ortho_at]
    a, b, x, y = tuples.T - 1
    e_a, e_b = first_e + x * m + a, first_e + y * m + b  # their table rows
    g, rest, a_g = table[first_gadget:].reshape(3, n_orthos, d, d)
    try:
        g[:] = _perturb_checked_two(table[e_a], table[e_b])
    except ValidationError as exc:  # its inputs are the validated strategy's, so the rounding is at fault
        raise BoundViolation(str(exc)) from exc
    np.subtract(table[e_a + n_outcomes], g, out=rest)
    np.add(table[e_a], g, out=a_g)
    g_at = first_gadget + np.arange(n_orthos)
    columns = (0, 1, e_a, e_b, g_at, e_a + n_outcomes, e_b + n_outcomes, g_at + n_orthos, g_at + 2 * n_orthos)
    colors = np.stack(np.broadcast_arrays(*columns), axis=1)
    # The e-set's gadgets come first; their hub q(1,2) is B, the f-set's C.
    n_e = int(np.count_nonzero(orthos[:, _CELL[(1, 2)]] == _B))
    for start, stop, kind in ((0, n_e, "e"), (n_e, n_orthos, "f")):
        part = slice(start, stop)
        place(
            orthos[part], ortho_declares[part], colors[part][:, _ORTHO_TEMPLATES[kind]], cross_tol,
            lambda k: "orthogonality ({},{},{},{})".format(*tuples[start + k]),
        )

    unassigned = np.flatnonzero(index[:, 0] < 0)  # a vertex takes its three colors at once
    if len(unassigned):
        raise AssertionError(f"vertices never assigned: {[names[r] for r in unassigned[:5]]}")

    # The one PVM check of the output, tighter than the constructor's.
    try:
        _require_indexed_family(table, index, names, FORWARD_PVM_TOL, "coloring PVM at {}")
    except ValidationError as exc:  # the input passed its checks, so the output is at fault
        raise BoundViolation(str(exc)) from exc
    return _prebuilt(ColoringStrategy, d, names, table[index])


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
