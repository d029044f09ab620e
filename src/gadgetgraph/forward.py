"""Forward pipeline: from a game strategy to a coloring strategy.

Every vertex of the gadget graph receives a triple of projections (its
3-coloring PVM) built out of the game strategy's measurement operators:
the control triangle gets the three coordinate colors, each rook block is
colored by three structured operator matrices over partial sums of the
question's PVM, each orthogonality gadget by a second family built around
a perturbed projection that exactly annihilates one measurement operator,
and the prism tops by complementary partial sums.

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

from .errors import ValidationError
from .games import (
    ColoringStrategy,
    GameStrategy,
    LossEntry,
    PriorDistribution,
    SyncGame,
    ValueReport,
    _prebuilt,
    _require_strategy_fits,
    _rows,
    sync_value,
)
from .graphs import DELTA, ROOK_PAIRS, GadgetGraph
from .linalg import _overlaps, _stack_defects, identity, require_pvm_family, trace_product, zero
from .rounding import InequalityReport, _perturb_checked_two

FORWARD_PVM_TOL = 1e-10

#: Certified per-gadget loss multiplier: each orthogonality gadget's summed
#: same-color mass is at most this many times the tuple's probability.
GADGET_LOSS_FACTOR = 712.0

#: Certified value-transfer multiplier in the forward bound.
FORWARD_FACTOR = 356.0


def interval_sum(strategy: GameStrategy, s: int, t: int, x: int) -> np.ndarray:
    """Partial sum of the question-x PVM over outcomes s..t; zero if s > t."""
    m = strategy.outcomes
    if x not in strategy.pvms:
        raise ValidationError(f"strategy has no question {x}")
    if not (1 <= s <= m + 1) or not (0 <= t <= m):
        raise ValidationError(f"interval [{s},{t}] out of range for {m} outcomes")
    return sum(strategy.pvms[x][s - 1:t], zero(strategy.d))


def _block_colors(strategy: GameStrategy, alpha: int, x: int):
    """Color triples for the 9 cells of block (alpha, x), plus both prism tops.

    Cell (i, j) gets the (i, j) entries of three operator matrices whose
    cells each sum to the identity; the middle color is scalar on row 1.
    """
    m = strategy.outcomes
    one, z = identity(strategy.d), zero(strategy.d)

    def e(k):
        return strategy.pvms[x][k - 1]

    def part(s, t):
        return interval_sum(strategy, s, t, x)

    low = part(1, alpha)
    low1 = part(1, alpha + 1)
    high = part(alpha + 1, m)
    high1 = part(alpha + 2, m)
    mid = e(alpha + 1)

    h1 = ((low, z, high), (mid, high1, low), (high1, low1, z))
    h2 = ((z, one, z), (one - mid, z, mid), (mid, z, one - mid))
    h3 = ((high, z, low), (z, low1, high1), (low, high1, mid))

    cells = {
        (i, j): (h1[i - 1][j - 1], h2[i - 1][j - 1], h3[i - 1][j - 1])
        for i in (1, 2, 3)
        for j in (1, 2, 3)
    }
    t1 = (z, high, low)
    t3 = (z, low, high)
    return cells, t1, t3


def _ortho_colors(strategy: GameStrategy, tup, kind: str):
    """Color triples for the 9 cells of the orthogonality gadget of a tuple.

    Built around a projection g near E_{b,y} with g E_{a,x} = 0 exactly, so
    that a same-color loss across the gadget is controlled by the tuple's
    probability.  Interior-answer gadgets ('f') swap colors 2 and 3.
    """
    a, b, x, y = tup
    one, z = identity(strategy.d), zero(strategy.d)
    e_a = strategy.pvms[x][a - 1]
    e_b = strategy.pvms[y][b - 1]
    g = _perturb_checked_two(e_a, e_b)
    rest = one - e_a - g

    j1 = ((e_a, z, one - e_a), (rest, e_b, e_a), (g, one - e_b, z))
    j2 = ((z, one, z), (e_a + g, z, rest), (rest, z, e_a + g))
    j3 = ((one - e_a, z, e_a), (z, one - e_b, g), (e_a, e_b, rest))
    if kind == "f":
        j2, j3 = j3, j2
    return {
        (i, j): (j1[i - 1][j - 1], j2[i - 1][j - 1], j3[i - 1][j - 1])
        for i in (1, 2, 3)
        for j in (1, 2, 3)
    }


def _check_inputs(game: SyncGame, graph: GadgetGraph, strategy: GameStrategy) -> float:
    _require_compiled_from(graph, game)
    _require_strategy_fits(game, strategy)
    *_, (defects, _, _) = _stack_defects(strategy.stack[:game.n])  # questions 1..n
    return float(defects.max())


def forward_translate(
    game: SyncGame, graph: GadgetGraph, strategy: GameStrategy
) -> ColoringStrategy:
    input_defect = _check_inputs(game, graph, strategy)
    d = strategy.d
    one, z = identity(d), zero(d)
    # Assignments reached through different expressions agree only up to the
    # input family's sum-to-identity defect; wiring bugs show up at order 1.
    cross_tol = max(1e-12, 4.0 * np.sqrt(d) * input_defect)

    names = sorted(graph.vertices)  # the rows of the output stack
    row = dict(zip(names, range(len(names))))
    stack = np.empty((len(names), 3, d, d), dtype=np.complex128)
    assigned = np.zeros(len(names), dtype=bool)

    def put(name: str, colors, gadget: str, cell, exact: bool) -> None:
        i = row[name]
        if not assigned[i]:
            stack[i] = colors
            assigned[i] = True
            return
        for c, (old, new) in enumerate(zip(stack[i], colors)):
            if exact:
                ok = np.array_equal(old, new)
            else:
                ok = float(np.max(np.abs(old - new))) <= cross_tol
            if not ok:
                raise ValidationError(
                    f"gluing inconsistency at {name} ({gadget}, cell {cell}, color {c + 1}): "
                    "two gadgets assign different operators"
                )

    for letter, colors in zip(DELTA, ((one, z, z), (z, one, z), (z, z, one))):
        put(letter, colors, "control triangle", letter, exact=True)

    for block in graph.blocks:
        colors, t1, t3 = _block_colors(strategy, block.alpha, block.x)
        gadget = f"block alpha={block.alpha} x={block.x}"
        for cell, name in block.cells.items():
            put(name, colors[cell], gadget, cell, exact=True)
        put(block.t1, t1, gadget, "t1", exact=True)
        put(block.t3, t3, gadget, "t3", exact=True)

    for ortho in graph.orthos:
        colors = _ortho_colors(strategy, ortho.tup, ortho.kind)
        gadget = "orthogonality ({},{},{},{})".format(*ortho.tup)
        for cell, name in ortho.cells.items():
            put(name, colors[cell], gadget, cell, exact=False)

    unassigned = [v for v in graph.vertices if not assigned[row[v]]]
    if unassigned:
        raise AssertionError(f"vertices never assigned: {unassigned[:5]}")

    # The one PVM check of the output, tighter than the constructor's.
    require_pvm_family(stack, names, tol=FORWARD_PVM_TOL, what="coloring PVM at {}")
    return _prebuilt(ColoringStrategy, d, names, stack)


def _require_compiled_from(graph: GadgetGraph, game: SyncGame) -> None:
    """Raise unless ``graph`` is the gadget graph of ``game``."""
    if graph.game != game:
        raise ValidationError("graph was compiled from a different game")


def _require_coverage(graph: GadgetGraph, cs: ColoringStrategy) -> None:
    """Raise unless the coloring strategy has a PVM for every graph vertex."""
    missing = [v for v in graph.vertices if v not in cs.pvms]
    if missing:
        raise ValidationError(
            f"coloring strategy lacks PVMs for {len(missing)} graph "
            f"vertices, first {missing[0]!r}"
        )


def _edge_losses(cs: ColoringStrategy, edges) -> list:
    """Same-color probability of each (u, v) pair of ``edges``, as
    ``edge_loss_probability`` gives it: every overlap tr(P_{c,u} P_{c,v})/d
    comes from one gathered ``einsum`` per chunk of edges, and each edge
    ``fsum``s its three."""
    rows = _rows(cs, chain.from_iterable(edges)).reshape(-1, 2)
    return list(map(fsum, _overlaps(cs.stack, rows[:, 0], rows[:, 1]).tolist()))


def coloring_value(graph: GadgetGraph, cs: ColoringStrategy) -> ValueReport:
    """Value of the 3-coloring game of the graph under the edge-uniform prior.

    Equal to 1 minus the average same-color mass per edge; summing each
    unordered edge once at weight 1/|E| agrees with summing both orders at
    1/(2|E|) because the trace is symmetric in the two projections.  Each
    edge costs three O(d^2) trace contractions, gathered over chunks of
    edges (``_edge_losses``).
    """
    _require_coverage(graph, cs)
    weight = 1.0 / graph.n_edges
    probabilities = _edge_losses(cs, graph.edges)
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
    _require_coverage(graph, cs)
    per = len(ROOK_PAIRS) + 1  # edges of one gadget
    edges = []
    for ortho in graph.orthos:
        edges += [(ortho.cells[c1], ortho.cells[c2]) for c1, c2 in ROOK_PAIRS]
        edges.append(("A", ortho.cells[(3, 3)]))
    losses = _edge_losses(cs, edges)
    out = []
    for i, ortho in enumerate(graph.orthos):
        a, b, x, y = ortho.tup
        loss = fsum(losses[i * per:(i + 1) * per])
        p = trace_product(strategy.pvms[x][a - 1], strategy.pvms[y][b - 1])
        out.append(GadgetLoss(tup=ortho.tup, kind=ortho.kind, loss=loss, probability=p))
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
