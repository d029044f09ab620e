"""Gadget-graph compiler: builds the 3-coloring target graph of a game.

The graph is assembled from a fixed control triangle {A, B, C}, one 3-by-3
rook's-graph block per (answer-window, question) pair with a prism on top,
one orthogonality gadget per losing tuple with endpoint or interior answer
pairs, and one direct edge per remaining losing tuple.  A gluing (a vertex
shared between gadgets) maps a gadget cell to a vertex declared earlier: a
control letter, an answer cell v̂(a, x) or the previous block's v(3,2).  The
cell takes that vertex and gets no name of its own, so the graph holds
canonical vertices only, each named once, and every later stage reaches
them through the gadget handles (``GadgetGraph.block``,
``GadgetGraph.answer_vertex``).

The builder works on integer vertex ids, numbered in the canonical order of
``vertices``: the control letters, the block cells, the prism tops, then the
orthogonality gadgets' cells, gadget by gadget in (x, y, a, b) order.  Each
gadget is one row of ids, the template's slot pairs are mapped through the
rows, and each name is formatted once, at the end.

Edge accounting is kept honest: every slot the construction *mentions* is
counted, and a slot whose edge an earlier slot already made is a duplicate of
its source.  The closed-form count (25 per block, 19 per gadget, 1 per direct
edge) plus the control triangle's own 3 edges minus those duplicate slots
must equal the realized edge count exactly, and the builder refuses to
return a graph that breaks the identity.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .errors import ValidationError
from .games import SyncGame, _answer_classes

DELTA = ("A", "B", "C")

DUP_SOURCES = ("gadget_block", "orthogonality_gadget", "direct_edge")


def v_name(i: int, j: int, alpha: int, x: int) -> str:
    return f"v({i},{j},{alpha},{x})"


def t_name(i: int, alpha: int, x: int) -> str:
    return f"t({i},{alpha},{x})"


def q_name(i: int, j: int, tup) -> str:
    a, b, x, y = tup
    return f"q({i},{j},{a},{b},{x},{y})"


def _answer_cell(a: int, m: int) -> tuple:
    """The block alpha and the cell that carry answer a: the paper's v̂(a, x)
    is that cell of block (alpha, x).

    Answer 1 sits at the first block's top-left corner, answer m at the last
    block's center, and each interior answer a at the center-left cell of
    block a-1.  None of these cells is glued, so v̂ is injective on (a, x).
    """
    if a == 1:
        return 1, (1, 1)
    if a == m:
        return m - 2, (2, 2)
    return a - 1, (2, 1)


#: The nine cells of a 3x3 gadget, row-major.
_CELLS = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))

#: The 18 adjacent cell pairs of a 3x3 rook's graph: same row xor same column.
ROOK_PAIRS = tuple(
    (c1, c2)
    for idx, c1 in enumerate(_CELLS)
    for c2 in _CELLS[idx + 1:]
    if (c1[0] == c2[0]) != (c1[1] == c2[1])
)

#: Ids of the control letters, the first three vertices.
_A, _B, _C = 0, 1, 2

#: Column of each cell in a template row.
_CELL = {cell: k for k, cell in enumerate(_CELLS)}

#: A block's template row holds the ids of its nine cells, A, C and the
#: prism tops t1, t3; an orthogonality gadget's row its nine cells and A.
_BLOCK_COLUMNS = _CELLS + ("A", "C", "t1", "t3")
_ORTHO_COLUMNS = _CELLS + ("A",)


def _slot_columns(columns: tuple, pairs: tuple) -> np.ndarray:
    return np.array([(columns.index(u), columns.index(v)) for u, v in pairs])


#: A block's 25 slots: its rook pairs, C~v(2,1), A~v(3,3), and the prism
#: atop row 1: top triangle t1, t2 = A, t3 plus the two non-control rungs.
#: The middle rung v(1,2)~t2 is B~A, not a slot.
_BLOCK_SLOTS = _slot_columns(_BLOCK_COLUMNS, ROOK_PAIRS + (
    ("C", (2, 1)), ("A", (3, 3)), ("t1", "A"), ("A", "t3"), ("t1", "t3"), ((1, 1), "t1"), ((1, 3), "t3"),
))
#: An orthogonality gadget's 19 slots: its rook pairs and A~q(3,3).
_ORTHO_SLOTS = _slot_columns(_ORTHO_COLUMNS, ROOK_PAIRS + (("A", (3, 3)),))

#: The cells a gadget declares, row-major; it glues the others.  Every
#: block glues v(1,2) to B, and each block after the first of its question
#: glues v(1,1) to the previous block's v(3,2); an orthogonality gadget
#: glues q(1,1) and q(2,2) to answer cells and q(1,2) to its hub.
_FIRST_OWN = tuple(c for c in _CELLS if c != (1, 2))
_CHAINED_OWN = tuple(c for c in _CELLS if c not in ((1, 1), (1, 2)))
_ORTHO_OWN = tuple(c for c in _CELLS if c not in ((1, 1), (1, 2), (2, 2)))
_FIRST_MASK, _CHAINED_MASK, _ORTHO_MASK = (
    np.array([c in own for c in _CELLS]) for own in (_FIRST_OWN, _CHAINED_OWN, _ORTHO_OWN)
)


class _Grid:
    """Rows and columns of a 3x3 gadget's ``cells``."""

    def row(self, i: int) -> tuple:
        return tuple(self.cells[(i, j)] for j in (1, 2, 3))

    def col(self, j: int) -> tuple:
        return tuple(self.cells[(i, j)] for i in (1, 2, 3))


@dataclass(frozen=True, eq=False)
class BlockHandle(_Grid):
    """One rook block R with its prism tops, indexed by (alpha, x)."""

    alpha: int
    x: int
    cells: dict
    t1: str
    t3: str

    def t_triangle(self) -> tuple:
        """The prism's top triangle, aligned rung-by-rung with row 1."""
        return (self.t1, "A", self.t3)


@dataclass(frozen=True, eq=False)
class OrthoHandle(_Grid):
    """Orthogonality gadget for one losing tuple.

    kind 'e' marks endpoint answer pairs (glued through B), 'f' interior
    ones (glued through C).
    """

    tup: tuple
    kind: str
    cells: dict


@dataclass(frozen=True, eq=False)
class EdgeCountReport:
    """Reconciliation of the closed-form edge count with the realized one.

    realized == formula + delta_correction - duplicate_slots is asserted at
    build time; symmetric_rest_pairs singles out the duplicates caused by a
    losing tuple and its mirror both requesting the same direct edge.
    """

    block_term: int
    e_term: int
    f_term: int
    rest_term: int
    formula: int
    delta_correction: int
    duplicate_slots: int
    duplicates_by_source: dict
    symmetric_rest_pairs: int
    realized: int


@dataclass(frozen=True, eq=False)
class GadgetGraph:
    """The compiled graph: vertices, edges, and gadget handles.

    Every vertex is canonical: a glued gadget cell holds the earlier vertex
    it was glued to, so a handle's cells name graph vertices directly.
    ``vertices`` lists the names in id order, and each edge is a pair of
    names in that order, the edges sorted by their ids.
    """

    game: SyncGame
    vertices: tuple
    edges: tuple
    blocks: tuple
    orthos: tuple
    rest_edges: tuple
    report: EdgeCountReport

    @cached_property
    def vertex_id(self) -> dict:
        """Each vertex's integer id: its position in ``vertices``."""
        return dict(zip(self.vertices, range(len(self.vertices))))

    def edge_key(self, u: str, v: str) -> tuple:
        """The pair (u, v) with its ends in vertex order, as ``edges`` lists
        an edge; names that are not vertices come first."""
        ids = self.vertex_id
        return (u, v) if ids.get(u, -1) < ids.get(v, -1) else (v, u)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def block(self, alpha: int, x: int) -> BlockHandle:
        """The block (alpha, x); ``blocks`` is x-major and alpha-minor."""
        per_x = self.game.m - 2
        if not (1 <= alpha <= per_x and 1 <= x <= self.game.n):
            raise ValidationError(f"no block with alpha={alpha}, x={x}")
        return self.blocks[(x - 1) * per_x + alpha - 1]

    def answer_vertex(self, a: int, x: int) -> str:
        """The vertex v̂(a, x) that carries answer a at question x."""
        m = self.game.m
        if not 1 <= a <= m:
            raise ValidationError(f"answer {a} out of range 1..{m}")
        alpha, cell = _answer_cell(a, m)
        return self.block(alpha, x).cells[cell]


def edge_count_formula(game: SyncGame) -> int:
    """Closed-form slot count: 25n(m-2) + 19|e| + 19|f| + |rest|."""
    e_set, f_set, rest = map(np.count_nonzero, _answer_classes(game))
    return 25 * game.n * (game.m - 2) + 19 * (e_set + f_set) + rest


def _answer_pairs(answers: np.ndarray, tuples: np.ndarray) -> np.ndarray:
    """The ids of v̂(a, x) and v̂(b, y) for each row (a, b, x, y) of ``tuples``,
    where ``answers[x - 1, a - 1]`` is v̂(a, x)."""
    a, b, x, y = tuples.T
    return np.stack([answers[x - 1, a - 1], answers[y - 1, b - 1]], axis=1)


def build_graph(game: SyncGame) -> GadgetGraph:
    n, m = game.n, game.m
    # Table rows and the game's own tuple objects, per answer class.
    e_at, f_at, rest_at = map(np.flatnonzero, _answer_classes(game))
    gadget_at = np.concatenate([e_at, f_at])
    gadget_tuples, rest = game.losing_table[gadget_at], game.losing_table[rest_at]
    tuples, rest_tuples = ([game.losing_sorted[i] for i in at.tolist()] for at in (gadget_at, rest_at))
    n_blocks, n_orthos, n_e = n * (m - 2), len(tuples), len(e_at)

    # Blocks, x-major and alpha-minor, one _BLOCK_COLUMNS row each.  The
    # cells they declare are numbered after the control letters, block by
    # block and row by row, and the prism tops after those.
    chained = np.tile(np.arange(1, m - 1) > 1, n)
    block_own = np.where(chained[:, None], _CHAINED_MASK, _FIRST_MASK)
    first_top = 3 + int(block_own.sum())
    block_rows = np.empty((n_blocks, len(_BLOCK_COLUMNS)), dtype=np.int64)
    cells = block_rows[:, :9]
    cells[block_own] = np.arange(3, first_top)
    cells[:, _CELL[(1, 2)]] = _B
    cells[chained, _CELL[(1, 1)]] = cells[np.flatnonzero(chained) - 1, _CELL[(3, 2)]]
    block_rows[:, 9:11] = (_A, _C)
    block_rows[:, 11:] = np.arange(first_top, first_top + 2 * n_blocks).reshape(-1, 2)

    # answers[x - 1, a - 1] is v̂(a, x).
    where = [_answer_cell(a, m) for a in range(1, m + 1)]
    answers = cells.reshape(n, m - 2, 9)[:, [al - 1 for al, _ in where], [_CELL[c] for _, c in where]]

    # Orthogonality gadgets in ``orthos`` order, one _ORTHO_COLUMNS row each.
    # The cells they declare are numbered after the prism tops, six per
    # gadget, the gadgets taken by (x, y, a, b).
    ranked = np.lexsort(gadget_tuples.T[[1, 0, 3, 2]])
    rank = np.empty(n_orthos, dtype=np.int64)
    rank[ranked] = np.arange(n_orthos)
    ortho_rows = np.empty((n_orthos, len(_ORTHO_COLUMNS)), dtype=np.int64)
    ortho_rows[:, :9][:, _ORTHO_MASK] = first_top + 2 * n_blocks + 6 * rank[:, None] + np.arange(6)
    ortho_rows[:, [_CELL[(1, 1)], _CELL[(2, 2)]]] = _answer_pairs(answers, gadget_tuples)
    ortho_rows[:, _CELL[(1, 2)]] = np.where(np.arange(n_orthos) < n_e, _B, _C)
    ortho_rows[:, 9] = _A
    rest_rows = _answer_pairs(answers, rest)

    # Names, formatted once, in id order.
    names = list(DELTA)
    for x in range(1, n + 1):
        for alpha in range(1, m - 1):
            suffix = f",{alpha},{x})"
            names += ["v(%d,%d" % c + suffix for c in (_CHAINED_OWN if alpha > 1 else _FIRST_OWN)]
    names += [f"t({i},{alpha},{x})" for x in range(1, n + 1) for alpha in range(1, m - 1) for i in (1, 3)]
    for k in ranked.tolist():
        suffix = ",%d,%d,%d,%d)" % tuples[k]
        names += ["q(%d,%d" % c + suffix for c in _ORTHO_OWN]
    n_vertices = len(names)

    # A glued cell holds a vertex declared before its gadget's own cells.
    for rows, own, cell_name in (
        (cells, block_own, lambda k, c: v_name(*c, k % (m - 2) + 1, k // (m - 2) + 1)),
        (ortho_rows[:, :9], _ORTHO_MASK, lambda k, c: q_name(*c, tuples[k])),
    ):
        late = np.argwhere(~own & (rows >= np.where(own, rows, n_vertices).min(axis=1, keepdims=True)))
        if late.size:
            k, c = late[0].tolist()
            target = names[rows[k, c]]
            raise AssertionError(f"{cell_name(k, _CELLS[c])} is glued to {target}, which is not declared yet")

    # The slot census: every slot the construction mentions, in the order
    # delta, blocks, gadgets, rest.  A slot is a duplicate unless it is the
    # first to mention its edge, and the sorted edge codes are the edges.
    slots = np.concatenate([
        np.array([(_A, _B), (_B, _C), (_A, _C)]),
        block_rows[:, _BLOCK_SLOTS].reshape(-1, 2),
        ortho_rows[:, _ORTHO_SLOTS].reshape(-1, 2),
        rest_rows,
    ])
    source = np.repeat(np.arange(4), (3, 25 * n_blocks, 19 * n_orthos, len(rest)))
    lo, hi = slots.min(axis=1), slots.max(axis=1)
    loops = np.flatnonzero(lo == hi)
    if loops.size:
        k = loops[0]
        what = ("delta",) + DUP_SOURCES
        raise AssertionError(f"{what[source[k]]} slot collapsed to a self-loop at {names[lo[k]]}")
    codes, first = np.unique(lo * n_vertices + hi, return_index=True)
    duplicate = np.ones(len(slots), dtype=bool)
    duplicate[first] = False
    dup_counts = np.bincount(source[duplicate], minlength=4).tolist()

    block_term = 25 * n_blocks
    e_term, f_term, rest_term = 19 * n_e, 19 * (n_orthos - n_e), len(rest)
    formula = block_term + e_term + f_term + rest_term
    realized = len(codes)
    duplicate_slots = len(slots) - realized
    if realized != formula + 3 - duplicate_slots:
        raise AssertionError(
            f"edge accounting broke: realized {realized} != "
            f"formula {formula} + 3 - duplicates {duplicate_slots}"
        )

    rest_set = set(rest_tuples)
    symmetric_rest_pairs = sum(
        1 for a, b, x, y in rest_tuples if (b, a, y, x) in rest_set and (a, b, x, y) < (b, a, y, x)
    )

    report = EdgeCountReport(
        block_term=block_term,
        e_term=e_term,
        f_term=f_term,
        rest_term=rest_term,
        formula=formula,
        delta_correction=3,
        duplicate_slots=duplicate_slots,
        duplicates_by_source=dict(zip(DUP_SOURCES, dup_counts[1:])),
        symmetric_rest_pairs=symmetric_rest_pairs,
        realized=realized,
    )

    name = names.__getitem__
    xa = ((x, alpha) for x in range(1, n + 1) for alpha in range(1, m - 1))
    edge_lo, edge_hi = np.divmod(codes, n_vertices)
    return GadgetGraph(
        game=game,
        vertices=tuple(names),
        edges=tuple(zip(map(name, edge_lo.tolist()), map(name, edge_hi.tolist()))),
        blocks=tuple(
            BlockHandle(alpha, x, dict(zip(_CELLS, map(name, row[:9]))), name(row[11]), name(row[12]))
            for (x, alpha), row in zip(xa, block_rows.tolist())
        ),
        orthos=tuple(
            OrthoHandle(tup, "e" if k < n_e else "f", dict(zip(_CELLS, map(name, row[:9]))))
            for k, (tup, row) in enumerate(zip(tuples, ortho_rows.tolist()))
        ),
        rest_edges=tuple((tup, (name(u), name(v))) for tup, (u, v) in zip(rest_tuples, rest_rows.tolist())),
        report=report,
    )


# ---------------------------------------------------------------------------
# export


# The JSON text is exactly json.dumps(payload, sort_keys=True, indent=1) of
# the payload {"edge_count_report", "edges", "gadgets": {"blocks", "delta",
# "orthogonality", "rest"}, "vertices"}, written from templates of that fixed
# layout: every key order below is already sorted, and %d writes the game's
# indices as json does because SyncGame admits ints only, never bools.  Both
# exports write a name between plain quotes: names are spelled from A, B, C,
# q, t, v, digits, commas and parentheses, none of which JSON or DOT escapes.
_CELL_KEYS = ",\n".join(f'     "{i},{j}": "%s"' for i, j in _CELLS)
_cell_values = itemgetter(*_CELLS)
_TUPLE = '    "tuple": [\n     %d,\n     %d,\n     %d,\n     %d\n    ]'
_BLOCK = (
    '   {\n    "alpha": %d,\n    "cells": {\n' + _CELL_KEYS + "\n    },\n"
    '    "t": [\n     "%s",\n     "%s"\n    ],\n    "x": %d\n   }'
)
_ORTHO = '   {\n    "cells": {\n' + _CELL_KEYS + '\n    },\n    "kind": "%s",\n' + _TUPLE + "\n   }"
_REST = '   {\n    "edge": [\n     "%s",\n     "%s"\n    ],\n' + _TUPLE + "\n   }"


def _json_list(items, indent: str) -> str:
    """A JSON array of already indented items; its bracket closes at ``indent``."""
    text = ",\n".join(items)
    return "[\n" + text + "\n" + indent + "]" if text else "[]"


def _graph_json(graph: GadgetGraph) -> str:
    blocks = (_BLOCK % (b.alpha, *_cell_values(b.cells), b.t1, b.t3, b.x) for b in graph.blocks)
    orthos = (_ORTHO % (*_cell_values(o.cells), o.kind, *o.tup) for o in graph.orthos)
    rest = (_REST % (u, v, *t) for t, (u, v) in graph.rest_edges)
    report = json.dumps(asdict(graph.report), sort_keys=True, indent=1).replace("\n", "\n ")
    return (
        '{\n "edge_count_report": %s,\n "edges": %s,\n'
        ' "gadgets": {\n  "blocks": %s,\n  "delta": %s,\n  "orthogonality": %s,\n  "rest": %s\n },\n'
        ' "vertices": %s\n}\n'
    ) % (
        report,
        _json_list(map('  [\n   "%s",\n   "%s"\n  ]'.__mod__, graph.edges), " "),
        _json_list(blocks, "  "),
        _json_list(map('   "%s"'.__mod__, DELTA), "  "),
        _json_list(orthos, "  "),
        _json_list(rest, "  "),
        _json_list(map('  "%s"'.__mod__, graph.vertices), " "),
    )


# The DOT text lists one cluster per gadget, in the order of their vertices:
# the control triangle, the blocks by (x, alpha), then the orthogonality
# gadgets by (x, y, a, b).  A cluster holds the vertices its gadget declares,
# in vertex order, and the edges follow the clusters.
_DOT_VERTEX = '    "%s";'.__mod__
_DOT_DELTA = '  subgraph "cluster_delta" {\n    label="control triangle";\n%s\n  }'
_DOT_BLOCK = '  subgraph "cluster_block_x%d_a%d" {\n    label="block alpha=%d x=%d";\n%s\n  }'
_DOT_ORTHO = '  subgraph "cluster_ortho_a%d_b%d_x%d_y%d" {\n    label="orthogonality (%d,%d,%d,%d)";\n%s\n  }'
_ORTHO_OWN_CELLS = itemgetter(*_ORTHO_OWN)


def _graph_dot(graph: GadgetGraph) -> str:
    clusters = [_DOT_DELTA % "\n".join(map(_DOT_VERTEX, DELTA))]
    for b in graph.blocks:
        own = _FIRST_OWN if b.alpha == 1 else _CHAINED_OWN
        members = [b.cells[c] for c in own] + [b.t1, b.t3]
        clusters.append(_DOT_BLOCK % (b.x, b.alpha, b.alpha, b.x, "\n".join(map(_DOT_VERTEX, members))))
    for o in sorted(graph.orthos, key=lambda o: (o.tup[2], o.tup[3], o.tup[0], o.tup[1])):
        members = "\n".join(map(_DOT_VERTEX, _ORTHO_OWN_CELLS(o.cells)))
        clusters.append(_DOT_ORTHO % (*o.tup, *o.tup, members))
    edges = "".join(map('  "%s" -- "%s";\n'.__mod__, graph.edges))
    return "graph gadget_graph {\n%s\n%s}\n" % ("\n".join(clusters), edges)


def export_graph(graph: GadgetGraph, fmt: str) -> str:
    """Render the graph as 'dot' or 'json' text; output is byte-deterministic."""
    if fmt == "json":
        return _graph_json(graph)
    if fmt == "dot":
        return _graph_dot(graph)
    raise ValidationError(f"unknown export format {fmt!r}; expected 'dot' or 'json'")
