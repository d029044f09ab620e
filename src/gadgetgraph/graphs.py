"""Gadget-graph compiler: builds the 3-coloring target graph of a game.

The graph is assembled from a fixed control triangle {A, B, C}, one 3-by-3
rook's-graph block per (answer-window, question) pair with a prism on top,
one orthogonality gadget per losing tuple with endpoint or interior answer
pairs, and one direct edge per remaining losing tuple.  A gluing (a vertex
shared between gadgets) maps a gadget cell to a vertex declared earlier: a
control letter, an answer cell v̂(a, x) or the previous block's v(3,2).  The
cell takes that vertex and gets no name of its own, so the graph holds
canonical vertices only, each named once.

The builder works on integer vertex ids, numbered in the canonical order of
``vertices``: the control letters, the block cells, the prism tops, then the
orthogonality gadgets' cells, gadget by gadget in (x, y, a, b) order.  Each
gadget is one row of ids, the template's slot pairs are mapped through the
rows, and each name is formatted once; the graph keeps the rows of ids, and
later stages gather by them.  A vertex is reached by its id, never by a name.

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

import numpy as np

from .errors import ValidationError
from .games import SyncGame, _answer_classes

DELTA = ("A", "B", "C")

DUP_SOURCES = ("gadget_block", "orthogonality_gadget", "direct_edge")


def v_name(i: int, j: int, alpha: int, x: int) -> str:
    return f"v({i},{j},{alpha},{x})"


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


def _slot_columns(columns: tuple, slots: tuple) -> np.ndarray:
    return np.array([[columns.index(label) for label in slot] for slot in slots])


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
    """The compiled graph as read-only int32 id tables.

    ``vertices`` lists the names in id order, ``edge_ids`` each edge's ids in
    order, the edges sorted.  A _BLOCK_COLUMNS row per block, x-major and
    alpha-minor, an _ORTHO_COLUMNS row per gadget, e-set first, and each
    direct edge are in ``block_rows``, ``ortho_rows`` and ``rest_rows``, the
    gadgets' and direct edges' rows of ``game.losing_table`` in ``ortho_at``
    and ``rest_at``.  ``edges`` names the edges on first read.
    """

    game: SyncGame
    vertices: tuple
    edge_ids: np.ndarray
    block_rows: np.ndarray
    ortho_rows: np.ndarray
    ortho_at: np.ndarray
    rest_rows: np.ndarray
    rest_at: np.ndarray
    report: EdgeCountReport

    @cached_property
    def edges(self) -> tuple:
        """Each edge as a pair of names in vertex order."""
        return tuple(zip(*(map(self.vertices.__getitem__, ids) for ids in self.edge_ids.T.tolist())))

    @cached_property
    def rank(self) -> np.ndarray:
        """Each vertex's position among the names sorted, by vertex id: its
        row in a strategy of exactly the graph's vertices.  Read-only."""
        rank = np.argsort(sorted(range(len(self.vertices)), key=self.vertices.__getitem__))
        rank.flags.writeable = False
        return rank

    def edge_index(self, pairs: np.ndarray) -> np.ndarray:
        """The row in ``edge_ids`` of each pair of vertex ids along the last
        axis of ``pairs``, its ends in either order, by one lookup of the
        edge codes lo * V + hi, which ``edge_ids`` is sorted by."""
        n, u, v = np.int64(self.n_vertices), pairs[..., 0], pairs[..., 1]
        codes = self.edge_ids[:, 0] * n + self.edge_ids[:, 1]
        wanted = np.minimum(u, v) * n + np.maximum(u, v)
        at = np.searchsorted(codes, wanted).clip(max=len(codes) - 1)
        missing = codes[at] != wanted
        if missing.any():
            k = np.argmax(missing.ravel())
            raise ValidationError(f"no edge between vertex ids {u.ravel()[k]} and {v.ravel()[k]}")
        return at

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)


def edge_count_formula(game: SyncGame) -> int:
    """Closed-form slot count: 25n(m-2) + 19|e| + 19|f| + |rest|."""
    e_set, f_set, rest = map(np.count_nonzero, _answer_classes(game))
    return 25 * game.n * (game.m - 2) + 19 * (e_set + f_set) + rest


def _answer_ids(cells: np.ndarray, n: int, m: int) -> np.ndarray:
    """The id of v̂(a, x) at [x - 1, a - 1], from the blocks' rows of ids."""
    where = [_answer_cell(a, m) for a in range(1, m + 1)]
    return cells.reshape(n, m - 2, -1)[:, [al - 1 for al, _ in where], [_CELL[c] for _, c in where]]


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
    tuples = list(map(tuple, gadget_tuples.tolist()))
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

    answers = _answer_ids(cells, n, m)

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
    suffixes = np.array([",%d,%d,%d,%d)" % tuples[k] for k in ranked.tolist()], dtype=object)
    names += (np.array(["q(%d,%d" % c for c in _ORTHO_OWN], dtype=object) + suffixes[:, None]).ravel().tolist()
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
    lo, hi = np.minimum(*slots.T), np.maximum(*slots.T)
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

    rest_set = set(map(tuple, rest.tolist()))
    symmetric_rest_pairs = sum(1 for a, b, x, y in rest_set if (b, a, y, x) in rest_set and (a, b, x, y) < (b, a, y, x))

    report = EdgeCountReport(
        block_term, e_term, f_term, rest_term, formula, 3, duplicate_slots,
        dict(zip(DUP_SOURCES, dup_counts[1:])), symmetric_rest_pairs, realized,
    )
    edge_ids = np.stack(np.divmod(codes, n_vertices), axis=1)
    tables = [t.astype(np.int32) for t in (edge_ids, block_rows, ortho_rows, gadget_at, rest_rows, rest_at)]
    for t in tables:
        t.flags.writeable = False
    return GadgetGraph(game, tuple(names), *tables, report)


# ---------------------------------------------------------------------------
# export

#: Rows of a gadget or edge list rendered and written as one piece of text,
#: so that no export's text is ever held whole.
EXPORT_CHUNK = 2048


# The JSON text is exactly json.dumps(payload, sort_keys=True, indent=1) of
# the payload {"edge_count_report", "edges", "gadgets": {"blocks", "delta",
# "orthogonality", "rest"}, "vertices"}, written from templates of that fixed
# layout: every key order below is already sorted, and str spells the game's
# indices as json does because SyncGame admits ints only, never bools.  Both
# exports write a name between plain quotes: names are spelled from A, B, C,
# q, t, v, digits, commas and parentheses, none of which JSON or DOT escapes.
_CELL_KEYS = ",\n".join(f'     "{i},{j}": "%s"' for i, j in _CELLS)
_TUPLE = '    "tuple": [\n     %s,\n     %s,\n     %s,\n     %s\n    ]'
_BLOCK = (
    '   {\n    "alpha": %s,\n    "cells": {\n' + _CELL_KEYS + "\n    },\n"
    '    "t": [\n     "%s",\n     "%s"\n    ],\n    "x": %s\n   }'
)
_ORTHO = '   {\n    "cells": {\n' + _CELL_KEYS + '\n    },\n    "kind": "%s",\n' + _TUPLE + "\n   }"
_REST = '   {\n    "edge": [\n     "%s",\n     "%s"\n    ],\n' + _TUPLE + "\n   }"


def _fill(template: str, *columns: np.ndarray, sep: str = ""):
    """The pieces of ``sep.join(template % row for row in zip(*columns))``
    for object arrays of strs, nothing for none: one piece per block of at
    most ``EXPORT_CHUNK`` rows, each one join over a table of the fixed
    pieces, separators and values."""
    pieces, rows = template.split("%s"), len(columns[0])
    table = np.empty((min(rows, EXPORT_CHUNK), 2 * len(pieces) - 1), dtype=object)
    table[:, 0::2] = np.array(pieces, dtype=object)
    table[:, 0] = sep + pieces[0]
    for start in range(0, rows, EXPORT_CHUNK):
        block = table[:rows - start]
        block[:, 1::2] = np.column_stack([c[start:start + EXPORT_CHUNK] for c in columns])
        block[0, 0] = sep + pieces[0] if start else pieces[0]
        yield "".join(block.ravel().tolist())


def _lookups(graph: GadgetGraph) -> tuple:
    """Object arrays of the names in id order and of the spellings of 0..max(n, m)."""
    numbers = np.array([str(i) for i in range(max(graph.game.n, graph.game.m) + 1)], dtype=object)
    return np.array(graph.vertices, dtype=object), numbers


def _json_list(template: str, indent: str, *columns: np.ndarray):
    """The pieces of a JSON array of one indented template item per row of
    ``columns``, closed at ``indent``."""
    if not len(columns[0]):
        yield "[]"
        return
    yield "[\n"
    yield from _fill(template, *columns, sep=",\n")
    yield "\n" + indent + "]"


def _graph_json(graph: GadgetGraph):
    (names, numbers), blocks, orthos = _lookups(graph), graph.block_rows, graph.ortho_rows
    x, alpha = numbers[1 + np.stack(np.divmod(np.arange(len(blocks)), graph.game.m - 2))]
    kinds = np.where(orthos[:, _CELL[(1, 2)]] == _B, "e", "f").astype(object)
    tuples, rest = (numbers[graph.game.losing_table[at]] for at in (graph.ortho_at, graph.rest_at))
    report = json.dumps(asdict(graph.report), sort_keys=True, indent=1).replace("\n", "\n ")
    yield '{\n "edge_count_report": %s,\n "edges": ' % report
    yield from _json_list('  [\n   "%s",\n   "%s"\n  ]', " ", names[graph.edge_ids])
    yield ',\n "gadgets": {\n  "blocks": '
    yield from _json_list(_BLOCK, "  ", alpha, names[blocks[:, :9]], names[blocks[:, 11:]], x)
    yield ',\n  "delta": '
    yield from _json_list('   "%s"', "  ", np.array(DELTA, dtype=object))
    yield ',\n  "orthogonality": '
    yield from _json_list(_ORTHO, "  ", names[orthos[:, :9]], kinds, tuples)
    yield ',\n  "rest": '
    yield from _json_list(_REST, "  ", names[graph.rest_rows], rest)
    yield '\n },\n "vertices": '
    yield from _json_list('  "%s"', " ", names)
    yield "\n}\n"


# The DOT text lists one cluster per gadget, in the order of their vertices:
# the control triangle, the blocks by (x, alpha), then the orthogonality
# gadgets by (x, y, a, b), which is the order of their first own cell.  A
# cluster holds the vertices its gadget declares, in vertex order, and the
# edges follow the clusters.
_DOT_VERTEX = '    "%s";'.__mod__
_DOT_DELTA = '  subgraph "cluster_delta" {\n    label="control triangle";\n%s\n  }\n'
_DOT_BLOCK = '  subgraph "cluster_block_x%d_a%d" {\n    label="block alpha=%d x=%d";\n%s\n  }\n'
_DOT_ORTHO = (
    '  subgraph "cluster_ortho_a%s_b%s_x%s_y%s" {\n    label="orthogonality (%s,%s,%s,%s)";\n'
    + '    "%s";\n' * len(_ORTHO_OWN) + "  }\n"
)


def _graph_dot(graph: GadgetGraph):
    (names, numbers), per_x = _lookups(graph), graph.game.m - 2
    yield "graph gadget_graph {\n" + _DOT_DELTA % "\n".join(map(_DOT_VERTEX, DELTA))
    for k, row in enumerate(graph.block_rows):
        alpha, x = k % per_x + 1, k // per_x + 1
        members = names[np.concatenate([row[:9][_FIRST_MASK if alpha == 1 else _CHAINED_MASK], row[11:]])]
        yield _DOT_BLOCK % (x, alpha, alpha, x, "\n".join(map(_DOT_VERTEX, members)))
    order = np.argsort(graph.ortho_rows[:, _CELL[_ORTHO_OWN[0]]])
    tuples = numbers[graph.game.losing_table[graph.ortho_at[order]]]
    yield from _fill(_DOT_ORTHO, tuples, tuples, names[graph.ortho_rows[order, :9][:, _ORTHO_MASK]])
    yield from _fill('  "%s" -- "%s";\n', names[graph.edge_ids])
    yield "}\n"


def export_graph(graph: GadgetGraph, fmt: str, out=None):
    """Render the graph as 'dot' or 'json' text; output is byte-deterministic.

    The text is rendered in pieces of at most ``EXPORT_CHUNK`` rows.  Without
    ``out`` it is returned as one str; with a text file ``out`` the pieces
    are written to it as they are rendered, and None is returned.
    """
    if fmt not in ("json", "dot"):
        raise ValidationError(f"unknown export format {fmt!r}; expected 'dot' or 'json'")
    pieces = _graph_json(graph) if fmt == "json" else _graph_dot(graph)
    if out is None:
        return "".join(pieces)
    out.writelines(pieces)
