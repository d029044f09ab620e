"""Gadget-graph compiler: builds the 3-coloring target graph of a game.

The graph is assembled from a fixed control triangle {A, B, C}, one 3-by-3
rook's-graph block per (answer-window, question) pair with a prism on top,
one orthogonality gadget per losing tuple with endpoint or interior answer
pairs, and one direct edge per remaining losing tuple.  Each gluing (a
vertex shared between gadgets) sends a fresh gadget cell onto a vertex
declared before it, whose canonical vertex has a smaller sort key than the
cell.  That vertex therefore stays the smallest-key member of the merged
class, so each name resolves by one lookup when it is declared, and every
later stage addresses vertices by one stable name.

Edge accounting is kept honest: every slot the construction *mentions* is
inserted through a counter that records which slots landed on an edge that
already existed.  The closed-form count (25 per block, 19 per gadget, 1 per
direct edge) plus the control triangle's own 3 edges minus those duplicate
slots must equal the realized edge count exactly, and the builder refuses to
return a graph that breaks the identity.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .errors import ValidationError
from .games import SyncGame, partition_losing

DELTA = ("A", "B", "C")

DUP_SOURCES = ("gadget_block", "orthogonality_gadget", "direct_edge")


def v_name(i: int, j: int, alpha: int, x: int) -> str:
    return f"v({i},{j},{alpha},{x})"


def t_name(i: int, alpha: int, x: int) -> str:
    return f"t({i},{alpha},{x})"


def s_name(j: int, alpha: int, x: int) -> str:
    return f"s({j},{alpha},{x})"


def q_name(i: int, j: int, tup) -> str:
    a, b, x, y = tup
    return f"q({i},{j},{a},{b},{x},{y})"


def vhat(a: int, x: int, m: int) -> str:
    """The block cell that carries answer a at question x.

    Answer 1 sits at the first block's top-left corner, answer m at the last
    block's center, and each interior answer a at the center-left cell of
    block a-1.  The map is injective on (a, x).
    """
    if m < 3:
        raise ValidationError(f"answer count must be >= 3, got {m}")
    if not 1 <= a <= m:
        raise ValidationError(f"answer {a} out of range 1..{m}")
    if x < 1:
        raise ValidationError(f"question {x} must be positive")
    if a == 1:
        return v_name(1, 1, 1, x)
    if a == m:
        return v_name(2, 2, m - 2, x)
    return v_name(2, 1, a - 1, x)


#: The nine cells of a 3x3 gadget, row-major.
_CELLS = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))

#: The 18 adjacent cell pairs of a 3x3 rook's graph: same row xor same column.
ROOK_PAIRS = tuple(
    (c1, c2)
    for idx, c1 in enumerate(_CELLS)
    for c2 in _CELLS[idx + 1:]
    if (c1[0] == c2[0]) != (c1[1] == c2[1])
)


@dataclass(frozen=True, eq=False)
class BlockHandle:
    """One rook block R with its prism tops, indexed by (alpha, x)."""

    alpha: int
    x: int
    cells: dict
    t1: str
    t3: str

    def row(self, i: int) -> tuple:
        return tuple(self.cells[(i, j)] for j in (1, 2, 3))

    def col(self, j: int) -> tuple:
        return tuple(self.cells[(i, j)] for i in (1, 2, 3))

    def t_triangle(self) -> tuple:
        """The prism's top triangle, aligned rung-by-rung with row 1."""
        return (self.t1, "A", self.t3)


@dataclass(frozen=True, eq=False)
class OrthoHandle:
    """Orthogonality gadget for one losing tuple.

    kind 'e' marks endpoint answer pairs (glued through B), 'f' interior
    ones (glued through C).
    """

    tup: tuple
    kind: str
    cells: dict

    def row(self, i: int) -> tuple:
        return tuple(self.cells[(i, j)] for j in (1, 2, 3))

    def col(self, j: int) -> tuple:
        return tuple(self.cells[(i, j)] for i in (1, 2, 3))


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
    """The compiled graph: canonical vertices, edges, and gadget handles."""

    game: SyncGame
    vertices: tuple
    edges: tuple
    blocks: tuple
    orthos: tuple
    rest_edges: tuple
    report: EdgeCountReport
    resolution: dict
    sort_key: dict

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def resolve(self, name: str) -> str:
        """Canonical representative of any declared vertex name."""
        try:
            return self.resolution[name]
        except KeyError:
            raise ValidationError(f"unknown vertex name {name!r}") from None

    def block(self, alpha: int, x: int) -> BlockHandle:
        """The block (alpha, x); ``blocks`` is x-major and alpha-minor."""
        per_x = self.game.m - 2
        if not (1 <= alpha <= per_x and 1 <= x <= self.game.n):
            raise ValidationError(f"no block with alpha={alpha}, x={x}")
        return self.blocks[(x - 1) * per_x + alpha - 1]


def edge_count_formula(game: SyncGame) -> int:
    """Closed-form slot count: 25n(m-2) + 19|e| + 19|f| + |rest|."""
    part = partition_losing(game)
    return (
        25 * game.n * (game.m - 2)
        + 19 * len(part.e_set)
        + 19 * len(part.f_set)
        + len(part.rest)
    )


def build_graph(game: SyncGame) -> GadgetGraph:
    part = partition_losing(game)
    n, m = game.n, game.m
    # Every gluing sends a fresh cell onto a vertex declared before it whose
    # canonical vertex has a smaller key than the cell: a control letter, an
    # answer cell vhat, a block's row-1 cell (under s(j)) or the previous
    # block's v(3,2).  So each class is one canonical vertex plus aliases with
    # larger keys, and its smallest-key member is known when a name is declared.
    resolution = {}  # every declared name -> its canonical vertex
    # Sort keys, canonical vertices only: control letters (0, ...) before
    # block cells (1, ...), prism tops (2, ...) and gadget cells (3, ...).
    key = {}

    def declare(name: str, k: tuple) -> str:
        if name in resolution:
            raise AssertionError(f"vertex {name} registered twice")
        resolution[name] = name
        key[name] = k
        return name

    def glue(name: str, target: str) -> str:
        if target not in resolution:
            raise AssertionError(f"{name} is glued to {target}, which is not declared yet")
        if name in resolution:
            raise AssertionError(f"vertex {name} registered twice")
        canonical = resolution[name] = resolution[target]
        return canonical

    def gadget(names, head: tuple, glued: dict) -> dict:
        """Declare one 3x3 gadget's cells; ``glued`` maps a cell to its target."""
        cells = {}
        for cell, name in zip(_CELLS, names):
            target = glued.get(cell)
            cells[cell] = declare(name, head + cell) if target is None else glue(name, target)
        return cells

    edges = set()
    dup_counter = Counter()

    def slot(u: str, v: str, source: str) -> None:
        if u == v:
            raise AssertionError(f"{source} slot collapsed to a self-loop at {u}")
        pair = (u, v) if key[u] < key[v] else (v, u)
        if pair in edges:
            dup_counter[source] += 1
        else:
            edges.add(pair)

    for idx, letter in enumerate(DELTA):
        declare(letter, (0, idx))
    slot("A", "B", "delta")
    slot("B", "C", "delta")
    slot("A", "C", "delta")

    blocks = []
    for x in range(1, n + 1):
        for alpha in range(1, m - 1):
            glued = {(1, 2): "B"}
            if alpha > 1:
                glued[(1, 1)] = blocks[-1].cells[(3, 2)]
            cells = gadget([v_name(i, j, alpha, x) for i, j in _CELLS], (1, x, alpha), glued)
            t1 = declare(t_name(1, alpha, x), (2, x, alpha, 1))
            glue(t_name(2, alpha, x), "A")
            t3 = declare(t_name(3, alpha, x), (2, x, alpha, 3))
            for j in (1, 2, 3):
                glue(s_name(j, alpha, x), cells[(1, j)])
            blocks.append(BlockHandle(alpha=alpha, x=x, cells=cells, t1=t1, t3=t3))
            for c1, c2 in ROOK_PAIRS:
                slot(cells[c1], cells[c2], "gadget_block")
            slot("C", cells[(2, 1)], "gadget_block")
            slot("A", cells[(3, 3)], "gadget_block")
            # Prism atop row 1: top triangle t1, t2 = A, t3 plus the two
            # non-control rungs.  The middle rung s(2)~t(2) is B~A, not a slot.
            slot(t1, "A", "gadget_block")
            slot("A", t3, "gadget_block")
            slot(t1, t3, "gadget_block")
            slot(cells[(1, 1)], t1, "gadget_block")
            slot(cells[(1, 3)], t3, "gadget_block")

    orthos = []
    for kind, tuples in (("e", part.e_set), ("f", part.f_set)):
        hub = "B" if kind == "e" else "C"
        for tup in tuples:
            a, b, x, y = tup
            glued = {(1, 1): vhat(a, x, m), (1, 2): hub, (2, 2): vhat(b, y, m)}
            cells = gadget([q_name(i, j, tup) for i, j in _CELLS], (3, x, y, a, b), glued)
            orthos.append(OrthoHandle(tup=tup, kind=kind, cells=cells))
            for c1, c2 in ROOK_PAIRS:
                slot(cells[c1], cells[c2], "orthogonality_gadget")
            slot("A", cells[(3, 3)], "orthogonality_gadget")

    rest_edges = []
    for tup in part.rest:
        a, b, x, y = tup
        u, v = resolution[vhat(a, x, m)], resolution[vhat(b, y, m)]
        slot(u, v, "direct_edge")
        rest_edges.append((tup, (u, v)))

    block_term = 25 * n * (m - 2)
    e_term, f_term, rest_term = 19 * len(part.e_set), 19 * len(part.f_set), len(part.rest)
    formula = block_term + e_term + f_term + rest_term
    duplicate_slots = sum(dup_counter.values())
    realized = len(edges)
    if realized != formula + 3 - duplicate_slots:
        raise AssertionError(
            f"edge accounting broke: realized {realized} != "
            f"formula {formula} + 3 - duplicates {duplicate_slots}"
        )

    rest_set = set(part.rest)
    symmetric_rest_pairs = sum(
        1
        for t in part.rest
        if (t[1], t[0], t[3], t[2]) in rest_set and t < (t[1], t[0], t[3], t[2])
    )

    report = EdgeCountReport(
        block_term=block_term,
        e_term=e_term,
        f_term=f_term,
        rest_term=rest_term,
        formula=formula,
        delta_correction=3,
        duplicate_slots=duplicate_slots,
        duplicates_by_source={src: dup_counter.get(src, 0) for src in DUP_SOURCES},
        symmetric_rest_pairs=symmetric_rest_pairs,
        realized=realized,
    )

    vertices = sorted(key, key=key.__getitem__)
    edge_list = sorted(edges, key=lambda p: (key[p[0]], key[p[1]]))

    return GadgetGraph(
        game=game,
        vertices=tuple(vertices),
        edges=tuple(edge_list),
        blocks=tuple(blocks),
        orthos=tuple(orthos),
        rest_edges=tuple(rest_edges),
        report=report,
        resolution=resolution,
        sort_key={name: key[name] for name in vertices},
    )


# ---------------------------------------------------------------------------
# export


def _cluster_of(name: str, key: tuple) -> tuple:
    """(cluster sort key, cluster id, cluster label) for a canonical vertex."""
    cls = key[0]
    if cls == 0:
        return ((0,), "delta", "control triangle")
    if cls in (1, 2):
        x, alpha = key[1], key[2]
        return ((1, x, alpha), f"block_x{x}_a{alpha}", f"block alpha={alpha} x={x}")
    x, y, a, b = key[1], key[2], key[3], key[4]
    return (
        (2, x, y, a, b),
        f"ortho_a{a}_b{b}_x{x}_y{y}",
        f"orthogonality ({a},{b},{x},{y})",
    )


# The JSON text is exactly json.dumps(payload, sort_keys=True, indent=1) of
# the payload {"edge_count_report", "edges", "gadgets": {"blocks", "delta",
# "orthogonality", "rest"}, "vertices"}, written from templates of that fixed
# layout: every key order below is already sorted, every name is quoted by the
# C function json.dumps itself uses, and %d writes the game's indices as json
# does because SyncGame admits ints only, never bools.
_CELL_KEYS = ",\n".join(f'     "{i},{j}": %s' for i, j in _CELLS)
_cell_values = itemgetter(*_CELLS)
_TUPLE = '    "tuple": [\n     %d,\n     %d,\n     %d,\n     %d\n    ]'
_EDGE = "  [\n   %s,\n   %s\n  ]"
_BLOCK = (
    '   {\n    "alpha": %d,\n    "cells": {\n' + _CELL_KEYS + "\n    },\n"
    '    "t": [\n     %s,\n     %s\n    ],\n    "x": %d\n   }'
)
_ORTHO = '   {\n    "cells": {\n' + _CELL_KEYS + '\n    },\n    "kind": %s,\n' + _TUPLE + "\n   }"
_REST = '   {\n    "edge": [\n     %s,\n     %s\n    ],\n' + _TUPLE + "\n   }"


def _json_list(items: list, indent: str) -> str:
    """A JSON array of already indented items; its bracket closes at ``indent``."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


def _graph_json(graph: GadgetGraph) -> str:
    quote = dict(zip(graph.vertices, map(encode_basestring_ascii, graph.vertices)))

    def cells(handle) -> map:
        return map(quote.__getitem__, _cell_values(handle.cells))

    blocks = [_BLOCK % (b.alpha, *cells(b), quote[b.t1], quote[b.t3], b.x) for b in graph.blocks]
    orthos = [_ORTHO % (*cells(o), encode_basestring_ascii(o.kind), *o.tup) for o in graph.orthos]
    rest = [_REST % (quote[u], quote[v], *t) for t, (u, v) in graph.rest_edges]
    report = json.dumps(asdict(graph.report), sort_keys=True, indent=1).replace("\n", "\n ")
    return (
        '{\n "edge_count_report": %s,\n "edges": %s,\n'
        ' "gadgets": {\n  "blocks": %s,\n  "delta": %s,\n  "orthogonality": %s,\n  "rest": %s\n },\n'
        ' "vertices": %s\n}\n'
    ) % (
        report,
        _json_list([_EDGE % (quote[u], quote[v]) for u, v in graph.edges], " "),
        _json_list(blocks, "  "),
        _json_list(["   " + quote[name] for name in DELTA], "  "),
        _json_list(orthos, "  "),
        _json_list(rest, "  "),
        _json_list(["  " + quote[name] for name in graph.vertices], " "),
    )


def _dot_lines(graph: GadgetGraph):
    clusters = {}
    for name in graph.vertices:
        sort, cid, label = _cluster_of(name, graph.sort_key[name])
        clusters.setdefault((sort, cid, label), []).append(name)
    yield "graph gadget_graph {"
    for (_, cid, label), members in sorted(clusters.items()):
        yield f'  subgraph "cluster_{cid}" {{'
        yield f'    label="{label}";'
        for name in members:
            yield f'    "{name}";'
        yield "  }"
    for u, v in graph.edges:
        yield f'  "{u}" -- "{v}";'
    yield "}"


def export_graph(graph: GadgetGraph, fmt: str) -> str:
    """Render the graph as 'dot' or 'json' text; output is byte-deterministic."""
    if fmt == "json":
        return _graph_json(graph)
    if fmt == "dot":
        return "\n".join(_dot_lines(graph)) + "\n"
    raise ValidationError(f"unknown export format {fmt!r}; expected 'dot' or 'json'")
