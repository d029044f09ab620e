"""Gadget-graph compiler: builds the 3-coloring target graph of a game.

The graph is assembled from a fixed control triangle {A, B, C}, one 3-by-3
rook's-graph block per (answer-window, question) pair with a prism on top,
one orthogonality gadget per losing tuple with endpoint or interior answer
pairs, and one direct edge per remaining losing tuple.  Gluings (shared
vertices between gadgets) are declared as identifications and resolved by
union-find to a canonical representative, so every later stage addresses
vertices by one stable name.

Edge accounting is kept honest: every slot the construction *mentions* is
inserted through a counter that records which slots landed on an edge that
already existed.  The closed-form count (25 per block, 19 per gadget, 1 per
direct edge) plus the control triangle's own 3 edges minus those duplicate
slots must equal the realized edge count exactly, and the builder refuses to
return a graph that breaks the identity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass

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


def _rook_pairs():
    cells = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    pairs = []
    for idx, c1 in enumerate(cells):
        for c2 in cells[idx + 1:]:
            if (c1[0] == c2[0]) != (c1[1] == c2[1]):
                pairs.append((c1, c2))
    return tuple(pairs)


#: The 18 adjacent cell pairs of a 3x3 rook's graph: same row xor same column.
ROOK_PAIRS = _rook_pairs()


class _Gluer:
    """Union-find over vertex names.

    The canonical representative of each class is the member with the
    smallest structured key; keys are chosen so control letters beat block
    cells, which beat prism tops, which beat gadget cells and aliases.
    """

    def __init__(self):
        self.parent = {}
        self.key = {}

    def add(self, name: str, key: tuple) -> None:
        if name in self.parent:
            raise AssertionError(f"vertex {name} registered twice")
        self.parent[name] = name
        self.key[name] = key

    def find(self, name: str) -> str:
        root = name
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[name] != root:
            self.parent[name], name = root, self.parent[name]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.key[rb] < self.key[ra]:
            ra, rb = rb, ra
        self.parent[rb] = ra


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
        for b in self.blocks:
            if b.alpha == alpha and b.x == x:
                return b
        raise ValidationError(f"no block with alpha={alpha}, x={x}")


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
    gluer = _Gluer()

    for idx, letter in enumerate(DELTA):
        gluer.add(letter, (0, idx))

    for x in range(1, n + 1):
        for alpha in range(1, m - 1):
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    gluer.add(v_name(i, j, alpha, x), (1, x, alpha, i, j))
            for i in (1, 2, 3):
                gluer.add(t_name(i, alpha, x), (2, x, alpha, i))
            for j in (1, 2, 3):
                gluer.add(s_name(j, alpha, x), (4, x, alpha, j))
                gluer.union(s_name(j, alpha, x), v_name(1, j, alpha, x))
            gluer.union(v_name(1, 2, alpha, x), "B")
            gluer.union(t_name(2, alpha, x), "A")
        for alpha in range(1, m - 2):
            gluer.union(v_name(3, 2, alpha, x), v_name(1, 1, alpha + 1, x))

    for kind, tuples in (("e", part.e_set), ("f", part.f_set)):
        for tup in tuples:
            a, b, x, y = tup
            for i in (1, 2, 3):
                for j in (1, 2, 3):
                    gluer.add(q_name(i, j, tup), (3, x, y, a, b, i, j))
            gluer.union(q_name(1, 1, tup), vhat(a, x, m))
            gluer.union(q_name(2, 2, tup), vhat(b, y, m))
            gluer.union(q_name(1, 2, tup), "B" if kind == "e" else "C")

    edges = {}
    dup_counter = Counter()

    def slot(u_raw: str, v_raw: str, source: str) -> None:
        u, v = gluer.find(u_raw), gluer.find(v_raw)
        if u == v:
            raise AssertionError(f"slot {u_raw}~{v_raw} collapsed to a self-loop at {u}")
        pair = (u, v) if gluer.key[u] < gluer.key[v] else (v, u)
        if pair in edges:
            dup_counter[source] += 1
        else:
            edges[pair] = source

    slot("A", "B", "delta")
    slot("B", "C", "delta")
    slot("A", "C", "delta")

    for x in range(1, n + 1):
        for alpha in range(1, m - 1):
            for c1, c2 in ROOK_PAIRS:
                slot(v_name(*c1, alpha, x), v_name(*c2, alpha, x), "gadget_block")
            slot("C", v_name(2, 1, alpha, x), "gadget_block")
            slot("A", v_name(3, 3, alpha, x), "gadget_block")
            # Prism atop row 1: top triangle plus the two non-control rungs.
            # The middle rung s(2)~t(2) resolves to B~A and is not a slot.
            slot(t_name(1, alpha, x), t_name(2, alpha, x), "gadget_block")
            slot(t_name(2, alpha, x), t_name(3, alpha, x), "gadget_block")
            slot(t_name(1, alpha, x), t_name(3, alpha, x), "gadget_block")
            slot(s_name(1, alpha, x), t_name(1, alpha, x), "gadget_block")
            slot(s_name(3, alpha, x), t_name(3, alpha, x), "gadget_block")

    for tuples in (part.e_set, part.f_set):
        for tup in tuples:
            for c1, c2 in ROOK_PAIRS:
                slot(q_name(*c1, tup), q_name(*c2, tup), "orthogonality_gadget")
            slot("A", q_name(3, 3, tup), "orthogonality_gadget")

    rest_edges = []
    for tup in part.rest:
        a, b, x, y = tup
        u, v = gluer.find(vhat(a, x, m)), gluer.find(vhat(b, y, m))
        slot(u, v, "direct_edge")
        rest_edges.append((tup, (u, v)))

    formula = edge_count_formula(game)
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
        block_term=25 * n * (m - 2),
        e_term=19 * len(part.e_set),
        f_term=19 * len(part.f_set),
        rest_term=len(part.rest),
        formula=formula,
        delta_correction=3,
        duplicate_slots=duplicate_slots,
        duplicates_by_source={src: dup_counter.get(src, 0) for src in DUP_SOURCES},
        symmetric_rest_pairs=symmetric_rest_pairs,
        realized=realized,
    )

    blocks = []
    for x in range(1, n + 1):
        for alpha in range(1, m - 1):
            cells = {
                (i, j): gluer.find(v_name(i, j, alpha, x))
                for i in (1, 2, 3)
                for j in (1, 2, 3)
            }
            blocks.append(
                BlockHandle(
                    alpha=alpha,
                    x=x,
                    cells=cells,
                    t1=t_name(1, alpha, x),
                    t3=t_name(3, alpha, x),
                )
            )

    orthos = []
    for kind, tuples in (("e", part.e_set), ("f", part.f_set)):
        for tup in tuples:
            cells = {
                (i, j): gluer.find(q_name(i, j, tup))
                for i in (1, 2, 3)
                for j in (1, 2, 3)
            }
            orthos.append(OrthoHandle(tup=tup, kind=kind, cells=cells))

    key = gluer.key
    roots = sorted({gluer.find(name) for name in gluer.parent}, key=key.__getitem__)
    edge_list = sorted(edges, key=lambda p: (key[p[0]], key[p[1]]))
    resolution = {name: gluer.find(name) for name in gluer.parent}

    return GadgetGraph(
        game=game,
        vertices=tuple(roots),
        edges=tuple(edge_list),
        blocks=tuple(blocks),
        orthos=tuple(orthos),
        rest_edges=tuple(rest_edges),
        report=report,
        resolution=resolution,
        sort_key={name: key[name] for name in roots},
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


def graph_to_json(graph: GadgetGraph) -> dict:
    gadgets = {
        "delta": list(DELTA),
        "blocks": [
            {
                "alpha": b.alpha,
                "x": b.x,
                "cells": {f"{i},{j}": b.cells[(i, j)] for i in (1, 2, 3) for j in (1, 2, 3)},
                "t": [b.t1, b.t3],
            }
            for b in graph.blocks
        ],
        "orthogonality": [
            {
                "tuple": list(o.tup),
                "kind": o.kind,
                "cells": {f"{i},{j}": o.cells[(i, j)] for i in (1, 2, 3) for j in (1, 2, 3)},
            }
            for o in graph.orthos
        ],
        "rest": [{"tuple": list(t), "edge": [u, v]} for t, (u, v) in graph.rest_edges],
    }
    return {
        "vertices": list(graph.vertices),
        "edges": [[u, v] for u, v in graph.edges],
        "gadgets": gadgets,
        "edge_count_report": asdict(graph.report),
    }


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
    import json as _json

    if fmt == "json":
        return _json.dumps(graph_to_json(graph), sort_keys=True, indent=1) + "\n"
    if fmt == "dot":
        return "\n".join(_dot_lines(graph)) + "\n"
    raise ValidationError(f"unknown export format {fmt!r}; expected 'dot' or 'json'")
