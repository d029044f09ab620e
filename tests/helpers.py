"""Shared test utilities.

The edge-accounting enumerator here recomputes the gadget-graph edge
census from its own tables: its own partition of the losing tuples, its
own slot lists, and a string-rewriting canonicalization whose chain rule
points the opposite way from the builder's smallest-key representative.
Agreement with the builder is therefore evidence, not a tautology.
"""

from dataclasses import asdict

import numpy as np

from gadgetgraph.graphs import DELTA, q_name, s_name, t_name, v_name, vhat

#: Filled by the acceptance tests; conftest prints one line per entry
#: after the run so the verdicts survive pytest's output capture.
ACCEPTANCE_RESULTS = []


def reference_tau(a, b) -> float:
    """tr(a b)/d by forming the product, as a reference for the O(d^2)
    trace kernels."""
    return float(np.trace(a @ b).real) / a.shape[0]


def reference_graph_json(graph) -> dict:
    """The compiled graph as nested dicts and lists, as a reference for the
    templated JSON writer: ``json.dumps(reference_graph_json(graph),
    sort_keys=True, indent=1) + "\\n"`` is the text ``export_graph`` writes."""
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


def first_differing_line(got: str, want: str) -> str:
    """'number: got != want' for the first line where two texts differ."""
    pairs = zip(got.splitlines(), want.splitlines())
    for number, (g, w) in enumerate(pairs, 1):
        if g != w:
            return f"{number}: {g!r} != {w!r}"
    return "past the end of the shorter text"


def rook_adjacent(c1, c2) -> bool:
    """Same row or same column, but not both (that would be the same cell)."""
    return (c1[0] == c2[0]) != (c1[1] == c2[1])


def rook_cell_pairs():
    cells = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    return [
        (c1, c2)
        for idx, c1 in enumerate(cells)
        for c2 in cells[idx + 1 :]
        if rook_adjacent(c1, c2)
    ]


def classify_losing(game):
    """Split losing tuples by where the answers sit: both at an end of
    {1..m}, both strictly inside, or mixed."""
    ends = {1, game.m}
    e_set, f_set, rest = [], [], []
    for t in sorted(game.losing):
        a, b = t[0], t[1]
        if a in ends and b in ends:
            e_set.append(t)
        elif a not in ends and b not in ends:
            f_set.append(t)
        else:
            rest.append(t)
    return e_set, f_set, rest


def rewrite_rules(game):
    """Gluing identifications as directed rewrites.

    The chain rule sends v(3,2,alpha,x) forward into the next block's
    (1,1) corner; the builder instead picks the smallest declaration key
    of the merged cluster, so the canonical names differ on purpose.
    """
    n, m = game.n, game.m
    rules = {}
    for x in range(1, n + 1):
        for alpha in range(1, m - 1):
            for j in (1, 2, 3):
                rules[s_name(j, alpha, x)] = v_name(1, j, alpha, x)
            rules[t_name(2, alpha, x)] = "A"
            rules[v_name(1, 2, alpha, x)] = "B"
        for alpha in range(1, m - 2):
            rules[v_name(3, 2, alpha, x)] = v_name(1, 1, alpha + 1, x)
    e_set, f_set, _ = classify_losing(game)
    for kind, tuples in (("e", e_set), ("f", f_set)):
        for tup in tuples:
            a, b, x, y = tup
            rules[q_name(1, 1, tup)] = vhat(a, x, m)
            rules[q_name(2, 2, tup)] = vhat(b, y, m)
            rules[q_name(1, 2, tup)] = "B" if kind == "e" else "C"
    return rules


def canonicalize(rules, name):
    hops = 0
    while name in rules:
        name = rules[name]
        hops += 1
        assert hops < 10, f"rewrite chain runaway at {name!r}"
    return name


def enumerate_edges(game):
    """Full slot census: (formula, edge set, duplicate count, vertex set).

    Edges are frozensets of this module's canonical names.  The three
    control-triangle edges are seeded first, exactly like the builder, so
    a gadget slot landing on one of them counts as a duplicate.
    """
    n, m = game.n, game.m
    e_set, f_set, rest = classify_losing(game)
    rules = rewrite_rules(game)

    slots = []
    for x in range(1, n + 1):
        for alpha in range(1, m - 1):
            for c1, c2 in rook_cell_pairs():
                slots.append((v_name(*c1, alpha, x), v_name(*c2, alpha, x)))
            slots.append(("C", v_name(2, 1, alpha, x)))
            slots.append(("A", v_name(3, 3, alpha, x)))
            slots.append((t_name(1, alpha, x), t_name(2, alpha, x)))
            slots.append((t_name(2, alpha, x), t_name(3, alpha, x)))
            slots.append((t_name(1, alpha, x), t_name(3, alpha, x)))
            slots.append((s_name(1, alpha, x), t_name(1, alpha, x)))
            slots.append((s_name(3, alpha, x), t_name(3, alpha, x)))
    for tup in e_set + f_set:
        for c1, c2 in rook_cell_pairs():
            slots.append((q_name(*c1, tup), q_name(*c2, tup)))
        slots.append(("A", q_name(3, 3, tup)))
    for a, b, x, y in rest:
        slots.append((vhat(a, x, m), vhat(b, y, m)))

    formula = 25 * n * (m - 2) + 19 * len(e_set) + 19 * len(f_set) + len(rest)
    assert len(slots) == formula, "slot census disagrees with the closed form"

    edges = {frozenset(p) for p in (("A", "B"), ("B", "C"), ("A", "C"))}
    duplicates = 0
    for u_raw, v_raw in slots:
        u, v = canonicalize(rules, u_raw), canonicalize(rules, v_raw)
        assert u != v, f"slot {u_raw}~{v_raw} collapsed to a self-loop"
        pair = frozenset((u, v))
        if pair in edges:
            duplicates += 1
        else:
            edges.add(pair)

    vertices = set()
    for pair in edges:
        vertices |= pair
    return formula, edges, duplicates, vertices


def assert_edge_accounting(game, graph):
    """Check the builder's census against this module's independent one,
    down to a name-level bijection of the realized edge sets."""
    formula, edges, duplicates, vertices = enumerate_edges(game)
    report = graph.report
    assert formula == report.formula
    assert duplicates == report.duplicate_slots
    assert report.delta_correction == 3
    assert len(edges) == formula + 3 - duplicates
    assert len(edges) == graph.n_edges
    assert len(vertices) == graph.n_vertices
    mapped = {
        frozenset(graph.resolve(name) for name in pair) for pair in edges
    }
    assert all(len(pair) == 2 for pair in mapped), "resolution collapsed an edge"
    assert mapped == {frozenset(p) for p in graph.edges}
