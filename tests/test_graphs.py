import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gadgetgraph.errors import ValidationError
from gadgetgraph.games import SyncGame, coloring_game
from gadgetgraph.graphs import (
    DELTA,
    ROOK_PAIRS,
    build_graph,
    edge_count_formula,
    export_graph,
    q_name,
    s_name,
    t_name,
    v_name,
    vhat,
)
from gadgetgraph.instances import random_game


def sync_only_game(m: int) -> SyncGame:
    losing = frozenset((a, b, 1, 1) for a in range(1, m + 1) for b in range(1, m + 1) if a != b)
    return SyncGame(n=1, m=m, losing=losing)


# ---------------------------------------------------------------------------
# frozen census oracles (counts hand-derived from the slot inventory, then
# pinned; the independent enumerator in helpers re-derives them each run)


def test_minimal_census(min_graph):
    r = min_graph.report
    assert (min_graph.n_vertices, min_graph.n_edges) == (25, 62)
    assert (r.block_term, r.e_term, r.f_term, r.rest_term) == (25, 38, 0, 4)
    assert r.formula == 67
    assert r.delta_correction == 3
    assert r.duplicate_slots == 8
    assert r.duplicates_by_source == {
        "gadget_block": 0,
        "orthogonality_gadget": 4,
        "direct_edge": 4,
    }
    assert r.symmetric_rest_pairs == 2
    assert r.realized == 62 == r.formula + r.delta_correction - r.duplicate_slots


def test_triangle_census(tri_graph):
    r = tri_graph.report
    assert (tri_graph.n_vertices, tri_graph.n_edges) == (177, 486)
    assert (r.block_term, r.e_term, r.f_term, r.rest_term) == (75, 342, 114, 12)
    assert r.formula == 543
    assert r.duplicate_slots == 60
    assert r.duplicates_by_source == {
        "gadget_block": 0,
        "orthogonality_gadget": 48,
        "direct_edge": 12,
    }
    assert r.symmetric_rest_pairs == 6
    assert r.realized == 486


def test_four_answer_census():
    graph = build_graph(sync_only_game(4))
    r = graph.report
    assert (graph.n_vertices, graph.n_edges) == (46, 122)
    assert (r.block_term, r.e_term, r.f_term, r.rest_term) == (50, 38, 38, 8)
    assert r.formula == 134
    assert r.duplicate_slots == 15
    assert r.duplicates_by_source == {
        "gadget_block": 1,
        "orthogonality_gadget": 8,
        "direct_edge": 6,
    }
    assert r.symmetric_rest_pairs == 4
    assert r.realized == 122


def test_formula_matches_report(min_graph, tri_graph):
    for graph in (min_graph, tri_graph):
        assert edge_count_formula(graph.game) == graph.report.formula


# ---------------------------------------------------------------------------
# independent accounting


def test_rook_pairs_census():
    assert len(ROOK_PAIRS) == 18
    for c1, c2 in ROOK_PAIRS:
        assert helpers.rook_adjacent(c1, c2)


def test_independent_accounting_fixed(min_graph, tri_graph):
    helpers.assert_edge_accounting(min_graph.game, min_graph)
    helpers.assert_edge_accounting(tri_graph.game, tri_graph)
    game = sync_only_game(4)
    helpers.assert_edge_accounting(game, build_graph(game))


@pytest.mark.parametrize("seed", [3, 7, 21])
def test_independent_accounting_random(seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, int(rng.integers(1, 3)), int(rng.integers(3, 6)))
    helpers.assert_edge_accounting(game, build_graph(game))


# ---------------------------------------------------------------------------
# gluing spot checks


def test_delta_vertices_are_canonical(min_graph):
    for name in DELTA:
        assert min_graph.resolve(name) == name
        assert name in min_graph.vertices


def test_block_internal_gluings(min_graph):
    # within block (1,1): middle top vertex is the control vertex A and
    # the (1,2) cell is the control vertex B.
    assert min_graph.resolve(t_name(2, 1, 1)) == "A"
    assert min_graph.resolve(v_name(1, 2, 1, 1)) == "B"
    for j in (1, 2, 3):
        assert min_graph.resolve(s_name(j, 1, 1)) == min_graph.resolve(v_name(1, j, 1, 1))


def test_chain_gluing_links_adjacent_blocks():
    graph = build_graph(sync_only_game(5))
    for alpha in (1, 2):
        assert graph.resolve(v_name(3, 2, alpha, 1)) == graph.resolve(v_name(1, 1, alpha + 1, 1))
    # the last block has no successor to chain into
    assert graph.resolve(v_name(3, 2, 3, 1)) not in {
        graph.resolve(v_name(1, 1, a, 1)) for a in (1, 2, 3)
    }


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=6),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_resolution_agrees_with_rewrite_rules(n, m, p, seed):
    # Every alias, including those no slot reaches (s(2), t(2), q(1,2)),
    # resolves where the independent rewrite chain sends it.
    game = random_game(np.random.default_rng(seed), n, m, p)
    graph = build_graph(game)
    rules = helpers.rewrite_rules(game)
    for name in rules:
        assert graph.resolve(name) == graph.resolve(helpers.canonicalize(rules, name)), name


def test_answer_vertex_aliases():
    graph = build_graph(sync_only_game(5))
    m = 5
    assert graph.resolve(vhat(1, 1, m)) == graph.resolve(v_name(1, 1, 1, 1))
    for a in (2, 3, 4):
        assert graph.resolve(vhat(a, 1, m)) == graph.resolve(v_name(2, 1, a - 1, 1))
    assert graph.resolve(vhat(m, 1, m)) == graph.resolve(v_name(2, 2, m - 2, 1))


def test_ortho_corner_gluings(min_graph):
    m = min_graph.game.m
    for gadget in min_graph.orthos:
        a, b, x, y = gadget.tup
        assert min_graph.resolve(q_name(1, 1, gadget.tup)) == min_graph.resolve(vhat(a, x, m))
        assert min_graph.resolve(q_name(2, 2, gadget.tup)) == min_graph.resolve(vhat(b, y, m))
        hub = "B" if gadget.kind == "e" else "C"
        assert min_graph.resolve(q_name(1, 2, gadget.tup)) == hub


def test_minimal_ortho_kinds(min_graph):
    kinds = sorted((g.kind, g.tup) for g in min_graph.orthos)
    assert kinds == [("e", (1, 3, 1, 1)), ("e", (3, 1, 1, 1))]


def test_rest_edges_recorded(min_graph):
    tuples = sorted(t for t, _ in min_graph.rest_edges)
    assert tuples == [(1, 2, 1, 1), (2, 1, 1, 1), (2, 3, 1, 1), (3, 2, 1, 1)]
    for _, (u, v) in min_graph.rest_edges:
        assert (u, v) in min_graph.edges or (v, u) in min_graph.edges


# ---------------------------------------------------------------------------
# handles


def test_block_handle_geometry(min_graph):
    block = min_graph.block(1, 1)
    assert block.row(1) == tuple(block.cells[(1, j)] for j in (1, 2, 3))
    assert block.col(3) == tuple(block.cells[(i, 3)] for i in (1, 2, 3))
    assert block.t_triangle() == (block.t1, "A", block.t3)
    for name in block.row(1) + block.col(3) + (block.t1, block.t3):
        assert name in min_graph.vertices


def test_ortho_handle_geometry(min_graph):
    gadget = min_graph.orthos[0]
    assert gadget.row(2) == tuple(gadget.cells[(2, j)] for j in (1, 2, 3))
    assert gadget.col(1) == tuple(gadget.cells[(i, 1)] for i in (1, 2, 3))


def test_every_edge_uses_canonical_vertices(min_graph):
    names = set(min_graph.vertices)
    for u, v in min_graph.edges:
        assert u in names and v in names
        assert u != v
        assert min_graph.resolve(u) == u and min_graph.resolve(v) == v


def test_no_duplicate_edges(tri_graph):
    undirected = {frozenset(e) for e in tri_graph.edges}
    assert len(undirected) == tri_graph.n_edges


# ---------------------------------------------------------------------------
# exports


def test_json_export_schema(min_graph):
    payload = json.loads(export_graph(min_graph, "json"))
    assert sorted(payload) == ["edge_count_report", "edges", "gadgets", "vertices"]
    assert payload["edge_count_report"] == asdict(min_graph.report)
    assert len(payload["vertices"]) == 25
    assert len(payload["edges"]) == 62
    assert payload["gadgets"]["delta"] == ["A", "B", "C"]
    assert len(payload["gadgets"]["blocks"]) == 1
    assert len(payload["gadgets"]["orthogonality"]) == 2
    assert len(payload["gadgets"]["rest"]) == 4


def test_json_export_same_graph_as_attributes(min_graph):
    payload = helpers.reference_graph_json(min_graph)
    assert payload["vertices"] == list(min_graph.vertices)
    assert payload["edges"] == [[u, v] for u, v in min_graph.edges]


def assert_json_matches_reference(graph):
    text = export_graph(graph, "json")
    reference = helpers.reference_graph_json(graph)
    want = json.dumps(reference, sort_keys=True, indent=1) + "\n"
    # A plain bool keeps pytest from diffing megabyte strings on failure.
    same = text == want
    assert same, f"first difference at line {helpers.first_differing_line(text, want)}"
    assert json.loads(text) == reference


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=11),
    m=st.integers(min_value=3, max_value=6),
    p=st.floats(min_value=0.0, max_value=0.2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_json_export_matches_reference_dump(n, m, p, seed):
    """Byte for byte what json.dumps writes; n up to 11 puts two-digit
    question numbers into names."""
    assert_json_matches_reference(build_graph(random_game(np.random.default_rng(seed), n, m, p)))


def test_json_export_with_empty_gadget_lists(min_graph):
    # Synchrony alone leaves the f-set empty at m = 3, but never the e-set or
    # the rest, so those two lists are emptied on the handle level.
    assert {o.kind for o in min_graph.orthos} == {"e"}
    assert_json_matches_reference(min_graph)
    for emptied in (("orthos",), ("rest_edges",), ("orthos", "rest_edges")):
        graph = replace(min_graph, **dict.fromkeys(emptied, ()))
        assert_json_matches_reference(graph)
        text = export_graph(graph, "json")
        for attr, key in (("orthos", "orthogonality"), ("rest_edges", "rest")):
            assert (f'"{key}": []' in text) == (attr in emptied)


def test_dot_export_parses_back(min_graph):
    lines = export_graph(min_graph, "dot").splitlines()
    assert lines[0] == "graph gadget_graph {"
    assert lines[-1] == "}"
    declared = set()
    edges = []
    for line in lines[1:-1]:
        text = line.strip()
        if text.startswith('"') and text.endswith('";') and " -- " not in text:
            declared.add(text[1:-2])
        elif " -- " in text:
            left, right = text.rstrip(";").split(" -- ")
            edges.append((left.strip('"'), right.strip('"')))
    assert declared == set(min_graph.vertices)
    assert edges == list(min_graph.edges)


def test_export_rejects_unknown_format(min_graph):
    with pytest.raises(ValidationError, match="format"):
        export_graph(min_graph, "gml")


# ---------------------------------------------------------------------------
# error paths


def test_resolve_unknown_name(min_graph):
    with pytest.raises(ValidationError, match="unknown vertex"):
        min_graph.resolve("v~9.9~99~99")


def test_block_lookup_out_of_range(min_graph):
    with pytest.raises(ValidationError):
        min_graph.block(5, 1)
