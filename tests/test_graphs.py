import io
import json
import re
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gadgetgraph import cli, graphs
from gadgetgraph.errors import ValidationError
from gadgetgraph.games import SyncGame, game_to_json, load_game
from gadgetgraph.graphs import (
    DELTA,
    ROOK_PAIRS,
    GadgetGraph,
    build_graph,
    edge_count_formula,
    export_graph,
    q_name,
    v_name,
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


def mirrored_game(n: int, m: int, p: float, seed: int, mirror: bool) -> SyncGame:
    """A random game, with the mirror (b, a, y, x) of every losing tuple added
    when ``mirror`` is set, so that mirrored rest tuples ask for one direct
    edge twice."""
    game = random_game(np.random.default_rng(seed), n, m, p)
    if not mirror:
        return game
    return SyncGame(n=n, m=m, losing=game.losing | {(b, a, y, x) for a, b, x, y in game.losing})


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=6),
    p=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    mirror=st.booleans(),
)
def test_vertices_and_edges_come_out_in_the_reference_order(n, m, p, seed, mirror):
    # The census, named and sorted by the canonical keys of helpers, is the
    # builder's output name for name and position for position, and its
    # duplicates by source are the builder's.  Synchrony puts direct edges
    # on block edges in every game (v̂(1, x)~v̂(2, x) is a rook edge of block
    # (1, x)); with the mirrors every direct edge is asked for twice.
    game = mirrored_game(n, m, p, seed, mirror)
    graph = build_graph(game)
    helpers.assert_edge_accounting(game, graph)
    vertices, edges = helpers.reference_order(game)
    assert graph.vertices == vertices
    assert graph.edges == edges
    views = helpers.reference_name_views(graph)
    cells = views.block(1, 1).cells
    assert (cells[(1, 1)], cells[(2, 1)]) == (views.answer_vertex(1, 1), views.answer_vertex(2, 1))
    if mirror:
        assert 2 * graph.report.symmetric_rest_pairs == len(views.rest_edges)


# ---------------------------------------------------------------------------
# gluing spot checks


def test_delta_vertices_are_canonical(min_graph):
    names = helpers.handle_names(min_graph)
    for name in DELTA:
        assert names[name] == name
        assert name in min_graph.vertices


def test_block_internal_gluings(min_graph):
    # within block (1,1): middle top vertex is the control vertex A and
    # the (1,2) cell is the control vertex B.
    names = helpers.handle_names(min_graph)
    block = helpers.reference_name_views(min_graph).block(1, 1)
    assert block.t_triangle()[1] == names[helpers.t_name(2, 1, 1)] == "A"
    assert block.cells[(1, 2)] == names[v_name(1, 2, 1, 1)] == "B"
    for j in (1, 2, 3):
        assert names[helpers.s_name(j, 1, 1)] == block.cells[(1, j)]
    assert block.cells[(1, 1)] == v_name(1, 1, 1, 1)
    assert block.cells[(1, 3)] == v_name(1, 3, 1, 1)


def test_chain_gluing_links_adjacent_blocks():
    views = helpers.reference_name_views(build_graph(sync_only_game(5)))
    for alpha in (1, 2):
        assert views.block(alpha + 1, 1).cells[(1, 1)] == views.block(alpha, 1).cells[(3, 2)]
    # the last block has no successor to chain into
    assert views.block(3, 1).cells[(3, 2)] not in {
        views.block(a, 1).cells[(1, 1)] for a in (1, 2, 3)
    }


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=6),
    p=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_resolution_agrees_with_rewrite_rules(n, m, p, seed):
    # Every declared name, including those no slot reaches (s(2), t(2),
    # q(1,2)), lands on the vertex of the name its rewrite chain ends at, and
    # two names share a vertex exactly when their rewrite chains meet.
    game = random_game(np.random.default_rng(seed), n, m, p)
    graph = build_graph(game)
    rules = helpers.rewrite_rules(game)
    names = helpers.handle_names(graph)
    assert set(rules) <= set(names)
    for name in rules:
        assert names[name] == names[helpers.canonicalize(rules, name)], name
    classes = {(helpers.canonicalize(rules, name), vertex) for name, vertex in names.items()}
    assert len({chain_end for chain_end, _ in classes}) == len(classes)
    assert {vertex for _, vertex in classes} == set(graph.vertices)
    assert len(classes) == graph.n_vertices


def test_answer_vertex_aliases():
    graph = build_graph(sync_only_game(5))
    names, views = helpers.handle_names(graph), helpers.reference_name_views(graph)
    m = 5
    assert views.answer_vertex(1, 1) == views.block(1, 1).cells[(1, 1)]
    for a in (2, 3, 4):
        assert views.answer_vertex(a, 1) == views.block(a - 1, 1).cells[(2, 1)]
    assert views.answer_vertex(m, 1) == views.block(m - 2, 1).cells[(2, 2)]
    for a in range(1, m + 1):
        assert views.answer_vertex(a, 1) == names[helpers.vhat(a, 1, m)] == helpers.vhat(a, 1, m)
    assert len({views.answer_vertex(a, 1) for a in range(1, m + 1)}) == m


def test_ortho_corner_gluings(min_graph):
    views = helpers.reference_name_views(min_graph)
    for gadget in views.orthos:
        a, b, x, y = gadget.tup
        assert gadget.cells[(1, 1)] == views.answer_vertex(a, x)
        assert gadget.cells[(2, 2)] == views.answer_vertex(b, y)
        hub = "B" if gadget.kind == "e" else "C"
        assert gadget.cells[(1, 2)] == hub
        free = [cell for cell in gadget.cells if cell not in {(1, 1), (1, 2), (2, 2)}]
        assert all(gadget.cells[cell] == q_name(*cell, gadget.tup) for cell in free)


def test_minimal_ortho_kinds(min_graph):
    kinds = sorted((g.kind, g.tup) for g in helpers.reference_name_views(min_graph).orthos)
    assert kinds == [("e", (1, 3, 1, 1)), ("e", (3, 1, 1, 1))]


def test_rest_edges_recorded(min_graph):
    rest_edges = helpers.reference_name_views(min_graph).rest_edges
    tuples = sorted(t for t, _ in rest_edges)
    assert tuples == [(1, 2, 1, 1), (2, 1, 1, 1), (2, 3, 1, 1), (3, 2, 1, 1)]
    for _, (u, v) in rest_edges:
        assert (u, v) in min_graph.edges or (v, u) in min_graph.edges


# ---------------------------------------------------------------------------
# handles


def test_block_handle_geometry(min_graph):
    block = helpers.reference_name_views(min_graph).block(1, 1)
    assert block.row(1) == tuple(block.cells[(1, j)] for j in (1, 2, 3))
    assert block.col(3) == tuple(block.cells[(i, 3)] for i in (1, 2, 3))
    assert block.t_triangle() == (block.t1, "A", block.t3)
    for name in block.row(1) + block.col(3) + (block.t1, block.t3):
        assert name in min_graph.vertices


def test_ortho_handle_geometry(min_graph):
    gadget = helpers.reference_name_views(min_graph).orthos[0]
    assert gadget.row(2) == tuple(gadget.cells[(2, j)] for j in (1, 2, 3))
    assert gadget.col(1) == tuple(gadget.cells[(i, 1)] for i in (1, 2, 3))


def test_every_edge_uses_canonical_vertices(min_graph):
    names = set(min_graph.vertices)
    for u, v in min_graph.edges:
        assert u in names and v in names
        assert u != v
    names = helpers.handle_names(min_graph)
    assert all(names[vertex] == vertex for vertex in min_graph.vertices)


def test_compile_builds_no_name_views(monkeypatch, tmp_path, capsys):
    # compile builds the graph and writes both exports from its id tables
    # alone; reading ``edges``, the one name view, is what caches it.
    built = []
    monkeypatch.setattr(cli, "build_graph", lambda game: built.append(build_graph(game)) or built[-1])
    game = random_game(np.random.default_rng(1), 4, 5, 0.3)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json(game)))
    assert cli.main(["compile", str(path), "--format", "both"]) == 0
    assert "wrote" in capsys.readouterr().out
    (graph,) = built
    assert "edges" not in vars(graph)
    assert graph.edges and "edges" in vars(graph)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=11),
    m=st.integers(min_value=3, max_value=6),
    p=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_name_views_match_the_eager_reference(n, m, p, seed):
    # ``edges`` is the one name view the graph keeps.
    graph = build_graph(random_game(np.random.default_rng(seed), n, m, p))
    assert graph.edges == helpers.reference_name_views(graph).edges


def test_name_views_match_the_eager_reference_on_fixed_games(min_graph, tri_graph):
    golden = Path(__file__).parent / "golden"
    games = [min_graph.game, tri_graph.game, sync_only_game(5)]
    games += [load_game(golden / name) for name in ("game.json", "game10.json")]
    for game in games:
        graph = build_graph(game)
        assert graph.edges == helpers.reference_name_views(graph).edges


def test_edge_index_finds_each_edge_in_either_order(tri_graph):
    ids = tri_graph.edge_ids
    rows = np.arange(len(ids))
    assert np.array_equal(tri_graph.edge_index(ids), rows)
    assert np.array_equal(tri_graph.edge_index(ids[:, ::-1]), rows)
    assert np.array_equal(tri_graph.edge_index(ids.reshape(-1, 3, 2)), rows.reshape(-1, 3))
    a, t1 = tri_graph.vertices.index("A"), tri_graph.vertices.index("t(1,1,1)")
    assert tri_graph.edge_index(np.array([t1, a])) == tri_graph.edges.index(("A", "t(1,1,1)"))
    with pytest.raises(ValidationError, match=r"^no edge between vertex ids 0 and 0$"):
        tri_graph.edge_index(np.array([[0, 1], [0, 0]]))
    last = tri_graph.n_vertices - 1
    with pytest.raises(ValidationError, match=f"^no edge between vertex ids {last} and {last}$"):
        tri_graph.edge_index(np.array([last, last]))


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


#: The id-level fields that hold a graph's orthogonality gadgets or its
#: direct edges, emptied.
EMPTIED = {
    "orthos": dict(ortho_rows=np.empty((0, 10), dtype=np.int32), ortho_at=np.empty(0, dtype=np.int32)),
    "rest_edges": dict(rest_rows=np.empty((0, 2), dtype=np.int32), rest_at=np.empty(0, dtype=np.int32)),
}


def test_json_export_with_empty_gadget_lists(min_graph):
    # Synchrony alone leaves the f-set empty at m = 3, but never the e-set or
    # the rest, so those two lists are emptied on the id-row level.
    assert {o.kind for o in helpers.reference_name_views(min_graph).orthos} == {"e"}
    assert_json_matches_reference(min_graph)
    for emptied in (("orthos",), ("rest_edges",), ("orthos", "rest_edges")):
        graph = replace(min_graph, **{k: v for attr in emptied for k, v in EMPTIED[attr].items()})
        views = helpers.reference_name_views(graph)
        assert all((getattr(views, attr) == ()) == (attr in emptied) for attr in EMPTIED)
        assert_json_matches_reference(graph)
        text = export_graph(graph, "json")
        for attr, key in (("orthos", "orthogonality"), ("rest_edges", "rest")):
            assert (f'"{key}": []' in text) == (attr in emptied)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=11),
    m=st.integers(min_value=3, max_value=6),
    p=st.floats(min_value=0.0, max_value=0.2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_dot_export_matches_reference(n, m, p, seed):
    """Byte for byte the DOT text spelled out line by line; n up to 11 puts
    two-digit question numbers into names and cluster ids."""
    graph = build_graph(random_game(np.random.default_rng(seed), n, m, p))
    text, want = export_graph(graph, "dot"), helpers.reference_dot(graph)
    same = text == want
    assert same, f"first difference at line {helpers.first_differing_line(text, want)}"


def without_gadgets(graph):
    """``graph`` cut down to no orthogonality gadget: no gadget rows, vertices
    or edges.  The vertices the gadgets declare are numbered last, so the cut
    keeps every other id."""
    kept = graph.n_vertices - 6 * len(graph.ortho_rows)
    return replace(
        graph,
        **EMPTIED["orthos"],
        vertices=graph.vertices[:kept],
        edge_ids=graph.edge_ids[(graph.edge_ids < kept).all(axis=1)],
    )


def test_dot_export_with_no_orthogonality_gadgets(min_graph):
    # Every game has e-set gadgets, so the gadget-free graph is cut from the
    # minimal one.
    views = helpers.reference_name_views(min_graph)
    gadget_vertices = {v for o in views.orthos for v in o.cells.values()} - {
        v for b in views.blocks for v in b.cells.values()
    } - set(DELTA)
    graph = without_gadgets(min_graph)
    assert graph.vertices == tuple(v for v in min_graph.vertices if v not in gadget_vertices)
    assert graph.edges == tuple(e for e in min_graph.edges if not gadget_vertices & set(e))
    assert len(graph.vertices) == len(min_graph.vertices) - 6 * len(views.orthos)
    assert export_graph(graph, "dot") == helpers.reference_dot(graph)
    assert "cluster_ortho" not in export_graph(graph, "dot")


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


def reference_text(graph, fmt: str) -> str:
    if fmt == "dot":
        return helpers.reference_dot(graph)
    return json.dumps(helpers.reference_graph_json(graph), sort_keys=True, indent=1) + "\n"


@pytest.mark.parametrize("rows", [1, 2, 7])
def test_export_writes_its_text_in_bounded_pieces(monkeypatch, min_graph, rows):
    # The cut graph has no orthogonality gadget, so its JSON has an empty
    # "orthogonality" list and its DOT no gadget cluster; with the direct
    # edges emptied too, every list that can be empty is, alone and together.
    monkeypatch.setattr(graphs, "EXPORT_CHUNK", rows)
    no_rest = EMPTIED["rest_edges"]
    cases = [
        min_graph,
        build_graph(random_game(np.random.default_rng(7), 10, 5, 0.1)),
        without_gadgets(min_graph),
        replace(min_graph, **no_rest),
        replace(without_gadgets(min_graph), **no_rest),
    ]
    for graph in cases:
        for fmt in ("json", "dot"):
            out = io.StringIO()
            assert export_graph(graph, fmt, out) is None
            text = export_graph(graph, fmt)
            same = out.getvalue() == text == reference_text(graph, fmt)
            assert same, f"{fmt} export of a {graph.n_vertices}-vertex graph differs from the reference"
        pieces = []
        export_graph(graph, "dot", SimpleNamespace(writelines=pieces.extend))
        assert max(piece.count(" -- ") for piece in pieces) == min(rows, graph.n_edges)


def test_export_rejects_unknown_format(min_graph):
    out = io.StringIO()
    with pytest.raises(ValidationError, match="format"):
        export_graph(min_graph, "gml", out)
    assert out.getvalue() == ""
    with pytest.raises(ValidationError, match="format"):
        export_graph(min_graph, "gml")


# ---------------------------------------------------------------------------
# documentation


def test_readme_names_only_what_a_gadget_graph_has():
    # Every `graph.<name>` the README spells is a field, property or method
    # of GadgetGraph, so a name the graph no longer has cannot linger there.
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    named = set(re.findall(r"`graph\.(\w+)", readme))
    assert {"vertices", "edge_ids", "block_rows"} <= named
    assert named - {f.name for f in fields(GadgetGraph)} - set(dir(GadgetGraph)) == set()
