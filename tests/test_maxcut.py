import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gadgetgraph
from helpers import by_key, reference_random_order3_families, reference_unitary_cut_value, spying
from gadgetgraph import games, instances, maxcut
from gadgetgraph.errors import ValidationError
from gadgetgraph.instances import random_order3_families, random_order3_family, random_order3_unitary
from gadgetgraph.linalg import haar_unitary
from gadgetgraph.maxcut import (
    BRUTE_FORCE_LIMIT,
    OrderKUnitaryFamily,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    load_simple_graph,
    max3cut_bruteforce,
    pvm_from_unitary,
    roots_identity_check,
    unitary_cut_value,
    unitary_from_pvm,
    value_bridge,
)

OMEGA = np.exp(2j * np.pi / 3)
TOL = 1e-12


def path_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, tuple((v, v + 1) for v in range(1, k)))


# ---------------------------------------------------------------------------
# graphs and loading


def test_simple_graph_is_one_type_under_three_names():
    assert maxcut.SimpleGraph is games.SimpleGraph is gadgetgraph.SimpleGraph


def test_simple_graph_normalizes_edges():
    g = SimpleGraph(4, ((3, 1), (4, 2), (1, 2)))
    assert g.edges == ((1, 2), (1, 3), (2, 4))
    assert g.n_edges == 3


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, ((1, 1),)),          # loop
        (3, ((1, 2), (2, 1))),   # duplicate across orders
        (2, ((1, 3),)),          # endpoint out of range
        (3, ((1,),)),            # not a pair
        (3, ((1.0, 2),)),        # non-integer endpoint
        (-1, ()),                # bad vertex count
        (3, ((True, 2),)),       # JSON true is a Python int, not a vertex
        (True, ()),              # nor a vertex count
    ],
)
def test_simple_graph_rejects_malformed(n, edges):
    with pytest.raises(ValidationError):
        SimpleGraph(n, edges)


@pytest.mark.parametrize("edge", ["ab", b"ab", {"a": 1, "b": 2}], ids=["str", "bytes", "mapping"])
def test_simple_graph_names_a_two_item_non_pair(edge):
    # A str, bytes or mapping of two items unpacks into two names; it used
    # to be reported as having non-integer endpoints.
    with pytest.raises(ValidationError, match=rf"^edge {re.escape(repr(edge))} is not a pair$"):
        SimpleGraph(3, (edge,))
    if not isinstance(edge, bytes):
        with pytest.raises(ValidationError, match=rf"^edge {re.escape(repr(edge))} is not a pair$"):
            load_simple_graph(json.dumps({"n": 3, "edges": [edge]}))


@pytest.mark.parametrize("text", ["-1 -2\n", "[[-1, -2]]"], ids=["text", "json-list"])
def test_both_edge_layouts_take_the_vertex_count_alike(tmp_path, text):
    # Neither layout states n; both take the largest endpoint, at least 0.
    target = tmp_path / "graph"
    target.write_text(text)
    with pytest.raises(ValidationError, match=r"^edge \(-1, -2\) leaves the vertex range 1\.\.0$"):
        load_simple_graph(target)


def test_load_graph_json_object():
    g = load_simple_graph('{"n": 4, "edges": [[1, 2], [3, 4]]}')
    assert g.n_vertices == 4
    assert g.edges == ((1, 2), (3, 4))


def test_load_graph_bare_list_infers_n():
    g = load_simple_graph("[[1, 2], [2, 5]]")
    assert g.n_vertices == 5


def test_load_graph_text_with_comments(tmp_path):
    target = tmp_path / "graph.txt"
    target.write_text("# a triangle\n1 2\n2 3   # closing edge\n1 3\n\n")
    g = load_simple_graph(target)
    assert g.edges == ((1, 2), (1, 3), (2, 3))


def test_load_graph_json_file(tmp_path):
    target = tmp_path / "graph.json"
    target.write_text(json.dumps({"n": 3, "edges": [[1, 3]]}))
    assert load_simple_graph(str(target)).edges == ((1, 3),)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("{", "malformed"),
        ('{"edges": []}', "lacks key"),
        ("1 2 3", "expected"),
        ("1 x", "non-integer"),
        ("[1, 2]", "not a pair"),
        # Both JSON layouts name a bad entry through SimpleGraph, alike.
        ("[[1, 2], [1, 2, 3]]", r"^edge \(1, 2, 3\) is not a pair$"),
        ('{"n": 3, "edges": [[1, 2], [1, 2, 3]]}', r"^edge \(1, 2, 3\) is not a pair$"),
        ('{"n": 3, "edges": {}}', r"^graph field 'edges' must be a list of pairs$"),
    ],
)
def test_load_graph_rejects_bad_input(tmp_path, text, fragment):
    target = tmp_path / "graph.txt"
    target.write_text(text)
    with pytest.raises(ValidationError, match=fragment):
        load_simple_graph(target)


# ---------------------------------------------------------------------------
# exact Max-3-Cut oracle values (each checked by hand against the best
# 3-partition before being frozen here)


@pytest.mark.parametrize(
    "graph,expected",
    [
        (SimpleGraph(1, ()), 0),
        (SimpleGraph(2, ((1, 2),)), 1),
        (complete_graph(3), 3),
        (complete_graph(4), 5),
        (complete_graph(5), 8),
        (complete_graph(6), 12),
        (cycle_graph(5), 5),
        (cycle_graph(6), 6),
        (path_graph(4), 3),
    ],
)
def test_max3cut_oracles(graph, expected):
    assert max3cut_bruteforce(graph) == expected


def test_max3cut_guard():
    big = SimpleGraph(BRUTE_FORCE_LIMIT + 1, ())
    with pytest.raises(ValidationError, match="exhaustive"):
        max3cut_bruteforce(big)


def test_max3cut_at_the_limit_runs():
    # a sparse graph at the limit must still finish quickly
    g = path_graph(BRUTE_FORCE_LIMIT)
    assert max3cut_bruteforce(g) == BRUTE_FORCE_LIMIT - 1


# ---------------------------------------------------------------------------
# unitary families


def test_family_validates_order():
    with pytest.raises(ValidationError, match="order"):
        OrderKUnitaryFamily(3, 2, {1: np.diag([1.0, 1j])})


@pytest.mark.parametrize(
    "k,d,unitaries",
    [
        (True, 1, {1: np.eye(1)}),      # JSON true is not an order
        (0, 1, {1: np.eye(1)}),
        (3, True, {1: np.eye(1)}),      # nor a dimension
        (3, 0, {}),
        (3, -1, {1: np.eye(1)}),
        (3, 1.0, {1: np.eye(1)}),
        (3, 1, {True: np.eye(1)}),      # nor a vertex
        (3, 1, {0: np.eye(1)}),
    ],
)
def test_family_rejects_bad_numbers(k, d, unitaries):
    with pytest.raises(ValidationError, match="positive integer"):
        OrderKUnitaryFamily(k, d, unitaries)


def test_family_validates_unitarity():
    with pytest.raises(ValidationError, match="unitary"):
        OrderKUnitaryFamily(3, 2, {1: np.diag([1.0, 2.0])})


def test_family_matrices_are_write_locked():
    fam = OrderKUnitaryFamily(3, 1, {1: np.eye(1)})
    with pytest.raises(ValueError):
        fam.stack[0][0, 0] = 0.0


def test_identity_family_scores_zero():
    g = complete_graph(3)
    fam = OrderKUnitaryFamily(3, 2, {v: np.eye(2) for v in (1, 2, 3)})
    assert unitary_cut_value(g, fam) == pytest.approx(0.0, abs=1e-12)


def test_scalar_proper_coloring_cuts_every_triangle_edge():
    g = complete_graph(3)
    fam = OrderKUnitaryFamily(
        3, 1, {v: np.array([[OMEGA ** v]]) for v in (1, 2, 3)}
    )
    assert unitary_cut_value(g, fam) == pytest.approx(3.0, abs=1e-12)


def test_unitary_cut_value_requires_cover():
    g = complete_graph(3)
    fam = OrderKUnitaryFamily(3, 1, {1: np.eye(1), 2: np.eye(1)})
    with pytest.raises(ValidationError, match="lacks unitaries"):
        unitary_cut_value(g, fam)


def test_edge_overlaps_are_held_on_the_family(monkeypatch):
    g = complete_graph(4)
    fam = random_order3_family(np.random.default_rng(2), g, 3)
    score = unitary_cut_value(g, fam)
    overlaps = maxcut._edge_overlaps(g, fam)
    calls = []
    monkeypatch.setattr(maxcut, "_overlaps", spying(calls, maxcut._overlaps))
    assert maxcut._edge_overlaps(g, fam) is overlaps
    assert unitary_cut_value(g, fam) == score and calls == []
    # The identity gathers only the spectral collisions; the edge overlaps,
    # of its per-edge loop and of its aggregate cut value, are held.
    assert roots_identity_check(g, fam).lhs <= maxcut.ROOTS_IDENTITY_TOL
    assert len(calls) == 1
    # An equal graph is another object: scored anew, and it replaces the entry.
    other = complete_graph(4)
    assert unitary_cut_value(other, fam) == score and len(calls) == 2
    assert maxcut._edge_overlaps(g, fam) is not overlaps and len(calls) == 3
    # A call that raises holds nothing.
    small = random_order3_family(np.random.default_rng(2), complete_graph(3), 3)
    with pytest.raises(ValidationError, match="lacks unitaries"):
        unitary_cut_value(g, small)
    assert "_edge_overlaps" not in vars(small)


@pytest.mark.parametrize(
    "unitaries,message",
    [
        # two bad vertices: the smaller key is named, not the first inserted
        ({3: np.diag([1.0, 2.0]), 1: np.diag([1.0, -1.0])}, "matrix at vertex 1 does not have order 3"),
        ({2: np.diag([1.0, -1.0]), 1: np.diag([1.0, 2.0])}, "matrix at vertex 1 is not unitary"),
        # at one vertex, unitarity before order
        ({1: np.diag([2.0, -1.0])}, "matrix at vertex 1 is not unitary"),
        # shapes before unitarity, keys before shapes
        ({1: np.diag([1.0, 2.0]), 2: np.eye(3)}, "expected dimension 2, got 3"),
        ({1: np.eye(3), 0: np.eye(2)}, "vertex key 0 is not a positive integer"),
    ],
)
def test_family_names_the_first_failure_in_a_stated_order(unitaries, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        OrderKUnitaryFamily(3, 2, unitaries)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e200])
def test_family_rejects_non_finite_and_overflowing_entries(value):
    # A NaN defect fails the check, and no overflow warning escapes it.
    with pytest.raises(ValidationError, match=r"^matrix at vertex 1 is not unitary$"):
        OrderKUnitaryFamily(3, 1, {1: [[value]]})


def random_order_k_unitary(rng, k: int, d: int) -> np.ndarray:
    """A Haar-conjugated diagonal of k-th roots of unity."""
    q = haar_unitary(rng, d)
    return (q * np.exp(2j * np.pi * rng.integers(0, k, size=d) / k)) @ q.conj().T


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=4),
    d=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=0, max_value=6),
    extra=st.sets(st.integers(min_value=1, max_value=9)),
    gaps=st.sets(st.integers(min_value=1, max_value=9), max_size=2),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_family_holds_its_powers_as_one_stack(k, d, n, extra, gaps, seed):
    # Keys with gaps, inserted unsorted, some beyond the graph, some of the
    # graph's vertices perhaps missing.
    rng = np.random.default_rng(seed)
    keys = (set(range(1, n + 1)) | extra) - gaps
    unitaries = {v: random_order_k_unitary(rng, k, d) for v in rng.permutation(sorted(keys)).tolist()}
    fam = OrderKUnitaryFamily(k, d, unitaries)
    assert fam.vertices == tuple(sorted(keys))
    assert fam.powers.shape == (len(keys), k, d, d) and not fam.powers.flags.writeable
    for i, v in enumerate(fam.vertices):
        assert not by_key(fam)[v].flags.writeable
        assert np.array_equal(by_key(fam)[v], unitaries[v])
        for s in range(k):
            assert np.abs(fam.powers[i, s] - np.linalg.matrix_power(unitaries[v], s)).max() <= TOL
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    g = SimpleGraph(n, tuple(p for p in pairs if rng.random() < 0.5))
    missing = [v for v in range(1, n + 1) if v not in keys]
    if missing:
        with pytest.raises(ValidationError, match=rf"^family lacks unitaries for vertices {re.escape(str(missing))}$"):
            unitary_cut_value(g, fam)
    else:
        assert unitary_cut_value(g, fam) == pytest.approx(reference_unitary_cut_value(g, fam), abs=TOL)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=7),
    d=st.integers(min_value=1, max_value=5),
    count=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_batched_families_draw_the_per_vertex_unitaries(n, d, count, seed):
    # The same draws in the same seed order, so the same unitaries bit for
    # bit and the generator left in the same state.
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    families = random_order3_families(rng, SimpleGraph(n, ()), d, count)
    expected = reference_random_order3_families(ref, n, d, count)
    assert len(families) == count
    for fam, want in zip(families, expected):
        assert (fam.k, fam.d, fam.vertices) == (3, d, tuple(range(1, n + 1)))
        assert all(np.array_equal(by_key(fam)[v], u) for v, u in zip(fam.vertices, want))
        # The batch's one power check gives what the one-family constructor gives, bit for bit.
        alone = OrderKUnitaryFamily(3, d, by_key(fam))
        assert fam.vertices == alone.vertices and list(by_key(fam)) == list(by_key(alone))
        assert all(by_key(fam)[v].tobytes() == by_key(alone)[v].tobytes() for v in fam.vertices)
        assert fam.powers.shape == alone.powers.shape and fam.powers.tobytes() == alone.powers.tobytes()
        assert not fam.powers.flags.writeable and not any(u.flags.writeable for u in by_key(fam).values())
    assert rng.bit_generator.state == ref.bit_generator.state
    ((want,),) = reference_random_order3_families(np.random.default_rng(seed), 1, d, 1)
    assert np.array_equal(random_order3_unitary(np.random.default_rng(seed), d), want)
    fam = random_order3_family(np.random.default_rng(seed), SimpleGraph(n, ()), d)
    (want,) = reference_random_order3_families(np.random.default_rng(seed), n, d, 1)
    assert all(np.array_equal(by_key(fam)[v], u) for v, u in zip(fam.vertices, want))


@pytest.mark.parametrize("d", [1, 3])
def test_batched_families_name_the_first_failing_family(monkeypatch, d):
    # Break vertex 1 of family 2, then also vertex 2 of family 1, in a batch
    # of four on 6 vertices: the batch must name what building the first
    # failing family alone names, though family 2's vertex is the smaller.
    n, seed, real = 6, 5, instances._haar_from_ginibre
    clean = random_order3_families(np.random.default_rng(seed), SimpleGraph(n, ()), d, 4)

    def breaking(broken):
        def haar(ginibre):
            q = real(ginibre)
            for f, v in broken:
                q[f * n + v - 1] *= 2.0  # u = q D q* comes out 4 u, exactly: no longer unitary
            return q

        return haar

    for broken in ([(2, 1)], [(1, 2), (2, 1)]):
        monkeypatch.setattr(instances, "_haar_from_ginibre", breaking(broken))
        with pytest.raises(ValidationError) as batch:
            random_order3_families(np.random.default_rng(seed), SimpleGraph(n, ()), d, 4)
        f, v = broken[0]
        unitaries = {w: 4.0 * u if w == v else u for w, u in by_key(clean[f]).items()}
        with pytest.raises(ValidationError) as alone:
            OrderKUnitaryFamily(3, d, unitaries)
        assert str(batch.value) == str(alone.value) == f"matrix at vertex {v} is not unitary"


def test_empty_family_on_the_empty_graph():
    g, fam = SimpleGraph(0, ()), OrderKUnitaryFamily(3, 1, {})
    assert unitary_cut_value(g, fam) == 0.0
    report = roots_identity_check(g, fam)
    assert (report.context, report.lhs) == ("roots-of-unity identity (no edges)", 0.0)


# ---------------------------------------------------------------------------
# spectral decomposition


def test_pvm_from_identity():
    mats = pvm_from_unitary(np.eye(3))
    assert np.allclose(mats[0], np.eye(3), atol=1e-12)
    assert np.allclose(mats[1], 0.0, atol=1e-12)
    assert np.allclose(mats[2], 0.0, atol=1e-12)


def test_pvm_from_diagonal_roots():
    u = np.diag([1.0 + 0j, OMEGA, OMEGA**2])
    mats = pvm_from_unitary(u)
    for a in range(3):
        expected = np.zeros((3, 3))
        expected[a, a] = 1.0
        assert np.allclose(mats[a], expected, atol=1e-12)


def test_pvm_unitary_round_trip(rng):
    for _ in range(5):
        u = random_order3_unitary(rng, 4)
        back = unitary_from_pvm(pvm_from_unitary(u))
        assert np.allclose(back, u, atol=1e-9)


def test_unitary_from_a_stacked_pvm(rng):
    u = random_order3_unitary(rng, 4)
    mats = pvm_from_unitary(u)
    assert np.array_equal(unitary_from_pvm(np.stack(mats)), unitary_from_pvm(mats))
    assert np.allclose(unitary_from_pvm(np.stack(mats)), u, atol=1e-9)


def test_pvm_from_unitary_rejections():
    with pytest.raises(ValidationError, match="not unitary"):
        pvm_from_unitary(np.diag([1.0, 0.5]))
    with pytest.raises(ValidationError, match="order 3"):
        pvm_from_unitary(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# the trace identity and the value bridge


def test_roots_identity_on_random_families(rng):
    for graph in (complete_graph(3), complete_graph(4), cycle_graph(5)):
        for _ in range(10):
            fam = random_order3_family(rng, graph, int(rng.integers(1, 5)))
            report = roots_identity_check(graph, fam)
            assert report.lhs <= 1e-10


def test_roots_identity_rejects_other_orders():
    g = SimpleGraph(2, ((1, 2),))
    fam = OrderKUnitaryFamily(2, 2, {1: np.diag([1.0, -1.0]), 2: np.eye(2)})
    with pytest.raises(ValidationError, match="order 3"):
        roots_identity_check(g, fam)


def test_roots_identity_no_edges_is_trivial():
    g = SimpleGraph(2, ())
    fam = OrderKUnitaryFamily(3, 1, {1: np.eye(1), 2: np.eye(1)})
    report = roots_identity_check(g, fam)
    assert report.lhs == 0.0


@pytest.mark.parametrize(
    "graph",
    [
        SimpleGraph(1, ()),
        complete_graph(3),
        complete_graph(4),
        cycle_graph(5),
        path_graph(4),
    ],
)
def test_value_bridge_exact(graph):
    report = value_bridge(graph)
    assert report.lhs == pytest.approx(0.0, abs=1e-9)


def test_value_bridge_guard():
    with pytest.raises(ValidationError, match="double-enumeration"):
        value_bridge(SimpleGraph(11, ()))
