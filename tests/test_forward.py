import re
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    by_key,
    raised_message,
    reference_forward_translate,
    reference_name_views,
    reference_perturb_two,
    reference_pvm_defect,
    reference_scattered_coloring,
    reference_tau,
    spying,
)
from gadgetgraph import forward, rounding
from gadgetgraph.errors import BoundViolation, ValidationError
from gadgetgraph.forward import (
    FORWARD_FACTOR,
    GADGET_LOSS_FACTOR,
    certify_forward,
    coloring_value,
    forward_translate,
    ortho_gadget_losses,
)
from gadgetgraph.games import (
    ColoringStrategy,
    GameStrategy,
    PriorDistribution,
    SimpleGraph,
    SyncGame,
    coloring_game,
    load_game,
    load_game_strategy,
    sync_value,
)
from gadgetgraph.graphs import _B, _C, _CELL, build_graph
from gadgetgraph.instances import (
    deterministic_strategy,
    minimal_game,
    random_game,
    random_strategy,
    triangle_coloring_game,
    triangle_strategy,
)
from gadgetgraph.reverse import certify_reverse_lemmas, reverse_translate
from gadgetgraph.rounding import perturb_two


def sync_only_game(m: int) -> SyncGame:
    losing = frozenset((a, b, 1, 1) for a in range(1, m + 1) for b in range(1, m + 1) if a != b)
    return SyncGame(n=1, m=m, losing=losing)


def test_perfect_minimal_translates_to_perfect_coloring(min_game, min_graph):
    strategy = deterministic_strategy(min_game, (2,))
    cs = forward_translate(min_game, min_graph, strategy)
    assert cs.d == 1
    assert set(cs.keys) == set(min_graph.vertices)
    report = coloring_value(min_graph, cs)
    assert report.value == pytest.approx(1.0, abs=1e-12)


def test_triangle_round_perfect(tri_game, tri_graph):
    cs = forward_translate(tri_game, tri_graph, triangle_strategy())
    assert coloring_value(tri_graph, cs).value == pytest.approx(1.0, abs=1e-12)


def test_coloring_value_agrees_with_game_value(rng, min_game, min_graph):
    # Dual route: score the same coloring as a synchronous game on the
    # index-relabeled graph under the ordered-edge prior.  The per-edge
    # accounting and the losing-tuple accounting must meet to 1e-12.
    strategy = random_strategy(rng, min_game, 2)
    cs = forward_translate(min_game, min_graph, strategy)
    direct = coloring_value(min_graph, cs)

    index = {name: i + 1 for i, name in enumerate(min_graph.vertices)}
    relabeled_graph = SimpleGraph(
        min_graph.n_vertices, tuple((index[u], index[v]) for u, v in min_graph.edges)
    )
    relabeled = coloring_game(relabeled_graph)
    as_game_strategy = GameStrategy(
        d=cs.d, pvms={index[name]: list(by_key(cs)[name]) for name in min_graph.vertices}
    )
    routed = sync_value(relabeled, as_game_strategy, PriorDistribution.uniform_edges(relabeled_graph))
    assert direct.value == pytest.approx(routed.value, abs=1e-12)
    assert direct.lost_mass == pytest.approx(routed.lost_mass, abs=1e-12)


def test_vhat_color_one_recovers_the_answer_projections(rng):
    # The color-1 projection at every answer vertex must be exactly the
    # corresponding outcome of the input PVM, whichever block realizes it.
    game = sync_only_game(4)
    graph = build_graph(game)
    strategy = random_strategy(rng, game, 3)
    cs, views = forward_translate(game, graph, strategy), reference_name_views(graph)
    for a in range(1, 5):
        name = views.answer_vertex(a, 1)
        assert np.allclose(by_key(cs)[name][0], strategy.stack[0, a - 1], atol=1e-12)


def test_certify_forward_random_sweep():
    rng = np.random.default_rng(77)
    games = [sync_only_game(3), coloring_game(SimpleGraph(2, ((1, 2),)))]
    graphs = [build_graph(g) for g in games]
    for trial in range(30):
        game = games[trial % 2]
        graph = graphs[trial % 2]
        d = 2 if trial % 3 else 4
        report = certify_forward(game, graph, random_strategy(rng, game, d))
        assert report.slack >= -1e-9
        assert report.rhs <= FORWARD_FACTOR * game.n * game.n / graph.n_edges + 1e-12


def test_certify_forward_rhs_is_never_negative():
    # The README's library example: this strategy's game value rounds to
    # just above 1, and an unclamped loss made the bound -1.27e-15.
    game = minimal_game()
    graph = build_graph(game)
    strategy = random_strategy(np.random.default_rng(0), game, d=4)
    report = certify_forward(game, graph, strategy)
    assert report.rhs >= 0.0
    assert report.lhs <= report.rhs + 1e-12


def test_gluing_inconsistency_names_gadget_and_cell(rng, monkeypatch):
    import gadgetgraph.forward as forward

    game = sync_only_game(3)
    graph = build_graph(game)
    template = list(forward._BLOCK_TEMPLATE)
    c1, c2, c3 = template[1]  # cell (1, 2), glued onto the control vertex B
    template[1] = (c2, c1, c3)
    monkeypatch.setattr(forward, "_BLOCK_TEMPLATE", tuple(template))
    with pytest.raises(ValidationError, match=r"at B \(block alpha=1 x=1, cell \(1, 2\), color 1\)"):
        forward_translate(game, graph, random_strategy(rng, game, 3))


@pytest.mark.parametrize("kind", ["e", "f"])
def test_gadget_gluing_inconsistency_names_the_first_vertex(kind, monkeypatch):
    # Cell (2, 2) is glued onto the answer cell of b; giving it e_a as its
    # color 1 breaks every gadget of the kind, and the first one is named.
    rng = np.random.default_rng(5)
    game = random_game(rng, 2, 4, 0.5)
    graph = build_graph(game)
    orthos = reference_name_views(graph).orthos
    assert {o.kind for o in orthos} == {"e", "f"}
    template = list(forward._ORTHO_TEMPLATES[kind])
    template[4] = (forward._E_A, *template[4][1:])
    monkeypatch.setitem(forward._ORTHO_TEMPLATES, kind, tuple(template))
    first = next(o for o in orthos if o.kind == kind)
    message = (
        f"gluing inconsistency at {first.cells[(2, 2)]} (orthogonality ({','.join(map(str, first.tup))}), "
        "cell (2, 2), color 1): two gadgets assign different operators"
    )
    with pytest.raises(ValidationError) as excinfo:
        forward_translate(game, graph, random_strategy(rng, game, 3))
    assert str(excinfo.value) == message


def test_a_failing_gadget_rounding_raises_as_perturb_two(monkeypatch):
    # Lower the distance multiplier between the ratios of two gadgets, so
    # that a later gadget fails and gadget 0 does not: the batch must raise
    # for the first failing gadget exactly what perturb_two raises for it.
    rng = np.random.default_rng(3)
    game = random_game(rng, 2, 4, 0.5)
    graph = build_graph(game)
    strategy = random_strategy(rng, game, 6)
    pairs = [(strategy.stack[x - 1, a - 1], strategy.stack[y - 1, b - 1]) for a, b, x, y in (o.tup for o in reference_name_views(graph).orthos)]
    distances = [reference_two_norm(e_b - reference_perturb_two(e_a, e_b)) for e_a, e_b in pairs]
    overlaps = [reference_two_norm(e_a @ e_b) for e_a, e_b in pairs]
    ratios = [lhs / rhs if rhs > 1e-6 else 0.0 for lhs, rhs in zip(distances, overlaps)]
    factor = (ratios[0] + max(ratios)) / 2.0
    failing = [i for i, (lhs, rhs) in enumerate(zip(distances, overlaps)) if factor * rhs - lhs < -1e-9]
    assert failing and failing[0] > 0
    monkeypatch.setattr(rounding, "PERTURB_TWO_FACTOR", factor)
    with pytest.raises(BoundViolation) as expected:
        perturb_two(*pairs[failing[0]])
    assert "perturbed-projection distance" in str(expected.value)
    with pytest.raises(BoundViolation) as raised:
        forward_translate(game, graph, strategy)
    assert str(raised.value) == str(expected.value)


def reference_two_norm(m) -> float:
    return float(np.linalg.norm(m)) / np.sqrt(m.shape[0])


def assert_same_translation(game, graph, strategy) -> None:
    cs = forward_translate(game, graph, strategy)
    names, stack = reference_forward_translate(game, graph, strategy)
    assert cs.keys == names
    assert cs.stack.tobytes() == stack.tobytes()  # bit for bit, the sign of a zero included


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=5),
    d=st.integers(min_value=1, max_value=6),
    p=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_translation_matches_the_vertex_by_vertex_reference(n, m, d, p, seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, n, m, p)
    assert_same_translation(game, build_graph(game), random_strategy(rng, game, d))


def _miswired(graph, spoil: str, k: int):
    """A copy of ``graph`` with one gluing wired wrong: a block's v(1,2)
    onto C instead of B, a gadget's q(1,2) onto the other hub, or its
    q(1,1) onto the answer cell its q(2,2) is glued to."""
    if spoil == "block" or not len(graph.ortho_rows):
        rows = graph.block_rows.copy()
        rows[k % len(rows), _CELL[(1, 2)]] = _C
        return replace(graph, block_rows=rows)
    rows, k = graph.ortho_rows.copy(), k % len(graph.ortho_rows)
    if spoil == "hub":
        rows[k, _CELL[(1, 2)]] = _B + _C - rows[k, _CELL[(1, 2)]]
    else:
        rows[k, _CELL[(1, 1)]] = rows[k, _CELL[(2, 2)]]
    return replace(graph, ortho_rows=rows)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=5),
    d=st.integers(min_value=1, max_value=4),
    p=st.floats(min_value=0.0, max_value=0.6),
    spoil=st.sampled_from(["block", "hub", "answer"]),
    k=st.integers(min_value=0, max_value=10**6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_the_operator_table_matches_the_slot_by_slot_scatter(n, m, d, p, spoil, k, seed):
    # The stack gathered from the table is the scattered stack bit for bit,
    # and a gluing wired wrong raises the scatter's message.  A wrong block
    # gluing always fails; a gadget's may meet equal operators and pass.
    rng = np.random.default_rng(seed)
    game = random_game(rng, n, m, p)
    graph = build_graph(game)
    strategy = random_strategy(rng, game, d)
    names, stack = reference_scattered_coloring(game, graph, strategy)
    cs = forward_translate(game, graph, strategy)
    assert cs.keys == names and cs.stack.tobytes() == stack.tobytes()
    miswired = _miswired(graph, spoil, k)
    want = raised_message(lambda: reference_scattered_coloring(game, miswired, strategy))
    assert raised_message(lambda: forward_translate(game, miswired, strategy)) == want
    if spoil == "block" or not len(graph.ortho_rows):
        assert want.startswith("gluing inconsistency at C (block alpha=")


GOLDEN = Path(__file__).parent / "golden"
NAMED_GAMES = {
    "minimal": minimal_game,
    "triangle": triangle_coloring_game,
    "golden": lambda: load_game(GOLDEN / "game.json"),
    "golden10": lambda: load_game(GOLDEN / "game10.json"),
}


def with_negative_zeros(strategy) -> GameStrategy:
    """The strategy with each zero entry spelled -0.0: a partial sum that
    does not start from +0.0 keeps such a sign, which a written file shows."""
    return GameStrategy(strategy.d, {x: [np.where(m == 0, -0.0, m) for m in mats] for x, mats in zip(strategy.keys, strategy.stack)})


@pytest.mark.parametrize("name", NAMED_GAMES)
@pytest.mark.parametrize("d", [1, 4, 16])
def test_translation_of_the_named_games_matches_the_reference(name, d):
    game = NAMED_GAMES[name]()
    answers = tuple(x % game.m + 1 for x in range(game.n))
    strategies = [random_strategy(np.random.default_rng(d), game, d), deterministic_strategy(game, answers)]
    if name == "golden":
        strategies.append(load_game_strategy(GOLDEN / "strategy.json"))
    graph = build_graph(game)
    for strategy in strategies + [with_negative_zeros(s) for s in strategies]:
        assert_same_translation(game, graph, strategy)


def test_forward_command_builds_no_name_views(monkeypatch, tmp_path, capsys):
    from gadgetgraph import cli

    built = []
    monkeypatch.setattr(cli, "build_graph", lambda game: built.append(build_graph(game)) or built[-1])
    for name in ("game.json", "strategy.json"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    argv = ["forward", str(tmp_path / "game.json"), str(tmp_path / "strategy.json")]
    assert cli.main(argv) == 0
    assert "coloring value" in capsys.readouterr().out
    (graph,) = built
    assert "edges" not in vars(graph)


def test_a_coloring_is_held_on_its_strategy(monkeypatch, rng, min_game, min_graph, tri_game):
    strategy = random_strategy(rng, min_game, 3)
    cs = forward_translate(min_game, min_graph, strategy)
    calls = []
    monkeypatch.setattr(forward, "_pvm_defects", spying(calls, forward._pvm_defects))
    assert forward_translate(min_game, min_graph, strategy) is cs
    assert forward_translate(strategy=strategy, game=min_game, graph=min_graph) is cs
    assert calls == []  # a repeat checks nothing and builds nothing
    # A hit never hides a mismatch: another game is another key, and checked.
    with pytest.raises(ValidationError, match="graph was compiled from a different game"):
        forward_translate(tri_game, min_graph, strategy)
    assert forward_translate(min_game, min_graph, strategy) is cs  # the raise replaced nothing
    # An equal graph or game is another object: built anew, and it replaces the entry.
    other_graph, other_game = build_graph(min_game), minimal_game()
    again = forward_translate(min_game, other_graph, strategy)
    assert again is not cs and np.array_equal(again.stack, cs.stack) and len(calls) == 1
    assert forward_translate(min_game, other_graph, strategy) is again
    assert forward_translate(other_game, other_graph, strategy) is not again
    assert forward_translate(min_game, min_graph, strategy) is not cs
    assert len(calls) == 3
    # A call that raises holds nothing.
    fresh = random_strategy(rng, min_game, 3)
    with pytest.raises(ValidationError, match="graph was compiled from a different game"):
        forward_translate(tri_game, min_graph, fresh)
    assert set(vars(fresh)) == {"d", "keys", "stack"}


def test_a_value_is_held_on_its_coloring(monkeypatch, rng, min_game, min_graph):
    cs = forward_translate(min_game, min_graph, random_strategy(rng, min_game, 3))
    report = coloring_value(min_graph, cs)
    calls = []
    monkeypatch.setattr(forward, "_overlaps", spying(calls, forward._overlaps))
    assert coloring_value(min_graph, cs) is report
    assert coloring_value(min_graph, cs=cs) is report
    assert calls == []
    other = build_graph(min_game)
    assert coloring_value(other, cs) is not report
    assert coloring_value(other, cs).value == report.value and len(calls) == 1
    assert coloring_value(min_graph, cs) is not report and len(calls) == 2
    pruned = ColoringStrategy(cs.d, {k: list(v) for k, v in by_key(cs).items() if k != "B"})
    with pytest.raises(ValidationError, match="lacks PVMs"):
        coloring_value(min_graph, pruned)
    assert set(vars(pruned)) == {"d", "keys", "stack"}


def test_a_forward_command_translates_and_checks_once(monkeypatch, tmp_path, capsys):
    from gadgetgraph import cli

    checks, built = [], []
    monkeypatch.setattr(forward, "_require_indexed_family", spying(checks, forward._require_indexed_family))
    monkeypatch.setattr(forward, "_prebuilt", spying(built, forward._prebuilt))
    for name in ("game.json", "strategy.json"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    argv = ["forward", str(tmp_path / "game.json"), str(tmp_path / "strategy.json")]
    assert cli.main(argv) == 0
    assert "coloring value" in capsys.readouterr().out
    assert len(checks) == 1 and len(built) == 1  # one output PVM check, one ColoringStrategy


def test_ortho_gadget_losses_accounting(rng, min_game, min_graph):
    strategy = random_strategy(rng, min_game, 4)
    cs = forward_translate(min_game, min_graph, strategy)
    losses = ortho_gadget_losses(min_game, min_graph, strategy, cs)
    assert sorted(g.tup for g in losses) == [(1, 3, 1, 1), (3, 1, 1, 1)]
    for gadget in losses:
        a, b, x, y = gadget.tup
        expected_p = reference_tau(strategy.stack[x - 1, a - 1], strategy.stack[y - 1, b - 1])
        assert gadget.probability == pytest.approx(expected_p, abs=1e-12)
        assert gadget.loss >= -1e-12
        gadget.report.require(tol=1e-9)
        assert gadget.report.rhs == pytest.approx(GADGET_LOSS_FACTOR * gadget.probability)


def test_ortho_gadget_losses_rejects_mismatched_inputs(min_game, min_graph, tri_game, tri_graph):
    strategy = deterministic_strategy(tri_game, (1, 2, 3))
    cs = forward_translate(tri_game, tri_graph, strategy)
    with pytest.raises(ValidationError, match="graph was compiled from a different game"):
        ortho_gadget_losses(tri_game, min_graph, strategy, cs)
    with pytest.raises(ValidationError, match="missing questions"):
        ortho_gadget_losses(tri_game, tri_graph, deterministic_strategy(min_game, (1,)), cs)
    wide = deterministic_strategy(sync_only_game(4), (1,))
    with pytest.raises(ValidationError, match="4-outcome PVMs, game has m=3"):
        ortho_gadget_losses(tri_game, tri_graph, wide, cs)
    gadget_cell = reference_name_views(tri_graph).orthos[0].cells[(1, 1)]
    pruned = {k: list(v) for k, v in by_key(cs).items() if k != gadget_cell}
    with pytest.raises(ValidationError, match=re.escape(f"lacks PVMs for 1 graph vertices, first {gadget_cell!r}")):
        ortho_gadget_losses(tri_game, tri_graph, strategy, ColoringStrategy(d=1, pvms=pruned))


DIFFERENT_GAME_ENTRY_POINTS = {
    "forward_translate": lambda game, graph, strategy, cs: forward_translate(game, graph, strategy),
    "certify_forward": lambda game, graph, strategy, cs: certify_forward(game, graph, strategy),
    "ortho_gadget_losses": ortho_gadget_losses,
    "certify_reverse_lemmas": lambda game, graph, strategy, cs: certify_reverse_lemmas(game, graph, cs),
    "reverse_translate": lambda game, graph, strategy, cs: reverse_translate(game, graph, cs),
}


@pytest.mark.parametrize("entry", DIFFERENT_GAME_ENTRY_POINTS.values(), ids=DIFFERENT_GAME_ENTRY_POINTS)
def test_entry_points_reject_a_graph_of_a_different_game_alike(entry, min_graph, tri_game, tri_graph):
    # Inputs that fit tri_game, with the graph of another game.
    strategy = triangle_strategy()
    cs = forward_translate(tri_game, tri_graph, strategy)
    with pytest.raises(ValidationError) as excinfo:
        entry(tri_game, min_graph, strategy, cs)
    assert str(excinfo.value) == "graph was compiled from a different game"


def test_forward_rejects_mismatched_inputs(min_game, min_graph, tri_game, tri_graph):
    strategy = deterministic_strategy(min_game, (1,))
    with pytest.raises(ValidationError, match="different game"):
        forward_translate(tri_game, min_graph, strategy)
    with pytest.raises(ValidationError, match="missing questions"):
        forward_translate(tri_game, tri_graph, strategy)
    wide = deterministic_strategy(sync_only_game(4), (1,))
    with pytest.raises(ValidationError, match="outcome"):
        forward_translate(min_game, min_graph, wide)


def test_coloring_value_requires_full_cover(min_graph):
    partial = forward_translate(
        min_graph.game, min_graph, deterministic_strategy(min_graph.game, (1,))
    )
    pruned = {k: list(v) for k, v in by_key(partial).items() if k != "A"}
    from gadgetgraph.games import ColoringStrategy

    with pytest.raises(ValidationError, match="lacks PVMs for 1 graph vertices, first 'A'"):
        coloring_value(min_graph, ColoringStrategy(d=1, pvms=pruned))


@pytest.mark.parametrize("d", [1, 3, 8])
def test_input_defect_is_the_per_question_maximum_bit_for_bit(d):
    # One stack pass over the (n, m, d, d) strategy must give the largest
    # per-PVM defect exactly, so that the gluing tolerance does not move.
    rng = np.random.default_rng(d)
    game = random_game(rng, 5, 4)
    strategy = random_strategy(rng, game, d)
    want = max(reference_pvm_defect(strategy.stack[x - 1]) for x in range(1, game.n + 1))
    assert forward._check_inputs(game, build_graph(game), strategy) == want
