import numpy as np
import pytest

from helpers import reference_tau
from gadgetgraph.errors import ValidationError
from gadgetgraph.forward import (
    FORWARD_FACTOR,
    GADGET_LOSS_FACTOR,
    certify_forward,
    coloring_value,
    forward_translate,
    interval_sum,
    ortho_gadget_losses,
)
from gadgetgraph.games import (
    GameStrategy,
    PriorDistribution,
    SyncGame,
    coloring_game,
    sync_value,
)
from gadgetgraph.graphs import build_graph, vhat
from gadgetgraph.instances import (
    deterministic_strategy,
    minimal_game,
    random_strategy,
    triangle_strategy,
)


def sync_only_game(m: int) -> SyncGame:
    losing = frozenset((a, b, 1, 1) for a in range(1, m + 1) for b in range(1, m + 1) if a != b)
    return SyncGame(n=1, m=m, losing=losing)


def test_interval_sum_basics(rng, min_game):
    strategy = random_strategy(rng, min_game, 3)
    full = interval_sum(strategy, 1, 3, 1)
    assert np.allclose(full, np.eye(3), atol=1e-12)
    empty = interval_sum(strategy, 3, 2, 1)
    assert np.count_nonzero(empty) == 0
    with pytest.raises(ValidationError, match="out of range"):
        interval_sum(strategy, 0, 2, 1)
    with pytest.raises(ValidationError, match="no question"):
        interval_sum(strategy, 1, 2, 9)


def test_perfect_minimal_translates_to_perfect_coloring(min_game, min_graph):
    strategy = deterministic_strategy(min_game, (2,))
    cs = forward_translate(min_game, min_graph, strategy)
    assert cs.d == 1
    assert set(cs.vertices) == set(min_graph.vertices)
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
    edges = tuple((index[u], index[v]) for u, v in min_graph.edges)
    relabeled = coloring_game(edges, min_graph.n_vertices)
    as_game_strategy = GameStrategy(
        d=cs.d, pvms={index[name]: list(cs.pvms[name]) for name in min_graph.vertices}
    )
    routed = sync_value(relabeled, as_game_strategy, PriorDistribution.uniform_edges(edges))
    assert direct.value == pytest.approx(routed.value, abs=1e-12)
    assert direct.lost_mass == pytest.approx(routed.lost_mass, abs=1e-12)


def test_vhat_color_one_recovers_the_answer_projections(rng):
    # The color-1 projection at every answer vertex must be exactly the
    # corresponding outcome of the input PVM, whichever block realizes it.
    game = sync_only_game(4)
    graph = build_graph(game)
    strategy = random_strategy(rng, game, 3)
    cs = forward_translate(game, graph, strategy)
    for a in range(1, 5):
        name = graph.resolve(vhat(a, 1, 4))
        assert np.allclose(cs.pvms[name][0], strategy.pvms[1][a - 1], atol=1e-12)


def test_certify_forward_random_sweep():
    rng = np.random.default_rng(77)
    games = [sync_only_game(3), coloring_game(((1, 2),), 2)]
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
    real = forward._block_colors

    def off_by_one(strategy, alpha, x):
        cells, t1, t3 = real(strategy, alpha, x)
        c1, c2, c3 = cells[(1, 2)]  # glued onto the control vertex B
        cells[(1, 2)] = (c2, c1, c3)
        return cells, t1, t3

    monkeypatch.setattr(forward, "_block_colors", off_by_one)
    with pytest.raises(ValidationError, match=r"at B \(block alpha=1 x=1, cell \(1, 2\), color 1\)"):
        forward_translate(game, graph, random_strategy(rng, game, 3))


def test_ortho_gadget_losses_accounting(rng, min_game, min_graph):
    strategy = random_strategy(rng, min_game, 4)
    cs = forward_translate(min_game, min_graph, strategy)
    losses = ortho_gadget_losses(min_game, min_graph, strategy, cs)
    assert sorted(g.tup for g in losses) == [(1, 3, 1, 1), (3, 1, 1, 1)]
    for gadget in losses:
        a, b, x, y = gadget.tup
        expected_p = reference_tau(strategy.pvms[x][a - 1], strategy.pvms[y][b - 1])
        assert gadget.probability == pytest.approx(expected_p, abs=1e-12)
        assert gadget.loss >= -1e-12
        gadget.report.require(tol=1e-9)
        assert gadget.report.rhs == pytest.approx(GADGET_LOSS_FACTOR * gadget.probability)


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
    pruned = {k: list(v) for k, v in partial.pvms.items() if k != "A"}
    from gadgetgraph.games import ColoringStrategy

    with pytest.raises(ValidationError, match="missing vertices"):
        coloring_value(min_graph, ColoringStrategy(d=1, pvms=pruned))
