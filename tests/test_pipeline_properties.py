"""Property tests of the whole pipeline over small random games.

Games have n <= 3 questions, m <= 5 answers and strategies d <= 6: the
forward certificate holds for every strategy, a perfect deterministic
strategy survives the round trip through the gadget graph at value 1, and
the compiled edge count is the closed-form census.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gadgetgraph.forward import certify_forward, coloring_value, forward_translate
from gadgetgraph.games import PriorDistribution, SyncGame, sync_value
from gadgetgraph.graphs import build_graph, edge_count_formula
from gadgetgraph.instances import deterministic_strategy, random_game, random_strategy
from gadgetgraph.reverse import reverse_translate

SLACK_TOL = 1e-9

small_games = dict(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


@settings(max_examples=25, deadline=None)
@given(d=st.integers(min_value=1, max_value=6), **small_games)
def test_forward_certificate_holds(n, m, d, seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, n, m)
    report = certify_forward(game, build_graph(game), random_strategy(rng, game, d))
    assert report.slack >= -SLACK_TOL, report.context


@settings(max_examples=15, deadline=None)
@given(**small_games)
def test_perfect_deterministic_strategy_round_trips(n, m, seed):
    # Drop from a random game every cross-question tuple that the drawn
    # answers would lose, so answering them is a perfect strategy.
    rng = np.random.default_rng(seed)
    answers = tuple(int(a) for a in rng.integers(1, m + 1, size=n))
    drawn = random_game(rng, n, m)
    kept = (t for t in drawn.losing if t[:2] != (answers[t[2] - 1], answers[t[3] - 1]))
    game = SyncGame(n=n, m=m, losing=frozenset(kept))
    prior = PriorDistribution.uniform_questions(n)
    strategy = deterministic_strategy(game, answers)
    assert sync_value(game, strategy, prior).value == 1.0
    graph = build_graph(game)
    cs = forward_translate(game, graph, strategy)
    assert abs(coloring_value(graph, cs).value - 1.0) <= 1e-10
    recovered = sync_value(game, reverse_translate(game, graph, cs), prior).value
    assert abs(recovered - 1.0) <= 1e-8


@settings(max_examples=25, deadline=None)
@given(**small_games)
def test_edge_census(n, m, seed):
    game = random_game(np.random.default_rng(seed), n, m)
    graph = build_graph(game)
    report = graph.report
    assert report.formula == edge_count_formula(game)
    assert graph.n_edges == report.formula + report.delta_correction - report.duplicate_slots
    helpers.assert_edge_accounting(game, graph)
