"""Property tests of the whole pipeline over small random games.

Games have n <= 3 questions, m <= 5 answers and strategies d <= 6: the
forward certificate holds for every strategy, a perfect deterministic
strategy survives the round trip through the gadget graph at value 1, and
the compiled edge count is the closed-form census.

The round trip is also an exact oracle for any strategy S, lossy or not:
``reverse_translate(forward_translate(S))`` is I_6 (x) S, operator by
operator, with off-diagonal blocks exactly 0, so the recovered value is the
input's.  It checks the symmetrization, the sandwiches, the rounding and the
output layout against the input itself.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from gadgetgraph import cli
from gadgetgraph.forward import certify_forward, coloring_value, forward_translate
from gadgetgraph.games import (
    PriorDistribution, SyncGame, load_game_strategy, save_game, sync_value, write_strategy_json,
)
from gadgetgraph.graphs import build_graph, edge_count_formula
from gadgetgraph.instances import deterministic_strategy, random_game, random_strategy
from gadgetgraph.reverse import reverse_translate

SLACK_TOL = 1e-9


def round_trip_tol(d: int) -> float:
    """Allowed entry difference of the round trip from I_6 (x) S: 36 d u, six
    times the scale n u of ``eigh``'s backward error at n = 6d, u = 2^-53.
    A margin, not a proof: 150 random cases (d <= 4) stayed within 10.3 u,
    and a misplaced sandwich or block moves an entry by order 1."""
    return 36 * d * 2.0**-53


def assert_six_copies(recovered, strategy, n: int, m: int, d: int) -> None:
    """``recovered`` is I_6 (x) S for every operator S of ``strategy``."""
    blocks = recovered.stack.reshape(n, m, 6, d, 6, d)
    off = ~np.eye(6, dtype=bool)
    assert not blocks.transpose(0, 1, 2, 4, 3, 5)[:, :, off].any()  # exactly 0
    expected = np.kron(np.eye(6), strategy.stack[:n])  # (n, m, 6d, 6d)
    assert np.abs(recovered.stack - expected).max() <= round_trip_tol(d)

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


@settings(max_examples=15, deadline=None)
@given(d=st.integers(min_value=1, max_value=4), **small_games)
def test_the_round_trip_is_six_copies_of_the_input(n, m, d, seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, n, m)
    graph = build_graph(game)
    strategy = random_strategy(rng, game, d)
    recovered = reverse_translate(game, graph, forward_translate(game, graph, strategy))
    assert (recovered.keys, recovered.d) == (strategy.keys[:n], 6 * d)
    assert_six_copies(recovered, strategy, n, m, d)


def test_the_command_line_round_trip_prints_the_input_value(tmp_path, capsys):
    rng = np.random.default_rng(5)
    game = random_game(rng, 2, 3)
    strategy = random_strategy(rng, game, 2)
    save_game(game, tmp_path / "game.json")
    write_strategy_json(strategy, tmp_path / "s.json")
    assert cli.main(["forward", str(tmp_path / "game.json"), str(tmp_path / "s.json")]) == 0
    assert cli.main(["reverse", str(tmp_path / "game.json"), str(tmp_path / "s.coloring.json")]) == 0
    value = sync_value(game, strategy, PriorDistribution.uniform_questions(2)).value
    assert value < 1.0  # lossy
    assert re.search(f"^game value: {cli._fmt(value)}$", capsys.readouterr().out, re.M)
    assert_six_copies(load_game_strategy(tmp_path / "s.coloring.strategy.json"), strategy, 2, 3, 2)
