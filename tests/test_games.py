import json
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_tau
from gadgetgraph import forward, games, maxcut, reverse, rounding
from gadgetgraph.errors import ValidationError
from gadgetgraph.games import (
    ColoringStrategy,
    GameStrategy,
    PriorDistribution,
    SyncGame,
    _prebuilt,
    coloring_game,
    game_to_json,
    load_coloring_strategy,
    load_game,
    load_game_strategy,
    partition_losing,
    sync_value,
    write_strategy_json,
)
from gadgetgraph.forward import forward_translate
from gadgetgraph.graphs import build_graph
from gadgetgraph.instances import (
    deterministic_strategy,
    minimal_game,
    random_game,
    random_order3_family,
    random_strategy,
    triangle_coloring_game,
    triangle_strategy,
)
from gadgetgraph.linalg import random_pvm
from gadgetgraph.maxcut import SimpleGraph, cycle_graph, roots_identity_check, value_bridge
from gadgetgraph.reverse import symmetrize


SYNCHRONY_1Q = frozenset((a, b, 1, 1) for a in (1, 2, 3) for b in (1, 2, 3) if a != b)


def test_minimal_game_shape(min_game):
    assert min_game.n == 1 and min_game.m == 3
    assert len(min_game.losing) == 6


def test_synchrony_must_be_explicit():
    # The constructor validates rather than repairs: leaving out one
    # same-question losing pair is an error, not an implied default.
    broken = set(SYNCHRONY_1Q)
    broken.remove((2, 1, 1, 1))
    with pytest.raises(ValidationError, match="synchron"):
        SyncGame(n=1, m=3, losing=frozenset(broken))


@pytest.mark.parametrize("n,m", [(0, 3), (1, 2), (-1, 3)])
def test_bad_counts_rejected(n, m):
    with pytest.raises(ValidationError):
        SyncGame(n=n, m=m, losing=frozenset())


def test_out_of_range_tuple_rejected():
    with pytest.raises(ValidationError):
        SyncGame(n=1, m=3, losing=SYNCHRONY_1Q | {(1, 4, 1, 1)})


@pytest.mark.parametrize("entry", [0, 2])
def test_boolean_index_rejected(entry):
    # JSON true is a Python int; as a question it used to crash compile.
    raw = [1, 1, 1, 2]
    raw[entry] = True
    with pytest.raises(ValidationError, match="integers"):
        load_game(json.dumps({"n": 2, "m": 3, "losing": [raw]}))
    with pytest.raises(ValidationError, match="integers"):
        SyncGame(n=2, m=3, losing=frozenset({tuple(raw)}))
    with pytest.raises(ValidationError, match="integer"):
        SyncGame(n=True, m=3, losing=SYNCHRONY_1Q)


def test_load_game_rejects_duplicates(tmp_path):
    payload = {
        "n": 1,
        "m": 3,
        "losing": [list(t) for t in sorted(SYNCHRONY_1Q)] + [[1, 2, 1, 1]],
    }
    target = tmp_path / "dup.json"
    target.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="duplicate"):
        load_game(target)


def test_game_json_round_trip(tmp_path):
    game = random_game(np.random.default_rng(5), 2, 4)
    target = tmp_path / "g.json"
    target.write_text(json.dumps(game_to_json(game)))
    assert load_game(target) == game


def test_partition_of_minimal_game(min_game):
    part = partition_losing(min_game)
    # answers 1 and 3 are the endpoints of {1,2,3}: two losing pairs sit
    # entirely on them, none entirely inside, four straddle.
    assert len(part.e_set) == 2
    assert len(part.f_set) == 0
    assert len(part.rest) == 4
    assert all(t[0] != t[1] for t in part.rest)


def test_partition_m5_spot_checks():
    losing = {(a, b, x, x) for x in (1,) for a in range(1, 6) for b in range(1, 6) if a != b}
    game = SyncGame(n=1, m=5, losing=frozenset(losing))
    part = partition_losing(game)
    assert (1, 5, 1, 1) in part.e_set
    assert (2, 4, 1, 1) in part.f_set
    assert (1, 2, 1, 1) in part.rest
    assert len(part.e_set) + len(part.f_set) + len(part.rest) == len(losing)


def test_uniform_questions_prior():
    prior = PriorDistribution.uniform_questions(3)
    weights = dict(prior.weights)
    assert len(weights) == 9
    assert all(w == pytest.approx(1 / 9) for w in weights.values())
    assert math.fsum(weights.values()) == pytest.approx(1.0)


def test_uniform_edges_prior():
    prior = PriorDistribution.uniform_edges(((1, 2), (2, 3)))
    weights = dict(prior.weights)
    assert weights[(1, 2)] == pytest.approx(1 / 4)
    assert weights[(2, 1)] == pytest.approx(1 / 4)
    assert len(weights) == 4


def test_uniform_edges_rejects_loop():
    with pytest.raises(ValidationError):
        PriorDistribution.uniform_edges(((1, 1),))


def test_game_strategy_rejects_non_pvm():
    half = 0.5 * np.eye(2)
    with pytest.raises(ValidationError):
        GameStrategy(d=2, pvms={1: [half, half, np.zeros((2, 2))]})


def test_coloring_strategy_needs_three_outcomes():
    with pytest.raises(ValidationError, match="outcomes"):
        ColoringStrategy(d=1, pvms={"A": [np.eye(1), np.zeros((1, 1))]})


def test_strategy_matrices_are_write_locked(min_game, min_graph):
    strategy = deterministic_strategy(min_game, (1,))
    coloring = forward_translate(min_game, min_graph, strategy)
    one = np.eye(1, dtype=np.complex128)
    GameStrategy(d=1, pvms={1: [one, 0 * one, 0 * one]})
    assert one.flags.writeable  # the validating constructor copies
    prebuilt = _prebuilt(GameStrategy, 1, {1: [one, 0 * one, 0 * one]})
    # The validating constructor, then the unchecked path of the package's
    # own producers: forward translation, symmetrization, and a direct call.
    for s, key in ((strategy, 1), (coloring, "A"), (symmetrize(coloring), "A"), (prebuilt, 1)):
        assert all(isinstance(mats, tuple) for mats in s.pvms.values())
        with pytest.raises(ValueError):
            s.pvms[key][0][0, 0] = 5.0
    assert not one.flags.writeable  # handed over, not copied


def test_perfect_minimal_value(min_game):
    strategy = deterministic_strategy(min_game, (3,))
    report = sync_value(min_game, strategy, PriorDistribution.uniform_questions(1))
    assert report.value == pytest.approx(1.0, abs=1e-12)
    assert report.lost_mass == pytest.approx(0.0, abs=1e-12)


def test_value_plus_lost_mass_is_one(rng):
    # The report accumulates winning terms and losing terms separately;
    # their masses must recombine to the prior's total.
    game = random_game(rng, 2, 3)
    strategy = random_strategy(rng, game, 3)
    report = sync_value(game, strategy, PriorDistribution.uniform_questions(2))
    assert report.value + report.lost_mass == pytest.approx(1.0, abs=1e-12)
    assert all(e.weight > 0 for e in report.losses)


def test_sync_identity_same_question(rng):
    # tau(E_a E_b) at a shared question is the synchronous correlation;
    # for an exact PVM it vanishes off the diagonal to machine precision.
    game = minimal_game()
    strategy = random_strategy(rng, game, 4)
    for a in range(3):
        for b in range(3):
            p = reference_tau(strategy.pvms[1][a], strategy.pvms[1][b])
            if a != b:
                assert abs(p) < 1e-12
            else:
                assert p >= -1e-12


def test_triangle_coloring_game_census(tri_game):
    # 3 questions x 6 synchrony pairs, plus 3 edges x 2 orders x 3 colors.
    assert tri_game.n == 3 and tri_game.m == 3
    assert len(tri_game.losing) == 18 + 18
    assert (1, 1, 1, 2) in tri_game.losing
    assert (1, 2, 1, 2) not in tri_game.losing


def test_coloring_game_rejects_bad_vertex():
    with pytest.raises(ValidationError):
        coloring_game(((1, 4),), 3)


def test_triangle_strategy_is_perfect(tri_game):
    report = sync_value(tri_game, triangle_strategy(), PriorDistribution.uniform_questions(3))
    assert report.value == pytest.approx(1.0, abs=1e-12)


def test_game_strategy_json_round_trip(rng, tmp_path):
    game = minimal_game()
    strategy = random_strategy(rng, game, 3)
    write_strategy_json(strategy, tmp_path / "s.json")
    back = load_game_strategy(tmp_path / "s.json")
    assert back.d == 3
    for x in strategy.pvms:
        for a, mat in enumerate(strategy.pvms[x]):
            assert np.array_equal(back.pvms[x][a], mat)


def test_coloring_strategy_json_round_trip(rng, tmp_path):
    cs = ColoringStrategy(
        d=2,
        pvms={"A": [np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]},
    )
    write_strategy_json(cs, tmp_path / "c.json")
    back = load_coloring_strategy(tmp_path / "c.json")
    assert back.vertices == ("A",)
    assert np.array_equal(back.pvms["A"][0], np.eye(2))


# ---------------------------------------------------------------------------
# the streaming strategy writer


def _indented_reference(strategy) -> str:
    # The file format spelled out with the json module: each matrix a
    # row-major list of [re, im] pairs, keys as strings.
    pvms = {
        str(key): [np.ascontiguousarray(m).view(np.float64).reshape(-1, 2).tolist() for m in mats]
        for key, mats in strategy.pvms.items()
    }
    return json.dumps({"d": strategy.d, "pvms": pvms}, indent=2, sort_keys=True) + "\n"


def _assert_writer_matches(strategy, path) -> str:
    write_strategy_json(strategy, path)
    text = path.read_text()
    assert text == _indented_reference(strategy)
    return text


def test_writer_sorts_question_keys_as_strings(tmp_path):
    rng = np.random.default_rng(5)
    strategy = GameStrategy(d=2, pvms={x: list(random_pvm(rng, 2, 3)) for x in range(1, 13)})
    text = _assert_writer_matches(strategy, tmp_path / "s.json")
    assert text.index('"10"') < text.index('"2"')


def test_writer_dimension_one(tmp_path):
    _assert_writer_matches(deterministic_strategy(minimal_game(), (2,)), tmp_path / "s.json")


def test_writer_forward_coloring(tmp_path, min_game, min_graph):
    cs = forward_translate(min_game, min_graph, deterministic_strategy(min_game, (1,)))
    _assert_writer_matches(cs, tmp_path / "c.json")


def test_writer_spells_signed_zero_and_full_precision(tmp_path):
    c2 = 0.1 + 0.2  # 0.30000000000000004: 17 significant digits
    cs = math.sqrt(c2 * (1.0 - c2))
    p = np.array([[c2, cs], [cs, 1.0 - c2]], dtype=np.complex128)
    e = np.array([[1.0, -0.0], [complex(-0.0, -0.0), 0.0]])
    z = np.zeros((2, 2))
    strategy = GameStrategy(d=2, pvms={1: [p, np.eye(2) - p, z], 2: [e, np.eye(2) - e, z]})
    text = _assert_writer_matches(strategy, tmp_path / "s.json")
    assert "0.30000000000000004" in text and "-0.0" in text and "1.0" in text


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=4),
    d=st.integers(min_value=1, max_value=6),
    names=st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3, unique=True),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_writer_matches_indented_json(tmp_path_factory, n, m, d, names, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("writer") / "s.json"
    game_pvms = {x: list(random_pvm(rng, d, m)) for x in range(1, n + 1)}
    _assert_writer_matches(GameStrategy(d=d, pvms=game_pvms), path)
    coloring_pvms = {v: list(random_pvm(rng, d, 3)) for v in names}
    _assert_writer_matches(ColoringStrategy(d=d, pvms=coloring_pvms), path)


# ---------------------------------------------------------------------------
# validate once: package-built strategies skip the constructor's re-check


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=5),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_unchecked_strategies_pass_the_validating_constructor(n, m, d, seed):
    # Every strategy the four producers build unchecked is handed to the full
    # validating constructor as well, which must accept it and freeze the
    # same arrays: the skipped check could not have failed.
    built = []

    def validating(cls, dim, pvms):
        checked, unchecked = cls(d=dim, pvms=pvms), _prebuilt(cls, dim, pvms)
        assert list(checked.pvms) == list(unchecked.pvms)
        for key, mats in checked.pvms.items():
            assert all(np.array_equal(a, b) for a, b in zip(mats, unchecked.pvms[key], strict=True))
        built.append(cls)
        return unchecked

    rng = np.random.default_rng(seed)
    game = random_game(rng, n, m)
    coloring = ColoringStrategy(d=d, pvms={f"v{i}": list(random_pvm(rng, d, 3)) for i in range(4)})
    edges = {(1, 2)} | {e for e in combinations(range(1, m + 1), 2) if rng.random() < 0.5}
    g = SimpleGraph(m, tuple(sorted(edges)))
    with pytest.MonkeyPatch.context() as mp:
        for module in (forward, reverse, maxcut):
            mp.setattr(module, "_prebuilt", validating)
        forward_translate(game, build_graph(game), random_strategy(rng, game, d))
        symmetrize(coloring)
        value_bridge(g)
        roots_identity_check(g, random_order3_family(rng, g, d))
    assert built == [ColoringStrategy] * 2 + [GameStrategy] * (3**m + 1)


def test_package_built_strategies_are_validated_once(monkeypatch, tmp_path, min_game, min_graph):
    strategy = random_strategy(np.random.default_rng(3), min_game, 3)
    coloring = forward_translate(min_game, min_graph, strategy)
    write_strategy_json(coloring, tmp_path / "c.json")
    calls, real = [], games.require_pvm

    def counting(mats, *args, **kwargs):
        calls.append(len(mats))
        return real(mats, *args, **kwargs)

    monkeypatch.setattr(games, "require_pvm", counting)
    monkeypatch.setattr(forward, "require_pvm", counting)
    forward_translate(min_game, min_graph, strategy)
    assert len(calls) == min_graph.n_vertices  # forward's own loop, nothing more
    calls.clear()
    symmetrize(coloring)
    value_bridge(cycle_graph(5))
    assert calls == []
    load_coloring_strategy(tmp_path / "c.json")
    assert len(calls) == len(coloring.pvms)  # the loader still checks every key


def test_forward_rounds_strategy_outcomes_without_rechecking_them(
    monkeypatch, rng, min_game, min_graph
):
    strategy = random_strategy(rng, min_game, 3)
    calls, real = [], rounding.require_projection

    def counting(m, *args, **kwargs):
        calls.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(rounding, "require_projection", counting)
    forward_translate(min_game, min_graph, strategy)
    assert calls == []  # the strategy's outcomes were validated when it was built
    rounding.perturb_two(strategy.pvms[1][0], strategy.pvms[1][2])
    assert len(calls) == 2  # the public entry point still checks both inputs
