import json
import math
import os
import re
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    OVERFLOW_MESSAGE,
    OVERFLOWING_STRATEGY,
    block_diagonal,
    by_key,
    held_arrays,
    indented_reference,
    losing_mask,
    mask_sync_value,
    raised_message,
    reference_coloring_game,
    reference_game_check,
    reference_losing_sorted,
    reference_partition_losing,
    reference_require_pvm,
    reference_tau,
    reference_uniform_edges,
)
from gadgetgraph import forward, games, linalg, maxcut, reverse, rounding
from gadgetgraph.errors import BoundViolation, ValidationError
from gadgetgraph.games import (
    QUESTION_PRIOR,
    ColoringStrategy,
    GameStrategy,
    PriorDistribution,
    SimpleGraph,
    SyncGame,
    _answer_classes,
    _prebuilt,
    coloring_game,
    game_to_json,
    load_coloring_strategy,
    load_game,
    load_game_strategy,
    save_game,
    sync_value,
    synchrony_tuples,
    write_strategy_json,
)
from gadgetgraph.forward import FORWARD_PVM_TOL, forward_translate
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
from gadgetgraph.linalg import TOL_PVM, as_matrix, random_pvm
from gadgetgraph.maxcut import cycle_graph, roots_identity_check, value_bridge
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


SYNCHRONY_ENTRIES = [list(t) for t in sorted(SYNCHRONY_1Q)]
NOT_FOUR_INTEGERS = "losing tuple {} is not a 4-tuple of integers"
QUESTIONS_1_2_1_2 = "losing tuple (1, 2, 1, 2): questions out of range 1..1"


@pytest.mark.parametrize(
    "n,entries,message",
    [
        pytest.param(1, SYNCHRONY_ENTRIES + [[1, 2, 1]], NOT_FOUR_INTEGERS.format("[1, 2, 1]"),
                     id="three-integers"),
        pytest.param(1, SYNCHRONY_ENTRIES + [[1, 2, 1, 1.5]],
                     NOT_FOUR_INTEGERS.format("[1, 2, 1, 1.5]"), id="float"),
        pytest.param(1, SYNCHRONY_ENTRIES + [[1, True, 1, 1]],
                     NOT_FOUR_INTEGERS.format("[1, True, 1, 1]"), id="bool"),
        pytest.param(1, SYNCHRONY_ENTRIES + ["abcd"], NOT_FOUR_INTEGERS.format("'abcd'"), id="str"),
        pytest.param(1, SYNCHRONY_ENTRIES + [5], NOT_FOUR_INTEGERS.format("5"), id="number"),
        pytest.param(1, SYNCHRONY_ENTRIES + [[1, 4, 1, 1]],
                     "losing tuple (1, 4, 1, 1): answers out of range 1..3", id="answer-range"),
        pytest.param(1, SYNCHRONY_ENTRIES + [[1, 2, 1, 2]], QUESTIONS_1_2_1_2, id="question-range"),
        pytest.param(1, SYNCHRONY_ENTRIES + [[1, 2, 1, 1]], "duplicate losing tuples [(1, 2, 1, 1)]",
                     id="duplicate"),
        pytest.param(1, SYNCHRONY_ENTRIES[:2] + SYNCHRONY_ENTRIES[3:],
                     "synchrony violation: (2,1,1,1) must be a losing tuple", id="synchrony"),
        # The first bad tuple in the order received is named, even when a
        # later one fails a check that comes earlier.
        pytest.param(1, SYNCHRONY_ENTRIES + [[1, 2, 1, 2], [1, 4, 1, 1]], QUESTIONS_1_2_1_2,
                     id="questions-then-answers"),
        pytest.param(1, SYNCHRONY_ENTRIES + [[1, 2, 1, 2], [1, 2, 1]], QUESTIONS_1_2_1_2,
                     id="questions-then-type"),
        # A large n with too few tuples is refused before the (n, n, m, m)
        # mask is allocated.
        pytest.param(200_000, [], "synchrony violation: (1,2,1,1) must be a losing tuple",
                     id="large-n-empty"),
    ],
)
def test_one_check_names_a_bad_game(tmp_path, n, entries, message):
    # A game file and a direct caller reach the same check, so the same
    # entries in the same order get the same message.
    target = tmp_path / "game.json"
    target.write_text(json.dumps({"n": n, "m": 3, "losing": entries}))
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        load_game(target)
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SyncGame(n, 3, entries)


def test_huge_answer_count_is_refused_without_the_mask():
    with pytest.raises(ValidationError, match=r"^synchrony violation: \(1,3,1,1\) must be"):
        SyncGame(1, 10**30, [(1, 2, 1, 1)])


@pytest.mark.parametrize(
    "n,m,entries",
    [
        pytest.param(2**70, 3, [(1, 2, 2**65, 1)], id="question-beyond-int64"),
        pytest.param(2**70, 3, [(1, 2, 2**65, 1)] * 2, id="duplicate-beyond-int64"),
        # Both round to the float 2**64: as floats they would be duplicates.
        pytest.param(2**64, 3, [(1, 2, 2**64 - 1, 1), (1, 2, 2**64 - 2, 1)], id="beyond-float"),
        pytest.param(2, 2**70, [(1, 2, 1, 1), (2, 1, 1, 1)], id="answers-beyond-int64"),
    ],
)
def test_counts_beyond_int64_get_the_per_tuple_messages(n, m, entries):
    want = raised_message(lambda: reference_game_check(n, m, entries))
    assert want is not None
    assert raised_message(lambda: SyncGame(n, m, entries)) == want


def test_synchrony_names_the_first_gap_at_every_position():
    # n = 7, m = 5, 20 required tuples per question: every seventh dropped
    # in turn, then the last of each question, so that the closed form's
    # skips of b = a and carries into the next x are all crossed.
    required = synchrony_tuples(7, 5)
    for i in list(range(0, len(required), 7)) + list(range(19, len(required), 20)):
        entries = required[:i] + required[i + 1:]
        a, b, x, _ = required[i]
        with pytest.raises(ValidationError, match=rf"^synchrony violation: \({a},{b},{x},{x}\) must"):
            SyncGame(7, 5, entries)
    assert SyncGame(7, 5, required).losing == frozenset(required)


def test_no_dense_mask_is_built(tmp_path):
    # Loading, compiling and scoring a game keep no (n, n, m, m) array on
    # the game or the prior; the prior holds one term table of at most
    # support x m^2 entries per array.
    rng = np.random.default_rng(2)
    game = random_game(rng, 3, 4)
    save_game(game, tmp_path / "g.json")
    loaded = load_game(tmp_path / "g.json")
    build_graph(loaded)
    prior = PriorDistribution.uniform_questions(3)
    report = sync_value(loaded, random_strategy(rng, loaded, 2), prior)
    assert report.losses
    of_game = held_arrays(loaded)
    of_prior = [a for a in held_arrays(prior) if not any(a is b for b in of_game)]
    assert all(a.ndim < 4 for a in of_game)
    assert of_prior and all(a.ndim < 4 and a.size <= 9 * 16 for a in of_prior)
    assert not any(a.shape == (3, 3, 4, 4) for a in held_arrays(report))


def test_a_synchrony_only_game_is_bounded_by_its_tuples():
    # n = 3,000, m = 3: the dense (n, n, m, m) mask of its 18,000 tuples
    # alone takes 81 MB, and building it in the constructor peaked at 83 MB.
    tuples = synchrony_tuples(3000, 3)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        SyncGame(3000, 3, tuples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 20e6


INDEX = st.integers(-1, 7)
BAD_ENTRY = st.one_of(
    st.tuples(INDEX, INDEX, INDEX, INDEX),
    st.lists(st.integers(1, 3), max_size=5).filter(lambda t: len(t) != 4).map(tuple),
    st.tuples(
        st.integers(1, 3),
        st.sampled_from([True, False, 1.0, 2.5, "1", None]),
        st.integers(1, 3),
        st.integers(1, 3),
    ),
    st.text(max_size=4),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), m=st.integers(3, 6), as_set=st.booleans())
def test_the_array_check_agrees_with_the_per_tuple_loop(data, n, m, as_set):
    synchrony = [(a, b, x, x) for x in range(1, n + 1) for a in range(1, m + 1)
                 for b in range(1, m + 1) if a != b]
    others = [(a, b, x, y) for x in range(1, n + 1) for y in range(1, n + 1)
              for a in range(1, m + 1) for b in range(1, m + 1) if x != y or a == b]
    entries = data.draw(st.permutations(synchrony + data.draw(
        st.lists(st.sampled_from(others), unique=True, max_size=12))))
    for kind, at in data.draw(st.lists(
        st.tuples(st.sampled_from(["drop", "copy", "put", "put"]), st.integers(0, 10**6)), max_size=4
    )):
        at %= len(entries) + 1
        if kind == "put":
            entries.insert(at, data.draw(BAD_ENTRY))
        elif kind == "copy" and entries:
            entries.insert(at, entries[at % len(entries)])
        elif entries:
            entries.pop(at % len(entries))
    losing = frozenset(entries) if as_set else entries

    def checked():
        game = SyncGame(n, m, losing)
        assert all(a.ndim < 4 for a in held_arrays(game))
        return game.losing, losing_mask(game), game.losing_sorted, answer_classes(game)

    def outcome(check):
        try:
            return check()
        except ValidationError as exc:
            return str(exc)

    want = outcome(lambda: reference_game_check(n, m, losing))
    got = outcome(checked)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2] == reference_losing_sorted(want[0])
        assert got[3] == reference_partition_losing(m, want[0])


@pytest.mark.parametrize("pair", [(True, 1), (1, False)])
def test_prior_rejects_boolean_questions(pair):
    with pytest.raises(ValidationError, match="question pair"):
        PriorDistribution(QUESTION_PRIOR, ((pair, 1.0),))


def test_load_game_rejects_duplicates(tmp_path):
    payload = {
        "n": 1,
        "m": 3,
        "losing": [list(t) for t in sorted(SYNCHRONY_1Q)] + [[1, 2, 1, 1]],
    }
    target = tmp_path / "dup.json"
    target.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match=r"^duplicate losing tuples \[\(1, 2, 1, 1\)\]$"):
        load_game(target)


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), "1", True, None])
def test_prior_rejects_a_weight_that_is_not_a_finite_real(weight):
    # NaN compares false either way, so it slips past a sign test written as
    # ``w < 0`` and past the sum test alike.
    with pytest.raises(ValidationError, match="is not a finite number"):
        PriorDistribution(QUESTION_PRIOR, (((1, 1), weight),))


@pytest.mark.parametrize("loader", [load_game, maxcut.load_simple_graph])
def test_loaders_read_a_str_path_as_a_file(tmp_path, loader):
    # Not as literal text: a missing file is named by the operating system.
    with pytest.raises(OSError, match="missing.json"):
        loader(str(tmp_path / "missing.json"))


def test_game_json_round_trip(tmp_path):
    game = random_game(np.random.default_rng(5), 2, 4)
    target = tmp_path / "g.json"
    target.write_text(json.dumps(game_to_json(game)))
    assert load_game(target) == game


def answer_classes(game) -> tuple:
    """The losing tuples under each mask of ``games._answer_classes``."""
    return tuple(tuple(map(tuple, game.losing_table[mask].tolist())) for mask in _answer_classes(game))


def test_partition_of_minimal_game(min_game):
    e_set, f_set, rest = answer_classes(min_game)
    # answers 1 and 3 are the endpoints of {1,2,3}: two losing pairs sit
    # entirely on them, none entirely inside, four straddle.
    assert len(e_set) == 2
    assert len(f_set) == 0
    assert len(rest) == 4
    assert all(t[0] != t[1] for t in rest)
    assert (e_set, f_set, rest) == reference_partition_losing(3, min_game.losing)


def test_partition_m5_spot_checks():
    losing = {(a, b, x, x) for x in (1,) for a in range(1, 6) for b in range(1, 6) if a != b}
    game = SyncGame(n=1, m=5, losing=frozenset(losing))
    e_set, f_set, rest = answer_classes(game)
    assert (1, 5, 1, 1) in e_set
    assert (2, 4, 1, 1) in f_set
    assert (1, 2, 1, 1) in rest
    assert len(e_set) + len(f_set) + len(rest) == len(losing)
    assert (e_set, f_set, rest) == reference_partition_losing(5, losing)


def test_uniform_questions_prior():
    prior = PriorDistribution.uniform_questions(3)
    weights = dict(prior.weights)
    assert len(weights) == 9
    assert all(w == pytest.approx(1 / 9) for w in weights.values())
    assert math.fsum(weights.values()) == pytest.approx(1.0)


def test_uniform_edges_prior():
    prior = PriorDistribution.uniform_edges(SimpleGraph(3, ((1, 2), (2, 3))))
    weights = dict(prior.weights)
    assert weights[(1, 2)] == pytest.approx(1 / 4)
    assert weights[(2, 1)] == pytest.approx(1 / 4)
    assert len(weights) == 4


def test_game_strategy_rejects_non_pvm():
    half = 0.5 * np.eye(2)
    with pytest.raises(ValidationError):
        GameStrategy(d=2, pvms={1: [half, half, np.zeros((2, 2))]})


def test_strategies_reject_boolean_dimension_and_keys():
    pvm = [np.eye(1), np.zeros((1, 1)), np.zeros((1, 1))]
    with pytest.raises(ValidationError, match="question key True"):
        GameStrategy(d=1, pvms={True: pvm})
    with pytest.raises(ValidationError, match="dimension"):
        GameStrategy(d=True, pvms={1: pvm})
    with pytest.raises(ValidationError, match="dimension"):
        ColoringStrategy(d=True, pvms={"A": pvm})


def test_loaders_name_a_repeated_key(tmp_path):
    # json keeps the last of two equal keys; every input loader refuses instead.
    one = '[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]'
    target = tmp_path / "s.json"
    target.write_text('{"d": 1, "pvms": {"1": [%s], "1": [%s]}}' % (one, one))
    with pytest.raises(ValidationError, match="game strategy file repeats the key '1'"):
        load_game_strategy(target)
    target.write_text('{"d": 1, "d": 1, "pvms": {"A": [%s]}}' % one)
    with pytest.raises(ValidationError, match="coloring strategy file repeats the key 'd'"):
        load_coloring_strategy(target)
    with pytest.raises(ValidationError, match="game file repeats the key 'n'"):
        load_game('{"n": 1, "m": 3, "n": 2, "losing": []}')
    with pytest.raises(ValidationError, match="graph JSON repeats the key 'edges'"):
        maxcut.load_simple_graph('{"n": 2, "edges": [[1, 2]], "edges": []}')


def test_loaders_name_the_matrix_of_a_bad_entry(tmp_path):
    good = [[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0]]
    target = tmp_path / "s.json"
    cases = [
        (load_coloring_strategy, "B", [[[0.0, 0.0]], [[1.0]], [[0.0, 0.0]]],
         "coloring strategy entry 'B' outcome 2: matrix entry 0 is not an [re, im] pair"),
        (load_game_strategy, "2", [[[0.0, 0.0]], [[0.0, 0.0]], [[1, 10**400]]],
         "game strategy entry '2' outcome 3: matrix payload has a part beyond the float range"),
        (load_game_strategy, "1", [[[1.0, 0.0]], [[0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
         "game strategy entry '1' outcome 3: matrix payload must be a list of 1 [re, im] pairs"),
    ]
    for load, key, mats, message in cases:
        first = "A" if load is load_coloring_strategy else "1"
        pvms = {first: list(good), key: mats} if key != first else {first: mats}
        target.write_text(json.dumps({"d": 1, "pvms": pvms}))
        assert raised_message(lambda: load(target)) == message


def test_coloring_strategy_needs_three_outcomes():
    with pytest.raises(ValidationError, match="outcomes"):
        ColoringStrategy(d=1, pvms={"A": [np.eye(1), np.zeros((1, 1))]})


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_strategy_is_one_read_only_stack_in_sorted_key_order(tmp_path_factory, data, d, seed):
    # Keys in any order, n <= 4 of them, k <= 4 outcomes (3 for a coloring).
    if data.draw(st.booleans(), label="coloring"):
        cls, load, k = ColoringStrategy, load_coloring_strategy, 3
        keys = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=1, max_size=4, unique=True))
    else:
        cls, load, k = GameStrategy, load_game_strategy, data.draw(st.integers(min_value=1, max_value=4))
        questions = st.integers(min_value=1, max_value=50)
        keys = data.draw(st.lists(questions, min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(seed)
    pvms = {key: list(random_pvm(rng, d, k)) for key in keys}
    strategy = cls(d=d, pvms=pvms)
    stack = strategy.stack
    assert strategy.keys == tuple(sorted(keys)) and list(by_key(strategy)) == list(strategy.keys)
    assert stack.shape == (len(keys), k, d, d)
    assert stack.flags.c_contiguous and not stack.flags.writeable
    for i, key in enumerate(strategy.keys):
        assert stack[i].tobytes() == np.array(pvms[key], dtype=np.complex128).tobytes()
        row = by_key(strategy)[key]
        assert np.shares_memory(row, stack) and row.tobytes() == stack[i].tobytes()
    # The loader reads the written file back into the same stack.
    path = tmp_path_factory.mktemp("stack") / "s.json"
    write_strategy_json(strategy, path)
    loaded = load(path)
    assert loaded.keys == strategy.keys and loaded.stack.tobytes() == stack.tobytes()


def test_strategy_matrices_are_write_locked(min_game, min_graph):
    strategy = deterministic_strategy(min_game, (1,))
    coloring = forward_translate(min_game, min_graph, strategy)
    one = np.eye(1, dtype=np.complex128)
    GameStrategy(d=1, pvms={1: [one, 0 * one, 0 * one]})
    assert one.flags.writeable  # the validating constructor copies
    stack = np.array([[one, 0 * one, 0 * one]])
    prebuilt = _prebuilt(GameStrategy, 1, (1,), stack)
    # The validating constructor, then the unchecked path of the package's
    # own producers: forward translation, symmetrization, and a direct call.
    for s, key in ((strategy, 1), (coloring, "A"), (symmetrize(coloring), "A"), (prebuilt, 1)):
        assert s.stack.flags.c_contiguous and not s.stack.flags.writeable
        assert all(np.shares_memory(mats, s.stack) for mats in by_key(s).values())
        with pytest.raises(ValueError):
            by_key(s)[key][0][0, 0] = 5.0
    assert one.flags.writeable and not stack.flags.writeable  # handed over, not copied
    assert prebuilt.stack is stack


def test_a_keyed_family_is_its_sorted_keys_and_one_stack(rng, tmp_path, min_game, min_graph):
    keys = (2, 3, 5, 8)
    stack = np.stack([random_pvm(rng, 2, 3) for _ in keys])
    given = {key: [m.copy() for m in mats] for key, mats in zip(keys[::-1], stack[::-1])}
    strategy = GameStrategy(d=2, pvms=given)
    coloring = forward_translate(min_game, min_graph, random_strategy(rng, min_game, 2))
    write_strategy_json(strategy, tmp_path / "s.json")
    write_strategy_json(coloring, tmp_path / "c.json")
    held = (
        _prebuilt(GameStrategy, 2, keys, stack.copy()), strategy, coloring,
        load_game_strategy(tmp_path / "s.json"), load_coloring_strategy(tmp_path / "c.json"),
    )
    for s in held:
        assert set(vars(s)) == {"d", "keys", "stack"}
        assert all(np.shares_memory(a, s.stack) for a in held_arrays(s))  # nothing of ``given``
    for s in held[:2] + held[3:4]:
        assert s.keys == keys and s.stack.tobytes() == stack.tobytes() and not hasattr(s, "pvms")
    # A coloring's ``pvms`` is a new dict of row views on each read, and is not kept.
    views = coloring.pvms
    assert views is not coloring.pvms and set(vars(coloring)) == {"d", "keys", "stack"}
    assert list(views) == list(coloring.keys) and all(np.shares_memory(v, coloring.stack) for v in views.values())
    # Neither a unitary family nor the control compressions hold a dict.
    family = maxcut.OrderKUnitaryFamily(3, 1, {2: np.eye(1), 1: np.eye(1)})
    cc = reverse.control_compressions(symmetrize(coloring))
    assert set(vars(family)) == {"k", "d", "vertices", "stack", "powers"} and family.vertices == (1, 2)
    assert set(vars(cc)) == {"stack", "reports"} and cc.stack.shape[:2] == (6, 6)
    assert not any(isinstance(v, dict) for v in (*vars(family).values(), *vars(cc).values()))
    # Each membership check runs from the sorted keys and names what is missing.
    last = min_graph.vertices[-1]
    rows = dict(zip(coloring.keys, map(list, coloring.stack)))
    uncovered = ColoringStrategy(2, {k: v for k, v in rows.items() if k != last})
    no_delta = ColoringStrategy(2, {k: v for k, v in rows.items() if k not in ("A", "C")})
    unanswered = GameStrategy(2, {2: list(random_pvm(rng, 2, 3))})
    checks = {
        f"coloring strategy lacks PVMs for 1 graph vertices, first {last!r}": lambda: forward.coloring_value(
            min_graph, uncovered
        ),
        "strategy missing questions [1]": lambda: sync_value(
            min_game, unanswered, PriorDistribution.uniform_questions(1)
        ),
        "coloring strategy lacks a PVM for control vertex 'A'": lambda: reverse.control_compressions(no_delta),
        "family lacks unitaries for vertices [3]": lambda: maxcut.unitary_cut_value(cycle_graph(3), family),
    }
    for message, call in checks.items():
        assert raised_message(call) == message


def test_value_bridge_builds_no_pvms_dict(monkeypatch):
    built = []

    def recording(*args):
        built.append(_prebuilt(*args))
        return built[-1]

    monkeypatch.setattr(maxcut, "_prebuilt", recording)
    value_bridge(cycle_graph(5))
    assert len(built) == 3**5 and not any("pvms" in vars(s) for s in built)


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


def test_sync_value_rejects_prior_pairs_outside_the_questions(rng):
    # Support out of the prior's sorted order: the message names the first
    # offending pair as listed, not the smallest one.
    game = random_game(rng, 2, 3)
    strategy = random_strategy(rng, game, 2)
    cases = [
        ((((1, 1), 0.25), ((2, 5), 0.25), ((0, 1), 0.25), ((1, 2), 0.25)), "(2,5)"),
        ((((1, 1), 0.5), ((3, 1), 0.5)), "(3,1)"),
        ((((1, 1), 0.5), ((1, -1), 0.5)), "(1,-1)"),
        ((((2**70, 1), 0.5), ((1, 1), 0.5)), f"({2**70},1)"),
    ]
    for weights, pair in cases:
        prior = PriorDistribution(QUESTION_PRIOR, weights)
        message = f"prior supports {pair} outside 1..2"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sync_value(game, strategy, prior)


@st.composite
def question_priors(draw, n: int):
    """A prior on some of the n^2 question pairs, in any order, with integer
    masses normalised to sum to one."""
    question = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(question, question), min_size=1, max_size=n * n, unique=True))
    masses = draw(st.lists(st.integers(1, 5), min_size=len(pairs), max_size=len(pairs)))
    total = sum(masses)
    return PriorDistribution(QUESTION_PRIOR, tuple((pair, k / total) for pair, k in zip(pairs, masses)))


@st.composite
def edge_priors(draw, n: int):
    """The uniform prior on the edges of a graph on n >= 2 vertices."""
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return PriorDistribution.uniform_edges(SimpleGraph(n, edges))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 4),
    ms=st.tuples(st.integers(3, 5), st.integers(3, 5)),
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_sync_value_equals_the_mask_code_bit_for_bit(data, n, ms, d, seed):
    # One prior scores two games in turn, and the first again: the term table
    # it holds is replaced whenever the game changes.  A support that names
    # every question takes the mask code's GEMM over all n questions, and
    # every float is the same.  One that skips a question takes a smaller
    # GEMM, which BLAS may round differently in the last bits.
    rng = np.random.default_rng(seed)
    priors = [question_priors(n), st.just(PriorDistribution.uniform_questions(n))]
    prior = data.draw(st.one_of(priors + [edge_priors(n)] * (n > 1)))
    every_question = {q for pair, _ in prior.weights for q in pair} == set(range(1, n + 1))
    first, second = (random_game(rng, n, m, 0.4) for m in ms)
    scored = [(game, random_strategy(rng, game, d)) for game in (first, second) for _ in range(2)]
    scored.append((first, deterministic_strategy(first, rng.integers(1, ms[0] + 1, n).tolist())))
    for game, strategy in scored + scored[:2]:
        report = sync_value(game, strategy, prior)
        value, losses = mask_sync_value(game, strategy, prior)
        if every_question or d == 1:
            assert report.value == value
            assert report.losses == losses
        else:
            assert report.value == pytest.approx(value, rel=0, abs=1e-14)
            assert [(e.key, e.weight) for e in report.losses] == [(e.key, e.weight) for e in losses]
            for got, want in zip(report.losses, losses):
                assert got.probability == pytest.approx(want.probability, rel=0, abs=1e-14)


def test_sync_value_reports_a_bad_prior_pair_on_every_call(rng):
    game = random_game(rng, 2, 3)
    strategy = random_strategy(rng, game, 2)
    prior = PriorDistribution(QUESTION_PRIOR, (((1, 1), 0.5), ((3, 1), 0.5)))
    for _ in range(2):
        with pytest.raises(ValidationError, match=r"^prior supports \(3,1\) outside 1\.\.2$"):
            sync_value(game, strategy, prior)
        assert held_arrays(prior) == []  # nothing is kept when the check fails


def test_sync_value_refuses_a_strategy_that_does_not_fit_after_one_that_does(rng):
    game = random_game(rng, 3, 3)
    prior = PriorDistribution.uniform_questions(3)
    fits = random_strategy(rng, game, 2)
    value = sync_value(game, fits, prior).value
    pvm = list(random_pvm(rng, 2, 3))
    cases = [
        (GameStrategy(2, {x: list(random_pvm(rng, 2, 4)) for x in (1, 2, 3)}),
         "strategy has 4-outcome PVMs, game has m=3"),
        (GameStrategy(2, {1: pvm, 2: pvm}), "strategy missing questions [3]"),
        (GameStrategy(2, {1: pvm, 3: pvm, 4: pvm}), "strategy missing questions [2]"),
        (GameStrategy(2, {2: pvm, 3: pvm, 4: pvm}), "strategy missing questions [1]"),
    ]
    for strategy, message in cases:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            sync_value(game, strategy, prior)
    # Questions beyond n are not read.
    extra = GameStrategy(2, {**by_key(fits), 4: pvm})
    assert sync_value(game, extra, prior).value == value == sync_value(game, fits, prior).value


def test_a_value_bridge_builds_one_term_table(monkeypatch):
    built, table = [], games._WinningTerms

    def counting_table(*args):
        built.append(args)
        return table(*args)

    monkeypatch.setattr(games, "_WinningTerms", counting_table)
    graph = maxcut.cycle_graph(5)
    maxcut.value_bridge(graph)
    assert len(built) == 1
    maxcut.value_bridge(graph)  # a new game and prior: no table is carried over
    assert len(built) == 2


def test_a_value_on_a_synchrony_only_game_is_bounded_by_the_support():
    # n = 3,000, m = 3: the dense (n, n, m, m) mask would take 81 MB and the
    # GEMM over every question 1.3 GB; a support of four pairs on six
    # questions needs an 18 x 18 gram.
    n = 3000
    game = SyncGame(n, 3, synchrony_tuples(n, 3))
    stack = np.zeros((n, 3, 1, 1), dtype=np.complex128)
    stack[:, 0] = 1.0
    strategy = _prebuilt(GameStrategy, 1, range(1, n + 1), stack)
    pairs = ((1, 1), (2, 3000), (1500, 1), (2999, 2))
    prior = PriorDistribution(QUESTION_PRIOR, tuple((pair, 0.25) for pair in pairs))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        report = sync_value(game, strategy, prior)
        losses = report.losses
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.value == 1.0 and len(losses) == 6
    assert peak - start < 2e6


def test_losses_are_built_only_when_read(monkeypatch, rng):
    built, entry = [], games.LossEntry

    def counting_entry(*args):
        built.append(args)
        return entry(*args)

    monkeypatch.setattr(games, "LossEntry", counting_entry)
    assert maxcut.value_bridge(maxcut.cycle_graph(5)).lhs == 0.0
    assert built == []
    game = random_game(rng, 2, 3)
    report = sync_value(game, random_strategy(rng, game, 2), PriorDistribution.uniform_questions(2))
    assert built == []
    losses = report.losses
    assert len(built) == len(losses) > 0
    assert report.losses is losses
    assert len(built) == len(losses)


def test_sync_identity_same_question(rng):
    # tau(E_a E_b) at a shared question is the synchronous correlation;
    # for an exact PVM it vanishes off the diagonal to machine precision.
    game = minimal_game()
    strategy = random_strategy(rng, game, 4)
    for a in range(3):
        for b in range(3):
            p = reference_tau(strategy.stack[0, a], strategy.stack[0, b])
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


@pytest.mark.parametrize(
    "edges,prior_rejected",
    [
        pytest.param(((1, 1),), True, id="loop"),
        pytest.param(((1, 2), (1, 2)), True, id="duplicate"),
        pytest.param(((1, 2), (2, 1)), True, id="duplicate-reversed"),
        pytest.param(((1, 4),), False, id="end-above-range"),
        pytest.param(((0, 1),), False, id="end-below-range"),
        # JSON true is a Python int, not a vertex
        pytest.param(((True, 2),), True, id="bool-end"),
        pytest.param(((1.0, 2),), True, id="float-end"),
    ],
)
def test_edge_lists_the_old_checks_rejected_fail_in_simple_graph(edges, prior_rejected):
    # coloring_game and uniform_edges take a SimpleGraph, so an edge list
    # they once rejected (the bool and float ends through the game's and
    # the prior's own constructors) now fails where the graph is built.
    # The edge-list prior let ends outside the graph through.
    with pytest.raises(ValidationError):
        reference_coloring_game(edges, 3)
    if prior_rejected:
        with pytest.raises(ValidationError):
            reference_uniform_edges(edges)
    with pytest.raises(ValidationError):
        SimpleGraph(3, edges)


@st.composite
def edge_lists(draw):
    """A vertex count up to 8 and a simple edge list on it, in any order
    and orientation."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = list(combinations(range(1, n + 1), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, tuple((v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips))


@settings(max_examples=60, deadline=None)
@given(edge_lists())
def test_graph_games_and_priors_match_the_edge_list_versions(case):
    n, edges = case
    g = SimpleGraph(n, edges)
    assert coloring_game(g).losing == reference_coloring_game(edges, n).losing
    if edges:
        assert PriorDistribution.uniform_edges(g).weights == reference_uniform_edges(edges).weights
    else:
        for build in (lambda: PriorDistribution.uniform_edges(g), lambda: reference_uniform_edges(edges)):
            with pytest.raises(ValidationError, match="at least one edge"):
                build()


def test_triangle_strategy_is_perfect(tri_game):
    report = sync_value(tri_game, triangle_strategy(), PriorDistribution.uniform_questions(3))
    assert report.value == pytest.approx(1.0, abs=1e-12)


def test_game_strategy_json_round_trip(rng, tmp_path):
    game = minimal_game()
    strategy = random_strategy(rng, game, 3)
    write_strategy_json(strategy, tmp_path / "s.json")
    back = load_game_strategy(tmp_path / "s.json")
    assert back.d == 3
    assert back.keys == strategy.keys
    for x, mats in by_key(strategy).items():
        for a, mat in enumerate(mats):
            assert np.array_equal(by_key(back)[x][a], mat)


def test_coloring_strategy_json_round_trip(rng, tmp_path):
    cs = ColoringStrategy(
        d=2,
        pvms={"A": [np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]},
    )
    write_strategy_json(cs, tmp_path / "c.json")
    back = load_coloring_strategy(tmp_path / "c.json")
    assert back.keys == ("A",)
    assert np.array_equal(by_key(back)["A"][0], np.eye(2))


# ---------------------------------------------------------------------------
# the streaming strategy writer


def _assert_writer_matches(strategy, path) -> str:
    write_strategy_json(strategy, path)
    text = path.read_text()
    assert text == indented_reference(strategy)
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


#: Entries whose spelling is easy to get wrong: both zeros, the smallest
#: subnormal, exponents near the top of the range, 17 significant digits.
_AWKWARD = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, 0.1 + 0.2, 1.0)


@st.composite
def _repeating_strategies(draw):
    """Unvalidated strategies built from a few matrices, each also appearing
    with the sign of every zero entry flipped and as non-contiguous views."""
    d = draw(st.integers(min_value=1, max_value=3))
    entry = st.one_of(st.sampled_from(_AWKWARD), st.floats(allow_nan=False, allow_infinity=False))
    pool = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        parts = np.array(draw(st.lists(entry, min_size=2 * d * d, max_size=2 * d * d)))
        m = parts.view(np.complex128).reshape(d, d)
        # Value-equal to m, with other bits wherever m has a zero.
        flipped = np.where(parts == 0.0, -parts, parts).view(np.complex128).reshape(d, d)
        wide = np.zeros((d, 2 * d), dtype=np.complex128)
        wide[:, ::2] = m
        pool += [m, flipped, np.asfortranarray(m), wide[:, ::2], np.flipud(np.flipud(m).copy())]
    outcomes = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.lists(
        st.lists(st.sampled_from(range(len(pool))), min_size=outcomes, max_size=outcomes),
        min_size=1, max_size=12,
    ))
    stack = np.array([[pool[i] for i in row] for row in rows])
    return _prebuilt(GameStrategy, d, range(1, len(rows) + 1), stack)


@settings(max_examples=60, deadline=None)
@given(strategy=_repeating_strategies())
def test_writer_renders_repeated_matrices_as_the_reference_does(tmp_path_factory, strategy):
    # Rendering each distinct matrix once must give every occurrence the
    # reference's spelling, whatever the zero signs and strides.
    _assert_writer_matches(strategy, tmp_path_factory.mktemp("writer") / "s.json")


def _assert_writes_the_reference(strategy, path) -> None:
    # As _assert_writer_matches, but a failure names the first differing
    # character: pytest's diff of two texts this long would take minutes.
    write_strategy_json(strategy, path)
    text, reference = path.read_text(), indented_reference(strategy)
    same = text == reference
    assert same, f"differs from the reference at character {len(os.path.commonprefix([text, reference]))}"


@st.composite
def _strategies_past_one_chunk(draw):
    """Unvalidated strategies with more distinct matrices than the writer
    spells in one chunk, the first of them used again in the last slot,
    after the later chunks have begun."""
    d = draw(st.integers(min_value=1, max_value=3))
    entry = st.one_of(st.sampled_from(_AWKWARD), st.floats(allow_nan=False, allow_infinity=False))
    pool = []
    for i in range(draw(st.integers(min_value=games._CHUNK + 1, max_value=3 * games._CHUNK))):
        parts = draw(st.lists(entry, min_size=2 * d * d, max_size=2 * d * d))
        parts[0] = i + 0.5  # keeps the matrices distinct
        pool.append(np.array(parts).view(np.complex128).reshape(d, d))
    repeats = draw(st.lists(st.sampled_from(range(len(pool))), max_size=2 * games._CHUNK))
    slots = [0, *draw(st.permutations(list(range(1, len(pool))) + repeats)), 0]
    outcomes = draw(st.integers(min_value=1, max_value=3))
    slots += [0] * (-len(slots) % outcomes)
    stack = np.array([pool[i] for i in slots]).reshape(-1, outcomes, d, d)
    # From ten keys on, the file's order ("10" before "2") is not the stack's.
    return _prebuilt(GameStrategy, d, range(1, len(stack) + 1), stack)


@settings(max_examples=30, deadline=None)
@given(strategy=_strategies_past_one_chunk())
def test_writer_reuses_texts_across_chunks_as_the_reference_spells_them(tmp_path_factory, strategy):
    _assert_writes_the_reference(strategy, tmp_path_factory.mktemp("writer") / "s.json")


def test_writer_forward_coloring_at_the_benchmark_size(tmp_path):
    # A forward coloring of a 3-question, 4-answer game at d = 16, the size
    # the benchmark's forward command writes: hundreds of matrix slots, many
    # chunks of distinct matrices, and repeats across them.
    rng = np.random.default_rng(11)
    game = random_game(rng, 3, 4)
    coloring = forward_translate(game, build_graph(game), random_strategy(rng, game, 16))
    _assert_writes_the_reference(coloring, tmp_path / "c.json")


def test_writer_keeps_no_text_it_will_not_reuse(tmp_path):
    # 648 distinct matrices at d = 16 make a 13 MB file; a writer that kept
    # every text until the end peaked 15 MB above its start.  One copy of
    # each matrix's bytes (2.7 MB) is held while the distinct matrices are
    # numbered, and dropped before any text is made; then only the use
    # counts and one chunk's spellings and texts (16 matrices) remain.
    rng = np.random.default_rng(3)
    cs = ColoringStrategy(16, {f"v{i}": list(random_pvm(rng, 16, 3)) for i in range(216)})
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        write_strategy_json(cs, tmp_path / "c.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "c.json").stat().st_size > 13e6
    assert peak - start < 4e6


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
    # validating constructor as well, which must accept it and hold the same
    # keys and arrays: the skipped check could not have failed.
    built = []

    def dense(m):
        return block_diagonal(m) if m.ndim == 3 else m

    def validating(cls, dim, keys, stack):
        # symmetrize builds (6, d, d) stacks; the constructor checks their
        # block-diagonal matrices.
        dense_pvms = {key: [dense(m) for m in mats] for key, mats in zip(keys, stack, strict=True)}
        checked, unchecked = cls(d=dim, pvms=dense_pvms), _prebuilt(cls, dim, keys, stack)
        assert checked.keys == unchecked.keys
        for key, mats in by_key(checked).items():
            assert all(
                np.array_equal(a, dense(b)) for a, b in zip(mats, by_key(unchecked)[key], strict=True)
            )
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
    strategy, equal = (random_strategy(np.random.default_rng(3), min_game, 3) for _ in range(2))
    coloring = forward_translate(min_game, min_graph, strategy)
    write_strategy_json(coloring, tmp_path / "c.json")
    calls, fallbacks, real, real_pvm = [], [], linalg.require_pvm_family, linalg.require_pvm

    def counting(stack, keys, *args, **kwargs):
        calls.append(len(keys))
        return real(stack, keys, *args, **kwargs)

    def falling_back(mats, *args, **kwargs):
        fallbacks.append(len(mats))
        return real_pvm(mats, *args, **kwargs)

    monkeypatch.setattr(games, "require_pvm_family", counting)
    monkeypatch.setattr(forward, "require_pvm_family", counting)
    monkeypatch.setattr(games, "require_pvm", falling_back)
    assert forward_translate(min_game, min_graph, strategy) is coloring
    assert calls == []  # the coloring is held on the strategy: nothing is checked again
    forward_translate(min_game, min_graph, equal)
    assert calls == [min_graph.n_vertices]  # forward checks its output once, nothing more
    calls.clear()
    symmetrize(coloring)
    value_bridge(cycle_graph(5))
    assert calls == []
    load_coloring_strategy(tmp_path / "c.json")
    assert calls == [len(coloring.keys)]  # the loader still checks every key
    assert fallbacks == []  # valid families pass as stacks


def _lift_top_eigenvalue(p):
    """p with its top eigenvalue moved up by 1.05e-8 along its eigenvector."""
    v = np.linalg.eigh(p)[1][:, -1:]
    return p + 1.05e-8 * (v @ v.conj().T)


#: One bad outcome per case.  An eigenvalue more than 1e-8 off {0, 1} puts
#: ||P^2 - P||_2 above 1e-8 / sqrt(d), so below d = 100 the projection check
#: fails first; at d = 128 an eigenvalue 1 + 1.05e-8 passes it
#: (||P^2 - P||_2 = 9.3e-10) and fails the eigenvalue check.  Lifted along
#: the outcome's own range it also keeps the sum and product defects below
#: 1e-9, so that no check but the eigenvalue check can see it.
_BAD_OUTCOME = {
    "non-hermitian": (3, lambda p: p + np.triu(np.full_like(p, 1e-6), 1)),
    "non-projection": (3, lambda p: 0.5 * np.eye(len(p))),
    "eigenvalue": (128, lambda p: np.diag([1.0 + 1.05e-8] + [0.0] * (len(p) - 1))),
    "eigenvalue-alone": (128, _lift_top_eigenvalue),
    "pvm-defect": (3, lambda p: np.eye(len(p))),
    "inf": (3, lambda p: p + np.diag([np.inf] + [0.0] * (len(p) - 1))),
    "nan": (3, lambda p: p + np.triu(np.full_like(p, np.nan), 1)),
}


def _spoiled(case, mats):
    """A PVM with its second outcome made bad, no outcomes, or one extra zero outcome."""
    mats = list(mats)
    if case == "no-outcomes":
        return []
    if case == "mixed-outcomes":
        return mats + [np.zeros_like(mats[0])]
    mats[1] = np.asarray(_BAD_OUTCOME[case][1](np.array(mats[1])), dtype=np.complex128)
    return mats


def _loop_error(family, tol, label):
    """The message of the per-operator reference ``require_pvm`` run key by
    key, or None."""
    return raised_message(
        lambda: [reference_require_pvm(mats, tol=tol, what=label(key)) for key, mats in family.items()]
    )


@pytest.mark.parametrize("case", [*_BAD_OUTCOME, "no-outcomes", "mixed-outcomes"])
def test_family_check_raises_the_per_key_message(monkeypatch, min_game, min_graph, case):
    # A bad PVM at the 18th key, in the second 16-key stack, after a whole
    # stack that passes.  No inf or NaN may reach an eigensolver.
    real_eigvalsh = np.linalg.eigvalsh

    def finite_eigvalsh(a):
        assert np.isfinite(a).all()
        return real_eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", finite_eigvalsh)
    d = _BAD_OUTCOME.get(case, (3,))[0]
    rng = np.random.default_rng(11)
    pvms = {x: _spoiled(case, random_pvm(rng, d, 3)) if x == 18 else list(random_pvm(rng, d, 3))
            for x in range(1, 21)}
    want = _loop_error(pvms, TOL_PVM, lambda key: f"game strategy PVM at {key!r}")
    if case == "mixed-outcomes":
        assert want is None
        want = "game strategy mixes outcome counts [3, 4]"
    assert want is not None and raised_message(lambda: GameStrategy(d=d, pvms=pvms)) == want

    # forward_translate's own output, spoiled in the same way at its 18th
    # vertex.  It is one (V, 3, d, d) stack, which cannot lack outcomes or
    # mix their counts.
    if case in ("no-outcomes", "mixed-outcomes"):
        return
    seen, real = [], forward.require_pvm_family

    def spoiling(stack, keys, *args, **kwargs):
        stack = stack.copy()
        stack[17] = _spoiled(case, stack[17])
        family = dict(zip(keys, map(list, stack)))
        seen.append(_loop_error(family, FORWARD_PVM_TOL, lambda key: f"coloring PVM at {key}"))
        return real(stack, keys, *args, **kwargs)

    # The input passed, so a failure of the output check is a bound violation, with that message.
    monkeypatch.setattr(forward, "require_pvm_family", spoiling)
    with pytest.raises(BoundViolation) as raised:
        forward_translate(min_game, min_graph, random_strategy(rng, min_game, d))
    assert seen[0] is not None and str(raised.value) == seen[0]


def test_an_entry_that_overflows_is_rejected_without_a_warning(tmp_path):
    # 1e308 is finite, but its square overflows; the check names the NaN
    # defect, and no numpy RuntimeWarning comes before it.
    target = tmp_path / "overflow.json"
    target.write_text(json.dumps(OVERFLOWING_STRATEGY))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as raised:
            load_game_strategy(target)
    assert str(raised.value) == OVERFLOW_MESSAGE


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
    rounding.perturb_two(strategy.stack[0, 0], strategy.stack[0, 2])
    assert len(calls) == 2  # the public entry point still checks both inputs


# ---------------------------------------------------------------------------
# the trust boundary takes d-by-d matrices only, never (k, d, d) stacks


def test_trust_boundary_rejects_stacks(tmp_path):
    pvm = random_pvm(np.random.default_rng(4), 2, 3)
    stacks = tuple(np.stack([m] * 6) for m in pvm)
    with pytest.raises(ValidationError, match="square matrix"):
        as_matrix(stacks[0], 12)
    with pytest.raises(ValidationError, match="square matrix"):
        GameStrategy(d=12, pvms={1: list(stacks)})
    with pytest.raises(ValidationError, match="square matrix"):
        ColoringStrategy(d=12, pvms={"A": list(stacks)})
    # A stack in a file, at the block size and at the stacked dimension.
    nested = [[[[z.real, z.imag] for z in block.ravel()] for block in s] for s in stacks]
    flat = [[pair for block in s for pair in block] for s in nested]
    for d, mats in ((2, nested), (12, flat)):
        for key, load in (("1", load_game_strategy), ("A", load_coloring_strategy)):
            target = tmp_path / "stack.json"
            target.write_text(json.dumps({"d": d, "pvms": {key: mats}}))
            with pytest.raises(ValidationError, match="matrix payload"):
                load(target)
    # Nor does a stack leave the package: symmetrize's output is not written.
    target = tmp_path / "symmetrized.json"
    with pytest.raises(ValidationError, match="only d-by-d"):
        write_strategy_json(symmetrize(ColoringStrategy(d=2, pvms={"A": list(pvm)})), target)
    assert not target.exists()
