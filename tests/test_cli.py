import json

import pytest

from gadgetgraph.cli import main
from gadgetgraph.games import (
    load_coloring_strategy,
    load_game_strategy,
    save_game,
    write_strategy_json,
)
from gadgetgraph.instances import deterministic_strategy, minimal_game
from gadgetgraph.forward import forward_translate
from gadgetgraph.graphs import build_graph


@pytest.fixture()
def game_file(tmp_path):
    target = tmp_path / "minimal.json"
    save_game(minimal_game(), target)
    return target


@pytest.fixture()
def strategy_file(tmp_path):
    target = tmp_path / "strategy.json"
    write_strategy_json(deterministic_strategy(minimal_game(), (1,)), target)
    return target


@pytest.fixture()
def coloring_file(tmp_path):
    game = minimal_game()
    graph = build_graph(game)
    cs = forward_translate(game, graph, deterministic_strategy(game, (1,)))
    target = tmp_path / "coloring.json"
    write_strategy_json(cs, target)
    return target


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compile


def test_compile_writes_json(capsys, game_file):
    code, out, err = run(capsys, "compile", str(game_file))
    assert code == 0 and err == ""
    assert "game: n=1 m=3 losing=6" in out
    assert "graph: 25 vertices, 62 edges" in out
    assert "formula 67 + correction 3 - duplicates 8 = 62" in out
    payload = json.loads((game_file.parent / "minimal.graph.json").read_text())
    assert len(payload["vertices"]) == 25
    assert not (game_file.parent / "minimal.dot").exists()


def test_compile_dot_only(capsys, game_file):
    code, out, _ = run(capsys, "compile", str(game_file), "--format", "dot")
    assert code == 0
    dot = (game_file.parent / "minimal.dot").read_text()
    assert dot.startswith("graph gadget_graph {")
    assert not (game_file.parent / "minimal.graph.json").exists()


def test_compile_both_with_custom_prefix(capsys, game_file, tmp_path):
    prefix = tmp_path / "custom"
    code, out, _ = run(
        capsys, "compile", str(game_file), "--format", "both", "--out", str(prefix)
    )
    assert code == 0
    assert (tmp_path / "custom.graph.json").exists()
    assert (tmp_path / "custom.dot").exists()


def test_compile_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "compile", str(tmp_path / "absent.json"))
    assert code == 2
    assert "invalid input" in err


def test_compile_malformed_game(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1, "m": 3}')
    code, _, err = run(capsys, "compile", str(bad))
    assert code == 2
    assert "missing field" in err


def test_broken_invariant_exits_1_without_traceback(capsys, monkeypatch, game_file):
    def broken(game):
        raise AssertionError("vertex v(1,1,1,1) registered twice")

    monkeypatch.setattr("gadgetgraph.cli.build_graph", broken)
    code, out, err = run(capsys, "compile", str(game_file))
    assert code == 1
    assert err == "internal error: vertex v(1,1,1,1) registered twice\n"
    assert "Traceback" not in out + err


# ---------------------------------------------------------------------------
# forward / reverse round trip


def test_forward_writes_coloring(capsys, game_file, strategy_file):
    code, out, err = run(capsys, "forward", str(game_file), str(strategy_file))
    assert code == 0 and err == ""
    assert "coloring value: 1" in out
    assert "forward value transfer" in out
    written = strategy_file.parent / "strategy.coloring.json"
    cs = load_coloring_strategy(written)
    assert len(cs.vertices) == 25


def test_reverse_round_trip(capsys, game_file, coloring_file):
    code, out, err = run(capsys, "reverse", str(game_file), str(coloring_file))
    assert code == 0 and err == ""
    assert "control sandwich sum-to-1" in out
    assert "sandwich commutator" in out
    assert "lhs only" in out
    value_line = next(l for l in out.splitlines() if l.startswith("game value:"))
    assert abs(float(value_line.split()[-1]) - 1.0) < 1e-8
    gs = load_game_strategy(coloring_file.parent / "coloring.strategy.json")
    assert gs.d == 6
    assert gs.outcomes == 3


def test_forward_rejects_wrong_strategy(capsys, game_file, tmp_path):
    from gadgetgraph.games import SyncGame

    wide = SyncGame(
        n=1,
        m=4,
        losing=frozenset((a, b, 1, 1) for a in range(1, 5) for b in range(1, 5) if a != b),
    )
    target = tmp_path / "wide.json"
    write_strategy_json(deterministic_strategy(wide, (1,)), target)
    code, _, err = run(capsys, "forward", str(game_file), str(target))
    assert code == 2
    assert "invalid input" in err


def _poison(path, value, whole_block):
    """Rewrite a strategy file with one entry, or its whole first matrix, set to value."""
    payload = json.loads(path.read_text())
    matrix = next(iter(payload["pvms"].values()))[0]
    for pair in matrix if whole_block else matrix[:1]:
        pair[0] = value
    path.write_text(json.dumps(payload))
    assert json.dumps(value) in path.read_text()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("whole_block", [False, True])
def test_forward_rejects_non_finite_entries(capsys, game_file, strategy_file, value, whole_block):
    _poison(strategy_file, value, whole_block)
    code, out, err = run(capsys, "forward", str(game_file), str(strategy_file))
    assert code == 2
    assert "invalid input: game strategy PVM at 1 outcome 1 is not Hermitian" in err
    assert not (strategy_file.parent / "strategy.coloring.json").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("whole_block", [False, True])
def test_reverse_rejects_non_finite_entries(capsys, game_file, coloring_file, value, whole_block):
    _poison(coloring_file, value, whole_block)
    code, out, err = run(capsys, "reverse", str(game_file), str(coloring_file))
    assert code == 2
    assert "is not Hermitian" in err
    assert not (coloring_file.parent / "coloring.strategy.json").exists()


# ---------------------------------------------------------------------------
# check


def test_check_zero_trials(capsys):
    code, out, _ = run(capsys, "check", "--trials", "0")
    assert code == 0
    assert "no trials requested" in out


def test_check_small_run(capsys):
    code, out, err = run(capsys, "check", "--trials", "2", "--d", "2", "--seed", "5")
    assert code == 0 and err == ""
    lines = out.splitlines()
    for family in ("three-sum-zero", "prism", "perturb-pvm"):
        assert any(line.startswith(f"{family}: worst slack") for line in lines)
    assert "over 2 trials, 0 violations" in lines[-1]


def test_check_fixture_nonprojection(capsys):
    code, _, err = run(capsys, "check", "--fixture-nonprojection")
    assert code == 2
    assert "invalid input" in err


def test_check_rejects_negative_trials(capsys):
    code, _, err = run(capsys, "check", "--trials", "-3")
    assert code == 2
    assert "trial count" in err


# ---------------------------------------------------------------------------
# maxcut


def test_maxcut_triangle(capsys, tmp_path):
    target = tmp_path / "triangle.txt"
    target.write_text("1 2\n2 3\n1 3\n")
    code, out, err = run(capsys, "maxcut", str(target), "--trials", "3", "--d", "2")
    assert code == 0 and err == ""
    assert "max 3-cut: 3" in out
    assert "best unitary cut over 3 random order-3 families" in out
    assert "roots-of-unity identity" in out
    assert "cut value bridge" in out


def test_maxcut_skips_bridge_on_larger_graphs(capsys, tmp_path):
    target = tmp_path / "seven.txt"
    target.write_text("\n".join(f"{v} {v + 1}" for v in range(1, 7)))
    code, out, _ = run(capsys, "maxcut", str(target), "--trials", "0")
    assert code == 0
    assert "value bridge: skipped" in out


def test_maxcut_rejects_oversized_graph(capsys, tmp_path):
    target = tmp_path / "big.txt"
    target.write_text("\n".join(f"{v} {v + 1}" for v in range(1, 20)))
    code, _, err = run(capsys, "maxcut", str(target))
    assert code == 2
    assert "exhaustive-search limit" in err


# ---------------------------------------------------------------------------
# demo and environment


def test_demo_runs(capsys):
    code, out, err = run(capsys, "demo")
    assert code == 0 and err == ""
    assert "minimal game compiles to 25 vertices / 62 edges" in out
    assert "twist sweep (seed 11):" in out
    assert "K4: max 3-cut 5" in out


def test_threads_env_validated(capsys, monkeypatch):
    monkeypatch.setenv("GADGETGRAPH_THREADS", "soon")
    code, _, err = run(capsys, "check", "--trials", "0")
    assert code == 2
    assert "GADGETGRAPH_THREADS" in err
    monkeypatch.setenv("GADGETGRAPH_THREADS", "0")
    code, _, err = run(capsys, "check", "--trials", "0")
    assert code == 2
    monkeypatch.setenv("GADGETGRAPH_THREADS", "4")
    code, _, _ = run(capsys, "check", "--trials", "0")
    assert code == 0


def test_same_seed_same_output(capsys):
    _, first, _ = run(capsys, "check", "--trials", "2", "--d", "3", "--seed", "42")
    _, second, _ = run(capsys, "check", "--trials", "2", "--d", "3", "--seed", "42")
    assert first == second
    _, demo1, _ = run(capsys, "demo", "--seed", "2")
    _, demo2, _ = run(capsys, "demo", "--seed", "2")
    assert demo1 == demo2
