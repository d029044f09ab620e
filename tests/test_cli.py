import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import gadgetgraph

from helpers import OVERFLOW_MESSAGE, OVERFLOWING_STRATEGY
from gadgetgraph import cli, linalg
from gadgetgraph.cli import _build_parser, main
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


def test_compile_reads_a_game_file_named_like_json(capsys, game_file):
    # The CLI passes a Path, so a file name starting with "[" is still a file.
    bracketed = game_file.with_name("[set1].json")
    bracketed.write_text(game_file.read_text())
    code, out, err = run(capsys, "compile", str(bracketed))
    assert code == 0 and err == ""
    assert "game: n=1 m=3 losing=6" in out


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
    assert len(cs.keys) == 25


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


def test_forward_names_an_overflowing_entry_in_one_line(capsys, tmp_path, game_file):
    target = tmp_path / "overflow.json"
    target.write_text(json.dumps(OVERFLOWING_STRATEGY))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would escape main
        code, out, err = run(capsys, "forward", str(game_file), str(target))
    assert (code, out, err) == (2, "", f"invalid input: {OVERFLOW_MESSAGE}\n")


def test_forward_refuses_a_boolean_part(capsys, strategy_file, game_file):
    # One true among the floats: numpy alone would read it as 1.
    payload = json.loads(strategy_file.read_text())
    payload["pvms"]["1"][1][0][1] = True
    strategy_file.write_text(json.dumps(payload))
    code, out, err = run(capsys, "forward", str(game_file), str(strategy_file))
    want = "invalid input: game strategy entry '1' outcome 2: matrix entry 0 has non-numeric parts\n"
    assert (code, out, err) == (2, "", want)


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


def test_every_option_is_documented():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    undocumented = [
        f"{name} {option}"
        for name, command in commands.choices.items()
        for action in command._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if not re.search(rf"{re.escape(option)}(?![\w-])", readme)
    ]
    assert not undocumented, f"options missing from README.md: {undocumented}"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The first code block of the Library section, run as it is written, so
    # that the documented example cannot fall out of step with the API.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {"__name__": "readme"})
    assert (tmp_path / "coloring.json").is_file()
    assert "forward value transfer" in capsys.readouterr().out


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
    # The path and the cycle C7 on seven vertices.
    target = tmp_path / "seven.txt"
    for closing in ("", "\n7 1"):
        target.write_text("\n".join(f"{v} {v + 1}" for v in range(1, 7)) + closing)
        code, out, err = run(capsys, "maxcut", str(target), "--trials", "0")
        assert code == 0 and err == ""
        assert out.splitlines()[0] == f"graph: 7 vertices, {6 + len(closing) // 4} edges"
        assert out.splitlines()[-1] == "value bridge: skipped (enumeration limited to 6 vertices here)"


def test_maxcut_rejects_boolean_vertices_before_printing(capsys, tmp_path):
    # JSON true is a Python int; it used to be drawn as vertex 1 and fail
    # only in the value bridge, after the graph and cut lines were printed.
    target = tmp_path / "g.json"
    target.write_text(json.dumps({"n": 3, "edges": [[True, 2], [2, 3]]}))
    code, out, err = run(capsys, "maxcut", str(target))
    assert code == 2 and out == ""
    assert "non-integer endpoints" in err


def test_maxcut_rejects_oversized_graph(capsys, tmp_path):
    target = tmp_path / "big.txt"
    target.write_text("\n".join(f"{v} {v + 1}" for v in range(1, 20)))
    code, _, err = run(capsys, "maxcut", str(target))
    assert code == 2
    assert "exhaustive-search limit" in err


def test_dimension_cap_admits_64(capsys, tmp_path):
    # The oversized cases exit 2 with nothing drawn (see MALFORMED); d = 64 itself runs.
    for argv in (("check", "--trials", "1"), ("maxcut", str(_graph_file(tmp_path)), "--trials", "1")):
        code, out, err = run(capsys, *argv, "--d", "64")
        assert code == 0 and err == "" and out, (out, err)


def test_maxcut_draws_its_families_in_bounded_batches(capsys, tmp_path, monkeypatch):
    target = tmp_path / "triangle.txt"
    target.write_text("1 2\n2 3\n1 3\n")
    argv = ("maxcut", str(target), "--trials", "5", "--d", "2", "--seed", "4")
    calls = []

    def spy(rng, g, d, count):
        calls.append(count)
        return families(rng, g, d, count)

    families = cli.random_order3_families
    monkeypatch.setattr(cli, "random_order3_families", spy)
    code, whole, err = run(capsys, *argv)
    assert code == 0 and err == "" and calls == [5]
    # One family of 3 unitaries at d = 2 is 3 * 4 * 16 = 192 bytes.
    monkeypatch.setattr(linalg, "GATHER_BYTES", 2 * 192)
    calls.clear()
    code, batched, err = run(capsys, *argv)
    assert code == 0 and err == "" and batched == whole
    assert calls == [2, 2, 1]


@pytest.mark.parametrize("n", [0, 1])
def test_maxcut_on_a_graph_without_edges(capsys, tmp_path, n):
    target = tmp_path / "empty.json"
    target.write_text(json.dumps({"n": n, "edges": []}))
    code, out, err = run(capsys, "maxcut", str(target))
    assert code == 0 and err == ""
    assert out == (
        f"graph: {n} vertices, 0 edges\n"
        "max 3-cut: 0\n"
        "best unitary cut over 20 random order-3 families (d=3): 0\n"
        "roots-of-unity identity (no edges): lhs 0 rhs 1e-10 slack 1e-10\n"
        "cut value bridge (no edges): lhs 0 rhs 0 slack 0\n"
    )


# ---------------------------------------------------------------------------
# demo and environment


def test_demo_runs(capsys):
    code, out, err = run(capsys, "demo")
    assert code == 0 and err == ""
    assert "minimal game compiles to 25 vertices / 62 edges" in out
    assert "twist sweep (seed 11):" in out
    assert "K4: max 3-cut 5" in out


def test_commands_leave_numpy_ma_unimported(tmp_path, game_file, strategy_file, coloring_file):
    # Importing numpy.ma (np.unique and np.setdiff1d do) costs 0.5-0.9 MB of
    # peak RSS.  The four commands run in turn in one fresh interpreter.
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 4, "edges": [[1, 2], [2, 3], [3, 4], [1, 3]]}))
    commands = [
        ["compile", str(game_file), "--format", "both", "--out", str(tmp_path / "c")],
        ["forward", str(game_file), str(strategy_file), "--out", str(tmp_path / "f")],
        ["reverse", str(game_file), str(coloring_file), "--out", str(tmp_path / "r")],
        ["maxcut", str(graph), "--trials", "3"],
    ]
    script = (
        "import json, sys\n"
        "from gadgetgraph.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, f'{argv[0]} imported numpy.ma'\n"
    )
    env = dict(os.environ)
    package_root = str(Path(gadgetgraph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(commands)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_same_seed_same_output(capsys):
    _, first, _ = run(capsys, "check", "--trials", "2", "--d", "3", "--seed", "42")
    _, second, _ = run(capsys, "check", "--trials", "2", "--d", "3", "--seed", "42")
    assert first == second
    _, demo1, _ = run(capsys, "demo", "--seed", "2")
    _, demo2, _ = run(capsys, "demo", "--seed", "2")
    assert demo1 == demo2


# ---------------------------------------------------------------------------
# malformed files and flags: exit 2 with a message, never a traceback


def _rewrite(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    return str(path)


def _boolean_d(payload):
    payload["d"] = True


def _keys(*keys):
    def edit(payload):
        (mats,) = payload["pvms"].values()
        payload["pvms"] = dict.fromkeys(keys, mats)

    return edit


def _not_utf8(path):
    path.write_bytes(b"\xff\xfe" + path.read_bytes())
    return str(path)


def _repeat(*where):
    """Rewrite a JSON file so that the object reached through the keys
    ``where[:-1]`` lists its key ``where[-1]`` twice, with the same value.
    ``json.dumps`` cannot write that, so the entry is doubled in the text."""

    def edit(path):
        payload = json.loads(path.read_text())
        obj = payload
        for key in where[:-1]:
            obj = obj[key]
        entry = json.dumps({where[-1]: obj[where[-1]]})[1:-1]
        text = json.dumps(payload)
        assert text.count(entry) == 1
        path.write_text(text.replace(entry, f"{entry}, {entry}"))
        return str(path)

    return edit


def _graph_json_file(tmp_path):
    target = tmp_path / "triangle.json"
    target.write_text(json.dumps({"n": 3, "edges": [[1, 2], [2, 3], [1, 3]]}))
    return target


def _graph_edges(edges):
    def write(tmp_path):
        target = tmp_path / "graph.json"
        target.write_text(json.dumps({"n": 3, "edges": edges}))
        return target

    return write


def _graph_vertices(n):
    def write(tmp_path):
        target = tmp_path / "graph.json"
        target.write_text(json.dumps({"n": n, "edges": []}))
        return target

    return write


def _graph_file(tmp_path):
    target = tmp_path / "triangle.txt"
    target.write_text("1 2\n2 3\n1 3\n")
    return target


MALFORMED = {
    "forward-boolean-d": lambda g, s, c, t: ("forward", g, _rewrite(s, _boolean_d)),
    "reverse-boolean-d": lambda g, s, c, t: ("reverse", g, _rewrite(c, _boolean_d)),
    "forward-keys-1-01": lambda g, s, c, t: ("forward", g, _rewrite(s, _keys("1", "01"))),
    "forward-key-underscore": lambda g, s, c, t: ("forward", g, _rewrite(s, _keys("1", "1_0"))),
    "forward-key-space": lambda g, s, c, t: ("forward", g, _rewrite(s, _keys(" 1"))),
    "forward-key-plus": lambda g, s, c, t: ("forward", g, _rewrite(s, _keys("+1"))),
    "compile-game-not-utf8": lambda g, s, c, t: ("compile", _not_utf8(g)),
    "forward-strategy-not-utf8": lambda g, s, c, t: ("forward", g, _not_utf8(s)),
    "reverse-coloring-not-utf8": lambda g, s, c, t: ("reverse", g, _not_utf8(c)),
    "maxcut-graph-not-utf8": lambda g, s, c, t: ("maxcut", _not_utf8(_graph_file(t))),
    "forward-repeated-question": lambda g, s, c, t: ("forward", g, _repeat("pvms", "1")(s)),
    "reverse-repeated-vertex": lambda g, s, c, t: ("reverse", g, _repeat("pvms", "A")(c)),
    "forward-repeated-d": lambda g, s, c, t: ("forward", g, _repeat("d")(s)),
    "compile-game-repeated-n": lambda g, s, c, t: ("compile", _repeat("n")(g)),
    "maxcut-graph-repeated-key": lambda g, s, c, t: ("maxcut", _repeat("edges")(_graph_json_file(t))),
    "maxcut-missing-file": lambda g, s, c, t: ("maxcut", t / "missing.json"),
    "maxcut-edge-a-number": lambda g, s, c, t: ("maxcut", _graph_edges([5])(t)),
    "maxcut-edges-a-number": lambda g, s, c, t: ("maxcut", _graph_edges(5)(t)),
    "maxcut-edges-null": lambda g, s, c, t: ("maxcut", _graph_edges(None)(t)),
    "maxcut-edge-float": lambda g, s, c, t: ("maxcut", _graph_edges([[1, 2.5]])(t)),
    "maxcut-edge-a-string": lambda g, s, c, t: ("maxcut", _graph_edges(["ab"])(t)),
    "maxcut-edge-a-mapping": lambda g, s, c, t: ("maxcut", _graph_edges([{"a": 1, "b": 2}])(t)),
    "check-tol-nan": lambda g, s, c, t: ("check", "--trials", "1", "--tol", "nan"),
    "check-tol-inf": lambda g, s, c, t: ("check", "--trials", "1", "--tol", "inf"),
    "check-tol-minus-inf": lambda g, s, c, t: ("check", "--trials", "1", "--tol=-inf"),
    "check-tol-negative": lambda g, s, c, t: ("check", "--trials", "1", "--tol=-1"),
    "maxcut-negative-seed": lambda g, s, c, t: ("maxcut", _graph_file(t), "--seed", "-1"),
    "maxcut-d-zero": lambda g, s, c, t: ("maxcut", _graph_file(t), "--d", "0"),
    "maxcut-d-above-64": lambda g, s, c, t: ("maxcut", _graph_file(t), "--trials", "1", "--d", "65"),
    "check-d-zero": lambda g, s, c, t: ("check", "--trials", "1", "--d", "0"),
    "check-d-above-64": lambda g, s, c, t: ("check", "--trials", "1", "--d", "65"),
    "maxcut-graph-over-limit": lambda g, s, c, t: ("maxcut", _graph_vertices(5000)(t)),
    "check-negative-seed": lambda g, s, c, t: ("check", "--trials", "1", "--seed", "-1"),
    "demo-negative-seed": lambda g, s, c, t: ("demo", "--seed", "-1"),
}


#: What the message must say, for the cases whose exit code and prefix
#: alone could come from a wrong diagnosis.
MALFORMED_MESSAGES = {
    "maxcut-missing-file": "No such file or directory",
    "maxcut-edge-a-number": "edge 5 is not a pair",
    "maxcut-edges-a-number": "graph field 'edges' must be a list of pairs",
    "maxcut-edges-null": "graph field 'edges' must be a list of pairs",
    "maxcut-edge-float": "edge (1, 2.5) has non-integer endpoints",
    "maxcut-edge-a-string": "edge 'ab' is not a pair",
    "maxcut-edge-a-mapping": "edge {'a': 1, 'b': 2} is not a pair",
    "maxcut-negative-seed": "seed must be >= 0, got -1",
    "check-negative-seed": "seed must be >= 0, got -1",
    "demo-negative-seed": "seed must be >= 0, got -1",
    "maxcut-d-zero": "dimension must be in 1..64, got 0",
    "maxcut-d-above-64": "dimension must be in 1..64, got 65",
    "check-d-zero": "dimension must be in 1..64, got 0",
    "check-d-above-64": "dimension must be in 1..64, got 65",
    "maxcut-graph-over-limit": "5000 vertices exceed the exhaustive-search limit 18",
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_exits_2(capsys, tmp_path, game_file, strategy_file, coloring_file, case):
    argv = MALFORMED[case](game_file, strategy_file, coloring_file, tmp_path)
    code, out, err = run(capsys, *map(str, argv))
    assert code == 2 and out == "", (out, err)
    assert err.startswith("invalid input: ") and err.count("\n") == 1, err
    assert MALFORMED_MESSAGES.get(case, "") in err, err
    assert "Traceback" not in out + err
