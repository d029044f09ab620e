"""Cross-version regression oracle: CLI runs against committed golden outputs.

The inputs and expected outputs under ``tests/golden/`` were written by an
earlier version of the package, so these tests compare the current code
with that version, not with a second run of itself.  Graph exports must
match byte for byte.  Floats in stdout are compared at a relative tolerance
of 1e-9, with an absolute floor of 1e-12 for values that are rounding
noise around zero.  The entries of written strategy files are compared at
an absolute tolerance of 1e-12.

Regenerate the files only when a change of output is intended (and say why
in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from gadgetgraph.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = ("game.json", "strategy.json", "coloring.json", "graph.txt")

#: name -> (argv, files the command writes)
CASES = {
    "compile": (
        ["compile", "game.json", "--format", "both", "--out", "minimal"],
        ("minimal.graph.json", "minimal.dot"),
    ),
    "forward": (["forward", "game.json", "strategy.json", "--out", "forward"], ("forward.coloring.json",)),
    "reverse": (["reverse", "game.json", "coloring.json", "--out", "reverse"], ("reverse.strategy.json",)),
    "maxcut": (["maxcut", "graph.txt", "--trials", "5", "--d", "3", "--seed", "3"], ()),
    "check": (["check", "--trials", "5", "--seed", "2"], ()),
}
BYTE_EXACT = ("minimal.graph.json", "minimal.dot")

_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _run(case: str, workdir: Path, monkeypatch, capsys) -> str:
    for name in INPUTS:
        shutil.copy(GOLDEN / name, workdir / name)
    monkeypatch.chdir(workdir)
    code = main(CASES[case][0])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _assert_text_close(got: str, want: str) -> None:
    assert _FLOAT.split(got) == _FLOAT.split(want), "non-numeric text differs"
    for g, w in zip(_FLOAT.findall(got), _FLOAT.findall(want)):
        assert math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=1e-12), (g, w)


def _assert_strategy_close(got: dict, want: dict) -> None:
    assert got["d"] == want["d"]
    assert sorted(got["pvms"]) == sorted(want["pvms"])
    for key, mats in want["pvms"].items():
        np.testing.assert_allclose(np.array(got["pvms"][key]), np.array(mats), rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_matches_golden(case, tmp_path, monkeypatch, capsys):
    out = _run(case, tmp_path, monkeypatch, capsys)
    _assert_text_close(out, (GOLDEN / f"{case}.stdout").read_text())
    for name in CASES[case][1]:
        got, want = tmp_path / name, GOLDEN / name
        if name in BYTE_EXACT:
            assert got.read_bytes() == want.read_bytes(), name
        else:
            _assert_strategy_close(json.loads(got.read_text()), json.loads(want.read_text()))


def test_float_comparison_rejects_a_moved_digit():
    _assert_text_close("value: 0.25 slack 1e-17", "value: 0.25 slack 3e-17")
    with pytest.raises(AssertionError):
        _assert_text_close("value: 0.250000001", "value: 0.25")
    with pytest.raises(AssertionError):
        _assert_text_close("value: 0.25 (d=3)", "value: 0.25 (d=4)")


def _regenerate() -> None:
    import contextlib
    import io

    from gadgetgraph.games import save_coloring_strategy, save_game, save_game_strategy
    from gadgetgraph.graphs import build_graph
    from gadgetgraph.instances import (
        deterministic_strategy,
        minimal_game,
        perfect_labels,
        random_strategy,
        twisted_colorings,
    )

    GOLDEN.mkdir(exist_ok=True)
    game = minimal_game()
    save_game(game, GOLDEN / "game.json")
    save_game_strategy(random_strategy(np.random.default_rng(7), game, 2), GOLDEN / "strategy.json")
    labels = perfect_labels(game, build_graph(game), deterministic_strategy(game, (2,)))
    twisted = twisted_colorings(labels, (0.05,), seed=5, d=3)[0.05]
    save_coloring_strategy(twisted, GOLDEN / "coloring.json")
    (GOLDEN / "graph.txt").write_text("# a 5-cycle with one chord\n1 2\n2 3\n3 4\n4 5\n5 1\n1 3\n")
    os.chdir(GOLDEN)
    for case, (argv, _) in CASES.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(argv) == 0
        (GOLDEN / f"{case}.stdout").write_text(buf.getvalue())


if __name__ == "__main__":
    _regenerate()
