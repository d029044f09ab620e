"""Cross-version regression oracle: CLI runs against committed golden outputs.

The inputs and expected outputs under ``tests/golden/`` were written by an
earlier version of the package, so these tests compare the current code
with that version, not with a second run of itself.  Graph exports must
match byte for byte.  Floats in stdout are compared at a relative tolerance
of 1e-9, with an absolute floor of 1e-12 for values that are rounding
noise around zero.  The entries of written strategy files are compared at
an absolute tolerance of 1e-12.

Regenerate the files only when a change of output is intended (and say why
in CHANGES.md).  With no argument every case and every input is rewritten;
naming cases rewrites only those cases' expected outputs and the inputs
their command lines read, so a new case can be added without touching the
outputs an earlier version wrote:

    PYTHONPATH=src python tests/test_golden.py
    PYTHONPATH=src python tests/test_golden.py reverse4
"""

import itertools
import json
import math
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from gadgetgraph.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = ("game.json", "game10.json", "strategy.json", "coloring.json", "coloring4.json", "graph.txt")

#: name -> (argv, files the command writes)
CASES = {
    "compile": (
        ["compile", "game.json", "--format", "both", "--out", "minimal"],
        ("minimal.graph.json", "minimal.dot"),
    ),
    # Ten questions put two-digit numbers in names; e, f and rest are all non-empty.
    "compile10": (
        ["compile", "game10.json", "--format", "both", "--out", "n10m4"],
        ("n10m4.graph.json", "n10m4.dot"),
    ),
    "forward": (["forward", "game.json", "strategy.json", "--out", "forward"], ("forward.coloring.json",)),
    "reverse": (["reverse", "game.json", "coloring.json", "--out", "reverse"], ("reverse.strategy.json",)),
    # d = 4: 4x4 blocks after symmetrization and one surplus lift coordinate.
    "reverse4": (["reverse", "game.json", "coloring4.json", "--out", "reverse4"], ("reverse4.strategy.json",)),
    "maxcut": (["maxcut", "graph.txt", "--trials", "5", "--d", "3", "--seed", "3"], ()),
    "check": (["check", "--trials", "5", "--seed", "2"], ()),
}
BYTE_EXACT = ("minimal.graph.json", "minimal.dot", "n10m4.graph.json", "n10m4.dot")

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


def _draw_game(rng, n: int, m: int, p: float):
    """Synchrony tuples plus round(p * size) cross-question losing tuples from
    each answer class: both answers at an end of 1..m, both inside, mixed."""
    from gadgetgraph.games import SyncGame

    ends = {1, m}
    classes = ([], [], [])
    for x, y, a, b in itertools.product(range(1, n + 1), range(1, n + 1), range(1, m + 1), range(1, m + 1)):
        if x != y:
            cls = (0 if a in ends else 1) if (a in ends) == (b in ends) else 2
            classes[cls].append((a, b, x, y))
    losing = {(a, b, x, x) for x in range(1, n + 1) for a in range(1, m + 1) for b in range(1, m + 1) if a != b}
    for members in classes:
        picked = rng.choice(len(members), size=round(p * len(members)), replace=False)
        losing.update(members[i] for i in picked)
    return SyncGame(n=n, m=m, losing=frozenset(losing))


def _input_writers() -> dict:
    """input file name -> function writing it into a directory."""
    from gadgetgraph.games import save_game, write_strategy_json
    from gadgetgraph.graphs import build_graph
    from gadgetgraph.instances import (
        deterministic_strategy,
        minimal_game,
        perfect_labels,
        random_strategy,
        twisted_colorings,
    )

    game = minimal_game()

    def twisted(d: int):
        labels = perfect_labels(game, build_graph(game), deterministic_strategy(game, (2,)))
        return twisted_colorings(labels, (0.05,), seed=5, d=d)[0.05]

    return {
        "game.json": lambda path: save_game(game, path),
        "game10.json": lambda path: save_game(_draw_game(np.random.default_rng(10), 10, 4, 0.01), path),
        "strategy.json": lambda path: write_strategy_json(random_strategy(np.random.default_rng(7), game, 2), path),
        "coloring.json": lambda path: write_strategy_json(twisted(3), path),
        "coloring4.json": lambda path: write_strategy_json(twisted(4), path),
        "graph.txt": lambda path: path.write_text("# a 5-cycle with one chord\n1 2\n2 3\n3 4\n4 5\n5 1\n1 3\n"),
    }


def _regenerate(names=()) -> None:
    """Rewrite the named cases (all when none is named) and their inputs."""
    import contextlib
    import io

    unknown = sorted(set(names) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown golden cases {unknown}; known: {sorted(CASES)}")
    cases = list(names) or list(CASES)
    inputs = [name for name in INPUTS if not names or any(name in CASES[c][0] for c in cases)]
    GOLDEN.mkdir(exist_ok=True)
    writers = _input_writers()
    for name in inputs:
        writers[name](GOLDEN / name)
    os.chdir(GOLDEN)
    for case in cases:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(CASES[case][0]) == 0
        (GOLDEN / f"{case}.stdout").write_text(buf.getvalue())


if __name__ == "__main__":
    _regenerate(sys.argv[1:])
