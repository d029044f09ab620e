"""Every certified bound fires when it fails.

Valid inputs satisfy the theorems, so a bound of the package can only be
seen to fire on an input that breaks it on purpose.  Each case below takes a
lossy input, on which the bound's lhs is positive, and breaks the bound: its
rhs factor is patched to 0, or, where the rhs is 0 (or a tolerance) by
definition, a fault is injected into one side.  The library call must raise
``BoundViolation``, and the command must exit 1 naming the report.

The last tests do the same for ``forward_translate``'s check of its own
output and for its rounding of the gadgets' projections: on a validated
strategy their failure is a bound violation, not invalid input.
"""

import json

import numpy as np
import pytest

from gadgetgraph import cli, forward, linalg, maxcut, reverse, rounding
from gadgetgraph.errors import BoundViolation
from gadgetgraph.forward import certify_forward, forward_translate
from gadgetgraph.games import load_coloring_strategy, load_game, load_game_strategy, save_game, write_strategy_json
from gadgetgraph.graphs import build_graph
from gadgetgraph.instances import (
    perfect_labels,
    random_game,
    random_order3_family,
    random_strategy,
    triangle_coloring_game,
    triangle_strategy,
    twisted_colorings,
)
from gadgetgraph.maxcut import complete_graph, load_simple_graph, roots_identity_check, value_bridge
from gadgetgraph.reverse import aggregate_offcolor_estimate, certify_reverse_lemmas, reverse_translate, symmetrize


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The lossy input files of every case: a random game and strategy, a
    twisted coloring of the triangle game, a triangle and an edgeless graph."""
    root = tmp_path_factory.mktemp("certified")
    rng = np.random.default_rng(3)
    game = random_game(rng, 2, 3)
    save_game(game, root / "game.json")
    write_strategy_json(random_strategy(rng, game, 3), root / "strategy.json")
    triangle = triangle_coloring_game()
    save_game(triangle, root / "triangle.json")
    labels = perfect_labels(triangle, build_graph(triangle), triangle_strategy())
    write_strategy_json(twisted_colorings(labels, (0.3,), seed=5)[0.3], root / "coloring.json")
    (root / "k4.txt").write_text("1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    (root / "edgeless.json").write_text(json.dumps({"n": 2, "edges": []}))
    return root


def _forward(root):
    game = load_game(root / "game.json")
    certify_forward(game, build_graph(game), load_game_strategy(root / "strategy.json"))


def _reverse(call):
    def run(root):
        game = load_game(root / "triangle.json")
        call(game, build_graph(game), load_coloring_strategy(root / "coloring.json"))
    return run


def _offcolor(game, graph, cs):
    aggregate_offcolor_estimate(graph, symmetrize(cs))


def _plus_one(module, name):
    """Patch ``module.name`` to return one more than it does."""
    def patch(monkeypatch):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: real(*args) + 1.0)
    return patch


def _zero(module, name):
    return lambda monkeypatch: monkeypatch.setattr(module, name, 0.0)


K4 = complete_graph(4)
FORWARD_ARGV = ("forward", "{root}/game.json", "{root}/strategy.json", "--out", "{root}/out")
REVERSE_ARGV = ("reverse", "{root}/triangle.json", "{root}/coloring.json", "--out", "{root}/out")

#: (name, break the bound, the library call, the command, the report's context)
SITES = [
    ("certify_forward", _zero(forward, "FORWARD_FACTOR"), _forward, FORWARD_ARGV, "forward value transfer"),
    (
        "control sandwich sum", _zero(reverse, "SANDWICH_SUM_FACTOR"),
        _reverse(certify_reverse_lemmas), REVERSE_ARGV, "control sandwich sum-to-1",
    ),
    (
        "control sandwich projection", _zero(reverse, "SANDWICH_PROJECTION_FACTOR"),
        _reverse(certify_reverse_lemmas), REVERSE_ARGV, "control sandwich projection defect",
    ),
    (
        "control sandwich cross", _zero(reverse, "SANDWICH_CROSS_FACTOR"),
        _reverse(certify_reverse_lemmas), REVERSE_ARGV, "control sandwich cross products",
    ),
    (
        "sandwich commutator", lambda mp: mp.setattr(reverse, "_commutator_rhs", lambda *args: 0.0),
        _reverse(certify_reverse_lemmas), REVERSE_ARGV, "sandwich commutator (answer 1, question 1)",
    ),
    (
        "aggregate off-color", _zero(reverse, "OFFCOLOR_FACTOR"),
        _reverse(_offcolor), ("demo",), "aggregate off-color estimate",
    ),
    (
        "rounded outcome", _zero(rounding, "ROUNDED_OWN_FACTOR"),
        _reverse(reverse_translate), REVERSE_ARGV, "rounded outcome 1 of 18",
    ),
    (
        "roots identity", _plus_one(maxcut, "unitary_cut_value"),
        lambda root: roots_identity_check(K4, random_order3_family(np.random.default_rng(0), K4, 3)),
        ("maxcut", "{root}/k4.txt", "--trials", "2"), "roots-of-unity identity (worst at aggregate)",
    ),
    (
        "value bridge", _plus_one(maxcut, "max3cut_bruteforce"),
        lambda root: value_bridge(load_simple_graph(root / "k4.txt")),
        ("maxcut", "{root}/k4.txt", "--trials", "0"), "cut value bridge (cut 6,",
    ),
    (
        "value bridge without edges", _plus_one(maxcut, "max3cut_bruteforce"),
        lambda root: value_bridge(load_simple_graph(root / "edgeless.json")),
        ("maxcut", "{root}/edgeless.json", "--trials", "0"), "cut value bridge (no edges)",
    ),
]


@pytest.mark.parametrize("name, breaks, call, argv, context", SITES, ids=[site[0] for site in SITES])
def test_a_broken_bound_fires(monkeypatch, capsys, inputs, name, breaks, call, argv, context):
    call(inputs)  # holds on the lossy input
    assert cli.main([arg.format(root=inputs) for arg in argv]) == 0
    capsys.readouterr()
    breaks(monkeypatch)
    with pytest.raises(BoundViolation, match="^" + context.replace("(", r"\(").replace(")", r"\)")):
        call(inputs)
    assert cli.main([arg.format(root=inputs) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bound violation: {context}"), err


def test_forward_output_check_failure_is_a_bound_violation(monkeypatch, capsys, inputs):
    # The output's PVM defect is a few 1e-16; at tolerance 0 the check fails.
    monkeypatch.setattr(forward, "FORWARD_PVM_TOL", 0.0)
    game = load_game(inputs / "game.json")
    strategy = load_game_strategy(inputs / "strategy.json")
    with pytest.raises(BoundViolation, match=r"^coloring PVM at .* defect .* > 0e\+00$"):
        forward_translate(game, build_graph(game), strategy)
    assert cli.main([arg.format(root=inputs) for arg in FORWARD_ARGV]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bound violation: coloring PVM at ")


def test_forward_rounding_failure_is_a_bound_violation(monkeypatch, capsys, inputs):
    # At window -1 every spectrum leaves [0, 1] "beyond tolerance", so the
    # first gadget's rounding fails; the strategy check reads no window.
    monkeypatch.setattr(linalg, "TOL_SPECTRUM", -1.0)
    game = load_game(inputs / "game.json")
    strategy = load_game_strategy(inputs / "strategy.json")
    message = r"^spectral_projection_half input spectrum \[.*\] leaves \[0,1\] beyond tolerance -1e\+00$"
    with pytest.raises(BoundViolation, match=message):
        forward_translate(game, build_graph(game), strategy)
    assert cli.main([arg.format(root=inputs) for arg in FORWARD_ARGV]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bound violation: spectral_projection_half input spectrum ")


def test_forward_still_refuses_invalid_input_with_exit_2(monkeypatch, capsys, inputs, tmp_path):
    monkeypatch.setattr(forward, "FORWARD_PVM_TOL", 0.0)
    payload = json.loads((inputs / "strategy.json").read_text())
    payload["pvms"]["1"][0][0] = [2.0, 0.0]  # outcome 1 is no longer a projection
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(payload))
    assert cli.main(["forward", str(inputs / "game.json"), str(broken), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("invalid input: game strategy PVM at 1 outcome 1 ")
