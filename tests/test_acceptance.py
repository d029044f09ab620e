"""Release gate: nine numbered end-to-end guarantees.

Each test runs one guarantee at its stated tolerance and appends a
PASS/FAIL line that conftest prints after the session, so the verdicts
survive output capture.  Budgets are wall-clock seconds measured inside
the test body; shared sweeps are memoized so the first consumer pays for
them inside its own budget.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import gadgetgraph
import helpers
from gadgetgraph.forward import (
    certify_forward,
    coloring_value,
    forward_translate,
    ortho_gadget_losses,
)
from gadgetgraph.games import (
    PriorDistribution,
    save_game,
    sync_value,
    write_strategy_json,
)
from gadgetgraph.graphs import build_graph
from gadgetgraph.instances import (
    BOUND_FAMILIES,
    bound_suite_trial,
    deterministic_strategy,
    minimal_game,
    perfect_labels,
    random_coloring,
    random_game,
    random_order3_family,
    random_strategy,
    triangle_strategy,
    twisted_colorings,
)
from gadgetgraph.linalg import two_norm
from gadgetgraph.maxcut import (
    complete_graph,
    cycle_graph,
    max3cut_bruteforce,
    roots_identity_check,
    value_bridge,
)
from gadgetgraph.reverse import (
    aggregate_offcolor_estimate,
    certify_reverse_lemmas,
    compute_diagnostics,
    reverse_translate,
    symmetrize,
)

SLACK_TOL = 1e-9
THETAS = (0.1, 0.05, 0.01)


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None:
            assert elapsed < budget, (
                f"criterion {number} took {elapsed:.1f}s, budget {budget:.0f}s"
            )
    except BaseException:
        helpers.ACCEPTANCE_RESULTS.append(
            (number, "FAIL", description, time.perf_counter() - start)
        )
        raise
    helpers.ACCEPTANCE_RESULTS.append((number, "PASS", description, elapsed))


# ---------------------------------------------------------------------------
# shared sweeps (memoized; the first consumer pays inside its budget)

_FORWARD_SWEEP: list = []


def forward_sweep():
    """200 random-strategy forward translations over four m=3 games."""
    if _FORWARD_SWEEP:
        return _FORWARD_SWEEP
    rng = np.random.default_rng(9112)
    games = [
        minimal_game(),
        random_game(np.random.default_rng(101), 2, 3),
        random_game(np.random.default_rng(202), 2, 3),
        random_game(np.random.default_rng(303), 1, 3),
    ]
    graphs = [build_graph(g) for g in games]
    for trial in range(200):
        game, graph = games[trial % 4], graphs[trial % 4]
        d = 2 if trial % 2 == 0 else 4
        strategy = random_strategy(rng, game, d)
        cs = forward_translate(game, graph, strategy)
        report = certify_forward(game, graph, strategy)
        losses = ortho_gadget_losses(game, graph, strategy, cs)
        _FORWARD_SWEEP.append((report, losses))
    return _FORWARD_SWEEP


# ---------------------------------------------------------------------------
# the criteria


def test_criterion_1_round_trips(min_game, min_graph, tri_game, tri_graph):
    with criterion(1, "perfect round trips preserve the value", budget=10.0):
        cases = [
            (min_game, min_graph, deterministic_strategy(min_game, (1,))),
            (tri_game, tri_graph, triangle_strategy()),
        ]
        for game, graph, strategy in cases:
            cs = forward_translate(game, graph, strategy)
            assert abs(coloring_value(graph, cs).value - 1.0) <= 1e-10
            recovered = sync_value(
                game,
                reverse_translate(game, graph, cs),
                PriorDistribution.uniform_questions(game.n),
            ).value
            assert abs(recovered - 1.0) <= 1e-8


def test_criterion_2_forward_certificates():
    with criterion(
        2, "forward value transfer certified on 200 random strategies", budget=120.0
    ):
        trials = forward_sweep()
        assert len(trials) == 200
        for report, _ in trials:
            assert report.slack >= -SLACK_TOL, report.context


def test_criterion_3_per_gadget_losses():
    with criterion(
        3, "per-gadget losses bounded by 712x tuple probability", budget=120.0
    ):
        checked = 0
        for _, losses in forward_sweep():
            for gadget in losses:
                assert gadget.loss <= 712.0 * gadget.probability + SLACK_TOL, gadget.tup
                checked += 1
        assert checked > 0


def test_criterion_4_edge_census():
    with criterion(4, "edge census matches the independent enumerator"):
        rng = np.random.default_rng(44)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(3, 6))
            game = random_game(rng, n, m)
            helpers.assert_edge_accounting(game, build_graph(game))


def test_criterion_5_inequality_suite():
    with criterion(
        5, "randomized inequality suite: zero violations in 1000 trials", budget=300.0
    ):
        rng = np.random.default_rng(55)
        seen = set()
        for _ in range(1000):
            d = int(rng.integers(2, 9))
            for family, report in bound_suite_trial(rng, d):
                seen.add(family)
                assert report.slack >= -SLACK_TOL, f"{family}: {report.context}"
        assert seen == set(BOUND_FAMILIES)


def test_criterion_6_twist_sweep(min_game, min_graph):
    with criterion(6, "lemma bounds hold and tighten along the twist sweep"):
        labels = perfect_labels(
            min_game, min_graph, deterministic_strategy(min_game, (2,))
        )
        tracked: dict = {}
        for theta, cs in twisted_colorings(labels, THETAS, seed=11).items():
            reports = certify_reverse_lemmas(min_game, min_graph, cs)
            zeta = compute_diagnostics(min_graph, symmetrize(cs, min_graph)).zeta[0]  # the control triangle
            expected_rhs = {
                "control sandwich sum-to-1": 238.5 * zeta,
                "control sandwich projection defect": 72.0 * zeta,
                "control sandwich cross products": 36.0 * zeta,
            }
            for report in reports:
                if report.context in expected_rhs:
                    assert report.rhs == pytest.approx(
                        expected_rhs[report.context], rel=1e-12, abs=1e-12
                    )
                if math.isfinite(report.rhs):
                    assert report.slack >= -SLACK_TOL, (theta, report.context)
                tracked.setdefault(report.context, []).append(report.lhs)
        for context, series in tracked.items():
            assert len(series) == len(THETAS)
            for wider, tighter in zip(series, series[1:]):
                assert tighter <= wider + 1e-12, context


def test_criterion_7_aggregate_offcolor(min_game, min_graph):
    with criterion(
        7, "aggregate off-color estimate on every symmetrized strategy"
    ):
        strategies = [
            symmetrize(
                forward_translate(
                    min_game, min_graph, deterministic_strategy(min_game, (1,))
                ),
                min_graph,
            )
        ]
        labels = perfect_labels(
            min_game, min_graph, deterministic_strategy(min_game, (2,))
        )
        for cs in twisted_colorings(labels, THETAS, seed=11).values():
            strategies.append(symmetrize(cs, min_graph))
        rng = np.random.default_rng(7)
        for _ in range(2):
            strategies.append(symmetrize(random_coloring(rng, min_graph, 2), min_graph))
        for sym in strategies:
            report = aggregate_offcolor_estimate(min_graph, sym)
            assert report.slack >= -SLACK_TOL
            direct = math.fsum(
                math.sqrt(two_norm(sym.pvms[u][0] @ sym.pvms[v][0]))
                for u, v in min_graph.edges
            )
            assert report.lhs == pytest.approx(direct, rel=1e-12, abs=1e-12)
            eps = max(0.0, 1.0 - coloring_value(min_graph, sym).value)
            assert report.rhs == pytest.approx(
                2.0 * min_graph.n_edges * eps**0.25, rel=1e-12, abs=1e-12
            )


def test_criterion_8_cut_identities():
    with criterion(
        8, "roots-of-unity identity, exact cuts, and the value bridge", budget=60.0
    ):
        graphs = [complete_graph(3), complete_graph(4), cycle_graph(5)]
        for graph, cut in zip(graphs, (3, 5, 5)):
            assert max3cut_bruteforce(graph) == cut
            assert value_bridge(graph).lhs <= SLACK_TOL
        # 3^8 labelings, above the six vertices the CLI bridges.
        assert value_bridge(cycle_graph(8)).lhs <= SLACK_TOL
        rng = np.random.default_rng(88)
        for trial in range(500):
            graph = graphs[trial % 3]
            family = random_order3_family(rng, graph, int(rng.integers(1, 5)))
            assert roots_identity_check(graph, family).lhs <= 1e-10


def _run_cli_everywhere(workdir: Path) -> dict:
    game = minimal_game()
    graph = build_graph(game)
    strategy = deterministic_strategy(game, (1,))
    save_game(game, workdir / "game.json")
    write_strategy_json(strategy, workdir / "strategy.json")
    write_strategy_json(forward_translate(game, graph, strategy), workdir / "coloring.json")
    (workdir / "triangle.txt").write_text("1 2\n2 3\n1 3\n")
    commands = {
        "compile": ["compile", "game.json", "--format", "both"],
        "forward": ["forward", "game.json", "strategy.json"],
        "reverse": ["reverse", "game.json", "coloring.json"],
        "check": ["check", "--trials", "5", "--d", "3", "--seed", "7"],
        "maxcut": ["maxcut", "triangle.txt", "--trials", "5", "--d", "2", "--seed", "3"],
        "demo": ["demo", "--seed", "11"],
    }
    env = dict(os.environ)
    # The child runs in workdir, where a relative PYTHONPATH would not find
    # the package under test; put the directory it was imported from first.
    package_root = str(Path(gadgetgraph.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    outputs = {}
    for name, argv in commands.items():
        proc = subprocess.run(
            [sys.executable, "-m", "gadgetgraph.cli", *argv],
            cwd=workdir,
            env=env,
            capture_output=True,
            timeout=300,
        )
        assert proc.returncode == 0, (name, proc.stderr.decode())
        outputs[f"stdout:{name}"] = proc.stdout
    for artifact in (
        "game.graph.json",
        "game.dot",
        "strategy.coloring.json",
        "coloring.strategy.json",
    ):
        outputs[f"file:{artifact}"] = (workdir / artifact).read_bytes()
    return outputs


def test_criterion_9_cli_determinism(tmp_path):
    with criterion(9, "command-line runs are byte-deterministic"):
        first_dir = tmp_path / "first"
        second_dir = tmp_path / "second"
        first_dir.mkdir()
        second_dir.mkdir()
        first = _run_cli_everywhere(first_dir)
        second = _run_cli_everywhere(second_dir)
        assert first.keys() == second.keys()
        for key in first:
            assert first[key] == second[key], f"{key} differs between runs"
