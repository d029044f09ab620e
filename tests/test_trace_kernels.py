"""The trace-overlap kernels against the per-pair ``trace(A @ B)`` loop.

``sync_value`` takes every overlap tr(E_a^x E_b^y)/d from one GEMM, and the
edge sums contract each pair in O(d^2); the reference functions below form
every product the way the package did before.  Summation order differs, so
values agree to 1e-12, not bit for bit; the loss bookkeeping (keys,
weights, order) must be identical.

``sync_value`` then scores the overlaps as arrays.  Against the same GEMM
followed by the per-term Python loop (``loop_sync_value``) nothing about the
arithmetic changes, so there value and losses must agree exactly.
"""

from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import edge_loss_probability, reference_tau, reference_unitary_cut_value
from gadgetgraph.forward import coloring_value
from gadgetgraph.games import (
    LossEntry,
    PriorDistribution,
    _require_strategy_fits,
    sync_value,
)
from gadgetgraph.instances import (
    random_coloring,
    random_game,
    random_order3_family,
    random_strategy,
)
from gadgetgraph.linalg import random_pvm
from gadgetgraph.maxcut import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    max3cut_bruteforce,
    unitary_cut_value,
    value_bridge,
)

TOL = 1e-12


def reference_sync_value(game, strategy, prior):
    win_terms, losses = [], []
    for (x, y), w in prior.weights:
        for a in range(1, game.m + 1):
            for b in range(1, game.m + 1):
                p = reference_tau(strategy.pvms[x][a - 1], strategy.pvms[y][b - 1])
                if (a, b, x, y) in game.losing:
                    losses.append(((a, b, x, y), w, p))
                else:
                    win_terms.append(w * p)
    return fsum(win_terms), losses


def loop_sync_value(game, strategy, prior):
    """``sync_value`` as one GEMM for the overlaps and a Python loop over
    every (pair, a, b) term: the value and the losses entry by entry."""
    _require_strategy_fits(game, strategy)
    n, m, d = game.n, game.m, strategy.d
    stack = np.array([strategy.pvms[x] for x in range(1, n + 1)])
    gram = stack.reshape(n * m, d * d) @ stack.transpose(0, 1, 3, 2).reshape(n * m, d * d).T
    overlaps = (gram.real / d).reshape(n, m, n, m).tolist()
    win_terms = []
    losses = []
    for (x, y), w in prior.weights:
        for a in range(1, m + 1):
            row = overlaps[x - 1][a - 1][y - 1]
            for b in range(1, m + 1):
                p = row[b - 1]
                if (a, b, x, y) in game.losing:
                    losses.append(LossEntry((a, b, x, y), w, p))
                else:
                    win_terms.append(w * p)
    return fsum(win_terms), tuple(losses)


def reference_edge_loss(p_u, p_v) -> float:
    return fsum(reference_tau(p_u[c], p_v[c]) for c in range(len(p_u)))


def reference_coloring_value(graph, cs) -> float:
    lost = fsum(reference_edge_loss(cs.pvms[u], cs.pvms[v]) for u, v in graph.edges)
    return 1.0 - lost / graph.n_edges


def assert_sync_value_matches(game, strategy, prior):
    report = sync_value(game, strategy, prior)
    value, losses = reference_sync_value(game, strategy, prior)
    assert report.value == pytest.approx(value, abs=TOL)
    assert [(e.key, e.weight) for e in report.losses] == [(k, w) for k, w, _ in losses]
    for entry, (_, _, p) in zip(report.losses, losses):
        assert entry.probability == pytest.approx(p, abs=TOL)


def priors(n: int):
    out = [PriorDistribution.uniform_questions(n)]
    if n > 1:
        pairs = [(x, y) for x in range(1, n) for y in range(x + 1, n + 1)]
        out.append(PriorDistribution.uniform_edges(SimpleGraph(n, pairs)))
    return out


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=5),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sync_value_matches_the_product_loop(n, m, d, seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, n, m)
    strategy = random_strategy(rng, game, d)
    for prior in priors(n):
        assert_sync_value_matches(game, strategy, prior)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=3, max_value=6),
    d=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_sync_value_equals_the_term_loop_exactly(n, m, d, seed):
    rng = np.random.default_rng(seed)
    game = random_game(rng, n, m)
    strategy = random_strategy(rng, game, d)
    for prior in priors(n):
        report = sync_value(game, strategy, prior)
        value, losses = loop_sync_value(game, strategy, prior)
        assert report.value == value
        assert len(report.losses) == len(losses)
        for entry, expected in zip(report.losses, losses):
            assert (entry.key, entry.weight, entry.probability) == (
                expected.key, expected.weight, expected.probability
            )


@settings(max_examples=15, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_edge_sums_match_the_product_loop(min_graph, d, seed):
    rng = np.random.default_rng(seed)
    p_u, p_v = random_pvm(rng, d, 3), random_pvm(rng, d, 3)
    expected = reference_edge_loss(p_u, p_v)
    assert edge_loss_probability(p_u, p_v) == pytest.approx(expected, abs=TOL)
    cs = random_coloring(rng, min_graph, d)
    assert coloring_value(min_graph, cs).value == pytest.approx(
        reference_coloring_value(min_graph, cs), abs=TOL
    )
    g = complete_graph(4)
    fam = random_order3_family(rng, g, d)
    expected = reference_unitary_cut_value(g, fam)
    assert unitary_cut_value(g, fam) == pytest.approx(expected, abs=TOL)


def test_kernels_match_the_product_loop_at_d48(min_graph):
    rng = np.random.default_rng(48)
    game = random_game(rng, 2, 3)
    strategy = random_strategy(rng, game, 48)
    assert_sync_value_matches(game, strategy, PriorDistribution.uniform_questions(2))
    cs = random_coloring(rng, min_graph, 48)
    assert coloring_value(min_graph, cs).value == pytest.approx(
        reference_coloring_value(min_graph, cs), abs=TOL
    )
    g = complete_graph(4)
    fam = random_order3_family(rng, g, 48)
    expected = reference_unitary_cut_value(g, fam)
    assert unitary_cut_value(g, fam) == pytest.approx(expected, abs=TOL)


@pytest.mark.parametrize(
    "g",
    [cycle_graph(6), complete_graph(4), SimpleGraph(6, cycle_graph(6).edges + ((1, 4),))],
    ids=["C6", "K4", "C6+chord"],
)
def test_value_bridge_prints_cut_over_edges(g):
    cut = max3cut_bruteforce(g)
    report = value_bridge(g)
    assert report.lhs == 0.0
    best = "%.12g" % (cut / g.n_edges)
    assert report.context == f"cut value bridge (cut {cut}, best coloring value {best})"
