"""The gathered stack kernels of the reverse path against the per-item loops
they replaced (``helpers.reference_*``).

On d-by-d operators the gathered ``einsum`` gives every trace overlap bit
for bit, and a batched ``matmul`` makes the same GEMM per block as the
product of two operators, so every norm and report is bit for bit the
loops'.  The one float that may move is a trace over (6, d, d) block
operators, summed in another order: there the values agree within the
rounding bound ``block_tol(d)``.

A second test counts the per-item calls that are left, on two games of the
same size whose gadget graphs differ in their edge count.
"""

from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gadgetgraph
from gadgetgraph import linalg, reverse
from gadgetgraph.forward import _vertex_rows, coloring_value, ortho_gadget_losses
from gadgetgraph.graphs import _answer_ids, build_graph
from gadgetgraph.instances import (
    minimal_game,
    random_coloring,
    random_game,
    random_positive_contraction,
    random_strategy,
    triangle_coloring_game,
)
from gadgetgraph.reverse import (
    _edge_products,
    _question_sandwiches,
    certify_reverse_lemmas,
    compute_diagnostics,
    control_compressions,
    symmetrize,
)
from gadgetgraph.rounding import perturb_pvm_with_reports
from helpers import (
    reference_coloring_value,
    reference_commutator_norms,
    reference_edge_products,
    reference_eta,
    reference_family_norms,
    reference_gadget_losses,
    reference_name_views,
    reference_question_sandwiches,
    reference_rounding_reports,
)


def block_tol(d: int) -> float:
    """Largest difference of an edge's same-color probability, summed in
    two orders over (6, d, d) block operators: 2 * 3 * gamma_n, where
    gamma_n = n u / (1 - n u), n = 6 d^2 and u = 2^-53.

    One color's overlap tr(P Q)/(6d) is a complex dot product of the n
    entries p_ij q_ji, scaled.  Summed in any order, its real part is off
    by at most gamma_(n+1) sum |p_ij q_ji| (a real dot product's gamma_n,
    and one more rounding for the complex product).  Over the three colors
    those |terms| sum to at most 6d, by Cauchy-Schwarz, since the colors'
    ranks sum to 6d.  The scaling and the exactly rounded fsum of the three
    overlaps add u each, so each order is off by at most
    gamma_(n+1) + 2u <= 3 gamma_n, and the two differ by at most twice that.
    """
    nu = 6 * d * d * 2.0**-53
    return 2 * 3 * nu / (1 - nu)


@cache
def game_graph(which: str):
    game = minimal_game() if which == "minimal" else triangle_coloring_game()
    return game, build_graph(game)


def report_triples(reports) -> list:
    return [(r.context, r.lhs, r.rhs) for r in reports]


@settings(max_examples=20, deadline=None)
@given(
    which=st.sampled_from(["minimal", "triangle"]),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(which="minimal", d=6, seed=4194303)  # 1.11e-15 apart: 10 ulps at 0.84
def test_stack_kernels_match_the_loops(which, d, seed):
    check_kernels(which, d, seed)


@pytest.mark.parametrize("budget", [1, 5000])
def test_stack_kernels_match_the_loops_in_small_chunks(monkeypatch, budget):
    # 1 byte reads every row in place, one at a time; 5000 bytes gathers a
    # few rows per chunk and leaves a partial last chunk.
    monkeypatch.setattr(linalg, "GATHER_BYTES", budget)
    for which in ("minimal", "triangle"):
        check_kernels(which, 3, 17)


def check_kernels(which: str, d: int, seed: int) -> None:
    game, graph = game_graph(which)
    rng = np.random.default_rng(seed)
    cs = random_coloring(rng, graph, d)

    report = coloring_value(graph, cs)
    value, probabilities = reference_coloring_value(graph, cs)
    assert report.value == value
    assert [e.probability for e in report.losses] == probabilities
    assert [e.key for e in report.losses] == list(reference_name_views(graph).edges)
    strategy = random_strategy(rng, game, d)
    losses = ortho_gadget_losses(game, graph, strategy, cs)
    assert [(g.loss, g.probability) for g in losses] == reference_gadget_losses(graph, strategy, cs)

    sym = symmetrize(cs)
    report = coloring_value(graph, sym)
    value, probabilities = reference_coloring_value(graph, sym)
    assert report.value == pytest.approx(value, rel=0, abs=block_tol(d))
    got = np.array([e.probability for e in report.losses])
    assert np.abs(got - probabilities).max() <= block_tol(d)

    theta = _edge_products(sym, _vertex_rows(graph, sym)[graph.edge_ids])
    assert theta.tolist() == list(reference_edge_products(graph, sym).values())
    assert compute_diagnostics(graph, sym).eta.tolist() == list(reference_eta(graph, sym).values())

    cc = control_compressions(sym)
    n, m = game.n, game.m
    answer_rows = _vertex_rows(graph, sym)[_answer_ids(graph.block_rows, n, m)]
    reports = certify_reverse_lemmas(game, graph, cs)
    commutators = reports[len(cc.reports):len(cc.reports) + n * m]
    assert [r.lhs for r in commutators] == reference_commutator_norms(graph, sym, cc, n, m)
    families = []
    for x in range(1, n + 1):
        ops = reference_question_sandwiches(graph, sym, cc, x, m)
        assert np.array_equal(_question_sandwiches(sym, cc, answer_rows[x - 1]), ops)
        families.extend(reference_family_norms(ops))
        pvm, rounding = perturb_pvm_with_reports(ops)
        assert report_triples(rounding) == reference_rounding_reports(ops, pvm)
    assert [r.lhs for r in reports[len(cc.reports) + n * m:]] == families


@settings(max_examples=20, deadline=None)
@given(
    count=st.integers(min_value=1, max_value=7),
    d=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rounding_reports_match_the_loop_on_matrices(count, d, seed):
    rng = np.random.default_rng(seed)
    inputs = [random_positive_contraction(rng, d) for _ in range(count)]
    pvm, reports = perturb_pvm_with_reports(inputs)
    assert report_triples(reports) == reference_rounding_reports(inputs, pvm)


def kernel_calls(monkeypatch, game) -> tuple:
    """Calls of ``trace_product`` (under every name the package binds it
    by) and of ``two_norm`` as ``reverse`` names it, while scoring,
    diagnosing and certifying a random coloring of the game's graph; and the
    graph's edge count."""
    graph = build_graph(game)
    cs = random_coloring(np.random.default_rng(7), graph, 2)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    trace_product = linalg.trace_product
    with monkeypatch.context() as patch:
        for module in (gadgetgraph, *vars(gadgetgraph).values()):
            if getattr(module, "trace_product", None) is trace_product:
                patch.setattr(module, "trace_product", counted("trace_product", trace_product))
        patch.setattr(reverse, "two_norm", counted("two_norm", reverse.two_norm))
        coloring_value(graph, cs)
        compute_diagnostics(graph, symmetrize(cs))
        certify_reverse_lemmas(game, graph, cs)
    return calls, graph.n_edges


def test_per_item_calls_do_not_grow_with_the_edges(monkeypatch):
    small = triangle_coloring_game()
    large = random_game(np.random.default_rng(3), small.n, small.m, 0.9)
    small_calls, small_edges = kernel_calls(monkeypatch, small)
    large_calls, large_edges = kernel_calls(monkeypatch, large)
    assert large_edges > small_edges
    assert small_calls == large_calls
    assert small_calls["trace_product"] == 0
