import math

import numpy as np
import pytest

from gadgetgraph.errors import ValidationError
from gadgetgraph.forward import coloring_value, forward_translate
from gadgetgraph.games import PriorDistribution, sync_value
from gadgetgraph.instances import (
    basis_lift,
    deterministic_strategy,
    perfect_labels,
    random_coloring,
    triangle_strategy,
    twisted_colorings,
)
from gadgetgraph.linalg import two_norm
from gadgetgraph.reverse import (
    aggregate_offcolor_estimate,
    certify_reverse_lemmas,
    compute_diagnostics,
    control_compressions,
    reverse_translate,
    symmetrize,
)
from gadgetgraph.rounding import PERM3


def perfect_coloring(game, graph, answers=(2,)):
    return forward_translate(game, graph, deterministic_strategy(game, answers))


def game_labels(which, request):
    """(game, graph, proper labels) of the minimal or the triangle game."""
    if which == "minimal":
        game, graph = request.getfixturevalue("min_game"), request.getfixturevalue("min_graph")
        return game, graph, perfect_labels(game, graph, deterministic_strategy(game, (2,)))
    game, graph = request.getfixturevalue("tri_game"), request.getfixturevalue("tri_graph")
    return game, graph, perfect_labels(game, graph, triangle_strategy())


# ---------------------------------------------------------------------------
# symmetrization


def test_symmetrize_block_structure(rng, min_graph):
    cs = random_coloring(rng, min_graph, 2)
    sym = symmetrize(cs, min_graph)
    assert sym.d == 12
    assert sym.vertices == cs.vertices
    name = cs.vertices[0]
    for c in (1, 2, 3):
        big = sym.pvms[name][c - 1]
        for slot, perm in enumerate(PERM3):
            lo = 2 * slot
            block = big[lo:lo + 2, lo:lo + 2]
            assert np.array_equal(block, cs.pvms[name][perm[c - 1] - 1])


def test_symmetrize_preserves_value(rng, min_graph):
    cs = random_coloring(rng, min_graph, 3)
    before = coloring_value(min_graph, cs).value
    after = coloring_value(min_graph, symmetrize(cs, min_graph)).value
    assert after == pytest.approx(before, abs=1e-10)


def test_symmetrized_products_are_color_independent(rng, min_graph):
    cs = random_coloring(rng, min_graph, 2)
    sym = symmetrize(cs)
    u, v = min_graph.edges[0]
    vals = [two_norm(sym.pvms[u][c] @ sym.pvms[v][c]) for c in range(3)]
    assert max(vals) - min(vals) < 1e-14


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_reject_color_dependent_input(rng, min_graph):
    cs = random_coloring(rng, min_graph, 2)
    with pytest.raises(ValidationError, match="symmetrize the strategy first"):
        compute_diagnostics(min_graph, cs)


def test_diagnostics_vanish_on_perfect(min_game, min_graph):
    sym = symmetrize(perfect_coloring(min_game, min_graph), min_graph)
    diag = compute_diagnostics(min_graph, sym)
    assert set(diag.theta) == set(min_graph.edges)
    assert ("delta",) in diag.zeta
    assert max(diag.zeta.values()) < 1e-12
    assert max(diag.eta.values()) < 1e-12
    assert max(diag.xi.values()) < 1e-12
    assert max(diag.theta.values()) < 1e-12


def test_theta_edge_lookup(min_game, min_graph):
    sym = symmetrize(perfect_coloring(min_game, min_graph), min_graph)
    diag = compute_diagnostics(min_graph, sym)
    u, v = min_graph.edges[0]
    assert diag.theta_edge(u, v) == diag.theta_edge(v, u)
    with pytest.raises(ValidationError, match="no edge"):
        diag.theta_edge("A", "A")


def test_diagnostics_are_local_to_the_disturbed_cell(min_game, min_graph):
    # Rotate the PVM at one block-interior vertex; only the triangles through
    # that vertex should light up, and the control triangle must stay clean.
    labels = perfect_labels(min_game, min_graph, deterministic_strategy(min_game, (2,)))
    base = basis_lift(labels, d=3)
    target = min_graph.block(1, 1).cells[(2, 3)]
    assert min_graph.resolve(target) == target
    assert target not in ("A", "B", "C")
    theta = 0.2
    h = np.ones((3, 3))  # mixes every coordinate with every other
    w, u = np.linalg.eigh(h)
    rot = (u * np.exp(1j * theta * w)) @ u.conj().T

    from gadgetgraph.games import ColoringStrategy

    pvms = {v: list(base.pvms[v]) for v in base.vertices}
    pvms[target] = [rot @ p @ rot.conj().T for p in pvms[target]]
    disturbed = symmetrize(ColoringStrategy(d=base.d, pvms=pvms), min_graph)
    diag = compute_diagnostics(min_graph, disturbed)

    assert diag.zeta[("delta",)] < 1e-12
    assert diag.zeta[("row", 2, 1, 1)] > 1e-4
    assert diag.zeta[("col", 3, 1, 1)] > 1e-4
    untouched = [
        val
        for (u_, v_), val in diag.theta.items()
        if target not in (u_, v_)
    ]
    assert max(untouched) < 1e-12


# ---------------------------------------------------------------------------
# control compressions


def test_control_compressions_scalar_case(min_game, min_graph):
    cs = perfect_coloring(min_game, min_graph)
    cc = control_compressions(cs)
    assert cc.operator((1, 2, 3)).shape == (1, 1)
    total = sum(cc.operators[perm] for perm in PERM3)
    assert np.allclose(total, np.eye(1), atol=1e-14)
    for perm in PERM3:
        s = cc.operators[perm]
        assert np.allclose(s @ s, s, atol=1e-14)
    for report in cc.reports:
        assert report.lhs == 0.0 and report.rhs == 0.0


def test_control_compressions_exact_on_symmetrized_perfect(min_game, min_graph):
    sym = symmetrize(perfect_coloring(min_game, min_graph), min_graph)
    cc = control_compressions(sym)
    total = sum(cc.operators[perm] for perm in PERM3)
    assert np.allclose(total, np.eye(sym.d), atol=1e-14)
    for report in cc.reports:
        assert report.slack == 0.0


def test_control_compressions_need_the_delta(rng, min_graph):
    cs = random_coloring(rng, min_graph, 2)
    pruned = {v: list(cs.pvms[v]) for v in cs.vertices if v != "B"}
    from gadgetgraph.games import ColoringStrategy

    with pytest.raises(ValidationError, match="control vertex"):
        control_compressions(ColoringStrategy(d=2, pvms=pruned))


# ---------------------------------------------------------------------------
# lemma certification


def test_certify_perfect_strategy(min_game, min_graph):
    reports = certify_reverse_lemmas(min_game, min_graph, perfect_coloring(min_game, min_graph))
    # 3 control-family bounds + one commutator bound per (answer, question)
    # + three lhs-only quantities per question
    assert len(reports) == 3 + 3 * min_game.n + 3 * min_game.n
    for report in reports:
        if math.isinf(report.rhs):
            assert report.lhs <= 1e-9
        else:
            assert report.slack >= -1e-9
            assert report.lhs <= 1e-9


def test_certify_twisted_sweep(min_game, min_graph):
    labels = perfect_labels(min_game, min_graph, deterministic_strategy(min_game, (2,)))
    for theta, cs in twisted_colorings(labels, (0.3, 0.1), seed=5).items():
        reports = certify_reverse_lemmas(min_game, min_graph, cs)
        for report in reports:
            if not math.isinf(report.rhs):
                assert report.slack >= -1e-9, (theta, report.context)


def test_commutator_lhs_shrinks_with_the_twist(min_game, min_graph):
    labels = perfect_labels(min_game, min_graph, deterministic_strategy(min_game, (2,)))
    sweeps = twisted_colorings(labels, (0.2, 0.02), seed=7)
    worst = {}
    for theta, cs in sweeps.items():
        reports = certify_reverse_lemmas(min_game, min_graph, cs)
        worst[theta] = max(
            r.lhs for r in reports if r.context.startswith("sandwich commutator")
        )
    assert worst[0.02] <= worst[0.2] + 1e-12


@pytest.mark.parametrize("which", ["minimal", "triangle"])
@pytest.mark.parametrize("d", [3, 4, 8, 16])
def test_basis_lift_is_proper_at_every_dimension(which, d, request):
    # Neighbors never share a coordinate for the same color, surplus
    # dimensions included, so no edge loses any mass.
    _, graph, labels = game_labels(which, request)
    assert coloring_value(graph, basis_lift(labels, d=d)).value == 1.0


def assert_twist_sweep_recovers_the_game(game, graph, labels, d):
    # The reverse theorem above d = 3: a coloring that loses eps yields a
    # game strategy that loses at most h(n,m) eps^(1/2), which here falls to
    # zero (up to rounding) once the twist is small.
    prior = PriorDistribution.uniform_questions(game.n)
    losses = []
    for theta, cs in twisted_colorings(labels, (0.1, 0.03, 0.01), seed=5, d=d).items():
        for report in certify_reverse_lemmas(game, graph, cs):
            if not math.isinf(report.rhs):
                assert report.slack >= -1e-9, (theta, report.context)
        strategy = reverse_translate(game, graph, cs)
        losses.append(1.0 - sync_value(game, strategy, prior).value)
    assert all(later <= earlier + 1e-12 for earlier, later in zip(losses, losses[1:]))
    assert abs(losses[1]) <= 1e-12 and abs(losses[2]) <= 1e-12  # theta <= 0.03


@pytest.mark.parametrize("which", ["minimal", "triangle"])
def test_twist_sweep_recovers_the_game_at_d8(which, request):
    assert_twist_sweep_recovers_the_game(*game_labels(which, request), d=8)


def test_twist_sweep_recovers_the_game_at_d16(request):
    # The triangle game only: the minimal game adds time and no new coverage.
    assert_twist_sweep_recovers_the_game(*game_labels("triangle", request), d=16)


# ---------------------------------------------------------------------------
# the translation


def test_reverse_output_is_an_exact_pvm_family(rng, min_game, min_graph):
    cs = random_coloring(rng, min_graph, 2)
    strategy = reverse_translate(min_game, min_graph, cs)
    assert strategy.d == 12
    assert strategy.outcomes == 3
    total = sum(strategy.pvms[1])
    assert np.allclose(total, np.eye(12), atol=1e-12)
    for p in strategy.pvms[1]:
        assert np.allclose(p @ p, p, atol=1e-12)
        assert np.allclose(p, p.conj().T, atol=1e-12)


def test_reverse_recovers_perfect_minimal(min_game, min_graph):
    cs = perfect_coloring(min_game, min_graph)
    strategy = reverse_translate(min_game, min_graph, cs)
    report = sync_value(min_game, strategy, PriorDistribution.uniform_questions(1))
    assert report.value == pytest.approx(1.0, abs=1e-10)


def test_reverse_recovers_perfect_triangle(tri_game, tri_graph):
    cs = forward_translate(tri_game, tri_graph, triangle_strategy())
    strategy = reverse_translate(tri_game, tri_graph, cs)
    report = sync_value(tri_game, strategy, PriorDistribution.uniform_questions(3))
    assert report.value == pytest.approx(1.0, abs=1e-10)


def test_reverse_rejects_cross_game(min_game, tri_graph, min_graph, tri_game):
    cs = perfect_coloring(min_game, min_graph)
    with pytest.raises(ValidationError, match="different game"):
        reverse_translate(tri_game, min_graph, cs)
    with pytest.raises(ValidationError, match="lacks PVMs"):
        reverse_translate(tri_game, tri_graph, cs)


# ---------------------------------------------------------------------------
# aggregate off-color estimate


def test_aggregate_perfect_is_sharp(min_game, min_graph):
    sym = symmetrize(perfect_coloring(min_game, min_graph), min_graph)
    report = aggregate_offcolor_estimate(min_graph, sym)
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_aggregate_on_twisted(min_game, min_graph):
    labels = perfect_labels(min_game, min_graph, deterministic_strategy(min_game, (2,)))
    for cs in twisted_colorings(labels, (0.25,), seed=3).values():
        sym = symmetrize(cs, min_graph)
        report = aggregate_offcolor_estimate(min_graph, sym)
        assert report.slack >= -1e-9
        assert report.lhs > 0.0


def test_aggregate_requires_symmetrized(rng, min_graph):
    with pytest.raises(ValidationError, match="symmetrize"):
        aggregate_offcolor_estimate(min_graph, random_coloring(rng, min_graph, 2))
