import logging
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    block_diagonal, by_key, named_triangles, reference_diagnostics, reference_name_views, reference_question_sandwiches,
    spying,
)
from gadgetgraph import forward, reverse
from gadgetgraph.errors import BoundViolation, ValidationError
from gadgetgraph.forward import coloring_value, forward_translate
from gadgetgraph.games import ColoringStrategy, PriorDistribution, sync_value
from gadgetgraph.graphs import build_graph
from gadgetgraph.instances import (
    basis_lift,
    deterministic_strategy,
    minimal_game,
    perfect_labels,
    random_coloring,
    random_game,
    triangle_coloring_game,
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
from gadgetgraph.rounding import PERM3, InequalityReport

GOLDEN = Path(__file__).parent / "golden"


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
    sym = symmetrize(cs)
    assert sym.d == 12
    assert sym.keys == cs.keys
    name = cs.keys[0]
    for c in (1, 2, 3):
        stack = by_key(sym)[name][c - 1]
        assert stack.shape == (6, 2, 2)
        for slot, perm in enumerate(PERM3):
            assert np.array_equal(stack[slot], by_key(cs)[name][perm[c - 1] - 1])


def test_symmetrize_preserves_value(rng, min_graph):
    cs = random_coloring(rng, min_graph, 3)
    before = coloring_value(min_graph, cs).value
    after = coloring_value(min_graph, symmetrize(cs)).value
    assert after == pytest.approx(before, abs=1e-10)


def test_a_symmetrization_is_held_on_its_coloring(monkeypatch, rng, min_graph):
    cs = random_coloring(rng, min_graph, 2)
    sym = symmetrize(cs)
    takes = []
    monkeypatch.setattr(np, "take", spying(takes, np.take))
    assert symmetrize(cs) is sym and takes == []
    # Another coloring is symmetrized anew, and the first keeps its own.
    assert symmetrize(random_coloring(rng, min_graph, 2)) is not sym and len(takes) == 1
    assert symmetrize(cs) is sym and len(takes) == 1


@pytest.mark.parametrize("entry", [certify_reverse_lemmas, reverse_translate])
def test_the_drift_check_runs_on_every_call(monkeypatch, min_game, min_graph, entry):
    cs = perfect_coloring(min_game, min_graph)
    scores = []
    monkeypatch.setattr(forward, "_overlaps", spying(scores, forward._overlaps))
    entry(min_game, min_graph, cs)
    assert len(scores) == 2  # the input and its symmetrization, each scored once and held
    # A hit never hides a drift: the check reads the held values on every call.
    monkeypatch.setattr(reverse, "SYMMETRIZE_TOL", -1.0)
    for _ in range(2):
        with pytest.raises(BoundViolation, match="^symmetrization moved the coloring value from 1.0 to 1.0$"):
            entry(min_game, min_graph, cs)
    assert len(scores) == 2


def test_control_sandwiches_are_held_on_the_symmetrized_coloring(monkeypatch, rng, min_graph):
    sym = symmetrize(random_coloring(rng, min_graph, 2))
    cc = control_compressions(sym)
    calls = []
    monkeypatch.setattr(reverse, "_require_contractions", spying(calls, reverse._require_contractions))
    assert control_compressions(sym) is cc and calls == []
    assert not cc.stack.flags.writeable  # every caller shares it
    assert control_compressions(symmetrize(random_coloring(rng, min_graph, 2))) is not cc
    assert len(calls) == 1
    # A call that raises holds nothing.
    pvms = by_key(random_coloring(rng, min_graph, 2))
    pruned = ColoringStrategy(2, {k: list(v) for k, v in pvms.items() if k != "B"})
    with pytest.raises(ValidationError, match="control vertex"):
        control_compressions(pruned)
    assert set(vars(pruned)) == {"d", "keys", "stack"}


def test_symmetrized_products_are_color_independent(rng, min_graph):
    cs = random_coloring(rng, min_graph, 2)
    sym = symmetrize(cs)
    u, v = min_graph.edges[0]
    pvms = by_key(sym)
    vals = [two_norm(pvms[u][c] @ pvms[v][c]) for c in range(3)]
    assert max(vals) - min(vals) < 1e-14


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_reject_color_dependent_input(rng, min_graph):
    cs = random_coloring(rng, min_graph, 2)
    with pytest.raises(ValidationError, match="symmetrize the strategy first"):
        compute_diagnostics(min_graph, cs)


def test_diagnostics_vanish_on_perfect(min_game, min_graph):
    sym = symmetrize(perfect_coloring(min_game, min_graph))
    diag = compute_diagnostics(min_graph, sym)
    assert diag.theta.shape == (min_graph.n_edges,)
    assert diag.zeta.shape == diag.eta.shape == (len(list(named_triangles(min_graph))),)
    assert diag.xi.shape == (len(min_graph.block_rows), 4)
    assert diag.zeta.max() < 1e-12
    assert diag.eta.max() < 1e-12
    assert diag.xi.max() < 1e-12
    assert diag.theta.max() < 1e-12


def test_diagnostics_are_local_to_the_disturbed_cell(min_game, min_graph):
    # Rotate the PVM at one block-interior vertex; only the triangles through
    # that vertex should light up, and the control triangle must stay clean.
    labels = perfect_labels(min_game, min_graph, deterministic_strategy(min_game, (2,)))
    base = basis_lift(labels, d=3)
    target = reference_name_views(min_graph).block(1, 1).cells[(2, 3)]
    assert target in min_graph.vertices
    assert target not in ("A", "B", "C")
    theta = 0.2
    h = np.ones((3, 3))  # mixes every coordinate with every other
    w, u = np.linalg.eigh(h)
    rot = (u * np.exp(1j * theta * w)) @ u.conj().T

    from gadgetgraph.games import ColoringStrategy

    pvms = {v: list(mats) for v, mats in by_key(base).items()}
    pvms[target] = [rot @ p @ rot.conj().T for p in pvms[target]]
    disturbed = symmetrize(ColoringStrategy(d=base.d, pvms=pvms))
    diag = compute_diagnostics(min_graph, disturbed)

    labels = [label for label, _ in named_triangles(min_graph)]
    assert diag.zeta[labels.index(("delta",))] < 1e-12
    assert diag.zeta[labels.index(("row", 2, 1, 1))] > 1e-4
    assert diag.zeta[labels.index(("col", 3, 1, 1))] > 1e-4
    untouched = (min_graph.edge_ids != min_graph.vertices.index(target)).all(axis=1)
    assert diag.theta[untouched].max() < 1e-12


def assert_diagnostics_match_the_named_reference(graph, cs) -> None:
    sym = symmetrize(cs)
    diag = compute_diagnostics(graph, sym)
    ref = reference_diagnostics(graph, sym)
    assert list(ref.theta) == list(graph.edges)
    assert diag.theta.tolist() == list(ref.theta.values())
    assert diag.zeta.tolist() == list(ref.zeta.values())
    assert diag.eta.tolist() == list(ref.eta.values())
    assert diag.xi.ravel().tolist() == list(ref.xi.values())
    assert [reverse._triangle_label(graph, t) for t in range(len(diag.zeta))] == list(ref.zeta)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    m=st.integers(min_value=3, max_value=5),
    d=st.integers(min_value=1, max_value=6),
    p=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_diagnostics_match_the_named_reference(n, m, d, p, seed):
    rng = np.random.default_rng(seed)
    graph = build_graph(random_game(rng, n, m, p))
    assert_diagnostics_match_the_named_reference(graph, random_coloring(rng, graph, d))


@pytest.mark.parametrize("make_game", [minimal_game, triangle_coloring_game])
def test_diagnostics_match_the_named_reference_on_fixed_games(make_game):
    graph = build_graph(make_game())
    assert_diagnostics_match_the_named_reference(graph, random_coloring(np.random.default_rng(2), graph, 3))


def test_a_failing_triangle_raises_the_first_in_the_named_order(monkeypatch):
    # Lower the sum-defect multiplier step by step through the ratios
    # eta / sqrt(zeta): each time the message must name the first triangle
    # of the reference's order that fails, with its lhs and rhs.
    rng = np.random.default_rng(4)
    graph = build_graph(random_game(rng, 2, 4, 0.5))
    sym = symmetrize(random_coloring(rng, graph, 3))
    ref = reference_diagnostics(graph, sym)
    # Ratios one apart in the sixth digit, so that each step fails a triangle by far more than the slack.
    ratios = sorted({round(ref.eta[label] / math.sqrt(z), 6) for label, z in ref.zeta.items() if z > 0.0})[::-1]
    named = set()
    for factor in ((high + low) / 2.0 for high, low in zip(ratios, ratios[1:])):
        failing = [label for label, z in ref.zeta.items() if factor * math.sqrt(z) - ref.eta[label] < -1e-9]
        first = failing[0]
        named.add(first[0])
        with pytest.raises(BoundViolation) as expected:
            InequalityReport(
                f"triangle sum defect at {first!r}", ref.eta[first], factor * math.sqrt(ref.zeta[first])
            ).require()
        monkeypatch.setattr(reverse, "ETA_FACTOR", factor)
        with pytest.raises(BoundViolation) as raised:
            compute_diagnostics(graph, sym)
        assert str(raised.value) == str(expected.value)
    assert {"delta", "row", "col", "qrow"} <= named


# ---------------------------------------------------------------------------
# control compressions


def test_control_compressions_scalar_case(min_game, min_graph):
    cs = perfect_coloring(min_game, min_graph)
    cc = control_compressions(cs)
    assert by_key(cc)[(1, 2, 3)].shape == (1, 1)
    total = sum(by_key(cc)[perm] for perm in PERM3)
    assert np.allclose(total, np.eye(1), atol=1e-14)
    for perm in PERM3:
        s = by_key(cc)[perm]
        assert np.allclose(s @ s, s, atol=1e-14)
    for report in cc.reports:
        assert report.lhs == 0.0 and report.rhs == 0.0


def test_control_compressions_exact_on_symmetrized_perfect(min_game, min_graph):
    sym = symmetrize(perfect_coloring(min_game, min_graph))
    cc = control_compressions(sym)
    total = sum(by_key(cc)[perm] for perm in PERM3)
    assert total.shape == (6, 1, 1)
    assert np.allclose(block_diagonal(total), np.eye(sym.d), atol=1e-14)
    for report in cc.reports:
        assert report.slack == 0.0


def test_control_compressions_need_the_delta(rng, min_graph):
    cs = random_coloring(rng, min_graph, 2)
    pruned = {v: list(mats) for v, mats in by_key(cs).items() if v != "B"}
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
    total = sum(strategy.stack[0])
    assert np.allclose(total, np.eye(12), atol=1e-12)
    for p in strategy.stack[0]:
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


COVERAGE_CHECKS = {
    "coloring_value": lambda game, graph, cs: coloring_value(graph, cs),
    "compute_diagnostics": lambda game, graph, cs: compute_diagnostics(graph, cs),
    "certify_reverse_lemmas": certify_reverse_lemmas,
    "reverse_translate": reverse_translate,
    "aggregate_offcolor_estimate": lambda game, graph, cs: aggregate_offcolor_estimate(graph, cs),
}


@pytest.mark.parametrize("check", COVERAGE_CHECKS)
def test_a_coloring_missing_a_vertex_gets_one_message(min_game, min_graph, check):
    cs = perfect_coloring(min_game, min_graph)
    pruned = ColoringStrategy(cs.d, {k: v for k, v in by_key(cs).items() if k != "B"})
    message = "coloring strategy lacks PVMs for 1 graph vertices, first 'B'"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        COVERAGE_CHECKS[check](min_game, min_graph, pruned)


def test_a_coloring_with_more_vertices_is_read_by_name(min_graph):
    cs = random_coloring(np.random.default_rng(1), min_graph, 2)
    pvms = {k: list(v) for k, v in by_key(cs).items()}
    pvms.update({"0": pvms["C"], "B0": pvms["A"], "zz": pvms["B"]})  # sorted before, among and after the vertices
    wide = ColoringStrategy(cs.d, pvms)
    assert coloring_value(min_graph, wide).value == coloring_value(min_graph, cs).value
    diag, wide_diag = (compute_diagnostics(min_graph, symmetrize(c)) for c in (cs, wide))
    for field in ("zeta", "eta", "xi", "theta"):
        assert np.array_equal(getattr(wide_diag, field), getattr(diag, field))


def test_reverse_command_builds_no_name_views(monkeypatch, tmp_path, capsys):
    from gadgetgraph import cli

    built = []
    monkeypatch.setattr(cli, "build_graph", lambda game: built.append(build_graph(game)) or built[-1])
    for name in ("game.json", "coloring.json"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    argv = ["reverse", str(tmp_path / "game.json"), str(tmp_path / "coloring.json")]
    assert cli.main(argv) == 0
    assert "game value" in capsys.readouterr().out
    (graph,) = built
    assert "edges" not in vars(graph)


def test_a_reverse_command_symmetrizes_and_compresses_once(monkeypatch, tmp_path, capsys):
    from gadgetgraph import cli

    built, compressed = [], []
    monkeypatch.setattr(reverse, "_prebuilt", spying(built, reverse._prebuilt))
    monkeypatch.setattr(reverse, "_require_contractions", spying(compressed, reverse._require_contractions))
    for name in ("game.json", "coloring.json"):
        shutil.copy(GOLDEN / name, tmp_path / name)
    argv = ["reverse", str(tmp_path / "game.json"), str(tmp_path / "coloring.json")]
    assert cli.main(argv) == 0
    assert "game value" in capsys.readouterr().out
    assert len(built) == 1 and len(compressed) == 1  # one symmetrization, one set of sandwiches


def test_each_question_is_logged_at_info(caplog, tri_game, tri_graph):
    labels = perfect_labels(tri_game, tri_graph, triangle_strategy())
    cs = twisted_colorings(labels, (0.1,), seed=3)[0.1]
    with caplog.at_level(logging.INFO, logger=reverse.log.name):
        reports = certify_reverse_lemmas(tri_game, tri_graph, cs)
        reverse_translate(tri_game, tri_graph, cs)
    lines = [r.getMessage() for r in caplog.records if r.name == reverse.log.name]
    implicit = [r for r in reports if math.isinf(r.rhs)]
    families = ("sum defect", "projection defect", "cross products")
    assert len(implicit) == 3 * tri_game.n and len(lines) == 4 * tri_game.n
    # The lhs-only values, question by question, as reported; then translate's line per question.
    for line, report, (x, family) in zip(lines, implicit, [(x, f) for x in (1, 2, 3) for f in families]):
        assert report.context == f"sandwich family {family} (question {x}; lhs only)"
        assert line == f"question {x}: sandwich family {family} {report.lhs:.12g}"
    sym = symmetrize(cs)
    cc = control_compressions(sym)
    for x, line in enumerate(lines[len(implicit):], start=1):
        head, value = line.rsplit(" ", 1)
        assert head == f"question {x}: sandwich sum max eigenvalue"
        blocks = sum(reference_question_sandwiches(tri_graph, sym, cc, x, tri_game.m))  # (6, d, d)
        assert float(value) == pytest.approx(max(np.linalg.eigvalsh(b).max() for b in blocks), rel=1e-11)


# ---------------------------------------------------------------------------
# aggregate off-color estimate


def test_aggregate_perfect_is_sharp(min_game, min_graph):
    sym = symmetrize(perfect_coloring(min_game, min_graph))
    report = aggregate_offcolor_estimate(min_graph, sym)
    assert report.lhs == 0.0 and report.rhs == 0.0


def test_aggregate_on_twisted(min_game, min_graph):
    labels = perfect_labels(min_game, min_graph, deterministic_strategy(min_game, (2,)))
    for cs in twisted_colorings(labels, (0.25,), seed=3).values():
        sym = symmetrize(cs)
        report = aggregate_offcolor_estimate(min_graph, sym)
        assert report.slack >= -1e-9
        assert report.lhs > 0.0


def test_aggregate_requires_symmetrized(rng, min_graph):
    with pytest.raises(ValidationError, match="symmetrize"):
        aggregate_offcolor_estimate(min_graph, random_coloring(rng, min_graph, 2))
