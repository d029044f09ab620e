"""Command-line front end.

Subcommands cover the whole pipeline: ``compile`` builds the gadget graph
of a game, ``forward`` and ``reverse`` translate strategies across the
reduction, ``check`` runs the randomized inequality suite, ``maxcut``
scores cuts and unitary labelings, and ``demo`` walks a small end-to-end
tour.  Everything is deterministic given the inputs and ``--seed``; floats
are printed with 12 significant digits.

Exit codes: 0 success; 1 a certified inequality or an internal invariant
failed (a bug signal, not bad input); 2 input validation.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import linalg
from .errors import BoundViolation, ValidationError
from .forward import certify_forward, coloring_value, forward_translate
from .games import (
    PriorDistribution,
    load_coloring_strategy,
    load_game,
    load_game_strategy,
    sync_value,
    write_strategy_json,
)
from .graphs import build_graph, export_graph
from .instances import (
    BOUND_FAMILIES,
    bound_suite_trial,
    coloring_labels,
    deterministic_strategy,
    minimal_game,
    random_order3_families,
    random_order3_family,
    twisted_colorings,
)
from .maxcut import (
    complete_graph,
    load_simple_graph,
    max3cut_bruteforce,
    roots_identity_check,
    unitary_cut_value,
    value_bridge,
)
from .reverse import (
    aggregate_offcolor_estimate,
    certify_reverse_lemmas,
    reverse_translate,
    symmetrize,
)


#: The largest ``--d`` that ``check`` and ``maxcut`` take: the documented range is d <= 64.
MAX_DIMENSION = 64


def _fmt(x: float) -> str:
    return "%.12g" % (x,)


def _report_line(rep) -> str:
    return f"{rep.context}: lhs {_fmt(rep.lhs)} rhs {_fmt(rep.rhs)} slack {_fmt(rep.slack)}"


def _out_base(explicit, fallback) -> str:
    return explicit if explicit else str(Path(fallback).with_suffix(""))


def cmd_compile(args) -> int:
    game = load_game(Path(args.game))
    graph = build_graph(game)
    rep = graph.report
    print(f"game: n={game.n} m={game.m} losing={len(game.losing)}")
    print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges")
    print(
        f"edge count: formula {rep.formula} + correction {rep.delta_correction}"
        f" - duplicates {rep.duplicate_slots} = {rep.realized}"
    )
    base = _out_base(args.out, args.game)
    for fmt, suffix in (("json", ".graph.json"), ("dot", ".dot")):
        if args.format in (fmt, "both"):
            target = Path(base + suffix)
            target.write_text(export_graph(graph, fmt))
            print(f"wrote {target}")
    return 0


def cmd_forward(args) -> int:
    game = load_game(Path(args.game))
    strategy = load_game_strategy(args.strategy)
    graph = build_graph(game)
    # certify_forward translates and scores first; the strategy holds that
    # coloring, and the coloring its value, so these calls look them up.
    report = certify_forward(game, graph, strategy)
    cs = forward_translate(game, graph, strategy)
    print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges")
    print(f"coloring value: {_fmt(coloring_value(graph, cs).value)}")
    print(_report_line(report))
    target = Path(_out_base(args.out, args.strategy) + ".coloring.json")
    write_strategy_json(cs, target)
    print(f"wrote {target}")
    return 0


def cmd_reverse(args) -> int:
    game = load_game(Path(args.game))
    cs = load_coloring_strategy(args.coloring)
    graph = build_graph(game)
    for rep in certify_reverse_lemmas(game, graph, cs):
        if math.isfinite(rep.rhs):
            print(_report_line(rep))
        else:
            print(f"{rep.context}: lhs {_fmt(rep.lhs)}")
    gs = reverse_translate(game, graph, cs)
    value = sync_value(game, gs, PriorDistribution.uniform_questions(game.n)).value
    print(f"game value: {_fmt(value)}")
    target = Path(_out_base(args.out, args.coloring) + ".strategy.json")
    write_strategy_json(gs, target)
    print(f"wrote {target}")
    return 0


def _require_dimension(d: int) -> None:
    if not 1 <= d <= MAX_DIMENSION:
        raise ValidationError(f"dimension must be in 1..{MAX_DIMENSION}, got {d}")


def cmd_check(args) -> int:
    if args.trials < 0:
        raise ValidationError(f"trial count must be >= 0, got {args.trials}")
    _require_dimension(args.d)
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValidationError(f"tolerance must be finite and >= 0, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    worst = {}
    violations = 0
    total = 0
    for _ in range(args.trials):
        for fam, rep in bound_suite_trial(rng, args.d):
            total += 1
            if fam not in worst or rep.slack < worst[fam].slack:
                worst[fam] = rep
            if rep.slack < -args.tol:
                violations += 1
                print(f"VIOLATION {fam}: {_report_line(rep)}", file=sys.stderr)
    if args.trials == 0:
        print(f"no trials requested (seed {args.seed}, d {args.d}); nothing to report")
        return 0
    for fam in BOUND_FAMILIES:
        rep = worst[fam]
        print(f"{fam}: worst slack {_fmt(rep.slack)} ({rep.context})")
    print(f"{total} reports over {args.trials} trials, {violations} violations at tolerance {_fmt(args.tol)}")
    return 1 if violations else 0


def cmd_maxcut(args) -> int:
    if args.trials < 0:
        raise ValidationError(f"trial count must be >= 0, got {args.trials}")
    _require_dimension(args.d)
    g = load_simple_graph(Path(args.graph))
    cut = max3cut_bruteforce(g)  # refuses a graph over its search limit before anything is printed
    print(f"graph: {g.n_vertices} vertices, {g.n_edges} edges")
    print(f"max 3-cut: {cut}")
    rng = np.random.default_rng(args.seed)
    batch = max(1, linalg.GATHER_BYTES // (16 * max(g.n_vertices, 1) * args.d**2))
    best = None
    for start in range(0, args.trials, batch):
        for fam in random_order3_families(rng, g, args.d, min(batch, args.trials - start)):
            score = unitary_cut_value(g, fam)
            if best is None or score > best[0]:
                best = (score, fam)
    if best is not None:
        print(
            f"best unitary cut over {args.trials} random order-3 families"
            f" (d={args.d}): {_fmt(best[0])}"
        )
        print(_report_line(roots_identity_check(g, best[1])))
    best = fam = None  # a family views its whole batch's stacks: free them before the bridge
    if g.n_vertices <= 6:
        print(_report_line(value_bridge(g)))
    else:
        print("value bridge: skipped (enumeration limited to 6 vertices here)")
    return 0


def cmd_demo(args) -> int:
    game = minimal_game()
    graph = build_graph(game)
    print(f"minimal game compiles to {graph.n_vertices} vertices / {graph.n_edges} edges")
    strategy = deterministic_strategy(game, (1,))
    cs = forward_translate(game, graph, strategy)
    print(f"perfect strategy -> coloring value {_fmt(coloring_value(graph, cs).value)}")
    gs = reverse_translate(game, graph, cs)
    prior = PriorDistribution.uniform_questions(game.n)
    print(f"round trip -> game value {_fmt(sync_value(game, gs, prior).value)}")
    labels = coloring_labels(cs)
    print(f"twist sweep (seed {args.seed}):")
    for theta, twisted in twisted_colorings(labels, (0.1, 0.05, 0.01), seed=args.seed).items():
        agg = aggregate_offcolor_estimate(graph, symmetrize(twisted))
        recovered = sync_value(game, reverse_translate(game, graph, twisted), prior).value
        print(
            f"  theta {_fmt(theta)}: coloring {_fmt(coloring_value(graph, twisted).value)},"
            f" recovered {_fmt(recovered)},"
            f" off-color {_fmt(agg.lhs)} <= {_fmt(agg.rhs)}"
        )
    g = complete_graph(4)
    print(f"K4: max 3-cut {max3cut_bruteforce(g)}")
    fam = random_order3_family(np.random.default_rng(args.seed), g, 3)
    print(f"K4 random order-3 family: cut value {_fmt(unitary_cut_value(g, fam))}")
    print(_report_line(roots_identity_check(g, fam)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gadgetgraph",
        description="Gadget-graph reduction compiler and numerical verifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="build the gadget graph of a game file")
    c.add_argument("game", help="game JSON file")
    c.add_argument("--format", choices=("json", "dot", "both"), default="json")
    c.add_argument("--out", help="output path prefix (default: the input stem)")
    c.set_defaults(func=cmd_compile)

    f = sub.add_parser("forward", help="translate a game strategy into a coloring")
    f.add_argument("game", help="game JSON file")
    f.add_argument("strategy", help="game-strategy JSON file")
    f.add_argument("--out", help="output path prefix (default: the strategy stem)")
    f.set_defaults(func=cmd_forward)

    r = sub.add_parser("reverse", help="translate a coloring back into a game strategy")
    r.add_argument("game", help="game JSON file")
    r.add_argument("coloring", help="coloring-strategy JSON file")
    r.add_argument("--out", help="output path prefix (default: the coloring stem)")
    r.set_defaults(func=cmd_reverse)

    k = sub.add_parser("check", help="run the randomized inequality suite")
    k.add_argument("--seed", type=int, default=0)
    k.add_argument("--trials", type=int, default=1000)
    k.add_argument("--d", type=int, default=4, help="matrix dimension, 1..64")
    k.add_argument("--tol", type=float, default=1e-9, help="slack tolerance")
    k.set_defaults(func=cmd_check)

    m = sub.add_parser("maxcut", help="exact cut, unitary labelings, and identities")
    m.add_argument("graph", help="graph file (JSON or 'u v' lines)")
    m.add_argument("--seed", type=int, default=0)
    m.add_argument("--d", type=int, default=3, help="unitary dimension, 1..64")
    m.add_argument("--trials", type=int, default=20, help="random families to score")
    m.set_defaults(func=cmd_maxcut)

    d = sub.add_parser("demo", help="small end-to-end tour on built-in instances")
    d.add_argument("--seed", type=int, default=11)
    d.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:  # before a command prints anything
            raise ValidationError(f"seed must be >= 0, got {args.seed}")
        return args.func(args)
    except BoundViolation as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (OSError, UnicodeDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
