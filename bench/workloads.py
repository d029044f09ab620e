"""Seeded inputs of the four benchmark workloads.

Each builder writes its input files into a work directory and returns a
``Workload``: the command lines the closed loop cycles through, what the
output checks need to know about the inputs, the input sizes, and the call
counts the traced run must see in every command.  Everything is drawn from
one ``numpy`` generator seeded by the workload seed.

Random games take exactly round(p * size) cross-question losing tuples from
each answer class (both answers at the ends {1, m}; both inside; mixed).
The expected shape is that of ``random_game(n, m, p)``, but the number of
orthogonality gadgets, and with it the vertex count, is the same for every
seed, so seeds change the inputs and not the amount of work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gadgetgraph import instances
from gadgetgraph.games import SyncGame
from gadgetgraph.graphs import build_graph
from gadgetgraph.linalg import random_pvm

#: Distinct inputs per run; the closed loop cycles through them.
POOL = 4


@dataclass
class Workload:
    name: str
    commands: list  # argv lists; "{out}" stands for a per-command output prefix
    reference: dict  # input data the output checks compare against
    sizes: dict
    expected_calls: dict  # span name -> calls in every traced command
    outputs: tuple = field(default=())  # suffixes of the files a command writes


def _write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")
    return str(path)


def _matrix_payload(m) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(m).reshape(-1)]


def _strategy_payload(d: int, pvms: dict) -> dict:
    return {"d": d, "pvms": {str(k): [_matrix_payload(m) for m in mats] for k, mats in pvms.items()}}


def fixed_size_game(rng: np.random.Generator, n: int, m: int, p: float) -> dict:
    """Game payload: synchrony tuples plus round(p * size) drawn per answer class."""
    ends = {1, m}
    classes: tuple = ([], [], [])
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x == y:
                continue
            for a in range(1, m + 1):
                for b in range(1, m + 1):
                    if a in ends and b in ends:
                        classes[0].append((a, b, x, y))
                    elif a not in ends and b not in ends:
                        classes[1].append((a, b, x, y))
                    else:
                        classes[2].append((a, b, x, y))
    losing = [(a, b, x, x) for x in range(1, n + 1) for a in range(1, m + 1)
              for b in range(1, m + 1) if a != b]
    for members in classes:
        picked = rng.choice(len(members), size=round(p * len(members)), replace=False)
        losing.extend(members[i] for i in picked)
    return {"n": n, "m": m, "losing": sorted(list(t) for t in losing)}


def forward(seed: int, work: Path) -> Workload:
    """forward game.json strategy_k.json at d = 16 on a 3-question, 4-answer game."""
    rng = np.random.default_rng(seed)
    d = 16
    game = fixed_size_game(rng, 3, 4, 0.3)
    game_path = _write(work / "game.json", game)
    graph = build_graph(SyncGame(game["n"], game["m"], frozenset(map(tuple, game["losing"]))))
    commands, strategies = [], []
    for k in range(POOL):
        pvms = {x: random_pvm(rng, d, game["m"]) for x in range(1, game["n"] + 1)}
        strategies.append(np.array([pvms[x] for x in sorted(pvms)]))
        path = _write(work / f"strategy_{k}.json", _strategy_payload(d, pvms))
        commands.append(["forward", game_path, path, "--out", "{out}"])
    return Workload(
        name="forward",
        commands=commands,
        reference={"game": game, "strategies": strategies,
                   "vertices": list(graph.vertices), "edges": list(graph.edges)},
        sizes={"n": game["n"], "m": game["m"], "losing": len(game["losing"]),
               "V": graph.n_vertices, "E": graph.n_edges, "d": d},
        expected_calls={"forward.forward_translate": 2, "forward.coloring_value": 2,
                        "graphs.build_graph": 1},
        outputs=(".coloring.json",),
    )


def reverse(seed: int, work: Path) -> Workload:
    """reverse triangle.json coloring_k.json on near-perfect twisted colorings at d = 8."""
    rng = np.random.default_rng(seed)
    d = 8
    game = instances.triangle_coloring_game()
    payload = {"n": game.n, "m": game.m, "losing": [list(t) for t in game.losing_sorted]}
    game_path = _write(work / "triangle.json", payload)
    graph = build_graph(game)
    labels = instances.perfect_labels(game, graph, instances.triangle_strategy())
    commands = []
    for k in range(POOL):
        theta = float(rng.uniform(0.01, 0.1))
        field_seed = int(rng.integers(2**31))
        cs = instances.twisted_colorings(labels, (theta,), seed=field_seed, d=d)[theta]
        path = _write(work / f"coloring_{k}.json", _strategy_payload(d, cs.pvms))
        commands.append(["reverse", game_path, path, "--out", "{out}"])
    return Workload(
        name="reverse",
        commands=commands,
        reference={"game": payload},
        sizes={"n": game.n, "m": game.m, "losing": len(game.losing),
               "V": graph.n_vertices, "E": graph.n_edges, "d": d},
        expected_calls={"reverse.symmetrize": 2, "forward.coloring_value": 4,
                        "reverse.control_compressions": 2, "rounding.perturb_pvm": 3},
        outputs=(".strategy.json",),
    )


def compile_(seed: int, work: Path) -> Workload:
    """compile game.json --format both on a 16-question, 8-answer game."""
    rng = np.random.default_rng(seed)
    game = fixed_size_game(rng, 16, 8, 0.3)
    game_path = _write(work / "game.json", game)
    return Workload(
        name="compile",
        commands=[["compile", game_path, "--format", "both", "--out", "{out}"]],
        reference={"game": game},
        sizes={"n": game["n"], "m": game["m"], "losing": len(game["losing"]),
               "V": None, "E": None, "d": None},
        expected_calls={"graphs.build_graph": 1, "graphs.export_graph": 2},
        outputs=(".graph.json", ".dot"),
    )


def maxcut(seed: int, work: Path) -> Workload:
    """maxcut graph_k.json --trials 20 --d 3 on 6-vertex graphs with 9 edges.

    Each graph is a Hamiltonian cycle through a seeded vertex order plus 3
    seeded chords; the edge count is fixed because the command's time grows
    with it.
    """
    rng = np.random.default_rng(seed)
    n = 6
    commands, graphs = [], []
    for k in range(POOL):
        order = [int(v) + 1 for v in rng.permutation(n)]
        cycle = {tuple(sorted((order[i], order[(i + 1) % n]))) for i in range(n)}
        chords = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in cycle]
        picked = rng.choice(len(chords), size=3, replace=False)
        edges = sorted(cycle | {chords[i] for i in picked})
        graphs.append(edges)
        path = _write(work / f"graph_{k}.json", {"n": n, "edges": [list(e) for e in edges]})
        commands.append(["maxcut", path, "--trials", "20", "--d", "3", "--seed", str(k)])
    return Workload(
        name="maxcut",
        commands=commands,
        reference={"n": n, "graphs": graphs},
        sizes={"n": None, "m": None, "losing": None, "V": n, "E": 9, "d": 3},
        expected_calls={"games.sync_value": 730, "maxcut.max3cut_bruteforce": 2,
                        "maxcut.unitary_cut_value": 21},
    )


BUILDERS = {"forward": forward, "reverse": reverse, "compile": compile_, "maxcut": maxcut}
