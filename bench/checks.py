"""Output checks that do not use the code under test.

Each workload has a loader, which reads one command's standard output and
written files, a verifier, which returns a list of problems (empty when the
output is right), and a corrupter, which damages a loaded output so that a
run can show its verifier rejects it.  The verifiers recompute values with
plain numpy and itertools from the inputs the benchmark wrote.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

#: Largest PVM defect (entrywise Hermitian, trace 2-norm otherwise) accepted.
TOL_PVM = 1e-8
#: Largest gap between a printed value and its recomputation.
TOL_VALUE = 1e-9

_REPORT = re.compile(r"^(.*): lhs (\S+) rhs (\S+) slack (\S+)$", re.M)
_LHS_ONLY = re.compile(r"^(.*\(question \d+; lhs only\)): lhs (\S+)$", re.M)


def _field(pattern: str, text: str):
    m = re.search(pattern, text, re.M)
    if m is None:
        raise ValueError(f"no line matches {pattern!r}")
    return m.groups()


def _norm2(a):
    """Trace 2-norm (Frobenius norm over sqrt(d)) of each matrix in a stack."""
    return np.sqrt((np.abs(a) ** 2).sum(axis=(-2, -1)) / a.shape[-1])


def pvm_defect(p) -> float:
    """Worst defect of a stack (families, outcomes, d, d) of PVMs."""
    d = p.shape[-1]
    worst = [
        float(np.abs(p - np.conj(np.swapaxes(p, -1, -2))).max()),
        float(_norm2(p @ p - p).max()),
        float(_norm2(p.sum(axis=1) - np.eye(d)).max()),
    ]
    for a, b in itertools.combinations(range(p.shape[1]), 2):
        worst.append(float(_norm2(p[:, a] @ p[:, b]).max()))
    return max(worst)


def load_pvms(path) -> tuple:
    """(keys, stack) of a strategy file; keys sorted as the file's key type sorts."""
    payload = json.loads(Path(path).read_text())
    keys = sorted(payload["pvms"], key=lambda k: (int(k),) if k.isdigit() else (math.inf, k))
    d = payload["d"]
    raw = np.array([payload["pvms"][k] for k in keys], dtype=float)
    return keys, (raw[..., 0] + 1j * raw[..., 1]).reshape(len(keys), -1, d, d)


def sync_value(game: dict, pvms) -> float:
    """Value of a game for a stack (n, m, d, d) under the uniform question prior."""
    n, m, d = game["n"], game["m"], pvms.shape[-1]
    joint = np.einsum("xaij,ybji->xayb", pvms, pvms).real / d
    win = np.ones((n, m, n, m), dtype=bool)
    for a, b, x, y in game["losing"]:
        win[x - 1, a - 1, y - 1, b - 1] = False
    return float(joint[win].sum()) / (n * n)


def _slack_problems(stdout: str) -> list:
    return [
        f"negative slack: {line}"
        for line in (m.group(0) for m in _REPORT.finditer(stdout))
        if not float(line.rsplit(" ", 1)[1]) >= 0.0
    ]


# -- forward ---------------------------------------------------------------


def load_forward(stdout: str, out: str) -> dict:
    keys, stack = load_pvms(out + ".coloring.json")
    return {"stdout": stdout, "vertices": keys, "pvms": stack}


def verify_forward(parsed: dict, ref: dict, k: int) -> list:
    problems = []
    stdout, pvms = parsed["stdout"], parsed["pvms"]
    n_edges = len(ref["edges"])
    if _field(r"^graph: (\d+) vertices, (\d+) edges$", stdout) != (
        str(len(ref["vertices"])), str(n_edges)
    ):
        problems.append("graph size line does not match the compiled graph")
    if parsed["vertices"] != sorted(ref["vertices"]):
        problems.append("coloring does not cover exactly the graph's vertices")
        return problems
    defect = pvm_defect(pvms)
    if not defect <= TOL_PVM:
        problems.append(f"a vertex triple is not a PVM (defect {defect:.3e})")
    index = {name: i for i, name in enumerate(parsed["vertices"])}
    u = pvms[[index[a] for a, _ in ref["edges"]]]
    v = pvms[[index[b] for _, b in ref["edges"]]]
    same_color = float(np.einsum("ecij,ecji->", u, v).real) / pvms.shape[-1]
    value = 1.0 - same_color / n_edges
    printed = float(_field(r"^coloring value: (\S+)$", stdout)[0])
    if not abs(printed - value) <= TOL_VALUE:
        problems.append(f"printed coloring value {printed!r} != edge sum {value!r}")
    lhs, rhs, _ = map(float, _field(r"^forward value transfer .*: lhs (\S+) rhs (\S+) slack (\S+)$", stdout))
    game = ref["game"]
    game_loss = 1.0 - sync_value(game, ref["strategies"][k])
    bound = 356.0 * game["n"] ** 2 / n_edges * game_loss
    if not lhs <= rhs:
        problems.append(f"certificate fails: lhs {lhs!r} > rhs {rhs!r}")
    if not abs(lhs - (1.0 - printed)) <= TOL_VALUE:
        problems.append("certificate lhs is not the coloring loss")
    if not abs(rhs - bound) <= TOL_VALUE * max(1.0, abs(bound)):
        problems.append(f"certificate rhs {rhs!r} != 356 n^2/|E| x game loss {bound!r}")
    return problems


def corrupt_forward(parsed: dict) -> dict:
    pvms = parsed["pvms"].copy()
    pvms[0, 0, 0, 0] += 1e-3
    return dict(parsed, pvms=pvms)


# -- reverse ---------------------------------------------------------------


def load_reverse(stdout: str, out: str) -> dict:
    keys, stack = load_pvms(out + ".strategy.json")
    return {"stdout": stdout, "questions": keys, "pvms": stack}


def verify_reverse(parsed: dict, ref: dict, k: int) -> list:
    problems = []
    stdout, pvms, game = parsed["stdout"], parsed["pvms"], ref["game"]
    n, m = game["n"], game["m"]
    if parsed["questions"] != [str(x) for x in range(1, n + 1)] or pvms.shape[1] != m:
        return [f"recovered strategy is not {n} questions by {m} answers"]
    defect = pvm_defect(pvms)
    if not defect <= TOL_PVM:
        problems.append(f"a recovered question family is not a PVM (defect {defect:.3e})")
    printed = float(_field(r"^game value: (\S+)$", stdout)[0])
    value = sync_value(game, pvms)
    if not abs(printed - value) <= TOL_VALUE:
        problems.append(f"printed game value {printed!r} != recomputed {value!r}")
    bounded = len(_REPORT.findall(stdout))
    if bounded != 3 + n * m or len(_LHS_ONLY.findall(stdout)) != 3 * n:
        problems.append(f"expected {3 + n * m} bounded and {3 * n} lhs-only lemma lines")
    return problems + _slack_problems(stdout)


def corrupt_reverse(parsed: dict) -> dict:
    pvms = parsed["pvms"].copy()
    pvms[0, 0, 0, 0] += 1e-3
    return dict(parsed, pvms=pvms)


# -- compile ---------------------------------------------------------------


def load_compile(stdout: str, out: str) -> dict:
    return {
        "stdout": stdout,
        "graph": json.loads(Path(out + ".graph.json").read_text()),
        "dot": Path(out + ".dot").read_text().splitlines(),
    }


def edge_formula(game: dict) -> int:
    """25 n (m - 2) + 19 |e| + 19 |f| + |rest| over the partition by answer range."""
    m = game["m"]
    gadgets = rest = 0
    for a, b, _, _ in game["losing"]:
        ends = (a in (1, m), b in (1, m))
        if ends == (True, True) or ends == (False, False):
            gadgets += 1
        else:
            rest += 1
    return 25 * game["n"] * (m - 2) + 19 * gadgets + rest


def verify_compile(parsed: dict, ref: dict, k: int) -> list:
    problems = []
    stdout, graph, dot = parsed["stdout"], parsed["graph"], parsed["dot"]
    game = ref["game"]
    if _field(r"^game: n=(\d+) m=(\d+) losing=(\d+)$", stdout) != (
        str(game["n"]), str(game["m"]), str(len(game["losing"]))
    ):
        problems.append("game line does not match the input game")
    n_vertices, n_edges = map(int, _field(r"^graph: (\d+) vertices, (\d+) edges$", stdout))
    formula, correction, dups, realized = map(
        int, _field(r"^edge count: formula (\d+) \+ correction (\d+) - duplicates (\d+) = (\d+)$", stdout)
    )
    if formula != edge_formula(game):
        problems.append(f"printed formula {formula} != recomputed {edge_formula(game)}")
    if formula + correction - dups != realized or realized != n_edges:
        problems.append("edge count line does not add up to the realized count")
    vertices = set(graph["vertices"])
    edges = {tuple(e) for e in graph["edges"]}
    if len(graph["vertices"]) != n_vertices or len(vertices) != n_vertices:
        problems.append("JSON vertex list does not hold the printed vertex count")
    if len(graph["edges"]) != realized or len(edges) != realized:
        problems.append(f"JSON holds {len(graph['edges'])} edges, realized line says {realized}")
    if any(u == v or u not in vertices or v not in vertices for u, v in edges):
        problems.append("JSON edge list has a loop or an unknown endpoint")
    dot_edges = sum(1 for line in dot if " -- " in line)
    dot_vertices = sum(1 for line in dot if line.startswith('    "') and line.endswith('";'))
    if dot_edges != realized or dot_vertices != n_vertices:
        problems.append(f"DOT holds {dot_vertices} vertices and {dot_edges} edges")
    return problems


def corrupt_compile(parsed: dict) -> dict:
    dot = list(parsed["dot"])
    last_edge = max(i for i, line in enumerate(dot) if " -- " in line)
    del dot[last_edge]
    return dict(parsed, dot=dot)


# -- maxcut ----------------------------------------------------------------


def load_maxcut(stdout: str, out: str) -> dict:
    return {"stdout": stdout}


def max3cut(n: int, edges) -> int:
    return max(
        sum(labels[u - 1] != labels[v - 1] for u, v in edges)
        for labels in itertools.product(range(3), repeat=n)
    )


def verify_maxcut(parsed: dict, ref: dict, k: int) -> list:
    problems = []
    stdout = parsed["stdout"]
    edges = ref["graphs"][k]
    best = max3cut(ref["n"], edges)
    if _field(r"^graph: (\d+) vertices, (\d+) edges$", stdout) != (str(ref["n"]), str(len(edges))):
        problems.append("graph size line does not match the input graph")
    printed = int(_field(r"^max 3-cut: (\d+)$", stdout)[0])
    if printed != best:
        problems.append(f"printed max 3-cut {printed} != brute force {best}")
    cut, value = _field(r"^cut value bridge \(cut (\d+), best coloring value (\S+)\)", stdout)
    if int(cut) != best or not abs(float(value) * len(edges) - best) <= TOL_VALUE:
        problems.append(f"value bridge reports cut {cut}, value {value}; brute force {best}")
    unitary = float(_field(r"^best unitary cut over .*: (\S+)$", stdout)[0])
    if not 0.0 <= unitary <= len(edges):
        problems.append(f"unitary cut value {unitary!r} outside [0, |E|]")
    _field(r"^roots-of-unity identity .*: lhs \S+ rhs \S+ slack \S+$", stdout)
    return problems + _slack_problems(stdout)


def corrupt_maxcut(parsed: dict) -> dict:
    stdout = re.sub(
        r"^max 3-cut: (\d+)$", lambda m: f"max 3-cut: {int(m.group(1)) + 1}", parsed["stdout"], flags=re.M
    )
    return dict(parsed, stdout=stdout)


CHECKERS = {
    "forward": (load_forward, verify_forward, corrupt_forward),
    "reverse": (load_reverse, verify_reverse, corrupt_reverse),
    "compile": (load_compile, verify_compile, corrupt_compile),
    "maxcut": (load_maxcut, verify_maxcut, corrupt_maxcut),
}
