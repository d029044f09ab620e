"""Exact Max-3-Cut, order-3 unitary labelings, and the identity between
their cut values and coloring-game values.

Max-3-Cut asks how many edges of a simple graph can be cut by a partition
of its vertices into three classes; the non-commutative relaxation scores
a family of order-3 unitaries by trace overlaps instead.  Both sides meet
in the roots-of-unity identity: decomposing each unitary into its three
spectral projections turns the trace score of an edge into the same-color
collision mass of a coloring strategy, so the cut value of a family equals
the number of edges times a coloring-game value.  This module computes all
three quantities and certifies the identity numerically.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .games import (
    GameStrategy,
    PriorDistribution,
    _prebuilt,
    coloring_game,
    edge_loss_probability,
    sync_value,
)
from .linalg import as_matrix, identity, require_pvm, trace_product, two_norm
from .rounding import InequalityReport

#: Spectrum/order tolerance for unitary families.
UNITARY_TOL = 1e-10

#: Per-edge and aggregate tolerance for the roots-of-unity identity.
ROOTS_IDENTITY_TOL = 1e-10

#: Exhaustive search refuses graphs with more vertices than this.
BRUTE_FORCE_LIMIT = 18

#: Both-sides deterministic enumeration refuses graphs larger than this.
VALUE_BRIDGE_LIMIT = 10


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected graph on vertices 1..n with no loops or multi-edges."""

    n_vertices: int
    edges: tuple

    def __post_init__(self) -> None:
        if not isinstance(self.n_vertices, int) or self.n_vertices < 0:
            raise ValidationError(f"vertex count {self.n_vertices!r} must be a nonnegative integer")
        seen = set()
        normalized = []
        for edge in self.edges:
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {edge!r} is not a pair") from None
            if not (isinstance(u, int) and isinstance(v, int)):
                raise ValidationError(f"edge {edge!r} has non-integer endpoints")
            if not (1 <= u <= self.n_vertices and 1 <= v <= self.n_vertices):
                raise ValidationError(
                    f"edge {edge!r} leaves the vertex range 1..{self.n_vertices}"
                )
            if u == v:
                raise ValidationError(f"loop at vertex {u} is not allowed")
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                raise ValidationError(f"duplicate edge {pair!r}")
            seen.add(pair)
            normalized.append(pair)
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def complete_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, tuple((u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)))


def cycle_graph(k: int) -> SimpleGraph:
    if k < 3:
        raise ValidationError(f"a simple cycle needs at least 3 vertices, got {k}")
    return SimpleGraph(k, tuple((v, v % k + 1) for v in range(1, k + 1)))


def _graph_from_payload(payload) -> SimpleGraph:
    if isinstance(payload, dict):
        try:
            n = payload["n"]
            edges = payload["edges"]
        except KeyError as exc:
            raise ValidationError(f"graph JSON lacks key {exc}") from None
    elif isinstance(payload, list):
        edges = payload
        n = 0
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ValidationError(f"edge entry {e!r} is not a pair")
            u, v = e
            if isinstance(u, int) and isinstance(v, int):
                n = max(n, u, v)
    else:
        raise ValidationError(f"graph JSON must be an object or a list, got {type(payload).__name__}")
    return SimpleGraph(n, tuple(tuple(e) for e in edges))


def load_simple_graph(source) -> SimpleGraph:
    """Read a graph from a path or literal: JSON ({"n", "edges"} or a bare
    edge list) or whitespace text with one `u v` pair per line, 1-based."""
    if isinstance(source, Path) or (isinstance(source, str) and os.path.exists(source)):
        content = Path(source).read_text()
    else:
        content = source
    if not isinstance(content, str) or not content.strip():
        raise ValidationError("empty graph input")
    stripped = content.lstrip()
    if stripped[0] in "{[":
        try:
            payload = json.loads(content)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed graph JSON: {exc}") from None
        return _graph_from_payload(payload)
    edges = []
    for lineno, line in enumerate(content.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 2:
            raise ValidationError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValidationError(f"line {lineno}: non-integer endpoint in {line!r}") from None
    n = max((max(e) for e in edges), default=0)
    return SimpleGraph(n, tuple(edges))


# ---------------------------------------------------------------------------
# exact Max-3-Cut


def max3cut_bruteforce(g: SimpleGraph) -> int:
    """Exact maximum number of edges cut by a 3-partition.

    Branch-and-bound over vertices in index order; the first vertex's
    class is fixed and each later vertex may open at most one new class,
    which quotients out the 3! relabelings.  A branch is abandoned when
    even cutting every undecided edge cannot beat the incumbent.
    """
    n = g.n_vertices
    if n > BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"{n} vertices exceed the exhaustive-search limit {BRUTE_FORCE_LIMIT}"
        )
    earlier = [[] for _ in range(n + 1)]
    for u, v in g.edges:
        earlier[v].append(u)
    undecided = [0] * (n + 2)
    for v in range(n, 0, -1):
        undecided[v] = undecided[v + 1] + len(earlier[v])
    colors = [0] * (n + 1)
    best = 0

    def descend(v: int, cut: int, used: int) -> None:
        nonlocal best
        if v > n:
            if cut > best:
                best = cut
            return
        if cut + undecided[v] <= best:
            return
        for c in range(min(used + 1, 3)):
            colors[v] = c
            gained = sum(1 for u in earlier[v] if colors[u] != c)
            descend(v + 1, cut + gained, used if c < used else c + 1)

    descend(1, 0, 0)
    return best


# ---------------------------------------------------------------------------
# order-3 unitary families


@dataclass(frozen=True, eq=False)
class OrderKUnitaryFamily:
    """One d-by-d unitary of order k per vertex, keyed 1-based."""

    k: int
    d: int
    unitaries: dict

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or self.k < 1:
            raise ValidationError(f"order {self.k!r} must be a positive integer")
        one = identity(self.d)
        frozen = {}
        for vertex, raw in self.unitaries.items():
            if not isinstance(vertex, int) or vertex < 1:
                raise ValidationError(f"vertex key {vertex!r} is not a positive integer")
            u = as_matrix(raw, self.d)
            if two_norm(u.conj().T @ u - one) > UNITARY_TOL:
                raise ValidationError(f"matrix at vertex {vertex} is not unitary")
            if two_norm(np.linalg.matrix_power(u, self.k) - one) > UNITARY_TOL:
                raise ValidationError(
                    f"matrix at vertex {vertex} does not have order {self.k}"
                )
            u = u.copy()
            u.setflags(write=False)
            frozen[vertex] = u
        object.__setattr__(self, "unitaries", frozen)

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(self.unitaries))


def _powers(u: np.ndarray, k: int) -> list:
    out = [identity(u.shape[0])]
    for _ in range(k - 1):
        out.append(out[-1] @ u)
    return out


def _require_family(g: SimpleGraph, fam: OrderKUnitaryFamily) -> None:
    missing = [v for v in range(1, g.n_vertices + 1) if v not in fam.unitaries]
    if missing:
        raise ValidationError(f"family lacks unitaries for vertices {missing}")


def unitary_cut_value(g: SimpleGraph, fam: OrderKUnitaryFamily) -> float:
    """Sum over edges of 1 - (1/k) * sum_s tau(u_i^s (u_j^s)*).

    A certified lower bound on the non-commutative Max-k-Cut: scalar
    families reduce to classical cuts, and the value never exceeds |E|.
    """
    _require_family(g, fam)
    powers = {v: _powers(fam.unitaries[v], fam.k) for v in fam.unitaries}
    terms = []
    for u, v in g.edges:
        overlap = math.fsum(
            trace_product(powers[u][s], powers[v][s].conj().T) for s in range(fam.k)
        )
        terms.append(1.0 - overlap / fam.k)
    return math.fsum(terms)


def pvm_from_unitary(u) -> list:
    """Spectral projections of an order-3 unitary onto the cube roots of 1.

    Outcome a collects the eigenspace for exp(2*pi*i*a/3); summing
    omega^a times the outcomes reconstructs the unitary.
    """
    a = as_matrix(u)
    d = a.shape[0]
    one = identity(d)
    if two_norm(a.conj().T @ a - one) > UNITARY_TOL:
        raise ValidationError("input is not unitary")
    if two_norm(np.linalg.matrix_power(a, 3) - one) > UNITARY_TOL:
        raise ValidationError("input does not have order 3")
    omega = np.exp(2j * np.pi / 3)
    powers = _powers(a, 3)
    mats = []
    for outcome in range(3):
        e = sum(omega ** (-outcome * s) * powers[s] for s in range(3)) / 3.0
        mats.append(0.5 * (e + e.conj().T))
    return list(require_pvm(mats, what="spectral decomposition"))


def unitary_from_pvm(mats) -> np.ndarray:
    """Rebuild the order-3 unitary sum_a omega^a e_a from its projections."""
    frozen = require_pvm(mats, what="unitary spectral data")
    if len(frozen) != 3:
        raise ValidationError(f"expected 3 outcomes, got {len(frozen)}")
    omega = np.exp(2j * np.pi / 3)
    return sum(omega**outcome * frozen[outcome] for outcome in range(3))


def roots_identity_check(g: SimpleGraph, fam: OrderKUnitaryFamily) -> InequalityReport:
    """Certify the trace identity linking unitary scores to collision mass.

    Per edge, (1/k) sum_s tau(u_i^s (u_j^s)*) must equal
    sum_a tau(e_{a,i} e_{a,j}) for the spectral projections; on aggregate,
    the family's cut value must equal |E| times the coloring-game value of
    the spectral strategy under the uniform-on-edges prior.  The report's
    lhs is the worst absolute deviation across both checks.
    """
    if fam.k != 3:
        raise ValidationError(f"the identity is implemented for order 3, got {fam.k}")
    _require_family(g, fam)
    if g.n_edges == 0:
        return InequalityReport("roots-of-unity identity (no edges)", 0.0, ROOTS_IDENTITY_TOL)
    powers = {v: _powers(fam.unitaries[v], 3) for v in fam.unitaries}
    spectral = {v: pvm_from_unitary(fam.unitaries[v]) for v in fam.unitaries}
    worst = 0.0
    worst_label = "no edge"
    for u, v in g.edges:
        lhs = math.fsum(trace_product(powers[u][s], powers[v][s].conj().T) for s in range(3)) / 3.0
        rhs = edge_loss_probability(spectral[u], spectral[v])
        gap = abs(lhs - rhs)
        if gap > worst:
            worst, worst_label = gap, f"edge ({u},{v})"
    # pvm_from_unitary has validated every spectral PVM.
    strategy = _prebuilt(
        GameStrategy, fam.d, {v: spectral[v] for v in range(1, g.n_vertices + 1)}
    )
    game_value = sync_value(
        coloring_game(g.edges, g.n_vertices),
        strategy,
        PriorDistribution.uniform_edges(g.edges),
    ).value
    aggregate_gap = abs(unitary_cut_value(g, fam) - g.n_edges * game_value)
    if aggregate_gap > worst:
        worst, worst_label = aggregate_gap, "aggregate"
    return InequalityReport(
        f"roots-of-unity identity (worst at {worst_label})", worst, ROOTS_IDENTITY_TOL
    ).require(tol=0.0)


def value_bridge(g: SimpleGraph) -> InequalityReport:
    """Certify Max-3-Cut(g) = |E| times the best deterministic coloring value.

    The left side is exact branch-and-bound over partitions; the right
    side scores every deterministic labeling as a dimension-1 strategy for
    the coloring game under the uniform-on-edges prior and takes the best.
    """
    n = g.n_vertices
    if n > VALUE_BRIDGE_LIMIT:
        raise ValidationError(
            f"{n} vertices exceed the double-enumeration limit {VALUE_BRIDGE_LIMIT}"
        )
    cut = max3cut_bruteforce(g)
    if g.n_edges == 0:
        report = InequalityReport("cut value bridge (no edges)", float(cut), 0.0)
        return report.require()
    game = coloring_game(g.edges, n)
    prior = PriorDistribution.uniform_edges(g.edges)
    # Exact 0/1 labelings are PVMs by construction.
    one = np.eye(1, dtype=np.complex128)
    zero = np.zeros((1, 1), dtype=np.complex128)
    best = 0.0
    for code in range(3**n):
        labels = []
        rest = code
        for _ in range(n):
            labels.append(rest % 3 + 1)
            rest //= 3
        strategy = _prebuilt(
            GameStrategy,
            1,
            {x: [one if a == labels[x - 1] else zero for a in (1, 2, 3)] for x in range(1, n + 1)},
        )
        best = max(best, sync_value(game, strategy, prior).value)
    return InequalityReport(
        "cut value bridge (cut %d, best coloring value %.12g)" % (cut, best),
        abs(cut - g.n_edges * best),
        0.0,
    ).require()
