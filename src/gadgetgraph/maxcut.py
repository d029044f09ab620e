"""Exact Max-3-Cut, order-3 unitary labelings, and the identity between
their cut values and coloring-game values.

Max-3-Cut asks how many edges of a simple graph can be cut by a partition of
its vertices into three classes; the non-commutative relaxation scores a
family of order-3 unitaries by trace overlaps instead.  Both sides meet in the
roots-of-unity identity: decomposing each unitary into its three spectral
projections turns the trace score of an edge into the same-color collision
mass of a coloring strategy, so the cut value of a family equals |E| times a
coloring-game value.  This module computes all three quantities, those of a
family from its powers stack, built and checked once, and certifies the
identity numerically.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from itertools import chain

import numpy as np

from .errors import ValidationError
from .games import (
    GameStrategy,
    PriorDistribution,
    SimpleGraph,
    _held,
    _is_int,
    _prebuilt,
    _read_text,
    _unique_keys,
    coloring_game,
    sync_value,
)
from .linalg import _norms, _overlaps, _raise_first, as_matrix, identity, require_pvm, require_pvm_family
from .rounding import InequalityReport

#: Spectrum/order tolerance for unitary families.
UNITARY_TOL = 1e-10

#: Per-edge and aggregate tolerance for the roots-of-unity identity.
ROOTS_IDENTITY_TOL = 1e-10

#: Exhaustive search refuses graphs with more vertices than this.
BRUTE_FORCE_LIMIT = 18

#: Both-sides deterministic enumeration refuses graphs larger than this.
VALUE_BRIDGE_LIMIT = 10


def complete_graph(k: int) -> SimpleGraph:
    return SimpleGraph(k, tuple((u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)))


def cycle_graph(k: int) -> SimpleGraph:
    if k < 3:
        raise ValidationError(f"a simple cycle needs at least 3 vertices, got {k}")
    return SimpleGraph(k, tuple((v, v % k + 1) for v in range(1, k + 1)))


def _vertex_count(edges) -> int:
    """The vertex count of a layout that gives none: the largest endpoint of
    an entry that is a pair of integers, or 0.  SimpleGraph names the rest."""
    pairs = (e for e in edges if isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e)))
    return max(chain([0], *pairs))


def _graph_from_payload(payload) -> SimpleGraph:
    if isinstance(payload, dict):
        try:
            n = payload["n"]
            edges = payload["edges"]
        except KeyError as exc:
            raise ValidationError(f"graph JSON lacks key {exc}") from None
        if not isinstance(edges, list):
            raise ValidationError("graph field 'edges' must be a list of pairs")
    elif isinstance(payload, list):
        edges, n = payload, _vertex_count(payload)
    else:
        raise ValidationError(f"graph JSON must be an object or a list, got {type(payload).__name__}")
    return SimpleGraph(n, tuple(tuple(e) if isinstance(e, list) else e for e in edges))


def load_simple_graph(source) -> SimpleGraph:
    """Read a graph from a file, or from literal JSON in a str: JSON ({"n",
    "edges"} or a bare edge list) or whitespace text with one `u v` pair per
    line, 1-based.  A str that does not start with ``{`` or ``[`` names a
    file."""
    content = _read_text(source)
    if not isinstance(content, str) or not content.strip():
        raise ValidationError("empty graph input")
    stripped = content.lstrip()
    if stripped[0] in "{[":
        try:
            payload = json.loads(content, object_pairs_hook=_unique_keys("graph JSON"))
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
    return SimpleGraph(_vertex_count(edges), tuple(edges))


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
    """One d-by-d unitary u of order k per vertex v, keyed 1-based, given as the
    dict ``unitaries``, which is not kept.  Row i of the read-only (K, d, d)
    ``stack`` is the u at ``vertices[i]``, the keys sorted, and row i of the
    read-only (K, k, d, d) ``powers`` stack holds its u^0 ... u^(k-1)."""

    k: int
    d: int
    unitaries: InitVar[dict]
    vertices: tuple = field(init=False, repr=False)
    stack: np.ndarray = field(init=False, repr=False)
    powers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, unitaries: dict) -> None:
        if not _is_int(self.k) or self.k < 1:
            raise ValidationError(f"order {self.k!r} must be a positive integer")
        if not _is_int(self.d) or self.d < 1:
            raise ValidationError(f"dimension must be a positive integer, got {self.d!r}")
        for vertex in unitaries:
            if not _is_int(vertex) or vertex < 1:
                raise ValidationError(f"vertex key {vertex!r} is not a positive integer")
        vertices = tuple(sorted(unitaries))
        stack = np.reshape([as_matrix(unitaries[v], self.d) for v in vertices], (1, -1, self.d, self.d))
        vars(self).update(vars(_families(self.k, vertices, stack)[0]))


def _families(k: int, vertices: tuple, stack: np.ndarray) -> list:
    """One family per row of the C-contiguous (F, n, d, d) ``stack``, row f holding
    family f's unitaries at ``vertices``, the keys sorted.  All F n unitaries go
    through one ``_checked_powers``, family by family, so the failure it names
    is the one the first failing family names alone.  Each family holds
    read-only views of ``stack`` and of the one powers stack."""
    count, n, d = stack.shape[:3]
    stack.setflags(write=False)
    powers = _checked_powers(stack.reshape(-1, d, d), k, vertices * count, "matrix at vertex {}")
    families = []
    for rows, block in zip(stack, powers.reshape(count, n, k, d, d)):
        fam = object.__new__(OrderKUnitaryFamily)
        vars(fam).update(k=k, d=d, vertices=vertices, stack=rows, powers=block)
        families.append(fam)
    return families


def _checked_powers(stack: np.ndarray, k: int, keys, what: str) -> np.ndarray:
    """The read-only (G, k, d, d) powers u^0 ... u^(k-1) of each u of a (G, d, d) stack, once
    each u, labelled ``what.format(keys[i])``, is unitary, then of order k, within UNITARY_TOL
    in ``two_norm``; u^k is taken as u^(k-1) u, ``matrix_power``'s bits for k <= 3."""
    one = identity(stack.shape[-1])
    powers = np.broadcast_to(one, (len(stack), k, *one.shape)).copy()
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow or a NaN fails a check
        for s in range(1, k):
            powers[:, s] = powers[:, s - 1] @ stack
        unitary = ~(_norms(stack.conj().swapaxes(-1, -2) @ stack - one) <= UNITARY_TOL)
        order = ~(_norms(powers[:, k - 1] @ stack - one) <= UNITARY_TOL)
    _raise_first([
        (unitary, lambda i: ValidationError(f"{what.format(keys[i])} is not unitary")),
        (order, lambda i: ValidationError(f"{what.format(keys[i])} does not have order {k}")),
    ])
    powers.setflags(write=False)
    return powers


def _require_family(g: SimpleGraph, fam: OrderKUnitaryFamily) -> None:
    """Raise unless the family has a unitary at every vertex of g, in O(1) when it
    does: its keys are sorted, distinct and positive, so they hold 1..n exactly
    when the n-th is n."""
    n = g.n_vertices
    if n and fam.vertices[n - 1:n] != (n,):
        held = set(fam.vertices)
        missing = [v for v in range(1, n + 1) if v not in held]
        raise ValidationError(f"family lacks unitaries for vertices {missing}")


@_held
def _edge_overlaps(g: SimpleGraph, fam: OrderKUnitaryFamily) -> tuple:
    """(1/k) sum_s tau(u_i^s (u_j^s)*) for each edge (i, j) of g, in edge
    order, held on the family for g (``_held``)."""
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2) - 1  # a family covering g has v at row v - 1
    stack = np.concatenate([fam.powers, fam.powers.conj().swapaxes(-1, -2)])  # row K + i: row i's adjoints
    overlaps = _overlaps(stack, ends[:, 0], ends[:, 1] + len(fam.vertices))
    return tuple(math.fsum(row) / fam.k for row in overlaps.tolist())


def unitary_cut_value(g: SimpleGraph, fam: OrderKUnitaryFamily) -> float:
    """Sum over edges of 1 - (1/k) * sum_s tau(u_i^s (u_j^s)*).

    A certified lower bound on the non-commutative Max-k-Cut: scalar
    families reduce to classical cuts, and the value never exceeds |E|.
    """
    _require_family(g, fam)
    return math.fsum(1.0 - overlap for overlap in _edge_overlaps(g, fam))


def _spectral_projections(powers: np.ndarray) -> np.ndarray:
    """Spectral projections of order-3 unitaries from their (G, 3, d, d) powers: (1/3) sum_s omega^(-a s) u^s."""
    omega = np.exp(2j * np.pi / 3)
    e = np.stack([sum(omega ** (-a * s) * powers[:, s] for s in range(3)) for a in range(3)], axis=1) / 3.0
    return 0.5 * (e + e.conj().swapaxes(-1, -2))


def pvm_from_unitary(u) -> list:
    """Spectral projections of an order-3 unitary onto the cube roots of 1.

    Outcome a collects the eigenspace for exp(2*pi*i*a/3); summing
    omega^a times the outcomes reconstructs the unitary.
    """
    powers = _checked_powers(as_matrix(u)[None], 3, ["input"], "{}")
    return list(require_pvm(_spectral_projections(powers)[0], what="spectral decomposition"))


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
    questions = range(1, g.n_vertices + 1)  # vertex v is row v - 1 of the spectral strategy
    spectral = _spectral_projections(fam.powers[:g.n_vertices])
    require_pvm_family(spectral, questions, what="spectral decomposition at vertex {}")
    strategy = _prebuilt(GameStrategy, fam.d, questions, spectral)
    ends = np.array(g.edges) - 1
    collisions = map(math.fsum, _overlaps(spectral, ends[:, 0], ends[:, 1]).tolist())
    worst = 0.0
    worst_label = "no edge"
    for (u, v), lhs, rhs in zip(g.edges, _edge_overlaps(g, fam), collisions):
        gap = abs(lhs - rhs)
        if gap > worst:
            worst, worst_label = gap, f"edge ({u},{v})"
    game_value = sync_value(
        coloring_game(g),
        strategy,
        PriorDistribution.uniform_edges(g),
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
    game = coloring_game(g)
    prior = PriorDistribution.uniform_edges(g)
    # Labeling `code` colours vertex x with base-3 digit x - 1 of the code,
    # plus 1; as a strategy, row x - 1 is that colour's one-hot 1x1 PVM.
    # Exact 0/1 labelings are PVMs by construction.
    digits = np.arange(3**n)[:, None] // 3 ** np.arange(n) % 3
    labelings = (digits[..., None] == np.arange(3)).astype(np.complex128).reshape(3**n, n, 3, 1, 1)
    labelings.setflags(write=False)
    questions = tuple(range(1, n + 1))
    best = 0.0
    for stack in labelings:
        best = max(best, sync_value(game, _prebuilt(GameStrategy, 1, questions, stack), prior).value)
    return InequalityReport(
        "cut value bridge (cut %d, best coloring value %.12g)" % (cut, best),
        abs(cut - g.n_edges * best),
        0.0,
    ).require()
