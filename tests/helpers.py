"""Shared test utilities.

The edge-accounting enumerator here recomputes the gadget-graph edge
census from its own tables: its own partition of the losing tuples, its
own slot lists, and a string-rewriting canonicalization whose chain rule
points the opposite way from the builder's smallest-key representative.
Agreement with the builder is therefore evidence, not a tautology.  The
canonical keys parsed from names here (``canonical_key``) order that census
as ``reference_order`` and group the DOT clusters of ``reference_dot``.

The builder names only the cells that become vertices, and the graph
reaches them by id alone.  ``reference_name_views`` is the only named copy
of a compiled graph: it names the edges and the gadget handles
(``BlockHandle``, ``OrthoHandle``) from the graph's id tables, as the
library's views did before they left it, and looks up a block and an
answer cell v̂(a, x) by number.  The paper's other names (the prism rungs
s(j), the middle top t(2), the answer cells and every glued cell) are
spelled here, and ``handle_names`` reads the vertex each of them lands on
from those handles.

``mask_sync_value`` is ``sync_value`` as it ran before the per-(game,
prior) term table: the prior's range check on every call, a dense (n, n,
m, m) losing mask (``losing_mask``) gathered at the support and split from
one GEMM over all n questions.  ``held_arrays`` lists the arrays an object
keeps, to show that none of them is that mask.

``reference_game_check``, ``reference_losing_sorted`` and
``reference_partition_losing`` are the per-tuple loops a game was checked,
sorted and split by before ``SyncGame`` kept its tuples as one sorted array.

The ``reference_*`` PVM checks are the per-operator code ``linalg`` ran
before its one stack check: each outcome checked in full, one after the
other, then the PVM defect.  Every defect of the stack check must equal
theirs bit for bit.

The ``reference_check_*`` functions are the bound-suite checkers as they
ran before each checked its family once and scored it as one stack: every
operator checked and measured on its own, the worst instance kept by a
loop with a strict comparison, and ``reference_common_dim`` comparing the
shapes.  Every report of the stack checkers must equal theirs bit for bit,
and every error must carry their message.

``reference_random_order3_families`` draws random order-3 families vertex
by vertex, each unitary with its own QR, phase fix and conjugation, as
``instances.random_order3_family`` did before its draws were orthonormalised
in batches; the batched draw must equal it bit for bit.

``reference_scattered_coloring`` is the assembly ``forward_translate`` ran
before it colored out of one table of operators: each gadget kind's
templates scattered into the (V, 3, d, d) stack slot by slot and color by
color, and every glued slot compared by matrix.  The stack gathered from the
table must equal its stack bit for bit, and a broken gluing must raise its
message.

``reference_forward_translate`` is the vertex-by-vertex translation that
``forward_translate`` ran before it colored gadgets by kind from templates:
each gadget's color triples built as operators, a per-gadget rounding
(``reference_perturb_two``), and each vertex put by name.  The new stack
must equal its stack bit for bit.

The ``reference_*`` kernels of the reverse path (the coloring value, the
edge products, the triangle sum defects, the sandwich commutators and
families, and the rounding reports) are the per-edge, per-triangle and
per-pair loops that ran before they were gathered into stacks.
``edge_loss_probability`` is the per-edge overlap sum they score an edge
by.  ``reference_diagnostics`` is the name- and label-keyed code
``compute_diagnostics`` ran before it read the id tables: it walks the
named triangles and prisms of the gadget handles (``named_triangles``,
``named_prisms``) and looks theta up by name pair.

``reference_spectral_halves``, ``reference_rounding_steps`` and
``reference_cross_norms`` are the spectral rounding and the sandwich cross
products as they ran before they were batched: each block's projection
rebuilt on its own from the eigenvectors it keeps, the rounding loop
calling ``spectral_projection_half`` step by step (so a step's distance
bound raises before the next step runs), and the cross norms of one
operator against its whole family at a time.  The batched kernels must
give their bytes, the sign of a zero included, and their first error.
"""

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from math import fsum
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from gadgetgraph.errors import BoundViolation, ValidationError
from gadgetgraph.forward import (
    _BLOCK_PUT_COLUMNS,
    _BLOCK_TEMPLATE,
    _ORTHO_TEMPLATES,
    _SLOT_LABELS,
    _require_compiled_from,
    _vertex_rows,
)
from gadgetgraph.games import EDGE_PRIOR, LossEntry, PriorDistribution, SyncGame, _require_strategy_fits
from gadgetgraph.graphs import _A, _B, _C, _CELL, DELTA, ROOK_PAIRS, GadgetGraph, q_name, v_name
from gadgetgraph.linalg import (
    ROOT2,
    TOL_EIGENVALUE,
    TOL_PROJECTION,
    TOL_PVM,
    _operator,
    _two_norms,
    commutator,
    identity,
    require_hermitian,
    require_projection,
    require_pvm,
    spectral_projection_half,
    trace_product,
    two_norm,
    zero,
)
from gadgetgraph.rounding import PERM3, InequalityReport, _perturb_checked_two

def by_key(held) -> dict:
    """The rows of ``held.stack`` by key: a strategy's PVMs, a unitary
    family's unitaries by vertex, or the control sandwiches by permutation."""
    keys = getattr(held, "keys", None) or getattr(held, "vertices", PERM3)
    return dict(zip(keys, held.stack))


def spying(calls: list, fn):
    """``fn``, recording the positional arguments of each call in ``calls``."""

    def spy(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    return spy


#: Filled by the acceptance tests; conftest prints one line per entry
#: after the run so the verdicts survive pytest's output capture.
ACCEPTANCE_RESULTS = []


def losing_mask(game) -> np.ndarray:
    """mask[x-1, y-1, a-1, b-1] is True exactly when (a, b, x, y) loses."""
    n, m = game.n, game.m
    mask = np.zeros((n, n, m, m), dtype=bool)
    a, b, x, y = game.losing_table.T - 1
    mask[x, y, a, b] = True
    return mask


def mask_sync_value(game, strategy, prior) -> tuple:
    """The value and the losses of ``sync_value``, bit for bit, by the code
    it ran before its term table: every overlap of the n questions from one
    GEMM, the (pairs, m, m) terms gathered in the prior's order and split by
    the dense losing mask."""
    _require_strategy_fits(game, strategy)
    n, m, d = game.n, game.m, strategy.d
    for (x, y), _ in prior.weights:
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValidationError(f"prior supports ({x},{y}) outside 1..{n}")
    stack = strategy.stack[:n]
    gram = stack.reshape(n * m, d * d) @ stack.transpose(0, 1, 3, 2).reshape(n * m, d * d).T
    overlaps = (gram.real / d).reshape(n, m, n, m).transpose(0, 2, 1, 3)
    xs, ys, ws = prior._support
    probabilities = overlaps[xs, ys]
    lost = losing_mask(game)[xs, ys]
    value = fsum((ws[:, None, None] * probabilities)[~lost].tolist())
    pair, a, b = np.nonzero(lost)
    keys = zip(*(np.stack([a, b, xs[pair], ys[pair]]) + 1).tolist())
    return value, tuple(map(LossEntry, keys, ws[pair].tolist(), probabilities[lost].tolist()))


def held_arrays(obj) -> list:
    """Every numpy array ``obj`` keeps in its attributes, looked for through
    tuples, lists, dicts and the attributes of the objects they hold."""
    found, seen, todo = [], set(), [obj]
    while todo:
        item = todo.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
        elif isinstance(item, dict):
            todo.extend(item.values())
        elif hasattr(item, "__dict__") and not isinstance(item, type):
            todo.extend(vars(item).values())
    return found


def reference_tau(a, b) -> float:
    """tr(a b)/d by forming the product, as a reference for the O(d^2)
    trace kernels."""
    return float(np.trace(a @ b).real) / a.shape[0]


def reference_unitary_cut_value(g, fam) -> float:
    """``maxcut.unitary_cut_value`` with every power and product formed per
    edge, as a reference for the gathered contraction over the powers stack."""
    terms, unitaries = [], by_key(fam)
    for u, v in g.edges:
        pu = pv = np.eye(fam.d, dtype=np.complex128)
        overlap = []
        for _ in range(fam.k):
            overlap.append(reference_tau(pu, pv.conj().T))
            pu, pv = pu @ unitaries[u], pv @ unitaries[v]
        terms.append(1.0 - fsum(overlap) / fam.k)
    return fsum(terms)


def reference_random_order3_families(rng, n: int, d: int, count: int) -> list:
    """``count`` families of n unitaries, drawn as ``instances.random_order3_family``
    drew them before the draws were orthonormalised in batches: vertex by vertex,
    each with its own QR, phase fix and conjugation."""
    omega = np.exp(2j * np.pi / 3)
    families = []
    for _ in range(count):
        family = []
        for _ in range(n):
            counts = rng.multinomial(d, [1.0 / 3.0] * 3)
            diag = np.concatenate([np.full(c, omega**a) for a, c in enumerate(counts)])
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, r = np.linalg.qr(g)
            q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
            family.append((q * diag) @ q.conj().T)
        families.append(family)
    return families


def block_diagonal(stack) -> np.ndarray:
    """The dense block-diagonal matrix of a (k, d, d) block stack, as a
    reference for the stack-aware linear algebra."""
    k, d, _ = stack.shape
    dense = np.zeros((k * d, k * d), dtype=np.complex128)
    for i, block in enumerate(stack):
        dense[i * d:(i + 1) * d, i * d:(i + 1) * d] = block
    return dense


def raised_message(call):
    """The message of the ValidationError ``call()`` raises, or None."""
    try:
        call()
    except ValidationError as exc:
        return str(exc)
    return None


#: A strategy file whose first outcome is finite but overflows when squared:
#: its projection defect is NaN.
OVERFLOWING_STRATEGY = {"d": 2, "pvms": {"1": [[[1e308, 0.0]] * 4, [[0.0, 0.0]] * 4, [[0.0, 0.0]] * 4]}}
OVERFLOW_MESSAGE = "game strategy PVM at 1 outcome 1 is not a projection: ||P^2-P||_2 = nan > 1e-09"


def reference_hermitian_defect(m) -> float:
    """Largest entrywise deviation |m - m*|."""
    a = _operator(m)
    if not a.size:
        return 0.0
    # An infinite entry gives inf - inf = NaN here, which the callers reject.
    with np.errstate(invalid="ignore"):
        return float(np.max(np.abs(a - a.conj().swapaxes(-1, -2))))


def reference_projection_defect(m) -> float:
    """||m^2 - m||_2."""
    a = _operator(m)
    return two_norm(a @ a - a)


def reference_require_projection(m, tol: float = TOL_PROJECTION, what: str = "matrix") -> np.ndarray:
    """Validate a projection: Hermitian, ||P^2-P||_2 small, spectrum on {0,1}."""
    a = require_hermitian(m, what=what)
    defect = reference_projection_defect(a)
    if not defect <= tol:
        raise ValidationError(f"{what} is not a projection: ||P^2-P||_2 = {defect:.3e} > {tol:.0e}")
    eigs = np.linalg.eigvalsh(a)
    off = float(np.max(np.minimum(np.abs(eigs), np.abs(eigs - 1.0)))) if eigs.size else 0.0
    if not off <= TOL_EIGENVALUE:
        raise ValidationError(
            f"{what} has an eigenvalue {off:.3e} away from {{0,1}} (tolerance {TOL_EIGENVALUE:.0e})"
        )
    return a


def reference_pvm_defect(mats) -> float:
    """Worst PVM defect: max of pairwise ||E_a E_b||_2 and ||sum E - 1||_2."""
    mats = [_operator(m) for m in mats]
    worst = two_norm(sum(mats) - identity(mats[0].shape[-1]))
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            worst = max(worst, two_norm(a @ b))
    return worst


def reference_require_pvm(mats, tol: float = TOL_PVM, what: str = "PVM") -> tuple:
    """Validate a PVM: each outcome a projection, pairwise orthogonal, summing to 1."""
    if not mats:
        raise ValidationError(f"{what} has no outcomes")
    out = tuple(reference_require_projection(m, what=f"{what} outcome {i + 1}") for i, m in enumerate(mats))
    for i, m in enumerate(out):
        if m.shape != out[0].shape:
            raise ValidationError(
                f"{what} outcome {i + 1} has shape {m.shape}, expected {out[0].shape}"
            )
    defect = reference_pvm_defect(out)
    if not defect <= tol:
        raise ValidationError(f"{what} defect {defect:.3e} > {tol:.0e}")
    return out


def indented_reference(strategy) -> str:
    """A strategy file spelled out with the json module, as a reference for
    ``write_strategy_json``: each matrix a row-major list of [re, im] pairs,
    keys as strings."""
    pvms = {
        str(key): [np.ascontiguousarray(m).view(np.float64).reshape(-1, 2).tolist() for m in mats]
        for key, mats in zip(strategy.keys, strategy.stack)
    }
    return json.dumps({"d": strategy.d, "pvms": pvms}, indent=2, sort_keys=True) + "\n"


def reference_graph_json(graph) -> dict:
    """The compiled graph as nested dicts and lists, as a reference for the
    templated JSON writer: ``json.dumps(reference_graph_json(graph),
    sort_keys=True, indent=1) + "\\n"`` is the text ``export_graph`` writes."""
    views = reference_name_views(graph)
    gadgets = {
        "delta": list(DELTA),
        "blocks": [
            {
                "alpha": b.alpha,
                "x": b.x,
                "cells": {f"{i},{j}": b.cells[(i, j)] for i in (1, 2, 3) for j in (1, 2, 3)},
                "t": [b.t1, b.t3],
            }
            for b in views.blocks
        ],
        "orthogonality": [
            {
                "tuple": list(o.tup),
                "kind": o.kind,
                "cells": {f"{i},{j}": o.cells[(i, j)] for i in (1, 2, 3) for j in (1, 2, 3)},
            }
            for o in views.orthos
        ],
        "rest": [{"tuple": list(t), "edge": [u, v]} for t, (u, v) in views.rest_edges],
    }
    return {
        "vertices": list(graph.vertices),
        "edges": [[u, v] for u, v in views.edges],
        "gadgets": gadgets,
        "edge_count_report": asdict(graph.report),
    }


#: The nine cells of a 3x3 gadget, row-major.
CELLS = tuple((i, j) for i in (1, 2, 3) for j in (1, 2, 3))


class _Grid:
    """Rows and columns of a 3x3 gadget's ``cells``."""

    def row(self, i: int) -> tuple:
        return tuple(self.cells[(i, j)] for j in (1, 2, 3))

    def col(self, j: int) -> tuple:
        return tuple(self.cells[(i, j)] for i in (1, 2, 3))


@dataclass(frozen=True, eq=False)
class BlockHandle(_Grid):
    """One rook block R with its prism tops, indexed by (alpha, x)."""

    alpha: int
    x: int
    cells: dict
    t1: str
    t3: str

    def t_triangle(self) -> tuple:
        """The prism's top triangle, aligned rung-by-rung with row 1."""
        return (self.t1, "A", self.t3)


@dataclass(frozen=True, eq=False)
class OrthoHandle(_Grid):
    """Orthogonality gadget for one losing tuple.

    kind 'e' marks endpoint answer pairs (glued through B), 'f' interior
    ones (glued through C).
    """

    tup: tuple
    kind: str
    cells: dict


@dataclass(frozen=True, eq=False)
class NameViews:
    """A compiled graph in names: its edges, one handle per block (x-major,
    alpha-minor) and per orthogonality gadget (e-set first), and
    (tuple, (u, v)) per direct edge."""

    m: int
    edges: tuple
    blocks: tuple
    orthos: tuple
    rest_edges: tuple

    def block(self, alpha: int, x: int) -> BlockHandle:
        return self.blocks[(x - 1) * (self.m - 2) + alpha - 1]

    def answer_vertex(self, a: int, x: int) -> str:
        """The vertex v̂(a, x) that carries answer a at question x."""
        alpha, cell = vhat_cell(a, self.m)
        return self.block(alpha, x).cells[cell]


def reference_name_views(graph) -> NameViews:
    """The graph's edges, handles and direct edges named from its id tables,
    by the eager code ``build_graph`` ran before the graph kept ids only."""
    n, m = graph.game.n, graph.game.m
    name = list(graph.vertices).__getitem__
    tuples, rest_tuples = ([graph.game.losing_sorted[i] for i in at.tolist()] for at in (graph.ortho_at, graph.rest_at))
    n_e = sum(1 for a, b, _, _ in tuples if {a, b} <= {1, m})
    xa = ((x, alpha) for x in range(1, n + 1) for alpha in range(1, m - 1))
    edge_lo, edge_hi = graph.edge_ids[:, 0], graph.edge_ids[:, 1]
    return NameViews(
        m=m,
        edges=tuple(zip(map(name, edge_lo.tolist()), map(name, edge_hi.tolist()))),
        blocks=tuple(
            BlockHandle(alpha, x, dict(zip(CELLS, map(name, row[:9]))), name(row[11]), name(row[12]))
            for (x, alpha), row in zip(xa, graph.block_rows.tolist())
        ),
        orthos=tuple(
            OrthoHandle(tup, "e" if k < n_e else "f", dict(zip(CELLS, map(name, row[:9]))))
            for k, (tup, row) in enumerate(zip(tuples, graph.ortho_rows.tolist()))
        ),
        rest_edges=tuple(
            (tup, (name(u), name(v))) for tup, (u, v) in zip(rest_tuples, graph.rest_rows.tolist())
        ),
    )


def reference_coloring_game(edges, n_vertices: int) -> SyncGame:
    """The 3-coloring game of an edge list, with its own edge checks, as
    ``coloring_game`` built it before it took a ``SimpleGraph``."""
    losing = set()
    for x in range(1, n_vertices + 1):
        for a in range(1, 4):
            for b in range(1, 4):
                if a != b:
                    losing.add((a, b, x, x))
    seen = set()
    for u, v in edges:
        if not (1 <= u <= n_vertices and 1 <= v <= n_vertices):
            raise ValidationError(f"edge ({u},{v}) outside vertex range 1..{n_vertices}")
        if u == v:
            raise ValidationError(f"edge ({u},{v}) is a self-loop")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValidationError(f"duplicate edge ({u},{v})")
        seen.add(key)
        for c in range(1, 4):
            losing.add((c, c, u, v))
            losing.add((c, c, v, u))
    return SyncGame(n=n_vertices, m=3, losing=frozenset(losing))


def reference_game_check(n, m, losing):
    """The losing set and (n, n, m, m) losing mask of a game, or the
    ValidationError its check raises, by the per-tuple loop that SyncGame
    ran before it checked the tuples as one array.  The order: the counts,
    each tuple's type, answers and questions in the order received, the
    file loader's duplicate check, then synchrony in (x, a, b) order."""

    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    if not is_int(n) or n < 1:
        raise ValidationError(f"question count must be a positive integer, got {n!r}")
    if not is_int(m) or m < 3:
        raise ValidationError(f"answer count must be an integer >= 3, got {m!r}")
    tuples = []
    for raw in losing:
        t = tuple(raw)
        if len(t) != 4 or not all(map(is_int, t)):
            raise ValidationError(f"losing tuple {raw!r} is not a 4-tuple of integers")
        a, b, x, y = t
        if not (1 <= a <= m and 1 <= b <= m):
            raise ValidationError(f"losing tuple {t}: answers out of range 1..{m}")
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValidationError(f"losing tuple {t}: questions out of range 1..{n}")
        tuples.append(t)
    unique = frozenset(tuples)
    if len(unique) != len(tuples):
        dupes = sorted(t for t, count in Counter(tuples).items() if count > 1)
        raise ValidationError(f"duplicate losing tuples {dupes}")
    for x in range(1, n + 1):
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if a != b and (a, b, x, x) not in unique:
                    raise ValidationError(
                        f"synchrony violation: ({a},{b},{x},{x}) must be a losing tuple"
                    )
    mask = np.zeros((n, n, m, m), dtype=bool)
    for a, b, x, y in unique:
        mask[x - 1, y - 1, a - 1, b - 1] = True
    return unique, mask


def reference_losing_sorted(losing) -> tuple:
    """The losing tuples in sorted order, as ``SyncGame.losing_sorted`` gave
    them by sorting the frozenset on every read."""
    return tuple(sorted(losing))


class ReferencePartition(NamedTuple):
    """A game's losing tuples split by answer range: ``e_set`` holds those
    whose answers both sit on the endpoints {1, m}, ``f_set`` those with both
    answers strictly inside, and ``rest`` every other, in particular every
    tuple mixing an endpoint answer with an interior one."""

    e_set: tuple
    f_set: tuple
    rest: tuple


def reference_partition_losing(m, losing) -> ReferencePartition:
    """The split of a game's losing tuples by answer range, by the loop over
    Python tuples that ``games.partition_losing`` ran before the compiler
    read the masks of ``games._answer_classes`` alone."""
    endpoints = {1, m}
    e_set, f_set, rest = [], [], []
    for t in reference_losing_sorted(losing):
        a, b = t[0], t[1]
        if a in endpoints and b in endpoints:
            e_set.append(t)
        elif 2 <= a <= m - 1 and 2 <= b <= m - 1:
            f_set.append(t)
        else:
            rest.append(t)
    return ReferencePartition(tuple(e_set), tuple(f_set), tuple(rest))


def reference_uniform_edges(edges) -> PriorDistribution:
    """The uniform prior on the ordered copies of an edge list, with its own
    edge checks, as ``PriorDistribution.uniform_edges`` built it before it
    took a ``SimpleGraph``."""
    seen = set()
    for e in edges:
        u, v = e
        if u == v:
            raise ValidationError(f"edge ({u},{v}) is a self-loop")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValidationError(f"duplicate edge ({u},{v})")
        seen.add(key)
    if not seen:
        raise ValidationError("edge prior needs at least one edge")
    w = 1.0 / (2 * len(seen))
    pairs = []
    for u, v in sorted(seen):
        pairs.append(((u, v), w))
        pairs.append(((v, u), w))
    return PriorDistribution(EDGE_PRIOR, tuple(sorted(pairs)))


def first_differing_line(got: str, want: str) -> str:
    """'number: got != want' for the first line where two texts differ."""
    pairs = zip(got.splitlines(), want.splitlines())
    for number, (g, w) in enumerate(pairs, 1):
        if g != w:
            return f"{number}: {g!r} != {w!r}"
    return "past the end of the shorter text"


def t_name(i: int, alpha: int, x: int) -> str:
    """The paper's prism top t(i) over block (alpha, x); t(2) is the control
    vertex A, so the builder names only t(1) and t(3)."""
    return f"t({i},{alpha},{x})"


def s_name(j: int, alpha: int, x: int) -> str:
    """The paper's prism rung s(j) over block (alpha, x): the row-1 cell v(1,j)."""
    return f"s({j},{alpha},{x})"


def vhat_cell(a: int, m: int) -> tuple:
    """The block alpha and the cell of the paper's answer cell v̂(a, x):
    answer 1 at the first block's top-left corner, answer m at the last
    block's center, and each interior answer a at the center-left cell of
    block a-1."""
    if a == 1:
        return 1, (1, 1)
    if a == m:
        return m - 2, (2, 2)
    return a - 1, (2, 1)


def vhat(a: int, x: int, m: int) -> str:
    """The name of v̂(a, x) as the cell of its block."""
    alpha, cell = vhat_cell(a, m)
    return v_name(*cell, alpha, x)


def handle_names(graph) -> dict:
    """Every name the construction declares, glued cells, s(j) and t(2)
    included, mapped to the vertex its gadget handle holds."""
    names, views = {letter: letter for letter in DELTA}, reference_name_views(graph)
    for b in views.blocks:
        for (i, j), vertex in b.cells.items():
            names[v_name(i, j, b.alpha, b.x)] = vertex
        for j in (1, 2, 3):
            names[s_name(j, b.alpha, b.x)] = b.cells[(1, j)]
        for i, vertex in zip((1, 2, 3), b.t_triangle()):
            names[t_name(i, b.alpha, b.x)] = vertex
    for o in views.orthos:
        for (i, j), vertex in o.cells.items():
            names[q_name(i, j, o.tup)] = vertex
    return names


def rook_adjacent(c1, c2) -> bool:
    """Same row or same column, but not both (that would be the same cell)."""
    return (c1[0] == c2[0]) != (c1[1] == c2[1])


def rook_cell_pairs():
    cells = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    return [
        (c1, c2)
        for idx, c1 in enumerate(cells)
        for c2 in cells[idx + 1 :]
        if rook_adjacent(c1, c2)
    ]


def classify_losing(game):
    """Split losing tuples by where the answers sit: both at an end of
    {1..m}, both strictly inside, or mixed."""
    ends = {1, game.m}
    e_set, f_set, rest = [], [], []
    for t in sorted(game.losing):
        a, b = t[0], t[1]
        if a in ends and b in ends:
            e_set.append(t)
        elif a not in ends and b not in ends:
            f_set.append(t)
        else:
            rest.append(t)
    return e_set, f_set, rest


def rewrite_rules(game):
    """Gluing identifications as directed rewrites.

    The chain rule sends v(3,2,alpha,x) forward into the next block's
    (1,1) corner; the builder instead picks the smallest declaration key
    of the merged cluster, so the canonical names differ on purpose.
    """
    n, m = game.n, game.m
    rules = {}
    for x in range(1, n + 1):
        for alpha in range(1, m - 1):
            for j in (1, 2, 3):
                rules[s_name(j, alpha, x)] = v_name(1, j, alpha, x)
            rules[t_name(2, alpha, x)] = "A"
            rules[v_name(1, 2, alpha, x)] = "B"
        for alpha in range(1, m - 2):
            rules[v_name(3, 2, alpha, x)] = v_name(1, 1, alpha + 1, x)
    e_set, f_set, _ = classify_losing(game)
    for kind, tuples in (("e", e_set), ("f", f_set)):
        for tup in tuples:
            a, b, x, y = tup
            rules[q_name(1, 1, tup)] = vhat(a, x, m)
            rules[q_name(2, 2, tup)] = vhat(b, y, m)
            rules[q_name(1, 2, tup)] = "B" if kind == "e" else "C"
    return rules


def canonicalize(rules, name):
    hops = 0
    while name in rules:
        name = rules[name]
        hops += 1
        assert hops < 10, f"rewrite chain runaway at {name!r}"
    return name


def enumerate_edges(game):
    """Full slot census: (formula, edge set, duplicates by source, vertex set).

    Edges are frozensets of this module's canonical names.  The three
    control-triangle edges are seeded first, exactly like the builder, so
    a gadget slot landing on one of them counts as a duplicate; a slot
    whose edge an earlier slot made counts against its own source.
    """
    n, m = game.n, game.m
    e_set, f_set, rest = classify_losing(game)
    rules = rewrite_rules(game)

    slots = []
    for x in range(1, n + 1):
        for alpha in range(1, m - 1):
            block = []
            for c1, c2 in rook_cell_pairs():
                block.append((v_name(*c1, alpha, x), v_name(*c2, alpha, x)))
            block.append(("C", v_name(2, 1, alpha, x)))
            block.append(("A", v_name(3, 3, alpha, x)))
            block.append((t_name(1, alpha, x), t_name(2, alpha, x)))
            block.append((t_name(2, alpha, x), t_name(3, alpha, x)))
            block.append((t_name(1, alpha, x), t_name(3, alpha, x)))
            block.append((s_name(1, alpha, x), t_name(1, alpha, x)))
            block.append((s_name(3, alpha, x), t_name(3, alpha, x)))
            slots += [("gadget_block", u, v) for u, v in block]
    for tup in e_set + f_set:
        for c1, c2 in rook_cell_pairs():
            slots.append(("orthogonality_gadget", q_name(*c1, tup), q_name(*c2, tup)))
        slots.append(("orthogonality_gadget", "A", q_name(3, 3, tup)))
    for a, b, x, y in rest:
        slots.append(("direct_edge", vhat(a, x, m), vhat(b, y, m)))

    formula = 25 * n * (m - 2) + 19 * len(e_set) + 19 * len(f_set) + len(rest)
    assert len(slots) == formula, "slot census disagrees with the closed form"

    edges = {frozenset(p) for p in (("A", "B"), ("B", "C"), ("A", "C"))}
    duplicates = dict.fromkeys(("gadget_block", "orthogonality_gadget", "direct_edge"), 0)
    for source, u_raw, v_raw in slots:
        u, v = canonicalize(rules, u_raw), canonicalize(rules, v_raw)
        assert u != v, f"slot {u_raw}~{v_raw} collapsed to a self-loop"
        pair = frozenset((u, v))
        if pair in edges:
            duplicates[source] += 1
        else:
            edges.add(pair)

    vertices = set()
    for pair in edges:
        vertices |= pair
    return formula, edges, duplicates, vertices


def canonical_key(name):
    """The key that orders a vertex name in ``graph.vertices``: control
    letters, then block cells by (x, alpha, i, j), prism tops by (x, alpha,
    i) and orthogonality cells by (x, y, a, b, i, j)."""
    if name in DELTA:
        return (0, DELTA.index(name))
    kind, args = name[0], tuple(int(part) for part in name[2:-1].split(","))
    if kind == "v":
        i, j, alpha, x = args
        return (1, x, alpha, i, j)
    if kind == "t":
        i, alpha, x = args
        return (2, x, alpha, i)
    assert kind == "q", name
    i, j, a, b, x, y = args
    return (3, x, y, a, b, i, j)


def reference_order(game):
    """(vertices, edges) of the census as the builder names and orders them.

    A vertex is named by the member of its class (the names whose rewrite
    chains meet) with the smallest canonical key, prism rungs s(j) aside;
    vertices are sorted by key, each edge's ends by key, and edges by the
    keys of their ends.
    """
    _, edges, _, vertices = enumerate_edges(game)
    rules = rewrite_rules(game)
    members = {vertex: [vertex] for vertex in vertices}
    for name in rules:
        members[canonicalize(rules, name)].append(name)
    named = {
        end: min((name for name in names if not name.startswith("s(")), key=canonical_key)
        for end, names in members.items()
    }
    ordered = [tuple(sorted((named[u] for u in pair), key=canonical_key)) for pair in edges]
    return (
        tuple(sorted(named.values(), key=canonical_key)),
        tuple(sorted(ordered, key=lambda edge: (canonical_key(edge[0]), canonical_key(edge[1])))),
    )


def reference_dot(graph) -> str:
    """The DOT text spelled out line by line: one cluster per gadget,
    clusters ordered by the keys of their vertices, each listing its
    vertices in vertex order, then every edge."""
    clusters = {}
    for name in graph.vertices:
        key = canonical_key(name)
        if key[0] == 0:
            cluster = ((0,), "delta", "control triangle")
        elif key[0] in (1, 2):
            x, alpha = key[1], key[2]
            cluster = ((1, x, alpha), f"block_x{x}_a{alpha}", f"block alpha={alpha} x={x}")
        else:
            x, y, a, b = key[1:5]
            cluster = ((2, x, y, a, b), f"ortho_a{a}_b{b}_x{x}_y{y}", f"orthogonality ({a},{b},{x},{y})")
        clusters.setdefault(cluster, []).append(name)
    lines = ["graph gadget_graph {"]
    for (_, cid, label), names in sorted(clusters.items()):
        lines.append(f'  subgraph "cluster_{cid}" {{')
        lines.append(f'    label="{label}";')
        lines.extend(f'    "{name}";' for name in names)
        lines.append("  }")
    lines.extend(f'  "{u}" -- "{v}";' for u, v in graph.edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


def assert_edge_accounting(game, graph):
    """Check the builder's census against this module's independent one,
    down to a name-level bijection of the realized edge sets."""
    formula, edges, duplicates, vertices = enumerate_edges(game)
    report = graph.report
    assert formula == report.formula
    assert sum(duplicates.values()) == report.duplicate_slots
    assert duplicates == report.duplicates_by_source
    assert report.delta_correction == 3
    assert len(edges) == formula + 3 - sum(duplicates.values())
    assert len(edges) == graph.n_edges
    assert len(vertices) == graph.n_vertices
    names = handle_names(graph)
    mapped = {frozenset(names[name] for name in pair) for pair in edges}
    assert all(len(pair) == 2 for pair in mapped), "the handles collapsed an edge"
    assert mapped == {frozenset(p) for p in graph.edges}


def edge_loss_probability(p_u, p_v) -> float:
    """Same-color probability sum_c tr(P_{c,u} P_{c,v})/d across one edge,
    each overlap in O(d^2) without forming the product."""
    return fsum(map(trace_product, p_u, p_v))


def reference_coloring_value(graph, cs) -> tuple:
    """The coloring value and the per-edge same-color probabilities, edge by
    edge through ``edge_loss_probability``."""
    _vertex_rows(graph, cs)  # the coverage check
    weight, pvms = 1.0 / graph.n_edges, by_key(cs)
    probabilities = [edge_loss_probability(pvms[u], pvms[v]) for u, v in graph.edges]
    value = 1.0 - fsum(weight * p for p in probabilities)
    return value, probabilities


def reference_gadget_losses(graph, strategy, cs) -> list:
    """(loss, probability) of every orthogonality gadget, gadget by gadget."""
    out, pvms, questions = [], by_key(cs), by_key(strategy)
    for ortho in reference_name_views(graph).orthos:
        a, b, x, y = ortho.tup
        edges = [(ortho.cells[c1], ortho.cells[c2]) for c1, c2 in ROOK_PAIRS]
        edges.append(("A", ortho.cells[(3, 3)]))
        loss = fsum(edge_loss_probability(pvms[u], pvms[v]) for u, v in edges)
        out.append((loss, trace_product(questions[x][a - 1], questions[y][b - 1])))
    return out


def reference_edge_products(graph, cs) -> dict:
    """Color-1 product norm per edge of symmetrize's output."""
    pvms = by_key(cs)
    return {(u, v): two_norm(pvms[u][0] @ pvms[v][0]) for u, v in graph.edges}


def reference_eta(graph, cs) -> dict:
    """The color-1 sum defect eta of every named triangle."""
    one, pvms = identity(cs.d // 6), by_key(cs)
    return {
        label: two_norm(one - (pvms[u][0] + pvms[v][0] + pvms[w][0]))
        for label, (u, v, w) in named_triangles(graph)
    }


def named_triangles(graph):
    """(label, three names) of each triangle, in ``compute_diagnostics`` order."""
    yield ("delta",), DELTA
    views = reference_name_views(graph)
    for b in views.blocks:
        for i in (1, 2, 3):
            yield ("row", i, b.alpha, b.x), b.row(i)
        for j in (1, 2, 3):
            yield ("col", j, b.alpha, b.x), b.col(j)
        yield ("top", b.alpha, b.x), b.t_triangle()
    for o in views.orthos:
        for i in (1, 2, 3):
            yield ("qrow", i) + o.tup, o.row(i)
        for j in (1, 2, 3):
            yield ("qcol", j) + o.tup, o.col(j)


def named_prisms(graph):
    """(label, three rungs as name pairs) of each block's four prisms."""
    for b in reference_name_views(graph).blocks:
        yield ("top", b.alpha, b.x), tuple(zip(b.row(1), b.t_triangle()))
        for i, j in ((1, 2), (1, 3), (2, 3)):
            yield ("rows", i, j, b.alpha, b.x), tuple(zip(b.row(i), b.row(j)))


def reference_diagnostics(graph, cs) -> SimpleNamespace:
    """zeta, eta, xi and theta of a symmetrized strategy as label- and
    name-keyed dicts, each triangle's eta certified against 3 sqrt(zeta)."""
    theta = reference_edge_products(graph, cs)

    def at(u, v):
        return theta[(u, v)] if (u, v) in theta else theta[(v, u)]

    eta, zeta = reference_eta(graph, cs), {}
    for label, (u, v, w) in named_triangles(graph):
        zeta[label] = 2.0 * (at(u, v) + at(u, w) + at(v, w))
        InequalityReport(f"triangle sum defect at {label!r}", eta[label], 3.0 * math.sqrt(zeta[label])).require()
    xi = {label: fsum(at(u, v) for u, v in rungs) for label, rungs in named_prisms(graph)}
    return SimpleNamespace(zeta=zeta, eta=eta, xi=xi, theta=theta)


def reference_commutator_norms(graph, sym, cc, n: int, m: int) -> list:
    """max over the permutations of ||[P_{i,vhat(a,x)}, S_{i,j,k}]||_2, per
    question x and then answer a."""
    out, views, pvms, sandwiches = [], reference_name_views(graph), by_key(sym), by_key(cc)
    for x in range(1, n + 1):
        for a in range(1, m + 1):
            target = pvms[views.answer_vertex(a, x)]
            out.append(max(
                two_norm(commutator(target[perm[0] - 1], sandwiches[perm]))
                for perm in PERM3
            ))
    return out


def reference_question_sandwiches(graph, cs, cc, x: int, m: int) -> list:
    """The 6m operators S P_{i,vhat(a,x)} S, ordered by (answer, permutation)."""
    ops, views, pvms, sandwiches = [], reference_name_views(graph), by_key(cs), by_key(cc)
    for a in range(1, m + 1):
        block = pvms[views.answer_vertex(a, x)]
        for perm in PERM3:
            s = sandwiches[perm]
            ops.append(s @ block[perm[0] - 1] @ s)
    return ops


def reference_family_norms(ops) -> tuple:
    """The sum defect, projection defect and cross products of one
    question's sandwich family."""
    one = identity(ops[0].shape[-1])
    total = sum(ops)
    return (
        two_norm(one - total),
        math.fsum(two_norm(op @ op - op) for op in ops),
        math.fsum(
            two_norm(ops[p] @ ops[q])
            for p in range(len(ops))
            for q in range(len(ops))
            if p != q
        ),
    )


def reference_rounding_reports(inputs, outs) -> list:
    """(context, lhs, rhs) of each report ``perturb_pvm_with_reports`` gives
    for rounding ``inputs`` into ``outs``."""
    count = len(inputs)
    one = np.broadcast_to(identity(inputs[0].shape[-1]), inputs[0].shape).copy()
    distances = [two_norm(b - a) for a, b in zip(inputs, outs)]
    sum_defect = two_norm(one - sum(inputs))
    reports = []
    for idx in range(count):
        i = idx + 1
        own = two_norm(inputs[idx] @ inputs[idx] - inputs[idx])
        history = sum(distances[j] + two_norm(inputs[idx] @ inputs[j]) for j in range(idx))
        if i == count:
            rhs = 38.0 * history + 4.0 * ROOT2 * own + sum_defect
        elif i == 1:
            rhs = 2.0 * ROOT2 * own
        else:
            rhs = 19.0 * history + 2.0 * ROOT2 * own
        reports.append((f"rounded outcome {i} of {count}", distances[idx], rhs))
    return reports


def reference_spectral_halves(batch) -> np.ndarray:
    """``spectral_projection_half`` of each item of a (G, *op) batch of
    Hermitian operators, each block's projection rebuilt on its own from the
    eigenvectors whose clamped eigenvalue is at least 1/2."""
    eigs, vecs = np.linalg.eigh(batch)
    keep = np.clip(eigs, 0.0, 1.0) >= 0.5
    d = batch.shape[-1]
    blocks = zip(vecs.reshape(-1, d, d), keep.reshape(-1, d))
    b = np.array([v[:, k] @ v[:, k].conj().T for v, k in blocks], dtype=np.complex128).reshape(batch.shape)
    return (b + b.conj().swapaxes(-1, -2)) / 2.0


def reference_rounding_steps(inputs) -> list:
    """The outcomes ``perturb_pvm`` rounds a (count, *op) array of positive
    contractions to, before its reports and its PVM check: each step rounded
    and checked by ``spectral_projection_half`` before the next."""
    one = np.broadcast_to(identity(inputs.shape[-1]), inputs[0].shape).copy()
    outs, total = [], 0
    for k in range(len(inputs) - 1):
        comp = one - total
        outs.append(spectral_projection_half(comp @ inputs[k] @ comp if k else inputs[0]))
        total = total + outs[-1]
    return outs + [one - total]


def reference_cross_norms(ops) -> np.ndarray:
    """[p, q]: ||ops[p] @ ops[q]||_2 of a (6m, 6, d, d) sandwich family, one
    operator against the whole family at a time."""
    return np.stack([_two_norms(op @ ops) for op in ops])


def reference_perturb_two(pa, pb) -> np.ndarray:
    """The projection ``perturb_two`` rounds b to, as one pair's own eigh
    gave it: the bounds are left to ``perturb_two``."""
    comp = identity(pa.shape[0]) - pa
    eigs, vecs = np.linalg.eigh(comp @ pb @ comp)
    keep = np.clip(eigs, 0.0, 1.0) >= 0.5
    out = vecs[:, keep] @ vecs[:, keep].conj().T
    return (out + out.conj().T) / 2.0


def reference_interval_sum(strategy, s: int, t: int, x: int) -> np.ndarray:
    """The partial sum of the question-x PVM over outcomes s..t, added from
    zero in outcome order; zero if s > t."""
    return sum(by_key(strategy)[x][s - 1:t], zero(strategy.d))


def reference_forward_translate(game, graph, strategy) -> tuple:
    """(names, stack): the sorted vertex names and the (V, 3, d, d) coloring
    of the vertex-by-vertex translation, gluings checked as it went."""
    d, m = strategy.d, strategy.outcomes
    one, z = identity(d), zero(d)
    pvms = by_key(strategy)
    input_defect = max(reference_pvm_defect(pvms[x]) for x in range(1, game.n + 1))
    cross_tol = max(1e-12, 4.0 * np.sqrt(d) * input_defect)
    names = sorted(graph.vertices)
    row = {name: i for i, name in enumerate(names)}
    stack = np.empty((len(names), 3, d, d), dtype=np.complex128)
    assigned = np.zeros(len(names), dtype=bool)

    def put(name, colors, gadget, cell, exact):
        i = row[name]
        if not assigned[i]:
            stack[i] = colors
            assigned[i] = True
            return
        for c, (old, new) in enumerate(zip(stack[i], colors)):
            ok = np.array_equal(old, new) if exact else float(np.max(np.abs(old - new))) <= cross_tol
            if not ok:
                raise ValidationError(
                    f"gluing inconsistency at {name} ({gadget}, cell {cell}, color {c + 1}): "
                    "two gadgets assign different operators"
                )

    def cells(*mats):
        return {(i, j): tuple(h[i - 1][j - 1] for h in mats) for i in (1, 2, 3) for j in (1, 2, 3)}

    for letter, colors in zip(DELTA, ((one, z, z), (z, one, z), (z, z, one))):
        put(letter, colors, "control triangle", letter, exact=True)
    views = reference_name_views(graph)
    for block in views.blocks:
        alpha, x = block.alpha, block.x
        low, low1 = (reference_interval_sum(strategy, 1, t, x) for t in (alpha, alpha + 1))
        high, high1 = (reference_interval_sum(strategy, s, m, x) for s in (alpha + 1, alpha + 2))
        mid = pvms[x][alpha]
        colors = cells(
            ((low, z, high), (mid, high1, low), (high1, low1, z)),
            ((z, one, z), (one - mid, z, mid), (mid, z, one - mid)),
            ((high, z, low), (z, low1, high1), (low, high1, mid)),
        )
        gadget = f"block alpha={alpha} x={x}"
        for cell, name in block.cells.items():
            put(name, colors[cell], gadget, cell, exact=True)
        put(block.t1, (z, high, low), gadget, "t1", exact=True)
        put(block.t3, (z, low, high), gadget, "t3", exact=True)
    for ortho in views.orthos:
        a, b, x, y = ortho.tup
        e_a, e_b = pvms[x][a - 1], pvms[y][b - 1]
        g = reference_perturb_two(e_a, e_b)
        rest = one - e_a - g
        j1 = ((e_a, z, one - e_a), (rest, e_b, e_a), (g, one - e_b, z))
        j2 = ((z, one, z), (e_a + g, z, rest), (rest, z, e_a + g))
        j3 = ((one - e_a, z, e_a), (z, one - e_b, g), (e_a, e_b, rest))
        colors = cells(j1, j2, j3) if ortho.kind == "e" else cells(j1, j3, j2)
        gadget = "orthogonality ({},{},{},{})".format(*ortho.tup)
        for cell, name in ortho.cells.items():
            put(name, colors[cell], gadget, cell, exact=False)
    assert assigned.all()
    return tuple(names), stack


def _gadgets(mask: np.ndarray):
    """The gadgets of a mask: a slice when it takes them all, else their indices."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


def reference_scattered_coloring(game, graph: GadgetGraph, strategy) -> tuple:
    """(names, stack): the coloring of the slot-by-slot scatter, gluings
    checked, its output not checked."""
    _require_compiled_from(graph, game)
    _require_strategy_fits(game, strategy)
    n, m, d = game.n, game.m, strategy.d
    pvms = strategy.stack[:n]  # question x at row x - 1
    input_defect = max(reference_pvm_defect(mats) for mats in pvms)
    one, z = identity(d), zero(d)
    cross_tol = max(1e-12, 4.0 * np.sqrt(d) * input_defect)

    names = sorted(graph.vertices)
    rank, vertices = graph.rank, graph.vertices
    stack = np.empty((len(names), 3, d, d), dtype=np.complex128)

    control = np.array([_A, _B, _C])
    blocks = graph.block_rows[:, _BLOCK_PUT_COLUMNS]
    orthos = graph.ortho_rows[:, :9]
    ids = np.concatenate([control, blocks.ravel(), orthos.ravel()])
    declares = np.zeros(len(ids), dtype=bool)
    declares[np.unique(ids, return_index=True)[1]] = True
    block_declares = declares[3:3 + blocks.size].reshape(blocks.shape)
    ortho_declares = declares[3 + blocks.size:].reshape(orthos.shape)

    def place(slots, declared, template, operands, tol, gadget) -> None:
        for j, colors in enumerate(template):
            if not declared[:, j].any():
                continue
            rows = _gadgets(declared[:, j])
            for c, op in enumerate(colors):
                stack[rank[slots[rows, j]], c] = operands[op][rows]
        failed = np.zeros(slots.shape + (3,), dtype=bool)
        for j, colors in enumerate(template):
            if declared[:, j].all():
                continue
            rows = _gadgets(~declared[:, j])
            for c, op in enumerate(colors):
                held, new = stack[rank[slots[rows, j]], c], operands[op][rows]
                if tol is None:
                    failed[rows, j, c] = ~(held == new).all(axis=(-2, -1))
                else:
                    failed[rows, j, c] = ~(np.abs(held - new).max(axis=(-2, -1)) <= tol)
        if failed.any():
            k, j, c = np.unravel_index(np.argmax(failed), failed.shape)
            raise ValidationError(
                f"gluing inconsistency at {vertices[slots[k, j]]} ({gadget(k)}, cell {_SLOT_LABELS[j]}, "
                f"color {c + 1}): two gadgets assign different operators"
            )

    stack[rank[control]] = 0.0
    stack[rank[control], [0, 1, 2]] = one

    low = np.zeros((n, m + 1, d, d), dtype=np.complex128)
    high = np.zeros((n, m + 1, d, d), dtype=np.complex128)
    for t in range(m):
        low[:, t + 1] = low[:, t] + pvms[:, t]
        high[:, :t + 1] += pvms[:, t, None]
    question, alpha = np.divmod(np.arange(len(blocks)), m - 2)
    at, after = (question, alpha + 1), (question, alpha + 2)
    mid = pvms[at]
    zs, ones = np.broadcast_to(z, mid.shape), np.broadcast_to(one, mid.shape)
    place(
        blocks, block_declares, _BLOCK_TEMPLATE,
        (zs, ones, low[at], low[after], high[at], high[after], mid, one - mid), None,
        lambda k: f"block alpha={alpha[k] + 1} x={question[k] + 1}",
    )

    tuples = game.losing_table[graph.ortho_at]
    a, b, x, y = tuples.T - 1
    e_a, e_b = pvms[x, a], pvms[y, b]
    try:
        g = _perturb_checked_two(e_a, e_b)
    except ValidationError as exc:
        raise BoundViolation(str(exc)) from exc
    not_a = one - e_a
    zs, ones = np.broadcast_to(z, g.shape), np.broadcast_to(one, g.shape)
    operands = (zs, ones, e_a, e_b, g, not_a, one - e_b, not_a - g, e_a + g)
    n_e = int(np.count_nonzero(orthos[:, _CELL[(1, 2)]] == _B))
    for start, stop, kind in ((0, n_e, "e"), (n_e, len(orthos), "f")):
        part = slice(start, stop)
        place(
            orthos[part], ortho_declares[part], _ORTHO_TEMPLATES[kind], [op[part] for op in operands], cross_tol,
            lambda k: "orthogonality ({},{},{},{})".format(*tuples[start + k]),
        )
    assigned = np.zeros(len(vertices), dtype=bool)
    assigned[ids] = True
    assert assigned.all()
    return tuple(names), stack


def reference_common_dim(mats) -> int:
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ValidationError(f"mixed dimensions: shapes {shape} and {m.shape}")
    return shape[-1]


def reference_check_three_sum_zero(a1, a2, a3) -> InequalityReport:
    mats = [
        require_hermitian(m, what=f"summand {i + 1}")
        for i, m in enumerate((a1, a2, a3))
    ]
    reference_common_dim(mats)
    defect = two_norm(mats[0] + mats[1] + mats[2])
    if defect > 1e-10:
        raise ValidationError(f"summands must add to zero; ||sum||_2 = {defect:.3e}")
    lhs = max(two_norm(m) for m in mats)
    rhs = math.sqrt(3.0) * math.sqrt(sum(two_norm(m @ m - m) for m in mats))
    return InequalityReport("zero-sum triple norm bound", lhs, rhs)


def reference_check_commutator_transfer(a_triple, b_triple) -> InequalityReport:
    a = [require_projection(m, what=f"first triple entry {i + 1}") for i, m in enumerate(a_triple)]
    b = [require_projection(m, what=f"second triple entry {i + 1}") for i, m in enumerate(b_triple)]
    if len(a) != 3 or len(b) != 3:
        raise ValidationError("both triples must have exactly three projections")
    d = reference_common_dim(a + b)
    one = identity(d)
    rhs = 2.0 * (
        two_norm(one - (a[0] + a[1] + a[2]))
        + two_norm(one - (b[0] + b[1] + b[2]))
        + sum(two_norm(commutator(a[i], b[i])) for i in range(3))
    )
    lhs, where = -1.0, None
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            val = two_norm(commutator(a[i], b[j]))
            if val > lhs:
                lhs, where = val, (i + 1, j + 1)
    return InequalityReport(f"cross commutator at (i={where[0]}, j={where[1]})", lhs, rhs)


def reference_check_quantum_permutation(rows) -> InequalityReport:
    if len(rows) != 3:
        raise ValidationError("need exactly three PVMs")
    pvms = [require_pvm(row, what=f"PVM {x + 1}") for x, row in enumerate(rows)]
    for p in pvms:
        if len(p) != 3:
            raise ValidationError("each PVM must have exactly three outcomes")
    d = reference_common_dim([m for p in pvms for m in p])
    one = identity(d)
    cross = 0.0
    for b in range(3):
        for x in range(3):
            for y in range(3):
                if x != y:
                    cross += two_norm(pvms[x][b] @ pvms[y][b])
    rhs = math.sqrt(3.0) * math.sqrt(cross)
    lhs, worst = -1.0, None
    for a in range(3):
        val = two_norm(sum(pvms[x][a] for x in range(3)) - one)
        if val > lhs:
            lhs, worst = val, a + 1
    return InequalityReport(f"quantum permutation column {worst}", lhs, rhs)


def reference_prism_grid(grid, what: str):
    if len(grid) != 3 or any(len(row) != 3 for row in grid):
        raise ValidationError(f"{what} must be a 3x3 array of projections")
    out = [
        [require_projection(grid[i][j], what=f"{what}[{i + 1}][{j + 1}]") for j in range(3)]
        for i in range(3)
    ]
    d = reference_common_dim([m for row in out for m in row])
    one = identity(d)
    for j in range(3):
        defect = two_norm(sum(out[i][j] for i in range(3)) - one)
        if defect > 1e-9:
            raise ValidationError(f"{what} column {j + 1} sums to 1 with defect {defect:.3e}")
    return out, one


def reference_check_prism(p_grid, q_grid) -> InequalityReport:
    p, one = reference_prism_grid(p_grid, "first grid")
    q, _ = reference_prism_grid(q_grid, "second grid")
    if p[0][0].shape != q[0][0].shape:
        raise ValidationError("grids have mixed dimensions")

    row_defect_p = [two_norm(one - sum(p[i][x] for x in range(3))) for i in range(3)]
    row_defect_q = [two_norm(one - sum(q[i][x] for x in range(3))) for i in range(3)]
    row_cross = [sum(two_norm(p[i][x] @ q[i][x]) for x in range(3)) for i in range(3)]
    col_cross = [sum(two_norm(p[a][j] @ q[a][j]) for a in range(3)) for j in range(3)]
    full_rhs = 4.0 * sum(
        row_defect_p[a] + row_defect_q[a] + 2.0 * row_cross[a] for a in range(3)
    )

    worst = None
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for ell in range(3):
                    if i == k and j == ell:
                        continue
                    lhs = two_norm(commutator(p[i][j], q[k][ell]))
                    if i == k:
                        rhs = 2.0 * (row_defect_p[i] + row_defect_q[i] + 2.0 * row_cross[i])
                        case = "same row"
                    elif j == ell:
                        rhs = 4.0 * col_cross[j]
                        case = "same column"
                    else:
                        rhs = full_rhs
                        case = "disjoint indices"
                    report = InequalityReport(
                        f"prism {case} at (i={i + 1},j={j + 1},k={k + 1},l={ell + 1})", lhs, rhs
                    )
                    if worst is None or report.slack < worst.slack:
                        worst = report
    return worst


def reference_check_cutdown_sum(pa, pb, pc) -> InequalityReport:
    pvm_a = require_pvm(pa, what="first PVM")
    pvm_b = require_pvm(pb, what="second PVM")
    pvm_c = require_pvm(pc, what="third PVM")
    if not len(pvm_a) == len(pvm_b) == len(pvm_c) == 3:
        raise ValidationError("all three PVMs must have exactly three outcomes")
    d = reference_common_dim(list(pvm_a + pvm_b + pvm_c))
    total = np.zeros((d, d), dtype=np.complex128)
    for i, j, k in PERM3:
        left = pvm_a[i - 1] @ pvm_b[j - 1]
        total += left @ pvm_c[k - 1] @ left.conj().T
    lhs = two_norm(identity(d) - total)
    rhs = 159.0 * sum(
        two_norm(pvm_a[i] @ pvm_b[i])
        + two_norm(pvm_a[i] @ pvm_c[i])
        + two_norm(pvm_b[i] @ pvm_c[i])
        for i in range(3)
    )
    return InequalityReport("sandwich-product sum", lhs, rhs)
