"""Synchronous games over finite question/answer sets.

A game is given by its losing tuples: answering (a, b) on the question pair
(x, y) loses exactly when (a, b, x, y) is listed.  Synchrony — mismatched
answers to a repeated question always lose — is *validated*, never inserted
silently, so a game file is its own complete record.  All indices are
1-based, in files and in memory.

The module also houses the simple-graph type, the one check of an edge
list, which the 3-coloring game and the edge prior take; the two priors
used everywhere (uniform on question pairs, uniform on the ordered edges of
a graph); finite-dimensional projective strategies with their file format
(one writer, one loader per kind); and the synchronous value of a game
against a strategy and prior.

A strategy is its sorted ``keys`` and one read-only (K, k, d, d) ``stack``
of their PVMs, row i the PVM at ``keys[i]``, built and checked as one array.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Callable, Iterable, Mapping
from dataclasses import InitVar, dataclass, field
from functools import cached_property, wraps
from inspect import signature
from itertools import chain, permutations
from math import fsum, isfinite
from numbers import Real
from operator import is_
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, require_pvm, require_pvm_family

QUESTION_PRIOR = "uniform-on-questions"
EDGE_PRIOR = "uniform-on-edges"


def _is_int(value) -> bool:
    """An int that is not a bool: JSON ``true`` must not pass as the index 1."""
    return isinstance(value, int) and not isinstance(value, bool)


def _held(build: Callable) -> Callable:
    """``build``, holding what it returns on its last argument as one entry,
    under its name, for its other arguments, matched by identity: a repeat
    returns the same object and checks nothing again, a call with another
    object builds anew and replaces the entry, a build that raises holds
    nothing, and the entry goes with the object that holds it."""

    name = build.__name__

    @wraps(build)
    def held(*inputs, **named):
        if named:  # taken in the order of build's parameters, none of which has a default
            inputs = signature(build).bind(*inputs, **named).args
        owner = inputs[-1]
        entry = owner.__dict__.get(name)
        if entry is not None and all(map(is_, entry[0], inputs)):  # map stops at the owner
            return entry[1]
        value = build(*inputs)
        owner.__dict__[name] = (inputs[:-1], value)
        return value

    return held


@dataclass(frozen=True)
class SyncGame:
    """A synchronous game: n questions, m answers, explicit losing tuples,
    given as any iterable of 4-sequences.  They are stored as ``losing_table``,
    a read-only (N, 4) array in (a, b, x, y) order, as ``losing_sorted``, its
    rows as tuples, and as ``losing``, a frozenset of those same tuples."""

    n: int
    m: int
    losing: frozenset

    def __post_init__(self) -> None:
        """The one check of a game: the counts, each losing tuple's type,
        answers and questions, duplicates, then synchrony."""
        n, m = self.n, self.m
        if not _is_int(n) or n < 1:
            raise ValidationError(f"question count must be a positive integer, got {n!r}")
        if not _is_int(m) or m < 3:
            raise ValidationError(f"answer count must be an integer >= 3, got {m!r}")
        entries = list(self.losing)
        try:
            tuples = list(map(tuple, entries))
        except TypeError:  # an entry that is not iterable
            tuples = [tuple(raw) if isinstance(raw, Iterable) else () for raw in entries]
        kinds = set(map(type, chain.from_iterable(tuples)))
        first_bad = len(entries)
        if not (set(map(len, tuples)) <= {4} and kinds <= {int}):
            # Only the tuples before the first entry that is not four integers
            # are range-checked, so that the first bad tuple received is named.
            good = (len(t) == 4 and all(map(_is_int, t)) for t in tuples)
            first_bad = next((i for i, ok in enumerate(good) if not ok), first_bad)
            del tuples[first_bad:]
        try:
            arr = np.array(tuples, dtype=np.int64).reshape(-1, 4)
        except OverflowError:  # an entry beyond int64, which the check names
            arr = np.array(tuples, dtype=object).reshape(-1, 4)
        bad_answers = ((arr[:, :2] < 1) | (arr[:, :2] > m)).any(axis=1)
        bad_questions = ((arr[:, 2:] < 1) | (arr[:, 2:] > n)).any(axis=1)
        out_of_range = np.flatnonzero(bad_answers | bad_questions)
        if out_of_range.size:
            i = out_of_range[0]
            if bad_answers[i]:
                raise ValidationError(f"losing tuple {tuples[i]}: answers out of range 1..{m}")
            raise ValidationError(f"losing tuple {tuples[i]}: questions out of range 1..{n}")
        if first_bad < len(entries):
            raise ValidationError(f"losing tuple {entries[first_bad]!r} is not a 4-tuple of integers")
        table = arr[np.lexsort(arr.T[::-1])]
        repeated = (table[1:] == table[:-1]).all(axis=1)
        if repeated.any():
            dupes = sorted(set(map(tuple, table[1:][repeated].tolist())))
            raise ValidationError(f"duplicate losing tuples {dupes}")
        # Synchrony: the (a, b, x, x) rows with a != b, taken in (x, a, b)
        # order, match the closed form of the required ones up to the first
        # tuple missing, in O(N) for N tuples whatever n is.  A divisor capped
        # at k + 1 splits every i <= k as the true one does, in int64.
        a, b, x, y = table.T
        present = table[(x == y) & (a != b)][:, :3]
        present = present[np.lexsort(present.T[[1, 0, 2]])]
        k = len(present)
        xs, rem = np.divmod(np.arange(k + 1), min(m * (m - 1), k + 1))
        a, c = np.divmod(rem, min(m - 1, k + 1))
        required = np.stack([a + 1, c + (c >= a) + 1, xs + 1], axis=1)
        differ = np.flatnonzero((present != required[:k]).any(axis=1))
        first = differ[0] if differ.size else k
        if first < n * m * (m - 1):
            a, b, x = required[first].tolist()
            raise ValidationError(f"synchrony violation: ({a},{b},{x},{x}) must be a losing tuple")
        table.setflags(write=False)
        losing_sorted = tuple(map(tuple, table.tolist()))
        object.__setattr__(self, "losing", frozenset(losing_sorted))
        object.__setattr__(self, "losing_table", table)
        object.__setattr__(self, "losing_sorted", losing_sorted)


def synchrony_tuples(n: int, m: int) -> list:
    """The losing tuples (a, b, x, x), a != b, that synchrony requires, in
    (x, a, b) order."""
    return [(a, b, x, x) for x in range(1, n + 1) for a, b in permutations(range(1, m + 1), 2)]


def _answer_classes(game: SyncGame) -> tuple:
    """Masks over the rows of ``game.losing_table``: the e-set (both answers
    in {1, m}), the f-set (both inside) and the rest (one of each)."""
    ends = np.isin(game.losing_table[:, :2], (1, game.m))
    e_set, f_set = ends.all(axis=1), ~ends.any(axis=1)
    return e_set, f_set, ~(e_set | f_set)


# ---------------------------------------------------------------------------
# simple graphs


@dataclass(frozen=True)
class SimpleGraph:
    """An undirected graph on vertices 1..n with no loops or multi-edges.

    The one check of an edge list: everything that takes edges as input
    takes a SimpleGraph."""

    n_vertices: int
    edges: tuple

    def __post_init__(self) -> None:
        if not _is_int(self.n_vertices) or self.n_vertices < 0:
            raise ValidationError(f"vertex count {self.n_vertices!r} must be a nonnegative integer")
        seen = set()
        normalized = []
        for edge in self.edges:
            try:
                if isinstance(edge, (str, bytes, Mapping)):  # two items, but no pair
                    raise TypeError
                u, v = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edge {edge!r} is not a pair") from None
            if not (_is_int(u) and _is_int(v)):
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


# ---------------------------------------------------------------------------
# priors


@dataclass(frozen=True)
class PriorDistribution:
    """A probability distribution over ordered question pairs.

    ``weights`` is a sorted tuple of ((x, y), weight) entries; pairs absent
    from it have weight zero.
    """

    kind: str
    weights: tuple

    def __post_init__(self) -> None:
        if self.kind not in (QUESTION_PRIOR, EDGE_PRIOR):
            raise ValidationError(f"unknown prior kind {self.kind!r}")
        for (x, y), w in self.weights:
            if not (_is_int(x) and _is_int(y)):
                raise ValidationError(f"prior support entry ({x!r},{y!r}) is not a question pair")
            if isinstance(w, bool) or not isinstance(w, Real) or not isfinite(w):
                raise ValidationError(f"prior weight {w!r} on ({x},{y}) is not a finite number")
            if not w >= 0.0:
                raise ValidationError(f"negative prior weight {w!r} on ({x},{y})")
        total = fsum(w for _, w in self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"prior weights sum to {total!r}, expected 1")

    @cached_property
    def _support(self) -> tuple:
        """The support as arrays (xs, ys, ws) in the order of ``weights``,
        the questions 0-based."""
        pairs, ws = zip(*self.weights)
        xs, ys = np.array(pairs, dtype=np.intp).T - 1
        return xs, ys, np.array(ws, dtype=np.float64)

    @classmethod
    def uniform_questions(cls, n: int) -> "PriorDistribution":
        """The uniform prior on all n^2 ordered question pairs."""
        if n < 1:
            raise ValidationError(f"need at least one question, got {n}")
        w = 1.0 / (n * n)
        pairs = tuple(((x, y), w) for x in range(1, n + 1) for y in range(1, n + 1))
        return cls(QUESTION_PRIOR, pairs)

    @classmethod
    def uniform_edges(cls, g: SimpleGraph) -> "PriorDistribution":
        """Uniform on the 2|E| ordered copies of a graph's edges."""
        if not g.edges:
            raise ValidationError("edge prior needs at least one edge")
        w = 1.0 / (2 * g.n_edges)
        pairs = []
        for u, v in g.edges:
            pairs.append(((u, v), w))
            pairs.append(((v, u), w))
        return cls(EDGE_PRIOR, tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True, eq=False)
class _Strategy:
    """One PVM per key, all with the same outcome count k, in a common
    dimension d, given as the dict ``pvms``, which is not kept.  They are
    held as the sorted ``keys`` and one read-only, C-contiguous (K, k, d, d)
    ``stack``, row i the PVM at ``keys[i]``."""

    d: int
    pvms: InitVar[dict]
    keys: tuple = field(init=False)
    stack: np.ndarray = field(init=False, repr=False)

    def _hold(self, keys, stack: np.ndarray) -> None:
        stack.setflags(write=False)  # so that it cannot be edited behind our back
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "stack", stack)

    def _check(self, pvms: dict, what: str) -> None:
        """Validate ``pvms`` and hold a copy of it as one stack.  Input that
        does not stack as (K, k, d, d), k >= 1, is checked key by key."""
        d = self.d
        if not _is_int(d) or d < 1:
            raise ValidationError(f"dimension must be a positive integer, got {d!r}")
        if not pvms:
            raise ValidationError(f"{what} has no PVMs")
        keys = sorted(pvms)
        rows = [list(pvms[key]) for key in keys]  # each key's outcomes, read once
        try:
            stack = np.array(rows, dtype=np.complex128)
        except (TypeError, ValueError, OverflowError):  # ragged, or not numbers
            stack = np.empty(0)
        if stack.ndim != 4 or stack.shape[1] == 0 or stack.shape[2:] != (d, d):
            ragged = [[as_matrix(m, d) for m in row] for row in rows]
            for key, mats in zip(keys, ragged):
                require_pvm(mats, what=f"{what} PVM at {key!r}")
            raise ValidationError(f"{what} mixes outcome counts {sorted(set(map(len, ragged)))}")
        require_pvm_family(stack, keys, what=f"{what} PVM at {{!r}}")
        self._hold(keys, stack)


def _prebuilt(cls, d: int, keys, stack: np.ndarray):
    """A ``cls`` strategy from a C-contiguous stack whose row i is the PVM at
    ``keys[i]``, the keys sorted, that the package built out of validated
    PVMs: not checked again, and handed over, write-locked, not copied."""
    strategy = object.__new__(cls)
    object.__setattr__(strategy, "d", d)
    strategy._hold(keys, stack)
    return strategy


@dataclass(frozen=True, eq=False)
class GameStrategy(_Strategy):
    """One m-outcome PVM per question: ``stack`` is (K, m, d, d)."""

    def __post_init__(self, pvms: dict) -> None:
        for key in pvms:
            if not _is_int(key) or key < 1:
                raise ValidationError(f"question key {key!r} is not a positive integer")
        self._check(pvms, "game strategy")

    @property
    def outcomes(self) -> int:
        return self.stack.shape[1]


@dataclass(frozen=True, eq=False)
class ColoringStrategy(_Strategy):
    """One 3-outcome PVM per vertex name: ``stack`` is (K, 3, d, d), or
    (K, 3, 6, d, d) block operators for ``symmetrize``'s output."""

    def __post_init__(self, pvms: dict) -> None:
        for key in pvms:
            if not isinstance(key, str) or not key:
                raise ValidationError(f"vertex key {key!r} is not a non-empty string")
        self._check(pvms, "coloring strategy")
        outcomes = self.stack.shape[1]
        if outcomes != 3:
            raise ValidationError(f"vertex {self.keys[0]!r} has {outcomes} outcomes, expected 3")

    @property
    def pvms(self) -> dict:
        """A new dict of ``stack``'s rows by key on each read, for the reader
        in ``bench/workloads.py``; the package reads ``keys`` and ``stack``."""
        return dict(zip(self.keys, self.stack))


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True)
class LossEntry:
    """One term of the lost mass: a labelled probability with its prior weight."""

    key: tuple
    weight: float
    probability: float


class ValueReport:
    """A game (or coloring) value with its per-term loss breakdown.

    ``losses`` is built by the given function on first read and kept, so a
    caller that reads only ``value`` builds no ``LossEntry``.
    """

    def __init__(self, value: float, build_losses: Callable[[], tuple]) -> None:
        self.value = value
        self._build_losses = build_losses

    @cached_property
    def losses(self) -> tuple:
        return self._build_losses()

    @property
    def lost_mass(self) -> float:
        return fsum(e.weight * e.probability for e in self.losses)


def _require_strategy_fits(game: SyncGame, strategy: GameStrategy) -> None:
    """Raise unless the strategy answers every question of the game with
    m-outcome PVMs, in O(1) when it does: its keys are sorted, distinct
    and positive, so they hold 1..n exactly when the n-th is n."""
    n, keys = game.n, strategy.keys
    if strategy.outcomes != game.m:
        raise ValidationError(
            f"strategy has {strategy.outcomes}-outcome PVMs, game has m={game.m}"
        )
    if keys[n - 1:n] != (n,):
        held = set(keys)
        missing = [x for x in range(1, n + 1) if x not in held]
        raise ValidationError(f"strategy missing questions {missing}")


@dataclass(frozen=True, eq=False)
class _WinningTerms:
    """What scoring a strategy needs of one (game, prior).  The overlaps come
    from the GEMM over the strategy's ``rows``, those of the questions the
    support names (a slice, so a view, when it names all n): a (K, K) gram
    for K = m times their number.  ``index`` is
    the flat index into it of every (pair, a, b) term, (P, m, m) in the
    prior's order; ``lost`` says which terms lose; ``win`` and
    ``win_weights`` are the winning terms' indices and prior weights."""

    rows: slice | np.ndarray
    index: np.ndarray
    lost: np.ndarray
    win: np.ndarray
    win_weights: np.ndarray


@_held
def _winning_terms(game: SyncGame, prior: PriorDistribution) -> _WinningTerms:
    """The term table of ``game`` under ``prior``, held on the prior for the
    game (``_held``).

    A game's losing tuples are sorted in (a, b, x, y) order, so their codes
    ((a m + b) n + x) n + y, 0-based, are sorted too, and one
    ``searchsorted`` finds which of the support's terms lose.  The table
    holds support x m^2 entries; no (n, n, m, m) array is built."""
    n, m = game.n, game.m
    for (x, y), _ in prior.weights:
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValidationError(f"prior supports ({x},{y}) outside 1..{n}")
    xs, ys, ws = (v[:, None, None] for v in prior._support)
    named = np.zeros(n, dtype=bool)
    named[xs] = named[ys] = True
    rows = np.flatnonzero(named)
    at = np.zeros(n, dtype=np.intp)
    at[rows] = np.arange(rows.size)  # a named question's row block in the GEMM
    k = rows.size * m
    a, b = np.arange(m)[:, None], np.arange(m)
    index = (at[xs] * m + a) * k + at[ys] * m + b
    wanted = ((a * m + b) * n + xs) * n + ys
    la, lb, lx, ly = game.losing_table.T - 1
    codes = ((la * m + lb) * n + lx) * n + ly
    # Synchrony makes every game lose somewhere, so ``codes`` is not empty.
    lost = codes[np.minimum(np.searchsorted(codes, wanted), codes.size - 1)] == wanted
    win = ~lost
    return _WinningTerms(
        slice(0, n) if rows.size == n else rows, index, lost, index[win], np.broadcast_to(ws, win.shape)[win]
    )


def sync_value(game: SyncGame, strategy: GameStrategy, prior: PriorDistribution) -> ValueReport:
    """Synchronous value: prior-weighted winning probability of the strategy.

    The value is accumulated over *winning* tuples; the report's losses list
    the complementary terms, one per losing tuple in the prior's support, so
    ``1 - value == lost_mass`` is an identity checkable to machine precision
    rather than something baked in by construction.

    Which terms win, and their weights, depend only on the game and the
    prior, and come from ``_winning_terms``.  Each call does the strategy's
    own work: every overlap tr(E_a^x E_b^y)/d of the questions the support
    names comes out of one GEMM over those rows of the strategy's stack,
    (K, m, d, d): tr(A B) = sum_ij A_ij B_ji is the inner product of A's
    entries with those of B transposed.  The winning terms w * tau are
    gathered from it, and ``fsum`` is exactly rounded, so the value does not
    depend on their order.  A support that skips a question gets a smaller
    GEMM than the one over all n rows, which BLAS may round differently in
    the last bit.
    """
    m, d = game.m, strategy.d
    _require_strategy_fits(game, strategy)
    terms = _winning_terms(game, prior)
    stack = strategy.stack[terms.rows]
    k = stack.shape[0] * m
    gram = (stack.reshape(k, d * d) @ stack.transpose(0, 1, 3, 2).reshape(k, d * d).T).ravel()
    value = fsum((terms.win_weights * (gram.real[terms.win] / d)).tolist())

    def build_losses() -> tuple:
        xs, ys, ws = prior._support
        pair, a, b = np.nonzero(terms.lost)
        keys = zip(*(np.stack([a, b, xs[pair], ys[pair]]) + 1).tolist())
        probabilities = gram.real[terms.index[terms.lost]] / d
        return tuple(map(LossEntry, keys, ws[pair].tolist(), probabilities.tolist()))

    return ValueReport(value, build_losses)


# ---------------------------------------------------------------------------
# the 3-coloring game of a graph


def coloring_game(g: SimpleGraph) -> SyncGame:
    """The 3-coloring game of a simple graph.

    Questions are vertices, answers are colors; a pair loses when it colors
    the two ends of an edge the same, or breaks synchrony.
    """
    edges = [(c, c, x, y) for u, v in g.edges for x, y in ((u, v), (v, u)) for c in range(1, 4)]
    return SyncGame(n=g.n_vertices, m=3, losing=synchrony_tuples(g.n_vertices, 3) + edges)


# ---------------------------------------------------------------------------
# file formats


def _game_from_payload(payload) -> SyncGame:
    if not isinstance(payload, dict):
        raise ValidationError("game file must hold a JSON object")
    for field in ("n", "m", "losing"):
        if field not in payload:
            raise ValidationError(f"game file missing field {field!r}")
    if not isinstance(payload["losing"], list):
        raise ValidationError("game field 'losing' must be a list of 4-tuples")
    return SyncGame(payload["n"], payload["m"], payload["losing"])


def _unique_keys(what: str):
    """A ``json`` object hook that rejects a repeated key, which ``json``
    would otherwise resolve silently by keeping the last value."""

    def hook(pairs) -> dict:
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValidationError(f"{what} repeats the key {key!r}")
            obj[key] = value
        return obj

    return hook


def _read_text(source):
    """The text of a loader's input: a ``Path``, or a str that does not start
    with ``{`` or ``[`` after whitespace, names a file; anything else is
    literal JSON, returned as it is."""
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith(("{", "["))
    ):
        return Path(source).read_text()
    return source


def load_game(source) -> SyncGame:
    """Load a SyncGame from a JSON file path or a JSON string."""
    text = _read_text(source)
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys("game file"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"game file is not valid JSON: {exc}") from None
    return _game_from_payload(payload)


def game_to_json(game: SyncGame) -> dict:
    return {"n": game.n, "m": game.m, "losing": game.losing_table.tolist()}


def save_game(game: SyncGame, path) -> None:
    Path(path).write_text(json.dumps(game_to_json(game), sort_keys=True) + "\n")


# Separators of the indent-2 layout around the floats of one key's matrices.
_WITHIN_PAIR = ",\n" + " " * 10
_BETWEEN_PAIRS = "\n        ],\n        [\n          "
_BETWEEN_MATRICES = "\n        ]\n      ],\n      [\n        [\n          "

# Distinct matrices spelled together: enough to share the spelling of the
# values they repeat, few enough that their texts stay small.
_CHUNK = 16
_MAGNITUDE = 0x7FFF_FFFF_FFFF_FFFF  # every bit of a float64 but the sign


def _spell_chunk(bits: np.ndarray) -> list:
    """The texts of the matrices whose float64 bit patterns are the rows of
    ``bits``, each one ``"".join`` over a table of spellings and separators.
    Each distinct magnitude is spelled once by ``float.__repr__``; an entry
    with the sign bit set, ``-0.0`` included, is "-" and its magnitude's
    spelling, as ``repr`` spells it."""
    magnitudes, inverse = np.unique(bits & _MAGNITUDE, return_inverse=True)
    spelled = list(map(float.__repr__, magnitudes.view(np.float64).tolist()))
    table = np.array(spelled + ["-" + text for text in spelled] + [_WITHIN_PAIR, _BETWEEN_PAIRS], dtype=object)
    picks = np.empty((len(bits), 2 * bits.shape[1] - 1), dtype=np.intp)  # floats and separators in turn
    picks[:, 0::2] = inverse.reshape(bits.shape) + (bits < 0) * len(spelled)
    picks[:, 1::4] = len(table) - 2  # between re and im
    picks[:, 3::4] = len(table) - 1  # between one pair and the next
    return list(map("".join, table[picks].tolist()))


def write_strategy_json(strategy: GameStrategy | ColoringStrategy, path) -> None:
    """Write a game or coloring strategy as indented, key-sorted JSON.

    The file holds exactly ``json.dumps({"d": d, "pvms": {str(key): [matrix,
    ...]}}, indent=2, sort_keys=True) + "\\n"``, each matrix a row-major list
    of [re, im] pairs, written one key at a time without building the nested
    lists.  Validation keeps every entry finite, and ``json`` writes a
    finite float as ``float.__repr__`` does.

    Each distinct matrix, told apart by its bytes so that ``-0.0`` and
    ``0.0`` stay apart, is rendered once and its text reused: the 648
    matrices of the benchmark's forward colorings at d = 16 hold 79 to 116
    distinct ones.  They are rendered in order of first use, 16 at a time,
    and within such a chunk each distinct float magnitude is spelled once:
    Hermitian symmetry and shared operators repeat most of them.  The work
    goes chunk by chunk because a table of spellings for the whole file
    would hold as much text as a file of distinct matrices.  Besides the
    use counts, the writer holds one chunk's spellings and texts, and a
    text only until its last use.  To number the distinct matrices it holds
    one copy of each one's bytes for a moment, before any text is made.
    """
    d, keys, stack = strategy.d, strategy.keys, strategy.stack
    if stack.shape[2:] != (d, d):
        raise ValidationError("only d-by-d strategy operators are written, not symmetrize's stacks")
    k = stack.shape[1]
    bits = stack.reshape(-1, d * d).view(np.int64)  # C order, interleaved re and im
    # sort_keys orders the str keys, so question "10" precedes "2".
    rows = sorted(range(len(keys)), key=lambda i: str(keys[i]))
    index: dict = {}  # a matrix's bytes -> the slot of its first use
    slots = [s for row in rows for s in range(row * k, row * k + k)]  # in file order
    firsts = [index.setdefault(bits[s].tobytes(), s) for s in slots]
    order = list(index.values())  # the distinct matrices, in order of first use
    del index
    uses = Counter(firsts)
    texts: dict = {}
    rendered = 0  # how many of ``order`` have been rendered

    def render(first: int) -> str:
        nonlocal rendered
        if first not in texts:  # never rendered yet, so the next in order of first use
            chunk = order[rendered : rendered + _CHUNK]
            texts.update(zip(chunk, _spell_chunk(bits[chunk])))
            rendered += len(chunk)
        uses[first] -= 1
        return texts[first] if uses[first] else texts.pop(first)

    with open(path, "w") as fh:
        fh.write('{\n  "d": %s,\n  "pvms": {\n' % json.dumps(d))
        for i, row in enumerate(rows):
            body = _BETWEEN_MATRICES.join(map(render, firsts[i * k : i * k + k]))
            fh.write(
                "%s    %s: [\n      [\n        [\n          %s\n        ]\n      ]\n    ]"
                % (",\n" if i else "", json.dumps(str(keys[row])), body)
            )
        fh.write("\n  }\n}\n")


def matrix_from_json(data, d: int) -> np.ndarray:
    """A d-by-d complex matrix from parsed JSON: a row-major list of d*d
    [re, im] pairs, as ``write_strategy_json`` writes them.  Its entries are
    checked one by one, so that the first bad entry is named; a JSON
    ``true`` or ``false`` part is not a number."""
    if not isinstance(data, list) or len(data) != d * d:
        raise ValidationError(f"matrix payload must be a list of {d * d} [re, im] pairs")
    for i, pair in enumerate(data):
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise ValidationError(f"matrix entry {i} is not an [re, im] pair")
        if not all(type(x) in (int, float) for x in pair):
            raise ValidationError(f"matrix entry {i} has non-numeric parts")
    try:
        parts = np.array(data, dtype=np.float64)
    except OverflowError:  # an integer part beyond the float range
        raise ValidationError("matrix payload has a part beyond the float range") from None
    return parts.view(np.complex128).reshape(d, d)


def _load_strategy_parts(path, what: str):
    """The dimension and {key: matrices} of a strategy file, in any JSON layout."""
    text = Path(path).read_text()
    # numpy would read a JSON true or false as 1 or 0, so a file that may
    # hold one is read matrix by matrix: "true" has a "u", "false" an "l",
    # and no number has either.
    booleans = "u" in text or "l" in text
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys(f"{what} file"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "d" not in payload or "pvms" not in payload:
        raise ValidationError(f"{what} file must be an object with fields 'd' and 'pvms'")
    d = payload["d"]
    if not _is_int(d) or d < 1:
        raise ValidationError(f"{what} dimension must be a positive integer, got {d!r}")
    pvms = payload["pvms"]
    if not isinstance(pvms, dict):
        raise ValidationError(f"{what} field 'pvms' must be an object")
    try:  # every key's matrices at once, in file order, as (K, k, d*d, 2) parts
        parts = np.array(list(pvms.values()))
    except ValueError:  # ragged
        parts = np.empty(0)
    if parts.ndim == 4 and parts.shape[2:] == (d * d, 2) and parts.dtype.kind in "iuf" and not booleans:
        parts = np.ascontiguousarray(parts, dtype=np.float64).view(np.complex128)
        return d, dict(zip(pvms, parts.reshape(len(pvms), -1, d, d)))
    parsed = {}  # matrix by matrix, which names the first bad entry and its matrix
    for key, mats in pvms.items():
        if not isinstance(mats, list):
            raise ValidationError(f"{what} entry {key!r} must be a list of matrices")
        parsed[key] = []
        for outcome, mat in enumerate(mats, 1):
            try:
                parsed[key].append(matrix_from_json(mat, d))
            except ValidationError as exc:
                raise ValidationError(f"{what} entry {key!r} outcome {outcome}: {exc}") from None
    return d, parsed


def load_game_strategy(path) -> GameStrategy:
    d, parsed = _load_strategy_parts(path, "game strategy")
    pvms = {}
    for key, mats in parsed.items():
        # Only the canonical spelling: "01", " 1", "+1" and "1_0" would parse
        # as an int, and could collide with another key.
        try:
            q = int(key)
        except ValueError:
            q = None
        if q is None or key != str(q):
            raise ValidationError(f"game strategy key {key!r} is not a question number")
        pvms[q] = mats
    return GameStrategy(d=d, pvms=pvms)


def load_coloring_strategy(path) -> ColoringStrategy:
    d, parsed = _load_strategy_parts(path, "coloring strategy")
    return ColoringStrategy(d=d, pvms=parsed)
