"""Synchronous games over finite question/answer sets.

A game is given by its losing tuples: answering (a, b) on the question pair
(x, y) loses exactly when (a, b, x, y) is listed.  Synchrony — mismatched
answers to a repeated question always lose — is *validated*, never inserted
silently, so a game file is its own complete record.  All indices are
1-based, in files and in memory.

The module also houses the two priors used everywhere (uniform on question
pairs, uniform on the ordered edges of a graph), finite-dimensional
projective strategies with their file format (one writer, one loader per
kind), and the synchronous value of a game against a strategy and prior.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import fsum
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .linalg import as_matrix, require_pvm, trace_product

QUESTION_PRIOR = "uniform-on-questions"
EDGE_PRIOR = "uniform-on-edges"


def _is_int(value) -> bool:
    """An int that is not a bool: JSON ``true`` must not pass as the index 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SyncGame:
    """A synchronous game: n questions, m answers, explicit losing tuples."""

    n: int
    m: int
    losing: frozenset

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise ValidationError(f"question count must be a positive integer, got {self.n!r}")
        if not _is_int(self.m) or self.m < 3:
            raise ValidationError(f"answer count must be an integer >= 3, got {self.m!r}")
        tuples = []
        for raw in self.losing:
            t = tuple(raw)
            if len(t) != 4 or not all(map(_is_int, t)):
                raise ValidationError(f"losing tuple {raw!r} is not a 4-tuple of integers")
            a, b, x, y = t
            if not (1 <= a <= self.m and 1 <= b <= self.m):
                raise ValidationError(f"losing tuple {t}: answers out of range 1..{self.m}")
            if not (1 <= x <= self.n and 1 <= y <= self.n):
                raise ValidationError(f"losing tuple {t}: questions out of range 1..{self.n}")
            tuples.append(t)
        losing = frozenset(tuples)
        object.__setattr__(self, "losing", losing)
        for x in range(1, self.n + 1):
            for a in range(1, self.m + 1):
                for b in range(1, self.m + 1):
                    if a != b and (a, b, x, x) not in losing:
                        raise ValidationError(
                            f"synchrony violation: ({a},{b},{x},{x}) must be a losing tuple"
                        )

    @property
    def losing_sorted(self) -> tuple:
        return tuple(sorted(self.losing))

    def loses(self, a: int, b: int, x: int, y: int) -> bool:
        return (a, b, x, y) in self.losing


@dataclass(frozen=True)
class LosingPartition:
    """Losing tuples split by answer range.

    ``e_set`` holds tuples whose answers both sit on the endpoints {1, m},
    ``f_set`` those with both answers strictly inside, and ``rest`` everything
    else (in particular every tuple mixing an endpoint answer with an interior
    one).  The three parts are disjoint and cover the losing set.
    """

    e_set: tuple
    f_set: tuple
    rest: tuple


def partition_losing(game: SyncGame) -> LosingPartition:
    endpoints = {1, game.m}
    e_set, f_set, rest = [], [], []
    for t in game.losing_sorted:
        a, b = t[0], t[1]
        if a in endpoints and b in endpoints:
            e_set.append(t)
        elif 2 <= a <= game.m - 1 and 2 <= b <= game.m - 1:
            f_set.append(t)
        else:
            rest.append(t)
    return LosingPartition(tuple(e_set), tuple(f_set), tuple(rest))


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
            if not (isinstance(x, int) and isinstance(y, int)):
                raise ValidationError(f"prior support entry ({x!r},{y!r}) is not a question pair")
            if w < 0.0:
                raise ValidationError(f"negative prior weight {w!r} on ({x},{y})")
        total = fsum(w for _, w in self.weights)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"prior weights sum to {total!r}, expected 1")

    @classmethod
    def uniform_questions(cls, n: int) -> "PriorDistribution":
        """The uniform prior on all n^2 ordered question pairs."""
        if n < 1:
            raise ValidationError(f"need at least one question, got {n}")
        w = 1.0 / (n * n)
        pairs = tuple(((x, y), w) for x in range(1, n + 1) for y in range(1, n + 1))
        return cls(QUESTION_PRIOR, pairs)

    @classmethod
    def uniform_edges(cls, edges) -> "PriorDistribution":
        """Uniform on the 2|E| ordered copies of an edge list (1-based vertices)."""
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
        return cls(EDGE_PRIOR, tuple(sorted(pairs)))


# ---------------------------------------------------------------------------
# strategies


def _freeze(pvms) -> dict:
    """Write-lock a {key: complex128 arrays} family in place, as tuples with
    keys sorted, so a strategy cannot be edited behind our back."""
    frozen = {key: tuple(pvms[key]) for key in sorted(pvms)}
    for mats in frozen.values():
        for m in mats:
            m.setflags(write=False)
    return frozen


def _freeze_pvm_family(pvms, d: int, what: str):
    """Validate a {key: list-of-matrices} family, every member a PVM of the
    same outcome count in dimension d, and freeze copies of it into a dict."""
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"dimension must be a positive integer, got {d!r}")
    if not pvms:
        raise ValidationError(f"{what} has no PVMs")
    checked = {
        key: require_pvm([as_matrix(m, d).copy() for m in pvms[key]], what=f"{what} PVM at {key!r}")
        for key in sorted(pvms)
    }
    outcome_counts = {len(mats) for mats in checked.values()}
    if len(outcome_counts) != 1:
        raise ValidationError(f"{what} mixes outcome counts {sorted(outcome_counts)}")
    return _freeze(checked)


def _prebuilt(cls, d: int, pvms: dict):
    """A ``cls`` strategy from PVMs the package built out of validated ones,
    not checked again.  Outside data goes through the validating constructor
    instead.  The arrays are handed over: they are write-locked, not copied."""
    strategy = object.__new__(cls)
    object.__setattr__(strategy, "d", d)
    object.__setattr__(strategy, "pvms", _freeze(pvms))
    return strategy


@dataclass(frozen=True, eq=False)
class GameStrategy:
    """One m-outcome PVM per question, all in a common dimension d."""

    d: int
    pvms: dict

    def __post_init__(self) -> None:
        for key in self.pvms:
            if not isinstance(key, int) or key < 1:
                raise ValidationError(f"question key {key!r} is not a positive integer")
        object.__setattr__(self, "pvms", _freeze_pvm_family(self.pvms, self.d, "game strategy"))

    @property
    def outcomes(self) -> int:
        return len(next(iter(self.pvms.values())))

    @property
    def questions(self) -> tuple:
        return tuple(sorted(self.pvms))


@dataclass(frozen=True, eq=False)
class ColoringStrategy:
    """One 3-outcome PVM per vertex name, all in a common dimension d."""

    d: int
    pvms: dict

    def __post_init__(self) -> None:
        for key in self.pvms:
            if not isinstance(key, str) or not key:
                raise ValidationError(f"vertex key {key!r} is not a non-empty string")
        frozen = _freeze_pvm_family(self.pvms, self.d, "coloring strategy")
        for key, mats in frozen.items():
            if len(mats) != 3:
                raise ValidationError(f"vertex {key!r} has {len(mats)} outcomes, expected 3")
        object.__setattr__(self, "pvms", frozen)

    @property
    def vertices(self) -> tuple:
        return tuple(sorted(self.pvms))


# ---------------------------------------------------------------------------
# values


@dataclass(frozen=True)
class LossEntry:
    """One term of the lost mass: a labelled probability with its prior weight."""

    key: tuple
    weight: float
    probability: float


@dataclass(frozen=True)
class ValueReport:
    """A game (or coloring) value with its per-tuple loss breakdown."""

    value: float
    losses: tuple

    @property
    def lost_mass(self) -> float:
        return fsum(e.weight * e.probability for e in self.losses)


def _require_strategy_fits(game: SyncGame, strategy: GameStrategy) -> None:
    """Raise unless the strategy answers every question of the game with
    m-outcome PVMs."""
    if strategy.outcomes != game.m:
        raise ValidationError(
            f"strategy has {strategy.outcomes}-outcome PVMs, game has m={game.m}"
        )
    missing = [x for x in range(1, game.n + 1) if x not in strategy.pvms]
    if missing:
        raise ValidationError(f"strategy missing questions {missing}")


def sync_value(game: SyncGame, strategy: GameStrategy, prior: PriorDistribution) -> ValueReport:
    """Synchronous value: prior-weighted winning probability of the strategy.

    The value is accumulated over *winning* tuples; the report's losses list
    the complementary terms, one per losing tuple in the prior's support, so
    ``1 - value == lost_mass`` is an identity checkable to machine precision
    rather than something baked in by construction.

    Every overlap tr(E_a^x E_b^y)/d comes out of one GEMM over the strategy
    stacked as (n, m, d, d): tr(A B) = sum_ij A_ij B_ji is the inner product
    of A's entries with those of B transposed.
    """
    _require_strategy_fits(game, strategy)
    n, m, d = game.n, game.m, strategy.d
    stack = np.array([strategy.pvms[x] for x in range(1, n + 1)])
    gram = stack.reshape(n * m, d * d) @ stack.transpose(0, 1, 3, 2).reshape(n * m, d * d).T
    overlaps = (gram.real / d).reshape(n, m, n, m).tolist()
    win_terms = []
    losses = []
    for (x, y), w in prior.weights:
        if not (1 <= x <= n and 1 <= y <= n):
            raise ValidationError(f"prior supports ({x},{y}) outside 1..{n}")
        for a in range(1, m + 1):
            row = overlaps[x - 1][a - 1][y - 1]
            for b in range(1, m + 1):
                p = row[b - 1]
                if (a, b, x, y) in game.losing:
                    losses.append(LossEntry((a, b, x, y), w, p))
                else:
                    win_terms.append(w * p)
    return ValueReport(value=fsum(win_terms), losses=tuple(losses))


def edge_loss_probability(p_u, p_v) -> float:
    """Same-color probability sum_c tr(P_{c,u} P_{c,v})/d across one edge,
    each overlap in O(d^2) without forming the product."""
    return fsum(map(trace_product, p_u, p_v))


# ---------------------------------------------------------------------------
# the 3-coloring game of a graph


def coloring_game(edges, n_vertices: int) -> SyncGame:
    """The 3-coloring game of a simple graph on vertices 1..n_vertices.

    Questions are vertices, answers are colors; a pair loses when it colors
    the two ends of an edge the same, or breaks synchrony.
    """
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


# ---------------------------------------------------------------------------
# file formats


def _game_from_payload(payload) -> SyncGame:
    if not isinstance(payload, dict):
        raise ValidationError("game file must hold a JSON object")
    for field in ("n", "m", "losing"):
        if field not in payload:
            raise ValidationError(f"game file missing field {field!r}")
    n, m, losing = payload["n"], payload["m"], payload["losing"]
    if not (_is_int(n) and _is_int(m)):
        raise ValidationError("game fields n and m must be integers")
    if not isinstance(losing, list):
        raise ValidationError("game field 'losing' must be a list of 4-tuples")
    tuples = []
    for raw in losing:
        if not isinstance(raw, list) or len(raw) != 4 or not all(map(_is_int, raw)):
            raise ValidationError(f"losing entry {raw!r} is not a list of four integers")
        tuples.append(tuple(raw))
    if len(set(tuples)) != len(tuples):
        dupes = sorted({t for t in tuples if tuples.count(t) > 1})
        raise ValidationError(f"duplicate losing tuples {dupes}")
    return SyncGame(n=n, m=m, losing=frozenset(tuples))


def load_game(source) -> SyncGame:
    """Load a SyncGame from a JSON file path or a JSON string."""
    text = Path(source).read_text() if _looks_like_path(source) else source
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"game file is not valid JSON: {exc}") from None
    return _game_from_payload(payload)


def _looks_like_path(source) -> bool:
    if isinstance(source, Path):
        return True
    return isinstance(source, str) and not source.lstrip().startswith("{")


def game_to_json(game: SyncGame) -> dict:
    return {"n": game.n, "m": game.m, "losing": [list(t) for t in game.losing_sorted]}


def save_game(game: SyncGame, path) -> None:
    Path(path).write_text(json.dumps(game_to_json(game), sort_keys=True) + "\n")


# Separators of the indent-2 layout around the floats of one key's matrices.
_WITHIN_PAIR = ",\n" + " " * 10
_BETWEEN_PAIRS = "\n        ],\n        [\n          "
_BETWEEN_MATRICES = "\n        ]\n      ],\n      [\n        [\n          "


def write_strategy_json(strategy: GameStrategy | ColoringStrategy, path) -> None:
    """Write a game or coloring strategy as indented, key-sorted JSON.

    The file holds exactly ``json.dumps({"d": d, "pvms": {str(key): [matrix,
    ...]}}, indent=2, sort_keys=True) + "\\n"``, each matrix a row-major list
    of [re, im] pairs, written one key at a time without building the nested
    lists.  Validation keeps every entry finite, and ``json`` writes a
    finite float as ``float.__repr__`` does.
    """
    pvms, step = strategy.pvms, strategy.d * strategy.d
    with open(path, "w") as fh:
        fh.write('{\n  "d": %s,\n  "pvms": {\n' % json.dumps(strategy.d))
        # sort_keys orders the str keys, so question "10" precedes "2".
        for i, key in enumerate(sorted(pvms, key=str)):
            mats = pvms[key]
            floats = list(map(float.__repr__, np.stack(mats).view(np.float64).ravel().tolist()))
            pairs = list(map(_WITHIN_PAIR.join, zip(floats[0::2], floats[1::2])))
            body = _BETWEEN_MATRICES.join(
                [_BETWEEN_PAIRS.join(pairs[j:j + step]) for j in range(0, len(pairs), step)]
            )
            fh.write(
                "%s    %s: [\n      [\n        [\n          %s\n        ]\n      ]\n    ]"
                % (",\n" if i else "", json.dumps(str(key)), body)
            )
        fh.write("\n  }\n}\n")


def matrix_from_json(data, d: int) -> np.ndarray:
    """A d-by-d complex matrix from parsed JSON: a row-major list of d*d
    [re, im] pairs, as ``write_strategy_json`` writes them.

    ``data`` is converted in one pass; only when that pass does not give
    d*d pairs of numbers is it scanned entry by entry, to name the first
    bad entry.
    """
    if not isinstance(data, list) or len(data) != d * d:
        raise ValidationError(f"matrix payload must be a list of {d * d} [re, im] pairs")
    try:
        parts = np.array(data)
    except ValueError:  # ragged entries
        parts = None
    if parts is None or parts.shape != (d * d, 2) or parts.dtype.kind not in "biuf":
        for i, pair in enumerate(data):
            if (not isinstance(pair, list)) or len(pair) != 2:
                raise ValidationError(f"matrix entry {i} is not an [re, im] pair")
            if not all(isinstance(x, (int, float)) for x in pair):
                raise ValidationError(f"matrix entry {i} has non-numeric parts")
        # Only integer parts too large for int64 and uint64 get this far.
        try:
            parts = np.array(data, dtype=np.float64)
        except OverflowError:
            raise ValidationError("matrix payload has a part beyond the float range") from None
    return np.ascontiguousarray(parts, dtype=np.float64).view(np.complex128).reshape(d, d)


def _load_strategy_parts(path, what: str):
    """The dimension and {key: matrices} of a strategy file, in any JSON layout."""
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "d" not in payload or "pvms" not in payload:
        raise ValidationError(f"{what} file must be an object with fields 'd' and 'pvms'")
    d = payload["d"]
    if not isinstance(d, int) or d < 1:
        raise ValidationError(f"{what} dimension must be a positive integer, got {d!r}")
    pvms = payload["pvms"]
    if not isinstance(pvms, dict):
        raise ValidationError(f"{what} field 'pvms' must be an object")
    parsed = {}
    for key, mats in pvms.items():
        if not isinstance(mats, list):
            raise ValidationError(f"{what} entry {key!r} must be a list of matrices")
        parsed[key] = [matrix_from_json(m, d) for m in mats]
    return d, parsed


def load_game_strategy(path) -> GameStrategy:
    d, parsed = _load_strategy_parts(path, "game strategy")
    pvms = {}
    for key, mats in parsed.items():
        try:
            q = int(key)
        except ValueError:
            raise ValidationError(f"game strategy key {key!r} is not a question number") from None
        pvms[q] = mats
    return GameStrategy(d=d, pvms=pvms)


def load_coloring_strategy(path) -> ColoringStrategy:
    d, parsed = _load_strategy_parts(path, "coloring strategy")
    return ColoringStrategy(d=d, pvms=parsed)
