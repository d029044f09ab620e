"""Ready-made games, strategies, and seeded random families.

Everything here is deterministic given its seed, so experiment scripts and
tests can reconstruct the exact same instances.  The sweep constructors
produce one shared set of Hermitian generators per seed and then twist a
basis-aligned coloring by several angles, which is what makes "smaller
angle, smaller defect" comparisons meaningful.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .forward import forward_translate
from .games import ColoringStrategy, GameStrategy, SimpleGraph, SyncGame, coloring_game, synchrony_tuples
from .graphs import GadgetGraph
from .linalg import (
    SPECTRAL_FACTOR,
    _haar_from_ginibre,
    random_hermitian,
    random_positive_contraction,
    random_projection,
    random_pvm,
    spectral_projection_half,
    two_norm,
)
from .maxcut import OrderKUnitaryFamily, _families
from .rounding import (
    PERTURB_TWO_FACTOR,
    InequalityReport,
    check_commutator_transfer,
    check_cutdown_sum,
    check_prism,
    check_quantum_permutation,
    check_three_sum_zero,
    perturb_pvm_with_reports,
    perturb_two,
)


def minimal_game() -> SyncGame:
    """One question, three answers, synchrony constraints only."""
    return SyncGame(n=1, m=3, losing=frozenset(synchrony_tuples(1, 3)))


def triangle_coloring_game() -> SyncGame:
    return coloring_game(SimpleGraph(3, ((1, 2), (1, 3), (2, 3))))


def random_game(
    rng: np.random.Generator, n_questions: int, n_answers: int, losing_probability: float = 0.3
) -> SyncGame:
    """Random synchronous game: synchrony tuples plus a Bernoulli sprinkle
    of cross-question losing tuples."""
    if not 0.0 <= losing_probability <= 1.0:
        raise ValidationError(f"losing probability {losing_probability} outside [0, 1]")
    losing = set(synchrony_tuples(n_questions, n_answers))
    for x in range(1, n_questions + 1):
        for y in range(1, n_questions + 1):
            if x == y:
                continue
            for a in range(1, n_answers + 1):
                for b in range(1, n_answers + 1):
                    if rng.random() < losing_probability:
                        losing.add((a, b, x, y))
    return SyncGame(n=n_questions, m=n_answers, losing=frozenset(losing))


def random_strategy(rng: np.random.Generator, game: SyncGame, d: int) -> GameStrategy:
    return GameStrategy(
        d=d,
        pvms={
            x: list(random_pvm(rng, d, game.m))
            for x in range(1, game.n + 1)
        },
    )


def deterministic_strategy(game: SyncGame, answers) -> GameStrategy:
    """Dimension-1 strategy answering question x with answers[x-1]."""
    if len(answers) != game.n:
        raise ValidationError(
            f"need {game.n} answers, got {len(answers)}"
        )
    one = np.eye(1)
    z = np.zeros((1, 1))
    return GameStrategy(
        d=1,
        pvms={
            x: [one if a == answers[x - 1] else z for a in range(1, game.m + 1)]
            for x in range(1, game.n + 1)
        },
    )


def triangle_strategy() -> GameStrategy:
    """Perfect strategy for the triangle's coloring game: color vertex v with v."""
    return deterministic_strategy(triangle_coloring_game(), (1, 2, 3))


# ---------------------------------------------------------------------------
# colorings of a gadget graph


def coloring_labels(cs: ColoringStrategy) -> dict:
    """Read a dimension-1 coloring off as a vertex -> color map."""
    if cs.d != 1:
        raise ValidationError(f"labels need a dimension-1 strategy, got d={cs.d}")
    return {
        v: max((1, 2, 3), key=lambda c: pvm[c - 1][0, 0].real)
        for v, pvm in zip(cs.keys, cs.stack)
    }


def perfect_labels(game: SyncGame, graph: GadgetGraph, strategy: GameStrategy) -> dict:
    """Proper-coloring labels induced by a dimension-1 winning strategy."""
    return coloring_labels(forward_translate(game, graph, strategy))


def basis_lift(labels: dict, d: int = 3) -> ColoringStrategy:
    """Lift a proper coloring to dimension d >= 3: at vertex v, coordinate i
    carries the color c with i = c + label(v) (mod 3), so neighbors with
    different labels never share a coordinate for the same color."""
    if d < 3:
        raise ValidationError(f"the lift needs dimension >= 3, got {d}")
    pvms = {}
    for v, label in labels.items():
        if label not in (1, 2, 3):
            raise ValidationError(f"label {label!r} at {v!r} is not a color")
        colors = (np.arange(d) - label) % 3
        pvms[v] = [np.diag((colors == c % 3).astype(np.complex128)) for c in (1, 2, 3)]
    return ColoringStrategy(d=d, pvms=pvms)


def twisted_colorings(labels: dict, thetas, seed: int = 11, d: int = 3) -> dict:
    """Conjugate the basis lift by exp(i * theta * H_v) for one fixed seeded
    Hermitian field H_v per vertex, returning {theta: strategy}.

    The fields are drawn once, so different angles twist the *same*
    direction by different amounts.
    """
    rng = np.random.default_rng(seed)
    spectra = {}
    for v in sorted(labels):
        w, u = np.linalg.eigh(random_hermitian(rng, d))
        spectra[v] = (w, u)
    base = basis_lift(labels, d=d)
    out = {}
    for theta in thetas:
        pvms = {}
        for v, pvm in zip(base.keys, base.stack):  # the keys are sorted(labels)
            w, u = spectra[v]
            rot = (u * np.exp(1j * theta * w)) @ u.conj().T
            pvms[v] = [rot @ p @ rot.conj().T for p in pvm]
        out[theta] = ColoringStrategy(d=d, pvms=pvms)
    return out


def random_coloring(rng: np.random.Generator, graph: GadgetGraph, d: int) -> ColoringStrategy:
    return ColoringStrategy(
        d=d, pvms={v: list(random_pvm(rng, d, 3)) for v in graph.vertices}
    )


# ---------------------------------------------------------------------------
# unitary families


def random_order3_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-conjugated diagonal of cube roots of unity with random multiplicities."""
    return random_order3_families(rng, SimpleGraph(1, ()), d, 1)[0].stack[0]


def random_order3_family(rng: np.random.Generator, g: SimpleGraph, d: int) -> OrderKUnitaryFamily:
    return random_order3_families(rng, g, d, 1)[0]


def random_order3_families(rng: np.random.Generator, g: SimpleGraph, d: int, count: int) -> list:
    """``count`` families of ``random_order3_unitary`` draws at the vertices of g, drawn in
    seed order (per unitary its root multiplicities, then its Ginibre matrix), then
    orthonormalised with one QR, conjugated with one ``matmul`` and checked as one
    stack by ``maxcut._families``."""
    n = g.n_vertices
    counts = np.empty((count * n, 3), dtype=np.int64)
    ginibre = np.empty((count * n, d, d), dtype=np.complex128)
    for i in range(count * n):
        counts[i] = rng.multinomial(d, [1.0 / 3.0] * 3)
        ginibre[i] = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    roots = np.tile([np.exp(2j * np.pi / 3) ** a for a in range(3)], count * n)
    diag = np.repeat(roots, counts.ravel()).reshape(count * n, d)  # row i: omega^a counts[i, a] times
    q = _haar_from_ginibre(ginibre)
    del ginibre
    # At d = 1 each entry is multiplied alone, as one draw multiplies it: numpy's vector loop fuses multiply-adds.
    scaled = q * diag[:, None, :] if d > 1 else np.reshape([u * w for u, w in zip(q, diag)], q.shape)
    stack = (scaled @ q.conj().swapaxes(-1, -2)).reshape(count, n, d, d)  # not -1: n may be 0
    del q, scaled  # only the unitaries are held through the power check
    return _families(3, tuple(range(1, n + 1)), stack)


# ---------------------------------------------------------------------------
# randomized instances for the inequality suite


def _twist(rng: np.random.Generator, d: int, theta: float) -> np.ndarray:
    w, u = np.linalg.eigh(random_hermitian(rng, d))
    return (u * np.exp(1j * theta * w)) @ u.conj().T


def _conjugate(u: np.ndarray, mats) -> list:
    return [u @ m @ u.conj().T for m in mats]


#: Family labels emitted by bound_suite_trial, in emission order.
BOUND_FAMILIES = (
    "three-sum-zero",
    "commutator-transfer",
    "quantum-permutation",
    "prism",
    "cutdown-sum",
    "perturb-one",
    "perturb-two",
    "perturb-pvm",
)


def bound_suite_trial(rng: np.random.Generator, d: int) -> list:
    """One randomized instance of every certified bound, as (family, report).

    Half the draws are small rotations of exact structures, so both sides of
    each inequality are small and the constants actually matter; the other
    half are unstructured, exercising the bounds far from their sharp regime.
    A bound that fails raises BoundViolation from the construction itself.
    """
    out = []
    theta = float(rng.uniform(0.0, 0.4))

    # A PVM minus a small rotation of itself sums to zero exactly.
    p = random_pvm(rng, d, 3)
    q = _conjugate(_twist(rng, d, theta), p)
    out.append(
        ("three-sum-zero", check_three_sum_zero(*[p[i] - q[i] for i in range(3)]))
    )

    p = random_pvm(rng, d, 3)
    if rng.random() < 0.5:
        b = _conjugate(_twist(rng, d, theta), p)
    else:
        b = list(random_pvm(rng, d, 3))
    out.append(("commutator-transfer", check_commutator_transfer(list(p), b)))

    # Cyclic shifts of one PVM, each row twisted independently: columns
    # almost sum to 1, and the cross mass tracks the twist size.
    p = random_pvm(rng, d, 3)
    rows = [
        _conjugate(_twist(rng, d, theta), [p[(a + x) % 3] for a in range(3)])
        for x in range(3)
    ]
    out.append(("quantum-permutation", check_quantum_permutation(rows)))

    # Grids keep exact column PVMs; the partner is either a row-shifted
    # twist of the same columns or an unrelated draw.
    cols = [random_pvm(rng, d, 3) for _ in range(3)]
    p_grid = [[cols[j][i] for j in range(3)] for i in range(3)]
    if rng.random() < 0.5:
        u = _twist(rng, d, theta)
        q_grid = [
            [u @ cols[j][(i + 1) % 3] @ u.conj().T for j in range(3)] for i in range(3)
        ]
    else:
        qcols = [random_pvm(rng, d, 3) for _ in range(3)]
        q_grid = [[qcols[j][i] for j in range(3)] for i in range(3)]
    out.append(("prism", check_prism(p_grid, q_grid)))

    p = random_pvm(rng, d, 3)
    pb = _conjugate(_twist(rng, d, theta), [p[(a + 1) % 3] for a in range(3)])
    pc = _conjugate(_twist(rng, d, theta), [p[(a + 2) % 3] for a in range(3)])
    out.append(("cutdown-sum", check_cutdown_sum(list(p), pb, pc)))

    if rng.random() < 0.5:
        a = random_positive_contraction(rng, d)
    else:
        t = float(rng.uniform(0.0, 0.5))
        a = (1.0 - t) * random_projection(rng, d) + t * random_projection(rng, d)
    b = spectral_projection_half(a)
    out.append(
        (
            "perturb-one",
            InequalityReport(
                "single-projection rounding",
                two_norm(a - b),
                SPECTRAL_FACTOR * two_norm(a - a @ a),
            ),
        )
    )

    p = random_pvm(rng, d, 3)
    a = p[0]
    if rng.random() < 0.5:
        u = _twist(rng, d, theta)
        b = u @ p[1] @ u.conj().T
    else:
        b = random_projection(rng, d)
    moved = perturb_two(a, b)
    out.append(
        (
            "perturb-two",
            InequalityReport(
                "orthogonalized-projection distance",
                two_norm(b - moved),
                PERTURB_TWO_FACTOR * two_norm(a @ b),
            ),
        )
    )

    count = int(rng.integers(2, 6))
    p = random_pvm(rng, d, count)
    if rng.random() < 0.5:
        twists = [_twist(rng, d, theta) for _ in range(count)]
        inputs = [u @ m @ u.conj().T for u, m in zip(twists, p)]
    else:
        t = float(rng.uniform(0.0, 0.3))
        q = random_pvm(rng, d, count)
        inputs = [(1.0 - t) * a + t * b for a, b in zip(p, q)]
    _, reports = perturb_pvm_with_reports(inputs)
    out.extend(("perturb-pvm", r) for r in reports)
    return out
