"""Gadget-graph reduction compiler and numerical verifier.

Synchronous games compile to 3-coloring instances; finite-dimensional
strategies translate across the reduction in both directions with
certified value bounds, and the Max-3-Cut identities tie coloring values
to order-3 unitary labelings.
"""

from .errors import BoundViolation, ValidationError
from .forward import certify_forward, coloring_value, forward_translate
from .games import (
    ColoringStrategy,
    GameStrategy,
    PriorDistribution,
    SyncGame,
    ValueReport,
    coloring_game,
    load_coloring_strategy,
    load_game,
    load_game_strategy,
    sync_value,
)
from .graphs import GadgetGraph, build_graph, edge_count_formula, export_graph
from .linalg import require_pvm, two_norm
from .maxcut import (
    OrderKUnitaryFamily,
    SimpleGraph,
    complete_graph,
    cycle_graph,
    load_simple_graph,
    max3cut_bruteforce,
    pvm_from_unitary,
    roots_identity_check,
    unitary_cut_value,
    unitary_from_pvm,
    value_bridge,
)
from .reverse import (
    aggregate_offcolor_estimate,
    certify_reverse_lemmas,
    compute_diagnostics,
    reverse_translate,
    symmetrize,
)
from .rounding import InequalityReport, perturb_pvm, perturb_two

__version__ = "0.1.0"

__all__ = [
    "BoundViolation",
    "ColoringStrategy",
    "GadgetGraph",
    "GameStrategy",
    "InequalityReport",
    "OrderKUnitaryFamily",
    "PriorDistribution",
    "SimpleGraph",
    "SyncGame",
    "ValidationError",
    "ValueReport",
    "aggregate_offcolor_estimate",
    "build_graph",
    "certify_forward",
    "certify_reverse_lemmas",
    "coloring_game",
    "coloring_value",
    "complete_graph",
    "compute_diagnostics",
    "cycle_graph",
    "edge_count_formula",
    "export_graph",
    "forward_translate",
    "load_coloring_strategy",
    "load_game",
    "load_game_strategy",
    "load_simple_graph",
    "max3cut_bruteforce",
    "perturb_pvm",
    "perturb_two",
    "pvm_from_unitary",
    "require_pvm",
    "reverse_translate",
    "roots_identity_check",
    "symmetrize",
    "sync_value",
    "two_norm",
    "unitary_cut_value",
    "unitary_from_pvm",
    "value_bridge",
]
