"""Uncertainty-aware symbolic planning over probabilistic predicate beliefs."""

from beliefplan.core import (
    CertaintyPartition,
    GroundPredicate,
    ProbabilisticState,
    Relation,
    classify,
    fuse_observation,
    parse_predicate,
    predicate_uncertainty,
    reduction_law,
    state_uncertainty_independent,
)

__version__ = "0.1.0"

__all__ = [
    "CertaintyPartition",
    "GroundPredicate",
    "ProbabilisticState",
    "Relation",
    "classify",
    "fuse_observation",
    "parse_predicate",
    "predicate_uncertainty",
    "reduction_law",
    "state_uncertainty_independent",
    "__version__",
]
