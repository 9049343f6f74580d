"""Pruning-based Pareto front generation for mixed-discrete bi-objective
optimization: per-realization decomposition, utopia- and center-point
pruning, and an exhaustive oracle for validation.

The package exports what a pipeline user calls.  The per-phase operations
live in their modules: ``pareto_prune.decomposition`` (anchors, centers,
subproblem fronts) and ``pareto_prune.pipeline`` (the phases)."""

from .benchmarks import (
    REGISTRY,
    get_problem,
    make_e1,
    make_e2,
    make_quad,
    make_toy_constrained,
    oracle_front,
)
from .core import ProblemSpec, Realization, nondominated_filter
from .decomposition import CapacityExceeded, enumerate_realizations
from .pipeline import NlpCounts, PipelineError, PruneReport, run_pipeline
from .solver import SolverConfig

__version__ = "0.1.0"

__all__ = [
    "CapacityExceeded",
    "NlpCounts",
    "PipelineError",
    "ProblemSpec",
    "PruneReport",
    "REGISTRY",
    "Realization",
    "SolverConfig",
    "enumerate_realizations",
    "get_problem",
    "make_e1",
    "make_e2",
    "make_quad",
    "make_toy_constrained",
    "nondominated_filter",
    "oracle_front",
    "run_pipeline",
]
