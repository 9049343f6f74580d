"""Pruning-based Pareto front generation for mixed-discrete bi-objective
optimization: per-realization decomposition, utopia- and center-point
pruning, and an exhaustive oracle for validation."""

from .benchmarks import (
    REGISTRY,
    TrussConstants,
    get_problem,
    make_e1,
    make_e2,
    make_quad,
    make_toy_constrained,
    oracle_front,
)
from .core import (
    ObjectivePoint,
    ParetoSolution,
    ProblemSpec,
    Realization,
    nondominated_filter,
)
from .decomposition import (
    CapacityExceeded,
    build_subproblem_front,
    compute_anchors_utopia,
    compute_center,
    enumerate_realizations,
    index_of,
    realization_from_index,
)
from .pipeline import (
    NlpCounts,
    PipelineError,
    PruneReport,
    build_master_front,
    master_candidates,
    phase_a,
    phase_b,
    run_pipeline,
)
from .solver import SolverConfig

__version__ = "0.1.0"

__all__ = [
    "CapacityExceeded",
    "NlpCounts",
    "ObjectivePoint",
    "ParetoSolution",
    "PipelineError",
    "ProblemSpec",
    "PruneReport",
    "REGISTRY",
    "Realization",
    "SolverConfig",
    "TrussConstants",
    "build_master_front",
    "build_subproblem_front",
    "compute_anchors_utopia",
    "compute_center",
    "enumerate_realizations",
    "get_problem",
    "index_of",
    "make_e1",
    "make_e2",
    "make_quad",
    "make_toy_constrained",
    "master_candidates",
    "nondominated_filter",
    "oracle_front",
    "phase_a",
    "phase_b",
    "realization_from_index",
    "run_pipeline",
]
