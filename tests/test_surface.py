"""The package's public surface: it exports what a pipeline user calls,
and every name a module lists in ``__all__`` exists."""

import importlib
import inspect

import pytest

import pareto_prune as pp

PUBLIC = [
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


def test_package_exports_the_pipeline_surface():
    assert sorted(pp.__all__) == PUBLIC


@pytest.mark.parametrize("module", ["pareto_prune", "pareto_prune.benchmarks",
                                    "pareto_prune.cli", "pareto_prune.core",
                                    "pareto_prune.decomposition", "pareto_prune.pipeline",
                                    "pareto_prune.solver"])
def test_every_listed_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


@pytest.mark.parametrize("name", sorted(pp.REGISTRY))
def test_registry_factories_take_no_arguments(name):
    assert inspect.signature(pp.REGISTRY[name]).parameters == {}
