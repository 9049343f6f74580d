"""The package's public surface: it exports what a pipeline user calls,
every name a module lists in ``__all__`` exists, no module imports a
later layer, and the README's Python examples run."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import pareto_prune as pp

PUBLIC = [
    "CapacityExceeded",
    "NlpCounts",
    "PipelineError",
    "ProblemSpec",
    "PruneReport",
    "REGISTRY",
    "SolverConfig",
    "get_problem",
    "make_e1",
    "make_e2",
    "make_quad",
    "make_toy_constrained",
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


# the package's modules, lowest layer first
LAYERS = ["core", "solver", "decomposition", "pipeline", "benchmarks", "cli"]


def _imported_modules(path: Path) -> set[str]:
    """The package modules the source file ``path`` imports: "x" for
    pareto_prune.x, and "__init__" for the package or a name it holds."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["pareto_prune" if node.level else "", node.module]))
            names += [f"{base}.{a.name}" for a in node.names]
    out = set()
    for parts in (name.split(".") for name in names):
        if parts[0] == "pareto_prune":
            out.add(parts[1] if len(parts) > 1 and parts[1] in LAYERS else "__init__")
    return out


def test_module_layers():
    src = Path(pp.__file__).parent
    assert sorted(p.stem for p in src.glob("*.py")) == sorted(LAYERS + ["__init__"])
    later = {}
    for i, name in enumerate(LAYERS):
        bad = _imported_modules(src / f"{name}.py") & set(LAYERS[i + 1:] + ["__init__"])
        if bad:
            later[name] = sorted(bad)
    assert later == {}


def _names_from_core(path: Path) -> set[str]:
    """The names the source file ``path`` imports from pareto_prune.core,
    and "core" itself where it imports the module."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["pareto_prune" if node.level else "", node.module]))
            if base == "pareto_prune.core":
                out.update(a.name for a in node.names)
            elif base == "pareto_prune":
                out.update("core" for a in node.names if a.name == "core")
        elif isinstance(node, ast.Import):
            out.update("core" for a in node.names if a.name == "pareto_prune.core")
    return out


def test_solver_reads_no_report_type():
    # the solver works on arrays: the problem and the k -> z rule are all it
    # takes from core, no point, realization or front type
    src = Path(pp.__file__).parent
    assert _names_from_core(src / "solver.py") == {"ProblemSpec", "_z_rows"}


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # every ```python block, in order, in one namespace, as a reader would
    # paste them: the documented API cannot drift from the code
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 3
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
