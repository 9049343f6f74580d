"""The benchmark's tracer (perfbench/tracer.py) times each layer through a
named function of pareto_prune.  A name the program no longer has turns
that layer's metrics into "absent", which only the benchmark's own suite
would notice; this checks every traced name from the main suite."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points() -> dict[str, tuple[str, str]]:
    """ENTRY_POINTS of the tracer, loaded by path without writing bytecode."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module.ENTRY_POINTS


ENTRY_POINTS = _entry_points()


@pytest.mark.parametrize("span", sorted(ENTRY_POINTS))
def test_entry_point_resolves(span):
    modname, attr = ENTRY_POINTS[span]
    assert modname == "pareto_prune" or modname.startswith("pareto_prune.")
    module = importlib.import_module(modname)
    assert callable(getattr(module, attr, None)), f"{span}: {modname}.{attr} is missing"
