"""The benchmark's tracer (perfbench/tracer.py) times each layer through a
named function of pareto_prune and reads the arguments and results of some
of them.  A name the program no longer has, or a hook that no longer finds
what it reads, turns that layer's metrics into "absent" or wrong counts,
which only the benchmark's own suite would notice; this checks both from
the main suite."""

import importlib

import pytest

import pareto_prune as pp
from pareto_prune import cli  # the tracer hooks only modules already imported
from conftest import load_perfbench

(tracing,) = load_perfbench("tracer")
ENTRY_POINTS = tracing.ENTRY_POINTS


@pytest.mark.parametrize("span", sorted(ENTRY_POINTS))
def test_entry_point_resolves(span):
    modname, attr = ENTRY_POINTS[span]
    assert modname == "pareto_prune" or modname.startswith("pareto_prune.")
    module = importlib.import_module(modname)
    assert callable(getattr(module, attr, None)), f"{span}: {modname}.{attr} is missing"


def test_traced_run_measures_every_metric(tmp_path):
    tracer = tracing.Tracer().install()
    try:
        spec = tracer.wrap_spec(pp.get_problem("toy-constrained"))
        report = pp.run_pipeline(spec, beta=3, phases="ab")
        path = tmp_path / "r.json"
        cli.write_report(report, path)
        cli.write_front_csv(report, tmp_path / "f.csv")
    finally:
        tracer.uninstall()
    values, absent = tracer.metrics(report, path.stat().st_size)
    assert absent == []
    nlp = report.nlp
    assert tracer.solves_by_phase() == {"a1": nlp.a1, "a2": nlp.a2, "b1": nlp.b1, "b3": nlp.b3}
    assert values["solver.solve.calls"] == nlp.total
    assert values["solver.descent.escalations"] > 0
