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
from conftest import load_perfbench, make_nan_offset_problem

(tracing,) = load_perfbench("tracer")
ENTRY_POINTS = tracing.ENTRY_POINTS


@pytest.mark.parametrize("span", sorted(ENTRY_POINTS))
def test_entry_point_resolves(span):
    modname, attr = ENTRY_POINTS[span]
    assert modname == "pareto_prune" or modname.startswith("pareto_prune.")
    module = importlib.import_module(modname)
    assert callable(getattr(module, attr, None)), f"{span}: {modname}.{attr} is missing"


def _e2_k16():
    (workloads,) = load_perfbench("workloads")
    return workloads.make_e2_k16()


# toy-constrained escalates penalties; on e2-k16 (separable, beta 21) every
# B-1 and B-3 solve is a lookup of a solve an earlier phase finished; on
# nan-offset (separable) both A-1 solves of realization 3 end without a
# finite objective point
TRACED_RUNS = {
    "toy-constrained": (lambda: pp.get_problem("toy-constrained"), 3),
    "e2-k16": (_e2_k16, 21),
    "nan-offset": (lambda: make_nan_offset_problem(separable=True), 3),
}


@pytest.mark.parametrize("name", sorted(TRACED_RUNS))
def test_traced_run_measures_every_metric(tmp_path, name):
    make, beta = TRACED_RUNS[name]
    tracer = tracing.Tracer().install()
    try:
        spec = tracer.wrap_spec(make())
        report = pp.run_pipeline(spec, beta=beta, phases="ab")
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
    if name == "toy-constrained":
        assert values["solver.descent.escalations"] > 0
    if name == "nan-offset":
        assert report.infeasible == (3,)
        assert values["solver.solve.infeasible"] == 2
