"""Tests of the benchmark itself: the workloads, the output check, the
measuring loop and the tracer.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pareto_prune as pp  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _doc(report: pp.PruneReport) -> dict:
    from pareto_prune.cli import dumps_json

    return json.loads(dumps_json(report.to_json_dict()))


@pytest.fixture(scope="module")
def gen_doc() -> dict:
    spec = workloads.build_spec("gen-constrained", 3)
    return _doc(workloads.run("gen-constrained", spec, 3))


@pytest.fixture(scope="module")
def traced():
    spec = workloads.build_spec("gen-constrained", 3)
    tracer = tracing.Tracer().install()
    try:
        report = workloads.run("gen-constrained", tracer.wrap_spec(spec), 3, workers=1)
    finally:
        tracer.uninstall()
    return tracer, report


class TestGenConstrained:
    def test_deterministic_per_seed(self, gen_doc):
        spec = workloads.build_spec("gen-constrained", 3)
        again = _doc(workloads.run("gen-constrained", spec, 3))
        assert checks.digest(again) == checks.digest(gen_doc)

    def test_seeds_give_different_problems(self):
        a, b = workloads.make_gen_constrained(3), workloads.make_gen_constrained(4)
        assert a.discrete_sets != b.discrete_sets

    def test_every_phase_solves(self, gen_doc):
        nlp = gen_doc["nlp"]
        assert min(nlp["a1"], nlp["a2"], nlp["b1"], nlp["b3"]) > 0
        assert gen_doc["pruned_a"] and gen_doc["pruned_b"] and not gen_doc["infeasible"]

    def test_passes_the_output_check(self, gen_doc):
        spec = workloads.build_spec("gen-constrained", 3)
        assert checks.check_report(gen_doc, spec, "gen-constrained", 3, checks.digest(gen_doc)) == []


def test_e1_k4_keeps_e1s_contributing_set():
    from pareto_prune.decomposition import realization_from_index

    small, full = workloads.make_e1_k4(), pp.make_e1()
    doc = _doc(workloads.run("e1-oracle", small, 0))
    assert tuple(doc["k1c"]) == workloads.E1_CONTRIBUTING
    assert [realization_from_index(small, k).z for k in doc["k1c"]] == \
        [realization_from_index(full, k).z for k in (49, 60, 61)]


class TestOutputCheck:
    def _problems(self, doc, recorded):
        spec = workloads.build_spec("gen-constrained", 3)
        return checks.check_report(doc, spec, "gen-constrained", 3, recorded)

    def test_rejects_a_wrong_phase_count(self, gen_doc):
        doc = copy.deepcopy(gen_doc)
        doc["nlp"]["b3"] -= 1
        doc["nlp"]["total"] -= 1
        assert any("nlp.b3" in p for p in self._problems(doc, None))

    def test_rejects_a_tampered_objective(self, gen_doc):
        doc = copy.deepcopy(gen_doc)
        doc["front"][0]["j1"] += 1e-9
        assert any("re-evaluates" in p for p in self._problems(doc, None))

    def test_rejects_a_dominated_front_point(self, gen_doc):
        doc = copy.deepcopy(gen_doc)
        worse = copy.deepcopy(doc["front"][0])
        worse["j2"] += 1.0
        doc["front"].append(worse)
        assert any("dominated" in p for p in self._problems(doc, None))

    def test_rejects_a_report_that_differs_from_the_recorded_digest(self, gen_doc):
        recorded = checks.digest(gen_doc)
        doc = copy.deepcopy(gen_doc)
        doc["pruned_b"] = []
        assert any("digest" in p for p in self._problems(doc, recorded))

    def test_ignores_wallclock(self, gen_doc):
        doc = copy.deepcopy(gen_doc)
        doc["wallclock_ms"] += 1000
        assert checks.digest(doc) == checks.digest(gen_doc)


class TestLoop:
    def test_step_times_a_checked_run(self, tmp_path):
        spec = workloads.build_spec("gen-constrained", 3)
        loop = child.Loop("gen-constrained", 3, str(tmp_path), spec)
        sample = loop.step()
        assert sample["wall_s"] > 0 and loop.doc["nlp"]["total"] == 37

    def test_step_fails_a_report_that_differs_from_the_recorded_digest(self, tmp_path):
        spec = workloads.build_spec("gen-constrained", 3)
        loop = child.Loop("gen-constrained", 3, str(tmp_path), spec)
        loop.recorded = "0" * 64
        with pytest.raises(child.RunFailed, match="digest"):
            loop.step()

    def test_traced_step_reports_layers_and_overhead(self, tmp_path):
        spec = workloads.build_spec("gen-constrained", 3)
        sample = child.Loop("gen-constrained", 3, str(tmp_path), spec).traced_step()
        assert sample["absent"] == []
        assert sample["layers"]["solver.descent.escalations"] > 0
        assert "overhead_s" in sample

    def test_reference_loop_takes_time(self):
        assert child.reference_s() > 0


class TestTracer:
    def test_phase_solves_equal_report_counts(self, traced):
        tracer, report = traced
        nlp = report.nlp
        assert tracer.solves_by_phase() == {"a1": nlp.a1, "a2": nlp.a2, "b1": nlp.b1, "b3": nlp.b3}

    def test_traced_report_is_unperturbed(self, traced, gen_doc):
        assert checks.digest(_doc(traced[1])) == checks.digest(gen_doc)

    def test_layer_metrics(self, traced):
        tracer, report = traced
        values, absent = tracer.metrics(report, 1)
        assert absent == []
        assert values["solver.solve.calls"] == report.nlp.total
        assert values["solver.descent.escalations"] > 0
        assert values["eval.gradient.calls"] == 0
        assert values["pipeline.b3_s"] > 0

    def test_uninstall_restores_the_program(self, traced):
        import pareto_prune.decomposition as decomposition
        import pareto_prune.solver as solver

        assert decomposition.solve_scalarized is solver.solve_scalarized
        assert not hasattr(solver.solve_scalarized, "__wrapped__")

    def test_missing_entry_point_is_absent(self, monkeypatch):
        points = dict(tracing.ENTRY_POINTS, **{"solver.solve": ("pareto_prune.solver", "gone")})
        monkeypatch.setattr(tracing, "ENTRY_POINTS", points)
        tracer = tracing.Tracer().install()
        try:
            report = pp.run_pipeline(tracer.wrap_spec(pp.make_quad()), beta=3, workers=1)
        finally:
            tracer.uninstall()
        values, absent = tracer.metrics(report, 1)
        assert "solver.solve.calls" in absent and "solver.solve.calls" not in values
        assert values["solver.descent.calls"] > 0
        with pytest.raises(tracing.Absent):
            tracer.solves_by_phase()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "e2-ab", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
