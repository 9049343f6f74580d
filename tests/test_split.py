"""The declared split of a problem's objectives: objectives(y, z) ==
base_objectives(y, z[base_z]) + offsets(z).  A spec refuses a declaration
it cannot use, a run refuses a split that does not hold before its first
solve (the CLI exits 2), and declaring a true split moves no bit of a
report or of a solve's objectives, under numpy's default SIMD dispatch and
without AVX-512."""

import dataclasses
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune import benchmarks, pipeline, solver
from pareto_prune.cli import main
from pareto_prune.core import _z_rows
from pareto_prune.decomposition import SPLIT_RTOL, check_split
from conftest import NO_AVX512, load_perfbench
from test_report_digests import report_digest

workloads, = load_perfbench("workloads")


def _shift_objectives(y, z):
    v, c = np.asarray(y, dtype=float)[..., 0], np.asarray(z, dtype=float)[..., 0]
    return np.stack([v * v + c / 3.0, (v - 1.0) * (v - 1.0) + c / 7.0], axis=-1)


def _shift_base(y, zb):
    v = np.asarray(y, dtype=float)[..., 0]
    return np.stack([v * v, (v - 1.0) * (v - 1.0)], axis=-1)


def _shift_offsets(z):
    c = np.asarray(z, dtype=float)[..., 0]
    return np.stack([c / 3.0, c / 7.0], axis=-1)


def make_shift(**changes) -> pp.ProblemSpec:
    """The quad pair on [0, 1] shifted by (c/3, c/7) at c in {1, 2, 3},
    declared as its exact split."""
    spec = pp.ProblemSpec(name="shift", n_y=1, bounds=((0.0, 1.0),),
                          discrete_sets=((1.0, 2.0, 3.0),), objectives=_shift_objectives,
                          vectorized=True, base_objectives=_shift_base, offsets=_shift_offsets)
    return dataclasses.replace(spec, **changes)


def _e1_offsets_doubled():
    e1 = pp.make_e1()
    return dataclasses.replace(e1, offsets=lambda z: 2.0 * e1.offsets(z))


def _e2_base_doubling_j2():
    e2 = pp.make_e2()
    return dataclasses.replace(
        e2, base_objectives=lambda y, zb: e2.base_objectives(y, zb) * np.array([1.0, 2.0]))


def _e1_base_z_omits_p():
    return dataclasses.replace(pp.make_e1(), base_z=())  # its base reads z[..., 0]


def _e1_base_z_reads_q():
    # p = q at e1's first, middle and last realizations: only a step in
    # one coordinate tells them apart
    return dataclasses.replace(pp.make_e1(), base_z=(1,))


WRONG = {
    "e1 offsets doubled": (_e1_offsets_doubled, r"objectives of problem 'e1' differ from "
                           r"base_objectives\(y, z\[base_z\]\) \+ offsets\(z\) \(base_z = "
                           r"\(0,\)\) by a relative .* in j[12] at y = \(.*,\), z = \(.*\) "
                           r"\(realization \d+\)"),
    "e2 base doubles j2": (_e2_base_doubling_j2, r"objectives of problem 'e2' differ .* in j2 "
                           r"at y = \(.*\), z = \(.*\) \(realization \d+\)"),
    "e1 base_z omits p": (_e1_base_z_omits_p, r"the evaluators of problem 'e1' fail on its split "
                          r"\(base_z = \(\)\): IndexError"),
    "e1 base_z reads q": (_e1_base_z_reads_q, r"objectives of problem 'e1' differ .* \(base_z = "
                          r"\(1,\)\) .* z = \(-(4\.0, -5|5\.0, -4)\.0\) \(realization (2|12)\)"),
}


_REFUSED = (r"base_objectives and offsets are declared together or not at all, and a "
            r"non-empty base_z needs them")


class TestDeclaration:
    @pytest.mark.parametrize("base_z", [(2,), (-1,), (0, 2), (True,), (0.0,), ("0",)])
    def test_base_z_outside_the_discrete_variables(self, base_z):
        with pytest.raises(ValueError, match=r"base_z entries must be integers in range\(1\)"):
            make_shift(base_z=base_z)

    def test_base_z_is_a_tuple_of_ints(self):
        assert make_shift(base_z=[np.int64(0)]).base_z == (0,)
        assert pp.make_e1().base_z == (0,) and pp.make_e2().base_z == ()
        assert pp.make_quad().base_z == () and pp.make_quad().offsets is None

    @pytest.mark.parametrize("changes", [{"offsets": _shift_offsets}, {"base_z": (0,)}])
    def test_a_split_needs_its_base(self, changes):
        with pytest.raises(ValueError, match=_REFUSED):
            make_shift(**{"base_objectives": None, "offsets": None, **changes})

    def test_a_base_needs_its_offsets(self):
        for changes in ({}, {"base_z": (0,)}):
            with pytest.raises(ValueError, match=_REFUSED):
                make_shift(offsets=None, **changes)
        with pytest.raises(ValueError, match=_REFUSED):
            dataclasses.replace(pp.make_e2(), offsets=None)

    def test_building_a_spec_evaluates_nothing(self):
        calls = []
        spec = make_shift(objectives=lambda y, z: calls.append(1) or _shift_objectives(y, z))
        dataclasses.replace(spec, name="again")
        assert calls == []


class TestCheckSplit:
    @pytest.mark.parametrize("name", sorted(pp.REGISTRY))
    def test_registry_problems_pass(self, name):
        check_split(pp.get_problem(name))

    @pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
    def test_workload_problems_pass(self, workload):
        for seed in (0, 1):
            check_split(workloads.build_spec(workload, seed))

    @pytest.mark.parametrize("case", sorted(WRONG))
    def test_a_wrong_split_raises(self, case):
        make, message = WRONG[case]
        with pytest.raises(ValueError, match=message):
            check_split(make())

    @pytest.mark.parametrize("case", sorted(WRONG))
    def test_a_wrong_split_stops_the_run_before_any_descent(self, case, monkeypatch):
        descents = []
        monkeypatch.setattr(solver, "_descent", lambda *a, **k: descents.append(1))
        with pytest.raises(ValueError, match=WRONG[case][1]):
            pp.run_pipeline(WRONG[case][0](), beta=5)
        assert descents == []

    @pytest.mark.parametrize("case", ["e1 offsets doubled", "e2 base doubles j2",
                                      "e1 base_z reads q"])
    def test_unchecked_the_wrong_split_gives_another_front(self, case, monkeypatch):
        # what the check prevents: a run that exits normally with a wrong front
        want = pp.run_pipeline(pp.get_problem(case[:2]), beta=11, phases="a")
        monkeypatch.setattr(pipeline, "check_split", lambda spec: None)
        got = pp.run_pipeline(WRONG[case][0](), beta=11, phases="a")
        assert (got.front.pts.tolist(), got.k1c) != (want.front.pts.tolist(), want.k1c)

    @pytest.mark.parametrize("scale,ok", [(1.0 + 1e-12, True), (1.0 + 1e-10, True),
                                          (1.0 + 1e-7, False), (1.0 - 1e-6, False)])
    def test_relative_tolerance(self, scale, ok):
        spec = make_shift(offsets=lambda z: _shift_offsets(z) * scale)
        assert SPLIT_RTOL == 1e-9
        if ok:
            check_split(spec)
        else:
            with pytest.raises(ValueError, match=r"objectives of problem 'shift' differ"):
                check_split(spec)

    def test_nan_must_meet_nan(self):
        def nan_at_3(y, z):
            out = _shift_objectives(y, z)
            return np.where(np.asarray(z)[..., :1] == 3.0, np.nan, out)

        with pytest.raises(ValueError, match=r"at y = \(0\.0,\), z = \(3\.0,\) \(realization 3\)"
                                             r": nan against"):
            check_split(make_shift(objectives=nan_at_3))
        check_split(make_shift(objectives=nan_at_3, offsets=lambda z: _shift_offsets(z)
                               + np.where(np.asarray(z)[..., :1] == 3.0, np.nan, 0.0)))

    def test_scalar_evaluators(self):
        spec = make_shift(vectorized=False)
        check_split(spec)
        with pytest.raises(ValueError, match=r"objectives of problem 'shift' differ"):
            check_split(dataclasses.replace(spec, offsets=lambda z: _shift_offsets(z) + 1.0))

    def test_a_problem_without_base_is_not_checked(self):
        calls = []
        spec = make_shift(base_objectives=None, offsets=None,
                          objectives=lambda y, z: calls.append(1) or _shift_objectives(y, z))
        check_split(spec)
        assert calls == []

    def test_a_run_checks_once(self):
        calls = {"objectives": 0, "offsets": 0}

        def counted(field, fn):
            def wrapper(*args):
                calls[field] += 1
                return fn(*args)
            return wrapper

        e1 = pp.make_e1()
        spec = dataclasses.replace(e1, **{f: counted(f, getattr(e1, f)) for f in calls})
        report = pp.run_pipeline(spec, beta=5, phases="ab")
        assert calls["objectives"] == 1  # the check alone; no solve evaluates them
        assert calls["offsets"] == 2  # the check's, then the solver's, once per run
        assert report.nlp.total > 0

    @pytest.mark.parametrize("case", sorted(WRONG))
    def test_cli_exits_2(self, case, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(benchmarks.REGISTRY, case[:2], WRONG[case][0])
        report = tmp_path / "r.json"
        code = main(["run", "--problem", case[:2], "--beta", "5", "--report", str(report)])
        assert code == 2
        assert re.match("error: " + WRONG[case][1], capsys.readouterr().err)
        assert not report.exists()


def _undeclared_e1() -> pp.ProblemSpec:
    """e1 without its declared split."""
    return dataclasses.replace(pp.make_e1(), base_objectives=None, base_z=(), offsets=None)


def _run_checking_each_solve(spec: pp.ProblemSpec, **run) -> pp.PruneReport:
    """``run_pipeline(spec, **run)``, asserting that every solve the run
    poses has objectives bit-equal to objectives(y, z) at its point y and
    realization z.  Where descents are shared by weight, no undeclared
    problem descends as the declared one does, so this is the check."""
    posed = []
    solve = solver.Solver.solve

    def kept(self, ks, weights):
        y, pts = solve(self, ks, weights)
        posed.append((np.repeat(_z_rows(spec, ks), len(weights), axis=0),
                      y.reshape(-1, spec.n_y), pts.reshape(-1, 2)))
        return y, pts

    solver.Solver.solve = kept
    try:
        report = pp.run_pipeline(spec, **run)
    finally:
        solver.Solver.solve = solve
    z, y, pts = (np.concatenate(a) for a in zip(*posed))
    assert pts.tobytes() == solver._evaluate(spec, "objectives", y, z).tobytes()
    return report


@pytest.mark.parametrize("phases", ["ab", "a", "none"])
@pytest.mark.parametrize("name", ["e1", "e2"])
def test_declaring_the_split_moves_no_bit(name, phases):
    # e1 also against itself undeclared; e2's declared descents are shared
    report = _run_checking_each_solve(pp.get_problem(name), beta=21, phases=phases)
    if name == "e1":
        undeclared = pp.run_pipeline(_undeclared_e1(), beta=21, phases=phases)
        assert report_digest(report) == report_digest(undeclared)


def _shift_constraint(y, z):
    return 0.25 - np.asarray(y, dtype=float)[..., :1]  # v >= 0.25, active at the j2 anchor


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("constrained", [False, True])
def test_declaring_offsets_moves_no_bit(vectorized, constrained):
    # where descents are shared by weight (an empty base_z, no constraints)
    # they run on the base alone, and each solve's objectives are checked;
    # every other declared problem descends per (k, w) with its offsets, as
    # undeclared.  Scalar offsets are called a row at a time; escalations
    # carry them too
    changes = {"vectorized": vectorized}
    if constrained:
        changes["inequality_constraints"] = _shift_constraint
    plain = make_shift(base_objectives=None, offsets=None, **changes)
    for declared in (make_shift(**changes), make_shift(base_z=(0,), **changes)):
        for phases in ("ab", "none"):
            if declared.base_z or constrained:
                assert (report_digest(pp.run_pipeline(declared, beta=5, phases=phases))
                        == report_digest(pp.run_pipeline(plain, beta=5, phases=phases)))
            else:
                _run_checking_each_solve(declared, beta=5, phases=phases)


_NO_AVX512 = """
import sys
sys.path[:0] = sys.argv[1:]
import pareto_prune as pp
from test_report_digests import report_digest
from test_split import _run_checking_each_solve, _undeclared_e1
for name in ("e1", "e2"):
    for phases in ("ab", "a", "none"):
        for eps in (0.0, 0.01):
            a = report_digest(_run_checking_each_solve(pp.get_problem(name), beta=21,
                                                       phases=phases, eps=eps))
            b = a if name == "e2" else report_digest(pp.run_pipeline(
                _undeclared_e1(), beta=21, phases=phases, eps=eps))
            print(name, phases, eps, a == b)
"""


def test_declaring_the_split_moves_no_bit_without_avx512():
    # numpy rounds exp, sin and power differently under its AVX-512 and
    # AVX2 kernels; the split must hold under both, not on one host's
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(pp.__file__)))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    proc = subprocess.run([sys.executable, "-c", _NO_AVX512, here, src], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")[:-1]
    assert len(lines) == 12 and all(line.endswith(" True") for line in lines), proc.stdout
