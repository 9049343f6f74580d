"""Scalarized solver: pinning, frozen grid-oracle values, counting,
determinism, the multistart set and its fill stream, constraint handling,
the solve's finish, config checks."""

import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune import solver
from pareto_prune.decomposition import (
    compute_anchors_utopia,
    compute_center,
    realization_from_index,
)
from pareto_prune.solver import Solver, SolverConfig, _Batch, _start_points
from conftest import ANCHORS, CENTER, index_of

# minimum of 0.5*J1 + 0.5*J2 over x1 in [-5, 5] for the e1 subproblem with
# z = (0, 0), from a 10^6-point grid search refined to xatol 1e-13
E1_Z00_HALF_SCALAR = -10.916830176953898
E1_Z00_HALF_X = -1.130981400751381


def _first_real(spec):
    return realization_from_index(spec, 1)


class _Solve(NamedTuple):
    """One solve, read from the arrays ``Solver.solve`` returns; j1 and j2
    are NaN where the solve is not feasible."""

    weight: float
    y_star: tuple[float, ...]
    j1: float
    j2: float
    feasible: bool


def _solve(spec, w, config, r=None):
    """The solve of weight w at realization r (the first by default),
    batched on its own."""
    y, pts = solver.Solver(spec, [w], config).solve([(r or _first_real(spec)).k], [w])
    return _Solve(w, tuple(y[0, 0].tolist()), *pts[0, 0].tolist(), not np.isnan(pts[0, 0, 0]))


def _scalar(res):
    """w*J1 + (1-w)*J2 at the point of an unconstrained solve."""
    return res.weight * res.j1 + (1.0 - res.weight) * res.j2


class TestSolveScalarized:
    def test_e2_j1_anchor_pins_lower_bounds(self, e2_spec, config):
        for r in (realization_from_index(e2_spec, k) for k in (1, 1235, 4096)):
            res = _solve(e2_spec, 1.0, config, r)
            assert res.y_star == (2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def test_e2_j2_anchor_pins_upper_bounds(self, e2_spec, config):
        res = _solve(e2_spec, 0.0, config)
        assert res.y_star == (10.0, 10.0, 10.0)

    def test_e1_half_weight_matches_grid_oracle(self, e1_spec, config):
        r = realization_from_index(e1_spec, index_of(e1_spec, (0.0, 0.0)))
        res = _solve(e1_spec, 0.5, config, r)
        assert _scalar(res) == pytest.approx(E1_Z00_HALF_SCALAR, abs=1e-6)
        assert res.y_star[0] == pytest.approx(E1_Z00_HALF_X, abs=1e-4)

    def test_determinism(self, e1_spec, config):
        r = _first_real(e1_spec)
        a = _solve(e1_spec, 0.35, config, r)
        b = _solve(e1_spec, 0.35, config, r)
        assert a == b

    def test_box_respected_exactly(self, e1_spec, e2_spec, config):
        for spec, ws in ((e1_spec, (0.0, 0.3, 1.0)), (e2_spec, (0.0, 0.5, 1.0))):
            lo = spec.lower_bounds()
            hi = spec.upper_bounds()
            for w in ws:
                res = _solve(spec, w, config)
                y = np.array(res.y_star)
                assert np.all(y >= lo) and np.all(y <= hi)

    def test_best_of_all_starts(self, e1_spec, config):
        r = _first_real(e1_spec)
        res = _solve(e1_spec, 0.5, config, r)
        starts = _start_points(e1_spec.bounds, solver.N_STARTS, config.seed)
        raw = e1_spec.objectives(starts, np.repeat([r.z], len(starts), axis=0))
        assert _scalar(res) <= float((0.5 * raw[:, 0] + 0.5 * raw[:, 1]).min()) + 1e-12

    def test_point_is_reevaluation(self, e2_spec, config):
        res = _solve(e2_spec, 0.5, config)
        raw = e2_spec.objectives(np.array([res.y_star]), np.array([_first_real(e2_spec).z]))[0]
        assert res.j1 == raw[0] and res.j2 == raw[1]

    def test_local_optimality_on_smooth_problems(self, e2_spec, quad_spec, config,
                                                 monkeypatch):
        # projected finite-difference gradient (step 1e-6) is small at the
        # solution, except in coordinates pinned at a bound
        for spec, w in ((e2_spec, 0.5), (e2_spec, 0.25), (quad_spec, 0.5)):
            res = _solve(spec, w, config)
            y = np.array(res.y_star)
            with monkeypatch.context() as m:
                m.setattr(solver, "FD_STEP", 1e-6)
                batch = _Batch(spec, np.array([_first_real(spec).z]), [w], 1)
                g = batch._fd_gradient(y[None, :], [0], None)[0]
            lo = spec.lower_bounds()
            hi = spec.upper_bounds()
            proj = y - np.clip(y - g, lo, hi)
            tol = 1e-4 * (1.0 + abs(_scalar(res)))
            for d in range(len(y)):
                at_bound = min(y[d] - lo[d], hi[d] - y[d]) <= solver.STEP_TOL
                assert abs(proj[d]) <= tol or at_bound


class TestSolveCounter:
    def test_reset_and_count(self, quad_spec, config, solve_log):
        r = _first_real(quad_spec)
        assert solve_log.calls == 0
        for _ in range(3):
            compute_center(Solver(quad_spec, CENTER, config), [r.k])[0]
        assert solve_log.calls == 3
        solve_log.reset()
        compute_anchors_utopia(Solver(quad_spec, ANCHORS, config), [r.k])[0]
        assert solve_log.calls == 2

    def test_one_call_counts_one_despite_multistart(self, e2_spec, solve_log):
        compute_center(Solver(e2_spec, CENTER), [_first_real(e2_spec).k])[0]
        assert solve_log.calls == 1

    def test_concurrent_solves_count_and_match_serial(self, e1_spec, config):
        from concurrent.futures import ThreadPoolExecutor

        reals = [realization_from_index(e1_spec, k) for k in range(1, 13)]
        serial = [_solve(e1_spec, 0.5, config, r) for r in reals]
        with ThreadPoolExecutor(max_workers=4) as ex:
            threaded = list(ex.map(lambda r: _solve(e1_spec, 0.5, config, r), reals))
        assert threaded == serial


class TestStartPoints:
    def test_deterministic_and_capped(self):
        bounds = ((-1.0, 1.0), (0.0, 2.0))
        a = _start_points(bounds, 16, seed=3)
        b = _start_points(bounds, 16, seed=3)
        assert a.shape == (16, 2)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, _start_points(bounds, 16, seed=4))

    def test_corners_present(self):
        pts = _start_points(((-5.0, 5.0),), 16, seed=0)
        assert pts.shape == (16, 1)
        assert -5.0 in pts[:, 0] and 5.0 in pts[:, 0]
        assert np.unique(pts[:, 0]).size == 16

    def test_single_start(self):
        pts = _start_points(((0.0, 1.0),), 1, seed=0)
        assert pts.shape == (1, 1)


# seeds past 2**128 have more than four 32-bit words, which SeedSequence
# mixes into its pool after the first four
_STREAM_SEEDS = [*range(1000), 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 99, 10**40,
                 np.int64(7), np.uint64(2**63)]


def _reference_start_points(bounds, n, seed):
    """The multistart set with its fill drawn by numpy.random itself: the
    reference for the solver's own copy of that stream."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    ny = len(bounds)
    rows = [lo, hi]
    if n > 2:
        m = 1
        while (m + 1) ** ny <= n - 2:
            m += 1
        if m >= 1 and m ** ny <= n - 2:
            axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(1, m + 1) / (m + 1.0)) for d in range(ny)]
            for combo in itertools.product(*axes):
                rows.append(np.array(combo))
    pts = np.array(rows[:n])
    if pts.shape[0] < n:
        rng = np.random.default_rng(seed)
        fill = lo + (hi - lo) * rng.random((n - pts.shape[0], ny))
        pts = np.vstack([pts, fill])
    return pts


class TestUniformStream:
    """``solver._uniform`` is numpy's default_rng stream, bit for bit."""

    @pytest.mark.parametrize("k", range(1, 19))
    def test_equals_default_rng(self, k):
        for seed in _STREAM_SEEDS:
            got = np.array(solver._uniform(seed, k))
            assert np.array_equal(got, np.random.default_rng(seed).random(k)), seed

    # (n_y, corner and lattice starts, fill starts) at N_STARTS = 16: e1,
    # gen-constrained, e2, and a box whose lattice is its centre alone
    @pytest.mark.parametrize("ny, lattice, fill", [(1, 16, 0), (2, 11, 5), (3, 10, 6),
                                                   (10, 3, 13)])
    def test_start_points_equal_reference(self, ny, lattice, fill):
        bounds = tuple((-1.0 - d, 2.0 + 0.5 * d) for d in range(ny))
        n = solver.N_STARTS
        for seed in (0, 1, 5, 2**64 + 3, np.int64(7)):
            got = _start_points(bounds, n, seed)
            assert got.dtype == np.float64
            assert np.array_equal(got, _reference_start_points(bounds, n, seed))
        # the seed moves every fill start and no other
        a, b = _start_points(bounds, n, 0), _start_points(bounds, n, 9)
        assert len(a) == lattice + fill
        assert len(np.unique(a[:lattice], axis=0)) == lattice
        assert np.array_equal(a[:lattice], b[:lattice])
        assert (a[lattice:] != b[lattice:]).all()


# numpy modules a run must not load: numpy.random (the multistart fill draws
# its own stream) and numpy.ma (some of numpy's set routines, np.setdiff1d
# among them, import it, at 0.3-0.9 MB of peak RSS per run)
_LAZY_NUMPY = """
import sys
import numpy
lazy = [name for name in ("numpy.random", "numpy.ma") if name not in sys.modules]
print("lazy", *lazy)
import pareto_prune as pp
from pareto_prune import cli
from pareto_prune.benchmarks import make_e2
import dataclasses
e2 = make_e2()
catalogue = e2.discrete_sets[0]
spec = dataclasses.replace(e2, name="e2-k16", discrete_sets=(catalogue, catalogue) + ((5.0,),) * 4)
report = pp.run_pipeline(spec, beta=3, phases="ab", config=pp.SolverConfig(seed=5))
assert report.k_total == 16, report.k_total
assert not set(lazy) & set(sys.modules), ("run_pipeline", set(lazy) & set(sys.modules))
code = cli.main(["run", "--problem", "e2", "--beta", "3", "--seed", "5",
                 "--report", sys.argv[1], "--front", sys.argv[2]])
assert code == 0, code
assert not set(lazy) & set(sys.modules), ("cli", set(lazy) & set(sys.modules))
print("ok")
"""


def test_runs_leave_numpy_random_unloaded(tmp_path):
    """A seeded run with a multistart fill (e2, n_y = 3), in process and
    through the CLI, never imports numpy.random or numpy.ma; a module this
    numpy imports with numpy itself is not checked."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_NUMPY, str(tmp_path / "r.json"),
         str(tmp_path / "f.csv")],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    if lines[0] == "lazy":
        pytest.skip("this numpy imports numpy.random and numpy.ma with numpy")
    assert lines[-1] == "ok"


class TestConstraintHandling:
    def test_active_constraint_reaches_feasibility(self, toy_spec, config):
        res = _solve(toy_spec, 0.0, config)
        assert res.feasible
        assert res.y_star[0] == pytest.approx(0.25, abs=1e-6)
        assert res.j1 == pytest.approx(0.5625, abs=1e-5)
        assert res.j2 == pytest.approx(1.5625, abs=1e-5)

    def test_inactive_constraint_untouched(self, toy_spec, config):
        res = _solve(toy_spec, 1.0, config)
        assert res.feasible
        assert res.y_star[0] == pytest.approx(1.0, abs=1e-7)


class TestNanHandling:
    @staticmethod
    def _make_spec(region):
        def objs(y, z):
            y = np.asarray(y, dtype=float)
            v = y[..., 0]
            j1 = np.where(region(v), np.nan, v ** 2)
            return np.stack([j1, (v - 1.0) ** 2], axis=-1)

        return pp.ProblemSpec(
            name="nanny", n_y=1, bounds=((0.0, 1.0),), discrete_sets=((0.0,),),
            objectives=objs, vectorized=True,
        )

    def test_partial_nan_starts_discarded(self, config):
        # the starts with v > 0.5 have no finite value; the winner is the
        # finite optimum v = 0 that the others reach
        spec = self._make_spec(lambda v: v > 0.5)
        r = _first_real(spec)
        starts = _start_points(spec.bounds, solver.N_STARTS, config.seed)
        assert np.isnan(spec.objectives(starts, r.z)[:, 0]).any()
        res = _solve(spec, 1.0, config, r)
        assert res.feasible
        assert res.y_star[0] == pytest.approx(0.0, abs=1e-4)
        assert res.j1 == pytest.approx(0.0, abs=1e-9)

    def test_all_nan_is_infeasible_and_counts(self, config, solve_log):
        spec = self._make_spec(lambda v: v >= -1.0)
        r = _first_real(spec)
        res = _solve(spec, 1.0, config, r)
        assert res.feasible is False and math.isnan(res.j1) and math.isnan(res.j2)
        center = compute_center(Solver(spec, CENTER, config), [r.k])
        assert center.shape == (1, 2) and np.isnan(center).all()
        assert solve_log.calls == 1


class TestSolverConfigValidation:
    def test_seed_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["seed"]

    @pytest.mark.parametrize("field, value", [
        ("seed", float("nan")), ("seed", 3.0), ("seed", "3"),
    ])
    def test_integer_fields(self, field, value):
        message = re.escape(f"{field} must be an integer, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            SolverConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        # kept as Python ints, so a report holds plain values only
        for seed, want in ((np.uint8(3), 3), (np.int64(4), 4)):
            assert type(SolverConfig(seed=seed).seed) is int
            assert SolverConfig(seed=seed).seed == want


class TestKsOutOfRange:
    @pytest.mark.parametrize("make", [pp.make_e1, pp.make_e2], ids=["e1", "e2"])  # e2 shared
    @pytest.mark.parametrize("where", ["zero", "negative", "past"])
    def test_refused_before_any_cell_is_written(self, make, where, config):
        # mixed radix would read k 0 and -3 as neighbours of k |K|, and
        # numpy index k - 1 from the end of the table
        spec = make()
        n = spec._k_total
        k = {"zero": 0, "negative": -3, "past": n + 1}[where]
        run = Solver(spec, ANCHORS, config)
        run.solve([1], [1.0])
        table = run._table.copy()
        message = f"^ks must be in 1..{n}, got ks from "
        with pytest.raises(ValueError, match=message):
            run.solve([2, k], [1.0])
        with pytest.raises(ValueError, match=message):
            compute_anchors_utopia(run, np.array([k, 2]))
        assert run._table.tobytes() == table.tobytes()

    @pytest.mark.parametrize("ks, dtype", [([1.7], "float64"), ([1.0], "float64"),
                                           (np.array([True]), "bool")],
                             ids=["float", "integral-float", "bool"])
    def test_non_integer_ks_refused(self, ks, dtype, config):
        # int64 conversion would truncate 1.7 and read True as realization 1
        run = Solver(pp.make_quad(), [1.0], config)
        table = run._table.copy()
        with pytest.raises(ValueError, match=f"^ks must be integers, got dtype {dtype}$"):
            run.solve(ks, [1.0])
        assert run._table.tobytes() == table.tobytes()

    def test_non_integer_ks_refused_by_an_operation(self, config):
        run = Solver(pp.make_e1(), ANCHORS, config)
        table = run._table.copy()
        with pytest.raises(ValueError, match="^ks must be integers, got dtype float64$"):
            compute_anchors_utopia(run, np.array([2.5]))
        assert run._table.tobytes() == table.tobytes()

    def test_no_ks(self, e1_spec, config):
        y, pts = Solver(e1_spec, ANCHORS, config).solve([], [1.0])
        assert y.shape == (0, 1, e1_spec.n_y) and pts.shape == (0, 1, 2)


class TestFinish:
    def test_constraints_evaluated_once_at_the_final_point(self, toy_spec, config,
                                                          monkeypatch):
        # w >= 0.75 ends at y = 2w - 1 >= 0.5, where the constraint y >= 0.25
        # is inactive: no escalation (which would evaluate g at further
        # points), so the finish of the whole batch is one constraint pass
        # at its winners
        calls: list[np.ndarray] = []
        _finish = solver._finish

        def finish_logged(*args):
            calls.clear()  # the descents' calls are done; log the finish's
            return _finish(*args)


        def logged(y, z):
            calls.append(np.array(y))
            return toy_spec.inequality_constraints(y, z)

        spec = dataclasses.replace(toy_spec, inequality_constraints=logged,
                                   discrete_sets=((0.0, 1.0, 2.0),))
        ks = np.arange(1, spec._k_total + 1)
        monkeypatch.setattr(solver, "_finish", finish_logged)
        y, pts = solver.Solver(spec, (0.75, 1.0), config).solve(ks, (0.75, 1.0))
        assert not np.isnan(pts).any()  # every solve feasible
        assert len(calls) == 1
        assert calls[0].tolist() == y.reshape(-1, 1).tolist()  # k-major

    @pytest.mark.parametrize("pc", [1.0, 1e6, 3e9])
    def test_config_penalty_is_the_descent_penalty(self, toy_spec, pc):
        # y = -1 violates 0.25 - y <= 0 by 1.25; without a coefficient the
        # descent penalizes with PENALTY_COEFFICIENT (1e6)
        r = _first_real(toy_spec)
        ys = np.array([[-1.0], [0.5]])
        batch = _Batch(toy_spec, np.array([r.z]), [0.3], 2)
        raw = toy_spec.objectives(ys, np.repeat([r.z], 2, axis=0))
        want = 0.3 * raw[:, 0] + 0.7 * raw[:, 1] + pc * np.array([1.25 ** 2, 0.0])
        assert batch.descent_value(ys, np.arange(2), pc).tolist() == want.tolist()
        if pc == solver.PENALTY_COEFFICIENT:
            assert batch.descent_value(ys, np.arange(2)).tolist() == want.tolist()
