"""The batched solve path: an operation over several realizations equals
the same operation one realization at a time, solves that separable
problems share run once, evaluator results are shape-checked, a
finite-difference gradient is one stacked evaluation bitwise equal to the
per-dimension loop, a scalar evaluator gets each row's own z, a
vectorized one gets every row's z stacked in one call, the phases of a
run share one table of finished solves (and, on a separable problem, of
per-weight descents) without changing any result, and the finish of a
batch (winners, penalty escalation, objectives) equals finishing each
solve alone while doing less work."""

import dataclasses
import math

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune import benchmarks, decomposition, pipeline, solver
from pareto_prune.solver import N_STARTS, solve_scalarized
from conftest import load_perfbench, make_fig_problem

(workloads,) = load_perfbench("workloads")

# (c1, c2, scale, u) per discrete value, as in a generated problem: the
# weighted-sum optimum is y = (w, 1 - w), and y1 - y2 <= u binds near w = 1
_GEN_PARAMS = {
    3.0: (0.0, 2.0, 1.0, 2.0),
    8.0: (2.0, 0.0, 0.7, 0.95),
    21.0: (0.6, 2.6, 0.3, 0.95),
    40.0: (0.2, 2.2, 0.2, 2.0),
}


def _gen_objectives(y, z):
    c1, c2, s, _ = _GEN_PARAMS[float(z[0])]
    y1, y2 = float(y[0]), float(y[1])
    return (c1 + s * ((1.0 - y1) ** 2 + 0.5 * y2 * y2),
            c2 + s * (y1 * y1 + 0.5 * (1.0 - y2) ** 2))


def _gen_constraints(y, z):
    return (0.02 * (float(y[0]) - float(y[1]) - _GEN_PARAMS[float(z[0])][3]),)


def make_gen_problem() -> pp.ProblemSpec:
    """Scalar (non-vectorized) evaluators, no gradient, one constraint."""
    return pp.ProblemSpec(
        name="gen", n_y=2, bounds=((0.0, 1.0), (0.0, 1.0)),
        discrete_sets=(tuple(_GEN_PARAMS),),
        objectives=_gen_objectives, inequality_constraints=_gen_constraints,
    )


def _widened(spec, values=(0.0, 1.0, 2.0)):
    """A one-realization problem given several realizations; its
    evaluators ignore z, so they all have the same subproblem."""
    return dataclasses.replace(spec, discrete_sets=(values,))


def _reals(spec, n):
    reals = pp.enumerate_realizations(spec)
    step = max(1, len(reals) // n)
    return reals[::step][:n]


def _jobs(reals, weights):
    """The (realization, weight) job of each realization at each weight."""
    return [(r, w) for r in reals for w in weights]


SPECS = {
    "e1": pp.make_e1,
    "e2": pp.make_e2,
    "quad": lambda: _widened(pp.make_quad()),
    "toy-constrained": lambda: _widened(pp.make_toy_constrained()),
    "fig": make_fig_problem,
    "gen": make_gen_problem,
}


@pytest.mark.parametrize("name", sorted(SPECS))
class TestListEqualsOneAtATime:
    def test_anchors(self, name, config):
        spec = SPECS[name]()
        reals = _reals(spec, 5)
        batch = pp.compute_anchors_utopia(spec, reals, config)
        assert batch == [pp.compute_anchors_utopia(spec, [r], config)[0] for r in reals]

    def test_center(self, name, config):
        spec = SPECS[name]()
        reals = _reals(spec, 5)
        batch = pp.compute_center(spec, reals, config)
        assert batch == [pp.compute_center(spec, [r], config)[0] for r in reals]

    def test_front(self, name, config):
        spec = SPECS[name]()
        reals = _reals(spec, 4)
        batch = pp.build_subproblem_front(spec, reals, 5, config)
        assert batch == [pp.build_subproblem_front(spec, [r], 5, config)[0] for r in reals]


class _DescentRows:
    """Counts the calls of ``solver._descent``, the rows of each and the
    penalty coefficient each was given."""

    def __init__(self, monkeypatch):
        self.rows: list[int] = []
        self.penalties: list[float | None] = []
        descent = solver._descent

        def counted(obj, x0, *, penalty_coefficient=None):
            self.rows.append(np.shape(x0)[0])
            self.penalties.append(penalty_coefficient)
            return descent(obj, x0, penalty_coefficient=penalty_coefficient)

        monkeypatch.setattr(solver, "_descent", counted)


class _FinishedEntries:
    """Records the descents, the best point and value per start, that each
    ``solver._finish`` call finishes, one entry per solve."""

    def __init__(self, monkeypatch):
        self.entries: list[tuple[np.ndarray, np.ndarray]] = []
        finish = solver._finish

        def logged(spec, jobs, entries):
            self.entries += entries
            return finish(spec, jobs, entries)

        monkeypatch.setattr(solver, "_finish", logged)


class TestRowSharing:
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_e2_anchors_run_two_blocks_whatever_k(self, e2_spec, config, monkeypatch, n):
        rows = _DescentRows(monkeypatch)
        recs = pp.compute_anchors_utopia(e2_spec, _reals(e2_spec, n), config)
        assert len(recs) == n
        assert rows.rows == [2 * N_STARTS]

    def test_shared_rows_give_each_solve_its_own_point(self, e2_spec, config, monkeypatch):
        jobs = _jobs(_reals(e2_spec, 3), (0.5,))
        finished = _FinishedEntries(monkeypatch)
        results = [solve_scalarized(res) for res in solver.solve_batch(e2_spec, jobs, config)]
        descents = finished.entries
        assert descents[0] is descents[1] is descents[2]
        assert results == [solve_scalarized(solver.solve_batch(e2_spec, [j], config)[0])
                           for j in jobs]
        assert len({res.point for res in results}) == 3

    def test_constrained_separable_spec_is_not_merged(self, e2_spec, config, monkeypatch):
        def far_bound(y, z):
            return np.asarray(y, dtype=float)[..., :1] - 20.0

        spec = dataclasses.replace(e2_spec, inequality_constraints=far_bound)
        rows = _DescentRows(monkeypatch)
        pp.compute_anchors_utopia(spec, _reals(spec, 3), config)
        assert rows.rows == [2 * 3 * N_STARTS]

    def test_row_cap_splits_the_batch(self, e1_spec, config, monkeypatch):
        reals = _reals(e1_spec, 3)
        whole = pp.build_subproblem_front(e1_spec, reals, 5, config)
        monkeypatch.setattr(solver, "MAX_DESCENT_ROWS", 4 * N_STARTS)
        rows = _DescentRows(monkeypatch)
        assert pp.build_subproblem_front(e1_spec, reals, 5, config) == whole
        assert rows.rows == [4 * N_STARTS] * 3 + [3 * N_STARTS]


class TestEvaluatorShapes:
    def test_objectives_of_wrong_shape(self, config):
        def flat(y, z):
            return np.asarray(y, dtype=float)[..., 0] ** 2

        spec = dataclasses.replace(pp.make_quad(), objectives=flat, gradient=None)
        with pytest.raises(ValueError, match=r"objectives of problem 'quad' returned shape "
                                             r"\(16,\), expected \(16, 2\)"):
            pp.compute_center(spec, pp.enumerate_realizations(spec), config)

    def test_gradient_of_wrong_shape(self, config):
        def flat_gradient(y, z):
            v = np.asarray(y, dtype=float)[..., 0]
            return np.stack([2.0 * v, 2.0 * (v - 1.0)], axis=-1)

        spec = dataclasses.replace(pp.make_quad(), gradient=flat_gradient)
        with pytest.raises(ValueError, match=r"gradient of problem 'quad' returned shape "
                                             r"\(32, 2\), expected \(32, 2, 1\)"):
            pp.run_pipeline(spec, beta=3)

    def test_ragged_scalar_objectives(self, config):
        def ragged(y, z):
            return (1.0, 2.0) if float(y[0]) < 0.5 else (1.0, 2.0, 3.0)

        spec = dataclasses.replace(make_gen_problem(), objectives=ragged)
        with pytest.raises(ValueError, match=r"objectives of problem 'gen' returned rows that "
                                             r"do not form a float array, expected \(\d+, 2\)"):
            pp.compute_center(spec, pp.enumerate_realizations(spec), config)

    def test_three_column_scalar_objectives(self, config):
        def three(y, z):
            return (1.0, 2.0, 3.0)

        spec = dataclasses.replace(make_gen_problem(), objectives=three)
        with pytest.raises(ValueError, match=r"objectives of problem 'gen' returned shape "
                                             r"\((\d+), 3\), expected \(\1, 2\)"):
            pp.compute_center(spec, pp.enumerate_realizations(spec), config)

    def test_ragged_scalar_constraints(self, config):
        def ragged(y, z):
            return (0.0,) if float(y[0]) < 0.5 else (0.0, 0.0)

        spec = dataclasses.replace(make_gen_problem(), inequality_constraints=ragged)
        with pytest.raises(ValueError, match=r"inequality_constraints of problem 'gen' returned "
                                             r"rows that do not form a float array, "
                                             r"expected \(\d+, n_g\)"):
            pp.compute_center(spec, pp.enumerate_realizations(spec), config)


def _reference_fd_gradient(batch, ys, rows, penalty_coefficient, fd_step):
    """The finite-difference gradient as first batched: one loop step and
    two ``descent_value`` calls per dimension."""
    lo = batch.spec.lower_bounds()
    hi = batch.spec.upper_bounds()
    out = np.empty_like(ys)
    for d in range(ys.shape[1]):
        h = fd_step * (1.0 + np.abs(ys[:, d]))
        yp = ys.copy()
        ym = ys.copy()
        yp[:, d] = np.minimum(ys[:, d] + h, hi[d])
        ym[:, d] = np.maximum(ys[:, d] - h, lo[d])
        denom = yp[:, d] - ym[:, d]
        denom[denom == 0.0] = 1.0
        out[:, d] = (
            batch.descent_value(yp, rows, penalty_coefficient)
            - batch.descent_value(ym, rows, penalty_coefficient)
        ) / denom
    return out


def _nan_gen_problem():
    """The generated problem with objectives undefined for y1 > 0.7."""
    def objectives(y, z):
        return (math.nan, math.nan) if float(y[0]) > 0.7 else _gen_objectives(y, z)

    return dataclasses.replace(make_gen_problem(), name="gen-nan", objectives=objectives)


FD_SPECS = {
    "gen": make_gen_problem,
    "gen-nan": _nan_gen_problem,
    "toy-constrained": lambda: _widened(pp.make_toy_constrained()),
    "fig": make_fig_problem,
}


def _fd_case(spec, rows_per_solve=6):
    """A batch of solves over several realizations and weights, and a point
    for every row of it: interior points, points on each face of the box
    (one-sided probes), and, for gen-nan, a point whose + probe is
    non-finite."""
    jobs = _jobs(_reals(spec, 3), (0.0, 0.35, 1.0))
    batch = solver._Batch(spec, jobs, rows_per_solve)
    lo, hi = spec.lower_bounds(), spec.upper_bounds()
    rng = np.random.default_rng(5)
    ys = lo + (hi - lo) * rng.random((len(jobs) * rows_per_solve, spec.n_y))
    for d in range(spec.n_y):
        ys[2 * d, d] = lo[d]
        ys[2 * d + 1, d] = hi[d]
    ys[-1, 0] = 0.7
    return batch, ys


def _count_descent_value(monkeypatch):
    """Patches ``_Batch.descent_value``; returns the list of its calls' row
    counts."""
    calls: list[int] = []
    descent_value = solver._Batch.descent_value

    def counted(self, ys, rows, penalty_coefficient=None):
        calls.append(ys.shape[0])
        return descent_value(self, ys, rows, penalty_coefficient)

    monkeypatch.setattr(solver._Batch, "descent_value", counted)
    return calls


@pytest.mark.parametrize("name", sorted(FD_SPECS))
class TestFdGradient:
    @pytest.mark.parametrize("pc", [None, 1e8])
    def test_bitwise_equal_to_per_dimension_loop(self, name, pc):
        batch, ys = _fd_case(FD_SPECS[name]())
        rows = np.arange(ys.shape[0])
        ref = _reference_fd_gradient(batch, ys, rows, pc, 1e-7)
        got = batch._fd_gradient(ys, rows, pc)
        assert np.array_equal(got, ref, equal_nan=True)
        assert got.tobytes() == ref.tobytes()
        sub = rows[1::3]  # a subset of the batch's rows, as a shrinking descent passes
        assert np.array_equal(batch._fd_gradient(ys[sub], sub, pc),
                              _reference_fd_gradient(batch, ys[sub], sub, pc, 1e-7),
                              equal_nan=True)
        if name == "gen-nan":
            assert np.isnan(got[-1, 0]) and np.isfinite(got[-1, 1])

    def test_step_is_the_configs(self, name, monkeypatch):
        # the step is solver.FD_STEP, read at each call
        monkeypatch.setattr(solver, "FD_STEP", 1e-3)
        batch, ys = _fd_case(FD_SPECS[name]())
        rows = np.arange(ys.shape[0])
        ref = _reference_fd_gradient(batch, ys, rows, None, 1e-3)
        assert batch._fd_gradient(ys, rows, None).tobytes() == ref.tobytes()

    def test_one_descent_value_call(self, name, monkeypatch):
        batch, ys = _fd_case(FD_SPECS[name]())
        calls = _count_descent_value(monkeypatch)
        batch._fd_gradient(ys, slice(None), None)
        assert calls == [2 * ys.shape[1] * ys.shape[0]]

    @pytest.mark.parametrize("cap", [6, 7, 40])
    def test_row_cap_splits_the_probes(self, name, monkeypatch, cap):
        batch, ys = _fd_case(FD_SPECS[name]())
        whole = batch._fd_gradient(ys, slice(None), None)
        monkeypatch.setattr(solver, "MAX_DESCENT_ROWS", cap)
        calls = _count_descent_value(monkeypatch)
        split = batch._fd_gradient(ys, slice(None), None)
        assert split.tobytes() == whole.tobytes()
        assert len(calls) > 1 and max(calls) <= cap
        assert sum(calls) == 2 * ys.shape[1] * ys.shape[0]

    def test_row_cap_leaves_a_run_unchanged(self, name, config, monkeypatch):
        spec = FD_SPECS[name]()
        reals = _reals(spec, 3)
        whole = pp.build_subproblem_front(spec, reals, 3, config)
        monkeypatch.setattr(solver, "MAX_DESCENT_ROWS", 10)
        assert pp.build_subproblem_front(spec, reals, 3, config) == whole


class TestScalarRowsGetTheirOwnZ:
    def test_batch_evaluates_the_pairs_of_one_at_a_time_solves(self, config, monkeypatch):
        log: list[tuple] = []

        def logged(field, fn):
            def wrapper(y, z):
                log.append((field, tuple(y.tolist()), tuple(z.tolist())))
                return fn(y, z)
            return wrapper

        base = make_gen_problem()
        spec = dataclasses.replace(
            base, objectives=logged("f", base.objectives),
            inequality_constraints=logged("g", base.inequality_constraints))
        jobs = _jobs(pp.enumerate_realizations(spec), (0.8,))
        finished = _FinishedEntries(monkeypatch)
        solver.solve_batch(spec, jobs, config)
        batch_log = sorted(log)
        batched = finished.entries[:]
        log.clear()
        finished.entries.clear()
        for j in jobs:
            solver.solve_batch(spec, [j], config)
        assert batch_log == sorted(log)
        assert len({z for _, _, z in batch_log}) == len(jobs)
        for (bx, bf), (ax, af) in zip(batched, finished.entries, strict=True):
            assert bx.tobytes() == ax.tobytes() and bf.tobytes() == af.tobytes()


# --- the vectorized evaluator contract: stacked z --------------------------------

VECTORIZED_SPECS = {name: SPECS[name] for name in ("e1", "e2", "fig", "quad", "toy-constrained")}

_YZ_FIELDS = ("objectives", "gradient", "inequality_constraints")


def _z_evaluators(spec):
    """The evaluators of ``spec`` that take z, as functions of (ys, z)."""
    out = {f: getattr(spec, f) for f in _YZ_FIELDS if getattr(spec, f) is not None}
    if spec.name == "e2":  # the per-realization part of its separable objectives
        out["_e2_offsets"] = lambda ys, z: benchmarks._e2_offsets(pp.TrussConstants(), z)
    return out


def _mixed_rows(spec, m):
    """m points in the box of ``spec``, each with the z of a realization
    drawn at random: row-aligned ys (m, n_y) and zs (m, n_z)."""
    rng = np.random.default_rng(m)
    lo, hi = spec.lower_bounds(), spec.upper_bounds()
    ys = lo + (hi - lo) * rng.random((m, spec.n_y))
    reals = _reals(spec, 7)
    zs = np.array([reals[i].z for i in rng.integers(len(reals), size=m)])
    return ys, zs


@pytest.mark.parametrize("name", sorted(VECTORIZED_SPECS))
class TestStackedZ:
    @pytest.mark.parametrize("m", [1, 40])
    def test_one_call_equals_row_by_row_calls(self, name, m):
        spec = VECTORIZED_SPECS[name]()
        ys, zs = _mixed_rows(spec, m)
        if m > 1:
            assert len({tuple(z) for z in zs.tolist()}) > 1
        for field, fn in _z_evaluators(spec).items():
            got = np.asarray(fn(ys, zs), dtype=float)
            assert got.shape[0] == m, field
            ref = np.stack([np.asarray(fn(ys[i:i + 1], zs[i]), dtype=float).reshape(got.shape[1:])
                            for i in range(m)])
            assert np.array_equal(got, ref), field
            assert got.tobytes() == ref.tobytes(), field

    def test_batch_rows_of_mixed_z_equal_single_solve_batches(self, name):
        spec = VECTORIZED_SPECS[name]()
        jobs = _jobs(_reals(spec, 4), (0.0, 0.35, 1.0))
        ys, _ = _mixed_rows(spec, 2 * len(jobs))
        rows = np.arange(ys.shape[0])
        batch = solver._Batch(spec, jobs, 2)
        alone = [solver._Batch(spec, [j], 2) for j in jobs]
        for pc in (None, 1e8):
            got = batch.descent_value(ys, rows, pc), batch.gradient(ys, rows, pc)
            ref = (np.concatenate([b.descent_value(ys[2 * i:2 * i + 2], [0, 1], pc)
                                   for i, b in enumerate(alone)]),
                   np.concatenate([b.gradient(ys[2 * i:2 * i + 2], [0, 1], pc)
                                   for i, b in enumerate(alone)]))
            for g, r in zip(got, ref):
                assert g.tobytes() == r.tobytes()


@pytest.mark.parametrize("name", sorted(pp.REGISTRY))
def test_registry_evaluators_take_one_z_for_stacked_rows(name):
    # the form perfbench's report check re-evaluates a front point in
    spec = pp.get_problem(name)
    ys, zs = _mixed_rows(spec, 5)
    for field in _YZ_FIELDS:
        fn = getattr(spec, field)
        if fn is not None:
            one = np.asarray(fn(ys, zs[0]), dtype=float)
            stacked = np.asarray(fn(ys, np.repeat(zs[:1], 5, axis=0)), dtype=float)
            assert one.tobytes() == stacked.tobytes(), field


class TestOneVectorizedCallPerPass:
    @staticmethod
    def _counted_e1():
        calls = {"objectives": 0, "gradient": 0}

        def counted(field, fn):
            def wrapper(y, z):
                calls[field] += 1
                return fn(y, z)
            return wrapper

        e1 = pp.make_e1()
        spec = dataclasses.replace(e1, objectives=counted("objectives", e1.objectives),
                                   gradient=counted("gradient", e1.gradient))
        jobs = _jobs(_reals(spec, 4), (0.0, 0.5, 1.0))
        assert len({r for r, _ in jobs}) == 4
        return spec, jobs, calls

    def test_batch_pass_is_one_call(self):
        spec, jobs, calls = self._counted_e1()
        batch = solver._Batch(spec, jobs, 3)
        ys, _ = _mixed_rows(spec, 3 * len(jobs))
        for rows in (np.arange(ys.shape[0]), np.arange(ys.shape[0])[::5]):
            before = dict(calls)
            batch.descent_value(ys[rows], rows)
            assert calls == {"objectives": before["objectives"] + 1, "gradient": before["gradient"]}
            batch.gradient(ys[rows], rows)
            assert calls == {"objectives": before["objectives"] + 1,
                             "gradient": before["gradient"] + 1}

    def test_descent_makes_one_call_per_step(self, config, monkeypatch):
        spec, jobs, calls = self._counted_e1()
        passes = {"objectives": 0, "gradient": 0}
        descent_value, gradient = solver._Batch.descent_value, solver._Batch.gradient

        def counted_value(self, *args, **kwargs):
            passes["objectives"] += 1
            return descent_value(self, *args, **kwargs)

        def counted_gradient(self, *args, **kwargs):
            passes["gradient"] += 1
            return gradient(self, *args, **kwargs)

        monkeypatch.setattr(solver._Batch, "descent_value", counted_value)
        monkeypatch.setattr(solver._Batch, "gradient", counted_gradient)
        solver.solve_batch(spec, jobs, config)
        assert passes["objectives"] > 1
        # and one objectives call more: the finish's pass at the winners
        assert calls == {"objectives": passes["objectives"] + 1, "gradient": passes["gradient"]}


# --- one descent table per run: later phases reuse earlier phases' descents -------

def _e2_k16():
    """e2 cut to 16 realizations: bars 4 and 5 from the catalogue, bars
    6-9 held at size 5 (separable, so its descents merge by weight)."""
    e2 = pp.make_e2()
    catalogue = e2.discrete_sets[0]
    return dataclasses.replace(e2, name="e2-k16",
                               discrete_sets=(catalogue, catalogue) + ((5.0,),) * 4)


REUSE_SPECS = {
    "quad": SPECS["quad"],
    "toy-constrained": SPECS["toy-constrained"],
    "e1": pp.make_e1,
    "e2-k16": _e2_k16,
    "fig": make_fig_problem,
    "gen": make_gen_problem,  # scalar evaluators, finite differences, escalation
}


def _report_text(report):
    from pareto_prune.cli import dumps_json

    doc = report.to_json_dict()
    doc.pop("wallclock_ms")
    return dumps_json(doc)


@pytest.mark.parametrize("name", sorted(REUSE_SPECS))
class TestDescentTable:
    def test_table_of_earlier_phases_gives_fresh_descents(self, name, config, monkeypatch):
        spec = REUSE_SPECS[name]()
        reals = _reals(spec, 3)
        table: dict = {}
        solver.solve_batch(spec, _jobs(reals, (1.0, 0.0)), config, table)  # A-1
        later = [_jobs(reals[:2], [i / 4 for i in range(5)]),  # a beta-front, beta = 5
                 _jobs(reals, (0.5,))]  # centers
        rows = _DescentRows(monkeypatch)
        for jobs in later:
            rows.rows.clear()
            got = solver.solve_batch(spec, jobs, config, table)
            reused = sum(rows.rows)
            rows.rows.clear()
            fresh = solver.solve_batch(spec, jobs, config)
            assert reused < sum(rows.rows)  # each phase shares some solves with the ones before
            assert repr(got) == repr(fresh)

    @pytest.mark.parametrize("phases", ["ab", "a"])
    def test_run_equals_run_that_ignores_the_table(self, name, phases, monkeypatch):
        spec = REUSE_SPECS[name]()
        shared = pp.run_pipeline(spec, beta=5, phases=phases)
        solve_batch = solver.solve_batch
        monkeypatch.setattr(decomposition, "solve_batch",
                            lambda spec, jobs, config, table=None: solve_batch(spec, jobs, config))
        alone = pp.run_pipeline(spec, beta=5, phases=phases)
        assert _report_text(shared) == _report_text(alone)

    def test_table_finishes_each_solve_once(self, name, config, monkeypatch):
        spec = REUSE_SPECS[name]()
        reals = _reals(spec, 3)
        table: dict = {}
        first = solver.solve_batch(spec, _jobs(reals, (1.0, 0.0)), config, table)
        finished: list[int] = []
        _finish = solver._finish

        def counted(spec, jobs, entries):
            finished.append(len(jobs))
            return _finish(spec, jobs, entries)

        monkeypatch.setattr(solver, "_finish", counted)
        later = _jobs(reals, (0.0, 0.5, 1.0))
        got = solver.solve_batch(spec, later, config, table)
        assert finished == [len(reals)]  # the w = 0.5 solves; the anchors are looked up
        assert all(got[3 * i] is first[2 * i + 1] and got[3 * i + 2] is first[2 * i]
                   for i in range(len(reals)))
        monkeypatch.setattr(solver, "_finish", _finish)
        assert repr(got) == repr(_finished_alone(spec, later, config))

    def test_descents_are_read_only(self, name, config, monkeypatch):
        spec = REUSE_SPECS[name]()
        finished = _FinishedEntries(monkeypatch)
        solver.solve_batch(spec, _jobs(_reals(spec, 2), (0.0, 0.5)), config)
        assert len(finished.entries) == 4
        for x, f in finished.entries:
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                f[0] = 0.0

    def test_table_keeps_only_what_a_later_phase_reads(self, name, config, monkeypatch):
        # every finished solve under (weight, k); a descent only where solves
        # of one weight share it (e2-k16: separable, unconstrained), once per
        # weight and read-only
        spec = REUSE_SPECS[name]()
        tables: list[dict] = []
        solve_batch = solver.solve_batch

        def kept(spec, jobs, config, table=None):
            tables.append(table)
            return solve_batch(spec, jobs, config, table)

        monkeypatch.setattr(decomposition, "solve_batch", kept)
        report = pp.run_pipeline(spec, beta=5, phases="ab")
        table = tables[0]
        assert all(t is table for t in tables)
        solved = {k for k in table if isinstance(k, tuple)}
        assert all(type(w) is float and type(k) is int for w, k in solved)
        assert all(isinstance(table[key], solver.SolveResult) for key in solved)
        assert len(solved) <= report.nlp.total
        descents = {k: v for k, v in table.items() if k not in solved}
        if name == "e2-k16":
            assert sorted(descents) == sorted({w for w, _ in solved})
            for x, f in descents.values():
                assert x.shape == (N_STARTS, spec.n_y) and not x.flags.writeable
                assert f.shape == (N_STARTS,) and not f.flags.writeable
        else:
            assert descents == {}


class TestMergedSpecReuse:
    """On a separable, unconstrained problem a descent is keyed by its
    weight alone: after A-2 has run the beta weights, B-1 (w = 0.5) and
    B-3 (the beta weights again) run no new rows when beta is odd."""

    @staticmethod
    def _rows_after_a2(monkeypatch, spec, beta, phases):
        rows = _DescentRows(monkeypatch)
        mark: list[int] = []
        build = pipeline.build_master_front

        def marked(*args, **kwargs):
            out = build(*args, **kwargs)
            mark.append(len(rows.rows))
            return out

        monkeypatch.setattr(pipeline, "build_master_front", marked)
        report = pp.run_pipeline(spec, beta=beta, phases=phases)
        return rows.rows[mark[0]:], report

    @pytest.mark.parametrize("phases", ["ab", "a"])
    def test_no_rows_after_a2_at_odd_beta(self, monkeypatch, phases):
        after, report = self._rows_after_a2(monkeypatch, _e2_k16(), 21, phases)
        assert after == []
        assert report.nlp.b1 + report.nlp.b3 > 0  # B-1 or B-3 did pose solves

    def test_b1_runs_one_block_at_even_beta(self, config, monkeypatch):
        after, report = self._rows_after_a2(monkeypatch, _e2_k16(), 4, "ab")
        assert report.nlp.b1 > 1
        assert after == [N_STARTS]


# --- one finish per batch: winners, escalation and objectives in one pass -----------

def _finished_alone(spec, jobs, config):
    """Each of the ``jobs`` of ``spec`` batched on its own."""
    return [solver.solve_batch(spec, [j], config)[0] for j in jobs]


def _gen_constrained():
    """The benchmark's generated problem, seed 0: scalar evaluators, finite
    differences, and a constraint that binds at w = 1 for two of its seven
    realizations."""
    return workloads.build_spec("gen-constrained", 0)


FINISH_SPECS = {
    "toy-constrained": REUSE_SPECS["toy-constrained"],
    "gen-constrained": _gen_constrained,
    "e2": pp.make_e2,
}


def _one_y_spec(name, discrete_values, objectives=None, constraints=None):
    """A problem in y in [0, 1] with objectives (y^2, (y - 1)^2) unless given."""
    def quadratic(y, z):
        v = np.asarray(y, dtype=float)[..., 0]
        return np.stack([v ** 2, (v - 1.0) ** 2], axis=-1)

    return pp.ProblemSpec(name=name, n_y=1, bounds=((0.0, 1.0),),
                          discrete_sets=(discrete_values,), objectives=objectives or quadratic,
                          inequality_constraints=constraints, vectorized=True)


class TestBatchedFinish:
    @pytest.mark.parametrize("name", sorted(FINISH_SPECS))
    def test_batch_equals_each_solve_alone(self, name, config, monkeypatch):
        spec = FINISH_SPECS[name]()
        jobs = _jobs(_reals(spec, 7), (1.0, 0.5, 0.0))
        finished = _FinishedEntries(monkeypatch)
        rows = _DescentRows(monkeypatch)
        batched = solver.solve_batch(spec, jobs, config)
        monkeypatch.undo()
        entries = finished.entries
        escalations = [pc for pc in rows.penalties if pc is not None]
        if spec.inequality_constraints is None:  # e2: solves of one weight share rows
            assert entries[0] is entries[3] and escalations == []
            assert rows.rows == [3 * N_STARTS]
        else:  # penalty escalation ran, one _descent call per round
            assert escalations[0] == 1e8
            assert escalations == [1e8 * 100.0 ** i for i in range(len(escalations))]
        assert all(res.point is not None for res in batched)
        assert repr(batched) == repr(_finished_alone(spec, jobs, config))

    def test_unusable_solve_is_infeasible_alone(self, config):
        def half_nan(y, z):
            v = np.asarray(y, dtype=float)[..., 0]
            j1 = np.where(np.asarray(z, dtype=float)[..., 0] == 1.0, np.nan, v ** 2)
            return np.stack([j1, (v - 1.0) ** 2], axis=-1)

        spec = _one_y_spec("half-nan", (0.0, 1.0, 2.0), objectives=half_nan)
        jobs = _jobs(pp.enumerate_realizations(spec), (1.0, 0.5))
        results = solver.solve_batch(spec, jobs, config)
        assert [res.point is None for res in results] == [r.z == (1.0,) for r, _ in jobs]
        assert [res.feasible for res in results] == [r.z != (1.0,) for r, _ in jobs]
        assert repr(results) == repr(_finished_alone(spec, jobs, config))
        assert solve_scalarized(results[2]) is results[2]
        assert solve_scalarized(results[0]).feasible

    def test_escalation_keeps_a_row_whose_value_overflows(self, config, monkeypatch):
        # z = 0: y >= 0.5 binds at w = 1, and one round moves the winner onto
        # it.  z = 1: g is 3e150 everywhere, so the value is finite under the
        # base penalty (about 9e306) and inf under every escalated one; that
        # row keeps the winner of its descents and ends infeasible.
        def cons(y, z):
            v = np.asarray(y, dtype=float)[..., 0]
            return np.where(np.asarray(z, dtype=float)[..., 0] == 1.0, 3e150, 0.5 - v)[..., None]

        spec = _one_y_spec("overflow", (0.0, 1.0), constraints=cons)
        jobs = _jobs(pp.enumerate_realizations(spec), (1.0,))
        with np.errstate(over="ignore"):
            finished = _FinishedEntries(monkeypatch)
            rows = _DescentRows(monkeypatch)
            batched = solver.solve_batch(spec, jobs, config)
            monkeypatch.undo()
            alone = _finished_alone(spec, jobs, config)
        assert repr(batched) == repr(alone)
        assert rows.penalties == [None, 1e8, 1e10, 1e12, 1e14]  # the descents, then 4 rounds
        assert rows.rows == [2 * N_STARTS, 2, 1, 1, 1]
        bound, overflow = (solve_scalarized(res) for res in batched)
        assert bound.feasible and bound.y_star[0] == pytest.approx(0.5, abs=1e-6)
        x, f = finished.entries[1]
        assert not overflow.feasible
        assert overflow.y_star == tuple(x[int(np.argmin(f))])


class TestFinishWork:
    def test_gen_constrained_escalates_in_one_call(self, monkeypatch):
        # A-1 escalates the two binding w = 1 solves in one lockstep round;
        # B-3 looks up the one of them it poses instead of escalating again
        spec = _gen_constrained()
        rows = _DescentRows(monkeypatch)
        report = workloads.run("gen-constrained", spec, 0)
        assert report.nlp.b3 > 0
        assert [pc for pc in rows.penalties if pc is not None] == [1e8]
        assert rows.rows[rows.penalties.index(1e8)] == 2
        assert sum(rows.rows) == 434

    def test_e2_ab_evaluates_objectives_once_per_phase(self, monkeypatch):
        spec = workloads.build_spec("e2-ab", 0)
        calls = [0]
        objectives = spec.objectives

        def counted(ys, zs):
            calls[0] += 1
            return objectives(ys, zs)

        spec = dataclasses.replace(spec, objectives=counted)
        per_phase: list[int] = []
        depth = [0]

        def phase(fn):
            def wrapper(*args, **kwargs):
                before = calls[0]
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if depth[0] == 0:
                        per_phase.append(calls[0] - before)
            return wrapper

        for attr in ("compute_anchors_utopia", "build_master_front", "compute_center",
                     "build_subproblem_front"):
            monkeypatch.setattr(pipeline, attr, phase(getattr(pipeline, attr)))
        workloads.run("e2-ab", spec, 0)
        assert len(per_phase) == 4  # A-1, A-2, B-1, B-3
        assert max(per_phase) <= 1 and sum(per_phase) == calls[0]
