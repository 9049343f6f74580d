"""The batched solve path: an operation over several realizations equals
the same operation one realization at a time, solves that separable
problems share run once, evaluator results are shape-checked (scalar
rows read flat give the bits and errors of ``np.asarray``), a
finite-difference gradient is one stacked evaluation bitwise equal to the
per-dimension loop, a scalar evaluator gets each row's own z, a
vectorized one gets every row's z stacked in one call, the phases of a
run share one table of finished solves (and, on a separable problem, of
per-weight descent winners) without changing any result, a solve's
winner is the first of its best starts, and the finish of a batch
(penalty escalation, objectives) equals finishing each solve alone while
doing less work."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune import benchmarks, decomposition, pipeline, solver
from pareto_prune.core import _z_rows
from pareto_prune.solver import N_STARTS, Solver, SolveResult, solve_scalarized
from conftest import front_rows, load_perfbench, make_fig_problem

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


def _all_ks(spec):
    """Every realization index k of ``spec``, ascending."""
    return list(range(1, math.prod(len(zs) for zs in spec.discrete_sets) + 1))


def _ks(spec, n):
    ks = _all_ks(spec)
    step = max(1, len(ks) // n)
    return ks[::step][:n]


def _jobs(ks, weights):
    """The (k, weight) job of each realization at each weight."""
    return [(k, w) for k in ks for w in weights]


def _batch(spec, jobs, rows_per_solve):
    """The ``solver._Batch`` of the (k, weight) ``jobs``."""
    ks, weights = zip(*jobs)
    return solver._Batch(spec, _z_rows(spec, ks), weights, rows_per_solve)


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
        ks = _ks(spec, 5)
        batch = decomposition.compute_anchors_utopia(Solver(spec, config), ks)
        one = np.concatenate([decomposition.compute_anchors_utopia(Solver(spec, config), [k])
                              for k in ks])
        assert batch.shape == one.shape == (len(ks), 2)
        assert batch.tobytes() == one.tobytes()

    def test_center(self, name, config):
        spec = SPECS[name]()
        ks = _ks(spec, 5)
        batch = decomposition.compute_center(Solver(spec, config), ks)
        one = np.concatenate([decomposition.compute_center(Solver(spec, config), [k])
                              for k in ks])
        assert batch.shape == one.shape == (len(ks), 2)
        assert batch.tobytes() == one.tobytes()

    def test_front(self, name, config):
        spec = SPECS[name]()
        ks = _ks(spec, 4)
        batch = decomposition.build_subproblem_front(Solver(spec, config), ks, 5)
        assert front_rows(batch) == [
            row for k in ks
            for row in front_rows(decomposition.build_subproblem_front(Solver(spec, config),
                                                                       [k], 5))]


class _DescentRows:
    """Counts the calls of ``solver._descent``, the rows of each and the
    penalty coefficient each was given, and records what each returned:
    the best point and value of every row."""

    def __init__(self, monkeypatch):
        self.rows: list[int] = []
        self.penalties: list[float | None] = []
        self.outputs: list[tuple[np.ndarray, np.ndarray]] = []
        descent = solver._descent

        def counted(obj, x0, *, penalty_coefficient=None):
            self.rows.append(np.shape(x0)[0])
            self.penalties.append(penalty_coefficient)
            self.outputs.append(descent(obj, x0, penalty_coefficient=penalty_coefficient))
            return self.outputs[-1]

        monkeypatch.setattr(solver, "_descent", counted)


class _FinishedWinners:
    """Records the solves of each ``solver._finish`` call and the winners
    it finishes, as they were before it ran: one weight, one point and one
    value per solve."""

    def __init__(self, monkeypatch):
        self.calls: list[int] = []
        self.w: list[float] = []
        self.y: list[np.ndarray] = []
        self.f: list[np.float64] = []
        finish = solver._finish

        def logged(spec, z, weights, y, f, off=None):
            self.calls.append(len(weights))
            self.w += list(weights)
            self.y += list(y.copy())
            self.f += list(f)
            return finish(spec, z, weights, y, f, off)

        monkeypatch.setattr(solver, "_finish", logged)

    def distinct(self, n):
        """The distinct (weight, point bytes, value bytes) of the n winners
        finished."""
        assert len(self.w) == n
        return {(w, y.tobytes(), f.tobytes())
                for w, y, f in zip(self.w, self.y, self.f, strict=True)}


def _cells(result):
    """The arrays ``Solver.solve`` returned, as (shape, dtype, bytes) each,
    to compare results bit for bit."""
    return [(a.shape, a.dtype.str, a.tobytes()) for a in result]


def _solved_alone(spec, ks, weights, config):
    """Each solve of ``ks`` x ``weights`` batched on its own, stacked as
    one ``Solver.solve`` call returns them."""
    cells = [[Solver(spec, config).solve([k], [w]) for w in weights] for k in ks]
    return tuple(np.array([[c[i][0, 0] for c in row] for row in cells]) for i in range(3))


class TestRowSharing:
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_e2_anchors_run_two_blocks_whatever_k(self, e2_spec, config, monkeypatch, n):
        rows = _DescentRows(monkeypatch)
        recs = decomposition.compute_anchors_utopia(Solver(e2_spec, config), _ks(e2_spec, n))
        assert len(recs) == n
        assert rows.rows == [2 * N_STARTS]

    def test_shared_rows_give_each_solve_its_own_point(self, e2_spec, config, monkeypatch):
        ks = _ks(e2_spec, 3)
        rows = _DescentRows(monkeypatch)
        winners = _FinishedWinners(monkeypatch)
        results = Solver(e2_spec, config).solve(ks, (0.5,))
        assert rows.rows == [N_STARTS]
        assert len(winners.distinct(len(ks))) == 1
        assert _cells(results) == _cells(_solved_alone(e2_spec, ks, (0.5,), config))
        assert len(set(map(tuple, results[1].reshape(-1, 2).tolist()))) == 3

    def test_constrained_separable_spec_is_not_merged(self, e2_spec, config, monkeypatch):
        def far_bound(y, z):
            return np.asarray(y, dtype=float)[..., :1] - 20.0

        spec = dataclasses.replace(e2_spec, inequality_constraints=far_bound)
        rows = _DescentRows(monkeypatch)
        decomposition.compute_anchors_utopia(Solver(spec, config), _ks(spec, 3))
        assert rows.rows == [2 * 3 * N_STARTS]

    def test_row_cap_splits_the_batch(self, e1_spec, config, monkeypatch):
        ks = _ks(e1_spec, 3)
        front = decomposition.build_subproblem_front
        whole = front_rows(front(Solver(e1_spec, config), ks, 5))
        monkeypatch.setattr(solver, "MAX_DESCENT_ROWS", 4 * N_STARTS)
        rows = _DescentRows(monkeypatch)
        assert front_rows(front(Solver(e1_spec, config), ks, 5)) == whole
        assert rows.rows == [4 * N_STARTS] * 3 + [3 * N_STARTS]


def _scalar_reads(field, rows):
    """A scalar pass of an evaluator of ``field`` that returns ``rows[i]``
    at row i, read as ``solver._evaluate`` reads it and as it was read
    before the flat read (``np.asarray`` and ``_checked``): each an array,
    or the text of the ValueError it raised."""
    spec = dataclasses.replace(make_gen_problem(), **{field: lambda y, *z: rows[int(y[0])]})
    m = len(rows)
    ys = np.repeat(np.arange(m, dtype=float)[:, None], spec.n_y, axis=1)
    zs = None if field == "base_objectives" else np.zeros((m, 1))
    out = []
    for read in (lambda: solver._evaluate(spec, field, ys, zs),
                 lambda: solver._checked(spec, field, list(rows), m)):
        try:
            out.append(read())
        except ValueError as exc:
            out.append(str(exc))
    return out


def _assert_same_error(field, *cases):
    for rows in cases:
        got, old = _scalar_reads(field, rows)
        assert isinstance(got, str) and got == old, rows


# well-formed scalar rows: (field, rows), all but the last read flat
_WELL_FORMED = {
    "tuples": ("objectives", [(1.5, -2.0), (0.1, 3e300), (7.0, 1e-310)]),
    "lists": ("objectives", [[1.5, -2.0], [0.1, 3e-300]]),
    "arrays": ("objectives", [np.array([1.5, -2.0]), np.array([1, 2]), np.array([0.1, 0.2], "f4")]),
    "numpy scalars": ("objectives", [(np.float64(0.1), np.float32(0.1)),
                                     (np.int64(3), np.bool_(True))]),
    "ints and bools": ("base_objectives", [(1, True), (False, 2 ** 60 + 1), (-3, 0)]),
    "non-finite and -0.0": ("objectives", [(math.nan, math.inf), (-math.inf, -0.0),
                                           (np.float64(-0.0), np.nan)]),
    "mixed row types": ("objectives", [(1.0, 2.0), [3.0, 4.0], np.array([5.0, 6.0])]),
    "three constraints": ("inequality_constraints", [(0.5, -0.0, math.nan), (1, 2, math.inf)]),
    "one constraint": ("inequality_constraints", [(0.5,), [np.float64(-1.0)], np.array([2.0])]),
    "bare number per constraint row": ("inequality_constraints",
                                       [0.5, np.float64(-1.0), 2, True, -0.0, math.nan]),
}


class TestEvaluatorShapes:
    def test_objectives_of_wrong_shape(self, config):
        def flat(y, z):
            return np.asarray(y, dtype=float)[..., 0] ** 2

        spec = dataclasses.replace(pp.make_quad(), objectives=flat, gradient=None)
        with pytest.raises(ValueError, match=r"objectives of problem 'quad' returned shape "
                                             r"\(16,\), expected \(16, 2\)"):
            decomposition.compute_center(Solver(spec, config), _all_ks(spec))

    def test_gradient_of_wrong_shape(self, config):
        def flat_gradient(y, z):
            v = np.asarray(y, dtype=float)[..., 0]
            return np.stack([2.0 * v, 2.0 * (v - 1.0)], axis=-1)

        spec = dataclasses.replace(pp.make_quad(), gradient=flat_gradient)
        with pytest.raises(ValueError, match=r"gradient of problem 'quad' returned shape "
                                             r"\(32, 2\), expected \(32, 2, 1\)"):
            pp.run_pipeline(spec, beta=3)
        # a scalar gradient's rows are never read flat
        _assert_same_error("gradient", [(1.0, 2.0, 3.0, 4.0)] * 3, [(1.0, 2.0)] * 2,
                           [np.ones((2, 2))] * 2 + [np.ones(4)])

    @pytest.mark.parametrize("case", sorted(_WELL_FORMED))
    def test_flat_read_equals_the_asarray_read(self, case):
        field, rows = _WELL_FORMED[case]
        got, old = _scalar_reads(field, rows)
        want = np.asarray(rows, dtype=float).reshape(old.shape)  # (m,) is one constraint a row
        assert got.dtype == old.dtype == np.float64 and got.shape == old.shape
        assert got.tobytes() == old.tobytes() == want.tobytes()
        flat = solver._flat_rows(field, list(rows))
        assert (flat is None) == (case == "bare number per constraint row")

    def test_ragged_scalar_objectives(self, config):
        def ragged(y, z):
            return (1.0, 2.0) if float(y[0]) < 0.5 else (1.0, 2.0, 3.0)

        spec = dataclasses.replace(make_gen_problem(), objectives=ragged)
        with pytest.raises(ValueError, match=r"objectives of problem 'gen' returned rows that "
                                             r"do not form a float array, expected \(\d+, 2\)"):
            decomposition.compute_center(Solver(spec, config), _all_ks(spec))
        _assert_same_error(
            "objectives", [(1.0, 2.0), (1.0, 2.0, 3.0)], [[1.0, 2.0], (1.0,)],
            [np.array([1.0, 2.0]), np.array([1.0])], [(1.0, 2.0), None],
            [(1.0, "x"), (1.0, 2.0)], ["ab", "cd"], ["12", "34"], [(), ()], [(1.0, 2.0), ()],
            [np.array(1.0), np.array(2.0)], [((1.0,), (2.0,))], [np.ones((2, 1))])
        _assert_same_error("base_objectives", [(1.0, 2.0), (1.0,)], [None, None])

    def test_three_column_scalar_objectives(self, config):
        def three(y, z):
            return (1.0, 2.0, 3.0)

        spec = dataclasses.replace(make_gen_problem(), objectives=three)
        with pytest.raises(ValueError, match=r"objectives of problem 'gen' returned shape "
                                             r"\((\d+), 3\), expected \(\1, 2\)"):
            decomposition.compute_center(Solver(spec, config), _all_ks(spec))
        _assert_same_error("objectives", [(1.0, 2.0, 3.0)] * 3, [[1.0, 2.0, 3.0]] * 2,
                           [np.zeros(3), (1, 2, 3)], [(1.0,)] * 2, [1.0, 2.0])

    def test_ragged_scalar_constraints(self, config):
        def ragged(y, z):
            return (0.0,) if float(y[0]) < 0.5 else (0.0, 0.0)

        spec = dataclasses.replace(make_gen_problem(), inequality_constraints=ragged)
        with pytest.raises(ValueError, match=r"inequality_constraints of problem 'gen' returned "
                                             r"rows that do not form a float array, "
                                             r"expected \(\d+, n_g\)"):
            decomposition.compute_center(Solver(spec, config), _all_ks(spec))
        _assert_same_error(
            "inequality_constraints", [(0.0,), (0.0, 0.0)], [0.0, (0.0,)], [(0.0,), None],
            [("x",), (1.0,)], ["ab"], [(), (0.0,)], [(), ()], [((0.0,),), ((1.0,),)])

    _ZERO_CONSTRAINTS = (r"inequality_constraints of problem '{}' returned shape "
                         r"\((\d+), 0\), expected \(\1, n_g\) with n_g >= 1")

    def test_zero_scalar_constraints(self):
        spec = dataclasses.replace(make_gen_problem(), inequality_constraints=lambda y, z: ())
        with pytest.raises(ValueError, match=self._ZERO_CONSTRAINTS.format("gen")):
            pp.run_pipeline(spec, beta=3)

    def test_zero_vectorized_constraints(self):
        def none(y, z):
            return np.zeros(np.shape(y)[:-1] + (0,))

        spec = dataclasses.replace(pp.make_quad(), inequality_constraints=none)
        with pytest.raises(ValueError, match=self._ZERO_CONSTRAINTS.format("quad")):
            pp.run_pipeline(spec, beta=3)


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
    jobs = _jobs(_ks(spec, 3), (0.0, 0.35, 1.0))
    batch = _batch(spec, jobs, rows_per_solve)
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
        # 9 solves: one finish at a cap of 10 rows; at 4, one _descent per
        # solve and the finish split 4 + 4 + 1
        spec = FD_SPECS[name]()
        ks = _ks(spec, 3)
        front = decomposition.build_subproblem_front
        whole = front_rows(front(Solver(spec, config), ks, 3))
        finished = _FinishedWinners(monkeypatch).calls
        for cap, finishes in ((10, [9]), (4, [4, 4, 1])):
            monkeypatch.setattr(solver, "MAX_DESCENT_ROWS", cap)
            finished.clear()
            assert front_rows(front(Solver(spec, config), ks, 3)) == whole
            assert finished == finishes


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
        ks = _all_ks(spec)
        rows = _DescentRows(monkeypatch)
        Solver(spec, config).solve(ks, (0.8,))
        batch_log = sorted(log)
        ((bx, bf),) = rows.outputs  # one descent, no escalation
        log.clear()
        rows.outputs.clear()
        for k in ks:
            Solver(spec, config).solve([k], (0.8,))
        assert batch_log == sorted(log)
        assert len({z for _, _, z in batch_log}) == len(ks)
        assert len(rows.outputs) == len(ks)  # every start's rows, bit for bit
        assert bx.tobytes() == np.concatenate([x for x, _ in rows.outputs]).tobytes()
        assert bf.tobytes() == np.concatenate([f for _, f in rows.outputs]).tobytes()


# --- the vectorized evaluator contract: stacked z --------------------------------

VECTORIZED_SPECS = {name: SPECS[name] for name in ("e1", "e2", "fig", "quad", "toy-constrained")}

_YZ_FIELDS = ("objectives", "gradient", "inequality_constraints")


def _z_evaluators(spec):
    """The evaluators of ``spec`` that take z, as functions of (ys, z)."""
    out = {f: getattr(spec, f) for f in _YZ_FIELDS if getattr(spec, f) is not None}
    if spec.name == "e2":  # the per-realization part of its separable objectives
        out["_e2_offsets"] = lambda ys, z: benchmarks._e2_offsets(z)
    return out


def _mixed_rows(spec, m):
    """m points in the box of ``spec``, each with the z of a realization
    drawn at random: row-aligned ys (m, n_y) and zs (m, n_z)."""
    rng = np.random.default_rng(m)
    lo, hi = spec.lower_bounds(), spec.upper_bounds()
    ys = lo + (hi - lo) * rng.random((m, spec.n_y))
    some = _z_rows(spec, _ks(spec, 7))
    zs = some[rng.integers(len(some), size=m)]
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
        jobs = _jobs(_ks(spec, 4), (0.0, 0.35, 1.0))
        ys, _ = _mixed_rows(spec, 2 * len(jobs))
        rows = np.arange(ys.shape[0])
        batch = _batch(spec, jobs, 2)
        alone = [_batch(spec, [j], 2) for j in jobs]
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
    # e1 declares its split, so a pass evaluates the base, not the objectives
    FIELDS = ("objectives", "base_objectives", "offsets", "gradient")

    @classmethod
    def _counted_e1(cls):
        calls = dict.fromkeys(cls.FIELDS, 0)

        def counted(field, fn):
            def wrapper(*args):
                calls[field] += 1
                return fn(*args)
            return wrapper

        e1 = pp.make_e1()
        spec = dataclasses.replace(e1, **{f: counted(f, getattr(e1, f)) for f in cls.FIELDS})
        ks = _ks(spec, 4)
        assert len(set(ks)) == 4
        return spec, ks, (0.0, 0.5, 1.0), calls

    def test_batch_pass_is_one_call(self):
        spec, ks, weights, calls = self._counted_e1()
        jobs = _jobs(ks, weights)
        batch = _batch(spec, jobs, 3)
        ys, _ = _mixed_rows(spec, 3 * len(jobs))
        for rows in (np.arange(ys.shape[0]), np.arange(ys.shape[0])[::5]):
            before = dict(calls)
            batch.descent_value(ys[rows], rows)
            assert calls == {**before, "base_objectives": before["base_objectives"] + 1}
            batch.gradient(ys[rows], rows)
            assert calls == {**before, "base_objectives": before["base_objectives"] + 1,
                             "gradient": before["gradient"] + 1}

    def test_descent_makes_one_call_per_step(self, config, monkeypatch):
        spec, ks, weights, calls = self._counted_e1()
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
        Solver(spec, config).solve(ks, weights)
        assert passes["objectives"] > 1
        # and one base call more, the finish's pass at the winners, and one
        # offsets call for the whole solve call
        assert calls == {"objectives": 0, "base_objectives": passes["objectives"] + 1,
                         "offsets": 1, "gradient": passes["gradient"]}


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
        ks = _ks(spec, 3)
        run = Solver(spec, config)
        run.solve(ks, (1.0, 0.0))  # A-1
        later = [(ks[:2], [i / 4 for i in range(5)]),  # a beta-front, beta = 5
                 (ks, (0.5,))]  # centers
        rows = _DescentRows(monkeypatch)
        for posed in later:
            rows.rows.clear()
            got = run.solve(*posed)
            reused = sum(rows.rows)
            rows.rows.clear()
            fresh = Solver(spec, config).solve(*posed)
            assert reused < sum(rows.rows)  # each phase shares some solves with the ones before
            assert _cells(got) == _cells(fresh)

    @pytest.mark.parametrize("phases", ["ab", "a"])
    def test_run_equals_run_that_ignores_the_table(self, name, phases, monkeypatch):
        spec = REUSE_SPECS[name]()
        shared = pp.run_pipeline(spec, beta=5, phases=phases)
        solve = solver.Solver.solve
        monkeypatch.setattr(solver.Solver, "solve", lambda self, ks, weights:
                            solve(Solver(self.spec, self.config), ks, weights))
        alone = pp.run_pipeline(spec, beta=5, phases=phases)
        assert _report_text(shared) == _report_text(alone)

    def test_table_finishes_each_solve_once(self, name, config, monkeypatch):
        spec = REUSE_SPECS[name]()
        ks = _ks(spec, 3)
        run = Solver(spec, config)
        first = run.solve(ks, (1.0, 0.0))
        finished = _FinishedWinners(monkeypatch).calls
        later = (0.0, 0.5, 1.0)
        got = run.solve(ks, later)
        assert finished == [len(ks)]  # the w = 0.5 solves; the anchors are looked up
        assert _cells(a[:, [2, 0]] for a in got) == _cells(a[:, [0, 1]] for a in first)
        # posed twice in one call, or again in a later one: finished once, read twice
        finished.clear()
        again = run.solve(ks[:1] + ks, (0.25, 0.5, 0.25))
        assert finished == [len(ks)]  # the w = 0.25 solves
        assert _cells(a[1:, 1] for a in again) == _cells(a[:, 1] for a in got)
        assert _cells(a[0] for a in again) == _cells(a[1] for a in again)
        assert _cells(a[:, 0] for a in again) == _cells(a[:, 2] for a in again)
        monkeypatch.undo()
        assert _cells(got) == _cells(_solved_alone(spec, ks, later, config))

    def test_table_keeps_every_solve_and_shared_winner(self, name, config, monkeypatch):
        # every solve a phase posed, finished, in the cell of (k, weight),
        # whether or not a later phase reads it; a winner only where solves
        # of one weight share it (e2-k16: separable, unconstrained), once
        # per weight
        spec = REUSE_SPECS[name]()
        solvers: list = []
        posed: set = set()
        solve = solver.Solver.solve

        def kept(self, ks, weights):
            solvers.append(self)
            posed.update(itertools.product(ks, weights))
            return solve(self, ks, weights)

        monkeypatch.setattr(solver.Solver, "solve", kept)
        report = pp.run_pipeline(spec, beta=5, phases="ab")
        run = solvers[0]
        assert all(s is run for s in solvers)
        assert all(type(k) is int and type(w) is float for k, w in posed)
        # one float array, a column per weight of a row per realization: no
        # Python object per solve; status 0 marks a cell not finished
        table = run._table
        assert type(table) is np.ndarray and table.dtype == np.float64
        assert table.shape == (len(run._columns), report.k_total, spec.n_y + 3)
        assert set(np.unique(table[..., -1]).tolist()) <= {0.0, 1.0, 2.0}
        done = table[..., -1] != 0
        solved = {(k + 1, w) for w, c in run._columns.items()
                  for k in np.flatnonzero(done[c]).tolist()}
        assert solved == posed and len(solved) <= report.nlp.total
        winners = run._winners
        if name == "e2-k16":
            assert sorted(winners) == sorted({w for _, w in solved})
            for y, f in winners.values():
                assert y.shape == (spec.n_y,) and np.shape(f) == ()
        else:
            assert winners == {}

    @pytest.mark.parametrize("phases", ["ab", "a", "none"])
    def test_run_allocates_its_table_once(self, name, phases, monkeypatch):
        # every weight a run poses is reserved before A-1, B-1's w = 0.5 at
        # even beta included, so no phase regrows the table
        spec = REUSE_SPECS[name]()
        tables: list = []
        solve = solver.Solver.solve

        def kept(self, ks, weights):
            tables.append(self._table)
            out = solve(self, ks, weights)
            tables.append(self._table)
            return out

        monkeypatch.setattr(solver.Solver, "solve", kept)
        report = pp.run_pipeline(spec, beta=4, phases=phases)
        assert len(tables) >= 2 and all(t is tables[0] for t in tables)
        assert tables[0].shape == (4 + (phases == "ab"), report.k_total, spec.n_y + 3)

# _descent rows per call of a run, in call order, on problems whose descents
# are not shared by weight: one batch per phase that poses new solves, then
# the penalty escalation rounds (recorded before separable runs descended
# their weight grid up front, which must leave these runs as they were)
_UNSHARED_ROWS = {
    ("e1-k4", "ab", 4): [128, 96, 16],
    ("e1-k4", "ab", 21): [128, 912, 16],
    ("e1-k4", "a", 4): [128, 96, 32],
    ("e1-k4", "a", 21): [128, 912, 304],
    ("e1-k4", "none", 4): [256],
    ("e1-k4", "none", 21): [1344],
    ("toy-constrained", "ab", 4): [32, 1, 32, 1],
    ("toy-constrained", "ab", 21): [32, 1, 304, 12],
    ("toy-constrained", "a", 4): [32, 1, 32, 1],
    ("toy-constrained", "a", 21): [32, 1, 304, 12],
    ("toy-constrained", "none", 4): [64, 2],
    ("toy-constrained", "none", 21): [336, 13],
    ("gen-constrained", "ab", 4): [224, 2, 64, 80, 128],
    ("gen-constrained", "ab", 21): [224, 2, 608, 48, 576],
    ("gen-constrained", "a", 4): [224, 2, 64, 160],
    ("gen-constrained", "a", 21): [224, 2, 608, 912],
    ("gen-constrained", "none", 4): [448, 2],
    ("gen-constrained", "none", 21): [2352, 2],
}


class TestMergedSpecReuse:
    """On a separable, unconstrained problem a descent is keyed by its
    weight alone, and a run descends every weight it can pose in one
    ``_descent`` call before Phase A: the beta grid, plus B-1's
    ``CENTER_WEIGHT`` under "ab".  No rows follow that call.  Other
    problems keep one descent batch per phase."""

    @pytest.mark.parametrize("beta", [4, 21])
    @pytest.mark.parametrize("phases", ["ab", "a", "none"])
    def test_one_descent_call_per_run(self, monkeypatch, phases, beta):
        rows = _DescentRows(monkeypatch)
        lattices = []
        start_points = solver._start_points
        monkeypatch.setattr(solver, "_start_points",
                            lambda *args: lattices.append(args) or start_points(*args))
        report = pp.run_pipeline(_e2_k16(), beta=beta, phases=phases)
        centers = {decomposition.CENTER_WEIGHT} if phases == "ab" else set()
        weights = set(decomposition.weight_grid(beta)) | centers
        assert len(weights) == beta + (phases == "ab" and beta % 2 == 0)
        assert rows.rows == [len(weights) * N_STARTS]
        assert len(lattices) == 1  # a phase with nothing to descend builds no start set
        assert report.nlp.b1 + report.nlp.b3 > 0  # B-1 or B-3 did pose solves
        if phases == "ab":
            assert report.nlp.b1 > 1  # at beta = 4, B-1's w = 0.5 is off the grid

    @pytest.mark.parametrize("name, phases, beta", sorted(_UNSHARED_ROWS))
    def test_unshared_descents_keep_one_batch_per_phase(self, monkeypatch, name, phases, beta):
        make = {"e1-k4": workloads.make_e1_k4, "toy-constrained": pp.make_toy_constrained,
                "gen-constrained": _gen_constrained}[name]
        spec = make()
        rows = _DescentRows(monkeypatch)
        pp.run_pipeline(spec, beta=beta, phases=phases)
        assert rows.rows == _UNSHARED_ROWS[name, phases, beta]


# --- one finish per batch: winners, escalation and objectives in one pass -----------

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
        ks, weights = _ks(spec, 7), (1.0, 0.5, 0.0)
        winners = _FinishedWinners(monkeypatch)
        rows = _DescentRows(monkeypatch)
        batched = Solver(spec, config).solve(ks, weights)
        monkeypatch.undo()
        escalations = [pc for pc in rows.penalties if pc is not None]
        if spec.inequality_constraints is None:  # e2: solves of one weight share a winner
            assert len(winners.distinct(len(ks) * 3)) == 3 and escalations == []
            assert rows.rows == [3 * N_STARTS]
        else:  # penalty escalation ran, one _descent call per round
            assert escalations[0] == 1e8
            assert escalations == [1e8 * 100.0 ** i for i in range(len(escalations))]
        assert not np.isnan(batched[1]).any()  # every solve has objectives
        assert _cells(batched) == _cells(_solved_alone(spec, ks, weights, config))

    @pytest.mark.parametrize("shared", [True, False])
    def test_a_tie_goes_to_the_first_start(self, config, monkeypatch, shared):
        # constant objectives, zero gradient: every start stays where it
        # began at the same value, and the first start, the lower box
        # corner, wins each solve
        def constant(y, *z):
            return np.zeros(np.shape(y)[:-1] + (2,)) + (1.0, 2.0)

        def flat(y, z):
            return np.zeros(np.shape(y)[:-1] + (2, 2))

        spec = pp.ProblemSpec(name="flat", n_y=2, bounds=((-1.0, 2.0), (0.5, 3.0)),
                              discrete_sets=((0.0, 1.0),), objectives=constant,
                              gradient=flat, vectorized=True,
                              base_objectives=constant if shared else None)
        rows = _DescentRows(monkeypatch)
        y, _, feasible = Solver(spec, config).solve(_all_ks(spec), (1.0, 0.25))
        ((x, f),) = rows.outputs
        assert rows.rows == [(2 if shared else 4) * N_STARTS]
        ties = f.reshape(-1, N_STARTS)
        assert (ties == ties[:, :1]).all()  # within each solve, at N_STARTS distinct points
        assert len(np.unique(x[:N_STARTS], axis=0)) == N_STARTS
        assert y.reshape(-1, 2).tolist() == [[-1.0, 0.5]] * 4 and feasible.all()

    def test_unusable_solve_is_infeasible_alone(self, config):
        def half_nan(y, z):
            v = np.asarray(y, dtype=float)[..., 0]
            j1 = np.where(np.asarray(z, dtype=float)[..., 0] == 1.0, np.nan, v ** 2)
            return np.stack([j1, (v - 1.0) ** 2], axis=-1)

        spec = _one_y_spec("half-nan", (0.0, 1.0, 2.0), objectives=half_nan)
        ks, weights = _all_ks(spec), (1.0, 0.5)
        results = Solver(spec, config).solve(ks, weights)
        y, pts, feasible = results
        zs = [[decomposition.realization_from_index(spec, k).z] * 2 for k in ks]
        # no objectives (both NaN) exactly where z = 1
        assert np.isnan(pts).all(axis=2).tolist() == [[z == (1.0,) for z in row] for row in zs]
        assert not np.isnan(pts).any(axis=2)[feasible].any()
        assert feasible.tolist() == [[z != (1.0,) for z in row] for row in zs]
        assert _cells(results) == _cells(_solved_alone(spec, ks, weights, config))
        record = SolveResult(1.0, tuple(y[1, 0].tolist()), bool(feasible[1, 0]))
        assert solve_scalarized(record) is record and not record.feasible
        assert solve_scalarized(SolveResult(1.0, tuple(y[0, 0].tolist()),
                                            bool(feasible[0, 0]))).feasible

    def test_escalation_keeps_a_row_whose_value_overflows(self, config, monkeypatch):
        # z = 0: y >= 0.5 binds at w = 1, and one round moves the winner onto
        # it.  z = 1: g is 3e150 everywhere, so the value is finite under the
        # base penalty (about 9e306) and inf under every escalated one; that
        # row keeps the winner of its descents and ends infeasible.
        def cons(y, z):
            v = np.asarray(y, dtype=float)[..., 0]
            return np.where(np.asarray(z, dtype=float)[..., 0] == 1.0, 3e150, 0.5 - v)[..., None]

        spec = _one_y_spec("overflow", (0.0, 1.0), constraints=cons)
        ks = _all_ks(spec)
        with np.errstate(over="ignore"):
            rows = _DescentRows(monkeypatch)
            batched = Solver(spec, config).solve(ks, (1.0,))
            monkeypatch.undo()
            alone = _solved_alone(spec, ks, (1.0,), config)
        assert _cells(batched) == _cells(alone)
        assert rows.penalties == [None, 1e8, 1e10, 1e12, 1e14]  # the descents, then 4 rounds
        assert rows.rows == [2 * N_STARTS, 2, 1, 1, 1]
        y, pts, feasible = (a[:, 0] for a in batched)
        assert feasible[0] and y[0, 0] == pytest.approx(0.5, abs=1e-6)
        x, f = (a[N_STARTS:] for a in rows.outputs[0])  # the second solve's starts
        assert not feasible[1]
        assert np.isfinite(pts[1]).all()  # infeasible, yet its objectives are kept
        assert y[1].tobytes() == x[int(np.argmin(f))].tobytes()


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
        # e2 declares its split: a phase's finish evaluates the base once and
        # the offsets once; the objectives serve only the run's check of the
        # split, and every descent runs before the phases
        spec = workloads.build_spec("e2-ab", 0)
        fields = ("objectives", "base_objectives", "offsets")
        calls = dict.fromkeys(fields, 0)

        def counted(field, fn):
            def wrapper(*args):
                calls[field] += 1
                return fn(*args)
            return wrapper

        spec = dataclasses.replace(spec, **{f: counted(f, getattr(spec, f)) for f in fields})
        per_phase: list[dict] = []
        depth = [0]

        def phase(fn):
            def wrapper(*args, **kwargs):
                before = dict(calls)
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
                    if depth[0] == 0:
                        per_phase.append({f: calls[f] - before[f] for f in fields})
            return wrapper

        for attr in ("compute_anchors_utopia", "build_master_front", "compute_center",
                     "build_subproblem_front"):
            monkeypatch.setattr(pipeline, attr, phase(getattr(pipeline, attr)))
        workloads.run("e2-ab", spec, 0)
        assert len(per_phase) == 4  # A-1, A-2, B-1, B-3
        assert calls["objectives"] == 1
        for f in ("base_objectives", "offsets"):
            assert all(p[f] <= 1 for p in per_phase) and sum(p[f] for p in per_phase) >= 3
        assert sum(p["objectives"] for p in per_phase) == 0


# --- the lockstep descent kernel: the same rows, the same bits ----------------------

def _reference_descent(obj, x0, penalty_coefficient=None):
    """The lockstep descent as first written: the accepted rows gathered
    out and scattered back on every step, the finished ones compacted
    away.  Kept to check the kernel against, bit for bit."""
    from pareto_prune.solver import (MAX_ITERS, STEP_TOL, _ARMIJO, _STEP_FLOOR,
                                     _STEP_GROWTH, _STEP_SHRINK)

    lo, hi = obj.lo, obj.hi
    pc = penalty_coefficient

    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f = obj.descent_value(x, slice(None), pc)
    ok = np.isfinite(f)
    best_x = x.copy()
    best_f = np.where(ok, f, np.inf)
    if not ok.any():
        return best_x, best_f

    idx = np.where(ok)[0]  # rows still descending, as indices into the batch
    x = x[idx]
    f = f[idx]
    g = obj.gradient(x, idx, pc)
    span = float((hi - lo).max())
    t = span / (1.0 + np.abs(g).max(axis=1))

    for _ in range(MAX_ITERS):
        if idx.size == 0:
            break
        xc = np.clip(x - t[:, None] * g, lo, hi)
        step = x - xc
        fc = obj.descent_value(xc, idx, pc)
        decrease = (g * step).sum(axis=1)
        accept = np.isfinite(fc) & (fc <= f - _ARMIJO * decrease)

        if accept.any():
            ai = np.where(accept)[0]
            improved = fc[ai] < best_f[idx[ai]]
            upd = ai[improved]
            best_f[idx[upd]] = fc[upd]
            best_x[idx[upd]] = xc[upd]

            gc = obj.gradient(xc[ai], idx[ai], pc)
            s = xc[ai] - x[ai]
            yv = gc - g[ai]
            sy = (s * yv).sum(axis=1)
            ss = (s * s).sum(axis=1)
            bb = np.where(sy > 1e-30, ss / np.where(sy > 1e-30, sy, 1.0),
                          np.minimum(t[ai] * _STEP_GROWTH, 1e12))
            t[ai] = np.clip(bb, _STEP_FLOOR, 1e12)
            x[ai] = xc[ai]
            f[ai] = fc[ai]
            g[ai] = gc

        rej = ~accept
        t[rej] = t[rej] * _STEP_SHRINK

        done = np.zeros(idx.size, dtype=bool)
        done[accept] = np.abs(step[accept]).max(axis=1) <= STEP_TOL
        done |= t < _STEP_FLOOR
        if done.any():
            keep = ~done
            idx = idx[keep]
            x = x[keep]
            f = f[keep]
            g = g[keep]
            t = t[keep]

    return best_x, best_f


def _descent_case(name):
    """A batch of several realizations and weights, a start for each of its
    rows, and the penalty coefficient to descend at.  The starts are seeded
    points in the box, its two corners, and points on or past a face of it
    (clipped onto the face)."""
    spec, pc = {
        "e1": (pp.make_e1(), None),  # multimodal in x1
        "e2": (pp.make_e2(), None),  # analytic gradient, optimum on the bounds at w = 0 and 1
        "gen": (make_gen_problem(), None),  # scalar evaluators, finite differences
        "gen-nan": (_nan_gen_problem(), None),  # NaN for y1 > 0.7
        "toy-constrained": (_widened(pp.make_toy_constrained()), 1e8),  # escalated penalty
    }[name]
    jobs = _jobs(_ks(spec, 3), (0.0, 0.35, 0.5, 1.0))
    batch = _batch(spec, jobs, 6)
    lo, hi = spec.lower_bounds(), spec.upper_bounds()
    rng = np.random.default_rng(11)
    x0 = lo + (hi - lo) * rng.random((6 * len(jobs), spec.n_y))
    x0[::6], x0[1::6] = lo, hi
    x0[2::7, 0] = lo[0]
    x0[3::7, -1] = hi[-1] + 1.0
    return batch, x0, pc


@pytest.mark.parametrize("name", ["e1", "e2", "gen", "gen-nan", "toy-constrained"])
class TestDescentKernel:
    def test_bitwise_equal_to_reference(self, name):
        batch, x0, pc = _descent_case(name)
        got = solver._descent(batch, x0, penalty_coefficient=pc)
        ref = _reference_descent(batch, x0, pc)
        assert np.isfinite(ref[1]).any()
        for g, r in zip(got, ref, strict=True):
            assert g.tobytes() == r.tobytes()

    def test_rows_that_start_non_finite(self, name):
        # rows whose start has no finite value come back as they started,
        # at +inf; the rest descend as they would alone
        batch, x0, pc = _descent_case(name)
        x0[4::5] = np.nan
        if name == "gen-nan":
            x0[5::4, 0] = 0.9
        got = solver._descent(batch, x0, penalty_coefficient=pc)
        ref = _reference_descent(batch, x0, pc)
        assert np.isinf(got[1][4::5]).all()
        for g, r in zip(got, ref, strict=True):
            assert g.tobytes() == r.tobytes()
        x0[:] = np.nan
        none = solver._descent(batch, x0, penalty_coefficient=pc)
        assert np.isinf(none[1]).all()
        for g, r in zip(none, _reference_descent(batch, x0, pc), strict=True):
            assert g.tobytes() == r.tobytes()


@pytest.mark.parametrize("n", range(1, 11))
def test_row_sum_is_numpys_sum(n):
    # the kernel's sums over a row's coordinates keep numpy's bits, the sign
    # of a zero, a nan and an overflow included
    rng = np.random.default_rng(n)
    for m in (1, 2, 9, 300):
        a = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-30, 30, size=(m, n))
        a[::4] = -0.0
        a[1::7, 0] = np.nan
        a[2::7, -1] = np.inf
        a[3::7] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            assert solver._row_sum(a).tobytes() == a.sum(axis=1).tobytes()


# per-layer work of a seed-0 run of three benchmark workloads, as the
# benchmark's tracer counts it: a leaner descent step must not change it.
# On e2-ab and e1-oracle, which declare their split, the descents and the
# finishes evaluate the base (its offsets, once per realization, are not
# counted), and the objectives serve only the check of the split: one
# call of 4 points at each of its realizations (e2-ab 5, e1-oracle 4), and
# one base call of the same rows
_WORK = {
    "e2-ab": {"solver.descent.calls": 1, "solver.descent.rows": 336,
              "solver.descent.escalations": 0,
              "eval.objectives.calls": 1, "eval.objectives.rows": 20,
              "eval.base_objectives.calls": 39, "eval.base_objectives.rows": 6159,
              "eval.gradient.calls": 33, "eval.gradient.rows": 4860,
              "eval.constraints.calls": 0, "eval.constraints.rows": 0},
    "e1-oracle": {"solver.descent.calls": 1, "solver.descent.rows": 1344,
                  "solver.descent.escalations": 0,
                  "eval.objectives.calls": 1, "eval.objectives.rows": 16,
                  "eval.base_objectives.calls": 50, "eval.base_objectives.rows": 23234,
                  "eval.gradient.calls": 45, "eval.gradient.rows": 13721,
                  "eval.constraints.calls": 0, "eval.constraints.rows": 0},
    "gen-constrained": {"solver.descent.calls": 5, "solver.descent.rows": 434,
                        "solver.descent.escalations": 1,
                        "eval.objectives.calls": 59752, "eval.objectives.rows": 59752,
                        "eval.base_objectives.calls": 0, "eval.base_objectives.rows": 0,
                        "eval.gradient.calls": 0, "eval.gradient.rows": 0,
                        "eval.constraints.calls": 59754, "eval.constraints.rows": 59754},
}


@pytest.mark.parametrize("workload", sorted(_WORK))
def test_workload_work_counts(workload):
    (tracing,) = load_perfbench("tracer")
    spec = workloads.build_spec(workload, 0)
    tracer = tracing.Tracer().install()
    try:
        report = workloads.run(workload, tracer.wrap_spec(spec), 0, workers=1)
    finally:
        tracer.uninstall()
    values, _ = tracer.metrics(report, 0)
    assert {key: values[key] for key in _WORK[workload]} == _WORK[workload]
