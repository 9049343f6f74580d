"""The batched solve path: an operation over several realizations equals
the same operation one realization at a time, solves that separable
problems share run once, and evaluator results are shape-checked."""

import dataclasses

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune import solver
from pareto_prune.solver import ScalarizedObjective, solve_scalarized
from conftest import make_fig_problem

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
    """Counts the calls of ``solver._descent`` and the rows of each."""

    def __init__(self, monkeypatch):
        self.rows: list[int] = []
        descent = solver._descent

        def counted(obj, x0, config, penalty_coefficient=None):
            self.rows.append(np.shape(x0)[0])
            return descent(obj, x0, config, penalty_coefficient)

        monkeypatch.setattr(solver, "_descent", counted)


class TestRowSharing:
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_e2_anchors_run_two_blocks_whatever_k(self, e2_spec, config, monkeypatch, n):
        rows = _DescentRows(monkeypatch)
        recs = pp.compute_anchors_utopia(e2_spec, _reals(e2_spec, n), config)
        assert len(recs) == n
        assert rows.rows == [2 * config.n_starts]

    def test_shared_rows_give_each_solve_its_own_point(self, e2_spec, config):
        reals = _reals(e2_spec, 3)
        objs = [ScalarizedObjective(weight=0.5, realization=r, parent=e2_spec) for r in reals]
        descents = solver.descend(objs, config)
        assert descents[0] is descents[1] is descents[2]
        results = [solve_scalarized(o, config, d) for o, d in zip(objs, descents)]
        assert results == [solve_scalarized(o, config) for o in objs]
        assert len({res.point for res in results}) == 3

    def test_constrained_separable_spec_is_not_merged(self, e2_spec, config, monkeypatch):
        def far_bound(y, z):
            return np.asarray(y, dtype=float)[..., :1] - 20.0

        spec = dataclasses.replace(e2_spec, inequality_constraints=far_bound)
        rows = _DescentRows(monkeypatch)
        pp.compute_anchors_utopia(spec, _reals(spec, 3), config)
        assert rows.rows == [2 * 3 * config.n_starts]

    def test_row_cap_splits_the_batch(self, e1_spec, config, monkeypatch):
        reals = _reals(e1_spec, 3)
        whole = pp.build_subproblem_front(e1_spec, reals, 5, config)
        monkeypatch.setattr(solver, "MAX_DESCENT_ROWS", 4 * config.n_starts)
        rows = _DescentRows(monkeypatch)
        assert pp.build_subproblem_front(e1_spec, reals, 5, config) == whole
        assert rows.rows == [4 * config.n_starts] * 3 + [3 * config.n_starts]


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
            pp.run_pipeline(spec, beta=3, workers=1)
