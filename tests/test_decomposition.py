"""Realization order, anchors/utopia, centers, subproblem fronts.  The
anchors are read from a realization's beta=2 front, whose two solves are
the anchors' own."""

import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_prune as pp
from pareto_prune.core import Realization, _z_rows
from pareto_prune.decomposition import (
    build_subproblem_front,
    compute_anchors_utopia,
    compute_center,
    realization_from_index,
    weight_grid,
)
from pareto_prune.solver import Solver
from conftest import ANCHORS, CENTER, dominates, index_of, weakly_dominates

# frozen from a 10^6-point grid refined to xatol 1e-13 (e1, z = (0, 0))
E1_Z00_UTOPIA = (-20.0, -3.875762279046282)
# closed-form center of the e2 subproblem with every discrete area = 1:
# per-coordinate optimum y* = (2, 1, 1), confirmed by a 200^3 grid search
# refined by local descent
E2_ALL_ONES_CENTER = (7.0 + 3.0 * math.sqrt(2.0), 12.0 + 12.0 * math.sqrt(2.0))


class _Anchor(NamedTuple):
    y: tuple[float, ...]
    point: tuple[float, float]


def _anchors(spec, k, config):
    """The w=1 and w=0 anchors of realization k: the two rows of its
    beta=2 front, whose solves are the anchors' own (k, weight) solves."""
    front = build_subproblem_front(Solver(spec, weight_grid(2), config), [k], 2)
    by_w = {w: _Anchor(tuple(y), tuple(p))
            for w, y, p in zip(front.w.tolist(), front.y.tolist(), front.pts.tolist())}
    return by_w[1], by_w[0]


def _utopia_and_anchors(spec, k, config):
    """k's utopia point and its anchors; the utopia takes its components
    from the anchors exactly."""
    utopia = compute_anchors_utopia(Solver(spec, ANCHORS, config), [k])
    a1, a2 = _anchors(spec, k, config)
    assert utopia.tobytes() == np.array([[a1.point[0], a2.point[1]]]).tobytes()
    return tuple(utopia[0].tolist()), a1, a2


def _all_nan_spec():
    def objs(y, z):
        v = np.asarray(y, dtype=float)[..., 0]
        return np.stack([np.full_like(v, np.nan), v], axis=-1)

    return pp.ProblemSpec(
        name="all-nan", n_y=1, bounds=((0.0, 1.0),), discrete_sets=((0.0,),),
        objectives=objs, vectorized=True,
    )


def _simple_spec(discrete_sets):
    return pp.ProblemSpec(
        name="tiny",
        n_y=1,
        bounds=((0.0, 1.0),),
        discrete_sets=discrete_sets,
        objectives=lambda y, z: (0.0, 0.0),
    )


def _z_rule_specs(e1_spec, e2_spec):
    """e1, e2, and a spec with set sizes (3, 1, 4) whose values are not
    sorted (one of them -0.0, which a bitwise comparison tells from 0.0)."""
    return [e1_spec, e2_spec,
            _simple_spec(((2.5, -1.0, -0.0), (7.0,), (3.0, -2.0, 10.0, 0.5)))]


def _all_z(spec, dtype=float):
    """The z rows of every realization of ``spec``, k = 1..|K| in order."""
    return _z_rows(spec, np.arange(1, spec._k_total + 1), dtype)


class TestEnumerateRealizations:
    """The realizations are k = 1..|K|, the rows of the product of the
    sets, the last variable fastest: one rule (``core._z_rows``) gives
    their z, and ``realization_from_index`` one k's."""

    def test_e1_count(self, e1_spec):
        assert e1_spec._k_total == 121
        assert len(set(map(tuple, _all_z(e1_spec).tolist()))) == 121

    def test_e2_count(self, e2_spec):
        assert e2_spec._k_total == 4096
        assert len(set(map(tuple, _all_z(e2_spec).tolist()))) == 4096

    def test_single_value(self):
        spec = _simple_spec(((7.0,),))
        assert spec._k_total == 1 and _all_z(spec).tolist() == [[7.0]]
        assert realization_from_index(spec, 1) == Realization(k=1, z=(7.0,))

    def test_last_index_fastest(self):
        spec = _simple_spec(((1.0, 2.0), (10.0, 20.0)))
        want = [(1.0, 10.0), (1.0, 20.0), (2.0, 10.0), (2.0, 20.0)]
        assert list(map(tuple, _all_z(spec).tolist())) == want
        assert [realization_from_index(spec, k) for k in range(1, 5)] == [
            Realization(k, z) for k, z in enumerate(want, 1)]

    def test_lexicographic_matches_product(self, e1_spec, e2_spec):
        # the one k -> z rule (core._z_rows) and realization_from_index both
        # give itertools.product order, the rule's rows bit for bit
        for spec in _z_rule_specs(e1_spec, e2_spec):
            expected = list(itertools.product(*spec.discrete_sets))
            assert spec._k_total == len(expected)
            rows = _all_z(spec)
            assert rows.dtype == np.float64 and rows.shape == (len(expected), spec.n_z)
            assert rows.tobytes() == np.array(expected, dtype=float).tobytes()
            assert [realization_from_index(spec, k) for k in range(1, len(expected) + 1)] == [
                Realization(k, z) for k, z in enumerate(expected, 1)]

    def test_z_tuples_hold_the_sets_own_floats(self, e1_spec):
        # one float object per set value, shared by every realization's z,
        # as itertools.product gives them: in the rule's object rows and in
        # each realization_from_index z
        want = list(itertools.product(*e1_spec.discrete_sets))
        for row, z in zip(_all_z(e1_spec, object).tolist(), want, strict=True):
            assert all(a is b for a, b in zip(row, z, strict=True))
        for k, z in enumerate(want, 1):
            r = realization_from_index(e1_spec, k)
            assert type(r.z) is tuple and all(a is b for a, b in zip(r.z, z, strict=True))


class TestIndexBijection:
    def test_roundtrip_e1(self, e1_spec):
        for k, z in enumerate(itertools.product(*e1_spec.discrete_sets), 1):
            assert realization_from_index(e1_spec, index_of(e1_spec, z)) == Realization(k, z)

    def test_out_of_range(self, e1_spec):
        with pytest.raises(ValueError):
            realization_from_index(e1_spec, 0)
        with pytest.raises(ValueError):
            realization_from_index(e1_spec, 122)
        for k in (2.5, 2.0):  # mixed radix would truncate it to a neighbour's z
            with pytest.raises(ValueError, match="k must be an integer in 1..121"):
                realization_from_index(e1_spec, k)

    @pytest.mark.parametrize("k", [True, False])
    def test_bool_is_not_an_index(self, e1_spec, k):
        # as run_pipeline refuses a bool eps and the report reader a bool index
        with pytest.raises(ValueError, match=f"^k must be an integer in 1..121, got {k!r}$"):
            realization_from_index(e1_spec, k)

    def test_rows_match_realization_from_index(self, e1_spec, e2_spec):
        # any ks, in any order and repeated: row i is the z of ks[i], bit for bit
        rng = np.random.default_rng(4)
        for spec in _z_rule_specs(e1_spec, e2_spec):
            total = math.prod(len(zs) for zs in spec.discrete_sets)
            ks = rng.permutation(np.arange(1, total + 1)).tolist() + [total, 1, total]
            rows = _z_rows(spec, ks)
            want = [realization_from_index(spec, k).z for k in ks]
            assert rows.tobytes() == np.array(want, dtype=float).tobytes()
            assert all(realization_from_index(spec, k).k == k for k in ks[:50])

    def test_unknown_value(self, e1_spec):
        with pytest.raises(ValueError):
            index_of(e1_spec, (0.5, 0.0))

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.randoms())
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_random_shapes(self, sizes, rnd):
        sets = tuple(tuple(float(10 * j + i) for i in range(n)) for j, n in enumerate(sizes))
        spec = _simple_spec(sets)
        total = math.prod(sizes)
        k = rnd.randint(1, total)
        r = realization_from_index(spec, k)
        assert index_of(spec, r.z) == k
        assert tuple(_z_rows(spec, [k])[0].tolist()) == r.z


class TestAnchorsUtopia:
    def test_quad_separable(self, quad_spec, config):
        k = 1
        utopia, a1, a2 = _utopia_and_anchors(quad_spec, k, config)
        assert a1.y[0] == pytest.approx(0.0, abs=1e-9)
        assert a2.y[0] == pytest.approx(1.0, abs=1e-9)
        assert utopia[0] == pytest.approx(0.0, abs=1e-12)
        assert utopia[1] == pytest.approx(0.0, abs=1e-12)

    def test_counts_two_solves(self, quad_spec, config, solve_log):
        k = 1
        compute_anchors_utopia(Solver(quad_spec, ANCHORS, config), [k])[0]
        assert solve_log.calls == 2

    def test_unusable_anchor_gives_none(self, config, solve_log):
        spec = _all_nan_spec()
        ks = np.arange(1, spec._k_total + 1)
        utopias = compute_anchors_utopia(Solver(spec, ANCHORS, config), ks)
        assert utopias.shape == (1, 2) and np.isnan(utopias).all()
        assert solve_log.calls == 2

    def test_e2_monotone_anchors(self, e2_spec, config):
        k = 1
        utopia, a1, a2 = _utopia_and_anchors(e2_spec, k, config)
        assert a1.y == (2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
        assert a2.y == (10.0, 10.0, 10.0)
        expected_j1 = 4.0 / 3.0 + 3.0 + 3.0 * math.sqrt(2.0)
        assert utopia[0] == pytest.approx(expected_j1, rel=1e-12)

    def test_e1_utopia_matches_grid_oracle(self, e1_spec, config):
        k = index_of(e1_spec, (0.0, 0.0))
        utopia, _, _ = _utopia_and_anchors(e1_spec, k, config)
        assert utopia[0] == pytest.approx(E1_Z00_UTOPIA[0], abs=1e-6)
        assert utopia[1] == pytest.approx(E1_Z00_UTOPIA[1], abs=1e-6)


class TestCenter:
    def test_quad_center(self, quad_spec, config):
        k = 1
        c = compute_center(Solver(quad_spec, CENTER, config), [k])[0]
        y, pts = Solver(quad_spec, [0.5], config).solve([k], [0.5])
        assert y[0, 0, 0] == pytest.approx(0.5, abs=1e-9)
        assert c.tobytes() == pts[0, 0].tobytes()
        assert c[0] == pytest.approx(0.25, abs=1e-9)
        assert c[1] == pytest.approx(0.25, abs=1e-9)

    def test_e2_all_ones_matches_grid_descent_oracle(self, e2_spec, config):
        k = 1
        assert _z_rows(e2_spec, [k]).tolist() == [[1.0] * 6]
        c = compute_center(Solver(e2_spec, CENTER, config), [k])[0]
        assert c[0] == pytest.approx(E2_ALL_ONES_CENTER[0], abs=1e-4)
        assert c[1] == pytest.approx(E2_ALL_ONES_CENTER[1], abs=1e-4)

    @pytest.mark.parametrize("z", [(0.0, 0.0), (-1.0, 2.0)])
    def test_center_minimizes_equal_weights_over_front(self, e1_spec, config, z):
        k = index_of(e1_spec, z)
        c1, c2 = compute_center(Solver(e1_spec, CENTER, config), [k])[0].tolist()
        front = build_subproblem_front(Solver(e1_spec, weight_grid(21), config), [k], 21)
        half = 0.5 * (c1 + c2)
        for j1, j2 in front.pts.tolist():
            assert half <= 0.5 * (j1 + j2) + 1e-6

    def test_counts_one_solve(self, quad_spec, config, solve_log):
        k = 1
        compute_center(Solver(quad_spec, CENTER, config), [k])[0]
        assert solve_log.calls == 1


class TestSubproblemFront:
    def test_beta_validation(self, quad_spec, config):
        k = 1
        with pytest.raises(ValueError):
            build_subproblem_front(Solver(quad_spec, ANCHORS, config), [k], 1)

    def test_beta_two_reproduces_anchors(self, e1_spec, config):
        k = index_of(e1_spec, (0.0, -1.0))
        utopia, a1, a2 = _utopia_and_anchors(e1_spec, k, config)
        front = build_subproblem_front(Solver(e1_spec, weight_grid(2), config), [k], 2)
        assert front.w.tolist() == [1, 0]  # sorted by j1
        assert utopia[0] == min(front.pts[:, 0].tolist()) == a1.point[0]
        assert utopia[1] == min(front.pts[:, 1].tolist()) == a2.point[1]

    def test_quad_convex_front(self, quad_spec, config):
        k = 1
        run = Solver(quad_spec, weight_grid(21), config)
        pts = build_subproblem_front(run, [k], 21).pts.tolist()
        assert len(pts) == 21
        assert tuple(pts[0]) == pytest.approx((0.0, 1.0), abs=1e-9)
        assert tuple(pts[-1]) == pytest.approx((1.0, 0.0), abs=1e-9)
        j1s = [j1 for j1, _ in pts]
        assert j1s == sorted(j1s)
        assert len({tuple(p) for p in pts}) == 21

    def test_counts_beta_solves(self, quad_spec, config, solve_log):
        k = 1
        build_subproblem_front(Solver(quad_spec, weight_grid(13), config), [k], 13)
        assert solve_log.calls == 13

    def test_raising_weights_still_pose_beta_solves(self, config, solve_log):
        spec = _all_nan_spec()
        ks = np.arange(1, spec._k_total + 1)
        front = build_subproblem_front(Solver(spec, weight_grid(7), config), ks, 7)
        assert front.k.size == 0  # the realization has no feasible point
        assert solve_log.calls == 7

    @pytest.mark.parametrize("z", [(0.0, 0.0), (-1.0, -1.0), (3.0, -4.0)])
    def test_utopia_weakly_dominates_front(self, e1_spec, config, z):
        k = index_of(e1_spec, z)
        utopia, _, _ = _utopia_and_anchors(e1_spec, k, config)
        run = Solver(e1_spec, weight_grid(21), config)
        for p in build_subproblem_front(run, [k], 21).pts.tolist():
            assert weakly_dominates(utopia, p, 1e-9)

    def test_anchor_consistency(self, e1_spec, config):
        k = index_of(e1_spec, (0.0, 0.0))
        _, a1, a2 = _utopia_and_anchors(e1_spec, k, config)
        run = Solver(e1_spec, weight_grid(21), config)
        front = build_subproblem_front(run, [k], 21).pts.tolist()
        for anchor in (a1, a2):
            close = any(
                abs(p[0] - anchor.point[0]) <= 1e-9
                and abs(p[1] - anchor.point[1]) <= 1e-9
                for p in front
            )
            better = any(dominates(p, anchor.point) for p in front)
            assert close or better

    def test_e1_front_survives_dense_sampling(self, e1_spec, config):
        # no densely sampled point may strictly dominate a front point
        # (small slack for solver convergence error)
        k = index_of(e1_spec, (0.0, 0.0))
        front = build_subproblem_front(Solver(e1_spec, weight_grid(21), config), [k], 21)
        xs = np.linspace(-5.0, 5.0, 2_000_001)
        j1 = -10.0 * np.exp(-0.2 * np.abs(xs)) - 10.0
        j2 = np.abs(xs) ** 0.8 + 5.0 * np.sin(xs ** 3)
        for p1, p2 in front.pts.tolist():
            dominating = (j1 <= p1 - 1e-7) & (j2 <= p2 - 1e-7)
            assert not bool(dominating.any())
