"""Realization enumeration, anchors/utopia, centers, subproblem fronts.  The
anchors are read from a realization's beta=2 front, whose two solves are
the anchors' own."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_prune as pp
from pareto_prune import (
    CapacityExceeded,
    ObjectivePoint,
    build_subproblem_front,
    compute_anchors_utopia,
    compute_center,
    decomposition,
    enumerate_realizations,
    index_of,
    realization_from_index,
)
from pareto_prune.solver import solve_batch
from conftest import dominates, weakly_dominates

# frozen from a 10^6-point grid refined to xatol 1e-13 (e1, z = (0, 0))
E1_Z00_UTOPIA = (-20.0, -3.875762279046282)
# closed-form center of the e2 subproblem with every discrete area = 1:
# per-coordinate optimum y* = (2, 1, 1), confirmed by a 200^3 grid search
# refined by local descent
E2_ALL_ONES_CENTER = (7.0 + 3.0 * math.sqrt(2.0), 12.0 + 12.0 * math.sqrt(2.0))


def _anchors(spec, r, config):
    """The w=1 and w=0 anchors of realization r: the two points of its
    beta=2 front, whose solves are the anchors' own (weight, k) solves."""
    by_tag = {p.provenance: p for p in build_subproblem_front(spec, [r], 2, config)[0]}
    return by_tag["w1"], by_tag["w0"]


def _utopia_and_anchors(spec, r, config):
    """r's utopia point and its anchors; the utopia takes its components
    from the anchors exactly."""
    utopia = compute_anchors_utopia(spec, [r], config)[0]
    a1, a2 = _anchors(spec, r, config)
    assert utopia == ObjectivePoint(a1.point.j1, a2.point.j2)
    return utopia, a1, a2


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


class TestEnumerateRealizations:
    def test_e1_count(self, e1_spec):
        assert len(enumerate_realizations(e1_spec)) == 121

    def test_e2_count(self, e2_spec):
        assert len(enumerate_realizations(e2_spec)) == 4096

    def test_single_value(self):
        reals = enumerate_realizations(_simple_spec(((7.0,),)))
        assert reals == [pp.Realization(k=1, z=(7.0,))]

    def test_last_index_fastest(self):
        reals = enumerate_realizations(_simple_spec(((1.0, 2.0), (10.0, 20.0))))
        assert [r.z for r in reals] == [(1.0, 10.0), (1.0, 20.0), (2.0, 10.0), (2.0, 20.0)]
        assert [r.k for r in reals] == [1, 2, 3, 4]

    def test_capacity_cap(self, e2_spec, monkeypatch):
        monkeypatch.setattr(decomposition, "DEFAULT_REALIZATION_CAP", 4096)
        assert len(enumerate_realizations(e2_spec)) == 4096
        monkeypatch.setattr(decomposition, "DEFAULT_REALIZATION_CAP", 4095)
        with pytest.raises(CapacityExceeded, match="4096 realizations exceed the cap of 4095"):
            enumerate_realizations(e2_spec)

    def test_lexicographic_matches_product(self, e2_spec):
        reals = enumerate_realizations(e2_spec)
        expected = list(itertools.product(*e2_spec.discrete_sets))
        assert [r.z for r in reals] == expected


class TestIndexBijection:
    def test_roundtrip_e1(self, e1_spec):
        for r in enumerate_realizations(e1_spec):
            assert realization_from_index(e1_spec, index_of(e1_spec, r.z)) == r

    def test_out_of_range(self, e1_spec):
        with pytest.raises(ValueError):
            realization_from_index(e1_spec, 0)
        with pytest.raises(ValueError):
            realization_from_index(e1_spec, 122)

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


class TestAnchorsUtopia:
    def test_quad_separable(self, quad_spec, config):
        r = enumerate_realizations(quad_spec)[0]
        utopia, a1, a2 = _utopia_and_anchors(quad_spec, r, config)
        assert a1.y[0] == pytest.approx(0.0, abs=1e-9)
        assert a2.y[0] == pytest.approx(1.0, abs=1e-9)
        assert utopia.j1 == pytest.approx(0.0, abs=1e-12)
        assert utopia.j2 == pytest.approx(0.0, abs=1e-12)

    def test_counts_two_solves(self, quad_spec, config, solve_log):
        r = enumerate_realizations(quad_spec)[0]
        compute_anchors_utopia(quad_spec, [r], config)[0]
        assert solve_log.calls == 2

    def test_unusable_anchor_gives_none(self, config, solve_log):
        spec = _all_nan_spec()
        assert compute_anchors_utopia(spec, enumerate_realizations(spec), config) == [None]
        assert solve_log.calls == 2

    def test_e2_monotone_anchors(self, e2_spec, config):
        r = enumerate_realizations(e2_spec)[0]
        utopia, a1, a2 = _utopia_and_anchors(e2_spec, r, config)
        assert a1.y == (2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
        assert a2.y == (10.0, 10.0, 10.0)
        expected_j1 = 4.0 / 3.0 + 3.0 + 3.0 * math.sqrt(2.0)
        assert utopia.j1 == pytest.approx(expected_j1, rel=1e-12)

    def test_e1_utopia_matches_grid_oracle(self, e1_spec, config):
        r = next(r for r in enumerate_realizations(e1_spec) if r.z == (0.0, 0.0))
        utopia, _, _ = _utopia_and_anchors(e1_spec, r, config)
        assert utopia.j1 == pytest.approx(E1_Z00_UTOPIA[0], abs=1e-6)
        assert utopia.j2 == pytest.approx(E1_Z00_UTOPIA[1], abs=1e-6)


class TestCenter:
    def test_quad_center(self, quad_spec, config):
        r = enumerate_realizations(quad_spec)[0]
        c = compute_center(quad_spec, [r], config)[0]
        res = solve_batch(quad_spec, [(r, 0.5)], config)[0]
        assert res.y_star[0] == pytest.approx(0.5, abs=1e-9)
        assert c == res.point
        assert c.j1 == pytest.approx(0.25, abs=1e-9)
        assert c.j2 == pytest.approx(0.25, abs=1e-9)

    def test_e2_all_ones_matches_grid_descent_oracle(self, e2_spec, config):
        r = enumerate_realizations(e2_spec)[0]
        assert r.z == (1.0,) * 6
        c = compute_center(e2_spec, [r], config)[0]
        assert c.j1 == pytest.approx(E2_ALL_ONES_CENTER[0], abs=1e-4)
        assert c.j2 == pytest.approx(E2_ALL_ONES_CENTER[1], abs=1e-4)

    @pytest.mark.parametrize("z", [(0.0, 0.0), (-1.0, 2.0)])
    def test_center_minimizes_equal_weights_over_front(self, e1_spec, config, z):
        r = next(r for r in enumerate_realizations(e1_spec) if r.z == z)
        c = compute_center(e1_spec, [r], config)[0]
        front = build_subproblem_front(e1_spec, [r], 21, config)[0]
        half = 0.5 * (c.j1 + c.j2)
        for p in front:
            assert half <= 0.5 * (p.point.j1 + p.point.j2) + 1e-6

    def test_counts_one_solve(self, quad_spec, config, solve_log):
        r = enumerate_realizations(quad_spec)[0]
        compute_center(quad_spec, [r], config)[0]
        assert solve_log.calls == 1


class TestSubproblemFront:
    def test_beta_validation(self, quad_spec, config):
        r = enumerate_realizations(quad_spec)[0]
        with pytest.raises(ValueError):
            build_subproblem_front(quad_spec, [r], 1, config)[0]

    def test_beta_two_reproduces_anchors(self, e1_spec, config):
        r = next(r for r in enumerate_realizations(e1_spec) if r.z == (0.0, -1.0))
        utopia, a1, a2 = _utopia_and_anchors(e1_spec, r, config)
        front = build_subproblem_front(e1_spec, [r], 2, config)[0]
        assert [p.provenance for p in front] == ["w1", "w0"]  # sorted by j1
        assert utopia.j1 == min(p.point.j1 for p in front) == a1.point.j1
        assert utopia.j2 == min(p.point.j2 for p in front) == a2.point.j2

    def test_quad_convex_front(self, quad_spec, config):
        r = enumerate_realizations(quad_spec)[0]
        front = build_subproblem_front(quad_spec, [r], 21, config)[0]
        assert len(front) == 21
        assert front[0].point.as_tuple() == pytest.approx((0.0, 1.0), abs=1e-9)
        assert front[-1].point.as_tuple() == pytest.approx((1.0, 0.0), abs=1e-9)
        j1s = [p.point.j1 for p in front]
        assert j1s == sorted(j1s)
        assert len({p.point.as_tuple() for p in front}) == 21

    def test_counts_beta_solves(self, quad_spec, config, solve_log):
        r = enumerate_realizations(quad_spec)[0]
        build_subproblem_front(quad_spec, [r], 13, config)[0]
        assert solve_log.calls == 13

    def test_raising_weights_still_pose_beta_solves(self, config, solve_log):
        spec = _all_nan_spec()
        assert build_subproblem_front(spec, enumerate_realizations(spec), 7, config) == [None]
        assert solve_log.calls == 7

    @pytest.mark.parametrize("z", [(0.0, 0.0), (-1.0, -1.0), (3.0, -4.0)])
    def test_utopia_weakly_dominates_front(self, e1_spec, config, z):
        r = next(r for r in enumerate_realizations(e1_spec) if r.z == z)
        utopia, _, _ = _utopia_and_anchors(e1_spec, r, config)
        for p in build_subproblem_front(e1_spec, [r], 21, config)[0]:
            assert weakly_dominates(utopia, p.point, 1e-9)

    def test_anchor_consistency(self, e1_spec, config):
        r = next(r for r in enumerate_realizations(e1_spec) if r.z == (0.0, 0.0))
        _, a1, a2 = _utopia_and_anchors(e1_spec, r, config)
        front = build_subproblem_front(e1_spec, [r], 21, config)[0]
        for anchor in (a1, a2):
            close = any(
                abs(p.point.j1 - anchor.point.j1) <= 1e-9
                and abs(p.point.j2 - anchor.point.j2) <= 1e-9
                for p in front
            )
            better = any(dominates(p.point, anchor.point) for p in front)
            assert close or better

    def test_e1_front_survives_dense_sampling(self, e1_spec, config):
        # no densely sampled point may strictly dominate a front point
        # (small slack for solver convergence error)
        r = next(r for r in enumerate_realizations(e1_spec) if r.z == (0.0, 0.0))
        front = build_subproblem_front(e1_spec, [r], 21, config)[0]
        xs = np.linspace(-5.0, 5.0, 2_000_001)
        j1 = -10.0 * np.exp(-0.2 * np.abs(xs)) - 10.0
        j2 = np.abs(xs) ** 0.8 + 5.0 * np.sin(xs ** 3)
        for p in front:
            dominating = (j1 <= p.point.j1 - 1e-7) & (j2 <= p.point.j2 - 1e-7)
            assert not bool(dominating.any())
