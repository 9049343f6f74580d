"""Dominance primitives: axioms of the reference dominance tests (conftest),
filter semantics, brute-force equivalence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pareto_prune as pp
from pareto_prune import ProblemSpec, decomposition, pipeline
from pareto_prune.core import Front, _check_eps, nondominated_filter, nondominated_rows
from pareto_prune.solver import Solver
from conftest import dominates, front_rows, weakly_dominates

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.tuples(finite, finite)


def brute_force_filter(pts, eps=0.0):
    """Independent O(n^2) oracle on (j1, j2) pairs: strict dominance,
    duplicates survive."""
    out = []
    for i, a in enumerate(pts):
        dominated = False
        for j, b in enumerate(pts):
            if i == j:
                continue
            if (
                b[0] <= a[0] + eps
                and b[1] <= a[1] + eps
                and (b[0] < a[0] - eps or b[1] < a[1] - eps)
            ):
                dominated = True
                break
        if not dominated:
            out.append(a)
    return out


def _kept(pts, eps=0.0):
    """The points of ``pts`` that ``nondominated_filter`` keeps, in order."""
    return [pts[i] for i in nondominated_filter(pts, eps).tolist()]


class TestDominates:
    def test_weak_le_with_one_strict(self):
        assert dominates((1, 1), (1, 2))

    def test_incomparable_pair(self):
        assert not dominates((1, 2), (2, 1))

    def test_irreflexive_on_example(self):
        assert not dominates((1, 1), (1, 1))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            dominates((0, 0), (1, 1), eps=-1e-9)

    @given(points)
    def test_irreflexivity(self, p):
        assert not dominates(p, p, 0.0)

    @given(points, points, st.sampled_from([0.0, 1e-9, 0.1]))
    def test_antisymmetry(self, a, b, eps):
        if dominates(a, b, eps):
            assert not dominates(b, a, eps)

    @given(points, points, points)
    def test_transitivity(self, a, b, c):
        if dominates(a, b) and dominates(b, c):
            assert dominates(a, c)

    @given(points, points, st.integers(-20, 20), st.integers(-20, 20))
    def test_scaling_invariance_powers_of_two(self, a, b, e1, e2):
        # powers of two scale floats exactly, so the boolean outcome is
        # preserved without rounding caveats
        c1, c2 = 2.0 ** e1, 2.0 ** e2
        sa = (a[0] * c1, a[1] * c2)
        sb = (b[0] * c1, b[1] * c2)
        assert dominates(a, b) == dominates(sa, sb)
        assert weakly_dominates(a, b) == weakly_dominates(sa, sb)


class TestWeaklyDominates:
    def test_equal_points(self):
        assert weakly_dominates((1, 1), (1, 1))

    def test_better_in_one(self):
        assert weakly_dominates((0, 3), (1, 3))

    def test_worse_in_one(self):
        assert not weakly_dominates((0, 3), (1, 2))

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            weakly_dominates((0, 0), (1, 1), eps=-0.5)


class TestObjectivePoint:
    """A front point (j1, j2) of a report must be finite."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_nonfinite_rejected(self, bad):
        doc = pp.run_pipeline(pp.make_quad(), beta=2).to_json_dict()
        for field in ("j1", "j2"):
            point = {**doc["front"][0], field: bad}
            with pytest.raises(ValueError, match=f"front {field} must be a finite number"):
                pp.PruneReport.from_json_dict({**doc, "front": [point, *doc["front"][1:]]})


class TestNondominatedFilter:
    def test_simple(self):
        pts = [(1, 2), (2, 1), (2, 2)]
        assert _kept(pts) == [(1, 2), (2, 1)]

    def test_duplicates_survive(self):
        pts = [(1, 1), (1, 1)]
        assert _kept(pts) == pts

    def test_empty(self):
        assert _kept([]) == []

    def test_stable_order(self):
        pts = [(3, 0), (0, 3), (1, 1)]
        assert _kept(pts) == pts

    def test_tie_in_one_coordinate_is_dominated(self):
        # equal j2, strictly worse j1: strict dominance removes it
        assert _kept([(1, 5), (2, 5)]) == [(1, 5)]

    @pytest.mark.parametrize("eps", [True, np.bool_(True), "0.1", None])
    def test_eps_that_is_not_a_real_number_is_rejected(self, eps):
        with pytest.raises(ValueError, match="^eps must be a real number, got "):
            nondominated_rows(np.array([[1.0, 2.0], [2.0, 1.0]]), eps)

    @pytest.mark.parametrize("eps", [np.float64(0.5), np.float32(0.5), np.int64(0), 1])
    def test_numpy_and_integer_eps_are_accepted(self, eps):
        pts = np.array([[1.0, 2.0], [2.0, 1.0], [1.2, 2.2]])
        assert nondominated_rows(pts, eps).tolist() == nondominated_rows(pts, float(eps)).tolist()

    @pytest.mark.parametrize("n", [100, 1000])
    @pytest.mark.parametrize("eps", [0.0, 1e-3])
    def test_matches_brute_force(self, n, eps):
        rng = np.random.default_rng(n)
        pts = [(a, b) for a, b in rng.random((n, 2))]
        assert _kept(pts, eps) == brute_force_filter(pts, eps)

    def test_matches_brute_force_with_exact_ties(self):
        rng = np.random.default_rng(7)
        vals = rng.integers(0, 8, size=(300, 2)).astype(float)
        pts = [(a, b) for a, b in vals]
        for eps in (0.0, 0.25, 1.0):
            assert _kept(pts, eps) == brute_force_filter(pts, eps)

    @given(st.lists(points, max_size=60))
    @settings(max_examples=60)
    def test_idempotent(self, pts):
        once = _kept(pts)
        assert _kept(once) == once

    @given(st.lists(points, max_size=40))
    @settings(max_examples=60)
    def test_matches_brute_force_property(self, pts):
        assert _kept(pts) == brute_force_filter(pts)

    def test_accepts_solutions(self):
        # the indices select the rows of a front's parallel arrays
        front = Front(np.ones(3, dtype=np.int64), np.arange(3), np.array([[0.0], [1.0], [0.5]]),
                      np.array([[1.0, 2.0], [0.0, 3.0], [2.0, 3.0]]))
        assert front_rows(front.take(nondominated_filter(front.pts))) == front_rows(front)[:2]


# generated subproblem fronts: per realization, the outcome of each of BETA
# solves, None where it is not feasible.  Values on a quarter grid make exact
# duplicates and ties in j1, within and across realizations, common.
BETA = 5
_quarter = st.integers(0, 4).map(lambda i: i / 4)
_outcomes = st.lists(st.none() | st.tuples(_quarter, _quarter), min_size=BETA, max_size=BETA)


def _ops_fronts(outcomes, eps, monkeypatch):
    """The fronts two operations build from ``outcomes``, the realizations
    at even positions and those at odd ones, with the solves replaced by
    the generated outcomes (y = (weight index,))."""
    ks = list(range(1, len(outcomes) + 1))

    def solve_all(solver, ks, weights):
        assert weights == decomposition.weight_grid(BETA)
        y = np.tile(np.arange(BETA, dtype=float), len(ks))[:, None]
        pts = [(math.nan, math.nan) if p is None else p for k in ks for p in outcomes[k - 1]]
        return y, np.array(pts, dtype=float).reshape(-1, 2)

    monkeypatch.setattr(decomposition, "_solve_all", solve_all)
    spec = pp.make_quad()
    run = Solver(spec, decomposition.weight_grid(BETA))
    return [decomposition.build_subproblem_front(run, ks[i::2], BETA, eps) for i in (0, 1)]


def _list_front(outcomes, k, eps):
    """The list path's front of realization k: its feasible outcomes
    filtered, then sorted by j1, as (k, w, y, j1, j2) rows."""
    rows = [(k, w, (float(w),), *p) for w, p in enumerate(outcomes[k - 1]) if p is not None]
    return sorted(_filter_rows(rows, eps), key=lambda row: row[3])


def _filter_rows(rows, eps):
    """The (k, w, y, j1, j2) ``rows`` whose point no other row's strictly
    dominates, in order."""
    return [rows[i] for i in nondominated_filter([row[3:] for row in rows], eps).tolist()]


def _reference_mask(points, eps=0.0):
    """The one-front filter as first written (core.nondominated_mask): a
    mask of the rows of ``points`` that no other row strictly dominates."""
    _check_eps(eps)
    j1, j2 = points[:, 0], points[:, 1]
    order = np.argsort(j1, kind="stable")
    sorted_j1 = j1[order]
    prefix_min_j2 = np.minimum.accumulate(j2[order])
    # rows with a1 < b1-eps, then rows with a1 <= b1+eps
    c = np.searchsorted(sorted_j1, j1 - eps, side="left")
    dominated = (c > 0) & (prefix_min_j2[c - 1] <= j2 + eps)
    c = np.searchsorted(sorted_j1, j1 + eps, side="right")
    dominated |= (c > 0) & (prefix_min_j2[c - 1] < j2 - eps)
    return ~dominated


class TestSegmentedFilter:
    """One segmented pass filters every realization of an operation as the
    one-front filter it replaced (``_reference_mask``) filters each alone,
    and the final front it leads to equals the list path's, order
    included."""

    @staticmethod
    def _check_segments(seg, pts, eps):
        expected = []
        for s in sorted(set(seg.tolist())):
            idx = np.flatnonzero(seg == s)
            keep = idx[_reference_mask(pts[idx], eps)]
            alone = brute_force_filter([tuple(p) for p in pts[idx].tolist()], eps)
            assert [tuple(p) for p in pts[keep].tolist()] == alone
            expected += keep[np.argsort(pts[keep, 0], kind="stable")].tolist()
        assert nondominated_rows(pts, eps, seg).tolist() == expected

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(rows=st.lists(st.tuples(st.integers(0, 5), _quarter, _quarter), max_size=40),
           eps=st.sampled_from([0.0, 1e-3, 0.1]))
    def test_equals_each_segment_alone(self, rows, eps):
        seg = np.array([s for s, _, _ in rows], dtype=np.int64)
        pts = np.array([p for _, *p in rows], dtype=float).reshape(-1, 2)
        self._check_segments(seg, pts, eps)

    @pytest.mark.parametrize("eps", [0.0, 1e-3, 0.1])
    def test_equals_each_segment_alone_at_size(self, eps):
        # long runs of exact ties, where an unstable sort would reorder them
        rng = np.random.default_rng(19)
        self._check_segments(rng.integers(0, 40, 2000), rng.integers(0, 5, (2000, 2)) / 4, eps)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(outcomes=st.lists(_outcomes, min_size=1, max_size=7),
           eps=st.sampled_from([0.0, 1e-3, 0.1]))
    @example(outcomes=[[(0.0, 1.0), (0.0, 1.0), (0.5, 0.5), None, None],
                       [None] * BETA,
                       [(0.0, 1.0), None, None, None, None],
                       [(0.5, 0.25), (0.25, 0.5), (0.5, 0.25), (1.0, 0.0), None]], eps=0.1)
    def test_fronts_and_final_front_equal_the_list_path(self, outcomes, eps):
        with pytest.MonkeyPatch.context() as mp:
            fronts = _ops_fronts(outcomes, eps, mp)
        for i, front in enumerate(fronts):
            ks = range(i + 1, len(outcomes) + 1, 2)
            assert front_rows(front) == [row for k in ks for row in _list_front(outcomes, k, eps)]
        merged = [s for k in range(1, len(outcomes) + 1) for s in _list_front(outcomes, k, eps)]
        if not merged:
            with pytest.raises(pp.PipelineError):
                pipeline._final_front(fronts, eps)
            return
        final = _filter_rows(merged, eps)
        final.sort(key=lambda row: row[3])
        got = pipeline._final_front(fronts, eps)
        assert front_rows(got) == final


class TestProblemSpecValidation:
    def _objs(self, y, z):
        return (0.0, 0.0)

    def test_bad_bounds(self):
        for pair in ((1.0, 1.0), (1.0, 0.0), (-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="invalid bound pair"):
                ProblemSpec("p", 1, (pair,), ((0.0,),), self._objs)

    def test_bounds_length_mismatch(self):
        with pytest.raises(ValueError):
            ProblemSpec("p", 2, ((0.0, 1.0),), ((0.0,),), self._objs)

    def test_empty_discrete_set(self):
        with pytest.raises(ValueError):
            ProblemSpec("p", 1, ((0.0, 1.0),), ((),), self._objs)

    def test_no_discrete_variables(self):
        with pytest.raises(ValueError, match="problem has no discrete variables"):
            ProblemSpec("p", 1, ((0.0, 1.0),), (), self._objs)

    def test_repeated_discrete_values(self):
        with pytest.raises(ValueError):
            ProblemSpec("p", 1, ((0.0, 1.0),), ((1.0, 1.0),), self._objs)

    def test_equality_constraints_rejected(self):
        with pytest.raises(TypeError):
            ProblemSpec(
                "p", 1, ((0.0, 1.0),), ((0.0,),), self._objs,
                equality_constraints=lambda y, z: 0.0,
            )

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_discrete_values(self, value):
        with pytest.raises(ValueError, match="discrete set 1 has non-finite values"):
            ProblemSpec("p", 1, ((0.0, 1.0),), ((0.0,), (1.0, value)), self._objs)
