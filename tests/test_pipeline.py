"""Two-phase pipeline semantics on problems with known closed-form
outcomes, Phase-A exactness on generated problems, plus solve accounting
and the ignored ``workers`` keyword."""

import dataclasses
import functools
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pareto_prune as pp
from pareto_prune import PipelineError, core, pipeline, run_pipeline
from pareto_prune.core import Front, nondominated_filter
from pareto_prune.decomposition import (
    build_subproblem_front,
    compute_anchors_utopia,
    compute_center,
    weight_grid,
)
from pareto_prune.pipeline import build_master_front, master_candidates, phase_a, phase_b
from pareto_prune.solver import MAX_DESCENT_ROWS, Solver
from conftest import (
    ANCHORS,
    CENTER,
    front_points,
    install_solve_log,
    make_fig_problem,
    make_nan_offset_problem,
    make_scaled_e2,
    weakly_dominates,
)


class TestMasterCandidates:
    def test_simple(self):
        utopias = np.array([(0, 5), (5, 0), (3, 3), (6, 6)], dtype=float)
        assert master_candidates(utopias).tolist() == [0, 1, 2]

    def test_identical_utopias_all_retained(self):
        assert master_candidates(np.ones((3, 2))).tolist() == [0, 1, 2]

    def test_empty(self):
        assert master_candidates(np.empty((0, 2))).tolist() == []

    def test_infeasible_skipped(self):
        assert master_candidates(np.array([(0.0, 0.0), (np.nan, np.nan)])).tolist() == [0]

    def test_master_front_of_no_candidates_is_empty(self, quad_spec, config):
        # phase_a passes no ks when every utopia is NaN; the run then raises
        # in its final filter (TestValidation.test_all_infeasible)
        master_front, fronts = build_master_front(Solver(quad_spec, weight_grid(21), config),
                                                  np.array([], dtype=np.int64), 21)
        assert master_front.k.size == fronts.k.size == 0


def _weakly_dominated_by(front: Front, p, eps: float) -> bool:
    return bool(np.any((front.pts[:, 0] <= p[0] + eps) & (front.pts[:, 1] <= p[1] + eps)))


# a quarter grid: j1 and j2 ties, duplicates, and points equal to front points
_quarter = st.integers(0, 8).map(lambda i: i / 4)
_pairs = st.lists(st.tuples(_quarter, _quarter), max_size=12)


def _front_of(pts):
    pts = np.array(pts, dtype=float).reshape(len(pts), 2)
    n = len(pts)
    return Front(np.ones(n, dtype=np.int64), np.zeros(n, dtype=np.int64), np.zeros((n, 1)), pts)


class TestWeaklyDominated:
    """The one staircase search of A-3 and B-2 against the per-point scan
    it replaced (``_weakly_dominated_by``, kept above as the reference)."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(front=_pairs, points=_pairs, nan_rows=st.lists(st.booleans(), max_size=12),
           eps=st.sampled_from([0.0, 1e-3, 0.1, 0.25]))
    @example(front=[(0.5, 0.5)], points=[(0.5, 0.5), (0.5, 0.25), (0.25, 0.5)], nan_rows=[],
             eps=0.0)
    @example(front=[], points=[(0.0, 0.0), (-1e300, -1e300), (2.0, 2.0)],
             nan_rows=[False, False, True], eps=0.1)
    def test_equals_the_per_point_scan(self, front, points, nan_rows, eps):
        f = _front_of(front)
        pts = np.array(points, dtype=float).reshape(len(points), 2)
        nan = np.array(nan_rows + [False] * len(points), dtype=bool)[:len(points)]
        pts[nan] = np.nan
        got = pipeline._weakly_dominated(f.pts, pts, eps)
        assert got.dtype == bool and got.shape == (len(points),)
        for i, p in enumerate(pts.tolist()):
            want = not nan[i] and _weakly_dominated_by(f, p, eps)
            assert got[i] == want

    @pytest.mark.parametrize("phases, calls", [("ab", 2), ("a", 1), ("none", 0)])
    def test_one_call_per_pruning_step(self, phases, calls, monkeypatch):
        # A-3 tests every utopia in one call and B-2 every center in one
        seen = []
        search = pipeline._weakly_dominated
        monkeypatch.setattr(pipeline, "_weakly_dominated",
                            lambda *args: seen.append(len(args[1])) or search(*args))
        e2 = pp.make_e2()
        catalogue = e2.discrete_sets[0]
        spec = dataclasses.replace(e2, name="e2-k16",
                                   discrete_sets=(catalogue, catalogue) + ((5.0,),) * 4)
        report = run_pipeline(spec, beta=21, phases=phases)
        assert len(seen) == calls
        if calls:
            assert seen[0] == report.k_total == 16


@pytest.fixture(scope="module")
def report(fig_spec):
    return run_pipeline(fig_spec, beta=21, phases="ab")


class TestFigProblem:
    """Five shifted quadratic fronts where every phase outcome is known:
    1 and 5 are masters, 2 falls to utopia pruning, 4 to center pruning,
    3 survives and contributes."""

    def test_sets(self, report):
        assert report.k_total == 5
        assert report.k1m == (1, 5)
        assert report.pruned_a == (2,)
        assert report.k1u == (1, 3, 4, 5)
        assert report.pruned_b == (4,)
        assert report.k1c == (1, 3, 5)

    def test_front_realizations(self, report):
        assert report.front_realizations() == {(1.0,), (3.0,), (5.0,)}

    def test_monotone_set_chain(self, report):
        assert set(report.k1m) <= set(report.k1c) <= set(report.k1u)
        assert len(report.k1u) <= report.k_total

    def test_count_identity(self, report):
        beta = report.beta
        expected = (
            2 * report.k_total
            + beta * len(report.k1m)
            + (len(report.k1u) - len(report.k1m))
            + beta * (len(report.k1c) - len(report.k1m))
        )
        assert report.nlp.total == expected == 75
        assert report.nlp.a1 == 10
        assert report.nlp.a2 == 42
        assert report.nlp.b1 == 2
        assert report.nlp.b3 == 21

    def test_oracle_equivalence(self, fig_spec, report):
        orc = pp.oracle_front(fig_spec, beta=21)
        assert orc.front_realizations() == report.front_realizations()
        assert np.allclose(front_points(orc), front_points(report))

    def test_statuses(self, fig_spec):
        run = Solver(fig_spec, weight_grid(21) + list(CENTER))
        ks = np.arange(1, fig_spec._k_total + 1)
        pa = phase_a(run, ks, 21)
        assert pa.master.dtype == pa.kept.dtype == bool
        assert ks[pa.master].tolist() == [1, 5]
        assert ks[pa.kept].tolist() == [1, 3, 4, 5]  # 2 falls in A-3
        assert sorted(set(pa.fronts.k.tolist())) == [1, 5]
        targets = ks[pa.kept & ~pa.master]
        assert targets.tolist() == [3, 4]
        retained = phase_b(run, targets, pa.master_front)
        assert retained.dtype == bool
        assert targets[retained].tolist() == [3]
        assert sorted(ks[pa.master].tolist() + targets[retained].tolist()) == [1, 3, 5]

    def test_prune_soundness(self, fig_spec):
        # every utopia-pruned index is weakly dominated by a master point,
        # and every center-pruned center likewise
        run = Solver(fig_spec, weight_grid(21) + list(CENTER))
        ks = np.arange(1, fig_spec._k_total + 1)
        pa = phase_a(run, ks, 21)
        master = pa.master_front.pts.tolist()
        for k in (2,):
            utopia = pa.utopias[k - 1].tolist()
            assert any(weakly_dominates(p, utopia) for p in master)
        targets = ks[pa.kept & ~pa.master]
        retained = phase_b(run, targets, pa.master_front)
        pruned = targets[~retained]
        assert pruned.tolist() == [4]
        for center in compute_center(run, pruned).tolist():
            assert any(weakly_dominates(p, center) for p in master)

    def test_master_front_is_filter_of_member_fronts(self, fig_spec):
        ks = np.arange(1, fig_spec._k_total + 1)
        pa = phase_a(Solver(fig_spec, weight_grid(21)), ks, 21)
        merged = [tuple(p) for k in ks[pa.master].tolist()
                  for p in pa.fronts.pts[pa.fronts.k == k].tolist()]
        expected = [merged[i] for i in nondominated_filter(merged).tolist()]
        assert [tuple(p) for p in pa.master_front.pts.tolist()] == expected

    @pytest.mark.parametrize("phases", ["ab", "a", "none"])
    def test_sets_partition_realizations(self, fig_spec, phases):
        run_pipeline(fig_spec, beta=21, phases=phases).check_invariants()

    def test_a_only_retains_everything_after_phase_a(self, fig_spec):
        rep = run_pipeline(fig_spec, beta=21, phases="a")
        assert rep.k1c == rep.k1u == (1, 3, 4, 5)
        assert rep.nlp.b1 == 0
        assert rep.pruned_b == ()
        # 4's whole front is dominated, so the final front is unchanged
        assert rep.front_realizations() == {(1.0,), (3.0,), (5.0,)}


class TestRealizationsOnTheRunPath:
    @pytest.mark.parametrize("phases", ["ab", "none"])
    def test_one_realization_per_front_k(self, e2_spec, phases, monkeypatch):
        # a run keeps realizations as their indices k, up to the report's
        # front: it builds no Realization, and the front's z rows give one
        # z per distinct k
        made = []
        init = core.Realization.__init__

        def counted(self, *args, **kwargs):
            made.append(args or kwargs)
            init(self, *args, **kwargs)

        monkeypatch.setattr(core.Realization, "__init__", counted)
        report = run_pipeline(e2_spec, beta=21, phases=phases)
        monkeypatch.undo()
        assert report.k_total == 4096
        assert made == []
        assert len(report.front_realizations()) == len(set(report.front.k.tolist())) < 4096


def _sum_offset_base(y, zb):
    v = np.asarray(y, dtype=float)[..., 0]
    return np.stack([v * v, (v - 1.0) * (v - 1.0)], axis=-1)


def _sum_offsets(z):
    return np.repeat(np.sum(z, axis=-1)[..., None], 2, axis=-1)


def _sum_offset_objectives(y, z):
    return _sum_offset_base(y, ()) + _sum_offsets(z)


def _sum_offset_spec(n_sets: int) -> pp.ProblemSpec:
    """A cheap separable problem whose descents the weights share: the
    quad pair plus the sum of z in both objectives, over n_sets sets of 4
    values."""
    return pp.ProblemSpec(name="sum-offset", n_y=1, bounds=((0.0, 1.0),),
                          discrete_sets=((0.0, 1.0, 2.0, 3.0),) * n_sets,
                          objectives=_sum_offset_objectives, vectorized=True,
                          base_objectives=_sum_offset_base, offsets=_sum_offsets)


class TestBoundedMemory:
    def test_oracle_of_49152_solves(self):
        # 16 384 realizations (7 sets of 4 values) at beta = 3: more solves
        # than one part of solver.MAX_DESCENT_ROWS, on a cheap separable
        # problem whose descents the weights share.  Peak under tracemalloc:
        # 30.4-30.5 MiB with one SolveResult and one point object kept per
        # solve, 11.2 MiB with the table's arrays; 11.09 MiB once the problem
        # declares its offsets
        spec = _sum_offset_spec(7)
        tracemalloc.start()
        try:
            report = pp.oracle_front(spec, beta=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.nlp.total == 49_152 > MAX_DESCENT_ROWS
        assert set(report.front.k.tolist()) == {1}  # z = 0 alone
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("phases, bound_mib", [("ab", 22), ("a", 20)])
    def test_phase_bookkeeping_of_65536_realizations(self, phases, bound_mib):
        # 65 536 realizations (8 sets of 4 values) at beta = 2, on the same
        # problem: realization 1 (z = 0) is the one master and every other
        # falls in A-3.  Peak under tracemalloc: 23.16 MiB ("ab") and 21.16
        # MiB ("a") with the phases' sets as Python lists, 21.30 and 19.30
        # MiB with masks over the ks; "ab" adds the center weight's column
        # of the solve table, 2 MiB
        report, peak = _bookkeeping_run(phases)
        assert report.k_total == 65_536
        assert report.k1m == report.k1u == report.k1c == (1,)
        assert report.pruned_a == tuple(range(2, 65_537))
        assert report.nlp.total == 2 * 65_536 + 2
        assert peak < bound_mib * 2 ** 20

    @pytest.mark.parametrize("phases, bound_mib", [("ab", 19), ("a", 17)])
    def test_z_of_one_part_at_a_time(self, phases, bound_mib):
        # The same run: 21.30 and 19.30 MiB with the z of a whole solve
        # call, 17.42 and 15.42 MiB with the z of one part at a time; 18.39
        # and 16.39 MiB once the problem declares its offsets, whose array
        # for the 65 536 realizations the solver holds (1 MiB)
        assert _bookkeeping_run(phases)[1] < bound_mib * 2 ** 20


@functools.lru_cache(maxsize=None)
def _bookkeeping_run(phases):
    """The report and tracemalloc peak of the 65 536-realization run."""
    spec = _sum_offset_spec(8)
    tracemalloc.start()
    try:
        report = run_pipeline(spec, beta=2, phases=phases)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


class TestSingleRealization:
    def test_trivial_sets(self, quad_spec):
        rep = run_pipeline(quad_spec, beta=21, phases="ab")
        assert rep.k1m == rep.k1u == rep.k1c == (1,)
        assert rep.pruned_a == () and rep.pruned_b == ()
        ks = np.arange(1, quad_spec._k_total + 1)
        front = build_subproblem_front(Solver(quad_spec, weight_grid(21)), ks, 21)
        assert [tuple(p) for p in rep.front.pts.tolist()] == [tuple(p) for p in front.pts.tolist()]


class TestValidation:
    def test_bad_phases(self, quad_spec):
        with pytest.raises(ValueError):
            run_pipeline(quad_spec, beta=21, phases="b")

    def test_bad_beta(self, quad_spec):
        with pytest.raises(ValueError):
            run_pipeline(quad_spec, beta=1)

    @pytest.mark.parametrize("run", [run_pipeline, pp.oracle_front], ids=["pipeline", "oracle"])
    @pytest.mark.parametrize("beta", [5.0, 5.5])
    def test_non_integer_beta_rejected_before_any_solve(self, quad_spec, solve_log, run, beta):
        with pytest.raises(ValueError, match="beta must be an integer"):
            run(quad_spec, beta=beta)
        assert solve_log.calls == 0

    def test_numpy_integer_beta_gives_the_same_report(self, quad_spec):
        a = run_pipeline(quad_spec, beta=np.int64(5))
        b = run_pipeline(quad_spec, beta=5)
        assert type(a.beta) is int
        assert a == b

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_bad_eps_rejected_before_any_solve(self, quad_spec, solve_log, eps):
        with pytest.raises(ValueError, match="eps"):
            run_pipeline(quad_spec, beta=5, eps=eps)
        assert solve_log.calls == 0

    @pytest.mark.parametrize("eps", [True, False, np.bool_(False), "0.1", None, 1j])
    def test_eps_that_is_not_a_real_number_rejected_before_any_solve(self, quad_spec, solve_log,
                                                                      eps):
        with pytest.raises(ValueError, match="^eps must be a real number, got "):
            run_pipeline(quad_spec, beta=5, eps=eps)
        assert solve_log.calls == 0

    def test_numpy_float_eps_gives_a_report_its_reader_takes(self, quad_spec):
        a = run_pipeline(quad_spec, beta=5, eps=np.float64(0.01))
        b = run_pipeline(quad_spec, beta=5, eps=0.01)
        assert type(a.eps) is float
        assert a == b
        assert pp.PruneReport.from_json_dict(a.to_json_dict()) == a

    def test_beta_times_realizations_capped_before_any_solve(self, e2_spec, solve_log):
        # 4096 realizations * 2442 weights is just over 10 million solves
        with pytest.raises(pp.CapacityExceeded, match="exceeds the cap"):
            run_pipeline(e2_spec, beta=2442)
        assert solve_log.calls == 0

    def test_all_infeasible(self):
        def objs(y, z):
            y = np.asarray(y, dtype=float)
            v = y[..., 0]
            nan = np.full_like(v, np.nan)
            return np.stack([nan, nan], axis=-1)

        spec = pp.ProblemSpec(
            name="hopeless", n_y=1, bounds=((0.0, 1.0),), discrete_sets=((0.0, 1.0),),
            objectives=objs, vectorized=True,
        )
        for phases in ("ab", "a", "none"):
            with pytest.raises(PipelineError, match="every subproblem is infeasible"):
                run_pipeline(spec, beta=5, phases=phases)


def _nlp_by_phase(report):
    return {"a1": report.nlp.a1, "a2": report.nlp.a2, "b1": report.nlp.b1, "b3": report.nlp.b3}


class TestAccounting:
    def test_counter_reset_on_entry(self, fig_spec, quad_spec, solve_log):
        run_pipeline(quad_spec, beta=5)  # an earlier run in the same process
        solve_log.reset()
        rep = run_pipeline(fig_spec, beta=21, phases="ab")
        assert solve_log.calls == rep.nlp.total == 75
        assert solve_log.by_phase == _nlp_by_phase(rep)

    @pytest.mark.parametrize("phases", ["ab", "a", "none"])
    def test_report_counts_equal_solve_calls(self, fig_spec, solve_log, phases):
        rep = run_pipeline(fig_spec, beta=21, phases=phases)
        assert solve_log.by_phase == _nlp_by_phase(rep)
        assert solve_log.calls == rep.nlp.total

    def test_oracle_counts_every_weight_of_an_infeasible_realization(self, solve_log):
        def objs(y, z):
            y = np.asarray(y, dtype=float)
            v = y[..., 0]
            j = np.stack([v ** 2 + z[..., 0], (v - 1.0) ** 2 - z[..., 0]], axis=-1)
            return np.where(z[..., :1] == 2.0, np.nan, j)

        spec = pp.ProblemSpec(
            name="one-nan", n_y=1, bounds=((0.0, 1.0),), discrete_sets=((1.0, 2.0, 3.0),),
            objectives=objs, vectorized=True,
        )
        orc = pp.oracle_front(spec, beta=5)
        assert orc.nlp.b3 == solve_log.calls == 15
        assert orc.infeasible == (2,)
        for phases in ("a", "ab"):
            pipe = run_pipeline(spec, beta=5, phases=phases)
            assert pipe.infeasible == (2,)
            assert front_points(orc).tolist() == front_points(pipe).tolist()
            pipe.check_invariants()
        orc.check_invariants()

    @pytest.mark.parametrize("separable", [False, True])
    @pytest.mark.parametrize("phases", ["ab", "a", "none"])
    def test_nan_objectives_are_infeasible_on_either_path(self, solve_log, separable, phases):
        # the separable path descends on the finite base_objectives and
        # meets the NaN only at the winner; it files realization 3 as the
        # other path does instead of building a NaN objective point
        rep = run_pipeline(make_nan_offset_problem(separable), beta=3, phases=phases)
        assert rep.infeasible == (3,)
        assert rep.k1c == (1,)
        rep.check_invariants()
        k, beta = rep.k_total, rep.beta
        expected = {
            "ab": 2 * k + beta * len(rep.k1m) + (len(rep.k1u) - len(rep.k1m))
            + beta * (len(rep.k1c) - len(rep.k1m)),
            "a": 2 * k + beta * len(rep.k1u),
            "none": beta * k,
        }[phases]
        assert rep.nlp.total == expected == solve_log.calls
        assert solve_log.by_phase == _nlp_by_phase(rep)

    def test_e1_report(self, e1_ab):
        assert e1_ab.k_total == 121
        assert len(e1_ab.k1u) == 5
        beta = e1_ab.beta
        expected = (
            2 * e1_ab.k_total
            + beta * len(e1_ab.k1m)
            + (len(e1_ab.k1u) - len(e1_ab.k1m))
            + beta * (len(e1_ab.k1c) - len(e1_ab.k1m))
        )
        assert e1_ab.nlp.total == expected

    def test_e1_phase_a_cost_is_two_per_realization(self, e1_ab):
        assert e1_ab.nlp.a1 == 2 * e1_ab.k_total
        assert e1_ab.nlp.a2 == e1_ab.beta * len(e1_ab.k1m)


class TestWorkersKeyword:
    def test_workers_and_env_var_are_ignored(self, fig_spec, e1_spec, monkeypatch):
        # the benchmark passes workers= and sets PARETO_PRUNE_THREADS; every
        # run stays serial in this process and gives the serial report
        monkeypatch.delenv("PARETO_PRUNE_THREADS", raising=False)
        runs = (
            lambda spec, **kw: run_pipeline(spec, beta=11, phases="ab", **kw),
            lambda spec, **kw: pp.oracle_front(spec, beta=11, **kw),
        )
        serial = [run(spec) for spec in (fig_spec, e1_spec) for run in runs]
        monkeypatch.setenv("PARETO_PRUNE_THREADS", "2")
        pooled = [run(spec, workers=2) for spec in (fig_spec, e1_spec) for run in runs]
        assert multiprocessing.active_children() == []
        for a, b in zip(serial, pooled):
            assert a == b


class TestScalingInvariance:
    def test_e2_master_set_invariant_to_per_objective_scaling(self, config):
        # the non-dominated-utopia set is a pure dominance construct, so
        # positive per-objective scaling cannot change it; A-3 pruning is
        # only grid-invariant in the dense-weights limit and is exercised
        # through the oracle-level scaling check instead
        masters = []
        for spec in (pp.make_e2(), make_scaled_e2((2.5, 7.3))):
            ks = np.arange(1, spec._k_total + 1)
            utopias = compute_anchors_utopia(Solver(spec, ANCHORS, config), ks)
            masters.append(master_candidates(utopias).tolist())
        assert masters[0] == masters[1]

    def test_fig_common_scaling_leaves_all_sets_unchanged(self, fig_spec):
        base = run_pipeline(fig_spec, beta=21, phases="ab")

        def scaled_objs(y, z):
            return 3.0 * np.asarray(fig_spec.objectives(y, z))

        scaled = pp.ProblemSpec(
            name="fig-scaled", n_y=1, bounds=fig_spec.bounds,
            discrete_sets=fig_spec.discrete_sets, objectives=scaled_objs, vectorized=True,
        )
        rep = run_pipeline(scaled, beta=21, phases="ab")
        assert rep.k1m == base.k1m
        assert rep.k1u == base.k1u
        assert rep.k1c == base.k1c
        assert rep.pruned_b == base.pruned_b


class TestEpsilonDominance:
    def test_tiny_eps_keeps_fig_outcome(self, fig_spec):
        rep = run_pipeline(fig_spec, beta=21, phases="ab", eps=1e-12)
        assert rep.k1c == (1, 3, 5)

    def test_eps_run_keeps_report_invariants(self, fig_spec):
        rep = run_pipeline(fig_spec, beta=21, phases="ab", eps=0.05)
        assert set(rep.k1m) <= set(rep.k1c) <= set(rep.k1u)
        assert rep.eps == 0.05
        expected = (
            2 * rep.k_total
            + rep.beta * len(rep.k1m)
            + (len(rep.k1u) - len(rep.k1m))
            + rep.beta * (len(rep.k1c) - len(rep.k1m))
        )
        assert rep.nlp.total == expected

    def test_masters_stay_in_k1u_when_the_master_front_covers_their_utopias(self, quad_spec):
        # at eps 1, quad's front point (0, 1) weakly dominates its utopia (0, 0)
        ks = np.arange(1, quad_spec._k_total + 1)
        pa = phase_a(Solver(quad_spec, weight_grid(5)), ks, 5, eps=1.0)
        assert pipeline._weakly_dominated(pa.master_front.pts, pa.utopias, 1.0).tolist() == [True]
        assert pa.master.tolist() == pa.kept.tolist() == [True]
        run_pipeline(quad_spec, beta=5, eps=1.0).check_invariants()


# per-realization (c1, c2, width) of a generated member of the fig family
_fig_member = st.tuples(
    st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.05, 2.0),
)


class TestGeneratedPhaseAExactness:
    """Pipeline "a" gives the oracle's front on generated fig-family
    problems: 2-6 realizations, each a shifted, scaled quadratic front.
    Fronts are compared as sets of objective values, so realizations that
    tie exactly may stand in for one another."""

    @settings(derandomize=True, deadline=None)
    @given(params=st.lists(_fig_member, min_size=2, max_size=6))
    def test_a_equals_oracle_and_counts_are_the_solves(self, params):
        spec = make_fig_problem({float(i + 1): p for i, p in enumerate(params)})
        beta = 5
        with pytest.MonkeyPatch.context() as mp:
            log = install_solve_log(mp)
            rep = run_pipeline(spec, beta=beta, phases="a")
            assert log.by_phase == _nlp_by_phase(rep)
            assert log.calls == rep.nlp.total
            log.reset()
            orc = pp.oracle_front(spec, beta=beta)
            assert log.by_phase == _nlp_by_phase(orc)
        assert set(map(tuple, rep.front.pts.tolist())) == set(map(tuple, orc.front.pts.tolist()))
        rep.check_invariants()
        orc.check_invariants()
        assert _nlp_by_phase(rep) == {
            "a1": 2 * len(params),
            "a2": beta * len(rep.k1m),
            "b1": 0,
            "b3": beta * (len(rep.k1u) - len(rep.k1m)),
        }
        assert _nlp_by_phase(orc) == {"a1": 0, "a2": 0, "b1": 0, "b3": beta * len(params)}
