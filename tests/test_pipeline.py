"""Two-phase pipeline semantics on problems with known closed-form
outcomes, Phase-A exactness on generated problems, plus solve accounting
and the ignored ``workers`` keyword."""

import dataclasses
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pareto_prune as pp
from pareto_prune import (
    ObjectivePoint,
    PipelineError,
    compute_center,
    enumerate_realizations,
    master_candidates,
    nondominated_filter,
    phase_a,
    phase_b,
    run_pipeline,
)
from conftest import (
    assert_sets_partition,
    front_points,
    install_solve_log,
    make_fig_problem,
    make_nan_offset_problem,
    weakly_dominates,
)


class TestMasterCandidates:
    def test_simple(self):
        utopias = {1: ObjectivePoint(0, 5), 2: ObjectivePoint(5, 0), 3: ObjectivePoint(3, 3),
                   4: ObjectivePoint(6, 6)}
        assert master_candidates(utopias) == [1, 2, 3]

    def test_identical_utopias_all_retained(self):
        utopias = {k: ObjectivePoint(1.0, 1.0) for k in range(1, 4)}
        assert master_candidates(utopias) == [1, 2, 3]

    def test_empty(self):
        assert master_candidates({}) == []

    def test_infeasible_skipped(self):
        assert master_candidates({1: ObjectivePoint(0, 0), 2: None}) == [1]


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
        config = pp.SolverConfig()
        reals = enumerate_realizations(fig_spec)
        pa = phase_a(fig_spec, reals, 21, config)
        assert pa.k1m == [1, 5]
        assert pa.k1u == [1, 3, 4, 5]  # 2 falls in A-3
        assert sorted(pa.fronts) == [1, 5]
        targets = [k for k in pa.k1u if k not in pa.k1m]
        assert targets == [3, 4]
        retained = phase_b(fig_spec, [reals[k - 1] for k in targets], pa.master_front, config)
        assert retained == [3]
        assert sorted(pa.k1m + retained) == [1, 3, 5]

    def test_prune_soundness(self, fig_spec):
        # every utopia-pruned index is weakly dominated by a master point,
        # and every center-pruned center likewise
        config = pp.SolverConfig()
        reals = enumerate_realizations(fig_spec)
        pa = phase_a(fig_spec, reals, 21, config)
        for k in (2,):
            assert any(weakly_dominates(p.point, pa.utopias[k]) for p in pa.master_front)
        targets = [reals[k - 1] for k in pa.k1u if k not in pa.k1m]
        retained = phase_b(fig_spec, targets, pa.master_front, config)
        pruned = [r for r in targets if r.k not in retained]
        assert [r.k for r in pruned] == [4]
        for center in compute_center(fig_spec, pruned, config):
            assert any(weakly_dominates(p.point, center) for p in pa.master_front)

    def test_master_front_is_filter_of_member_fronts(self, fig_spec):
        config = pp.SolverConfig()
        pa = phase_a(fig_spec, enumerate_realizations(fig_spec), 21, config)
        merged = [p for k in pa.k1m for p in pa.fronts[k]]
        expected = nondominated_filter(merged)
        assert [p.point.as_tuple() for p in pa.master_front] == [
            p.point.as_tuple() for p in expected
        ]

    @pytest.mark.parametrize("phases", ["ab", "a", "none"])
    def test_sets_partition_realizations(self, fig_spec, phases):
        assert_sets_partition(run_pipeline(fig_spec, beta=21, phases=phases))

    def test_a_only_retains_everything_after_phase_a(self, fig_spec):
        rep = run_pipeline(fig_spec, beta=21, phases="a")
        assert rep.k1c == rep.k1u == (1, 3, 4, 5)
        assert rep.nlp.b1 == 0
        assert rep.pruned_b == ()
        # 4's whole front is dominated, so the final front is unchanged
        assert rep.front_realizations() == {(1.0,), (3.0,), (5.0,)}


class TestSingleRealization:
    def test_trivial_sets(self, quad_spec):
        rep = run_pipeline(quad_spec, beta=21, phases="ab")
        assert rep.k1m == rep.k1u == rep.k1c == (1,)
        assert rep.pruned_a == () and rep.pruned_b == ()
        front = pp.build_subproblem_front(
            quad_spec, pp.enumerate_realizations(quad_spec)[:1], 21, pp.SolverConfig()
        )[0]
        assert [p.point.as_tuple() for p in rep.front] == [p.point.as_tuple() for p in front]


class TestValidation:
    def test_bad_phases(self, quad_spec):
        with pytest.raises(ValueError):
            run_pipeline(quad_spec, beta=21, phases="b")

    def test_bad_beta(self, quad_spec):
        with pytest.raises(ValueError):
            run_pipeline(quad_spec, beta=1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1.0])
    def test_bad_eps_rejected_before_any_solve(self, quad_spec, solve_log, eps):
        with pytest.raises(ValueError, match="eps"):
            run_pipeline(quad_spec, beta=5, eps=eps)
        assert solve_log.calls == 0

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
        with pytest.raises(PipelineError):
            run_pipeline(spec, beta=5)


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
            assert_sets_partition(pipe)
        assert_sets_partition(orc)

    @pytest.mark.parametrize("separable", [False, True])
    @pytest.mark.parametrize("phases", ["ab", "a", "none"])
    def test_nan_objectives_are_infeasible_on_either_path(self, solve_log, separable, phases):
        # the separable path descends on the finite base_objectives and
        # meets the NaN only at the winner; it files realization 3 as the
        # other path does instead of building a NaN objective point
        rep = run_pipeline(make_nan_offset_problem(separable), beta=3, phases=phases)
        assert rep.infeasible == (3,)
        assert rep.k1c == (1,)
        assert_sets_partition(rep)
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
            assert dataclasses.replace(a, wallclock_ms=0) == dataclasses.replace(b, wallclock_ms=0)


class TestScalingInvariance:
    def test_e2_master_set_invariant_to_per_objective_scaling(self, config):
        # the non-dominated-utopia set is a pure dominance construct, so
        # positive per-objective scaling cannot change it; A-3 pruning is
        # only grid-invariant in the dense-weights limit and is exercised
        # through the oracle-level scaling check instead
        masters = []
        for constants in (None, pp.TrussConstants(length_scale=2.5, load_modulus_scale=7.3)):
            spec = pp.make_e2(constants)
            reals = pp.enumerate_realizations(spec)
            utopias = pp.compute_anchors_utopia(spec, reals, config)
            masters.append(master_candidates({r.k: u for r, u in zip(reals, utopias)}))
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
        assert {s.point.as_tuple() for s in rep.front} == {s.point.as_tuple() for s in orc.front}
        assert_sets_partition(rep)
        assert_sets_partition(orc)
        assert _nlp_by_phase(rep) == {
            "a1": 2 * len(params),
            "a2": beta * len(rep.k1m),
            "b1": 0,
            "b3": beta * (len(rep.k1u) - len(rep.k1m)),
        }
        assert _nlp_by_phase(orc) == {"a1": 0, "a2": 0, "b1": 0, "b3": beta * len(params)}
