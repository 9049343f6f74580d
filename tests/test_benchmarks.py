"""Benchmark problem definitions: formula spot checks, gradient
verification, registry, degeneracy handling, and the exhaustive oracle."""

import math

import numpy as np
import pytest

from pareto_prune import get_problem, oracle_front
from pareto_prune.core import _z_rows
from pareto_prune.decomposition import (
    build_subproblem_front,
    realization_from_index,
    weight_grid,
)
from pareto_prune.pipeline import phase_a
from pareto_prune.solver import Solver
from conftest import index_of

SQRT2 = math.sqrt(2.0)


def central_fd(spec, y, z, h=1e-6):
    out = np.empty((2, spec.n_y))
    for d in range(spec.n_y):
        yp = y.copy()
        ym = y.copy()
        yp[d] += h
        ym[d] -= h
        fp = np.asarray(spec.objectives(yp, z), dtype=float)
        fm = np.asarray(spec.objectives(ym, z), dtype=float)
        out[:, d] = (fp - fm) / (2.0 * h)
    return out


def check_gradient(spec, n_points, rng, keepout=None, rel_tol=1e-5):
    lo = spec.lower_bounds()
    hi = spec.upper_bounds()
    zs = _z_rows(spec, np.arange(1, spec._k_total + 1))
    checked = 0
    while checked < n_points:
        y = lo + (hi - lo) * rng.random(spec.n_y)
        # margin from the box edge keeps the central stencil inside
        y = np.clip(y, lo + 1e-3, hi - 1e-3)
        if keepout is not None and keepout(y):
            continue
        z = zs[rng.integers(len(zs))]
        analytic = np.asarray(spec.gradient(y, z), dtype=float)
        numeric = central_fd(spec, y, z)
        scale = 1.0 + np.abs(numeric)
        assert np.all(np.abs(analytic - numeric) / scale <= rel_tol), (
            f"gradient mismatch at y={y}, z={z}: {analytic} vs {numeric}"
        )
        checked += 1


class TestE1:
    def test_objectives_at_origin(self, e1_spec):
        j = np.asarray(e1_spec.objectives(np.array([0.0]), np.array([0.0, 0.0])))
        assert j[0] == pytest.approx(-20.0, abs=1e-12)
        assert j[1] == pytest.approx(0.0, abs=1e-12)

    def test_j2_at_unit_point(self, e1_spec):
        j = np.asarray(e1_spec.objectives(np.array([1.0]), np.array([0.0, 0.0])))
        assert j[1] == pytest.approx(1.0 + 5.0 * math.sin(1.0), abs=1e-12)

    def test_realization_count(self, e1_spec):
        assert e1_spec._k_total == 121

    def test_gradient_matches_fd(self, e1_spec):
        # keep away from the |x|^0.8 cusp where the derivative blows up
        rng = np.random.default_rng(11)
        check_gradient(e1_spec, 200, rng, keepout=lambda y: abs(y[0]) < 1e-3)

    def test_batched_matches_scalar(self, e1_spec):
        rng = np.random.default_rng(5)
        ys = -5.0 + 10.0 * rng.random((7, 1))
        z = np.array([2.0, -3.0])
        batch = np.asarray(e1_spec.objectives(ys, z))
        single = np.array([e1_spec.objectives(y, z) for y in ys])
        assert np.array_equal(batch, single)


class TestE2:
    def test_objectives_all_ones(self, e2_spec):
        j = np.asarray(e2_spec.objectives(np.ones(3), np.ones(6)))
        assert j[0] == pytest.approx(6.0 + 3.0 * SQRT2, rel=1e-14)
        assert j[1] == pytest.approx(14.0 + 12.0 * SQRT2, rel=1e-14)

    def test_realization_count(self, e2_spec):
        assert e2_spec._k_total == 4096

    def test_j2_independent_of_last_discrete(self, e2_spec):
        y = np.array([1.5, 2.0, 0.7])
        a = np.asarray(e2_spec.objectives(y, np.array([5.0, 1.0, 10.0, 1.0, 15.0, 1.0])))
        b = np.asarray(e2_spec.objectives(y, np.array([5.0, 1.0, 10.0, 1.0, 15.0, 15.0])))
        assert a[1] == b[1]
        assert a[0] < b[0]

    def test_gradient_matches_fd(self, e2_spec):
        check_gradient(e2_spec, 200, np.random.default_rng(12))

    def test_separable_composition_exact(self, e2_spec):
        rng = np.random.default_rng(3)
        zs = _z_rows(e2_spec, np.arange(1, e2_spec._k_total + 1))
        for _ in range(25):
            y = e2_spec.lower_bounds() + 9.0 * rng.random(3)
            z = zs[rng.integers(4096)]
            whole = np.asarray(e2_spec.objectives(y, z))
            split = (np.asarray(e2_spec.base_objectives(y, z[list(e2_spec.base_z)]))
                     + np.asarray(e2_spec.offsets(z)))
            assert np.array_equal(whole, split)

    def test_swap_symmetric_realizations_identical(self, e2_spec, config):
        # bars 5 and 7 share coefficients, so swapping their areas gives
        # the same objective function; fronts must be bitwise identical
        za = (5.0, 1.0, 10.0, 15.0, 5.0, 1.0)
        zb = (5.0, 15.0, 10.0, 1.0, 5.0, 1.0)  # z5 <-> z7 swapped
        ra = realization_from_index(e2_spec, index_of(e2_spec, za))
        rb = realization_from_index(e2_spec, index_of(e2_spec, zb))
        fa = build_subproblem_front(Solver(e2_spec, weight_grid(11), config), [ra.k], 11)
        fb = build_subproblem_front(Solver(e2_spec, weight_grid(11), config), [rb.k], 11)
        assert fa.pts.tolist() == fb.pts.tolist()
        assert fa.y.tolist() == fb.y.tolist()


class TestQuadAndToy:
    def test_quad_gradient(self, quad_spec):
        check_gradient(quad_spec, 100, np.random.default_rng(13))

    def test_toy_constraint_sign(self, toy_spec):
        g = np.asarray(toy_spec.inequality_constraints(np.array([1.0]), np.array([1.0])))
        assert g[0] < 0  # feasible side
        g = np.asarray(toy_spec.inequality_constraints(np.array([0.0]), np.array([1.0])))
        assert g[0] > 0


class TestRegistry:
    def test_known_ids(self):
        for pid in ("e1", "e2", "quad", "toy-constrained"):
            spec = get_problem(pid)
            assert spec.name == pid

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown problem"):
            get_problem("nope")


class TestOracle:
    def test_single_realization(self, quad_spec):
        rep = oracle_front(quad_spec, beta=21)
        assert rep.k1c == (1,)
        assert rep.phases == "none"
        assert rep.nlp.total == 21

    def test_beta_validation(self, quad_spec):
        with pytest.raises(ValueError):
            oracle_front(quad_spec, beta=1)

    def test_deterministic(self, e1_spec):
        import dataclasses

        a = oracle_front(e1_spec, beta=5)
        b = oracle_front(e1_spec, beta=5)
        assert dataclasses.replace(a, wallclock_ms=0) == dataclasses.replace(b, wallclock_ms=0)

    def test_e1_master_front_within_oracle(self, e1_spec, e1_oracle, config):
        # master-front points must be non-dominated inside the oracle's
        # exhaustive point set
        ks = np.arange(1, e1_spec._k_total + 1)
        pa = phase_a(Solver(e1_spec, weight_grid(21), config), ks, 21)
        opts = e1_oracle.front.pts
        for j1, j2 in pa.master_front.pts.tolist():
            strictly = (
                (opts[:, 0] <= j1)
                & (opts[:, 1] <= j2)
                & ((opts[:, 0] < j1) | (opts[:, 1] < j2))
            )
            assert not bool(strictly.any())
