"""Shared fixtures: registry problems, expensive reports (session-scoped),
a small synthetic five-realization problem whose phase outcomes are
known in closed form (one member of a family of shifted quadratic
fronts), a quad variant whose objectives are NaN at one realization, e2
with its objectives scaled, a counter of the real solver calls, a loader
of the benchmark's modules, the weights of the anchors and the center,
reference pairwise dominance tests and the inverse of
``decomposition.realization_from_index``."""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import pareto_prune as pp
from pareto_prune.core import Front, _check_eps
from pareto_prune.decomposition import CENTER_WEIGHT

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the weights of decomposition's per-point operations, to build a Solver for
# them: compute_anchors_utopia's (w = 1, then 0) and compute_center's; a
# beta-point front poses decomposition.weight_grid(beta)
ANCHORS = (1.0, 0.0)
CENTER = (CENTER_WEIGHT,)


def load_perfbench(*names: str) -> list:
    """The benchmark's modules perfbench/<name>.py, loaded by path in the
    order given without writing bytecode.  While they load, each is
    importable by its bare name, as the benchmark's own modules import one
    another (checks imports workloads); ``sys.modules`` is restored after."""
    saved = {name: sys.modules.get(name) for name in names}
    saved_flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    modules = []
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            modules.append(module)
    finally:
        sys.dont_write_bytecode = saved_flag
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return modules


def dominates(a, b, eps: float = 0.0) -> bool:
    """Reference strict Pareto dominance of the (j1, j2) pairs or arrays a
    and b: a is no worse than b in both objectives (within eps) and
    strictly better (beyond eps) in at least one."""
    _check_eps(eps)
    return bool(
        a[0] <= b[0] + eps
        and a[1] <= b[1] + eps
        and (a[0] < b[0] - eps or a[1] < b[1] - eps)
    )


def weakly_dominates(a, b, eps: float = 0.0) -> bool:
    """Reference weak dominance of the (j1, j2) pairs or arrays a and b: a
    is no worse than b in both objectives (within eps).  Equal points
    weakly dominate each other."""
    _check_eps(eps)
    return bool(a[0] <= b[0] + eps and a[1] <= b[1] + eps)


def index_of(spec: pp.ProblemSpec, z: tuple[float, ...]) -> int:
    """The index k of realization ``z``: its position, counted from 1, in
    the product of the discrete sets, the last variable fastest (the
    inverse of ``core._z_rows``)."""
    sizes = [len(zs) for zs in spec.discrete_sets]
    if len(z) != len(sizes):
        raise ValueError(f"z has length {len(z)}, expected {len(sizes)}")
    k = 0
    for j, v in enumerate(z):
        try:
            d = spec.discrete_sets[j].index(float(v))
        except ValueError:
            raise ValueError(f"value {v} not in discrete set {j}") from None
        k = k * sizes[j] + d
    return k + 1


# offsets (c1, c2) and front width per discrete value: realization 1 and 5
# have mutually non-dominated utopias (masters), 2 is pruned by the master
# front, 4 survives phase A but its center is dominated, 3 survives both
# and contributes a segment to the true front.
FIG_PARAMS = {
    1.0: (0.0, 2.0, 1.6),
    2.0: (0.6, 2.6, 0.4),
    3.0: (0.2, 2.2, 0.3),
    4.0: (0.45, 2.28, 0.5),
    5.0: (2.0, 0.0, 1.0),
}


def _fig_params(table, z):
    """(c1, c2, width) from ``table``, each of z's shape without its last
    axis: one value per row of stacked z (m, 1), or a scalar for a single
    z (1,)."""
    z = np.asarray(z, dtype=float)
    params = np.array([table[v] for v in z[..., 0].ravel().tolist()])
    return params.reshape(z.shape[:-1] + (3,)).transpose()


def _fig_objectives(table, y, z):
    y = np.asarray(y, dtype=float)
    c1, c2, width = _fig_params(table, z)
    v = y[..., 0]
    return np.stack([c1 + width * (1.0 - v) ** 2, c2 + width * v ** 2], axis=-1)


def _fig_gradient(table, y, z):
    y = np.asarray(y, dtype=float)
    _, _, width = _fig_params(table, z)
    v = y[..., 0]
    return np.stack([-2.0 * width * (1.0 - v), 2.0 * width * v], axis=-1)[..., None]


def make_fig_problem(table: dict | None = None) -> pp.ProblemSpec:
    """One y in [0, 1] and one discrete variable whose values are the keys
    of ``table`` (FIG_PARAMS by default); realization z has the front
    (c1 + width (1 - v)^2, c2 + width v^2) for its (c1, c2, width)."""
    table = FIG_PARAMS if table is None else table
    return pp.ProblemSpec(
        name="fig",
        n_y=1,
        bounds=((0.0, 1.0),),
        discrete_sets=(tuple(table),),
        objectives=functools.partial(_fig_objectives, table),
        gradient=functools.partial(_fig_gradient, table),
        vectorized=True,
    )


def _quad_pair(y):
    v = np.asarray(y, dtype=float)[..., 0]
    return np.stack([v ** 2, (v - 1.0) ** 2], axis=-1)


def _nan_offsets(z):
    """The offset (z, z), undefined (NaN) at z = 2."""
    z = np.asarray(z, dtype=float)[..., :1]
    return np.where(z == 2.0, np.nan, np.concatenate([z, z], axis=-1))


def _nan_offset_objectives(y, z):
    """The quad pair plus the offset (z, z), undefined (NaN) at z = 2."""
    return _quad_pair(y) + _nan_offsets(z)


def make_nan_offset_problem(separable: bool) -> pp.ProblemSpec:
    """The quad pair on y in [0, 1] at z in {0, 1, 2}, shifted by (z, z),
    with objectives that are NaN everywhere at z = 2: realization 1 is the
    only master, 2 is utopia-pruned and 3 is infeasible.  ``separable``
    also declares the quad pair as ``base_objectives`` and (z, z) as its
    offsets, so the solver descends on the finite base and meets the NaN
    only at the winner's objectives."""
    return dataclasses.replace(
        pp.make_quad(), name="nan-offset", discrete_sets=((0.0, 1.0, 2.0),),
        objectives=_nan_offset_objectives,
        base_objectives=(lambda y, zb: _quad_pair(y)) if separable else None,
        offsets=_nan_offsets if separable else None)


def make_scaled_e2(scale: tuple[float, float]) -> pp.ProblemSpec:
    """e2 with objective i multiplied by ``scale[i]``: its objectives,
    base objectives, offsets and gradient, so that it stays separable."""
    e2, s = pp.make_e2(), np.array(scale)
    return dataclasses.replace(
        e2, name="e2-scaled",
        objectives=lambda y, z: e2.objectives(y, z) * s,
        base_objectives=lambda y, zb: e2.base_objectives(y, zb) * s,
        offsets=lambda z: e2.offsets(z) * s,
        gradient=lambda y, z: e2.gradient(y, z) * s[:, None])


class SolveLog:
    """Calls of ``decomposition.solve_scalarized``, in total and per paper
    phase.  A call is filed under the first phase operation it runs in:
    A-1 anchors, A-2 master front, B-1 center, B-3 any other front."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls = 0
        self.by_phase = {"a1": 0, "a2": 0, "b1": 0, "b3": 0}
        self.phase = None


@pytest.fixture
def solve_log(monkeypatch) -> SolveLog:
    """Counts real solves in this process."""
    return install_solve_log(monkeypatch)


def install_solve_log(monkeypatch) -> SolveLog:
    """A SolveLog of the solves run while ``monkeypatch``'s patches hold."""
    from pareto_prune import decomposition, pipeline

    log = SolveLog()
    solve = decomposition.solve_scalarized

    def counted_solve(*args, **kwargs):
        log.calls += 1
        if log.phase is not None:
            log.by_phase[log.phase] += 1
        return solve(*args, **kwargs)

    def in_phase(fn, phase):
        def wrapper(*args, **kwargs):
            outer = log.phase
            log.phase = outer or phase
            try:
                return fn(*args, **kwargs)
            finally:
                log.phase = outer

        return wrapper

    monkeypatch.setattr(decomposition, "solve_scalarized", counted_solve)
    for attr, phase in (
        ("compute_anchors_utopia", "a1"),
        ("build_master_front", "a2"),
        ("compute_center", "b1"),
        ("build_subproblem_front", "b3"),
    ):
        monkeypatch.setattr(pipeline, attr, in_phase(getattr(pipeline, attr), phase))
    return log


def front_points(report: pp.PruneReport) -> np.ndarray:
    return report.front.pts


def front_rows(front: Front) -> list[tuple]:
    """The rows of a ``Front`` as (k, w, y, j1, j2) tuples, to compare fronts
    exactly, order included."""
    return list(zip(front.k.tolist(), front.w.tolist(), map(tuple, front.y.tolist()),
                    *front.pts.T.tolist()))


@pytest.fixture(scope="session")
def config() -> pp.SolverConfig:
    return pp.SolverConfig()


@pytest.fixture(scope="session")
def e1_spec() -> pp.ProblemSpec:
    return pp.make_e1()


@pytest.fixture(scope="session")
def e2_spec() -> pp.ProblemSpec:
    return pp.make_e2()


@pytest.fixture(scope="session")
def quad_spec() -> pp.ProblemSpec:
    return pp.make_quad()


@pytest.fixture(scope="session")
def toy_spec() -> pp.ProblemSpec:
    return pp.make_toy_constrained()


@pytest.fixture(scope="session")
def fig_spec() -> pp.ProblemSpec:
    return make_fig_problem()


@pytest.fixture(scope="session")
def e1_ab(e1_spec) -> pp.PruneReport:
    return pp.run_pipeline(e1_spec, beta=21, phases="ab")


@pytest.fixture(scope="session")
def e1_a(e1_spec) -> pp.PruneReport:
    return pp.run_pipeline(e1_spec, beta=21, phases="a")


@pytest.fixture(scope="session")
def e1_oracle(e1_spec) -> pp.PruneReport:
    return pp.oracle_front(e1_spec, beta=21)
