"""Shared fixtures: registry problems, expensive reports (session-scoped),
a small synthetic five-realization problem whose phase outcomes are
known in closed form, and a counter of the real solver calls."""

from __future__ import annotations

import numpy as np
import pytest

import pareto_prune as pp

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


def _fig_objectives(y, z):
    y = np.asarray(y, dtype=float)
    c1, c2, width = FIG_PARAMS[float(np.asarray(z).ravel()[0])]
    v = y[..., 0]
    return np.stack([c1 + width * (1.0 - v) ** 2, c2 + width * v ** 2], axis=-1)


def _fig_gradient(y, z):
    y = np.asarray(y, dtype=float)
    _, _, width = FIG_PARAMS[float(np.asarray(z).ravel()[0])]
    v = y[..., 0]
    return np.stack([-2.0 * width * (1.0 - v), 2.0 * width * v], axis=-1)[..., None]


def make_fig_problem() -> pp.ProblemSpec:
    return pp.ProblemSpec(
        name="fig",
        n_y=1,
        bounds=((0.0, 1.0),),
        discrete_sets=((1.0, 2.0, 3.0, 4.0, 5.0),),
        objectives=_fig_objectives,
        gradient=_fig_gradient,
        vectorized=True,
    )


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
    return np.array([[s.point.j1, s.point.j2] for s in report.front]).reshape(-1, 2)


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
