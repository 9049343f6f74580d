"""Realization enumeration and per-subproblem solves: utopia points from
the anchors, center points, and weighted-sum subproblem fronts.  Each
operation takes the run's :class:`~pareto_prune.solver.Solver`, which
looks up what the run has already solved, poses its (realization,
weight) jobs as one :meth:`~pareto_prune.solver.Solver.solve` call, and
decides no pruning set: a point per realization (None where a solve it
needs is not feasible), or the fronts of all its realizations as one
:class:`~pareto_prune.core.Front`."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .core import Front, ObjectivePoint, ProblemSpec, Realization, nondominated_rows
from .solver import Solver, SolveResult, solve_scalarized

__all__ = [
    "CENTER_WEIGHT",
    "CapacityExceeded",
    "enumerate_realizations",
    "realization_from_index",
    "compute_anchors_utopia",
    "compute_center",
    "weight_grid",
    "build_subproblem_front",
]

DEFAULT_REALIZATION_CAP = 10_000_000
# the weight of a center solve: equal weights on both objectives
CENTER_WEIGHT = 0.5


class CapacityExceeded(RuntimeError):
    """The discrete product set is larger than the configured cap."""


def _set_sizes(spec: ProblemSpec) -> list[int]:
    return [len(zs) for zs in spec.discrete_sets]


def enumerate_realizations(spec: ProblemSpec) -> list[Realization]:
    """All realizations of the discrete product set, in lexicographic
    order with the last variable varying fastest; k runs 1..|Z|.  More
    than DEFAULT_REALIZATION_CAP of them raise CapacityExceeded."""
    if spec.n_z < 1:
        raise ValueError("problem has no discrete variables to enumerate")
    total = math.prod(_set_sizes(spec))
    if total > DEFAULT_REALIZATION_CAP:
        raise CapacityExceeded(
            f"{total} realizations exceed the cap of {DEFAULT_REALIZATION_CAP}")
    return [Realization(k=k, z=z)
            for k, z in enumerate(itertools.product(*spec.discrete_sets), 1)]


def realization_from_index(spec: ProblemSpec, k: int) -> Realization:
    sizes = _set_sizes(spec)
    total = math.prod(sizes)
    if not 1 <= k <= total:
        raise ValueError(f"k={k} outside 1..{total}")
    rem = k - 1
    digits = [0] * len(sizes)
    for j in range(len(sizes) - 1, -1, -1):
        rem, digits[j] = divmod(rem, sizes[j])
    return Realization(k=k, z=tuple(spec.discrete_sets[j][d] for j, d in enumerate(digits)))


def _solve_all(solver: Solver, jobs: list[tuple[Realization, float]]) -> list[SolveResult]:
    """One counted solve per (realization, weight) job, all of them one
    :meth:`~pareto_prune.solver.Solver.solve` call."""
    return [solve_scalarized(res) for res in solver.solve(jobs)]


def compute_anchors_utopia(solver: Solver,
                           reals: list[Realization]) -> list[ObjectivePoint | None]:
    """Utopia point of each realization: j1 of its w=1 anchor and j2 of
    its w=0 anchor (the two sole-objective solves, exactly two counted
    solves per realization).  None where either anchor is not feasible."""
    results = _solve_all(solver, [(r, w) for r in reals for w in (1.0, 0.0)])
    return [
        ObjectivePoint(a1.point.j1, a2.point.j2)
        if a1.feasible and a2.feasible else None
        for a1, a2 in zip(results[::2], results[1::2])
    ]


def compute_center(solver: Solver, reals: list[Realization]) -> list[ObjectivePoint | None]:
    """Center point of each realization: the objectives of its
    equal-weights solve (one counted NLP each), which sit on the
    subproblem front where weighted-sum reaches it.  None where that solve
    is not feasible."""
    results = _solve_all(solver, [(r, CENTER_WEIGHT) for r in reals])
    return [res.point if res.feasible else None for res in results]


def weight_grid(beta: int) -> list[float]:
    """The beta weights of a subproblem front, i/(beta-1) for i =
    0..beta-1: every caller keys its solves by these same floats."""
    return [i / (beta - 1) for i in range(beta)]


def build_subproblem_front(solver: Solver, reals: list[Realization], beta: int,
                           eps: float = 0.0) -> Front:
    """beta-point weighted-sum front of each subproblem: solves weights
    i/(beta-1) for i = 0..beta-1 (beta counted NLPs per realization) and
    keeps the feasible outcomes no other of the same realization strictly
    dominates, all realizations in one segmented pass.  Rows follow
    ``reals``, each realization's by j1, ties in weight order.  A weight
    whose solve is not feasible is skipped, so every sweep poses all beta
    solves; a realization without a feasible solution has no row."""
    if beta < 2:
        raise ValueError(f"beta must be >= 2, got {beta}")
    weights = weight_grid(beta)
    results = _solve_all(solver, [(r, w) for r in reals for w in weights])
    rows = [i for i, res in enumerate(results) if res.feasible]
    n_y = solver.spec.n_y
    data = np.array([results[i].y_star + results[i].point.as_tuple() for i in rows])
    data = data.reshape(len(rows), n_y + 2)
    seg, w = np.divmod(np.array(rows, dtype=np.int64), beta)
    ks = np.array([r.k for r in reals], dtype=np.int64)
    front = Front(ks[seg], w, data[:, :n_y], data[:, n_y:])
    return front.take(nondominated_rows(front.pts, eps, seg))
