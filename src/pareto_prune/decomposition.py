"""Realization enumeration and per-subproblem solves: utopia points from
the anchors, center points, and weighted-sum subproblem fronts.  Each
operation poses its (realization, weight) jobs as one
:func:`~pareto_prune.solver.solve_batch` call, returns one result per
realization, None where a solve it needs is not feasible, and decides no
pruning set.  Each takes an optional ``descents`` table: operations that
share one reuse each other's finished solves and shared descents."""

from __future__ import annotations

import itertools
import math

from .core import ObjectivePoint, ParetoSolution, ProblemSpec, Realization, nondominated_filter
from .solver import SolverConfig, SolveResult, solve_batch, solve_scalarized

__all__ = [
    "CapacityExceeded",
    "enumerate_realizations",
    "realization_from_index",
    "index_of",
    "compute_anchors_utopia",
    "compute_center",
    "build_subproblem_front",
]

DEFAULT_REALIZATION_CAP = 10_000_000


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


def index_of(spec: ProblemSpec, z: tuple[float, ...]) -> int:
    sizes = _set_sizes(spec)
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


def _solve_all(
    spec: ProblemSpec, jobs: list[tuple[Realization, float]], config: SolverConfig, *,
    descents: dict | None = None,
) -> list[SolveResult]:
    """One counted solve per (realization, weight) job, all of them one
    :func:`~pareto_prune.solver.solve_batch` call that reuses what the
    run's ``descents`` table holds."""
    return [solve_scalarized(res) for res in solve_batch(spec, jobs, config, descents)]


def compute_anchors_utopia(
    spec: ProblemSpec, reals: list[Realization], config: SolverConfig, *,
    descents: dict | None = None,
) -> list[ObjectivePoint | None]:
    """Utopia point of each realization: j1 of its w=1 anchor and j2 of
    its w=0 anchor (the two sole-objective solves, exactly two counted
    solves per realization).  None where either anchor is not feasible."""
    results = _solve_all(spec, [(r, w) for r in reals for w in (1.0, 0.0)], config,
                         descents=descents)
    return [
        ObjectivePoint(a1.point.j1, a2.point.j2)
        if a1.feasible and a2.feasible else None
        for a1, a2 in zip(results[::2], results[1::2])
    ]


def compute_center(
    spec: ProblemSpec, reals: list[Realization], config: SolverConfig, *,
    descents: dict | None = None,
) -> list[ObjectivePoint | None]:
    """Center point of each realization: the objectives of its
    equal-weights solve (one counted NLP each), which sit on the
    subproblem front where weighted-sum reaches it.  None where that solve
    is not feasible."""
    results = _solve_all(spec, [(r, 0.5) for r in reals], config, descents=descents)
    return [res.point if res.feasible else None for res in results]


def build_subproblem_front(
    spec: ProblemSpec, reals: list[Realization], beta: int, config: SolverConfig,
    eps: float = 0.0, *, descents: dict | None = None,
) -> list[list[ParetoSolution] | None]:
    """beta-point weighted-sum front of each subproblem: solves weights
    i/(beta-1) for i = 0..beta-1 (beta counted NLPs per realization),
    filters dominated outcomes, sorts by j1 ascending.  A weight whose
    solve is not feasible is skipped, so every sweep poses all beta
    solves.  None marks a realization without a feasible solution."""
    if beta < 2:
        raise ValueError(f"beta must be >= 2, got {beta}")
    weights = [i / (beta - 1) for i in range(beta)]
    results = _solve_all(spec, [(r, w) for r in reals for w in weights], config,
                         descents=descents)
    fronts: list[list[ParetoSolution] | None] = []
    for j, r in enumerate(reals):
        sols = [
            ParetoSolution(y=res.y_star, realization=r, point=res.point, provenance=f"w{i}")
            for i, res in enumerate(results[j * beta:(j + 1) * beta])
            if res.feasible
        ]
        if not sols:
            fronts.append(None)
            continue
        front = nondominated_filter(sols, eps)
        front.sort(key=lambda s: s.point.j1)
        fronts.append(front)
    return fronts
