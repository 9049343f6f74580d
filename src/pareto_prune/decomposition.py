"""Realization enumeration and per-subproblem solves: anchors, utopia
points, center points, and weighted-sum subproblem fronts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import ObjectivePoint, ParetoSolution, ProblemSpec, Realization, nondominated_filter
from .solver import InfeasibleError, ScalarizedObjective, SolverConfig, solve_scalarized

__all__ = [
    "CapacityExceeded",
    "Status",
    "SubproblemRecord",
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


class Status(Enum):
    UNPROCESSED = "unprocessed"
    MASTER = "master"
    PRUNED_A = "pruned_a"
    PRUNED_B = "pruned_b"
    RETAINED_B = "retained_b"
    INFEASIBLE = "infeasible"


@dataclass
class SubproblemRecord:
    """Per-realization bookkeeping.  ``front`` holds the subproblem's
    weighted-sum front once built; ``status`` only moves forward
    (unprocessed -> master/pruned_a -> pruned_b/retained_b), and to
    infeasible when the anchors or the whole front fail."""

    realization: Realization
    anchor1: ParetoSolution | None = None
    anchor2: ParetoSolution | None = None
    utopia: ObjectivePoint | None = None
    center: ParetoSolution | None = None
    front: list[ParetoSolution] | None = None
    status: Status = Status.UNPROCESSED


def _set_sizes(spec: ProblemSpec) -> list[int]:
    return [len(zs) for zs in spec.discrete_sets]


def enumerate_realizations(
    spec: ProblemSpec, cap: int = DEFAULT_REALIZATION_CAP
) -> list[Realization]:
    """All realizations of the discrete product set, in lexicographic
    order with the last variable varying fastest; k runs 1..|Z|."""
    if spec.n_z < 1:
        raise ValueError("problem has no discrete variables to enumerate")
    total = math.prod(_set_sizes(spec))
    if total > cap:
        raise CapacityExceeded(f"{total} realizations exceed the cap of {cap}")
    return [realization_from_index(spec, k) for k in range(1, total + 1)]


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


def _solution(spec: ProblemSpec, r: Realization, res, provenance: str) -> ParetoSolution:
    return ParetoSolution(y=res.y_star, realization=r, point=res.point, provenance=provenance)


def compute_anchors_utopia(
    spec: ProblemSpec, r: Realization, config: SolverConfig
) -> SubproblemRecord:
    """Solve the two sole-objective problems (w=1 and w=0) and assemble
    the utopia point from the anchors' best components.  Exactly two
    counted solves; an unusable anchor marks the record infeasible."""
    rec = SubproblemRecord(realization=r)
    pc = config.penalty_coefficient
    anchors: list[ParetoSolution | None] = []
    feasible = True
    for w, tag in ((1.0, "anchor1"), (0.0, "anchor2")):
        try:
            res = solve_scalarized(
                ScalarizedObjective(weight=w, realization=r, parent=spec, penalty_coefficient=pc),
                config,
            )
        except InfeasibleError:
            anchors.append(None)
            feasible = False
            continue
        anchors.append(_solution(spec, r, res, tag))
        feasible = feasible and res.feasible
    rec.anchor1, rec.anchor2 = anchors
    if not feasible:
        rec.status = Status.INFEASIBLE
        return rec
    rec.utopia = ObjectivePoint(rec.anchor1.point.j1, rec.anchor2.point.j2)
    return rec


def compute_center(spec: ProblemSpec, r: Realization, config: SolverConfig) -> ParetoSolution:
    """Equal-weights solve (one counted NLP); the resulting point sits on
    the subproblem front where weighted-sum reaches it."""
    res = solve_scalarized(
        ScalarizedObjective(
            weight=0.5, realization=r, parent=spec, penalty_coefficient=config.penalty_coefficient
        ),
        config,
    )
    if not res.feasible:
        raise InfeasibleError(f"center solve for k={r.k} ended infeasible")
    return _solution(spec, r, res, "center")


def build_subproblem_front(
    spec: ProblemSpec, r: Realization, beta: int, config: SolverConfig, eps: float = 0.0
) -> list[ParetoSolution]:
    """beta-point weighted-sum front of subproblem r: solves weights
    i/(beta-1) for i = 0..beta-1 (beta counted NLPs), filters dominated
    outcomes, sorts by j1 ascending.  A weight whose solve raises
    InfeasibleError is skipped, as an anchor is, so the sweep always poses
    all beta solves."""
    if beta < 2:
        raise ValueError(f"beta must be >= 2, got {beta}")
    sols: list[ParetoSolution] = []
    for i in range(beta):
        w = i / (beta - 1)
        try:
            res = solve_scalarized(
                ScalarizedObjective(
                    weight=w, realization=r, parent=spec,
                    penalty_coefficient=config.penalty_coefficient,
                ),
                config,
            )
        except InfeasibleError:
            continue
        if res.feasible:
            sols.append(_solution(spec, r, res, f"w{i}"))
    if not sols:
        raise InfeasibleError(f"no feasible weighted-sum solution for k={r.k}")
    front = nondominated_filter(sols, eps)
    front.sort(key=lambda s: s.point.j1)
    return front
