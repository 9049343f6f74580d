"""Domain types and dominance primitives for bi-objective minimization.

Everything here is immutable after construction and safe to share across
threads.  Both objectives are always minimized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

__all__ = [
    "ObjectivePoint",
    "ProblemSpec",
    "Realization",
    "ParetoSolution",
    "nondominated_filter",
]


@dataclass(frozen=True)
class ObjectivePoint:
    """A point (j1, j2) in objective space.  Components must be finite."""

    j1: float
    j2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.j1) and math.isfinite(self.j2)):
            raise ValueError(f"objective point must be finite, got ({self.j1}, {self.j2})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.j1, self.j2)


@dataclass(frozen=True)
class Realization:
    """The k-th element of the discrete product set Z_1 x ... x Z_nz.

    Indices are 1-based and follow lexicographic order with the last
    discrete variable varying fastest.
    """

    k: int
    z: tuple[float, ...]


@dataclass(frozen=True)
class ProblemSpec:
    """A mixed-discrete bi-objective minimization problem.

    ``objectives`` maps (y, z) to the pair (j1, j2).  A scalar evaluator
    (``vectorized`` false) is called once per row, with that row's own
    continuous point (n_y,) and z (n_z,).  When ``vectorized`` is true, it
    is called once for a whole batch, with the stacked points ys (m, n_y)
    and the row-aligned zs (m, n_z): row i is the point ys[i] at the
    realization zs[i], and the rows may hold any mix of realizations.  It
    returns shape (m, 2); the same contract applies to
    ``inequality_constraints`` (returning (m, n_g)) and ``gradient``
    (returning (m, 2, n_y)).  A vectorized evaluator must also accept a
    single z (n_z,) for all the rows.  Evaluators must be pure, and a
    result of any other shape raises ValueError.  A vectorized evaluator
    that reads z as one realization's values, such as ``z[0]`` or a
    lookup keyed on all of z, gives wrong results: index ``z[..., j]``.

    ``gradient``, when given, is the derivative of both objectives with
    respect to the continuous variables only.  Without it the solver falls
    back to finite differences.

    When objectives(y, z) - base_objectives(y) does not depend on y
    (componentwise: the objectives are a continuous part plus a
    per-realization constant), supplying ``base_objectives`` (ys (m, n_y)
    -> (m, 2)) lets the solver descend on the z-independent part.
    ``gradient`` must then not depend on z either.
    Solve trajectories are then bitwise identical across realizations,
    which preserves exact objective-space ties between realizations that
    are mathematically equivalent.  Without ``inequality_constraints`` a
    descent then depends on its weight alone, so the solves of one batch
    that share a weight share one descent.
    """

    name: str
    n_y: int
    bounds: tuple[tuple[float, float], ...]
    discrete_sets: tuple[tuple[float, ...], ...]
    objectives: Callable
    inequality_constraints: Callable | None = None
    gradient: Callable | None = None
    vectorized: bool = False
    base_objectives: Callable | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", tuple((float(lo), float(hi)) for lo, hi in self.bounds))
        object.__setattr__(
            self, "discrete_sets", tuple(tuple(float(v) for v in zs) for zs in self.discrete_sets)
        )
        if self.n_y < 1 or len(self.bounds) != self.n_y:
            raise ValueError(f"need n_y >= 1 bounds pairs, got n_y={self.n_y}, {len(self.bounds)} bounds")
        for lo, hi in self.bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(
                    f"invalid bound pair ({lo}, {hi}): need finite lower < upper")
        for j, zs in enumerate(self.discrete_sets):
            if not zs:
                raise ValueError(f"discrete set {j} is empty")
            if not all(math.isfinite(v) for v in zs):
                raise ValueError(f"discrete set {j} has non-finite values: {zs}")
            if len(set(zs)) != len(zs):
                raise ValueError(f"discrete set {j} has repeated values: {zs}")

    @property
    def n_z(self) -> int:
        return len(self.discrete_sets)

    def lower_bounds(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.bounds])

    def upper_bounds(self) -> np.ndarray:
        return np.array([hi for _, hi in self.bounds])


@dataclass(frozen=True)
class ParetoSolution:
    """A candidate Pareto-optimal design: continuous part, realization,
    the evaluated objective point, and a tag recording which solve
    produced it ("center", or "w<i>" for the i-th weighted-sum weight)."""

    y: tuple[float, ...]
    realization: Realization
    point: ObjectivePoint
    provenance: str


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")


PointLike = Union[ObjectivePoint, ParetoSolution]


def _points_array(items: Sequence[PointLike]) -> np.ndarray:
    out = np.empty((len(items), 2))
    for i, it in enumerate(items):
        p = it if isinstance(it, ObjectivePoint) else it.point
        out[i, 0] = p.j1
        out[i, 1] = p.j2
    return out


def nondominated_mask(points: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Boolean mask of rows of ``points`` (shape (n, 2)) not strictly
    dominated by any other row.  Duplicates all survive.

    Row b is dominated iff some row a has a1 < b1-eps and a2 <= b2+eps, or
    a1 <= b1+eps and a2 < b2-eps; the strict inequality in each test rules
    out a == b.  After one sort by j1, each test is a ``searchsorted`` into
    the running minimum of j2, so the filter is O(n log n) for every eps.
    """
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


def nondominated_filter(items: Sequence[PointLike], eps: float = 0.0) -> list[PointLike]:
    """Keep exactly the inputs whose point is not strictly dominated by
    any other input's point, preserving input order.  Solutions with
    objective-identical points are all retained."""
    items = list(items)
    if not items:
        return []
    mask = nondominated_mask(_points_array(items), eps)
    return [it for it, keep in zip(items, mask) if keep]
