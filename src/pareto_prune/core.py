"""Domain types and dominance primitives for bi-objective minimization.

A realization is its index k, and :func:`_z_rows` gives the z of any ks.
A front is one :class:`Front` of arrays from the first solve to the
report.  Everything here is immutable after construction and safe to
share across threads.  Both objectives are always minimized.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "ProblemSpec",
    "Realization",
    "Front",
    "nondominated_filter",
]


# built only by decomposition.realization_from_index, for the benchmark's tests
@dataclass(frozen=True)
class Realization:
    """The k-th element of the discrete product set Z_1 x ... x Z_nz.

    Indices are 1-based and follow lexicographic order with the last
    discrete variable varying fastest (:func:`_z_rows`).
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

    Partial separability is declared by ``base_objectives``, ``base_z``
    and ``offsets``: objectives(y, z) == base_objectives(y, z[base_z]) +
    offsets(z), componentwise, where ``base_z`` lists the z coordinates the
    continuous part reads (none by default) and ``offsets`` maps z to the
    pair of terms that depend on z alone.  ``base_objectives`` always gets
    the columns ``z[..., base_z]``, (m, 0) when ``base_z`` is empty;
    ``offsets`` takes z alone; both follow ``vectorized`` as the
    objectives do and return (m, 2).  ``gradient`` may read z only through
    ``base_z``.  Every solve of a declared problem has the base plus its
    realization's offsets as objectives, and so does every descent not
    shared by weight (below); the offsets are evaluated once per run, for
    every realization, when the run's solver is built, and ``objectives``
    serves only the check of the split, once per run, before that.
    Without ``inequality_constraints`` and with an empty ``base_z``, a
    descent depends on its weight alone: it runs on the base without
    offsets, solve trajectories are bitwise identical across
    realizations, which preserves exact objective-space ties between
    realizations that are mathematically equivalent, and the solves that
    share a weight share one descent.  ``base_objectives`` without
    ``offsets`` or the reverse, a non-empty ``base_z`` without them, or a
    ``base_z`` entry outside range(n_z), raises ValueError.
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
    base_z: tuple[int, ...] = ()
    offsets: Callable | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "bounds", tuple((float(lo), float(hi)) for lo, hi in self.bounds))
        object.__setattr__(
            self, "discrete_sets", tuple(tuple(float(v) for v in zs) for zs in self.discrete_sets)
        )
        if not self.discrete_sets:
            raise ValueError("problem has no discrete variables")
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
        base_z = tuple(self.base_z)
        if any(isinstance(j, bool) or not isinstance(j, numbers.Integral)
               or not 0 <= j < self.n_z for j in base_z):
            raise ValueError(f"base_z entries must be integers in range({self.n_z}), got {base_z}")
        object.__setattr__(self, "base_z", tuple(map(int, base_z)))
        if ((self.base_objectives is None) != (self.offsets is None)
                or base_z and self.offsets is None):
            raise ValueError("base_objectives and offsets are declared together or not at all, "
                             "and a non-empty base_z needs them")

    @property
    def n_z(self) -> int:
        return len(self.discrete_sets)

    @property
    def _k_total(self) -> int:  # |K|, the size of the discrete product set
        return math.prod(map(len, self.discrete_sets))

    def lower_bounds(self) -> np.ndarray:
        return np.array([lo for lo, _ in self.bounds])

    def upper_bounds(self) -> np.ndarray:
        return np.array([hi for _, hi in self.bounds])


def _z_rows(spec: ProblemSpec, ks, dtype=float) -> np.ndarray:
    """The z of each realization index k in ``ks``, one row each (n, n_z):
    the digits of k - 1 in mixed radix over the set sizes, the last
    variable fastest; as ``dtype`` object, the sets' own float objects."""
    rem, columns = np.asarray(ks, dtype=np.int64) - 1, []
    for zs in reversed(spec.discrete_sets):
        rem, digit = np.divmod(rem, len(zs))
        columns.append(np.array(zs, dtype)[digit])
    return np.column_stack(columns[::-1])


class Front(NamedTuple):
    """Subproblem front points of several realizations, one row each: the
    realization index ``k``, the index ``w`` of the weight whose solve gave
    the point, its continuous part ``y`` (n, n_y) and objectives ``pts`` (n, 2)."""

    k: np.ndarray
    w: np.ndarray
    y: np.ndarray
    pts: np.ndarray

    def take(self, rows) -> "Front":
        """The rows ``rows`` (indices or a mask), in that order."""
        return Front(*(a[rows] for a in self))


def _check_eps(eps: float) -> None:
    """Raise ValueError unless ``eps`` is a real number (not a bool),
    finite and at least 0."""
    if isinstance(eps, bool) or not isinstance(eps, numbers.Real):
        raise ValueError(f"eps must be a real number, got {eps!r}")
    if not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")


def nondominated_rows(points: np.ndarray, eps: float = 0.0,
                      seg: np.ndarray | None = None) -> np.ndarray:
    """Indices of the rows of ``points`` (shape (n, 2)) not strictly
    dominated by any other row of their segment ``seg`` (n integers; one
    segment without it), by segment, then j1, ties in row order.  Each
    segment is filtered as if alone; duplicates all survive.

    Row b is dominated iff some row a has a1 < b1-eps and a2 <= b2+eps, or
    a1 <= b1+eps and a2 < b2-eps; the strict inequality in each test rules
    out a == b.  After one stable sort by (segment, j1), each test is a
    ``searchsorted`` into the running minimum of j2, restarted at each
    segment: O(n log n) time and O(n) memory for every eps.  A (segment,
    value) pair is one complex number, which numpy sorts, searches and
    compares exactly, real part first."""
    _check_eps(eps)
    key = np.empty(len(points), dtype=complex)
    key.real, key.imag = 0.0 if seg is None else seg, points[:, 0]
    order = np.argsort(key, kind="stable")
    key, j2 = key[order], points[order, 1]
    run = np.empty_like(key)  # a later segment's (-segment, j2) is below all before it
    run.real, run.imag = -key.real, j2
    prefix_min_j2 = np.minimum.accumulate(run).imag
    first = np.searchsorted(key.real, key.real)  # where each row's segment starts
    # rows of the segment with a1 < b1-eps, then rows with a1 <= b1+eps
    c = np.searchsorted(key, key - 1j * eps, side="left")
    dominated = (c > first) & (prefix_min_j2[c - 1] <= j2 + eps)
    c = np.searchsorted(key, key + 1j * eps, side="right")
    dominated |= (c > first) & (prefix_min_j2[c - 1] < j2 - eps)
    return order[~dominated]


# called by no run; the benchmark's tracer (perfbench/tracer.py) wraps it as core.nd_filter
def nondominated_filter(points, eps: float = 0.0) -> np.ndarray:
    """Indices of the rows of ``points``, an (n, 2) array-like, that no
    other row strictly dominates, in input order: :func:`nondominated_rows`
    of one segment, sorted.  Identical points are all retained."""
    return np.sort(nondominated_rows(np.asarray(points, dtype=float).reshape(-1, 2), eps))
