"""Realization enumeration and per-subproblem solves: utopia points from
the anchors, center points, and weighted-sum subproblem fronts.  A
realization is its index k; :func:`~pareto_prune.core._z_rows` gives the
z of any ks.  Each operation takes the run's
:class:`~pareto_prune.solver.Solver`, which looks up what the run has
already solved, and a list of ks; it poses its solves, ks x weights, as
one :meth:`~pareto_prune.solver.Solver.solve` call, and decides no pruning
set: a point per realization, one row of an (n, 2) array (NaN where a
solve it needs is not feasible), or the fronts of all its realizations as
one :class:`~pareto_prune.core.Front`."""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .core import Front, ProblemSpec, Realization, _z_rows, nondominated_rows
from .solver import MAX_DESCENT_ROWS, Solver, SolveResult, _evaluate, solve_scalarized

__all__ = [
    "CENTER_WEIGHT",
    "CapacityExceeded",
    "enumerate_realizations",
    "realization_from_index",
    "compute_anchors_utopia",
    "compute_center",
    "weight_grid",
    "build_subproblem_front",
    "check_split",
]

DEFAULT_REALIZATION_CAP = 10_000_000
# the weight of a center solve: equal weights on both objectives
CENTER_WEIGHT = 0.5
# largest relative difference check_split allows between the objectives and their split
SPLIT_RTOL = 1e-9


class CapacityExceeded(RuntimeError):
    """The discrete product set is larger than the configured cap."""


def _realizations(spec: ProblemSpec, ks) -> list[Realization]:
    """The :class:`Realization` of each index k in ``ks``, a part at a time."""
    parts = (ks[a:a + MAX_DESCENT_ROWS] for a in range(0, len(ks), MAX_DESCENT_ROWS))
    return list(itertools.chain.from_iterable(
        map(Realization, part, zip(*_z_rows(spec, part, object).T.tolist())) for part in parts))


def enumerate_realizations(spec: ProblemSpec) -> list[Realization]:
    """All realizations of the discrete product set, in lexicographic
    order with the last variable varying fastest; k runs 1..|Z|.  More
    than DEFAULT_REALIZATION_CAP of them raise CapacityExceeded."""
    if (total := spec._k_total) > DEFAULT_REALIZATION_CAP:
        raise CapacityExceeded(f"{total} realizations exceed the cap of {DEFAULT_REALIZATION_CAP}")
    return _realizations(spec, range(1, total + 1))


def realization_from_index(spec: ProblemSpec, k: int) -> Realization:
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or not 1 <= k <= spec._k_total:
        raise ValueError(f"k must be an integer in 1..{spec._k_total}, got {k!r}")
    return _realizations(spec, [k])[0]


def check_split(spec: ProblemSpec) -> None:
    """Raise ValueError unless the split that ``spec`` declares holds:
    objectives(y, z) equals base_objectives(y, z[base_z]) + offsets(z), or
    without ``offsets`` the base plus its difference at the realization's
    first point, within a relative SPLIT_RTOL of the terms' size, a NaN
    meeting a NaN.  Checked at four points, the box corners lo and hi and
    lo + (hi - lo) * t at t = (1/3, 2/3, 1/3, ...) and 1 - t, of the first,
    middle and last realization and of each realization one step from the
    first in a single z coordinate, where a base that reads a coordinate
    outside ``base_z`` shows even if the others all have z_1 = z_2.  The
    message names the worst point.  A problem without ``base_objectives``
    declares nothing.  Necessary, not sufficient: a split that is wrong
    only elsewhere passes."""
    if spec.base_objectives is None:
        return
    sets = spec.discrete_sets
    steps = [1 + math.prod(map(len, sets[j + 1:])) for j in range(len(sets)) if len(sets[j]) > 1]
    ks = sorted({1, (spec._k_total + 1) // 2, spec._k_total, *steps})
    lo, hi = spec.lower_bounds(), spec.upper_bounds()
    t = np.resize([1 / 3, 2 / 3], spec.n_y)
    points = lo + (hi - lo) * np.array([np.zeros_like(t), np.ones_like(t), t, 1.0 - t])
    n = len(points)
    y, z = np.tile(points, (len(ks), 1)), np.repeat(_z_rows(spec, ks), n, axis=0)
    whole = _evaluate(spec, "objectives", y, z)
    try:
        base = _evaluate(spec, "base_objectives", y, z[:, list(spec.base_z)])
        off = (whole - base)[::n] if spec.offsets is None else _evaluate(spec, "offsets", z[::n])
    except (IndexError, KeyError, TypeError) as exc:
        raise ValueError(f"the evaluators of problem {spec.name!r} fail on its split "
                         f"(base_z = {spec.base_z}): {exc!r}") from exc
    off = np.repeat(off, n, axis=0)
    split = base + off
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(whole - split) / np.maximum(np.abs(whole), np.abs(base) + np.abs(off))
    err[(whole == split) | np.isnan(whole) & np.isnan(split)] = 0.0
    err[np.isnan(err)] = math.inf
    i, j = np.unravel_index(np.argmax(err), err.shape)
    if err[i, j] > SPLIT_RTOL:
        what = "offsets(z)" if spec.offsets is not None else "a constant per realization"
        raise ValueError(
            f"objectives of problem {spec.name!r} differ from base_objectives(y, z[base_z]) + "
            f"{what} (base_z = {spec.base_z}) by a relative {err[i, j]:.3g} > {SPLIT_RTOL:g} "
            f"in j{j + 1} at y = {tuple(y[i].tolist())}, z = {tuple(z[i].tolist())} "
            f"(realization {ks[i // n]}): {float(whole[i, j])!r} against {float(split[i, j])!r}")


def _solve_all(solver: Solver, ks: list[int], weights) -> tuple[np.ndarray, np.ndarray]:
    """The solves of ``ks`` x ``weights``, k-major, from one ``solver.solve`` call: y (n*m,
    n_y) and objectives (n*m, 2), NaN where not feasible; each counted, a part at a time."""
    y, pts, feasible = (a.reshape(-1, *a.shape[2:]) for a in solver.solve(ks, weights))
    ws = itertools.cycle(weights)
    for a in range(0, feasible.size, MAX_DESCENT_ROWS):
        part = slice(a, a + MAX_DESCENT_ROWS)
        for y_star, ok in zip(map(tuple, y[part].tolist()), feasible[part].tolist()):
            solve_scalarized(SolveResult(next(ws), y_star, ok))
    return y, np.where(feasible[:, None], pts, math.nan)


def compute_anchors_utopia(solver: Solver, ks: list[int]) -> np.ndarray:
    """Utopia point of each realization: j1 of its w=1 anchor and j2 of
    its w=0 anchor (two counted sole-objective solves per realization), a
    NaN row where either anchor is not feasible."""
    pairs = _solve_all(solver, ks, (1.0, 0.0))[1].reshape(len(ks), 4)  # w=1, then w=0
    return np.where(np.isnan(pairs).any(axis=1, keepdims=True), math.nan, pairs[:, [0, 3]])


def compute_center(solver: Solver, ks: list[int]) -> np.ndarray:
    """Center point of each realization: the objectives of its equal-weights
    solve (one counted NLP each), on the subproblem front where weighted-sum
    reaches it; a NaN row where that solve is not feasible."""
    return _solve_all(solver, ks, (CENTER_WEIGHT,))[1]


def weight_grid(beta: int) -> list[float]:
    """The beta weights of a subproblem front, i/(beta-1) for i =
    0..beta-1: every caller keys its solves by these same floats."""
    return [i / (beta - 1) for i in range(beta)]


def build_subproblem_front(solver: Solver, ks: list[int], beta: int,
                           eps: float = 0.0) -> Front:
    """beta-point weighted-sum front of each subproblem: solves weights
    i/(beta-1) for i = 0..beta-1 (beta counted NLPs per realization) and
    keeps the feasible outcomes no other of the same realization strictly
    dominates, all realizations in one segmented pass.  Rows follow
    ``ks``, each realization's by j1, ties in weight order.  A weight
    whose solve is not feasible is skipped, so every sweep poses all beta
    solves; a realization without a feasible solution has no row."""
    if beta < 2:
        raise ValueError(f"beta must be >= 2, got {beta}")
    y, pts = _solve_all(solver, ks, weight_grid(beta))
    rows = np.flatnonzero(~np.isnan(pts[:, 0]))
    seg, w = np.divmod(rows, beta)
    front = Front(np.asarray(ks, dtype=np.int64)[seg], w, y[rows], pts[rows])
    return front.take(nondominated_rows(front.pts, eps, seg))
