"""Box-constrained solver for weighted-sum scalarizations.

A solve is one (realization, weight) job: minimize w*J1 + (1-w)*J2 of
the problem at that realization over its box, plus an exterior quadratic
penalty on violated inequality constraints.  One call to
:func:`solve_scalarized` is one NLP in the pipeline's solve accounting,
regardless of how many local descents run inside it.  The solves of one
phase are one :func:`solve_batch` call, which takes the problem once and
returns one :class:`SolveResult` per job, unusable solves included:
their local descents run in lockstep in one batch, and the batch is
finished in one pass: winners, penalty escalation and objectives.  Every
row of a batch evolves on its own, so a solve's result does not depend
on the batch it ran in.
The solver is deterministic: identical arguments (including the seed)
give bitwise-identical results.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ObjectivePoint, ProblemSpec, Realization

__all__ = [
    "SolverConfig",
    "SolveResult",
    "solve_batch",
    "solve_scalarized",
]

# rows of one _descent call; keeps the memory of a batch bounded
MAX_DESCENT_ROWS = 32_768

N_STARTS = 16  # local descents per solve
MAX_ITERS = 500  # descent steps per row
STEP_TOL = 1e-10  # a row stops once an accepted step moves no coordinate further
FD_STEP = 1e-7  # relative finite-difference step
FEAS_TOL = 1e-8  # largest constraint value a feasible point may have
PENALTY_COEFFICIENT = 1e6  # exterior penalty; a finish escalates it x100, up to 4 rounds

_ARMIJO = 1e-4
_STEP_GROWTH = 2.0
_STEP_SHRINK = 0.25
_STEP_FLOOR = 1e-20


@dataclass(frozen=True)
class SolverConfig:
    """The seed of the multistart set's uniform fill; the rest of the
    solver's tuning is the module constants above."""

    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _evaluate(spec: ProblemSpec, field: str, ys: np.ndarray,
              zs: np.ndarray | None = None) -> np.ndarray:
    """Call one evaluator of ``spec`` on the stacked rows ``ys``, row i at
    the realization ``zs[i]`` (``base_objectives`` takes none), and check
    the shape of its result.  A vectorized evaluator gets ``ys`` and the
    row-aligned ``zs`` (m, n_z) in one call, a scalar one each row."""
    fn = getattr(spec, field)
    args = () if zs is None else (zs,)
    out = fn(ys, *args) if spec.vectorized else [fn(*row) for row in zip(ys, *args)]
    return _checked(spec, field, out, ys.shape[0])


def _checked(spec: ProblemSpec, field: str, out, m: int) -> np.ndarray:
    """``out``, an evaluator's result for m rows, as a float array of the
    shape the ``ProblemSpec`` contract gives ``field``: (m, 2), (m, 2, n_y)
    or (m, n_g), where (m,) is taken as n_g = 1.  Every evaluator result
    passes through here; anything else raises a ValueError that names the
    evaluator and both shapes."""
    if field == "inequality_constraints":
        shape, want = None, f"({m}, n_g)"
    else:
        shape = (m, 2, spec.n_y) if field == "gradient" else (m, 2)
        want = str(shape)
    try:
        out = np.asarray(out, dtype=float)
    except ValueError as exc:
        raise ValueError(
            f"{field} of problem {spec.name!r} returned rows that do not form a "
            f"float array, expected {want}: {exc}"
        ) from exc
    if shape is None:
        if out.shape == (m,):
            out = out[:, None]
        ok = out.ndim == 2 and out.shape[0] == m
    else:
        ok = out.shape == shape
    if not ok:
        raise ValueError(
            f"{field} of problem {spec.name!r} returned shape {out.shape}, expected {want}"
        )
    return out


def _scalarize(weight, raw: np.ndarray, g: np.ndarray | None, pc) -> np.ndarray:
    """w*J1 + (1-w)*J2 plus the exterior penalty pc * sum(max(g, 0)^2), per
    row; ``weight`` is a scalar or a per-row array."""
    val = weight * raw[:, 0] + (1.0 - weight) * raw[:, 1]
    if g is not None:
        val = val + pc * (np.clip(g, 0.0, None) ** 2).sum(axis=1)
    return val


class _Batch:
    """The (realization, weight) jobs of ``spec`` that one lockstep descent
    solves, at PENALTY_COEFFICIENT unless escalated.  Solve i owns rows
    i*rows_per_solve .. (i+1)*rows_per_solve - 1.  The methods take the
    stacked points of some of those rows and their indices (an index array
    or a slice), and make one pass per evaluator over all of them: one
    call of a vectorized evaluator with every row's z stacked beside it,
    or one call of a scalar one per row with that row's z.  A row's value
    never depends on the rest of the batch, so a finite-difference
    gradient evaluates all its probes in one pass."""

    def __init__(self, spec: ProblemSpec, jobs: Sequence[tuple[Realization, float]],
                 rows_per_solve: int) -> None:
        self.spec = spec
        self.lo = spec.lower_bounds()
        self.hi = spec.upper_bounds()
        self.weight = np.array([w for _, w in jobs])
        index: dict[Realization, int] = {}
        self.solve_z = np.array([index.setdefault(r, len(index)) for r, _ in jobs])
        self.zarr = np.array([r.z for r in index], dtype=float)  # (n_real, n_z)
        self.zs = list(self.zarr)
        self.owner = np.repeat(np.arange(len(jobs)), rows_per_solve)

    def _per_z(self, field: str, ys: np.ndarray, solves: np.ndarray) -> np.ndarray:
        """``field`` at each row of ``ys``, row i at the realization of
        solve ``solves[i]``."""
        spec = self.spec
        zi = self.solve_z[solves]
        if spec.vectorized:
            return _evaluate(spec, field, ys, self.zarr[zi])
        fn, zs = getattr(spec, field), self.zs
        return _checked(spec, field, [fn(y, zs[j]) for y, j in zip(ys, zi.tolist())], len(zi))

    def descent_value(self, ys: np.ndarray, rows,
                      penalty_coefficient: float | None = None) -> np.ndarray:
        """Objective the local descents minimize.  When the problem
        separates into a continuous base plus per-realization offsets,
        the z-dependent constant is dropped: the minimizer is unchanged
        and the iterate sequence becomes independent of the realization,
        so exact cross-realization ties survive in later filtering."""
        spec = self.spec
        solves = self.owner[rows]
        if spec.base_objectives is None:
            raw = self._per_z("objectives", ys, solves)
        else:
            raw = _evaluate(spec, "base_objectives", ys)
        g = pc = None
        if spec.inequality_constraints is not None:
            g = self._per_z("inequality_constraints", ys, solves)
            pc = PENALTY_COEFFICIENT if penalty_coefficient is None else penalty_coefficient
        return _scalarize(self.weight[solves], raw, g, pc)

    def gradient(self, ys: np.ndarray, rows,
                 penalty_coefficient: float | None = None) -> np.ndarray:
        """Gradient of the (penalized) scalarized objective, shape (m, n_y).

        Uses the problem's analytic objective gradient when available and no
        constraints are present; otherwise central finite differences on the
        penalized value (constraint gradients are never supplied).
        """
        spec = self.spec
        if spec.gradient is not None and spec.inequality_constraints is None:
            solves = self.owner[rows]
            gj = self._per_z("gradient", ys, solves)
            w = self.weight[solves][:, None]
            return w * gj[:, 0, :] + (1.0 - w) * gj[:, 1, :]
        return self._fd_gradient(ys, rows, penalty_coefficient)

    def _fd_gradient(self, ys: np.ndarray, rows,
                     penalty_coefficient: float | None) -> np.ndarray:
        """Central differences, with the + and - probe of every (row,
        dimension) pair stacked into one ``descent_value`` call, or into
        several of at most MAX_DESCENT_ROWS rows each when they do not fit.
        A probe stays inside the box, so the difference degrades to one-sided
        at a bound."""
        m, n = ys.shape
        h = FD_STEP * (1.0 + np.abs(ys))
        yp = np.minimum(ys + h, self.hi)
        ym = np.maximum(ys - h, self.lo)
        denom = yp - ym
        denom[denom == 0.0] = 1.0
        rows = np.arange(self.owner.size)[rows]
        out = np.empty_like(ys)
        per_call = max(1, MAX_DESCENT_ROWS // 2)  # (row, dimension) pairs
        for a in range(0, m * n, per_call):
            pair = np.arange(a, min(a + per_call, m * n))
            i, d = np.divmod(pair, n)
            i2 = np.repeat(i, 2)
            plus = 2 * np.arange(pair.size)  # rows 2p and 2p+1 probe pair p
            probes = ys[i2]
            probes[plus, d] = yp[i, d]
            probes[plus + 1, d] = ym[i, d]
            v = self.descent_value(probes, rows[i2], penalty_coefficient)
            out[i, d] = (v[0::2] - v[1::2]) / denom[i, d]
        return out


@dataclass(frozen=True)
class SolveResult:
    """One solve of weight ``weight``: the best point its descents reached
    and the objectives there.  ``point`` is None where no start reached a
    finite value or the objectives at that point are not finite; such a
    solve, and one whose point violates a constraint beyond FEAS_TOL, is
    not ``feasible``."""

    weight: float
    y_star: tuple[float, ...]
    point: ObjectivePoint | None
    feasible: bool


def _start_points(bounds: tuple[tuple[float, float], ...], n: int, seed: int) -> np.ndarray:
    """Deterministic multistart set: the two box corners, an equispaced
    interior lattice, and seeded uniform fill, capped at n points."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    ny = len(bounds)
    rows = [lo, hi]
    if n > 2:
        m = 1
        while (m + 1) ** ny <= n - 2:
            m += 1
        if m >= 1 and m ** ny <= n - 2:
            axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(1, m + 1) / (m + 1.0)) for d in range(ny)]
            for combo in itertools.product(*axes):
                rows.append(np.array(combo))
    pts = np.array(rows[:n])
    if pts.shape[0] < n:
        rng = np.random.default_rng(seed)
        fill = lo + (hi - lo) * rng.random((n - pts.shape[0], ny))
        pts = np.vstack([pts, fill])
    return pts


def _descent(obj: _Batch, x0: np.ndarray, *,
             penalty_coefficient: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent with Barzilai-Borwein steps and Armijo
    backtracking, run in lockstep over the rows of a batch of solves.

    Returns the best point and value visited per row (rows with
    non-finite initial values are returned as-is with value +inf).
    """
    lo, hi = obj.lo, obj.hi
    pc = penalty_coefficient

    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f = obj.descent_value(x, slice(None), pc)
    ok = np.isfinite(f)
    best_x = x.copy()
    best_f = np.where(ok, f, np.inf)
    if not ok.any():
        return best_x, best_f

    idx = np.where(ok)[0]  # rows still descending, as indices into the batch
    x = x[idx]
    f = f[idx]
    g = obj.gradient(x, idx, pc)
    span = float((hi - lo).max())
    t = span / (1.0 + np.abs(g).max(axis=1))

    for _ in range(MAX_ITERS):
        if idx.size == 0:
            break
        xc = np.clip(x - t[:, None] * g, lo, hi)
        step = x - xc
        fc = obj.descent_value(xc, idx, pc)
        decrease = (g * step).sum(axis=1)
        accept = np.isfinite(fc) & (fc <= f - _ARMIJO * decrease)

        if accept.any():
            ai = np.where(accept)[0]
            improved = fc[ai] < best_f[idx[ai]]
            upd = ai[improved]
            best_f[idx[upd]] = fc[upd]
            best_x[idx[upd]] = xc[upd]

            gc = obj.gradient(xc[ai], idx[ai], pc)
            s = xc[ai] - x[ai]
            yv = gc - g[ai]
            sy = (s * yv).sum(axis=1)
            ss = (s * s).sum(axis=1)
            bb = np.where(sy > 1e-30, ss / np.where(sy > 1e-30, sy, 1.0),
                          np.minimum(t[ai] * _STEP_GROWTH, 1e12))
            t[ai] = np.clip(bb, _STEP_FLOOR, 1e12)
            x[ai] = xc[ai]
            f[ai] = fc[ai]
            g[ai] = gc

        rej = ~accept
        t[rej] = t[rej] * _STEP_SHRINK

        done = np.zeros(idx.size, dtype=bool)
        done[accept] = np.abs(step[accept]).max(axis=1) <= STEP_TOL
        done |= t < _STEP_FLOOR
        if done.any():
            keep = ~done
            idx = idx[keep]
            x = x[keep]
            f = f[keep]
            g = g[keep]
            t = t[keep]

    return best_x, best_f


def _descend(spec: ProblemSpec, jobs: Sequence[tuple[Realization, float]],
             config: SolverConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Local descents of several solves of ``spec`` from the multistart
    set, in lockstep: one ``_descent`` call for all of them, or several of
    at most MAX_DESCENT_ROWS rows each.  Returns, per solve, the best point
    and value reached from each start, as read-only arrays."""
    n = N_STARTS
    per_call = max(1, MAX_DESCENT_ROWS // n)
    starts = _start_points(spec.bounds, n, config.seed)
    out = []
    for a in range(0, len(jobs), per_call):
        part = jobs[a:a + per_call]
        best_x, best_f = _descent(_Batch(spec, part, n), np.tile(starts, (len(part), 1)))
        best_x.setflags(write=False)
        best_f.setflags(write=False)
        out += [(best_x[j * n:(j + 1) * n], best_f[j * n:(j + 1) * n]) for j in range(len(part))]
    return out


def solve_batch(spec: ProblemSpec, jobs: Sequence[tuple[Realization, float]],
                config: SolverConfig, table: dict | None = None) -> list[SolveResult]:
    """The result of each (realization, weight) job of ``spec``.  The
    descents of the solves not finished yet run as one batch
    (:func:`_descend`), and are finished as one batch, MAX_DESCENT_ROWS
    solves at a time (:func:`_finish`).

    ``table`` holds what later calls of one run reuse; it belongs to one
    problem and one seed, and without one a call starts a fresh one.  It
    keeps each finished solve under (weight, k), so a solve that an
    earlier call finished is looked up instead of run again.  When the
    problem separates (``base_objectives``) and has no constraints, a
    descent depends on its weight alone: the table also keeps it under the
    weight, and every solve of that weight, in this call or a later one,
    shares its rows.
    """
    table = {} if table is None else table
    keys = [(w, r.k) for r, w in jobs]
    todo: dict = {}  # key -> its first job, for the solves not finished yet
    for key, job in zip(keys, jobs):
        if key not in table:
            todo.setdefault(key, job)
    solves = list(todo.values())
    if spec.base_objectives is not None and spec.inequality_constraints is None:
        missing: dict = {}  # weight -> the job whose descent runs it
        for r, w in solves:
            if w not in table:
                missing.setdefault(w, (r, w))
        table.update(zip(missing, _descend(spec, list(missing.values()), config)))
        entries = [table[w] for _, w in solves]
    else:
        entries = _descend(spec, solves, config)
    todo_keys = list(todo)
    for a in range(0, len(solves), MAX_DESCENT_ROWS):
        part = slice(a, a + MAX_DESCENT_ROWS)
        table.update(zip(todo_keys[part], _finish(spec, solves[part], entries[part])))
    return [table[key] for key in keys]


def _finish(spec: ProblemSpec, jobs: Sequence[tuple[Realization, float]],
            entries: list[tuple[np.ndarray, np.ndarray]]) -> list[SolveResult]:
    """The result of each solve: the best point its descents reached.  On
    a constrained problem one evaluator pass gives the constraints at
    every winner with a finite value.  Winners that violate them beyond
    FEAS_TOL descend again from where they stand, in lockstep, with the
    penalty multiplied by 100, for up to 4 rounds; ``_descent`` returns a
    row whose value there is not finite unmoved, so it keeps its
    incumbent.  Then one pass gives the objectives of all those winners,
    and a solve has a point where they are finite."""
    fs = np.stack([f for _, f in entries])  # (n_solves, N_STARTS)
    win = fs.argmin(axis=1).tolist()
    y = np.stack([x[i] for (x, _), i in zip(entries, win)])  # _descent keeps rows inside the box
    ok = np.flatnonzero(np.isfinite(fs.min(axis=1)))
    raw = np.full((len(jobs), 2), np.nan)
    within = np.ones(len(jobs), dtype=bool)  # constraints within FEAS_TOL
    if ok.size:
        sel = [jobs[i] for i in ok]
        yk = y[ok]
        z = np.array([r.z for r, _ in sel], dtype=float)
        if spec.inequality_constraints is not None:
            g = _evaluate(spec, "inequality_constraints", yk, z)
            pc = PENALTY_COEFFICIENT
            for _ in range(4):
                bad = np.flatnonzero(~(np.clip(g, 0.0, None).max(axis=1) <= FEAS_TOL))
                if bad.size == 0:
                    break
                pc *= 100.0
                yk[bad] = _descent(_Batch(spec, [sel[i] for i in bad], 1), yk[bad],
                                   penalty_coefficient=pc)[0]
                g[bad] = _evaluate(spec, "inequality_constraints", yk[bad], z[bad])
            within[ok] = np.clip(g, 0.0, None).max(axis=1) <= FEAS_TOL
        raw[ok] = _evaluate(spec, "objectives", yk, z)
        y[ok] = yk
    finite = np.isfinite(raw).all(axis=1)
    return [SolveResult(w, tuple(yi), ObjectivePoint(j1, j2) if fin else None, fin and wi)
            for (_, w), yi, (j1, j2), fin, wi in zip(jobs, y.tolist(), raw.tolist(),
                                                      finite.tolist(), within.tolist())]


def solve_scalarized(result: SolveResult) -> SolveResult:
    """One solve over its box: ``result``, its :func:`solve_batch` result.
    Counts as exactly one solve, however many descents and penalty
    escalations ran for it or were shared, and whether or not it is
    feasible."""
    return result
