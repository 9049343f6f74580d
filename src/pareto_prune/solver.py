"""Box-constrained solver for weighted-sum scalarizations.

One call to :func:`solve_scalarized` is one NLP in the pipeline's solve
accounting, regardless of how many local descents run inside it.  The
local descents of many solves run in lockstep in one batch
(:func:`descend`); every row of a batch evolves on its own, so a solve's
result does not depend on the batch it ran in.  The solver is
deterministic: identical arguments (including the seed) give
bitwise-identical results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ObjectivePoint, ProblemSpec, Realization

__all__ = [
    "InfeasibleError",
    "ScalarizedObjective",
    "SolverConfig",
    "SolveResult",
    "descend",
    "solve_scalarized",
]

# rows of one _descent call; keeps the memory of a batch bounded
MAX_DESCENT_ROWS = 32_768

_ARMIJO = 1e-4
_STEP_GROWTH = 2.0
_STEP_SHRINK = 0.25
_STEP_FLOOR = 1e-20


class InfeasibleError(RuntimeError):
    """Raised when a scalarized subproblem yields no usable iterate."""


@dataclass(frozen=True)
class SolverConfig:
    n_starts: int = 16
    max_iters: int = 500
    step_tol: float = 1e-10
    fd_step: float = 1e-7
    feas_tol: float = 1e-8
    penalty_coefficient: float = 1e6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_starts < 1 or self.max_iters < 1:
            raise ValueError("n_starts and max_iters must be positive")
        for name in ("step_tol", "fd_step", "feas_tol", "penalty_coefficient"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _evaluate(spec: ProblemSpec, field: str, ys: np.ndarray,
              z: np.ndarray | None = None) -> np.ndarray:
    """Call one evaluator of ``spec`` on the stacked rows ``ys`` at the
    single realization ``z`` (``base_objectives`` takes none), and check the
    shape of its result.  Every evaluator call goes through here."""
    fn = getattr(spec, field)
    args = () if field == "base_objectives" else (z,)
    if spec.vectorized:
        out = np.asarray(fn(ys, *args), dtype=float)
    else:
        out = np.array([fn(y, *args) for y in ys], dtype=float)
    m = ys.shape[0]
    if field == "inequality_constraints":
        if out.shape == (m,):
            out = out[:, None]
        ok, want = out.ndim == 2 and out.shape[0] == m, f"({m}, n_g)"
    else:
        shape = (m, 2, spec.n_y) if field == "gradient" else (m, 2)
        ok, want = out.shape == shape, str(shape)
    if not ok:
        raise ValueError(
            f"{field} of problem {spec.name!r} returned shape {out.shape}, expected {want}"
        )
    return out


def _scalarize(weight, raw: np.ndarray, g: np.ndarray | None, pc) -> np.ndarray:
    """w*J1 + (1-w)*J2 plus the exterior penalty pc * sum(max(g, 0)^2), per
    row; ``weight`` and ``pc`` are scalars or per-row arrays."""
    val = weight * raw[:, 0] + (1.0 - weight) * raw[:, 1]
    if g is not None:
        val = val + pc * (np.clip(g, 0.0, None) ** 2).sum(axis=1)
    return val


@dataclass(frozen=True)
class ScalarizedObjective:
    """w*J1 + (1-w)*J2 plus an exterior quadratic penalty on violated
    inequality constraints: one scalarized subproblem."""

    weight: float
    realization: Realization
    parent: ProblemSpec
    penalty_coefficient: float = 1e6

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must be in [0, 1], got {self.weight}")
        if self.penalty_coefficient <= 0:
            raise ValueError("penalty coefficient must be positive")

    def _z(self) -> np.ndarray:
        return np.asarray(self.realization.z, dtype=float)

    def raw_objectives(self, ys: np.ndarray) -> np.ndarray:
        """Objective pairs at a batch of continuous points, shape (m, 2)."""
        return _evaluate(self.parent, "objectives", ys, self._z())

    def constraint_values(self, ys: np.ndarray) -> np.ndarray | None:
        if self.parent.inequality_constraints is None:
            return None
        return _evaluate(self.parent, "inequality_constraints", ys, self._z())

    def max_violation(self, ys: np.ndarray) -> np.ndarray:
        g = self.constraint_values(ys)
        if g is None:
            return np.zeros(ys.shape[0])
        return np.clip(g, 0.0, None).max(axis=1)

    def value(self, ys: np.ndarray, penalty_coefficient: float | None = None) -> np.ndarray:
        pc = self.penalty_coefficient if penalty_coefficient is None else penalty_coefficient
        return _scalarize(self.weight, self.raw_objectives(ys), self.constraint_values(ys), pc)


class _Batch:
    """The scalarized solves of one lockstep descent.  Solve i owns rows
    i*rows_per_solve .. (i+1)*rows_per_solve - 1.  The methods take the
    stacked points of some of those rows and their indices (an index array
    or a slice); evaluators are called once per distinct realization among
    those rows, with that realization's rows stacked, so a row's value
    never depends on the rest of the batch."""

    def __init__(self, objs: Sequence[ScalarizedObjective], rows_per_solve: int) -> None:
        self.parent = objs[0].parent
        self.weight = np.array([o.weight for o in objs])
        self.penalty = np.array([o.penalty_coefficient for o in objs])
        index: dict[Realization, int] = {}
        self.solve_z = np.array([index.setdefault(o.realization, len(index)) for o in objs])
        self.zs = [np.asarray(r.z, dtype=float) for r in index]
        self.owner = np.repeat(np.arange(len(objs)), rows_per_solve)

    def _per_z(self, field: str, ys: np.ndarray, rows) -> np.ndarray:
        zi = self.solve_z[self.owner[rows]]
        cuts = (np.flatnonzero(zi[1:] != zi[:-1]) + 1).tolist()
        parts = [
            _evaluate(self.parent, field, ys[a:b], self.zs[zi[a]])
            for a, b in zip([0] + cuts, cuts + [len(zi)])
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def descent_value(self, ys: np.ndarray, rows,
                      penalty_coefficient: float | None = None) -> np.ndarray:
        """Objective the local descents minimize.  When the problem
        separates into a continuous base plus per-realization offsets,
        the z-dependent constant is dropped: the minimizer is unchanged
        and the iterate sequence becomes independent of the realization,
        so exact cross-realization ties survive in later filtering."""
        spec = self.parent
        solves = self.owner[rows]
        if spec.base_objectives is None:
            raw = self._per_z("objectives", ys, rows)
        else:
            raw = _evaluate(spec, "base_objectives", ys)
        g = pc = None
        if spec.inequality_constraints is not None:
            g = self._per_z("inequality_constraints", ys, rows)
            pc = self.penalty[solves] if penalty_coefficient is None else penalty_coefficient
        return _scalarize(self.weight[solves], raw, g, pc)

    def gradient(self, ys: np.ndarray, rows, penalty_coefficient: float | None = None,
                 fd_step: float = 1e-7) -> np.ndarray:
        """Gradient of the (penalized) scalarized objective, shape (m, n_y).

        Uses the parent's analytic objective gradient when available and no
        constraints are present; otherwise central finite differences on the
        penalized value (constraint gradients are never supplied).
        """
        spec = self.parent
        if spec.gradient is not None and spec.inequality_constraints is None:
            gj = self._per_z("gradient", ys, rows)
            w = self.weight[self.owner[rows]][:, None]
            return w * gj[:, 0, :] + (1.0 - w) * gj[:, 1, :]
        return self._fd_gradient(ys, rows, penalty_coefficient, fd_step)

    def _fd_gradient(self, ys: np.ndarray, rows, penalty_coefficient: float | None,
                     fd_step: float) -> np.ndarray:
        lo = self.parent.lower_bounds()
        hi = self.parent.upper_bounds()
        out = np.empty_like(ys)
        for d in range(ys.shape[1]):
            h = fd_step * (1.0 + np.abs(ys[:, d]))
            yp = ys.copy()
            ym = ys.copy()
            # stay inside the box; degrades to one-sided at a bound
            yp[:, d] = np.minimum(ys[:, d] + h, hi[d])
            ym[:, d] = np.maximum(ys[:, d] - h, lo[d])
            denom = yp[:, d] - ym[:, d]
            denom[denom == 0.0] = 1.0
            out[:, d] = (
                self.descent_value(yp, rows, penalty_coefficient)
                - self.descent_value(ym, rows, penalty_coefficient)
            ) / denom
        return out


@dataclass(frozen=True)
class SolveResult:
    y_star: tuple[float, ...]
    scalar_value: float
    point: ObjectivePoint
    feasible: bool
    starts_used: int


_start_cache: dict[tuple, np.ndarray] = {}


def _start_points(bounds: tuple[tuple[float, float], ...], n: int, seed: int) -> np.ndarray:
    """Deterministic multistart set: the two box corners, an equispaced
    interior lattice, and seeded uniform fill, capped at n points."""
    key = (bounds, n, seed)
    cached = _start_cache.get(key)
    if cached is not None:
        return cached
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
    pts.setflags(write=False)
    _start_cache[key] = pts
    return pts


def _descent(obj: _Batch, x0: np.ndarray, config: SolverConfig,
             penalty_coefficient: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent with Barzilai-Borwein steps and Armijo
    backtracking, run in lockstep over the rows of a batch of solves.

    Returns the best point and value visited per row (rows with
    non-finite initial values are returned as-is with value +inf).
    """
    lo = obj.parent.lower_bounds()
    hi = obj.parent.upper_bounds()
    pc = penalty_coefficient
    fd = config.fd_step

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
    g = obj.gradient(x, idx, pc, fd)
    span = float((hi - lo).max())
    t = span / (1.0 + np.abs(g).max(axis=1))

    for _ in range(config.max_iters):
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

            gc = obj.gradient(xc[ai], idx[ai], pc, fd)
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
        done[accept] = np.abs(step[accept]).max(axis=1) <= config.step_tol
        done |= t < _STEP_FLOOR
        if done.any():
            keep = ~done
            idx = idx[keep]
            x = x[keep]
            f = f[keep]
            g = g[keep]
            t = t[keep]

    return best_x, best_f


def descend(objs: Sequence[ScalarizedObjective],
            config: SolverConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """Local descents of several solves of one problem from the multistart
    set, in lockstep: one ``_descent`` call for all of them, or several of
    at most MAX_DESCENT_ROWS rows each.  Returns, per solve, the best point
    and value reached from each start, for :func:`solve_scalarized`.

    When the problem separates (``base_objectives``) and has no
    constraints, a descent depends only on its weight, so the solves that
    share a weight share one block of rows.
    """
    if not objs:
        return []
    spec = objs[0].parent
    starts = _start_points(spec.bounds, config.n_starts, config.seed)
    n = starts.shape[0]
    merge = spec.base_objectives is not None and spec.inequality_constraints is None
    blocks: dict = {}
    block_of: list[int] = []
    owners: list[ScalarizedObjective] = []  # the solve whose descent each block runs
    for i, o in enumerate(objs):
        b = blocks.setdefault(o.weight if merge else i, len(owners))
        if b == len(owners):
            owners.append(o)
        block_of.append(b)
    out: list[tuple[np.ndarray, np.ndarray]] = []
    per_call = max(1, MAX_DESCENT_ROWS // n)
    for a in range(0, len(owners), per_call):
        part = owners[a:a + per_call]
        best_x, best_f = _descent(_Batch(part, n), np.tile(starts, (len(part), 1)), config)
        out.extend((best_x[j * n:(j + 1) * n], best_f[j * n:(j + 1) * n]) for j in range(len(part)))
    return [out[b] for b in block_of]


def solve_scalarized(obj: ScalarizedObjective, config: SolverConfig,
                     descent: tuple[np.ndarray, np.ndarray] | None = None) -> SolveResult:
    """Minimize a scalarized subproblem over its box.

    Picks the best point the local descents from the deterministic
    multistart set reached.  ``descent`` is this solve's entry of a
    :func:`descend` call that ran many solves in one batch; without it the
    solve runs a batch of its own.  Counts as exactly one solve.  When
    constraints remain violated beyond ``feas_tol``, the penalty
    coefficient is escalated and the descent continued from the incumbent
    (still the same single counted solve).
    """
    best_x, best_f = descend([obj], config)[0] if descent is None else descent
    usable = np.isfinite(best_f)
    starts_used = int(usable.sum())
    if starts_used == 0:
        raise InfeasibleError(
            f"all {config.n_starts} starts produced non-finite values for "
            f"subproblem k={obj.realization.k} (w={obj.weight})"
        )
    winner = int(np.argmin(best_f))
    y = best_x[winner]

    if obj.parent.inequality_constraints is not None:
        pc = obj.penalty_coefficient
        for _ in range(4):
            if float(obj.max_violation(y[None, :])[0]) <= config.feas_tol:
                break
            pc *= 100.0
            y_new, f_new = _descent(_Batch([obj], 1), y[None, :], config, penalty_coefficient=pc)
            if np.isfinite(f_new[0]):
                y = y_new[0]

    y = np.clip(y, obj.parent.lower_bounds(), obj.parent.upper_bounds())
    raw = obj.raw_objectives(y[None, :])
    g = obj.constraint_values(y[None, :])
    return SolveResult(
        y_star=tuple(float(v) for v in y),
        scalar_value=float(_scalarize(obj.weight, raw, g, obj.penalty_coefficient)[0]),
        point=ObjectivePoint(float(raw[0, 0]), float(raw[0, 1])),
        feasible=g is None or bool(np.clip(g, 0.0, None).max() <= config.feas_tol),
        starts_used=starts_used,
    )
