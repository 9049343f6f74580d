"""Box-constrained solver for weighted-sum scalarizations.

One call to :func:`solve_scalarized` is one NLP in the pipeline's solve
accounting, regardless of how many local descents run inside it.  The
solver is deterministic: identical arguments (including the seed) give
bitwise-identical results.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import ObjectivePoint, ProblemSpec, Realization

__all__ = [
    "InfeasibleError",
    "ScalarizedObjective",
    "SolverConfig",
    "SolveResult",
    "solve_scalarized",
]

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


@dataclass(frozen=True)
class ScalarizedObjective:
    """w*J1 + (1-w)*J2 plus an exterior quadratic penalty on violated
    inequality constraints."""

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
        spec = self.parent
        z = self._z()
        if spec.vectorized:
            return np.asarray(spec.objectives(ys, z), dtype=float)
        return np.array([spec.objectives(y, z) for y in ys], dtype=float)

    def constraint_values(self, ys: np.ndarray) -> np.ndarray | None:
        spec = self.parent
        if spec.inequality_constraints is None:
            return None
        z = self._z()
        if spec.vectorized:
            g = np.asarray(spec.inequality_constraints(ys, z), dtype=float)
        else:
            g = np.array([spec.inequality_constraints(y, z) for y in ys], dtype=float)
        if g.ndim == 1:
            g = g[:, None]
        return g

    def max_violation(self, ys: np.ndarray) -> np.ndarray:
        g = self.constraint_values(ys)
        if g is None:
            return np.zeros(ys.shape[0])
        return np.clip(g, 0.0, None).max(axis=1)

    def value(self, ys: np.ndarray, penalty_coefficient: float | None = None) -> np.ndarray:
        pc = self.penalty_coefficient if penalty_coefficient is None else penalty_coefficient
        raw = self.raw_objectives(ys)
        val = self.weight * raw[:, 0] + (1.0 - self.weight) * raw[:, 1]
        g = self.constraint_values(ys)
        if g is not None:
            val = val + pc * (np.clip(g, 0.0, None) ** 2).sum(axis=1)
        return val

    def descent_value(self, ys: np.ndarray, penalty_coefficient: float | None = None) -> np.ndarray:
        """Objective the local descents minimize.  When the problem
        separates into a continuous base plus per-realization offsets,
        the z-dependent constant is dropped: the minimizer is unchanged
        and the iterate sequence becomes independent of the realization,
        so exact cross-realization ties survive in later filtering."""
        spec = self.parent
        if spec.base_objectives is None:
            return self.value(ys, penalty_coefficient)
        pc = self.penalty_coefficient if penalty_coefficient is None else penalty_coefficient
        if spec.vectorized:
            raw = np.asarray(spec.base_objectives(ys), dtype=float)
        else:
            raw = np.array([spec.base_objectives(y) for y in ys], dtype=float)
        val = self.weight * raw[:, 0] + (1.0 - self.weight) * raw[:, 1]
        g = self.constraint_values(ys)
        if g is not None:
            val = val + pc * (np.clip(g, 0.0, None) ** 2).sum(axis=1)
        return val

    def gradient(self, ys: np.ndarray, penalty_coefficient: float | None = None,
                 fd_step: float = 1e-7) -> np.ndarray:
        """Gradient of the (penalized) scalarized objective, shape (m, n_y).

        Uses the parent's analytic objective gradient when available and no
        constraints are present; otherwise central finite differences on the
        penalized value (constraint gradients are never supplied).
        """
        spec = self.parent
        if spec.gradient is not None and spec.inequality_constraints is None:
            z = self._z()
            if spec.vectorized:
                gj = np.asarray(spec.gradient(ys, z), dtype=float)
            else:
                gj = np.array([spec.gradient(y, z) for y in ys], dtype=float)
            return self.weight * gj[:, 0, :] + (1.0 - self.weight) * gj[:, 1, :]
        return self._fd_gradient(ys, penalty_coefficient, fd_step)

    def _fd_gradient(self, ys: np.ndarray, penalty_coefficient: float | None,
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
                self.descent_value(yp, penalty_coefficient)
                - self.descent_value(ym, penalty_coefficient)
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


def _descent(obj: ScalarizedObjective, x0: np.ndarray, config: SolverConfig,
             penalty_coefficient: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent with Barzilai-Borwein steps and Armijo
    backtracking, run in lockstep over a batch of starts.

    Returns the best point and value visited per start (rows with
    non-finite initial values are returned as-is with value +inf).
    """
    lo = obj.parent.lower_bounds()
    hi = obj.parent.upper_bounds()
    pc = penalty_coefficient
    fd = config.fd_step

    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    f = obj.descent_value(x, pc)
    ok = np.isfinite(f)
    best_x = x.copy()
    best_f = np.where(ok, f, np.inf)
    if not ok.any():
        return best_x, best_f

    idx = np.where(ok)[0]  # rows still descending, as indices into the batch
    x = x[idx]
    f = f[idx]
    g = obj.gradient(x, pc, fd)
    span = float((hi - lo).max())
    t = span / (1.0 + np.abs(g).max(axis=1))

    for _ in range(config.max_iters):
        if idx.size == 0:
            break
        xc = np.clip(x - t[:, None] * g, lo, hi)
        step = x - xc
        fc = obj.descent_value(xc, pc)
        decrease = (g * step).sum(axis=1)
        accept = np.isfinite(fc) & (fc <= f - _ARMIJO * decrease)

        if accept.any():
            ai = np.where(accept)[0]
            improved = fc[ai] < best_f[idx[ai]]
            upd = ai[improved]
            best_f[idx[upd]] = fc[upd]
            best_x[idx[upd]] = xc[upd]

            gc = obj.gradient(xc[ai], pc, fd)
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


def solve_scalarized(obj: ScalarizedObjective, config: SolverConfig) -> SolveResult:
    """Minimize a scalarized subproblem over its box.

    Runs projected-gradient descents from a deterministic multistart set
    and returns the best point found.  Counts as exactly one solve.  When
    constraints remain violated beyond ``feas_tol``, the penalty
    coefficient is escalated and the descent continued from the incumbent
    (still the same single counted solve).
    """
    starts = _start_points(obj.parent.bounds, config.n_starts, config.seed)
    best_x, best_f = _descent(obj, starts, config)
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
            y_new, f_new = _descent(obj, y[None, :], config, penalty_coefficient=pc)
            if np.isfinite(f_new[0]):
                y = y_new[0]

    y = np.clip(y, obj.parent.lower_bounds(), obj.parent.upper_bounds())
    raw = obj.raw_objectives(y[None, :])[0]
    scalar = float(obj.value(y[None, :])[0])
    feasible = bool(obj.max_violation(y[None, :])[0] <= config.feas_tol)
    return SolveResult(
        y_star=tuple(float(v) for v in y),
        scalar_value=scalar,
        point=ObjectivePoint(float(raw[0]), float(raw[1])),
        feasible=feasible,
        starts_used=starts_used,
    )
