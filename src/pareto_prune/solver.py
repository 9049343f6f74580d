"""Box-constrained solver for weighted-sum scalarizations.

A solve is one (k, weight) cell: minimize w*J1 + (1-w)*J2 of the problem
at realization k (its z from ``core._z_rows``) over its box, plus an
exterior quadratic penalty on violated inequality constraints.  A run's
:class:`Solver` runs the solves it is posed and keeps their results; one
call to :func:`solve_scalarized` is one NLP in the pipeline's solve
accounting, however many local descents ran for it.  Identical arguments,
the seed included, give bitwise-identical results.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import ProblemSpec, _z_rows

__all__ = [
    "Solver",
    "SolverConfig",
    "SolveResult",
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
    """The seed of the multistart set's uniform fill, the stream of
    numpy's ``default_rng(seed).random()`` (:func:`_uniform`), kept as a
    Python int (a numpy integer is converted); the rest of the solver's
    tuning is the module constants above."""

    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))


def _evaluate(spec: ProblemSpec, field: str, ys, zs=None) -> np.ndarray:
    """Call one evaluator of ``spec`` on the stacked rows ``ys``, row i at
    the z row ``zs[i]`` (``offsets`` takes none: its rows are z), and check
    the shape of its result.  A vectorized evaluator gets ``ys`` and the
    row-aligned ``zs`` (m, n_z) in one call, a scalar one each row with its
    z; for a scalar evaluator ``ys`` and ``zs`` may already be lists of rows."""
    fn = getattr(spec, field)
    args = () if zs is None else (zs,)
    if spec.vectorized:
        return _checked(spec, field, fn(ys, *args), len(ys))
    out = list(map(fn, ys, *args))
    flat = _flat_rows(field, out)
    return _checked(spec, field, out, len(out)) if flat is None else flat


_FLAT_ROW_TYPES = frozenset((tuple, list, np.ndarray))


def _flat_rows(field: str, out: list):
    """A scalar evaluator's rows ``out`` as an (m, n) float array, read in
    one pass, where every row is a tuple, list or array of the same length
    n that ``field`` allows: 2 for objectives, at least 1 for constraints.
    A value converts as it does in ``np.asarray(out, dtype=float)``, so
    both give the same bits.  None for anything else, a bare number per row
    and every gradient included, and for rows whose values do not convert:
    those go through :func:`_checked`, which raises every error."""
    if (field == "gradient" or not out or type(out[0]) not in _FLAT_ROW_TYPES
            or not set(map(type, out)) <= _FLAT_ROW_TYPES):  # bare numbers leave at the first row
        return None
    try:
        (n,) = set(map(len, out))
        if n == 2 or (n >= 1 and field == "inequality_constraints"):
            return np.fromiter(itertools.chain.from_iterable(out), float,
                               len(out) * n).reshape(-1, n)
    except (TypeError, ValueError, OverflowError):  # 0-d array rows, mixed lengths, values
        pass
    return None


def _checked(spec: ProblemSpec, field: str, out, m: int) -> np.ndarray:
    """``out``, an evaluator's result for m rows, as a float array of the
    shape the ``ProblemSpec`` contract gives ``field``: (m, 2), (m, 2, n_y)
    or (m, n_g) with n_g >= 1, where (m,) is taken as n_g = 1.  Every
    evaluator result but the flat rows :func:`_flat_rows` reads passes
    through here; anything else raises a ValueError that names the
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
        ok = out.ndim == 2 and out.shape[0] == m and out.shape[1] >= 1
        if out.shape == (m, 0):
            want += " with n_g >= 1"
    else:
        ok = out.shape == shape
    if not ok:
        raise ValueError(
            f"{field} of problem {spec.name!r} returned shape {out.shape}, expected {want}"
        )
    return out


def _row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=1)``, bit for bit, in fewer numpy calls: numpy adds a row
    shorter than 8 left to right from 0.0, as this does a column at a time."""
    return a.sum(axis=1) if a.shape[1] >= 8 else functools.reduce(np.add, a.T, 0.0)


class _Batch:
    """The solves of ``spec`` that one lockstep descent runs, solve i at the
    row z[i] of ``z`` (n, n_z) and weights[i], at PENALTY_COEFFICIENT unless
    escalated.  Solve i owns rows i*rows_per_solve .. (i+1)*rows_per_solve
    - 1; each row's weight and z are gathered once, here, and every pass
    indexes them.  The methods take
    the stacked points of some of those rows and their indices (an index
    array; ``descent_value`` also takes a slice), and make one pass per
    evaluator over all of them:
    one call of a vectorized evaluator with every row's z stacked beside
    it, or one call of a scalar one per row with that row's z, the rows and
    their z listed once per pass for all its evaluators.  A row's
    value never depends on the rest of the batch, so a finite-difference
    gradient builds and evaluates all its probes in one stacked pass."""

    def __init__(self, spec: ProblemSpec, z: np.ndarray, weights: Sequence[float],
                 rows_per_solve: int, off: np.ndarray | None = None) -> None:
        self.spec = spec
        self.lo = spec.lower_bounds()
        self.hi = spec.upper_bounds()
        self.weight = np.repeat(np.asarray(weights, dtype=float), rows_per_solve)
        zb = z[:, list(spec.base_z)]  # the columns base_objectives reads
        if not spec.vectorized:  # a scalar evaluator gets each row's z as its own array
            z, zb = (np.fromiter(a, object, len(a)) for a in (z, zb))
        self.z, self.zb = (np.repeat(a, rows_per_solve, axis=0) for a in (z, zb))  # each row's
        self.off = None if off is None else np.repeat(off, rows_per_solve, axis=0)

    def descent_value(self, ys: np.ndarray, rows,
                      penalty_coefficient: float | None = None) -> np.ndarray:
        """Objective the local descents minimize, per row: w*J1 + (1-w)*J2
        plus the exterior penalty pc * sum(max(g, 0)^2) on a constrained
        problem.  J is the objectives, or on a problem that declares a base,
        the base at each row's z[base_z] plus the row's offsets where the
        batch carries them.  A batch without them drops the z-only
        constant: the minimizer is unchanged and, at an empty base_z, the
        iterate sequence becomes independent of the realization, so exact
        cross-realization ties survive in later filtering."""
        spec = self.spec
        zs = None
        if spec.base_objectives is None or spec.inequality_constraints is not None:
            zs = self.z[rows]
            if not spec.vectorized:  # one list of row views and z for every evaluator
                ys, zs = list(ys), zs.tolist()
        if spec.base_objectives is None:
            raw = _evaluate(spec, "objectives", ys, zs)
        else:
            zb = self.zb[rows] if spec.base_z else np.empty((len(ys), 0))  # cheaper than a gather
            raw = _evaluate(spec, "base_objectives", ys, zb)
            if self.off is not None:
                raw = raw + self.off[rows]
        w = self.weight[rows]
        val = w * raw[:, 0] + (1.0 - w) * raw[:, 1]
        if spec.inequality_constraints is not None:
            g = _evaluate(spec, "inequality_constraints", ys, zs)
            pc = PENALTY_COEFFICIENT if penalty_coefficient is None else penalty_coefficient
            val = val + pc * _row_sum(np.maximum(g, 0.0) ** 2)
        return val

    def gradient(self, ys: np.ndarray, rows,
                 penalty_coefficient: float | None = None) -> np.ndarray:
        """Gradient of the (penalized) scalarized objective, shape (m, n_y).

        Uses the problem's analytic objective gradient when available and no
        constraints are present; otherwise central finite differences on the
        penalized value (constraint gradients are never supplied).
        """
        spec = self.spec
        if spec.gradient is not None and spec.inequality_constraints is None:
            gj = _evaluate(spec, "gradient", ys, self.z[rows])
            w = self.weight[rows][:, None]
            return w * gj[:, 0, :] + (1.0 - w) * gj[:, 1, :]
        return self._fd_gradient(ys, rows, penalty_coefficient)

    def _fd_gradient(self, ys: np.ndarray, rows,
                     penalty_coefficient: float | None) -> np.ndarray:
        """Central differences.  The + and - probe of every (row, dimension)
        pair, in that order, row by row, are built in one stacked pass and
        evaluated in one ``descent_value`` call, or in several of at most
        MAX_DESCENT_ROWS probes each, split between whole rows, when they do
        not fit.  A probe stays inside the box, so the difference degrades
        to one-sided at a bound."""
        m, n = ys.shape
        h = FD_STEP * (1.0 + np.abs(ys))
        yp = np.minimum(ys + h, self.hi)
        ym = np.maximum(ys - h, self.lo)
        denom = yp - ym
        denom[denom == 0.0] = 1.0
        out = np.empty_like(ys)
        d = np.arange(n)
        per_call = max(1, MAX_DESCENT_ROWS // (2 * n))  # rows whose probes fit one call
        for a in range(0, m, per_call):
            i = slice(a, a + per_call)
            probes = np.repeat(ys[i], 2 * n, axis=0).reshape(-1, n, 2, n)
            probes[:, d, 0, d] = yp[i]
            probes[:, d, 1, d] = ym[i]
            v = self.descent_value(probes.reshape(-1, n), np.repeat(rows[i], 2 * n),
                                   penalty_coefficient).reshape(-1, n, 2)
            out[i] = (v[..., 0] - v[..., 1]) / denom[i]
        return out


class SolveResult(NamedTuple):
    """The record of one counted solve (:func:`solve_scalarized`): its
    weight, the best point its descents reached, and its feasibility."""

    weight: float
    y_star: tuple[float, ...]
    feasible: bool


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int):
    """SeedSequence's hashmix with the hash constant starting at ``h``."""
    def hashmix(v: int) -> int:
        nonlocal h
        v ^= h
        h = h * mult & _M32
        v = v * h & _M32
        return v ^ v >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    """SeedSequence's mix of two pool words."""
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _uniform(seed: int, n: int) -> list[float]:
    """The first n doubles of numpy's ``default_rng(seed).random()``, bit
    for bit: numpy's SeedSequence(seed) seeds a PCG64 (XSL-RR) stream, and
    each double is its next 64-bit output's top 53 bits times 2**-53."""
    seed = int(seed)
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)  # generate_state(4, uint64)
    s = [hashmix(pool[i % 4]) for i in range(8)]
    s0, s1, s2, s3 = (lo | hi << 32 for lo, hi in zip(s[::2], s[1::2]))
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(n):
        state = (state * _PCG_MULT + inc) & _M128
        x, r = (state >> 64 ^ state) & _M64, state >> 122
        out.append((((x >> r | x << (64 - r)) & _M64) >> 11) * 2.0 ** -53)
    return out


def _start_points(bounds: tuple[tuple[float, float], ...], n: int, seed: int) -> np.ndarray:
    """Deterministic multistart set: the two box corners, an equispaced
    interior lattice, and seeded uniform fill, capped at n points.  The
    fill is ``lo + (hi - lo) * default_rng(seed).random((k, n_y))`` bit for
    bit, drawn by :func:`_uniform`; with N_STARTS = 16 a box of n_y = 1
    gets no fill, n_y = 2 five points and n_y = 3 six."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    ny = len(bounds)
    rows = [lo, hi]
    if n > 2:
        m = 1
        while (m + 1) ** ny <= n - 2:
            m += 1
        axes = [lo[d] + (hi[d] - lo[d]) * (np.arange(1, m + 1) / (m + 1.0)) for d in range(ny)]
        for combo in itertools.product(*axes):
            rows.append(np.array(combo))
    pts = np.array(rows[:n])
    if pts.shape[0] < n:
        k = n - pts.shape[0]
        fill = lo + (hi - lo) * np.array(_uniform(seed, k * ny)).reshape(k, ny)
        pts = np.vstack([pts, fill])
    return pts


def _descent(obj: _Batch, x0: np.ndarray, *,
             penalty_coefficient: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Projected gradient descent with Barzilai-Borwein steps and Armijo
    backtracking, run in lockstep over the rows of a batch of solves.  A
    step updates the rows still descending by mask: the gradient is
    evaluated only where the step was accepted, and a row leaves the
    lockstep set once it stops.

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

    idx = ok.nonzero()[0]  # rows still descending, as indices into the batch
    x = x[idx]
    bx = x.copy()  # each row's best point; an accepted step never raises f, so f is its value
    f = f[idx]
    g = obj.gradient(x, idx, pc)
    span = float((hi - lo).max())
    t = span / (1.0 + np.abs(g).max(axis=1))

    for _ in range(MAX_ITERS):
        if idx.size == 0:
            break
        xc = np.minimum(np.maximum(x - t[:, None] * g, lo), hi)  # np.clip, in fewer calls
        step = x - xc
        fc = obj.descent_value(xc, idx, pc)
        accept = np.isfinite(fc) & (fc <= f - _ARMIJO * _row_sum(g * step))
        ai = accept.nonzero()[0]
        gc = g.copy()
        if ai.size:
            sub = slice(None) if ai.size == idx.size else ai  # no gather when all moved
            gc[sub] = obj.gradient(xc[sub], idx[sub], pc)
        # with s = xc - x and y = gc - g: s.y == step.(g - gc) and s.s == step.step, exactly
        sy = _row_sum(step * (g - gc))
        bb = t * _STEP_GROWTH  # where the curvature is not positive
        np.divide(_row_sum(step * step), sy, out=bb, where=sy > 1e-30)
        t = np.where(accept, np.minimum(np.maximum(bb, _STEP_FLOOR), 1e12), t * _STEP_SHRINK)
        np.copyto(bx, xc, where=(accept & (fc < f))[:, None])
        np.copyto(x, xc, where=accept[:, None])
        np.copyto(f, fc, where=accept)
        g = gc

        done = accept & (functools.reduce(np.maximum, np.abs(step).T) <= STEP_TOL)
        done |= t < _STEP_FLOOR
        if done.any():
            out = done.nonzero()[0]
            best_x[idx[out]] = bx[out]
            best_f[idx[out]] = f[out]
            keep = (~done).nonzero()[0]
            idx, x, f, g, t, bx = idx[keep], x[keep], f[keep], g[keep], t[keep], bx[keep]

    best_x[idx] = bx
    best_f[idx] = f
    return best_x, best_f


def _descend(spec: ProblemSpec, z: np.ndarray, weights: Sequence[float], starts: np.ndarray,
             off: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Local descents of the m solves of ``spec``, solve i at z[i] and
    weights[i], with offsets off[i] if given, from each of ``starts``, in
    lockstep: one ``_descent`` call for all of them, or several of at most
    MAX_DESCENT_ROWS rows each.  Returns each solve's winner over its
    starts: the best point (m, n_y) and value (m,) they reached, the first
    best start on a tie."""
    n, m = len(starts), len(weights)
    per_call = max(1, MAX_DESCENT_ROWS // n)
    y, f = np.empty((m, spec.n_y)), np.empty(m)
    for a in range(0, m, per_call):
        i = slice(a, a + per_call)
        ws, o = weights[i], None if off is None else off[i]
        best_x, best_f = _descent(_Batch(spec, z[i], ws, n, o), np.tile(starts, (len(ws), 1)))
        win = best_f.reshape(-1, n).argmin(axis=1) + np.arange(0, best_f.size, n)
        y[i], f[i] = best_x[win], best_f[win]  # _descent keeps rows inside the box
    return y, f


class Solver:
    """The solver of one run, built for the weights the run poses: its
    problem, its config (a default :class:`SolverConfig` when None) and
    the run's table, so that a solve posed in two calls of a run runs once.

    Everything a run does once is done here.  The table is one float
    array, allocated once: a column per weight, of a row per realization k
    (|K| rows, which ``run_pipeline``'s beta*|K| cap bounds), and per cell
    the solve's point, objectives (NaN unless feasible) and a flag, 0
    until :meth:`solve` finishes the cell, then 1.  A later call looks a
    finished solve up, still one counted solve: A-2 and B-3 look up A-1's
    anchors (w = 0, 1), B-3 B-1's centers (w = 0.5).  The multistart set
    is built once, and a problem's offsets are evaluated once, for every
    realization.  Where descents depend on the weight alone
    (``base_objectives``, an empty ``base_z``, no constraints), every
    weight descends here, in one :func:`_descend` call at realization 1
    (any realization gives the same winners), and its winner, a (point,
    value) pair every solve of the weight shares, is kept in its column."""

    def __init__(self, spec: ProblemSpec, weights: Sequence[float],
                 config: SolverConfig | None = None) -> None:
        self.spec = spec
        self.config = config or SolverConfig()
        self._columns = {w: i for i, w in enumerate(dict.fromkeys(weights))}  # weight -> column
        # y, j1, j2, finished
        self._table = np.zeros((len(self._columns), spec._k_total, spec.n_y + 3))
        self._starts = _start_points(spec.bounds, N_STARTS, self.config.seed)
        self._winners = None  # points (n_w, n_y) and values (n_w,) by column, where shared
        if (spec.base_objectives is not None and not spec.base_z
                and spec.inequality_constraints is None):
            ws = list(self._columns)
            self._winners = _descend(spec, _z_rows(spec, [1] * len(ws)), ws, self._starts)
        self._off = None if spec.offsets is None else _evaluate(
            spec, "offsets", _z_rows(spec, np.arange(1, spec._k_total + 1)))

    def solve(self, ks: Sequence[int], weights: Sequence[float]):
        """The solve of each realization k in ``ks`` at each of ``weights``
        from the table: points (n, m, n_y) and objectives (n, m, 2), NaN
        where a solve is not feasible.  The ks are distinct, and so are the
        weights.  Cells not finished yet run once each, k-major, in parts
        of MAX_DESCENT_ROWS: their descents as one batch (:func:`_descend`),
        then one :func:`_finish`, each part with its own z.  ks that are
        not integers (floats and bools included) or a k outside 1..|K| raise
        ValueError, and a weight the solver was not built for KeyError,
        before any cell is written."""
        ks, n = np.asarray(ks), self.spec._k_total
        if ks.size and ks.dtype.kind not in "iu":
            raise ValueError(f"ks must be integers, got dtype {ks.dtype}")
        ks = ks.astype(np.int64, copy=False)
        if ks.size and not 1 <= ks.min() <= ks.max() <= n:
            raise ValueError(f"ks must be in 1..{n}, got ks from {ks.min()} to {ks.max()}")
        cols = np.array([self._columns[w] for w in weights], np.intp)
        ki, wi = (self._table[cols, ks[:, None] - 1, -1] == 0).nonzero()  # k-major
        # one part for all 86 016 solves of the e2 oracle raised its peak RSS 100 -> 111 MB
        for a in range(0, ki.size, MAX_DESCENT_ROWS):
            k, i = ks[ki[a:a + MAX_DESCENT_ROWS]], wi[a:a + MAX_DESCENT_ROWS]
            w, z = np.take(weights, i), _z_rows(self.spec, k)
            o = None if self._off is None else self._off[k - 1]
            if self._winners is None:
                y, f = _descend(self.spec, z, w, self._starts, o)
            else:  # the winners descend without offsets
                y, f = (v[cols[i]] for v in self._winners)
            y, pts = _finish(self.spec, z, w, y, f, o)
            self._table[cols[i], k - 1] = np.column_stack((y, pts, np.ones(k.size)))
        cells = self._table[cols, ks[:, None] - 1]
        return cells[..., :-3], cells[..., -3:-1]


def _violated(g: np.ndarray) -> np.ndarray:
    """The rows of constraint values ``g`` (m, n_g) beyond FEAS_TOL, NaN included."""
    return np.flatnonzero(~(g.max(axis=1) <= FEAS_TOL))


def _finish(spec: ProblemSpec, z: np.ndarray, weights: Sequence[float], y: np.ndarray,
            f: np.ndarray, off: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each solve's point and objectives from its descents' winner: solve
    i at z[i] and weights[i], with offsets off[i] if given, its point
    ``y`` (m, n_y), updated in place, and value ``f`` (m,).  On a
    constrained problem one evaluator pass gives the constraints at every
    winner with a finite value; winners that violate them beyond FEAS_TOL
    descend again from where they stand, in lockstep, with the penalty
    multiplied by 100, for up to 4 rounds, each round testing only the
    rows it moved (``_descent`` leaves a row unmoved whose value there is
    not finite).  One pass then gives the objectives (m, 2), the base plus
    the offsets where given.  Both are NaN where the solve is not
    feasible: no start reached a finite value, the objectives are not
    finite, or a constraint still exceeds FEAS_TOL."""
    ok = np.flatnonzero(np.isfinite(f))
    raw = np.full((len(weights), 2), np.nan)
    if ok.size:
        yk, zk = y[ok], z[ok]
        bad = np.empty(0, np.intp)  # the rows of yk that violate a constraint
        if spec.inequality_constraints is not None:
            bad = _violated(_evaluate(spec, "inequality_constraints", yk, zk))
            pc = PENALTY_COEFFICIENT
            for _ in range(4):
                if bad.size == 0:
                    break
                pc *= 100.0
                o = None if off is None else off[ok[bad]]
                yk[bad] = _descent(_Batch(spec, zk[bad], np.take(weights, ok[bad]), 1, o),
                                   yk[bad], penalty_coefficient=pc)[0]
                bad = bad[_violated(_evaluate(spec, "inequality_constraints", yk[bad], zk[bad]))]
        if off is None:
            raw[ok] = _evaluate(spec, "objectives", yk, zk)
        else:
            raw[ok] = _evaluate(spec, "base_objectives", yk, zk[:, list(spec.base_z)]) + off[ok]
        raw[ok[bad]] = np.nan  # still violated after escalation
        y[ok] = yk
    raw[~np.isfinite(raw).all(axis=1)] = np.nan
    return y, raw


def solve_scalarized(result: SolveResult) -> SolveResult:
    """One solve over its box: ``result``, its record, built from
    :meth:`Solver.solve`'s arrays.  Counts as exactly one solve, however
    many descents and penalty escalations ran for it or were shared,
    looked up or not, feasible or not."""
    return result
