"""Two-phase pruning pipeline: utopia-based Phase A, center-point Phase B,
final front assembly, and full solve accounting.  A realization is its
index k: each phase takes an int array of ks and returns what it decided
as bool masks over them, and :func:`run_pipeline` derives every set of the
report from masks over 1..|K|.  The exhaustive oracle is the same driver
with both phases skipped."""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .core import Front, ProblemSpec, _check_eps, _z_rows, nondominated_rows
from .decomposition import (
    CENTER_WEIGHT,
    DEFAULT_REALIZATION_CAP,
    CapacityExceeded,
    build_subproblem_front,
    check_split,
    compute_anchors_utopia,
    compute_center,
    weight_grid,
)
from .solver import Solver, SolverConfig

__all__ = [
    "PipelineError",
    "NlpCounts",
    "PruneReport",
    "PhaseAResult",
    "master_candidates",
    "build_master_front",
    "phase_a",
    "phase_b",
    "run_pipeline",
    "parallel_map",
]


class PipelineError(RuntimeError):
    """No subproblem produced a usable solution."""


def parallel_map(op, *args, **kwargs):
    """``op(*args, **kwargs)``: one phase's batched subproblem operation.

    A plain call, kept under this name only because the benchmark's
    tracer (perfbench/tracer.py) times each phase through it and the
    benchmark's tests require that metric to be present.
    """
    return op(*args, **kwargs)


@dataclass(frozen=True)
class NlpCounts:
    a1: int = 0
    a2: int = 0
    b1: int = 0
    b3: int = 0

    @property
    def total(self) -> int:
        return self.a1 + self.a2 + self.b1 + self.b3


@dataclass(frozen=True, eq=False)
class PruneReport:
    """Everything a run produced, each fact once, in plain Python values:
    retained/pruned index sets and the final front: the final filter's
    :class:`~pareto_prune.core.Front`, ordered by j1, then k, then weight
    index, and ``front_z``, the z row of each of its points (n, n_z).
    ``phases`` is "ab", "a", or "none" (exhaustive oracle).  The per-phase
    solve counts ``nlp`` are derived from the sets.  Two reports are equal
    when they write the same JSON document apart from ``wallclock_ms``."""

    problem: str
    beta: int
    phases: str
    eps: float
    seed: int
    k_total: int
    k1m: tuple[int, ...]
    k1u: tuple[int, ...]
    k1c: tuple[int, ...]
    pruned_a: tuple[int, ...]
    pruned_b: tuple[int, ...]
    infeasible: tuple[int, ...]
    front: Front
    front_z: np.ndarray
    wallclock_ms: int = 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PruneReport):
            return NotImplemented
        a, b = self.to_json_dict(), other.to_json_dict()
        del a["wallclock_ms"], b["wallclock_ms"]
        return a == b

    @property
    def nlp(self) -> NlpCounts:
        """The solve counts the sets imply: 2 per anchor pair, beta per
        front (the masters' in A-2, the retained ones' in B-3) and 1 per
        center.  The oracle builds every front in B-3."""
        if self.phases == "none":
            return NlpCounts(b3=self.beta * self.k_total)
        n_k1m = len(self.k1m)
        return NlpCounts(a1=2 * self.k_total, a2=self.beta * n_k1m,
                         b1=len(self.k1u) - n_k1m if self.phases == "ab" else 0,
                         b3=self.beta * (len(self.k1c) - n_k1m))

    def check_invariants(self) -> None:
        """Raise ValueError unless the report's sets and front agree as a
        run derives them.  No set lists a realization twice.  Under
        "ab" and "a", ``infeasible``, ``pruned_a``, ``pruned_b`` and ``k1c``
        are pairwise disjoint and cover 1..k_total, k1m lies within k1c, k1u
        is k1c plus ``pruned_b``, nothing is center-pruned under "a", and
        every front point's realization is in k1c.  Under "none",
        ``infeasible`` and ``k1c`` are disjoint, the other sets empty, and
        k1c is the front's realizations.  Front points agree on each k's z,
        no two claim one solve (k, provenance), and no front point strictly
        dominates another at the report's eps."""
        sets = {name: getattr(self, name) for name in _SETS}
        for name, ks in sets.items():
            if len(set(ks)) != len(ks):
                raise ValueError(f"report set {name} lists a realization twice")
        sets = {name: set(ks) for name, ks in sets.items()}
        if self.phases == "none":
            parts, empty = ("infeasible", "k1c"), ("pruned_a", "pruned_b", "k1m", "k1u")
        else:
            parts = ("infeasible", "pruned_a", "pruned_b", "k1c")
            empty = ("pruned_b",) if self.phases == "a" else ()
        for a, b in itertools.combinations(parts, 2):
            if sets[a] & sets[b]:
                raise ValueError(f"report sets {a} and {b} share realizations "
                                 f"{sorted(sets[a] & sets[b])}")
        for name in empty:
            if sets[name]:
                raise ValueError(f"report set {name} must be empty under phases {self.phases!r}")
        z_of = {}  # the first z of each front k
        for k, z in zip(self.front.k.tolist(), map(tuple, self.front_z.tolist())):
            if z_of.setdefault(k, z) != z:
                raise ValueError(_DISAGREE)
        front = set(z_of)
        if len(set(zip(self.front.k.tolist(), self.front.w.tolist()))) != len(self.front.k):
            raise ValueError("report front points claim one solve (k, provenance) twice")
        if len(nondominated_rows(self.front.pts, self.eps)) != len(self.front.pts):
            raise ValueError("report front has a point that another front point dominates")
        if self.phases == "none":
            if front != sets["k1c"]:
                raise ValueError("report set k1c must be the front's realizations under phases "
                                 "'none'")
        else:
            listed = set().union(*(sets[name] for name in parts))  # sizes first: bounded memory
            if len(listed) != self.k_total or listed != set(range(1, self.k_total + 1)):
                raise ValueError(f"report sets {', '.join(parts)} do not cover 1..{self.k_total}"
                                 f" exactly")
            if not sets["k1m"] <= sets["k1c"] or sets["k1u"] != sets["k1c"] | sets["pruned_b"]:
                raise ValueError("report sets must nest as k1m within k1c, and k1u must be k1c "
                                 "plus pruned_b")
            if not front <= sets["k1c"]:
                raise ValueError("report front has a point outside k1c")

    def front_realizations(self) -> set[tuple[float, ...]]:
        """Distinct discrete vectors appearing in the final front."""
        return set(map(tuple, self.front_z.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "problem": self.problem,
            "beta": self.beta,
            "phases": self.phases,
            "eps": self.eps,
            "seed": self.seed,
            "k_total": self.k_total,
            **{name: list(getattr(self, name)) for name in _SETS},
            "nlp": _nlp_json(self.nlp),
            "front": [
                {"k": k, "z": z, "y": y, "j1": j1, "j2": j2, "provenance": f"w{w}"}
                for k, w, z, y, (j1, j2) in zip(
                    self.front.k.tolist(), self.front.w.tolist(), self.front_z.tolist(),
                    self.front.y.tolist(), self.front.pts.tolist())
            ],
            "wallclock_ms": self.wallclock_ms,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PruneReport":
        """The report ``d`` holds, read strictly: a count or index must be
        a JSON integer (not a boolean) and at least 0, a value a finite JSON
        number, and ``phases`` one of "ab", "a" and "none".  ``beta`` must
        be at least 2, ``eps`` one a run accepts, ``k_total`` at least 1,
        every realization index, of a set or a front point, in 1..k_total,
        and every front point's provenance "w<i>", i in 0..beta-1 without a
        leading zero.  Front points agree on the lengths of y and z.  Its
        sets and front must agree (:meth:`check_invariants`), and its five
        counts, total included, must be the ones its sets imply
        (:attr:`nlp`).  Anything else raises ValueError."""
        try:
            counts = {key: _int(d["nlp"][key], f"nlp.{key}")
                      for key in ("a1", "a2", "b1", "b3", "total")}
            phases = _str(d["phases"], "phases")
            if phases not in ("ab", "a", "none"):
                raise ValueError(f'phases must be "ab", "a" or "none", got {phases!r}')
            eps = _float(d["eps"], "eps")
            _check_eps(eps)
            k_total = _int(d["k_total"], "k_total", 1)
            index = functools.partial(_int, low=1, high=k_total)
            beta = _int(d["beta"], "beta", 2)
            front, front_z = _front(d["front"], index, beta)
            report = cls(
                problem=_str(d["problem"], "problem"),
                beta=beta,
                phases=phases,
                eps=eps,
                seed=_int(d["seed"], "seed"),
                k_total=k_total,
                **{key: _list(d[key], key, index) for key in _SETS},
                front=front,
                front_z=front_z,
                wallclock_ms=_int(d["wallclock_ms"], "wallclock_ms"),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed report document: {exc}") from exc
        report.check_invariants()
        want = _nlp_json(report.nlp)
        if counts != want:
            raise ValueError(f"report counts {counts} contradict its sets, which imply {want}")
        return report


_SETS = ("k1m", "k1u", "k1c", "pruned_a", "pruned_b", "infeasible")
_DISAGREE = "report front points disagree on a realization's z or on y, z lengths"


def _nlp_json(nlp: NlpCounts) -> dict:
    return {"a1": nlp.a1, "a2": nlp.a2, "b1": nlp.b1, "b3": nlp.b3, "total": nlp.total}


def _int(value, what: str, low: float = 0, high: float = math.inf) -> int:
    """``value`` if it is a JSON integer in low..high; a boolean is not
    one."""
    if type(value) is not int:
        raise ValueError(f"report field {what} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValueError(f"report field {what} must be in {low}..{high}, got {value}")
    return value


def _float(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number (an integral
    float is written as an integer)."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"report field {what} must be a finite number, got {value!r}")
    return float(value)


def _str(value, what: str) -> str:
    if type(value) is not str:
        raise ValueError(f"report field {what} must be a string, got {value!r}")
    return value


def _weight(value, what: str, beta: int) -> int:
    """The weight index i of the provenance "w<i>" ``value``: i in
    0..beta-1, in decimal digits without a leading zero."""
    text = _str(value, what)
    digits = text[1:]
    if not (text[:1] == "w" and digits.isascii() and digits.isdigit()
            and len(digits) <= len(str(beta)) and text == f"w{int(digits)}"
            and int(digits) < beta):
        raise ValueError(f'report field {what} must be "w<i>" with i in 0..{beta - 1}, '
                         f"got {value!r}")
    return int(digits)


def _front(value, index, beta: int) -> tuple[Front, np.ndarray]:
    """The front of the JSON array ``value``, and its z rows."""
    def point(e, what):
        return (index(e["k"], f"{what} k"), _weight(e["provenance"], f"{what} provenance", beta),
                _list(e["y"], f"{what} y", _float), _list(e["z"], f"{what} z", _float),
                (_float(e["j1"], f"{what} j1"), _float(e["j2"], f"{what} j2")))

    points = _list(value, "front", point)
    widths = {(len(y), len(z)) for _, _, y, z, _ in points}
    if len(widths) > 1:
        raise ValueError(_DISAGREE)
    n_y, n_z = widths.pop() if widths else (0, 0)
    n = len(points)
    k, w, y, z, pts = zip(*points) if points else ((),) * 5
    return (Front(np.array(k, dtype=np.int64), np.array(w, dtype=np.int64),
                  np.array(y, dtype=float).reshape(n, n_y),
                  np.array(pts, dtype=float).reshape(n, 2)),
            np.array(z, dtype=float).reshape(n, n_z))


def _list(value, what: str, item) -> tuple:
    """The items of the JSON array ``value``, each read by ``item``."""
    if type(value) is not list:
        raise ValueError(f"report field {what} must be a list, got {value!r}")
    return tuple(item(v, what) for v in value)


@dataclass(frozen=True)
class PhaseAResult:
    """What Phase A decided over its ks: the utopia points, a row per
    realization (NaN where an anchor failed), the masks over the ks of the
    masters k1m and of what utopia pruning keeps (k1u), the master front,
    and the masters' own fronts."""

    utopias: np.ndarray
    master: np.ndarray
    kept: np.ndarray
    master_front: Front
    fronts: Front


def master_candidates(utopias: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Rows of ``utopias`` (n, 2) whose point no other row strictly
    dominates, ascending.  Identical utopias all survive; NaN (infeasible)
    rows are skipped."""
    usable = np.flatnonzero(~np.isnan(utopias[:, 0]))
    return np.sort(usable[nondominated_rows(utopias[usable], eps)])


def build_master_front(solver: Solver, ks: np.ndarray, beta: int,
                       eps: float = 0.0) -> tuple[Front, Front]:
    """Union of the masters' subproblem fronts, filtered, and those fronts."""
    fronts = parallel_map(build_subproblem_front, solver, ks, beta, eps)
    return fronts.take(np.sort(nondominated_rows(fronts.pts, eps))), fronts


def _weakly_dominated(front_pts: np.ndarray, points: np.ndarray, eps: float) -> np.ndarray:
    """Mask of the rows p of ``points`` (n, 2) that a row a of ``front_pts``
    weakly dominates: a1 <= p1+eps and a2 <= p2+eps; never a NaN row.  One
    ``searchsorted`` into the front's staircase: by j1, the running minimum
    of j2 after an inf, so that an empty front dominates nothing."""
    front = front_pts[np.argsort(front_pts[:, 0])]
    prefix_min_j2 = np.minimum.accumulate(np.concatenate(([math.inf], front[:, 1])))
    steps = np.searchsorted(front[:, 0], points[:, 0] + eps, side="right")
    return prefix_min_j2[steps] <= points[:, 1] + eps


def phase_a(solver: Solver, ks: np.ndarray, beta: int, eps: float = 0.0) -> PhaseAResult:
    """A-1 anchors/utopias for all realizations (2 solves each), A-2
    master front from non-dominated utopias (beta solves each), A-3
    utopia pruning: k1u keeps the masters and every feasible realization
    whose utopia the master front does not weakly dominate.  Each step is
    one batched operation over its realizations, given in ascending k as
    an int array."""
    utopias = parallel_map(compute_anchors_utopia, solver, ks)
    master = np.zeros(len(ks), dtype=bool)
    master[master_candidates(utopias, eps)] = True
    master_front, fronts = build_master_front(solver, ks[master], beta, eps)
    kept = master | ~np.isnan(utopias[:, 0]) & ~_weakly_dominated(master_front.pts, utopias, eps)
    return PhaseAResult(utopias, master, kept, master_front, fronts)


def phase_b(solver: Solver, ks: np.ndarray, master_front: Front,
            eps: float = 0.0) -> np.ndarray:
    """B-1 centers for the target realizations ``ks`` (one solve each) and
    B-2: the mask over ``ks`` of those whose center solve succeeded and
    whose center the master front does not weakly dominate."""
    centers = parallel_map(compute_center, solver, ks)
    return ~np.isnan(centers[:, 0]) & ~_weakly_dominated(master_front.pts, centers, eps)


def _final_front(fronts: list[Front], eps: float) -> Front:
    """The rows of ``fronts`` no other row strictly dominates, by j1, k, weight."""
    merged = Front(*map(np.concatenate, zip(*fronts)))
    if merged.k.size == 0:
        raise PipelineError("every subproblem is infeasible")
    # in ascending k, each front's j1 order kept: ties in j1 stay in (k, weight) order
    merged = merged.take(np.argsort(merged.k, kind="stable"))
    return merged.take(nondominated_rows(merged.pts, eps))


def run_pipeline(
    spec: ProblemSpec,
    beta: int = 21,
    phases: str = "ab",
    config: SolverConfig | None = None,
    eps: float = 0.0,
    workers: int | None = None,
) -> PruneReport:
    """Run the pruning pipeline end to end.

    phases "ab" runs utopia pruning then center-point pruning; "a" skips
    the center tests and builds fronts for everything Phase A retained
    (which preserves the true front exactly); "none" is the exhaustive
    oracle: it builds every realization's front (beta * |K| solves) and
    k1c lists the realizations in the final front.  Every operation poses
    a fixed number of solves, so the counts follow from the sets.

    The phases return what they decided, and the report's sets are
    derived here alone: ``infeasible`` holds the realizations without a
    utopia point and those retained whose B-3 front has no feasible
    point; ``pruned_a`` the feasible ones outside k1u; ``pruned_b`` the
    Phase-B targets (k1u minus k1m) that B-2 did not retain; and k1c,
    under "ab" and "a", the masters and the retained.  The final front
    filters every built front, merged in ascending k.

    The phases share the run's :class:`~pareto_prune.solver.Solver`, so
    what an earlier phase solved is looked up, not run again; every solve
    still counts on its own.  Before the first solve, the run checks the
    split the problem declares (:func:`~pareto_prune.decomposition.check_split`),
    then builds its solver for every weight it can pose: the weight grid,
    plus B-1's center weight under "ab".  On a separable, unconstrained
    problem that descends them all, in one lockstep batch.
    ``workers`` is accepted and has no effect: every run is serial.
    """
    if phases not in ("ab", "a", "none"):
        raise ValueError(f'phases must be "ab", "a" or "none", got {phases!r}')
    if not isinstance(beta, numbers.Integral):
        raise ValueError(f"beta must be an integer, got {beta!r}")
    if beta < 2:
        raise ValueError(f"beta must be >= 2, got {beta}")
    beta = int(beta)
    _check_eps(eps)
    eps = float(eps)
    k_total = spec._k_total
    if beta * k_total > DEFAULT_REALIZATION_CAP:
        raise CapacityExceeded(f"beta * |K| = {beta * k_total} exceeds the cap of "
                               f"{DEFAULT_REALIZATION_CAP}")
    t0 = time.perf_counter()
    check_split(spec)
    centers = [CENTER_WEIGHT] if phases == "ab" else []
    solver = Solver(spec, weight_grid(beta) + centers, config)

    ks = np.arange(1, k_total + 1)
    # masks over ks; the oracle has no Phase A: no k has a utopia point, is a
    # master or is kept, and B-3 builds every k's front
    has_utopia = master = kept = np.zeros(k_total, dtype=bool)
    retained, built = ~master, []
    if phases != "none":
        pa = phase_a(solver, ks, beta, eps)
        has_utopia, master, kept = ~np.isnan(pa.utopias[:, 0]), pa.master, pa.kept
        built = [pa.fronts]
        targets = kept & ~master
        retained = targets.copy()
        if phases == "ab":
            retained[targets] = phase_b(solver, ks[targets], pa.master_front, eps)

    # B-3: fronts for whatever the phases left
    b3 = parallel_map(build_subproblem_front, solver, ks[retained], beta, eps)
    final = _final_front(built + [b3], eps)
    in_b3, in_final = np.zeros((2, k_total), dtype=bool)
    in_b3[b3.k - 1] = in_final[final.k - 1] = True
    k1c = in_final if phases == "none" else master | retained
    return PruneReport(
        problem=spec.name,
        beta=beta,
        phases=phases,
        eps=eps,
        seed=solver.config.seed,
        k_total=k_total,
        k1m=tuple(ks[master].tolist()),
        k1u=tuple(ks[kept].tolist()),
        k1c=tuple(ks[k1c].tolist()),
        pruned_a=tuple(ks[has_utopia & ~kept].tolist()),
        pruned_b=tuple(ks[kept & ~master & ~retained].tolist()),
        # a retained k without a B-3 row, and any other k without a utopia point
        infeasible=tuple(ks[np.where(retained, ~in_b3, ~has_utopia)].tolist()),
        front=final,
        front_z=_z_rows(spec, final.k),
        wallclock_ms=int(round((time.perf_counter() - t0) * 1000)),
    )
