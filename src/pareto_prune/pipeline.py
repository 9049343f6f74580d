"""Two-phase pruning pipeline: utopia-based Phase A, center-point Phase B,
final front assembly, and full solve accounting.  Each phase returns what
it decided, and :func:`run_pipeline` derives every set of the report from
those returns.  The exhaustive oracle is the same driver with both phases
skipped."""

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
    """Everything a run produced: retained/pruned index sets, per-phase
    solve counts, and the final front: the final filter's
    :class:`~pareto_prune.core.Front`, ordered by j1, then k, then weight
    index, and ``front_z``, the z row of each of its points (n, n_z).
    ``phases`` is "ab", "a", or "none" (exhaustive oracle).  Two reports
    are equal when they write the same JSON document."""

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
    nlp: NlpCounts
    front: Front
    front_z: np.ndarray
    wallclock_ms: int = 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PruneReport):
            return NotImplemented
        return self.to_json_dict() == other.to_json_dict()

    def check_invariants(self) -> None:
        """Raise ValueError unless the report's sets, front and counts agree
        as a run derives them.  No set lists a realization twice.  Under
        "ab" and "a", ``infeasible``, ``pruned_a``, ``pruned_b`` and ``k1c``
        are pairwise disjoint and cover 1..k_total, k1m lies within k1c, k1u
        is k1c plus ``pruned_b``, nothing is center-pruned under "a", and
        every front point's realization is in k1c.  Under "none",
        ``infeasible`` and ``k1c`` are disjoint, the other sets empty, and
        k1c is the front's realizations.  Front points agree on each k's z,
        and no front point strictly dominates another at the report's eps.
        The solve counts are those the sets imply (:func:`_nlp_counts`)."""
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
        want = _nlp_counts(self.phases, self.beta, self.k_total, len(self.k1m),
                           len(self.k1u), len(self.k1c))
        if self.nlp != want:
            raise ValueError(f"report counts {self.nlp} contradict its sets, which imply {want}")

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
            "k1m": list(self.k1m),
            "k1u": list(self.k1u),
            "k1c": list(self.k1c),
            "pruned_a": list(self.pruned_a),
            "pruned_b": list(self.pruned_b),
            "infeasible": list(self.infeasible),
            "nlp": {
                "a1": self.nlp.a1,
                "a2": self.nlp.a2,
                "b1": self.nlp.b1,
                "b3": self.nlp.b3,
                "total": self.nlp.total,
            },
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
        sets, front and counts must agree (:meth:`check_invariants`).
        Anything else raises ValueError."""
        try:
            nlp = d["nlp"]
            counts = NlpCounts(**{key: _int(nlp[key], f"nlp.{key}")
                                  for key in ("a1", "a2", "b1", "b3")})
            if counts.total != _int(nlp["total"], "nlp.total"):
                raise ValueError("nlp total does not match per-phase counts")
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
                nlp=counts,
                front=front,
                front_z=front_z,
                wallclock_ms=_int(d["wallclock_ms"], "wallclock_ms"),
            )
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"malformed report document: {exc}") from exc
        report.check_invariants()
        return report


_SETS = ("k1m", "k1u", "k1c", "pruned_a", "pruned_b", "infeasible")
_DISAGREE = "report front points disagree on a realization's z or on y, z lengths"


def _nlp_counts(phases: str, beta: int, k_total: int, n_k1m: int, n_k1u: int,
                n_k1c: int) -> NlpCounts:
    """The solve counts a run's sets imply, given the sizes of k1m, k1u and
    k1c: 2 per anchor pair, beta per front (the masters' in A-2, the
    retained ones' in B-3) and 1 per center.  The oracle builds every
    front in B-3."""
    if phases == "none":
        return NlpCounts(b3=beta * k_total)
    return NlpCounts(a1=2 * k_total, a2=beta * n_k1m,
                     b1=n_k1u - n_k1m if phases == "ab" else 0, b3=beta * (n_k1c - n_k1m))


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
    """What Phase A decided: the utopia points, a row per realization (NaN
    where an anchor failed), the masters k1m, what utopia pruning keeps
    (k1u), the master front, and the masters' own fronts."""

    utopias: np.ndarray
    k1m: list[int]
    k1u: list[int]
    master_front: Front
    fronts: Front


def master_candidates(utopias: np.ndarray, eps: float = 0.0) -> np.ndarray:
    """Rows of ``utopias`` (n, 2) whose point no other row strictly
    dominates, ascending.  Identical utopias all survive; NaN (infeasible)
    rows are skipped."""
    usable = np.flatnonzero(~np.isnan(utopias[:, 0]))
    return np.sort(usable[nondominated_rows(utopias[usable], eps)])


def build_master_front(solver: Solver, ks: list[int], beta: int,
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


def phase_a(solver: Solver, ks: list[int], beta: int, eps: float = 0.0) -> PhaseAResult:
    """A-1 anchors/utopias for all realizations (2 solves each), A-2
    master front from non-dominated utopias (beta solves each), A-3
    utopia pruning: k1u keeps the masters and every feasible realization
    whose utopia the master front does not weakly dominate.  Each step is
    one batched operation over its realizations, given in ascending k."""
    utopias = parallel_map(compute_anchors_utopia, solver, ks)
    masters = master_candidates(utopias, eps).tolist()
    master_front, fronts = build_master_front(solver, [ks[i] for i in masters], beta, eps)
    keep = ~np.isnan(utopias[:, 0]) & ~_weakly_dominated(master_front.pts, utopias, eps)
    keep[masters] = True
    return PhaseAResult(utopias, [ks[i] for i in masters],
                        [ks[i] for i in np.flatnonzero(keep).tolist()], master_front, fronts)


def phase_b(solver: Solver, ks: list[int], master_front: Front,
            eps: float = 0.0) -> list[int]:
    """B-1 centers for the target realizations (one solve each) and B-2:
    the indices k of those whose center solve succeeded and whose center
    the master front does not weakly dominate."""
    centers = parallel_map(compute_center, solver, ks)
    keep = ~np.isnan(centers[:, 0]) & ~_weakly_dominated(master_front.pts, centers, eps)
    return [ks[i] for i in np.flatnonzero(keep).tolist()]


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
    and reserves every weight it can pose in one table allocation
    (:meth:`~pareto_prune.solver.Solver.reserve`): the weight grid, plus
    B-1's center weight under "ab".  On a separable, unconstrained problem
    that also descends them all, in one lockstep batch.
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
    solver = Solver(spec, config)
    t0 = time.perf_counter()
    check_split(spec)
    # the run's weights: one table allocation, and on a separable,
    # unconstrained problem every descent of the run at once
    centers = [CENTER_WEIGHT] if phases == "ab" else []
    solver.reserve(weight_grid(beta) + centers)

    utopias, k1m, k1u, built = np.empty((0, 2)), [], [], []  # the oracle has no Phase A
    targets = retained = list(range(1, k_total + 1))
    if phases != "none":
        pa = phase_a(solver, targets, beta, eps)
        utopias, k1m, k1u, built = pa.utopias, pa.k1m, pa.k1u, [pa.fronts]
        targets = retained = sorted(set(k1u) - set(k1m))
        if phases == "ab":
            retained = phase_b(solver, targets, pa.master_front, eps)

    # B-3: fronts for whatever the phases left
    b3 = parallel_map(build_subproblem_front, solver, retained, beta, eps)
    final = _final_front(built + [b3], eps)
    front_ks = sorted(set(final.k.tolist()))
    k1c = front_ks if phases == "none" else sorted(k1m + retained)
    ks = np.arange(1, len(utopias) + 1)
    no_utopia = np.isnan(utopias[:, 0])
    return PruneReport(
        problem=spec.name,
        beta=beta,
        phases=phases,
        eps=eps,
        seed=solver.config.seed,
        k_total=k_total,
        k1m=tuple(k1m),
        k1u=tuple(k1u),
        k1c=tuple(k1c),
        pruned_a=tuple(sorted(set(ks[~no_utopia].tolist()) - set(k1u))),
        pruned_b=tuple(sorted(set(targets) - set(retained))),
        infeasible=tuple(sorted(ks[no_utopia].tolist() + list(set(retained) - set(b3.k.tolist())))),
        nlp=_nlp_counts(phases, beta, k_total, len(k1m), len(k1u), len(k1c)),
        front=final,
        front_z=_z_rows(spec, final.k),
        wallclock_ms=int(round((time.perf_counter() - t0) * 1000)),
    )
