"""Two-phase pruning pipeline: utopia-based Phase A, center-point Phase B,
final front assembly, and full solve accounting.  Each phase returns what
it decided, and :func:`run_pipeline` derives every set of the report from
those returns.  The exhaustive oracle is the same driver with both phases
skipped."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ObjectivePoint,
    ParetoSolution,
    ProblemSpec,
    Realization,
    _check_eps,
    _points_array,
    nondominated_filter,
    nondominated_mask,
)
from .decomposition import (
    DEFAULT_REALIZATION_CAP,
    CapacityExceeded,
    build_subproblem_front,
    compute_anchors_utopia,
    compute_center,
    enumerate_realizations,
)
from .solver import SolverConfig

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


def parallel_map(op, spec: ProblemSpec, reals: list[Realization], *args, **kwargs) -> list:
    """``op(spec, reals, *args, **kwargs)``: one phase's batched subproblem
    operation.

    A plain call, kept under this name only because the benchmark's
    tracer (perfbench/tracer.py) times each phase through it and the
    benchmark's tests require that metric to be present.
    """
    return op(spec, reals, *args, **kwargs)


@dataclass(frozen=True)
class NlpCounts:
    a1: int = 0
    a2: int = 0
    b1: int = 0
    b3: int = 0

    @property
    def total(self) -> int:
        return self.a1 + self.a2 + self.b1 + self.b3


@dataclass(frozen=True)
class PruneReport:
    """Everything a run produced: retained/pruned index sets, per-phase
    solve counts, and the final front.  ``phases`` is "ab", "a", or
    "none" (exhaustive oracle)."""

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
    front: tuple[ParetoSolution, ...]
    wallclock_ms: int = 0

    def front_realizations(self) -> set[tuple[float, ...]]:
        """Distinct discrete vectors appearing in the final front."""
        return {sol.realization.z for sol in self.front}

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
                {
                    "k": sol.realization.k,
                    "z": list(sol.realization.z),
                    "y": list(sol.y),
                    "j1": sol.point.j1,
                    "j2": sol.point.j2,
                    "provenance": sol.provenance,
                }
                for sol in self.front
            ],
            "wallclock_ms": self.wallclock_ms,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PruneReport":
        try:
            nlp = d["nlp"]
            counts = NlpCounts(a1=int(nlp["a1"]), a2=int(nlp["a2"]),
                               b1=int(nlp["b1"]), b3=int(nlp["b3"]))
            if counts.total != int(nlp["total"]):
                raise ValueError("nlp total does not match per-phase counts")
            front = tuple(
                ParetoSolution(
                    y=tuple(float(v) for v in e["y"]),
                    realization=Realization(k=int(e["k"]), z=tuple(float(v) for v in e["z"])),
                    point=ObjectivePoint(float(e["j1"]), float(e["j2"])),
                    provenance=str(e["provenance"]),
                )
                for e in d["front"]
            )
            return cls(
                problem=str(d["problem"]),
                beta=int(d["beta"]),
                phases=str(d["phases"]),
                eps=float(d["eps"]),
                seed=int(d["seed"]),
                k_total=int(d["k_total"]),
                k1m=tuple(int(k) for k in d["k1m"]),
                k1u=tuple(int(k) for k in d["k1u"]),
                k1c=tuple(int(k) for k in d["k1c"]),
                pruned_a=tuple(int(k) for k in d["pruned_a"]),
                pruned_b=tuple(int(k) for k in d["pruned_b"]),
                infeasible=tuple(int(k) for k in d["infeasible"]),
                nlp=counts,
                front=front,
                wallclock_ms=int(d["wallclock_ms"]),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed report document: {exc}") from exc


@dataclass(frozen=True)
class PhaseAResult:
    """What Phase A decided: each realization's utopia point (None where
    an anchor failed), the masters k1m, what utopia pruning keeps (k1u),
    the master front, and each master's own front."""

    utopias: dict[int, ObjectivePoint | None]
    k1m: list[int]
    k1u: list[int]
    master_front: list[ParetoSolution]
    fronts: dict[int, list[ParetoSolution] | None]


def master_candidates(utopias: dict[int, ObjectivePoint | None], eps: float = 0.0) -> list[int]:
    """Indices whose utopia point no other utopia strictly dominates.
    Identical utopias all survive; None (infeasible) entries are skipped."""
    usable = [(k, u) for k, u in utopias.items() if u is not None]
    mask = nondominated_mask(_points_array([u for _, u in usable]), eps)
    return sorted(k for (k, _), keep in zip(usable, mask) if keep)


def build_master_front(
    spec: ProblemSpec,
    reals: list[Realization],
    beta: int,
    config: SolverConfig,
    eps: float = 0.0,
    *,
    descents: dict | None = None,
) -> tuple[list[ParetoSolution], dict[int, list[ParetoSolution] | None]]:
    """Union of the masters' subproblem fronts, filtered, and each master's
    own front by its index."""
    if not reals:
        raise PipelineError("cannot build a master front from an empty candidate set")
    fronts = parallel_map(build_subproblem_front, spec, reals, beta, config, eps,
                          descents=descents)
    merged = [sol for front in fronts for sol in front or ()]
    return nondominated_filter(merged, eps), {r.k: f for r, f in zip(reals, fronts)}


def _weakly_dominated_by(front_pts: np.ndarray, p: ObjectivePoint, eps: float) -> bool:
    return bool(np.any((front_pts[:, 0] <= p.j1 + eps) & (front_pts[:, 1] <= p.j2 + eps)))


def phase_a(
    spec: ProblemSpec,
    reals: list[Realization],
    beta: int,
    config: SolverConfig,
    eps: float = 0.0,
    *,
    descents: dict | None = None,
) -> PhaseAResult:
    """A-1 anchors/utopias for all realizations (2 solves each), A-2
    master front from non-dominated utopias (beta solves each), A-3
    utopia pruning: k1u keeps the masters and every feasible realization
    whose utopia the master front does not weakly dominate.  Each step is
    one batched operation over its realizations."""
    utopias = dict(zip((r.k for r in reals),
                       parallel_map(compute_anchors_utopia, spec, reals, config,
                                    descents=descents)))
    if all(u is None for u in utopias.values()):
        raise PipelineError("every subproblem is infeasible")

    k1m = master_candidates(utopias, eps)
    by_k = {r.k: r for r in reals}
    master_front, fronts = build_master_front(spec, [by_k[k] for k in k1m], beta, config,
                                              eps, descents=descents)
    mpts = _points_array(master_front)
    k1u = k1m + [k for k, u in utopias.items()
                 if u is not None and k not in fronts and not _weakly_dominated_by(mpts, u, eps)]
    return PhaseAResult(utopias=utopias, k1m=k1m, k1u=sorted(k1u),
                        master_front=master_front, fronts=fronts)


def phase_b(
    spec: ProblemSpec,
    reals: list[Realization],
    master_front: list[ParetoSolution],
    config: SolverConfig,
    eps: float = 0.0,
    *,
    descents: dict | None = None,
) -> list[int]:
    """B-1 centers for the target realizations (one solve each) and B-2:
    returns the indices of those whose center solve succeeded and whose
    center the master front does not weakly dominate."""
    mpts = _points_array(master_front)
    centers = parallel_map(compute_center, spec, reals, config, descents=descents)
    return [r.k for r, center in zip(reals, centers)
            if center is not None and not _weakly_dominated_by(mpts, center, eps)]


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

    Each phase poses its solves as one batched operation over its
    realizations, in this process: one
    :func:`~pareto_prune.solver.solve_batch` call, whose local descents
    run in lockstep and are finished in one pass.  The phases share one
    table of finished solves, and of the descents solves of one weight
    share on a separable problem, so what an earlier phase ran is looked
    up, not run again; every solve is still counted on its own.  The
    table is dropped when the run returns.
    ``workers`` is accepted and has no effect: every run is serial.
    """
    if phases not in ("ab", "a", "none"):
        raise ValueError(f'phases must be "ab", "a" or "none", got {phases!r}')
    if beta < 2:
        raise ValueError(f"beta must be >= 2, got {beta}")
    _check_eps(eps)
    n_solves = beta * math.prod(len(zs) for zs in spec.discrete_sets)
    if n_solves > DEFAULT_REALIZATION_CAP:
        raise CapacityExceeded(
            f"beta * |K| = {n_solves} exceeds the cap of {DEFAULT_REALIZATION_CAP}"
        )
    config = config or SolverConfig()
    descents: dict = {}
    t0 = time.perf_counter()
    reals = enumerate_realizations(spec)

    if phases == "none":
        utopias: dict[int, ObjectivePoint | None] = {}
        k1m: list[int] = []
        k1u: list[int] = []
        fronts: dict[int, list[ParetoSolution] | None] = {}
        targets = retained = [r.k for r in reals]
    else:
        pa = phase_a(spec, reals, beta, config, eps, descents=descents)
        utopias, k1m, k1u, fronts = pa.utopias, pa.k1m, pa.k1u, pa.fronts
        targets = retained = [k for k in k1u if k not in fronts]
        if phases == "ab":
            retained = phase_b(spec, [reals[k - 1] for k in targets], pa.master_front,
                               config, eps, descents=descents)

    # B-3: fronts for whatever the phases left
    b3 = parallel_map(build_subproblem_front, spec, [reals[k - 1] for k in retained], beta,
                      config, eps, descents=descents)
    fronts = {**fronts, **dict(zip(retained, b3))}
    merged = [sol for k in sorted(fronts) for sol in fronts[k] or ()]
    if not merged:
        raise PipelineError("every subproblem is infeasible")
    final = nondominated_filter(merged, eps)
    final.sort(key=lambda s: s.point.j1)
    k1c = sorted({sol.realization.k for sol in final}) if phases == "none" else sorted(k1m + retained)
    feasible = {k for k, u in utopias.items() if u is not None}
    return PruneReport(
        problem=spec.name,
        beta=beta,
        phases=phases,
        eps=eps,
        seed=config.seed,
        k_total=len(reals),
        k1m=tuple(k1m),
        k1u=tuple(k1u),
        k1c=tuple(k1c),
        pruned_a=tuple(sorted(feasible - set(k1u))),
        pruned_b=tuple(sorted(set(targets) - set(retained))),
        infeasible=tuple(sorted([k for k, u in utopias.items() if u is None]
                                + [k for k, front in zip(retained, b3) if front is None])),
        nlp=NlpCounts(
            a1=0 if phases == "none" else 2 * len(reals),
            a2=beta * len(k1m),
            b1=len(targets) if phases == "ab" else 0,
            b3=beta * len(retained),
        ),
        front=tuple(final),
        wallclock_ms=int(round((time.perf_counter() - t0) * 1000)),
    )
