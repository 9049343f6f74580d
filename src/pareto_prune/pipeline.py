"""Two-phase pruning pipeline: utopia-based Phase A, center-point Phase B,
final front assembly, and full solve accounting.  The exhaustive oracle is
the same driver with both phases skipped."""

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
    nondominated_filter,
    nondominated_mask,
)
from .decomposition import (
    DEFAULT_REALIZATION_CAP,
    CapacityExceeded,
    Status,
    SubproblemRecord,
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


def parallel_map(op, spec: ProblemSpec, reals: list[Realization], *args) -> list:
    """``op(spec, reals, *args)``: one phase's batched subproblem operation.

    A plain call, kept under this name only because the benchmark's
    tracer (perfbench/tracer.py) times each phase through it and the
    benchmark's tests require that metric to be present.
    """
    return op(spec, reals, *args)


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


@dataclass
class PhaseAResult:
    records: dict[int, SubproblemRecord]
    k1m: list[int]
    k1u: list[int]
    master_front: list[ParetoSolution]


def master_candidates(records: list[SubproblemRecord], eps: float = 0.0) -> list[int]:
    """Indices whose utopia point no other utopia strictly dominates.
    Identical utopias all survive; infeasible records are skipped."""
    usable = [rec for rec in records if rec.utopia is not None]
    if not usable:
        return []
    pts = np.array([[rec.utopia.j1, rec.utopia.j2] for rec in usable])
    mask = nondominated_mask(pts, eps)
    return sorted(rec.realization.k for rec, keep in zip(usable, mask) if keep)


def build_master_front(
    spec: ProblemSpec,
    k1m: list[int],
    records: dict[int, SubproblemRecord],
    beta: int,
    config: SolverConfig,
    eps: float = 0.0,
) -> list[ParetoSolution]:
    """Union of the k1m subproblem fronts, filtered.  Each subproblem's
    front is stored in its record for reuse."""
    if not k1m:
        raise PipelineError("cannot build a master front from an empty candidate set")
    reals = [records[k].realization for k in k1m]
    fronts = parallel_map(build_subproblem_front, spec, reals, beta, config, eps)
    merged: list[ParetoSolution] = []
    for k, front in zip(k1m, fronts):
        records[k].front = front
        merged.extend(front or ())
    return nondominated_filter(merged, eps)


def _weakly_dominated_by(front_pts: np.ndarray, p: ObjectivePoint, eps: float) -> bool:
    return bool(np.any((front_pts[:, 0] <= p.j1 + eps) & (front_pts[:, 1] <= p.j2 + eps)))


def phase_a(
    spec: ProblemSpec,
    beta: int,
    config: SolverConfig,
    eps: float = 0.0,
) -> PhaseAResult:
    """A-1 anchors/utopias for all realizations (2 solves each), A-2
    master front from non-dominated utopias (beta solves each), A-3
    pruning of subproblems whose utopia the master front weakly
    dominates.  Each step is one batched operation over its realizations."""
    reals = enumerate_realizations(spec)
    recs = parallel_map(compute_anchors_utopia, spec, reals, config)
    records = {rec.realization.k: rec for rec in recs}

    if all(rec.status is Status.INFEASIBLE for rec in records.values()):
        raise PipelineError("every subproblem is infeasible")

    k1m = master_candidates(list(records.values()), eps)
    for k in k1m:
        records[k].status = Status.MASTER
    master_front = build_master_front(spec, k1m, records, beta, config, eps)

    mpts = np.array([[s.point.j1, s.point.j2] for s in master_front])
    k1u: list[int] = list(k1m)
    for k, rec in records.items():
        if rec.status is not Status.UNPROCESSED:
            continue
        if _weakly_dominated_by(mpts, rec.utopia, eps):
            rec.status = Status.PRUNED_A
        else:
            k1u.append(k)
    return PhaseAResult(records=records, k1m=sorted(k1m), k1u=sorted(k1u),
                        master_front=master_front)


def phase_b(
    spec: ProblemSpec,
    records: dict[int, SubproblemRecord],
    targets: list[int],
    master_front: list[ParetoSolution],
    config: SolverConfig,
    eps: float = 0.0,
) -> list[int]:
    """B-1 centers for the target subproblems (one solve each) and B-2
    pruning of those whose center the master front weakly dominates or
    whose center solve fails.  Returns the retained indices."""
    mpts = np.array([[s.point.j1, s.point.j2] for s in master_front])
    reals = [records[k].realization for k in targets]
    centers = parallel_map(compute_center, spec, reals, config)
    retained: list[int] = []
    for k, center in zip(targets, centers):
        records[k].center = center
        if center is None or _weakly_dominated_by(mpts, center.point, eps):
            records[k].status = Status.PRUNED_B
        else:
            retained.append(k)
    return retained


def _with_status(records: dict[int, SubproblemRecord], status: Status) -> tuple[int, ...]:
    return tuple(sorted(k for k, rec in records.items() if rec.status is status))


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

    Each phase poses its solves as one batched operation over its
    realizations, in this process.  ``workers`` is accepted and has no
    effect: every run is serial.
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
    t0 = time.perf_counter()

    if phases == "none":
        records = {r.k: SubproblemRecord(realization=r) for r in enumerate_realizations(spec)}
        k1m: list[int] = []
        k1u: list[int] = []
        retained = list(records)
    else:
        pa = phase_a(spec, beta, config, eps)
        records, k1m, k1u = pa.records, pa.k1m, pa.k1u
        retained = [k for k in k1u if records[k].status is not Status.MASTER]
        if phases == "ab":
            retained = phase_b(spec, records, retained, pa.master_front, config, eps)

    # B-3: fronts for whatever the phases left
    reals = [records[k].realization for k in retained]
    fronts = parallel_map(build_subproblem_front, spec, reals, beta, config, eps)
    for k, front in zip(retained, fronts):
        records[k].front = front
        records[k].status = Status.INFEASIBLE if front is None else Status.RETAINED_B

    merged = [sol for rec in records.values() if rec.front for sol in rec.front]
    if not merged:
        raise PipelineError("every subproblem is infeasible")
    final = nondominated_filter(merged, eps)
    final.sort(key=lambda s: s.point.j1)
    k1c = sorted({sol.realization.k for sol in final}) if phases == "none" else sorted(k1m + retained)
    return PruneReport(
        problem=spec.name,
        beta=beta,
        phases=phases,
        eps=eps,
        seed=config.seed,
        k_total=len(records),
        k1m=tuple(k1m),
        k1u=tuple(k1u),
        k1c=tuple(k1c),
        pruned_a=_with_status(records, Status.PRUNED_A),
        pruned_b=_with_status(records, Status.PRUNED_B),
        infeasible=_with_status(records, Status.INFEASIBLE),
        nlp=NlpCounts(
            a1=0 if phases == "none" else 2 * len(records),
            a2=beta * len(k1m),
            b1=len(k1u) - len(k1m) if phases == "ab" else 0,
            b3=beta * len(retained),
        ),
        front=tuple(final),
        wallclock_ms=int(round((time.perf_counter() - t0) * 1000)),
    )
