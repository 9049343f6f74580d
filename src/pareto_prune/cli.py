"""Command-line front end: run the pruning pipeline or the exhaustive
oracle on a registry problem, write JSON/CSV reports, and compare runs.

Exit codes: 0 success (for ``compare``: fronts match), 1 compare
mismatch, 2 bad flags, malformed inputs or unwritable outputs, 3
pipeline/capacity failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .benchmarks import get_problem
from .core import _check_eps
from .decomposition import CapacityExceeded
from .pipeline import PipelineError, PruneReport, run_pipeline
from .solver import SolverConfig

__all__ = ["main", "RunConfigFile", "hausdorff_distance", "write_report", "write_front_csv"]


@dataclasses.dataclass(frozen=True)
class RunConfigFile:
    """Validated bundle of run parameters; phases "none" is the oracle."""

    problem: str
    beta: int = 21
    phases: str = "ab"
    eps: float = 0.0
    seed: int = 0
    report: str | None = None
    front: str | None = None

    def __post_init__(self) -> None:
        if self.beta < 2:
            raise ValueError(f"beta must be >= 2, got {self.beta}")
        if self.phases not in ("a", "ab", "none"):
            raise ValueError(f'phases must be "a", "ab" or "none", got {self.phases!r}')
        _check_eps(self.eps)

    def solver_config(self) -> SolverConfig:
        return SolverConfig(seed=self.seed)


def _check_output_path(path: str | None) -> None:
    """Fail before the compute when an output file cannot be created."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        raise ValueError(f"output path {path} is a directory")
    parent = target.parent
    if not parent.is_dir():
        raise ValueError(f"output directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ValueError(f"output directory {parent} is not writable")


# --- serialization ---------------------------------------------------------

def _emit(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(",")
            _emit(val, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        # 17 significant digits: lossless float round-trip
        out.append(format(float(obj), ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_json(obj) -> str:
    parts: list[str] = []
    _emit(obj, parts)
    return "".join(parts)


def write_report(report: PruneReport, path: str | Path) -> None:
    Path(path).write_text(dumps_json(report.to_json_dict()) + "\n", encoding="utf-8")


def read_report(path: str | Path) -> PruneReport:
    return PruneReport.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def write_front_csv(report: PruneReport, path: str | Path) -> None:
    n_z = len(report.front[0].realization.z) if report.front else 0
    n_y = len(report.front[0].y) if report.front else 0
    header = (
        ["k"]
        + [f"z_{j}" for j in range(1, n_z + 1)]
        + [f"y_{i}" for i in range(1, n_y + 1)]
        + ["j1", "j2", "provenance"]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for sol in report.front:
            row = (
                [sol.realization.k]
                + [format(v, ".17g") for v in sol.realization.z]
                + [format(v, ".17g") for v in sol.y]
                + [format(sol.point.j1, ".17g"), format(sol.point.j2, ".17g"), sol.provenance]
            )
            writer.writerow(row)


def summary_line(report: PruneReport) -> str:
    return (
        f"|K|={report.k_total} |K1m|={len(report.k1m)} |K1u|={len(report.k1u)} "
        f"|K1c|={len(report.k1c)} nlp={report.nlp.total} front={len(report.front)} pts"
    )


# --- compare ----------------------------------------------------------------

def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets in objective
    space.  Empty vs non-empty is infinite; empty vs empty is zero."""
    if a.size == 0 and b.size == 0:
        return 0.0
    if a.size == 0 or b.size == 0:
        return float("inf")
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def compare_reports(ra: PruneReport, rb: PruneReport, tol: float) -> dict:
    fa = np.array([[s.point.j1, s.point.j2] for s in ra.front]).reshape(-1, 2)
    fb = np.array([[s.point.j1, s.point.j2] for s in rb.front]).reshape(-1, 2)
    hd = hausdorff_distance(fa, fb)
    sets_equal = ra.front_realizations() == rb.front_realizations()
    return {
        "hausdorff": hd,
        "tol": tol,
        "realization_sets_equal": sets_equal,
        "front_sizes": [len(ra.front), len(rb.front)],
        "deltas": {
            "k_total": rb.k_total - ra.k_total,
            "k1m": len(rb.k1m) - len(ra.k1m),
            "k1u": len(rb.k1u) - len(ra.k1u),
            "k1c": len(rb.k1c) - len(ra.k1c),
            "nlp_total": rb.nlp.total - ra.nlp.total,
        },
        "match": bool(hd <= tol and sets_equal),
    }


# --- commands ---------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pareto-prune",
        description="Pareto front generation for mixed-discrete bi-objective problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the two-phase pruning pipeline")
    oracle = sub.add_parser("oracle", help="run the exhaustive per-realization search")
    run.add_argument("--phases", choices=["a", "ab"], default="ab")
    oracle.set_defaults(phases="none")
    for p in (run, oracle):
        p.add_argument("--problem", required=True, help="registry problem id")
        p.add_argument("--beta", type=int, default=21, help="points per subproblem front")
        p.add_argument("--eps", type=float, default=0.0, help="dominance tolerance")
        p.add_argument("--seed", type=int, default=0, help="multistart seed")
        p.add_argument("--report", required=True, help="output JSON path")
        p.add_argument("--front", default=None, help="optional front CSV path")

    cmp_ = sub.add_parser("compare", help="compare the fronts of two reports")
    cmp_.add_argument("--a", required=True, help="first report JSON")
    cmp_.add_argument("--b", required=True, help="second report JSON")
    cmp_.add_argument("--tol", type=float, default=1e-4, help="Hausdorff tolerance")
    return parser


def cmd_run(args: argparse.Namespace) -> int:
    """``run`` and ``oracle``: the oracle is the pipeline with phases "none"."""
    try:
        cfg = RunConfigFile(
            problem=args.problem,
            beta=args.beta,
            phases=args.phases,
            eps=args.eps,
            seed=args.seed,
            report=args.report,
            front=args.front,
        )
        config = cfg.solver_config()
        spec = get_problem(cfg.problem)
        _check_output_path(cfg.report)
        _check_output_path(cfg.front)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_pipeline(spec, beta=cfg.beta, phases=cfg.phases, config=config, eps=cfg.eps)
    except (PipelineError, CapacityExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        write_report(report, cfg.report)
        if cfg.front:
            write_front_csv(report, cfg.front)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary_line(report))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        ra = read_report(args.a)
        rb = read_report(args.b)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = compare_reports(ra, rb, args.tol)
    print(
        f"hausdorff={result['hausdorff']:.6g} tol={args.tol:.6g} "
        f"sets_equal={result['realization_sets_equal']} match={result['match']}"
    )
    print(dumps_json(result))
    return 0 if result["match"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
