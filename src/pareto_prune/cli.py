"""Command-line front end: run the pruning pipeline or the exhaustive
oracle on a registry problem, write JSON/CSV reports, and compare runs.

Exit codes: 0 success (for ``compare``: fronts match), 1 compare
mismatch, 2 bad flags, malformed inputs or unwritable outputs, 3
pipeline/capacity failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .benchmarks import get_problem
from .decomposition import CapacityExceeded
from .pipeline import PipelineError, PruneReport, run_pipeline
from .solver import SolverConfig

__all__ = ["main", "hausdorff_distance", "write_report", "write_front_csv"]

HAUSDORFF_BLOCK = 1 << 18  # point pairs whose distance one step of hausdorff_distance forms


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

def _plain(obj):
    """``obj`` in plain JSON types: tuples as lists, numpy scalars as
    Python numbers, and an integral float below 1e17 as an int.  Recorded
    report digests hash the parsed report, and the 17-significant-digit
    text they were recorded from wrote such a float as an integer (it
    switches to exponent form at 1e17).  The exact plain types, which
    make up almost every leaf of a report, are checked first."""
    kind = type(obj)
    if kind is float:
        return int(obj) if obj.is_integer() and abs(obj) < 1e17 else obj
    if kind is int or kind is str or kind is bool or obj is None:
        return obj
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and obj.is_integer() and abs(obj) < 1e17:
        return int(obj)
    return obj


def dumps_json(obj) -> str:
    """Compact JSON; a float is written as its shortest round-trip repr."""
    return json.dumps(_plain(obj), separators=(",", ":"))


def write_report(report: PruneReport, path: str | Path) -> None:
    Path(path).write_text(dumps_json(report.to_json_dict()) + "\n", encoding="utf-8")


def read_report(path: str | Path) -> PruneReport:
    return PruneReport.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def write_front_csv(report: PruneReport, path: str | Path) -> None:
    front, front_z = report.front, report.front_z
    header = (
        ["k"]
        + [f"z_{j}" for j in range(1, front_z.shape[1] + 1)]
        + [f"y_{i}" for i in range(1, front.y.shape[1] + 1)]
        + ["j1", "j2", "provenance"]
    )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k, w, z, y, pts in zip(front.k.tolist(), front.w.tolist(), front_z.tolist(),
                                   front.y.tolist(), front.pts.tolist()):
            writer.writerow([k, *z, *y, *pts, f"w{w}"])


def summary_line(report: PruneReport) -> str:
    return (
        f"|K|={report.k_total} |K1m|={len(report.k1m)} |K1u|={len(report.k1u)} "
        f"|K1c|={len(report.k1c)} nlp={report.nlp.total} front={len(report.front.k)} pts"
    )


# --- compare ----------------------------------------------------------------

def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets in objective
    space.  Empty vs non-empty is infinite; empty vs empty is zero.  Memory
    is linear in the set sizes: squared distances are formed for rows of
    ``a`` HAUSDORFF_BLOCK pairs at a time, and min, max and sqrt are exact."""
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else float("inf")
    rows = max(1, HAUSDORFF_BLOCK // len(b))
    far_a, near_b = [], np.inf  # per block of a: farthest; per point of b: nearest
    for i in range(0, len(a), rows):
        d = sum((a[i:i + rows, None, c] - b[None, :, c]) ** 2 for c in range(a.shape[1]))
        far_a.append(d.min(axis=1).max())
        near_b = np.minimum(near_b, d.min(axis=0))
    return float(np.sqrt(max(np.max(far_a), near_b.max())))


def compare_reports(ra: PruneReport, rb: PruneReport, tol: float) -> dict:
    hd = hausdorff_distance(ra.front.pts, rb.front.pts)
    sets_equal = ra.front_realizations() == rb.front_realizations()
    return {
        "hausdorff": hd,
        "tol": tol,
        "realization_sets_equal": sets_equal,
        "front_sizes": [len(ra.front.k), len(rb.front.k)],
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
    """``run`` and ``oracle``: the oracle is the pipeline with phases "none".
    Bad flags, including the beta, phases and eps that ``run_pipeline``
    rejects before any solve, exit 2."""
    try:
        config = SolverConfig(seed=args.seed)
        spec = get_problem(args.problem)
        _check_output_path(args.report)
        _check_output_path(args.front)
        if args.front is not None and Path(args.front).resolve() == Path(args.report).resolve():
            raise ValueError(f"--report and --front name the same file {args.report}")
        report = run_pipeline(spec, beta=args.beta, phases=args.phases, config=config,
                              eps=args.eps)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PipelineError, CapacityExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        write_report(report, args.report)
        if args.front:
            write_front_csv(report, args.front)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary_line(report))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0):
        print(f"error: tol must be finite and >= 0, got {args.tol}", file=sys.stderr)
        return 2
    try:
        ra = read_report(args.a)
        rb = read_report(args.b)
    except (OSError, ValueError, RecursionError) as exc:  # a JSON nested too deeply to parse
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
