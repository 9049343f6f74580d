"""Runs of a benchmark workload in a fresh process.

    python3 perfbench/child.py setup <workload> <seed> <outdir>
    python3 perfbench/child.py <run|trace> <workload> <seed> <outdir> <seconds>

Every mode first times the set-up a CLI user pays on each run: importing
pareto_prune and building the problem spec.  "setup" stops there.  "run"
then makes one untimed warm-up run and runs the workload back to back,
one run at a time, for <seconds> and at least LEAST_RUNS runs.  A run goes
through the public entry point and writes the report JSON and front CSV,
timed as a whole (wall_s); the reference loop is timed right before and
right after it (ref_s, their mean).  "trace" makes each step an untraced
and a traced run instead and keeps the tracer's per-layer metrics.  Every
report is checked (checks.py); the first run that fails ends the loop.
The process prints one JSON line with its measurements.  run.py starts it
with ./src on PYTHONPATH.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from pareto_prune import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

LEAST_RUNS = 5

_REF_ROWS = np.arange(48.0).reshape(16, 3)


def reference_s() -> float:
    """Wall time of a fixed loop of the two kinds of work the program
    spends its time on: numpy operations on 16-row arrays and Python float
    arithmetic.  Timed next to a run, it gives the host's speed at that
    moment, which on a shared host swings by a factor of two within
    seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(2000):
        acc += float((_REF_ROWS * 1.0001 + 0.5).sum())
        for j in range(20):
            acc += (j * 0.5 - 1.0) ** 2
    return time.perf_counter() - t0


class Loop:
    """Timed, checked runs of one workload at one seed."""

    def __init__(self, workload: str, seed: int, outdir: str, spec) -> None:
        self.workload, self.seed, self.spec = workload, seed, spec
        self.stem = os.path.join(outdir, f"{workload}-s{seed}")
        self.recorded = checks.recorded_digest(workload, seed)
        self.digest: str | None = None
        self.doc: dict | None = None

    def timed_run(self, spec, suffix: str = ""):
        """One run through the public entry point, report and CSV written;
        returns the report and its wall time."""
        path = self.stem + suffix + ".json"
        t0 = time.perf_counter()
        report = workloads.run(self.workload, spec, self.seed)
        cli.write_report(report, path)
        cli.write_front_csv(report, self.stem + suffix + ".csv")
        return report, time.perf_counter() - t0, path

    def check(self, path: str) -> list[str]:
        """Problems with the report at ``path``; also that every report of
        this seed has the same deterministic block."""
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = checks.check_report(doc, self.spec, self.workload, self.seed, self.recorded)
        digest = checks.digest(doc)
        if self.digest is None:
            self.digest, self.doc = digest, doc
        elif digest != self.digest:
            problems.append("reports of one seed differ between runs")
        return problems

    def step(self) -> dict:
        report, wall, path = self.timed_run(self.spec)
        problems = self.check(path)
        if problems:
            raise RunFailed("; ".join(problems))
        return {"wall_s": wall}

    def traced_step(self) -> dict:
        import tracer as tracing

        out = self.step()
        tracer = tracing.Tracer().install()
        try:
            report, wall, path = self.timed_run(tracer.wrap_spec(self.spec), "-traced")
        finally:
            tracer.uninstall()
        problems = self.check(path)
        try:
            phases = tracer.solves_by_phase()
        except tracing.Absent:
            phases = {}
        problems += [f"traced {k} solves {v} != report nlp.{k} {getattr(report.nlp, k)}"
                     for k, v in phases.items() if v != getattr(report.nlp, k)]
        if problems:
            raise RunFailed("; ".join(problems))
        layers, absent = tracer.metrics(report, os.path.getsize(path))
        tracer.write_spans(self.stem + "-traced.spans.jsonl")
        out.update(layers=layers, absent=absent, overhead_s=wall - out["wall_s"])
        return out


class RunFailed(Exception):
    """A run's report failed the output check."""


def main(argv: list[str]) -> int:
    mode, workload, seed, outdir = argv[1], argv[2], int(argv[3]), argv[4]
    spec = workloads.build_spec(workload, seed)
    out: dict = {"setup_s": time.perf_counter() - _T0}
    if mode != "setup":
        loop = Loop(workload, seed, outdir, spec)
        step = loop.traced_step if mode == "trace" else loop.step
        runs, failures = [], []
        try:
            step()  # warm-up
            deadline = time.perf_counter() + float(argv[5])
            while len(runs) < LEAST_RUNS or time.perf_counter() < deadline:
                before = reference_s()
                sample = step()
                sample["ref_s"] = (before + reference_s()) / 2
                runs.append(sample)
        except RunFailed as exc:
            failures.append(f"run {len(runs) + 1}: {exc}")
        except Exception as exc:  # a crash of the program is a failed run too
            failures.append(f"run {len(runs) + 1}: {type(exc).__name__}: {exc}")
        kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out.update(runs=runs, failures=failures, digest=loop.digest, peak_rss_mb=kb / 1024.0,
                   nlp_total=loop.doc["nlp"]["total"] if loop.doc else None)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
