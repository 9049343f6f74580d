"""Benchmark for pareto-prune: time to front, end to end and per layer.

    python3 perfbench/run.py --workload e2-ab --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all    # every workload, one after another

Run it from the root of a checkout; the program is imported from ./src
and outputs go to ./.bench_out.  Each workload runs in a closed loop with
one client, in one fresh process (child.py): after an untimed warm-up run,
one run at a time, the next starting when the previous one has finished,
for --seconds and at least five runs.  Every run's report is checked
(checks.py); the first run that fails the check ends the loop and counts
in ``failed``.

--trace 0 prints the end-to-end metrics:
  wall_ref     time to front in units of the host's speed: the median over
               runs of wall_s / ref_s.  wall_s runs from the call into
               run_pipeline / oracle_front until the report JSON and front
               CSV are written; ref_s is the time of child.reference_s, a
               fixed loop of the same kinds of work, right before and after
               the run.  The host's speed swings by a factor of two within
               seconds, and wall_s with it; the ratio cancels the swing.
               The median wall_s and ref_s are printed beside it.
  setup_s      importing pareto_prune and building the spec in a fresh
               process: the median over SETUP_SAMPLES set-up-only
               processes and the measuring one;
  peak_rss_mb  peak resident memory of the measuring process plus its
               largest pool worker;
  nlp_total    the report's logical solve count, the paper's cost measure.
--trace 1 makes each loop step an untraced and a traced run, both serial
(spans inside pool workers would be lost), and prints the medians of the
per-layer metrics of tracer.py plus trace.overhead_s, the traced minus the
untraced wall_s.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# numpy and BLAS threads are pinned to 1 so that load never exceeds the
# process count a workload asks for
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# set-up-only processes per --trace 0 measurement
SETUP_SAMPLES = 5
# every process of one workload ends by then, inside the 180 s limit
BUDGET_S = 170.0

END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB", "nlp_total": "count"}


def _load_program() -> None:
    """Exit unless ./src holds the program this benchmark measures."""
    if not (SRC / "pareto_prune" / "__init__.py").is_file():
        sys.exit(f"error: no program at {SRC / 'pareto_prune'}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import pareto_prune

    if Path(pareto_prune.__file__).resolve().parent != (SRC / "pareto_prune").resolve():
        sys.exit(f"error: imported pareto_prune from {pareto_prune.__file__}, not {SRC}")


def child_env(workers: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PARETO_PRUNE_THREADS", None)
    if workers > 1:
        env["PARETO_PRUNE_THREADS"] = str(workers)
    return env


def spawn(args: list[str], env: dict, timeout: float):
    """Run child.py to completion; returns (result, None) or (None, error)."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        out, err = None, f"{args[0]} process timed out"
    finally:
        # the child's session also holds any pool workers it started
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if out is None:
        return None, err
    if proc.returncode != 0:
        lines = err.strip().splitlines()
        return None, lines[-1] if lines else f"{args[0]} process exited with {proc.returncode}"
    return json.loads(out.strip().splitlines()[-1]), None


def _describe(name: str, values: list[float], unit: str) -> str:
    line = f"  {name:<34} median {statistics.median(values):.6g} {unit}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"  q1 {q1:.6g}  q3 {q3:.6g}"
    return line + f"  n={len(values)}"


class Measurement:
    """Samples and check outcomes of one workload at one seed."""

    def __init__(self, workload: str, seed: int, trace: bool) -> None:
        self.workload, self.seed, self.trace = workload, seed, trace
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: str | None = None
        self.absent: set[str] = set()

    def _add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def setup_sample(self, deadline: float) -> None:
        res, err = spawn(["setup", self.workload, str(self.seed), str(OUT)],
                         child_env(1), deadline - time.monotonic())
        if err:
            self.attempted += 1
            self.failures.append(f"set-up: {err}")
        else:
            self._add("setup_s", res["setup_s"])

    def loop(self, seconds: int, workers: int, deadline: float) -> None:
        mode = "trace" if self.trace else "run"
        res, err = spawn([mode, self.workload, str(self.seed), str(OUT), str(seconds)],
                         child_env(workers), deadline - time.monotonic())
        if err:
            self.attempted += 1
            self.failures.append(err)
            return
        self.attempted += len(res["runs"]) + len(res["failures"])
        self.failures += res["failures"]
        self.digest = res["digest"]
        for run in res["runs"]:
            self._add("wall_s", run["wall_s"])
            self._add("ref_s", run["ref_s"])
            if self.trace:
                for name, value in run["layers"].items():
                    self._add(name, value)
                self._add("trace.overhead_s", run["overhead_s"])
                self.absent.update(run["absent"])
            else:
                self._add("wall_ref", run["wall_s"] / run["ref_s"])
        if not self.trace and res["runs"]:
            self._add("setup_s", res["setup_s"])
            self._add("peak_rss_mb", res["peak_rss_mb"])
            self._add("nlp_total", res["nlp_total"])

    @property
    def failed(self) -> int:
        return len(self.failures)

    def metrics(self, units: dict[str, str]) -> dict:
        return {name: {"value": statistics.median(self.samples[name]), "unit": unit}
                for name, unit in units.items() if name in self.samples}

    def print_block(self, units: dict[str, str], seconds: int, workers: int) -> None:
        step = "untraced and traced run pairs" if self.trace else "runs"
        print(f"workload {self.workload}  seed {self.seed}  closed loop, 1 client, "
              f"{workers} process(es): {self.attempted} {step} back to back, "
              f"measured for at least {seconds} s")
        import workloads

        note = workloads.SEED_NOTES.get(self.workload)
        if note:
            print(f"  note: {note}")
        if self.trace and workloads.WORKLOADS[self.workload].workers > 1:
            print("  note: traced runs are serial, so this workload's pool is not traced")
        shown = dict(units, wall_s="s", ref_s="s")
        for name, unit in shown.items():
            if name in self.samples:
                print(_describe(name, self.samples[name], unit))
        for name in sorted(self.absent):
            print(f"  {name:<34} absent: the program has no entry point for it")
        print(f"  {'fail_ratio':<34} {self.failed}/{self.attempted} = "
              f"{self.failed / max(1, self.attempted):.6g} ratio")
        import checks

        recorded = "recorded" if checks.recorded_digest(self.workload, self.seed) else \
            "none recorded for this seed"
        print(f"  check: report digest {(self.digest or 'none')[:16]} ({recorded})")
        for line in self.failures:
            print(f"  FAILED {line}")


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> Measurement:
    import workloads

    deadline = time.monotonic() + BUDGET_S
    m = Measurement(workload, seed, trace)
    if not trace:
        for _ in range(SETUP_SAMPLES):
            m.setup_sample(deadline)
    m.loop(seconds, 1 if trace else workloads.WORKLOADS[workload].workers, deadline)
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="e2-ab, e1-oracle, gen-constrained, e2-ab-2proc, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    _load_program()
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}")
    units = _per_layer_units() if args.trace else END_TO_END
    OUT.mkdir(exist_ok=True)

    done = []
    for name in names:
        m = measure(name, args.seed, args.seconds, bool(args.trace))
        m.print_block(units, args.seconds, 1 if args.trace else workloads.WORKLOADS[name].workers)
        done.append(m)
    correct = all(m.failed == 0 for m in done)
    if len(done) == 1:
        metrics = done[0].metrics(units)
    else:
        metrics = {m.workload: m.metrics(units) for m in done}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(m.attempted for m in done)),
        "failed": sum(m.failed for m in done),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
