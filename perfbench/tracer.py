"""Per-layer tracing from outside the program.

The tracer replaces the module-level functions each layer is entered
through with timing wrappers, in every ``pareto_prune`` module that holds
them, and wraps the problem spec's evaluator callables.  Spans (name,
start, end, parent) stay in memory and are written out at the end;
evaluator calls are counted and timed but kept out of the span list, since
there are hundreds of thousands of them.  A span's self time is its
duration minus the time its child spans and evaluator calls cover.

Spans inside pool workers are lost, so traced runs must be serial.  An
entry point the program no longer has is reported as absent, with every
metric that depends on it.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys
from time import perf_counter

import numpy as np

# span name -> (module, attribute) the layer is entered through
ENTRY_POINTS = {
    "pipeline.run": ("pareto_prune.pipeline", "run_pipeline"),
    "pipeline.oracle": ("pareto_prune.benchmarks", "oracle_front"),
    "pipeline.phase_a": ("pareto_prune.pipeline", "phase_a"),
    "pipeline.phase_b": ("pareto_prune.pipeline", "phase_b"),
    "pipeline.master_candidates": ("pareto_prune.pipeline", "master_candidates"),
    "pipeline.build_master_front": ("pareto_prune.pipeline", "build_master_front"),
    "pipeline.parallel_map": ("pareto_prune.pipeline", "parallel_map"),
    "decomposition.anchors": ("pareto_prune.decomposition", "compute_anchors_utopia"),
    "decomposition.center": ("pareto_prune.decomposition", "compute_center"),
    "decomposition.beta_front": ("pareto_prune.decomposition", "build_subproblem_front"),
    "solver.solve": ("pareto_prune.solver", "solve_scalarized"),
    "solver.descent": ("pareto_prune.solver", "_descent"),
    "core.nd_filter": ("pareto_prune.core", "nondominated_filter"),
    "cli.write_report": ("pareto_prune.cli", "write_report"),
    "cli.write_front_csv": ("pareto_prune.cli", "write_front_csv"),
}

# metric prefix -> ProblemSpec field
EVALUATORS = {
    "objectives": "objectives",
    "base_objectives": "base_objectives",
    "gradient": "gradient",
    "constraints": "inequality_constraints",
}

# span record layout
_NAME, _START, _END, _PARENT, _CHILD = range(5)


class Absent(LookupError):
    """A metric needs an entry point the program does not have."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.installed: set[str] = set()
        self.evals: dict[str, list] = {}
        self.descent_rows = 0
        self.escalations = 0
        self.filter_points = 0
        self.solve_infeasible = 0
        self.solve_outcomes: set[tuple] = set()
        self._patched: list[tuple] = []

    # --- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        hooks = {
            "solver.solve": self._solve_hook,
            "solver.descent": self._descent_hook,
            "core.nd_filter": self._filter_hook,
        }
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pareto_prune" or name.startswith("pareto_prune."))]
        for span, (modname, attr) in ENTRY_POINTS.items():
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is None:
                continue
            wrapper = self._span_wrapper(span, orig, hooks.get(span))
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    self._patched.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)
            self.installed.add(span)
        return self

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def wrap_spec(self, spec):
        """A copy of ``spec`` whose evaluators are counted and timed."""
        fields = {f.name for f in dataclasses.fields(spec)}
        changes = {}
        for key, field in EVALUATORS.items():
            if field not in fields:
                continue
            self.evals[key] = [0, 0, 0.0]
            fn = getattr(spec, field)
            if fn is not None:
                changes[field] = self._eval_wrapper(self.evals[key], fn)
        return dataclasses.replace(spec, **changes)

    # --- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[_START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(args, kwargs, None, exc)
                raise
            finally:
                rec[_END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][_CHILD] += end - rec[_START]
            if hook is not None:
                hook(args, kwargs, out, None)
            return out

        return functools.wraps(fn)(wrapper)

    def _eval_wrapper(self, counter, fn):
        spans = self.spans
        stack = self._stack

        def wrapper(y, *rest):
            t0 = perf_counter()
            out = fn(y, *rest)
            dt = perf_counter() - t0
            counter[0] += 1
            counter[1] += y.shape[0] if np.ndim(y) == 2 else 1
            counter[2] += dt
            if stack:
                spans[stack[-1]][_CHILD] += dt
            return out

        return wrapper

    def _solve_hook(self, args, kwargs, result, exc):
        if exc is not None or not result.feasible:
            self.solve_infeasible += 1
        if result is not None:
            self.solve_outcomes.add((args[0].weight, result.y_star))

    def _descent_hook(self, args, kwargs, result, exc):
        self.descent_rows += np.shape(args[1])[0]
        pc = kwargs.get("penalty_coefficient", args[3] if len(args) > 3 else None)
        if pc is not None:
            self.escalations += 1

    def _filter_hook(self, args, kwargs, result, exc):
        self.filter_points += len(args[0])

    # --- results --------------------------------------------------------------

    def _need(self, *names: str) -> None:
        missing = [n for n in names if n not in self.installed]
        if missing:
            raise Absent(", ".join(missing))

    def _of(self, name: str) -> list[list]:
        return [s for s in self.spans if s[_NAME] == name]

    def _calls(self, name: str) -> int:
        self._need(name)
        return len(self._of(name))

    def _counted(self, name: str, value: float) -> float:
        """A count kept by the wrapper of ``name``."""
        self._need(name)
        return value

    def _total(self, name: str) -> float:
        self._need(name)
        return sum(s[_END] - s[_START] for s in self._of(name))

    def _self(self, name: str) -> float:
        self._need(name)
        return sum(s[_END] - s[_START] - s[_CHILD] for s in self._of(name))

    def _under(self, span: list, ancestor: str) -> bool:
        p = span[_PARENT]
        while p >= 0:
            if self.spans[p][_NAME] == ancestor:
                return True
            p = self.spans[p][_PARENT]
        return False

    def _phase_of(self, span: list) -> str | None:
        """Paper phase a solve span belongs to, from its enclosing layer."""
        p = span[_PARENT]
        beta_front = False
        while p >= 0:
            name = self.spans[p][_NAME]
            if name == "decomposition.anchors":
                return "a1"
            if name == "decomposition.center":
                return "b1"
            if name == "pipeline.build_master_front":
                return "a2"
            beta_front = beta_front or name == "decomposition.beta_front"
            p = self.spans[p][_PARENT]
        return "b3" if beta_front else None

    def solves_by_phase(self) -> dict[str, int]:
        """Solve spans per paper phase, to compare with a report's counts."""
        self._need("solver.solve", "decomposition.anchors", "decomposition.center",
                   "decomposition.beta_front", "pipeline.build_master_front")
        out = {"a1": 0, "a2": 0, "b1": 0, "b3": 0}
        for s in self._of("solver.solve"):
            phase = self._phase_of(s)
            if phase is not None:
                out[phase] += 1
        return out

    def _b3_s(self) -> float:
        self._need("decomposition.beta_front", "pipeline.build_master_front")
        return sum(s[_END] - s[_START] for s in self._of("decomposition.beta_front")
                   if not self._under(s, "pipeline.build_master_front"))

    def _b2_assembly_s(self) -> float:
        # the run minus every other phase: B-2 tests, final assembly, glue
        entry = "pipeline.oracle" if self._of("pipeline.oracle") else "pipeline.run"
        rest = self._b3_s()
        if entry == "pipeline.run":
            rest += self._total("pipeline.phase_a") + self._total("decomposition.center")
        return self._total(entry) - rest

    def _solve_ms(self, q: float) -> float:
        self._need("solver.solve")
        d = sorted(s[_END] - s[_START] for s in self._of("solver.solve"))
        if not d:
            return 0.0
        return 1000.0 * d[max(0, math.ceil(q * len(d)) - 1)]

    def _eval(self, key: str, i: int):
        if key not in self.evals:
            raise Absent(f"eval.{key}")
        return self.evals[key][i]

    def metrics(self, report, report_bytes: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of a finished traced run, and the names of
        metrics that could not be measured."""
        table = {
            "solver.solve.calls": lambda: self._calls("solver.solve"),
            "solver.solve.self_s": lambda: self._self("solver.solve"),
            "solver.solve.p50_ms": lambda: self._solve_ms(0.50),
            "solver.solve.p99_ms": lambda: self._solve_ms(0.99),
            "solver.solve.infeasible": lambda: self._counted("solver.solve", self.solve_infeasible),
            "solver.solve.distinct_ratio":
                lambda: len(self.solve_outcomes) / max(1, self._calls("solver.solve")),
            "solver.descent.calls": lambda: self._calls("solver.descent"),
            "solver.descent.rows": lambda: self._counted("solver.descent", self.descent_rows),
            "solver.descent.rows_per_call":
                lambda: self.descent_rows / max(1, self._calls("solver.descent")),
            "solver.descent.self_s": lambda: self._self("solver.descent"),
            "solver.descent.escalations": lambda: self._counted("solver.descent", self.escalations),
        }
        for key in EVALUATORS:
            for i, suffix in enumerate(("calls", "rows", "time_s")):
                table[f"eval.{key}.{suffix}"] = (lambda k, j: lambda: self._eval(k, j))(key, i)
        for short in ("anchors", "center", "beta_front"):
            name = f"decomposition.{short}"
            table[f"{name}.calls"] = (lambda n: lambda: self._calls(n))(name)
            table[f"{name}.time_s"] = (lambda n: lambda: self._total(n))(name)
        table.update({
            "pipeline.a1_s": lambda: self._total("decomposition.anchors"),
            "pipeline.a2_s": lambda: self._total("pipeline.build_master_front"),
            "pipeline.a3_s": lambda: self._self("pipeline.phase_a"),
            "pipeline.master_candidates_s": lambda: self._total("pipeline.master_candidates"),
            "pipeline.b1_s": lambda: self._total("decomposition.center"),
            "pipeline.b3_s": self._b3_s,
            "pipeline.b2_assembly_s": self._b2_assembly_s,
            "pipeline.parallel_map.calls": lambda: self._calls("pipeline.parallel_map"),
            "pipeline.parallel_map.time_s": lambda: self._total("pipeline.parallel_map"),
            "pipeline.efficiency": lambda: report.nlp.total / (report.beta * report.k_total),
            "core.nd_filter.calls": lambda: self._calls("core.nd_filter"),
            "core.nd_filter.points": lambda: self._counted("core.nd_filter", self.filter_points),
            "core.nd_filter.time_s": lambda: self._total("core.nd_filter"),
            "cli.write_report_s": lambda: self._total("cli.write_report"),
            "cli.write_front_csv_s": lambda: self._total("cli.write_front_csv"),
            "cli.report_bytes": lambda: report_bytes,
        })
        values: dict[str, float] = {}
        absent: list[str] = []
        for name, fn in table.items():
            try:
                values[name] = float(fn())
            except Absent:
                absent.append(name)
        return values, absent

    def write_spans(self, path) -> None:
        """One JSON line per span, times in seconds from the first span."""
        origin = self.spans[0][_START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[_NAME], "start": s[_START] - origin,
                    "end": s[_END] - origin, "parent": s[_PARENT],
                }) + "\n")
