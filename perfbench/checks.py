"""Output checks applied to every timed run.

A run passes when its report satisfies the per-phase solve-count
identity, its front is mutually non-dominated and re-evaluates to the
stored objectives, the e1-k4 oracle's contributing set is e1's own, and
its deterministic block hashes to the digest recorded in baseline.json
for the workload and seed (when one is recorded).
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import workloads

# The report fields that are a function of the inputs alone; everything
# else (today only ``wallclock_ms``) is timing.
DETERMINISTIC_KEYS = (
    "problem", "beta", "phases", "eps", "seed", "k_total", "k1m", "k1u", "k1c",
    "pruned_a", "pruned_b", "infeasible", "nlp", "front",
)

REEVAL_RTOL = 1e-12

BASELINE = Path(__file__).resolve().parent / "baseline.json"


def digest(doc: dict) -> str:
    """SHA-256 of the report's deterministic block in canonical JSON.
    Floats print as their shortest round-trip form, so equal digests mean
    bitwise-equal values."""
    block = {k: doc[k] for k in DETERMINISTIC_KEYS}
    text = json.dumps(block, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def recorded_digest(workload: str, seed: int) -> str | None:
    """The digest baseline.json records for the workload and seed."""
    if not BASELINE.is_file():
        return None
    digests = json.loads(BASELINE.read_text(encoding="utf-8")).get("digests", {})
    return digests.get(workload, {}).get(str(seed))


def count_identity(doc: dict) -> list[str]:
    """The paper's solve accounting: a1 = 2|K|, a2 = beta |K1m|,
    b1 = |K1u| - |K1m|, b3 = beta |retained|; the oracle spends
    beta |K| in b3 alone."""
    nlp, beta, k = doc["nlp"], doc["beta"], doc["k_total"]
    if doc["phases"] == "none":
        want = {"a1": 0, "a2": 0, "b1": 0, "b3": beta * k}
    else:
        k1m, k1u, k1c = len(doc["k1m"]), len(doc["k1u"]), len(doc["k1c"])
        want = {"a1": 2 * k, "a2": beta * k1m, "b1": k1u - k1m, "b3": beta * (k1c - k1m)}
    want["total"] = sum(want.values())
    return [f"nlp.{key} = {nlp[key]}, expected {val}" for key, val in want.items() if nlp[key] != val]


def front_problems(doc: dict, spec) -> list[str]:
    """The front is mutually non-dominated and every point re-evaluates
    through ``spec.objectives`` to its stored (j1, j2)."""
    front = doc["front"]
    if not front:
        return ["front is empty"]
    out = []
    pts = np.array([[p["j1"], p["j2"]] for p in front])
    le = (pts[:, None, 0] <= pts[None, :, 0]) & (pts[:, None, 1] <= pts[None, :, 1])
    lt = (pts[:, None, 0] < pts[None, :, 0]) | (pts[:, None, 1] < pts[None, :, 1])
    dominated = np.flatnonzero((le & lt).any(axis=0))
    if dominated.size:
        out.append(f"{dominated.size} front points are dominated by other front points")
    for p in front:
        j1, j2 = workloads.reevaluate(spec, p["y"], p["z"])
        if not (math.isclose(j1, p["j1"], rel_tol=REEVAL_RTOL, abs_tol=1e-300)
                and math.isclose(j2, p["j2"], rel_tol=REEVAL_RTOL, abs_tol=1e-300)):
            out.append(f"front point k={p['k']} re-evaluates to ({j1!r}, {j2!r}), "
                       f"stored ({p['j1']!r}, {p['j2']!r})")
            break
    return out


def check_report(doc: dict, spec, workload: str, seed: int, recorded: str | None) -> list[str]:
    """Every problem found with one run's report; empty when it passes."""
    w = workloads.WORKLOADS[workload]
    out = []
    if (doc["phases"] != w.phases or doc["beta"] != w.beta
            or doc["seed"] != workloads.solver_seed(workload, seed)):
        out.append(f"report is for phases={doc['phases']} beta={doc['beta']} seed={doc['seed']}")
    if doc["problem"] != spec.name:
        out.append(f"report is for problem {doc['problem']!r}, ran {spec.name!r}")
    out += count_identity(doc)
    out += front_problems(doc, spec)
    if workload == "e1-oracle" and tuple(doc["k1c"]) != workloads.E1_CONTRIBUTING:
        out.append(f"e1 contributing set {doc['k1c']}, expected {list(workloads.E1_CONTRIBUTING)}")
    if recorded is not None and digest(doc) != recorded:
        out.append(f"report digest {digest(doc)[:16]} differs from the one recorded for seed {seed}")
    return out
