"""Benchmark workloads: how each one builds its problem and which public
entry point it calls.

Every workload is a function of the seed alone.  On the registry
problems the seed is the solver's multistart seed; on ``gen-constrained``
it drives the problem generator and the solver keeps its default seed,
so that every seed does the same work.

Each run of a workload takes well under a second, so that one
measurement holds dozens of runs: the registry problems are cut to a few
of their realizations (``make_e2_k16``, ``make_e1_k4``), whose specs keep
the registry evaluators and with them the layers each workload exercises.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

import pareto_prune as pp


class Workload(NamedTuple):
    problem: str  # "e2-k16", "e1-k4" or "gen"
    phases: str   # "ab", or "none" for the exhaustive oracle
    beta: int
    workers: int  # PARETO_PRUNE_THREADS of the untraced runs


WORKLOADS = {
    "e2-ab": Workload("e2-k16", "ab", 21, 1),
    "e1-oracle": Workload("e1-k4", "none", 21, 1),
    "gen-constrained": Workload("gen", "ab", 5, 1),
    "e2-ab-2proc": Workload("e2-k16", "ab", 21, 2),
}

# e1 has one continuous variable, so its 16 starts are the two bounds and
# a 14-point lattice: no seeded fill point exists and the seed only
# reaches the report's "seed" field.
SEED_NOTES = {
    "e1-oracle": "e1's 16 starts are all lattice points: the seed changes nothing but the report's seed field",
}

# The contributing realizations of the e1-k4 oracle, independent of seed:
# e1's own contributing set {49, 60, 61}, renumbered.
E1_CONTRIBUTING = (1, 3, 4)


def make_e2_k16() -> pp.ProblemSpec:
    """e2 with bars 4 and 5 from the catalogue and bars 6-9 held at its
    size 5: 16 of e2's 4096 realizations, with e2's separable, vectorized
    evaluators and analytic gradient."""
    e2 = pp.make_e2()
    catalogue = e2.discrete_sets[0]
    return dataclasses.replace(e2, name="e2-k16",
                               discrete_sets=(catalogue, catalogue) + ((5.0,),) * 4)


def make_e1_k4() -> pp.ProblemSpec:
    """e1 with x2 and x3 in {-1, 0}: 4 of its 121 realizations, 3 of them
    the full problem's contributing set {49, 60, 61}, with e1's
    multimodal, non-separable objectives."""
    return dataclasses.replace(pp.make_e1(), name="e1-k4", discrete_sets=((-1.0, 0.0),) * 2)


# --- gen-constrained ----------------------------------------------------------
#
# A generated mixed-discrete problem with scalar (one row per call)
# evaluators, no analytic gradient and an inequality constraint.  The
# objectives of realization z are
#     j1 = c1 + s ((1 - y1)^2 + y2^2 / 2),   j2 = c2 + s (y1^2 + (1 - y2)^2 / 2),
# with (c1, c2, s) looked up by z, so the weighted-sum optimum is
# y = (w, 1 - w) and the subproblem front is the curve
# (c1 + W (1-w)^2, c2 + W w^2) with W = 3 s / 2.  Each realization plays
# a role whose (c1, c2, W) fixes its phase outcome with margin to spare:
# two masters whose utopias do not dominate each other, two the master
# front prunes in A-3, one whose center it prunes in B-2 and two that
# survive to B-3.  The constraint y1 - y2 <= u binds where u < 1, at the
# weights w > (1 + u) / 2, which for u = 0.95 is w = 1 alone: the j1 anchor
# and the last point of a beta-front.  It is scaled by 1/50 so that the
# exterior penalty leaves a violation of about 2e-7, well above the
# feasibility tolerance, and one hundredfold penalty escalation brings it
# under: three escalations per run.  The seed draws the discrete values
# and which of them plays which role.  It leaves each role's objectives
# alone: the descents' iteration counts hinge on rounding near
# convergence, so even a jitter of 1e-3 moved the work per run by 15%
# between seeds, while now every seed does the same solves.

# (c1, c2, W, u); u >= 1.5 never binds
_ROLES = (
    (0.0, 2.0, 1.6, 2.0),      # master
    (2.0, 0.0, 1.0, 2.0),      # master
    (0.6, 2.6, 0.4, 2.0),      # pruned in A-3
    (0.62, 2.62, 0.4, 0.95),   # pruned in A-3, binding j1 anchor
    (0.45, 2.28, 0.5, 2.0),    # pruned in B-2
    (0.2, 2.2, 0.3, 2.0),      # retained to B-3
    (0.25, 2.15, 0.3, 0.95),   # retained to B-3, binding j1 anchor and w = 1
)


def make_gen_constrained(seed: int) -> pp.ProblemSpec:
    """The seeded constrained problem; equal seeds give equal problems."""
    rng = np.random.default_rng(seed)
    values = tuple(float(v) for v in np.sort(rng.choice(np.arange(1, 100), len(_ROLES), replace=False)))
    params = {}
    for value, role in zip(values, rng.permutation(len(_ROLES))):
        c1, c2, width, u = _ROLES[role]
        params[value] = (c1, c2, width / 1.5, u)

    def objectives(y, z):
        c1, c2, s, _ = params[float(z[0])]
        y1, y2 = float(y[0]), float(y[1])
        return (c1 + s * ((1.0 - y1) ** 2 + 0.5 * y2 * y2),
                c2 + s * (y1 * y1 + 0.5 * (1.0 - y2) ** 2))

    def constraints(y, z):
        return (0.02 * (float(y[0]) - float(y[1]) - params[float(z[0])][3]),)

    return pp.ProblemSpec(
        name=f"gen-constrained-{seed}",
        n_y=2,
        bounds=((0.0, 1.0), (0.0, 1.0)),
        discrete_sets=(values,),
        objectives=objectives,
        inequality_constraints=constraints,
    )


def build_spec(workload: str, seed: int) -> pp.ProblemSpec:
    problem = WORKLOADS[workload].problem
    if problem == "gen":
        return make_gen_constrained(seed)
    return make_e2_k16() if problem == "e2-k16" else make_e1_k4()


def solver_seed(workload: str, seed: int) -> int:
    return 0 if WORKLOADS[workload].problem == "gen" else seed


def run(workload: str, spec: pp.ProblemSpec, seed: int, workers: int | None = None) -> pp.PruneReport:
    """One run of the workload through the public entry point the CLI
    uses.  ``workers`` None takes the count from the environment, as the
    CLI does."""
    w = WORKLOADS[workload]
    config = pp.SolverConfig(seed=solver_seed(workload, seed))
    if w.phases == "none":
        return pp.oracle_front(spec, beta=w.beta, config=config, workers=workers)
    return pp.run_pipeline(spec, beta=w.beta, phases=w.phases, config=config, workers=workers)


def reevaluate(spec: pp.ProblemSpec, y, z) -> tuple[float, float]:
    """Objective pair at one design, through the evaluator contract the
    solver uses (one stacked row when vectorized)."""
    ya = np.asarray(y, dtype=float)
    za = np.asarray(z, dtype=float)
    if spec.vectorized:
        out = np.asarray(spec.objectives(ya[None, :], za), dtype=float)[0]
    else:
        out = np.asarray(spec.objectives(ya, za), dtype=float)
    return float(out[0]), float(out[1])

