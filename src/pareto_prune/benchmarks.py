"""Built-in benchmark problems and the exhaustive brute-force oracle.

"e1" is a three-variable member of the Van Veldhuizen test suite with the
first variable continuous and the other two discretized; "e2" is a
nine-bar truss sizing problem trading material volume against nodal
displacement.  "quad" and "toy-constrained" are small synthetic problems
for exercising the solver paths (not taken from any benchmark suite).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import ProblemSpec
from .pipeline import PruneReport, run_pipeline
from .solver import SolverConfig

__all__ = [
    "TrussConstants",
    "make_e1",
    "make_e2",
    "make_quad",
    "make_toy_constrained",
    "get_problem",
    "REGISTRY",
    "oracle_front",
]

GRAD_CLAMP = 1e6


# --- e1: continuous x1, discrete x2, x3 in {-5..5} ---------------------------

def _osc(x):
    """|x|^0.8 + 5 sin(x^3), the oscillatory per-coordinate term."""
    x = np.asarray(x, dtype=float)
    return np.abs(x) ** 0.8 + 5.0 * np.sin(x ** 3)


def _e1_objectives(y, z):
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    x1 = y[..., 0]
    p, q = z[..., 0], z[..., 1]
    j1 = -10.0 * np.exp(-0.2 * np.sqrt(x1 ** 2 + p ** 2)) - 10.0 * np.exp(
        -0.2 * np.sqrt(p ** 2 + q ** 2)
    )
    j2 = _osc(x1) + (_osc(p) + _osc(q))
    return np.stack([j1, j2], axis=-1)


def _e1_gradient(y, z):
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    x1 = y[..., 0]
    p = z[..., 0]
    r = np.sqrt(x1 ** 2 + p ** 2)
    safe_r = np.where(r > 0.0, r, 1.0)
    g1 = np.where(r > 0.0, 2.0 * np.exp(-0.2 * r) * x1 / safe_r, 0.0)
    # |x|^0.8 has an unbounded derivative at 0; clamp keeps the line
    # search finite there
    ax = np.abs(x1)
    safe_ax = np.where(ax > 0.0, ax, 1.0)
    cusp = np.where(ax > 0.0, 0.8 * np.sign(x1) * safe_ax ** (-0.2), GRAD_CLAMP)
    g2 = np.clip(cusp + 15.0 * x1 ** 2 * np.cos(x1 ** 3), -GRAD_CLAMP, GRAD_CLAMP)
    return np.stack([g1, g2], axis=-1)[..., None]


def make_e1() -> ProblemSpec:
    """Two exponential-distance terms against an oscillatory sum; the
    sin(x^3) term makes every scalarization severely multimodal in x1."""
    eleven = tuple(float(v) for v in range(-5, 6))
    return ProblemSpec(
        name="e1",
        n_y=1,
        bounds=((-5.0, 5.0),),
        discrete_sets=(eleven, eleven),
        objectives=_e1_objectives,
        gradient=_e1_gradient,
        vectorized=True,
    )


# --- e2: nine-bar truss sizing ------------------------------------------------

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class TrussConstants:
    """Member coefficients of the nine-bar truss: a_i weight the volume
    sum, b_i the displacement sum (b_9 = 0: the ninth bar does not load
    the monitored node).  The scale factors multiply each objective."""

    a: tuple[float, ...] = (1.0, 1.0, 1.0, _SQRT2, 1.0, _SQRT2, 1.0, _SQRT2, 1.0)
    b: tuple[float, ...] = (4.0, 1.0, 1.0, 8 * _SQRT2, 4.0, 2 * _SQRT2, 4.0, 2 * _SQRT2, 0.0)
    length_scale: float = 1.0
    load_modulus_scale: float = 1.0

    def __post_init__(self) -> None:
        if len(self.a) != 9 or len(self.b) != 9:
            raise ValueError("truss constants require 9 member coefficients")
        if self.length_scale <= 0 or self.load_modulus_scale <= 0:
            raise ValueError("scale factors must be positive")


def _e2_base(consts: TrussConstants, y):
    y = np.asarray(y, dtype=float)
    a3 = np.array(consts.a[:3])
    b3 = np.array(consts.b[:3])
    j1 = consts.length_scale * (y * a3).sum(axis=-1)
    j2 = consts.load_modulus_scale * (b3 / y).sum(axis=-1)
    return np.stack([j1, j2], axis=-1)


def _e2_offsets(consts: TrussConstants, z):
    z = np.asarray(z, dtype=float)
    a = consts.a
    b = consts.b
    # fsum: exact, order-independent sums keep realizations that are
    # objective-identical by symmetry bitwise identical
    zc1 = math.fsum(a[3 + j] * z[j] for j in range(6))
    zc2 = math.fsum(b[3 + j] / z[j] for j in range(6))
    return np.array([consts.length_scale * zc1, consts.load_modulus_scale * zc2])


def _e2_objectives(consts: TrussConstants, y, z):
    return _e2_base(consts, y) + _e2_offsets(consts, z)


def _e2_gradient(consts: TrussConstants, y, z):
    y = np.asarray(y, dtype=float)
    a3 = np.array(consts.a[:3])
    b3 = np.array(consts.b[:3])
    g1 = consts.length_scale * np.broadcast_to(a3, y.shape)
    g2 = -consts.load_modulus_scale * b3 / y ** 2
    return np.stack([g1, g2], axis=-2)


def make_e2(constants: TrussConstants | None = None) -> ProblemSpec:
    """Truss volume vs nodal displacement; bars 1-3 sized continuously,
    bars 4-9 from the catalogue {1, 5, 10, 15}."""
    consts = constants or TrussConstants()
    catalogue = (1.0, 5.0, 10.0, 15.0)
    return ProblemSpec(
        name="e2",
        n_y=3,
        bounds=((2.0 / 3.0, 10.0), (1.0 / 3.0, 10.0), (1.0 / 3.0, 10.0)),
        discrete_sets=(catalogue,) * 6,
        objectives=functools.partial(_e2_objectives, consts),
        gradient=functools.partial(_e2_gradient, consts),
        vectorized=True,
        base_objectives=functools.partial(_e2_base, consts),
        objective_offsets=functools.partial(_e2_offsets, consts),
    )


# --- synthetic problems --------------------------------------------------------

def _quad_objectives(y, z):
    y = np.asarray(y, dtype=float)
    v = y[..., 0]
    return np.stack([v ** 2, (v - 1.0) ** 2], axis=-1)


def _quad_gradient(y, z):
    y = np.asarray(y, dtype=float)
    v = y[..., 0]
    return np.stack([2.0 * v, 2.0 * (v - 1.0)], axis=-1)[..., None]


def make_quad() -> ProblemSpec:
    """Separable quadratic pair on [0, 1] with a single dummy realization;
    the front is the closed-form curve ((1-w)^2, w^2)."""
    return ProblemSpec(
        name="quad",
        n_y=1,
        bounds=((0.0, 1.0),),
        discrete_sets=((0.0,),),
        objectives=_quad_objectives,
        gradient=_quad_gradient,
        vectorized=True,
    )


def _toy_objectives(y, z):
    y = np.asarray(y, dtype=float)
    v = y[..., 0]
    return np.stack([(v - 1.0) ** 2, (v + 1.0) ** 2], axis=-1)


def _toy_constraints(y, z):
    y = np.asarray(y, dtype=float)
    v = y[..., 0]
    # feasible iff v >= 0.25, active at the j2-anchor
    return (0.25 - v)[..., None]


def make_toy_constrained() -> ProblemSpec:
    """Quadratic pair with one inequality constraint that is active at
    the j2 anchor; exercises the exterior penalty path (no analytic
    gradient on purpose, so finite differences run too)."""
    return ProblemSpec(
        name="toy-constrained",
        n_y=1,
        bounds=((-2.0, 2.0),),
        discrete_sets=((1.0,),),
        objectives=_toy_objectives,
        inequality_constraints=_toy_constraints,
        vectorized=True,
    )


REGISTRY = {
    "e1": make_e1,
    "e2": make_e2,
    "quad": make_quad,
    "toy-constrained": make_toy_constrained,
}


def get_problem(problem_id: str) -> ProblemSpec:
    try:
        factory = REGISTRY[problem_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ValueError(f"unknown problem id {problem_id!r} (known: {known})") from None
    return factory()


# --- exhaustive oracle ----------------------------------------------------------

def oracle_front(
    spec: ProblemSpec,
    beta: int = 21,
    config: SolverConfig | None = None,
    eps: float = 0.0,
    workers: int | None = None,
) -> PruneReport:
    """Reference front by brute force: build the beta-point front of
    every realization (beta * |K| solves), merge, and filter.  k1c lists
    the realizations whose points survive the global filter.  ``workers``
    is accepted and has no effect: every run is serial."""
    return run_pipeline(spec, beta=beta, phases="none", config=config, eps=eps, workers=workers)
