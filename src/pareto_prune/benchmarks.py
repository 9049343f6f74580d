"""Built-in benchmark problems and the exhaustive brute-force oracle.

"e1" is a three-variable member of the Van Veldhuizen test suite with the
first variable continuous and the other two discretized; "e2" is a
nine-bar truss sizing problem trading material volume against nodal
displacement.  "quad" and "toy-constrained" are small synthetic problems
for exercising the solver paths (not taken from any benchmark suite).
"""

from __future__ import annotations

import math

import numpy as np

from .core import ProblemSpec
from .pipeline import PruneReport, run_pipeline
from .solver import SolverConfig

__all__ = [
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
    out = np.empty(x1.shape + (2,))
    out[..., 0] = -10.0 * np.exp(-0.2 * np.sqrt(x1 ** 2 + p ** 2)) - 10.0 * np.exp(
        -0.2 * np.sqrt(p ** 2 + q ** 2)
    )
    out[..., 1] = _osc(x1) + (_osc(p) + _osc(q))
    return out


def _e1_base(y, zb):
    """The terms of e1 that read y, at zb = z[..., (0,)] (p = x2):
    (-10 exp(-0.2 sqrt(x1^2 + p^2)), osc(x1))."""
    y = np.asarray(y, dtype=float)
    x1, p = y[..., 0], np.asarray(zb, dtype=float)[..., 0]
    out = np.empty(x1.shape + (2,))
    out[..., 0] = -10.0 * np.exp(-0.2 * np.sqrt(x1 ** 2 + p ** 2))
    out[..., 1] = _osc(x1)
    return out


def _e1_offsets(z):
    """The terms of e1 that read z alone (p, q = x2, x3):
    (-10 exp(-0.2 sqrt(p^2 + q^2)), osc(p) + osc(q)).  Added to
    :func:`_e1_base` they give :func:`_e1_objectives` bit for bit: a - b is
    a + (-b), and (-10) e is -(10 e)."""
    z = np.asarray(z, dtype=float)
    p, q = z[..., 0], z[..., 1]
    out = np.empty(p.shape + (2,))
    out[..., 0] = -10.0 * np.exp(-0.2 * np.sqrt(p ** 2 + q ** 2))
    out[..., 1] = _osc(p) + _osc(q)
    return out


def _e1_gradient(y, z):
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    x1 = y[..., 0]
    p = z[..., 0]
    r = np.sqrt(x1 ** 2 + p ** 2)
    safe_r = np.where(r > 0.0, r, 1.0)
    out = np.empty(x1.shape + (2, 1))
    out[..., 0, 0] = np.where(r > 0.0, 2.0 * np.exp(-0.2 * r) * x1 / safe_r, 0.0)
    # |x|^0.8 has an unbounded derivative at 0; clamp keeps the line
    # search finite there
    ax = np.abs(x1)
    safe_ax = np.where(ax > 0.0, ax, 1.0)
    cusp = np.where(ax > 0.0, 0.8 * np.sign(x1) * safe_ax ** (-0.2), GRAD_CLAMP)
    out[..., 1, 0] = np.minimum(np.maximum(cusp + 15.0 * x1 ** 2 * np.cos(x1 ** 3), -GRAD_CLAMP),
                                GRAD_CLAMP)
    return out


def make_e1() -> ProblemSpec:
    """Two exponential-distance terms against an oscillatory sum; the
    sin(x^3) term makes every scalarization severely multimodal in x1.
    Declared partially separable: the terms that read x1 read only p = x2
    (``base_z`` (0,)), and the rest depend on (x2, x3) alone, so a
    descent evaluates them once per realization, not on every row."""
    eleven = tuple(float(v) for v in range(-5, 6))
    return ProblemSpec(
        name="e1",
        n_y=1,
        bounds=((-5.0, 5.0),),
        discrete_sets=(eleven, eleven),
        objectives=_e1_objectives,
        gradient=_e1_gradient,
        vectorized=True,
        base_objectives=_e1_base,
        base_z=(0,),
        offsets=_e1_offsets,
    )


# --- e2: nine-bar truss sizing ------------------------------------------------

_SQRT2 = math.sqrt(2.0)

# Member coefficients of the nine-bar truss: a_i weight the volume sum,
# b_i the displacement sum (b_9 = 0: the ninth bar does not load the
# monitored node).  Bars 1-3 are sized continuously, so their
# coefficients are also kept as arrays.
_A = (1.0, 1.0, 1.0, _SQRT2, 1.0, _SQRT2, 1.0, _SQRT2, 1.0)
_B = (4.0, 1.0, 1.0, 8 * _SQRT2, 4.0, 2 * _SQRT2, 4.0, 2 * _SQRT2, 0.0)
_A3 = np.array(_A[:3])
_B3 = np.array(_B[:3])


def _e2_base(y, zb):
    """Volume and displacement of bars 1-3, summed bar by bar from 0.0 as
    numpy does; they read no z, so ``zb`` (m, 0) goes unread."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(y.shape[:-1] + (2,))
    for j in range(3):
        out[..., 0] += y[..., j] * _A[j]
        out[..., 1] += _B[j] / y[..., j]
    return out


def _e2_offsets(z):
    """The (j1, j2) offsets of bars 4-9 per row of z (m, n_z), shape
    (m, 2), or of a single z (n_z,), shape (2,)."""
    z = np.asarray(z, dtype=float)
    # fsum per row: exact, order-independent sums keep realizations that
    # are objective-identical by symmetry bitwise identical
    sums = [(math.fsum(_A[3 + j] * r[j] for j in range(6)),
             math.fsum(_B[3 + j] / r[j] for j in range(6)))
            for r in z.reshape(-1, 6).tolist()]
    return np.array(sums).reshape(z.shape[:-1] + (2,))


def _e2_objectives(y, z):
    return _e2_base(y, ()) + _e2_offsets(z)


def _e2_gradient(y, z):
    y = np.asarray(y, dtype=float)
    out = np.empty(y.shape[:-1] + (2, 3))
    out[..., 0, :] = _A3
    np.divide(-_B3, y ** 2, out=out[..., 1, :])
    return out


def make_e2() -> ProblemSpec:
    """Truss volume vs nodal displacement; bars 1-3 sized continuously,
    bars 4-9 from the catalogue {1, 5, 10, 15}.  Declared separable: bars
    1-3 read no z (``base_z`` empty) and bars 4-9 only add constants
    (``offsets``), so every solve of a weight shares one descent, and a
    solve's objectives are the base plus its realization's offsets."""
    catalogue = (1.0, 5.0, 10.0, 15.0)
    return ProblemSpec(
        name="e2",
        n_y=3,
        bounds=((2.0 / 3.0, 10.0), (1.0 / 3.0, 10.0), (1.0 / 3.0, 10.0)),
        discrete_sets=(catalogue,) * 6,
        objectives=_e2_objectives,
        gradient=_e2_gradient,
        vectorized=True,
        base_objectives=_e2_base,
        offsets=_e2_offsets,
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
