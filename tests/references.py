"""Reference computations that only the tests use.

Finite-difference Jacobians, a small-step gradient flow and the exact
per-sample Hessians of the sample-sum landscapes. The package does not need
them to run, escape or certify.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from flatmin import LandscapeSpec

#: ``(step_fraction, grad_tol)`` of the smaller-step flow for Jacobian probes
#: of the limit map, where the fixed-step landing bias enters the derivative
#: directly.
ACCURATE_FLOW = (0.05, 3e-13)

#: ``(step_fraction, grad_tol)`` of the tiny-step reference integration, the
#: independent oracle for landing points. (The looser tolerance keeps
#: per-step movement above floating-point resolution at this step size; it
#: is still far below any comparison scale.)
REFERENCE_FLOW = (0.005, 1e-12)


def fixed_step_flow(obj, x0: np.ndarray, step_fraction: float, grad_tol: float) -> np.ndarray:
    """Gradient descent with step ``step_fraction / lipschitz_grad_hint`` until ``|grad| <= grad_tol``.

    The production flow's loop at another step and tolerance, with the same
    arithmetic; raises ``RuntimeError`` if a step no longer moves the iterate.
    """
    x = np.array(x0, dtype=float)
    h = step_fraction / obj.lipschitz_grad_hint
    g = obj.grad(x)
    while math.sqrt(float(g @ g)) > grad_tol:
        x_new = x - h * g
        if (x_new == x).all():
            raise RuntimeError(f"reference flow stalled at {x}")
        x = x_new
        g = obj.grad(x)
    return x


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    """Column-wise central-difference Jacobian of a vector map."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(fn(x + e), dtype=float) - np.asarray(fn(x - e), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=1)


def sample_hess(spec: LandscapeSpec, i: int, x: np.ndarray) -> np.ndarray:
    """Exact Hessian of the i-th per-sample loss of a sample-sum landscape at ``x``."""
    if spec.kind == "scalar_factorization":
        a = np.asarray(spec.params["a"], dtype=float)
        c = float(spec.params["c"])
        s = 2.0 * a[i] ** 2
        off = s * (2.0 * x[0] * x[1] - c)
        return np.array([[s * x[1] ** 2, off], [off, s * x[0] ** 2]])
    if spec.kind == "orthogonal_quadratic_model":
        d = int(spec.params["d"])
        y = np.asarray(spec.params["y"], dtype=float)
        out = np.zeros((d, d))
        out[i, i] = 1.5 * float(x[i]) ** 2 - y[i]
        return out
    raise ValueError(f"{spec.kind!r} is not a sample-sum landscape")


def numpy_scalar_factorization(a, c: float) -> dict[str, Callable]:
    """The factorization's per-point callables as numpy-scalar expressions.

    ``value``, ``grad``, ``sample_value``, ``sample_grad`` and ``pred_grad``
    of ``build_scalar_factorization(a, c)`` written on ``np.float64``
    indexing, the form they had before they moved to Python floats; every
    operation must round the same way in both. Overflow gives ``inf``, so
    call them under ``np.errstate(over="ignore", invalid="ignore")``.
    """
    a = np.asarray(a, dtype=float)
    c = float(c)
    m2 = float(np.mean(a**2))

    def value(x):
        return m2 * float((x[0] * x[1] - c) ** 2)

    def grad(x):
        r = 2.0 * m2 * (x[0] * x[1] - c)
        return np.array([r * x[1], r * x[0]])

    def sample_value(i, x):
        return float(a[i] ** 2 * (x[0] * x[1] - c) ** 2)

    def sample_grad(i, x):
        r = 2.0 * a[i] ** 2 * (x[0] * x[1] - c)
        return np.array([r * x[1], r * x[0]])

    def pred_grad(i, x):
        return np.array([a[i] * x[1], a[i] * x[0]])

    return {
        "value": value,
        "grad": grad,
        "sample_value": sample_value,
        "sample_grad": sample_grad,
        "pred_grad": pred_grad,
    }


def one_draw_per_candidate(region, m: int, rng) -> np.ndarray:
    """``region.draw(m, rng)`` as a loop that draws one candidate per ``random(d)`` call."""
    low = np.asarray(region.low, dtype=float)
    high = np.asarray(region.high, dtype=float)
    d = low.size
    points = []
    if region.axis_probes:
        for j in range(d):
            for bound in (high[j], low[j]):
                p = np.zeros(d)
                p[j] = bound
                if region.predicate is None or region.predicate(p):
                    points.append(p)
    tries = 0
    while len(points) < m and tries < 1000 * m:
        p = low + (high - low) * rng.generator.random(d)
        tries += 1
        if region.predicate is None or region.predicate(p):
            points.append(p)
    if len(points) < m:
        raise RuntimeError("region sampler could not find enough points satisfying the predicate")
    return np.stack(points[:m])
