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
