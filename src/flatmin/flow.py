"""Gradient-flow limit map and the flatness certifier built on it.

The limit map sends a point to the landing point of the gradient flow
x' = -grad f(x). It is discretized as fixed-step gradient descent (the
landing point, not the path, is the target; local PL geometry makes the
iteration contract geometrically). A tiny-step reference mode backs the
brute-force oracles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .geometry import fd_gradient, normalized_trace
from .objectives import Objective, base_of


class FlowConvergenceError(RuntimeError):
    """Gradient flow failed to reach the gradient tolerance."""

    def __init__(self, message: str, x_last: np.ndarray, grad_norm: float, steps: int):
        super().__init__(message)
        self.x_last = np.asarray(x_last, dtype=float)
        self.grad_norm = float(grad_norm)
        self.steps = int(steps)


@dataclass(frozen=True)
class FlowConfig:
    """Discretization of the gradient flow: fixed steps of
    ``step_fraction / lipschitz_grad_hint`` until the gradient norm is at
    most ``grad_tol``.
    """

    grad_tol: float = 1e-10
    max_steps: int = 10_000_000
    step_fraction: float = 0.5

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")

    def resolve_step(self, obj: Objective) -> float:
        return self.step_fraction / obj.lipschitz_grad_hint


#: Production default: cheap, used for trajectory logging.
DEFAULT_FLOW = FlowConfig()

#: Tight-tolerance mode backing finite differences of trace-at-limit; the
#: landing noise must sit far below the probe step squared.
ORACLE_FLOW = FlowConfig(grad_tol=1e-13)

#: Smaller-step mode for Jacobian probes of the limit map, where the
#: fixed-step landing bias enters the derivative directly.
ACCURATE_FLOW = FlowConfig(grad_tol=3e-13, step_fraction=0.05)

#: Tiny-step reference integration, the independent oracle for landing points.
#: (The looser tolerance keeps per-step movement above floating-point
#: resolution at this step size; it is still far below any comparison scale.)
REFERENCE_FLOW = FlowConfig(grad_tol=1e-12, step_fraction=0.005)


@dataclass(frozen=True)
class FlatnessCertificate:
    """Outcome of the two-inequality flatness check at a query point.

    ``passed`` holds iff ``dist <= eps`` and ``flat_grad_norm <= eps_prime``.
    """

    x: list
    phi_x: list
    dist: float
    flat_grad_norm: float
    eps: float
    eps_prime: float
    passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def gradient_flow_limit(obj, x0: np.ndarray, cfg: FlowConfig = DEFAULT_FLOW) -> np.ndarray:
    """Landing point of the gradient flow started at ``x0``.

    Returns a point whose gradient norm is at most ``cfg.grad_tol``. Raises
    :class:`FlowConvergenceError` (carrying the last iterate and gradient
    norm) if ``cfg.max_steps`` is exhausted or the iteration stalls at
    floating-point resolution before reaching the tolerance.
    """
    obj = base_of(obj)
    x = np.array(x0, dtype=float)
    g = obj.grad(x)
    gn = math.sqrt(float(g @ g))
    if not math.isfinite(gn):
        raise FlowConvergenceError("non-finite gradient at start", x, gn, 0)
    if gn <= cfg.grad_tol:
        return x
    h = cfg.resolve_step(obj)
    # Overflow during a diverging run is detected and reported; keep it quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        return _flow_loop(obj, x, g, gn, h, cfg)


def _flow_loop(obj, x, g, gn, h, cfg):
    for step in range(1, cfg.max_steps + 1):
        x_new = x - h * g
        if (x_new == x).all():
            # Step underflows at this resolution; nothing further can move.
            raise FlowConvergenceError(
                f"flow stalled at grad norm {gn:.3e} > tol {cfg.grad_tol:.3e}", x, gn, step
            )
        x = x_new
        g = obj.grad(x)
        gn = math.sqrt(float(g @ g))
        if not math.isfinite(gn):
            raise FlowConvergenceError("non-finite gradient during flow", x, gn, step)
        if gn <= cfg.grad_tol:
            return x
    raise FlowConvergenceError(
        f"flow did not converge in {cfg.max_steps} steps (grad norm {gn:.3e})",
        x,
        gn,
        cfg.max_steps,
    )


def trace_at_flow_limit(obj, x: np.ndarray, cfg: FlowConfig = DEFAULT_FLOW) -> float:
    """Normalized Hessian trace evaluated at the flow landing point."""
    base = base_of(obj)
    return normalized_trace(base, gradient_flow_limit(base, x, cfg))


def restricted_trace_gradient(
    obj, x_star: np.ndarray, h: float = 1e-4, cfg: FlowConfig = ORACLE_FLOW
) -> np.ndarray:
    """Gradient of x -> normalized_trace(flow_limit(x)) at ``x_star``, by central FD.

    ``x_star`` should already be within gradient tolerance of the minima set;
    the 2*dim flow probes then stay in the flow-convergent neighborhood. Flow
    failures at any probe propagate.
    """
    base = base_of(obj)

    def composed(p):
        return trace_at_flow_limit(base, p, cfg)

    return fd_gradient(composed, np.asarray(x_star, dtype=float), h)


def certify_flat(
    obj,
    x: np.ndarray,
    eps: float,
    eps_prime: float,
    cfg: FlowConfig = DEFAULT_FLOW,
    fd_step: float = 1e-4,
) -> FlatnessCertificate:
    """Check the two-inequality approximate-flatness condition at ``x``.

    Computes the flow landing point, the distance to it, and the norm of the
    restricted trace gradient there; passes iff both thresholds hold.
    """
    if eps <= 0 or eps_prime <= 0:
        raise ValueError("eps and eps_prime must be positive")
    base = base_of(obj)
    x = np.asarray(x, dtype=float)
    phi_x = gradient_flow_limit(base, x, cfg)
    dist = float(np.linalg.norm(x - phi_x))
    flat_grad = restricted_trace_gradient(base, phi_x, h=fd_step, cfg=ORACLE_FLOW)
    flat_grad_norm = float(np.linalg.norm(flat_grad))
    return FlatnessCertificate(
        x=[float(v) for v in x],
        phi_x=[float(v) for v in phi_x],
        dist=dist,
        flat_grad_norm=flat_grad_norm,
        eps=float(eps),
        eps_prime=float(eps_prime),
        passed=bool(dist <= eps and flat_grad_norm <= eps_prime),
    )
