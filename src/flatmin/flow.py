"""Gradient-flow limit map and the flatness certifier built on it.

The limit map sends a point to the landing point of the gradient flow
x' = -grad f(x). It is discretized as fixed-step gradient descent (the
landing point, not the path, is the target; local PL geometry makes the
iteration contract geometrically). A tight-tolerance mode backs the
certifier's finite-difference probes.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import _SQUARE_TOP, _square_band, fd_gradient, normalized_trace
from .objectives import as_start, base_of, iterates


class FlowConvergenceError(RuntimeError):
    """Gradient flow failed to reach the gradient tolerance, or a certifier probe's trace is not finite."""

    def __init__(self, message: str, x_last: np.ndarray, grad_norm: float, steps: int):
        super().__init__(message)
        self.x_last = np.asarray(x_last, dtype=float)
        self.grad_norm = float(grad_norm)
        self.steps = int(steps)


#: Gradient tolerance of the flow: the production default, used for
#: trajectory logging and the certificate's landing point.
DEFAULT_FLOW = 1e-10

#: Tight tolerance backing finite differences of trace-at-limit; the
#: landing noise must sit far below the probe step squared.
ORACLE_FLOW = 1e-13

#: Step of the flow as a fraction of 1 / lipschitz_grad_hint.
FLOW_STEP_FRACTION = 0.5

#: Most steps one flow solve takes before it gives up.
FLOW_MAX_STEPS = 10_000_000

#: Central-difference step of the certifier's restricted trace gradient.
TRACE_FD_STEP = 1e-4

#: Most negative Hessian eigenvalue a certified landing point may have, as a
#: fraction of ``lipschitz_grad_hint``. Near a minimum the least eigenvalue
#: is a rounding error away from zero or above it; at a saddle it is a
#: sizable negative fraction of the hint (-1/28 at the hyperbola's origin).
CURVATURE_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class FlatnessCertificate:
    """Outcome of the two-inequality flatness check at a query point.

    ``passed`` holds iff ``dist <= eps``, ``flat_grad_norm <= eps_prime``
    and the landing point ``phi_x`` is no saddle: the least eigenvalue of
    the Hessian there is at least ``-CURVATURE_TOL * lipschitz_grad_hint``.
    A stationary saddle is its own landing point, and its symmetric probes
    cancel, so only that third test refuses it. Its eigenvalue is not a
    field of the certificate.
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


def _flow_error(kind: str, x: np.ndarray, gn: float, steps: int, grad_tol: float) -> FlowConvergenceError:
    """The error of a flow solve that ends ``kind`` ("non-finite", "stalled" or "capped") after ``steps`` steps."""
    if kind == "stalled":
        message = f"flow stalled at grad norm {gn:.3e} > tol {grad_tol:.3e}"
    elif kind == "capped":
        message = f"flow did not converge in {steps} steps (grad norm {gn:.3e})"
    else:
        message = "non-finite gradient " + ("at start" if steps == 0 else "during flow")
    return FlowConvergenceError(message, x, gn, steps)


def gradient_flow_limit(obj, x0: np.ndarray, grad_tol: float = DEFAULT_FLOW) -> np.ndarray:
    """Landing point of the gradient flow started at ``x0``.

    Takes steps of ``FLOW_STEP_FRACTION / lipschitz_grad_hint`` until the
    gradient norm is at most ``grad_tol``. Raises
    :class:`FlowConvergenceError` (carrying the last iterate and gradient
    norm) if the gradient is not finite, ``FLOW_MAX_STEPS`` is exhausted or
    the iteration stalls at floating-point resolution before reaching the
    tolerance, and ``ValueError`` if ``x0`` is not of shape ``(dim,)`` or
    ``grad_tol`` is not positive and finite.
    :func:`gradient_flow_limits` lands many starts at once.

    The iterates are held as :func:`~flatmin.objectives.iterates` chooses,
    and each step is one call of its ``flow_step``, which moves the iterate
    and returns its gradient and square sum, or None if nothing moved.
    Each step tests the gradient's square sum against the band of
    :func:`~flatmin.geometry._square_band` around ``grad_tol**2``; only a
    sum inside the band, a non-finite one or a failure takes the exact
    norm. The outcome is that of testing the exact norm at every step, bit
    for bit, and every error reports the exact norm.
    """
    if not 0.0 < grad_tol < math.inf:
        raise ValueError(f"grad_tol must be positive and finite, got {grad_tol!r}")
    obj = base_of(obj)
    h = FLOW_STEP_FRACTION / obj.lipschitz_grad_hint
    point, _, grad_norm, grad_sq, _, flow_step = iterates(obj)
    x = point(as_start(obj, x0))
    lo, hi = _square_band(grad_tol)
    max_steps = FLOW_MAX_STEPS

    # Overflow, at the start or during a diverging run, is detected and
    # reported; keep it quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        g, q = grad_sq(x)
        step = 0
        while not q < lo:
            if not hi < q < _SQUARE_TOP:
                gn = grad_norm(x)[1]
                if not math.isfinite(gn):
                    raise _flow_error("non-finite", x, gn, step, grad_tol)
                if gn <= grad_tol:
                    break
            if step == max_steps:
                raise _flow_error("capped", x, grad_norm(x)[1], step, grad_tol)
            step += 1
            moved = flow_step(x, g, h)
            if moved is None:
                # Step underflows at this resolution; nothing further can move.
                raise _flow_error("stalled", x, grad_norm(x)[1], step, grad_tol)
            x, g, q = moved
    return np.asarray(x)


def gradient_flow_limits(obj, X: np.ndarray, grad_tol: float = DEFAULT_FLOW) -> np.ndarray:
    """Landing points of the gradient flows started at the rows of the ``(k, d)`` array ``X``.

    One loop steps every row that has neither landed nor failed, with the
    arithmetic of :func:`gradient_flow_limit` (gradients from ``grad_many``),
    so row ``j`` of the result equals ``gradient_flow_limit(obj, X[j],
    grad_tol)`` bit for bit. If any row fails, the
    :class:`FlowConvergenceError` of the lowest-index failing row is raised:
    the one a loop over the rows would raise first. Rows after a failing
    row stop stepping, since their landing points are never returned.
    ``ValueError`` if ``X`` is not of shape ``(k, dim)`` or ``grad_tol`` is
    not positive and finite.
    """
    if not 0.0 < grad_tol < math.inf:
        raise ValueError(f"grad_tol must be positive and finite, got {grad_tol!r}")
    obj = base_of(obj)
    out = as_start(obj, X, rows=True)
    rows = np.arange(len(out))
    x = out
    error = None
    h = FLOW_STEP_FRACTION / obj.lipschitz_grad_hint
    with np.errstate(over="ignore", invalid="ignore"):
        g = obj.grad_many(x)
        gn = np.sqrt(np.vecdot(g, g))
        step = 0
        while True:
            # A row stays live until it lands or its gradient is not finite (NaN is neither).
            live = (gn > grad_tol) & (gn < math.inf)
            if not live.all():
                landed = gn <= grad_tol
                bad = ~(live | landed)
                if bad.any():
                    j = int(np.argmax(bad))
                    error = _flow_error("non-finite", x[j].copy(), gn[j], step, grad_tol)
                    live[j:] = landed[j:] = False
                out[rows[landed]] = x[landed]
                rows, x, g, gn = rows[live], x[live], g[live], gn[live]
            if not len(rows):
                break
            if step == FLOW_MAX_STEPS:
                error = _flow_error("capped", x[0].copy(), gn[0], step, grad_tol)
                break
            step += 1
            x_new = x - h * g
            unmoved = x_new == x
            if unmoved.any():
                stalled = unmoved.all(axis=1)
                if stalled.any():
                    # Steps underflow at this resolution; nothing further can move.
                    j = int(np.argmax(stalled))
                    error = _flow_error("stalled", x[j].copy(), gn[j], step, grad_tol)
                    if not j:
                        break
                    rows, x_new = rows[:j], x_new[:j]
            x = x_new
            g = obj.grad_many(x)
            gn = np.sqrt(np.vecdot(g, g))
    if error is not None:
        raise error
    return out


def trace_at_flow_limit(obj, x: np.ndarray) -> float:
    """Normalized Hessian trace evaluated at the flow landing point."""
    base = base_of(obj)
    return normalized_trace(base, gradient_flow_limit(base, x))


def restricted_trace_gradient(obj, x_star: np.ndarray) -> np.ndarray:
    """Gradient of x -> normalized_trace(flow_limit(x)) at ``x_star``, by central FD.

    The probes step ``TRACE_FD_STEP`` along each axis and land with
    ``ORACLE_FLOW``. ``x_star`` should already be within gradient tolerance
    of the minima set; the 2*dim flow probes then stay in the
    flow-convergent neighborhood. Flow failures at any probe propagate, and
    a probe trace that overflows raises :class:`FlowConvergenceError` too.
    """
    base = base_of(obj)
    x_star = np.asarray(x_star, dtype=float)

    def probe(p):
        return normalized_trace(base, gradient_flow_limit(base, p, ORACLE_FLOW))

    # A non-finite probe trace makes the difference non-finite; it is
    # reported below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        g = fd_gradient(probe, x_star, TRACE_FD_STEP)
    if not np.isfinite(g).all():
        raise FlowConvergenceError("non-finite trace at a certifier probe", x_star, math.nan, 0)
    return g


def certify_flat(obj, x: np.ndarray, eps: float, eps_prime: float) -> FlatnessCertificate:
    """Check the two-inequality approximate-flatness condition at ``x``.

    Computes the flow landing point, the distance to it, and the norm of the
    restricted trace gradient there; passes iff both thresholds hold and
    the Hessian at the landing point has no eigenvalue below
    ``-CURVATURE_TOL * lipschitz_grad_hint`` (no saddle).
    ``eps`` and ``eps_prime`` must be positive and finite.
    """
    if not (0.0 < eps < math.inf and 0.0 < eps_prime < math.inf):
        raise ValueError("eps and eps_prime must be positive and finite")
    base = base_of(obj)
    x = np.asarray(x, dtype=float)
    phi_x = gradient_flow_limit(base, x)
    dist = float(np.linalg.norm(x - phi_x))
    flat_grad = restricted_trace_gradient(base, phi_x)
    flat_grad_norm = float(np.linalg.norm(flat_grad))
    no_saddle = np.linalg.eigvalsh(base.hess(phi_x))[0] >= -CURVATURE_TOL * base.lipschitz_grad_hint
    return FlatnessCertificate(
        x=[float(v) for v in x],
        phi_x=[float(v) for v in phi_x],
        dist=dist,
        flat_grad_norm=flat_grad_norm,
        eps=float(eps),
        eps_prime=float(eps_prime),
        passed=bool(dist <= eps and flat_grad_norm <= eps_prime and no_saddle),
    )
