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

from .geometry import _SQUARE_TOP, _sq2, _square_band, fd_gradient
from .objectives import as_start, base_of, normalized_trace, on_floats


class FlowConvergenceError(RuntimeError):
    """Gradient flow failed to reach the gradient tolerance, or a certifier probe's trace is not finite.

    ``x_last`` and ``grad_norm`` are the last iterate and its exact gradient
    norm; ``steps`` is the step at which the solve failed: the step that
    repeated a saved iterate, for a stall.
    """

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


def _flow_error(
    kind: str, x: np.ndarray, gn: float, steps: int, grad_tol: float, hint: float = math.nan
) -> FlowConvergenceError:
    """The error of a flow solve that ends ``kind`` ("non-finite", "stalled" or "capped") after ``steps`` steps.

    A stall's message names the gradient's rounding floor at ``x``, about
    ``2**-53 * |x| * hint`` with ``hint`` the objective's
    ``lipschitz_grad_hint``: a ``grad_tol`` near or below it is out of reach.
    """
    if kind == "stalled":
        floor = 2.0**-53 * float(np.linalg.norm(x)) * hint
        message = f"flow stalled at grad norm {gn:.3e} > tol {grad_tol:.3e} (rounding floor about {floor:.1e})"
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
    the iteration stalls (repeats an iterate) before reaching the
    tolerance, and ``ValueError`` if ``x0`` is not of shape ``(dim,)`` or
    ``grad_tol`` is not positive and finite.
    :func:`gradient_flow_limits` lands many starts at once.

    The iterates are Python floats where
    :func:`~flatmin.objectives.on_floats` says so, and ndarrays otherwise;
    each form steps in its own loop: a float pair in the locals ``x0, x1,
    g0, g1`` with one ``float_grad`` call per step, an ndarray through
    ``grad``; a solve that lands makes steps + 1 gradient calls.

    One saved iterate catches a solve that cannot land (Brent's cycle
    detection): the start until step 1, then the iterate at each
    power-of-two step count. A new iterate equal to it ends the solve as
    stalled, reporting the iterate before that step: the step map is
    deterministic, so a repeat never lands. A cycle of period p entered at
    step m is seen at step P + p, with P the first power of two at or past
    both m and p. A step that moves no coordinate is a cycle of period 1,
    so it is reported at most about twice as many steps in as it occurred.

    The stopping test is ``sqrt(np.dot(g, g)) <= grad_tol``. On ndarrays
    the loop takes that exact dot at every step. On floats it compares a
    square sum ``q`` with the band of
    :func:`~flatmin.geometry._square_band` around ``grad_tol**2``: the
    exact dot at the start, and after a step the plain ``g0*g0 + g1*g1``.
    Only a sum inside the band, a non-finite one or a failure takes the
    exact norm, ``sqrt`` of the exact dot of the gradient the solve holds.
    The outcome is that of testing the exact norm at every step, bit for
    bit, and every error reports the exact norm.
    """
    if not 0.0 < grad_tol < math.inf:
        raise ValueError(f"grad_tol must be positive and finite, got {grad_tol!r}")
    obj = base_of(obj)
    h = FLOW_STEP_FRACTION / obj.lipschitz_grad_hint
    x = as_start(obj, x0)
    max_steps = FLOW_MAX_STEPS
    sqrt, isfinite = math.sqrt, math.isfinite

    # Overflow, at the start or during a diverging run, is detected and
    # reported; keep it quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        if on_floats(obj):
            grad = obj.float_grad
            lo, hi = _square_band(grad_tol)
            x0, x1 = x.tolist()
            g0, g1 = grad(x0, x1)
            q = _sq2(g0, g1)
            step = 0
            # The start, then the iterate at each power-of-two step.
            check, s0, s1 = min(1, max_steps), x0, x1
            while not q < lo:
                if not hi < q < _SQUARE_TOP:
                    gn = sqrt(_sq2(g0, g1))
                    if not isfinite(gn):
                        raise _flow_error("non-finite", (x0, x1), gn, step, grad_tol)
                    if gn <= grad_tol:
                        break
                if step == check:
                    if step == max_steps:
                        raise _flow_error("capped", (x0, x1), sqrt(_sq2(g0, g1)), step, grad_tol)
                    check, s0, s1 = min(2 * check, max_steps), x0, x1
                step += 1
                y0 = x0 - h * g0
                y1 = x1 - h * g1
                if y0 == s0 and y1 == s1:
                    # A repeat: the step map is deterministic, so this solve never lands.
                    gn = sqrt(_sq2(g0, g1))
                    raise _flow_error("stalled", (x0, x1), gn, step, grad_tol, obj.lipschitz_grad_hint)
                x0, x1 = y0, y1
                g0, g1 = grad(y0, y1)
                q = g0 * g0 + g1 * g1
            return np.array((x0, x1))

        grad = obj.grad
        g = grad(x)
        gn = sqrt(np.dot(g, g))
        step = 0
        check, seen = min(1, max_steps), x.tolist()
        while not gn <= grad_tol:
            if not isfinite(gn):
                raise _flow_error("non-finite", x, gn, step, grad_tol)
            if step == check:
                if step == max_steps:
                    raise _flow_error("capped", x, gn, step, grad_tol)
                check, seen = min(2 * check, max_steps), xs
            step += 1
            x_new = x - h * g
            xs = x_new.tolist()
            if xs == seen:
                # A repeat: the step map is deterministic, so this solve never lands.
                raise _flow_error("stalled", x, gn, step, grad_tol, obj.lipschitz_grad_hint)
            x = x_new
            g = grad(x)
            gn = sqrt(np.dot(g, g))
    return x


def gradient_flow_limits(obj, X: np.ndarray, grad_tol: float = DEFAULT_FLOW) -> np.ndarray:
    """Landing points of the gradient flows started at the rows of the ``(k, d)`` array ``X``.

    One loop steps every row that has neither landed nor failed, with the
    arithmetic of :func:`gradient_flow_limit` (gradients from ``grad_many``),
    so row ``j`` of the result equals ``gradient_flow_limit(obj, X[j],
    grad_tol)`` bit for bit. If any row fails, the
    :class:`FlowConvergenceError` of the lowest-index failing row is raised:
    the one a loop over the rows would raise first; a row that repeats an
    iterate stalls at the step its single solve does, since each live row
    keeps its own saved iterate. Rows after a failing row
    stop stepping, since their landing points are never returned.
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
        # Each live row's start, then its iterate at each power-of-two step; a
        # copy, since landed rows are written into ``out``.
        check, seen = min(1, FLOW_MAX_STEPS), out.copy()
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
                rows, x, g, gn, seen = rows[live], x[live], g[live], gn[live], seen[live]
            if not len(rows):
                break
            if step == check:
                if step == FLOW_MAX_STEPS:
                    error = _flow_error("capped", x[0].copy(), gn[0], step, grad_tol)
                    break
                check, seen = min(2 * check, FLOW_MAX_STEPS), x
            step += 1
            x_new = x - h * g
            same = x_new == seen
            if same.any():
                repeated = same.all(axis=1)
                if repeated.any():
                    # A repeat: the step map is deterministic, so this row never lands.
                    j = int(np.argmax(repeated))
                    error = _flow_error("stalled", x[j].copy(), gn[j], step, grad_tol, obj.lipschitz_grad_hint)
                    if not j:
                        break
                    rows, x_new, seen = rows[:j], x_new[:j], seen[:j]
            x = x_new
            g = obj.grad_many(x)
            gn = np.sqrt(np.vecdot(g, g))
    if error is not None:
        raise error
    return out


def trace_at_flow_limit(obj, x: np.ndarray) -> float:
    """Normalized Hessian trace evaluated at the flow landing point."""
    return normalized_trace(obj, gradient_flow_limit(obj, x))


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
        x=x.tolist(),
        phi_x=phi_x.tolist(),
        dist=dist,
        flat_grad_norm=flat_grad_norm,
        eps=float(eps),
        eps_prime=float(eps_prime),
        passed=bool(dist <= eps and flat_grad_norm <= eps_prime and no_saddle),
    )
