"""Reference computations that only the tests use.

Finite-difference Jacobians, a small-step gradient flow, the closed-form
trace at the flow's landing point on the factorization family, the exact
per-sample Hessians of the sample-sum landscapes, and the earlier forms of
code the package replaced with faster or shorter code of the same bits.
The package does not need them to run, escape or certify.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from flatmin import LandscapeSpec, RngStream, SampleSumObjective, Schedule, flow, geometry
from flatmin.objectives import as_start, base_of, normalized_trace
from flatmin.geometry import _SQUARE_TOP, U_TOL, _square_band, sample_sphere_batch
from flatmin.oracle import REL_TOL, RS_ESTIMATOR_LEAST_N, SA_DFACTOR_LEAST_N, OracleReport

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


def _two_call_iterates(obj) -> tuple[Callable, Callable, Callable, Callable, Callable]:
    """``(point, coords, grad_norm, grad_sq, descend)`` of the Objective ``obj``, as the flow once took them.

    Python-float pairs where ``obj`` has both ``float_*`` formulas, float64
    ndarrays otherwise; the exact self-dot is ``geometry._sq2`` or ``np.dot``.
    """
    if obj.float_value is None or obj.float_grad is None:

        def grad_norm(x):
            g = obj.grad(x)
            return g, math.sqrt(np.dot(g, g))

        def grad_sq(x):
            g = obj.grad(x)
            return g, float(np.dot(g, g))

        return lambda x: x, lambda x: tuple(x.tolist()), grad_norm, grad_sq, lambda x, g, h: x - h * g

    f_grad = obj.float_grad

    def float_grad_norm(x):
        g0, g1 = g = f_grad(*x)
        return g, math.sqrt(geometry._sq2(g0, g1))

    def float_grad_sq(x):
        g0, g1 = g = f_grad(*x)
        return g, g0 * g0 + g1 * g1

    def descend(x, g, h):
        x0, x1 = x
        g0, g1 = g
        return x0 - h * g0, x1 - h * g1

    return lambda x: tuple(x.tolist()), tuple, float_grad_norm, float_grad_sq, descend


def two_call_flow(obj, x0: np.ndarray, grad_tol: float) -> np.ndarray:
    """``flow.gradient_flow_limit`` as it was before each step became one ``flow_step`` call.

    The loop is the earlier one verbatim: a step is ``descend``, a tuple
    comparison of the coordinates before and after for the stall test, and
    a second call for the new gradient and its square sum. It reads
    ``flow.FLOW_MAX_STEPS`` when called, so a patched cap holds here too.
    """
    obj = base_of(obj)
    h = flow.FLOW_STEP_FRACTION / obj.lipschitz_grad_hint
    point, coords, grad_norm, grad_sq, descend = _two_call_iterates(obj)
    x = point(as_start(obj, x0))
    lo, hi = _square_band(grad_tol)
    max_steps = flow.FLOW_MAX_STEPS

    # Overflow, at the start or during a diverging run, is detected and
    # reported; keep it quiet.
    with np.errstate(over="ignore", invalid="ignore"):
        g, q = grad_sq(x)
        step = 0
        while not q < lo:
            if not hi < q < _SQUARE_TOP:
                gn = grad_norm(x)[1]
                if not math.isfinite(gn):
                    raise flow._flow_error("non-finite", x, gn, step, grad_tol)
                if gn <= grad_tol:
                    break
            if step == max_steps:
                raise flow._flow_error("capped", x, grad_norm(x)[1], step, grad_tol)
            step += 1
            x_new = descend(x, g, h)
            if coords(x_new) == coords(x):
                # Step underflows at this resolution; nothing further can move.
                raise flow._flow_error("stalled", x, grad_norm(x)[1], step, grad_tol)
            x = x_new
            g, q = grad_sq(x)
    return np.asarray(x)


def landing_trace(x, m2: float, c: float) -> float:
    """Normalized Hessian trace where the gradient flow of m2*(u*v - c)^2 from ``x`` lands.

    The flow conserves D = u^2 - v^2 and lands on u*v = c, where the trace
    m2*(u^2 + v^2) is m2*sqrt(D^2 + 4c^2).
    """
    d = x[0] * x[0] - x[1] * x[1]
    return m2 * math.sqrt(d * d + 4.0 * c * c)


def landing_point(x, c: float) -> tuple[float, float]:
    """Where the gradient flow of m2*(u*v - c)^2 from ``x`` lands, for c > 0.

    The landing point has u*v = c and the start's D = u^2 - v^2, so
    u^2 = (D + sqrt(D^2 + 4c^2)) / 2. The coordinate of larger magnitude
    never crosses zero and keeps its sign; it is solved for first, and the
    other is c over it, so neither cancels.
    """
    d = x[0] * x[0] - x[1] * x[1]
    s = math.sqrt(d * d + 4.0 * c * c)
    if d >= 0.0:
        u = math.copysign(math.sqrt(0.5 * (s + d)), x[0])
        return u, c / u
    v = math.copysign(math.sqrt(0.5 * (s - d)), x[1])
    return c / v, v


def flat_grad_norm(phi, m2: float, c: float) -> float:
    """Norm of the gradient of x -> landing_trace(x, m2, c), at a landing point ``phi``.

    The map is m2*sqrt(D^2 + 4c^2) with grad D = 2*(u, -v), so its
    gradient's norm is 2*m2*|D|*|phi| / sqrt(D^2 + 4c^2).
    """
    d = phi[0] * phi[0] - phi[1] * phi[1]
    return 2.0 * m2 * abs(d) * math.hypot(phi[0], phi[1]) / math.sqrt(d * d + 4.0 * c * c)


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
    indexing, the form they had before they moved to Python floats, and
    ``grad_many`` as two stacked columns, where the package fills the
    columns of one array; every operation must round the same way in both. Overflow gives ``inf``, so
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

    def grad_many(X):
        r = 2.0 * m2 * (X[:, 0] * X[:, 1] - c)
        return np.stack([r * X[:, 1], r * X[:, 0]], axis=1)

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
        "grad_many": grad_many,
        "sample_value": sample_value,
        "sample_grad": sample_grad,
        "pred_grad": pred_grad,
    }


def numpy_array_orthogonal_model(n: int, y) -> dict[str, Callable]:
    """``value`` and ``grad`` of ``build_orthogonal_quadratic_model(d, n, y)`` as length-n array expressions.

    The form they had before they moved to Python floats; every operation
    must round the same way in both.
    """
    y = np.asarray(y, dtype=float)

    def preds(x):
        return 0.5 * np.asarray(x[:n], dtype=float) ** 2

    def value(x):
        return float(np.mean(0.5 * (preds(x) - y) ** 2))

    def grad(x):
        out = np.zeros(x.size)
        out[:n] = (preds(x) - y) * np.asarray(x[:n], dtype=float) / n
        return out

    return {"value": value, "grad": grad}


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


def unblocked_check_sa_dfactor(obj, x_star, rho: float, n_samples: int, rng, chunk: int) -> OracleReport:
    """``check_sa_dfactor`` as it was before its chunks were evaluated in blocks, with chunk size ``chunk``.

    Each chunk's sphere directions are drawn, shifted and evaluated as whole
    ``(chunk, d)`` arrays.
    """

    def _chunks(n):
        for done in range(0, n, chunk):
            yield min(chunk, n - done)

    if not isinstance(obj, SampleSumObjective):
        raise TypeError("d-factor check needs a SampleSumObjective")
    if n_samples < SA_DFACTOR_LEAST_N:
        raise ValueError(f"need at least {SA_DFACTOR_LEAST_N} sample, got {n_samples}")
    base = obj.base
    d = base.dim
    x_star = np.asarray(x_star, dtype=float)

    # Per-sample curvature along u_i = pred_grad_i / ||pred_grad_i||.
    quad_sa = np.empty(obj.n)
    for i in range(obj.n):
        p = np.asarray(obj.pred_grad(i, x_star), dtype=float)
        npn = float(np.linalg.norm(p))
        if npn <= U_TOL:
            raise ValueError(f"prediction gradient of sample {i} vanishes at the minimum")
        ui = p / npn
        f0 = obj.sample_value(i, x_star)
        fp = obj.sample_value(i, x_star + rho * ui)
        fm = obj.sample_value(i, x_star - rho * ui)
        quad_sa[i] = (fp - 2.0 * f0 + fm) / rho**2

    counts = np.zeros(obj.n, dtype=np.int64)
    for m in _chunks(n_samples):
        idx = rng.generator.integers(0, obj.n, size=m)
        counts += np.bincount(idx, minlength=obj.n)
    measured_sa = float(np.dot(counts, quad_sa) / n_samples)

    f0 = base.value(x_star)
    total = 0.0
    for m in _chunks(n_samples):
        D = rho * sample_sphere_batch(d, m, rng)
        vp = base.value_many(x_star[None, :] + D)
        vm = base.value_many(x_star[None, :] - D)
        total += float(np.sum(vp - 2.0 * f0 + vm))
    measured_rs = total / (n_samples * rho**2)

    tr_bar = normalized_trace(base, x_star)
    ratio = measured_sa / measured_rs
    rel_error = abs(ratio - d) / d
    return OracleReport(
        name="sa-dfactor",
        n_samples=n_samples,
        measured=ratio,
        reference=float(d),
        rel_error=rel_error,
        tolerance=REL_TOL,
        extras={
            "measured_sa": measured_sa,
            "measured_rs": measured_rs,
            "reference_sa": d * tr_bar,
            "reference_rs": tr_bar,
            "rho": rho,
        },
    )


def unblocked_estimator_means(obj, x, rhos, n_samples: int, rng: RngStream, chunk: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """``oracle._estimator_means`` with its chunks evaluated whole, with chunk size ``chunk``.

    Each chunk's shifts broadcast ``x`` over the rows, the projection is a
    row-local ``np.vecdot`` and an ``np.outer``, and each chunk sum adds the
    chunk's rows in order.
    """

    def _chunks(n):
        for done in range(0, n, chunk):
            yield min(chunk, n - done)

    if n_samples < RS_ESTIMATOR_LEAST_N:
        raise ValueError(f"need at least {RS_ESTIMATOR_LEAST_N} samples, got {n_samples}")
    base = base_of(obj)
    x = np.asarray(x, dtype=float)
    d = base.dim
    u = base.grad(x)
    nu = float(np.linalg.norm(u))
    uhat = u / nu if nu > U_TOL else None

    def project_rows(V):
        if uhat is None:
            return V
        return V - np.outer(np.vecdot(V, uhat), uhat)

    n_pairs = n_samples // 2
    totals = [np.zeros(d) for _ in rhos]
    for m in _chunks(n_pairs):
        G = sample_sphere_batch(d, m, rng)
        for total, rho in zip(totals, rhos):
            D = rho * G
            total += np.add.accumulate(project_rows(base.grad_many(x[None, :] + D)))[-1]
            total += np.add.accumulate(project_rows(base.grad_many(x[None, :] - D)))[-1]

    ref_dir = base.normalized_trace_grad(x)
    if uhat is not None:
        ref_dir = ref_dir - np.dot(ref_dir, uhat) * uhat
    return [(total / (2 * n_pairs), 0.5 * rho**2 * ref_dir) for total, rho in zip(totals, rhos)]


def two_block_rs_schedule(eps, delta, beta_hat, c, budget_cap) -> Schedule:
    """``rs_schedule``'s formulas as written before RS and SA shared one builder; inputs unchecked."""
    raw_steps = c.c_T * eps**-3 * delta**-4
    return Schedule(
        eta=c.c_eta * delta * eps,
        eta_prime=1.0 / beta_hat,
        rho=c.c_rho * delta * math.sqrt(eps),
        eps0=c.c_eps0 * delta**1.5 * eps,
        steps=max(1, int(min(raw_steps, budget_cap))),
        beta_hat=beta_hat,
        constants=c,
    )


def two_block_sa_schedule(eps, delta, d, beta_hat, c, budget_cap) -> Schedule:
    """``sa_schedule``'s formulas as written before RS and SA shared one builder; inputs unchecked."""
    nu = min(float(d), eps ** (-1.0 / 3.0))
    raw_steps = c.c_T * eps**-2 * delta**-4 * max(1.0, 1.0 / (d**3 * eps)) / d
    return Schedule(
        eta=c.c_eta * nu * delta * eps,
        eta_prime=1.0 / beta_hat,
        rho=c.c_rho * nu * delta * math.sqrt(eps),
        eps0=c.c_eps0 * nu**1.5 * delta**1.5 * eps,
        steps=max(1, int(min(raw_steps, budget_cap))),
        beta_hat=beta_hat,
        nu=nu,
        constants=c,
    )
