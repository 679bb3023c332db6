"""Reference computations that only the tests use.

Finite-difference Jacobians, a small-step gradient flow, the closed-form
trace at the flow's landing point on the factorization family, the exact
per-sample Hessians of the sample-sum landscapes, and the earlier forms of
code the package replaced with faster code of the same bits. The package
does not need them to run, escape or certify.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from flatmin import LandscapeSpec, RngStream, SampleSumObjective
from flatmin.objectives import base_of
from flatmin.geometry import U_TOL, normalized_trace, sample_sphere_batch
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


def landing_trace(x, m2: float, c: float) -> float:
    """Normalized Hessian trace where the gradient flow of m2*(u*v - c)^2 from ``x`` lands.

    The flow conserves D = u^2 - v^2 and lands on u*v = c, where the trace
    m2*(u^2 + v^2) is m2*sqrt(D^2 + 4c^2).
    """
    d = x[0] * x[0] - x[1] * x[1]
    return m2 * math.sqrt(d * d + 4.0 * c * c)


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
        passed=bool(rel_error <= REL_TOL),
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
