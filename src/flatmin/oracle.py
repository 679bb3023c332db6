"""Brute-force verification suite for the estimator and curvature identities.

Every check here recomputes its quantity through an arithmetic path separate
from the optimizer step code (sphere moments from raw chunked sums, the
perturbation mean from inline batched projections, curvature signals from
zeroth-order second differences), so agreement between the two is evidence
rather than tautology. All Monte-Carlo loops reduce over fixed-size chunks in
a fixed order, making every report deterministic given (seed, N).

A chunk (``CHUNK`` draws) is the reduction unit: its sum is added to the
running total. The estimator and d-factor checks evaluate a chunk in blocks
of ``BLOCK`` float64 values (``max(1, BLOCK // d)`` rows), which bounds the
working arrays; a block changes no result, since successive sphere batches
are the rows of one batch and every step before the chunk's sum is
row-wise. The estimator's projection is row-local ``np.vecdot``, since a
BLAS ``V @ uhat`` may round a row by its place in the call, and it carries a
chunk's sum across the blocks: ``np.add.accumulate`` adds the rows one after
another, and a block continues the sum by adding it to its first row.

Those two checks draw each sphere block in the caller's thread when they
evaluate it, so the draws and every reduction are those of a sequential loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable, Iterator

import numpy as np

from .geometry import RngStream, U_TOL, sample_sphere_batch
from .objectives import SampleSumObjective, base_of, normalized_trace
from .flow import gradient_flow_limits
from .optimizers import DESCENT_SLACK, Trajectory

#: Fixed Monte-Carlo chunk size; reduction order must not depend on platform.
CHUNK = 65536

#: Float64 values per working array within a chunk: a block holds
#: ``max(1, BLOCK // d)`` rows. It bounds the working arrays and changes no result.
BLOCK = 32768

#: Standard errors allowed before a CLT-scaled check fails.
CLT_SIGMAS = 4.0

#: Relative tolerance of the estimator-mean and dimension-factor checks.
REL_TOL = 0.1

#: The estimator check's absolute floor is this multiple of rho^3, the order
#: of the remainder beyond the 0.5*rho^2 law.
RHO3_FLOOR = 1.0

#: Least shrink of the estimator remainder when the radius halves (the law
#: predicts 4).
DECAY_FACTOR = 3.0

#: Least sample count each Monte-Carlo check accepts (the decay check runs the
#: estimator check, so it shares that one).
SPHERE_MOMENTS_LEAST_N = 10_000
RS_ESTIMATOR_LEAST_N = 2
SA_DFACTOR_LEAST_N = 1


def _chunks(n: int, size: int) -> Iterator[int]:
    """Sizes of the successive pieces of at most ``size`` that make up ``n`` draws."""
    for done in range(0, n, size):
        yield min(size, n - done)


def _sphere_blocks(x: np.ndarray, radius: float, n: int, rng: RngStream):
    """``(X, chunks)`` for ``n`` draws on the sphere of ``radius`` at the dimension d of ``x``.

    ``chunks`` yields, per chunk of ``CHUNK`` draws, the iterator of its
    blocks of ``max(1, BLOCK // d)`` rows, and ``X`` is ``x`` tiled over the
    rows of the largest block. Each block is drawn and scaled in the
    caller's thread when the caller takes it, so the stream is drawn in the
    order of a sequential loop.
    """
    d = x.size
    rows = min(max(1, BLOCK // d), n)

    def blocks(m):
        for b in _chunks(m, rows):
            G = sample_sphere_batch(d, b, rng)
            yield G if radius == 1.0 else np.multiply(radius, G, out=G)

    return np.tile(x, (rows, 1)), (blocks(m) for m in _chunks(n, CHUNK))


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one verification check.

    ``rel_error`` is the check's normalized deviation. ``passed`` is not an
    argument: it is derived, and holds iff ``rel_error <= tolerance``
    (vacuously for not-applicable reports), so a NaN error fails.
    """

    name: str
    n_samples: int
    measured: object
    reference: object
    rel_error: float
    tolerance: float
    passed: bool = field(init=False)
    not_applicable: bool = False
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.not_applicable or self.rel_error <= self.tolerance))

    def to_dict(self) -> dict:
        return asdict(self)


def check_sphere_moments(d: int, n_samples: int, rng: RngStream) -> OracleReport:
    """First and second moments of the uniform sphere sampler.

    The mean should vanish and the second moment should equal I/d; both are
    compared against exact CLT scales (per-coordinate variance 1/d, fourth
    moment 3/(d(d+2))) at ``CLT_SIGMAS`` standard errors.
    """
    if n_samples < SPHERE_MOMENTS_LEAST_N:
        raise ValueError(f"need at least {SPHERE_MOMENTS_LEAST_N} samples, got {n_samples}")
    sum_g = np.zeros(d)
    sum_outer = np.zeros((d, d))
    for m in _chunks(n_samples, CHUNK):
        G = sample_sphere_batch(d, m, rng)
        sum_g += G.sum(axis=0)
        sum_outer += G.T @ G
    mean_g = sum_g / n_samples
    mean_outer = sum_outer / n_samples
    mean_inf = float(np.abs(mean_g).max())
    fro_dev = float(np.linalg.norm(mean_outer - np.eye(d) / d))

    sigma_mean = math.sqrt(1.0 / (d * n_samples))
    # E||mean(gg^T) - I/d||_F^2 = (1 - 1/d)/N from the exact sphere moments.
    rms_fro = math.sqrt(max(1.0 - 1.0 / d, 0.0) / n_samples)
    tol_mean = CLT_SIGMAS * sigma_mean
    tol_fro = CLT_SIGMAS * rms_fro if rms_fro > 0 else 10 * np.finfo(float).eps
    rel_error = max(mean_inf / tol_mean, fro_dev / tol_fro)
    return OracleReport(
        name="sphere-moments",
        n_samples=n_samples,
        measured=[mean_inf, fro_dev],
        reference=[0.0, 0.0],
        rel_error=rel_error,
        tolerance=1.0,
        extras={"d": d, "tol_mean_inf": tol_mean, "tol_cov_fro": tol_fro},
    )


def _estimator_means(obj, x, rhos, n_samples: int, rng: RngStream) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(measured, reference)`` of the smoothed-perturbation mean at each radius in ``rhos``.

    Every radius is evaluated on the same antithetic sphere pairs: each chunk
    is drawn once. Per radius, the chunk sums are added in the order one
    radius alone would add them, so the result does not depend on the other
    radii.
    """
    if n_samples < RS_ESTIMATOR_LEAST_N:
        raise ValueError(f"need at least {RS_ESTIMATOR_LEAST_N} samples, got {n_samples}")
    base = base_of(obj)
    x = np.asarray(x, dtype=float)
    d = base.dim
    u = base.grad(x)
    nu = float(np.linalg.norm(u))
    uhat = u / nu if nu > U_TOL else None

    def shifted_sum(G, rho, shift, carry):
        """Sum of the projected gradients at ``shift(x, rho * G)`` after ``carry``, the chunk's rows before ``G``'s."""
        Pb = np.multiply(rho, G, out=P[: len(G)])
        V = base.grad_many(shift(X[: len(G)], Pb, out=Pb))
        if uhat is not None:
            s = np.vecdot(V, uhat)
            for j in range(d):
                V[:, j] -= s * uhat[j]
        if carry is not None:
            V[0] += carry
        return np.add.accumulate(V, axis=0, out=V)[-1].copy()

    n_pairs = n_samples // 2
    totals = [np.zeros(d) for _ in rhos]
    X, chunks = _sphere_blocks(x, 1.0, n_pairs, rng)
    P = np.empty_like(X)
    for blocks in chunks:
        sums = [[None, None] for _ in rhos]
        for G in blocks:
            for carry, rho in zip(sums, rhos):
                carry[0] = shifted_sum(G, rho, np.add, carry[0])
                carry[1] = shifted_sum(G, rho, np.subtract, carry[1])
        for total, (plus, minus) in zip(totals, sums):
            total += plus
            total += minus

    ref_dir = base.normalized_trace_grad(x)
    if uhat is not None:
        ref_dir = ref_dir - np.dot(ref_dir, uhat) * uhat
    return [(total / (2 * n_pairs), 0.5 * rho**2 * ref_dir) for total, rho in zip(totals, rhos)]


def check_rs_estimator(obj, x, rho: float, n_samples: int, rng: RngStream) -> OracleReport:
    """Leading-order mean of the smoothed perturbation direction.

    Averages v = proj_out(grad f(x + rho*g)) over antithetic sphere pairs
    (g, -g) - each marginally uniform, the pairing cancels the odd Taylor
    terms that otherwise dominate the Monte-Carlo variance - and compares
    against 0.5 * rho^2 * proj_out(grad of the normalized trace). Per
    component the deviation must stay within max(REL_TOL * |ref|,
    RHO3_FLOOR * rho^3).
    """
    [(measured, reference)] = _estimator_means(obj, x, [rho], n_samples, rng)
    abs_tol = RHO3_FLOOR * rho**3
    denom = np.maximum(np.abs(reference), abs_tol / REL_TOL)
    rel_error = float(np.max(np.abs(measured - reference) / denom))
    return OracleReport(
        name="rs-estimator",
        n_samples=2 * (n_samples // 2),
        measured=measured.tolist(),
        reference=reference.tolist(),
        rel_error=rel_error,
        tolerance=REL_TOL,
        extras={
            "rho": rho,
            "abs_deviation": float(np.linalg.norm(measured - reference)),
            "abs_tol": abs_tol,
        },
    )


def check_rs_decay(obj, x, rho_hi: float, rho_lo: float, n_samples: int, seed: int) -> OracleReport:
    """Decay of the estimator remainder when the perturbation radius shrinks.

    Runs the estimator check at two radii with common random numbers: both
    radii are evaluated on the same draws of one stream seeded ``seed``,
    each chunk drawn once, and each radius gives the same deviation as
    :func:`check_rs_estimator` with a fresh ``RngStream(seed)``. The absolute
    deviation from the 0.5*rho^2 law must shrink by at least
    ``DECAY_FACTOR`` (the remainder scales one power of rho faster than the
    law itself, giving a factor of (rho_hi/rho_lo)^2 = 4 at the default
    halving). The report's ``rel_error`` is ``DECAY_FACTOR / ratio``, which
    is at most 1 exactly when the ratio is at least ``DECAY_FACTOR``.
    """
    if not rho_hi > rho_lo > 0:
        raise ValueError("need rho_hi > rho_lo > 0")
    dev_hi, dev_lo = (
        float(np.linalg.norm(measured - reference))
        for measured, reference in _estimator_means(obj, x, [rho_hi, rho_lo], n_samples, RngStream(seed))
    )
    ratio = dev_hi / dev_lo if dev_lo > 0 else math.inf
    rel_error = DECAY_FACTOR / ratio if ratio > 0 else math.inf
    return OracleReport(
        name="rs-decay",
        n_samples=2 * (n_samples // 2),
        measured=ratio,
        reference=(rho_hi / rho_lo) ** 2,
        rel_error=rel_error,
        tolerance=1.0,
        extras={"dev_hi": dev_hi, "dev_lo": dev_lo, "rho_hi": rho_hi, "rho_lo": rho_lo},
    )


def check_sa_dfactor(obj: SampleSumObjective, x_star, rho: float, n_samples: int, rng: RngStream) -> OracleReport:
    """Dimension factor between the two curvature signals at a minimum.

    Measures the sharpness-aware signal (per-sample curvature along the
    normalized prediction gradient, averaged over sample draws) and the
    smoothed signal (full-loss curvature along uniform sphere directions),
    both via zeroth-order second differences of function values. Their ratio
    must be the dimension within ``REL_TOL``; the trace identity gives the
    analytic references d * tr_mean and tr_mean.
    """
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
    for m in _chunks(n_samples, CHUNK):
        idx = rng.generator.integers(0, obj.n, size=m)
        counts += np.bincount(idx, minlength=obj.n)
    measured_sa = float(np.dot(counts, quad_sa) / n_samples)

    f0 = base.value(x_star)

    def second_differences(D):
        b = len(D)
        vp = base.value_many(np.add(X[:b], D, out=P[:b]))
        return vp - 2.0 * f0 + base.value_many(np.subtract(X[:b], D, out=P[:b]))

    total = 0.0
    X, chunks = _sphere_blocks(x_star, rho, n_samples, rng)
    P = np.empty_like(X)
    for shifts in chunks:
        total += float(np.sum(np.concatenate([second_differences(D) for D in shifts])))
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


@dataclass(frozen=True)
class SampleRegion:
    """Axis-aligned box sampler with optional membership predicate.

    When ``axis_probes`` is set, the +/- axis extreme points of the box are
    prepended to the random draws (subject to the predicate); for quadratic
    landscapes these hit the extreme curvature ratios exactly. ``draw(m, rng)``
    tries at most ``1000 * m`` candidates, in order, ``m`` rows per ``random((m,
    d))`` call (the rows of ``m`` ``random(d)`` calls); ``rng``'s state after it
    is unspecified.
    """

    low: tuple
    high: tuple
    predicate: Callable[[np.ndarray], bool] | None = None
    axis_probes: bool = True

    def draw(self, m: int, rng: RngStream) -> np.ndarray:
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        d = low.size
        points = []
        if self.axis_probes:
            for j in range(d):
                for bound in (high[j], low[j]):
                    p = np.zeros(d)
                    p[j] = bound
                    if self.predicate is None or self.predicate(p):
                        points.append(p)
        tries = 0
        while len(points) < m and tries < 1000 * m:
            for p in low + (high - low) * rng.generator.random((m, d)):
                tries += 1
                if self.predicate is None or self.predicate(p):
                    points.append(p)
                    if len(points) == m:
                        break
        if len(points) < m:
            raise RuntimeError("region sampler could not find enough points satisfying the predicate")
        return np.stack(points[:m])


def estimate_pl_constants(obj, region: SampleRegion, m_samples: int, rng: RngStream) -> tuple[float, float]:
    """Empirical local PL and gradient-Lipschitz constants near the minima set.

    alpha_hat is the smallest sampled value of ||grad f||^2 / (2 (f - f at
    flow limit)); beta_hat the largest of ||grad f(x) - grad f(limit)|| /
    ||x - limit||, over ``m_samples`` points drawn from ``region``. Points
    whose cost gap is below 1e-14 are already on the minima set and are
    skipped. All points are landed by one
    :func:`~flatmin.flow.gradient_flow_limits` call, so a failing landing
    raises the error of the first failing point before any constant is
    formed.
    """
    base = base_of(obj)
    alpha_hat = math.inf
    beta_hat = 0.0
    used = 0
    points = region.draw(m_samples, rng)
    for x, phi in zip(points, gradient_flow_limits(base, points)):
        gap = base.value(x) - base.value(phi)
        dist = float(np.linalg.norm(x - phi))
        if gap < 1e-14 or dist < 1e-14:
            continue
        g = base.grad(x)
        alpha_hat = min(alpha_hat, float(g @ g) / (2.0 * gap))
        beta_hat = max(beta_hat, float(np.linalg.norm(g - base.grad(phi))) / dist)
        used += 1
    if used == 0:
        raise RuntimeError("every sampled point sits on the minima set; cannot estimate constants")
    return alpha_hat, beta_hat


def check_descent_lemma(traj: Trajectory, beta_hat: float) -> OracleReport:
    """Per-step descent inequality recomputed from the trajectory log.

    Every logged step carrying a post-step cost must satisfy
    f_after <= f - 0.5*step*||grad||^2 + 0.5*beta_hat*step^2*||v||^2 + slack,
    with the perturbed step size on perturbed records and the plain step on
    gd records (where v = 0). The inequality's precondition is
    step <= 1/beta_hat; a trajectory run with a larger perturbed step is
    reported as not applicable. The extras carry the run's own counters;
    ``inline_max_slack`` is None, as the trajectory's ``descent_max_slack``
    is, when that is not finite.
    """
    sched = traj.schedule
    if sched.eta > 1.0 / beta_hat * (1.0 + 1e-12):
        return OracleReport(
            name="descent-lemma",
            n_samples=0,
            measured=None,
            reference=None,
            rel_error=math.inf,
            tolerance=DESCENT_SLACK,
            not_applicable=True,
            extras={"reason": f"eta={sched.eta} exceeds 1/beta_hat={1.0 / beta_hat}"},
        )
    worst = -math.inf
    checked = 0
    for r in traj.records:
        if r.f_after is None:
            continue
        if r.branch == "perturbed":
            step = sched.eta
            vsq = (r.v_norm or 0.0) ** 2
        else:
            step = sched.eta_prime
            vsq = 0.0
        bound = r.f - 0.5 * step * r.grad_norm**2 + 0.5 * beta_hat * step**2 * vsq
        worst = max(worst, r.f_after - bound)
        checked += 1
    if checked == 0:
        raise ValueError("trajectory has no records with post-step cost values")
    return OracleReport(
        name="descent-lemma",
        n_samples=checked,
        measured=worst,
        reference=0.0,
        rel_error=worst,
        tolerance=DESCENT_SLACK,
        extras={
            "inline_violations": traj.descent_violations,
            "inline_max_slack": traj.descent_max_slack,
        },
    )
