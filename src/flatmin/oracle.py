"""Brute-force verification suite for the estimator and curvature identities.

Every check here recomputes its quantity through an arithmetic path separate
from the optimizer step code (sphere moments from raw chunked sums, the
perturbation mean from inline batched projections, curvature signals from
zeroth-order second differences), so agreement between the two is evidence
rather than tautology. All Monte-Carlo loops reduce over fixed-size chunks in
a fixed order, making every report deterministic given (seed, N).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from typing import Callable

import numpy as np

from .geometry import RngStream, U_TOL, normalized_trace, sample_sphere_batch
from .objectives import SampleSumObjective, base_of
from .flow import FlowConfig, DEFAULT_FLOW, gradient_flow_limit
from .optimizers import DESCENT_SLACK, Trajectory

#: Fixed Monte-Carlo chunk size; reduction order must not depend on platform.
CHUNK = 65536

#: Standard errors allowed before a CLT-scaled check fails.
CLT_SIGMAS = 4.0


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one verification check.

    ``rel_error`` is the check's normalized deviation and ``passed`` holds
    iff ``rel_error <= tolerance`` (vacuously for not-applicable reports).
    """

    name: str
    n_samples: int
    measured: object
    reference: object
    rel_error: float
    tolerance: float
    passed: bool
    not_applicable: bool = False
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def check_sphere_moments(d: int, n_samples: int, rng: RngStream, n_sigma: float = CLT_SIGMAS) -> OracleReport:
    """First and second moments of the uniform sphere sampler.

    The mean should vanish and the second moment should equal I/d; both are
    compared against exact CLT scales (per-coordinate variance 1/d, fourth
    moment 3/(d(d+2))) at ``n_sigma`` standard errors.
    """
    if n_samples < 10_000:
        raise ValueError(f"need at least 1e4 samples, got {n_samples}")
    sum_g = np.zeros(d)
    sum_outer = np.zeros((d, d))
    done = 0
    while done < n_samples:
        m = min(CHUNK, n_samples - done)
        G = sample_sphere_batch(d, m, rng)
        sum_g += G.sum(axis=0)
        sum_outer += G.T @ G
        done += m
    mean_g = sum_g / n_samples
    mean_outer = sum_outer / n_samples
    mean_inf = float(np.abs(mean_g).max())
    fro_dev = float(np.linalg.norm(mean_outer - np.eye(d) / d))

    sigma_mean = math.sqrt(1.0 / (d * n_samples))
    # E||mean(gg^T) - I/d||_F^2 = (1 - 1/d)/N from the exact sphere moments.
    rms_fro = math.sqrt(max(1.0 - 1.0 / d, 0.0) / n_samples)
    tol_mean = n_sigma * sigma_mean
    tol_fro = n_sigma * rms_fro if rms_fro > 0 else 10 * np.finfo(float).eps
    rel_error = max(mean_inf / tol_mean, fro_dev / tol_fro)
    return OracleReport(
        name="sphere-moments",
        n_samples=n_samples,
        measured=[mean_inf, fro_dev],
        reference=[0.0, 0.0],
        rel_error=rel_error,
        tolerance=1.0,
        passed=bool(rel_error <= 1.0),
        extras={"d": d, "tol_mean_inf": tol_mean, "tol_cov_fro": tol_fro},
    )


def check_rs_estimator(
    obj,
    x,
    rho: float,
    n_samples: int,
    rng: RngStream,
    rel_tol: float = 0.1,
    abs_coeff: float = 1.0,
) -> OracleReport:
    """Leading-order mean of the smoothed perturbation direction.

    Averages v = proj_out(grad f(x + rho*g)) over antithetic sphere pairs
    (g, -g) - each marginally uniform, the pairing cancels the odd Taylor
    terms that otherwise dominate the Monte-Carlo variance - and compares
    against 0.5 * rho^2 * proj_out(grad of the normalized trace). Per
    component the deviation must stay within max(rel_tol * |ref|,
    abs_coeff * rho^3).
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    base = base_of(obj)
    x = np.asarray(x, dtype=float)
    d = base.dim
    u = base.grad(x)
    nu = float(np.linalg.norm(u))
    uhat = u / nu if nu > U_TOL else None

    def project_rows(V):
        if uhat is None:
            return V
        return V - np.outer(V @ uhat, uhat)

    n_pairs = n_samples // 2
    total = np.zeros(d)
    done = 0
    while done < n_pairs:
        m = min(CHUNK, n_pairs - done)
        G = sample_sphere_batch(d, m, rng)
        total += project_rows(base.grad_many(x[None, :] + rho * G)).sum(axis=0)
        total += project_rows(base.grad_many(x[None, :] - rho * G)).sum(axis=0)
        done += m
    measured = total / (2 * n_pairs)

    ref_dir = base.normalized_trace_grad(x)
    if uhat is not None:
        ref_dir = ref_dir - np.dot(ref_dir, uhat) * uhat
    reference = 0.5 * rho**2 * ref_dir

    abs_tol = abs_coeff * rho**3
    denom = np.maximum(np.abs(reference), abs_tol / rel_tol)
    rel_error = float(np.max(np.abs(measured - reference) / denom))
    return OracleReport(
        name="rs-estimator",
        n_samples=2 * n_pairs,
        measured=measured.tolist(),
        reference=reference.tolist(),
        rel_error=rel_error,
        tolerance=rel_tol,
        passed=bool(rel_error <= rel_tol),
        extras={
            "rho": rho,
            "abs_deviation": float(np.linalg.norm(measured - reference)),
            "abs_tol": abs_tol,
        },
    )


def check_rs_decay(
    obj,
    x,
    rho_hi: float,
    rho_lo: float,
    n_samples: int,
    seed: int,
    min_factor: float = 3.0,
) -> OracleReport:
    """Decay of the estimator remainder when the perturbation radius shrinks.

    Runs the estimator check at two radii with common random numbers (same
    seeded stream) and requires the absolute deviation from the
    0.5*rho^2 law to shrink by at least ``min_factor`` (the remainder scales
    one power of rho faster than the law itself, giving a factor of
    (rho_hi/rho_lo)^2 = 4 at the default halving).
    """
    if not rho_hi > rho_lo > 0:
        raise ValueError("need rho_hi > rho_lo > 0")
    rep_hi = check_rs_estimator(obj, x, rho_hi, n_samples, RngStream(seed))
    rep_lo = check_rs_estimator(obj, x, rho_lo, n_samples, RngStream(seed))
    dev_hi = rep_hi.extras["abs_deviation"]
    dev_lo = rep_lo.extras["abs_deviation"]
    ratio = dev_hi / dev_lo if dev_lo > 0 else math.inf
    rel_error = min_factor / ratio if ratio > 0 else math.inf
    return OracleReport(
        name="rs-decay",
        n_samples=n_samples,
        measured=ratio,
        reference=(rho_hi / rho_lo) ** 2,
        rel_error=rel_error,
        tolerance=1.0,
        passed=bool(ratio >= min_factor),
        extras={"dev_hi": dev_hi, "dev_lo": dev_lo, "rho_hi": rho_hi, "rho_lo": rho_lo},
    )


def check_sa_dfactor(
    obj: SampleSumObjective,
    x_star,
    rho: float,
    n_samples: int,
    rng: RngStream,
    rel_tol: float = 0.1,
) -> OracleReport:
    """Dimension factor between the two curvature signals at a minimum.

    Measures the sharpness-aware signal (per-sample curvature along the
    normalized prediction gradient, averaged over sample draws) and the
    smoothed signal (full-loss curvature along uniform sphere directions),
    both via zeroth-order second differences of function values. Their ratio
    must be the dimension within ``rel_tol``; the trace identity gives the
    analytic references d * tr_mean and tr_mean.
    """
    if not isinstance(obj, SampleSumObjective):
        raise TypeError("d-factor check needs a SampleSumObjective")
    if obj.pred_grad is None:
        raise ValueError("d-factor check needs prediction gradients")
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
    done = 0
    while done < n_samples:
        m = min(CHUNK, n_samples - done)
        idx = rng.generator.integers(0, obj.n, size=m)
        counts += np.bincount(idx, minlength=obj.n)
        done += m
    measured_sa = float(np.dot(counts, quad_sa) / n_samples)

    f0 = base.value(x_star)
    total = 0.0
    done = 0
    while done < n_samples:
        m = min(CHUNK, n_samples - done)
        G = sample_sphere_batch(d, m, rng)
        vp = base.value_many(x_star[None, :] + rho * G)
        vm = base.value_many(x_star[None, :] - rho * G)
        total += float(np.sum(vp - 2.0 * f0 + vm))
        done += m
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
        tolerance=rel_tol,
        passed=bool(rel_error <= rel_tol),
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
    landscapes these hit the extreme curvature ratios exactly.
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
            p = low + (high - low) * rng.generator.random(d)
            tries += 1
            if self.predicate is None or self.predicate(p):
                points.append(p)
        if len(points) < m:
            raise RuntimeError("region sampler could not find enough points satisfying the predicate")
        return np.stack(points[:m])


def estimate_pl_constants(
    obj,
    region,
    m_samples: int = 200,
    rng: RngStream | None = None,
    flow_cfg: FlowConfig = DEFAULT_FLOW,
) -> tuple[float, float]:
    """Empirical local PL and gradient-Lipschitz constants near the minima set.

    alpha_hat is the smallest sampled value of ||grad f||^2 / (2 (f - f at
    flow limit)); beta_hat the largest of ||grad f(x) - grad f(limit)|| /
    ||x - limit||. Points whose cost gap is below 1e-14 are already on the
    minima set and are skipped.

    ``region`` may be a :class:`SampleRegion` or an (M, d) array of points.
    """
    base = base_of(obj)
    if isinstance(region, SampleRegion):
        if rng is None:
            rng = RngStream(0)
        points = region.draw(m_samples, rng)
    else:
        points = np.asarray(region, dtype=float)
    alpha_hat = math.inf
    beta_hat = 0.0
    used = 0
    for x in points:
        phi = gradient_flow_limit(base, x, flow_cfg)
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
    reported as not applicable.
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
            passed=True,
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
        passed=bool(worst <= DESCENT_SLACK),
        extras={
            "inline_violations": traj.descent_violations,
            "inline_max_slack": traj.descent_max_slack,
        },
    )
