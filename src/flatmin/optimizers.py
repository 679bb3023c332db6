"""Perturbation algorithms for escaping sharp minima, schedules, and run loops.

Two perturbed-gradient methods share one loop skeleton: whenever the full
gradient is small (norm <= eps0) a perturbation direction v is added to the
gradient step, otherwise a plain gradient-descent step with the larger step
size is taken. The randomly smoothed variant (RS) builds v from the gradient
at a uniformly sphere-perturbed point; the sharpness-aware variant (SA)
builds it from a per-sample gradient evaluated at a point displaced along the
normalized per-sample gradient with a random sign. GD is the fallback branch
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict, replace
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .geometry import (
    U_TOL,
    RngStream,
    _dot2,
    _sq2,
    proj_out_normed,
    sample_sphere,
    sphere_blocks,
)
from .objectives import Objective, SampleSumObjective, _square, as_start, base_of, iterates, normalized_trace
from .flow import gradient_flow_limits

#: Additive slack allowed when checking the per-step descent inequality.
DESCENT_SLACK = 1e-12

#: Default cap on the theoretical step counts, which are astronomically large
#: at honest accuracy targets; experiments tune the schedule constants instead.
DEFAULT_BUDGET_CAP = 1_000_000

#: Trace-logged iterates that ``run`` lands with one batched flow solve.
TRACE_BLOCK = 256

#: (sample, sign) pairs an SA run draws per generator call.
SA_DRAW_BLOCK = 512


class DivergenceError(RuntimeError):
    """An iterate became non-finite; carries the last finite record."""

    def __init__(self, message: str, last_record: "IterateRecord | None" = None):
        super().__init__(message)
        self.last_record = last_record


class DegenerateSampleError(RuntimeError):
    """A sampled prediction gradient vanishes, so SA has no direction."""


def _count(name: str, value) -> int:
    """``value`` checked to be an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class ScheduleConstants:
    """User multipliers applied on top of the asymptotic-order formulas; each must be positive and finite."""

    c_eta: float = 1.0
    c_rho: float = 1.0
    c_eps0: float = 1.0
    c_T: float = 1.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not 0.0 < value < math.inf:
                raise ValueError(f"schedule constant {name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Schedule:
    """Resolved step sizes, perturbation radius, gate tolerance, and budget."""

    eta: float
    eta_prime: float
    rho: float
    eps0: float
    steps: int
    beta_hat: float
    nu: float | None = None
    constants: ScheduleConstants = field(default_factory=ScheduleConstants)

    def __post_init__(self):
        for name in ("eta", "eta_prime", "rho", "eps0", "beta_hat"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"schedule field {name} must be {'finite' if value == math.inf else 'positive'}")
        top = np.iinfo(np.int64).max  # run draws the returned index with an int64 bound
        if _count("steps", self.steps) > top:
            raise ValueError(f"steps must be an integer <= {top}, got {self.steps!r}")


def rs_schedule(
    eps: float,
    delta: float,
    beta_hat: float,
    constants: ScheduleConstants | None = None,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> Schedule:
    """Schedule for the randomly smoothed perturbation algorithm.

    eta = c_eta * delta * eps, eta' = 1 / beta_hat,
    rho = c_rho * delta * sqrt(eps), eps0 = c_eps0 * delta^1.5 * eps,
    and a step budget of c_T * eps^-3 * delta^-4 capped at ``budget_cap``.
    """
    c = _checked_constants(eps, delta, beta_hat, constants)
    return _schedule(eps, delta, beta_hat, None, c.c_T * eps**-3 * delta**-4, c, budget_cap)


def sa_schedule(
    eps: float,
    delta: float,
    d: int,
    beta_hat: float,
    constants: ScheduleConstants | None = None,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> Schedule:
    """Schedule for the sharpness-aware perturbation algorithm.

    The RS law with eta and rho scaled by nu = min(d, eps^(-1/3)) and eps0
    by nu^1.5, and its own budget c_T * d^-1 * eps^-2 * max(1, 1/(d^3 *
    eps)) * delta^-4, capped.
    """
    c = _checked_constants(eps, delta, beta_hat, constants)
    d = _count("d", d)
    nu = min(float(d), eps ** (-1.0 / 3.0))
    raw_steps = c.c_T * eps**-2 * delta**-4 * max(1.0, 1.0 / (d**3 * eps)) / d
    return _schedule(eps, delta, beta_hat, nu, raw_steps, c, budget_cap)


def _checked_constants(eps: float, delta: float, beta_hat: float, constants) -> ScheduleConstants:
    """``constants``, or the defaults, once ``eps``, ``delta`` and ``beta_hat`` are checked."""
    for name, value in (("eps", eps), ("beta_hat", beta_hat)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return constants or ScheduleConstants()


def _schedule(
    eps: float, delta: float, beta_hat: float, nu: float | None, raw_steps: float, c: ScheduleConstants, budget_cap: int
) -> Schedule:
    """The schedule law of RS (``nu`` None, a factor of 1) and SA, with the budget ``raw_steps`` capped."""
    k = 1.0 if nu is None else nu
    return Schedule(
        eta=c.c_eta * k * delta * eps,
        eta_prime=1.0 / beta_hat,
        rho=c.c_rho * k * delta * math.sqrt(eps),
        eps0=c.c_eps0 * k**1.5 * delta**1.5 * eps,
        steps=max(1, int(min(raw_steps, _count("budget_cap", budget_cap)))),
        beta_hat=beta_hat,
        nu=nu,
        constants=c,
    )


@dataclass(frozen=True)
class PerturbationDiagnostics:
    """Per-step perturbation data: v, its norm, and the direction drawn (RS's sphere draw, SA's prediction direction)."""

    v: np.ndarray
    v_norm: float
    sample_index: int | None = None
    sigma: float | None = None
    direction: np.ndarray | None = None


def _rs_perturbation(
    base: Objective, x: np.ndarray, g: np.ndarray, gn: float, rho_u: np.ndarray
) -> tuple[np.ndarray, float]:
    """RS perturbation ``(v, |v|)`` for the displacement ``rho_u``, a unit vector scaled by rho.

    ``v`` is the gradient at ``x + rho_u`` projected off ``g = grad(x)``,
    whose norm ``gn`` the caller has already computed.
    """
    v = proj_out_normed(g, gn, base.grad(x + rho_u))
    return v, math.sqrt(np.dot(v, v))


def _sa_perturbation(
    obj: SampleSumObjective,
    x: np.ndarray,
    g: np.ndarray,
    gn: float,
    rho: float,
    i: int,
    sigma: float,
) -> tuple[np.ndarray, float, np.ndarray]:
    """SA perturbation ``(v, |v|, direction)`` for sample ``i`` and sign ``sigma``; ``gn = |g|``.

    The direction is the normalized prediction gradient. Since
    f_i = loss(p_i, y_i), grad f_i = l'(p_i) * grad p_i, so it is the
    normalized per-sample gradient up to sign wherever that is defined, and
    the fair sign ``sigma`` gives the step the same distribution.
    """
    p = obj.pred_grad(i, x)
    npn = math.sqrt(np.dot(p, p))
    if npn == 0.0:
        raise _degenerate(i, x.tolist())
    direction = p / npn
    v = proj_out_normed(g, gn, obj.sample_grad(i, x + rho * sigma * direction))
    return v, math.sqrt(np.dot(v, v)), direction


def _degenerate(i: int, x: list) -> DegenerateSampleError:
    """The error of an SA step whose sample ``i`` has a zero prediction gradient at ``x``."""
    return DegenerateSampleError(f"sample {i} has a zero prediction gradient at {x}")


def _sa_draws(n: int, rng: RngStream) -> Iterator[tuple[int, float]]:
    """Endless SA (sample index, sign) pairs, drawn ``SA_DRAW_BLOCK`` pairs at a time.

    Yields the values of successive ``rng.integers(0, n)``,
    ``rng.integers(0, 2)`` call pairs, as ``sa_step`` draws them: numpy
    draws an array of bounds element by element, so one call with bounds
    ``[n, 2, n, 2, ...]`` gives the same values.
    """
    bounds = np.tile([n, 2], SA_DRAW_BLOCK)
    while True:
        block = iter(rng.generator.integers(0, bounds).tolist())
        for i, b in zip(block, block):
            yield i, 1.0 if b == 1 else -1.0


def _checked_step(x: np.ndarray, eta: float, grad_x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The perturbed step ``x - eta*(grad_x + v)``; raises DivergenceError if not finite."""
    x_next = x - eta * (grad_x + v)
    if not np.isfinite(x_next).all():
        raise DivergenceError(f"non-finite iterate after perturbed step at {x.tolist()}")
    return x_next


def rs_step(
    obj, x: np.ndarray, eta: float, rho: float, rng: RngStream
) -> tuple[np.ndarray, PerturbationDiagnostics]:
    """One randomly smoothed perturbation step.

    Draws a uniform unit vector u, forms v by projecting the gradient at
    x + rho*u orthogonally to grad(x), and returns x - eta*(grad(x) + v)
    together with the draw diagnostics, u as ``direction``. ``x`` is taken
    as ``run`` takes its start (:func:`~flatmin.objectives.as_start`).
    """
    if not (0.0 < eta < math.inf and 0.0 <= rho < math.inf):
        raise ValueError("need a finite eta > 0 and a finite rho >= 0")
    base = base_of(obj)
    x = as_start(obj, x)
    grad_x = base.grad(x)
    u = sample_sphere(base.dim, rng)
    v, v_norm = _rs_perturbation(base, x, grad_x, math.sqrt(np.dot(grad_x, grad_x)), rho * u)
    return _checked_step(x, eta, grad_x, v), PerturbationDiagnostics(v=v, v_norm=v_norm, direction=u)


def sa_step(
    obj: SampleSumObjective,
    x: np.ndarray,
    eta: float,
    rho: float,
    jitter: float | None,
    rng: RngStream,
) -> tuple[np.ndarray, PerturbationDiagnostics]:
    """One sharpness-aware perturbation step.

    Draws a sample index i and a sign sigma, displaces x by rho*sigma along
    the normalized prediction gradient of sample i (the normalized
    per-sample gradient up to sign), and projects the displaced per-sample
    gradient orthogonally to the full gradient. ``jitter`` is
    unused; the slot keeps positional callers working. ``x`` is taken as
    ``run`` takes its start (:func:`~flatmin.objectives.as_start`).
    """
    if not (0.0 < eta < math.inf and 0.0 <= rho < math.inf):
        raise ValueError("need a finite eta > 0 and a finite rho >= 0")
    if not isinstance(obj, SampleSumObjective):
        raise TypeError("sharpness-aware step needs a SampleSumObjective")
    x = as_start(obj, x)
    grad_x = obj.base.grad(x)
    i = rng.integers(0, obj.n)
    sigma = 1.0 if rng.integers(0, 2) == 1 else -1.0
    v, v_norm, direction = _sa_perturbation(obj, x, grad_x, math.sqrt(np.dot(grad_x, grad_x)), rho, i, sigma)
    diag = PerturbationDiagnostics(v=v, v_norm=v_norm, sample_index=i, sigma=sigma, direction=direction)
    return _checked_step(x, eta, grad_x, v), diag


@dataclass(frozen=True, slots=True)
class IterateRecord:
    """Per-step log entry; ``f``/``grad_norm`` describe the pre-step iterate.

    Slotted: a trajectory holds up to one record per step.
    """

    t: int
    branch: str
    f: float
    grad_norm: float
    v_norm: float | None = None
    tr_phi: float | None = None
    f_after: float | None = None
    x: tuple | None = None


@dataclass(frozen=True)
class Trajectory:
    """Seeded run log plus the uniformly sampled returned iterate.

    The fields are declared in the order of the JSON keys, so ``to_dict``
    is ``asdict``. ``descent_max_slack`` is the worst descent slack, or None
    when it is not finite (a run without perturbed steps).
    """

    algorithm: str
    seed: int
    stream: int
    schedule: Schedule
    returned_index: int
    returned_x: tuple
    final_x: tuple
    n_perturbed: int
    n_gd: int
    descent_violations: int
    descent_max_slack: float | None
    records: tuple

    def to_dict(self) -> dict:
        return asdict(self)


def _fmt(v: float | None) -> str:
    return "" if v is None else f"{v:.17g}"


def trajectory_csv(traj: Trajectory) -> str:
    """Stable CSV rendering: t,branch,f,grad_norm,v_norm,tr_phi[,x0..x{d-1}]."""
    with_x = traj.records and traj.records[0].x is not None
    header = "t,branch,f,grad_norm,v_norm,tr_phi"
    if with_x:
        header += "," + ",".join(f"x{j}" for j in range(len(traj.records[0].x)))
    lines = [header]
    for r in traj.records:
        row = [str(r.t), r.branch, _fmt(r.f), _fmt(r.grad_norm), _fmt(r.v_norm), _fmt(r.tr_phi)]
        if with_x:
            row.extend(_fmt(v) for v in r.x)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


ALGORITHMS = ("RS", "SA", "GD")


def _cadence(name: str, cadence, steps: int) -> int:
    """``cadence`` checked to be an integer >= 1, or ``max(1, steps // 200)`` for None."""
    return max(1, steps // 200) if cadence is None else _count(name, cadence)


def _perturbed_step(obj, algorithm: str, sched: Schedule, rng: RngStream, floats: bool) -> Callable:
    """The perturbed step of ``algorithm`` ("RS" or "SA"), on iterates held as ``floats`` says.

    Returns ``step(x, g, gn)``, which gives the next iterate and ``|v|``
    from the iterate ``x``, its gradient ``g`` and ``gn = |g|``. On pairs
    of Python floats it takes the arithmetic of the ndarray step, operation
    for operation, its 2-vector dot products by ``geometry._dot2`` and its
    self-dots by ``geometry._sq2``, so every iterate is bit for bit the
    same.
    """
    base = base_of(obj)
    eta, rho = sched.eta, sched.rho
    if not floats:
        if algorithm == "RS":
            displacements = chain.from_iterable(sphere_blocks(base.dim, rho, rng))

            def perturbation(x, g, gn):
                return _rs_perturbation(base, x, g, gn, next(displacements))

        else:
            draws = _sa_draws(obj.n, rng)

            def perturbation(x, g, gn):
                return _sa_perturbation(obj, x, g, gn, rho, *next(draws))[:2]

        def array_step(x, g, gn):
            v, v_norm = perturbation(x, g, gn)
            return x - eta * (g + v), v_norm

        return array_step

    f_grad = base.float_grad
    dot2, sq2, sqrt = _dot2, _sq2, math.sqrt
    rs = algorithm == "RS"
    if rs:
        displacements = chain.from_iterable(map(np.ndarray.tolist, sphere_blocks(2, rho, rng)))
    else:
        f_sample_grad, f_pred_grad = obj.float_sample_grad, obj.float_pred_grad
        draws = _sa_draws(obj.n, rng)

    def float_step(x, g, gn):
        x0, x1 = x
        # The gradient at the perturbed point, inline: the step is short
        # enough that a nested call per step shows in its time.
        if rs:
            u0, u1 = next(displacements)
            v0, v1 = f_grad(x0 + u0, x1 + u1)
        else:
            i, sigma = next(draws)
            p0, p1 = f_pred_grad(i, x0, x1)
            npn = sqrt(sq2(p0, p1))
            if npn == 0.0:
                raise _degenerate(i, [x0, x1])
            s = rho * sigma
            v0, v1 = f_sample_grad(i, x0 + s * (p0 / npn), x1 + s * (p1 / npn))
        g0, g1 = g
        if gn > U_TOL:
            # v projected off g, as proj_out_normed.
            h0, h1 = g0 / gn, g1 / gn
            k = dot2(h0, h1, v0, v1)
            v0, v1 = v0 - k * h0, v1 - k * h1
        return (x0 - eta * (g0 + v0), x1 - eta * (g1 + v1)), sqrt(sq2(v0, v1))

    return float_step


def run(
    obj,
    algorithm: str,
    x0,
    sched: Schedule,
    rng: RngStream,
    log_cadence: int | None = None,
    tr_cadence: int | None = None,
) -> Trajectory:
    """Execute ``sched.steps`` steps of the chosen algorithm from ``x0``.

    Perturbed steps fire when the gradient norm is at most ``sched.eps0``
    (never for GD); otherwise a plain descent step with ``sched.eta_prime``
    is taken. Records are appended every ``log_cadence`` steps, plus a
    terminal record. The trace-at-flow-limit column is filled only on
    logged steps whose index is a multiple of ``tr_cadence``, and on the
    terminal record. Records carry the iterate ``x`` when the dimension is
    at most 8. The returned-iterate index is drawn uniformly from
    {1..steps} at run start, so identical inputs reproduce identical logs.

    The iterates are held as :func:`~flatmin.objectives.iterates` chooses;
    the choice changes no byte of the trajectory. ``log_cadence`` and
    ``tr_cadence`` must be integers >= 1 (or None, for ``max(1, steps //
    200)``); any other value raises ``ValueError``.

    The trace column holds ``trace_at_flow_limit`` of the logged iterate,
    bit for bit, but the iterates are landed ``TRACE_BLOCK`` at a time by
    one :func:`~flatmin.flow.gradient_flow_limits` call, and the rest with
    the terminal one. A failing trace solve therefore raises its
    :class:`~flatmin.flow.FlowConvergenceError` when its block is landed,
    up to ``TRACE_BLOCK`` traced steps later. A :class:`DivergenceError` or
    :class:`DegenerateSampleError` raised in between still loses to it:
    ``run`` lands the pending iterates first, so the first error is the one
    per-step solves would have raised.

    RS takes its sphere directions and SA its (sample, sign) pairs from
    ``rng`` in blocks (the same values as the per-step draws of
    ``rs_step`` and ``sa_step``), so the state of ``rng`` after ``run``
    returns is unspecified.
    """
    algorithm = algorithm.upper()
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    if algorithm == "SA" and not isinstance(obj, SampleSumObjective):
        raise ValueError("SA requires a SampleSumObjective")
    base = base_of(obj)
    x = as_start(obj, x0)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite starting point {x.tolist()}")
    T = sched.steps
    log_cadence = _cadence("log_cadence", log_cadence, T)
    tr_cadence = _cadence("tr_cadence", tr_cadence, T)
    keep_x = base.dim <= 8

    returned_index = rng.integers(1, T + 1)
    returned_x: tuple | None = None
    records: list[IterateRecord] = []
    # (index into records, coordinates) of the logged steps whose trace is not landed yet.
    pending: list[tuple[int, tuple]] = []

    def land_pending() -> None:
        if not pending:
            return
        limits = gradient_flow_limits(base, np.array([xk for _, xk in pending]))
        with np.errstate(over="ignore", invalid="ignore"):
            for (k, _), phi in zip(pending, limits):
                records[k] = replace(records[k], tr_phi=normalized_trace(base, phi))
        pending.clear()

    n_perturbed = n_gd = 0
    violations = 0
    max_slack = -math.inf
    perturbs = algorithm != "GD"
    eps0, eta_prime = sched.eps0, sched.eta_prime
    half_eta = 0.5 * sched.eta
    half_beta_eta_sq = 0.5 * sched.beta_hat * _square(sched.eta)
    point, evaluate, descend = iterates(obj)
    x = point(x)
    step = _perturbed_step(obj, algorithm, sched, rng, isinstance(x, tuple)) if perturbs else None
    isfinite = math.isfinite

    try:
        # A diverging run overflows before the finite checks below report it.
        with np.errstate(over="ignore", invalid="ignore"):
            xc, fval, g, gn = evaluate(x)
            for t in range(T):
                perturbed = perturbs and gn <= eps0
                if perturbed:
                    x_next, v_norm = step(x, g, gn)
                    n_perturbed += 1
                    branch = "perturbed"
                else:
                    x_next, v_norm = descend(x, g, eta_prime), None
                    n_gd += 1
                    branch = "gd"
                # The gradient of a non-finite iterate is taken too, and discarded.
                xc_next, f_next, g_next, gn_next = evaluate(x_next)
                if not (isfinite(f_next) and all(map(isfinite, xc_next))):
                    raise DivergenceError(
                        f"divergence at step {t}",
                        IterateRecord(t, branch, fval, gn, v_norm, None, None, xc),
                    )
                if perturbed:
                    slack = f_next - (fval - half_eta * gn * gn + half_beta_eta_sq * v_norm * v_norm)
                    if slack > max_slack:
                        max_slack = slack
                    if slack > DESCENT_SLACK:
                        violations += 1
                if t % log_cadence == 0:
                    if t % tr_cadence == 0:
                        pending.append((len(records), xc))
                    records.append(IterateRecord(t, branch, fval, gn, v_norm, None, f_next, xc if keep_x else None))
                    if len(pending) == TRACE_BLOCK:
                        land_pending()
                if t + 1 == returned_index:
                    returned_x = xc_next
                x, xc, fval, g, gn = x_next, xc_next, f_next, g_next, gn_next
    except (DivergenceError, DegenerateSampleError):
        # A trace solve at an earlier logged step fails first, as it would
        # have had it run at its own step.
        land_pending()
        raise

    branch = "gd" if (algorithm == "GD" or gn > sched.eps0) else "perturbed"
    pending.append((len(records), xc))
    records.append(IterateRecord(T, branch, fval, gn, None, None, None, xc if keep_x else None))
    land_pending()
    assert returned_x is not None
    return Trajectory(
        records=tuple(records),
        returned_index=returned_index,
        returned_x=returned_x,
        final_x=xc,
        seed=rng.seed,
        stream=rng.stream,
        algorithm=algorithm,
        schedule=sched,
        n_perturbed=n_perturbed,
        n_gd=n_gd,
        descent_violations=violations,
        descent_max_slack=max_slack if isfinite(max_slack) else None,
    )
