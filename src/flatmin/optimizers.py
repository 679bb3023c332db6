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
from dataclasses import dataclass, field, asdict

import numpy as np

from .geometry import RngStream, proj_out_normed, sample_sphere, sphere_directions
from .objectives import Objective, SampleSumObjective, base_of
from .flow import FlowConfig, DEFAULT_FLOW, gradient_flow_limit, trace_at_flow_limit

#: Additive slack allowed when checking the per-step descent inequality.
DESCENT_SLACK = 1e-12

#: Default cap on the theoretical step counts, which are astronomically large
#: at honest accuracy targets; experiments tune the schedule constants instead.
DEFAULT_BUDGET_CAP = 1_000_000

#: Per-sample gradients below this norm take the jittered-direction path.
SAMPLE_GRAD_TOL = 1e-12


class DivergenceError(RuntimeError):
    """An iterate became non-finite; carries the last finite record."""

    def __init__(self, message: str, last_record: "IterateRecord | None" = None):
        super().__init__(message)
        self.last_record = last_record


class DegenerateSampleError(RuntimeError):
    """A per-sample gradient stayed numerically zero after jitter retries."""


class RefinementError(RuntimeError):
    """Refinement budget exhausted before reaching the distance target."""


@dataclass(frozen=True)
class ScheduleConstants:
    """User multipliers applied on top of the asymptotic-order formulas."""

    c_eta: float = 1.0
    c_rho: float = 1.0
    c_eps0: float = 1.0
    c_T: float = 1.0

    @staticmethod
    def from_dict(data: dict | None) -> "ScheduleConstants":
        data = data or {}
        known = {"c_eta", "c_rho", "c_eps0", "c_T"}
        bad = set(data) - known
        if bad:
            raise ValueError(f"unknown schedule constants {sorted(bad)}; known: {sorted(known)}")
        return ScheduleConstants(**{k: float(v) for k, v in data.items()})


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
    jitter: float | None = None
    constants: ScheduleConstants = field(default_factory=ScheduleConstants)

    def __post_init__(self):
        for name in ("eta", "eta_prime", "rho", "eps0", "beta_hat"):
            if getattr(self, name) <= 0:
                raise ValueError(f"schedule field {name} must be positive")
        if self.steps < 1:
            raise ValueError("schedule needs at least one step")

    def to_dict(self) -> dict:
        return asdict(self)


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
    _validate_schedule_inputs(eps, delta, beta_hat)
    c = constants or ScheduleConstants()
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


def sa_schedule(
    eps: float,
    delta: float,
    d: int,
    beta_hat: float,
    constants: ScheduleConstants | None = None,
    budget_cap: int = DEFAULT_BUDGET_CAP,
) -> Schedule:
    """Schedule for the sharpness-aware perturbation algorithm.

    The RS formulas are scaled by the dimension-capped factor
    nu = min(d, eps^(-1/3)); the step budget is
    c_T * d^-1 * eps^-2 * max(1, 1/(d^3 * eps)) * delta^-4, capped.
    """
    _validate_schedule_inputs(eps, delta, beta_hat)
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    c = constants or ScheduleConstants()
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
        jitter=max(eps**3, 1e-12),
        constants=c,
    )


def _validate_schedule_inputs(eps: float, delta: float, beta_hat: float) -> None:
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if beta_hat <= 0:
        raise ValueError(f"beta_hat must be positive, got {beta_hat}")


@dataclass(frozen=True)
class PerturbationDiagnostics:
    """Per-step perturbation data: direction drawn, v, and its norm."""

    v: np.ndarray
    v_norm: float
    g: np.ndarray | None = None
    sample_index: int | None = None
    sigma: float | None = None
    direction: np.ndarray | None = None


def _rs_perturbation(
    base: Objective, x: np.ndarray, g: np.ndarray, gn: float, rho: float, u: np.ndarray
) -> tuple[np.ndarray, float]:
    """RS perturbation ``(v, |v|)`` along the unit vector ``u``.

    ``v`` is the gradient at ``x + rho*u`` projected off ``g = grad(x)``,
    whose norm ``gn`` the caller has already computed.
    """
    v = proj_out_normed(g, gn, base.grad(x + rho * u))
    return v, math.sqrt(float(v @ v))


def _sa_perturbation(
    obj: SampleSumObjective,
    x: np.ndarray,
    g: np.ndarray,
    gn: float,
    rho: float,
    jitter: float,
    rng: RngStream,
    retries: int = 8,
) -> tuple[np.ndarray, float, int, float, np.ndarray]:
    """SA perturbation and its draws ``(v, |v|, sample_index, sigma, direction)``; ``gn = |g|``."""
    i = rng.integers(0, obj.n)
    sigma = rng.sign()
    gi = obj.sample_grad(i, x)
    ngi = math.sqrt(float(gi @ gi))
    if ngi <= SAMPLE_GRAD_TOL:
        for _ in range(retries):
            gi = obj.sample_grad(i, x + jitter * sample_sphere(obj.dim, rng))
            ngi = math.sqrt(float(gi @ gi))
            if ngi > SAMPLE_GRAD_TOL:
                break
        else:
            raise DegenerateSampleError(
                f"sample {i} gradient vanished after {retries} jittered probes (jitter={jitter})"
            )
    direction = gi / ngi
    v = proj_out_normed(g, gn, obj.sample_grad(i, x + rho * sigma * direction))
    return v, math.sqrt(float(v @ v)), i, sigma, direction


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

    Draws a uniform unit vector g, forms v by projecting the gradient at
    x + rho*g orthogonally to grad(x), and returns x - eta*(grad(x) + v)
    together with the draw diagnostics.
    """
    if eta <= 0 or rho < 0:
        raise ValueError("need eta > 0 and rho >= 0")
    base = base_of(obj)
    x = np.asarray(x, dtype=float)
    grad_x = base.grad(x)
    u = sample_sphere(base.dim, rng)
    v, v_norm = _rs_perturbation(base, x, grad_x, math.sqrt(float(grad_x @ grad_x)), rho, u)
    return _checked_step(x, eta, grad_x, v), PerturbationDiagnostics(v=v, v_norm=v_norm, g=u)


def sa_step(
    obj: SampleSumObjective,
    x: np.ndarray,
    eta: float,
    rho: float,
    jitter: float,
    rng: RngStream,
) -> tuple[np.ndarray, PerturbationDiagnostics]:
    """One sharpness-aware perturbation step.

    Draws a sample index i and a sign sigma, displaces x by rho*sigma along
    the normalized per-sample gradient (jittered when that gradient is
    numerically zero), and projects the displaced per-sample gradient
    orthogonally to the full gradient.
    """
    if eta <= 0 or rho < 0 or jitter < 0:
        raise ValueError("need eta > 0, rho >= 0, jitter >= 0")
    if not isinstance(obj, SampleSumObjective):
        raise TypeError("sharpness-aware step needs a SampleSumObjective")
    x = np.asarray(x, dtype=float)
    grad_x = obj.base.grad(x)
    v, v_norm, i, sigma, direction = _sa_perturbation(
        obj, x, grad_x, math.sqrt(float(grad_x @ grad_x)), rho, jitter, rng
    )
    diag = PerturbationDiagnostics(v=v, v_norm=v_norm, sample_index=i, sigma=sigma, direction=direction)
    return _checked_step(x, eta, grad_x, v), diag


@dataclass(frozen=True)
class IterateRecord:
    """Per-step log entry; ``f``/``grad_norm`` describe the pre-step iterate."""

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
    """Seeded run log plus the uniformly sampled returned iterate."""

    records: tuple
    returned_index: int
    returned_x: tuple
    final_x: tuple
    seed: int
    stream: int
    algorithm: str
    schedule: Schedule
    n_perturbed: int
    n_gd: int
    descent_violations: int
    descent_max_slack: float

    @property
    def descent_max_slack_json(self) -> float | None:
        """Worst descent slack, or None when the run had no perturbed steps."""
        return self.descent_max_slack if math.isfinite(self.descent_max_slack) else None

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "stream": self.stream,
            "schedule": self.schedule.to_dict(),
            "returned_index": self.returned_index,
            "returned_x": list(self.returned_x),
            "final_x": list(self.final_x),
            "n_perturbed": self.n_perturbed,
            "n_gd": self.n_gd,
            "descent_violations": self.descent_violations,
            "descent_max_slack": self.descent_max_slack_json,
            "records": [asdict(r) for r in self.records],
        }


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


def run(
    obj,
    algorithm: str,
    x0,
    sched: Schedule,
    rng: RngStream,
    log_cadence: int | None = None,
    tr_cadence: int | None = None,
    flow_cfg: FlowConfig = DEFAULT_FLOW,
) -> Trajectory:
    """Execute ``sched.steps`` steps of the chosen algorithm from ``x0``.

    Perturbed steps fire when the gradient norm is at most ``sched.eps0``
    (never for GD); otherwise a plain descent step with ``sched.eta_prime``
    is taken. Records are appended every ``log_cadence`` steps with the
    trace-at-flow-limit column filled every ``tr_cadence`` steps, plus a
    terminal record; records carry the iterate ``x`` when the dimension is
    at most 8. The returned-iterate index is drawn uniformly from
    {1..steps} at run start, so identical inputs reproduce identical logs.

    RS takes its sphere directions from ``rng`` in blocks (the same vectors
    as per-step ``sample_sphere`` calls), so the state of ``rng`` after
    ``run`` returns is unspecified.
    """
    algorithm = algorithm.upper()
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {ALGORITHMS}")
    if algorithm == "SA" and not isinstance(obj, SampleSumObjective):
        raise ValueError("SA requires a SampleSumObjective")
    ss = obj if isinstance(obj, SampleSumObjective) else None
    base = base_of(obj)
    x = np.array(x0, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite starting point {x.tolist()}")
    T = sched.steps
    if log_cadence is None:
        log_cadence = max(1, T // 200)
    if tr_cadence is None:
        tr_cadence = max(1, T // 200)
    keep_x = base.dim <= 8
    jitter = sched.jitter if sched.jitter is not None else 1e-12

    returned_index = rng.integers(1, T + 1)
    returned_x: np.ndarray | None = None
    records: list[IterateRecord] = []
    n_perturbed = n_gd = 0
    violations = 0
    max_slack = -math.inf
    perturbs = algorithm != "GD"
    directions = sphere_directions(base.dim, rng) if algorithm == "RS" else None
    eta, eta_prime, rho, eps0 = sched.eta, sched.eta_prime, sched.rho, sched.eps0
    half_eta = 0.5 * eta
    half_beta_eta_sq = 0.5 * sched.beta_hat * eta**2

    # A diverging run overflows before the finite checks below report it.
    with np.errstate(over="ignore", invalid="ignore"):
        fval = float(base.value(x))
        g = base.grad(x)
        for t in range(T):
            gn = math.sqrt(float(g @ g))
            snapshot = None
            if t % log_cadence == 0:
                snapshot = (fval, gn)
            perturbed = perturbs and gn <= eps0
            if perturbed:
                if directions is not None:
                    v, v_norm = _rs_perturbation(base, x, g, gn, rho, next(directions))
                else:
                    v, v_norm, *_ = _sa_perturbation(ss, x, g, gn, rho, jitter, rng)
                x_next = x - eta * (g + v)
                n_perturbed += 1
                branch = "perturbed"
            else:
                x_next = x - eta_prime * g
                v_norm = None
                n_gd += 1
                branch = "gd"
            f_next = float(base.value(x_next))
            if not (math.isfinite(f_next) and np.isfinite(x_next).all()):
                raise DivergenceError(
                    f"divergence at step {t}",
                    IterateRecord(t, branch, fval, gn, v_norm, None, None, tuple(map(float, x))),
                )
            if perturbed:
                slack = f_next - (fval - half_eta * gn * gn + half_beta_eta_sq * v_norm * v_norm)
                if slack > max_slack:
                    max_slack = slack
                if slack > DESCENT_SLACK:
                    violations += 1
            if snapshot is not None:
                tr = trace_at_flow_limit(base, x, flow_cfg) if t % tr_cadence == 0 else None
                records.append(
                    IterateRecord(
                        t,
                        branch,
                        snapshot[0],
                        snapshot[1],
                        v_norm,
                        tr,
                        f_next,
                        tuple(map(float, x)) if keep_x else None,
                    )
                )
            if t + 1 == returned_index:
                returned_x = x_next.copy()
            x = x_next
            fval = f_next
            g = base.grad(x)

    gn = math.sqrt(float(g @ g))
    branch = "gd" if (algorithm == "GD" or gn > sched.eps0) else "perturbed"
    records.append(
        IterateRecord(
            T,
            branch,
            fval,
            gn,
            None,
            trace_at_flow_limit(base, x, flow_cfg),
            None,
            tuple(map(float, x)) if keep_x else None,
        )
    )
    assert returned_x is not None
    return Trajectory(
        records=tuple(records),
        returned_index=returned_index,
        returned_x=tuple(map(float, returned_x)),
        final_x=tuple(map(float, x)),
        seed=rng.seed,
        stream=rng.stream,
        algorithm=algorithm,
        schedule=sched,
        n_perturbed=n_perturbed,
        n_gd=n_gd,
        descent_violations=violations,
        descent_max_slack=max_slack,
    )


def refine(
    obj,
    x,
    eps: float,
    beta_hat: float,
    step_scale: float = 1.0,
    budget: int | None = None,
    flow_cfg: FlowConfig = DEFAULT_FLOW,
) -> np.ndarray:
    """Plain-GD refinement toward the minima set with step of order ``eps``.

    Runs gradient descent until the flow-verified distance to the landing
    point drops below eps/2, within a budget of order eps^-1 * log(1/eps).
    Already-converged inputs (gradient norm <= 1e-12) are returned unchanged.
    """
    if eps <= 0 or beta_hat <= 0:
        raise ValueError("need eps > 0 and beta_hat > 0")
    base = base_of(obj)
    x = np.array(x, dtype=float)
    g = base.grad(x)
    gn = float(np.linalg.norm(g))
    if gn <= 1e-12:
        return x
    eta = min(step_scale * eps, 0.5 / beta_hat)
    if budget is None:
        budget = int(math.ceil(20.0 / eps * max(1.0, math.log(1.0 / eps))))
    gate = 0.5 * beta_hat * eps
    check_every = max(1, budget // 100)
    since_check = check_every  # check as soon as the gate opens
    for _ in range(budget):
        if gn <= gate:
            since_check += 1
            if since_check >= check_every:
                since_check = 0
                phi = gradient_flow_limit(base, x, flow_cfg)
                if float(np.linalg.norm(x - phi)) <= 0.5 * eps:
                    return x
        x = x - eta * g
        g = base.grad(x)
        gn = float(np.linalg.norm(g))
        if not math.isfinite(gn):
            raise DivergenceError(f"non-finite gradient during refinement at {x.tolist()}")
    phi = gradient_flow_limit(base, x, flow_cfg)
    if float(np.linalg.norm(x - phi)) <= 0.5 * eps:
        return x
    raise RefinementError(
        f"refinement budget {budget} exhausted at distance {float(np.linalg.norm(x - phi)):.3e}"
    )
