"""Per-layer measurements for the traced run.

Each per-layer metric has one definition, the same on every workload. Most
come from the probe set, which times each module's public functions at fixed
inputs: single calls, and two 2 000-step runs of the escape configurations.
Three describe the workload itself: ``objectives.build_ms`` (its set-up),
``objectives.grad_calls`` (calls into objective callables per round) and
``trace.wall_s`` (its traced rounds). The module split of the rounds' time
is printed beside the metrics (see ``bench/README.md``).
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

#: Every per-layer metric, with its unit; BENCHMARK.json lists the same.
PER_LAYER = {
    "objectives.build_ms": "ms",
    "objectives.grad_us": "us",
    "objectives.value_us": "us",
    "objectives.sample_grad_us": "us",
    "objectives.grad_many_ns_per_row": "ns",
    "objectives.grad_calls": "count",
    "geometry.sample_sphere_us": "us",
    "geometry.proj_out_us": "us",
    "geometry.sphere_batch_ns_per_row": "ns",
    "geometry.normalized_trace_us": "us",
    "flow.limit_us": "us",
    "flow.limit_steps": "count",
    "flow.oracle_limit_us": "us",
    "flow.certify_ms": "ms",
    "flow.trace_logging_s": "s",
    "optimizers.rs_step_us": "us",
    "optimizers.sa_step_us": "us",
    "optimizers.run_us_per_step": "us",
    "optimizers.loop_self_us_per_step": "us",
    "optimizers.trajectory_csv_ms": "ms",
    "oracle.sphere_moments_samples_per_s": "1/s",
    "oracle.rs_estimator_samples_per_s": "1/s",
    "oracle.sa_dfactor_samples_per_s": "1/s",
    "oracle.pl_constants_s": "s",
    "oracle.descent_lemma_s": "s",
    "cli.config_parse_us": "us",
    "cli.artifact_bytes": "count",
    "cli.seed_overhead_ms": "ms",
    "trace.wall_s": "s",
}

#: The escape configuration of the acceptance suite (criterion 4), one seed at a time.
ESCAPE_CONFIG = {
    "landscape": {"kind": "hyperbola"},
    "algorithm": "RS",
    "x0": [3.0, 1.0 / 3.0],
    "eps": 0.01,
    "delta": 0.2,
    "constants": {"c_eta": 5.0, "c_rho": 2.5, "c_eps0": 10.0},
    "budget_cap": 100_000,
    "seeds": [0],
    "log_cadence": 500,
    "tr_cadence": 10_000,
    "certify": {"eps": 0.05, "eps_prime": 0.3},
}
#: The probe's short escape seed: 1/50 of the steps, and the same 200 logged
#: records and 10 trace-at-limit solves as a full seed.
PROBE_STEPS = 2_000
PROBE_CONFIG = dict(ESCAPE_CONFIG, budget_cap=PROBE_STEPS, log_cadence=10, tr_cadence=200)

#: Data of the n = 4 factorization loss of acceptance criterion 5.
FACTOR_A = [1.0, 0.7, 1.3, 1.6]
#: Matched schedule of criterion 5 (the RS formulas, also used for SA).
SA_EPS, SA_DELTA = 0.01, 0.2
SA_CONSTANTS = {"c_eta": 5.0, "c_rho": 2.5, "c_eps0": 15.0}
SA_LOG_CADENCE = 200


def base_of(obj):
    return getattr(obj, "base", obj)


def sa_schedule_matched(fm, ss, budget: int):
    consts = fm.ScheduleConstants(**SA_CONSTANTS)
    return fm.rs_schedule(SA_EPS, SA_DELTA, ss.base.lipschitz_grad_hint, consts, budget_cap=budget)


def replay_trace_logging(fm, tracer, obj, traj, part_of: int) -> None:
    """Repeat the run's trace-at-limit solves at its logged iterates, as re-measures of the run."""
    base = base_of(obj)
    for r in traj.records:
        if r.tr_phi is not None:
            with tracer.span("flow.trace_at_flow_limit", part_of=part_of):
                fm.trace_at_flow_limit(base, np.array(r.x))


def execute_run_parts(fm, cli, tracer, cfg_data: dict):
    """The public calls ``execute_run`` makes for one seed, made directly and traced.

    ``execute_run`` builds its own objective, so its callables cannot be
    wrapped; this repeats its work through calls that can be. The artifact
    JSON and file writes are not repeated. Returns the run's span and trajectory.
    """
    with tracer.span("cli.ExperimentConfig.from_dict"):
        cfg = cli.ExperimentConfig.from_dict(cfg_data)
    with tracer.span("cli.build_schedule"):
        obj, sched = cli.build_schedule(cfg)
    obj = tracer.wrap_objective(obj)
    with tracer.span("optimizers.run") as run_span:
        traj = fm.run(
            obj, cfg.algorithm, np.array(cfg.x0), sched, fm.RngStream(cfg.seeds[0]),
            log_cadence=cfg.log_cadence, tr_cadence=cfg.tr_cadence,
        )
    replay_trace_logging(fm, tracer, obj, traj, run_span)
    with tracer.span("optimizers.trajectory_csv"):
        fm.trajectory_csv(traj)
    if cfg.certify is not None:
        with tracer.span("flow.certify_flat"):
            fm.certify_flat(obj, np.array(traj.returned_x), cfg.certify["eps"], cfg.certify["eps_prime"])
    return run_span, traj


def module_split(tree, run_ids, n_rounds: int) -> dict:
    """Self time per module per round; objective callables count as ``objectives``."""
    return {m: s / n_rounds for m, s in tree.module_self_s(run_ids).items()}


# ----- probe set ------------------------------------------------------------


def _per_call_s(fn, n: int, reps: int = 5) -> float:
    """Median over ``reps`` of the mean time of ``n`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def _near_hyperbola(p):
    u, v = p
    return 0.5 <= abs(u) <= 2.0 and abs(u * v - 1.0) / np.hypot(u, v) <= 0.1


def pl_region(fm):
    """The sampling region of the package's verify suite for the PL estimate."""
    return fm.SampleRegion(low=(-2.2, -2.2), high=(2.2, 2.2), predicate=_near_hyperbola, axis_probes=False)


def _run_figures(tree, run_span: int, steps: int) -> tuple[float, float, float]:
    """Per-step time, per-step loop self time and trace-logging time of one traced run."""
    logging_s = sum(tree.dur[j] for j in tree.children.get(run_span, ()))
    return tree.dur[run_span] / steps * 1e6, tree.self_s(run_span) / steps * 1e6, logging_s


def probe(fm, cli, tracer, out_dir: Path) -> dict:
    """Time each module's public functions at fixed inputs; returns per-layer values."""
    tracer.run_id = "probe"
    span = tracer.span
    hyp = fm.build_hyperbola()
    ss = fm.build_scalar_factorization(FACTOR_A, 1.0)
    m = {}
    x = np.array([1.5, 1.0 / 1.5 + 1e-3])
    x_rows = np.tile(x, (65_536, 1))
    rng = fm.RngStream(0)
    m["objectives.value_us"] = _per_call_s(lambda: hyp.value(x), 2000) * 1e6
    m["objectives.grad_us"] = _per_call_s(lambda: hyp.grad(x), 2000) * 1e6
    m["objectives.sample_grad_us"] = _per_call_s(lambda: ss.sample_grad(1, x), 2000) * 1e6
    m["objectives.grad_many_ns_per_row"] = _per_call_s(lambda: hyp.grad_many(x_rows), 10) / 65_536 * 1e9
    m["geometry.sample_sphere_us"] = _per_call_s(lambda: fm.sample_sphere(2, rng), 2000) * 1e6
    g, v = hyp.grad(x), hyp.grad(x + 0.05)
    m["geometry.proj_out_us"] = _per_call_s(lambda: fm.proj_out(g, v), 2000) * 1e6
    m["geometry.sphere_batch_ns_per_row"] = (
        _per_call_s(lambda: fm.sample_sphere_batch(2, 65_536, rng), 10) / 65_536 * 1e9
    )
    m["geometry.normalized_trace_us"] = _per_call_s(lambda: fm.normalized_trace(hyp, x), 2000) * 1e6

    # DEFAULT_FLOW solves from points 0.01 off the factorization's minima set,
    # from the escape start (t = ln 3) to the flat point, as SA logs them.
    ss_w = tracer.wrap_objective(ss)
    starts = []
    for t in (np.log(3.0), 0.6, 0.2, 0.0):
        u, w = np.exp(t), np.exp(-t)
        starts.append(np.array([u, w]) + 0.01 * np.array([w, u]) / np.hypot(u, w))
    m["flow.limit_us"] = (
        _per_call_s(lambda: [fm.trace_at_flow_limit(ss.base, p) for p in starts], 1) / len(starts) * 1e6
    )
    with span("flow.trace_at_flow_limit") as sp:
        for p in starts:
            fm.trace_at_flow_limit(ss_w.base, p)
    m["flow.limit_steps"] = tracer.spans[sp].obj_calls / len(starts)
    # The certifier's finite-difference probes around a landing point.
    phi = np.array([np.exp(0.3), np.exp(-0.3)])
    probes = [phi + s * 1e-4 * e for e in np.eye(2) for s in (1.0, -1.0)]
    m["flow.oracle_limit_us"] = (
        _per_call_s(lambda: [fm.gradient_flow_limit(hyp, p, fm.ORACLE_FLOW) for p in probes], 5) / 4 * 1e6
    )
    x_cert = phi + 0.01 * np.array([phi[1], phi[0]])
    m["flow.certify_ms"] = _per_call_s(lambda: fm.certify_flat(hyp, x_cert, 0.05, 0.3), 5) * 1e3

    sched = cli.build_schedule(cli.ExperimentConfig.from_dict(ESCAPE_CONFIG))[1]
    x0 = np.array(ESCAPE_CONFIG["x0"])
    m["optimizers.rs_step_us"] = _per_call_s(lambda: fm.rs_step(hyp, x0, sched.eta, sched.rho, rng), 1000) * 1e6
    sa_sched = sa_schedule_matched(fm, ss, 1000)
    x_off = np.array([3.0, 1.0 / 3.0 + 1e-3])
    m["optimizers.sa_step_us"] = (
        _per_call_s(lambda: fm.sa_step(ss, x_off, sa_sched.eta, sa_sched.rho, 1e-12, rng), 1000) * 1e6
    )
    m["cli.config_parse_us"] = _per_call_s(lambda: cli.ExperimentConfig.from_dict(ESCAPE_CONFIG), 500) * 1e6

    # Short escape seeds: RS through the parts of execute_run, SA through run.
    run_span, traj = execute_run_parts(fm, cli, tracer, PROBE_CONFIG)
    tree = tracer.analyse()
    m["optimizers.run_us_per_step"], m["optimizers.loop_self_us_per_step"], _ = _run_figures(
        tree, run_span, PROBE_STEPS
    )
    m["optimizers.trajectory_csv_ms"] = _per_call_s(lambda: fm.trajectory_csv(traj), 5) * 1e3
    with span("optimizers.run") as sa_span:
        sa_traj = fm.run(ss_w, "SA", x0, sa_schedule_matched(fm, ss, PROBE_STEPS), fm.RngStream(0),
                         log_cadence=SA_LOG_CADENCE, tr_cadence=SA_LOG_CADENCE)
    replay_trace_logging(fm, tracer, ss_w, sa_traj, sa_span)
    m["flow.trace_logging_s"] = _run_figures(tracer.analyse(), sa_span, PROBE_STEPS)[2]

    n = 2**17
    x_est = np.array([1.2, 1.0 / 1.2])
    oqm = fm.build_landscape(fm.LandscapeSpec("orthogonal_quadratic_model", {"d": 16, "n": 4, "y": [0.5] * 4}))
    x_min = np.array([1.0] * 4 + [0.0] * 12)
    for key, fn in (
        ("sphere_moments", lambda: fm.check_sphere_moments(5, n, fm.RngStream(0))),
        ("rs_estimator", lambda: fm.check_rs_estimator(hyp, x_est, 0.01, n, fm.RngStream(0))),
        ("sa_dfactor", lambda: fm.check_sa_dfactor(oqm, x_min, 0.01, n, fm.RngStream(0))),
    ):
        m[f"oracle.{key}_samples_per_s"] = n / _per_call_s(fn, 1, reps=3)
    m["oracle.pl_constants_s"] = _per_call_s(
        lambda: fm.estimate_pl_constants(hyp, pl_region(fm), 200, fm.RngStream(0)), 1, reps=1
    )
    dl_sched = fm.rs_schedule(0.01, 0.2, hyp.lipschitz_grad_hint, budget_cap=2000)
    dl_traj = fm.run(hyp, "RS", np.array([1.5, 1 / 1.5]), dl_sched, fm.RngStream(0), log_cadence=1)
    m["oracle.descent_lemma_s"] = _per_call_s(lambda: fm.check_descent_lemma(dl_traj, hyp.lipschitz_grad_hint), 1, 3)

    m["cli.seed_overhead_ms"], m["cli.artifact_bytes"] = _seed_overhead(fm, cli, out_dir)
    return m


def _seed_overhead(fm, cli, out_dir: Path, reps: int = 5) -> tuple[float, int]:
    """``execute_run`` less ``run`` on the probe's short escape seed (median of ``reps``
    pairs), and the bytes of the artifacts it writes.

    At full length the difference between the two calls is about 1 % of a
    seed, below this host's run-to-run drift; the short seed keeps the fixed
    part (config parsing, landscape builds, 200-record artifacts, certificate)
    and cuts the loop.
    """
    cfg = cli.ExperimentConfig.from_dict(PROBE_CONFIG)
    obj, sched = cli.build_schedule(cfg)
    diffs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        cli.execute_run(cli.ExperimentConfig.from_dict(PROBE_CONFIG), out_dir, threads=1)
        t1 = time.perf_counter()
        fm.run(obj, cfg.algorithm, np.array(cfg.x0), sched, fm.RngStream(cfg.seeds[0]),
               log_cadence=cfg.log_cadence, tr_cadence=cfg.tr_cadence)
        t2 = time.perf_counter()
        diffs.append((t1 - t0) - (t2 - t1))
    size = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file())
    return statistics.median(diffs) * 1e3, size
