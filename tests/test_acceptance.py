"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The escape-regression
config (criterion 4) executes through the CLI artifact path; its outputs are
shared with the determinism and descent-lemma criteria.
"""

import json
import time

import numpy as np
import pytest

from flatmin import (
    RngStream,
    ScheduleConstants,
    build_convex_quadratic,
    build_hyperbola,
    build_landscape,
    build_scalar_factorization,
    canonical_minimum,
    check_descent_lemma,
    check_rs_decay,
    check_rs_estimator,
    check_sa_dfactor,
    check_sphere_moments,
    gradient_flow_limit,
    restricted_trace_gradient,
    rs_schedule,
    run,
)
from flatmin.cli import ExperimentConfig, execute_run
from flatmin.objectives import LandscapeSpec

from conftest import near_manifold_points
from references import ACCURATE_FLOW, fd_jacobian


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'}: {detail}", flush=True)
    assert passed, f"{criterion}: {detail}"


ESCAPE_CONFIG = {
    "landscape": {"kind": "hyperbola"},
    "algorithm": "RS",
    "x0": [3.0, 1.0 / 3.0],
    "eps": 0.01,
    "delta": 0.2,
    "constants": {"c_eta": 5.0, "c_rho": 2.5, "c_eps0": 10.0},
    "budget_cap": 100_000,
    "seeds": list(range(20)),
    "log_cadence": 500,
    "tr_cadence": 10_000,
    "certify": {"eps": 0.05, "eps_prime": 0.3},
}


@pytest.fixture(scope="session")
def escape_artifacts(tmp_path_factory):
    """First execution of the escape config through the CLI artifact path."""
    out = tmp_path_factory.mktemp("escape_run_a")
    cfg = ExperimentConfig.from_dict(ESCAPE_CONFIG)
    t0 = time.monotonic()
    code = execute_run(cfg, out)
    elapsed = time.monotonic() - t0
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    return {"out": out, "summary": summary, "elapsed": elapsed}


@pytest.fixture(scope="session")
def sa_vs_rs_runs():
    """Matched-schedule RS and SA trajectories on the n=4 factorization loss."""
    ss = build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0)
    consts = ScheduleConstants(c_eta=5.0, c_rho=2.5, c_eps0=15.0)
    sched = rs_schedule(0.01, 0.2, ss.base.lipschitz_grad_hint, consts, budget_cap=4000)
    x0 = np.array([3.0, 1.0 / 3.0])
    t0 = time.monotonic()
    trajectories = {"RS": [], "SA": []}
    for algorithm in ("RS", "SA"):
        for seed in range(20):
            trajectories[algorithm].append(
                run(ss, algorithm, x0, sched, RngStream(seed), log_cadence=800, tr_cadence=800)
            )
    return {"trajs": trajectories, "sched": sched, "elapsed": time.monotonic() - t0}


def test_criterion_01_estimator_identity():
    t0 = time.monotonic()
    obj = build_hyperbola()
    rep = check_rs_estimator(obj, np.array([1.2, 1.0 / 1.2]), 0.01, 10**6, RngStream(0))
    elapsed = time.monotonic() - t0
    measured = np.array(rep.measured)
    reference = 0.5 * 0.01**2 * np.array([2.4, 1.0 / 0.6])
    componentwise = np.abs(measured - reference) <= 0.1 * np.abs(reference)
    _report(
        "criterion 1",
        bool(np.all(componentwise)) and elapsed <= 30.0,
        f"mean={measured.tolist()} vs ref={reference.tolist()} ({elapsed:.1f}s)",
    )


def test_criterion_02_rho_decay_of_remainder():
    t0 = time.monotonic()
    obj = build_hyperbola()
    rep = check_rs_decay(obj, np.array([1.2, 1.0 / 1.2]), 0.02, 0.01, 10**7, seed=1)
    elapsed = time.monotonic() - t0
    _report(
        "criterion 2",
        rep.measured >= 3.0 and elapsed <= 300.0,
        f"deviation shrink factor {rep.measured:.3f} (theory 4) ({elapsed:.1f}s)",
    )


@pytest.mark.parametrize("d,n", [(4, 2), (16, 4), (64, 16)])
def test_criterion_03_sa_dfactor(d, n):
    t0 = time.monotonic()
    spec = LandscapeSpec("orthogonal_quadratic_model", {"d": d, "n": n, "y": [0.5] * n})
    obj = build_landscape(spec)
    rep = check_sa_dfactor(obj, canonical_minimum(spec), 0.01, 10**6, RngStream(d))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 3",
        abs(rep.measured - d) <= 0.1 * d and elapsed <= 120.0,
        f"d={d}: curvature-signal ratio {rep.measured:.3f} ({elapsed:.1f}s)",
    )


def test_criterion_04_escape_regression(escape_artifacts):
    summary = escape_artifacts["summary"]
    elapsed = escape_artifacts["elapsed"]
    entries = summary["seeds"]
    assert all(e["status"] == "ok" for e in entries)
    initial = [e["initial_tr_phi"] for e in entries]
    assert all(abs(v - (9.0 + 1.0 / 9.0)) <= 1e-9 for v in initial)
    median_final = summary["median_final_tr_phi"]
    certified = [e for e in entries if e["certificate"]["passed"]]
    _report(
        "criterion 4",
        median_final <= 2.5 and len(certified) >= 1 and elapsed <= 300.0,
        f"median final trace {median_final:.3f} (start 9.111), "
        f"{len(certified)}/20 returned iterates certified at (0.05, 0.3) ({elapsed:.1f}s)",
    )


def test_criterion_04_supporting_trace_decrease_ensemble(escape_artifacts):
    # Averaged over the 20 seeds, the trace-at-limit sequence decreases
    # strictly between consecutive log points until it enters [2, 2.3].
    out = escape_artifacts["out"]
    paths = []
    for seed in ESCAPE_CONFIG["seeds"]:
        traj = json.loads((out / f"seed_{seed}.json").read_text())
        trs = [r["tr_phi"] for r in traj["records"] if r["tr_phi"] is not None]
        paths.append(trs)
    lengths = {len(p) for p in paths}
    assert len(lengths) == 1
    means = np.mean(np.array(paths), axis=0)
    entered = False
    for a, b in zip(means, means[1:]):
        if a <= 2.3:
            entered = True
            break
        assert b < a, f"ensemble mean failed to decrease: {a:.4f} -> {b:.4f}"
    assert entered or means[-1] <= 2.3
    print(f"[criterion 4 support] PASS: ensemble trace path {np.round(means, 3).tolist()}", flush=True)


def test_criterion_05_sa_beats_rs_per_step(sa_vs_rs_runs):
    trajs = sa_vs_rs_runs["trajs"]
    elapsed = sa_vs_rs_runs["elapsed"]
    mean_dec = {}
    for algorithm, runs_ in trajs.items():
        decs = []
        for traj in runs_:
            trs = [r.tr_phi for r in traj.records if r.tr_phi is not None]
            decs.append((trs[0] - trs[-1]) / (len(trs) - 1))
        mean_dec[algorithm] = float(np.mean(decs))
    ratio = mean_dec["SA"] / mean_dec["RS"]
    _report(
        "criterion 5",
        ratio >= 1.5 and elapsed <= 300.0,
        f"per-log-point decrease SA/RS = {ratio:.3f} "
        f"(SA {mean_dec['SA']:.3f}, RS {mean_dec['RS']:.3f}) ({elapsed:.1f}s)",
    )


def test_criterion_06_descent_lemma_everywhere(escape_artifacts, sa_vs_rs_runs):
    entries = escape_artifacts["summary"]["seeds"]
    escape_violations = sum(e["descent_violations"] for e in entries)
    escape_perturbed = sum(e["n_perturbed"] for e in entries)
    matched_violations = 0
    matched_perturbed = 0
    for runs_ in sa_vs_rs_runs["trajs"].values():
        for traj in runs_:
            matched_violations += traj.descent_violations
            matched_perturbed += traj.n_perturbed
    # Independent recheck of the logged records of one trajectory per algorithm.
    sched = sa_vs_rs_runs["sched"]
    for runs_ in sa_vs_rs_runs["trajs"].values():
        rep = check_descent_lemma(runs_[0], sched.beta_hat)
        assert rep.passed and rep.n_samples > 0
    _report(
        "criterion 6",
        escape_violations == 0 and matched_violations == 0 and escape_perturbed > 0,
        f"0 violations across {escape_perturbed + matched_perturbed} perturbed steps "
        f"(slack 1e-12, escape + matched runs)",
    )


def test_criterion_07_flat_gradient_vanishing():
    t0 = time.monotonic()
    hyp = build_hyperbola()
    worst_hyp = 0.0
    for point in ([1.0, 1.0], [-1.0, -1.0]):
        g = restricted_trace_gradient(hyp, np.array(point))
        worst_hyp = max(worst_hyp, float(np.linalg.norm(g)))
    worst_quad = 0.0
    for eigs in ([1.0, 1.0], [2.0, 4.0], [0.5, 1.0, 2.0, 4.0, 8.0]):
        quad = build_convex_quadratic(eigs)
        g = restricted_trace_gradient(quad, np.zeros(len(eigs)))
        worst_quad = max(worst_quad, float(np.linalg.norm(g)))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 7",
        worst_hyp <= 1e-4 and worst_quad <= 1e-6 and elapsed <= 10.0,
        f"restricted trace gradient {worst_hyp:.2e} at flat manifold points, "
        f"{worst_quad:.2e} at isolated minima ({elapsed:.1f}s)",
    )


def test_criterion_08_tangency():
    obj = build_hyperbola()
    points = near_manifold_points(50, seed=808)
    worst = 0.0
    for x in points:
        J = fd_jacobian(lambda p: gradient_flow_limit(obj, p, ACCURATE_FLOW), x, 1e-4)
        g = obj.grad(x)
        worst = max(worst, float(np.linalg.norm(J @ g) / np.linalg.norm(g)))
    _report(
        "criterion 8",
        worst <= 1e-4,
        f"max ||dPhi grad|| / ||grad|| = {worst:.2e} over 50 near-manifold points",
    )


def test_criterion_09_sphere_moments():
    rep = check_sphere_moments(5, 10**6, RngStream(9))
    mean_inf, fro = rep.measured
    _report(
        "criterion 9",
        mean_inf <= 2e-3 and fro <= 5e-3,
        f"|mean|_inf = {mean_inf:.2e} (<= 2e-3), cov Frobenius dev = {fro:.2e} (<= 5e-3)",
    )


def test_criterion_10_determinism(escape_artifacts, tmp_path_factory):
    out_b = tmp_path_factory.mktemp("escape_run_b")
    cfg = ExperimentConfig.from_dict(ESCAPE_CONFIG)
    code = execute_run(cfg, out_b)
    assert code == 0
    out_a = escape_artifacts["out"]
    identical = all(
        (out_a / f"seed_{s}.csv").read_bytes() == (out_b / f"seed_{s}.csv").read_bytes()
        for s in ESCAPE_CONFIG["seeds"]
    )
    _report(
        "criterion 10",
        identical,
        "two executions of the escape config produced byte-identical CSV bodies",
    )
