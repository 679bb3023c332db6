"""Negative controls: each correctness check passes on a real output and fails on a wrong one.

Run with ``python3 -m pytest bench``; the package is imported from ``src/``.
"""

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import flatmin as fm  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402


@pytest.fixture(scope="module")
def hyp():
    return fm.build_hyperbola()


@pytest.fixture(scope="module")
def traj(hyp):
    """A short escape run from (3, 1/3) with every logged step carrying its trace."""
    sched = fm.rs_schedule(0.01, 0.2, hyp.lipschitz_grad_hint, fm.ScheduleConstants(5.0, 2.5, 10.0), budget_cap=3000)
    return fm.run(hyp, "RS", np.array([3.0, 1.0 / 3.0]), sched, fm.RngStream(0), log_cadence=100, tr_cadence=500)


def test_trajectory_check(traj):
    good = traj.to_dict()
    assert checks.check_trajectory(good, 1.0, 1.0, initial_trace=9.0 + 1.0 / 9.0) == []
    assert checks.check_trajectory(good, 1.0, 1.0, initial_trace=9.2)
    for mutate in (
        lambda d: d["records"][5].update(tr_phi=d["records"][5]["tr_phi"] + 1e-6),
        lambda d: d["records"][2].update(f=d["records"][2]["f"] * (1 + 1e-9)),
        lambda d: d["records"][3].update(f_after=1.0),
        lambda d: d.update(descent_violations=1),
        lambda d: d.update(n_perturbed=0),
    ):
        bad = copy.deepcopy(good)
        mutate(bad)
        assert checks.check_trajectory(bad, 1.0, 1.0), mutate


def test_escape_step_and_final_traces(traj):
    d = traj.to_dict()
    assert checks.escape_step(d, 1.0, 1.0) is None  # 3000 steps do not reach the flat minimum
    assert checks.escape_step(d, 1.0, 1.0, tau=10.0) == 0
    assert checks.check_final_traces([2.0, 2.1, 2.4], 1.0, 1.0) == []
    assert checks.check_final_traces([2.0, 2.6, 2.7], 1.0, 1.0)


def test_artifact_checks(traj):
    d = json.loads(json.dumps(traj.to_dict()))
    csv = fm.trajectory_csv(traj)
    assert checks.check_csv_matches(csv, d) == []
    row = csv.splitlines()[3]
    fields = row.split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-12))
    assert checks.check_csv_matches(csv.replace(row, ",".join(fields)), d)
    # One byte changed between reruns, even where the parsed value is unchanged.
    changed = csv.replace(row, row[:-1] + ("1" if row[-1] != "1" else "2"))
    files = {"seed_0.csv": csv.encode(), "seed_0.json": json.dumps(d).encode()}
    assert checks.check_identical(files, dict(files)) == []
    assert checks.check_identical(files, {**files, "seed_0.csv": changed.encode()})
    assert checks.check_identical(files, {"seed_0.json": files["seed_0.json"]})


@pytest.mark.parametrize("t,off,passes", [(0.0, 0.01, True), (0.6, -0.02, False)])
def test_certificate_check(hyp, t, off, passes):
    u, v = math.exp(t), math.exp(-t)
    h = math.hypot(u, v)
    x = np.array([u + off * v / h, v + off * u / h])
    cert = json.loads(fm.certify_flat(hyp, x, 0.05, 0.3).to_json())
    assert cert["passed"] is passes
    assert checks.check_certificate(cert, 1.0, 1.0) == []
    for mutate in (
        lambda c: c.update(phi_x=[c["phi_x"][0] + 1e-3, c["phi_x"][1]]),
        lambda c: c.update(dist=c["dist"] + 1e-3),
        lambda c: c.update(flat_grad_norm=c["flat_grad_norm"] * 1.01 + 1e-5),
        lambda c: c.update(passed=not c["passed"]),
    ):
        bad = copy.deepcopy(cert)
        mutate(bad)
        assert checks.check_certificate(bad, 1.0, 1.0), mutate
    # Within the stated margin of eps_prime the flag is not compared.
    flat = reference.flat_grad_norm(reference.landing_point(cert["x"], 1.0), 1.0, 1.0)
    undecided = dict(cert, eps_prime=flat * (1 + 0.5 * checks.FLAG_MARGIN), passed=not cert["passed"])
    assert checks.check_certificate(undecided, 1.0, 1.0) == []


def test_sphere_report_check():
    rep = fm.check_sphere_moments(5, 100_000, fm.RngStream(1)).to_dict()
    assert checks.check_sphere_report(rep, 5, 100_000) == []
    over = dict(rep, measured=[rep["measured"][0] + 4.0 * math.sqrt(1 / 5e5), rep["measured"][1]])
    assert checks.check_sphere_report(over, 5, 100_000)
    assert checks.check_sphere_report(dict(rep, passed=False), 5, 100_000)


def test_rs_estimator_and_decay_checks(hyp):
    x = (1.2, 1.0 / 1.2)
    rep = fm.check_rs_estimator(hyp, np.array(x), 0.01, 200_000, fm.RngStream(2)).to_dict()
    assert checks.check_rs_estimator_report(rep, x, 0.01, 1.0, 1.0) == []
    scaled = dict(rep, measured=[1.2 * m for m in rep["measured"]])
    assert checks.check_rs_estimator_report(scaled, x, 0.01, 1.0, 1.0)
    decay = {"name": "rs-decay", "measured": 4.01, "passed": True, "not_applicable": False,
             "extras": {"rho_hi": 0.02, "rho_lo": 0.01}}
    assert checks.check_rs_decay_report(decay) == []
    assert checks.check_rs_decay_report(dict(decay, measured=2.9))


def test_dfactor_check():
    spec = fm.LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
    obj = fm.build_landscape(spec)
    rep = fm.check_sa_dfactor(obj, fm.canonical_minimum(spec), 0.01, 100_000, fm.RngStream(3)).to_dict()
    assert checks.check_dfactor_report(rep, 4, 2, [0.5, 0.5]) == []
    assert checks.check_dfactor_report(dict(rep, measured=4.5), 4, 2, [0.5, 0.5])
    extras = dict(rep["extras"], measured_sa=rep["extras"]["measured_sa"] * 1.01)
    assert checks.check_dfactor_report(dict(rep, extras=extras), 4, 2, [0.5, 0.5])


def test_pl_check(hyp):
    region = layers.pl_region(fm)
    alpha, beta = fm.estimate_pl_constants(hyp, region, 50, fm.RngStream(4))
    points = region.draw(50, fm.RngStream(4)).tolist()
    assert checks.check_pl(alpha, beta, points, 1.0, 1.0) == []
    assert checks.check_pl(alpha * 1.01, beta, points, 1.0, 1.0)
    assert checks.check_pl(alpha, beta * 0.99, points, 1.0, 1.0)


def test_descent_report_check(hyp):
    sched = fm.rs_schedule(0.01, 0.2, hyp.lipschitz_grad_hint, budget_cap=300)
    traj = fm.run(hyp, "RS", np.array([1.5, 1 / 1.5]), sched, fm.RngStream(5), log_cadence=1)
    rep = fm.check_descent_lemma(traj, hyp.lipschitz_grad_hint).to_dict()
    d = traj.to_dict()
    assert checks.check_descent_report(rep, d, 1.0, 1.0) == []
    assert checks.check_descent_report(dict(rep, passed=False), d, 1.0, 1.0)
    assert checks.check_descent_report(dict(rep, n_samples=rep["n_samples"] - 1), d, 1.0, 1.0)
