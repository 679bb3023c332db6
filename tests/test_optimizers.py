import dataclasses
import math

import numpy as np
import pytest

from flatmin import (
    DegenerateSampleError,
    DivergenceError,
    RefinementError,
    RngStream,
    SampleSumObjective,
    Schedule,
    ScheduleConstants,
    build_convex_quadratic,
    build_hyperbola,
    build_landscape,
    build_scalar_factorization,
    canonical_minimum,
    gradient_flow_limit,
    refine,
    rs_schedule,
    rs_step,
    run,
    sa_schedule,
    sa_step,
    trace_at_flow_limit,
    trajectory_csv,
)
from flatmin.geometry import SPHERE_BLOCK
from flatmin.objectives import LandscapeSpec

from conftest import hyperbola_manifold_point


class TestRsSchedule:
    def test_direct_substitution(self):
        sched = rs_schedule(0.01, 0.1, beta_hat=56.0)
        assert sched.eta == pytest.approx(1e-3)
        assert sched.eta_prime == pytest.approx(1.0 / 56.0)
        assert sched.rho == pytest.approx(1e-2)
        assert sched.eps0 == pytest.approx(0.1**1.5 * 0.01)
        # raw step count 1e10 hits the default cap
        assert sched.steps == 1_000_000

    def test_rho_scales_with_sqrt_eps(self):
        a = rs_schedule(0.04, 0.5, 10.0)
        b = rs_schedule(0.01, 0.5, 10.0)
        assert a.rho == pytest.approx(2 * b.rho)
        assert a.eta == pytest.approx(0.02)
        assert a.rho == pytest.approx(0.1)

    def test_eta_below_eta_prime_at_default_constants(self):
        for eps in (1e-2, 1e-3):
            for delta in (0.1, 0.3):
                sched = rs_schedule(eps, delta, beta_hat=56.0)
                assert sched.eta <= sched.eta_prime

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            rs_schedule(0.01, 0.0, 1.0)
        with pytest.raises(ValueError):
            rs_schedule(0.01, 1.0, 1.0)
        with pytest.raises(ValueError):
            rs_schedule(-0.01, 0.5, 1.0)
        with pytest.raises(ValueError):
            rs_schedule(0.01, 0.5, 0.0)

    def test_constants_multiply(self):
        c = ScheduleConstants(c_eta=5.0, c_rho=2.5, c_eps0=10.0, c_T=2.0)
        sched = rs_schedule(0.01, 0.2, 56.0, c, budget_cap=10**10)
        assert sched.eta == pytest.approx(5.0 * 0.2 * 0.01)
        assert sched.rho == pytest.approx(2.5 * 0.2 * 0.1)
        assert sched.steps == pytest.approx(1.25e9, abs=2)


class TestSaSchedule:
    def test_nu_is_dimension_capped(self):
        assert sa_schedule(1e-3, 0.1, 2, 1.0).nu == pytest.approx(2.0)
        assert sa_schedule(1e-3, 0.1, 100, 1.0).nu == pytest.approx(10.0)

    def test_direct_substitution(self):
        sched = sa_schedule(0.01, 0.1, 8, 56.0)
        nu = 0.01 ** (-1 / 3)
        assert sched.nu == pytest.approx(nu)
        assert sched.eta == pytest.approx(nu * 0.1 * 0.01)
        assert sched.rho == pytest.approx(nu * 0.1 * 0.1)
        assert sched.eps0 == pytest.approx(nu**1.5 * 0.1**1.5 * 0.01)
        assert sched.jitter == pytest.approx(max(0.01**3, 1e-12))

    def test_step_budget_formula(self):
        sched = sa_schedule(0.01, 0.5, 2, 1.0, budget_cap=10**12)
        raw = 0.01**-2 * 0.5**-4 * max(1.0, 1.0 / (8 * 0.01)) / 2
        assert sched.steps == int(raw)

    def test_jitter_floor(self):
        assert sa_schedule(1e-5, 0.1, 2, 1.0).jitter == 1e-12


class TestScheduleValidation:
    def test_positive_fields_required(self):
        with pytest.raises(ValueError):
            Schedule(eta=0.0, eta_prime=1.0, rho=0.1, eps0=0.1, steps=10, beta_hat=1.0)
        with pytest.raises(ValueError):
            Schedule(eta=0.1, eta_prime=1.0, rho=0.1, eps0=0.1, steps=0, beta_hat=1.0)

    def test_to_dict_round_trips_constants(self):
        sched = rs_schedule(0.01, 0.2, 2.0, ScheduleConstants(c_eta=3.0))
        data = sched.to_dict()
        assert data["constants"]["c_eta"] == 3.0
        assert data["steps"] == sched.steps


class TestRsStep:
    def test_zero_radius_reduces_to_gradient_descent(self):
        obj = build_hyperbola()
        x = np.array([1.4, 0.9])
        x_next, diag = rs_step(obj, x, 1e-3, 0.0, RngStream(0))
        assert diag.v_norm <= 1e-12
        assert np.allclose(x_next, x - 1e-3 * obj.grad(x), atol=1e-15)

    def test_perturbation_orthogonal_to_gradient(self):
        obj = build_hyperbola()
        rng = RngStream(1)
        gen = np.random.Generator(np.random.PCG64(2))
        for _ in range(100):
            x = gen.uniform(-2, 2, size=2)
            _, diag = rs_step(obj, x, 1e-3, 0.05, rng)
            g = obj.grad(x)
            assert abs(float(diag.v @ g)) <= 1e-10 * max(diag.v_norm * np.linalg.norm(g), 1e-30)

    def test_perturbation_norm_bounded_by_beta_rho(self):
        obj = build_hyperbola()
        rng = RngStream(3)
        rho = 0.05
        for s in np.geomspace(0.5, 2.5, 10):
            x = hyperbola_manifold_point(s)
            _, diag = rs_step(obj, x, 1e-3, rho, rng)
            assert diag.v_norm <= obj.lipschitz_grad_hint * rho * (1 + 1e-12)

    def test_quadratic_perturbation_mean_vanishes(self):
        # For a quadratic the third derivative vanishes, so the perturbation
        # has no systematic component; antithetic pairs cancel it exactly.
        obj = build_convex_quadratic([1.0, 1.0])
        x = np.array([0.5, -0.25])
        rng = RngStream(4)
        acc = np.zeros(2)
        n = 4000
        for _ in range(n):
            _, diag = rs_step(obj, x, 1e-3, 0.05, rng)
            acc += diag.v
        assert np.linalg.norm(acc / n) <= 5.0 * 0.05 / math.sqrt(n)

    def test_monte_carlo_mean_recovers_trace_gradient(self):
        # On the minima manifold the full gradient vanishes, so the mean
        # perturbation exposes 0.5*rho^2 times the trace gradient (2x1, 2x2).
        obj = build_hyperbola()
        x = np.array([1.2, 1.0 / 1.2])
        rho = 0.01
        rng = RngStream(27)
        acc = np.zeros(2)
        n = 10**6
        for _ in range(n):
            _, diag = rs_step(obj, x, 1e-3, rho, rng)
            acc += diag.v
        mean = acc / n
        ref = 0.5 * rho**2 * np.array([2.4, 2.0 / 1.2])
        assert np.all(np.abs(mean - ref) <= 0.1 * np.abs(ref))

    def test_invalid_steps_rejected(self):
        obj = build_hyperbola()
        with pytest.raises(ValueError):
            rs_step(obj, np.ones(2), 0.0, 0.1, RngStream(0))
        with pytest.raises(ValueError):
            rs_step(obj, np.ones(2), 1e-3, -0.1, RngStream(0))


class TestSaStep:
    def test_single_sample_zero_radius_is_gradient_descent(self):
        ss = build_scalar_factorization([1.0], 1.0)
        x = np.array([1.4, 0.5])
        x_next, diag = sa_step(ss, x, 1e-3, 0.0, 1e-9, RngStream(0))
        assert diag.v_norm <= 1e-12
        assert np.allclose(x_next, x - 1e-3 * ss.base.grad(x), atol=1e-15)

    def test_jittered_direction_at_interpolating_minimum(self):
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        ss = build_landscape(spec)
        x_star = canonical_minimum(spec)
        rng = RngStream(5)
        for _ in range(50):
            _, diag = sa_step(ss, x_star, 1e-3, 0.01, 1e-9, rng)
            assert abs(np.linalg.norm(diag.direction) - 1.0) <= 1e-12
            assert diag.sigma in (-1.0, 1.0)
            assert 0 <= diag.sample_index < 2

    def test_curvature_signal_is_dimension_times_trace(self):
        # Zero-variance case: every jittered direction aligns with a
        # prediction gradient, whose per-sample quadratic form equals the
        # full trace.
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        ss = build_landscape(spec)
        x_star = canonical_minimum(spec)
        rng = RngStream(6)
        acc = 0.0
        n = 10**5
        for _ in range(n):
            _, diag = sa_step(ss, x_star, 1e-3, 0.01, 1e-9, rng)
            H = ss.sample_hess(diag.sample_index, x_star)
            acc += float(diag.direction @ H @ diag.direction)
        d_times_trace = 4 * trace_at_flow_limit(ss, x_star)
        assert abs(acc / n - d_times_trace) <= 0.05 * d_times_trace

    def test_degenerate_sample_error(self):
        flat = SampleSumObjective(
            base=build_convex_quadratic([1.0, 1.0]),
            n=1,
            sample_value=lambda i, x: 0.0,
            sample_grad=lambda i, x: np.zeros(2),
        )
        with pytest.raises(DegenerateSampleError):
            sa_step(flat, np.zeros(2), 1e-3, 0.01, 1e-9, RngStream(0))

    def test_requires_sample_sum_objective(self):
        with pytest.raises(TypeError):
            sa_step(build_hyperbola(), np.ones(2), 1e-3, 0.01, 1e-9, RngStream(0))


def _manual_schedule(eta_prime: float, steps: int, beta_hat: float) -> Schedule:
    return Schedule(
        eta=min(0.5 / beta_hat, eta_prime),
        eta_prime=eta_prime,
        rho=0.1,
        eps0=1e-15,
        steps=steps,
        beta_hat=beta_hat,
    )


class TestRun:
    def test_gd_geometric_contraction(self):
        obj = build_convex_quadratic([1.0, 1.0])
        sched = _manual_schedule(eta_prime=0.5, steps=100, beta_hat=2.0)
        traj = run(obj, "GD", np.array([3.0, -2.0]), sched, RngStream(0), log_cadence=10)
        bound = 0.5**100 * np.linalg.norm([3.0, -2.0])
        assert np.linalg.norm(traj.final_x) <= bound * (1 + 1e-12)
        fs = [r.f for r in traj.records]
        assert all(b <= a for a, b in zip(fs, fs[1:]))

    def test_rs_on_quadratic_keeps_trace_constant(self):
        obj = build_convex_quadratic([1.0, 1.0, 1.0])
        sched = rs_schedule(0.01, 0.2, 1.0, budget_cap=500)
        traj = run(obj, "RS", np.array([0.01, 0.0, -0.01]), sched, RngStream(1), log_cadence=50)
        for r in traj.records:
            if r.tr_phi is not None:
                assert r.tr_phi == pytest.approx(1.0, abs=1e-12)

    def test_branch_predicate_matches_gradient_gate(self):
        obj = build_hyperbola()
        # Gate sized so perturbation kicks push the gradient above it.
        sched = Schedule(
            eta=5e-3, eta_prime=1.0 / 56, rho=0.05, eps0=2e-3, steps=3000, beta_hat=56.0
        )
        traj = run(obj, "RS", np.array([1.5, 1 / 1.5]), sched, RngStream(2), log_cadence=1)
        branches = {r.branch for r in traj.records}
        assert branches == {"perturbed", "gd"}
        for r in traj.records:
            if r.branch == "gd":
                assert r.grad_norm > sched.eps0
            else:
                assert r.grad_norm <= sched.eps0
            if r.branch == "perturbed" and r.t < sched.steps:
                assert r.v_norm is not None
                assert r.v_norm <= sched.beta_hat * sched.rho * (1 + 1e-12)

    def test_descent_lemma_tracked_inline(self):
        obj = build_hyperbola()
        consts = ScheduleConstants(c_eta=5.0, c_rho=2.5, c_eps0=10.0)
        sched = rs_schedule(0.01, 0.2, 56.0, consts, budget_cap=5000)
        traj = run(obj, "RS", np.array([3.0, 1 / 3.0]), sched, RngStream(3), log_cadence=500)
        assert traj.n_perturbed > 0
        assert traj.descent_violations == 0
        assert traj.descent_max_slack <= 1e-12

    def test_f_after_matches_next_record(self):
        obj = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, 56.0, budget_cap=200)
        traj = run(obj, "RS", np.array([1.1, 1.0 / 1.1]), sched, RngStream(4), log_cadence=1)
        for a, b in zip(traj.records, traj.records[1:]):
            assert a.f_after == pytest.approx(b.f, rel=0, abs=0)

    def test_returned_index_uniform_draw_and_capture(self):
        obj = build_convex_quadratic([1.0])
        sched = _manual_schedule(eta_prime=0.5, steps=64, beta_hat=2.0)
        seen = set()
        for seed in range(30):
            traj = run(obj, "GD", np.array([1.0]), sched, RngStream(seed), log_cadence=64)
            assert 1 <= traj.returned_index <= 64
            seen.add(traj.returned_index)
            assert traj.returned_x[0] == pytest.approx(0.5**traj.returned_index, rel=1e-12)
        assert len(seen) > 10

    def test_deterministic_reproduction(self):
        obj = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, 56.0, budget_cap=400)
        a = run(obj, "RS", np.array([1.2, 1 / 1.2]), sched, RngStream(7), log_cadence=20)
        b = run(obj, "RS", np.array([1.2, 1 / 1.2]), sched, RngStream(7), log_cadence=20)
        assert all(r1.t < r2.t for r1, r2 in zip(a.records, a.records[1:]))
        assert a.records == b.records
        assert a.returned_index == b.returned_index
        assert a.returned_x == b.returned_x
        c = run(obj, "RS", np.array([1.2, 1 / 1.2]), sched, RngStream(8), log_cadence=20)
        assert c.records != a.records

    def test_divergence_carries_last_finite_record(self):
        obj = build_convex_quadratic([1.0, 1.0])
        sched = Schedule(eta=0.1, eta_prime=3.0, rho=0.1, eps0=1e-15, steps=3000, beta_hat=1 / 3.0)
        with pytest.raises(DivergenceError) as err:
            run(obj, "GD", np.array([3.0, -2.0]), sched, RngStream(0), log_cadence=100)
        rec = err.value.last_record
        assert rec is not None
        assert np.all(np.isfinite(rec.x))

    def test_sa_requires_sample_sum(self):
        obj = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, 56.0, budget_cap=10)
        with pytest.raises(ValueError, match="SampleSumObjective"):
            run(obj, "SA", np.array([1.0, 1.0]), sched, RngStream(0))

    def test_unknown_algorithm_rejected(self):
        obj = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, 56.0, budget_cap=10)
        with pytest.raises(ValueError, match="unknown algorithm"):
            run(obj, "ADAM", np.array([1.0, 1.0]), sched, RngStream(0))

    def test_stay_near_condition_persists_once_entered(self):
        # Once the cost gap drops below (2*beta/alpha)*eta*max||v||^2 it
        # stays below at every later logged step.
        obj = build_hyperbola()
        consts = ScheduleConstants(c_eta=5.0, c_rho=2.5, c_eps0=10.0)
        sched = rs_schedule(0.01, 0.2, 56.0, consts, budget_cap=20000)
        traj = run(obj, "RS", np.array([3.0, 1 / 3.0]), sched, RngStream(9), log_cadence=1000)
        alpha_hat = 3.5  # tube estimate, see test_oracle
        v_max = max(r.v_norm for r in traj.records if r.v_norm is not None)
        threshold = (2 * sched.beta_hat / alpha_hat) * sched.eta * v_max**2
        gaps = []
        for r in traj.records:
            phi = gradient_flow_limit(obj, np.array(r.x))
            gaps.append(r.f - obj.value(phi))
        entered = False
        for gap in gaps:
            if entered:
                assert gap <= threshold
            elif gap <= threshold:
                entered = True
        assert entered


def _hand_loop(obj, x0, sched: Schedule, seed: int, step):
    """Iterates, branches and v norms of ``run``'s gating with ``step`` on perturbed steps."""
    base = obj.base if isinstance(obj, SampleSumObjective) else obj
    rng = RngStream(seed)
    rng.integers(1, sched.steps + 1)  # the returned-index draw run makes first
    x = np.array(x0, dtype=float)
    xs, branches, v_norms = [], [], []
    for _ in range(sched.steps):
        xs.append(x)
        g = base.grad(x)
        if math.sqrt(float(g @ g)) <= sched.eps0:
            x, diag = step(x, rng)
            branches.append("perturbed")
            v_norms.append(diag.v_norm)
        else:
            x = x - sched.eta_prime * g
            branches.append("gd")
            v_norms.append(None)
    xs.append(x)
    return xs, branches, v_norms


def _bits(points) -> bytes:
    return np.array(points, dtype=float).tobytes()


class TestRunMatchesPublicSteps:
    """``run`` with block-drawn RS directions and the public one-step API take identical steps."""

    def _assert_same(self, traj, expected):
        xs, branches, v_norms = expected
        steps = traj.records[:-1]
        assert _bits([r.x for r in traj.records]) == _bits(xs)
        assert [r.branch for r in steps] == branches
        assert [r.v_norm for r in steps] == v_norms

    def test_rs_run_equals_rs_step_loop(self):
        obj = build_hyperbola()
        sched = Schedule(eta=5e-3, eta_prime=1.0 / 56, rho=0.05, eps0=2e-3, steps=1500, beta_hat=56.0)
        x0 = np.array([1.5, 1 / 1.5])
        traj = run(obj, "RS", x0, sched, RngStream(2), log_cadence=1)
        # Crosses a block boundary and mixes both branches.
        assert traj.n_perturbed > SPHERE_BLOCK and traj.n_gd > 0
        expected = _hand_loop(
            obj, x0, sched, 2, lambda x, rng: rs_step(obj, x, sched.eta, sched.rho, rng)
        )
        self._assert_same(traj, expected)

    def test_sa_run_equals_sa_step_loop(self):
        # Starting at an interpolating minimum, every per-sample gradient
        # vanishes, so the first steps take the jittered-direction path.
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        ss = build_landscape(spec)
        sched = Schedule(
            eta=5e-3, eta_prime=0.05, rho=0.1, eps0=1e-3, steps=1500, beta_hat=6.5, jitter=1e-9
        )
        x0 = canonical_minimum(spec)
        traj = run(ss, "SA", x0, sched, RngStream(0), log_cadence=1)
        assert traj.n_perturbed > 0 and traj.n_gd > 0
        expected = _hand_loop(
            ss, x0, sched, 0, lambda x, rng: sa_step(ss, x, sched.eta, sched.rho, sched.jitter, rng)
        )
        self._assert_same(traj, expected)


class TestRefine:
    def test_already_converged_returned_unchanged(self):
        obj = build_hyperbola()
        x = np.array([2.0, 0.5])
        out = refine(obj, x, 1e-3, obj.lipschitz_grad_hint)
        assert np.array_equal(out, x)

    def test_lands_near_manifold(self):
        obj = build_hyperbola()
        x = np.array([1.01, 1 / 1.01 + 1e-3])
        out = refine(obj, x, 1e-3, obj.lipschitz_grad_hint)
        dist = abs(out[0] * out[1] - 1.0) / np.hypot(out[0], out[1])
        assert dist <= 5e-4

    def test_quadratic_step_count_bound(self):
        obj = build_convex_quadratic([1.0, 1.0])
        calls = [0]
        counting = dataclasses.replace(
            obj, grad=lambda x, _g=obj.grad: (calls.__setitem__(0, calls[0] + 1), _g(x))[1]
        )
        out = refine(counting, np.array([0.1, 0.0]), 0.01, 1.0)
        assert np.linalg.norm(out) <= 0.005 * (1 + 1e-9)
        assert calls[0] <= math.ceil(math.log(0.02) / math.log(1 - 0.01))

    def test_budget_exhaustion_raises(self):
        obj = build_convex_quadratic([1.0, 1.0])
        with pytest.raises(RefinementError):
            refine(obj, np.array([3.0, 0.0]), 1e-4, 1.0, budget=5)


class TestTrajectorySerialization:
    def _small_traj(self):
        obj = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, 56.0, budget_cap=50)
        return run(obj, "RS", np.array([1.1, 1 / 1.1]), sched, RngStream(11), log_cadence=10)

    def test_csv_header_and_round_trip(self):
        traj = self._small_traj()
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,branch,f,grad_norm,v_norm,tr_phi,x0,x1"
        row = lines[1].split(",")
        rec = traj.records[0]
        assert int(row[0]) == rec.t
        assert row[1] == rec.branch
        assert float(row[2]) == rec.f
        assert float(row[3]) == rec.grad_norm
        assert float(row[6]) == rec.x[0]

    def test_missing_fields_render_empty(self):
        traj = self._small_traj()
        lines = trajectory_csv(traj).strip().split("\n")
        # terminal record has no v_norm
        assert lines[-1].split(",")[4] == ""

    def test_json_dict_full_fidelity(self):
        traj = self._small_traj()
        data = traj.to_dict()
        assert data["returned_index"] == traj.returned_index
        assert data["records"][0]["f"] == traj.records[0].f
        assert data["schedule"]["steps"] == traj.schedule.steps

    def test_seventeen_digit_floats_round_trip(self):
        traj = self._small_traj()
        lines = trajectory_csv(traj).strip().split("\n")
        for line, rec in zip(lines[1:], traj.records):
            parts = line.split(",")
            assert float(parts[2]) == rec.f
            assert float(parts[3]) == rec.grad_norm
            if parts[4]:
                assert float(parts[4]) == rec.v_norm
