import dataclasses
import json
import math
import re
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatmin import (
    DegenerateSampleError,
    DivergenceError,
    FlowConvergenceError,
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
    rs_schedule,
    rs_step,
    run,
    sa_schedule,
    sa_step,
    trace_at_flow_limit,
    trajectory_csv,
)
from flatmin import flow, objectives, optimizers
from flatmin.geometry import SPHERE_BLOCK, sphere_blocks
from flatmin.optimizers import ALGORITHMS, DEFAULT_BUDGET_CAP, SA_DRAW_BLOCK, TRACE_BLOCK, _rs_perturbation
from flatmin.objectives import LandscapeSpec, iterates

from conftest import count_exact_dots, hyperbola_manifold_point, without_float_formulas
from references import landing_trace, sample_hess, two_block_rs_schedule, two_block_sa_schedule


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

    def test_step_budget_formula(self):
        sched = sa_schedule(0.01, 0.5, 2, 1.0, budget_cap=10**12)
        raw = 0.01**-2 * 0.5**-4 * max(1.0, 1.0 / (8 * 0.01)) / 2
        assert sched.steps == int(raw)


class TestScheduleValidation:
    def test_positive_fields_required(self):
        with pytest.raises(ValueError):
            Schedule(eta=0.0, eta_prime=1.0, rho=0.1, eps0=0.1, steps=10, beta_hat=1.0)
        with pytest.raises(ValueError):
            Schedule(eta=0.1, eta_prime=1.0, rho=0.1, eps0=0.1, steps=0, beta_hat=1.0)

    _FIELDS = dict(eta=1e-3, eta_prime=0.1, rho=0.1, eps0=0.1, steps=10, beta_hat=10.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["eta", "eta_prime", "rho", "eps0", "beta_hat"])
    def test_float_fields_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=f"schedule field {name} must be"):
            Schedule(**dict(self._FIELDS, **{name: value}))

    @pytest.mark.parametrize("steps", [0, -3, 2.5, math.nan, True, "10"])
    def test_steps_must_be_an_integer_of_at_least_one(self, steps):
        with pytest.raises(ValueError, match="steps must be an integer >= 1"):
            Schedule(**dict(self._FIELDS, steps=steps))

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["c_eta", "c_rho", "c_eps0", "c_T"])
    def test_constants_must_be_positive_and_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            ScheduleConstants(**{name: value})

    @pytest.mark.parametrize(
        "eps, delta, beta_hat",
        [(math.inf, 0.2, 56.0), (math.nan, 0.2, 56.0), (0.01, math.nan, 56.0), (0.01, 0.2, math.inf), (0.01, 0.2, math.nan)],
    )
    def test_inputs_must_be_finite(self, eps, delta, beta_hat):
        with pytest.raises(ValueError):
            rs_schedule(eps, delta, beta_hat)
        with pytest.raises(ValueError):
            sa_schedule(eps, delta, 2, beta_hat)

    @pytest.mark.parametrize("d", [0, -1, 2.5, True, False, np.float64(2.0)])
    def test_sa_dimension_must_be_an_integer_of_at_least_one(self, d):
        with pytest.raises(ValueError, match="d must be an integer >= 1"):
            sa_schedule(0.01, 0.2, d, 56.0)

    @pytest.mark.parametrize("budget_cap", [0, -5, 2.5, math.nan, math.inf, True])
    def test_budget_cap_must_be_an_integer_of_at_least_one(self, budget_cap):
        with pytest.raises(ValueError, match="budget_cap must be an integer >= 1"):
            rs_schedule(0.01, 0.2, 56.0, budget_cap=budget_cap)
        with pytest.raises(ValueError, match="budget_cap must be an integer >= 1"):
            sa_schedule(0.01, 0.2, 2, 56.0, budget_cap=budget_cap)

    def test_sa_dimension_may_be_a_numpy_integer(self):
        assert sa_schedule(0.01, 0.2, np.int64(2), 56.0) == sa_schedule(0.01, 0.2, 2, 56.0)

    def test_asdict_round_trips_constants(self):
        sched = rs_schedule(0.01, 0.2, 2.0, ScheduleConstants(c_eta=3.0))
        data = dataclasses.asdict(sched)
        assert data["constants"]["c_eta"] == 3.0
        assert data["steps"] == sched.steps


def _schedule_or_error(build):
    """The schedule ``build()`` returns, or its error's type and message."""
    try:
        return build()
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


_finite_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_constants = st.builds(
    ScheduleConstants, c_eta=_finite_positive, c_rho=_finite_positive, c_eps0=_finite_positive, c_T=_finite_positive
)
_common_inputs = dict(
    eps=st.one_of(st.floats(1e-6, 1.0), _finite_positive),
    delta=st.one_of(st.floats(0.01, 0.99), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    beta_hat=st.one_of(st.floats(1e-3, 1e3), _finite_positive),
    constants=st.one_of(st.just(ScheduleConstants()), st.builds(ScheduleConstants, c_T=st.floats(0.1, 10.0)), _constants),
    budget_cap=st.one_of(st.integers(1, 10**12), st.just(DEFAULT_BUDGET_CAP)),
)


class TestOneScheduleBuilder:
    """``rs_schedule`` and ``sa_schedule`` give the schedules of their former separate formula blocks, bit for bit."""

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(**_common_inputs)
    def test_rs_schedule_equals_its_formula_block(self, eps, delta, beta_hat, constants, budget_cap):
        built = _schedule_or_error(lambda: rs_schedule(eps, delta, beta_hat, constants, budget_cap))
        reference = _schedule_or_error(lambda: two_block_rs_schedule(eps, delta, beta_hat, constants, budget_cap))
        assert repr(built) == repr(reference)
        if isinstance(built, Schedule):
            assert built == reference and built.nu is None

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(d=st.one_of(st.integers(1, 16), st.integers(1, 10**6)), **_common_inputs)
    def test_sa_schedule_equals_its_formula_block(self, eps, delta, d, beta_hat, constants, budget_cap):
        built = _schedule_or_error(lambda: sa_schedule(eps, delta, d, beta_hat, constants, budget_cap))
        reference = _schedule_or_error(lambda: two_block_sa_schedule(eps, delta, d, beta_hat, constants, budget_cap))
        assert repr(built) == repr(reference)
        if isinstance(built, Schedule):
            assert built == reference


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
        # The kernel of rs_step on the same draws: its v of successive calls, bit for bit.
        obj = build_hyperbola()
        x = np.array([1.2, 1.0 / 1.2])
        rho = 0.01
        g = obj.grad(x)
        gn = math.sqrt(np.dot(g, g))
        directions = chain.from_iterable(sphere_blocks(2, rho, RngStream(27)))
        acc = np.zeros(2)
        n = 10**6
        for _ in range(n):
            v, _ = _rs_perturbation(obj, x, g, gn, next(directions))
            acc += v
        mean = acc / n
        ref = 0.5 * rho**2 * np.array([2.4, 2.0 / 1.2])
        assert np.all(np.abs(mean - ref) <= 0.1 * np.abs(ref))

    def test_invalid_steps_rejected(self):
        obj = build_hyperbola()
        with pytest.raises(ValueError):
            rs_step(obj, np.ones(2), 0.0, 0.1, RngStream(0))
        with pytest.raises(ValueError):
            rs_step(obj, np.ones(2), 1e-3, -0.1, RngStream(0))

    @pytest.mark.parametrize("eta, rho", [(math.nan, 0.1), (math.inf, 0.1), (1e-3, math.nan), (1e-3, math.inf)])
    def test_non_finite_steps_rejected(self, eta, rho):
        with pytest.raises(ValueError):
            rs_step(build_hyperbola(), np.ones(2), eta, rho, RngStream(0))


_ORTHOGONAL_D4 = build_landscape(LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]}))


class TestStepStartShape:
    """``rs_step`` and ``sa_step`` reject a start whose shape does not fit the objective, with run's one ValueError."""

    @pytest.mark.parametrize(
        "algorithm,obj",
        [
            ("RS", build_hyperbola()),
            ("RS", build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0)),
            ("RS", _ORTHOGONAL_D4),
            ("SA", build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0)),
            ("SA", _ORTHOGONAL_D4),
        ],
        ids=["RS-hyperbola", "RS-factorization-n4", "RS-orthogonal-d4", "SA-factorization-n4", "SA-orthogonal-d4"],
    )
    @pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
    def test_wrong_length(self, algorithm, obj, extra):
        d = obj.dim
        with pytest.raises(ValueError, match=re.escape(f"expected a start of shape ({d},), got ({d + extra},)")):
            if algorithm == "RS":
                rs_step(obj, np.ones(d + extra), 1e-3, 0.05, RngStream(0))
            else:
                sa_step(obj, np.ones(d + extra), 1e-3, 0.05, None, RngStream(0))

    @pytest.mark.parametrize("x", [1.0, [[1.0, 1.0]]], ids=["scalar", "1x2"])
    def test_wrong_rank(self, x):
        with pytest.raises(ValueError, match=re.escape(f"expected a start of shape (2,), got {np.shape(x)}")):
            rs_step(build_hyperbola(), x, 1e-3, 0.05, RngStream(0))
        with pytest.raises(ValueError, match=re.escape(f"expected a start of shape (2,), got {np.shape(x)}")):
            sa_step(build_scalar_factorization([1.0], 1.0), x, 1e-3, 0.05, None, RngStream(0))


class TestSaStep:
    def test_single_sample_zero_radius_is_gradient_descent(self):
        ss = build_scalar_factorization([1.0], 1.0)
        x = np.array([1.4, 0.5])
        x_next, diag = sa_step(ss, x, 1e-3, 0.0, None, RngStream(0))
        assert diag.v_norm <= 1e-12
        assert np.allclose(x_next, x - 1e-3 * ss.base.grad(x), atol=1e-15)

    def test_prediction_gradient_direction_at_interpolating_minimum(self):
        # Every per-sample gradient vanishes at an interpolating minimum; the
        # direction is still the normalized prediction gradient, exactly.
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        ss = build_landscape(spec)
        x_star = canonical_minimum(spec)
        rng = RngStream(5)
        for _ in range(50):
            _, diag = sa_step(ss, x_star, 1e-3, 0.01, None, rng)
            p = ss.pred_grad(diag.sample_index, x_star)
            assert diag.direction.tobytes() == (p / math.sqrt(float(p @ p))).tobytes()
            assert abs(np.linalg.norm(diag.direction) - 1.0) <= 1e-12
            assert diag.sigma in (-1.0, 1.0)
            assert 0 <= diag.sample_index < 2

    def test_curvature_signal_is_dimension_times_trace(self):
        # Zero-variance case: every direction is a normalized prediction
        # gradient, whose per-sample quadratic form equals the full trace.
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        ss = build_landscape(spec)
        x_star = canonical_minimum(spec)
        rng = RngStream(6)
        acc = 0.0
        n = 10**5
        for _ in range(n):
            _, diag = sa_step(ss, x_star, 1e-3, 0.01, None, rng)
            H = sample_hess(spec, diag.sample_index, x_star)
            acc += float(diag.direction @ H @ diag.direction)
        d_times_trace = 4 * trace_at_flow_limit(ss, x_star)
        assert abs(acc / n - d_times_trace) <= 0.05 * d_times_trace

    def test_degenerate_sample_error(self):
        flat = SampleSumObjective(
            base=build_convex_quadratic([1.0, 1.0]),
            n=1,
            sample_value=lambda i, x: 0.0,
            sample_grad=lambda i, x: np.zeros(2),
            pred_grad=lambda i, x: np.zeros(2),
        )
        with pytest.raises(DegenerateSampleError):
            sa_step(flat, np.zeros(2), 1e-3, 0.01, None, RngStream(0))

    @pytest.mark.parametrize("eta, rho", [(0.0, 0.1), (1e-3, -0.1), (math.nan, 0.1), (math.inf, 0.1), (1e-3, math.nan), (1e-3, math.inf)])
    def test_invalid_steps_rejected(self, eta, rho):
        ss = build_scalar_factorization([1.0, 0.7], 1.0)
        with pytest.raises(ValueError):
            sa_step(ss, np.array([1.4, 0.5]), eta, rho, None, RngStream(0))

    def test_requires_sample_sum_objective(self):
        with pytest.raises(TypeError):
            sa_step(build_hyperbola(), np.ones(2), 1e-3, 0.01, None, RngStream(0))


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

    def test_earlier_trace_failure_wins_over_later_divergence(self, monkeypatch):
        # The trace solve at t = 0 runs out of flow steps; the GD steps
        # (factor -2 per step) overflow at step 511.
        monkeypatch.setattr(flow, "FLOW_MAX_STEPS", 1)
        obj = build_convex_quadratic([1.0])
        sched = Schedule(eta=0.1, eta_prime=3.0, rho=0.1, eps0=1e-15, steps=1000, beta_hat=1 / 3.0)
        with pytest.raises(FlowConvergenceError) as err:
            run(obj, "GD", np.array([1.0]), sched, RngStream(0), log_cadence=1, tr_cadence=1000)
        assert err.value.steps == 1
        assert err.value.x_last.tolist() == [0.5]

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

    @pytest.mark.parametrize(
        "obj",
        [build_hyperbola(), without_float_formulas(build_hyperbola()), build_convex_quadratic([1.0, 2.0])],
        ids=["hyperbola-floats", "hyperbola-ndarrays", "quadratic"],
    )
    @pytest.mark.parametrize("x0", [[1.0, 1.0, 1.0], [1.0], 1.0, [[1.0, 1.0]]], ids=["3", "1", "scalar", "1x2"])
    @pytest.mark.parametrize("algorithm", ["RS", "GD"])
    def test_start_shape_must_fit_the_objective(self, obj, x0, algorithm):
        sched = rs_schedule(0.01, 0.2, 56.0, budget_cap=10)
        with pytest.raises(ValueError, match=re.escape(f"expected a start of shape (2,), got {np.shape(x0)}")):
            run(obj, algorithm, x0, sched, RngStream(0))

    @pytest.mark.parametrize("cadence", [0, -3, 2.5, 1.0, True, "10"])
    @pytest.mark.parametrize("name", ["log_cadence", "tr_cadence"])
    def test_cadence_must_be_a_positive_integer(self, name, cadence):
        obj = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, 56.0, budget_cap=10)
        with pytest.raises(ValueError, match=name):
            run(obj, "RS", np.array([1.0, 1.0]), sched, RngStream(0), **{name: cadence})

    def test_numpy_integer_cadence_accepted(self):
        obj = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, 56.0, budget_cap=10)
        a = run(obj, "RS", np.array([1.2, 1.0]), sched, RngStream(0), log_cadence=np.int64(3), tr_cadence=np.int64(6))
        b = run(obj, "RS", np.array([1.2, 1.0]), sched, RngStream(0), log_cadence=3, tr_cadence=6)
        assert a.records == b.records

    def test_sa_stays_at_flat_minimum_where_sample_gradients_vanish(self):
        # Every per-sample gradient vanishes at x0 = (1, 1), the flattest
        # minimum (trace 2*mean(a^2)); the prediction gradients do not.
        ss = build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0)
        consts = ScheduleConstants(c_eta=5.0, c_rho=2.5, c_eps0=15.0)
        sched = rs_schedule(0.01, 0.2, ss.base.lipschitz_grad_hint, consts, budget_cap=500)
        traj = run(ss, "SA", np.array([1.0, 1.0]), sched, RngStream(7))
        assert traj.n_perturbed > 0
        assert traj.records[-1].tr_phi == pytest.approx(2.87, abs=1e-6)
        assert traj.descent_violations == 0

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
        # Starts at an interpolating minimum, where every per-sample
        # gradient vanishes and only the prediction gradient gives a direction.
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        ss = build_landscape(spec)
        sched = Schedule(eta=5e-3, eta_prime=0.05, rho=0.1, eps0=1e-3, steps=1500, beta_hat=6.5)
        x0 = canonical_minimum(spec)
        traj = run(ss, "SA", x0, sched, RngStream(0), log_cadence=1)
        # Crosses a block boundary of the (sample, sign) draws.
        assert traj.n_perturbed > SA_DRAW_BLOCK and traj.n_gd > 0
        expected = _hand_loop(
            ss, x0, sched, 0, lambda x, rng: sa_step(ss, x, sched.eta, sched.rho, None, rng)
        )
        self._assert_same(traj, expected)

    def test_sa_run_on_the_factorization_equals_sa_step_loop(self):
        # run steps on Python floats here; sa_step on ndarrays.
        ss = build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0)
        beta = ss.base.lipschitz_grad_hint
        sched = Schedule(eta=5e-3, eta_prime=1.0 / beta, rho=0.05, eps0=2e-3, steps=1500, beta_hat=beta)
        x0 = np.array([1.5, 1 / 1.5])
        traj = run(ss, "SA", x0, sched, RngStream(2), log_cadence=1)
        assert traj.n_perturbed > SA_DRAW_BLOCK and traj.n_gd > 0
        expected = _hand_loop(
            ss, x0, sched, 2, lambda x, rng: sa_step(ss, x, sched.eta, sched.rho, None, rng)
        )
        self._assert_same(traj, expected)


def _outcome(call):
    """The trajectory's JSON, or the raised error's type, message and last record."""
    try:
        traj = call()
    except (DivergenceError, DegenerateSampleError) as exc:
        return type(exc).__name__, str(exc), repr(getattr(exc, "last_record", None))
    except FlowConvergenceError as exc:
        return type(exc).__name__, str(exc), exc.x_last.tobytes(), np.float64(exc.grad_norm).tobytes(), exc.steps
    return json.dumps(traj.to_dict())


def _first_difference(a: str, b: str) -> str:
    k = next((k for k, (p, q) in enumerate(zip(a, b)) if p != q), min(len(a), len(b)))
    return f"character {k}: {a[max(0, k - 80):k + 80]!r} != {b[max(0, k - 80):k + 80]!r}"


#: The d = 2 factorization family: the hyperbola (as a sample sum, so SA
#: runs on it) and the n = 4 factorization.
_FLOAT_LANDSCAPES = {
    "hyperbola": build_scalar_factorization([1.0], 1.0),
    "factorization-n4": build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0),
}


class TestFloatKernelMatchesArrayKernel:
    """``run`` on Python floats and on ndarrays (the float formulas removed) give the same bytes or the same error."""

    def _both(self, obj, algorithm, x0, sched, seed, tr_cadence=None):
        def call(o):
            return lambda: run(o, algorithm, x0, sched, RngStream(seed), log_cadence=1, tr_cadence=tr_cadence)

        floats, arrays = _outcome(call(obj)), _outcome(call(without_float_formulas(obj)))
        # A bool, so a failure does not make pytest diff two long JSON strings.
        same = floats == arrays
        assert same, f"first difference at {_first_difference(str(floats), str(arrays))}"
        return floats

    @pytest.mark.parametrize("landscape", sorted(_FLOAT_LANDSCAPES))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_across_draw_blocks(self, landscape, algorithm):
        obj = _FLOAT_LANDSCAPES[landscape]
        beta = obj.base.lipschitz_grad_hint
        sched = Schedule(eta=5e-3, eta_prime=1.0 / beta, rho=0.05, eps0=2e-3, steps=1500, beta_hat=beta)
        traj = json.loads(self._both(obj, algorithm, np.array([1.5, 1 / 1.5]), sched, 2))
        if algorithm != "GD":
            assert traj["n_perturbed"] > max(SPHERE_BLOCK, SA_DRAW_BLOCK) and traj["n_gd"] > 0
        assert any(r["tr_phi"] is not None for r in traj["records"][1:-1])

    @pytest.mark.parametrize("landscape", sorted(_FLOAT_LANDSCAPES))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_from_an_exact_minimum(self, landscape, algorithm):
        # The gradient is exactly zero, so the projection is the identity.
        obj = _FLOAT_LANDSCAPES[landscape]
        beta = obj.base.lipschitz_grad_hint
        sched = Schedule(eta=5e-3, eta_prime=1.0 / beta, rho=0.05, eps0=2e-3, steps=300, beta_hat=beta)
        traj = json.loads(self._both(obj, algorithm, np.array([1.0, 1.0]), sched, 5))
        assert traj["records"][0]["grad_norm"] == 0.0

    @pytest.mark.parametrize("landscape", sorted(_FLOAT_LANDSCAPES))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_diverging_start(self, landscape, algorithm):
        obj = _FLOAT_LANDSCAPES[landscape]
        # Only the start is traced; its flow lands, and the steps overflow a few steps later.
        sched = Schedule(eta=10.0, eta_prime=10.0, rho=0.05, eps0=1e300, steps=200, beta_hat=1.0)
        kind, _, record = self._both(obj, algorithm, np.array([1.2, 1.0]), sched, 1, tr_cadence=200)
        assert kind == "DivergenceError" and record.startswith("IterateRecord(")

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_earlier_trace_failure(self, algorithm):
        # Every step is traced; a flow from an early iterate fails before the steps overflow.
        obj = _FLOAT_LANDSCAPES["factorization-n4"]
        sched = Schedule(eta=10.0, eta_prime=10.0, rho=0.05, eps0=1e300, steps=200, beta_hat=1.0)
        kind, *_ = self._both(obj, algorithm, np.array([1.2, 1.0]), sched, 1, tr_cadence=1)
        assert kind == "FlowConvergenceError"

    @pytest.mark.parametrize("landscape", sorted(_FLOAT_LANDSCAPES))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_from_the_saddle(self, landscape, algorithm):
        # At the origin the gradient is (-0.0, -0.0) and, for SA, every prediction gradient vanishes.
        obj = _FLOAT_LANDSCAPES[landscape]
        beta = obj.base.lipschitz_grad_hint
        sched = Schedule(eta=5e-3, eta_prime=1.0 / beta, rho=0.05, eps0=2e-3, steps=300, beta_hat=beta)
        out = self._both(obj, algorithm, np.array([0.0, 0.0]), sched, 3)
        if algorithm == "SA":
            assert out[0] == "DegenerateSampleError" and out[1].endswith("zero prediction gradient at [0.0, 0.0]")


class TestExactDotBudget:
    """The exact 2-vector dots of ``run``'s float path: one at the start, one per GD step, three per RS step, four per SA step.

    Every step evaluates its new iterate's gradient norm once; an RS step
    adds the projection and ``|v|``, and an SA step the prediction
    gradient's norm as well.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_on_the_factorization(self, monkeypatch, algorithm):
        obj = _FLOAT_LANDSCAPES["factorization-n4"]
        beta = obj.base.lipschitz_grad_hint
        sched = Schedule(eta=5e-3, eta_prime=1.0 / beta, rho=0.05, eps0=2e-3, steps=1500, beta_hat=beta)
        dots = count_exact_dots(monkeypatch, objectives, optimizers)
        traj = run(obj, algorithm, np.array([1.5, 1 / 1.5]), sched, RngStream(2), log_cadence=1)
        per_perturbed = {"RS": 3, "SA": 4, "GD": 0}[algorithm]
        assert (traj.n_perturbed > 0) == (algorithm != "GD") and traj.n_gd > 0
        assert len(dots) <= 1 + traj.n_gd + per_perturbed * traj.n_perturbed
        if algorithm == "GD":
            assert len(dots) == 1 + traj.n_gd


class TestIterateForm:
    """Which form ``objectives.iterates`` holds the iterates in, and that the form changes no byte."""

    @staticmethod
    def _floats(obj) -> bool:
        point = iterates(obj)[0]
        held = point(np.zeros(obj.dim))
        assert isinstance(held, (tuple, np.ndarray))
        return isinstance(held, tuple)

    def test_factorization_family_on_floats(self):
        for obj in (build_hyperbola(), *_FLOAT_LANDSCAPES.values()):
            assert self._floats(obj)
            assert not self._floats(without_float_formulas(obj))

    def test_other_landscapes_on_ndarrays(self):
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 6, "n": 3, "y": [0.5, 1.0, 2.0]})
        for obj in (build_convex_quadratic([1.0, 2.0]), build_landscape(spec)):
            assert not self._floats(obj)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_sample_sum_without_its_own_formulas_on_ndarrays(self, algorithm):
        # The base still carries its two formulas; the sample sum lacks its two.
        obj = _FLOAT_LANDSCAPES["factorization-n4"]
        mixed = dataclasses.replace(obj, float_sample_grad=None, float_pred_grad=None)
        assert self._floats(mixed.base) and not self._floats(mixed)
        beta = obj.base.lipschitz_grad_hint
        sched = Schedule(eta=5e-3, eta_prime=1.0 / beta, rho=0.05, eps0=2e-3, steps=1500, beta_hat=beta)

        def outcome(o):
            return _outcome(lambda: run(o, algorithm, np.array([1.5, 1 / 1.5]), sched, RngStream(2), log_cadence=1))

        same = outcome(mixed) == outcome(obj)
        assert same


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


class TestTraceLogging:
    def test_trace_column_equals_single_solves(self):
        # More traced steps than one landing block holds.
        obj = build_hyperbola()
        sched = Schedule(eta=5e-3, eta_prime=1.0 / 56, rho=0.05, eps0=2e-3, steps=2 * TRACE_BLOCK + 50, beta_hat=56.0)
        traj = run(obj, "RS", np.array([1.5, 1 / 1.5]), sched, RngStream(2), log_cadence=1, tr_cadence=1)
        traced = [r for r in traj.records if r.tr_phi is not None]
        assert len(traced) == len(traj.records) == sched.steps + 1
        assert [r.tr_phi for r in traced] == [trace_at_flow_limit(obj, np.array(r.x)) for r in traced]

    @pytest.mark.parametrize("floats", [True, False], ids=["floats", "ndarrays"])
    @pytest.mark.parametrize("algorithm", ["RS", "SA"])
    @pytest.mark.parametrize("landscape", sorted(_FLOAT_LANDSCAPES))
    def test_trace_column_equals_the_flow_invariant_closed_form(self, landscape, algorithm, floats):
        # The flow of m2*(u*v - c)^2 conserves u^2 - v^2, which fixes the
        # trace where it lands. The tolerance is the benchmark's check of the
        # same column; the fixed-step flow agrees to about 1e-12 here.
        obj = _FLOAT_LANDSCAPES[landscape]
        if not floats:
            obj = without_float_formulas(obj)
        m2 = obj.base.value(np.zeros(2))  # m2 * (0*0 - c)^2 with c = 1
        consts = ScheduleConstants(c_eta=5.0, c_rho=2.5, c_eps0=10.0)
        sched = rs_schedule(0.01, 0.2, obj.base.lipschitz_grad_hint, consts, budget_cap=3000)
        traj = run(obj, algorithm, np.array([3.0, 1 / 3.0]), sched, RngStream(0), log_cadence=100, tr_cadence=100)
        assert traj.n_perturbed > 0
        traced = [r for r in traj.records if r.tr_phi is not None]
        assert len(traced) == 31
        worst = max(abs(r.tr_phi - landing_trace(r.x, m2, 1.0)) / landing_trace(r.x, m2, 1.0) for r in traced)
        assert worst <= 1e-8
