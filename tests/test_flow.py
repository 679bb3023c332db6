import dataclasses
import json

import numpy as np
import pytest

from flatmin import (
    ACCURATE_FLOW,
    DEFAULT_FLOW,
    ORACLE_FLOW,
    REFERENCE_FLOW,
    FlowConfig,
    FlowConvergenceError,
    build_convex_quadratic,
    build_hyperbola,
    certify_flat,
    estimate_pl_constants,
    gradient_flow_limit,
    normalized_trace,
    restricted_trace_gradient,
    trace_at_flow_limit,
)
from flatmin.geometry import fd_jacobian

from conftest import hyperbola_manifold_point, hyperbola_tube_region, near_manifold_points


class TestFlowConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(grad_tol=0.0)
        with pytest.raises(ValueError):
            FlowConfig(max_steps=0)

    def test_step_resolution(self):
        obj = build_hyperbola()
        assert FlowConfig().resolve_step(obj) == pytest.approx(0.5 / 56.0)


class TestGradientFlowLimit:
    def test_quadratic_contracts_to_origin(self):
        obj = build_convex_quadratic([1.0, 1.0])
        x_hat = gradient_flow_limit(obj, np.array([3.0, -2.0]))
        assert np.linalg.norm(x_hat) <= 1e-9

    def test_point_on_manifold_returns_unchanged(self):
        obj = build_hyperbola()
        x0 = np.array([2.0, 0.5])
        x_hat = gradient_flow_limit(obj, x0)
        assert np.array_equal(x_hat, x0)

    def test_lands_on_manifold(self):
        obj = build_hyperbola()
        x_hat = gradient_flow_limit(obj, np.array([2.0, 0.6]))
        assert abs(x_hat[0] * x_hat[1] - 1.0) <= 1e-8

    def test_matches_tiny_step_reference_integration(self):
        obj = build_hyperbola()
        x0 = np.array([2.0, 0.6])
        refined = gradient_flow_limit(obj, x0, FlowConfig(grad_tol=1e-12, step_fraction=0.01))
        reference = gradient_flow_limit(obj, x0, REFERENCE_FLOW)
        assert np.linalg.norm(refined - reference) <= 1e-6
        # The production step carries a small tangential landing bias, linear
        # in the step size.
        production = gradient_flow_limit(obj, x0, ORACLE_FLOW)
        assert np.linalg.norm(production - reference) <= 2e-4

    def test_fixed_points_of_manifold(self):
        obj = build_hyperbola()
        for s in np.geomspace(0.4, 2.5, 9):
            x = hyperbola_manifold_point(s)
            assert np.linalg.norm(gradient_flow_limit(obj, x) - x) <= 1e-10

    def test_landing_gradient_below_tolerance(self):
        obj = build_hyperbola()
        for x0 in near_manifold_points(10, seed=21, offset=5e-2):
            x_hat = gradient_flow_limit(obj, x0)
            assert np.linalg.norm(obj.grad(x_hat)) <= DEFAULT_FLOW.grad_tol

    def test_cost_nonincreasing_along_flow(self):
        obj = build_hyperbola()
        visited = []
        probed = dataclasses.replace(
            obj, grad=lambda x, _g=obj.grad: (visited.append(np.array(x)), _g(x))[1]
        )
        gradient_flow_limit(probed, np.array([1.5, 0.9]))
        values = [obj.value(x) for x in visited]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_max_steps_exhaustion_reports_last_iterate(self):
        obj = build_convex_quadratic([1.0, 1.0])
        with pytest.raises(FlowConvergenceError) as err:
            gradient_flow_limit(obj, np.array([3.0, -2.0]), FlowConfig(max_steps=3))
        assert err.value.steps == 3
        assert err.value.grad_norm > 0
        assert np.all(np.isfinite(err.value.x_last))

    def test_divergent_start_raises(self):
        # Fixed-step descent on the quartic blows up far outside the region
        # where the Lipschitz hint is valid.
        obj = build_hyperbola()
        with pytest.raises(FlowConvergenceError):
            gradient_flow_limit(obj, np.array([40.0, -40.0]))


class TestRestrictedTraceGradient:
    def test_vanishes_at_flat_minima(self):
        obj = build_hyperbola()
        for x in ([1.0, 1.0], [-1.0, -1.0]):
            g = restricted_trace_gradient(obj, np.array(x))
            assert np.linalg.norm(g) <= 1e-4

    def test_vanishes_at_isolated_minimum(self):
        obj = build_convex_quadratic([2.0, 4.0])
        g = restricted_trace_gradient(obj, np.zeros(2))
        assert np.linalg.norm(g) <= 1e-6

    def test_matches_manifold_parametrization_closed_form(self):
        # Along (s, 1/s) the trace is s^2 + s^-2; the restricted gradient at a
        # manifold point is its arc-length derivative |2s - 2 s^-3| / |gamma'|.
        obj = build_hyperbola()
        for s in (2.0, 0.8, 1.3):
            x = hyperbola_manifold_point(s)
            g = restricted_trace_gradient(obj, x)
            closed = abs(2.0 * s - 2.0 / s**3) / np.sqrt(1.0 + s**-4)
            assert np.linalg.norm(g) == pytest.approx(closed, rel=1e-5)

    def test_matches_brute_force_jacobian_oracle(self):
        obj = build_hyperbola()
        x = hyperbola_manifold_point(2.0)
        J = fd_jacobian(lambda p: gradient_flow_limit(obj, p, ORACLE_FLOW), x, 1e-4)
        oracle_vec = J.T @ obj.normalized_trace_grad(x)
        direct = restricted_trace_gradient(obj, x)
        assert np.linalg.norm(direct - oracle_vec) <= 1e-4 * max(1.0, np.linalg.norm(oracle_vec))


class TestTangency:
    def test_flow_jacobian_annihilates_gradient_near_manifold(self):
        obj = build_hyperbola()
        for x in near_manifold_points(8, seed=31):
            J = fd_jacobian(lambda p: gradient_flow_limit(obj, p, ACCURATE_FLOW), x, 1e-4)
            g = obj.grad(x)
            assert np.linalg.norm(J @ g) <= 1e-4 * np.linalg.norm(g)


class TestLocalDistanceBounds:
    def test_gradient_distance_inequalities_on_tube(self):
        obj = build_hyperbola()
        region = hyperbola_tube_region()
        from flatmin import RngStream

        alpha_hat, beta_hat = estimate_pl_constants(obj, region, 400, RngStream(3))
        assert 0 < alpha_hat <= beta_hat
        points = region.draw(1000, RngStream(11))
        for x in points:
            phi = gradient_flow_limit(obj, x)
            dist = np.linalg.norm(x - phi)
            gn = np.linalg.norm(obj.grad(x))
            assert dist <= gn / alpha_hat * (1 + 1e-9)
            assert gn <= beta_hat * dist * (1 + 1e-9)


class TestCertifyFlat:
    def test_near_flat_minimum_passes(self):
        obj = build_hyperbola()
        cert = certify_flat(obj, np.array([1.001, 0.999]), eps=0.01, eps_prime=0.1)
        assert cert.passed
        assert cert.dist <= 2e-3
        assert cert.flat_grad_norm <= 2e-2

    def test_sharp_manifold_point_fails_on_trace_gradient(self):
        obj = build_hyperbola()
        cert = certify_flat(obj, np.array([2.0, 0.5]), eps=0.01, eps_prime=0.1)
        assert not cert.passed
        assert cert.dist <= 0.01
        assert cert.flat_grad_norm > 0.1

    def test_isolated_minimum_passes(self):
        obj = build_convex_quadratic([1.0, 1.0])
        cert = certify_flat(obj, np.array([1e-4, 0.0]), eps=1e-3, eps_prime=1e-3)
        assert cert.passed
        assert cert.dist == pytest.approx(1e-4, rel=1e-6)
        assert cert.flat_grad_norm == 0.0

    def test_passed_iff_both_inequalities(self):
        obj = build_hyperbola()
        cert = certify_flat(obj, np.array([1.001, 0.999]), eps=1e-9, eps_prime=0.1)
        assert not cert.passed and cert.dist > 1e-9

    def test_json_round_trip(self):
        obj = build_convex_quadratic([1.0, 1.0])
        cert = certify_flat(obj, np.array([1e-4, 0.0]), eps=1e-3, eps_prime=1e-3)
        data = json.loads(cert.to_json())
        assert data["passed"] is True
        assert data["dist"] == cert.dist
        assert data["phi_x"] == cert.phi_x

    def test_invalid_thresholds_rejected(self):
        obj = build_convex_quadratic([1.0])
        with pytest.raises(ValueError):
            certify_flat(obj, np.zeros(1), eps=0.0, eps_prime=1.0)


class TestTraceAtFlowLimit:
    def test_initial_sharp_point_value(self):
        obj = build_hyperbola()
        tr = trace_at_flow_limit(obj, np.array([3.0, 1.0 / 3.0]))
        assert tr == pytest.approx(9.0 + 1.0 / 9.0, rel=1e-12)

    def test_quadratic_trace_constant(self):
        obj = build_convex_quadratic([2.0, 4.0])
        assert trace_at_flow_limit(obj, np.array([1.0, 1.0])) == pytest.approx(3.0)
        assert normalized_trace(obj, np.zeros(2)) == pytest.approx(3.0)
