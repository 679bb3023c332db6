import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatmin import (
    DEFAULT_FLOW,
    ORACLE_FLOW,
    FlowConvergenceError,
    LandscapeSpec,
    build_convex_quadratic,
    build_landscape,
    build_hyperbola,
    build_scalar_factorization,
    certify_flat,
    estimate_pl_constants,
    gradient_flow_limit,
    gradient_flow_limits,
    normalized_trace,
    restricted_trace_gradient,
    trace_at_flow_limit,
)
from flatmin import flow, objectives
from conftest import (
    base_objective,
    count_calls,
    count_exact_dots,
    hyperbola_manifold_point,
    hyperbola_tube_region,
    near_manifold_points,
    without_float_formulas,
)
from references import (
    ACCURATE_FLOW,
    REFERENCE_FLOW,
    fd_jacobian,
    fixed_step_flow,
    flat_grad_norm,
    landing_point,
    two_call_flow,
)


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
        refined = fixed_step_flow(obj, x0, 0.01, 1e-12)
        reference = fixed_step_flow(obj, x0, *REFERENCE_FLOW)
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
            assert np.linalg.norm(obj.grad(x_hat)) <= DEFAULT_FLOW

    def test_cost_nonincreasing_along_flow(self):
        # The hyperbola's flow steps on floats, through float_grad alone.
        obj = build_hyperbola()
        probed, visited = count_calls(obj, "float_grad")
        gradient_flow_limit(probed, np.array([1.5, 0.9]))
        values = [obj.float_value(*x) for x in visited]
        assert len(values) > 50 and all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_max_steps_exhaustion_reports_last_iterate(self, monkeypatch):
        obj = build_convex_quadratic([1.0, 1.0])
        monkeypatch.setattr(flow, "FLOW_MAX_STEPS", 3)
        with pytest.raises(FlowConvergenceError) as err:
            gradient_flow_limit(obj, np.array([3.0, -2.0]))
        assert err.value.steps == 3
        assert err.value.grad_norm > 0
        assert np.all(np.isfinite(err.value.x_last))

    def test_divergent_start_raises(self):
        # Fixed-step descent on the quartic blows up far outside the region
        # where the Lipschitz hint is valid.
        obj = build_hyperbola()
        with pytest.raises(FlowConvergenceError):
            gradient_flow_limit(obj, np.array([40.0, -40.0]))


class TestToleranceMustBePositiveAndFinite:
    """A flow tolerance that is not positive and finite raises ``ValueError`` before any step."""

    @pytest.mark.parametrize("grad_tol", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("landscape", ["convex-quadratic", "hyperbola"])
    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    def test_refused(self, monkeypatch, batched, landscape, grad_tol):
        # A small cap makes a solve that does step end fast, with another error.
        monkeypatch.setattr(flow, "FLOW_MAX_STEPS", 50)
        obj = build_convex_quadratic([1e-3, 1.0]) if landscape == "convex-quadratic" else build_hyperbola()
        with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
            if batched:
                gradient_flow_limits(obj, np.ones((2, 2)), grad_tol)
            else:
                gradient_flow_limit(obj, np.ones(2), grad_tol)


def _flow_outcome(obj, x0, grad_tol):
    """The landing point's bytes, or the error's message, last iterate, gradient norm and steps."""
    try:
        return gradient_flow_limit(obj, x0, grad_tol).tobytes()
    except FlowConvergenceError as exc:
        return str(exc), exc.x_last.tobytes(), np.float64(exc.grad_norm).tobytes(), exc.steps


class TestFloatFlowMatchesArrayFlow:
    """``gradient_flow_limit`` on Python floats and on ndarrays (the float formulas removed) end alike."""

    @pytest.mark.parametrize("a", [[1.0], [1.0, 0.7, 1.3, 1.6]], ids=["hyperbola", "factorization-n4"])
    @pytest.mark.parametrize(
        "x0,grad_tol,outcome",
        [
            ((1.5, 0.7), DEFAULT_FLOW, "landed"),
            ((3.0, 1 / 3.0), ORACLE_FLOW, "landed"),
            ((-2.0, -0.4), ORACLE_FLOW, "landed"),
            ((1.0, 1.0), DEFAULT_FLOW, "landed"),
            ((0.0, 0.0), DEFAULT_FLOW, "landed"),
            ((1.5, 0.7), 1e-300, "flow stalled"),
            ((1.5, 0.7), 2.0**-499, "flow stalled"),
            ((30.0, 30.0), DEFAULT_FLOW, "non-finite gradient during"),
            ((1e200, 1e200), DEFAULT_FLOW, "non-finite gradient at start"),
        ],
    )
    def test_same_landing_or_error(self, a, x0, grad_tol, outcome):
        obj = flow.base_of(build_landscape(LandscapeSpec("scalar_factorization", {"a": a, "c": 1.0})))
        got = _flow_outcome(obj, np.array(x0), grad_tol)
        with np.errstate(over="ignore", invalid="ignore"):
            assert got == _flow_outcome(without_float_formulas(obj), np.array(x0), grad_tol)
        assert isinstance(got, bytes) if outcome == "landed" else got[0].startswith(outcome)

    @pytest.mark.parametrize("max_steps", [flow.FLOW_MAX_STEPS, 40], ids=["uncapped", "capped-at-40"])
    @pytest.mark.parametrize("grad_tol", [DEFAULT_FLOW, ORACLE_FLOW], ids=["default", "oracle"])
    @pytest.mark.parametrize("a", [[1.0], [1.0, 0.7, 1.3, 1.6]], ids=["hyperbola", "factorization-n4"])
    def test_seeded_starts_in_the_test_box(self, monkeypatch, a, grad_tol, max_steps):
        # The ndarray copy's square sum is np.dot itself, so its every stopping test is the exact one.
        monkeypatch.setattr(flow, "FLOW_MAX_STEPS", max_steps)
        obj = flow.base_of(build_landscape(LandscapeSpec("scalar_factorization", {"a": a, "c": 1.0})))
        array_obj = without_float_formulas(obj)
        landed = []
        for x0 in np.random.default_rng(7).uniform(-3.0, 3.0, (64, 2)):
            got = _landing_or_error(lambda: gradient_flow_limit(obj, x0, grad_tol).tobytes())
            assert got == _landing_or_error(lambda: gradient_flow_limit(array_obj, x0, grad_tol).tobytes()), x0
            landed.append(isinstance(got, bytes))
        assert all(landed) if max_steps > 40 else not all(landed)


class TestExactNormOnlyNearTheTolerance:
    """A float flow tests its stopping rule on the plain square sum; the exact dots run at most twice a solve."""

    @pytest.mark.parametrize("grad_tol", [DEFAULT_FLOW, ORACLE_FLOW], ids=["default", "oracle"])
    @pytest.mark.parametrize("offset", [(1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)])
    def test_landing_near_the_escape_start(self, monkeypatch, grad_tol, offset):
        # (3, 1/3) lies on the minima set; the certifier probes it TRACE_FD_STEP away.
        obj = build_hyperbola()
        x0 = np.array([3.0, 1.0 / 3.0]) + offset
        dots = count_exact_dots(monkeypatch, objectives)
        counted, steps = count_calls(obj, "float_grad")
        landing = gradient_flow_limit(counted, x0, grad_tol)
        assert len(steps) > 50 and len(dots) <= 2
        assert landing.tobytes() == gradient_flow_limit(without_float_formulas(obj), x0, grad_tol).tobytes()


def _factorization_forms():
    """The hyperbola and the n = 4 factorization, each on floats and on ndarrays (``without_float_formulas``)."""
    forms = {}
    for label, a in (("hyperbola", [1.0]), ("factorization-n4", [1.0, 0.7, 1.3, 1.6])):
        obj = build_scalar_factorization(a, 1.0).base
        forms[label + "-floats"] = obj
        forms[label + "-ndarrays"] = without_float_formulas(obj)
    return forms


_FORMS = _factorization_forms()


class TestOneCallPerStep:
    """Each flow step is one ``flow_step`` call; the solve ends as the earlier two-call loop did, bit for bit."""

    @pytest.mark.parametrize("form", list(_FORMS))
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        unit=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        # 3 is the test box; 10, 1e3 and 1e160 start beyond it and overflow during the flow or at its start.
        scale=st.sampled_from([3.0, 10.0, 1e3, 1e160]),
        # The gradient cannot reach 2**-499, so in the box that flow stalls.
        grad_tol=st.sampled_from([DEFAULT_FLOW, ORACLE_FLOW, 2.0**-499]),
        # 20 000 stands in for FLOW_MAX_STEPS: beyond the box, a 2**-499 solve
        # can cycle in its last bits until the cap, 10 000 000 steps.
        max_steps=st.sampled_from([20_000, 40]),
    )
    def test_same_landing_or_error_as_two_call_loop(self, form, unit, scale, grad_tol, max_steps):
        obj = _FORMS[form]
        x0 = scale * np.array(unit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "FLOW_MAX_STEPS", max_steps)
            got = _landing_or_error(lambda: gradient_flow_limit(obj, x0, grad_tol).tobytes())
            assert got == _landing_or_error(lambda: two_call_flow(obj, x0, grad_tol).tobytes())

    @pytest.mark.parametrize("grad_tol", [DEFAULT_FLOW, ORACLE_FLOW], ids=["default", "oracle"])
    @pytest.mark.parametrize("form", list(_FORMS))
    @pytest.mark.parametrize("x0", [(1.5, 0.7), (-2.0, -0.4), (3.0 + 1e-4, 1.0 / 3.0)])
    def test_one_gradient_per_step(self, monkeypatch, form, x0, grad_tol):
        # Two evaluations in a step would show as a count above the two-call loop's.
        obj = _FORMS[form]
        name = "float_grad" if obj.float_grad is not None else "grad"
        dots = count_exact_dots(monkeypatch, objectives)
        counted, calls = count_calls(obj, name)
        landing = gradient_flow_limit(counted, np.array(x0), grad_tol)
        reference, ref_calls = count_calls(obj, name)
        assert landing.tobytes() == two_call_flow(reference, np.array(x0), grad_tol).tobytes()
        assert len(calls) == len(ref_calls)
        # A step moves the point; an exact norm re-evaluates the point it is at.
        points = [np.array(a).tobytes() for a in calls]
        steps = sum(p != q for p, q in zip(points, points[1:]))
        assert steps > 50
        if name == "float_grad":
            assert len(dots) <= 2 and len(calls) == steps + 1 + len(dots)


class TestLandingProperty:
    @pytest.mark.parametrize("grad_tol", [DEFAULT_FLOW, ORACLE_FLOW], ids=["default", "oracle"])
    @pytest.mark.parametrize(
        "spec",
        [
            LandscapeSpec("hyperbola"),
            LandscapeSpec("scalar_factorization", {"a": [1.0, 0.7, 1.3, 1.6], "c": 1.0}),
            LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]}),
        ],
        ids=["hyperbola", "factorization-n4", "orthogonal-model"],
    )
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
    def test_lands_within_grad_tol_or_raises(self, spec, grad_tol, coords):
        obj = base_objective(spec)
        x0 = np.array(coords[: obj.dim])
        try:
            x_hat = gradient_flow_limit(obj, x0, grad_tol)
        except FlowConvergenceError:
            return
        assert np.linalg.norm(obj.grad(x_hat)) <= grad_tol


def _landing_or_error(fn):
    """``fn()``'s result, or the fields of the FlowConvergenceError it raises."""
    try:
        return fn()
    except FlowConvergenceError as err:
        return (type(err), str(err), err.x_last.tobytes(), np.float64(err.grad_norm).tobytes(), err.steps)


class TestBatchedLanding:
    """``gradient_flow_limits`` against a loop of ``gradient_flow_limit``, bit for bit."""

    @pytest.mark.parametrize(
        "spec",
        [
            LandscapeSpec("hyperbola"),
            LandscapeSpec("scalar_factorization", {"a": [1.0, 0.7, 1.3, 1.6], "c": 1.0}),
            LandscapeSpec("orthogonal_quadratic_model", {"d": 12, "n": 4, "y": [0.5, 1.0, 1.5, 2.0]}),
            LandscapeSpec("convex_quadratic", {"eigenvalues": [1.0, 4.0, 0.5]}),
        ],
        ids=["hyperbola", "factorization-n4", "orthogonal-d12", "convex-quadratic"],
    )
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        points=st.lists(st.lists(st.floats(-3.0, 3.0), min_size=12, max_size=12), min_size=1, max_size=4),
        # Starts the single-point loop fails on: a gradient that overflows at
        # the start, and one that diverges.
        failing=st.lists(st.sampled_from(["overflow", "diverge"]), max_size=2),
        # 1e-30 is below the gradient the hyperbola can reach, so it stalls.
        grad_tol=st.sampled_from([DEFAULT_FLOW, ORACLE_FLOW, 1e-30]),
        max_steps=st.sampled_from([flow.FLOW_MAX_STEPS, 3]),
        data=st.data(),
    )
    def test_matches_loop_of_single_landings(self, spec, points, failing, grad_tol, max_steps, data):
        obj = base_objective(spec)
        d = obj.dim
        special = {"overflow": np.full(d, 1e200), "diverge": 40.0 * (-1.0) ** np.arange(d)}
        rows = data.draw(st.permutations([p[:d] for p in points] + [special[f] for f in failing]))
        X = np.array(rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "FLOW_MAX_STEPS", max_steps)
            batched = _landing_or_error(lambda: gradient_flow_limits(obj, X, grad_tol))
            looped = _landing_or_error(lambda: np.array([gradient_flow_limit(obj, x, grad_tol) for x in X]))
        if isinstance(looped, tuple):
            assert batched == looped
        else:
            assert batched.tobytes() == looped.tobytes()

    @pytest.mark.parametrize(
        "eigenvalues, rows, grad_tol, max_steps, kind, steps",
        [
            # The stall at step 422 of row 1 wins over row 2's overflow at step 0.
            (None, [[2.0, 0.5], [2.0, 0.6], [1e200, 1e200]], 1e-30, None, "stalled", 422),
            (None, [[2.0, 0.5], [40.0, -40.0], [1e200, 1e200]], DEFAULT_FLOW, None, "non-finite", 4),
            ([1.0, 4.0], [[0.0, 0.0], [3.0, -2.0], [1e200, 1e200]], DEFAULT_FLOW, 3, "did not converge", 3),
        ],
        ids=["stall", "divergence", "max-steps"],
    )
    def test_lowest_failing_row_wins(self, monkeypatch, eigenvalues, rows, grad_tol, max_steps, kind, steps):
        obj = build_hyperbola() if eigenvalues is None else build_convex_quadratic(eigenvalues)
        if max_steps is not None:
            monkeypatch.setattr(flow, "FLOW_MAX_STEPS", max_steps)
        X = np.array(rows)
        batched = _landing_or_error(lambda: gradient_flow_limits(obj, X, grad_tol))
        looped = _landing_or_error(lambda: [gradient_flow_limit(obj, x, grad_tol) for x in X])
        assert kind in looped[1] and looped[4] == steps
        assert batched == looped


class TestStartShape:
    """Each flow entry point rejects a start whose shape does not fit the objective, with one ValueError."""

    @pytest.mark.parametrize(
        "obj",
        [build_hyperbola(), without_float_formulas(build_hyperbola()), build_convex_quadratic([1.0, 2.0])],
        ids=["hyperbola-floats", "hyperbola-ndarrays", "quadratic"],
    )
    @pytest.mark.parametrize("x0", [[1.0, 1.0, 1.0], [1.0], 1.0, [[1.0, 1.0]]], ids=["3", "1", "scalar", "1x2"])
    @pytest.mark.parametrize("entry", ["limit", "certify"])
    def test_single_start(self, obj, x0, entry):
        shape = np.shape(x0)
        with pytest.raises(ValueError, match=re.escape(f"expected a start of shape (2,), got {shape}")):
            if entry == "limit":
                gradient_flow_limit(obj, x0)
            else:
                certify_flat(obj, x0, eps=0.01, eps_prime=0.1)

    @pytest.mark.parametrize("obj", [build_hyperbola(), build_convex_quadratic([1.0, 2.0])], ids=["hyperbola", "quadratic"])
    @pytest.mark.parametrize("X", [[[1.0, 1.0, 1.0]], [1.0, 1.0], [[[1.0, 1.0]]], []], ids=["1x3", "2", "1x1x2", "empty"])
    def test_batched_starts(self, obj, X):
        shape = np.shape(X)
        with pytest.raises(ValueError, match=re.escape(f"expected starts of shape (k, 2), got {shape}")):
            gradient_flow_limits(obj, X)

    def test_no_rows_land_to_no_rows(self):
        assert gradient_flow_limits(build_hyperbola(), np.empty((0, 2))).shape == (0, 2)


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
            J = fd_jacobian(lambda p: fixed_step_flow(obj, p, *ACCURATE_FLOW), x, 1e-4)
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

    @pytest.mark.parametrize(
        "spec, x",
        [
            (LandscapeSpec("hyperbola"), [0.0, 0.0]),
            (LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]}), [1.0, 0.0, 0.3, 0.0]),
        ],
        ids=["hyperbola-origin", "orthogonal-model"],
    )
    def test_saddle_point_fails(self, spec, x):
        # A stationary point is its own landing point and its probes cancel,
        # so both inequalities hold; the Hessian's negative eigenvalue refuses it.
        obj = base_objective(spec)
        cert = certify_flat(obj, np.array(x), eps=0.05, eps_prime=0.3)
        assert cert.dist == 0.0 and cert.flat_grad_norm <= 0.3
        assert np.linalg.eigvalsh(obj.hess(np.array(x)))[0] < 0.0
        assert not cert.passed

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

    @pytest.mark.parametrize(
        "eps, eps_prime",
        [(math.nan, 0.1), (0.1, math.nan), (math.inf, 0.1), (0.1, math.inf), (math.inf, math.inf), (-1.0, 0.1)],
    )
    @pytest.mark.parametrize("x", [[1.0, 1.0], [3.0, 1.0 / 3.0]], ids=["flat", "sharp"])
    def test_thresholds_must_be_positive_and_finite(self, x, eps, eps_prime):
        with pytest.raises(ValueError, match="eps and eps_prime must be positive and finite"):
            certify_flat(build_hyperbola(), np.array(x), eps, eps_prime)


#: The n = 4 factorization of the escape experiments, and its mean squared weight.
_FACTOR_A = [1.0, 0.7, 1.3, 1.6]
_FACTOR_M2 = sum(a * a for a in _FACTOR_A) / len(_FACTOR_A)


def _points_on_and_off_the_minima_sets() -> list:
    """``(landscape, x)`` on and off {u*v = 1}, both branches, for the hyperbola and the n = 4 factorization.

    A point on the minima set is b*(e^t, e^-t). Per landscape and branch b:
    the flat point t = 0, the sharp point t = ln 3, the corners t = ±1.2
    moved 0.03 along the unit normal (v, u)/|x|, and eight seeded t in
    [-1.2, 1.2], half of them moved 0.005 to 0.03 either way.
    """
    rng = np.random.default_rng(0)
    points = []
    for landscape in ("hyperbola", "factorization"):
        for b in (1.0, -1.0):
            ts = [(0.0, 0.0), (math.log(3.0), 0.0), (-1.2, 0.03), (1.2, -0.03)]
            ts += [(t, 0.0) for t in rng.uniform(-1.2, 1.2, 4)]
            offsets = rng.uniform(0.005, 0.03, 4) * rng.choice((-1.0, 1.0), 4)
            ts += list(zip(rng.uniform(-1.2, 1.2, 4), offsets))
            for t, off in ts:
                u, v = b * math.exp(t), b * math.exp(-t)
                h = math.hypot(u, v)
                points.append((landscape, [float(u + off * v / h), float(v + off * u / h)]))
    return points


class TestCertificateClosedForm:
    """Certificates on the factorization family against the closed-form landing point and flat gradient.

    The flow of m2*(u*v - 1)^2 conserves u^2 - v^2, which fixes where it
    lands and the gradient of the trace there. The tolerances are those of
    the benchmark's certificate check: 1e-4 on the landing point and
    distance, and 1e-4 relative plus 1e-6 on the flat-gradient norm.
    """

    @pytest.mark.parametrize(
        "landscape, x",
        _points_on_and_off_the_minima_sets(),
        ids=lambda v: v if isinstance(v, str) else f"{v[0]:.4f},{v[1]:.4f}",
    )
    def test_matches_the_flow_invariant(self, landscape, x):
        if landscape == "hyperbola":
            obj, m2 = build_hyperbola(), 1.0
        else:
            obj, m2 = build_scalar_factorization(_FACTOR_A, 1.0), _FACTOR_M2
        cert = certify_flat(obj, np.array(x), 0.05, 0.3)
        phi = landing_point(x, 1.0)
        assert max(abs(a - b) for a, b in zip(cert.phi_x, phi)) <= 1e-4
        assert abs(cert.dist - math.hypot(x[0] - phi[0], x[1] - phi[1])) <= 1e-4
        flat = flat_grad_norm(phi, m2, 1.0)
        assert abs(cert.flat_grad_norm - flat) <= 1e-4 * flat + 1e-6
        # Near a minimum the curvature check refuses nothing.
        assert cert.passed == (cert.dist <= 0.05 and cert.flat_grad_norm <= 0.3)


class TestTraceAtFlowLimit:
    def test_initial_sharp_point_value(self):
        obj = build_hyperbola()
        tr = trace_at_flow_limit(obj, np.array([3.0, 1.0 / 3.0]))
        assert tr == pytest.approx(9.0 + 1.0 / 9.0, rel=1e-12)

    def test_quadratic_trace_constant(self):
        obj = build_convex_quadratic([2.0, 4.0])
        assert trace_at_flow_limit(obj, np.array([1.0, 1.0])) == pytest.approx(3.0)
        assert normalized_trace(obj, np.zeros(2)) == pytest.approx(3.0)
