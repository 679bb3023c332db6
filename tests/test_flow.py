import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatmin import (
    DEFAULT_FLOW,
    ORACLE_FLOW,
    FlowConvergenceError,
    LandscapeSpec,
    Objective,
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
from flatmin import flow, optimizers
from conftest import (
    base_objective,
    count_calls,
    count_exact_dots,
    count_numpy_dots,
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
    """A float flow tests its stopping rule on the plain square sum; past the start's exact square, it takes at most two exact norms a solve."""

    @pytest.mark.parametrize("grad_tol", [DEFAULT_FLOW, ORACLE_FLOW], ids=["default", "oracle"])
    @pytest.mark.parametrize("offset", [(1e-4, 0.0), (-1e-4, 0.0), (0.0, 1e-4), (0.0, -1e-4)])
    def test_landing_near_the_escape_start(self, monkeypatch, grad_tol, offset):
        # (3, 1/3) lies on the minima set; the certifier probes it TRACE_FD_STEP away.
        obj = build_hyperbola()
        x0 = np.array([3.0, 1.0 / 3.0]) + offset
        evaluated = count_exact_dots(monkeypatch, optimizers)
        dots = count_exact_dots(monkeypatch, flow)
        norms = count_numpy_dots(monkeypatch, flow)
        counted, steps = count_calls(obj, "float_grad")
        landing = gradient_flow_limit(counted, x0, grad_tol)
        # The start's exact square, then at most two exact norms in the band; no iterate is evaluated.
        assert len(steps) > 50 and dots[0] == obj.float_grad(*steps[0]) and len(dots) <= 3
        assert not evaluated and not norms
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
    """Each flow step makes one gradient call; the solve ends as the earlier two-call loop did, bit for bit."""

    @pytest.mark.parametrize("form", list(_FORMS))
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(
        unit=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        # 3 is the test box; 10, 1e3 and 1e160 start beyond it and overflow during the flow or at its start.
        scale=st.sampled_from([3.0, 10.0, 1e3, 1e160]),
        # The gradient cannot reach 2**-499, so in the box that flow stalls.
        grad_tol=st.sampled_from([DEFAULT_FLOW, ORACLE_FLOW, 2.0**-499]),
        # 20 000 stands in for FLOW_MAX_STEPS: beyond the box, a 2**-499 solve
        # can cycle in its last bits, which the reference runs until the cap.
        max_steps=st.sampled_from([20_000, 40]),
    )
    # Starts whose solves cycle with period 2, so that every form meets the cycle test.
    @example(unit=(0.0, 0.9375), scale=10.0, grad_tol=2.0**-499, max_steps=20_000)
    @example(unit=(0.99, 0.01), scale=10.0, grad_tol=2.0**-499, max_steps=20_000)
    # Starts whose reference stalls: at step 635, and at step 17 936, past the last checkpoint below the cap.
    @example(unit=(0.5, 0.7 / 3.0), scale=3.0, grad_tol=2.0**-499, max_steps=20_000)
    @example(unit=(0.0, 1e-131), scale=3.0, grad_tol=2.0**-499, max_steps=20_000)
    def test_same_landing_or_error_as_two_call_loop(self, form, unit, scale, grad_tol, max_steps):
        obj = _FORMS[form]
        x0 = scale * np.array(unit)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "FLOW_MAX_STEPS", max_steps)
            got = _landing_or_error(lambda: gradient_flow_limit(obj, x0, grad_tol).tobytes())
            expected = _landing_or_error(lambda: two_call_flow(obj, x0, grad_tol).tobytes())
            if _ends(expected, "flow stalled"):
                # The reference stalls at step s, on an iterate that step s - 1 reached and
                # no later step leaves. The change holds it once a checkpoint P >= s - 1 has
                # saved it, and sees the repeat at step P + 1, unless the cap comes first.
                s = expected[4]
                checkpoint = 0 if s == 1 else 1 << (s - 2).bit_length()
                if checkpoint < max_steps:
                    assert got[:4] == expected[:4] and got[4] == checkpoint + 1
                else:
                    assert _ends(got, "flow did not converge") and got[2:] == (*expected[2:4], max_steps)
            elif _ends(expected, "flow did not converge") and _ends(got, "flow stalled"):
                # The reference has no test for a cycle longer than one step. The new iterate
                # at step t equals the one saved at the power of two P below t, so the
                # reference, restarted at the iterate before it for t - P steps, comes back
                # to that iterate and ends at the cap.
                t = got[4]
                checkpoint = 1 << ((t - 1).bit_length() - 1)
                assert t < max_steps
                mp.setattr(flow, "FLOW_MAX_STEPS", t - checkpoint)
                again = _landing_or_error(lambda: two_call_flow(obj, np.frombuffer(got[2]), grad_tol).tobytes())
                assert _ends(again, "flow did not converge") and again[2:] == (*got[2:4], t - checkpoint)
            else:
                assert got == expected

    @pytest.mark.parametrize("grad_tol", [DEFAULT_FLOW, ORACLE_FLOW], ids=["default", "oracle"])
    @pytest.mark.parametrize("form", list(_FORMS))
    @pytest.mark.parametrize("x0", [(1.5, 0.7), (-2.0, -0.4), (3.0 + 1e-4, 1.0 / 3.0)])
    def test_one_gradient_per_step(self, monkeypatch, form, x0, grad_tol):
        # A solve evaluates the gradient at its start once and at each point it steps to once: steps + 1 in all.
        obj = _FORMS[form]
        floats = obj.float_grad is not None
        name, value = ("float_grad", "float_value") if floats else ("grad", "value")
        dots = count_exact_dots(monkeypatch, flow)
        norms = count_numpy_dots(monkeypatch, flow)
        counted, calls = count_calls(obj, name)
        counted, values = count_calls(counted, value)
        landing = gradient_flow_limit(counted, np.array(x0), grad_tol)
        assert landing.tobytes() == two_call_flow(obj, np.array(x0), grad_tol).tobytes()
        # A step moves the point, so a second evaluation of one point would show as an unmoved pair.
        points = [np.array(a).tobytes() for a in calls]
        steps = sum(p != q for p, q in zip(points, points[1:]))
        assert steps > 50 and len(calls) == steps + 1
        # The solve starts from the gradient alone, never from f.
        assert not values
        if floats:
            # One exact square at the start, of its gradient, and at most two exact norms in the band.
            assert dots[0] == obj.float_grad(*calls[0]) and len(dots) <= 3 and not norms
        else:
            # Every square sum is the exact dot, one per gradient; the band's exact norms are its roots.
            assert len(norms) == len(calls) and not dots


def _ends(outcome, message: str) -> bool:
    """Whether ``outcome``, as ``_landing_or_error`` gives it, is an error whose message starts with ``message``."""
    return isinstance(outcome, tuple) and outcome[1].startswith(message)


def _cycle(period: int) -> Objective:
    """A d = 2 map whose flow step is exactly 1 and sends each small integer x0 to the next.

    Below ``period`` the next of x0 is ``(x0 + 1) % period``, a cycle; above
    it x0 steps down to ``period``, a fixed point with gradient 0. The
    gradient is ``(x0 - next(x0), 0)``, so each step lands on an integer.
    """

    def successor(x0):
        return np.where(x0 < period, (x0 + 1) % period, np.maximum(x0 - 1, period))

    def grad_many(X):
        return np.stack([X[:, 0] - successor(X[:, 0]), np.zeros(len(X))], axis=1)

    return Objective(
        dim=2,
        value=lambda x: 0.0,
        grad=lambda x: grad_many(x[None])[0],
        hess=lambda x: np.zeros((2, 2)),
        lipschitz_grad_hint=flow.FLOW_STEP_FRACTION,
        value_many=lambda X: np.zeros(len(X)),
        grad_many=grad_many,
        normalized_trace_grad=lambda x: np.zeros(2),
        float_value=lambda x0, x1: 0.0,
        float_grad=lambda x0, x1: (x0 - float(successor(x0)), 0.0),
    )


class TestCyclesStall:
    """A solve whose new iterate repeats the one saved at the last power-of-two step ends "stalled".

    The step map is deterministic, so such a solve cycles and never lands;
    before, a cycle whose period is not a power of two ran all
    ``FLOW_MAX_STEPS`` steps and ended at the cap. A cycle of period p is
    seen once a power of two reaches p past its entry: within 3p steps from
    a start on the cycle.
    """

    @pytest.mark.parametrize("floats", [True, False], ids=["floats", "ndarrays"])
    @pytest.mark.parametrize("period", [3, 5])
    def test_any_period(self, monkeypatch, period, floats):
        # The cap stands in for FLOW_MAX_STEPS, so a loop that misses the cycle fails fast.
        monkeypatch.setattr(flow, "FLOW_MAX_STEPS", 100_000)
        obj = _cycle(period) if floats else without_float_formulas(_cycle(period))
        got = _landing_or_error(lambda: gradient_flow_limit(obj, np.array([0.0, 0.0])))
        assert _ends(got, "flow stalled") and got[4] <= 3 * period

    @pytest.mark.parametrize("period", [3, 5])
    def test_any_period_batched(self, monkeypatch, period):
        # Row 0 lands on the fixed point at step 3 and leaves the loop; row 1 cycles.
        monkeypatch.setattr(flow, "FLOW_MAX_STEPS", 100_000)
        X = np.array([[period + 3.0, 0.0], [0.0, 0.0]])
        single = _landing_or_error(lambda: gradient_flow_limit(_cycle(period), X[1]))
        assert _ends(single, "flow stalled") and single[4] <= 3 * period
        assert _landing_or_error(lambda: gradient_flow_limits(_cycle(period), X)) == single
        assert gradient_flow_limit(_cycle(period), X[0]).tolist() == [period, 0.0]

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batched"])
    @pytest.mark.parametrize("form", ["factorization-n4-floats", "factorization-n4-ndarrays"])
    def test_period_two_beyond_the_box(self, form, batched):
        # The flow settles at (9.90000989, 0.10101), alternating between two iterates of gradient norm 1.262e-14.
        x0 = np.array([9.9, 0.1])
        if batched:
            got = _landing_or_error(lambda: gradient_flow_limits(_FORMS[form], x0[None], 2.0**-499))
        else:
            got = _landing_or_error(lambda: gradient_flow_limit(_FORMS[form], x0, 2.0**-499))
        assert _ends(got, "flow stalled at grad norm 1.262e-14") and got[4] <= 1000

    @pytest.mark.parametrize("offset", [(1e-4, 0.0), (0.0, 1e-4)])
    def test_message_names_the_rounding_floor(self, offset):
        # Two of the certifier's probes of the minimum (sqrt(1e3), sqrt(1e3)) stall above
        # ORACLE_FLOW, at the floor 2**-53 * |x| * lipschitz_grad_hint of u*v = 1e3.
        obj = build_scalar_factorization([1.0], 1e3).base
        x0 = np.full(2, math.sqrt(1e3)) + offset
        got = _landing_or_error(lambda: gradient_flow_limit(obj, x0, ORACLE_FLOW))
        floor = 2.0**-53 * np.linalg.norm(np.frombuffer(got[2])) * obj.lipschitz_grad_hint
        assert got[1] == "flow stalled at grad norm 1.017e-11 > tol 1.000e-13 (rounding floor about 1.0e-11)"
        assert floor / 7 < np.frombuffer(got[3])[0] < 7 * floor

    def test_batched_row_stalls_as_its_single_solve(self):
        # On u*v = 1e4 row 0 lands, and row 1 cycles near (100.504, 99.499).
        obj = build_scalar_factorization([1.0], 1e4).base
        X = np.array([[100.001, 100.0], [101.0, 100.0]])
        single = _landing_or_error(lambda: gradient_flow_limit(obj, X[1]))
        assert _ends(single, "flow stalled") and single[4] <= 1000
        assert _landing_or_error(lambda: gradient_flow_limits(obj, X)) == single
        assert isinstance(_landing_or_error(lambda: gradient_flow_limit(obj, X[0])), np.ndarray)


def _linear(g0: float, g1: float, h: float = 1.0) -> Objective:
    """f(x) = g0*x0 + g1*x1, whose gradient is ``(g0, g1)`` everywhere, with a flow step of ``h``."""
    g = np.array([g0, g1])
    return Objective(
        dim=2,
        value=lambda x: float(np.dot(g, x)),
        grad=lambda x: g.copy(),
        hess=lambda x: np.zeros((2, 2)),
        lipschitz_grad_hint=flow.FLOW_STEP_FRACTION / h,
        value_many=lambda X: X @ g,
        grad_many=lambda X: np.tile(g, (len(X), 1)),
        normalized_trace_grad=lambda x: np.zeros(2),
        float_value=lambda x0, x1: g0 * x0 + g1 * x1,
        float_grad=lambda x0, x1: (g0, g1),
    )


_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])
_EDGE_COORD = st.one_of(
    st.floats(-1e150, 1e150), st.floats(-1e-300, 1e-300), st.floats(-4.0, 4.0), _SPECIAL
)


class TestFirstStepEdges:
    """Steps at the edges of float resolution end a solve alike on floats and on ndarrays.

    A step that moves no coordinate stalls the solve: a step below half an
    ulp, and one of exactly half an ulp, which rounds to even. A NaN
    coordinate never equals itself, so it counts as moved. The linear
    landscapes hold their gradient fixed, so a step of any size can be set.
    """

    @pytest.mark.parametrize(
        "obj, x0, grad_tol, outcome, steps",
        [
            # A zero gradient on the minima set, and a negative zero one, land at the start.
            (build_hyperbola(), (2.0, 0.5), DEFAULT_FLOW, "landed", 0),
            (build_hyperbola(), (-2.0, -0.5), DEFAULT_FLOW, "landed", 0),
            (_linear(0.0, 0.0), (math.nan, 1.0), DEFAULT_FLOW, "landed", 0),
            # A first step below half an ulp of 1.
            (build_hyperbola(), (1.0, 1.0 + 2.0**-52), 1e-300, "flow stalled", 1),
            (_linear(1e-17, -1e-17), (1.0, 1.0), 2.0**-60, "flow stalled", 1),
            # Exactly half an ulp above 1, which rounds to even; a whole ulp moves.
            (_linear(0.0, -(2.0**-53)), (1.0, 1.0), 2.0**-60, "flow stalled", 1),
            (_linear(0.0, -(2.0**-52)), (1.0, 1.0), 2.0**-60, "flow did not converge", 40),
            (_linear(1e-17, 1e-3), (1.0, 1.0), DEFAULT_FLOW, "flow did not converge", 40),
            # An infinite coordinate moves by no finite step.
            (_linear(1.0, 0.0), (math.inf, 1.0), DEFAULT_FLOW, "flow stalled", 1),
            (_linear(1.0, 1.0), (-math.inf, 1.0), DEFAULT_FLOW, "flow did not converge", 40),
            # A step that overflows sends a coordinate to -inf, where the next step stalls.
            (_linear(1e150, 0.0, h=1e160), (1.0, 1.0), DEFAULT_FLOW, "flow stalled", 2),
            # inf - inf is NaN, and a NaN coordinate counts as moved at every step.
            (_linear(1e150, 0.0, h=1e160), (math.inf, 1.0), DEFAULT_FLOW, "flow did not converge", 40),
            (_linear(1.0, 0.0), (math.nan, 1.0), DEFAULT_FLOW, "flow did not converge", 40),
            # A gradient that overflows during the flow.
            (build_hyperbola(), (30.0, 30.0), DEFAULT_FLOW, "non-finite gradient during", 5),
        ],
    )
    def test_edge_starts(self, monkeypatch, obj, x0, grad_tol, outcome, steps):
        monkeypatch.setattr(flow, "FLOW_MAX_STEPS", 40)
        counted, calls = count_calls(obj, "float_grad")
        got = _landing_or_error(lambda: gradient_flow_limit(counted, np.array(x0), grad_tol).tobytes())
        assert got == _landing_or_error(
            lambda: gradient_flow_limit(without_float_formulas(obj), np.array(x0), grad_tol).tobytes()
        )
        if outcome == "landed":
            assert got == np.array(x0).tobytes()
        else:
            assert got[1].startswith(outcome) and got[-1] == steps
        # A stalled step moved nothing, so it evaluates no gradient.
        assert len(calls) == steps + (outcome != "flow stalled")

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        x=st.tuples(_EDGE_COORD, _EDGE_COORD),
        g=st.tuples(_EDGE_COORD, _EDGE_COORD),
        h=st.floats(1e-300, 1.0),
        grad_tol=st.sampled_from([DEFAULT_FLOW, 2.0**-499]),
    )
    def test_forms_agree(self, x, g, h, grad_tol):
        obj = _linear(*g, h=h)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flow, "FLOW_MAX_STEPS", 3)
            got = _landing_or_error(lambda: gradient_flow_limit(obj, np.array(x), grad_tol).tobytes())
            with np.errstate(over="ignore", invalid="ignore"):
                assert got == _landing_or_error(
                    lambda: gradient_flow_limit(without_float_formulas(obj), np.array(x), grad_tol).tobytes()
                )


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
            # The stall at step 513 of row 1 wins over row 2's overflow at step 0.
            (None, [[2.0, 0.5], [2.0, 0.6], [1e200, 1e200]], 1e-30, None, "stalled", 513),
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

    @pytest.mark.parametrize(
        "spec, x",
        [
            (LandscapeSpec("hyperbola"), [1, 1]),
            (LandscapeSpec("hyperbola"), [1.001, 0.999]),
            (LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]}), [1.0, 1.0, 0.3, 0.0]),
        ],
        ids=["hyperbola-int-start", "hyperbola", "orthogonal-model"],
    )
    def test_points_are_lists_of_floats(self, spec, x):
        cert = certify_flat(build_landscape(spec), x, eps=0.05, eps_prime=0.3)
        for field in (cert.x, cert.phi_x):
            assert type(field) is list and len(field) == len(x)
            assert all(type(v) is float for v in field)
        assert cert.x == [float(v) for v in x]

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


class TestCertificatesEqualAcrossForms:
    """A certificate's JSON is the same whether the flows step on Python floats or on ndarrays."""

    @pytest.mark.parametrize(
        "landscape, x",
        _points_on_and_off_the_minima_sets() + [("hyperbola", [3.0, 1.0 / 3.0]), ("factorization", [3.0, 1.0 / 3.0])],
        ids=lambda v: v if isinstance(v, str) else f"{v[0]:.4f},{v[1]:.4f}",
    )
    def test_same_json(self, landscape, x):
        obj = build_hyperbola() if landscape == "hyperbola" else build_scalar_factorization(_FACTOR_A, 1.0)
        cert = certify_flat(obj, np.array(x), 0.05, 0.3)
        assert cert.to_json() == certify_flat(without_float_formulas(obj), np.array(x), 0.05, 0.3).to_json()
        if x == [3.0, 1.0 / 3.0]:
            # The sharp escape start lies on the minima set, where the trace gradient is large.
            assert not cert.passed and cert.dist == 0.0


class TestTraceAtFlowLimit:
    def test_initial_sharp_point_value(self):
        obj = build_hyperbola()
        tr = trace_at_flow_limit(obj, np.array([3.0, 1.0 / 3.0]))
        assert tr == pytest.approx(9.0 + 1.0 / 9.0, rel=1e-12)

    def test_quadratic_trace_constant(self):
        obj = build_convex_quadratic([2.0, 4.0])
        assert trace_at_flow_limit(obj, np.array([1.0, 1.0])) == pytest.approx(3.0)
        assert normalized_trace(obj, np.zeros(2)) == pytest.approx(3.0)
