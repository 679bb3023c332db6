import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from flatmin import (
    LandscapeSpec,
    Objective,
    SampleSumObjective,
    build_convex_quadratic,
    build_hyperbola,
    build_landscape,
    build_orthogonal_quadratic_model,
    build_scalar_factorization,
    canonical_minimum,
    fd_gradient,
)
from flatmin.objectives import TEST_REGION_HALF_WIDTH, iterates

from conftest import ALL_LANDSCAPE_SPECS, base_objective, random_points, without_float_formulas
from references import fd_jacobian, numpy_array_orthogonal_model, numpy_scalar_factorization, sample_hess


class TestObjectiveContract:
    @pytest.mark.parametrize("hint", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_lipschitz_hint(self, hint):
        with pytest.raises(ValueError, match="lipschitz_grad_hint"):
            dataclasses.replace(build_hyperbola(), lipschitz_grad_hint=hint)

    def test_sample_sum_requires_prediction_gradient(self):
        with pytest.raises(TypeError, match="pred_grad"):
            SampleSumObjective(
                base=build_convex_quadratic([1.0]),
                n=1,
                sample_value=lambda i, x: 0.0,
                sample_grad=lambda i, x: np.zeros(1),
            )


class TestHyperbola:
    def test_values_on_and_off_manifold(self):
        obj = build_hyperbola()
        assert obj.value(np.array([1.0, 1.0])) == 0.0
        assert obj.value(np.array([0.0, 0.0])) == 1.0
        assert np.array_equal(obj.grad(np.array([1.0, 1.0])), [0.0, 0.0])

    def test_hessian_at_unit_point(self):
        obj = build_hyperbola()
        assert np.array_equal(obj.hess(np.array([1.0, 1.0])), [[2.0, 2.0], [2.0, 2.0]])

    def test_trace_identity_everywhere(self):
        obj = build_hyperbola()
        for x in random_points(2, 50, seed=1):
            tr = np.trace(obj.hess(x)) / 2.0
            assert tr == pytest.approx(x[0] ** 2 + x[1] ** 2, rel=1e-14)

    def test_closed_forms_bit_for_bit(self):
        # The factorization preset must keep the hyperbola's own arithmetic
        # exactly, or seeded escape artifacts change.
        obj = build_hyperbola()
        assert isinstance(obj, Objective)
        for scale in (1e-3, 1.0, 1e3):
            X = random_points(2, 200, seed=5) * scale
            for u, v in X:
                r = u * v - 1.0
                x = np.array([u, v])
                assert obj.value(x) == float(r**2)
                assert np.array_equal(obj.grad(x), [2.0 * r * v, 2.0 * r * u])
                off = 4.0 * u * v - 2.0
                assert np.array_equal(obj.hess(x), [[2.0 * v**2, off], [off, 2.0 * u**2]])
                assert np.array_equal(obj.normalized_trace_grad(x), [2.0 * u, 2.0 * v])
            assert np.array_equal(obj.value_many(X), (X[:, 0] * X[:, 1] - 1.0) ** 2)

    def test_lipschitz_hint_is_region_spectral_sup(self):
        obj = build_hyperbola()
        assert obj.lipschitz_grad_hint == pytest.approx(56.0)
        for x in random_points(2, 100, seed=2):
            assert np.abs(np.linalg.eigvalsh(obj.hess(x))).max() <= obj.lipschitz_grad_hint + 1e-9


class TestConvexQuadratic:
    def test_identity_gradient(self):
        obj = build_convex_quadratic([1.0, 1.0])
        assert np.array_equal(obj.grad(np.array([3.0, -2.0])), [3.0, -2.0])

    def test_constant_hessian(self):
        obj = build_convex_quadratic([2.0, 4.0])
        for x in random_points(2, 5, seed=3):
            assert np.array_equal(obj.hess(x), np.diag([2.0, 4.0]))

    def test_nonpositive_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            build_convex_quadratic([1.0, 0.0])
        with pytest.raises(ValueError):
            build_convex_quadratic([1.0, -2.0])
        with pytest.raises(ValueError):
            build_convex_quadratic([])


class TestScalarFactorization:
    def test_single_sample_reduces_to_hyperbola(self):
        ss = build_scalar_factorization([1.0], 1.0)
        hyp = build_hyperbola()
        for x in random_points(2, 20, seed=4):
            assert ss.base.value(x) == pytest.approx(hyp.value(x), rel=1e-14, abs=1e-14)
            assert np.allclose(ss.base.grad(x), hyp.grad(x), rtol=1e-14, atol=1e-14)
            assert np.allclose(ss.base.hess(x), hyp.hess(x), rtol=1e-14, atol=1e-14)

    def test_gradient_zero_on_manifold(self):
        ss = build_scalar_factorization([1.0, 2.0], 1.0)
        assert np.linalg.norm(ss.base.grad(np.array([1.0, 1.0]))) == 0.0

    def test_hand_evaluated_sum(self):
        # (1/2) * [ (1*2*1 - 1)^2 + (2*2*1 - 2)^2 ] = (1 + 4) / 2
        ss = build_scalar_factorization([1.0, 2.0], 1.0)
        assert ss.base.value(np.array([2.0, 1.0])) == pytest.approx(2.5, rel=1e-15)

    def test_zero_data_value_rejected(self):
        with pytest.raises(ValueError):
            build_scalar_factorization([1.0, 0.0], 1.0)

    def test_lipschitz_hint_closed_form(self):
        # 2 * mean(a^2) * (3 * w^2 + |c|) with w = 3.
        assert build_scalar_factorization([1.0, 2.0], 1.0).base.lipschitz_grad_hint == 140.0
        assert build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0).base.lipschitz_grad_hint == 80.36
        assert build_scalar_factorization([1.0], -2.0).base.lipschitz_grad_hint == 58.0

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        a=st.lists(st.floats(-3.0, 3.0).filter(lambda t: abs(t) >= 0.05), min_size=1, max_size=4),
        c=st.floats(-5.0, 5.0),
        points=st.lists(
            st.tuples(*[st.floats(-TEST_REGION_HALF_WIDTH, TEST_REGION_HALF_WIDTH)] * 2), min_size=1, max_size=20
        ),
    )
    def test_lipschitz_hint_is_box_spectral_sup(self, a, c, points):
        obj = build_scalar_factorization(a, c).base
        hint = obj.lipschitz_grad_hint
        for p in points:
            assert np.abs(np.linalg.eigvalsh(obj.hess(np.array(p)))).max() <= hint * (1 + 1e-14)
        w = TEST_REGION_HALF_WIDTH
        corner = np.array([w, -w if c >= 0 else w])
        assert np.abs(np.linalg.eigvalsh(obj.hess(corner))).max() == pytest.approx(hint, rel=1e-14)


#: Finite coordinates: huge (products up to 1e300, squares overflow),
#: tiny and subnormal, and moderate, of either sign.
_COORD = st.one_of(st.floats(-1e150, 1e150), st.floats(-1e-300, 1e-300), st.floats(-4.0, 4.0))


def _bits(v) -> bytes:
    return np.asarray(v, dtype=np.float64).tobytes()


def _assert_same_bits(ss, ref, i, x):
    assert _bits(ss.base.value(x)) == _bits(ref["value"](x))
    assert _bits(ss.base.grad(x)) == _bits(ref["grad"](x))
    assert _bits(ss.base.grad_many(x[None, :])) == _bits(ref["grad_many"](x[None, :]))
    assert _bits(ss.sample_value(i, x)) == _bits(ref["sample_value"](i, x))
    assert _bits(ss.sample_grad(i, x)) == _bits(ref["sample_grad"](i, x))
    assert _bits(ss.pred_grad(i, x)) == _bits(ref["pred_grad"](i, x))
    # Each float formula is its ndarray callable on the point's two floats.
    x0, x1 = x.tolist()
    pairs = [
        (ss.base.float_value(x0, x1), ss.base.value(x)),
        (ss.base.float_grad(x0, x1), ss.base.grad(x)),
        (ss.float_sample_grad(i, x0, x1), ss.sample_grad(i, x)),
        (ss.float_pred_grad(i, x0, x1), ss.pred_grad(i, x)),
    ]
    for got, want in pairs:
        assert all(type(v) is float for v in (got if isinstance(got, tuple) else (got,)))
        assert _bits(got) == _bits(want)


class TestFloatPathBitEquality:
    """The factorization's Python-float callables and float formulas round as its numpy-scalar expressions did."""

    def test_float_formulas_only_on_the_factorization_family(self):
        for spec in ALL_LANDSCAPE_SPECS:
            obj = build_landscape(spec)
            base = obj.base if isinstance(obj, SampleSumObjective) else obj
            fields = [base.float_value, base.float_grad]
            if isinstance(obj, SampleSumObjective):
                fields += [obj.float_sample_grad, obj.float_pred_grad]
            carried = spec.kind in ("hyperbola", "scalar_factorization")
            assert all((f is not None) == carried for f in fields), spec

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(
        a=st.lists(st.floats(-1e50, 1e50).filter(lambda t: abs(t) >= 1e-50), min_size=1, max_size=4),
        c=st.one_of(st.floats(-1e10, 1e10), st.just(1.0)),
        x=st.tuples(_COORD, _COORD),
        data=st.data(),
    )
    def test_callables_equal_numpy_scalar_expressions(self, a, c, x, data):
        ss = build_scalar_factorization(a, c)
        ref = numpy_scalar_factorization(a, c)
        x = np.array(x)
        i = data.draw(st.integers(0, len(a) - 1), label="i")
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_same_bits(ss, ref, i, x)

    def test_callables_equal_numpy_scalar_expressions_on_full_mantissas(self):
        # Hypothesis favours short mantissas, whose squares are exact; libm's
        # pow(r, 2) and r * r part only on about 1 in 1000 full-mantissa r.
        a = [1.0, 0.7, 1.3, 1.6]
        ss = build_scalar_factorization(a, 1.0)
        ref = numpy_scalar_factorization(a, 1.0)
        gen = np.random.Generator(np.random.PCG64(9))
        X = gen.uniform(-3.0, 3.0, size=(20_000, 2))
        for k, x in enumerate(X):
            _assert_same_bits(ss, ref, k % len(a), x)
        assert _bits(ss.base.grad_many(X)) == _bits(ref["grad_many"](X))

    def test_grad_many_equals_stacked_columns_on_special_rows(self):
        ss = build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0)
        ref = numpy_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0)
        special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e200, -1e-310, 1.5]
        X = np.array([[p, q] for p in special for q in special])
        with np.errstate(over="ignore", invalid="ignore"):
            for batch in (X, np.asfortranarray(X), X[::-3]):
                got = ss.base.grad_many(batch)
                assert got.flags.c_contiguous
                assert _bits(got) == _bits(ref["grad_many"](batch))

    @pytest.mark.parametrize("d", [1, 2, 3, 6, 12, 64, 128])
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_dot_equals_matmul_bit_for_bit(self, d, data):
        # The step and flow loops take norms as sqrt(np.dot(v, v)); the pinned bytes were made with v @ v.
        v = data.draw(hnp.arrays(np.float64, d, elements=_COORD), label="v")
        with np.errstate(over="ignore"):
            assert _bits(np.dot(v, v)) == _bits(v @ v)


_FACTORIZATION_N4 = build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0).base
_SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0])


class TestFlowStep:
    """``flow_step`` of ``iterates`` on floats and on ndarrays: equal bits, and None exactly when no coordinate moved."""

    @staticmethod
    def _check(x, g, h):
        float_step = iterates(_FACTORIZATION_N4)[5]
        array_step = iterates(without_float_formulas(_FACTORIZATION_N4))[5]
        with np.errstate(over="ignore", invalid="ignore"):
            moved = any(not xi - h * gi == xi for xi, gi in zip(x, g))
            got = float_step(tuple(x), tuple(g), h)
            got_array = array_step(np.array(x), np.array(g), h)
        assert (got is None) == (got_array is None) == (not moved)
        if moved:
            (y, gy, q), (y_array, gy_array, q_array) = got, got_array
            assert all(type(v) is float for v in (*y, *gy, q))
            assert _bits(y) == _bits(y_array) and _bits(gy) == _bits(gy_array)
            # The float form's square sum is the plain one; the ndarray form's is np.dot.
            assert _bits(q) == _bits(gy[0] * gy[0] + gy[1] * gy[1])
            with np.errstate(over="ignore", invalid="ignore"):
                assert _bits(q_array) == _bits(np.dot(gy_array, gy_array))
        return moved

    @pytest.mark.parametrize(
        "x,g,moved",
        [
            ((1.5, 0.7), (0.0, 0.0), False),
            ((1.5, 0.7), (-0.0, 0.0), False),
            # Below half an ulp of 1, and exactly half an ulp above it, which rounds to even.
            ((1.0, 1.0), (1e-17, -1e-17), False),
            ((1.0, 1.0), (0.0, -(2.0**-53)), False),
            ((1.0, 1.0), (1e-17, 1e-3), True),
            ((math.inf, 1.0), (1.0, 0.0), False),
            ((-math.inf, 1.0), (1.0, 1.0), True),
            ((1.0, 1.0), (math.inf, 0.0), True),
            ((1.0, 1.0), (0.0, -math.inf), True),
            # NaN never equals itself, so a NaN coordinate always counts as moved.
            ((1.0, 1.0), (math.nan, 0.0), True),
            ((math.nan, 1.0), (0.0, 0.0), True),
        ],
    )
    def test_edge_steps(self, x, g, moved):
        assert self._check(x, g, 1.0) == moved

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        x=st.tuples(st.one_of(_COORD, _SPECIAL), st.one_of(_COORD, _SPECIAL)),
        g=st.tuples(st.one_of(_COORD, _SPECIAL), st.one_of(_COORD, _SPECIAL)),
        h=st.floats(1e-300, 1.0),
    )
    def test_forms_agree(self, x, g, h):
        self._check(x, g, h)


class TestOrthogonalQuadraticModel:
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, 12),
        extra=st.integers(0, 4),
        y=st.lists(st.floats(1e-6, 1e6), min_size=12, max_size=12),
        data=st.data(),
    )
    def test_value_and_grad_equal_array_expressions(self, n, extra, y, data):
        # n up to 12 crosses the 8 terms at which numpy's sum turns pairwise.
        x = data.draw(hnp.arrays(np.float64, n + extra, elements=_COORD), label="x")
        obj = build_orthogonal_quadratic_model(n + extra, n, y[:n]).base
        ref = numpy_array_orthogonal_model(n, y[:n])
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits(obj.value(x)) == _bits(ref["value"](x))
            assert _bits(obj.grad(x)) == _bits(ref["grad"](x))

    def test_minimum_interpolates(self):
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 2, "n": 2, "y": [0.5, 0.5]})
        ss = build_landscape(spec)
        x_star = canonical_minimum(spec)
        assert np.array_equal(x_star, [1.0, 1.0])
        assert ss.base.value(x_star) == 0.0
        assert np.trace(ss.base.hess(x_star)) == pytest.approx(1.0)

    def test_prediction_gradients_orthogonal_at_minimum(self):
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        ss = build_landscape(spec)
        x_star = canonical_minimum(spec)
        p0 = ss.pred_grad(0, x_star)
        p1 = ss.pred_grad(1, x_star)
        assert float(p0 @ p1) == 0.0
        assert np.linalg.norm(p0) > 0

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError, match="d must be an integer"):
            build_orthogonal_quadratic_model(3.0, 2, [1.0, 1.0])
        with pytest.raises(ValueError, match="n must be an integer"):
            build_orthogonal_quadratic_model(3, True, [1.0])
        with pytest.raises(ValueError):
            build_orthogonal_quadratic_model(2, 3, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            build_orthogonal_quadratic_model(4, 2, [1.0, -1.0])
        with pytest.raises(ValueError):
            build_orthogonal_quadratic_model(4, 0, [])


@pytest.mark.parametrize("spec", ALL_LANDSCAPE_SPECS, ids=str)
class TestDerivativeConsistency:
    def test_gradient_matches_finite_differences(self, spec):
        obj = base_objective(spec)
        for x in random_points(obj.dim, 100, seed=7):
            g = obj.grad(x)
            g_fd = fd_gradient(obj.value, x, 1e-5)
            gn = np.linalg.norm(g)
            if gn <= 1e-3:
                assert np.max(np.abs(g_fd - g)) <= 1e-8
            else:
                assert np.linalg.norm(g_fd - g) / gn <= 1e-6

    def test_hessian_matches_finite_differences_of_gradient(self, spec):
        obj = base_objective(spec)
        for x in random_points(obj.dim, 100, seed=8):
            H = obj.hess(x)
            H_fd = fd_jacobian(obj.grad, x, 1e-5)
            assert np.max(np.abs(H - H.T)) == 0.0
            denom = max(np.linalg.norm(H), 1.0)
            assert np.linalg.norm(H_fd - H) / denom <= 1e-5

    def test_batched_evaluators_match_scalar(self, spec):
        obj = base_objective(spec)
        X = random_points(obj.dim, 40, seed=9)
        vals = obj.value_many(X)
        grads = obj.grad_many(X)
        for k, x in enumerate(X):
            assert vals[k] == pytest.approx(obj.value(x), rel=1e-14, abs=1e-14)
            assert np.allclose(grads[k], obj.grad(x), rtol=1e-14, atol=1e-14)

    def test_trace_grad_matches_finite_differences(self, spec):
        from flatmin import normalized_trace

        obj = base_objective(spec)
        for x in random_points(obj.dim, 10, seed=10):
            closed = obj.normalized_trace_grad(x)
            fd = fd_gradient(lambda p: normalized_trace(obj, p), x, 1e-4)
            assert np.max(np.abs(closed - fd)) <= 1e-6 * max(1.0, np.linalg.norm(closed))


SAMPLE_SUM_SPECS = [s for s in ALL_LANDSCAPE_SPECS if s.kind in ("scalar_factorization", "orthogonal_quadratic_model")]


@pytest.mark.parametrize("spec", SAMPLE_SUM_SPECS, ids=str)
class TestSampleSumConsistency:
    def test_mean_sample_gradient_equals_full_gradient(self, spec):
        ss = build_landscape(spec)
        for x in random_points(ss.dim, 25, seed=11):
            mean_g = np.mean([ss.sample_grad(i, x) for i in range(ss.n)], axis=0)
            full = ss.base.grad(x)
            assert np.linalg.norm(mean_g - full) <= 1e-10 * max(np.linalg.norm(full), 1.0)

    def test_mean_sample_value_equals_full_value(self, spec):
        ss = build_landscape(spec)
        for x in random_points(ss.dim, 10, seed=12):
            mean_v = np.mean([ss.sample_value(i, x) for i in range(ss.n)])
            assert mean_v == pytest.approx(ss.base.value(x), rel=1e-12, abs=1e-12)

    def test_hessian_decomposition_at_minimum(self, spec):
        # At an interpolating minimum the Hessian collapses to the
        # loss-curvature outer-product form (1/n) sum l'' grad_p grad_p^T.
        ss = build_landscape(spec)
        x_star = canonical_minimum(spec)
        ell_2 = 2.0 if spec.kind == "scalar_factorization" else 1.0
        outer = np.zeros((ss.dim, ss.dim))
        for i in range(ss.n):
            p = ss.pred_grad(i, x_star)
            outer += ell_2 * np.outer(p, p)
        outer /= ss.n
        H = ss.base.hess(x_star)
        assert np.linalg.norm(H - outer) <= 1e-8 * max(np.linalg.norm(H), 1.0)

    def test_sample_hessian_matches_fd(self, spec):
        ss = build_landscape(spec)
        x = random_points(ss.dim, 1, seed=13)[0]
        for i in range(ss.n):
            H = sample_hess(spec, i, x)
            H_fd = fd_jacobian(lambda p, i=i: ss.sample_grad(i, p), x, 1e-5)
            assert np.linalg.norm(H_fd - H) <= 1e-5 * max(np.linalg.norm(H), 1.0)

    def test_sample_gradient_is_multiple_of_prediction_gradient(self, spec):
        # grad f_i = l'(p_i) * grad p_i, so where neither vanishes the
        # normalized directions agree up to sign; SA's use of the prediction
        # gradient relies on this.
        ss = build_landscape(spec)
        for x in random_points(ss.dim, 25, seed=14):
            for i in range(ss.n):
                g = ss.sample_grad(i, x)
                p = ss.pred_grad(i, x)
                u = g / np.linalg.norm(g)
                w = p / np.linalg.norm(p)
                assert min(np.linalg.norm(u - w), np.linalg.norm(u + w)) <= 1e-12


class TestLandscapeSpec:
    def test_round_trip(self):
        spec = LandscapeSpec("scalar_factorization", {"a": [1.0, 2.0], "c": 1.0})
        again = LandscapeSpec.from_dict(spec.to_dict())
        assert again == spec

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown landscape kind"):
            LandscapeSpec.from_dict({"kind": "rosenbrock"})
        with pytest.raises(ValueError, match="kind"):
            LandscapeSpec.from_dict({})
        with pytest.raises(ValueError, match="unknown landscape kind"):
            LandscapeSpec.from_dict({"kind": ["hyperbola"]})

    def test_missing_parameter_rejected(self):
        with pytest.raises(ValueError, match="missing parameter"):
            build_landscape(LandscapeSpec("convex_quadratic", {}))

    @pytest.mark.parametrize(
        "kind,params",
        [
            ("hyperbola", {"c": 5}),
            ("convex_quadratic", {"eigenvalues": [1.0], "a": [1.0]}),
            ("orthogonal_quadratic_model", {"d": 2, "n": 1, "y": [0.5], "a": []}),
        ],
    )
    def test_unknown_parameter_rejected(self, kind, params):
        with pytest.raises(ValueError, match="unknown parameters"):
            build_landscape(LandscapeSpec(kind, params))

    @pytest.mark.parametrize(
        "kind,params,name",
        [
            ("convex_quadratic", {"eigenvalues": [math.nan, 1.0]}, "eigenvalues"),
            ("convex_quadratic", {"eigenvalues": [math.inf, 1.0]}, "eigenvalues"),
            ("scalar_factorization", {"a": [math.nan], "c": 1.0}, "a"),
            ("scalar_factorization", {"a": [1.0, -math.inf], "c": 1.0}, "a"),
            ("scalar_factorization", {"a": [1.0], "c": math.nan}, "c"),
            ("scalar_factorization", {"a": [1.0], "c": math.inf}, "c"),
            ("orthogonal_quadratic_model", {"d": 2, "n": 1, "y": [math.nan]}, "y"),
            ("orthogonal_quadratic_model", {"d": 2, "n": 1, "y": [math.inf]}, "y"),
            ("scalar_factorization", {"a": [1e200], "c": 1.0}, "a and c"),
            ("scalar_factorization", {"a": [1e154, 1e154], "c": 1.0}, "a and c"),
            ("scalar_factorization", {"a": [1.0], "c": 1e308}, "a and c"),
        ],
    )
    def test_non_finite_parameter_rejected(self, kind, params, name):
        with pytest.raises(ValueError, match=f"^{name} must"):
            build_landscape(LandscapeSpec(kind, params))

    def test_mistyped_parameter_rejected(self):
        with pytest.raises(ValueError, match="wrong type"):
            build_landscape(LandscapeSpec("scalar_factorization", {"a": [1.0], "c": [1.0]}))

    @pytest.mark.parametrize("spec", ALL_LANDSCAPE_SPECS, ids=str)
    def test_canonical_minimum_is_global_minimum(self, spec):
        obj = base_objective(spec)
        x_star = canonical_minimum(spec)
        assert np.linalg.norm(obj.grad(x_star)) <= 1e-12
        for x in random_points(obj.dim, 20, seed=14):
            assert obj.value(x_star) <= obj.value(x) + 1e-12

    def test_build_returns_sample_sum_where_expected(self):
        assert isinstance(build_landscape(LandscapeSpec("hyperbola")), object)
        ss = build_landscape(LandscapeSpec("scalar_factorization", {"a": [1.0], "c": 1.0}))
        assert isinstance(ss, SampleSumObjective)
