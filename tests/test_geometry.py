import itertools
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatmin import (
    DEFAULT_FLOW,
    ORACLE_FLOW,
    RngStream,
    build_convex_quadratic,
    build_hyperbola,
    fd_gradient,
    normalized_trace,
    proj_out,
    sample_sphere,
    sample_sphere_batch,
)
from flatmin import geometry
from flatmin.geometry import SPHERE_BLOCK, U_TOL, sphere_blocks

from conftest import random_points


@st.composite
def vector_pairs(draw):
    """Two vectors of one dimension (1 to 8), entries in [-1e3, 1e3]."""
    d = draw(st.integers(1, 8))
    entries = st.lists(st.floats(-1e3, 1e3, allow_subnormal=False), min_size=d, max_size=d)
    return np.array(draw(entries)), np.array(draw(entries))


class TestProjOut:
    def test_removes_component_along_axis(self):
        out = proj_out(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert np.allclose(out, [0.0, 1.0], atol=1e-15)

    def test_projecting_out_itself_gives_zero(self):
        u = np.array([2.0, -3.0])
        assert np.linalg.norm(proj_out(u, u)) <= 1e-14

    def test_hand_computed_value(self):
        # v - <u/|u|, v> u/|u| with u=(3,4), v=(5,0): v - 3*(0.6, 0.8)
        out = proj_out(np.array([3.0, 4.0]), np.array([5.0, 0.0]))
        assert np.allclose(out, [3.2, -2.4], atol=1e-14)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            proj_out(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_degenerate_direction_returns_v_unchanged(self):
        v = np.array([1.5, -2.5])
        out = proj_out(np.array([0.0, 0.0]), v)
        assert np.array_equal(out, v)
        out = proj_out(np.array([1e-13, 0.0]), v)
        assert np.array_equal(out, v)

    def test_idempotent_and_contractive_and_orthogonal(self):
        gen = np.random.Generator(np.random.PCG64(0))
        for _ in range(200):
            d = int(gen.integers(1, 7))
            u = gen.normal(size=d)
            v = gen.normal(size=d)
            p = proj_out(u, v)
            assert np.linalg.norm(proj_out(u, p) - p) <= 1e-12
            assert np.linalg.norm(p) <= np.linalg.norm(v) * (1 + 1e-15)
            assert abs(np.dot(p, u)) <= 1e-12 * np.linalg.norm(u) * max(np.linalg.norm(v), 1e-30)

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(vector_pairs())
    def test_orthogonal_and_idempotent_property(self, uv):
        u, v = uv
        p = proj_out(u, v)
        if np.linalg.norm(u) <= U_TOL:
            assert np.array_equal(p, v)
            return
        tol = 8 * u.size * np.finfo(float).eps * max(np.linalg.norm(v), np.finfo(float).tiny)
        assert abs(np.dot(p, u / np.linalg.norm(u))) <= tol
        assert np.linalg.norm(proj_out(u, p) - p) <= tol


class TestSphereSampling:
    def test_one_dimensional_sphere_is_signs(self):
        rng = RngStream(0)
        draws = {float(sample_sphere(1, rng)[0]) for _ in range(50)}
        assert draws <= {1.0, -1.0}
        assert len(draws) == 2

    def test_unit_norm(self):
        rng = RngStream(1)
        for d in (1, 2, 3, 8, 33):
            for _ in range(100):
                g = sample_sphere(d, rng)
                assert abs(np.linalg.norm(g) - 1.0) <= 1e-12

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            sample_sphere(0, RngStream(0))
        with pytest.raises(ValueError):
            sample_sphere_batch(0, 5, RngStream(0))

    def test_batch_norms_and_moments(self):
        G = sample_sphere_batch(3, 20000, RngStream(2))
        assert np.max(np.abs(np.linalg.norm(G, axis=1) - 1.0)) <= 1e-12
        # CLT: per-coordinate mean std = 1/sqrt(d*N)
        assert np.max(np.abs(G.mean(axis=0))) <= 5.0 / np.sqrt(3 * 20000)


class _ScriptedStream:
    """Serves normal draws from a fixed sequence in request order, like ``RngStream.normal``."""

    def __init__(self, values: np.ndarray):
        self.values = values
        self.pos = 0

    def normal(self, size) -> np.ndarray:
        n = int(np.prod(size))
        out = self.values[self.pos : self.pos + n].reshape(size)
        self.pos += n
        return out.copy()


class TestBlockSphereDraws:
    """Block-drawn unit vectors equal successive ``sample_sphere`` draws bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 5, 64])
    def test_rows_equal_sequential_draws(self, d):
        n = SPHERE_BLOCK + 37  # crosses a block boundary
        rng = RngStream(11)
        sequential = [sample_sphere(d, rng) for _ in range(n)]
        batch_rng = RngStream(11)
        batch = sample_sphere_batch(d, n, batch_rng)
        assert batch.tobytes() == np.array(sequential).tobytes()
        assert batch_rng.normal(3).tobytes() == rng.normal(3).tobytes()
        directions = itertools.chain.from_iterable(sphere_blocks(d, 1.0, RngStream(11)))
        streamed = [next(directions) for _ in range(n)]
        assert np.array(streamed).tobytes() == np.array(sequential).tobytes()
        scaled = itertools.chain.from_iterable(sphere_blocks(d, 0.37, RngStream(11)))
        assert np.array([next(scaled) for _ in range(n)]).tobytes() == b"".join(
            (0.37 * u).tobytes() for u in sequential
        )

    @pytest.mark.parametrize("d", [2, 64])
    def test_zero_row_is_skipped_like_a_redraw(self, d):
        values = np.random.Generator(np.random.PCG64(12)).standard_normal(3 * SPHERE_BLOCK * d)
        values[5 * d : 6 * d] = 0.0
        sequential_stream = _ScriptedStream(values)
        sequential = [sample_sphere(d, sequential_stream) for _ in range(SPHERE_BLOCK)]
        batch_stream = _ScriptedStream(values)
        batch = sample_sphere_batch(d, SPHERE_BLOCK, batch_stream)
        assert batch.tobytes() == np.array(sequential).tobytes()
        assert batch_stream.pos == sequential_stream.pos == (SPHERE_BLOCK + 1) * d
        directions = itertools.chain.from_iterable(sphere_blocks(d, 1.0, _ScriptedStream(values)))
        streamed = [next(directions) for _ in range(SPHERE_BLOCK)]
        assert np.array(streamed).tobytes() == np.array(sequential).tobytes()


def _nan(bits: int) -> float:
    """The NaN with the IEEE bit pattern ``bits``."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _np_dot2(a0, a1, b0, b1) -> float:
    return float(np.dot(np.array([a0, a1]), np.array([b0, b1])))


def _bits64(v: float) -> bytes:
    return np.float64(v).tobytes()


#: Inputs outside the range where the split product is exact: zeros,
#: subnormals, magnitudes beyond 2**±450, infinities and NaN.
_DOT_EDGES = [0.0, -0.0, 5e-324, -2.5e-310, 2.0**-600, -(2.0**-460), 2.0**600, -(2.0**460), math.inf, -math.inf, math.nan]


class TestFloatDot:
    """``geometry._dot2`` is ``np.dot`` of two 2-vectors, bit for bit, on any input."""

    def test_form_follows_the_import_probe(self):
        assert geometry._dot2 is (geometry._dot2_fused if geometry.DOT_FUSED else geometry._dot2_numpy)
        e = 2.0**-30
        assert geometry.DOT_FUSED == (_np_dot2(1.0, 1.0 + e, -1.0, 1.0 - e) != 0.0)

    @settings(max_examples=2000, deadline=None, database=None, derandomize=True)
    @given(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 4))
    # a0*b0 overflows, or lies at the top of the range, with a1 and b1 in the split's range.
    @example((1e200, 1.5, 1e200, -0.7))
    @example((-1e300, 2.0**449, 1e10, 2.0**449))
    @example((1.7976931348623157e308, 2.0**449, 1.0, 2.0**449))
    # a0 or b0 infinite or NaN, or an infinite times a zero, with a1 and b1 in range.
    @example((math.inf, 1.5, 2.0, -0.7))
    @example((0.3, 1.5, -math.inf, -0.7))
    @example((math.inf, 1.5, 0.0, -0.7))
    @example((math.nan, 1.5, 2.0, -0.7))
    @example((2.0, 1.5, -math.nan, -0.7))
    # Two NaNs of different payloads: which one np.dot returns is the kernel's choice.
    @example((_nan(0x7FF8000000000123), 1.5, _nan(0xFFF8000000000456), -0.7))
    @example((_nan(0xFFF8000000000456), 1.5, _nan(0x7FF0000000000001), -0.7))
    def test_equals_numpy_dot(self, q):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits64(geometry._dot2(*q)) == _bits64(_np_dot2(*q))

    def test_equals_numpy_dot_on_full_mantissas(self):
        # Hypothesis favours short mantissas, whose products are exact.
        gen = np.random.Generator(np.random.PCG64(31))
        n = 300_000
        Q = gen.uniform(1.0, 2.0, (n, 4)) * np.exp(gen.uniform(-20.0, 20.0, (n, 4))) * gen.choice([-1.0, 1.0], (n, 4))
        dot2 = geometry._dot2
        got = np.array([dot2(a0, a1, b0, b1) for a0, a1, b0, b1 in Q.tolist()])
        want = np.array([np.dot(q[:2], q[2:]) for q in Q])
        assert got.tobytes() == want.tobytes()

    def test_edge_inputs_take_the_numpy_branch(self):
        values = _DOT_EDGES + [1.5, -0.7]
        with np.errstate(over="ignore", invalid="ignore"):
            for q in itertools.product(values, repeat=4):
                assert _bits64(geometry._dot2(*q)) == _bits64(_np_dot2(*q)), q

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(st.tuples(*[st.floats(2.0**-449, 2.0**449) | st.floats(-(2.0**449), -(2.0**-449))] * 4))
    def test_fused_form_rounds_once(self, q):
        # fma(a1, b1, a0*b0) computed exactly and rounded once, on any build.
        a0, a1, b0, b1 = q
        exact = Fraction(a0 * b0) + Fraction(a1) * Fraction(b1)
        assert _bits64(geometry._dot2_fused(*q)) == _bits64(float(exact))


class TestFloatSelfDot:
    """``geometry._sq2`` is ``np.dot`` of a 2-vector with itself, bit for bit, on any input."""

    def test_form_follows_the_import_probe(self):
        assert geometry._sq2 is (geometry._sq2_fused if geometry.DOT_FUSED else geometry._sq2_numpy)

    @settings(max_examples=2000, deadline=None, database=None, derandomize=True)
    @given(st.tuples(*[st.floats(allow_nan=True, allow_infinity=True)] * 2))
    @example((_nan(0x7FF8000000000123), 1.5))
    @example((_nan(0x7FF0000000000001), 1.5))
    @example((1e200, 1.5))
    @example((1.7976931348623157e308, 2.0**449))
    def test_equals_numpy_dot(self, q):
        with np.errstate(over="ignore", invalid="ignore"):
            assert _bits64(geometry._sq2(*q)) == _bits64(_np_dot2(*q, *q))

    def test_equals_numpy_dot_on_full_mantissas(self):
        gen = np.random.Generator(np.random.PCG64(37))
        n = 300_000
        Q = gen.uniform(1.0, 2.0, (n, 2)) * np.exp(gen.uniform(-20.0, 20.0, (n, 2))) * gen.choice([-1.0, 1.0], (n, 2))
        sq2 = geometry._sq2
        got = np.array([sq2(a0, a1) for a0, a1 in Q.tolist()])
        want = np.array([np.dot(q, q) for q in Q])
        assert got.tobytes() == want.tobytes()

    def test_edge_inputs(self):
        values = _DOT_EDGES + [1.5, -0.7, 2.0**-449, 2.0**449]
        with np.errstate(over="ignore", invalid="ignore"):
            for q in itertools.product(values, repeat=2):
                assert _bits64(geometry._sq2(*q)) == _bits64(_np_dot2(*q, *q)), q

    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(st.tuples(*[st.floats(2.0**-449, 2.0**449) | st.floats(-(2.0**449), -(2.0**-449))] * 2))
    def test_fused_form_rounds_once(self, q):
        # fma(a1, a1, a0*a0) computed exactly and rounded once, on any build.
        a0, a1 = q
        exact = Fraction(a0 * a0) + Fraction(a1) ** 2
        assert _bits64(geometry._sq2_fused(*q)) == _bits64(float(exact))


def _dot2_two_roundings(a0, a1, b0, b1) -> float:
    """``np.dot`` of two 2-vectors on a build that does not fuse it: each product rounded, then the sum."""
    return a0 * b0 + a1 * b1


#: Tolerances inside [2**-500, 2**500], where the band decides, and outside, where it must not.
_BAND_TOLS = [DEFAULT_FLOW, ORACLE_FLOW, 1.0, 2.0**-500, 2.0**500, 1e-200, 2.0**-501, 1e200, 2.0**501, 0.0]

#: Zero, subnormal, huge and non-finite gradient components.
_BAND_EDGES = [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, 1e200, -1e300, math.inf, -math.inf, math.nan]


@st.composite
def _band_cases(draw):
    """A tolerance and a gradient near its circle, ``tol*(cos t, sin t)*(1 + k*2**-52)``, or with edge components."""
    tol = draw(st.sampled_from(_BAND_TOLS))
    t = draw(st.floats(0.0, 2.0 * math.pi))
    s = 1.0 + draw(st.integers(-4, 4)) * 2.0**-52
    g = [tol * math.cos(t) * s, tol * math.sin(t) * s]
    for j in draw(st.sampled_from([(), (0,), (1,), (0, 1)])):
        g[j] = draw(st.sampled_from(_BAND_EDGES))
    return tol, g[0], g[1]


class TestSquareBand:
    """``geometry._square_band`` decides ``sqrt(dot2(g, g)) <= tol`` from the plain square sum only where that is certain.

    ``_dot2_numpy`` is this build's ``np.dot``; ``_dot2_fused`` and the
    two-rounding sum stand for a fused and a non-fused build on any machine.
    """

    @pytest.mark.parametrize(
        "dot2", [geometry._dot2_fused, geometry._dot2_numpy, _dot2_two_roundings], ids=["fused", "numpy", "two-roundings"]
    )
    @settings(max_examples=1000, deadline=None, database=None, derandomize=True)
    @given(_band_cases())
    # A finite plain sum whose fused dot overflows: why the band stops at _SQUARE_TOP.
    @example((1.0, 3.8689536468547147e146, 1.3407807929942591e154))
    def test_decided_outcomes_equal_the_exact_test(self, dot2, case):
        tol, g0, g1 = case
        lo, hi = geometry._square_band(tol)
        q = g0 * g0 + g1 * g1
        with np.errstate(over="ignore", invalid="ignore"):
            exact = math.sqrt(dot2(g0, g1, g0, g1))
        if q < lo:
            assert exact <= tol, (tol, g0, g1)
        elif hi < q < geometry._SQUARE_TOP:
            assert tol < exact < math.inf, (tol, g0, g1)

    @pytest.mark.parametrize("tol", _BAND_TOLS)
    def test_band_is_everything_outside_the_tolerance_range(self, tol):
        lo, hi = geometry._square_band(tol)
        inside = 2.0**-500 <= tol <= 2.0**500
        assert (lo < 0.0 and hi == math.inf) != inside
        if inside:
            assert lo < tol * tol < hi


class TestRngStream:
    def test_reproducible_for_same_seed_and_stream(self):
        a = RngStream(42).normal(10)
        b = RngStream(42).normal(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, stream=0).normal(10)
        b = RngStream(42, stream=1).normal(10)
        assert not np.array_equal(a, b)


class TestFdGradient:
    def test_quadratic_is_exact(self):
        fn = lambda x: 0.5 * float(x @ x)
        g = fd_gradient(fn, np.array([3.0, -2.0]), 1e-5)
        assert np.max(np.abs(g - [3.0, -2.0])) <= 1e-9

    def test_stationary_point(self):
        obj = build_hyperbola()
        g = fd_gradient(obj.value, np.array([1.0, 1.0]), 1e-5)
        assert np.max(np.abs(g)) <= 1e-9

    def test_trace_composition(self):
        obj = build_hyperbola()
        g = fd_gradient(lambda p: normalized_trace(obj, p), np.array([2.0, 0.5]), 1e-4)
        assert np.max(np.abs(g - [4.0, 1.0])) <= 1e-6

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            fd_gradient(lambda x: 0.0, np.zeros(2), 0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, -1e-4])
    def test_step_must_be_positive_and_finite(self, h):
        # NaN and inf once gave a gradient of NaNs without an error.
        calls = []
        with pytest.raises(ValueError, match="step must be positive and finite"):
            fd_gradient(lambda x: calls.append(x) or 0.0, np.zeros(2), h)
        assert calls == []


class TestNormalizedTrace:
    def test_hyperbola_closed_form(self):
        obj = build_hyperbola()
        assert normalized_trace(obj, np.array([1.0, 1.0])) == pytest.approx(2.0)
        assert normalized_trace(obj, np.array([2.0, 0.5])) == pytest.approx(4.25)

    def test_identity_quadratic_is_one_everywhere(self):
        obj = build_convex_quadratic(np.ones(7))
        for x in random_points(7, 5, seed=0):
            assert normalized_trace(obj, x) == pytest.approx(1.0)
