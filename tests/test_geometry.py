import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatmin import (
    RngStream,
    build_convex_quadratic,
    build_hyperbola,
    fd_gradient,
    normalized_trace,
    proj_out,
    sample_sphere,
    sample_sphere_batch,
)
from flatmin.geometry import SPHERE_BLOCK, U_TOL, NonFiniteValueError, sphere_directions

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
        directions = sphere_directions(d, RngStream(11))
        streamed = [next(directions) for _ in range(n)]
        assert np.array(streamed).tobytes() == np.array(sequential).tobytes()

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
        directions = sphere_directions(d, _ScriptedStream(values))
        streamed = [next(directions) for _ in range(SPHERE_BLOCK)]
        assert np.array(streamed).tobytes() == np.array(sequential).tobytes()


class TestRngStream:
    def test_reproducible_for_same_seed_and_stream(self):
        a = RngStream(42).normal(10)
        b = RngStream(42).normal(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(42, stream=0).normal(10)
        b = RngStream(42, stream=1).normal(10)
        assert not np.array_equal(a, b)
        assert RngStream(42).child(1).normal(10).tolist() == b.tolist()

    def test_sign_values(self):
        rng = RngStream(3)
        signs = {rng.sign() for _ in range(20)}
        assert signs == {1.0, -1.0}


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

    def test_non_finite_value_carries_probe_point(self):
        def fn(x):
            return float("nan") if x[0] > 1.0 else float(x @ x)

        with pytest.raises(NonFiniteValueError) as err:
            fd_gradient(fn, np.array([1.0, 0.0]), 1e-3)
        assert err.value.point[0] == pytest.approx(1.001)


class TestNormalizedTrace:
    def test_hyperbola_closed_form(self):
        obj = build_hyperbola()
        assert normalized_trace(obj, np.array([1.0, 1.0])) == pytest.approx(2.0)
        assert normalized_trace(obj, np.array([2.0, 0.5])) == pytest.approx(4.25)

    def test_identity_quadratic_is_one_everywhere(self):
        obj = build_convex_quadratic(np.ones(7))
        for x in random_points(7, 5, seed=0):
            assert normalized_trace(obj, x) == pytest.approx(1.0)
