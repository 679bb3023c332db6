import dataclasses
import json
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatmin import (
    OracleReport,
    RngStream,
    Schedule,
    build_convex_quadratic,
    build_hyperbola,
    build_landscape,
    canonical_minimum,
    check_descent_lemma,
    check_rs_decay,
    check_rs_estimator,
    check_sa_dfactor,
    check_sphere_moments,
    estimate_pl_constants,
    rs_schedule,
    run,
)
from flatmin import oracle
from flatmin.objectives import LandscapeSpec
from flatmin.oracle import SampleRegion

from conftest import hyperbola_tube_region
from references import one_draw_per_candidate, unblocked_check_sa_dfactor, unblocked_estimator_means


class TestSphereMoments:
    def test_canonical_dimension_five(self):
        rep = check_sphere_moments(5, 10**6, RngStream(0))
        assert rep.passed
        mean_inf, fro = rep.measured
        assert mean_inf <= 2e-3
        assert fro <= 5e-3

    def test_one_dimensional_second_moment_exact(self):
        rep = check_sphere_moments(1, 10**4, RngStream(1))
        assert rep.measured[1] == 0.0
        assert rep.passed

    def test_two_dimensional_frobenius(self):
        rep = check_sphere_moments(2, 10**5, RngStream(2))
        assert rep.measured[1] <= 1.5e-2
        assert rep.passed

    def test_small_sample_count_rejected(self):
        with pytest.raises(ValueError):
            check_sphere_moments(3, 100, RngStream(0))

    def test_pass_iff_error_within_tolerance(self):
        rep = check_sphere_moments(4, 10**5, RngStream(3))
        assert rep.passed == (rep.rel_error <= rep.tolerance)


class TestRsEstimator:
    def test_hyperbola_manifold_point(self):
        obj = build_hyperbola()
        rep = check_rs_estimator(obj, np.array([1.2, 1 / 1.2]), 0.01, 10**6, RngStream(0))
        assert rep.passed
        ref = np.array([1.2e-4, 0.5 * 1e-4 * (2 / 1.2)])
        assert np.allclose(rep.reference, ref, rtol=1e-12)
        # Antithetic pairing nails the identity far inside the 10% budget.
        assert rep.rel_error <= 0.02

    def test_quadratic_mean_cancels_exactly(self):
        obj = build_convex_quadratic([1.0, 3.0])
        rep = check_rs_estimator(obj, np.array([0.7, -0.4]), 0.05, 10**4, RngStream(1))
        assert rep.passed
        assert np.linalg.norm(rep.measured) <= 1e-12

    def test_flat_point_reference(self):
        obj = build_hyperbola()
        rep = check_rs_estimator(obj, np.array([1.0, 1.0]), 0.02, 10**5, RngStream(2))
        assert np.allclose(rep.reference, [4e-4, 4e-4], rtol=1e-12)
        assert rep.passed

    def test_off_manifold_projects_out_gradient(self):
        obj = build_hyperbola()
        x = np.array([1.3, 0.9])
        rep = check_rs_estimator(obj, x, 0.01, 10**5, RngStream(3))
        g = obj.grad(x)
        measured = np.array(rep.measured)
        assert abs(float(measured @ g)) <= 1e-10 * np.linalg.norm(g)

    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            check_rs_estimator(build_hyperbola(), np.ones(2), 0.01, 1, RngStream(0))


class TestRsDecay:
    def test_halving_rho_shrinks_deviation_four_fold(self):
        obj = build_hyperbola()
        rep = check_rs_decay(obj, np.array([1.2, 1 / 1.2]), 0.02, 0.01, 10**6, seed=0)
        assert rep.passed
        assert 3.5 <= rep.measured <= 4.5

    def test_radius_ordering_enforced(self):
        with pytest.raises(ValueError):
            check_rs_decay(build_hyperbola(), np.ones(2), 0.01, 0.02, 10**4, seed=0)


class TestSaDfactor:
    def test_dimension_four(self):
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        obj = build_landscape(spec)
        rep = check_sa_dfactor(obj, canonical_minimum(spec), 0.01, 10**6, RngStream(0))
        assert rep.passed
        assert 3.6 <= rep.measured <= 4.4
        assert rep.extras["reference_rs"] == pytest.approx(0.25)

    def test_degenerate_dimension_one(self):
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 1, "n": 1, "y": [0.5]})
        obj = build_landscape(spec)
        rep = check_sa_dfactor(obj, canonical_minimum(spec), 0.01, 10**4, RngStream(1))
        assert rep.measured == pytest.approx(1.0, rel=1e-3)

    def test_dimension_sixteen_uneven_labels(self):
        spec = LandscapeSpec(
            "orthogonal_quadratic_model", {"d": 16, "n": 4, "y": [0.5, 1.0, 1.5, 2.0]}
        )
        obj = build_landscape(spec)
        rep = check_sa_dfactor(obj, canonical_minimum(spec), 0.01, 10**6, RngStream(2))
        assert rep.passed
        assert 14.4 <= rep.measured <= 17.6

    def test_zero_samples_rejected(self):
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        with pytest.raises(ValueError, match="need at least 1 sample, got 0"):
            check_sa_dfactor(build_landscape(spec), canonical_minimum(spec), 0.01, 0, RngStream(0))

    @pytest.mark.parametrize("d, n", [(16, 4), (64, 16)])
    def test_peak_memory_does_not_scale_with_chunk(self, d, n):
        # One (CHUNK, 64) float64 array takes 32 MB; the unblocked loop held up to four at once.
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": d, "n": n, "y": [0.5] * n})
        obj, x_min = build_landscape(spec), canonical_minimum(spec)
        tracemalloc.start()
        try:
            check_sa_dfactor(obj, x_min, 0.01, 2 * oracle.CHUNK, RngStream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_vanishing_prediction_gradient_rejected(self):
        from flatmin import SampleSumObjective

        bare = SampleSumObjective(
            base=build_convex_quadratic([1.0]),
            n=1,
            sample_value=lambda i, x: 0.0,
            sample_grad=lambda i, x: np.zeros(1),
            pred_grad=lambda i, x: np.zeros(1),
        )
        with pytest.raises(ValueError, match="prediction gradient of sample 0 vanishes"):
            check_sa_dfactor(bare, np.zeros(1), 0.01, 10**4, RngStream(0))


class _ZeroRowStream:
    """An ``RngStream`` whose Gaussian rows at the given overall row indices come out zero."""

    def __init__(self, seed, zero_rows):
        self.inner = RngStream(seed)
        self.zero_rows = set(zero_rows)
        self.drawn = 0

    @property
    def generator(self):
        return self.inner.generator

    def normal(self, size):
        G = self.inner.normal(size)
        for k in self.zero_rows & set(range(self.drawn, self.drawn + len(G))):
            G[k - self.drawn] = 0.0
        self.drawn += len(G)
        return G


def _dfactor_blob(check, d, n, n_samples, rng):
    spec = LandscapeSpec("orthogonal_quadratic_model", {"d": d, "n": n, "y": list(np.linspace(0.5, 2.0, n))})
    return json.dumps(check(build_landscape(spec), canonical_minimum(spec), 0.01, n_samples, rng).to_dict())


class TestSaDfactorBlocks:
    """Evaluating a chunk in row blocks gives the report of the unblocked loop, bit for bit."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        chunk=st.integers(3, 50),
        d=st.sampled_from([1, 2, 16]),
        n_samples=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_blocks_match_unblocked_loop(self, chunk, d, n_samples, seed, data):
        # BLOCK counts values: blocks of 1 to chunk + 3 rows, and 1 row below d values.
        block = data.draw(st.integers(1, (chunk + 3) * d), label="block")
        n = data.draw(st.integers(1, min(d, 4)), label="n")
        with mock.patch.object(oracle, "CHUNK", chunk), mock.patch.object(oracle, "BLOCK", block):
            blocked = _dfactor_blob(check_sa_dfactor, d, n, n_samples, RngStream(seed))
        reference = _dfactor_blob(lambda *a: unblocked_check_sa_dfactor(*a, chunk=chunk), d, n, n_samples, RngStream(seed))
        assert blocked == reference

    def test_zero_row_inside_a_block_is_redrawn_in_place(self):
        # Chunks of 10 rows in blocks of 4 (8 values at d = 2): row 5 sits inside
        # the second block of the first chunk, row 17 inside the second chunk.
        zero_rows = [5, 17]
        with mock.patch.object(oracle, "CHUNK", 10), mock.patch.object(oracle, "BLOCK", 8):
            stub = _ZeroRowStream(3, zero_rows)
            blocked = _dfactor_blob(check_sa_dfactor, 2, 2, 25, stub)
        assert stub.drawn == 25 + len(zero_rows)
        ref_stub = _ZeroRowStream(3, zero_rows)
        reference = _dfactor_blob(lambda *a: unblocked_check_sa_dfactor(*a, chunk=10), 2, 2, 25, ref_stub)
        assert ref_stub.drawn == 25 + len(zero_rows)
        assert blocked == reference
        assert blocked != _dfactor_blob(lambda *a: unblocked_check_sa_dfactor(*a, chunk=10), 2, 2, 25, RngStream(3))


#: Per dimension, landscapes for the estimator's byte checks, each with a
#: point where its gradient vanishes (no projection); drawn points off it
#: take the projection.
_ESTIMATOR_LANDSCAPES = {
    1: [
        (LandscapeSpec("convex_quadratic", {"eigenvalues": [1.5]}), [0.0]),
        (LandscapeSpec("orthogonal_quadratic_model", {"d": 1, "n": 1, "y": [0.5]}), [1.0]),
    ],
    2: [
        (LandscapeSpec("hyperbola"), [1.2, 1 / 1.2]),
        (LandscapeSpec("scalar_factorization", {"a": [1.0, 0.7, 1.3], "c": 1.0}), [2.0, 0.5]),
    ],
    5: [
        (LandscapeSpec("convex_quadratic", {"eigenvalues": [2.0, 4.0, 0.5, 1.0, 3.0]}), [0.0] * 5),
        (
            LandscapeSpec("orthogonal_quadratic_model", {"d": 5, "n": 3, "y": [0.5, 1.0, 2.0]}),
            [1.0, -(2**0.5), 2.0, 0.3, 0.0],
        ),
    ],
    16: [(LandscapeSpec("orthogonal_quadratic_model", {"d": 16, "n": 4, "y": [0.5] * 4}), [1.0] * 4 + [0.0] * 12)],
}


def _estimator_bytes(means):
    return [(measured.tobytes(), reference.tobytes()) for measured, reference in means]


class TestEstimatorBlocks:
    """The estimator's block-carried chunk sums give the means of the unblocked loop, bit for bit."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        chunk=st.integers(3, 50),
        d=st.sampled_from(sorted(_ESTIMATOR_LANDSCAPES)),
        n_samples=st.integers(2, 300),
        rhos=st.sampled_from([[0.3], [0.02, 0.01]]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_blocks_match_unblocked_loop(self, chunk, d, n_samples, rhos, seed, data):
        spec, x_flat = data.draw(st.sampled_from(_ESTIMATOR_LANDSCAPES[d]), label="landscape")
        off = data.draw(st.booleans(), label="off")
        coord = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        x = np.array(data.draw(st.lists(coord, min_size=d, max_size=d), label="x") if off else x_flat)
        block = data.draw(st.integers(1, (chunk + 3) * d), label="block")
        obj = build_landscape(spec)
        with mock.patch.object(oracle, "CHUNK", chunk), mock.patch.object(oracle, "BLOCK", block):
            blocked = oracle._estimator_means(obj, x, rhos, n_samples, RngStream(seed))
        reference = unblocked_estimator_means(obj, x, rhos, n_samples, RngStream(seed), chunk=chunk)
        assert _estimator_bytes(blocked) == _estimator_bytes(reference)

    @pytest.mark.parametrize("x", [[1.2, 1 / 1.2], [1.3, 0.9]])
    def test_zero_row_is_redrawn_in_place(self, x):
        # Chunks of 10 pairs in blocks of 4 (8 values at d = 2), on and off the minima
        # set: row 5 sits inside the second block of the first chunk, row 17 inside the
        # second chunk.
        zero_rows = [5, 17]
        obj, x = build_hyperbola(), np.array(x)
        with mock.patch.object(oracle, "CHUNK", 10), mock.patch.object(oracle, "BLOCK", 8):
            stub = _ZeroRowStream(3, zero_rows)
            blocked = oracle._estimator_means(obj, x, [0.02, 0.01], 50, stub)
        assert stub.drawn == 25 + len(zero_rows)
        ref_stub = _ZeroRowStream(3, zero_rows)
        reference = unblocked_estimator_means(obj, x, [0.02, 0.01], 50, ref_stub, chunk=10)
        assert ref_stub.drawn == 25 + len(zero_rows)
        assert _estimator_bytes(blocked) == _estimator_bytes(reference)
        unstubbed = unblocked_estimator_means(obj, x, [0.02, 0.01], 50, RngStream(3), chunk=10)
        assert _estimator_bytes(blocked) != _estimator_bytes(unstubbed)

    @pytest.mark.parametrize("offset", [0.0, 0.05], ids=["on-the-set", "off-the-set"])
    def test_peak_memory_does_not_scale_with_chunk(self, offset):
        # One (CHUNK, 16) float64 array takes 8.4 MB; whole-chunk passes peaked at 38.6 MB
        # on the minima set and 42.5 MB off it (projected), blocks at under 3 MB.
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 16, "n": 4, "y": [0.5] * 4})
        obj, x = build_landscape(spec), canonical_minimum(spec) + offset
        tracemalloc.start()
        try:
            check_rs_estimator(obj, x, 0.01, 8 * oracle.CHUNK, RngStream(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class _FailingStream:
    """An ``RngStream`` whose ``k``-th ``normal`` call raises."""

    def __init__(self, seed, k):
        self.inner = RngStream(seed)
        self.k = k
        self.calls = 0

    @property
    def generator(self):
        return self.inner.generator

    def normal(self, size):
        self.calls += 1
        if self.calls == self.k:
            raise RuntimeError(f"draw {self.k} failed")
        return self.inner.normal(size)


def _helper_threads():
    return [t for t in threading.enumerate() if t.name.startswith("flatmin-read-ahead")]


def _read_ahead_cases():
    """Per check that draws on the read-ahead helper, ``(check, reference)``.

    ``check(rng, wrap)`` runs it with its evaluation callable (``grad_many``
    or ``value_many``) replaced by ``wrap`` of it; ``reference(rng)`` runs the
    sequential loop of ``tests/references.py``. Under ``small_blocks`` each
    check evaluates 10 chunks of 3 blocks (4, 4 and 2 rows at d = 2).
    """
    hyp, x, x_off = build_hyperbola(), np.array([1.2, 1 / 1.2]), np.array([1.3, 0.9])
    spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 2, "n": 2, "y": [0.5, 1.0]})
    sample_sum, x_min = build_landscape(spec), canonical_minimum(spec)

    def with_grad_many(wrap):
        return dataclasses.replace(hyp, grad_many=wrap(hyp.grad_many))

    def with_value_many(wrap):
        base = dataclasses.replace(sample_sum.base, value_many=wrap(sample_sum.base.value_many))
        return dataclasses.replace(sample_sum, base=base)

    return {
        "rs-estimator": (
            lambda rng, wrap=lambda f: f: check_rs_estimator(with_grad_many(wrap), x, 0.01, 200, rng),
            lambda rng: unblocked_estimator_means(hyp, x, [0.01], 200, rng, chunk=10),
        ),
        "rs-estimator off the set": (
            lambda rng, wrap=lambda f: f: check_rs_estimator(with_grad_many(wrap), x_off, 0.01, 200, rng),
            lambda rng: unblocked_estimator_means(hyp, x_off, [0.01], 200, rng, chunk=10),
        ),
        "two-radii": (
            lambda rng, wrap=lambda f: f: oracle._estimator_means(with_grad_many(wrap), x, [0.02, 0.01], 200, rng),
            lambda rng: unblocked_estimator_means(hyp, x, [0.02, 0.01], 200, rng, chunk=10),
        ),
        "sa-dfactor": (
            lambda rng, wrap=lambda f: f: check_sa_dfactor(with_value_many(wrap), x_min, 0.01, 100, rng),
            lambda rng: unblocked_check_sa_dfactor(sample_sum, x_min, 0.01, 100, rng, chunk=10),
        ),
    }


@pytest.fixture
def small_blocks():
    with mock.patch.object(oracle, "CHUNK", 10), mock.patch.object(oracle, "BLOCK", 8):
        yield


@pytest.mark.usefixtures("small_blocks")
class TestReadAhead:
    """The helper thread draws what a sequential loop draws, raises its errors and stops with its check."""

    @pytest.mark.parametrize("case", sorted(_read_ahead_cases()))
    def test_stream_ends_where_the_sequential_loop_ends(self, case):
        check, reference = _read_ahead_cases()[case]
        rng, ref_rng = RngStream(11), RngStream(11)
        check(rng)
        reference(ref_rng)
        assert rng.generator.bit_generator.state == ref_rng.generator.bit_generator.state

    @pytest.mark.parametrize("case", sorted(_read_ahead_cases()))
    @pytest.mark.parametrize("k", [1, 3, 25])
    def test_draw_error_is_raised_and_the_thread_stops(self, case, k):
        check, _ = _read_ahead_cases()[case]
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"draw {k} failed"):
            check(_FailingStream(11, k))
        assert threading.active_count() == before
        assert not _helper_threads()

    @pytest.mark.parametrize("case", sorted(_read_ahead_cases()))
    def test_evaluation_error_is_raised_and_the_thread_stops(self, case):
        # Each block is evaluated twice per radius (x + D and x - D): the first call of the third block fails.
        check, _ = _read_ahead_cases()[case]
        radii = 2 if case == "two-radii" else 1
        calls = []

        def failing(f):
            def wrapped(X):
                calls.append(len(X))
                if len(calls) == 2 * 2 * radii + 1:
                    raise FloatingPointError("third block failed")
                return f(X)

            return wrapped

        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="third block failed"):
            check(RngStream(11), failing)
        assert threading.active_count() == before
        assert not _helper_threads()

    @pytest.mark.parametrize("case", sorted(_read_ahead_cases()))
    def test_one_helper_thread_runs_during_evaluation_of_blocks(self, case):
        check, _ = _read_ahead_cases()[case]
        before = threading.active_count()
        seen = []

        def counting(f):
            def wrapped(X):
                seen.append(threading.active_count())
                return f(X)

            return wrapped

        check(RngStream(11), counting)
        assert set(seen) == {before + 1}
        assert threading.active_count() == before


class TestSampleRegion:
    """Block-drawn candidates give the points, and the predicate calls, of one draw per candidate."""

    @staticmethod
    def _recording(predicate, seen):
        def record(p):
            seen.append(p.tobytes())
            return predicate(p)

        return record

    @pytest.mark.parametrize("m", [1, 3, 200, 700])
    def test_tube_points_and_predicate_calls_match_one_draw_per_candidate(self, m):
        tube = hyperbola_tube_region()
        seen_block, seen_single = [], []
        block = dataclasses.replace(tube, predicate=self._recording(tube.predicate, seen_block))
        single = dataclasses.replace(tube, predicate=self._recording(tube.predicate, seen_single))
        points = block.draw(m, RngStream(5))
        assert points.tobytes() == one_draw_per_candidate(single, m, RngStream(5)).tobytes()
        assert seen_block == seen_single

    @pytest.mark.parametrize("m", [2, 7, 600])
    def test_box_with_axis_probes_matches_one_draw_per_candidate(self, m):
        box = SampleRegion(low=(-1.0, -2.0, 0.5), high=(1.0, 3.0, 4.0))
        points = box.draw(m, RngStream(6))
        assert points.shape == (m, 3)
        assert points.tobytes() == one_draw_per_candidate(box, m, RngStream(6)).tobytes()

    def test_try_cap_is_kept(self):
        calls = []
        never = SampleRegion(low=(0.0,), high=(1.0,), predicate=lambda p: bool(calls.append(1)), axis_probes=False)
        with pytest.raises(RuntimeError, match="enough points"):
            never.draw(3, RngStream(0))
        assert len(calls) == 3000


class TestEstimatePlConstants:
    def test_identity_quadratic(self):
        obj = build_convex_quadratic([1.0, 1.0])
        region = SampleRegion(low=(-1.0, -1.0), high=(1.0, 1.0))
        alpha, beta = estimate_pl_constants(obj, region, 100, RngStream(0))
        assert alpha == pytest.approx(1.0, abs=1e-6)
        assert beta == pytest.approx(1.0, abs=1e-6)

    def test_anisotropic_quadratic_hits_extreme_eigenvalues(self):
        obj = build_convex_quadratic([2.0, 4.0])
        region = SampleRegion(low=(-1.0, -1.0), high=(1.0, 1.0))
        alpha, beta = estimate_pl_constants(obj, region, 100, RngStream(1))
        assert alpha == pytest.approx(2.0, abs=1e-6)
        assert beta == pytest.approx(4.0, abs=1e-6)

    def test_hyperbola_tube(self):
        obj = build_hyperbola()
        alpha, beta = estimate_pl_constants(obj, hyperbola_tube_region(), 200, RngStream(2))
        assert 0.0 < alpha <= beta
        assert np.isfinite(beta)

    def test_points_on_minima_set_are_skipped(self):
        obj = build_hyperbola()
        on_manifold = SampleRegion(low=(1.0, 1.0), high=(1.0, 1.0), axis_probes=False)
        with pytest.raises(RuntimeError, match="minima set"):
            estimate_pl_constants(obj, on_manifold, 4, RngStream(0))


class TestDescentLemma:
    def test_gd_only_trajectory_passes(self):
        obj = build_convex_quadratic([1.0, 1.0])
        sched = Schedule(eta=0.5, eta_prime=1.0, rho=0.1, eps0=1e-15, steps=50, beta_hat=1.0)
        traj = run(obj, "GD", np.array([2.0, -1.0]), sched, RngStream(0), log_cadence=1)
        rep = check_descent_lemma(traj, beta_hat=1.0)
        assert rep.passed and not rep.not_applicable
        assert rep.n_samples == 50

    def test_perturbed_run_passes_at_half_beta_step(self):
        obj = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, obj.lipschitz_grad_hint, budget_cap=2000)
        traj = run(obj, "RS", np.array([1.4, 1 / 1.4]), sched, RngStream(1), log_cadence=1)
        rep = check_descent_lemma(traj, obj.lipschitz_grad_hint)
        assert rep.passed
        assert rep.extras["inline_violations"] == 0
        assert rep.measured <= 1e-12

    def test_oversized_step_marked_not_applicable(self):
        obj = build_convex_quadratic([1.0, 1.0])
        beta = 1.0
        sched = Schedule(
            eta=4.0 / beta, eta_prime=1.0, rho=0.1, eps0=1e-15, steps=20, beta_hat=beta
        )
        traj = run(obj, "GD", np.array([0.5, 0.5]), sched, RngStream(2), log_cadence=1)
        rep = check_descent_lemma(traj, beta)
        assert rep.not_applicable
        assert rep.passed

    def test_trajectory_without_cost_records_rejected(self):
        obj = build_convex_quadratic([1.0])
        sched = Schedule(eta=0.5, eta_prime=1.0, rho=0.1, eps0=1e-15, steps=5, beta_hat=1.0)
        traj = run(obj, "GD", np.array([1.0]), sched, RngStream(3), log_cadence=1)
        stripped = traj.records[-1:]  # terminal record only, no f_after
        import dataclasses

        bad = dataclasses.replace(traj, records=tuple(stripped))
        with pytest.raises(ValueError):
            check_descent_lemma(bad, 1.0)


class TestReportShape:
    @pytest.mark.parametrize(
        "rel_error,not_applicable,passed",
        [
            (0.05, False, True),
            (0.1, False, True),
            (0.2, False, False),
            (float("nan"), False, False),
            (float("inf"), False, False),
            (float("inf"), True, True),
        ],
        ids=["below", "equal", "above", "nan", "inf", "not-applicable"],
    )
    def test_verdict_is_derived_from_error_and_tolerance(self, rel_error, not_applicable, passed):
        fields = dict(name="x", n_samples=1, measured=None, reference=None, rel_error=rel_error, tolerance=0.1)
        rep = OracleReport(**fields, not_applicable=not_applicable)
        assert rep.passed is passed
        assert rep.to_dict()["passed"] is passed
        with pytest.raises(TypeError, match="passed"):
            OracleReport(**fields, passed=not passed)

    def test_reports_serialize(self):
        rep = check_sphere_moments(3, 10**4, RngStream(5))
        data = rep.to_dict()
        assert set(data) >= {"name", "n_samples", "measured", "reference", "rel_error", "tolerance", "passed"}

    def test_deterministic_given_seed(self):
        obj = build_hyperbola()
        a = check_rs_estimator(obj, np.array([1.1, 1 / 1.1]), 0.01, 10**5, RngStream(9))
        b = check_rs_estimator(obj, np.array([1.1, 1 / 1.1]), 0.01, 10**5, RngStream(9))
        assert a.measured == b.measured
        assert a.rel_error == b.rel_error
