"""The closed-form flow reference against a tight numerical integration of the same flow.

Run with ``python3 -m pytest bench``.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import reference as ref

M2_FACTOR = (1.0 + 0.49 + 1.69 + 2.56) / 4.0  # mean(a^2) for a = (1.0, 0.7, 1.3, 1.6)


def integrate(x0, m2, c, t_end=40.0):
    """x' = -grad m2*(u*v - c)^2 with DOP853 at rtol 1e-13; returns the trajectory."""

    def rhs(_t, x):
        r = 2.0 * m2 * (x[0] * x[1] - c)
        return [-r * x[1], -r * x[0]]

    return solve_ivp(rhs, (0.0, t_end), list(x0), method="DOP853", rtol=1e-13, atol=1e-15)


def manifold_offset(t, off, branch=1.0, c=1.0):
    """Point b*sqrt(c)*(e^t, e^-t) on {u*v = c}, moved by ``off`` along the unit normal."""
    u, v = branch * math.sqrt(c) * math.exp(t), branch * math.sqrt(c) * math.exp(-t)
    h = math.hypot(u, v)
    return [u + off * v / h, v + off * u / h]


CASES = [
    (m2, c, manifold_offset(t, off, b, c))
    for m2 in (1.0, M2_FACTOR)
    for c in (1.0, 0.5)
    for b in (1.0, -1.0)
    for t, off in ((0.0, 0.2), (0.7, -0.03), (-1.2, 0.03), (1.1, 0.3), (-0.4, -0.25))
]


@pytest.mark.parametrize("m2,c,x0", CASES)
def test_landing_point_and_trace_match_integration(m2, c, x0):
    sol = integrate(x0, m2, c)
    landed = sol.y[:, -1]
    phi = ref.landing_point(x0, c)
    assert np.max(np.abs(landed - np.array(phi))) <= 1e-9
    assert phi[0] * phi[1] == pytest.approx(c, rel=1e-14)
    trace = m2 * (landed[0] ** 2 + landed[1] ** 2)  # normalized Hessian trace at a minimum
    assert ref.landing_trace(x0, m2, c) == pytest.approx(trace, rel=1e-10)
    drift = np.abs(sol.y[0] ** 2 - sol.y[1] ** 2 - ref.conserved(x0))
    assert drift.max() <= 1e-9


@pytest.mark.parametrize("m2,c,x0", CASES[::4])
def test_flat_gradient_norm_matches_difference_of_integrated_trace(m2, c, x0):
    phi = ref.landing_point(x0, c)
    h = 1e-5

    def trace_at_landing(p):
        y = integrate(p, m2, c).y[:, -1]
        return m2 * (y[0] ** 2 + y[1] ** 2)

    grad = []
    for e in ((h, 0.0), (0.0, h)):
        plus = trace_at_landing([phi[0] + e[0], phi[1] + e[1]])
        minus = trace_at_landing([phi[0] - e[0], phi[1] - e[1]])
        grad.append((plus - minus) / (2.0 * h))
    assert ref.flat_grad_norm(phi, m2, c) == pytest.approx(math.hypot(*grad), rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("m2", (1.0, M2_FACTOR))
def test_trace_minimum_is_at_equal_magnitudes(m2):
    ts = np.linspace(-1.5, 1.5, 301)
    traces = [ref.landing_trace(manifold_offset(t, 0.0), m2, 1.0) for t in ts]
    assert min(traces) == pytest.approx(ref.trace_min(m2, 1.0), rel=1e-12)
    assert ref.landing_trace([3.0, 1.0 / 3.0], 1.0, 1.0) == pytest.approx(9.0 + 1.0 / 9.0, rel=1e-14)
    assert ref.flat_grad_norm(manifold_offset(0.0, 0.0), m2, 1.0) == 0.0
