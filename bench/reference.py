"""Closed-form gradient flow of the product losses, independent of flatmin.

Both benchmark landscapes are f(u, v) = m2 * (u*v - c)^2: the hyperbola has
m2 = 1, c = 1 and the scalar factorization has m2 = mean(a^2). The flow
x' = -grad f conserves D = u^2 - v^2 (d/dt (u^2 - v^2) = 2u*u' - 2v*v' = 0),
so it lands where u*v = c and u^2 - v^2 = D, which fixes the landing point,
the normalized Hessian trace there, m2 * sqrt(D^2 + 4c^2), and the gradient
of that trace-at-landing map, whose norm the flatness certifier estimates by
finite differences.

Only the standard library is used, so nothing here shares code or arithmetic
with the package under test.
"""

from __future__ import annotations

import math


def loss(x, m2: float, c: float) -> float:
    """f(x) = m2 * (u*v - c)^2."""
    return m2 * (x[0] * x[1] - c) ** 2


def grad_norm(x, m2: float, c: float) -> float:
    """|grad f(x)| = 2 * m2 * |u*v - c| * |x|."""
    return 2.0 * m2 * abs(x[0] * x[1] - c) * math.hypot(x[0], x[1])


def conserved(x) -> float:
    """The flow invariant D = u^2 - v^2."""
    return x[0] * x[0] - x[1] * x[1]


def landing_point(x, c: float) -> tuple[float, float]:
    """Where the gradient flow from ``x`` lands on {u*v = c}, for c > 0.

    The coordinate with the larger magnitude cannot pass through zero, so it
    keeps its sign; the other follows from u*v = c. Each branch solves for the
    larger coordinate first to avoid cancellation.
    """
    if c <= 0:
        raise ValueError("closed form needs c > 0")
    d = conserved(x)
    s = math.sqrt(d * d + 4.0 * c * c)
    if d >= 0:
        u = math.copysign(math.sqrt((d + s) / 2.0), x[0])
        return u, c / u
    v = math.copysign(math.sqrt((s - d) / 2.0), x[1])
    return c / v, v


def landing_trace(x, m2: float, c: float) -> float:
    """Normalized Hessian trace at the landing point: m2 * sqrt(D^2 + 4c^2)."""
    d = conserved(x)
    return m2 * math.sqrt(d * d + 4.0 * c * c)


def flat_grad_norm(phi, m2: float, c: float) -> float:
    """Norm of grad_x [trace at landing](x), taken at a landing point ``phi``.

    From landing_trace = m2 * sqrt(D^2 + 4c^2) and grad D = 2*(u, -v):
    2 * m2 * |D| * |phi| / sqrt(D^2 + 4c^2).
    """
    d = conserved(phi)
    return 2.0 * m2 * abs(d) * math.hypot(phi[0], phi[1]) / math.sqrt(d * d + 4.0 * c * c)


def trace_min(m2: float, c: float) -> float:
    """Smallest normalized trace on the minima set (at |u| = |v|): 2 * m2 * c."""
    return 2.0 * m2 * c


def certificate_flag(dist: float, flat: float, eps: float, eps_prime: float) -> bool:
    """The certifier's two-inequality acceptance rule."""
    return dist <= eps and flat <= eps_prime
