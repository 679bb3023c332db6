"""Shared geometric primitives: projection, sphere sampling, trace, finite differences."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

# Below this norm a projection direction is treated as degenerate and the
# projection becomes the identity (the operator is undefined at exact
# stationary points; identity preserves the perturbation estimator there).
U_TOL = 1e-12

#: Gaussian rows drawn per generator call by :func:`sphere_directions`.
SPHERE_BLOCK = 512


class NonFiniteValueError(ValueError):
    """A probed function value was NaN or infinite."""

    def __init__(self, message: str, point: np.ndarray):
        super().__init__(message)
        self.point = np.asarray(point, dtype=float)


@dataclass
class RngStream:
    """Seeded, counter-addressed random stream.

    Identical (seed, stream) pairs reproduce the identical draw sequence
    across runs and platforms. Distinct streams derived from the same seed
    are statistically independent; one stream must never be shared between
    concurrent consumers.
    """

    seed: int
    stream: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
            self._gen = np.random.Generator(np.random.PCG64(ss))
        return self._gen

    def child(self, stream: int) -> "RngStream":
        """Fresh stream with the same seed and a new counter."""
        return RngStream(seed=self.seed, stream=stream)

    # Thin draw helpers so callers never touch the generator's full surface.
    def normal(self, size) -> np.ndarray:
        return self.generator.standard_normal(size)

    def integers(self, low: int, high: int) -> int:
        return int(self.generator.integers(low, high))

    def sign(self) -> float:
        """Uniform draw from {-1.0, +1.0}."""
        return 1.0 if self.generator.integers(0, 2) == 1 else -1.0


def proj_out(u: np.ndarray, v: np.ndarray, u_tol: float = U_TOL) -> np.ndarray:
    """Remove from ``v`` its component along ``u``.

    Returns ``v`` unchanged when ``norm(u) <= u_tol`` (degenerate direction).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    if nu <= u_tol:
        return v.copy()
    return proj_out_normed(u, nu, v, u_tol)


def proj_out_normed(u: np.ndarray, nu: float, v: np.ndarray, u_tol: float = U_TOL) -> np.ndarray:
    """``proj_out(u, v)`` given ``nu = norm(u)``, without input checks.

    Returns ``v`` itself, not a copy, when ``nu <= u_tol``.
    """
    if nu <= u_tol:
        return v
    uhat = u / nu
    return v - np.dot(uhat, v) * uhat


def sample_sphere(d: int, rng: RngStream) -> np.ndarray:
    """Uniform draw from the unit sphere in R^d (normalized Gaussian)."""
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    while True:
        g = rng.normal(d)
        n = float(np.linalg.norm(g))
        if n > 0.0:
            return g / n


def sample_sphere_batch(d: int, m: int, rng: RngStream) -> np.ndarray:
    """(m, d) array of independent uniform unit vectors.

    Row k is the k-th of m successive ``sample_sphere(d, rng)`` draws, and
    ``rng`` ends in the same state.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    U = _unit_rows(rng.normal((m, d)))
    while len(U) < m:
        U = np.concatenate([U, _unit_rows(rng.normal((m - len(U), d)))])
    return U


def sphere_directions(d: int, rng: RngStream) -> Iterator[np.ndarray]:
    """Endless uniform unit vectors in R^d, drawn ``SPHERE_BLOCK`` at a time.

    Yields the vectors of successive ``sample_sphere(d, rng)`` calls, but
    advances ``rng`` by whole blocks.
    """
    while True:
        yield from _unit_rows(rng.normal((SPHERE_BLOCK, d)))


def _unit_rows(G: np.ndarray) -> np.ndarray:
    """Rows of ``G`` scaled to unit norm, zero rows dropped as ``sample_sphere`` redraws them.

    Each norm is ``sqrt(vecdot)``, which tests check equals ``np.linalg.norm``
    of the row bit for bit (``norm(axis=1)`` differs in the last bit).
    """
    n = np.sqrt(np.vecdot(G, G))
    if not n.all():
        G, n = G[n > 0.0], n[n > 0.0]
    return G / n[:, None]


def fd_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function.

    Raises :class:`NonFiniteValueError` (carrying the probe point) if any
    probed value is not finite.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        fp = float(fn(x + e))
        fm = float(fn(x - e))
        if not np.isfinite(fp):
            raise NonFiniteValueError("non-finite value at forward probe", x + e)
        if not np.isfinite(fm):
            raise NonFiniteValueError("non-finite value at backward probe", x - e)
        out[j] = (fp - fm) / (2.0 * h)
    return out


def fd_jacobian(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, h: float) -> np.ndarray:
    """Column-wise central-difference Jacobian of a vector map."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(fn(x + e), dtype=float) - np.asarray(fn(x - e), dtype=float)) / (2.0 * h))
    return np.stack(cols, axis=1)


def normalized_trace(obj, x: np.ndarray, fd_step: float = 1e-5) -> float:
    """Trace of the Hessian of ``obj`` at ``x`` divided by the dimension.

    Uses the exact Hessian when the objective provides one, otherwise falls
    back to central differences of the gradient along each basis direction
    (d gradient pairs).
    """
    x = np.asarray(x, dtype=float)
    if obj.hess is not None:
        return float(np.trace(obj.hess(x))) / obj.dim
    acc = 0.0
    for j in range(obj.dim):
        e = np.zeros(obj.dim)
        e[j] = fd_step
        gp = obj.grad(x + e)
        gm = obj.grad(x - e)
        acc += (float(gp[j]) - float(gm[j])) / (2.0 * fd_step)
    return acc / obj.dim
