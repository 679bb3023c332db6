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


@dataclass
class RngStream:
    """Seeded, counter-addressed random stream.

    Identical (seed, stream) pairs reproduce the identical draw sequence
    across runs and platforms. Distinct streams derived from the same seed
    are statistically independent; one stream must never be shared between
    concurrent consumers. A verification check hands its stream to one
    helper thread for the length of the check, which draws from it while
    the caller's thread does not; after a check that raised, the stream's
    state is unspecified.
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

    # Thin draw helpers so callers never touch the generator's full surface.
    def normal(self, size) -> np.ndarray:
        return self.generator.standard_normal(size)

    def integers(self, low: int, high: int) -> int:
        return int(self.generator.integers(low, high))

    def sign(self) -> float:
        """Uniform draw from {-1.0, +1.0}."""
        return 1.0 if self.generator.integers(0, 2) == 1 else -1.0


def proj_out(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Remove from ``v`` its component along ``u``.

    Returns ``v`` unchanged when ``norm(u) <= U_TOL`` (degenerate direction).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = float(np.linalg.norm(u))
    if nu <= U_TOL:
        return v.copy()
    return proj_out_normed(u, nu, v)


def proj_out_normed(u: np.ndarray, nu: float, v: np.ndarray) -> np.ndarray:
    """``proj_out(u, v)`` given ``nu = norm(u)``, without input checks.

    Returns ``v`` itself, not a copy, when ``nu <= U_TOL``.
    """
    if nu <= U_TOL:
        return v
    uhat = u / nu
    return v - np.dot(uhat, v) * uhat


def sample_sphere(d: int, rng: RngStream) -> np.ndarray:
    """Uniform draw from the unit sphere in R^d (normalized Gaussian)."""
    return sample_sphere_batch(d, 1, rng)[0]


def sample_sphere_batch(d: int, m: int, rng: RngStream) -> np.ndarray:
    """(m, d) array of independent uniform unit vectors: normalized Gaussian rows.

    A zero row has no direction; it is dropped and a fresh row is drawn after
    the others, so row k is the k-th of m successive ``sample_sphere(d, rng)``
    draws and ``rng`` ends in the same state. Each norm is ``sqrt(vecdot)``,
    which tests check equals ``np.linalg.norm`` of the row bit for bit
    (``norm(axis=1)`` differs in the last bit).
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    G = rng.normal((m, d))
    while True:
        n = np.sqrt(np.vecdot(G, G))
        if n.all():
            return G / n[:, None]
        kept = G[n > 0.0]
        G = np.concatenate([kept, rng.normal((m - len(kept), d))])


def sphere_directions(d: int, radius: float, rng: RngStream) -> Iterator[np.ndarray]:
    """Endless uniform vectors on the sphere of ``radius`` in R^d, drawn ``SPHERE_BLOCK`` at a time.

    Yields ``radius * sample_sphere(d, rng)`` of successive calls, bit for
    bit, but draws from ``rng`` and scales a block at a time.
    """
    while True:
        yield from radius * sample_sphere_batch(d, SPHERE_BLOCK, rng)


def fd_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (float(fn(x + e)) - float(fn(x - e))) / (2.0 * h)
    return out


def normalized_trace(obj, x: np.ndarray) -> float:
    """Trace of the exact Hessian of ``obj`` at ``x`` divided by the dimension."""
    return float(np.trace(obj.hess(np.asarray(x, dtype=float)))) / obj.dim
