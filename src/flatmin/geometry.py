"""Shared geometric primitives: projection, sphere sampling, trace, finite differences."""

from __future__ import annotations

import math
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
    from run to run under one numpy version. The values computed from the
    draws repeat byte for byte only on one numpy and BLAS build and CPU
    family (README, Notes). Distinct streams derived from the same seed
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

    # Per-call draws; the block draws of run's SA steps, the oracle and
    # SampleRegion take ``generator`` itself.
    def normal(self, size) -> np.ndarray:
        return self.generator.standard_normal(size)

    def integers(self, low: int, high: int) -> int:
        return int(self.generator.integers(low, high))

    def sign(self) -> float:
        """Uniform draw from {-1.0, +1.0}."""
        return 1.0 if self.generator.integers(0, 2) == 1 else -1.0


def _dot_is_fused() -> bool:
    """Whether ``np.dot`` of two 2-vectors rounds once, as ``fma(a1, b1, a0*b0)`` (OpenBLAS's Haswell kernel)."""
    # 1 * -1 + (1 + e)(1 - e) is -e**2 with one rounding (fused) and 0 with two.
    e = 2.0**-30
    return float(np.dot([1.0, 1.0 + e], [-1.0, 1.0 - e])) != 0.0


#: What ``np.dot`` of two 2-vectors does on this numpy and BLAS build, probed once at import.
DOT_FUSED = _dot_is_fused()

# Dekker's split of a float64 into two 26-bit halves, and the magnitudes
# between which it and the product of two such floats are exact.
_SPLIT = 134217729.0  # 2**27 + 1
_DOT_LO = 2.0**-450
_DOT_HI = 2.0**450


def _dot2_numpy(a0: float, a1: float, b0: float, b1: float) -> float:
    """``np.dot((a0, a1), (b0, b1))`` as a Python float."""
    return float(np.dot(np.array((a0, a1)), np.array((b0, b1))))


def _dot2_fused(a0: float, a1: float, b0: float, b1: float) -> float:
    """``fma(a1, b1, a0*b0)``, which is ``np.dot((a0, a1), (b0, b1))`` on a fused build.

    ``a1*b1`` is split exactly into ``x + y`` (Ogita, Rump and Oishi's
    TwoProduct), and ``math.fsum`` rounds ``a0*b0 + x + y`` once. A zero,
    subnormal, huge or non-finite input, for which the split is not exact,
    goes to ``np.dot``.
    """
    lo, hi = _DOT_LO, _DOT_HI
    if lo < abs(a0) < hi and lo < abs(a1) < hi and lo < abs(b0) < hi and lo < abs(b1) < hi:
        x = a1 * b1
        s = _SPLIT * a1
        ah = s - (s - a1)
        al = a1 - ah
        s = _SPLIT * b1
        bh = s - (s - b1)
        bl = b1 - bh
        y = al * bl - (((x - ah * bh) - al * bh) - ah * bl)
        return math.fsum((a0 * b0, x, y))
    return _dot2_numpy(a0, a1, b0, b1)


#: ``np.dot`` of two 2-vectors given as four Python floats, bit for bit, at
#: a fraction of its per-call cost where the build fuses it.
_dot2 = _dot2_fused if DOT_FUSED else _dot2_numpy


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
