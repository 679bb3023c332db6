"""Shared geometric primitives: projection, sphere sampling, exact 2-vector dots, finite differences."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

# Below this norm a projection direction is treated as degenerate and the
# projection becomes the identity (the operator is undefined at exact
# stationary points; identity preserves the perturbation estimator there).
U_TOL = 1e-12

#: Gaussian rows drawn per generator call by :func:`sphere_blocks`.
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

    Dekker's split writes ``a1`` and ``b1`` exactly as sums of two 26-bit
    halves, so the four partial products of ``a1*b1`` are exact, and
    ``math.fsum`` rounds them plus ``a0*b0`` once. ``a0*b0`` is rounded
    first, as the fused kernel rounds it, so ``a0`` and ``b0`` may be
    anything. An ``a1`` or ``b1`` that is zero, subnormal, beyond 2**±450
    or not finite, for which the split is not exact, a sum that overflows
    inside ``fsum``, and a NaN, whose payload depends on the order of the
    kernel's operands when ``a0`` and ``b0`` are both NaN, go to ``np.dot``.
    """
    if _DOT_LO < abs(a1) < _DOT_HI and _DOT_LO < abs(b1) < _DOT_HI:
        s = _SPLIT * a1
        ah = s - (s - a1)
        al = a1 - ah
        s = _SPLIT * b1
        bh = s - (s - b1)
        bl = b1 - bh
        try:
            d = math.fsum((a0 * b0, ah * bh, ah * bl, al * bh, al * bl))
        except OverflowError:
            pass
        else:
            if d == d:
                return d
    return _dot2_numpy(a0, a1, b0, b1)


def _sq2_numpy(a0: float, a1: float) -> float:
    """``np.dot((a0, a1), (a0, a1))`` as a Python float."""
    return _dot2_numpy(a0, a1, a0, a1)


def _sq2_fused(a0: float, a1: float) -> float:
    """``fma(a1, a1, a0*a0)``, which is ``np.dot((a0, a1), (a0, a1))`` on a fused build.

    One split ``a1 = h + l`` into 26-bit halves makes ``a1*a1 = h*h + 2*h*l
    + l*l`` with every term exact, and ``math.fsum`` rounds them plus
    ``a0*a0`` once. An ``a1*a1`` outside (2**-900, 2**900), where a term
    could underflow or overflow, and a sum that overflows inside ``fsum``
    go to ``np.dot``.
    """
    if 2.0**-900 < a1 * a1 < 2.0**900:
        s = _SPLIT * a1
        h = s - (s - a1)
        l = a1 - h
        try:
            return math.fsum((a0 * a0, h * h, 2.0 * h * l, l * l))
        except OverflowError:
            pass
    return _sq2_numpy(a0, a1)


#: ``np.dot`` of two 2-vectors given as four Python floats, bit for bit, at
#: a fraction of its per-call cost where the build fuses it.
_dot2 = _dot2_fused if DOT_FUSED else _dot2_numpy

#: ``np.dot`` of a 2-vector with itself given as two Python floats, bit for
#: bit; on a fused build it splits one factor where ``_dot2`` splits two.
_sq2 = _sq2_fused if DOT_FUSED else _sq2_numpy

#: Plain square sums below this have a finite ``_dot2``; one just below the largest float may not.
_SQUARE_TOP = 2.0**1023


def _square_band(tol: float) -> tuple[float, float]:
    """``(lo, hi)``: where a square sum ``q`` of ``(g0, g1)`` decides ``sqrt(_dot2(g0, g1, g0, g1)) <= tol``.

    ``q`` is the plain ``g0*g0 + g1*g1`` (a float flow step's), the exact
    dot itself (a flow start's), or ``n*n``, the square of the exact norm
    ``n``. ``q < lo`` means the test holds, and ``hi < q < _SQUARE_TOP``
    that it fails with a finite ``_dot2``; only ``q`` between, or
    non-finite, needs the exact test.
    For ``tol`` in [2**-500, 2**500], ``lo`` and ``hi`` are ``tol*tol``
    times ``1 -/+ 2**-48``. The bound: each square is within u = 2**-53 of
    exact, relatively, or 2**-1075 absolutely if subnormal, so the plain
    ``q`` and ``_dot2`` (fused or not) differ by at most 3u·q plus
    2**-1072; ``n`` is within u of ``sqrt(_dot2)``, relatively, so
    ``n*n`` is within 3u·q plus 2**-1075. That, the roundings of
    ``tol*tol``, of the band ends and of the square root, and
    ``tol*tol >= 2**-1000`` all fit in the band's relative half-width of
    2**-48 = 32u. For any other ``tol`` the band is everything (``lo`` =
    -1, ``hi`` = inf), so every test is exact.
    """
    if not 2.0**-500 <= tol <= 2.0**500:
        return -1.0, math.inf
    t2 = tol * tol
    return t2 * (1.0 - 2.0**-48), t2 * (1.0 + 2.0**-48)


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
    (``norm(axis=1)`` differs in the last bit). The rows are divided in
    place, in the array drawn here, so no second ``(m, d)`` array is made.
    """
    if d < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {d}")
    G = rng.normal((m, d))
    while True:
        n = np.sqrt(np.vecdot(G, G))
        if n.all():
            return np.divide(G, n[:, None], out=G)
        kept = G[n > 0.0]
        G = np.concatenate([kept, rng.normal((m - len(kept), d))])


def sphere_blocks(d: int, radius: float, rng: RngStream) -> Iterator[np.ndarray]:
    """Endless ``(SPHERE_BLOCK, d)`` blocks of uniform vectors on the sphere of ``radius`` in R^d."""
    while True:
        yield radius * sample_sphere_batch(d, SPHERE_BLOCK, rng)


def fd_gradient(fn: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient of a scalar function; the step ``h`` must be positive and finite."""
    if not 0.0 < h < math.inf:
        raise ValueError(f"step must be positive and finite, got {h!r}")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        out[j] = (float(fn(x + e)) - float(fn(x - e))) / (2.0 * h)
    return out
