"""Differentiable objective bundles and the analytic test landscapes.

Every landscape exposes analytic value/gradient/Hessian plus vectorized
batch evaluators; finite differences are used only for cross-checks.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import _sq2

Vector = np.ndarray
Matrix = np.ndarray

# Finite-difference cross-checks and the Lipschitz hints are confined to
# this box; experiment trajectories stay inside it.
TEST_REGION_HALF_WIDTH = 3.0


@dataclass(frozen=True)
class Objective:
    """Differentiable function bundle; every field but the ``float_*`` formulas is required.

    The per-point callables take ``x`` as a 1-d float64 ndarray of length ``dim``.

    Attributes
    ----------
    dim : int
        Domain dimension.
    value, grad : callables
        f(x) and its gradient.
    hess : callable
        Exact symmetric Hessian.
    lipschitz_grad_hint : float
        Supremum of the Hessian spectral norm over the test region
        [-TEST_REGION_HALF_WIDTH, TEST_REGION_HALF_WIDTH]^dim, in closed
        form; sets the default flow and schedule step sizes. Positive and
        finite.
    value_many, grad_many : callables
        Vectorized evaluation over an (m, dim) batch of points.
    normalized_trace_grad : callable
        Closed-form gradient of trace(hess(x)) / dim.
    float_value, float_grad : callables or None
        Optional, on a d = 2 landscape only: f and its gradient at the point
        ``(x0, x1)`` given as two Python floats, the gradient as a pair of
        floats, rounded as ``value`` and ``grad``. :func:`iterates` reads
        them to choose how ``run`` and the flow hold the iterates.
    """

    dim: int
    value: Callable[[Vector], float]
    grad: Callable[[Vector], Vector]
    hess: Callable[[Vector], Matrix]
    lipschitz_grad_hint: float
    value_many: Callable[[Matrix], Vector]
    grad_many: Callable[[Matrix], Matrix]
    normalized_trace_grad: Callable[[Vector], Vector]
    float_value: Callable[[float, float], float] | None = None
    float_grad: Callable[[float, float], tuple[float, float]] | None = None

    def __post_init__(self):
        if not 0.0 < self.lipschitz_grad_hint < math.inf:
            raise ValueError(f"lipschitz_grad_hint must be positive and finite, got {self.lipschitz_grad_hint!r}")


@dataclass(frozen=True)
class SampleSumObjective:
    """Training loss of the form f(x) = (1/n) * sum_i loss(p_i(x), y_i).

    Every field but the ``float_*`` formulas is required. ``sample_*``
    callables address the per-sample losses f_i; ``pred_grad`` is the
    gradient of the model output p_i. Each takes a sample index and ``x`` as
    a 1-d float64 ndarray of length ``dim``. The optional
    ``float_sample_grad`` and ``float_pred_grad`` take the index and, on a
    d = 2 landscape, the point as two Python floats, and return a pair of
    floats rounded as ``sample_grad`` and ``pred_grad``. :func:`iterates`
    holds the iterates as Python floats only where these and the base's
    two are all set.
    """

    base: Objective
    n: int
    sample_value: Callable[[int, Vector], float]
    sample_grad: Callable[[int, Vector], Vector]
    pred_grad: Callable[[int, Vector], Vector]
    float_sample_grad: Callable[[int, float, float], tuple[float, float]] | None = None
    float_pred_grad: Callable[[int, float, float], tuple[float, float]] | None = None

    @property
    def dim(self) -> int:
        return self.base.dim


@dataclass(frozen=True)
class LandscapeSpec:
    """Serializable description of a test landscape (kind + flat params)."""

    kind: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}

    @staticmethod
    def from_dict(data: dict) -> "LandscapeSpec":
        data = dict(data)
        try:
            kind = data.pop("kind")
        except KeyError:
            raise ValueError("landscape config requires a 'kind' field") from None
        if not isinstance(kind, str) or kind not in _BUILDERS:
            raise ValueError(f"unknown landscape kind {kind!r}; known: {sorted(_BUILDERS)}")
        return LandscapeSpec(kind=kind, params=data)


def _square(r: float) -> float:
    """``r ** 2`` (libm ``pow``, as numpy scalars; ``r * r`` rounds otherwise), ``inf`` on overflow."""
    try:
        return r**2
    except OverflowError:
        return math.inf


def build_hyperbola() -> Objective:
    """Two-dimensional product landscape f(x1, x2) = (x1*x2 - 1)^2.

    The full loss of the one-sample factorization (a = (1,), c = 1) as a plain
    Objective. Minima form the hyperbola {x1*x2 = 1}; the normalized Hessian
    trace is x1^2 + x2^2 everywhere, minimized on the manifold at (1, 1) and
    (-1, -1).
    """
    return build_scalar_factorization([1.0], 1.0).base


def build_convex_quadratic(eigenvalues) -> Objective:
    """f(x) = 0.5 * x^T diag(eigenvalues) x with a unique minimum at 0."""
    eig = np.asarray(eigenvalues, dtype=float)
    if eig.ndim != 1 or eig.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-d sequence")
    if not ((eig > 0.0) & np.isfinite(eig)).all():
        raise ValueError(f"eigenvalues must be positive and finite, got {eig.tolist()}")
    d = eig.size
    D = np.diag(eig)

    def value(x):
        return float(0.5 * np.dot(x, eig * x))

    def grad(x):
        return eig * np.asarray(x, dtype=float)

    def hess(x):
        return D.copy()

    def value_many(X):
        return 0.5 * (X**2 @ eig)

    def grad_many(X):
        return X * eig

    def trace_grad(x):
        return np.zeros(d)

    return Objective(
        dim=d,
        value=value,
        grad=grad,
        hess=hess,
        lipschitz_grad_hint=float(eig.max()),
        value_many=value_many,
        grad_many=grad_many,
        normalized_trace_grad=trace_grad,
    )


def build_scalar_factorization(a, c: float) -> SampleSumObjective:
    """Two-parameter factorization loss f(u, v) = (1/n) sum_i (a_i*u*v - c*a_i)^2.

    Per-sample prediction p_i(u, v) = a_i*u*v with label y_i = c*a_i and squared
    loss. Minima form {u*v = c}; with n=1, a=(1,), c=1 this is exactly the
    hyperbola landscape.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("a must be a nonempty 1-d sequence")
    if not ((a != 0.0) & np.isfinite(a)).all():
        raise ValueError(f"a must be nonzero and finite, got {a.tolist()}")
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    n = a.size
    # The Hessian's spectral norm grows with u^2, v^2 and |2uv - c|, so over
    # [-w, w]^2 it peaks at the corner where uv = -sign(c) * w^2. Huge finite
    # a or c overflow it; that is reported below, not warned about.
    with np.errstate(over="ignore"):
        m2 = float(np.mean(a**2))
        beta = 2.0 * m2 * (3.0 * TEST_REGION_HALF_WIDTH**2 + abs(c))
    if not 0.0 < beta < math.inf:
        raise ValueError(f"a and c must give a positive finite Lipschitz hint, got {beta}")

    # Python floats cost less per call than numpy scalars and round the same.
    # Each per-point formula is written once, on two floats; the ndarray
    # callables wrap it.
    a_list = a.tolist()
    a_sq = [_square(ai) for ai in a_list]
    # Python multiplies left to right, so ``two_m2 * r`` rounds as ``2.0 * m2 * r``.
    two_m2 = 2.0 * m2
    two_a_sq = [2.0 * s for s in a_sq]

    def float_value(x0, x1):
        return m2 * _square(x0 * x1 - c)

    def float_grad(x0, x1):
        r = two_m2 * (x0 * x1 - c)
        return r * x1, r * x0

    def float_sample_grad(i, x0, x1):
        r = two_a_sq[i] * (x0 * x1 - c)
        return r * x1, r * x0

    def float_pred_grad(i, x0, x1):
        ai = a_list[i]
        return ai * x1, ai * x0

    def value(x):
        return float_value(*x.tolist())

    def grad(x):
        return np.array(float_grad(*x.tolist()))

    def hess(x):
        off = two_m2 * (2.0 * x[0] * x[1] - c)
        return np.array([[two_m2 * x[1] ** 2, off], [off, two_m2 * x[0] ** 2]])

    def value_many(X):
        r = X[:, 0] * X[:, 1] - c
        return m2 * r**2

    def grad_many(X):
        x0, x1 = X[:, 0], X[:, 1]
        r = two_m2 * (x0 * x1 - c)
        # Column by column (a row-broadcast multiply loops two values at a time),
        # into C order for any layout of X, so row-wise products see contiguous rows.
        out = np.empty((len(X), 2))
        np.multiply(r, x1, out=out[:, 0])
        np.multiply(r, x0, out=out[:, 1])
        return out

    def trace_grad(x):
        return np.array([two_m2 * x[0], two_m2 * x[1]])

    def sample_value(i, x):
        x0, x1 = x.tolist()
        return a_sq[i] * _square(x0 * x1 - c)

    def sample_grad(i, x):
        return np.array(float_sample_grad(i, *x.tolist()))

    def pred_grad(i, x):
        return np.array(float_pred_grad(i, *x.tolist()))

    base = Objective(
        dim=2,
        value=value,
        grad=grad,
        hess=hess,
        lipschitz_grad_hint=beta,
        value_many=value_many,
        grad_many=grad_many,
        normalized_trace_grad=trace_grad,
        float_value=float_value,
        float_grad=float_grad,
    )
    return SampleSumObjective(
        base=base,
        n=n,
        sample_value=sample_value,
        sample_grad=sample_grad,
        pred_grad=pred_grad,
        float_sample_grad=float_sample_grad,
        float_pred_grad=float_pred_grad,
    )


def build_orthogonal_quadratic_model(d: int, n: int, y) -> SampleSumObjective:
    """Sample-sum model with orthogonal prediction gradients.

    Predictions p_i(x) = 0.5 * <e_i, x>^2 against the first n standard basis
    vectors, labels y_i > 0, and loss 0.5 * (z - y)^2. At any global minimum
    x* (so <e_i, x*>^2 = 2*y_i) the prediction gradients are mutually
    orthogonal and the full Hessian is (1/n) sum_i 2*y_i e_i e_i^T.
    """
    for name, k in (("d", d), ("n", n)):
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {k!r}")
    y = np.asarray(y, dtype=float)
    if not (1 <= n <= d):
        raise ValueError(f"need 1 <= n <= d, got n={n}, d={d}")
    if y.shape != (n,):
        raise ValueError(f"y must have length n={n}, got shape {y.shape}")
    if not ((y > 0.0) & np.isfinite(y)).all():
        raise ValueError(f"y must be positive and finite, got {y.tolist()}")

    # Python floats cost less per call than length-n arrays and round the
    # same (an array's ``s**2`` is ``s * s``); the mean's sum stays numpy's.
    y_list = y.tolist()
    zeros_tail = [0.0] * (d - n)

    def residuals(x):
        """Pairs ``(x_i, p_i(x) - y_i)`` over the n samples."""
        return [(xi, 0.5 * (xi * xi) - yi) for xi, yi in zip(x[:n].tolist(), y_list)]

    def value(x):
        return float(np.add.reduce(np.array([0.5 * (r * r) for _, r in residuals(x)])) / n)

    def grad(x):
        return np.array([r * xi / n for xi, r in residuals(x)] + zeros_tail)

    def hess(x):
        s2 = x[:n] ** 2
        diag = np.zeros(d)
        diag[:n] = (1.5 * s2 - y) / n
        return np.diag(diag)

    def value_many(X):
        P = 0.5 * X[:, :n] ** 2
        return np.mean(0.5 * (P - y) ** 2, axis=1)

    def grad_many(X):
        out = np.zeros_like(X)
        out[:, :n] = (0.5 * X[:, :n] ** 2 - y) * X[:, :n] / n
        return out

    def trace_grad(x):
        out = np.zeros(d)
        out[:n] = 3.0 * x[:n] / (n * d)
        return out

    def sample_value(i, x):
        p = 0.5 * float(x[i]) ** 2
        return 0.5 * (p - y[i]) ** 2

    def sample_grad(i, x):
        p = 0.5 * float(x[i]) ** 2
        out = np.zeros(d)
        out[i] = (p - y[i]) * float(x[i])
        return out

    def pred_grad(i, x):
        out = np.zeros(d)
        out[i] = float(x[i])
        return out

    # Spectral norm over [-w, w]^d is attained coordinate-wise.
    w2 = TEST_REGION_HALF_WIDTH**2
    beta = float(max(max(1.5 * w2 - yi, yi) for yi in y) / n)
    base = Objective(
        dim=d,
        value=value,
        grad=grad,
        hess=hess,
        lipschitz_grad_hint=beta,
        value_many=value_many,
        grad_many=grad_many,
        normalized_trace_grad=trace_grad,
    )
    return SampleSumObjective(
        base=base,
        n=n,
        sample_value=sample_value,
        sample_grad=sample_grad,
        pred_grad=pred_grad,
    )


_BUILDERS = {
    "hyperbola": build_hyperbola,
    "convex_quadratic": build_convex_quadratic,
    "scalar_factorization": build_scalar_factorization,
    "orthogonal_quadratic_model": build_orthogonal_quadratic_model,
}


def build_landscape(spec: LandscapeSpec):
    """Construct the Objective / SampleSumObjective described by ``spec``.

    ``spec.params`` must name exactly the builder's parameters.
    """
    if spec.kind not in _BUILDERS:
        raise ValueError(f"unknown landscape kind {spec.kind!r}; known: {sorted(_BUILDERS)}")
    builder = _BUILDERS[spec.kind]
    names = list(inspect.signature(builder).parameters)
    missing = [k for k in names if k not in spec.params]
    if missing:
        raise ValueError(f"landscape {spec.kind!r} missing parameter {', '.join(map(repr, missing))}")
    unknown = sorted(set(spec.params) - set(names))
    if unknown:
        raise ValueError(f"landscape {spec.kind!r} has unknown parameters {unknown}; known: {names}")
    try:
        return builder(**spec.params)
    except TypeError as exc:
        raise ValueError(f"landscape {spec.kind!r} has a parameter of the wrong type: {exc}") from None


def canonical_minimum(spec: LandscapeSpec) -> np.ndarray:
    """An analytically-known global minimum of the landscape (ground truth)."""
    if spec.kind == "convex_quadratic":
        return np.zeros(len(spec.params["eigenvalues"]))
    if spec.kind in ("hyperbola", "scalar_factorization"):
        c = float(spec.params["c"]) if spec.kind == "scalar_factorization" else 1.0
        s = np.sqrt(abs(c)) if c != 0 else 1.0
        return np.array([s, c / s])
    if spec.kind == "orthogonal_quadratic_model":
        d = int(spec.params["d"])
        n = int(spec.params["n"])
        y = np.asarray(spec.params["y"], dtype=float)
        out = np.zeros(d)
        out[:n] = np.sqrt(2.0 * y)
        return out
    raise ValueError(f"unknown landscape kind {spec.kind!r}")


def base_of(obj) -> Objective:
    """The full-loss Objective behind either objective flavor."""
    return obj.base if isinstance(obj, SampleSumObjective) else obj


def as_start(obj, x, rows: bool = False) -> np.ndarray:
    """``x`` as a new float64 array of shape ``(dim,)``, or ``(k, dim)`` for ``rows``; ValueError for any other shape."""
    x = np.array(x, dtype=float)
    d = base_of(obj).dim
    if x.ndim != 1 + rows or x.shape[-1] != d:
        expected = f"starts of shape (k, {d})" if rows else f"a start of shape ({d},)"
        raise ValueError(f"expected {expected}, got {x.shape}")
    return x


def normalized_trace(obj, x) -> float:
    """Trace of the exact Hessian of ``base_of(obj)`` at ``x``, divided by the dimension; ``x`` as :func:`as_start` takes it."""
    base = base_of(obj)
    return float(np.trace(base.hess(as_start(obj, x)))) / base.dim


def iterates(obj) -> tuple[Callable, Callable, Callable]:
    """``(point, evaluate, descend)``: the one choice of how the iterates of ``obj`` are held.

    Where ``obj`` carries every one of its own ``float_*`` formulas (an
    Objective its two; a SampleSumObjective its two and its base's two),
    an iterate is a pair of Python floats, stepped through those formulas;
    that is the d = 2 factorization family. Otherwise it is a 1-d float64
    ndarray. Both forms round every operation alike, their 2-vector dot
    products included (``geometry._dot2`` and ``geometry._sq2`` equal
    ``np.dot``), so the choice changes no byte of a trajectory or landing
    point, only its cost: numpy spends more per call on a length-2 array
    than the arithmetic itself.

    ``point(x)`` is the iterate at the float64 ndarray ``x``;
    ``evaluate(x)`` the tuple ``(coordinates, f(x), g, |g|)`` of all that
    is needed of an iterate, the coordinates as a tuple of Python floats,
    f as a Python float, ``g`` the base gradient and ``|g|`` its exact
    norm, ``sqrt`` of the dot product as ``np.dot`` rounds it; and
    ``descend(x, g, h)`` the step ``x - h * g``. ``run`` steps through
    ``evaluate`` and ``descend``, evaluating the gradient once per
    iterate. ``gradient_flow_limit`` takes only ``point``: it steps each
    form in its own loop, a float pair through ``float_grad`` alone.
    """
    base = base_of(obj)
    formulas = [base.float_value, base.float_grad]
    if isinstance(obj, SampleSumObjective):
        formulas += [obj.float_sample_grad, obj.float_pred_grad]
    if None in formulas:
        value, grad = base.value, base.grad

        def evaluate(x):
            f = float(value(x))
            g = grad(x)
            return tuple(x.tolist()), f, g, math.sqrt(np.dot(g, g))

        return lambda x: x, evaluate, lambda x, g, h: x - h * g

    f_value, f_grad = base.float_value, base.float_grad
    sqrt = math.sqrt

    def float_evaluate(x):
        g0, g1 = g = f_grad(*x)
        return x, f_value(*x), g, sqrt(_sq2(g0, g1))

    def descend(x, g, h):
        x0, x1 = x
        g0, g1 = g
        return x0 - h * g0, x1 - h * g1

    return lambda x: tuple(x.tolist()), float_evaluate, descend
