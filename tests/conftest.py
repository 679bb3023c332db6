"""Shared helpers for the test suite."""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from flatmin import LandscapeSpec, SampleRegion, build_landscape, geometry

#: Landscape specs with exact Hessians, used by the derivative cross-checks.
ALL_LANDSCAPE_SPECS = [
    LandscapeSpec("hyperbola"),
    LandscapeSpec("convex_quadratic", {"eigenvalues": [1.0, 1.0]}),
    LandscapeSpec("convex_quadratic", {"eigenvalues": [2.0, 4.0, 0.5]}),
    LandscapeSpec("scalar_factorization", {"a": [1.0, 2.0], "c": 1.0}),
    LandscapeSpec("scalar_factorization", {"a": [1.0, 0.7, 1.3, 1.6], "c": 1.0}),
    LandscapeSpec("orthogonal_quadratic_model", {"d": 6, "n": 3, "y": [0.5, 1.0, 2.0]}),
]


def build_facts() -> str:
    """numpy and BLAS build, and whether a 2-vector ``np.dot`` is fused: the SHA-256 pins depend on them.

    The fused check is ``geometry.DOT_FUSED``, the import-time probe that also
    picks the forms of the float 2-vector dot and self-dot that the d = 2
    step and flow loops use. The pins were recorded where it is True.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
        f"geometry.DOT_FUSED {geometry.DOT_FUSED}, float dot {geometry._dot2.__name__}, "
        f"float self-dot {geometry._sq2.__name__}"
    )


def pytest_report_header(config):
    """The build facts, and the CPUs the process may run on.

    Only the worker processes of ``--threads`` > 1 run side by side, so only
    their timings depend on that count.
    """
    return f"{build_facts()}, usable CPUs {len(os.sched_getaffinity(0))}"


def count_exact_dots(monkeypatch, *modules) -> list:
    """Wrap the exact 2-vector dots ``_dot2`` and ``_sq2`` that each module holds; returns the list their calls append to."""
    calls = []
    for module in modules:
        assert hasattr(module, "_dot2") or hasattr(module, "_sq2"), f"{module.__name__} holds no exact dot"
        for name in ("_dot2", "_sq2"):
            if hasattr(module, name):
                exact = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *q, _exact=exact: (calls.append(q), _exact(*q))[1])
    return calls


def count_numpy_dots(monkeypatch, module, name: str = "dot") -> list:
    """Wrap ``np.dot``, or the ``np.vecdot`` that ``name`` picks, as ``module`` alone sees it, by a stand-in for its ``np``; returns the list its calls append to."""
    calls = []

    class Numpy:
        def __getattr__(self, attr):
            return getattr(np, attr)

    def counted(a, b):
        calls.append((a, b))
        return getattr(np, name)(a, b)

    stand_in = Numpy()
    setattr(stand_in, name, counted)
    monkeypatch.setattr(module, "np", stand_in)
    return calls


def count_calls(obj, *names) -> tuple:
    """``(copy, calls)``: ``obj`` with its callables ``names`` wrapped through ``dataclasses.replace``; each call appends its arguments to ``calls``."""
    calls = []
    wrapped = {name: lambda *a, _f=getattr(obj, name): (calls.append(a), _f(*a))[1] for name in names}
    return dataclasses.replace(obj, **wrapped), calls


def without_float_formulas(obj):
    """``obj`` with its ``float_*`` formulas set to None, so ``run`` and the flow step on ndarrays."""
    floats = {"float_value": None, "float_grad": None}
    if hasattr(obj, "base"):
        return dataclasses.replace(
            obj, base=dataclasses.replace(obj.base, **floats), float_sample_grad=None, float_pred_grad=None
        )
    return dataclasses.replace(obj, **floats)


def base_objective(spec: LandscapeSpec):
    obj = build_landscape(spec)
    return obj.base if hasattr(obj, "base") else obj


def random_points(d: int, n: int, seed: int, half_width: float = 3.0) -> np.ndarray:
    gen = np.random.Generator(np.random.PCG64(seed))
    return gen.uniform(-half_width, half_width, size=(n, d))


def hyperbola_manifold_point(s: float) -> np.ndarray:
    return np.array([s, 1.0 / s])


def hyperbola_tube_region(max_dist: float = 0.1) -> SampleRegion:
    """Points within ``max_dist`` of the hyperbola manifold, |x1| in [0.5, 2]."""

    def near(p: np.ndarray) -> bool:
        u, v = p
        return 0.5 <= abs(u) <= 2.0 and abs(u * v - 1.0) / np.hypot(u, v) <= max_dist

    return SampleRegion(low=(-2.2, -2.2), high=(2.2, 2.2), predicate=near, axis_probes=False)


def near_manifold_points(n: int, seed: int, offset: float = 1e-2) -> np.ndarray:
    """Points a small normal offset away from the hyperbola manifold."""
    gen = np.random.Generator(np.random.PCG64(seed))
    pts = []
    for _ in range(n):
        s = float(gen.uniform(0.65, 1.7))
        base = np.array([s, 1.0 / s])
        normal = np.array([1.0 / s, s]) / np.hypot(1.0 / s, s)
        pts.append(base + float(gen.uniform(-1.0, 1.0)) * offset * normal)
    return np.stack(pts)
