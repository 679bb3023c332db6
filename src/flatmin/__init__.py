"""Gradient-only escape from sharp minima, with a numerical flatness certifier.

The package bundles analytic test landscapes, the gradient-flow limit map,
two perturbed-gradient algorithms that drive iterates toward flatter minima
(a randomly smoothed variant for general losses and a sharpness-aware variant
for sample-sum losses), a brute-force verification suite for the estimator
identities behind them, and a batch experiment CLI.

``import flatmin`` loads geometry, objectives, flow and optimizers, and
``flatmin.cli`` adds only itself: the oracle loads on first use of a check or of
``verify``, the process pool only for ``--threads`` > 1 with two or more seeds,
and ``argparse`` in ``cli.main``.
"""

from .geometry import (
    RngStream,
    fd_gradient,
    normalized_trace,
    proj_out,
    sample_sphere,
    sample_sphere_batch,
)
from .objectives import (
    LandscapeSpec,
    Objective,
    SampleSumObjective,
    build_convex_quadratic,
    build_hyperbola,
    build_landscape,
    build_orthogonal_quadratic_model,
    build_scalar_factorization,
    canonical_minimum,
)
from .flow import (
    DEFAULT_FLOW,
    ORACLE_FLOW,
    FlatnessCertificate,
    FlowConvergenceError,
    certify_flat,
    gradient_flow_limit,
    gradient_flow_limits,
    restricted_trace_gradient,
    trace_at_flow_limit,
)
from .optimizers import (
    DegenerateSampleError,
    DivergenceError,
    IterateRecord,
    Schedule,
    ScheduleConstants,
    Trajectory,
    rs_schedule,
    rs_step,
    run,
    sa_schedule,
    sa_step,
    trajectory_csv,
)

__all__ = [
    "RngStream",
    "fd_gradient",
    "normalized_trace",
    "proj_out",
    "sample_sphere",
    "sample_sphere_batch",
    "LandscapeSpec",
    "Objective",
    "SampleSumObjective",
    "build_convex_quadratic",
    "build_hyperbola",
    "build_landscape",
    "build_orthogonal_quadratic_model",
    "build_scalar_factorization",
    "canonical_minimum",
    "DEFAULT_FLOW",
    "ORACLE_FLOW",
    "FlatnessCertificate",
    "FlowConvergenceError",
    "certify_flat",
    "gradient_flow_limit",
    "gradient_flow_limits",
    "restricted_trace_gradient",
    "trace_at_flow_limit",
    "DegenerateSampleError",
    "DivergenceError",
    "IterateRecord",
    "Schedule",
    "ScheduleConstants",
    "Trajectory",
    "rs_schedule",
    "rs_step",
    "run",
    "sa_schedule",
    "sa_step",
    "trajectory_csv",
    "OracleReport",
    "SampleRegion",
    "check_descent_lemma",
    "check_rs_decay",
    "check_rs_estimator",
    "check_sa_dfactor",
    "check_sphere_moments",
    "estimate_pl_constants",
]

__version__ = "0.1.0"

#: The tail of ``__all__``, served by ``__getattr__`` (PEP 562) from ``.oracle``, imported on first use.
_ORACLE_NAMES = frozenset(__all__[__all__.index("OracleReport"):])


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
