"""The package calls the benchmark harness makes, made the same way at tiny sizes.

The harness under ``bench/`` times module functions by name, with
positional arguments and keyword names of its own. Tier-1 never runs it, so
this test makes each of those calls here and checks only that it returns: a
renamed or reshaped name fails here, not only in a traced benchmark run. It
imports nothing from ``bench/``; a change to the harness's calls changes it.
"""

import dataclasses

import numpy as np

import flatmin as fm
from flatmin import cli


def _wrapped(obj):
    """``obj`` with every callable field, its base's too, replaced by a positional pass-through, as the tracer wraps them."""
    changes = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = _wrapped(value)
        elif callable(value):
            changes[f.name] = lambda *args, _fn=value: _fn(*args)
    return dataclasses.replace(obj, **changes)


def test_the_calls_of_the_benchmark_return(tmp_path):
    hyp = fm.build_hyperbola()
    ss = fm.build_scalar_factorization([1.0, 0.7, 1.3, 1.6], 1.0)
    rng = fm.RngStream(0)
    x = np.array([1.5, 1.0 / 1.5 + 1e-3])

    fm.rs_step(hyp, x, 1e-3, 0.01, rng)
    fm.sa_step(ss, x, 1e-3, 0.01, 1e-12, rng)
    g, v = fm.sample_sphere(2, rng), fm.sample_sphere(2, rng)
    fm.proj_out(g, v)
    fm.trace_at_flow_limit(ss.base, x)
    region = fm.SampleRegion(low=(-2.2, -2.2), high=(2.2, 2.2), predicate=lambda p: abs(p[0]) >= 0.5, axis_probes=False)
    region.draw(4, fm.RngStream(1))
    fm.check_rs_decay(hyp, np.array([1.2, 1.0 / 1.2]), 0.02, 0.01, 64, 0)

    data = {
        "landscape": {"kind": "hyperbola"},
        "algorithm": "RS",
        "x0": [3.0, 1.0 / 3.0],
        "eps": 0.01,
        "delta": 0.2,
        "constants": {"c_eta": 5.0, "c_rho": 2.5, "c_eps0": 10.0},
        "budget_cap": 20,
        "seeds": [0],
        "log_cadence": 10,
        "tr_cadence": 10,
        "certify": {"eps": 0.05, "eps_prime": 0.3},
    }
    cfg = cli.ExperimentConfig.from_dict(data)
    obj, sched = cli.build_schedule(cfg)
    assert isinstance(sched, fm.Schedule)
    cli.execute_run(cfg, tmp_path, threads=1)

    for objective, algorithm in ((hyp, "RS"), (ss, "SA")):
        traced = _wrapped(objective)
        fm.run(traced, algorithm, np.array([3.0, 1.0 / 3.0]), sched, fm.RngStream(0), log_cadence=10, tr_cadence=10)
