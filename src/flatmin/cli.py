"""Batch experiment runner, flatness certifier, and verification front-end.

Subcommands:
  run      execute seeded runs from a JSON config, writing per-seed CSV/JSON
           trajectories plus a summary JSON
  sweep    cartesian product over listed parameter values, one run per combo
  certify  flatness certificate for a point on a landscape
  verify   run the brute-force verification suite

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 clean certification failure.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import numbers
import os
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .geometry import RngStream
from .objectives import LandscapeSpec, SampleSumObjective, base_of, build_landscape, canonical_minimum
from .flow import FlowConvergenceError, certify_flat
from .optimizers import (
    ALGORITHMS,
    DEFAULT_BUDGET_CAP,
    DegenerateSampleError,
    DivergenceError,
    ScheduleConstants,
    rs_schedule,
    sa_schedule,
    run as run_algorithm,
    trajectory_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CERT_FAIL = 3


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def read_json(path: str):
    """Parsed JSON of the file at ``path``; a syntax error is reported as ``path:line:col``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None


# Field parsers: each takes the key (for messages) and the JSON value, and
# returns the parsed value or raises ConfigError naming the key. JSON's
# true/false are bools, never numbers.


def _real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _rule(test, expected: str, convert):
    def parse(key: str, value):
        if not test(value):
            raise ConfigError(f"{key} must be {expected}, got {value!r}")
        return convert(value)

    return parse


_object = _rule(lambda v: isinstance(v, dict), "a JSON object", dict)
_text = _rule(lambda v: isinstance(v, str), "a string", str)
_positive = _rule(lambda v: _real(v) and 0.0 < v < math.inf, "a positive finite number", float)
_unit_interval = _rule(lambda v: _real(v) and 0.0 < v < 1.0, "a number in (0, 1)", float)
_count = _rule(lambda v: _integer(v) and v >= 1, "an integer >= 1", int)
_natural = _rule(lambda v: _integer(v) and v >= 0, "an integer >= 0", int)
_point = _rule(
    lambda v: isinstance(v, list) and v and all(_real(c) and math.isfinite(c) for c in v),
    "a nonempty list of finite numbers",
    lambda v: [float(c) for c in v],
)
_seeds = _rule(
    lambda v: isinstance(v, list) and v and all(_integer(s) and s >= 0 for s in v),
    "a nonempty list of integers >= 0",
    lambda v: [int(s) for s in v],
)


def _algorithm(key: str, value) -> str:
    if not (isinstance(value, str) and value.upper() in ALGORITHMS):
        raise ConfigError(f"unknown {key} {value!r}; known: {list(ALGORITHMS)}")
    return value.upper()


def _landscape(key: str, value) -> LandscapeSpec:
    data = _object(key, value)
    for name, param in data.items():
        if name != "kind" and not (_real(param) or (isinstance(param, list) and all(map(_real, param)))):
            raise ConfigError(f"{key}.{name} must be a number or a list of numbers, got {param!r}")
    try:
        return LandscapeSpec.from_dict(data)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _constants(key: str, value) -> ScheduleConstants:
    data = {k: _positive(f"{key}.{k}", v) for k, v in _object(key, value).items()}
    known = sorted(f.name for f in fields(ScheduleConstants))
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"{key}: unknown schedule constants {unknown}; known: {known}")
    return ScheduleConstants(**data)


def _certify(key: str, value) -> dict:
    """The ``eps``/``eps_prime`` thresholds of a flatness certificate."""
    data = _object(key, value)
    if set(data) != {"eps", "eps_prime"}:
        raise ConfigError(f"{key} needs the keys 'eps' and 'eps_prime' and no others, got {sorted(data)}")
    return {k: _positive(f"{key}.{k}", data[k]) for k in ("eps", "eps_prime")}


@dataclass
class ExperimentConfig:
    """One batch of seeded runs: landscape, algorithm, schedule inputs, seeds.

    The fields are the config's JSON keys, in the order ``to_dict`` writes
    them; each field's metadata names its parser and, where the JSON form
    differs from the value, its serializer. A field defaulting to None is
    optional and left out of ``to_dict`` when unset.
    """

    landscape: LandscapeSpec = field(metadata={"parse": _landscape, "dump": LandscapeSpec.to_dict})
    algorithm: str = field(metadata={"parse": _algorithm})
    x0: list = field(metadata={"parse": _point})
    eps: float = field(metadata={"parse": _positive})
    delta: float = field(metadata={"parse": _unit_interval})
    seeds: list = field(metadata={"parse": _seeds})
    constants: ScheduleConstants = field(
        default_factory=ScheduleConstants, metadata={"parse": _constants, "dump": asdict}
    )
    budget_cap: int = field(default=DEFAULT_BUDGET_CAP, metadata={"parse": _count})
    log_cadence: int | None = field(default=None, metadata={"parse": _count})
    tr_cadence: int | None = field(default=None, metadata={"parse": _count})
    certify: dict | None = field(default=None, metadata={"parse": _certify})
    out: str | None = field(default=None, metadata={"parse": _text})

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        data = _object("config", data)
        schema = fields(ExperimentConfig)
        required = [f.name for f in schema if f.default is MISSING and f.default_factory is MISSING]
        missing = [k for k in required if k not in data]
        if missing:
            raise ConfigError(f"config missing required fields: {missing}")
        unknown = sorted(set(data) - {f.name for f in schema})
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}; known: {[f.name for f in schema]}")
        return ExperimentConfig(
            **{
                f.name: f.metadata["parse"](f.name, data[f.name])
                for f in schema
                if f.name in data and not (data[f.name] is None and f.default is None)
            }
        )

    def to_dict(self) -> dict:
        """JSON form of the config, which ``from_dict`` parses back to an equal config."""
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                data[f.name] = f.metadata.get("dump", copy.copy)(value)
        return data


def _build(spec: LandscapeSpec, point: list, key: str):
    """The landscape of ``spec``, checked to have the dimension of ``point``."""
    try:
        obj = build_landscape(spec)
    except ValueError as exc:
        raise ConfigError(f"landscape: {exc}") from None
    dim = base_of(obj).dim
    if len(point) != dim:
        raise ConfigError(f"{key} has {len(point)} coordinates, landscape has dimension {dim}")
    return obj


def _out_dir(path) -> Path:
    """``path``, made a directory now, so a path that cannot be one fails before any computing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot write {out}: {exc}") from None
    return out


def build_schedule(cfg: ExperimentConfig):
    obj = _build(cfg.landscape, cfg.x0, "x0")
    base = base_of(obj)
    if cfg.algorithm == "SA" and not isinstance(obj, SampleSumObjective):
        raise ConfigError(f"algorithm SA needs a sample-sum landscape, got {cfg.landscape.kind!r}")
    try:
        if cfg.algorithm == "SA":
            sched = sa_schedule(cfg.eps, cfg.delta, base.dim, base.lipschitz_grad_hint, cfg.constants, cfg.budget_cap)
        else:
            sched = rs_schedule(cfg.eps, cfg.delta, base.lipschitz_grad_hint, cfg.constants, cfg.budget_cap)
    except (ValueError, OverflowError) as exc:
        # A power of a tiny eps or delta overflows, or a step size underflows to 0.
        raise ConfigError(f"eps, delta and constants give no schedule: {exc}") from None
    return obj, sched


def _run_one_seed(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    """Execute one seed and write its artifacts; safe to call in a worker process."""
    entry: dict = {"seed": seed}
    obj, sched = build_schedule(cfg)
    try:
        traj = run_algorithm(
            obj,
            cfg.algorithm,
            np.array(cfg.x0),
            sched,
            RngStream(seed),
            log_cadence=cfg.log_cadence,
            tr_cadence=cfg.tr_cadence,
        )
    except (DivergenceError, DegenerateSampleError, FlowConvergenceError) as exc:
        entry["status"] = "numerical-failure"
        entry["error"] = f"{type(exc).__name__}: {exc}"
        return entry
    (out_dir / f"seed_{seed}.csv").write_text(trajectory_csv(traj))
    (out_dir / f"seed_{seed}.json").write_text(json.dumps(traj.to_dict(), indent=2))
    entry.update(
        {
            "status": "ok",
            "returned_index": traj.returned_index,
            "returned_x": list(traj.returned_x),
            "final_x": list(traj.final_x),
            "final_f": traj.records[-1].f,
            "final_grad_norm": traj.records[-1].grad_norm,
            "final_tr_phi": traj.records[-1].tr_phi,
            "initial_tr_phi": traj.records[0].tr_phi,
            "n_perturbed": traj.n_perturbed,
            "n_gd": traj.n_gd,
            "descent_violations": traj.descent_violations,
            "descent_max_slack": traj.descent_max_slack,
        }
    )
    if cfg.certify is not None:
        try:
            cert = certify_flat(obj, np.array(traj.returned_x), cfg.certify["eps"], cfg.certify["eps_prime"])
            entry["certificate"] = asdict(cert)
        except FlowConvergenceError as exc:
            entry["status"] = "numerical-failure"
            entry["error"] = f"certify: {exc}"
    return entry


def execute_run(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> int:
    """Fan the config's seeds out to at most ``threads`` worker processes and write the joined summary.

    A config that builds no landscape or schedule raises :class:`ConfigError`
    before ``out_dir`` is made, as does an ``out_dir`` that cannot be made.
    """
    build_schedule(cfg)
    _out_dir(out_dir)
    # The pool starts all its workers up front; one per seed is the most that can work.
    workers = min(threads, len(cfg.seeds))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_one_seed, cfg, s, out_dir) for s in cfg.seeds]
            entries = [f.result() for f in futures]
    else:
        entries = [_run_one_seed(cfg, s, out_dir) for s in cfg.seeds]
    finals = [e["final_tr_phi"] for e in entries if e.get("status") == "ok" and e.get("final_tr_phi") is not None]
    summary = {
        "config": cfg.to_dict(),
        "seeds": entries,
        "median_final_tr_phi": float(np.median(finals)) if finals else None,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    if any(e.get("status") != "ok" for e in entries):
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_run(args) -> int:
    _count("--threads", args.threads)
    cfg = ExperimentConfig.from_dict(read_json(args.config))
    if args.seed is not None:
        cfg.seeds = [_natural("--seed", args.seed)]
    out_dir = Path(args.out or cfg.out or "flatmin_out")
    code = execute_run(cfg, out_dir, threads=args.threads)
    print(f"wrote artifacts to {out_dir}")
    return code


def _expand_sweep(data: dict) -> list[tuple[str, dict]]:
    """``(label, config)`` for each combination of the ``sweep`` block's values."""
    sweep = data.pop("sweep")
    if not (isinstance(sweep, dict) and sweep and all(isinstance(v, list) and v for v in sweep.values())):
        raise ConfigError(f"sweep must map keys to nonempty lists of values, got {sweep!r}")
    keys = sorted(sweep)
    combos = []
    for values in itertools.product(*(sweep[k] for k in keys)):
        combo = json.loads(json.dumps(data))
        label = []
        for key, value in zip(keys, values):
            target = combo
            parts = key.split(".")
            for part in parts[:-1]:
                target = target.setdefault(part, {})
                if not isinstance(target, dict):
                    raise ConfigError(f"sweep key {key!r}: {part!r} is not a JSON object")
            target[parts[-1]] = value
            label.append(f"{parts[-1]}={value}")
        combos.append(("_".join(label), combo))
    return combos


def cmd_sweep(args) -> int:
    _count("--threads", args.threads)
    data = _object("config", read_json(args.config))
    if "sweep" not in data:
        raise ConfigError("sweep command needs a 'sweep' block")
    combos = []
    for label, combo in _expand_sweep(data):
        try:
            if any(ch in label for ch in ("/", os.sep, "\0")):
                raise ConfigError(f"label {label!r} is not one directory name (it has a path separator or NUL)")
            cfg = ExperimentConfig.from_dict(combo)
            build_schedule(cfg)
        except ConfigError as exc:
            raise ConfigError(f"in combo {label}: {exc}") from None
        combos.append((label, cfg))
    out_root = _out_dir(args.out or combos[0][1].out or "flatmin_sweep")
    subs = [_out_dir(out_root / f"combo_{k:03d}_{label}") for k, (label, _) in enumerate(combos)]
    worst = EXIT_OK
    index = []
    for k, ((label, cfg), sub) in enumerate(zip(combos, subs)):
        code = execute_run(cfg, sub, threads=args.threads)
        worst = max(worst, code)
        index.append({"combo": label, "dir": sub.name, "exit": code})
        print(f"[{k + 1}/{len(combos)}] {label}: exit {code}")
    (out_root / "sweep_index.json").write_text(json.dumps(index, indent=2))
    return worst


def _certify_flags(args) -> dict:
    """The certify config given by --landscape/--x/--eps/--eps-prime."""
    try:
        landscape = json.loads(args.landscape)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--landscape: {exc}") from None
    try:
        x = [float(v) for v in args.x.split(",")]
    except ValueError:
        raise ConfigError(f"--x must be comma-separated numbers, got {args.x!r}") from None
    return {"landscape": landscape, "x": x, "eps": args.eps, "eps_prime": args.eps_prime}


def cmd_certify(args) -> int:
    if not (args.config or (args.landscape and args.x and args.eps is not None and args.eps_prime is not None)):
        raise ConfigError("certify needs --config or all of --landscape/--x/--eps/--eps-prime")
    data = _object("config", read_json(args.config) if args.config else _certify_flags(args))
    spec = _landscape("landscape", data.pop("landscape", None))
    x = _point("x", data.pop("x", None))
    bounds = _certify("certify", data)
    obj = _build(spec, x, "x")
    out = _out_dir(args.out) if args.out else None
    try:
        cert = certify_flat(obj, np.array(x), bounds["eps"], bounds["eps_prime"])
    except FlowConvergenceError as exc:
        print(f"flow failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(cert.to_json())
    if out:
        (out / "certificate.json").write_text(cert.to_json())
    return EXIT_OK if cert.passed else EXIT_CERT_FAIL


def _verify_checks(n_samples: int, seed: int) -> dict:
    """Each verify check by name, as ``(least --n it accepts, closure)``.

    descent-lemma and pl-constants do not read ``n_samples``; they take any
    count from 0.
    """
    from . import oracle

    hyperbola = build_landscape(LandscapeSpec("hyperbola"))
    # The estimator checks' point on the hyperbola's minima set.
    x = np.array([1.2, 1.0 / 1.2])

    def sphere_moments():
        return oracle.check_sphere_moments(5, n_samples, RngStream(seed))

    def rs_estimator():
        return oracle.check_rs_estimator(hyperbola, x, 0.01, n_samples, RngStream(seed))

    def rs_decay():
        return oracle.check_rs_decay(hyperbola, x, 0.02, 0.01, n_samples, seed)

    def sa_dfactor():
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        obj = build_landscape(spec)
        return oracle.check_sa_dfactor(obj, canonical_minimum(spec), 0.01, n_samples, RngStream(seed))

    def descent_lemma():
        sched = rs_schedule(0.01, 0.2, hyperbola.lipschitz_grad_hint, budget_cap=2000)
        # The check reads no trace column; a cadence of the whole budget leaves 2 trace solves of 201.
        x0 = np.array([1.5, 1 / 1.5])
        traj = run_algorithm(hyperbola, "RS", x0, sched, RngStream(seed), log_cadence=1, tr_cadence=sched.steps)
        return oracle.check_descent_lemma(traj, hyperbola.lipschitz_grad_hint)

    def pl_constants():
        def near_manifold(p):
            u, v = p
            return 0.5 <= abs(u) <= 2.0 and abs(u * v - 1.0) / np.hypot(u, v) <= 0.1

        region = oracle.SampleRegion(
            low=(-2.2, -2.2), high=(2.2, 2.2), predicate=near_manifold, axis_probes=False
        )
        alpha, beta = oracle.estimate_pl_constants(hyperbola, region, 200, RngStream(seed))
        return oracle.OracleReport(
            name="pl-constants",
            n_samples=200,
            measured=[alpha, beta],
            reference=None,
            rel_error=0.0 if 0.0 < alpha <= beta else float("inf"),
            tolerance=1.0,
        )

    return {
        "sphere-moments": (oracle.SPHERE_MOMENTS_LEAST_N, sphere_moments),
        "rs-estimator": (oracle.RS_ESTIMATOR_LEAST_N, rs_estimator),
        "rs-decay": (oracle.RS_ESTIMATOR_LEAST_N, rs_decay),
        "sa-dfactor": (oracle.SA_DFACTOR_LEAST_N, sa_dfactor),
        "descent-lemma": (0, descent_lemma),
        "pl-constants": (0, pl_constants),
    }


def cmd_verify(args) -> int:
    checks = _verify_checks(args.n, _natural("--seed", args.seed))
    if args.suite == "all":
        names = list(checks)
    else:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        unknown = [n for n in names if n not in checks]
        if unknown:
            raise ConfigError(f"unknown checks {unknown}; known: {sorted(checks)}")
        if not names:
            raise ConfigError(f"--suite names no check; known: {sorted(checks)}")
    least, check = max((checks[c][0], c) for c in names)
    if args.n < least:
        raise ConfigError(f"--n must be at least {least}, the least sample count of {check}; got {args.n}")
    out = _out_dir(args.out) if args.out else None
    reports = [checks[name][1]() for name in names]
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "n/a " if r.not_applicable else ("PASS" if r.passed else "FAIL")
        print(f"{r.name:<{width}}  {status}  n={r.n_samples:<9d} err={r.rel_error:.3e}  tol={r.tolerance:.3e}")
    if out:
        (out / "verify.json").write_text(json.dumps([r.to_dict() for r in reports], indent=2))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argparse parser that raises its usage errors as :class:`ConfigError`; its subparsers are ``_Parser`` too."""

        def error(self, message):
            raise ConfigError(message)

    parser = _Parser(prog="flatmin", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute seeded runs from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment JSON config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="run only this seed, overriding the config list")
    p_run.add_argument("--threads", type=int, default=1, help="seed worker processes (at most one per seed)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="cartesian product over listed parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--threads", type=int, default=1, help="seed worker processes per combination")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cert = sub.add_parser("certify", help="flatness certificate for a point")
    p_cert.add_argument("--config", default=None, help="JSON with landscape/x/eps/eps_prime")
    p_cert.add_argument("--landscape", default=None, help="landscape spec as inline JSON")
    p_cert.add_argument("--x", default=None, help="comma-separated point coordinates")
    p_cert.add_argument("--eps", type=float, default=None)
    p_cert.add_argument("--eps-prime", dest="eps_prime", type=float, default=None)
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(func=cmd_certify)

    p_ver = sub.add_parser("verify", help="run the verification suite")
    p_ver.add_argument("--suite", default="all", help="'all' or comma-separated check names")
    p_ver.add_argument("--n", type=int, default=1_000_000, help="Monte-Carlo sample count")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run the command of ``argv``; every usage error ends here as one ``config error:`` line and exit 1."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
