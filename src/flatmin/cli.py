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

import argparse
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import RngStream
from .objectives import LandscapeSpec, SampleSumObjective, build_landscape, canonical_minimum
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
from . import oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_CERT_FAIL = 3


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class ExperimentConfig:
    """One batch of seeded runs: landscape, algorithm, schedule inputs, seeds."""

    landscape: LandscapeSpec
    algorithm: str
    x0: list
    eps: float
    delta: float
    seeds: list
    constants: ScheduleConstants = field(default_factory=ScheduleConstants)
    budget_cap: int = DEFAULT_BUDGET_CAP
    log_cadence: int | None = None
    tr_cadence: int | None = None
    certify: dict | None = None
    out: str | None = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        required = ["landscape", "algorithm", "x0", "eps", "delta", "seeds"]
        missing = [k for k in required if k not in data]
        if missing:
            raise ConfigError(f"config missing required fields: {missing}")
        algorithm = str(data["algorithm"]).upper()
        if algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {data['algorithm']!r}; known: {list(ALGORITHMS)}")
        eps = float(data["eps"])
        delta = float(data["delta"])
        if eps <= 0:
            raise ConfigError(f"eps must be positive, got {eps}")
        if not (0.0 < delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {delta}")
        seeds = [int(s) for s in data["seeds"]]
        if not seeds:
            raise ConfigError("seeds must be a nonempty list")
        x0 = [float(v) for v in data["x0"]]
        if not all(np.isfinite(x0)):
            raise ConfigError(f"x0 must be finite, got {x0}")
        certify = data.get("certify")
        if certify is not None:
            if not {"eps", "eps_prime"} <= set(certify):
                raise ConfigError("certify block needs 'eps' and 'eps_prime'")
            certify = {"eps": float(certify["eps"]), "eps_prime": float(certify["eps_prime"])}
        try:
            spec = LandscapeSpec.from_dict(data["landscape"])
            constants = ScheduleConstants.from_dict(data.get("constants"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return ExperimentConfig(
            landscape=spec,
            algorithm=algorithm,
            x0=x0,
            eps=eps,
            delta=delta,
            seeds=seeds,
            constants=constants,
            budget_cap=int(data.get("budget_cap", DEFAULT_BUDGET_CAP)),
            log_cadence=data.get("log_cadence"),
            tr_cadence=data.get("tr_cadence"),
            certify=certify,
            out=data.get("out"),
        )


def load_config(path: str) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    return ExperimentConfig.from_dict(data)


def build_schedule(cfg: ExperimentConfig):
    obj = build_landscape(cfg.landscape)
    base = obj.base if isinstance(obj, SampleSumObjective) else obj
    beta = base.lipschitz_grad_hint
    if cfg.algorithm == "SA":
        if not isinstance(obj, SampleSumObjective):
            raise ConfigError(f"algorithm SA needs a sample-sum landscape, got {cfg.landscape.kind!r}")
        sched = sa_schedule(cfg.eps, cfg.delta, base.dim, beta, cfg.constants, cfg.budget_cap)
    else:
        sched = rs_schedule(cfg.eps, cfg.delta, beta, cfg.constants, cfg.budget_cap)
    return obj, sched


def _run_one_seed(cfg_data: dict, seed: int, out_dir: str) -> dict:
    """Execute one seed and write its artifacts; safe to call in a worker process."""
    cfg = ExperimentConfig.from_dict(cfg_data)
    out = Path(out_dir)
    entry: dict = {"seed": seed}
    try:
        obj, sched = build_schedule(cfg)
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
    (out / f"seed_{seed}.csv").write_text(trajectory_csv(traj))
    (out / f"seed_{seed}.json").write_text(json.dumps(traj.to_dict(), indent=2))
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
            "descent_max_slack": traj.descent_max_slack_json,
        }
    )
    if cfg.certify is not None:
        obj2 = build_landscape(cfg.landscape)
        try:
            cert = certify_flat(
                obj2, np.array(traj.returned_x), cfg.certify["eps"], cfg.certify["eps_prime"]
            )
            entry["certificate"] = json.loads(cert.to_json())
        except FlowConvergenceError as exc:
            entry["status"] = "numerical-failure"
            entry["error"] = f"certify: {exc}"
    return entry


def execute_run(cfg: ExperimentConfig, out_dir: Path, threads: int = 1) -> int:
    """Fan the config's seeds out to workers and write the joined summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_data = config_to_dict(cfg)
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_one_seed, cfg_data, s, str(out_dir)) for s in cfg.seeds]
            entries = [f.result() for f in futures]
    else:
        entries = [_run_one_seed(cfg_data, s, str(out_dir)) for s in cfg.seeds]
    finals = [e["final_tr_phi"] for e in entries if e.get("status") == "ok" and e.get("final_tr_phi") is not None]
    summary = {
        "config": cfg_data,
        "seeds": entries,
        "median_final_tr_phi": float(np.median(finals)) if finals else None,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2))
    if any(e.get("status") != "ok" for e in entries):
        return EXIT_NUMERICAL
    return EXIT_OK


def config_to_dict(cfg: ExperimentConfig) -> dict:
    data = {
        "landscape": cfg.landscape.to_dict(),
        "algorithm": cfg.algorithm,
        "x0": list(cfg.x0),
        "eps": cfg.eps,
        "delta": cfg.delta,
        "seeds": list(cfg.seeds),
        "constants": {
            "c_eta": cfg.constants.c_eta,
            "c_rho": cfg.constants.c_rho,
            "c_eps0": cfg.constants.c_eps0,
            "c_T": cfg.constants.c_T,
        },
        "budget_cap": cfg.budget_cap,
    }
    if cfg.log_cadence is not None:
        data["log_cadence"] = cfg.log_cadence
    if cfg.tr_cadence is not None:
        data["tr_cadence"] = cfg.tr_cadence
    if cfg.certify is not None:
        data["certify"] = dict(cfg.certify)
    if cfg.out is not None:
        data["out"] = cfg.out
    return data


def cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        cfg.seeds = [args.seed]
    out_dir = Path(args.out or cfg.out or "flatmin_out")
    try:
        code = execute_run(cfg, out_dir, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote artifacts to {out_dir}")
    return code


def _expand_sweep(data: dict) -> list[dict]:
    sweep = data.pop("sweep", None)
    if not sweep:
        return [data]
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
            target[parts[-1]] = value
            label.append(f"{parts[-1]}={value}")
        combo["_label"] = "_".join(label)
        combos.append(combo)
    return combos


def cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text()
        data = json.loads(text)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_USAGE
    if "sweep" not in data:
        print("config error: sweep command needs a 'sweep' block", file=sys.stderr)
        return EXIT_USAGE
    combos = _expand_sweep(data)
    out_root = Path(args.out or data.get("out") or "flatmin_sweep")
    worst = EXIT_OK
    index = []
    for k, combo in enumerate(combos):
        label = combo.pop("_label")
        try:
            cfg = ExperimentConfig.from_dict(combo)
        except ConfigError as exc:
            print(f"config error in combo {label}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        sub = out_root / f"combo_{k:03d}_{label}"
        code = execute_run(cfg, sub, threads=args.threads)
        worst = max(worst, code)
        index.append({"combo": label, "dir": sub.name, "exit": code})
        print(f"[{k + 1}/{len(combos)}] {label}: exit {code}")
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "sweep_index.json").write_text(json.dumps(index, indent=2))
    return worst


def cmd_certify(args) -> int:
    try:
        if args.config:
            data = json.loads(Path(args.config).read_text())
        else:
            if not (args.landscape and args.x and args.eps is not None and args.eps_prime is not None):
                print("certify needs --config or all of --landscape/--x/--eps/--eps-prime", file=sys.stderr)
                return EXIT_USAGE
            data = {
                "landscape": json.loads(args.landscape),
                "x": [float(v) for v in args.x.split(",")],
                "eps": args.eps,
                "eps_prime": args.eps_prime,
            }
        spec = LandscapeSpec.from_dict(data["landscape"])
        x = np.array([float(v) for v in data["x"]])
        eps = float(data["eps"])
        eps_prime = float(data["eps_prime"])
    except (OSError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"config error at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_USAGE
    obj = build_landscape(spec)
    try:
        cert = certify_flat(obj, x, eps, eps_prime)
    except FlowConvergenceError as exc:
        print(f"flow failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(cert.to_json())
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "certificate.json").write_text(cert.to_json())
    return EXIT_OK if cert.passed else EXIT_CERT_FAIL


def _verify_checks(n_samples: int, seed: int) -> dict:
    hyperbola_spec = LandscapeSpec("hyperbola")

    def sphere_moments():
        return oracle.check_sphere_moments(5, n_samples, RngStream(seed))

    def rs_estimator():
        obj = build_landscape(hyperbola_spec)
        x = np.array([1.2, 1.0 / 1.2])
        return oracle.check_rs_estimator(obj, x, 0.01, n_samples, RngStream(seed))

    def rs_decay():
        obj = build_landscape(hyperbola_spec)
        x = np.array([1.2, 1.0 / 1.2])
        return oracle.check_rs_decay(obj, x, 0.02, 0.01, n_samples, seed)

    def sa_dfactor():
        spec = LandscapeSpec("orthogonal_quadratic_model", {"d": 4, "n": 2, "y": [0.5, 0.5]})
        obj = build_landscape(spec)
        return oracle.check_sa_dfactor(obj, canonical_minimum(spec), 0.01, n_samples, RngStream(seed))

    def descent_lemma():
        obj = build_landscape(hyperbola_spec)
        sched = rs_schedule(0.01, 0.2, obj.lipschitz_grad_hint, budget_cap=2000)
        # The check reads no trace column; a cadence of the whole budget leaves 2 trace solves of 201.
        x0 = np.array([1.5, 1 / 1.5])
        traj = run_algorithm(obj, "RS", x0, sched, RngStream(seed), log_cadence=1, tr_cadence=sched.steps)
        return oracle.check_descent_lemma(traj, obj.lipschitz_grad_hint)

    def pl_constants():
        obj = build_landscape(hyperbola_spec)

        def near_manifold(p):
            u, v = p
            return 0.5 <= abs(u) <= 2.0 and abs(u * v - 1.0) / np.hypot(u, v) <= 0.1

        region = oracle.SampleRegion(
            low=(-2.2, -2.2), high=(2.2, 2.2), predicate=near_manifold, axis_probes=False
        )
        alpha, beta = oracle.estimate_pl_constants(obj, region, 200, RngStream(seed))
        ok = 0.0 < alpha <= beta
        return oracle.OracleReport(
            name="pl-constants",
            n_samples=200,
            measured=[alpha, beta],
            reference=None,
            rel_error=0.0 if ok else float("inf"),
            tolerance=1.0,
            passed=ok,
        )

    return {
        "sphere-moments": sphere_moments,
        "rs-estimator": rs_estimator,
        "rs-decay": rs_decay,
        "sa-dfactor": sa_dfactor,
        "descent-lemma": descent_lemma,
        "pl-constants": pl_constants,
    }


def cmd_verify(args) -> int:
    checks = _verify_checks(args.n, args.seed)
    if args.suite == "all":
        names = list(checks)
    else:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        unknown = [n for n in names if n not in checks]
        if unknown:
            print(f"unknown checks {unknown}; known: {sorted(checks)}", file=sys.stderr)
            return EXIT_USAGE
    reports = [checks[name]() for name in names]
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "n/a " if r.not_applicable else ("PASS" if r.passed else "FAIL")
        print(f"{r.name:<{width}}  {status}  n={r.n_samples:<9d} err={r.rel_error:.3e}  tol={r.tolerance:.3e}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify.json").write_text(json.dumps([r.to_dict() for r in reports], indent=2))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flatmin", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute seeded runs from a JSON config")
    p_run.add_argument("--config", required=True, help="path to the experiment JSON config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="run only this seed, overriding the config list")
    p_run.add_argument("--threads", type=int, default=1, help="seed worker processes")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="cartesian product over listed parameter values")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--threads", type=int, default=1)
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
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
