#!/usr/bin/env python3
"""Benchmark of flatmin: four workloads timed end to end, and a traced run per layer.

    python3 bench/run.py --workload escape-rs --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 15 --trace 0

A run times the set-up (importing the package from ``src/`` next to this
directory and building the workload's landscapes) in fresh interpreters,
then repeats whole rounds of the workload's operations until ``--seconds``
have passed. Every operation's output is checked against closed forms or
properties of the method. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A workload's operations run in one process and thread; ``--workload all``
runs the workloads one after another, each in a process of its own. See
``bench/README.md``.
"""

from __future__ import annotations

import os

# One thread throughout, numpy's BLAS included; must precede the numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import hashlib
import importlib.metadata
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import layers
from layers import ESCAPE_CONFIG, FACTOR_A, SA_LOG_CADENCE
from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
#: Set-ups are timed SETUP_FIRST times before the operations, after an
#: operation once SETUP_EVERY_S seconds have passed since the last, and at the
#: end until there are SETUP_SAMPLES; the fastest is reported. Spread over the
#: run, several fall in a fast phase of the host. They are not timed beside
#: the operations: on the host measured, a set-up on the second CPU took 1.5x
#: as long as one alone.
SETUP_FIRST, SETUP_EVERY_S, SETUP_SAMPLES = 6, 1.0, 24
#: One set-up as a user meets it: a fresh interpreter that has imported numpy
#: imports flatmin and its CLI module and builds the landscapes.
SETUP_CHILD = """
import json, sys, time
import numpy
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import flatmin, flatmin.cli
t1 = time.perf_counter()
for spec in json.loads(sys.argv[2]):
    flatmin.build_landscape(flatmin.LandscapeSpec.from_dict(spec))
t2 = time.perf_counter()
print(json.dumps({"file": flatmin.__file__, "setup_s": t2 - t0, "build_s": t2 - t1}))
"""

#: The acceptance suite's 20 escape seeds; each workload seed picks a subset.
ESCAPE_SEEDS = 20
M2_FACTOR = sum(a * a for a in FACTOR_A) / len(FACTOR_A)
#: Initial trace at x0 = (3, 1/3): sqrt((9 - 1/9)^2 + 4) = 9 + 1/9.
X0_TRACE = 9.0 + 1.0 / 9.0


@dataclass
class Op:
    kind: str
    label: str
    fn: Callable[[], object]
    inputs: dict = field(default_factory=dict)


@dataclass
class OpResult:
    op: Op
    seconds: float
    output: object = None
    error: str | None = None
    problems: list = field(default_factory=list)


class Workload:
    """One set of inputs; subclasses define the operations, their checks and their metrics."""

    name = ""
    landscapes: list = []

    def __init__(self, fm, cli, objs, seed: int, tracer: Tracer):
        self.fm, self.cli, self.objs, self.tr = fm, cli, objs, tracer
        self.rng = np.random.default_rng(seed)

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def check(self, res: OpResult) -> list[str]:
        return []

    def final_problems(self) -> list[str]:
        """Checks over all the round's operations, after the run."""
        return []

    def work(self, res: OpResult) -> float:
        """Work items of one successful operation: optimizer steps, certificates or samples."""
        return 1.0

    def outcome(self) -> dict:
        """Figures of the method's result, printed beside the metrics."""
        return {}

    def trace_extras(self, res: OpResult) -> None:
        """Traced run only: re-measure parts of an opaque operation (outside its timing)."""

    def self_time_ids(self, run_ids) -> set:
        """Span groups whose self times give the per-module split of a round."""
        return run_ids


def _escape_outcome(escape: dict, finals: dict) -> dict:
    """Median escape step (None when no seed escaped) and each seed's final trace."""
    steps = [v for v in escape.values() if v is not None]
    return {"escape_steps": statistics.median(steps) if steps else None, "final_traces": finals}


class EscapeRS(Workload):
    """The acceptance escape config through ``cli.execute_run``, with artifacts and certificates."""

    name = "escape-rs"
    landscapes = [{"kind": "hyperbola"}]
    n_seeds = 4

    def __init__(self, *args):
        super().__init__(*args)
        self.seeds = sorted(int(s) for s in self.rng.choice(ESCAPE_SEEDS, self.n_seeds, replace=False))
        self.out_dir = OUT / self.name
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        self.files: dict[int, dict] = {}
        self.escape: dict[int, int] = {}
        self.finals: dict[int, float] = {}

    def ops(self):
        ops = [Op("seed", f"seed {s}", partial(self._execute, s, f"seed_{s}"), {"seed": s}) for s in self.seeds]
        s = self.seeds[0]
        return ops + [Op("rerun", f"rerun {s}", partial(self._execute, s, "rerun"), {"seed": s})]

    def _config(self, s):
        return dict(ESCAPE_CONFIG, seeds=[s])

    def _execute(self, s, sub):
        with self.tr.span("cli.ExperimentConfig.from_dict"):
            cfg = self.cli.ExperimentConfig.from_dict(self._config(s))
        with self.tr.span("cli.execute_run"):
            code = self.cli.execute_run(cfg, self.out_dir / sub, threads=1)
        if code != 0:
            raise RuntimeError(f"execute_run exited with {code}")
        return self.out_dir / sub

    def check(self, res):
        s = res.op.inputs["seed"]
        names = (f"seed_{s}.csv", f"seed_{s}.json", "summary.json")
        files = {n: (res.output / n).read_bytes() for n in names}
        if res.op.kind == "rerun":
            return checks.check_identical(self.files.get(s, {}), files)
        self.files[s] = files
        traj = json.loads(files[names[1]])
        entry = json.loads(files["summary.json"])["seeds"][0]
        problems = checks.check_trajectory(traj, 1.0, 1.0, initial_trace=X0_TRACE)
        problems += checks.check_csv_matches(files[names[0]].decode(), traj)
        problems += checks.check_certificate(entry["certificate"], 1.0, 1.0)
        esc = checks.escape_step(traj, 1.0, 1.0)
        if esc is None:
            problems.append(f"seed {s} never came within 10% of the minimal trace")
        self.escape[s] = esc
        self.finals[s] = traj["records"][-1]["tr_phi"]
        return problems

    def final_problems(self):
        return checks.check_final_traces(list(self.finals.values()), 1.0, 1.0) if self.finals else []

    def work(self, res):
        return ESCAPE_CONFIG["budget_cap"]

    def outcome(self):
        return _escape_outcome(self.escape, self.finals)

    def trace_extras(self, res):
        round_id = self.tr.run_id
        self.tr.run_id = round_id + "-parts"
        layers.execute_run_parts(self.fm, self.cli, self.tr, self._config(res.op.inputs["seed"]))
        self.tr.run_id = round_id

    def self_time_ids(self, run_ids):
        # execute_run is opaque to the tracer; its parts, made directly, give the split.
        return {r + "-parts" for r in run_ids}


class EscapeSA(Workload):
    """SA on the n = 4 factorization loss with the matched schedule, through ``optimizers.run``."""

    name = "escape-sa"
    landscapes = [{"kind": "scalar_factorization", "a": FACTOR_A, "c": 1.0}]
    #: Five seeds make a round of about 8 s, so a run ends soon after ``--seconds``.
    n_seeds = 5
    #: Every seed reaches the flat minimum near step 16 000.
    budget = 30_000

    def __init__(self, *args):
        super().__init__(*args)
        self.seeds = sorted(int(s) for s in self.rng.choice(ESCAPE_SEEDS, self.n_seeds, replace=False))
        self.obj = self.tr.wrap_objective(self.objs[0])
        self.sched = layers.sa_schedule_matched(self.fm, self.objs[0], self.budget)
        self.escape: dict[int, int] = {}
        self.finals: dict[int, float] = {}
        self.run_span = None

    def ops(self):
        return [Op("seed", f"seed {s}", partial(self._run, s), {"seed": s}) for s in self.seeds]

    def _run(self, s):
        with self.tr.span("optimizers.run") as sp:
            traj = self.fm.run(
                self.obj, "SA", np.array(ESCAPE_CONFIG["x0"]), self.sched, self.fm.RngStream(s),
                log_cadence=SA_LOG_CADENCE, tr_cadence=SA_LOG_CADENCE,
            )
        self.run_span = sp
        return traj

    def check(self, res):
        s = res.op.inputs["seed"]
        traj = res.output.to_dict()
        problems = checks.check_trajectory(traj, M2_FACTOR, 1.0, initial_trace=M2_FACTOR * X0_TRACE)
        esc = checks.escape_step(traj, M2_FACTOR, 1.0)
        if esc is None:
            problems.append(f"seed {s} never came within 10% of the minimal trace")
        self.escape[s] = esc
        self.finals[s] = traj["records"][-1]["tr_phi"]
        return problems

    def final_problems(self):
        return checks.check_final_traces(list(self.finals.values()), M2_FACTOR, 1.0) if self.finals else []

    def work(self, res):
        return self.budget

    def outcome(self):
        return _escape_outcome(self.escape, self.finals)

    def trace_extras(self, res):
        layers.replay_trace_logging(self.fm, self.tr, self.obj, res.output, self.run_span)


class CertifyManifold(Workload):
    """``flow.certify_flat`` at points on and just off both minima sets, both branches."""

    name = "certify-manifold"
    landscapes = [{"kind": "hyperbola"}, {"kind": "scalar_factorization", "a": FACTOR_A, "c": 1.0}]
    eps, eps_prime = ESCAPE_CONFIG["certify"]["eps"], ESCAPE_CONFIG["certify"]["eps_prime"]

    def __init__(self, *args):
        super().__init__(*args)
        self.wrapped = [self.tr.wrap_objective(layers.base_of(o)) for o in self.objs]
        self.points = self._points()
        self.passed: dict[str, bool] = {}  # by operation label

    def _points(self):
        """Per landscape and branch: the flat point, the sharp escape start, and 12 seeded points.

        A point on {u*v = 1} is b*(e^t, e^-t); off-manifold points move along
        the unit normal (v, u)/|x| by 0.005 to 0.03 either way. The seeded t
        and offsets are stratified (one draw per equal slice of the range), so
        the cost of a round, which depends strongly on t, barely moves with
        the seed.
        """
        rng = self.rng

        def strata(k, lo, hi):
            return rng.permutation(lo + (hi - lo) * (np.arange(k) + rng.random(k)) / k)

        pts = []
        for li, m2 in enumerate((1.0, M2_FACTOR)):
            for b in (1.0, -1.0):
                seeded = []
                for kind, k, width in (("generic", 4, 1.2), ("near-flat", 2, 0.04)):
                    seeded += [(kind, t, 0.0) for t in strata(k, -width, width)]
                    offs = strata(k, 0.005, 0.03) * rng.choice((-1.0, 1.0), size=k)
                    seeded += [(kind + "-off", t, o) for t, o in zip(strata(k, -width, width), offs)]
                for kind, t, off in [("flat", 0.0, 0.0), ("sharp", math.log(3.0), 0.0), *seeded]:
                    u, v = b * math.exp(t), b * math.exp(-t)
                    h = math.hypot(u, v)
                    x = [float(u + off * v / h), float(v + off * u / h)]
                    pts.append({"landscape": li, "m2": m2, "kind": kind, "x": x})
        return pts

    def ops(self):
        return [
            Op("certificate", f"{p['kind']} {self.landscapes[p['landscape']]['kind']} {p['x']}", partial(self._certify, p), p) for p in self.points
        ]

    def _certify(self, p):
        with self.tr.span("flow.certify_flat"):
            cert = self.fm.certify_flat(self.wrapped[p["landscape"]], np.array(p["x"]), self.eps, self.eps_prime)
        return cert

    def check(self, res):
        p = res.op.inputs
        cert = json.loads(res.output.to_json())
        problems = checks.check_certificate(cert, p["m2"], 1.0)
        self.passed[res.op.label] = cert["passed"]
        if p["kind"] == "sharp" and cert["passed"]:
            problems.append(f"sharp point {p['x']} passed certification")
        return problems

    def outcome(self):
        return {"certificates_passed": sum(self.passed.values()), "certificates": len(self.passed)}


class VerifyMC(Workload):
    """The oracle checks at the acceptance-suite inputs and sample counts."""

    name = "verify-mc"
    landscapes = [{"kind": "hyperbola"}] + [
        {"kind": "orthogonal_quadratic_model", "d": d, "n": n, "y": [0.5] * n} for d, n in ((4, 2), (16, 4), (64, 16))
    ]
    n_sphere = 1_000_000
    n_estimator = 1_000_000
    n_decay = 10_000_000
    n_dfactor = 1_000_000
    x_est = (1.2, 1.0 / 1.2)
    rho = 0.01

    def __init__(self, *args):
        super().__init__(*args)
        self.wrapped = [self.tr.wrap_objective(o) for o in self.objs]
        # Oracle streams: distinct per check, all derived from the workload seed.
        self.streams = [int(s) for s in self.rng.integers(0, 2**31, size=8)]
        self.run_span = None

    def ops(self):
        fm, w, st = self.fm, self.wrapped, self.streams
        x = np.array(self.x_est)
        ops = [
            Op("mc", "sphere-moments", partial(self._oracle, fm.check_sphere_moments, 5, self.n_sphere, stream=st[0]),
               {"samples": self.n_sphere, "stream": st[0]}),
            Op("mc", "rs-estimator", partial(self._oracle, fm.check_rs_estimator, w[0], x, self.rho, self.n_estimator,
                                             stream=st[1]),
               {"samples": self.n_estimator, "stream": st[1]}),
            Op("mc", "rs-decay", partial(self._oracle, fm.check_rs_decay, w[0], x, 2 * self.rho, self.rho, self.n_decay,
                                         st[2]),
               {"samples": 2 * self.n_decay, "stream": st[2]}),
        ]
        for k, spec in enumerate(self.landscapes[1:], start=1):
            x_min = np.array([1.0] * spec["n"] + [0.0] * (spec["d"] - spec["n"]))  # x_i^2 = 2*y_i
            ops.append(Op("mc", f"sa-dfactor d={spec['d']}",
                          partial(self._oracle, fm.check_sa_dfactor, w[k], x_min, self.rho, self.n_dfactor,
                                  stream=st[2 + k]),
                          {**spec, "samples": self.n_dfactor, "stream": st[2 + k]}))
        ops.append(Op("pl", "pl-constants", self._pl, {"stream": st[6]}))
        ops.append(Op("descent", "descent-lemma", self._descent, {"stream": st[7]}))
        return ops

    def _oracle(self, fn, *args, stream=None):
        """One oracle call in its span; a stream seed becomes a fresh RngStream on every call."""
        if stream is not None:
            args = (*args, self.fm.RngStream(stream))
        with self.tr.span("oracle." + fn.__name__):
            return fn(*args)

    def _pl(self):
        region = layers.pl_region(self.fm)
        with self.tr.span("oracle.estimate_pl_constants"):
            return self.fm.estimate_pl_constants(self.wrapped[0], region, 200, self.fm.RngStream(self.streams[6]))

    def _descent(self):
        hyp = self.wrapped[0]
        sched = self.fm.rs_schedule(0.01, 0.2, hyp.lipschitz_grad_hint, budget_cap=2000)
        with self.tr.span("optimizers.run") as sp:
            traj = self.fm.run(hyp, "RS", np.array([1.5, 1 / 1.5]), sched, self.fm.RngStream(self.streams[7]),
                               log_cadence=1)
        self.run_span = sp
        with self.tr.span("oracle.check_descent_lemma"):
            rep = self.fm.check_descent_lemma(traj, hyp.lipschitz_grad_hint)
        return traj, rep

    def trace_extras(self, res):
        if res.op.kind == "descent":
            layers.replay_trace_logging(self.fm, self.tr, self.wrapped[0], res.output[0], self.run_span)

    def check(self, res):
        op, out = res.op, res.output
        if op.label == "sphere-moments":
            return checks.check_sphere_report(out.to_dict(), 5, self.n_sphere)
        if op.label == "rs-estimator":
            return checks.check_rs_estimator_report(out.to_dict(), self.x_est, self.rho, 1.0, 1.0)
        if op.label == "rs-decay":
            return checks.check_rs_decay_report(out.to_dict())
        if op.kind == "mc":
            i = op.inputs
            return checks.check_dfactor_report(out.to_dict(), i["d"], i["n"], i["y"])
        if op.kind == "pl":
            points = layers.pl_region(self.fm).draw(200, self.fm.RngStream(op.inputs["stream"]))
            return checks.check_pl(out[0], out[1], points.tolist(), 1.0, 1.0)
        traj, rep = out
        return checks.check_descent_report(rep.to_dict(), traj.to_dict(), 1.0, 1.0)

    def work(self, res):
        return res.op.inputs.get("samples", 0)


WORKLOADS = {w.name: w for w in (EscapeRS, EscapeSA, CertifyManifold, VerifyMC)}


# ----- running ---------------------------------------------------------------


def _check_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC):
        raise ImportError(f"flatmin imported from {path}, not from {SRC}")


class SetupTimer:
    """(set-up, build) seconds of set-ups, each in a fresh interpreter.

    Import plus landscape builds (Lipschitz-hint grids included); every module
    flatmin imports is loaded afresh, numpy excepted.
    """

    def __init__(self, landscapes):
        self.args = [sys.executable, "-c", SETUP_CHILD, str(SRC), json.dumps(landscapes)]
        self.times: list[tuple[float, float]] = []
        self.last = 0.0
        for _ in range(SETUP_FIRST):
            self.sample()

    def sample(self) -> None:
        child = subprocess.run(self.args, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        rep = json.loads(child.stdout.splitlines()[-1])
        _check_source(rep["file"])
        self.times.append((rep["setup_s"], rep["build_s"]))
        self.last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()

    def fastest(self) -> tuple[float, float]:
        """Tops the samples up to SETUP_SAMPLES; the fastest set-up and build."""
        while len(self.times) < SETUP_SAMPLES:
            self.sample()
        return min(t for t, _ in self.times), min(b for _, b in self.times)


def setup(landscapes):
    """The same set-up in this process, untimed."""
    import flatmin as fm
    import flatmin.cli as cli

    _check_source(fm.__file__)
    return fm, cli, [fm.build_landscape(fm.LandscapeSpec.from_dict(spec)) for spec in landscapes]


def measure(wl: Workload, seconds: float, between: Callable[[], None]):
    """Whole rounds of the workload's operations until ``seconds`` have passed.

    ``between`` is called after each operation and its check, outside the timing.
    """
    ops = wl.ops()
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        wl.tr.run_id = f"round{len(rounds)}"
        results = []
        for op in ops:
            t0 = time.perf_counter()
            try:
                with wl.tr.span("bench." + op.kind):
                    out = op.fn()
                res = OpResult(op, time.perf_counter() - t0, out)
            except Exception:  # an operation's failure is counted, and the run goes on
                res = OpResult(op, time.perf_counter() - t0, error=traceback.format_exc(limit=-2).strip())
            if res.error is None:
                try:
                    res.problems = wl.check(res)
                except Exception:  # a malformed output fails its check
                    res.problems = [traceback.format_exc(limit=-1).strip()]
                if wl.tr.enabled:
                    wl.trace_extras(res)
            results.append(res)
            between()
        rounds.append(results)
    return rounds


def git_sha():
    """HEAD of the checkout, read from .git without starting a process (None outside git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref_name = text[5:]
        ref_file = ROOT / ".git" / ref_name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wl: Workload, args, ops) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    inputs = json.dumps([{"kind": o.kind, "label": o.label, "inputs": o.inputs} for o in ops], sort_keys=True, default=str)
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "inputs_sha256": hashlib.sha256(inputs.encode()).hexdigest(),
    }


def run_workload(name: str, args) -> dict:
    cls = WORKLOADS[name]
    setups = SetupTimer(cls.landscapes)
    fm, cli, objs = setup(cls.landscapes)
    tracer = Tracer(enabled=bool(args.trace))
    wl = cls(fm, cli, objs, args.seed, tracer)
    probe = {}
    if tracer.enabled:
        probe_dir = OUT / f"{name}-probe"
        shutil.rmtree(probe_dir, ignore_errors=True)
        probe_dir.mkdir(parents=True)
        probe = layers.probe(fm, cli, tracer, probe_dir)
    rounds = measure(wl, args.seconds, setups.sample_if_due)
    setup_s, build_s = setups.fastest()

    results = [r for rnd in rounds for r in rnd]
    problems = [f"{r.op.label}: {p}" for r in results for p in r.problems]
    problems += wl.final_problems()
    errors = [f"{r.op.label}: {r.error}" for r in results if r.error is not None]
    failed = sum(1 for r in results if r.error is not None or r.problems)
    done = [r for r in results if r.error is None]
    # Means over the operations; the README's "End-to-end metrics" says why.
    wall = sum(r.seconds for r in results) / len(rounds)
    info = {
        "provenance": provenance(wl, args, wl.ops()),
        "outcome": wl.outcome(),
        "setup_samples_s": [round(t, 5) for t, _ in setups.times],
        "op_seconds": [[r.op.label, round(r.seconds, 5)] for r in results],
    }

    if tracer.enabled:
        run_ids = {f"round{i}" for i in range(len(rounds))}
        tree = tracer.analyse()
        values = dict(probe)
        values["objectives.build_ms"] = build_s * 1e3
        split_ids = wl.self_time_ids(run_ids)
        values["objectives.grad_calls"] = tree.objective_calls(split_ids) / len(rounds)
        values["trace.wall_s"] = wall
        missing = [k for k in layers.PER_LAYER if values.get(k) is None]
        if missing:
            problems.append(f"per-layer metrics without a value: {missing}")
        metrics = {k: {"value": values.get(k, 0.0), "unit": u} for k, u in layers.PER_LAYER.items()}
        info["module_self_s_per_round"] = layers.module_split(tree, split_ids, len(rounds))
        tracer.dump(OUT / f"trace-{name}-seed{args.seed}.json", {"workload": name, "seed": args.seed})
    else:
        values = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall, "s"),
            "op_s": (sum(r.seconds for r in done) / max(len(done), 1), "s"),
            "work_per_s": (sum(wl.work(r) for r in done) / (sum(r.seconds for r in done) or 1.0), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    for line in problems[:20] + errors[:20]:
        print(f"# {name}: {line}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"# {name:<17} {key:<40} {m['value']:>16.6g} {m['unit']}")
    for module, secs in info.get("module_self_s_per_round", {}).items():
        print(f"# {name:<17} self time per round, {module:<23} {secs:>16.6g} s")
    print(f"# {name:<17} rounds {len(rounds)}, operations {len(results)}, failed {failed}")
    print(json.dumps(info))
    return {"correct": not problems, "attempted": len(results), "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in a process of its own, one after another.

    A process of its own gives each workload its own peak memory; the last
    line sums the counts and prefixes each metric with its workload.
    """
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
        print(json.dumps({"workload": name, **results[name]}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "flatmin" / "__init__.py").is_file():
        print(f"error: no flatmin package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_workload(args.workload, args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
