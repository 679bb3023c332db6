import json
import subprocess
import sys
import tempfile
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from flatmin import RngStream, build_hyperbola, check_descent_lemma, rs_schedule, run
from flatmin import cli
from flatmin.cli import (
    EXIT_CERT_FAIL,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    ExperimentConfig,
    ConfigError,
    _verify_checks,
    main,
)


def tiny_run_config(**overrides):
    cfg = {
        "landscape": {"kind": "hyperbola"},
        "algorithm": "RS",
        "x0": [1.2, 1 / 1.2],
        "eps": 0.01,
        "delta": 0.2,
        "constants": {"c_eta": 5.0, "c_rho": 2.5, "c_eps0": 10.0},
        "budget_cap": 300,
        "seeds": [1, 2],
        "log_cadence": 50,
    }
    cfg.update(overrides)
    return cfg


#: Step sizes whose square overflows a float: the first perturbed step diverges.
HUGE_STEP_CONFIG = tiny_run_config(constants={"c_eta": 1e308, "c_rho": 1e308})
#: A step budget beyond int64, which the returned-iterate draw cannot take.
HUGE_BUDGET_CONFIG = tiny_run_config(constants={"c_T": 1e300}, budget_cap=10**30)


class _InlinePool:
    """Stand-in for ProcessPoolExecutor that records its size and runs each task at once, in this process."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestConfigParsing:
    def test_valid_config(self, tmp_path):
        cfg = ExperimentConfig.from_dict(tiny_run_config())
        assert cfg.algorithm == "RS"
        assert cfg.seeds == [1, 2]
        assert cfg.constants.c_eta == 5.0

    def test_missing_fields_reported(self):
        with pytest.raises(ConfigError, match="missing required fields"):
            ExperimentConfig.from_dict({"landscape": {"kind": "hyperbola"}})

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            ExperimentConfig.from_dict(tiny_run_config(algorithm="NEWTON"))

    def test_bad_delta(self):
        with pytest.raises(ConfigError, match="delta"):
            ExperimentConfig.from_dict(tiny_run_config(delta=1.5))

    def test_empty_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig.from_dict(tiny_run_config(seeds=[]))

    @pytest.mark.parametrize(
        "key,overrides",
        [
            ("log_cadence", {"log_cadence": 0}),
            ("tr_cadence", {"tr_cadence": -3}),
            ("budget_cap", {"budget_cap": 0}),
            ("budget_capp", {"budget_capp": 500}),
            ("eps", {"eps": "abc"}),
            ("seeds", {"seeds": 3}),
            ("x0", {"x0": [1.0, 1.0, 1.0]}),
            ("certify", {"certify": {"eps": -1, "eps_prime": 0.5}}),
            ("constants.c_eta", {"constants": {"c_eta": -1.0}}),
            ("eps", {"eps": 1e-200}),
            ("unknown parameters ['c']", {"landscape": {"kind": "hyperbola", "c": 5}}),
            ("missing parameter 'c'", {"landscape": {"kind": "scalar_factorization", "a": [1.0]}}),
            ("eigenvalues must", {"landscape": {"kind": "convex_quadratic", "eigenvalues": [float("nan"), 1.0]}}),
            ("a must", {"landscape": {"kind": "scalar_factorization", "a": [float("nan")], "c": 1.0}}),
            ("c must", {"landscape": {"kind": "scalar_factorization", "a": [1.0], "c": float("inf")}}),
            ("y must", {"landscape": {"kind": "orthogonal_quadratic_model", "d": 2, "n": 1, "y": [float("nan")]}}),
            ("d must", {"landscape": {"kind": "orthogonal_quadratic_model", "d": 2.0, "n": 1, "y": [0.5]}}),
            ("landscape.a must be a number or a list of numbers",
             {"landscape": {"kind": "scalar_factorization", "a": ["1", "2"], "c": 1.0}}),
            ("landscape.c must be a number or a list of numbers",
             {"landscape": {"kind": "scalar_factorization", "a": [1.0, 2.0], "c": True}}),
            ("landscape.c must", {"landscape": {"kind": "scalar_factorization", "a": [1.0], "c": "1"}}),
            ("landscape.y must", {"landscape": {"kind": "orthogonal_quadratic_model", "d": 2, "n": 1, "y": [True]}}),
            ("landscape.d must", {"landscape": {"kind": "orthogonal_quadratic_model", "d": "2", "n": 1, "y": [0.5]}}),
            ("landscape.eigenvalues must", {"landscape": {"kind": "convex_quadratic", "eigenvalues": [[1.0, 2.0]]}}),
        ],
        ids=["log_cadence-0", "tr_cadence-negative", "budget_cap-0", "unknown-key", "eps-string",
             "seeds-scalar", "x0-dimension", "certify-eps-negative", "c_eta-negative", "eps-overflows-budget",
             "landscape-unknown-parameter", "landscape-missing-parameter", "eigenvalues-nan", "a-nan",
             "c-inf", "y-nan", "d-float", "a-strings", "c-bool", "c-string", "y-bools", "d-string",
             "eigenvalues-nested"],
    )
    def test_bad_run_config_is_usage_error_naming_key(self, tmp_path, capsys, key, overrides):
        path = write_config(tmp_path, tiny_run_config(**overrides))
        out = tmp_path / "out"
        code = main(["run", "--config", path, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err
        assert not out.exists()

    def test_malformed_json_exit_code_and_line_anchor(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"landscape": {"kind": "hyperbola",\n  BROKEN\n}')
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert ":2:" in err
        assert not (tmp_path / "out").exists()


VALID_LANDSCAPES = [
    ({"kind": "hyperbola"}, 2),
    ({"kind": "convex_quadratic", "eigenvalues": [1.0, 2.0]}, 2),
    ({"kind": "scalar_factorization", "a": [1.0, 2.0], "c": 1.0}, 2),
    ({"kind": "orthogonal_quadratic_model", "d": 3, "n": 2, "y": [0.5, 1.0]}, 3),
]

positive = st.floats(min_value=1e-6, max_value=1e6) | st.integers(1, 1000)
counts = st.integers(1, 10**6)


@st.composite
def valid_configs(draw, max_budget=10**6):
    """JSON objects that ExperimentConfig.from_dict accepts."""
    landscape, dim = draw(st.sampled_from(VALID_LANDSCAPES))
    data = {
        "landscape": landscape,
        "algorithm": draw(st.sampled_from(["RS", "GD", "rs"] + (["SA"] if "a" in landscape or "y" in landscape else []))),
        "x0": draw(st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim)),
        "eps": draw(st.floats(1e-3, 0.5)),
        "delta": draw(st.floats(0.01, 0.99)),
        "seeds": draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=2)),
        "budget_cap": draw(st.integers(1, max_budget)),
    }
    optional = {
        "constants": st.dictionaries(st.sampled_from(["c_eta", "c_rho", "c_eps0", "c_T"]), positive, max_size=4),
        "log_cadence": counts,
        "tr_cadence": counts,
        "certify": st.fixed_dictionaries({"eps": positive, "eps_prime": positive}),
        "out": st.text(max_size=8),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        data[key] = draw(optional[key])
    return data


json_junk = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.sampled_from([0.0, -1.0, 2.5, 1e308, float("inf"), float("-inf"), float("nan")])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def fuzzed_configs(draw):
    """Valid small configs with up to three keys replaced, dropped or added (budget_cap <= 50)."""
    data = draw(valid_configs(max_budget=50))
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(["replace", "drop", "add", "landscape"]))
        key = draw(st.sampled_from(sorted(data)))
        if action == "replace" or (action == "drop" and key == "budget_cap"):
            data[key] = draw(json_junk)
        elif action == "drop":
            del data[key]
        elif action == "add":
            data[draw(st.text(min_size=1, max_size=6))] = draw(json_junk)
        elif isinstance(data.get("landscape"), dict):
            data["landscape"] = dict(data["landscape"])
            data["landscape"][draw(st.sampled_from(["kind", "eigenvalues", "a", "c", "d", "n", "y"]))] = draw(json_junk)
    return data


class TestConfigProperties:
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(valid_configs())
    def test_to_dict_round_trips(self, data):
        cfg = ExperimentConfig.from_dict(data)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    @settings(
        max_examples=60,
        deadline=None,
        database=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(fuzzed_configs())
    @example(HUGE_STEP_CONFIG)
    @example(HUGE_BUDGET_CONFIG)
    def test_run_exit_code_on_fuzzed_configs(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(data))
            code = main(["run", "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL, EXIT_CERT_FAIL)


class TestRunCommand:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_run_config())
        out = tmp_path / "out"
        code = main(["run", "--config", path, "--out", str(out)])
        assert code == EXIT_OK
        for seed in (1, 2):
            assert (out / f"seed_{seed}.csv").exists()
            assert (out / f"seed_{seed}.json").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["median_final_tr_phi"] is not None
        assert [e["seed"] for e in summary["seeds"]] == [1, 2]
        assert all(e["status"] == "ok" for e in summary["seeds"])
        assert all(e["descent_violations"] == 0 for e in summary["seeds"])

    def test_csv_schema(self, tmp_path):
        path = write_config(tmp_path, tiny_run_config())
        out = tmp_path / "out"
        main(["run", "--config", path, "--out", str(out)])
        lines = (out / "seed_1.csv").read_text().strip().split("\n")
        assert lines[0] == "t,branch,f,grad_norm,v_norm,tr_phi,x0,x1"
        traj = json.loads((out / "seed_1.json").read_text())
        first_row = lines[1].split(",")
        assert float(first_row[2]) == traj["records"][0]["f"]
        assert float(first_row[3]) == traj["records"][0]["grad_norm"]

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_config(tmp_path, tiny_run_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", path, "--out", str(out1)])
        main(["run", "--config", path, "--out", str(out2)])
        for seed in (1, 2):
            assert (out1 / f"seed_{seed}.csv").read_bytes() == (out2 / f"seed_{seed}.csv").read_bytes()

    def test_seed_flag_overrides_config_list(self, tmp_path):
        path = write_config(tmp_path, tiny_run_config())
        out = tmp_path / "single"
        code = main(["run", "--config", path, "--out", str(out), "--seed", "7"])
        assert code == EXIT_OK
        assert (out / "seed_7.csv").exists()
        assert not (out / "seed_1.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert [e["seed"] for e in summary["seeds"]] == [7]

    def test_negative_seed_flag_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_run_config())
        code = main(["run", "--config", path, "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "config error: --seed must be an integer >= 0, got -1\n"

    def test_worker_pool_matches_sequential(self, tmp_path):
        path = write_config(tmp_path, tiny_run_config())
        seq, par = tmp_path / "seq", tmp_path / "par"
        main(["run", "--config", path, "--out", str(seq)])
        code = main(["run", "--config", path, "--out", str(par), "--threads", "2"])
        assert code == EXIT_OK
        for seed in (1, 2):
            assert (seq / f"seed_{seed}.csv").read_bytes() == (par / f"seed_{seed}.csv").read_bytes()

    def test_worker_count_is_at_most_one_per_seed(self, tmp_path, monkeypatch):
        sizes = []
        # execute_run imports the pool class from concurrent.futures when it needs one.
        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", lambda max_workers: _InlinePool(sizes, max_workers)
        )
        path = write_config(tmp_path, tiny_run_config())
        code = main(["run", "--config", path, "--out", str(tmp_path / "two"), "--threads", "100000"])
        assert code == EXIT_OK
        code = main(["run", "--config", path, "--out", str(tmp_path / "one"), "--threads", "100000", "--seed", "3"])
        assert code == EXIT_OK
        assert sizes == [2]
        assert (tmp_path / "one" / "seed_3.csv").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, command, threads):
        cfg = tiny_run_config()
        if command == "sweep":
            cfg["sweep"] = {"eps": [0.01]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out), "--threads", threads]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith(f"config error: --threads must be an integer >= 1, got {threads}")
        assert not out.exists()

    def test_certify_block_adds_certificates(self, tmp_path):
        cfg = tiny_run_config(certify={"eps": 0.05, "eps_prime": 0.5})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        main(["run", "--config", path, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["seeds"]:
            assert "certificate" in entry
            assert set(entry["certificate"]) >= {"dist", "flat_grad_norm", "passed"}

    def test_step_size_whose_square_overflows_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, HUGE_STEP_CONFIG), "--out", str(out)]) == EXIT_NUMERICAL
        assert capsys.readouterr().err == ""
        entries = json.loads((out / "summary.json").read_text())["seeds"]
        assert [(e["status"], e["error"]) for e in entries] == [
            ("numerical-failure", "DivergenceError: divergence at step 0")
        ] * 2

    def test_step_budget_beyond_int64_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, HUGE_BUDGET_CONFIG), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "config error: eps, delta and constants give no schedule: "
            f"steps must be an integer <= {2**63 - 1}, got {10**30}\n"
        )
        assert not out.exists()

    def test_sa_on_plain_objective_is_usage_error(self, tmp_path, capsys):
        cfg = tiny_run_config(algorithm="SA")
        path = write_config(tmp_path, cfg)
        code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
        assert code == EXIT_USAGE
        assert "sample-sum" in capsys.readouterr().err

    def test_sa_run_on_factorization(self, tmp_path):
        cfg = tiny_run_config(
            algorithm="SA",
            landscape={"kind": "scalar_factorization", "a": [1.0, 2.0], "c": 1.0},
        )
        path = write_config(tmp_path, cfg)
        code = main(["run", "--config", path, "--out", str(tmp_path / "o")])
        assert code == EXIT_OK

    def test_gd_monotone_decrease_in_summary(self, tmp_path):
        cfg = tiny_run_config(
            algorithm="GD",
            landscape={"kind": "convex_quadratic", "eigenvalues": [1.0, 2.0]},
            x0=[2.0, -1.0],
            budget_cap=100,
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["run", "--config", path, "--out", str(out)]) == EXIT_OK
        traj = json.loads((out / "seed_1.json").read_text())
        fs = [r["f"] for r in traj["records"]]
        assert all(b <= a for a, b in zip(fs, fs[1:]))
        # no perturbed steps: slack is None, and null in JSON, so artifacts stay strict JSON
        assert traj["descent_max_slack"] is None
        assert "Infinity" not in (out / "summary.json").read_text()
        obj, sched = cli.build_schedule(ExperimentConfig.from_dict(cfg))
        direct = run(obj, "GD", np.array(cfg["x0"]), sched, RngStream(1), log_cadence=cfg["log_cadence"])
        assert direct.descent_max_slack is None
        assert json.loads(json.dumps(direct.to_dict())) == traj


class TestCertifyCommand:
    def test_flat_minimum_exit_zero(self, capsys):
        code = main(
            ["certify", "--landscape", '{"kind": "hyperbola"}', "--x", "1,1",
             "--eps", "0.01", "--eps-prime", "0.1"]
        )
        assert code == EXIT_OK
        cert = json.loads(capsys.readouterr().out)
        assert cert["passed"] is True

    def test_sharp_point_exit_three(self, capsys):
        code = main(
            ["certify", "--landscape", '{"kind": "hyperbola"}', "--x", "2,0.5",
             "--eps", "0.01", "--eps-prime", "0.1"]
        )
        assert code == EXIT_CERT_FAIL
        cert = json.loads(capsys.readouterr().out)
        assert cert["passed"] is False
        assert cert["flat_grad_norm"] > 0.1

    def test_saddle_point_exit_three(self, capsys):
        # The origin is a stationary saddle: its own landing point, with flat-gradient norm 0.
        code = main(
            ["certify", "--landscape", '{"kind": "hyperbola"}', "--x", "0,0",
             "--eps", "0.05", "--eps-prime", "0.3"]
        )
        assert code == EXIT_CERT_FAIL
        cert = json.loads(capsys.readouterr().out)
        assert cert["passed"] is False and cert["dist"] == 0.0

    def test_quadratic_origin_exit_zero(self, tmp_path, capsys):
        cfg = {
            "landscape": {"kind": "convex_quadratic", "eigenvalues": [1.0, 3.0]},
            "x": [0.0, 0.0],
            "eps": 1e-3,
            "eps_prime": 1e-3,
        }
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "certout"
        code = main(["certify", "--config", str(path), "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "certificate.json").exists()
        capsys.readouterr()

    def test_flow_failure_exit_two(self, capsys):
        # Far outside the test region the fixed-step flow is unstable.
        code = main(
            ["certify", "--landscape", '{"kind": "hyperbola"}', "--x", "40,-40",
             "--eps", "0.01", "--eps-prime", "0.1"]
        )
        assert code == EXIT_NUMERICAL
        assert "flow failure" in capsys.readouterr().err

    def test_cycling_probes_stall(self, capsys):
        # (100, 100) is a minimum of u*v = 1e4; each of its probes cycles with period 2 and stalls,
        # where it once ran all FLOW_MAX_STEPS steps, about 5 s.
        start = time.perf_counter()
        code = main(
            ["certify", "--landscape", '{"kind":"scalar_factorization","a":[1.0],"c":1e4}', "--x", "100,100",
             "--eps", "0.05", "--eps-prime", "0.3"]
        )
        elapsed = time.perf_counter() - start
        assert code == EXIT_NUMERICAL
        lines = capsys.readouterr().err.splitlines()
        assert lines == [
            "flow failure: flow stalled at grad norm 5.145e-10 > tol 1.000e-13 (rounding floor about 3.1e-10)"
        ]
        assert elapsed < 1.0

    # At 1e200,1e200 the first gradient overflows. At 1e160,1e-160 the start
    # is its own landing point, but the trace at each probe overflows. Either
    # is reported without numpy's warning or a traceback.
    @pytest.mark.parametrize("x", ["1e200,1e200", "1e160,1e-160"], ids=["start-gradient", "probe-trace"])
    def test_overflow_prints_only_flow_failure(self, x):
        proc = subprocess.run(
            [sys.executable, "-m", "flatmin.cli", "certify", "--landscape", '{"kind":"hyperbola"}',
             "--x", x, "--eps", "0.1", "--eps-prime", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == EXIT_NUMERICAL
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("flow failure:")

    def test_incomplete_flags_usage_error(self, capsys):
        code = main(["certify", "--landscape", '{"kind": "hyperbola"}'])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "config error: certify needs --config or all of --landscape/--x/--eps/--eps-prime\n"

    @pytest.mark.parametrize(
        "landscape,x,eps,message",
        [
            ('{"kind": "scalar_factorization", "a": [1.0]}', "1,1", "0.01", "missing parameter"),
            ('{"kind": "hyperbola"}', "1,1", "-1", "eps"),
            ('{"kind": "hyperbola"}', "1,1,1", "0.01", "3 coordinates, landscape has dimension 2"),
            ('{"kind": "hyperbola"}', "nan,1", "0.01", "finite"),
        ],
        ids=["missing-parameter", "eps-negative", "x-dimension", "x-nan"],
    )
    def test_bad_certify_flags_usage_error(self, capsys, landscape, x, eps, message):
        code = main(
            ["certify", "--landscape", landscape, "--x", x, "--eps", eps, "--eps-prime", "0.1"]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert message in err

    def test_malformed_config_line_anchor(self, tmp_path, capsys):
        path = tmp_path / "cert.json"
        path.write_text('{"landscape": {"kind": "hyperbola"},\n  "x": [1, 1\n}')
        code = main(["certify", "--config", str(path)])
        assert code == EXIT_USAGE
        assert f"{path}:3:" in capsys.readouterr().err


KNOWN_CHECKS = sorted(["sphere-moments", "rs-estimator", "rs-decay", "sa-dfactor", "descent-lemma", "pl-constants"])


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "v"
        code = main(
            ["verify", "--suite", "sphere-moments,rs-estimator", "--n", "20000",
             "--seed", "0", "--out", str(out)]
        )
        assert code == EXIT_OK
        reports = json.loads((out / "verify.json").read_text())
        assert [r["name"] for r in reports] == ["sphere-moments", "rs-estimator"]
        assert all(r["passed"] for r in reports)
        table = capsys.readouterr().out
        assert "PASS" in table

    def test_unknown_check_usage_error(self, capsys):
        code = main(["verify", "--suite", "nonexistent-check"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: unknown checks ['nonexistent-check']; known: {KNOWN_CHECKS}\n"

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--n", "5"], "--n must be at least 10000, the least sample count of sphere-moments; got 5"),
            (["--n", "-3", "--suite", "sa-dfactor"], "--n must be at least 1, the least sample count of sa-dfactor; got -3"),
            (["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
            (["--suite", ","], f"--suite names no check; known: {KNOWN_CHECKS}"),
            (["--suite", ""], f"--suite names no check; known: {KNOWN_CHECKS}"),
        ],
        ids=["n-below-sphere-moments", "n-negative-sa-dfactor", "seed-negative", "suite-comma", "suite-empty"],
    )
    def test_bad_flag_is_usage_error_naming_it(self, capsys, flags, message):
        assert main(["verify", *flags]) == EXIT_USAGE
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_sample_count_unread_by_descent_check(self, capsys):
        assert main(["verify", "--n", "0", "--suite", "descent-lemma"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_descent_report_equals_default_trace_cadence_report(self):
        # The check reads no trace column, so skipping those flow solves
        # leaves every report field as the default cadence gives it.
        hyp = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, hyp.lipschitz_grad_hint, budget_cap=2000)
        traj = run(hyp, "RS", np.array([1.5, 1 / 1.5]), sched, RngStream(3), log_cadence=1)
        assert any(r.tr_phi is not None for r in traj.records[1:-1])
        expected = check_descent_lemma(traj, hyp.lipschitz_grad_hint).to_dict()
        assert _verify_checks(10_000, 3)["descent-lemma"][1]().to_dict() == expected


class TestSweepCommand:
    def test_cartesian_product(self, tmp_path, capsys):
        cfg = tiny_run_config(budget_cap=100, seeds=[1])
        cfg["sweep"] = {"eps": [0.01, 0.02], "constants.c_eta": [1.0, 5.0]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", path, "--out", str(out)])
        assert code == EXIT_OK
        index = json.loads((out / "sweep_index.json").read_text())
        assert len(index) == 4
        for entry in index:
            combo_dir = out / entry["dir"]
            assert (combo_dir / "summary.json").exists()
            summary = json.loads((combo_dir / "summary.json").read_text())
            assert summary["seeds"][0]["status"] == "ok"
        capsys.readouterr()

    @pytest.mark.parametrize(
        "sweep,message",
        [
            ({"eps": [0.01, -1.0]}, "in combo eps=-1.0: eps must be a positive finite number"),
            ({"eps": [0.01, 1e-200]}, "in combo eps=1e-200: eps, delta and constants give no schedule"),
            (
                {"landscape.kind": ["hyperbola", "convex_quadratic"]},
                "in combo kind=convex_quadratic: landscape: landscape 'convex_quadratic' missing parameter",
            ),
        ],
        ids=["eps-negative", "eps-overflows-schedule", "landscape-missing-parameter"],
    )
    def test_bad_combo_is_usage_error_before_any_run(self, tmp_path, capsys, sweep, message):
        cfg = tiny_run_config(budget_cap=100, seeds=[1])
        cfg["sweep"] = sweep
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", path, "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_label_key_is_unknown_as_under_run(self, tmp_path, capsys):
        cfg = tiny_run_config(budget_cap=100, seeds=[1], _label="junk")
        cfg["sweep"] = {"eps": [0.01]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_USAGE
        assert "in combo eps=0.01: unknown config keys ['_label']" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_combo_directory_is_usage_error_before_any_run(self, tmp_path, capsys):
        # The second combination's label makes a directory name longer than a filesystem allows.
        cfg = tiny_run_config()
        cfg["sweep"] = {"seeds": [[0], list(range(80))]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write ") and captured.err.count("\n") == 1
        assert [p for p in out.rglob("*") if p.is_file()] == []
        assert not (out / "sweep_index.json").exists()

    @pytest.mark.parametrize(
        "values",
        [["a/b", "c"], ["c", "x/../../y"], ["a\x00b"]],
        ids=["nested", "escapes-out", "nul"],
    )
    def test_label_that_is_not_one_directory_name_is_usage_error_before_any_directory(self, tmp_path, capsys, values):
        # Each combination's label names its directory under --out.
        cfg = tiny_run_config(budget_cap=100, seeds=[1])
        cfg["sweep"] = {"out": values}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "root" / "sweep"
        assert main(["sweep", "--config", path, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: in combo out=") and captured.err.count("\n") == 1
        assert "not one directory name" in captured.err
        assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] == ["config.json"]

    def test_sweep_requires_block(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_run_config())
        code = main(["sweep", "--config", path, "--out", str(tmp_path / "s")])
        assert code == EXIT_USAGE
        for sweep in ({}, {"eps": 0.01}):
            path = write_config(tmp_path, dict(tiny_run_config(), sweep=sweep))
            assert main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == EXIT_USAGE
            assert "sweep must map keys" in capsys.readouterr().err


class TestOutputDirectory:
    @pytest.mark.parametrize("command", ["run", "sweep", "verify", "certify"])
    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-file"])
    def test_path_that_cannot_be_a_directory_is_usage_error_before_computing(self, tmp_path, capsys, command, below):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / below if below else afile
        cfg = tiny_run_config(budget_cap=100, seeds=[1])
        if command == "sweep":
            cfg["sweep"] = {"eps": [0.01]}
        args = {
            "run": ["--config", write_config(tmp_path, cfg)],
            "sweep": ["--config", write_config(tmp_path, cfg)],
            "verify": ["--suite", "sphere-moments", "--n", "10000"],
            "certify": ["--landscape", '{"kind": "hyperbola"}', "--x", "1,1", "--eps", "0.01", "--eps-prime", "0.1"],
        }[command]
        assert main([command, *args, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write {out}: ")
        assert captured.err.count("\n") == 1
        assert afile.read_text() == "kept"


    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_key_with_nul_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        # No path can hold a NUL; the directory is named by the config's "out".
        monkeypatch.chdir(tmp_path)
        cfg = tiny_run_config(budget_cap=100, seeds=[1], out="a\x00b")
        if command == "sweep":
            cfg["sweep"] = {"eps": [0.01]}
        assert main([command, "--config", write_config(tmp_path, cfg)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: cannot write ") and captured.err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
            (["verify", "--n", "1e6"], "argument --n: invalid int value: '1e6'"),
            (["run"], "the following arguments are required: --config"),
            (["certify", "--eps", "x"], "argument --eps: invalid float value: 'x'"),
            (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
            ([], "the following arguments are required: command"),
        ],
        ids=["n-not-integer", "n-float-literal", "run-without-config", "eps-not-number", "unknown-subcommand", "no-subcommand"],
    )
    def test_is_one_usage_line(self, capsys, argv, message):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {message}")
        assert captured.err.count("\n") == 1


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flatmin.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "certify" in proc.stdout

    def test_subcommand_help_exits_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flatmin.cli", "run", "-h"], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_OK
        assert "--config" in proc.stdout

    def test_argument_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flatmin.cli", "verify", "--n", "abc"], capture_output=True, text=True
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == "config error: argument --n: invalid int value: 'abc'\n"


#: Loaded by no escape or certify path: the oracle and its thread pool, the process pool, argparse.
DEFERRED_MODULES = ["flatmin.oracle", "concurrent.futures", "multiprocessing", "argparse"]
#: Loaded only for a pool of two or more workers.
POOL_MODULES = ["multiprocessing", "concurrent.futures.process"]

_IMPORT_PROBE = """
import json, sys, tempfile
from pathlib import Path
import flatmin, flatmin.cli
deferred, pool, cfg = json.loads(sys.argv[1])
report = {"after_import": [m for m in deferred if m in sys.modules]}
with tempfile.TemporaryDirectory() as d:
    report["run_code"] = flatmin.cli.execute_run(
        flatmin.cli.ExperimentConfig.from_dict(cfg), Path(d) / "out", threads=1
    )
report["after_run"] = [m for m in pool if m in sys.modules]
report["same_object"] = flatmin.check_sphere_moments is flatmin.oracle.check_sphere_moments
star = {}
exec("from flatmin import *", star)
report["unbound"] = [n for n in flatmin.__all__ if n not in star]
try:
    flatmin.no_such_name
except AttributeError as exc:
    report["missing_error"] = str(exc)
print(json.dumps(report))
"""


class TestDeferredImports:
    """``import flatmin, flatmin.cli`` loads only the compute modules; the rest loads on first use.

    Checked in a fresh interpreter with a deny-list, so modules that numpy or
    the standard library load on their own do not matter.
    """

    @pytest.fixture(scope="class")
    def report(self):
        arg = json.dumps([DEFERRED_MODULES, POOL_MODULES, tiny_run_config(seeds=[1])])
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, arg], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_import_loads_no_deferred_module(self, report):
        assert report["after_import"] == []

    def test_one_worker_run_loads_no_process_pool(self, report):
        assert report["run_code"] == EXIT_OK
        assert report["after_run"] == []

    def test_oracle_names_resolve_on_first_use(self, report):
        assert report["same_object"] is True
        assert report["unbound"] == []
        assert "no_such_name" in report["missing_error"]
