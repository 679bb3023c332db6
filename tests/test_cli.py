import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatmin import RngStream, build_hyperbola, check_descent_lemma, rs_schedule, run
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
        ],
        ids=["log_cadence-0", "tr_cadence-negative", "budget_cap-0", "unknown-key", "eps-string",
             "seeds-scalar", "x0-dimension", "certify-eps-negative", "c_eta-negative", "eps-overflows-budget",
             "landscape-unknown-parameter", "landscape-missing-parameter", "eigenvalues-nan", "a-nan",
             "c-inf", "y-nan", "d-float"],
    )
    def test_bad_run_config_is_usage_error_naming_key(self, tmp_path, capsys, key, overrides):
        path = write_config(tmp_path, tiny_run_config(**overrides))
        out = tmp_path / "out"
        code = main(["run", "--config", path, "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert key in err
        assert not list(out.glob("seed_*"))

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
        assert "--seed" in capsys.readouterr().err

    def test_worker_pool_matches_sequential(self, tmp_path):
        path = write_config(tmp_path, tiny_run_config())
        seq, par = tmp_path / "seq", tmp_path / "par"
        main(["run", "--config", path, "--out", str(seq)])
        code = main(["run", "--config", path, "--out", str(par), "--threads", "2"])
        assert code == EXIT_OK
        for seed in (1, 2):
            assert (seq / f"seed_{seed}.csv").read_bytes() == (par / f"seed_{seed}.csv").read_bytes()

    def test_certify_block_adds_certificates(self, tmp_path):
        cfg = tiny_run_config(certify={"eps": 0.05, "eps_prime": 0.5})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        main(["run", "--config", path, "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        for entry in summary["seeds"]:
            assert "certificate" in entry
            assert set(entry["certificate"]) >= {"dist", "flat_grad_norm", "passed"}

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
        # no perturbed steps: slack is null, artifacts stay strict JSON
        assert traj["descent_max_slack"] is None
        assert "Infinity" not in (out / "summary.json").read_text()


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

    def test_incomplete_flags_usage_error(self, capsys):
        code = main(["certify", "--landscape", '{"kind": "hyperbola"}'])
        assert code == EXIT_USAGE

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
        assert "unknown checks" in capsys.readouterr().err

    def test_descent_report_equals_default_trace_cadence_report(self):
        # The check reads no trace column, so skipping those flow solves
        # leaves every report field as the default cadence gives it.
        hyp = build_hyperbola()
        sched = rs_schedule(0.01, 0.2, hyp.lipschitz_grad_hint, budget_cap=2000)
        traj = run(hyp, "RS", np.array([1.5, 1 / 1.5]), sched, RngStream(3), log_cadence=1)
        assert any(r.tr_phi is not None for r in traj.records[1:-1])
        expected = check_descent_lemma(traj, hyp.lipschitz_grad_hint).to_dict()
        assert _verify_checks(10_000, 3)["descent-lemma"]().to_dict() == expected


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

    def test_bad_combo_is_usage_error_before_any_run(self, tmp_path, capsys):
        cfg = tiny_run_config(budget_cap=100, seeds=[1])
        cfg["sweep"] = {"eps": [0.01, -1.0]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", path, "--out", str(out)])
        assert code == EXIT_USAGE
        assert "in combo eps=-1.0: eps must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_requires_block(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_run_config())
        code = main(["sweep", "--config", path, "--out", str(tmp_path / "s")])
        assert code == EXIT_USAGE
        for sweep in ({}, {"eps": 0.01}):
            path = write_config(tmp_path, dict(tiny_run_config(), sweep=sweep))
            assert main(["sweep", "--config", path, "--out", str(tmp_path / "s")]) == EXIT_USAGE
            assert "sweep must map keys" in capsys.readouterr().err


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flatmin.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "certify" in proc.stdout
