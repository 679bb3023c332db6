import json
import subprocess
import sys

import pytest

import numpy as np

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

    def test_malformed_json_exit_code_and_line_anchor(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"landscape": {"kind": "hyperbola",\n  BROKEN\n}')
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert ":2:" in err
        assert not (tmp_path / "out").exists()


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

    def test_sweep_requires_block(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_run_config())
        code = main(["sweep", "--config", path, "--out", str(tmp_path / "s")])
        assert code == EXIT_USAGE


class TestConsoleScript:
    def test_entry_point_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "flatmin.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "certify" in proc.stdout
