import csv
import json
import math

import numpy as np
import pytest

from lyapopt import harness
from lyapopt.harness import ConfigError, main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


QUAD_PROBLEM = {"kind": "quadratic", "eigs": [1.0, 100.0], "b": [1.0, 0.0]}


def gd_config(out=None):
    cfg = {"problem": QUAD_PROBLEM, "solver": "gd", "alpha": 2.0 / 101.0,
           "iters": 50, "x0": [4.0, -3.0]}
    if out:
        cfg["out"] = out
    return cfg


class TestRunCommand:
    def test_pass_and_trace(self, tmp_path, capsys):
        out = str(tmp_path / "trace.csv")
        cfg = write_json(tmp_path / "cfg.json", gd_config(out))
        assert main(["run", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] and report["certified"]
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "f_gap", "lyapunov", "bound", "slack",
                           "grad_norm", "alpha", "gamma"]
        assert len(rows) == 52

    def test_trace_is_deterministic(self, tmp_path):
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        cfg_a = write_json(tmp_path / "a.json", gd_config(out_a))
        cfg_b = write_json(tmp_path / "b.json", gd_config(out_b))
        assert main(["run", "--config", cfg_a]) == 0
        assert main(["run", "--config", cfg_b]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = gd_config()
        cfg["step_size"] = 0.1
        path = write_json(tmp_path / "cfg.json", cfg)
        assert main(["run", "--config", path]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_missing_solver_exit_2(self, tmp_path):
        path = write_json(tmp_path / "cfg.json", {"problem": QUAD_PROBLEM})
        assert main(["run", "--config", path]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unknown_problem_kind_exit_2(self, tmp_path):
        path = write_json(tmp_path / "cfg.json",
                          {"problem": {"kind": "mystery"}, "solver": "gd"})
        assert main(["run", "--config", path]) == 2

    def test_oversized_gd_step_reports_uncertified(self, tmp_path, capsys):
        cfg = {"problem": QUAD_PROBLEM, "solver": "gd", "alpha": 3.0 / 100.0,
               "iters": 20, "x0": [1.0, 1.0]}
        path = write_json(tmp_path / "cfg.json", cfg)
        assert main(["run", "--config", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["uncertified"]

    def test_config_list_with_jobs(self, tmp_path, capsys):
        cfgs = [gd_config(), {"problem": QUAD_PROBLEM, "solver": "nag",
                              "iters": 50, "x0": [4.0, -3.0]}]
        path = write_json(tmp_path / "cfg.json", cfgs)
        assert main(["run", "--config", path, "--jobs", "2"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 2
        assert all(r["pass"] for r in reports)


class TestFlowCommand:
    def test_scaled_flow_passes(self, tmp_path, capsys):
        problem = write_json(tmp_path / "p.json",
                             {"kind": "logcosh", "scale": 2.0, "dim": 2})
        out = str(tmp_path / "traj.csv")
        code = main(["flow", "--model", "scaled_gradient", "--problem", problem,
                     "--t-end", "2.0", "--dt", "0.001", "--out", out])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"]
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "lyapunov", "bound", "x_norm_err", "gamma"]

    def test_blowup_exit_1(self, tmp_path, capsys):
        problem = write_json(tmp_path / "p.json",
                             {"kind": "quadratic", "eigs": [1.0, 10000.0],
                              "b": [0.0, 0.0]})
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["flow", "--model", "gradient", "--problem", problem,
                         "--t-end", "50.0", "--dt", "0.5"])
        assert code == 1
        assert not json.loads(capsys.readouterr().out)["pass"]

    def test_unknown_model_exit_2(self, tmp_path):
        problem = write_json(tmp_path / "p.json", QUAD_PROBLEM)
        assert main(["flow", "--model", "verlet", "--problem", problem,
                     "--t-end", "1.0", "--dt", "0.01"]) == 2


class TestVerifyCommand:
    def test_pairing_passes(self, capsys):
        assert main(["verify-lyapunov", "--pairing", "hb",
                     "--samples", "500", "--seed", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] and report["samples"] == 500

    def test_inflated_rate_fails(self, capsys):
        code = main(["verify-lyapunov", "--pairing", "hb", "--samples", "500",
                     "--seed", "0", "--c-override", "3.0"])
        assert code == 1
        assert not json.loads(capsys.readouterr().out)["pass"]

    def test_unknown_pairing_exit_2(self):
        assert main(["verify-lyapunov", "--pairing", "mystery"]) == 2


class TestRatesCommand:
    def test_b0_table(self, tmp_path, capsys):
        out = str(tmp_path / "rates.csv")
        code = main(["rates", "--rule", "b0", "--r", "1.0",
                     "--mu-over-l", "0.0", "--kmax", "50", "--out", out])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        c = math.sqrt(2.0) + 1.0
        assert float(rows[0][2]) == 1.0
        for row in rows:
            k = int(row[0])
            assert float(row[2]) == pytest.approx((c / (c + k)) ** 2, rel=1e-15)

    def test_measured_rule_below_bound(self, capsys):
        assert main(["rates", "--rule", "nag", "--r", "1.0",
                     "--mu-over-l", "0.01", "--kmax", "200"]) == 0
        assert json.loads(capsys.readouterr().out)["pass"]

    def test_rounding_level_excess_is_strict_json(self, capsys):
        # apg r=1 exceeds its bound by 1.1e-16; the verdict used to come back
        # as a numpy bool, which json.dumps rejects
        assert main(["rates", "--rule", "apg", "--r", "1.0",
                     "--mu-over-l", "0.0", "--kmax", "1000"]) == 0

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["pass"] is True
        assert 0.0 < report["max_violation"] <= 1e-12

    def test_unknown_rule_exit_2(self):
        assert main(["rates", "--rule", "cubic", "--r", "1.0",
                     "--mu-over-l", "0.0", "--kmax", "5"]) == 2

    def test_gamma0_below_mu_exit_2(self):
        assert main(["rates", "--rule", "b0", "--r", "0.5",
                     "--mu-over-l", "1.0", "--kmax", "5"]) == 2


class TestLogging:
    def test_invalid_level_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("OPT_LOG_LEVEL", "verbose")
        assert main(["rates", "--rule", "b0", "--r", "1.0",
                     "--mu-over-l", "0.0", "--kmax", "5"]) == 2
        assert "OPT_LOG_LEVEL" in capsys.readouterr().err

    def test_quiet_level_accepted(self, monkeypatch):
        monkeypatch.setenv("OPT_LOG_LEVEL", "quiet")
        assert main(["rates", "--rule", "b0", "--r", "1.0",
                     "--mu-over-l", "0.0", "--kmax", "5"]) == 0
