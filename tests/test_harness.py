import csv
import io
import json
import math

import numpy as np
import pytest

from lyapopt import flows, harness, lyapunov, solvers
from lyapopt.problems import make_quadratic, problem_from_json
from lyapopt.harness import ConfigError, main


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


QUAD_PROBLEM = {"kind": "quadratic", "eigs": [1.0, 100.0], "b": [1.0, 0.0]}
LASSO_PROBLEM = {"kind": "lasso", "a_matrix": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                 "b": [1.0, 0.0, 1.0], "rho": 0.3}


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

    def test_config_list(self, tmp_path, capsys):
        cfgs = [gd_config(), {"problem": QUAD_PROBLEM, "solver": "nag",
                              "iters": 50, "x0": [4.0, -3.0]}]
        path = write_json(tmp_path / "cfg.json", cfgs)
        assert main(["run", "--config", path]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 2
        assert all(r["pass"] for r in reports)

    def test_out_flag_writes_the_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        path = write_json(tmp_path / "cfg.json", gd_config())
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 52

    @pytest.mark.parametrize("doc", [
        [gd_config(), gd_config()],
        gd_config("own.csv"),
    ], ids=["two-configs", "own-out"])
    def test_out_flag_that_would_be_dropped_exit_2(self, tmp_path, capsys, monkeypatch,
                                                   doc):
        # each exited 0 and wrote no file: --out was dropped
        monkeypatch.chdir(tmp_path)
        path = write_json(tmp_path / "cfg.json", doc)
        assert main(["run", "--config", path, "--out", "t.csv"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--out" in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("refused", [
        {"problem": QUAD_PROBLEM, "solver": "nag", "iters": 10, "alpha": 0.5},
        {"problem": QUAD_PROBLEM, "solver": "bogus", "iters": 10},
        {"problem": LASSO_PROBLEM, "solver": "gd", "iters": 10},
        gd_config("missing/second.csv"),
        gd_config("."),
    ], ids=["unread-key", "unknown-kind", "smooth-only-on-lasso", "missing-out-directory",
            "directory-out"])
    def test_refused_config_after_a_run_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                       refused):
        # the first config's trace was written before the second was refused
        monkeypatch.chdir(tmp_path)
        path = write_json(tmp_path / "two.json", [gd_config("first.csv"), refused])
        assert main(["run", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["two.json"]

    def test_missing_out_directory_refused_as_open_refuses_it(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_json(tmp_path / "cfg.json", gd_config("missing/t.csv"))
        assert main(["run", "--config", path]) == 2
        captured = capsys.readouterr()
        with pytest.raises(FileNotFoundError) as opened:
            open("missing/t.csv", "w")
        assert captured.out == "" and captured.err == f"error: {opened.value}\n"

    def test_directory_out_refused_as_open_refuses_it(self, tmp_path, capsys, monkeypatch):
        # it exited 1 with a traceback, after the run
        monkeypatch.chdir(tmp_path)
        (tmp_path / "adir").mkdir()
        path = write_json(tmp_path / "cfg.json", gd_config("adir"))
        assert main(["run", "--config", path]) == 2
        captured = capsys.readouterr()
        with pytest.raises(IsADirectoryError) as opened:
            open("adir", "w")
        assert captured.out == "" and captured.err == f"error: {opened.value}\n"

    def test_config_list_writes_every_trace(self, tmp_path, capsys):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        nag = {"problem": QUAD_PROBLEM, "solver": "nag", "iters": 50, "x0": [4.0, -3.0],
               "out": str(second)}
        path = write_json(tmp_path / "two.json", [gd_config(str(first)), nag])
        assert main(["run", "--config", path]) == 0
        assert [r["kind"] for r in json.loads(capsys.readouterr().out)] == ["gd", "nag"]
        for out, cfg in ((first, gd_config()), (second, nag)):
            result = solvers.run(problem_from_json(QUAD_PROBLEM), cfg["solver"],
                                 x0=np.array(cfg["x0"]), iters=cfg["iters"],
                                 alpha=cfg.get("alpha"))
            assert out.read_bytes() == csv_reference(harness.RUN_HEADER,
                                                     list(harness.run_rows(result)))


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

    @pytest.mark.parametrize("flag, value", [("--dt", "nan"), ("--dt", "inf"),
                                             ("--t-end", "nan"), ("--t-end", "inf")])
    def test_nonfinite_interval_exit_2(self, tmp_path, capsys, flag, value):
        # a NaN dt or t_end passed the interval check, and int(round(...))
        # then raised a bare ValueError or OverflowError (exit 1)
        problem = write_json(tmp_path / "p.json", QUAD_PROBLEM)
        args = {"--t-end": "5", "--dt": "0.01", flag: value}
        assert main(["flow", "--model", "gradient", "--problem", problem,
                     "--t-end", args["--t-end"], "--dt", args["--dt"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    @pytest.mark.parametrize("dt, code", [("1e-3", 0), ("0.03", 0)])
    def test_avd_error_budget(self, tmp_path, capsys, dt, code):
        # the error bound is O(h^3): 1e-5 of the decay bound at dt = 1e-3,
        # and at dt = 0.03 0.12 of it, under which L still stays
        problem = write_json(tmp_path / "p.json",
                             {"kind": "quadratic", "eigs": [1.0, 4.0], "b": [1.0, -2.0]})
        assert main(["flow", "--model", "avd_r3", "--problem", problem,
                     "--t-end", "50", "--dt", dt]) == code
        report = json.loads(capsys.readouterr().out)
        assert report["max_rel_excess"] <= flows.DECAY_REL_TOL
        assert report["max_rel_error"] <= (1e-4 if dt == "1e-3" else 1.0)

    def test_avd_half_step_log_grid_exit_1(self, tmp_path, capsys):
        # on the log grid 1, 1.5, 2.25, ... the error bound is far above the
        # decay bound
        problem = write_json(tmp_path / "p.json",
                             {"kind": "quadratic", "eigs": [1.0, 4.0], "b": [1.0, -2.0]})
        assert main(["flow", "--model", "avd_r3", "--problem", problem,
                     "--t-end", "5.0625", "--dt", "0.5"]) == 1
        assert json.loads(capsys.readouterr().out)["max_rel_error"] > 100.0

    def test_unknown_model_exit_2(self, tmp_path):
        problem = write_json(tmp_path / "p.json", QUAD_PROBLEM)
        assert main(["flow", "--model", "verlet", "--problem", problem,
                     "--t-end", "1.0", "--dt", "0.01"]) == 2

    @pytest.mark.parametrize("problem, pairing", [
        ({"kind": "logcosh", "scale": 2.0, "dim": 2}, lyapunov.pairing_gf_convex),
        (QUAD_PROBLEM, lyapunov.pairing_gd_combined),
    ], ids=["logcosh-gf_convex", "quadratic-gd_combined"])
    def test_gradient_flow_pairing(self, tmp_path, capsys, problem, pairing):
        # mu = 0 takes the sublevel-set pairing, mu > 0 the mu-augmented gap
        out = tmp_path / "traj.csv"
        assert main(["flow", "--model", "gradient", "--problem",
                     write_json(tmp_path / "p.json", problem),
                     "--t-end", "2", "--dt", "0.01", "--out", str(out)]) == 0
        oracle = problem_from_json(problem)
        model, lyap = pairing(oracle)
        x0 = oracle.x0_ref if oracle.x0_ref is not None else oracle.x_star + 1.0
        rows = flows.continuous_decay_check(model, lyap, flows.FlowState(0.0, x0),
                                            2.0, 0.01)["rows"]
        harness.write_csv(tmp_path / "want.csv",
                          ("t", "lyapunov", "bound", "x_norm_err", "gamma"), rows)
        assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("model", flows.FLOW_KINDS)
    def test_composite_problem_exit_2(self, tmp_path, capsys, model):
        # each integrated the flow on grad_h alone, dropping the l1 term,
        # and ended in a decay verdict (exit 0 or 1)
        out = tmp_path / "traj.csv"
        assert main(["flow", "--model", model, "--problem",
                     write_json(tmp_path / "p.json", LASSO_PROBLEM),
                     "--t-end", "5", "--dt", "1e-3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "smooth objectives only" in captured.err
        assert not out.exists()

    def test_directory_out_exit_2(self, tmp_path, capsys):
        # the write's IsADirectoryError ended it with a traceback and exit 1
        problem = write_json(tmp_path / "p.json", QUAD_PROBLEM)
        assert main(["flow", "--model", "gradient", "--problem", problem,
                     "--t-end", "1", "--dt", "0.01", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    @pytest.mark.parametrize("t_end", ["1e300", "1e9"])
    def test_unallocatable_trajectory_exit_2(self, tmp_path, capsys, t_end):
        # 1e300 / 1e-3 steps made np.empty raise a bare ValueError (exit 1);
        # 1e12 steps would have tried to allocate the whole trajectory
        problem = write_json(tmp_path / "p.json", QUAD_PROBLEM)
        assert main(["flow", "--model", "gradient", "--problem", problem,
                     "--t-end", t_end, "--dt", "1e-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "values" in captured.err


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

    def test_nan_rate_fails_with_strict_json(self, capsys):
        code = main(["verify-lyapunov", "--pairing", "hb", "--samples", "100",
                     "--seed", "0", "--c-override", "nan"])
        report = strict_json(capsys.readouterr().out)
        assert code == 1 and report["pass"] is False and report["min_slack"] is None

    def test_unknown_pairing_exit_2(self):
        assert main(["verify-lyapunov", "--pairing", "mystery"]) == 2

    @pytest.mark.parametrize("pairing", ["hb", "gf_convex", "composite_sc"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_no_samples_exit_2(self, capsys, pairing, samples):
        # zero samples printed "pass": true (exit 0), and -5 exited 1
        assert main(["verify-lyapunov", "--pairing", pairing, "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "samples must be >= 1" in captured.err

    @pytest.mark.parametrize("pairing", ["hb", "composite_sc"])
    def test_negative_seed_exit_2(self, capsys, pairing):
        # exited 1, the certificate-failure code, with numpy's traceback
        assert main(["verify-lyapunov", "--pairing", pairing, "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "seed must be >= 0" in captured.err


class TestRatesCommand:
    def test_b0_table(self, tmp_path, capsys):
        # apg's bound column is the B = 0 bound
        out = str(tmp_path / "rates.csv")
        code = main(["rates", "--rule", "apg", "--r", "1.0",
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

    @pytest.mark.parametrize("args", [
        ["--rule", "nag", "--r", "nan", "--mu-over-l", "0"],
        ["--rule", "apg", "--r", "1", "--mu-over-l", "nan"],
    ], ids=["nag-r-nan", "apg-mu-nan"])
    def test_nan_table_fails_with_strict_json(self, tmp_path, capsys, args):
        # each printed "pass": true and exited 0: max() dropped the NaN excess
        out = str(tmp_path / "rates.csv")
        code = main(["rates", *args, "--kmax", "5", "--out", out])
        report = strict_json(capsys.readouterr().out)
        assert code == 1 and report["pass"] is False and report["max_violation"] is None

    @pytest.mark.parametrize("rule, owner", [("b0", "apg"), ("b_half", "new_apg"),
                                             ("momentum", None)])
    def test_bound_only_rule_exit_2(self, tmp_path, capsys, rule, owner):
        # a bound with no step schedule measured nothing, yet printed
        # "pass": true and exited 0
        out = tmp_path / "rates.csv"
        assert main(["rates", "--rule", rule, "--r", "1.0", "--mu-over-l", "0.01",
                     "--kmax", "5", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert "step rule" in captured.err
        if owner:
            assert f"--rule {owner}" in captured.err

    def test_directory_out_exit_2(self, tmp_path, capsys):
        # the write's IsADirectoryError ended it with a traceback and exit 1
        assert main(["rates", "--rule", "nag", "--r", "1.0", "--mu-over-l", "0.0",
                     "--kmax", "5", "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_unknown_rule_exit_2(self):
        assert main(["rates", "--rule", "cubic", "--r", "1.0",
                     "--mu-over-l", "0.0", "--kmax", "5"]) == 2

    def test_gamma0_below_mu_exit_2(self):
        assert main(["rates", "--rule", "apg", "--r", "0.5",
                     "--mu-over-l", "1.0", "--kmax", "5"]) == 2

    @pytest.mark.parametrize("rule", ["nag", "apg", "new_apg", "fast_grad"])
    def test_negative_r_exit_2(self, rule, capsys):
        # nag, apg and fast_grad ended in a math domain error from
        # math.sqrt in the step rule (a traceback and exit 1)
        assert main(["rates", "--rule", rule, "--r", "-1",
                     "--mu-over-l", "0", "--kmax", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "gamma0 > 0" in captured.err

    @pytest.mark.parametrize("rule", ["apg", "nag"])
    def test_negative_kmax_exit_2(self, rule, capsys):
        # a bound-only rule printed a passing empty table; nag raised from numpy
        assert main(["rates", "--rule", rule, "--r", "1.0",
                     "--mu-over-l", "0.0", "--kmax", "-1"]) == 2
        assert "kmax" in capsys.readouterr().err


class TestCertifyCommand:
    SMALL = ["--samples", "200", "--kmax", "50"]

    def test_sweep_passes(self, capsys):
        assert main(["certify", *self.SMALL]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 41 and all(line.endswith("  PASS") for line in lines)
        kinds = [line.split()[0] for line in lines]
        assert kinds == ["pairing"] * 8 + ["rate"] * 24 + ["flow"] * 4 + ["composite"] * 5

    @pytest.mark.parametrize("flag, value, message", [
        ("--samples", "0", "samples must be >= 1, got 0"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
        ("--kmax", "-1", "kmax must be >= 0"),
    ])
    def test_refused_argument_exit_2(self, capsys, flag, value, message):
        # the script these lines came from ended each in a traceback and
        # exit 1; --kmax -1 printed the 8 pairing lines first
        assert main(["certify", *self.SMALL, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_failed_claim_fails_the_sweep(self, capsys, monkeypatch):
        verify = lyapunov.verify_pairing

        def verify_hb_fails(name, samples, seed, c_override=None):
            if name != "hb":
                return verify(name, samples, seed, c_override)
            return {"pairing": name, "min_slack": math.nan, "pass": False}

        monkeypatch.setattr(lyapunov, "verify_pairing", verify_hb_fails)
        assert main(["certify", *self.SMALL]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 41
        assert lines[3] == "pairing hb                min slack  nan  FAIL"
        assert all(line.endswith("  PASS") for line in lines[:3] + lines[4:])


class TestLogging:
    def test_invalid_level_exit_2(self, monkeypatch, capsys):
        monkeypatch.setenv("OPT_LOG_LEVEL", "verbose")
        assert main(["rates", "--rule", "apg", "--r", "1.0",
                     "--mu-over-l", "0.0", "--kmax", "5"]) == 2
        assert "OPT_LOG_LEVEL" in capsys.readouterr().err

    def test_quiet_level_accepted(self, monkeypatch):
        monkeypatch.setenv("OPT_LOG_LEVEL", "quiet")
        assert main(["rates", "--rule", "apg", "--r", "1.0",
                     "--mu-over-l", "0.0", "--kmax", "5"]) == 0


def strict_json(text):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(text, parse_constant=reject)


class TestRunFailsClosed:
    """Runs that reach a NaN or Inf value; each config once reported
    "pass": true and exited 0."""

    def run_main(self, tmp_path, capsys, cfg):
        out = str(tmp_path / "trace.csv")
        cfg = dict(cfg, out=out)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", "--config", write_json(tmp_path / "cfg.json", cfg)])
        report = strict_json(capsys.readouterr().out)
        with open(out) as fh:
            rows = list(csv.reader(fh))
        return code, report, rows

    def test_nan_start_point(self, tmp_path, capsys):
        cfg = {"problem": QUAD_PROBLEM, "solver": "gd", "iters": 50, "x0": [math.nan, 1.0]}
        code, report, rows = self.run_main(tmp_path, capsys, cfg)
        assert code == 1 and report["pass"] is False
        assert report["nonfinite_at_k"] == 0 and len(rows) == 2

    def test_diverging_heavy_ball(self, tmp_path, capsys):
        cfg = {"problem": {"kind": "quadratic", "eigs": [1e-3, 1.0], "b": [0.0, 0.0]},
               "solver": "hb_gs", "alpha": 1.0, "iters": 300, "x0": [1.0, 1.0]}
        code, report, rows = self.run_main(tmp_path, capsys, cfg)
        assert code == 1 and report["pass"] is False
        k = report["nonfinite_at_k"]
        assert 0 < k < 300 and int(rows[-1][0]) == k and report["iters"] == k

    def test_overflowing_start_point(self, tmp_path, capsys):
        cfg = {"problem": QUAD_PROBLEM, "solver": "gd", "iters": 50, "x0": [1e308, 1e308]}
        code, report, _ = self.run_main(tmp_path, capsys, cfg)
        assert code == 1 and report["pass"] is False
        assert report["nonfinite_at_k"] == 0

    def test_finite_run_reports_null(self, tmp_path, capsys):
        code, report, _ = self.run_main(tmp_path, capsys, gd_config())
        assert code == 0 and report["nonfinite_at_k"] is None

    def test_nan_bound_gap_fails(self):
        records = [solvers.TraceRecord(k, 1.0, value, 2.0, 0.0, 1.0, 0.5, math.nan, value)
                   for k, value in enumerate([1.0, math.nan, 0.5])]
        trace = solvers.TraceRecord(*map(np.array, zip(*records)))
        report = harness._run_report(
            solvers.RunResult("gd", trace, certified=True, violations=0))
        assert report["pass"] is False and report["max_bound_violation"] is None
        json.dumps(report, allow_nan=False)


class TestNonFiniteProblem:
    # each one built an oracle and ended in a certificate FAIL (exit 1)
    @pytest.mark.parametrize("command", ["run", "flow"])
    @pytest.mark.parametrize("problem", [
        {"kind": "quadratic", "eigs": [math.nan, 4.0], "b": [1.0, -2.0]},
        {"kind": "quadratic", "eigs": [1.0, math.inf], "b": [1.0, -2.0]},
        {"kind": "quadratic", "eigs": [1.0, 4.0], "b": [math.nan, -2.0]},
        {"kind": "logcosh", "scale": math.nan, "dim": 2},
        dict(LASSO_PROBLEM, a_matrix=[[math.nan, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        dict(LASSO_PROBLEM, rho=math.nan),
        dict(LASSO_PROBLEM, rho=math.inf),
    ], ids=["eigs-nan", "eigs-inf", "b-nan", "scale-nan", "a-nan", "rho-nan", "rho-inf"])
    def test_usage_error_exit_2(self, tmp_path, capsys, command, problem):
        if command == "run":
            cfg = {"problem": problem, "solver": "pg", "iters": 10}
            args = ["run", "--config", write_json(tmp_path / "cfg.json", cfg)]
        else:
            args = ["flow", "--model", "gradient", "--problem",
                    write_json(tmp_path / "p.json", problem), "--t-end", "1", "--dt", "0.01"]
        with np.errstate(all="ignore"):
            assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err


class TestMalformedProblem:
    # each exited 1 with a traceback, or (dim 2.7, dim true, rho "0.3") ran
    # on a truncated or converted value
    @pytest.mark.parametrize("command", ["run", "flow"])
    @pytest.mark.parametrize("problem", [
        {"kind": "logcosh", "scale": 2.0, "dim": math.nan},
        {"kind": "logcosh", "scale": 2.0, "dim": 2.7},
        {"kind": "logcosh", "scale": 2.0, "dim": True},
        {"kind": "logcosh", "scale": "two", "dim": 2},
        {"kind": "quadratic", "eigs": [1.0, "a"], "b": [1.0, -2.0]},
        {"kind": "quadratic", "eigs": [[1.0], [4.0, 2.0]], "b": [1.0, -2.0]},
        dict(LASSO_PROBLEM, a_matrix=[[1.0, "a"], [0.0, 1.0], [1.0, 1.0]]),
        dict(LASSO_PROBLEM, rho="0.3"),
    ], ids=["dim-nan", "dim-2.7", "dim-true", "scale-str", "eigs-str", "eigs-ragged",
            "a-str", "rho-str"])
    def test_usage_error_exit_2(self, tmp_path, capsys, command, problem):
        if command == "run":
            cfg = {"problem": problem, "solver": "pg", "iters": 10}
            args = ["run", "--config", write_json(tmp_path / "cfg.json", cfg)]
        else:
            args = ["flow", "--model", "gradient", "--problem",
                    write_json(tmp_path / "p.json", problem), "--t-end", "1", "--dt", "0.01"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must be" in captured.err


class TestBadRunConfig:
    # each ran (iters 0 and -3 passed with "iters": 0, 2.5 ran 2 steps, v0
    # of the wrong length and seed were ignored) or exited 1 with a traceback
    @pytest.mark.parametrize("change", [
        {"iters": 0}, {"iters": -3}, {"iters": 2.5}, {"iters": "abc"}, {"iters": None},
        {"iters": True}, {"alpha": "x"}, {"alpha": math.nan}, {"gamma0": math.inf},
        {"stop_grad_tol": "x"}, {"x0": [1.0, "a"]}, {"x0": [1.0, 2.0, 3.0]},
        {"v0": [1.0, 2.0, 3.0]}, {"seed": 0},
    ], ids=lambda change: "-".join(f"{k}={v!r}" for k, v in change.items()))
    def test_usage_error_exit_2(self, tmp_path, capsys, change):
        out = tmp_path / "trace.csv"
        cfg = dict(gd_config(str(out)), **change)
        assert main(["run", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert next(iter(change)) in captured.err


@pytest.mark.parametrize("kind", [kind for kind, method in solvers.METHODS.items()
                                  if "gamma" in method.blocks])
@pytest.mark.parametrize("gamma0", [-1, 0])
def test_nonpositive_gamma0_exit_2(tmp_path, capsys, kind, gamma0):
    # gamma0 = -1 exited 1 on a math domain error for nag, apg, apg_fast_grad
    # and avd_grad, the code of a failed certificate; nag ran at gamma0 = 0
    out = tmp_path / "trace.csv"
    cfg = {"problem": QUAD_PROBLEM, "solver": kind, "iters": 10, "gamma0": gamma0,
           "out": str(out)}
    assert main(["run", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert "gamma0 > 0" in captured.err


# Each ran and passed with a trace identical bit for bit to the default run:
# the kind never reads the key.
UNREAD_KEYS = [*((kind, "alpha") for kind in ("nag", "apg", "apg_fast_grad", "new_apg")),
               *((kind, "v0") for kind in ("ppa", "gd", "pg", "scaled_ppa")),
               *((kind, "gamma0") for kind in ("ppa", "gd", "pg", "hb_gs", "momentum"))]
KEY_VALUES = {"alpha": 0.01, "v0": [1.0, 2.0], "gamma0": 3.0}


class TestUnreadRunKeys:
    @pytest.mark.parametrize("kind, key", UNREAD_KEYS)
    def test_unread_key_exit_2(self, tmp_path, capsys, kind, key):
        out = tmp_path / "trace.csv"
        cfg = {"problem": QUAD_PROBLEM, "solver": kind, "iters": 10,
               key: KEY_VALUES[key], "out": str(out)}
        assert main(["run", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert f"never reads {key}" in captured.err

    @pytest.mark.parametrize("kind, key", [(kind, key) for kind in solvers.SOLVER_KINDS
                                           for key in KEY_VALUES
                                           if (kind, key) not in UNREAD_KEYS])
    def test_read_key_runs(self, tmp_path, capsys, kind, key):
        cfg = {"problem": QUAD_PROBLEM, "solver": kind, "iters": 10, key: KEY_VALUES[key]}
        assert main(["run", "--config", write_json(tmp_path / "cfg.json", cfg)]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["kind"] == kind


MALFORMED_PROBLEMS = {
    "quadratic-no-eigs": {"kind": "quadratic", "b": [1.0, -2.0]},
    "lasso-no-rho": {k: v for k, v in LASSO_PROBLEM.items() if k != "rho"},
    "logcosh-no-scale": {"kind": "logcosh", "dim": 2},
    "kind-list": dict(QUAD_PROBLEM, kind=["quadratic"]),
}
MALFORMED_CONFIGS = {
    "solver-list": {"solver": ["gd"]},
    "out-1": {"out": 1},
    "out-true": {"out": True},
    "out-list": {"out": ["a"]},
    "out-null": {"out": None},
    "out-empty": {"out": ""},
    "variant": {"variant": "sqrt"},
    "ppa-alpha-negative": {"solver": "ppa", "alpha": -0.5},
    "gd-alpha-zero": {"alpha": 0},
}


class TestMalformedDocument:
    # each exited 1 with a traceback, but for "out" 1 and true, which wrote
    # the trace to file descriptor 1 and closed it, and for "out" null and
    # "", "variant" and the alphas, which ran and passed (exit 0; ppa at
    # -0.5 was certified, with a bound of 2^k; a null or empty "out" wrote
    # no trace, even with --out)
    @pytest.mark.parametrize("command, change", [
        *((command, {"problem": problem}) for command in ("run", "flow")
          for problem in MALFORMED_PROBLEMS.values()),
        *(("run", change) for change in MALFORMED_CONFIGS.values()),
    ], ids=[*(f"{command}-{name}" for command in ("run", "flow")
              for name in MALFORMED_PROBLEMS),
            *(f"run-{name}" for name in MALFORMED_CONFIGS)])
    def test_usage_error_exit_2(self, tmp_path, monkeypatch, capfd, command, change):
        monkeypatch.chdir(tmp_path)
        if command == "run":
            args = ["run", "--config", write_json(tmp_path / "doc.json",
                                                  dict(gd_config(), **change))]
        else:
            args = ["flow", "--model", "gradient", "--problem",
                    write_json(tmp_path / "doc.json", change["problem"]),
                    "--t-end", "1", "--dt", "0.01"]
        assert main(args) == 2
        captured = capfd.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


class TestSmoothOnlyKinds:
    # each stepped on grad_h alone, dropping the l1 term, and reported a
    # run with violations on most steps (or a NaN) as certified
    @pytest.mark.parametrize("kind", ["gd", "momentum", "hb_gs", "avd_gs",
                                      "avd_grad", "avd_extrap"])
    def test_composite_objective_exit_2(self, tmp_path, capsys, kind):
        rng = np.random.default_rng(0)
        problem = {"kind": "lasso", "a_matrix": rng.standard_normal((9, 6)).tolist(),
                   "b": rng.standard_normal(9).tolist(), "rho": 0.3}
        cfg = {"problem": problem, "solver": kind, "iters": 300, "alpha": 0.1,
               "out": str(tmp_path / "trace.csv")}
        assert main(["run", "--config", write_json(tmp_path / "cfg.json", cfg)]) == 2
        captured = capsys.readouterr()
        assert f"{kind} handles smooth objectives" in captured.err
        assert captured.out == "" and not (tmp_path / "trace.csv").exists()


def csv_reference(header, rows) -> bytes:
    """What csv.writer writes for rows with floats at 17 digits and NaN as
    empty cells."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if isinstance(v, float) and math.isnan(v)
                         else "%.17g" % v if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


class TestTraceWriter:
    def check(self, tmp_path, header, rows):
        path = tmp_path / "t.csv"
        harness.write_csv(path, header, iter(rows))
        assert path.read_bytes() == csv_reference(header, rows)

    def test_run_rows(self, tmp_path):
        quad = make_quadratic([1.0, 4.0], [1.0, -2.0])
        for kind in ("gd", "nag", "hb_gs"):
            alpha = 0.5 if kind == "hb_gs" else None
            res = solvers.run(quad, kind, [4.0, -3.0], iters=40, alpha=alpha)
            rows = list(harness.run_rows(res))
            assert any(math.isnan(v) for row in rows for v in row)
            self.check(tmp_path, harness.RUN_HEADER, rows)
        # a column keeps its type over the rows; only NaN varies
        self.check(tmp_path, harness.RUN_HEADER,
                   [(0, math.inf, -math.inf, math.nan, 0.0, -0.0, 1e-300, 5e-324),
                    (1, np.float64(0.1), np.float64(math.nan), 1.0, 2.5, math.nan, 1e300,
                     3.5),
                    (2 ** 53, -0.1, 1e-17, -math.inf, math.nan, 1.0, 0.5, 2.0)])

    def test_flow_rows(self, tmp_path):
        # the gradient flow carries no gamma: its gamma cells are empty strings
        for pairing in (lyapunov.pairing_scaled, lyapunov.pairing_gd_combined):
            model, lyap = pairing(make_quadratic([1.0, 4.0], [1.0, -2.0]))
            state0 = flows.FlowState(0.0, np.array([4.0, -3.0]),
                                     gamma=4.0 if model.has_gamma else None)
            rows = flows.continuous_decay_check(model, lyap, state0, 0.5, 0.01)["rows"]
            assert isinstance(rows[0][-1], float) == model.has_gamma
            self.check(tmp_path, ("t", "lyapunov", "bound", "x_norm_err", "gamma"), rows)

    def test_rates_rows(self, tmp_path, capsys):
        for rule in ("nag", "apg", "new_apg", "fast_grad"):
            for q in (0.0, 1e-3):
                out = tmp_path / f"{rule}_{q}.csv"
                assert main(["rates", "--rule", rule, "--r", "1.0", "--mu-over-l", str(q),
                             "--kmax", "30", "--out", str(out)]) == 0
                _, _, rhos = harness.schedules.iterate_schedule(rule, 1.0, q, 1.0, 30)
                rows = [(k, rhos[k], harness.schedules.rho_bound(rule, 1.0, q, 1.0, k))
                        for k in range(31)]
                assert out.read_bytes() == csv_reference(("k", "rho_measured", "rho_bound"),
                                                         rows)
