"""Command-line entry point: run solvers, integrate flows, verify Lyapunov
pairings, and tabulate contraction-factor bounds.

Exit codes: 0 on PASS, 1 on a certificate or bound failure, 2 on usage or
configuration errors.  All numeric CSV output uses 17 significant digits
so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import flows, lyapunov, schedules, solvers
from .problems import InvalidProblemError, problem_from_json

log = logging.getLogger("lyapopt")

_FMT = "%.17g"

_RUN_KEYS = {"problem", "solver", "iters", "alpha", "variant", "x0", "v0",
             "gamma0", "out", "seed", "stop_grad_tol"}


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and math.isnan(value):
        return ""
    if isinstance(value, float):
        return _FMT % value
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _setup_logging():
    level = os.environ.get("OPT_LOG_LEVEL", "info").lower()
    table = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in table:
        raise ConfigError(f"OPT_LOG_LEVEL must be quiet/info/debug, got {level!r}")
    logging.basicConfig(level=table[level], format="%(levelname)s %(message)s")


def _load_config(path) -> list:
    with open(path) as fh:
        doc = json.load(fh)
    configs = doc if isinstance(doc, list) else [doc]
    for cfg in configs:
        if not isinstance(cfg, dict):
            raise ConfigError("each config must be a JSON object")
        extra = set(cfg) - _RUN_KEYS
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        for key in ("problem", "solver"):
            if key not in cfg:
                raise ConfigError(f"config missing required key {key!r}")
    return configs


def cmd_run(config: dict) -> dict:
    oracle = problem_from_json(config["problem"])
    kind = config["solver"]
    x0 = config.get("x0")
    if x0 is None:
        x0 = oracle.x0_ref if oracle.x0_ref is not None else np.ones(oracle.dim)
    result = solvers.run(
        oracle, kind,
        x0=np.asarray(x0, dtype=float),
        v0=None if config.get("v0") is None else np.asarray(config["v0"], dtype=float),
        gamma0=config.get("gamma0"),
        iters=int(config.get("iters", 100)),
        alpha=config.get("alpha"),
        variant=config.get("variant", "sqrt"),
        stop_grad_tol=config.get("stop_grad_tol"),
    )
    out = config.get("out")
    if out:
        _write_csv(out, ["k", "f_gap", "lyapunov", "bound", "slack",
                         "grad_norm", "alpha", "gamma"],
                   [(r.k, r.f_gap, r.lyapunov, r.bound, r.slack,
                     r.grad_norm, r.alpha, r.gamma) for r in result.records])
        log.info("trace written to %s", out)
    report = _nag_aware_report(oracle, result)
    log.info("run %s: %s", kind, "PASS" if report["pass"] else "FAIL")
    return report


def _nag_aware_report(oracle, result: solvers.RunResult) -> dict:
    max_violation = 0.0
    for rec in result.records:
        if math.isnan(rec.bound):
            continue
        value = rec.lyapunov
        if result.kind == "nag":
            value -= rec.grad_norm ** 2 / (2.0 * oracle.lip)
        max_violation = max(max_violation,
                            value - rec.bound - 1e-9 * (1.0 + abs(rec.bound)))
    return {
        "kind": result.kind,
        "iters": len(result.records) - 1,
        "certified": result.certified,
        "cert_violations": result.violations,
        "max_bound_violation": max_violation,
        "uncertified": not result.certified,
        "pass": result.violations == 0 and max_violation <= 0.0,
    }


_FLOW_LYAP = {
    "gradient": lyapunov.pairing_gd_combined,
    "scaled_gradient": lyapunov.pairing_scaled,
    "heavy_ball": lyapunov.pairing_hb,
    "avd_r3": lyapunov.pairing_avd,
    "hnag": lyapunov.pairing_hnag,
}


def cmd_flow(model_name: str, problem_doc: dict, t_end: float, dt: float,
             out: str = None) -> dict:
    oracle = problem_from_json(problem_doc)
    if model_name not in _FLOW_LYAP:
        raise ConfigError(f"unknown flow model: {model_name!r}")
    if model_name == "gradient" and oracle.mu == 0:
        model, lyap = lyapunov.pairing_gf_convex(oracle)
    else:
        model, lyap = _FLOW_LYAP[model_name](oracle)
    if model_name == "avd_r3":
        # gamma = 4/t^2 from the initial time t1 = 1
        state0 = flows.FlowState(t=1.0, x=_default_x0(oracle),
                                 v=_default_x0(oracle), gamma=4.0)
    else:
        x0 = _default_x0(oracle)
        v0 = x0.copy() if model.has_v else None
        gamma0 = oracle.lip if model.has_gamma else None
        state0 = flows.FlowState(t=0.0, x=x0, v=v0, gamma=gamma0)
    report = flows.continuous_decay_check(model, lyap, state0, t_end, dt)
    if out:
        _write_csv(out, ["t", "lyapunov", "bound", "x_norm_err", "gamma"],
                   report["rows"])
        log.info("trajectory written to %s", out)
    log.info("flow %s: %s", model_name, "PASS" if report["pass"] else "FAIL")
    return report


def _default_x0(oracle) -> np.ndarray:
    if oracle.x0_ref is not None:
        return np.asarray(oracle.x0_ref, dtype=float).copy()
    return oracle.x_star + np.ones(oracle.dim)


def cmd_verify_lyapunov(pairing: str, samples: int, seed: int,
                        c_override=None) -> dict:
    report = lyapunov.verify_pairing(pairing, samples, seed, c_override)
    log.info("verify %s: min slack %.3e, %s", pairing, report["min_slack"],
             "PASS" if report["pass"] else "FAIL")
    return report


def cmd_rates(rule: str, r: float, mu_over_l: float, k_max: int,
              out: str = None) -> dict:
    lip = 1.0
    gamma0 = r * lip
    mu = mu_over_l * lip
    rows = []
    max_slack_violation = 0.0
    measured = None
    if rule in schedules.STEP_RULES:
        _, _, rhos = schedules.iterate_schedule(rule, gamma0, mu, lip, k_max)
        measured = rhos
    for k in range(k_max + 1):
        bound = schedules.rho_bound(rule, gamma0, mu, lip, k)
        meas = measured[k] if measured is not None else math.nan
        if measured is not None:
            max_slack_violation = max(max_slack_violation, meas - bound)
        rows.append((k, meas, bound))
    if out:
        _write_csv(out, ["k", "rho_measured", "rho_bound"], rows)
        log.info("rate table written to %s", out)
    # the measured factors are numpy floats: cast so the report is plain JSON
    ok = bool(max_slack_violation <= 1e-12)
    log.info("rates %s: %s", rule, "PASS" if ok else "FAIL")
    return {"rule": rule, "k_max": k_max, "pass": ok,
            "max_violation": float(max_slack_violation)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapopt",
        description="first-order methods with numeric convergence certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a solver config and check its bound")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out")
    p_run.add_argument("--jobs", type=int, default=1)

    p_flow = sub.add_parser("flow", help="integrate a flow and check decay")
    p_flow.add_argument("--model", required=True)
    p_flow.add_argument("--problem", required=True, help="problem JSON file")
    p_flow.add_argument("--t-end", type=float, required=True)
    p_flow.add_argument("--dt", type=float, required=True)
    p_flow.add_argument("--out")

    p_ver = sub.add_parser("verify-lyapunov", help="sampled strong-condition check")
    p_ver.add_argument("--pairing", required=True)
    p_ver.add_argument("--samples", type=int, default=10_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--c-override", type=float, default=None)

    p_rates = sub.add_parser("rates", help="contraction factor bound table")
    p_rates.add_argument("--rule", required=True)
    p_rates.add_argument("--r", type=float, required=True)
    p_rates.add_argument("--mu-over-l", type=float, required=True)
    p_rates.add_argument("--kmax", type=int, required=True)
    p_rates.add_argument("--out")
    return parser


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            configs = _load_config(args.config)
            if args.out and len(configs) == 1 and "out" not in configs[0]:
                configs[0]["out"] = args.out
            if args.jobs > 1 and len(configs) > 1:
                with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                    reports = list(pool.map(cmd_run, configs))
            else:
                reports = [cmd_run(cfg) for cfg in configs]
            print(json.dumps(reports if len(reports) > 1 else reports[0], indent=2))
            return 0 if all(r["pass"] for r in reports) else 1
        if args.command == "flow":
            with open(args.problem) as fh:
                problem_doc = json.load(fh)
            try:
                report = cmd_flow(args.model, problem_doc, args.t_end, args.dt, args.out)
            except flows.DivergenceError as exc:
                print(json.dumps({"pass": False, "error": str(exc)}, indent=2))
                return 1
            printable = {k: v for k, v in report.items() if k != "rows"}
            print(json.dumps(printable, indent=2))
            return 0 if report["pass"] else 1
        if args.command == "verify-lyapunov":
            report = cmd_verify_lyapunov(args.pairing, args.samples, args.seed,
                                         args.c_override)
            print(json.dumps(report, indent=2))
            return 0 if report["pass"] else 1
        report = cmd_rates(args.rule, args.r, args.mu_over_l, args.kmax, args.out)
        print(json.dumps(report, indent=2))
        return 0 if report["pass"] else 1
    except (ConfigError, InvalidProblemError, schedules.ScheduleError,
            lyapunov.LyapunovConfigError, solvers.UnsupportedSolverError,
            flows.FlowError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
