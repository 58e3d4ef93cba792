"""Command-line entry point: run solvers, integrate flows, verify Lyapunov
pairings, tabulate contraction-factor bounds, and certify every claim at once.

Exit codes: 0 on PASS, 1 on a certificate or bound failure, 2 on usage,
configuration or file (OSError) errors.  All numeric CSV output uses 17
significant digits so doubles round-trip exactly.
"""

from __future__ import annotations

import argparse
import errno
import json
import logging
import math
import os
import sys

import numpy as np

from . import calculus, flows, lyapunov, schedules, solvers
from .problems import InvalidProblemError, float_array, problem_from_json

log = logging.getLogger("lyapopt")

_RUN_KEYS = {"problem", "solver", "iters", "alpha", "x0", "v0", "gamma0", "out",
             "stop_grad_tol"}


class ConfigError(ValueError):
    pass


RUN_HEADER = ("k", "f_gap", "lyapunov", "bound", "slack", "grad_norm", "alpha", "gamma")


def write_csv(path, header, rows):
    """Write a trace CSV as csv.writer would, one row at a time as rows
    yields them: numbers with 17 significant digits (an int below 1e17
    prints as itself), every other value as str(), a cell that prints as
    nan left empty, and \r\n line ends.

    Cells hold numbers and plain strings, so none needs quoting.  Every row
    is one %-format, built from the first row's cell types: a column keeps
    its type over the rows, and only NaN varies.
    """
    fmt = None
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            if fmt is None:
                fmt = ",".join("%.17g" if isinstance(v, (int, float)) and not isinstance(v, bool)
                               else "%s" for v in row) + "\r\n"
            line = fmt % tuple(row)
            if "nan" in line:
                line = ",".join("" if c == "nan" else c for c in line[:-2].split(",")) + "\r\n"
            fh.write(line)


def run_rows(result):
    """The trace CSV rows of a solvers.run result, in RUN_HEADER order,
    read from its columns."""
    t = result.trace
    return zip(*(c.tolist() for c in (t.k, t.f_gap, t.lyapunov, t.bound, t.slack,
                                      t.grad_norm, t.alpha, t.gamma)))


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
        if not isinstance(cfg["solver"], str):
            raise ConfigError(f"solver must be a string, got {cfg['solver']!r}")
        # open() would take an int (or a bool) as a file descriptor, and a
        # null or empty out would drop the trace that --out asks for
        if "out" in cfg and not (isinstance(cfg["out"], str) and cfg["out"]):
            raise ConfigError(f"out must be a file name, got {cfg['out']!r}")
        iters = cfg.get("iters", 100)
        if type(iters) is not int or iters < 1:
            raise ConfigError(f"iters must be an integer >= 1, got {iters!r}")
        for key in ("alpha", "gamma0", "stop_grad_tol"):
            value = cfg.get(key)
            finite = type(value) in (int, float) and math.isfinite(value)
            if value is not None and not finite:
                raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return configs


def _vector(config: dict, key: str, dim: int):
    """config[key] as a float vector of length dim, or None when the config
    gives none.  A NaN or infinite entry is let through: the run stops at
    k = 0 and fails (nonfinite_at_k)."""
    value = config.get(key)
    if value is None:
        return None
    vec = float_array(value, key)
    if vec.shape != (dim,):
        raise ConfigError(f"{key} must be a vector of length {dim}, got {value!r}")
    return vec


def _unread_keys(config: dict) -> list:
    """The keys of config that its solver kind never reads: alpha for a kind
    whose step rule sets alpha, v0 or gamma0 for a kind without that block."""
    method = solvers.METHODS.get(config["solver"])
    if method is None:
        return []
    reads = {"alpha": method.takes_alpha, "v0": "v" in method.blocks,
             "gamma0": "gamma" in method.blocks}
    return [key for key, read in reads.items() if key in config and not read]


def cmd_run(config: dict) -> dict:
    return _record_run(config, _run_config(config))


def _run_config(config: dict) -> solvers.RunResult:
    """The run config asks for; a refused config raises before it writes
    anything."""
    kind = config["solver"]
    unread = _unread_keys(config)
    if unread:
        # the run would ignore them, and its trace would match the default run
        raise ConfigError(f"solver {kind} never reads {', '.join(unread)}")
    oracle = problem_from_json(config["problem"])
    x0 = _vector(config, "x0", oracle.dim)
    if x0 is None:
        x0 = oracle.x0_ref if oracle.x0_ref is not None else np.ones(oracle.dim)
    result = solvers.run(
        oracle, kind,
        x0=np.asarray(x0, dtype=float),
        v0=_vector(config, "v0", oracle.dim),
        gamma0=config.get("gamma0"),
        iters=int(config.get("iters", 100)),
        alpha=config.get("alpha"),
        stop_grad_tol=config.get("stop_grad_tol"),
    )
    out = config.get("out")
    # write_csv's open would refuse these with the same errors, but only
    # after a list's earlier traces were written
    if out and not os.path.exists(os.path.dirname(out) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), out)
    if out and os.path.isdir(out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out)
    return result


def _record_run(config: dict, result: solvers.RunResult) -> dict:
    """Write the run's trace where config asks and return its report."""
    out = config.get("out")
    if out:
        write_csv(out, RUN_HEADER, run_rows(result))
        log.info("trace written to %s", out)
    report = _run_report(result)
    log.info("run %s: %s", result.kind, "PASS" if report["pass"] else "FAIL")
    return report


def _run_report(result: solvers.RunResult) -> dict:
    """The run's verdict.  A non-finite value anywhere fails it: the run's
    own stop (nonfinite_at_k) and a NaN or infinite bound gap alike; such a
    gap is reported as a null max_bound_violation."""
    t = result.trace
    # a NaN bound is no bound; np.max keeps a NaN gap, which fails the run
    has_bound = ~np.isnan(t.bound)
    bound = t.bound[has_bound]
    gaps = t.bounded[has_bound] - bound - calculus.SLACK_TOL * (1.0 + np.abs(bound))
    max_violation = float(np.max(gaps, initial=0.0))
    finite = math.isfinite(max_violation)
    return {
        "kind": result.kind,
        "iters": len(t.k) - 1,
        "certified": result.certified,
        "cert_violations": result.violations,
        "max_bound_violation": max_violation if finite else None,
        "nonfinite_at_k": result.nonfinite_at_k,
        "uncertified": not result.certified,
        "pass": (result.violations == 0 and result.nonfinite_at_k is None
                 and finite and max_violation <= 0.0),
    }


def cmd_flow(model_name: str, problem_doc: dict, t_end: float, dt: float,
             out: str = None) -> dict:
    oracle = problem_from_json(problem_doc)
    model, lyap = lyapunov.flow_pairing(model_name, oracle)
    x0 = oracle.x0_ref if oracle.x0_ref is not None else oracle.x_star + 1.0
    state0 = flows.start_state(model, x0)
    report = flows.continuous_decay_check(model, lyap, state0, t_end, dt)
    if out:
        write_csv(out, ("t", "lyapunov", "bound", "x_norm_err", "gamma"), report["rows"])
        log.info("trajectory written to %s", out)
    log.info("flow %s: %s", model_name, "PASS" if report["pass"] else "FAIL")
    return report


def cmd_rates(rule: str, r: float, mu_over_l: float, k_max: int,
              out: str = None) -> dict:
    if k_max < 0:
        # an empty table would pass
        raise ConfigError("kmax must be >= 0")
    if rule not in schedules.STEP_RULES:
        # a bound with no step schedule measures nothing, so its table would pass
        owner = {"b0": "apg", "b_half": "new_apg"}.get(rule)
        hint = f"; the {rule} bound is the bound column of --rule {owner}" if owner else ""
        raise ConfigError(f"rates needs a step rule, one of {', '.join(schedules.STEP_RULES)}; "
                          f"got {rule!r}{hint}")
    lip = 1.0
    gamma0 = r * lip
    mu = mu_over_l * lip
    _, _, measured = schedules.iterate_schedule(rule, gamma0, mu, lip, k_max)
    rows = []
    max_slack_violation = 0.0
    # a NaN or infinite cell fails the table (max() would drop a NaN excess)
    finite = True
    for k in range(k_max + 1):
        bound = schedules.rho_bound(rule, gamma0, mu, lip, k)
        meas = measured[k]
        finite = finite and math.isfinite(bound) and math.isfinite(meas)
        max_slack_violation = max(max_slack_violation, meas - bound)
        rows.append((k, meas, bound))
    if out:
        write_csv(out, ("k", "rho_measured", "rho_bound"), rows)
        log.info("rate table written to %s", out)
    # the cells are Python floats for float r and mu_over_l, numpy floats
    # for numpy ones: cast so the report is plain JSON either way
    ok = finite and bool(max_slack_violation <= calculus.TABLE_TOL)
    log.info("rates %s: %s", rule, "PASS" if ok else "FAIL")
    return {"rule": rule, "k_max": k_max, "pass": ok,
            "max_violation": float(max_slack_violation) if finite else None}


# The decay checks' flows, each to its end time (avd_r3 decays like 1/t^2)
_DECAY_T_END = (("scaled_gradient", 10.0), ("heavy_ball", 10.0), ("avd_r3", 50.0),
                ("hnag", 10.0))


def cmd_certify(samples: int, seed: int, k_max: int) -> list:
    """Every claim of the paper the artifact checks, as one (line, passed)
    per claim: the named pairings' strong checks, the rate tables of each
    step rule, the continuous decay checks on the pairings' quadratic, and
    each flow's strong check on the two composite pairings' LASSOs (mu > 0
    and mu = 0; heavy ball needs mu > 0).  A refused argument raises before
    the caller prints any line."""
    claims = []

    def claim(text, ok):
        claims.append((f"{text}  {'PASS' if ok else 'FAIL'}", bool(ok)))

    for name in lyapunov.PAIRING_NAMES:
        rep = lyapunov.verify_pairing(name, samples, seed)
        claim(f"pairing {name:17s} min slack {rep['min_slack']: .3e}", rep["pass"])

    for rule in schedules.STEP_RULES:
        for r in (0.25, 1.0, 4.0):
            for q in (0.0, 1e-3):
                rep = cmd_rates(rule, r, q, k_max)
                excess = math.nan if rep["max_violation"] is None else rep["max_violation"]
                claim(f"rate {rule:10s} r={r:<5g} mu/L={q:<6g} max excess {excess: .3e}",
                      rep["pass"])

    # the instances the named pairings are built on (and share)
    quad = lyapunov.pairing_hb()[0].oracle
    for name, t_end in _DECAY_T_END:
        model, lyap = lyapunov.flow_pairing(name, quad)
        state0 = flows.start_state(model, [4.0, -3.0], v0=np.zeros(2))
        rep = flows.continuous_decay_check(model, lyap, state0, t_end, 1e-3)
        claim(f"flow {name:16s} max rel excess {rep['max_rel_excess']: .3e}  "
              f"max rel error {rep['max_rel_error']: .3e}", rep["pass"])

    lassos = (lyapunov.pairing_composite_sc()[0].oracle,
              lyapunov.pairing_composite_convex()[0].oracle)
    for name in flows.FLOW_KINDS:
        slacks, ok = [], True
        for oracle in lassos:
            if flows.FLOWS[name].needs_mu and oracle.mu == 0:
                slacks.append("skipped")
                continue
            rep = lyapunov.strong_condition_check(*lyapunov.flow_pairing(name, oracle),
                                                  samples, seed)
            slacks.append(f"{rep['min_slack']: .3e}")
            ok = ok and rep["pass"]
        claim(f"composite {name:16s} min slack mu>0 {slacks[0]}  mu=0 {slacks[1]}", ok)
    return claims


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lyapopt",
        description="first-order methods with numeric convergence certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a solver config and check its bound")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out")

    p_flow = sub.add_parser("flow", help="integrate a flow and check decay")
    p_flow.add_argument("--model", required=True)
    p_flow.add_argument("--problem", required=True, help="problem JSON file")
    p_flow.add_argument("--t-end", type=float, required=True)
    p_flow.add_argument("--dt", type=float, required=True,
                        help="step at t0; avd_r3's step grows like t")
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

    p_cert = sub.add_parser("certify", help="check every claim: one PASS/FAIL line each")
    p_cert.add_argument("--samples", type=int, default=10_000)
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--kmax", type=int, default=1000)
    return parser


def _finite_or_null(value):
    """value with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _print_json(report) -> None:
    # strict JSON: a value with no finite number (a min over NaN slacks,
    # say) prints as null; the verdict in "pass" is computed before this
    print(json.dumps(_finite_or_null(report), indent=2, allow_nan=False))


def main(argv=None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            configs = _load_config(args.config)
            if args.out:
                # --out names one trace: it would be dropped on a list of
                # configs, or on a config that names its own
                if len(configs) != 1 or "out" in configs[0]:
                    raise ConfigError("--out needs a config file of one config "
                                      "without its own \"out\"")
                configs[0]["out"] = args.out
            # every config runs before the first trace is written, so a
            # refused config leaves no trace behind
            results = [_run_config(cfg) for cfg in configs]
            reports = [_record_run(cfg, res) for cfg, res in zip(configs, results)]
            _print_json(reports if len(reports) > 1 else reports[0])
            return 0 if all(r["pass"] for r in reports) else 1
        if args.command == "flow":
            with open(args.problem) as fh:
                problem_doc = json.load(fh)
            try:
                report = cmd_flow(args.model, problem_doc, args.t_end, args.dt, args.out)
            except flows.DivergenceError as exc:
                _print_json({"pass": False, "error": str(exc)})
                return 1
            printable = {k: v for k, v in report.items() if k != "rows"}
            _print_json(printable)
            return 0 if report["pass"] else 1
        if args.command == "verify-lyapunov":
            report = lyapunov.verify_pairing(args.pairing, args.samples, args.seed,
                                             args.c_override)
            log.info("verify %s: min slack %.3e, %s", args.pairing, report["min_slack"],
                     "PASS" if report["pass"] else "FAIL")
            _print_json(report)
            return 0 if report["pass"] else 1
        if args.command == "certify":
            # the whole sweep runs before the first line, so a refused
            # argument prints nothing
            claims = cmd_certify(args.samples, args.seed, args.kmax)
            for line, _ in claims:
                print(line)
            return 0 if all(passed for _, passed in claims) else 1
        report = cmd_rates(args.rule, args.r, args.mu_over_l, args.kmax, args.out)
        _print_json(report)
        return 0 if report["pass"] else 1
    except (ConfigError, InvalidProblemError, schedules.ScheduleError,
            lyapunov.LyapunovConfigError, solvers.UnsupportedSolverError,
            flows.FlowError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
