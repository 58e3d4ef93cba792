"""The benchmark's workloads, their seeded inputs, and the fail-closed checks
that turn each op's output into a verdict.

An op is one CLI-equivalent call: a ``cmd_run`` config, a verifier pairing,
a rate table, a decay check, a calculus check, or (on ``lasso``) one solver
run or composite check on a prebuilt instance.  ``generate`` draws every
input from the seed with numpy alone; ``build`` turns the inputs into ops
against a namespace ``lp`` of lyapopt's modules, looking each function up
on its module at call time so the traced run's wrappers are seen.

An op fails if it raises, returns a verdict other than PASS, or reports
any NaN or Inf, including a non-finite value in a trace it wrote.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("certify", "solve", "lasso")

SAMPLES = 10_000
KMAX = 1000
DT = 1e-3
ITERS = 2000
LASSO_RHO = 0.5
# solvers.iters_to_tol counts iterations until L_k <= TOL_RATIO * L_0
TOL_RATIO = 1e-6

SOLVER_KINDS = ("ppa", "gd", "pg", "scaled_ppa", "hb_gs", "momentum", "avd_gs",
                "avd_grad", "avd_extrap", "nag", "apg", "apg_fast_grad", "new_apg")
NEEDS_STRONG_CONVEXITY = ("hb_gs", "momentum")
LASSO_KINDS = ("pg", "apg", "new_apg", "apg_fast_grad")

# Ops that fail the fail-closed check at the commit that added the
# benchmark.  They still count as failed; only a failure outside this list
# makes a run incorrect.
KNOWN_FINDINGS = {
    "solve": {
        "quad2/hb_gs": "alpha=1 diverges to NaN while cmd_run reports pass",
        "quad2/avd_gs": "alpha=1 diverges to NaN while cmd_run reports pass",
        "quad40/hb_gs": "alpha=1 diverges to NaN while cmd_run reports pass",
        "logcosh50/scaled_ppa": "gamma underflows to 0: ZeroDivisionError",
    },
}


@dataclass
class Op:
    id: str
    call: Callable[[], object]
    check: Callable[[object], "tuple[Optional[str], dict]"]
    solver: Optional[str] = None


# ---------------------------------------------------------------------------
# Fail-closed checks.
# ---------------------------------------------------------------------------

def nonfinite_reason(report) -> Optional[str]:
    """None if report serializes as strict JSON, else why it does not."""
    try:
        json.dumps(report, allow_nan=False)
    except (ValueError, TypeError) as exc:
        return f"report is not strict JSON: {exc}"
    return None


def first_nonfinite(rows, columns, skip_first=()) -> Optional[str]:
    """First row (as 'column at k=...') whose named cells are not finite.

    rows are dicts of strings as csv.DictReader yields them; an empty cell
    is how the trace writer renders NaN.  Columns in skip_first may be NaN
    in the first row (the slack has no previous step).
    """
    for i, row in enumerate(rows):
        for col in columns:
            if i == 0 and col in skip_first:
                continue
            cell = row[col]
            try:
                ok = math.isfinite(float(cell))
            except ValueError:
                ok = False
            if not ok:
                return f"non-finite {col} {cell!r} at k={row['k']}"
    return None


def iters_to_tol(lyapunov_values) -> int:
    """First k with L_k <= TOL_RATIO * L_0, or the run length if never."""
    values = list(lyapunov_values)
    target = TOL_RATIO * values[0]
    for k, value in enumerate(values):
        if value <= target:
            return k
    return len(values) - 1


def _verdict(report, passed: bool, counts=None):
    if not passed:
        return "verdict FAIL", {}
    return nonfinite_reason(report), counts or {}


def check_report(report):
    return _verdict(report, report.get("pass") is True)


def check_verifier(report):
    return _verdict(report, report.get("pass") is True,
                    {"lyapunov.samples": report.get("samples", 0)})


def check_calculus(lp, samples):
    def check(report):
        return _verdict(report, lp.calculus.total_violations(report) == 0,
                        {"calculus.samples": samples})
    return check


TRACE_COLUMNS = ("f_gap", "lyapunov", "grad_norm", "slack")


def check_cmd_run(path):
    def check(report):
        if report.get("pass") is not True:
            return "verdict FAIL", {}
        reason = nonfinite_reason(report)
        if reason:
            return reason, {}
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        reason = first_nonfinite(rows, TRACE_COLUMNS, skip_first=("slack",))
        if reason:
            return reason, {}
        return None, {"harness.trace_bytes": os.path.getsize(path),
                      "solvers.iters_to_tol": iters_to_tol(float(r["lyapunov"]) for r in rows)}
    return check


def check_run_result(result):
    """Verdict of a solvers.run result: certified, no per-step violation,
    every value finite and every Lyapunov value within its rate bound."""
    if not result.certified or result.violations:
        return "verdict FAIL", {}
    fields = ("f_gap", "lyapunov", "grad_norm", "bound", "slack")
    rows = [{"k": str(r.k), **{f: repr(getattr(r, f)) for f in fields}}
            for r in result.records]
    reason = first_nonfinite(rows, fields, skip_first=("slack",))
    if reason:
        return reason, {}
    for r in result.records:
        if r.lyapunov - r.bound > 1e-9 * (1.0 + abs(r.bound)):
            return f"rate bound exceeded at k={r.k}", {}
    return None, {"solvers.iters_to_tol": iters_to_tol(r.lyapunov for r in result.records)}


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------

def generate(workload: str, seed: int) -> dict:
    """Every input of the workload, drawn from the seed with numpy only."""
    rng = np.random.default_rng(seed)
    if workload == "certify":
        return {
            "seed": seed,
            "decay_x0": rng.uniform(-5.0, 5.0, 2),
            "calc_eigs": 10.0 ** rng.uniform(-1.0, 1.0, 10),
            "calc_b": rng.standard_normal(10),
        }
    if workload == "solve":
        problems = {}
        for pname, eigs in (("quad2", np.array([1.0, 100.0])),
                            ("quad40", np.geomspace(1e-3, 1.0, 40))):
            x_star = rng.uniform(-1.0, 1.0, eigs.size)
            problems[pname] = (
                {"kind": "quadratic", "eigs": eigs.tolist(), "b": (eigs * x_star).tolist()},
                (x_star + rng.uniform(0.5, 1.5, eigs.size)).tolist())
        problems["logcosh50"] = (
            {"kind": "logcosh", "scale": float(rng.uniform(1.0, 3.0)), "dim": 50}, None)
        return {"problems": problems}
    if workload == "lasso":
        instances = {}
        for pname, (m, n) in (("wide50x100", (50, 100)), ("wide100x200", (100, 200)),
                              ("tall200x100", (200, 100))):
            instances[pname] = {"kind": "lasso",
                                "a_matrix": rng.standard_normal((m, n)).tolist(),
                                "b": rng.standard_normal(m).tolist(), "rho": LASSO_RHO}
        return {"seed": seed, "instances": instances}
    raise ValueError(f"unknown workload: {workload!r}")


# ---------------------------------------------------------------------------
# Ops.  build() is the timed set-up: it builds every oracle the passes reuse.
# ---------------------------------------------------------------------------

def build(workload: str, lp, spec: dict, work_dir: str) -> list:
    return {"certify": _certify, "solve": _solve, "lasso": _lasso}[workload](lp, spec, work_dir)


def _certify(lp, spec, work_dir):
    """What scripts/verify_certificates.py runs, with seeded sample streams
    and start point, plus the calculus checks on a seeded quadratic."""
    seed = spec["seed"]
    ops = [Op(f"pair/{name}",
              lambda name=name: lp.lyapunov.verify_pairing(name, SAMPLES, seed),
              check_verifier)
           for name in lp.lyapunov.PAIRING_NAMES]
    for rule in ("nag", "apg", "new_apg", "fast_grad"):
        for r in (0.25, 1.0, 4.0):
            for q in (0.0, 1e-3):
                ops.append(Op(f"rate/{rule}/r{r:g}/q{q:g}",
                              lambda a=(rule, r, q): _rate_table(lp, *a), check_report))
    quad = lp.problems.make_quadratic([1.0, 4.0], [1.0, -2.0])
    x0, zero = spec["decay_x0"], np.zeros(2)
    state = lp.flows.FlowState
    decays = [
        ("scaled_gradient", lp.lyapunov.pairing_scaled(quad),
         state(0.0, x0, gamma=quad.lip), 10.0),
        ("heavy_ball", lp.lyapunov.pairing_hb(quad), state(0.0, x0, v=zero), 10.0),
        ("avd_r3", lp.lyapunov.pairing_avd(quad),
         state(1.0, x0, v=zero, gamma=4.0), 50.0),
        ("hnag", lp.lyapunov.pairing_hnag(quad),
         state(0.0, x0, v=zero, gamma=quad.lip), 10.0),
    ]
    for name, (model, lyap), state0, t_end in decays:
        ops.append(Op(f"decay/{name}",
                      lambda a=(model, lyap, state0, t_end):
                      lp.flows.continuous_decay_check(*a, DT),
                      check_report))
    calc = lp.problems.make_quadratic(spec["calc_eigs"], spec["calc_b"])
    for name in ("check_bounds_lemma1", "check_minimum_bounds"):
        ops.append(Op(f"calculus/{name}",
                      lambda name=name: getattr(lp.calculus, name)(calc, SAMPLES, seed),
                      check_calculus(lp, SAMPLES)))
    return ops


def _rate_table(lp, rule, r, q):
    """The script's rate table: measured rho_k against the closed-form bound
    (cmd_rates reports its verdict as a numpy bool, which is not JSON)."""
    _, _, rhos = lp.schedules.iterate_schedule(rule, r, q, 1.0, KMAX)
    bound_rule = {"apg": "b0", "new_apg": "b_half"}.get(rule, rule)
    worst = max(rhos[k] - lp.schedules.rho_bound(bound_rule, r, q, 1.0, k)
                for k in range(KMAX + 1))
    return {"rule": rule, "r": r, "mu_over_l": q, "max_excess": float(worst),
            "pass": bool(worst <= 1e-12)}


def _solve(lp, spec, work_dir):
    """A batch of `lyapopt run` configs: every kind on each problem whose
    stated preconditions it meets, each writing its trace CSV."""
    ops = []
    for pname, (doc, x0) in spec["problems"].items():
        for kind in SOLVER_KINDS:
            if doc["kind"] == "logcosh" and kind in NEEDS_STRONG_CONVEXITY:
                continue
            out = os.path.join(work_dir, f"{pname}_{kind}.csv")
            cfg = {"problem": doc, "solver": kind, "iters": ITERS, "out": out}
            if x0 is not None:
                cfg["x0"] = x0
            ops.append(Op(f"{pname}/{kind}", lambda cfg=cfg: lp.harness.cmd_run(cfg),
                          check_cmd_run(out), solver=kind))
    return ops


def _lasso(lp, spec, work_dir):
    """Seeded LASSO instances built once; each pass runs the composite
    solvers and the composite verifier on each."""
    ops = []
    for pname, doc in spec["instances"].items():
        oracle = lp.problems.problem_from_json(doc)
        x0 = np.zeros(oracle.dim)
        for kind in LASSO_KINDS:
            ops.append(Op(f"{pname}/{kind}",
                          lambda a=(oracle, kind, x0): lp.solvers.run(*a, iters=ITERS),
                          check_run_result, solver=kind))
        ops.append(Op(f"{pname}/composite",
                      lambda o=oracle: lp.lyapunov.composite_condition_check(
                          o, SAMPLES, spec["seed"]),
                      check_verifier))
    return ops
