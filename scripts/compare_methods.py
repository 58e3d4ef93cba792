"""Run the solver catalog on a conditioned quadratic and a LASSO instance.

Writes one trace CSV per (problem, solver) pair and prints a summary table
with the iterations each method needs to shrink its Lyapunov function by
six orders of magnitude.

Usage: python scripts/compare_methods.py [--out-dir traces] [--iters 2000]
"""

import argparse
import os

import numpy as np

from lyapopt.problems import box_rng, make_lasso, make_quadratic
from lyapopt import harness, solvers

SMOOTH_SOLVERS = ["gd", "ppa", "momentum", "nag", "avd_grad"]
COMPOSITE_SOLVERS = ["pg", "apg", "new_apg", "apg_fast_grad"]


def make_problems():
    quad = make_quadratic(np.geomspace(1e-3, 1.0, 40), np.zeros(40))
    rng = box_rng(7)
    lasso = make_lasso(rng.standard_normal((50, 100)), rng.standard_normal(50), 0.5)
    return {"quadratic": (quad, SMOOTH_SOLVERS), "lasso": (lasso, COMPOSITE_SOLVERS)}


def iters_to_ratio(records, target):
    l0 = records[0].lyapunov
    for rec in records:
        if rec.lyapunov <= target * l0:
            return rec.k
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="traces")
    parser.add_argument("--iters", type=int, default=2000)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    rows = []
    for pname, (oracle, kinds) in make_problems().items():
        x0 = oracle.x_star + 1.0
        for kind in kinds:
            res = solvers.run(oracle, kind, x0, iters=args.iters)
            harness.write_csv(os.path.join(args.out_dir, f"{pname}_{kind}.csv"),
                              harness.RUN_HEADER, harness.run_rows(res))
            k6 = iters_to_ratio(res.records, 1e-6)
            rows.append((pname, kind, res.certified, res.violations,
                         "-" if k6 is None else k6,
                         "%.3e" % res.records[-1].f_gap))

    header = ("problem", "solver", "certified", "violations",
              "iters to 1e-6", "final gap")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(6)]
    for row in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


if __name__ == "__main__":
    main()
