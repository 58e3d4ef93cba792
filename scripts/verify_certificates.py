"""Exercise the numeric verification layer end to end.

Runs every strong-Lyapunov pairing, the contraction-factor bound tables for
each accelerated step rule, the continuous decay checks, and each flow's
strong check on two LASSOs (mu > 0 and mu = 0; heavy ball needs mu > 0),
printing one line per check.  Exits nonzero if anything fails.

Usage: python scripts/verify_certificates.py [--samples 10000] [--kmax 1000]
"""

import argparse
import sys

import numpy as np

from lyapopt import flows, harness, lyapunov
from lyapopt.problems import box_rng, make_lasso, make_quadratic


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kmax", type=int, default=1000)
    args = parser.parse_args()
    failed = False

    for name in lyapunov.PAIRING_NAMES:
        rep = lyapunov.verify_pairing(name, args.samples, args.seed)
        print(f"pairing {name:17s} min slack {rep['min_slack']: .3e}  "
              f"{'PASS' if rep['pass'] else 'FAIL'}")
        failed |= not rep["pass"]

    for rule in ("nag", "apg", "new_apg", "fast_grad"):
        for r in (0.25, 1.0, 4.0):
            for q in (0.0, 1e-3):
                rep = harness.cmd_rates(rule, r, q, args.kmax)
                print(f"rate {rule:10s} r={r:<5g} mu/L={q:<6g} "
                      f"max excess {rep['max_violation']: .3e}  "
                      f"{'PASS' if rep['pass'] else 'FAIL'}")
                failed |= not rep["pass"]

    quad = make_quadratic([1.0, 4.0], [1.0, -2.0])
    for name, t_end in (("scaled_gradient", 10.0), ("heavy_ball", 10.0),
                        ("avd_r3", 50.0), ("hnag", 10.0)):
        model, lyap = lyapunov.flow_pairing(name, quad)
        state0 = flows.start_state(model, [4.0, -3.0], v0=np.zeros(2))
        rep = flows.continuous_decay_check(model, lyap, state0, t_end, 1e-3)
        print(f"flow {name:16s} max rel excess {rep['max_rel_excess']: .3e}  "
              f"max rel error {rep['max_rel_error']: .3e}  "
              f"{'PASS' if rep['pass'] else 'FAIL'}")
        failed |= not rep["pass"]

    rng = box_rng(1)
    lassos = (make_lasso(rng.standard_normal((12, 8)) + 2.0 * np.eye(12, 8),
                         rng.standard_normal(12), 0.5),
              make_lasso(rng.standard_normal((8, 20)), rng.standard_normal(8), 0.5))
    for name in flows.FLOW_KINDS:
        slacks, ok = [], True
        for oracle in lassos:
            if flows.FLOWS[name].needs_mu and oracle.mu == 0:
                slacks.append("skipped")
                continue
            rep = lyapunov.strong_condition_check(*lyapunov.flow_pairing(name, oracle),
                                                  args.samples, args.seed)
            slacks.append(f"{rep['min_slack']: .3e}")
            ok &= rep["pass"]
        print(f"composite {name:16s} min slack mu>0 {slacks[0]}  mu=0 {slacks[1]}  "
              f"{'PASS' if ok else 'FAIL'}")
        failed |= not ok

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
