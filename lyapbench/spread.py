"""Run the benchmark once per seed and summarize each metric across runs.

    python3 lyapbench/spread.py --seeds 0-9 [--workloads certify solve lasso] \\
        [--seconds 55] [--trace 1] [--out lyapbench/trajectory/BENCH_x.json]

For every workload and metric it prints the median, the quartiles as
statistics.quantiles(n=4) gives them, and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  Runs are made one
after another, each in its own process.  With --out the summary, every
run's result and the environment are written as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    args.workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary, runs, env = {}, {}, None
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            info, result = run(workload, seed, seconds, args.trace)
            env = env or info["env"]
            results.append({"seed": seed, "details": info["details"], **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        runs[workload] = results
        summary[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            row = {"median": statistics.median(values), "min": min(values),
                   "max": max(values), "unit": results[0]["metrics"][name]["unit"]}
            if len(values) >= 2 and row["median"] != 0:
                q1, _, q3 = statistics.quantiles(values, n=4)
                row.update(q1=q1, q3=q3, spread=stats.quartile_spread(values))
            summary[workload][name] = row
            bound = bounds.get(name)
            spread = row.get("spread")
            flag = "" if bound is None or spread is None else \
                f"bound {bound:<5g} {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:38s} median {row['median']:<14.6g} "
                  f"spread {'-' if spread is None else f'{spread:.4f}':8s} {flag}")
    if args.out:
        doc = {"env": {k: v for k, v in env.items() if k != "seed"},
               "seeds": args.seeds, "seconds": seconds, "trace": args.trace,
               "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
