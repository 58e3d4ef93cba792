"""lyapopt benchmark: seeded workloads, end-to-end metrics, and a traced run
for per-layer numbers.

    python3 lyapbench/run.py --workload certify --seed 1 --seconds 55 --trace 0
    python3 lyapbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Run from a checkout: the package is imported from its ``src`` directory,
and the run fails (exit 2) if that directory does not hold lyapopt.  The
load is one closed-loop client: a single process runs the workload's ops
one after another, with BLAS limited to one thread unless the environment
says otherwise.  ``--workload all`` runs each workload in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the environment and the details behind the metrics.  Both are also
written to ``lyapbench/out/``, with the spans of the last traced pass.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
MODULES = ("problems", "calculus", "schedules", "flows", "lyapunov", "solvers", "harness")

MIN_PASSES = 3
# Set-up is repeated at least this often, and until it has taken this long,
# so that a set-up of a few milliseconds still yields a steady median.
MIN_SETUPS = 3
MIN_SETUP_TOTAL_S = 1.0
MAX_SETUPS = 100


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, bad arguments)."""


def import_lyapopt(src: Path) -> SimpleNamespace:
    """Import lyapopt's modules afresh from src and return them."""
    if not (src / "lyapopt" / "__init__.py").is_file():
        raise BenchError(f"no lyapopt package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "lyapopt" or m.startswith("lyapopt.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module("lyapopt." + m) for m in MODULES})
    origin = Path(mods.problems.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"lyapopt was imported from {origin}, not from {src}")
    return mods


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def run_pass(ops, rng, tracer=None):
    """Run every op once, in an order drawn from rng, so that each kind of
    op is timed at moments spread over the run rather than in one stretch.
    Outputs are checked after the timed region."""
    times, outputs = [0.0] * len(ops), [None] * len(ops)
    t_pass = perf_counter()
    for i in rng.permutation(len(ops)).tolist():
        if tracer is not None:
            tracer.op_id = i
        t0 = perf_counter()
        try:
            outputs[i] = (ops[i].call(), None)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outputs[i] = (None, exc)
        times[i] = perf_counter() - t0
    pass_s = perf_counter() - t_pass
    failures, counts, raised = {}, Counter(), set()
    for i, (op, (out, exc)) in enumerate(zip(ops, outputs)):
        if exc is not None:
            reason = f"raised {type(exc).__name__}: {exc}"
            raised.add(i)
        else:
            reason, found = op.check(out)
            counts.update(found)
        if reason:
            failures[op.id] = reason
    return SimpleNamespace(seconds=pass_s, op_seconds=times, failures=failures,
                           counts=counts, raised=raised)


def fits(passes, t_begin: float, seconds: float) -> bool:
    """Whether one more pass, as long as the median pass so far, ends
    within seconds of t_begin."""
    pass_s = stats.median([p.seconds for p in passes])
    return perf_counter() - t_begin + pass_s <= seconds


def order_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1])  # a stream apart from the inputs


def setup(workload, spec, work_dir):
    t0 = perf_counter()
    lp = import_lyapopt(ROOT / "src")
    ops = workloads.build(workload, lp, spec, work_dir)
    return perf_counter() - t0, lp, ops


def measure(args, spec, work_dir) -> tuple:
    """Untraced run: repeated set-up, then at least MIN_PASSES passes, and
    more while they fit in --seconds."""
    setups = []
    while len(setups) < MIN_SETUPS or (sum(setups) < MIN_SETUP_TOTAL_S
                                       and len(setups) < MAX_SETUPS):
        seconds, lp, ops = setup(args.workload, spec, work_dir)
        setups.append(seconds)
    passes, rng = [], order_rng(args.seed)
    t_begin = perf_counter()
    while len(passes) < MIN_PASSES or fits(passes, t_begin, args.seconds):
        passes.append(run_pass(ops, rng))
    op_ms = [1e3 * t for p in passes for t in p.op_seconds]
    # the percentile is fixed by the shortest run, so a faster program that
    # fits more passes into --seconds still reports the same percentile
    tail_p = stats.tail_percentile(MIN_PASSES * len(ops))
    attempted = len(ops) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    metrics = {
        "setup_s": stats.median(setups),
        "verdict_s": stats.pass_of_op_medians([p.op_seconds for p in passes]),
        "op_p50_ms": stats.median(op_ms),
        "op_tail_ms": stats.percentile(op_ms, tail_p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - failed / attempted,
    }
    details = {
        "passes": len(passes), "setups": len(setups), "ops_per_pass": len(ops),
        "pass_s": [p.seconds for p in passes],
        "median_pass_s": stats.median([p.seconds for p in passes]),
        "op_tail_percentile": tail_p, "op_count": len(op_ms),
        "failed_frac": failed / attempted,
    }
    return metrics, passes, attempted, failed, details


def measure_traced(args, spec, work_dir) -> tuple:
    """Traced run: one untraced pass, then traced passes while they fit in
    --seconds (at least one).

    Per-layer numbers are medians over the traced passes; counts repeat
    exactly from pass to pass.  Set-up is traced once, so problems.build_s
    includes the oracles built at set-up.
    """
    _, lp, ops = setup(args.workload, spec, work_dir)
    rng = order_rng(args.seed)
    t_begin = perf_counter()
    plain = run_pass(ops, rng)
    tracer = tracing.Tracer()
    tracing.instrument(lp, tracer)
    ops = workloads.build(args.workload, lp, spec, work_dir)
    setup_layers = tracing.per_layer(tracer.spans(), tracer.names, {}, [], set(), ())
    kinds = [op.solver for op in ops]
    passes, layers = [plain], []
    while not layers or fits(passes[1:], t_begin, args.seconds):
        tracer.clear()
        p = run_pass(ops, rng, tracer)
        passes.append(p)
        layers.append(tracing.per_layer(tracer.spans(), tracer.names, p.counts,
                                        kinds, p.raised, workloads.SOLVER_KINDS))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    metrics = {}
    for name in layers[0]:
        metrics[name] = stats.median([layer[name] for layer in layers])
    metrics["problems.build_s"] += setup_layers["problems.build_s"]
    metrics["trace.overhead_s"] = stats.median([p.seconds for p in passes[1:]]) - plain.seconds
    attempted = len(ops) * len(passes)
    failed = sum(len(p.failures) for p in passes)
    details = {"passes": len(passes), "traced_passes": len(layers),
               "ops_per_pass": len(ops), "failed_frac": failed / attempted}
    return metrics, passes, attempted, failed, details


def declared_units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    units = declared_units(args.trace)
    spec = workloads.generate(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        fn = measure_traced if args.trace else measure
        metrics, passes, attempted, failed, details = fn(args, spec, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if set(units) != set(metrics):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    failures = {}
    for p in passes:
        for op_id, reason in p.failures.items():
            failures.setdefault(op_id, reason)
    known = workloads.KNOWN_FINDINGS.get(args.workload, {})
    unexpected = sorted(set(failures) - set(known))
    details.update(workload=args.workload, trace=args.trace, failures=failures,
                   unexpected_failures=unexpected)
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    env = environment(args.seed)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "details": details, "result": result}, fh, indent=1,
                  allow_nan=False)
    for op_id, reason in sorted(failures.items()):
        tag = "known finding" if op_id in known else "UNEXPECTED"
        print(f"failed op {args.workload}/{op_id} ({tag}): {reason}", file=sys.stderr)
    print(json.dumps({"env": env, "details": details}, allow_nan=False))
    print(json.dumps(result, allow_nan=False))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise BenchError(f"workload {workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(workload, json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined, allow_nan=False))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    warnings.simplefilter("ignore", RuntimeWarning)  # diverging runs overflow by design
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
