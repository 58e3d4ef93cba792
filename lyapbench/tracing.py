"""Span tracer for the traced benchmark run, and the wrappers that install
it around lyapopt's public functions.

Every wrapped call records one span: its name, start, end, parent span and
the op it belongs to.  Spans live in flat typed arrays (28 bytes each), so a
pass with a million oracle calls stays in the tens of megabytes.  Self time
is computed afterwards from the arrays: a span's duration minus the time
its children cover.
"""

from __future__ import annotations

import dataclasses
from array import array
from time import perf_counter

import numpy as np

ORACLE_FIELDS = ("eval_f", "eval_h", "grad_h", "eval_g", "prox_g", "prox_f")
CONSTRUCTORS = ("problem_from_json", "make_quadratic", "make_lasso", "make_logcosh")

# Where each traced function is looked up by its callers, as
# (span name, [(module, attribute), ...]).  A name imported into another
# module is patched there too, so calls through either binding are traced.
PLAIN_PATCHES = [
    ("flows.integrate", [("flows", "integrate")]),
    ("flows.field", [("flows", "field")]),
    ("flows.continuous_decay_check", [("flows", "continuous_decay_check")]),
    ("lyapunov.verify_pairing", [("lyapunov", "verify_pairing")]),
    ("lyapunov.strong_condition_check", [("lyapunov", "strong_condition_check")]),
    ("lyapunov.composite_condition_check", [("lyapunov", "composite_condition_check")]),
    ("lyapunov.evaluate", [("lyapunov", "evaluate")]),
    ("lyapunov.decay_rate", [("lyapunov", "decay_rate")]),
    ("calculus.check_bounds_lemma1", [("calculus", "check_bounds_lemma1")]),
    ("calculus.check_minimum_bounds", [("calculus", "check_minimum_bounds")]),
    ("schedules.rho_bound", [("schedules", "rho_bound")]),
    ("schedules.iterate_schedule", [("schedules", "iterate_schedule")]),
    ("schedules.gamma_step", [("schedules", "gamma_step")]),
    ("solvers.run", [("solvers", "run")]),
    ("harness.cmd_run", [("harness", "cmd_run")]),
]
CONSTRUCTOR_PATCHES = [
    ("problems.problem_from_json", [("problems", "problem_from_json"),
                                    ("harness", "problem_from_json")]),
    ("problems.make_quadratic", [("problems", "make_quadratic"),
                                 ("lyapunov", "make_quadratic")]),
    ("problems.make_lasso", [("problems", "make_lasso"), ("lyapunov", "make_lasso")]),
    ("problems.make_logcosh", [("problems", "make_logcosh"),
                               ("lyapunov", "make_logcosh")]),
]


class Tracer:
    """In-memory span recorder.  Not thread-safe: the benchmark is serial."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_id = -1
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def clear(self):
        for arr in (self.name, self.parent, self.op, self.start, self.end):
            del arr[:]
        self._stack.clear()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """Return fn wrapped so that each call records a span called name."""
        nid = self.name_id(name)
        names, parents, ops = self.name.append, self.parent.append, self.op.append
        starts, ends, stack, end = self.start.append, self.end.append, self._stack, self.end

        def traced(*args, **kwargs):
            idx = len(end)
            names(nid)
            parents(stack[-1] if stack else -1)
            ops(self.op_id)
            ends(0.0)
            stack.append(idx)
            starts(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.traced = True
        return traced

    def spans(self) -> dict:
        """The recorded spans as numpy arrays, in start order."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path):
        """Write the recorded spans and the name table to an .npz file."""
        np.savez(path, names=np.array(self.names), **self.spans())


def self_times(parent, duration) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside its interval, so the
    time they cover is the sum of their durations.
    """
    parent = np.asarray(parent, dtype=np.int64)
    duration = np.asarray(duration, dtype=float)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=duration.size)
    return duration - covered


def _instrument_oracle(tracer: Tracer, oracle):
    if getattr(oracle.grad_h, "traced", False):
        return oracle
    wrapped = {f: tracer.wrap("problems." + f, getattr(oracle, f))
               for f in ORACLE_FIELDS if getattr(oracle, f) is not None}
    return dataclasses.replace(oracle, **wrapped)


def _constructor(tracer: Tracer, name: str, fn):
    traced = tracer.wrap(name, fn)

    def build(*args, **kwargs):
        return _instrument_oracle(tracer, traced(*args, **kwargs))

    build.traced = True
    return build


def instrument(lp, tracer: Tracer):
    """Patch lp's modules (a namespace of the seven lyapopt modules) so that
    calls into every layer record spans.  Oracles built afterwards carry
    traced callables, installed with dataclasses.replace."""
    step_names = sorted(n for n in vars(lp.solvers) if n.startswith("step_"))
    plain = PLAIN_PATCHES + [("solvers." + n, [("solvers", n)]) for n in step_names]
    for patches, make in ((plain, tracer.wrap),
                          (CONSTRUCTOR_PATCHES, lambda n, f: _constructor(tracer, n, f))):
        for span_name, sites in patches:
            mod, attr = sites[0]
            wrapped = make(span_name, getattr(getattr(lp, mod), attr))
            for mod, attr in sites:
                setattr(getattr(lp, mod), attr, wrapped)


def per_layer(spans: dict, names: list, counts: dict, op_kinds: list,
              op_raised: set, all_kinds) -> dict:
    """Per-layer numbers of one traced pass.

    counts holds what the ops' reports state (samples, trace bytes,
    iterations to tolerance).  op_kinds[i] is the solver kind of op i (None
    for other ops); ops in op_raised are left out of the per-iteration
    oracle counts because their last iteration is cut short.  Kinds in
    all_kinds that no op runs report 0.
    """
    name, parent, op = spans["name"], spans["parent"], spans["op"]
    dur = spans["end"] - spans["start"]
    own = self_times(parent, dur)
    ids = {n: i for i, n in enumerate(names)}
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)

    def mask(*wanted):
        return np.isin(name, [ids[w] for w in wanted if w in ids])

    def prefixed(prefix):
        return mask(*[n for n in names if n.startswith(prefix)])

    def count(*wanted):
        return int(mask(*wanted).sum())

    def children(parents: np.ndarray, child: str) -> np.ndarray:
        m = mask(child) & (parent >= 0)
        return np.bincount(parent[m], minlength=name.size)[parents]

    integrate_s = float(dur[mask("flows.integrate")].sum())
    rk4_steps = int((mask("flows.field")
                     & (parent_name == ids.get("flows.integrate", -2))).sum()) // 4

    # A sampled state is a draw; the strong check rejects draws outside the
    # sublevel set by one direct eval_f call each and evaluates L once per
    # kept sample, and the composite check maps every draw through prox_g.
    strong = np.flatnonzero(mask("lyapunov.strong_condition_check"))
    composite = np.flatnonzero(mask("lyapunov.composite_condition_check"))
    draws = int(np.maximum(children(strong, "lyapunov.evaluate"),
                           children(strong, "problems.eval_f")).sum()
                + children(composite, "problems.prox_g").sum())
    checker_s = float(dur[strong].sum() + dur[composite].sum())
    samples = counts.get("lyapunov.samples", 0)

    steps = prefixed("solvers.step_")
    step_s = float(dur[steps].sum())
    run_s = float(dur[mask("solvers.run")].sum())
    ctor_names = ["problems." + c for c in CONSTRUCTORS]
    ctor = mask(*ctor_names)
    ctor_ids = [ids[n] for n in ctor_names if n in ids]

    out = {
        "flows.rk4_steps": rk4_steps,
        "flows.field_calls": count("flows.field"),
        "flows.integrate_s": integrate_s,
        "flows.decay_self_s": float(own[mask("flows.continuous_decay_check")].sum()),
        "flows.rk4_steps_per_s": rk4_steps / integrate_s if integrate_s > 0 else 0.0,
        "lyapunov.samples": samples,
        "lyapunov.draws": draws,
        "lyapunov.accept_ratio": samples / draws if draws else 0.0,
        "lyapunov.verify_self_s": float(own[prefixed("lyapunov.")].sum()),
        "lyapunov.samples_per_s": samples / checker_s if checker_s > 0 else 0.0,
        "calculus.samples": counts.get("calculus.samples", 0),
        "calculus.check_s": float(dur[prefixed("calculus.")].sum()),
        "solvers.iters": int(steps.sum()),
        "solvers.run_self_s": float(own[mask("solvers.run")].sum()),
        "solvers.step_s": step_s,
        "solvers.cert_overhead": run_s / step_s if step_s > 0 else 0.0,
        "solvers.iters_to_tol": counts.get("solvers.iters_to_tol", 0),
        "problems.build_s": float(dur[ctor & ~np.isin(parent_name, ctor_ids)].sum()),
        "problems.grad_calls": count("problems.grad_h"),
        "problems.f_calls": count("problems.eval_f", "problems.eval_h"),
        "problems.prox_calls": count("problems.prox_g", "problems.prox_f"),
        "problems.oracle_s": float(dur[mask(*["problems." + f for f in ORACLE_FIELDS])].sum()),
        "schedules.calls": int(prefixed("schedules.").sum()),
        "schedules.self_s": float(own[prefixed("schedules.")].sum()),
        "harness.self_s": float(own[prefixed("harness.")].sum()),
        "harness.trace_bytes": counts.get("harness.trace_bytes", 0),
    }
    out.update(_per_iteration_counts(name, op, steps, ids, op_kinds, op_raised, all_kinds))
    return out


def _per_iteration_counts(name, op, steps, ids, op_kinds, op_raised, all_kinds) -> dict:
    """grad_h and eval_f calls per iteration of each solver kind's run loop.

    Calls made before an op's first step (initial state, first record) are
    set-up, so only calls that start after the first step span are counted.
    """
    n_ops = len(op_kinds)
    if n_ops == 0:
        return {f"solvers.{label}_per_iter.{kind}": 0.0
                for label in ("grad", "f") for kind in all_kinds}
    index = np.arange(name.size)
    first_step = np.full(n_ops, np.iinfo(np.int64).max)
    np.minimum.at(first_step, op[steps], index[steps])
    steps_per_op = np.bincount(op[steps], minlength=n_ops)
    in_loop = (op >= 0) & (index > first_step[np.maximum(op, 0)])
    out = {}
    for label, field in (("grad", "problems.grad_h"), ("f", "problems.eval_f")):
        m = in_loop & (name == ids.get(field, -1))
        calls = np.bincount(op[m], minlength=n_ops)
        for kind in all_kinds:
            sel = [i for i, k in enumerate(op_kinds) if k == kind and i not in op_raised]
            iters = int(steps_per_op[sel].sum())
            out[f"solvers.{label}_per_iter.{kind}"] = \
                float(calls[sel].sum()) / iters if iters else 0.0
    return out
