"""Lyapunov form table, the named flow pairings, and the numeric
strong-condition verifier.

A Lyapunov function here is a nonnegative function of the flow state that
vanishes at the equilibrium; every kind is one entry of FORMS, which the
solvers' run loop reads too.  The verifier samples states and checks the
decay inequality -grad(L) . G >= c L^q + p^2 pointwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import flows
from .calculus import SAMPLING_RADIUS, SLACK_TOL, sampled_verdict
from .problems import (ProblemOracle, box_rng, make_lasso, make_logcosh, make_quadratic,
                       rowdot, unbox)

GAMMA_RANGE = (0.05, 10.0)

# The Lyapunov family L = f - f* + w/2 |c - x*|^2, one (w, c) per kind: the
# weight w is None (L is the gap alone), "mu" (oracle.mu) or "gamma" (the
# state's gamma), and the centre c is the state block "x" or "v".
FORMS = {
    "opt_gap": (None, "x"),
    "combined_mu": ("mu", "x"),
    "scaled": ("gamma", "x"),
    "hb": ("mu", "v"),
    "avd_nag": ("gamma", "v"),
}
LYAPUNOV_KINDS = tuple(FORMS)


class LyapunovConfigError(ValueError):
    """Missing state block or unsupported pairing."""


@dataclass(frozen=True)
class StrongParams:
    """Decay parameters: rate c(state), exponent q, dissipation p^2(state).

    c and p_sq take a FlowState, single or batched, and return one value
    per state (a float, or an array over the batch; a constant broadcasts).
    """

    c: Callable[[flows.FlowState], float]
    q: float
    p_sq: Callable[[flows.FlowState], float]


@dataclass(frozen=True)
class LyapunovSpec:
    kind: str
    strong_params: Optional[StrongParams] = None
    domain: str = "box"  # the region x is drawn from: "box" or "sublevel"

    def __post_init__(self):
        if self.kind not in LYAPUNOV_KINDS:
            raise LyapunovConfigError(f"unknown Lyapunov kind: {self.kind!r}")


def _form(kind: str, oracle: ProblemOracle, state):
    """(w, c - x*) of the kind's form at the state, or (None, None) for the
    gap alone.  state is a FlowState, single or batched, or anything with
    the same blocks (a solver's Block of iterates)."""
    weight, centre = FORMS[kind]
    if weight is None:
        return None, None
    for block in (centre, weight):
        if block in ("v", "gamma") and getattr(state, block) is None:
            raise LyapunovConfigError(f"Lyapunov kind {kind!r} needs state block {block!r}")
    w = oracle.mu if weight == "mu" else state.gamma
    return w, getattr(state, centre) - oracle.x_star


def value(kind: str, oracle: ProblemOracle, state, gap):
    """L from the gap f - f* at the state: gap + w/2 |c - x*|^2, per state
    over a batch (rowdot, so a batch row equals the state alone bit for bit)."""
    w, d = _form(kind, oracle, state)
    return gap if w is None else gap + 0.5 * w * rowdot(d, d)


def evaluate(lyap: LyapunovSpec, oracle: ProblemOracle, state: flows.FlowState):
    """L at the state: a float, or an array over a batched state."""
    gap = oracle.eval_f(np.asarray(state.x, dtype=float)) - oracle.f_star
    return unbox(value(lyap.kind, oracle, state, gap))


def grad_blocks(lyap: LyapunovSpec, oracle: ProblemOracle, state: flows.FlowState) -> dict:
    """Partial gradients with respect to the x, v and gamma blocks."""
    g = flows.state_grad(oracle, state)
    w, d = _form(lyap.kind, oracle, state)
    if w is None:
        return {"x": g}
    # w d, with a batch's per-state w scaling the rows of d
    wd = (np.asarray(w)[..., None] if d.ndim > 1 else w) * d
    weight, centre = FORMS[lyap.kind]
    grads = {"x": g + wd} if centre == "x" else {"x": g, "v": wd}
    if weight == "gamma":
        grads["gamma"] = unbox(0.5 * rowdot(d, d))
    return grads


def decay_rate(lyap: LyapunovSpec, model: flows.FlowModel, state: flows.FlowState):
    """-grad(L) . G along the model's vector field, summed over blocks."""
    grads = grad_blocks(lyap, model.oracle, state)
    vel = flows.field(model, state)
    total = rowdot(grads["x"], vel.x)
    if "v" in grads:
        total = total + rowdot(grads["v"], vel.v)
    if "gamma" in grads:
        total = total + grads["gamma"] * vel.gamma
    return unbox(-total)


# A block of draws holds at most this many uniforms (one row per draw, at
# least one row), so a sampled check works in arrays of ~64 KB whatever the
# problem's width; larger blocks measured no faster.
_BLOCK_VALUES = 1 << 13


def _report(blocks, samples: int, seed: int) -> dict:
    """The verdict over (slack, tol, points, draws) blocks: the worst slack
    and its first point, as sampled_verdict gives them over all samples.
    No samples certify nothing, so samples < 1 raises, as does a negative
    seed, which no generator takes."""
    if samples < 1:
        raise LyapunovConfigError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise LyapunovConfigError(f"seed must be >= 0, got {seed}")
    n = violations = draws = 0
    worst, arg_min = math.inf, None
    for slack, tol, points, draws in blocks:
        block_worst, i, block_violations = sampled_verdict(slack, tol)
        if block_worst < worst:
            worst, arg_min = block_worst, points[i].tolist()
        n += slack.size
        violations += block_violations
    return {
        "samples": n,
        "draws": draws,
        "min_slack": worst,
        "violations": violations,
        "arg_min_x": arg_min,
        "pass": violations == 0 and n == samples,
    }


def _sample_states(flow: flows.FlowModel, samples: int, seed: int,
                   f0_level: Optional[float] = None):
    """The states the strong check runs on: yields (states, draws) per
    block, the states as one batched FlowState carrying a (sub)gradient.

    Draw i is row i of the rng.random((k, width)) blocks, the stream that
    per-draw rng.uniform calls consume, laid out [log-radius u if any | x |
    v | gamma].  x and v are uniform on the box of radius SAMPLING_RADIUS
    around x*, gamma on GAMMA_RANGE, and a state carries grad h(x).  On a
    composite f = h + g the x draw w maps to the gradient step
    y = w - s grad h(w) and x = prox_g(y, s), s = 1/L, whose state carries
    xi = grad h(x) + (y - x)/s, an element of the subdifferential of f at
    x; when mu = 0, w's box radius is log-uniform on [0.01,
    SAMPLING_RADIUS], since in high dimension a fixed box almost never
    lands the prox point inside the initial sublevel set.

    With an f0_level only states with f(x) <= f0_level are kept (a NaN
    f(x) is kept, and fails the check).  The first `samples` kept draws
    of at most 200 * samples are checked; after the last block, draws is
    the index of the last kept draw + 1, or the cap.
    """
    oracle = flow.oracle
    n, s = oracle.dim, 1.0 / oracle.lip
    composite = oracle.is_composite
    lead = 1 if composite and oracle.mu == 0 else 0
    width = lead + n * (2 if flow.has_v else 1) + (1 if flow.has_gamma else 0)
    gamma_lo, gamma_hi = GAMMA_RANGE
    exp_lo = -2.0
    exp_span = math.log10(SAMPLING_RADIUS) - exp_lo

    def box(u, radius=SAMPLING_RADIUS):
        return oracle.x_star + (-radius + 2.0 * radius * u)

    rng = box_rng(seed)
    cap = 200 * samples
    block = max(1, min(samples, _BLOCK_VALUES // width))
    n_kept = draws = 0
    while n_kept < samples and draws < cap:
        rows = rng.random((min(block, cap - draws), width))
        if f0_level is None:
            rows = rows[:samples - n_kept]
        radius = SAMPLING_RADIUS
        if lead:
            # Python's float pow: numpy's vectorized power can differ by an ulp
            exponents = (exp_lo + exp_span * rows[:, 0]).tolist()
            radius = np.array([10.0 ** e for e in exponents])[:, None]
        x = box(rows[:, lead:lead + n], radius)
        if composite:
            y = x - s * oracle.grad_h(x)
            x = oracle.prox_g(y, s)
        if f0_level is None:
            idx = np.arange(len(rows))
        else:
            idx = np.flatnonzero(~(oracle.eval_f(x) > f0_level))[:samples - n_kept]
        n_kept += idx.size
        draws += int(idx[-1]) + 1 if n_kept == samples else len(rows)
        rows, x = rows[idx], x[idx]
        grad = oracle.grad_h(x)
        if composite:
            grad = grad + (y[idx] - x) / s
        yield flows.FlowState(
            np.zeros(len(rows)), x,
            v=box(rows[:, lead + n:lead + 2 * n]) if flow.has_v else None,
            gamma=gamma_lo + (gamma_hi - gamma_lo) * rows[:, -1] if flow.has_gamma else None,
            grad=grad,
        ), draws


def strong_condition_check(flow: flows.FlowModel, lyap: LyapunovSpec,
                           samples: int, seed: int) -> dict:
    """Sampled check of -grad(L) . G >= c L^q + p^2.

    For domain "sublevel" only states with f(x) <= the oracle's f0_level
    are kept (rejection sampling, capped at 200x the requested count).  On
    a composite f every state is a prox point carrying its subgradient
    (see _sample_states).  PASS iff every slack is >= -SLACK_TOL
    (1 + |L|^q); a NaN slack is a violation.
    """
    if lyap.strong_params is None:
        raise LyapunovConfigError("Lyapunov spec has no strong-condition parameters")
    oracle = flow.oracle
    sublevel = lyap.domain == "sublevel"
    if sublevel and None in (oracle.radius_r0, oracle.f0_level):
        raise LyapunovConfigError("the f(0)-sublevel set needs R0 and f0")
    params = lyap.strong_params

    def blocks():
        for st, draws in _sample_states(flow, samples, seed,
                                        oracle.f0_level if sublevel else None):
            lval = evaluate(lyap, oracle, st)
            slack = decay_rate(lyap, flow, st) - params.c(st) * lval ** params.q - params.p_sq(st)
            yield slack, SLACK_TOL * (1.0 + np.abs(lval) ** params.q), st.x, draws

    return _report(blocks(), samples, seed)


def composite_condition_check(oracle: ProblemOracle, samples: int, seed: int,
                              c_override: Optional[float] = None) -> dict:
    """The strong check of gradient flow on a composite f = h + g at prox
    points: composite_sc when mu > 0, composite_convex when mu = 0."""
    if not oracle.is_composite:
        raise LyapunovConfigError("the composite check needs a composite objective")
    name = "composite_sc" if oracle.mu > 0 else "composite_convex"
    return strong_condition_check(*_PAIRINGS[name](oracle, c_override), samples, seed)


# ---------------------------------------------------------------------------
# Named pairings for the verifier CLI and the acceptance suite.
# ---------------------------------------------------------------------------

# A named pairing's problem is built on first use and shared: oracles are immutable.
@functools.cache
def _sc_quadratic() -> ProblemOracle:
    return make_quadratic([1.0, 4.0], [1.0, -2.0])


def _pairing(flow: str, kind: str, c: Callable, p_sq: Callable, q: float = 1.0,
             domain: str = "box", problem: Callable = _sc_quadratic) -> Callable:
    """A named pairing: (oracle=None, c_override=None) -> (model, spec).

    The model is the flow on the oracle (problem() when none is given), and
    the spec's rate c and dissipation p_sq are c(model, state) and
    p_sq(model, state); a c_override replaces the rate.
    """
    def pairing(oracle: Optional[ProblemOracle] = None, c_override=None):
        model = flows.FlowModel(flow, oracle or problem())
        rate = (lambda st: c(model, st)) if c_override is None else (lambda st: c_override)
        params = StrongParams(c=rate, q=q, p_sq=lambda st: p_sq(model, st))
        return model, LyapunovSpec(kind, params, domain)
    return pairing


def _grad_sq(model, st):
    g = flows.state_grad(model.oracle, st)
    return rowdot(g, g)


def _spread(model, st):
    """mu/2 |x - v|^2."""
    d = st.x - st.v
    return 0.5 * model.oracle.mu * rowdot(d, d)


# Gradient flow with the mu-augmented gap: c = mu, q = 1, p^2 = |grad f|^2.
pairing_gd_combined = _pairing("gradient", "combined_mu", lambda m, st: m.oracle.mu, _grad_sq)
# Gradient flow, mu = 0, on the initial sublevel set: c = 1/R0^2, q = 2, p = 0.
pairing_gf_convex = _pairing("gradient", "opt_gap", lambda m, st: 1.0 / m.oracle.radius_r0 ** 2,
                             lambda m, st: 0.0, q=2.0, domain="sublevel",
                             problem=functools.cache(lambda: make_logcosh(2.0, dim=2)))
# Rescaled gradient flow: c = 1, q = 1, p^2 = |grad f|^2 / gamma.
pairing_scaled = _pairing("scaled_gradient", "scaled", lambda m, st: 1.0,
                          lambda m, st: _grad_sq(m, st) / st.gamma)
# Heavy ball: c = 1, q = 1, p^2 = mu/2 |x - v|^2.
pairing_hb = _pairing("heavy_ball", "hb", lambda m, st: 1.0, _spread)
# Vanishing damping: c = sqrt(gamma), q = 1, p = 0.
pairing_avd = _pairing("avd_r3", "avd_nag", lambda m, st: np.sqrt(st.gamma),
                       lambda m, st: 0.0)
# Gradient-corrected accelerated flow, beta = 1/L: c = 1, q = 1,
# p^2 = beta |grad f|^2 + mu/2 |x - v|^2.
pairing_hnag = _pairing("hnag", "avd_nag", lambda m, st: 1.0,
                        lambda m, st: (1.0 / m.oracle.lip) * _grad_sq(m, st) + _spread(m, st))


@functools.cache
def _lasso_sc() -> ProblemOracle:
    rng = box_rng(20240707)
    a = rng.standard_normal((12, 8)) + 2.0 * np.eye(12, 8)
    b = rng.standard_normal(12)
    return make_lasso(a, b, 0.5)


@functools.cache
def _lasso_convex() -> ProblemOracle:
    rng = box_rng(20240708)
    a = rng.standard_normal((8, 20))
    b = rng.standard_normal(8)
    return make_lasso(a, b, 0.5)


# Gradient flow on a composite f, moving on the subgradient xi that each prox
# point carries, with L = f - f*: c = mu, q = 1, p^2 = |xi|^2 / 2.
pairing_composite_sc = _pairing("gradient", "opt_gap", lambda m, st: m.oracle.mu,
                                lambda m, st: 0.5 * _grad_sq(m, st), problem=_lasso_sc)
# The same with mu = 0, on the f(0)-sublevel set: c = 1/(2 R0^2), q = 2.
pairing_composite_convex = _pairing(
    "gradient", "opt_gap", lambda m, st: 1.0 / (2.0 * m.oracle.radius_r0 ** 2),
    lambda m, st: 0.5 * _grad_sq(m, st), q=2.0, domain="sublevel",
    problem=_lasso_convex)

_PAIRINGS = {
    "gd_combined": pairing_gd_combined,
    "gf_convex": pairing_gf_convex,
    "scaled": pairing_scaled,
    "hb": pairing_hb,
    "avd": pairing_avd,
    "hnag": pairing_hnag,
    "composite_sc": pairing_composite_sc,
    "composite_convex": pairing_composite_convex,
}
PAIRING_NAMES = tuple(_PAIRINGS)
_FLOW_PAIRINGS = {"gradient": "gd_combined", "scaled_gradient": "scaled",
                  "heavy_ball": "hb", "avd_r3": "avd", "hnag": "hnag"}


def flow_pairing(kind: str, oracle: ProblemOracle):
    """(model, spec) of the pairing that checks the flow kind on the oracle;
    gradient flow with mu = 0 is checked on its sublevel set (gf_convex)."""
    if kind not in _FLOW_PAIRINGS:
        raise LyapunovConfigError(f"unknown flow model: {kind!r}")
    name = "gf_convex" if kind == "gradient" and oracle.mu == 0 else _FLOW_PAIRINGS[kind]
    return _PAIRINGS[name](oracle)


def verify_pairing(name: str, samples: int, seed: int,
                   c_override: Optional[float] = None) -> dict:
    """Run the named verifier pairing and return its report."""
    if name not in _PAIRINGS:
        raise LyapunovConfigError(f"unknown pairing: {name!r}")
    report = strong_condition_check(*_PAIRINGS[name](c_override=c_override), samples, seed)
    report["pairing"] = name
    return report

