"""Lyapunov function catalog and the numeric strong-condition verifier.

A Lyapunov function here is a nonnegative function of the flow state that
vanishes at the equilibrium.  The verifier samples states and checks the
decay inequality -grad(L) . G >= c L^q + p^2 pointwise; the sequence-decay
theorems convert per-step contraction inequalities into rate bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import flows
from .calculus import sampled_verdict
from .problems import (ProblemOracle, box_rng, make_lasso, make_logcosh, make_quadratic,
                       rowdot, unbox)

SLACK_TOL = 1e-9
SAMPLING_RADIUS = 10.0
GAMMA_RANGE = (0.05, 10.0)

LYAPUNOV_KINDS = ("opt_gap", "dist_sq", "combined_mu", "scaled", "hb", "avd_nag")


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
    domain: str = "box"  # "box" or "sublevel"

    def __post_init__(self):
        if self.kind not in LYAPUNOV_KINDS:
            raise LyapunovConfigError(f"unknown Lyapunov kind: {self.kind!r}")


def _need(state: flows.FlowState, block: str, kind: str):
    if getattr(state, block) is None:
        raise LyapunovConfigError(f"Lyapunov kind {kind!r} needs state block {block!r}")


def _sq_dist(a, center):
    return np.sum((a - center) ** 2, axis=-1)


def _per_state(value, x):
    """A per-state scalar shaped to scale the rows of x."""
    return np.asarray(value)[..., None] if x.ndim > 1 else value


def evaluate(lyap: LyapunovSpec, oracle: ProblemOracle, state: flows.FlowState):
    """L at the state: a float, or an array over a batched state."""
    x = np.asarray(state.x, dtype=float)
    gap = oracle.eval_f(x) - oracle.f_star
    if lyap.kind == "opt_gap":
        return gap
    if lyap.kind == "dist_sq":
        return unbox(0.5 * _sq_dist(x, oracle.x_star))
    if lyap.kind == "combined_mu":
        return unbox(gap + 0.5 * oracle.mu * _sq_dist(x, oracle.x_star))
    if lyap.kind == "scaled":
        _need(state, "gamma", lyap.kind)
        return unbox(gap + 0.5 * state.gamma * _sq_dist(x, oracle.x_star))
    if lyap.kind == "hb":
        _need(state, "v", lyap.kind)
        return unbox(gap + 0.5 * oracle.mu * _sq_dist(state.v, oracle.x_star))
    # avd_nag
    _need(state, "v", lyap.kind)
    _need(state, "gamma", lyap.kind)
    return unbox(gap + 0.5 * state.gamma * _sq_dist(state.v, oracle.x_star))


def grad_blocks(lyap: LyapunovSpec, oracle: ProblemOracle, state: flows.FlowState) -> dict:
    """Partial gradients with respect to the x, v and gamma blocks."""
    x = np.asarray(state.x, dtype=float)
    g = oracle.grad_h(x)
    dx = x - oracle.x_star
    if lyap.kind == "opt_gap":
        return {"x": g}
    if lyap.kind == "dist_sq":
        return {"x": dx}
    if lyap.kind == "combined_mu":
        return {"x": g + oracle.mu * dx}
    if lyap.kind == "scaled":
        _need(state, "gamma", lyap.kind)
        return {"x": g + _per_state(state.gamma, x) * dx,
                "gamma": unbox(0.5 * np.sum(dx * dx, axis=-1))}
    dv = state.v - oracle.x_star if state.v is not None else None
    if lyap.kind == "hb":
        _need(state, "v", lyap.kind)
        return {"x": g, "v": oracle.mu * dv}
    _need(state, "v", lyap.kind)
    _need(state, "gamma", lyap.kind)
    return {"x": g, "v": _per_state(state.gamma, x) * dv,
            "gamma": unbox(0.5 * np.sum(dv * dv, axis=-1))}


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


def _kept_blocks(rng, samples: int, width: int, rejects=None):
    """Rejection sampling over rows of `width` uniforms on [0, 1).

    Draw i is row i of the rng.random((k, width)) blocks, which is the
    stream that per-draw rng.uniform calls for `width` values consume.
    Keeps the first `samples` draws that rejects(rows) does not refuse,
    drawing at most 200 * samples.  Yields (rows, draws) per block: the
    kept rows and the draws so far, which after the last block is the
    index of the last kept draw + 1, or the cap.
    """
    cap = 200 * samples
    block = max(1, min(samples, _BLOCK_VALUES // width))
    n_kept = draws = 0
    while n_kept < samples and draws < cap:
        rows = rng.random((min(block, cap - draws), width))
        idx = np.arange(len(rows)) if rejects is None else np.flatnonzero(~rejects(rows))
        idx = idx[:samples - n_kept]
        n_kept += idx.size
        draws += int(idx[-1]) + 1 if n_kept == samples else len(rows)
        yield rows[idx], draws


def _report(blocks, samples: int) -> dict:
    """The verdict over (slack, tol, points, draws) blocks: the worst slack
    and its first point, as sampled_verdict gives them over all samples."""
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
    block, the states as one batched FlowState.

    Each draw is a state with x (and v) uniform on the box of radius
    SAMPLING_RADIUS around x* and gamma uniform on GAMMA_RANGE.  With an
    f0_level only states with f(x) <= f0_level are kept.
    """
    oracle = flow.oracle
    n = oracle.dim
    gamma_lo, gamma_hi = GAMMA_RANGE

    def box(u):
        return oracle.x_star + (-SAMPLING_RADIUS + 2.0 * SAMPLING_RADIUS * u)

    rejects = None
    if f0_level is not None:
        def rejects(rows):
            return oracle.eval_f(box(rows[:, :n])) > f0_level

    width = n * (2 if flow.has_v else 1) + (1 if flow.has_gamma else 0)
    for rows, draws in _kept_blocks(box_rng(seed), samples, width, rejects):
        yield flows.FlowState(
            np.zeros(len(rows)), box(rows[:, :n]),
            v=box(rows[:, n:2 * n]) if flow.has_v else None,
            gamma=gamma_lo + (gamma_hi - gamma_lo) * rows[:, -1] if flow.has_gamma else None,
        ), draws


def strong_condition_check(flow: flows.FlowModel, lyap: LyapunovSpec,
                           samples: int, seed: int,
                           f0_level: Optional[float] = None) -> dict:
    """Sampled check of -grad(L) . G >= c L^q + p^2.

    For domain "sublevel" only states with f(x) <= f0_level are kept
    (rejection sampling, capped at 200x the requested count).
    PASS iff every slack is >= -1e-9 (1 + |L|^q); a NaN slack is a
    violation.
    """
    if lyap.strong_params is None:
        raise LyapunovConfigError("Lyapunov spec has no strong-condition parameters")
    if lyap.domain == "sublevel":
        if f0_level is None:
            f0_level = flow.oracle.f0_level
        if f0_level is None:
            raise LyapunovConfigError("sublevel domain needs an f0 level")
    else:
        f0_level = None
    params = lyap.strong_params

    def blocks():
        for st, draws in _sample_states(flow, samples, seed, f0_level):
            lval = evaluate(lyap, flow.oracle, st)
            slack = decay_rate(lyap, flow, st) - params.c(st) * lval ** params.q - params.p_sq(st)
            yield slack, SLACK_TOL * (1.0 + np.abs(lval) ** params.q), st.x, draws

    return _report(blocks(), samples)


def _sample_prox_points(oracle: ProblemOracle, samples: int, seed: int):
    """The composite check's sample points: yields (y, x, draws) per block.

    A draw w, uniform on a box around x*, maps to the gradient step
    y = w - s grad h(w) and x = prox_g(y, s), s = 1/L.  The box radius is
    SAMPLING_RADIUS when mu > 0.  When mu = 0 it is log-uniform on
    [0.01, SAMPLING_RADIUS], since in high dimension a fixed box almost
    never lands the prox point inside the initial sublevel set, and only
    points with f(x) <= f0_level are kept.
    """
    s = 1.0 / oracle.lip
    mu = oracle.mu
    exp_lo = -2.0
    exp_span = math.log10(SAMPLING_RADIUS) - exp_lo

    def prox_points(rows):
        if mu > 0:
            radius, u = SAMPLING_RADIUS, rows
        else:
            # Python's float pow: numpy's vectorized power can differ by an ulp
            exponents = (exp_lo + exp_span * rows[:, 0]).tolist()
            radius = np.array([10.0 ** e for e in exponents])[:, None]
            u = rows[:, 1:]
        w = oracle.x_star + (-radius + 2.0 * radius * u)
        y = w - s * oracle.grad_h(w)
        return y, oracle.prox_g(y, s)

    rejects = None
    if mu == 0:
        def rejects(rows):
            return oracle.eval_f(prox_points(rows)[1]) > oracle.f0_level

    width = oracle.dim + (0 if mu > 0 else 1)
    for rows, draws in _kept_blocks(box_rng(seed), samples, width, rejects):
        yield (*prox_points(rows), draws)


def composite_condition_check(oracle: ProblemOracle, samples: int, seed: int,
                              c_override: Optional[float] = None) -> dict:
    """Strong condition for composite f = h + g at prox-generated points.

    A sampled w is mapped to x = prox_g(w - s grad h(w), s) with s = 1/L,
    where the prox supplies the canonical subgradient q of g at x, so
    d = grad h(x) + q is a concrete element of the subdifferential.  The
    inequality checked is ||d||^2 >= c L^q(x) + ||d||^2 / 2 with
    (c, q) = (mu, 1) when mu > 0 and (1/(2 R0^2), 2) on the f(0)-sublevel
    set when mu = 0.  A NaN slack is a violation.
    """
    if not oracle.is_composite:
        raise LyapunovConfigError("composite pairing needs a composite oracle")
    if oracle.mu > 0:
        c_val, q = oracle.mu, 1.0
    else:
        if oracle.radius_r0 is None or oracle.f0_level is None:
            raise LyapunovConfigError("mu = 0 composite pairing needs R0 and f0")
        c_val, q = 1.0 / (2.0 * oracle.radius_r0 ** 2), 2.0
    if c_override is not None:
        c_val = c_override
    s = 1.0 / oracle.lip

    def blocks():
        for y, x, draws in _sample_prox_points(oracle, samples, seed):
            d = oracle.grad_h(x) + (y - x) / s
            dsq = rowdot(d, d)
            lval = oracle.eval_f(x) - oracle.f_star
            slack = dsq - c_val * lval ** q - 0.5 * dsq
            yield slack, SLACK_TOL * (1.0 + np.abs(lval) ** q), x, draws

    return _report(blocks(), samples)


# ---------------------------------------------------------------------------
# Named pairings for the verifier CLI and the acceptance suite.
# ---------------------------------------------------------------------------

def _sc_quadratic() -> ProblemOracle:
    return make_quadratic([1.0, 4.0], [1.0, -2.0])


def pairing_gd_combined(oracle: Optional[ProblemOracle] = None, c_override=None):
    """Gradient flow with the mu-augmented gap: c = mu, q = 1, p^2 = |grad f|^2."""
    oracle = oracle or _sc_quadratic()
    model = flows.FlowModel("gradient", oracle)
    mu = oracle.mu
    lyap = LyapunovSpec(
        "combined_mu",
        StrongParams(
            c=lambda st: c_override if c_override is not None else mu,
            q=1.0,
            p_sq=lambda st: np.sum(oracle.grad_h(st.x) ** 2, axis=-1),
        ),
    )
    return model, lyap


def pairing_gf_convex(oracle: Optional[ProblemOracle] = None, c_override=None):
    """Gradient flow, mu = 0, on the initial sublevel set: c = 1/R0^2, q = 2."""
    oracle = oracle or make_logcosh(2.0, dim=2)
    model = flows.FlowModel("gradient", oracle)
    c_val = c_override if c_override is not None else 1.0 / oracle.radius_r0 ** 2
    lyap = LyapunovSpec(
        "opt_gap",
        StrongParams(c=lambda st: c_val, q=2.0, p_sq=lambda st: 0.0),
        domain="sublevel",
    )
    return model, lyap


def pairing_scaled(oracle: Optional[ProblemOracle] = None, c_override=None):
    """Rescaled gradient flow: c = 1, q = 1, p^2 = |grad f|^2 / gamma."""
    oracle = oracle or _sc_quadratic()
    model = flows.FlowModel("scaled_gradient", oracle)
    lyap = LyapunovSpec(
        "scaled",
        StrongParams(
            c=lambda st: c_override if c_override is not None else 1.0,
            q=1.0,
            p_sq=lambda st: np.sum(oracle.grad_h(st.x) ** 2, axis=-1) / st.gamma,
        ),
    )
    return model, lyap


def pairing_hb(oracle: Optional[ProblemOracle] = None, c_override=None):
    """Heavy ball: c = 1, q = 1, p^2 = mu/2 |x - v|^2."""
    oracle = oracle or _sc_quadratic()
    model = flows.FlowModel("heavy_ball", oracle)
    mu = oracle.mu
    lyap = LyapunovSpec(
        "hb",
        StrongParams(
            c=lambda st: c_override if c_override is not None else 1.0,
            q=1.0,
            p_sq=lambda st: 0.5 * mu * _sq_dist(st.x, st.v),
        ),
    )
    return model, lyap


def pairing_avd(oracle: Optional[ProblemOracle] = None, c_override=None):
    """Vanishing damping: c = sqrt(gamma), q = 1, p = 0."""
    oracle = oracle or _sc_quadratic()
    model = flows.FlowModel("avd_r3", oracle)
    lyap = LyapunovSpec(
        "avd_nag",
        StrongParams(
            c=lambda st: c_override if c_override is not None else np.sqrt(st.gamma),
            q=1.0,
            p_sq=lambda st: 0.0,
        ),
    )
    return model, lyap


def pairing_hnag(oracle: Optional[ProblemOracle] = None, c_override=None):
    """Gradient-corrected accelerated flow: c = 1, p^2 = beta|grad f|^2 + mu/2 |x-v|^2."""
    oracle = oracle or _sc_quadratic()
    model = flows.FlowModel("hnag", oracle)
    mu = oracle.mu

    def p_sq(st):
        g = oracle.grad_h(st.x)
        return model.beta_fn(st.t) * rowdot(g, g) + 0.5 * mu * _sq_dist(st.x, st.v)

    lyap = LyapunovSpec(
        "avd_nag",
        StrongParams(
            c=lambda st: c_override if c_override is not None else 1.0,
            q=1.0,
            p_sq=p_sq,
        ),
    )
    return model, lyap


def _lasso_sc() -> ProblemOracle:
    rng = box_rng(20240707)
    a = rng.standard_normal((12, 8)) + 2.0 * np.eye(12, 8)
    b = rng.standard_normal(12)
    return make_lasso(a, b, 0.5)


def _lasso_convex() -> ProblemOracle:
    rng = box_rng(20240708)
    a = rng.standard_normal((8, 20))
    b = rng.standard_normal(8)
    return make_lasso(a, b, 0.5)


def verify_pairing(name: str, samples: int, seed: int,
                   c_override: Optional[float] = None) -> dict:
    """Run the named verifier pairing and return its report."""
    smooth = {
        "gd_combined": pairing_gd_combined,
        "gf_convex": pairing_gf_convex,
        "scaled": pairing_scaled,
        "hb": pairing_hb,
        "avd": pairing_avd,
        "hnag": pairing_hnag,
    }
    if name in smooth:
        model, lyap = smooth[name](c_override=c_override)
        report = strong_condition_check(model, lyap, samples, seed)
    elif name == "composite_sc":
        report = composite_condition_check(_lasso_sc(), samples, seed, c_override)
    elif name == "composite_convex":
        report = composite_condition_check(_lasso_convex(), samples, seed, c_override)
    else:
        raise LyapunovConfigError(f"unknown pairing: {name!r}")
    report["pairing"] = name
    return report


PAIRING_NAMES = ("gd_combined", "gf_convex", "scaled", "hb", "avd", "hnag",
                 "composite_sc", "composite_convex")


# ---------------------------------------------------------------------------
# Discrete sequence-decay theorems.
# ---------------------------------------------------------------------------

class SequenceParameterError(ValueError):
    pass


def sequence_decay(case: int, a0: float, alphas, k: int) -> float:
    """Bound value at index k for the four decay cases.

    Cases 1 and 2 take a sequence of step factors (only the first k are
    used); cases 3 and 4 take a single scalar alpha.
    """
    if a0 < 0 or k < 0:
        raise SequenceParameterError("need a0 >= 0, k >= 0")
    if case in (1, 2):
        arr = np.asarray(alphas, dtype=float)[:k]
        if case == 1:
            if np.any(arr < 0) or np.any(arr >= 1):
                raise SequenceParameterError("case 1 needs alpha_k in [0, 1)")
            return float(a0 * np.prod(1.0 - arr))
        if np.any(arr < 0):
            raise SequenceParameterError("case 2 needs alpha_k >= 0")
        return float(a0 * np.prod(1.0 / (1.0 + arr)))
    alpha = float(alphas)
    if alpha < 0:
        raise SequenceParameterError("cases 3/4 need alpha >= 0")
    if case == 3:
        return a0 / (1.0 + alpha * a0 * k)
    if case == 4:
        delta = alpha * a0 / (1.0 + alpha * a0)
        return (1.0 + delta) * a0 / (1.0 + alpha * a0 * k)
    raise SequenceParameterError(f"unknown case: {case}")


def _extremal_step(case: int, a: np.ndarray, alpha) -> np.ndarray:
    if case == 1:
        return a * (1.0 - alpha)
    if case == 2:
        return a / (1.0 + alpha)
    if case == 3:
        return a - alpha * a * a
    # case 4: A' = A - alpha A'^2, positive root
    return (-1.0 + np.sqrt(1.0 + 4.0 * alpha * a)) / (2.0 * alpha)


def sequence_decay_oracle(case: int, a0: float, alpha: float, k_max: int,
                          n_random: int = 100, seed: int = 0) -> dict:
    """Brute-force check that the decay bound dominates admissible sequences.

    Runs the extremal recursion (equality, p = 0) alongside n_random
    sequences with random extra dissipation p_k^2 >= 0, and reports the
    largest ratio sequence/bound seen over k <= k_max.
    """
    if case == 3 and alpha * a0 >= 1.0:
        raise SequenceParameterError("case 3 recursion needs alpha * a0 < 1")
    rng = box_rng(seed)
    a = np.full(n_random + 1, float(a0))
    max_ratio = 0.0
    for k in range(1, k_max + 1):
        nxt = _extremal_step(case, a, alpha)
        # random admissible sequences shed extra mass; index 0 is extremal
        shed = rng.uniform(0.0, 0.1, size=n_random + 1) * nxt
        shed[0] = 0.0
        a = np.maximum(nxt - shed, 0.0)
        bound = sequence_decay(case, a0, np.full(k, alpha) if case in (1, 2) else alpha, k)
        if bound > 0:
            max_ratio = max(max_ratio, float(a.max()) / bound)
    return {"case": case, "k_max": k_max, "max_ratio": max_ratio,
            "pass": max_ratio <= 1.0 + 1e-12}
