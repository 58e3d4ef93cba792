"""Discrete optimization methods with per-iteration contraction certificates.

Every solver is a single-step transition on a small state (x, and where
needed v, y, gamma, alpha).  The run loop evaluates the method's Lyapunov
function before and after each step, checks the proved per-iteration
inequality, and compares the trajectory against the closed-form rate
bound.  Certificate violations are flagged, never fatal: a violation is
the most useful thing a run can report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import schedules
from .problems import ProblemOracle

CERT_TOL = 1e-9

class UnsupportedSolverError(ValueError):
    """Solver/problem pair outside the method's assumptions."""


@dataclass
class SolverState:
    k: int
    x: np.ndarray
    v: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    gamma: Optional[float] = None
    alpha: Optional[float] = None
    aux: dict = field(default_factory=dict)
    # grad_h(x), once a step or a check has computed it (see _grad)
    grad: Optional[np.ndarray] = None


@dataclass
class TraceRecord:
    k: int
    f_gap: float
    lyapunov: float
    bound: float
    slack: float
    grad_norm: float
    alpha: float
    gamma: float
    # what the certificate and the rate bound apply to: the Lyapunov value,
    # or nag's gradient-corrected one
    bounded: float


@dataclass
class RunResult:
    kind: str
    records: list
    certified: bool
    violations: int
    # k of the first record whose f_gap, Lyapunov value or grad norm is not
    # finite; the run stops there and that record is the last
    nonfinite_at_k: Optional[int] = None


def _vec(x) -> np.ndarray:
    return np.asarray(x, dtype=float).copy()


def _sq(d) -> float:
    return float(np.dot(d, d))


def _grad(oracle: ProblemOracle, state: SolverState) -> np.ndarray:
    """grad_h(state.x), computed on first use and carried by the state."""
    if state.grad is None:
        state.grad = oracle.grad_h(state.x)
    return state.grad


# ---------------------------------------------------------------------------
# Single-step transitions.
# ---------------------------------------------------------------------------

def step_ppa(oracle: ProblemOracle, state: SolverState, alpha: float) -> SolverState:
    if oracle.prox_f is None:
        raise UnsupportedSolverError("ppa needs a proximal map of the full objective")
    x_new = oracle.prox_f(state.x, alpha)
    return SolverState(k=state.k + 1, x=x_new, alpha=alpha)


def step_gd(oracle: ProblemOracle, state: SolverState, alpha: float) -> SolverState:
    x_new = state.x - alpha * _grad(oracle, state)
    return SolverState(k=state.k + 1, x=x_new, alpha=alpha)


def step_pg(oracle: ProblemOracle, state: SolverState, alpha: float) -> SolverState:
    """Forward-backward step; records both gradient-mapping residuals."""
    x = state.x
    y = x - alpha * _grad(oracle, state)
    x_new = oracle.prox_g(y, alpha)
    d_half = (x - x_new) / alpha
    g_new = oracle.grad_h(x_new)
    d_next = g_new + (y - x_new) / alpha
    return SolverState(k=state.k + 1, x=x_new, alpha=alpha, grad=g_new,
                       aux={"d_half": d_half, "d_next": d_next})


def step_scaled_ppa(oracle: ProblemOracle, state: SolverState, alpha: float) -> SolverState:
    if oracle.prox_f is None:
        raise UnsupportedSolverError("scaled_ppa needs a proximal map of the objective")
    t = alpha / state.gamma
    x_new = oracle.prox_f(state.x, t)
    gamma_new = schedules.gamma_step(state.gamma, alpha, oracle.mu)
    return SolverState(k=state.k + 1, x=x_new, gamma=gamma_new, alpha=alpha)


def step_momentum(oracle: ProblemOracle, state: SolverState, alpha: float) -> SolverState:
    if oracle.mu <= 0:
        raise UnsupportedSolverError("momentum requires mu > 0")
    x, v = state.x, state.v
    y = (x + alpha * v) / (1.0 + alpha)
    g = oracle.grad_h(y)
    v_new = (v + alpha * y - (alpha / oracle.mu) * g) / (1.0 + alpha)
    x_new = y - g / oracle.lip
    return SolverState(k=state.k + 1, x=x_new, v=v_new, y=y, alpha=alpha)


def step_hb_gs(oracle: ProblemOracle, state: SolverState, alpha: float) -> SolverState:
    if oracle.mu <= 0:
        raise UnsupportedSolverError("hb_gs requires mu > 0")
    x_new = (state.x + alpha * state.v) / (1.0 + alpha)
    g = oracle.grad_h(x_new)
    v_new = (state.v + alpha * x_new - (alpha / oracle.mu) * g) / (1.0 + alpha)
    return SolverState(k=state.k + 1, x=x_new, v=v_new, alpha=alpha, grad=g)


def step_avd(oracle: ProblemOracle, state: SolverState, variant: str,
             alpha: Optional[float] = None) -> SolverState:
    """Vanishing-damping discretizations; gs is the plain Gauss-Seidel sweep,
    grad adds the extra gradient descent step, extrap re-solves the x update
    with the fresh v (identical x-iterates to grad under the step rule)."""
    x, v, gamma = state.x, state.v, state.gamma
    sg = math.sqrt(gamma)
    if alpha is None and variant == "gs":
        raise UnsupportedSolverError("avd gs variant needs an explicit alpha")
    a = schedules.avd_alpha(gamma, oracle.lip) if alpha is None else alpha
    y = (x + a * sg * v) / (1.0 + a * sg)
    g = oracle.grad_h(y)
    v_new = v - (a / sg) * g
    gamma_new = gamma / (1.0 + a * sg)
    if variant == "gs":
        # the sweep's new x is y itself, so the gradient is taken at x
        return SolverState(k=state.k + 1, x=y, v=v_new, gamma=gamma_new, alpha=a, grad=g)
    if variant == "grad":
        x_new = y - g / oracle.lip
    elif variant == "extrap":
        x_new = (x + a * sg * v_new) / (1.0 + a * sg)
    else:
        raise UnsupportedSolverError(f"unknown avd variant: {variant!r}")
    return SolverState(k=state.k + 1, x=x_new, v=v_new, y=y, gamma=gamma_new, alpha=a,
                       aux={"contraction": 1.0 / (1.0 + a * sg)})


def step_nag(oracle: ProblemOracle, state: SolverState) -> SolverState:
    gamma, mu, lip = state.gamma, oracle.mu, oracle.lip
    a = schedules.nag_alpha(gamma, lip)
    x_new = (state.y + a * state.v) / (1.0 + a)
    g = oracle.grad_h(x_new)
    y_new = x_new - g / lip
    denom = gamma + mu * a
    v_new = (gamma * state.v + mu * a * x_new) / denom + lip * a * (y_new - x_new) / denom
    gamma_new = denom / (1.0 + a)
    return SolverState(k=state.k + 1, x=x_new, v=v_new, y=y_new,
                       gamma=gamma_new, alpha=a, grad=g)


def step_apg(oracle: ProblemOracle, state: SolverState) -> SolverState:
    mu, lip = oracle.mu, oracle.lip
    a = state.alpha
    w = (state.y + a * state.v) / (1.0 + a)
    s = 1.0 / (lip * (1.0 + a))
    x_new = oracle.prox_g(w, s)
    q_next = (w - x_new) / s
    g_new = oracle.grad_h(x_new)
    y_new = x_new - g_new / lip
    v_new = x_new + (y_new - state.y) / (a + mu / lip)
    a_new = math.sqrt((a * a + a * mu / lip) / (1.0 + a))
    return SolverState(k=state.k + 1, x=x_new, v=v_new, y=y_new,
                       gamma=lip * a_new * a_new, alpha=a_new, grad=g_new,
                       aux={"step_alpha": a,
                            "resid_sq": _sq(_grad(oracle, state) + q_next)})


def step_apg_fast_grad(oracle: ProblemOracle, state: SolverState) -> SolverState:
    mu, lip = oracle.mu, oracle.lip
    gamma = state.gamma
    a = math.sqrt(gamma / (4.0 * lip))
    beta = 1.0 / (2.0 * lip * a)
    y = state.x - a * beta * _grad(oracle, state)
    w = (y + a * state.v) / (1.0 + a)
    s = a * beta / (1.0 + a)
    x_new = oracle.prox_g(w, s)
    q_next = (w - x_new) / s
    g_new = oracle.grad_h(x_new)
    d_next = g_new + q_next
    v_new = (gamma * state.v + mu * a * x_new - a * d_next) / (gamma + mu * a)
    gamma_new = (gamma + mu * a) / (1.0 + a)
    key_id = a * a * beta * beta * lip / 2.0 + a * a / (2.0 * gamma) - a * beta
    return SolverState(k=state.k + 1, x=x_new, v=v_new, gamma=gamma_new, alpha=a,
                       grad=g_new,
                       aux={"d_next_sq": _sq(d_next),
                            "key_identity_err": abs(key_id + 1.0 / (4.0 * lip))})


def step_new_apg(oracle: ProblemOracle, state: SolverState) -> SolverState:
    mu, lip = oracle.mu, oracle.lip
    gamma = state.gamma
    a = schedules.new_apg_alpha(gamma, lip)
    s = 1.0 / lip
    y = (state.x + a * state.v) / (1.0 + a)
    x_new = oracle.prox_g(y - s * oracle.grad_h(y), s)
    denom = gamma + mu * a
    v_new = (gamma * state.v + mu * a * y) / denom \
        + gamma * (1.0 + a) / denom * (x_new - y) / a
    gamma_new = denom / (1.0 + a)
    d_f = lip * (y - x_new)
    return SolverState(k=state.k + 1, x=x_new, v=v_new, gamma=gamma_new, alpha=a,
                       aux={"d_f": d_f, "y": y})


def momentum_two_sequence(oracle: ProblemOracle, x0, v0, variant: str, iters: int):
    """Equivalent v-free form of the momentum method; returns the x iterates.

    Eliminating v from the three-stage update under the constant step of
    the given variant leaves a two-term recursion in (x, y).
    """
    a = schedules.momentum_alpha(oracle.mu, oracle.lip, variant)
    x = _vec(x0)
    y = (x + a * _vec(v0)) / (1.0 + a)
    xs = [x]
    one_a = 1.0 + a
    for _ in range(iters):
        x_next = y - oracle.grad_h(y) / oracle.lip
        if variant == "sqrt":
            y = a * y / one_a - x / one_a ** 2 + (2.0 + a) * x_next / one_a ** 2
        else:
            y = a * a * y / one_a ** 2 - x / one_a ** 2 + 2.0 * x_next / one_a
        x = x_next
        xs.append(x)
    return xs


# ---------------------------------------------------------------------------
# The method table: one record per kind with the parts of the unified
# analysis (step, Lyapunov function, per-step inequality, rate bound).
# ---------------------------------------------------------------------------

def _grad_sq(oracle, state):
    return _sq(_grad(oracle, state))


class Method(NamedTuple):
    """One solver kind.  The Lyapunov value is f - f* + w/2 |centre - x*|^2
    with w = oracle.mu for weight "mu", state.gamma for "gamma"; it is
    f - f* for weight None.  (A NamedTuple, not a dataclass: the class is
    built at every import, and a frozen dataclass builds several times
    slower.)"""
    step: Callable  # (oracle, state, alpha) -> the next state
    weight: Optional[str]
    centre: str  # the state block the Lyapunov value measures: "x" or "v"
    # (oracle, old, new, q_old, q_new) -> the per-step inequality's slack,
    # None outside the certified range
    slack: Callable
    bound: Callable  # (oracle, gamma0, alpha, k, rho, q0) -> the rate bound at k
    # state blocks init_state sets beside x: "v", "gamma", "alpha" and "y",
    # a gradient step from x0
    blocks: tuple = ()
    certificate: bool = True  # False: slack is a diagnostic, and certifies nothing
    default_alpha: Callable = lambda oracle, variant: None
    rho: Callable = lambda rho, new: rho / (1.0 + new.alpha)  # the factor after a step
    residual_sq: Callable = _grad_sq  # squared grad-norm residual of a stepped state
    # (oracle, l, r_sq) -> what slack and bound apply to
    bounded: Callable = lambda oracle, l, r_sq: l
    # True: the step moves on grad_h alone, so run rejects a composite objective
    smooth: bool = False


def _unit_alpha(oracle, variant):
    return 1.0


def _gd_slack(oracle, old, new, q_old, q_new):
    a = new.alpha
    if a <= 0 or a > 2.0 / (oracle.lip + oracle.mu) + 1e-15:
        return None
    return (1.0 - oracle.mu * a) * q_old - q_new


def _gd_bound(oracle, gamma0, alpha, k, rho, q0):
    if alpha > 2.0 / (oracle.lip + oracle.mu) + 1e-15:
        return math.nan
    return q0 * (1.0 - oracle.mu * alpha) ** k


def _pg_slack(oracle, old, new, q_old, q_new):
    mu, lip = oracle.mu, oracle.lip
    if abs(new.alpha - 1.0 / lip) > 1e-15:
        return None
    if mu > 0:
        return q_old / (1.0 + mu / lip) - q_new
    if oracle.radius_r0 is None:
        return None
    c2 = 1.0 / (2.0 * lip * oracle.radius_r0 ** 2)
    return q_old - c2 * q_new * q_new - q_new


def _pg_bound(oracle, gamma0, alpha, k, rho, q0):
    mu, lip = oracle.mu, oracle.lip
    if mu > 0:
        return q0 * (1.0 + mu / lip) ** (-k)
    if oracle.radius_r0 is None:
        return math.nan
    c2 = 1.0 / (2.0 * lip * oracle.radius_r0 ** 2)
    delta = c2 * q0 / (1.0 + c2 * q0)
    return (1.0 + delta) * q0 / (1.0 + c2 * q0 * k)


def _alpha_slack(oracle, old, new, q_old, q_new):
    return q_old / (1.0 + new.alpha) - q_new


def _contraction_slack(oracle, old, new, q_old, q_new):
    return new.aux["contraction"] * q_old - q_new


def _hb_gs_diagnostic(oracle, old, new, l_old, l_new):
    a = new.alpha
    rhs = l_old - a * l_new + a * a / (2.0 * oracle.mu) * _sq(new.grad)
    return rhs - l_new


def _avd_gs_diagnostic(oracle, old, new, l_old, l_new):
    a, sg = new.alpha, math.sqrt(old.gamma)
    rhs = l_old - a * sg * l_new + a * a / 2.0 * _sq(new.grad)
    return rhs - l_new


def _measured_bound(oracle, gamma0, alpha, k, rho, q0):
    return q0 * rho


def _no_bound(oracle, gamma0, alpha, k, rho, q0):
    return math.nan


def _schedule_bound(rule: str) -> Callable:
    """q0 times the step rule's closed-form factor bound."""
    def bound(oracle, gamma0, alpha, k, rho, q0):
        try:
            return q0 * schedules.rho_bound(rule, gamma0, oracle.mu, oracle.lip, k)
        except schedules.ScheduleError:
            return math.nan
    return bound


def _times_contraction(rho, new):
    return rho * new.aux["contraction"]


# A step is called through its module-level name, looked up at call time,
# so a wrapper installed on that name (a tracer, say) sees every step.
METHODS = {
    "ppa": Method(
        step=lambda o, s, a: step_ppa(o, s, a), weight="mu", centre="x",
        slack=lambda o, old, new, q_old, q_new: q_old / (1.0 + o.mu * new.alpha) - q_new,
        bound=lambda o, g0, a, k, rho, q0: q0 * (1.0 + o.mu * a) ** (-k),
        default_alpha=_unit_alpha),
    "gd": Method(
        step=lambda o, s, a: step_gd(o, s, a), weight="mu", centre="x",
        slack=_gd_slack, bound=_gd_bound,
        default_alpha=lambda o, variant: 2.0 / (o.lip + o.mu), smooth=True),
    "pg": Method(
        step=lambda o, s, a: step_pg(o, s, a), weight=None, centre="x",
        slack=_pg_slack, bound=_pg_bound, default_alpha=lambda o, variant: 1.0 / o.lip,
        residual_sq=lambda o, s: _sq(s.aux["d_next"])),
    "scaled_ppa": Method(
        step=lambda o, s, a: step_scaled_ppa(o, s, a), weight="gamma", centre="x",
        slack=_alpha_slack, bound=_measured_bound, blocks=("gamma",),
        default_alpha=_unit_alpha),
    "hb_gs": Method(
        step=lambda o, s, a: step_hb_gs(o, s, a), weight="mu", centre="v",
        slack=_hb_gs_diagnostic, certificate=False, bound=_no_bound, blocks=("v",),
        default_alpha=_unit_alpha, smooth=True),
    "momentum": Method(
        step=lambda o, s, a: step_momentum(o, s, a), weight="mu", centre="v",
        slack=_alpha_slack, bound=_measured_bound, blocks=("v",),
        default_alpha=lambda o, variant: schedules.momentum_alpha(o.mu, o.lip, variant),
        smooth=True),
    "avd_gs": Method(
        step=lambda o, s, a: step_avd(o, s, "gs", a), weight="gamma", centre="v",
        slack=_avd_gs_diagnostic, certificate=False, bound=_no_bound,
        blocks=("v", "gamma"), default_alpha=_unit_alpha, smooth=True),
    "avd_grad": Method(
        step=lambda o, s, a: step_avd(o, s, "grad", a), weight="gamma", centre="v",
        slack=_contraction_slack, bound=_measured_bound, blocks=("v", "gamma"),
        rho=_times_contraction, smooth=True),
    "avd_extrap": Method(
        step=lambda o, s, a: step_avd(o, s, "extrap", a), weight="gamma", centre="v",
        slack=_contraction_slack, bound=_measured_bound, blocks=("v", "gamma"),
        rho=_times_contraction, smooth=True),
    # nag's certificate and rate bound hold for L - |grad f(x)|^2 / (2L)
    "nag": Method(
        step=lambda o, s, a: step_nag(o, s), weight="gamma", centre="v",
        slack=_alpha_slack, bound=_schedule_bound("nag"), blocks=("v", "y", "gamma"),
        bounded=lambda o, l, r_sq: l - r_sq / (2.0 * o.lip), smooth=True),
    "apg": Method(
        step=lambda o, s, a: step_apg(o, s), weight="gamma", centre="v",
        slack=lambda o, old, new, q_old, q_new: (q_old - new.aux["resid_sq"] / (2.0 * o.lip))
        / (1.0 + new.aux["step_alpha"]) - q_new,
        bound=_schedule_bound("b0"), blocks=("v", "y", "gamma", "alpha"),
        rho=lambda rho, new: rho / (1.0 + new.aux["step_alpha"])),
    "apg_fast_grad": Method(
        step=lambda o, s, a: step_apg_fast_grad(o, s), weight="gamma", centre="v",
        slack=lambda o, old, new, q_old, q_new: (q_old - new.aux["d_next_sq"] / (4.0 * o.lip))
        / (1.0 + new.alpha) - q_new,
        bound=_schedule_bound("fast_grad"), blocks=("v", "gamma"),
        residual_sq=lambda o, s: s.aux["d_next_sq"]),
    "new_apg": Method(
        step=lambda o, s, a: step_new_apg(o, s), weight="gamma", centre="v",
        slack=_alpha_slack, bound=_schedule_bound("b_half"), blocks=("v", "gamma"),
        residual_sq=lambda o, s: _sq(s.aux["d_f"])),
}

SOLVER_KINDS = tuple(METHODS)


# ---------------------------------------------------------------------------
# Run loop.
# ---------------------------------------------------------------------------

def _method(kind: str) -> Method:
    method = METHODS.get(kind)
    if method is None:
        raise UnsupportedSolverError(f"unknown solver kind: {kind!r}")
    return method


def _gap(oracle: ProblemOracle, x) -> float:
    return oracle.eval_f(x) - oracle.f_star


def _lyapunov(oracle: ProblemOracle, method: Method, state: SolverState,
              gap: float) -> float:
    """The method's Lyapunov value at state, given gap = f(state.x) - f*."""
    if method.weight is None:
        return gap
    weight = oracle.mu if method.weight == "mu" else state.gamma
    return gap + 0.5 * weight * _sq(getattr(state, method.centre) - oracle.x_star)


def init_state(oracle: ProblemOracle, kind: str, x0, v0=None, gamma0=None) -> SolverState:
    """The start state of kind: x0 and the method's state blocks."""
    blocks = _method(kind).blocks
    state = SolverState(k=0, x=_vec(x0))
    if "v" in blocks:
        state.v = state.x.copy() if v0 is None else _vec(v0)
    if "gamma" in blocks:
        state.gamma = float(oracle.lip) if gamma0 is None else float(gamma0)
    if "y" in blocks:
        state.grad = oracle.grad_h(state.x)
        state.y = state.x - state.grad / oracle.lip
    if "alpha" in blocks:
        state.alpha = math.sqrt(state.gamma / oracle.lip)
    return state


def _finite(gap: float, lyap: float, gnorm: float) -> bool:
    return math.isfinite(gap) and math.isfinite(lyap) and math.isfinite(gnorm)


def run(oracle: ProblemOracle, kind: str, x0, v0=None, gamma0=None,
        iters: int = 100, alpha: Optional[float] = None,
        variant: str = "sqrt", stop_grad_tol: Optional[float] = None) -> RunResult:
    """Run a solver and record the Lyapunov trace with certificate slacks.

    The run stops at the first record whose f_gap, Lyapunov value or grad
    norm is not finite, and reports its k as nonfinite_at_k.
    """
    method = _method(kind)
    if method.smooth and oracle.is_composite:
        raise UnsupportedSolverError(
            f"{kind} handles smooth objectives; use pg, apg, apg_fast_grad or new_apg")
    state = init_state(oracle, kind, x0, v0, gamma0)
    if alpha is None:
        alpha = method.default_alpha(oracle, variant)
    gamma0 = state.gamma
    gap = _gap(oracle, state.x)
    l_cur = _lyapunov(oracle, method, state, gap)
    # no step has made a residual yet: the start's is its gradient
    r_sq = _grad_sq(oracle, state)
    q0 = q_cur = method.bounded(oracle, l_cur, r_sq)
    rho = 1.0
    certified = True
    violations = 0
    gnorm = math.sqrt(r_sq)
    records = [TraceRecord(
        k=0, f_gap=gap, lyapunov=l_cur,
        bound=method.bound(oracle, gamma0, alpha, 0, rho, q0),
        slack=math.nan, grad_norm=gnorm, alpha=math.nan,
        gamma=math.nan if state.gamma is None else state.gamma, bounded=q0)]
    nonfinite_at_k = None if _finite(gap, l_cur, gnorm) else 0
    for _ in range(iters if nonfinite_at_k is None else 0):
        new = method.step(oracle, state, alpha)
        gap = _gap(oracle, new.x)
        l_new = _lyapunov(oracle, method, new, gap)
        r_sq = method.residual_sq(oracle, new)
        q_new = method.bounded(oracle, l_new, r_sq)
        rho = method.rho(rho, new)
        slack = method.slack(oracle, state, new, q_cur, q_new)
        if slack is None:
            certified = False
            slack = math.nan
        elif not method.certificate:
            certified = False
        elif not slack >= -CERT_TOL * (1.0 + abs(l_cur)):
            violations += 1
        gnorm = math.sqrt(r_sq)
        records.append(TraceRecord(
            k=new.k, f_gap=gap, lyapunov=l_new,
            bound=method.bound(oracle, gamma0, alpha, new.k, rho, q0),
            slack=slack, grad_norm=gnorm, alpha=new.alpha,
            gamma=math.nan if new.gamma is None else new.gamma, bounded=q_new))
        if not _finite(gap, l_new, gnorm):
            nonfinite_at_k = new.k
            break
        state, l_cur, q_cur = new, l_new, q_new
        if stop_grad_tol is not None and gnorm < stop_grad_tol:
            break
    return RunResult(kind=kind, records=records, certified=certified,
                     violations=violations, nonfinite_at_k=nonfinite_at_k)
