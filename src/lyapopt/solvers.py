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
from typing import Optional

import numpy as np

from . import schedules
from .problems import ProblemOracle

CERT_TOL = 1e-9

SOLVER_KINDS = ("ppa", "gd", "pg", "scaled_ppa", "hb_gs", "momentum",
                "avd_gs", "avd_grad", "avd_extrap", "nag", "apg",
                "apg_fast_grad", "new_apg")


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
    return SolverState(k=state.k + 1, x=x_new, gamma=gamma_new, alpha=alpha,
                       aux={"t_scaled": t})


def step_momentum(oracle: ProblemOracle, state: SolverState, alpha: float) -> SolverState:
    if oracle.mu <= 0:
        raise UnsupportedSolverError("momentum requires mu > 0")
    x, v = state.x, state.v
    y = (x + alpha * v) / (1.0 + alpha)
    g = oracle.grad_h(y)
    v_new = (v + alpha * y - (alpha / oracle.mu) * g) / (1.0 + alpha)
    x_new = y - g / oracle.lip
    return SolverState(k=state.k + 1, x=x_new, v=v_new, y=y, alpha=alpha,
                       aux={"grad_y_sq": _sq(g)})


def step_hb_gs(oracle: ProblemOracle, state: SolverState, alpha: float) -> SolverState:
    if oracle.mu <= 0:
        raise UnsupportedSolverError("hb_gs requires mu > 0")
    x_new = (state.x + alpha * state.v) / (1.0 + alpha)
    g = oracle.grad_h(x_new)
    v_new = (state.v + alpha * x_new - (alpha / oracle.mu) * g) / (1.0 + alpha)
    return SolverState(k=state.k + 1, x=x_new, v=v_new, alpha=alpha, grad=g,
                       aux={"grad_new_sq": _sq(g)})


def step_avd(oracle: ProblemOracle, state: SolverState, variant: str,
             alpha: Optional[float] = None) -> SolverState:
    """Vanishing-damping discretizations; gs is the plain Gauss-Seidel sweep,
    grad adds the extra gradient descent step, extrap re-solves the x update
    with the fresh v (identical x-iterates to grad under the step rule)."""
    x, v, gamma = state.x, state.v, state.gamma
    sg = math.sqrt(gamma)
    if variant == "gs":
        if alpha is None:
            raise UnsupportedSolverError("avd gs variant needs an explicit alpha")
        a = alpha
        x_new = (x + a * sg * v) / (1.0 + a * sg)
        g = oracle.grad_h(x_new)
        v_new = v - (a / sg) * g
        gamma_new = gamma / (1.0 + a * sg)
        return SolverState(k=state.k + 1, x=x_new, v=v_new, gamma=gamma_new, alpha=a,
                           grad=g, aux={"grad_new_sq": _sq(g)})
    a = schedules.avd_alpha(gamma, oracle.lip) if alpha is None else alpha
    y = (x + a * sg * v) / (1.0 + a * sg)
    g = oracle.grad_h(y)
    v_new = v - (a / sg) * g
    if variant == "grad":
        x_new = y - g / oracle.lip
    elif variant == "extrap":
        x_new = (x + a * sg * v_new) / (1.0 + a * sg)
    else:
        raise UnsupportedSolverError(f"unknown avd variant: {variant!r}")
    gamma_new = gamma / (1.0 + a * sg)
    return SolverState(k=state.k + 1, x=x_new, v=v_new, y=y, gamma=gamma_new, alpha=a,
                       aux={"contraction": 1.0 / (1.0 + a * sg)})


def step_nag(oracle: ProblemOracle, state: SolverState) -> SolverState:
    if oracle.is_composite:
        raise UnsupportedSolverError("nag handles smooth objectives; use apg/new_apg")
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
# Lyapunov pairings and certificates.
# ---------------------------------------------------------------------------

def _gap(oracle: ProblemOracle, x) -> float:
    return oracle.eval_f(x) - oracle.f_star


def lyapunov_value(oracle: ProblemOracle, kind: str, state: SolverState,
                   gap: float) -> float:
    """The method's Lyapunov value at state, given gap = f(state.x) - f*."""
    x = state.x
    if kind in ("ppa", "gd"):
        return gap + 0.5 * oracle.mu * _sq(x - oracle.x_star)
    if kind == "pg":
        return gap
    if kind == "scaled_ppa":
        return gap + 0.5 * state.gamma * _sq(x - oracle.x_star)
    if kind in ("hb_gs", "momentum"):
        return gap + 0.5 * oracle.mu * _sq(state.v - oracle.x_star)
    # avd_*, nag, apg, apg_fast_grad, new_apg
    return gap + 0.5 * state.gamma * _sq(state.v - oracle.x_star)


def _grad_norm(oracle: ProblemOracle, state: SolverState) -> float:
    # math.sqrt(_sq(g)) is what np.linalg.norm computes for a vector
    if "d_next" in state.aux:
        return math.sqrt(_sq(state.aux["d_next"]))
    if "d_next_sq" in state.aux:
        return math.sqrt(state.aux["d_next_sq"])
    if "d_f" in state.aux:
        return math.sqrt(_sq(state.aux["d_f"]))
    return math.sqrt(_sq(_grad(oracle, state)))


def cert_slack(oracle: ProblemOracle, kind: str, old: SolverState,
               new: SolverState, l_old: float, l_new: float) -> Optional[float]:
    """Slack of the method's per-step inequality; None for uncertified kinds
    or parameters outside the certified range."""
    mu, lip = oracle.mu, oracle.lip
    a = new.alpha
    if kind == "ppa":
        return l_old / (1.0 + mu * a) - l_new
    if kind == "gd":
        if a <= 0 or a > 2.0 / (lip + mu) + 1e-15:
            return None
        return (1.0 - mu * a) * l_old - l_new
    if kind == "pg":
        if abs(a - 1.0 / lip) > 1e-15:
            return None
        if mu > 0:
            return l_old / (1.0 + mu / lip) - l_new
        if oracle.radius_r0 is None:
            return None
        c2 = 1.0 / (2.0 * lip * oracle.radius_r0 ** 2)
        return l_old - c2 * l_new * l_new - l_new
    if kind in ("scaled_ppa", "momentum", "new_apg"):
        return l_old / (1.0 + a) - l_new
    if kind in ("avd_grad", "avd_extrap"):
        contraction = new.aux["contraction"]
        return contraction * l_old - l_new
    if kind == "nag":
        gsq_old = _sq(_grad(oracle, old))
        gsq_new = _sq(_grad(oracle, new))
        m_old = l_old - gsq_old / (2.0 * lip)
        m_new = l_new - gsq_new / (2.0 * lip)
        return m_old / (1.0 + a) - m_new
    if kind == "apg":
        step_a = new.aux["step_alpha"]
        return (l_old - new.aux["resid_sq"] / (2.0 * lip)) / (1.0 + step_a) - l_new
    if kind == "apg_fast_grad":
        return (l_old - new.aux["d_next_sq"] / (4.0 * lip)) / (1.0 + a) - l_new
    return None  # hb_gs, avd_gs: no contraction certificate


def info_slack(oracle: ProblemOracle, kind: str, old: SolverState,
               new: SolverState, l_old: float, l_new: float) -> float:
    """One-step inequality slack for the uncertified schemes (diagnostic)."""
    a = new.alpha
    if kind == "hb_gs":
        rhs = l_old - a * l_new + a * a / (2.0 * oracle.mu) * new.aux["grad_new_sq"]
        return rhs - l_new
    if kind == "avd_gs":
        sg = math.sqrt(old.gamma)
        rhs = l_old - a * sg * l_new + a * a / 2.0 * new.aux["grad_new_sq"]
        return rhs - l_new
    raise UnsupportedSolverError(f"no diagnostic inequality for {kind!r}")


# ---------------------------------------------------------------------------
# Run loop.
# ---------------------------------------------------------------------------

def _rate_bound(oracle: ProblemOracle, kind: str, gamma0: float, alpha, k: int,
                rho_measured: float, l0: float) -> float:
    mu, lip = oracle.mu, oracle.lip
    try:
        if kind == "ppa":
            return l0 * (1.0 + mu * alpha) ** (-k)
        if kind == "gd":
            if alpha is None or alpha > 2.0 / (lip + mu) + 1e-15:
                return math.nan
            return l0 * (1.0 - mu * alpha) ** k
        if kind == "pg":
            if mu > 0:
                return l0 * (1.0 + mu / lip) ** (-k)
            if oracle.radius_r0 is None:
                return math.nan
            c2 = 1.0 / (2.0 * lip * oracle.radius_r0 ** 2)
            delta = c2 * l0 / (1.0 + c2 * l0)
            return (1.0 + delta) * l0 / (1.0 + c2 * l0 * k)
        if kind in ("scaled_ppa", "momentum", "avd_grad", "avd_extrap"):
            return l0 * rho_measured
        if kind == "nag":
            return l0 * schedules.rho_bound("nag", gamma0, mu, lip, k)
        if kind == "apg":
            return l0 * schedules.rho_bound("b0", gamma0, mu, lip, k)
        if kind == "apg_fast_grad":
            return l0 * schedules.rho_bound("fast_grad", gamma0, mu, lip, k)
        if kind == "new_apg":
            return l0 * schedules.rho_bound("b_half", gamma0, mu, lip, k)
    except schedules.ScheduleError:
        return math.nan
    return math.nan


def init_state(oracle: ProblemOracle, kind: str, x0, v0=None, gamma0=None) -> SolverState:
    x0 = _vec(x0)
    v0 = x0.copy() if v0 is None else _vec(v0)
    gamma0 = float(oracle.lip) if gamma0 is None else float(gamma0)
    if kind in ("ppa", "gd", "pg"):
        return SolverState(k=0, x=x0)
    if kind == "scaled_ppa":
        return SolverState(k=0, x=x0, gamma=gamma0)
    if kind in ("hb_gs", "momentum"):
        return SolverState(k=0, x=x0, v=v0)
    if kind in ("avd_gs", "avd_grad", "avd_extrap"):
        return SolverState(k=0, x=x0, v=v0, gamma=gamma0)
    if kind in ("nag", "apg"):
        g0 = oracle.grad_h(x0)
        y0 = x0 - g0 / oracle.lip
        a0 = math.sqrt(gamma0 / oracle.lip) if kind == "apg" else None
        return SolverState(k=0, x=x0, v=v0, y=y0, gamma=gamma0, alpha=a0, grad=g0)
    if kind in ("apg_fast_grad", "new_apg"):
        return SolverState(k=0, x=x0, v=v0, gamma=gamma0)
    raise UnsupportedSolverError(f"unknown solver kind: {kind!r}")


def _advance(oracle: ProblemOracle, kind: str, state: SolverState,
             alpha, variant: str) -> SolverState:
    if kind == "ppa":
        return step_ppa(oracle, state, alpha)
    if kind == "gd":
        return step_gd(oracle, state, alpha)
    if kind == "pg":
        return step_pg(oracle, state, alpha)
    if kind == "scaled_ppa":
        return step_scaled_ppa(oracle, state, alpha)
    if kind == "momentum":
        a = schedules.momentum_alpha(oracle.mu, oracle.lip, variant) if alpha is None else alpha
        return step_momentum(oracle, state, a)
    if kind == "hb_gs":
        return step_hb_gs(oracle, state, alpha)
    if kind in ("avd_gs", "avd_grad", "avd_extrap"):
        return step_avd(oracle, state, kind.split("_", 1)[1], alpha)
    if kind == "nag":
        return step_nag(oracle, state)
    if kind == "apg":
        return step_apg(oracle, state)
    if kind == "apg_fast_grad":
        return step_apg_fast_grad(oracle, state)
    if kind == "new_apg":
        return step_new_apg(oracle, state)
    raise UnsupportedSolverError(f"unknown solver kind: {kind!r}")


def _finite(gap: float, lyap: float, gnorm: float) -> bool:
    return math.isfinite(gap) and math.isfinite(lyap) and math.isfinite(gnorm)


def run(oracle: ProblemOracle, kind: str, x0, v0=None, gamma0=None,
        iters: int = 100, alpha: Optional[float] = None,
        variant: str = "sqrt", stop_grad_tol: Optional[float] = None) -> RunResult:
    """Run a solver and record the Lyapunov trace with certificate slacks.

    The run stops at the first record whose f_gap, Lyapunov value or grad
    norm is not finite, and reports its k as nonfinite_at_k.
    """
    if kind not in SOLVER_KINDS:
        raise UnsupportedSolverError(f"unknown solver kind: {kind!r}")
    state = init_state(oracle, kind, x0, v0, gamma0)
    gamma0_val = state.gamma if state.gamma is not None else float(oracle.lip)
    if kind in ("ppa", "gd", "pg", "scaled_ppa", "hb_gs", "avd_gs") and alpha is None:
        if kind == "gd":
            alpha = 2.0 / (oracle.lip + oracle.mu)
        elif kind == "pg":
            alpha = 1.0 / oracle.lip
        else:
            alpha = 1.0
    gap = _gap(oracle, state.x)
    l0 = lyapunov_value(oracle, kind, state, gap)
    # the nag rate bound applies to the gradient-corrected quantity, not plain L
    l0_bound = l0 - _sq(_grad(oracle, state)) / (2.0 * oracle.lip) \
        if kind == "nag" else l0
    rho = 1.0
    certified = True
    violations = 0
    gnorm = _grad_norm(oracle, state)
    records = [TraceRecord(
        k=0, f_gap=gap, lyapunov=l0,
        bound=_rate_bound(oracle, kind, gamma0_val, alpha, 0, 1.0, l0_bound),
        slack=math.nan, grad_norm=gnorm,
        alpha=math.nan, gamma=state.gamma if state.gamma is not None else math.nan)]
    nonfinite_at_k = None if _finite(gap, l0, gnorm) else 0
    l_cur = l0
    for _ in range(iters if nonfinite_at_k is None else 0):
        new = _advance(oracle, kind, state, alpha, variant)
        gap = _gap(oracle, new.x)
        l_new = lyapunov_value(oracle, kind, new, gap)
        if kind in ("avd_grad", "avd_extrap"):
            rho *= new.aux["contraction"]
        elif new.alpha is not None:
            step_a = new.aux.get("step_alpha", new.alpha)
            rho /= (1.0 + step_a)
        slack = cert_slack(oracle, kind, state, new, l_cur, l_new)
        if slack is None:
            certified = False
            if kind in ("hb_gs", "avd_gs"):
                slack = info_slack(oracle, kind, state, new, l_cur, l_new)
            else:
                slack = math.nan
        elif not slack >= -CERT_TOL * (1.0 + abs(l_cur)):
            violations += 1
        gnorm = _grad_norm(oracle, new)
        records.append(TraceRecord(
            k=new.k, f_gap=gap, lyapunov=l_new,
            bound=_rate_bound(oracle, kind, gamma0_val, alpha, new.k, rho, l0_bound),
            slack=slack, grad_norm=gnorm,
            alpha=new.alpha if new.alpha is not None else math.nan,
            gamma=new.gamma if new.gamma is not None else math.nan))
        if not _finite(gap, l_new, gnorm):
            nonfinite_at_k = new.k
            break
        state, l_cur = new, l_new
        if stop_grad_tol is not None and gnorm < stop_grad_tol:
            break
    return RunResult(kind=kind, records=records, certified=certified,
                     violations=violations, nonfinite_at_k=nonfinite_at_k)

