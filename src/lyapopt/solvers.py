"""Discrete optimization methods with per-iteration contraction certificates.

Every solver is a single-step transition on a small state (x, and where
needed v, y, gamma, alpha).  The run loop steps RUN_BLOCK steps at a time;
for each block it evaluates the method's Lyapunov function at every
iterate, checks the proved per-iteration inequality, and compares the
trajectory against the closed-form rate bound, one array expression per
column.  Certificate violations are flagged, never fatal: a violation is
the most useful thing a run can report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import calculus, lyapunov, schedules
from .problems import ProblemOracle, rowdot

# steps per block of the run loop: the steps run one after another, and each
# block's certificate columns are computed at once
RUN_BLOCK = 256

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


class TraceRecord(NamedTuple):
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
    # the trace as columns: a TraceRecord whose fields are arrays over k
    trace: TraceRecord
    certified: bool
    violations: int
    # k of the first record whose f_gap, Lyapunov value or grad norm is not
    # finite; the run stops there and that record is the last
    nonfinite_at_k: Optional[int] = None

    @cached_property
    def records(self) -> list:
        """The trace as one TraceRecord of Python numbers per k."""
        return list(map(TraceRecord._make, zip(*(c.tolist() for c in self.trace))))


def _vec(x) -> np.ndarray:
    return np.asarray(x, dtype=float).copy()


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
    """Forward-backward step; records the gradient-mapping residual d_next,
    a subgradient of f at the new x."""
    y = state.x - alpha * _grad(oracle, state)
    x_new = oracle.prox_g(y, alpha)
    g_new = oracle.grad_h(x_new)
    d_next = g_new + (y - x_new) / alpha
    return SolverState(k=state.k + 1, x=x_new, alpha=alpha, grad=g_new,
                       aux={"d_next": d_next})


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
                       aux={"resid": _grad(oracle, state) + q_next})


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
    return SolverState(k=state.k + 1, x=x_new, v=v_new, gamma=gamma_new, alpha=a,
                       grad=g_new, aux={"d_next": d_next})


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
                       aux={"d_f": d_f})


# ---------------------------------------------------------------------------
# The method table: one record per kind with the parts of the unified
# analysis (step, Lyapunov function, per-step inequality, rate bound).
# Its certificate parts are column functions: they take a Block of stepped
# states and give one value per row.
# ---------------------------------------------------------------------------

class Block:
    """States stepped one after another, read as columns, each built once.
    prev is the state the first of them stepped from (None for the start
    state alone)."""

    def __init__(self, oracle: ProblemOracle, prev: Optional[SolverState], states: list):
        self.oracle, self.prev, self.states = oracle, prev, states
        self._cols = {}

    def _column(self, key, build) -> np.ndarray:
        if key not in self._cols:
            self._cols[key] = build()
        return self._cols[key]

    def col(self, name: str, old: bool = False) -> np.ndarray:
        """The states' field name stacked, None as NaN; with old, the field
        of the state each one stepped from."""
        states = [self.prev] + self.states[:-1] if old else self.states
        return self._column((name, old), lambda: np.array(
            [getattr(s, name) for s in states], dtype=float))

    def aux(self, name: str) -> np.ndarray:
        return self._column(("aux", name), lambda: np.array(
            [s.aux[name] for s in self.states], dtype=float))

    def aux_sq(self, name: str) -> np.ndarray:
        """The squared norm of each state's aux vector name."""
        return self._column(("aux_sq", name), lambda: _rowsq(self.aux(name)))

    # the blocks lyapunov.value reads, so a Block stands in for a batched state
    x = property(lambda self: self.col("x"))
    v = property(lambda self: self.col("v"))
    gamma = property(lambda self: self.col("gamma"))

    @property
    def grad(self) -> np.ndarray:
        """grad_h at each row's x: the gradient its state carries, or one
        batched call for the rows that carry none.  The last state keeps its
        gradient, since the next block steps from it."""
        return self._column("grad", self._grads)

    def _grads(self) -> np.ndarray:
        carried = np.array([s.grad is not None for s in self.states])
        grad = np.empty_like(self.x)
        if carried.any():
            grad[carried] = [s.grad for s in self.states if s.grad is not None]
        if not carried.all():
            grad[~carried] = self.oracle.grad_h(self.x[~carried])
        if self.states[-1].grad is None:
            self.states[-1].grad = grad[-1]
        return grad

    def keep(self, n: int) -> None:
        """Drop every row after the first n."""
        self.states = self.states[:n]
        self._cols = {key: c[:n] for key, c in self._cols.items()}


def _rowsq(d) -> np.ndarray:
    return rowdot(d, d)


def _grad_sq(oracle, block):
    return _rowsq(block.grad)


def _d_next_sq(oracle, block):
    """|d_next|^2 per row: the residual pg and apg_fast_grad record."""
    return block.aux_sq("d_next")


def _divided(rho: float, d) -> np.ndarray:
    """rho divided by each entry of d in turn: the factor after each row."""
    return np.divide.accumulate(np.concatenate(([rho], d)))[1:]


def _nans(ks) -> np.ndarray:
    return np.full(len(ks), math.nan)


def _powers(q0: float, base: float, exponents) -> np.ndarray:
    """q0 * base ** e for each e, in Python floats: numpy's power may round
    the last place differently."""
    return np.array([q0 * base ** e for e in exponents], dtype=float)


class Method(NamedTuple):
    """One solver kind.  (A NamedTuple, not a dataclass: the class is built
    at every import, and a frozen dataclass builds several times slower.)"""
    step: Callable  # (oracle, state, alpha) -> the next state
    form: str  # the Lyapunov value's form: a key of lyapunov.FORMS
    # (oracle, block, q_old, q_new) -> the per-step inequality's slack per row
    slack: Callable
    # (oracle, gamma0, alpha, ks, rho, q0) -> the rate bound at each k of ks
    bound: Callable
    # state blocks init_state sets beside x: "v", "gamma", "alpha" and "y",
    # a gradient step from x0
    blocks: tuple = ()
    certificate: bool = True  # False: slack is a diagnostic, and certifies nothing
    # (oracle, alpha, start state) -> whether the run is inside the premises
    # of slack and bound; a run outside them is uncertified and records no
    # slack and no bound
    in_range: Callable = lambda oracle, alpha, start: True
    default_alpha: Callable = lambda oracle: None
    # False: the step's own rule sets alpha, so a given alpha goes unread
    takes_alpha: bool = True
    # (rho, block) -> the contraction factor after each row, from rho before
    rho: Callable = lambda rho, block: _divided(rho, 1.0 + block.col("alpha"))
    residual_sq: Callable = _grad_sq  # squared grad-norm residual per row
    # (oracle, l, r_sq) -> what slack and bound apply to
    bounded: Callable = lambda oracle, l, r_sq: l
    # True: the step moves on grad_h alone, so run rejects a composite objective
    smooth: bool = False


def _unit_alpha(oracle):
    return 1.0


def _gd_in_range(oracle, alpha, start):
    return alpha <= 2.0 / (oracle.lip + oracle.mu) + 1e-15


def _pg_in_range(oracle, alpha, start):
    # with mu = 0 the rate rests on radius_r0, which bounds |x - x*| only on
    # the sublevel set {f <= f0_level}: the start must lie in it
    return (not abs(alpha - 1.0 / oracle.lip) > 1e-15
            and (oracle.mu > 0 or (oracle.radius_r0 is not None
                                   and oracle.eval_f(start.x) <= oracle.f0_level)))


def _pg_slack(oracle, b, q_old, q_new):
    mu, lip = oracle.mu, oracle.lip
    if mu > 0:
        return q_old / (1.0 + mu / lip) - q_new
    c2 = 1.0 / (2.0 * lip * oracle.radius_r0 ** 2)
    return q_old - c2 * q_new * q_new - q_new


def _pg_bound(oracle, gamma0, alpha, ks, rho, q0):
    mu, lip = oracle.mu, oracle.lip
    if mu > 0:
        return _powers(q0, 1.0 + mu / lip, [-k for k in ks])
    c2 = 1.0 / (2.0 * lip * oracle.radius_r0 ** 2)
    delta = c2 * q0 / (1.0 + c2 * q0)
    return (1.0 + delta) * q0 / (1.0 + c2 * q0 * np.array(ks))


def _alpha_slack(oracle, b, q_old, q_new):
    return q_old / (1.0 + b.col("alpha")) - q_new


def _contraction_slack(oracle, b, q_old, q_new):
    return b.aux("contraction") * q_old - q_new


def _hb_gs_diagnostic(oracle, b, l_old, l_new):
    a = b.col("alpha")
    rhs = l_old - a * l_new + a * a / (2.0 * oracle.mu) * _rowsq(b.grad)
    return rhs - l_new


def _avd_gs_diagnostic(oracle, b, l_old, l_new):
    a, sg = b.col("alpha"), np.sqrt(b.col("gamma", old=True))
    rhs = l_old - a * sg * l_new + a * a / 2.0 * _rowsq(b.grad)
    return rhs - l_new


def _measured_bound(oracle, gamma0, alpha, ks, rho, q0):
    return q0 * rho


def _no_bound(oracle, gamma0, alpha, ks, rho, q0):
    return _nans(ks)


def _schedule_bound(rule: str) -> Callable:
    """q0 times the step rule's closed-form factor bound, one call per k."""
    def bound(oracle, gamma0, alpha, ks, rho, q0):
        try:
            return np.array([q0 * schedules.rho_bound(rule, gamma0, oracle.mu, oracle.lip, k)
                             for k in ks], dtype=float)
        except schedules.ScheduleError:
            return _nans(ks)
    return bound


def _times_contraction(rho, b):
    return np.multiply.accumulate(np.concatenate(([rho], b.aux("contraction"))))[1:]


# A step is called through its module-level name, looked up at call time,
# so a wrapper installed on that name (a tracer, say) sees every step.
METHODS = {
    "ppa": Method(
        step=lambda o, s, a: step_ppa(o, s, a), form="combined_mu",
        slack=lambda o, b, q_old, q_new: q_old / (1.0 + o.mu * b.col("alpha")) - q_new,
        bound=lambda o, g0, a, ks, rho, q0: _powers(q0, 1.0 + o.mu * a, [-k for k in ks]),
        default_alpha=_unit_alpha),
    "gd": Method(
        step=lambda o, s, a: step_gd(o, s, a), form="combined_mu",
        slack=lambda o, b, q_old, q_new: (1.0 - o.mu * b.col("alpha")) * q_old - q_new,
        in_range=_gd_in_range,
        bound=lambda o, g0, a, ks, rho, q0: _powers(q0, 1.0 - o.mu * a, ks),
        default_alpha=lambda o: 2.0 / (o.lip + o.mu), smooth=True),
    "pg": Method(
        step=lambda o, s, a: step_pg(o, s, a), form="opt_gap",
        slack=_pg_slack, in_range=_pg_in_range, bound=_pg_bound,
        default_alpha=lambda o: 1.0 / o.lip, residual_sq=_d_next_sq),
    "scaled_ppa": Method(
        step=lambda o, s, a: step_scaled_ppa(o, s, a), form="scaled",
        slack=_alpha_slack, bound=_measured_bound, blocks=("gamma",),
        default_alpha=_unit_alpha),
    "hb_gs": Method(
        step=lambda o, s, a: step_hb_gs(o, s, a), form="hb",
        slack=_hb_gs_diagnostic, certificate=False, bound=_no_bound, blocks=("v",),
        default_alpha=_unit_alpha, smooth=True),
    "momentum": Method(
        step=lambda o, s, a: step_momentum(o, s, a), form="hb",
        slack=_alpha_slack, bound=_measured_bound, blocks=("v",),
        default_alpha=lambda o: schedules.momentum_alpha(o.mu, o.lip),
        smooth=True),
    "avd_gs": Method(
        step=lambda o, s, a: step_avd(o, s, "gs", a), form="avd_nag",
        slack=_avd_gs_diagnostic, certificate=False, bound=_no_bound,
        blocks=("v", "gamma"), default_alpha=_unit_alpha, smooth=True),
    "avd_grad": Method(
        step=lambda o, s, a: step_avd(o, s, "grad", a), form="avd_nag",
        slack=_contraction_slack, bound=_measured_bound, blocks=("v", "gamma"),
        rho=_times_contraction, smooth=True),
    "avd_extrap": Method(
        step=lambda o, s, a: step_avd(o, s, "extrap", a), form="avd_nag",
        slack=_contraction_slack, bound=_measured_bound, blocks=("v", "gamma"),
        rho=_times_contraction, smooth=True),
    # nag's certificate and rate bound hold for L - |grad f(x)|^2 / (2L)
    "nag": Method(
        step=lambda o, s, a: step_nag(o, s), form="avd_nag",
        slack=_alpha_slack, bound=_schedule_bound("nag"), blocks=("v", "y", "gamma"),
        bounded=lambda o, l, r_sq: l - r_sq / (2.0 * o.lip), smooth=True, takes_alpha=False),
    "apg": Method(
        step=lambda o, s, a: step_apg(o, s), form="avd_nag",
        slack=lambda o, b, q_old, q_new: (q_old - b.aux_sq("resid") / (2.0 * o.lip))
        / (1.0 + b.col("alpha", old=True)) - q_new,
        bound=_schedule_bound("b0"), blocks=("v", "y", "gamma", "alpha"), takes_alpha=False),
    "apg_fast_grad": Method(
        step=lambda o, s, a: step_apg_fast_grad(o, s), form="avd_nag",
        slack=lambda o, b, q_old, q_new: (q_old - _d_next_sq(o, b) / (4.0 * o.lip))
        / (1.0 + b.col("alpha")) - q_new,
        bound=_schedule_bound("fast_grad"), blocks=("v", "gamma"),
        residual_sq=_d_next_sq, takes_alpha=False),
    "new_apg": Method(
        step=lambda o, s, a: step_new_apg(o, s), form="avd_nag",
        slack=_alpha_slack, bound=_schedule_bound("b_half"), blocks=("v", "gamma"),
        residual_sq=lambda o, b: b.aux_sq("d_f"), takes_alpha=False),
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


def init_state(oracle: ProblemOracle, kind: str, x0, v0=None, gamma0=None) -> SolverState:
    """The start state of kind: x0 and the method's state blocks.

    A gamma0 that is not positive, for a kind with a gamma block, raises
    UnsupportedSolverError: every step rule and bound needs gamma > 0.
    """
    blocks = _method(kind).blocks
    state = SolverState(k=0, x=_vec(x0))
    if "v" in blocks:
        state.v = state.x.copy() if v0 is None else _vec(v0)
    if "gamma" in blocks:
        state.gamma = float(oracle.lip) if gamma0 is None else float(gamma0)
        if not state.gamma > 0:
            raise UnsupportedSolverError(f"{kind} needs gamma0 > 0, got {gamma0!r}")
    if "y" in blocks:
        state.grad = oracle.grad_h(state.x)
        state.y = state.x - state.grad / oracle.lip
    if "alpha" in blocks:
        state.alpha = math.sqrt(state.gamma / oracle.lip)
    return state


def _values(oracle: ProblemOracle, method: Method, block: Block, residual_sq: Callable):
    """Each row's f - f*, Lyapunov value and grad norm, with the squared
    residual the norm is taken of."""
    gap = oracle.eval_f(block.x) - oracle.f_star
    lyap = lyapunov.value(method.form, oracle, block, gap)
    r_sq = residual_sq(oracle, block)
    return gap, lyap, np.sqrt(r_sq), r_sq


def _first_stop(gap, lyap, gnorm, stop_grad_tol):
    """(i, nonfinite) for the first row i whose values are not all finite
    (nonfinite True) or whose grad norm is below stop_grad_tol; None if no
    row stops the run."""
    finite = np.isfinite(gap) & np.isfinite(lyap) & np.isfinite(gnorm)
    stop = ~finite if stop_grad_tol is None else ~finite | (gnorm < stop_grad_tol)
    if not stop.any():
        return None
    i = int(stop.argmax())
    return i, not finite[i]


def _steps(oracle: ProblemOracle, method: Method, state: SolverState, alpha, n: int):
    """Up to n steps from state, one after another: the states they make,
    and the exception that cut them short (None if none did)."""
    states = []
    for _ in range(n):
        try:
            state = method.step(oracle, state, alpha)
        # whatever a step raises is held: if a row before it stops the run,
        # the run ends there and never reaches this step; run re-raises it
        # otherwise
        except Exception as exc:
            return states, exc
        states.append(state)
    return states, None


def run(oracle: ProblemOracle, kind: str, x0, v0=None, gamma0=None,
        iters: int = 100, alpha: Optional[float] = None,
        stop_grad_tol: Optional[float] = None) -> RunResult:
    """Run a solver and record the Lyapunov trace with certificate slacks.

    The steps run one after another, RUN_BLOCK at a time, and each block's
    certificate columns are then computed at once.  The run stops at the
    first record whose f_gap, Lyapunov value or grad norm is not finite,
    and reports its k as nonfinite_at_k, or at the first record whose grad
    norm is below stop_grad_tol; later rows of its block are dropped.  A
    step that raises ends the run with its exception unless a row before it
    stops the run.  A run outside its kind's premises (Method.in_range) is
    uncertified and records no slack and no bound.  An alpha that is not
    positive raises UnsupportedSolverError, as does a gamma0 that is not
    positive for a kind with a gamma block.
    """
    method = _method(kind)
    if method.smooth and oracle.is_composite:
        raise UnsupportedSolverError(
            f"{kind} handles smooth objectives; use pg, apg, apg_fast_grad or new_apg")
    state = init_state(oracle, kind, x0, v0, gamma0)
    if alpha is None:
        alpha = method.default_alpha(oracle)
    elif not alpha > 0:
        raise UnsupportedSolverError(f"alpha must be positive, got {alpha!r}")
    in_range = method.in_range(oracle, alpha, state)
    bound = method.bound if in_range else _no_bound
    gamma0 = state.gamma
    start = Block(oracle, None, [state])
    # no step has made a residual yet: the start's is its gradient
    gap, l_cur, gnorm, r_sq = _values(oracle, method, start, _grad_sq)
    q_cur = method.bounded(oracle, l_cur, r_sq)
    q0, rho = float(q_cur[0]), 1.0
    columns = [TraceRecord(
        k=np.zeros(1, dtype=int), f_gap=gap, lyapunov=l_cur,
        bound=bound(oracle, gamma0, alpha, range(1), np.ones(1), q0),
        slack=np.full(1, math.nan), grad_norm=gnorm, alpha=np.full(1, math.nan),
        gamma=start.col("gamma"), bounded=q_cur)]
    certified = True
    violations = 0
    nonfinite_at_k = None if _first_stop(gap, l_cur, gnorm, None) is None else 0
    done = 0 if nonfinite_at_k is None else iters
    while done < iters:
        states, raised = _steps(oracle, method, state, alpha, min(RUN_BLOCK, iters - done))
        stop = None
        if states:
            block = Block(oracle, state, states)
            gap, lyap, gnorm, r_sq = _values(oracle, method, block, method.residual_sq)
            stop = _first_stop(gap, lyap, gnorm, stop_grad_tol)
            if stop is not None:
                end, nonfinite = stop[0] + 1, stop[1]
                block.keep(end)
                gap, lyap, gnorm, r_sq = gap[:end], lyap[:end], gnorm[:end], r_sq[:end]
                if nonfinite:
                    nonfinite_at_k = done + end
            n = len(block.states)
            q = method.bounded(oracle, lyap, r_sq)
            if not in_range:
                certified = False
                slack = np.full(n, math.nan)
            else:
                slack = method.slack(oracle, block, np.concatenate((q_cur[-1:], q[:-1])), q)
                if not method.certificate:
                    certified = False
                else:
                    l_old = np.concatenate((l_cur[-1:], lyap[:-1]))
                    violations += int(np.count_nonzero(
                        ~(slack >= -calculus.SLACK_TOL * (1.0 + np.abs(l_old)))))
            rhos = method.rho(rho, block)
            ks = range(done + 1, done + n + 1)
            columns.append(TraceRecord(
                k=np.arange(ks.start, ks.stop), f_gap=gap, lyapunov=lyap,
                bound=bound(oracle, gamma0, alpha, ks, rhos, q0),
                slack=slack, grad_norm=gnorm, alpha=block.col("alpha"),
                gamma=block.col("gamma"), bounded=q))
            state, l_cur, q_cur, rho = block.states[-1], lyap, q, float(rhos[-1])
            done += n
        if stop is not None:
            break
        if raised is not None:
            raise raised
    trace = TraceRecord(*(np.concatenate(c) for c in zip(*columns)))
    return RunResult(kind=kind, trace=trace, certified=certified,
                     violations=violations, nonfinite_at_k=nonfinite_at_k)
