"""Continuous-time dynamical systems behind the discrete methods.

Each model is a first-order vector field in the blocks (x, v, gamma):
plain gradient flow, gradient flow rescaled by a time-scaling factor
obeying gamma' = mu - gamma, the heavy-ball system, the vanishing-damping
second-order system in its first-order form, and the gradient-corrected
accelerated flow with an extra -beta grad f damping term.  A fixed-step
RK4 integrator produces reference trajectories, and a decay checker
confirms the Lyapunov bounds along them.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .problems import ProblemOracle, rowdot, unbox

FLOW_KINDS = ("gradient", "scaled_gradient", "heavy_ball", "avd_r3", "hnag")

# Block layout per kind: which of (v, gamma) the state carries.
_HAS_V = {"gradient": False, "scaled_gradient": False, "heavy_ball": True,
          "avd_r3": True, "hnag": True}
_HAS_GAMMA = {"gradient": False, "scaled_gradient": True, "heavy_ball": False,
              "avd_r3": True, "hnag": True}


class FlowError(ValueError):
    """Invalid flow model or state."""


class DivergenceError(RuntimeError):
    """Integration produced NaN/Inf; carries the last valid state."""

    def __init__(self, message: str, last_state: "FlowState"):
        super().__init__(message)
        self.last_state = last_state


@dataclass
class FlowState:
    """One state of a flow, or a batch of states along a leading axis.

    A single state has a float ``t``, vectors ``x`` (and ``v``) of length
    dim and a float ``gamma``.  A batch of k states has ``t`` and ``gamma``
    of shape (k,) and ``x`` and ``v`` of shape (k, dim); ``integrate``
    returns a whole trajectory in this form.
    """

    t: float
    x: np.ndarray
    v: Optional[np.ndarray] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.v is not None:
            self.v = np.asarray(self.v, dtype=float)
        if self.gamma is not None and np.any(np.asarray(self.gamma) <= 0):
            raise FlowError("gamma must be positive when present")


@dataclass(frozen=True)
class FlowModel:
    kind: str
    oracle: ProblemOracle
    beta_fn: Callable[[float], float] = dc_field(default=None)  # type: ignore

    def __post_init__(self):
        if self.kind not in FLOW_KINDS:
            raise FlowError(f"unknown flow kind: {self.kind!r}")
        if self.kind == "heavy_ball" and self.oracle.mu <= 0:
            raise FlowError("heavy_ball flow requires mu > 0")
        if self.beta_fn is None:
            lip = self.oracle.lip
            object.__setattr__(self, "beta_fn", lambda t: 1.0 / lip)

    @property
    def has_v(self) -> bool:
        return _HAS_V[self.kind]

    @property
    def has_gamma(self) -> bool:
        return _HAS_GAMMA[self.kind]


def _velocity(model: FlowModel, t, x, v, gamma):
    """The vector field block by block: (x', v', gamma'), None for an
    absent block.  t and gamma are floats, or columns of shape (..., 1)
    that scale the rows of x."""
    oracle = model.oracle
    g = oracle.grad_h(x)
    kind = model.kind
    if kind == "gradient":
        return -g, None, None
    if kind == "scaled_gradient":
        return -g / gamma, None, oracle.mu - gamma
    if kind == "heavy_ball":
        return v - x, x - v - g / oracle.mu, None
    if kind == "avd_r3":
        sg = np.sqrt(gamma)
        return sg * (v - x), -g / sg, -gamma * sg
    beta = model.beta_fn(t)
    return (v - x - beta * g,
            (oracle.mu / gamma) * (x - v) - g / gamma,
            oracle.mu - gamma)


def _raw_state(t, x, v=None, gamma=None) -> FlowState:
    # Skips __post_init__: a derivative's gamma slot may be negative, and a
    # trajectory is stored as it was integrated.
    st = FlowState.__new__(FlowState)
    st.t, st.x, st.v, st.gamma = t, x, v, gamma
    return st


def _check_blocks(model: FlowModel, state: FlowState):
    if model.has_v and state.v is None:
        raise FlowError(f"{model.kind} flow needs a v block")
    if model.has_gamma and state.gamma is None:
        raise FlowError(f"{model.kind} flow needs a gamma block")


def field(model: FlowModel, state: FlowState) -> FlowState:
    """Time derivative of the state (or of each state of a batch); the t
    slot of the result is dt/dt = 1."""
    _check_blocks(model, state)
    x = np.asarray(state.x, dtype=float)
    dx, dv, dgamma = _velocity(model, _column(state.t), x, state.v, _column(state.gamma))
    return _raw_state(1.0, dx, dv, None if dgamma is None else unbox(dgamma[..., 0]))


def _column(a):
    return None if a is None else np.asarray(a, dtype=float)[..., None]


def _pack(model: FlowModel, state: FlowState) -> np.ndarray:
    """A single state as one vector laid out [x | v | gamma]."""
    parts = [state.x]
    if model.has_v:
        parts.append(state.v)
    if model.has_gamma:
        parts.append(np.array([state.gamma]))
    return np.concatenate(parts)


def _unpack(model: FlowModel, t, y: np.ndarray) -> FlowState:
    """Inverse of _pack over the last axis: a vector gives a single state,
    a (k, m) array a batch."""
    n = model.oracle.dim
    v = y[..., n:2 * n] if model.has_v else None
    gamma = y[..., -1] if model.has_gamma else None
    if y.ndim == 1 and gamma is not None:
        gamma = float(gamma)
    return _raw_state(t, y[..., :n], v, gamma)


def _packed_field(model: FlowModel):
    """rhs(t, y, out): the field at the packed state y, written into out.

    x and v are views of y, and gamma is read as a float, as a single
    state holds it."""
    n = model.oracle.dim
    has_v, has_gamma = model.has_v, model.has_gamma

    def rhs(t, y, out):
        dx, dv, dgamma = _velocity(model, t, y[:n], y[n:2 * n] if has_v else None,
                                   float(y[-1]) if has_gamma else None)
        out[:n] = dx
        if has_v:
            out[n:2 * n] = dv
        if has_gamma:
            out[-1] = dgamma

    return rhs


def integrate(model: FlowModel, state0: FlowState, t_end: float, dt: float) -> FlowState:
    """Classical RK4 with a fixed step, sampled every step.

    Returns the trajectory, state0 included, as one batched FlowState with
    a leading axis of steps + 1.  Raises DivergenceError carrying the last
    finite state if the trajectory blows up.
    """
    if dt <= 0 or t_end <= state0.t:
        raise FlowError("need dt > 0 and t_end > t0")
    _check_blocks(model, state0)
    n_steps = max(1, int(round((t_end - state0.t) / dt)))
    h = (t_end - state0.t) / n_steps
    half, sixth = 0.5 * h, h / 6.0
    rhs = _packed_field(model)
    y0 = _pack(model, state0)
    traj = np.empty((n_steps + 1, y0.size))
    traj[0] = y0
    times = np.empty(n_steps + 1)
    t = times[0] = state0.t
    k = np.empty((4, y0.size))
    k1, k2, k3, k4 = k
    for i in range(n_steps):
        y = traj[i]
        rhs(t, y, k1)
        rhs(t + half, y + half * k1, k2)
        rhs(t + half, y + half * k2, k3)
        rhs(t + h, y + h * k3, k4)
        # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right as written
        k[1:3] *= 2.0
        y_next = traj[i + 1]
        np.add(y, sixth * np.add.reduce(k, axis=0), out=y_next)
        t += h
        times[i + 1] = t
        if not np.isfinite(y_next).all():
            raise DivergenceError(f"integration diverged at t={t:.6g}",
                                  _unpack(model, float(times[i]), y.copy()))
    return _unpack(model, times, traj)


def continuous_decay_check(model: FlowModel, lyapunov, state0: FlowState,
                           t_end: float, dt: float, rel_tol: float = 1e-3) -> dict:
    """Integrate and compare the Lyapunov value against its decay bound.

    The bound accumulates the decay-rate integral along the trajectory by
    the trapezoid rule: exponential decay exp(-int c) for exponent q = 1,
    the algebraic closure ((q-1) int c + L0^(1-q))^(1/(1-q)) for q > 1.
    A step whose relative excess is not <= rel_tol (NaN included) fails.
    """
    from . import lyapunov as lyap_mod

    params = lyapunov.strong_params
    if params is None:
        raise FlowError("Lyapunov spec has no decay parameters attached")
    traj = integrate(model, state0, t_end, dt)
    oracle = model.oracle
    t = traj.t
    values = lyap_mod.evaluate(lyapunov, oracle, traj)
    rate = np.broadcast_to(params.c(traj), t.shape)
    # np.cumsum adds in sequence, as a running sum over the steps would
    integral = np.cumsum(0.5 * (rate[:-1] + rate[1:]) * np.diff(t))
    l0, q = float(values[0]), params.q
    if q == 1.0:
        bound = l0 * np.exp(-integral)
    else:
        bound = ((q - 1.0) * integral + l0 ** (1.0 - q)) ** (1.0 / (1.0 - q))
    val = values[1:]
    excess = (val - bound) / (np.abs(bound) + 1e-300)
    bad = np.flatnonzero(~(excess <= rel_tol))
    d = traj.x[1:] - oracle.x_star
    err = np.sqrt(rowdot(d, d))
    gamma = [""] * bound.size if traj.gamma is None else traj.gamma[1:].tolist()
    rows = list(zip(t[1:].tolist(), val.tolist(), bound.tolist(), err.tolist(), gamma))
    return {
        "pass": bad.size == 0,
        "rel_tol": rel_tol,
        "first_violation_t": float(t[1 + bad[0]]) if bad.size else None,
        "max_rel_excess": float(np.max(excess, initial=0.0, where=~np.isnan(excess))),
        "rows": rows,
    }
