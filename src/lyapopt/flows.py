"""Continuous-time dynamical systems behind the discrete methods.

Each model is a first-order vector field in the blocks (x, v, gamma):
plain gradient flow, gradient flow rescaled by a time-scaling factor
obeying gamma' = mu - gamma, the heavy-ball system, the vanishing-damping
second-order system in its first-order form, and the gradient-corrected
accelerated flow with an extra -(1/L) grad f damping term; each kind is
one entry of FLOWS.  An RK4 integrator produces reference trajectories from
start_state on each kind's time grid, and a decay checker confirms the
Lyapunov bounds along them within a bound on the integration's error,
from the defect of the computed path's cubic Hermite interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .problems import ProblemOracle, rowdot, unbox

# integrate checks its trajectory for NaN/Inf once per this many steps
FINITE_CHECK_STEPS = 256
# integrate refuses a trajectory of more float64 values than this (512 MiB)
MAX_TRAJECTORY_VALUES = 1 << 26
# continuous_decay_check fails a step whose relative excess over the bound,
# its error bound included, is above this
DECAY_REL_TOL = 1e-3


class FlowError(ValueError):
    """Invalid flow model or state."""


class Flow(NamedTuple):
    """One flow kind: the blocks its state carries beside x, its start, and
    its time scale."""
    has_v: bool
    has_gamma: bool
    t0: float = 0.0
    gamma0: Optional[Callable] = None  # oracle -> gamma at t0, for a kind with gamma
    needs_mu: bool = False  # True: the flow needs mu > 0
    # True: the grid is uniform in s = ln t, so the step grows like t and dt
    # is the step at t0 (which must be > 0); False: uniform in t
    log_time: bool = False
    # the degrees in gamma of x' and v': each block of the field is
    # homogeneous in gamma, so its gamma-derivative is degree * block / gamma
    gamma_powers: tuple = (0.0, 0.0)


FLOWS = {
    "gradient": Flow(has_v=False, has_gamma=False),
    "scaled_gradient": Flow(has_v=False, has_gamma=True, gamma0=lambda o: o.lip,
                            gamma_powers=(-1.0, 0.0)),
    "heavy_ball": Flow(has_v=True, has_gamma=False, needs_mu=True),
    # gamma = 4/t^2 from t = 1: the rate sqrt(gamma) = 2/t sets a time scale ~ t
    "avd_r3": Flow(has_v=True, has_gamma=True, t0=1.0, gamma0=lambda o: 4.0,
                   log_time=True, gamma_powers=(0.5, -0.5)),
    "hnag": Flow(has_v=True, has_gamma=True, gamma0=lambda o: o.lip,
                 gamma_powers=(0.0, -1.0)),
}
FLOW_KINDS = tuple(FLOWS)


class DivergenceError(RuntimeError):
    """Integration produced NaN/Inf; carries the finite part of the
    trajectory (state0 included), whose last row is the last finite state."""

    def __init__(self, message: str, trajectory: "FlowState"):
        super().__init__(message)
        self.trajectory = trajectory


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
    # a (sub)gradient of f at x, where the state carries one (see state_grad)
    grad: Optional[np.ndarray] = None

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
    # the field, built once per model by _field_fn
    rhs: Callable = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in FLOWS:
            raise FlowError(f"unknown flow kind: {self.kind!r}")
        if FLOWS[self.kind].needs_mu and self.oracle.mu <= 0:
            raise FlowError(f"{self.kind} flow requires mu > 0")
        object.__setattr__(self, "rhs", _field_fn(self))

    @property
    def has_v(self) -> bool:
        return FLOWS[self.kind].has_v

    @property
    def has_gamma(self) -> bool:
        return FLOWS[self.kind].has_gamma


def start_state(model: FlowModel, x0, v0=None) -> FlowState:
    """The model's start state at x0: its kind's t0 and gamma0, and v0 (x0
    when none is given) for a kind with v.  x and v are copies."""
    flow = FLOWS[model.kind]
    v = np.array(x0 if v0 is None else v0, dtype=float) if flow.has_v else None
    gamma = flow.gamma0(model.oracle) if flow.has_gamma else None
    return FlowState(flow.t0, np.array(x0, dtype=float), v, gamma)


def _sqrt(a):
    """np.sqrt, without numpy's per-call cost on a float: NaN for a negative
    or NaN float, as np.sqrt gives (math.sqrt raises on a negative)."""
    if isinstance(a, float):
        return math.sqrt(a) if a >= 0.0 else math.nan
    return np.sqrt(a)


def _field_fn(model: FlowModel):
    """The field of model's kind as rhs(x, v, gamma, g, dx, dv) -> gamma'.

    rhs moves on g, the (sub)gradient of f at x, writes x' into dx and v'
    into dv (None for a kind without v) and returns gamma', 0.0 for a kind
    without gamma.  gamma is a float, or a column of shape (..., 1).  No
    kind's field depends on t: hnag's gradient correction has the constant
    weight beta = 1/L.

    A quotient -g / s is taken as g / -s, which saves negating the array:
    IEEE division is symmetric in sign, so the two agree bit for bit on
    every value but the sign of a NaN.
    """
    mu, beta = model.oracle.mu, 1.0 / model.oracle.lip
    kind = model.kind

    if kind == "gradient":
        def rhs(x, v, gamma, g, dx, dv):
            np.negative(g, out=dx)
            return 0.0
    elif kind == "scaled_gradient":
        def rhs(x, v, gamma, g, dx, dv):
            np.divide(g, -gamma, out=dx)
            return mu - gamma
    elif kind == "heavy_ball":
        def rhs(x, v, gamma, g, dx, dv):
            np.subtract(v, x, out=dx)
            np.subtract(x, v, out=dv)
            dv -= g / mu
            return 0.0
    elif kind == "avd_r3":
        def rhs(x, v, gamma, g, dx, dv):
            sg = _sqrt(gamma)
            np.subtract(v, x, out=dx)
            dx *= sg
            np.divide(g, -sg, out=dv)
            return -gamma * sg
    else:
        def rhs(x, v, gamma, g, dx, dv):
            np.subtract(v, x, out=dx)
            dx -= beta * g
            np.subtract(x, v, out=dv)
            dv *= mu / gamma
            dv -= g / gamma
            return mu - gamma
    return rhs


def _raw_state(t, x, v=None, gamma=None) -> FlowState:
    # Skips __post_init__: a derivative's gamma slot may be negative, and a
    # trajectory is stored as it was integrated.
    st = FlowState.__new__(FlowState)
    st.t, st.x, st.v, st.gamma, st.grad = t, x, v, gamma, None
    return st


def _check_blocks(model: FlowModel, state: FlowState):
    if model.has_v and state.v is None:
        raise FlowError(f"{model.kind} flow needs a v block")
    if model.has_gamma and state.gamma is None:
        raise FlowError(f"{model.kind} flow needs a gamma block")


def state_grad(oracle: ProblemOracle, state: FlowState):
    """The (sub)gradient the state carries, else grad h(x).  A composite f
    refuses a state without one: grad h would drop g's subgradient."""
    if state.grad is not None:
        return state.grad
    if oracle.is_composite:
        raise FlowError("a composite objective needs a state that carries its subgradient")
    return oracle.grad_h(np.asarray(state.x, dtype=float))


def field(model: FlowModel, state: FlowState) -> FlowState:
    """Time derivative of the state (or of each state of a batch); the t
    slot of the result is dt/dt = 1."""
    _check_blocks(model, state)
    x = np.asarray(state.x, dtype=float)
    dx = np.empty_like(x)
    dv = np.empty_like(x) if model.has_v else None
    dgamma = model.rhs(x, state.v, _column(state.gamma), state_grad(model.oracle, state),
                       dx, dv)
    return _raw_state(1.0, dx, dv, unbox(dgamma[..., 0]) if model.has_gamma else None)


def _column(a):
    return None if a is None else np.asarray(a, dtype=float)[..., None]


def _unpack(model: FlowModel, t, y: np.ndarray) -> FlowState:
    """A batched state from the (k, m) rows laid out [x | v | gamma] (the
    gamma column is there for every kind)."""
    n = model.oracle.dim
    v = y[:, n:2 * n] if model.has_v else None
    gamma = y[:, -1] if model.has_gamma else None
    return _raw_state(t, y[:, :n], v, gamma)


def _grid(model: FlowModel, state0: FlowState, t_end: float, dt: float):
    """The times of a run of model from state0 to t_end with step dt, and
    the steps between them; raises FlowError on a run integrate refuses.

    The grid is uniform in t, with steps of about dt, or for a log_time
    kind uniform in s = ln t: t_i = t0 (t_end / t0)^(i / N) with
    N = round(ln(t_end / t0) / ln(1 + dt)), whose step is about dt at t0 and
    grows like t.  A trajectory of more than MAX_TRAJECTORY_VALUES values
    is refused before anything is allocated.
    """
    if model.oracle.is_composite:
        raise FlowError(f"{model.kind} flow moves on grad h alone: smooth objectives only")
    # written so that a NaN fails it: every comparison with NaN is False
    if not (0 < dt < math.inf and state0.t < t_end < math.inf):
        raise FlowError("need a finite dt > 0 and a finite t_end > t0")
    _check_blocks(model, state0)
    log_time = FLOWS[model.kind].log_time
    t0 = state0.t
    if log_time and not t0 > 0:
        raise FlowError(f"{model.kind} flow steps in ln t: need t0 > 0")
    n = model.oracle.dim
    m = 2 * n if model.has_v else n
    # the span in steps overflows to inf for a t_end near the largest float
    span = math.log(t_end / t0) / math.log1p(dt) if log_time else (t_end - t0) / dt
    n_steps = max(1, round(span)) if math.isfinite(span) else math.inf
    if (n_steps + 1) * (m + 1) > MAX_TRAJECTORY_VALUES:
        raise FlowError(f"the grid has {span:.6g} steps: the trajectory would "
                        f"hold more than {MAX_TRAJECTORY_VALUES} values")
    if log_time:
        times = t0 * (t_end / t0) ** (np.arange(n_steps + 1) / n_steps)
        steps = np.diff(times)
    else:
        steps = np.full(n_steps, (t_end - t0) / n_steps)
        # np.cumsum adds in sequence: t_i = t_(i-1) + h, as a running sum
        times = np.cumsum(np.concatenate([[t0], steps]))
    return times, steps


def integrate(model: FlowModel, state0: FlowState, t_end: float, dt: float) -> FlowState:
    """Classical RK4 on the kind's time grid (see _grid), sampled every step.

    Returns the trajectory, state0 included, as one batched FlowState with
    a leading axis of steps + 1.  Raises DivergenceError carrying the finite
    part of the trajectory if it blows up.

    The stages are written into preallocated rows, and gamma, which no
    other block feeds, is carried as a float.  Finiteness is checked once
    per FINITE_CHECK_STEPS steps, over every row of the block, so the
    error names the first non-finite row, as a per-step check would; the
    rest of its block is computed and dropped.
    """
    times, steps = _grid(model, state0, t_end, dt)
    n_steps = steps.size
    n = model.oracle.dim
    m = 2 * n if model.has_v else n
    # 0-d arrays for the array products, set at each step: numpy converts a
    # float operand on every call
    h_, half_, sixth_ = np.empty(()), np.empty(()), np.empty(())
    rhs, grad_h = model.rhs, model.oracle.grad_h
    gamma = float(state0.gamma) if model.has_gamma else 0.0
    # y is the current row [x | v | gamma], stage a stage's [x | v], and
    # k the four stage derivatives of [x | v]
    y = np.concatenate([state0.x] + ([state0.v] if model.has_v else []) + [[gamma]])
    traj = np.empty((n_steps + 1, m + 1))
    traj[0] = y
    stage = np.empty(m)
    k = np.empty((4, m))
    k_sum = np.empty(m)
    k_mid, y_xv = k[1:3], y[:m]

    def blocks(row):
        return row[:n], row[n:m] if model.has_v else None

    (yx, yv), (sx, sv) = blocks(y), blocks(stage)
    (k1, k1x, k1v), (k2, k2x, k2v), (k3, k3x, k3v), (k4, k4x, k4v) = \
        [(row, *blocks(row)) for row in k]
    for start in range(0, n_steps, FINITE_CHECK_STEPS):
        stop = min(start + FINITE_CHECK_STEPS, n_steps)
        for i, h in zip(range(start + 1, stop + 1), steps[start:stop].tolist()):
            half, sixth = 0.5 * h, h / 6.0
            h_[()], half_[()], sixth_[()] = h, half, sixth
            g1 = rhs(yx, yv, gamma, grad_h(yx), k1x, k1v)
            np.multiply(k1, half_, out=stage)
            stage += y_xv
            g2 = rhs(sx, sv, gamma + half * g1, grad_h(sx), k2x, k2v)
            np.multiply(k2, half_, out=stage)
            stage += y_xv
            g3 = rhs(sx, sv, gamma + half * g2, grad_h(sx), k3x, k3v)
            np.multiply(k3, h_, out=stage)
            stage += y_xv
            g4 = rhs(sx, sv, gamma + h * g3, grad_h(sx), k4x, k4v)
            # y + h/6 (k1 + 2 k2 + 2 k3 + k4), summed left to right as written
            k_mid *= 2.0
            np.add.reduce(k, axis=0, out=k_sum)
            k_sum *= sixth_
            y_xv += k_sum
            gamma += sixth * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
            y[m] = gamma
            traj[i] = y
        block = traj[start + 1:stop + 1]
        if not np.isfinite(block).all():
            row = start + 1 + int(np.flatnonzero(~np.isfinite(block).all(axis=1))[0])
            raise DivergenceError(f"integration diverged at t={times[row]:.6g}",
                                  _unpack(model, times[:row], traj[:row]))
    return _unpack(model, times, traj)


# the error bound's pass takes blocks of steps of about this many values
_DEFECT_BLOCK_VALUES = 1 << 13


def _rows(model: FlowModel, state: FlowState, r=slice(None)) -> np.ndarray:
    """Rows r of a batched state laid out [x | v | gamma], as _unpack reads."""
    gamma = state.gamma[r] if model.has_gamma else np.zeros(len(state.x[r]))
    return np.column_stack([state.x[r]] + ([state.v[r]] if model.has_v else []) + [gamma])


def _log_norm(model: FlowModel, gamma):
    """The top Euclidean logarithmic norm of the field's Jacobian in [x | v]
    over Hessians with spectrum in [mu, L], at each gamma of a column.  On
    an eigenvector of the Hessian with eigenvalue lam the Jacobian is a
    2 x 2 block, read off the field at unit x and v, and affine in lam, so
    lam = mu or L gives the largest top eigenvalue of its symmetric part."""
    x, v = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    top = -math.inf
    for lam in (model.oracle.mu, model.oracle.lip):
        jac = np.zeros((2, gamma.shape[0], 2))
        model.rhs(x, v, gamma, lam * x, jac[0], jac[1] if model.has_v else None)
        (a, b), (c, d) = jac.transpose(0, 2, 1)
        top = np.maximum(top, 0.5 * (a + d) + np.hypot(0.5 * (a - d), 0.5 * (b + c)))
    return top


def _error_bound(model: FlowModel, lyap, traj: FlowState, values, rate) -> np.ndarray:
    """A bound on |L(u) - L(z)| at each row, u the computed trajectory and
    z the exact one (README, "Decay check and error bound").  The defect
    u' - F(u) of the nodes' cubic Hermite interpolant (a cubic vanishing at
    the step ends for an affine field) has a mean norm over each step of at
    most (|c1| + |c2|)/4, c1 and c2 its interior Bernstein coefficients.
    s = |u - z| obeys s' <= -kappa s + |defect| + |dF/dgamma| e_gamma: in
    W, the pairing's form, kappa = c/2; in the Euclidean norm, -_log_norm."""
    from .lyapunov import FORMS

    oracle, (weight, centre) = model.oracle, FORMS[lyap.kind]
    n, m = oracle.dim, oracle.dim * (2 if model.has_v else 1)
    cols = slice(n, m) if centre == "v" else slice(0, n)
    metric = (oracle.kind == "quadratic" and lyap.strong_params.q == 1.0
              and (not model.has_v or (weight is not None and centre == "v")))
    hess = oracle.grad_h(np.eye(n)) - oracle.grad_h(np.zeros(n)) if metric else None
    powers = np.repeat(FLOWS[model.kind].gamma_powers, n)[:m]
    steps, err = np.diff(traj.t), np.zeros(traj.t.size)
    s, s_gamma = 0.0, np.zeros(1)
    block = max(1, _DEFECT_BLOCK_VALUES // (m + 1))
    for i0 in range(0, steps.size, block):
        r = slice(i0 + 1, min(i0 + block, steps.size) + 1)
        y, h = _rows(model, traj, slice(i0, r.stop)), steps[i0:r.stop - 1, None]
        w = np.broadcast_to({None: 0.0, "mu": oracle.mu, "gamma": y[:, m]}[weight], h.size + 1)
        w_step = np.maximum(w[:-1], w[1:])

        def norm(e):
            if not metric:
                return np.sqrt(rowdot(e, e))
            ex, ec = e[..., :n], e[..., cols]
            return np.sqrt(rowdot(ex @ hess, ex) + w_step * rowdot(ec, ec))

        def slopes(rows):
            return _rows(model, field(model, _unpack(model, None, rows)))

        f = slopes(y)
        y0, y1, f0, f1 = y[:-1], y[1:], f[:-1], f[1:]
        ya = (20.0 * y0 + 7.0 * y1 + h * (4.0 * f0 - 2.0 * f1)) / 27.0
        yb = (7.0 * y0 + 20.0 * y1 + h * (2.0 * f0 - 4.0 * f1)) / 27.0
        fa, fb, chord = slopes(ya), slopes(yb), (4.0 / 3.0) * (y1 - y0) / h
        da, db = chord - f1 / 3.0 - fa, chord - f0 / 3.0 - fb
        c1, c2 = 3.0 * da - 1.5 * db, 3.0 * db - 1.5 * da
        source = 0.25 * (norm(c1[:, :m]) + norm(c2[:, :m]))
        if model.has_gamma:
            s_gamma = s_gamma[-1] + np.cumsum(0.25 * h[:, 0] * (abs(c1[:, m]) + abs(c2[:, m])))
            at, slope = np.stack([y0, y1, ya, yb]), np.stack([f0, f1, fa, fb])
            source += s_gamma * norm(slope[..., :m] * powers / at[..., m:]).max(axis=0)
        c = rate[i0:r.stop] if metric else -2.0 * _log_norm(model, y[:, m:])
        decay = np.exp(-0.5 * np.minimum(c[:-1], c[1:]) * h[:, 0])
        for i, a, b in zip(range(r.start, r.stop), decay.tolist(),
                           (h[:, 0] * np.maximum(decay, 1.0) * source).tolist()):
            s = err[i] = a * s + b
        e, d, w = err[r].copy(), y[1:, cols] - oracle.x_star, w[1:]
        dn = np.sqrt(rowdot(d, d))
        if metric:
            err[r] = e * np.sqrt(2.0 * np.maximum(values[r], 0.0)) + 0.5 * e * e
        else:
            grad = oracle.grad_h(y[1:, :n])
            err[r] = (np.sqrt(rowdot(grad, grad)) + w * dn) * e + 0.5 * (oracle.lip + w) * e * e
        if weight == "gamma":
            err[r] += 0.5 * s_gamma * (dn + (e / np.sqrt(w) if metric else e)) ** 2
    err[np.isnan(err)] = math.inf
    return err


def continuous_decay_check(model: FlowModel, lyapunov, state0: FlowState,
                           t_end: float, dt: float) -> dict:
    """Integrate and compare the Lyapunov value against its decay bound,
    within a bound on the integration's error.

    The bound accumulates the decay-rate integral along the trajectory by
    the trapezoid rule in the grid's variable s (the integrand c dt/ds: c
    itself on a uniform grid, c t in s = ln t on a log_time one): exponential
    decay exp(-int c) for exponent q = 1, the algebraic closure
    ((q-1) int c + L0^(1-q))^(1/(1-q)) for q > 1.

    err at each row bounds |L(u) - L(z)|, u the computed state and z the
    exact one (_error_bound).  A step fails unless
    (L + err - bound) <= DECAY_REL_TOL |bound|, so a NaN anywhere fails.
    """
    from . import lyapunov as lyap_mod

    params = lyapunov.strong_params
    if params is None:
        raise FlowError("Lyapunov spec has no decay parameters attached")
    oracle = model.oracle
    traj = integrate(model, state0, t_end, dt)
    t = traj.t
    values = lyap_mod.evaluate(lyapunov, oracle, traj)
    rate = np.broadcast_to(params.c(traj), t.shape)
    s, w = (np.log(t), rate * t) if FLOWS[model.kind].log_time else (t, rate)
    # np.cumsum adds in sequence, as a running sum over the steps would
    integral = np.cumsum(0.5 * (w[:-1] + w[1:]) * np.diff(s))
    l0, q = float(values[0]), params.q
    if q == 1.0:
        bound = l0 * np.exp(-integral)
    else:
        bound = ((q - 1.0) * integral + l0 ** (1.0 - q)) ** (1.0 / (1.0 - q))
    val = values[1:]
    scale = np.abs(bound) + 1e-300
    excess = (val - bound) / scale
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        err = _error_bound(model, lyapunov, traj, values, rate)[1:]
        bad = np.flatnonzero(~((val + err - bound) / scale <= DECAY_REL_TOL))
        max_rel_error = float(np.max(err / scale))
    d = traj.x[1:] - oracle.x_star
    x_err = np.sqrt(rowdot(d, d))
    gamma = [""] * bound.size if traj.gamma is None else traj.gamma[1:].tolist()
    rows = list(zip(t[1:].tolist(), val.tolist(), bound.tolist(), x_err.tolist(), gamma))
    return {
        "pass": bad.size == 0,
        "rel_tol": DECAY_REL_TOL,
        "first_violation_t": float(t[1 + bad[0]]) if bad.size else None,
        "max_rel_excess": float(np.max(excess, initial=0.0, where=~np.isnan(excess))),
        "max_rel_error": max_rel_error,
        "rows": rows,
    }
