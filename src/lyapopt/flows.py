"""Continuous-time dynamical systems behind the discrete methods.

Each model is a first-order vector field in the blocks (x, v, gamma):
plain gradient flow, gradient flow rescaled by a time-scaling factor
obeying gamma' = mu - gamma, the heavy-ball system, the vanishing-damping
second-order system in its first-order form, and the gradient-corrected
accelerated flow with an extra -(1/L) grad f damping term; each kind is
one entry of FLOWS.  An RK4 integrator produces reference trajectories from
start_state on each kind's time grid, and a decay checker confirms the
Lyapunov bounds along them within a step-doubling error budget.  The
checker runs the budget's coarse run in a forked child (POSIX only),
concurrently with the fine run; its reports are identical to an in-process
run's, and on one CPU the two processes time-share, at the cost of one fork.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
from dataclasses import dataclass, field as dc_field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .problems import ProblemOracle, rowdot, unbox

# integrate checks its trajectory for NaN/Inf once per this many steps
FINITE_CHECK_STEPS = 256
# integrate refuses a trajectory of more float64 values than this (512 MiB)
MAX_TRAJECTORY_VALUES = 1 << 26
# continuous_decay_check fails a step whose relative excess over the bound,
# its error budget included, is above this
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


FLOWS = {
    "gradient": Flow(has_v=False, has_gamma=False),
    "scaled_gradient": Flow(has_v=False, has_gamma=True, gamma0=lambda o: o.lip),
    "heavy_ball": Flow(has_v=True, has_gamma=False, needs_mu=True),
    # gamma = 4/t^2 from t = 1: the rate sqrt(gamma) = 2/t sets a time scale ~ t
    "avd_r3": Flow(has_v=True, has_gamma=True, t0=1.0, gamma0=lambda o: 4.0,
                   log_time=True),
    "hnag": Flow(has_v=True, has_gamma=True, gamma0=lambda o: o.lip),
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


@contextlib.contextmanager
def _forked(fn):
    """Run fn() in a forked child while the with block runs in this process.

    Yields result(), which waits for the child and returns what fn
    returned, or raises what fn raised (same type and message).  The child
    sends its outcome through a pipe as a pickle and always leaves through
    os._exit, so it runs no exit handler and flushes no buffer it
    inherited.  The child is reaped before the block is left; if the block
    raises first, the child is killed.  The child has only the forking
    thread, so fn must take no lock another thread may hold at the fork.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                outcome = (fn(), None)
            except Exception as exc:
                outcome = (None, exc)
            data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
            with open(write_fd, "wb") as fh:
                fh.write(data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    reader = open(read_fd, "rb")
    reaped = False

    def result():
        nonlocal reaped
        data = reader.read()
        _, status = os.waitpid(pid, 0)
        reaped = True
        if not data:
            raise RuntimeError(f"the forked child ended without a result (wait status {status})")
        value, exc = pickle.loads(data)
        if exc is not None:
            raise exc
        return value

    try:
        yield result
    finally:
        reader.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def continuous_decay_check(model: FlowModel, lyapunov, state0: FlowState,
                           t_end: float, dt: float) -> dict:
    """Integrate and compare the Lyapunov value against its decay bound,
    within an error budget for the integration.

    The bound accumulates the decay-rate integral along the trajectory by
    the trapezoid rule in the grid's variable s (the integrand c dt/ds: c
    itself on a uniform grid, c t in s = ln t on a log_time one): exponential
    decay exp(-int c) for exponent q = 1, the algebraic closure
    ((q-1) int c + L0^(1-q))^(1/(1-q)) for q > 1.

    The budget is step doubling: a second run on every other point of the
    grid (step 2 dt, or (1 + dt)^2 - 1 in ln t) estimates the error of L at
    each shared point as |L_h - L_2h| / 15; a row between shared points
    takes the larger estimate of its two neighbours, and a final row past
    the last shared point takes that point's.  Where the coarse run
    diverged, or there is no coarse run (a grid of one step), the estimate
    is infinite.  A step fails unless
    (L + err - bound) <= DECAY_REL_TOL |bound|, so a NaN anywhere fails.

    The coarse run and its L values are computed in a forked child (POSIX
    only), concurrently with the fine run in this process.  The child runs
    the same code on the same inputs and sends back its float64 values
    whole, so the report is identical to an in-process run's; an exception
    the coarse run raises is raised here after the fine run.  On one CPU
    the two processes time-share, at the cost of one fork.
    """
    from . import lyapunov as lyap_mod

    params = lyapunov.strong_params
    if params is None:
        raise FlowError("Lyapunov spec has no decay parameters attached")
    log_time = FLOWS[model.kind].log_time
    oracle = model.oracle
    times, _ = _grid(model, state0, t_end, dt)
    n_steps = times.size - 1
    # the coarse run takes one step per pair of fine steps, to t[2 * pairs]
    pairs = n_steps // 2

    def coarse_values():
        try:
            coarse = integrate(model, state0, float(times[2 * pairs]),
                               dt * (2.0 + dt) if log_time else 2.0 * dt)
        except DivergenceError as exc:
            coarse = exc.trajectory
        return lyap_mod.evaluate(lyapunov, oracle, coarse)

    shared = np.full(pairs + 1, math.inf)
    with _forked(coarse_values) if pairs else contextlib.nullcontext() as coarse:
        traj = integrate(model, state0, t_end, dt)
        t = traj.t
        values = lyap_mod.evaluate(lyapunov, oracle, traj)
        rate = np.broadcast_to(params.c(traj), t.shape)
        s, w = (np.log(t), rate * t) if log_time else (t, rate)
        # np.cumsum adds in sequence, as a running sum over the steps would
        integral = np.cumsum(0.5 * (w[:-1] + w[1:]) * np.diff(s))
        l0, q = float(values[0]), params.q
        if q == 1.0:
            bound = l0 * np.exp(-integral)
        else:
            bound = ((q - 1.0) * integral + l0 ** (1.0 - q)) ** (1.0 / (1.0 - q))
        if pairs:
            coarse_l = coarse()
            reached = coarse_l.size
            shared[:reached] = np.abs(values[:2 * reached:2] - coarse_l) / 15.0
    est = np.full(n_steps + 1, shared[-1])
    est[::2] = shared
    est[1:2 * pairs:2] = np.maximum(shared[:-1], shared[1:])

    val, err = values[1:], est[1:]
    scale = np.abs(bound) + 1e-300
    excess = (val - bound) / scale
    bad = np.flatnonzero(~((val + err - bound) / scale <= DECAY_REL_TOL))
    d = traj.x[1:] - oracle.x_star
    x_err = np.sqrt(rowdot(d, d))
    gamma = [""] * bound.size if traj.gamma is None else traj.gamma[1:].tolist()
    rows = list(zip(t[1:].tolist(), val.tolist(), bound.tolist(), x_err.tolist(), gamma))
    return {
        "pass": bad.size == 0,
        "rel_tol": DECAY_REL_TOL,
        "first_violation_t": float(t[1 + bad[0]]) if bad.size else None,
        "max_rel_excess": float(np.max(excess, initial=0.0, where=~np.isnan(excess))),
        "max_rel_error": float(np.max(err / scale)),
        "rows": rows,
    }
