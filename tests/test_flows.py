import dataclasses
import math
import os
import sys
import time

import numpy as np
import pytest

from lyapopt import flows, lyapunov
from lyapopt.flows import (
    DivergenceError,
    FlowError,
    FlowModel,
    FlowState,
    continuous_decay_check,
    integrate,
)
from lyapopt.problems import make_lasso, make_logcosh, make_quadratic, rowdot

QUAD = make_quadratic([1.0, 4.0], [1.0, -2.0])


class TestConstruction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FlowError):
            FlowModel("midpoint", QUAD)

    def test_heavy_ball_needs_strong_convexity(self):
        flat = make_logcosh(2.0, dim=2)
        with pytest.raises(FlowError):
            FlowModel("heavy_ball", flat)

    def test_state_rejects_nonpositive_gamma(self):
        with pytest.raises(FlowError):
            FlowState(0.0, np.zeros(2), gamma=0.0)

    def test_missing_blocks_detected(self):
        model = FlowModel("avd_r3", QUAD)
        with pytest.raises(FlowError):
            flows.field(model, FlowState(0.0, np.zeros(2), v=None, gamma=1.0))
        with pytest.raises(FlowError):
            flows.field(model, FlowState(0.0, np.zeros(2), v=np.zeros(2)))

    def test_integrate_rejects_bad_interval(self):
        model = FlowModel("gradient", QUAD)
        st = FlowState(0.0, np.ones(2))
        with pytest.raises(FlowError):
            integrate(model, st, t_end=0.0, dt=0.1)
        with pytest.raises(FlowError):
            integrate(model, st, t_end=1.0, dt=-0.1)


    def test_log_time_grid_needs_positive_t0(self):
        model = FlowModel("avd_r3", QUAD)
        st = FlowState(0.0, np.ones(2), v=np.zeros(2), gamma=4.0)
        with pytest.raises(FlowError, match="t0 > 0"):
            integrate(model, st, t_end=1.0, dt=0.1)


class TestEquilibria:
    def cases(self):
        mu = QUAD.mu
        yield FlowModel("gradient", QUAD), FlowState(0.0, QUAD.x_star)
        yield (FlowModel("scaled_gradient", QUAD),
               FlowState(0.0, QUAD.x_star, gamma=mu))
        yield (FlowModel("heavy_ball", QUAD),
               FlowState(0.0, QUAD.x_star, v=QUAD.x_star))
        yield (FlowModel("avd_r3", QUAD),
               FlowState(1.0, QUAD.x_star, v=QUAD.x_star, gamma=4.0))
        yield (FlowModel("hnag", QUAD),
               FlowState(0.0, QUAD.x_star, v=QUAD.x_star, gamma=mu))

    def test_velocity_vanishes_at_minimizer(self):
        for model, st in self.cases():
            vel = flows.field(model, st)
            assert np.linalg.norm(vel.x) <= 1e-10
            if model.has_v:
                assert np.linalg.norm(vel.v) <= 1e-10


def reference_rk4(model, state0, t_end, dt):
    """A plain per-step RK4 on packed vectors through flows.field, on the
    kind's grid: steps of h = (t_end - t0) / N summed as a running t, or the
    log-time grid's points."""
    n = model.oracle.dim

    def pack(st):
        parts = [st.x] + ([st.v] if model.has_v else [])
        return np.concatenate(parts + ([[st.gamma]] if model.has_gamma else []))

    def rhs(t, y):
        st = FlowState(t, y[:n], v=y[n:2 * n] if model.has_v else None,
                       gamma=float(y[-1]) if model.has_gamma else None)
        return pack(flows.field(model, st))

    t0 = state0.t
    if flows.FLOWS[model.kind].log_time:
        # uniform in ln t: t_i = t0 (t_end / t0)^(i / N), N steps of ln(1 + dt)
        n_steps = max(1, round(math.log(t_end / t0) / math.log1p(dt)))
        grid = (t0 * (t_end / t0) ** (np.arange(n_steps + 1) / n_steps)).tolist()
        steps = [b - a for a, b in zip(grid, grid[1:])]
    else:
        n_steps = max(1, int(round((t_end - t0) / dt)))
        steps = [(t_end - t0) / n_steps] * n_steps
    t, y = t0, pack(state0)
    times, ys = [t], [y]
    for i, h in enumerate(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t = grid[i + 1] if flows.FLOWS[model.kind].log_time else t + h
        times.append(t)
        ys.append(y)
    return np.array(times), np.array(ys)


class TestBatchedStates:
    @pytest.mark.parametrize("kind", flows.FLOW_KINDS)
    def test_integrate_matches_plain_rk4(self, kind):
        model = FlowModel(kind, QUAD)
        st = FlowState(1.0, np.array([4.0, -3.0]), v=np.array([0.5, 0.0]), gamma=3.0)
        traj = integrate(model, st, 3.0, 2e-3)
        times, ys = reference_rk4(model, st, 3.0, 2e-3)
        assert np.array_equal(traj.t, times)
        assert np.array_equal(traj.x, ys[:, :2])
        if model.has_v:
            assert np.array_equal(traj.v, ys[:, 2:4])
        else:
            assert traj.v is None
        if model.has_gamma:
            assert np.array_equal(traj.gamma, ys[:, -1])
        else:
            assert traj.gamma is None

    @pytest.mark.parametrize("kind", flows.FLOW_KINDS)
    def test_integrate_spans_finiteness_blocks(self, kind):
        oracle = make_quadratic([0.5, 1.0, 4.0], [1.0, -2.0, 0.3])
        model = FlowModel(kind, oracle)
        st = FlowState(1.0, np.array([4.0, -3.0, 0.5]), v=np.array([0.5, 0.0, -1.0]),
                       gamma=3.0)
        n_steps = 3 * flows.FINITE_CHECK_STEPS + 5
        t_end = 1.001 ** n_steps if flows.FLOWS[kind].log_time else 1.0 + n_steps * 1e-3
        traj = integrate(model, st, t_end, 1e-3)
        times, ys = reference_rk4(model, st, t_end, 1e-3)
        assert traj.t.size == 3 * flows.FINITE_CHECK_STEPS + 6
        assert np.array_equal(traj.t, times)
        assert np.array_equal(traj.x, ys[:, :3])
        if model.has_v:
            assert np.array_equal(traj.v, ys[:, 3:6])
        if model.has_gamma:
            assert np.array_equal(traj.gamma, ys[:, -1])

    def test_hnag_field_is_exact(self):
        # beta = 1/L: dx = (v - x) - (1/L) g, dv = (x - v) mu/gamma - g/gamma,
        # gamma' = mu - gamma; L = 3, so 1/L is inexact and g / L would differ
        oracle = make_quadratic([1.0, 3.0], [1.0, -2.0])
        rng = np.random.default_rng(4)
        batch = FlowState(rng.uniform(0, 2, 20), rng.uniform(-3, 3, (20, 2)),
                          v=rng.uniform(-3, 3, (20, 2)), gamma=rng.uniform(0.5, 5.0, 20))
        vel = flows.field(FlowModel("hnag", oracle), batch)
        g, gamma, mu = oracle.grad_h(batch.x), batch.gamma[:, None], oracle.mu
        assert np.array_equal(vel.x, (batch.v - batch.x) - (1.0 / oracle.lip) * g)
        assert np.array_equal(vel.v, (batch.x - batch.v) * (mu / gamma) - g / gamma)
        assert np.array_equal(vel.gamma, mu - batch.gamma)

    @pytest.mark.parametrize("kind", flows.FLOW_KINDS)
    def test_batched_field_matches_single_states(self, kind):
        model = FlowModel(kind, QUAD)
        rng = np.random.default_rng(3)
        batch = FlowState(rng.uniform(0, 2, 20), rng.uniform(-3, 3, (20, 2)),
                          v=rng.uniform(-3, 3, (20, 2)), gamma=rng.uniform(0.5, 5.0, 20))
        vel = flows.field(model, batch)
        for i in range(20):
            one = flows.field(model, FlowState(batch.t[i], batch.x[i], v=batch.v[i],
                                               gamma=batch.gamma[i]))
            assert np.array_equal(vel.x[i], one.x)
            if model.has_v:
                assert np.array_equal(vel.v[i], one.v)
            if model.has_gamma:
                assert vel.gamma[i] == one.gamma


class TestExactSolutions:
    def test_gradient_flow_exponential(self):
        o = make_quadratic([1.0], [0.0])
        model = FlowModel("gradient", o)
        traj = integrate(model, FlowState(0.0, np.array([3.0])), 1.0, 1e-3)
        assert traj.x[-1, 0] == pytest.approx(3.0 * math.exp(-1.0), abs=1e-12)

    def test_scaled_gamma_relaxes_to_mu(self):
        model = FlowModel("scaled_gradient", QUAD)
        traj = integrate(model, FlowState(0.0, np.ones(2), gamma=5.0), 2.0, 1e-3)
        expect = QUAD.mu + (5.0 - QUAD.mu) * math.exp(-2.0)
        assert traj.gamma[-1] == pytest.approx(expect, rel=1e-10)

    def test_avd_gamma_matches_inverse_square(self):
        model = FlowModel("avd_r3", QUAD)
        st = FlowState(1.0, np.ones(2), v=np.zeros(2), gamma=4.0)
        traj = integrate(model, st, 3.0, 1e-3)
        every = len(traj.t) // 10
        for t, gamma in zip(traj.t[::every], traj.gamma[::every]):
            assert gamma == pytest.approx(4.0 / t**2, rel=1e-9)

    def test_rk4_is_fourth_order(self):
        o = make_quadratic([1.0], [0.0])
        model = FlowModel("gradient", o)
        exact = 3.0 * math.exp(-1.0)

        def err(dt):
            traj = integrate(model, FlowState(0.0, np.array([3.0])), 1.0, dt)
            return abs(traj.x[-1, 0] - exact)

        assert err(0.1) / err(0.05) >= 8.0

    def test_divergence_raises_with_last_state(self):
        stiff = make_quadratic([1.0, 1e4], [0.0, 0.0])
        model = FlowModel("gradient", stiff)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                integrate(model, FlowState(0.0, np.array([1.0, 1.0])), 100.0, 0.5)
        assert np.all(np.isfinite(info.value.trajectory.x[-1]))

    @pytest.mark.parametrize("kind, dt, t_end", [("gradient", 3e-4, 1.8),
                                                 ("scaled_gradient", 1e-3, 1.6)])
    def test_divergence_after_first_block_matches_reference(self, kind, dt, t_end):
        model = FlowModel(kind, make_quadratic([1.0, 1e4], [0.0, 0.0]))
        st = FlowState(1.0, np.array([1.0, 1.0]), gamma=3.0)
        with np.errstate(all="ignore"):
            times, ys = reference_rk4(model, st, t_end, dt)
            with pytest.raises(DivergenceError) as info:
                integrate(model, st, t_end, dt)
        row = int(np.flatnonzero(~np.isfinite(ys).all(axis=1))[0])
        assert row > flows.FINITE_CHECK_STEPS
        assert str(info.value) == f"integration diverged at t={times[row]:.6g}"
        traj = info.value.trajectory
        assert traj.t[-1] == times[row - 1]
        assert np.array_equal(traj.x[-1], ys[row - 1, :2])
        if model.has_gamma:
            assert traj.gamma[-1] == ys[row - 1, -1]

    def test_avd_negative_stage_gamma_diverges(self):
        # the log-time grid 1, 3, 9 (dt = 2 at t0 = 1): h = 2 from t = 1,
        # gamma = 4, so the second stage's gamma is 4 - 1 * 4^1.5 < 0, whose
        # square root is NaN
        model = FlowModel("avd_r3", QUAD)
        st = FlowState(1.0, np.ones(2), v=np.zeros(2), gamma=4.0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                integrate(model, st, 9.0, 2.0)
        assert str(info.value) == "integration diverged at t=3"
        assert np.array_equal(info.value.trajectory.t, [1.0])
        assert np.array_equal(info.value.trajectory.gamma, [4.0])


class TestStartState:
    """start_state builds the start states that test_09_continuous_decay and
    TestDecayChecks write by hand, and that `lyapopt certify` starts from."""

    X0 = np.array([4.0, -3.0])

    @pytest.mark.parametrize("pairing, by_hand", [
        (lyapunov.pairing_gd_combined, lambda o, x0: FlowState(0.0, x0)),
        (lyapunov.pairing_scaled, lambda o, x0: FlowState(0.0, x0, gamma=o.lip)),
        (lyapunov.pairing_hb, lambda o, x0: FlowState(0.0, x0, v=np.zeros(2))),
        (lyapunov.pairing_avd, lambda o, x0: FlowState(1.0, x0, v=np.zeros(2), gamma=4.0)),
        (lyapunov.pairing_hnag, lambda o, x0: FlowState(0.0, x0, v=np.zeros(2), gamma=o.lip)),
        (lyapunov.pairing_gf_convex, lambda o, x0: FlowState(0.0, o.x0_ref)),
    ], ids=["gradient", "scaled_gradient", "heavy_ball", "avd_r3", "hnag", "gf_convex"])
    def test_matches_hand_built_state(self, pairing, by_hand):
        model, _ = pairing()
        o = model.oracle
        x0 = o.x0_ref if o.x0_ref is not None else self.X0
        built = flows.start_state(model, x0, v0=np.zeros(2))
        want = by_hand(o, x0)
        assert type(built.t) is type(want.t) and built.t == want.t
        assert type(built.gamma) is type(want.gamma) and built.gamma == want.gamma
        assert built.x.dtype == want.x.dtype and np.array_equal(built.x, want.x)
        if want.v is None:
            assert built.v is None
        else:
            assert built.v.dtype == want.v.dtype and np.array_equal(built.v, want.v)

    def test_v_defaults_to_a_copy_of_x0(self):
        model = FlowModel("hnag", QUAD)
        x0 = np.array([4.0, -3.0])
        st = flows.start_state(model, x0)
        assert np.array_equal(st.v, x0) and st.v is not st.x and st.x is not x0

    def test_every_kind_has_a_record(self):
        assert flows.FLOW_KINDS == tuple(flows.FLOWS)
        for kind, flow in flows.FLOWS.items():
            model = FlowModel(kind, QUAD)
            assert (model.has_v, model.has_gamma) == (flow.has_v, flow.has_gamma)
            assert (flow.gamma0 is not None) == flow.has_gamma


class TestCompositeRefused:
    LASSO = make_lasso([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 0.0, 1.0], 0.3)

    # each RK4 stage moves on grad h alone, so the l1 subgradient would be dropped
    @pytest.mark.parametrize("kind", flows.FLOW_KINDS)
    def test_lasso_refused(self, kind):
        model = FlowModel(kind, self.LASSO)
        state0 = flows.start_state(model, [1.0, 2.0])
        with pytest.raises(FlowError, match="smooth objectives only"):
            integrate(model, state0, state0.t + 1.0, 1e-2)

    @pytest.mark.parametrize("kind", flows.FLOW_KINDS)
    def test_field_refuses_state_without_subgradient(self, kind):
        model = FlowModel(kind, self.LASSO)
        with pytest.raises(FlowError, match="carries its subgradient"):
            flows.field(model, flows.start_state(model, [1.0, 2.0]))

    def test_gradient_field_moves_on_carried_subgradient(self):
        model = FlowModel("gradient", self.LASSO)
        xi = np.array([[0.3, -1.7], [2.5, 0.0]])
        vel = flows.field(model, FlowState(np.zeros(2), np.ones((2, 2)), grad=xi))
        assert np.array_equal(vel.x, -xi)


class TestDecayChecks:
    def test_gd_combined_exponential(self):
        model, lyap = lyapunov.pairing_gd_combined()
        report = continuous_decay_check(
            model, lyap, FlowState(0.0, np.array([4.0, -3.0])), 5.0, 1e-3)
        assert report["pass"]

    def test_scaled_flow_unit_rate(self):
        model, lyap = lyapunov.pairing_scaled()
        st = FlowState(0.0, np.array([4.0, -3.0]), gamma=model.oracle.lip)
        report = continuous_decay_check(model, lyap, st, 10.0, 1e-3)
        assert report["pass"]
        assert report["max_rel_excess"] <= 1e-3

    def test_heavy_ball_unit_rate(self):
        model, lyap = lyapunov.pairing_hb()
        st = FlowState(0.0, np.array([4.0, -3.0]), v=np.array([0.0, 0.0]))
        report = continuous_decay_check(model, lyap, st, 10.0, 1e-3)
        assert report["pass"]

    def test_avd_inverse_square(self):
        model, lyap = lyapunov.pairing_avd()
        st = FlowState(1.0, np.array([4.0, -3.0]), v=np.zeros(2), gamma=4.0)
        report = continuous_decay_check(model, lyap, st, 20.0, 1e-3)
        assert report["pass"]
        # c = sqrt(gamma) = 2/t integrates to the 1/t^2 envelope
        t_last, val, bound = report["rows"][-1][:3]
        l1 = lyapunov.evaluate(lyap, model.oracle, st)
        assert bound == pytest.approx(l1 / t_last**2, rel=1e-6)

    def test_hnag_unit_rate(self):
        model, lyap = lyapunov.pairing_hnag()
        st = FlowState(0.0, np.array([4.0, -3.0]), v=np.zeros(2),
                       gamma=model.oracle.lip)
        report = continuous_decay_check(model, lyap, st, 10.0, 1e-3)
        assert report["pass"]

    def test_convex_gradient_algebraic_rate(self):
        model, lyap = lyapunov.pairing_gf_convex()
        o = model.oracle
        report = continuous_decay_check(model, lyap, FlowState(0.0, o.x0_ref),
                                        10.0, 1e-3)
        assert report["pass"]

    def test_nan_rate_fails_closed(self):
        model, lyap = lyapunov.pairing_scaled()
        nan_rate = dataclasses.replace(lyap.strong_params, c=lambda st: math.nan)
        st = FlowState(0.0, np.array([4.0, -3.0]), gamma=model.oracle.lip)
        report = continuous_decay_check(
            model, dataclasses.replace(lyap, strong_params=nan_rate), st, 1.0, 1e-2)
        assert not report["pass"]
        assert report["first_violation_t"] == pytest.approx(1e-2)

    def test_decay_check_requires_params(self):
        model, _ = lyapunov.pairing_gd_combined()
        bare = lyapunov.LyapunovSpec("opt_gap")
        with pytest.raises(FlowError):
            continuous_decay_check(model, bare, FlowState(0.0, np.ones(2)), 1.0, 0.1)


def trapezoid_bound(lyap, traj, values, log_time=False):
    """The decay bound along traj from the trapezoid of c dt/ds in the
    grid's variable s: t, or ln t on a log_time grid."""
    rate = np.broadcast_to(lyap.strong_params.c(traj), traj.t.shape)
    s, w = (np.log(traj.t), rate * traj.t) if log_time else (traj.t, rate)
    integral = np.cumsum(0.5 * (w[:-1] + w[1:]) * np.diff(s))
    l0, q = float(values[0]), lyap.strong_params.q
    if q == 1.0:
        return l0 * np.exp(-integral)
    return ((q - 1.0) * integral + l0 ** (1.0 - q)) ** (1.0 / (1.0 - q))


def uniform_rows(model, lyap, state0, t_end, dt):
    """The decay check's rows computed directly: the Lyapunov values on the
    uniform RK4 trajectory and the bound from the trapezoid of c in t."""
    traj = integrate(model, state0, t_end, dt)
    values = lyapunov.evaluate(lyap, model.oracle, traj)
    bound = trapezoid_bound(lyap, traj, values)
    d = traj.x[1:] - model.oracle.x_star
    x_err = np.sqrt(rowdot(d, d))
    gamma = [""] * bound.size if traj.gamma is None else traj.gamma[1:].tolist()
    return list(zip(traj.t[1:].tolist(), values[1:].tolist(), bound.tolist(),
                    x_err.tolist(), gamma))


def in_process_verdict(model, lyap, state0, t_end, dt):
    """The decay check's max_rel_error and pass from a fine and a
    step-doubled coarse integrate call, both run in this process, on a grid
    of an even number of steps."""
    log_time = flows.FLOWS[model.kind].log_time
    fine = integrate(model, state0, t_end, dt)
    values = lyapunov.evaluate(lyap, model.oracle, fine)
    bound = trapezoid_bound(lyap, fine, values, log_time)
    assert fine.t.size % 2 == 1
    coarse = integrate(model, state0, float(fine.t[-1]),
                       dt * (2.0 + dt) if log_time else 2.0 * dt)
    shared = np.abs(values[::2] - lyapunov.evaluate(lyap, model.oracle, coarse)) / 15.0
    est = np.empty(fine.t.size)
    est[::2] = shared
    est[1::2] = np.maximum(shared[:-1], shared[1:])
    scale = np.abs(bound) + 1e-300
    err = est[1:] / scale
    ok = bool(np.all((values[1:] + est[1:] - bound) / scale <= flows.DECAY_REL_TOL))
    return float(np.max(err)), ok


def finer_values(model, lyap, state0, t_end, n_steps, factor):
    """L on the kind's grid refined factor times (n_steps * factor steps),
    at the points the n_steps grid shares with it, state0 excluded."""
    t0 = state0.t
    if flows.FLOWS[model.kind].log_time:
        dt = (t_end / t0) ** (1.0 / (factor * n_steps)) - 1.0
    else:
        dt = (t_end - t0) / (factor * n_steps)
    fine = integrate(model, state0, t_end, dt)
    assert fine.t.size == factor * n_steps + 1
    return lyapunov.evaluate(lyap, model.oracle, fine)[factor::factor]


# `lyapopt certify`'s decay checks (harness.cmd_certify), run with dt = 1e-3
CERTIFY_DECAYS = [("scaled_gradient", 10.0), ("heavy_ball", 10.0), ("avd_r3", 50.0),
                  ("hnag", 10.0)]


class TestErrorBudget:
    X0 = [4.0, -3.0]

    def check(self, kind, t_end, dt):
        model, lyap = lyapunov.flow_pairing(kind, QUAD)
        state0 = flows.start_state(model, self.X0, v0=np.zeros(2))
        return model, lyap, state0, continuous_decay_check(model, lyap, state0, t_end, dt)

    def test_avd_log_grid_steps(self):
        # dt is the step at t0 = 1 and grows like t: 3,914 steps to t = 50,
        # where a uniform grid takes 49,000
        *_, report = self.check("avd_r3", 50.0, 1e-3)
        t = np.array([1.0] + [row[0] for row in report["rows"]])
        assert t.size == 3915
        assert np.diff(t)[0] == pytest.approx(1e-3, rel=1e-3)
        assert np.allclose(np.diff(np.log(t)), math.log(50.0) / 3914, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("kind, t_end", [(k, t) for k, t in CERTIFY_DECAYS
                                             if not flows.FLOWS[k].log_time])
    def test_uniform_rows_unchanged(self, kind, t_end):
        model, lyap, state0, report = self.check(kind, t_end, 1e-3)
        assert report["rows"] == uniform_rows(model, lyap, state0, t_end, 1e-3)

    @pytest.mark.parametrize("kind, t_end", CERTIFY_DECAYS)
    def test_verdict_matches_in_process_runs(self, kind, t_end):
        # the coarse run's L values come back from a forked child bit for bit
        model, lyap, state0, report = self.check(kind, t_end, 1e-3)
        max_rel_error, ok = in_process_verdict(model, lyap, state0, t_end, 1e-3)
        assert report["max_rel_error"].hex() == max_rel_error.hex()
        assert report["pass"] is ok is True

    def test_unstable_coarse_run_fails_closed(self):
        # the fine run's L stays under its bound, but on 66 steps of about
        # 6% of t the coarse run is unstable: the budget alone fails it
        *_, report = self.check("avd_r3", 50.0, 0.03)
        rows = report["rows"]
        assert len(rows) == 132
        assert all(val - bound <= flows.DECAY_REL_TOL * abs(bound)
                   for _, val, bound, *_ in rows)
        assert report["max_rel_excess"] <= flows.DECAY_REL_TOL
        assert not report["pass"]
        assert report["max_rel_error"] > 1.0
        assert 1.0 < report["first_violation_t"] < 50.0

    def test_diverging_coarse_run_fails_without_raising(self):
        # on the log grid 1, 1.5, 2.25, ... (dt = 0.5) a stage gamma stays
        # positive, but the coarse run's step of 1.25 t makes it negative
        model, lyap, state0, report = self.check("avd_r3", 1.5 ** 4, 0.5)
        assert [row[0] for row in report["rows"]] == pytest.approx([1.5, 2.25, 3.375, 5.0625])
        assert report["max_rel_excess"] <= flows.DECAY_REL_TOL
        with np.errstate(invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                integrate(model, state0, 1.5 ** 4, 1.25)
        assert str(info.value) == "integration diverged at t=2.25"
        assert not report["pass"]
        assert report["first_violation_t"] <= 2.25
        assert report["max_rel_error"] == math.inf

    def test_one_step_has_no_estimate(self):
        *_, report = self.check("scaled_gradient", 1.0, 5.0)
        assert len(report["rows"]) == 1
        assert not report["pass"] and report["max_rel_error"] == math.inf

    @pytest.mark.parametrize("kind, t_end, dt", [
        *((kind, t_end, 1e-3) for kind, t_end in CERTIFY_DECAYS),
        *((kind, 10.0, 0.05) for kind in ("scaled_gradient", "heavy_ball", "hnag")),
        ("avd_r3", 50.0, 0.02),
    ])
    def test_budget_bounds_error_against_finer_run(self, kind, t_end, dt):
        model, lyap, state0, report = self.check(kind, t_end, dt)
        rows = report["rows"]
        fine = finer_values(model, lyap, state0, t_end, len(rows), 16)
        val, bound = np.array([row[1:3] for row in rows]).T
        error = np.max(np.abs(val - fine) / np.abs(bound))
        # step doubling estimates the truncation error; the uniform kinds at
        # dt = 1e-3 have none to speak of, and their difference from the
        # finer run (2-3e-13 of the bound) is float rounding, mostly
        # f(x) - f* cancelling near x*, which no budget from L_h - L_2h sees
        rounding = 1e-12
        assert max(report["max_rel_error"], rounding) >= error
        if dt > 1e-3 or flows.FLOWS[kind].log_time:
            assert error > rounding


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedCoarseRun:
    DT = 0.01

    def check(self):
        model, lyap = lyapunov.flow_pairing("heavy_ball", QUAD)
        state0 = flows.start_state(model, [4.0, -3.0], v0=np.zeros(2))
        return continuous_decay_check(model, lyap, state0, 1.0, self.DT)

    def patch_integrate(self, monkeypatch, fine=None, coarse=None):
        """Make the fine or the coarse integrate call run fine() or coarse()
        in its place; the coarse run is the one with step 2 dt."""
        real = flows.integrate

        def patched(model, state0, t_end, dt):
            stand_in = coarse if dt == 2.0 * self.DT else fine
            return stand_in() if stand_in else real(model, state0, t_end, dt)

        monkeypatch.setattr(flows, "integrate", patched)

    def test_child_reaped_after_return(self):
        assert self.check()["pass"]
        no_child_left()

    def test_child_killed_after_fine_divergence(self, monkeypatch):
        def fine():
            raise DivergenceError("integration diverged at t=0.5", None)

        self.patch_integrate(monkeypatch, fine=fine, coarse=lambda: time.sleep(60))
        started = time.monotonic()
        with pytest.raises(DivergenceError, match="t=0.5"):
            self.check()
        assert time.monotonic() - started < 30
        no_child_left()

    def test_coarse_exception_reaches_caller(self, monkeypatch):
        def coarse():
            raise ZeroDivisionError("the coarse run failed")

        self.patch_integrate(monkeypatch, coarse=coarse)
        with pytest.raises(ZeroDivisionError) as info:
            self.check()
        assert type(info.value) is ZeroDivisionError
        assert str(info.value) == "the coarse run failed"
        no_child_left()

    def test_unpicklable_coarse_exception_still_fails(self, monkeypatch):
        class Local(Exception):
            pass

        def coarse():
            raise Local("a local class does not pickle")

        self.patch_integrate(monkeypatch, coarse=coarse)
        with pytest.raises(RuntimeError, match="without a result"):
            self.check()
        no_child_left()

    def test_child_leaves_inherited_buffers_unflushed(self, capfd, monkeypatch):
        # a block-buffered stdout on capfd's fd 1: a child that ran the exit
        # handlers would flush its copy of the pending text too
        with open(os.dup(1), "w") as stream, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stream)
            print("written once", end="")
            assert self.check()["pass"]
        assert capfd.readouterr().out == "written once"
        no_child_left()
