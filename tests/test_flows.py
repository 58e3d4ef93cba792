import dataclasses
import math

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
from lyapopt.problems import make_logcosh, make_quadratic

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
    """A plain per-step RK4 on packed vectors through flows.field."""
    n = model.oracle.dim

    def pack(st):
        parts = [st.x] + ([st.v] if model.has_v else [])
        return np.concatenate(parts + ([[st.gamma]] if model.has_gamma else []))

    def rhs(t, y):
        st = FlowState(t, y[:n], v=y[n:2 * n] if model.has_v else None,
                       gamma=float(y[-1]) if model.has_gamma else None)
        return pack(flows.field(model, st))

    n_steps = max(1, int(round((t_end - state0.t) / dt)))
    h = (t_end - state0.t) / n_steps
    t, y = state0.t, pack(state0)
    times, ys = [t], [y]
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
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
    def test_batched_field_matches_single_states(self, kind):
        model = FlowModel(kind, QUAD, beta_fn=lambda t: 0.25 + 0.5 * t)
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
        assert np.all(np.isfinite(info.value.last_state.x))


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
