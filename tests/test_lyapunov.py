import dataclasses
import math

import numpy as np
import pytest

from lyapopt import flows, lyapunov
from lyapopt.lyapunov import (
    LyapunovConfigError,
    LyapunovSpec,
    SequenceParameterError,
    StrongParams,
    evaluate,
    grad_blocks,
    sequence_decay,
    sequence_decay_oracle,
    strong_condition_check,
    verify_pairing,
)
from lyapopt.problems import box_rng, make_logcosh, make_quadratic

RADIUS = lyapunov.SAMPLING_RADIUS


def reference_strong_check(flow, lyap, samples, seed, f0_level=None):
    """The per-sample loop: one state drawn and checked at a time."""
    params, oracle = lyap.strong_params, flow.oracle
    rng = box_rng(seed)
    kept = draws = violations = 0
    min_slack, arg_min = math.inf, None
    while kept < samples and draws < 200 * samples:
        x = oracle.x_star + rng.uniform(-RADIUS, RADIUS, size=oracle.dim)
        v = oracle.x_star + rng.uniform(-RADIUS, RADIUS, size=oracle.dim) if flow.has_v else None
        gamma = float(rng.uniform(*lyapunov.GAMMA_RANGE)) if flow.has_gamma else None
        draws += 1
        if f0_level is not None and oracle.eval_f(x) > f0_level:
            continue
        kept += 1
        st = flows.FlowState(0.0, x, v=v, gamma=gamma)
        lval = evaluate(lyap, oracle, st)
        slack = (lyapunov.decay_rate(lyap, flow, st) - params.c(st) * lval ** params.q
                 - params.p_sq(st))
        if slack < min_slack:
            min_slack, arg_min = slack, x.tolist()
        if not slack >= -lyapunov.SLACK_TOL * (1.0 + abs(lval) ** params.q):
            violations += 1
    return {"samples": kept, "draws": draws, "min_slack": min_slack,
            "violations": violations, "arg_min_x": arg_min}


def reference_prox_draws(oracle, samples, seed):
    """Per-draw log-uniform radius and box draw of the mu = 0 composite check."""
    rng = box_rng(seed)
    s = 1.0 / oracle.lip
    ys, xs, draws = [], [], 0
    while len(xs) < samples and draws < 200 * samples:
        radius = 10.0 ** rng.uniform(-2.0, math.log10(RADIUS))
        w = oracle.x_star + rng.uniform(-radius, radius, size=oracle.dim)
        draws += 1
        y = w - s * oracle.grad_h(w)
        x = oracle.prox_g(y, s)
        if oracle.eval_f(x) > oracle.f0_level:
            continue
        ys.append(y)
        xs.append(x)
    return np.array(ys), np.array(xs), draws

QUAD = make_quadratic([1.0, 4.0], [1.0, -2.0])


class TestEvaluate:
    def test_zero_at_equilibrium(self):
        st = flows.FlowState(0.0, QUAD.x_star, v=QUAD.x_star, gamma=1.0)
        for kind in lyapunov.LYAPUNOV_KINDS:
            assert evaluate(LyapunovSpec(kind), QUAD, st) == pytest.approx(0.0, abs=1e-14)

    def test_hb_arithmetic(self):
        o = make_quadratic([1.0], [0.0])
        st = flows.FlowState(0.0, np.array([2.0]), v=np.array([1.0]))
        assert evaluate(LyapunovSpec("hb"), o, st) == pytest.approx(2.5)

    def test_avd_nag_arithmetic(self):
        st = flows.FlowState(0.0, np.array([0.5, 0.5]),
                             v=QUAD.x_star + np.array([1.0, 0.0]), gamma=4.0)
        gap = QUAD.eval_f(st.x) - QUAD.f_star
        assert evaluate(LyapunovSpec("avd_nag"), QUAD, st) == pytest.approx(gap + 2.0)

    def test_missing_block_rejected(self):
        st = flows.FlowState(0.0, np.zeros(2))
        with pytest.raises(LyapunovConfigError):
            evaluate(LyapunovSpec("hb"), QUAD, st)
        with pytest.raises(LyapunovConfigError):
            evaluate(LyapunovSpec("scaled"), QUAD, st)

    def test_unknown_kind_rejected(self):
        with pytest.raises(LyapunovConfigError):
            LyapunovSpec("entropy")


class TestGradients:
    @pytest.mark.parametrize("kind", lyapunov.LYAPUNOV_KINDS)
    def test_matches_central_differences(self, kind):
        rng = box_rng(7)
        h = 1e-6
        for _ in range(100):
            st = flows.FlowState(0.0, rng.uniform(-3, 3, 2),
                                 v=rng.uniform(-3, 3, 2),
                                 gamma=float(rng.uniform(0.5, 5.0)))
            spec = LyapunovSpec(kind)
            grads = grad_blocks(spec, QUAD, st)

            def val(x=None, v=None, gamma=None):
                probe = flows.FlowState(0.0, st.x if x is None else x,
                                        v=st.v if v is None else v,
                                        gamma=st.gamma if gamma is None else gamma)
                return evaluate(spec, QUAD, probe)

            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                if "x" in grads:
                    fd = (val(x=st.x + e) - val(x=st.x - e)) / (2 * h)
                    assert grads["x"][i] == pytest.approx(fd, rel=1e-5, abs=1e-6)
                if "v" in grads:
                    fd = (val(v=st.v + e) - val(v=st.v - e)) / (2 * h)
                    assert grads["v"][i] == pytest.approx(fd, rel=1e-5, abs=1e-6)
            if "gamma" in grads:
                fd = (val(gamma=st.gamma + h) - val(gamma=st.gamma - h)) / (2 * h)
                assert grads["gamma"] == pytest.approx(fd, rel=1e-5, abs=1e-6)


class TestStrongConditionCheck:
    def test_exact_equality_on_scalar_quadratic(self):
        # f = x^2/2: the decay rate x^2 equals 2 mu L exactly, slack 0
        o = make_quadratic([1.0], [0.0])
        model = flows.FlowModel("gradient", o)
        lyap = LyapunovSpec("opt_gap",
                            StrongParams(c=lambda st: 2.0, q=1.0,
                                         p_sq=lambda st: 0.0))
        report = strong_condition_check(model, lyap, 500, 0)
        assert report["pass"]
        assert abs(report["min_slack"]) <= 1e-9

    @pytest.mark.parametrize("name", lyapunov.PAIRING_NAMES)
    def test_pairings_pass(self, name):
        report = verify_pairing(name, samples=2000, seed=0)
        assert report["pass"], report
        assert report["samples"] == 2000

    def test_inflated_rate_fails(self):
        report = verify_pairing("hb", samples=2000, seed=0, c_override=3.0)
        assert not report["pass"]
        assert report["min_slack"] < 0
        assert report["arg_min_x"] is not None

    def test_missing_params_rejected(self):
        model = flows.FlowModel("gradient", QUAD)
        with pytest.raises(LyapunovConfigError):
            strong_condition_check(model, LyapunovSpec("opt_gap"), 10, 0)

    def test_unknown_pairing_rejected(self):
        with pytest.raises(LyapunovConfigError):
            verify_pairing("mystery", 10, 0)

    def test_composite_pairing_needs_composite(self):
        with pytest.raises(LyapunovConfigError):
            lyapunov.composite_condition_check(QUAD, 10, 0)

    def test_gap_bounded_by_radius_times_gradient(self):
        # inside the initial sublevel set, f - f* <= R0 |grad f|
        o = make_logcosh(2.0, dim=2)
        rng = box_rng(3)
        kept = 0
        while kept < 500:
            x = rng.uniform(-4, 4, 2)
            if o.eval_f(x) > o.f0_level:
                continue
            kept += 1
            gap = o.eval_f(x) - o.f_star
            assert gap <= o.radius_r0 * np.linalg.norm(o.grad_h(x)) + 1e-12


class TestBatchedSampling:
    def test_draws_match_per_sample_uniform_calls(self):
        model, _ = lyapunov.pairing_hnag()
        o = model.oracle
        blocks = list(lyapunov._sample_states(model, 300, 11))
        x = np.concatenate([st.x for st, _ in blocks])
        v = np.concatenate([st.v for st, _ in blocks])
        gamma = np.concatenate([st.gamma for st, _ in blocks])
        rng = box_rng(11)
        for i in range(300):
            assert np.array_equal(x[i], o.x_star + rng.uniform(-RADIUS, RADIUS, size=o.dim))
            assert np.array_equal(v[i], o.x_star + rng.uniform(-RADIUS, RADIUS, size=o.dim))
            assert gamma[i] == rng.uniform(*lyapunov.GAMMA_RANGE)
        assert blocks[-1][1] == 300

    @pytest.mark.parametrize("block_values", [lyapunov._BLOCK_VALUES, 64])
    def test_log_uniform_radius_draws_match_per_draw_calls(self, block_values, monkeypatch):
        monkeypatch.setattr(lyapunov, "_BLOCK_VALUES", block_values)
        o = lyapunov._lasso_convex()
        blocks = list(lyapunov._sample_prox_points(o, 400, 3))
        ref_y, ref_x, ref_draws = reference_prox_draws(o, 400, 3)
        assert blocks[-1][2] == ref_draws > 400
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), ref_y)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), ref_x)

    @pytest.mark.parametrize("block_values", [lyapunov._BLOCK_VALUES, 64])
    @pytest.mark.parametrize("name", ["hnag", "avd", "gf_convex"])
    def test_pairing_report_matches_per_sample_loop(self, name, block_values, monkeypatch):
        # 64 uniforms per block splits the draws over many blocks
        monkeypatch.setattr(lyapunov, "_BLOCK_VALUES", block_values)
        model, lyap = getattr(lyapunov, "pairing_" + name)()
        f0 = model.oracle.f0_level if lyap.domain == "sublevel" else None
        report = strong_condition_check(model, lyap, 500, 4)
        ref = reference_strong_check(model, lyap, 500, 4, f0)
        for key in ("samples", "draws", "min_slack", "violations", "arg_min_x"):
            assert report[key] == ref[key], key

    def test_inflated_rate_report_matches_per_sample_loop(self):
        model, lyap = lyapunov.pairing_scaled(c_override=3.0)
        report = strong_condition_check(model, lyap, 500, 2)
        ref = reference_strong_check(model, lyap, 500, 2)
        assert report["violations"] == ref["violations"] > 0
        assert report["min_slack"] == ref["min_slack"]
        assert report["arg_min_x"] == ref["arg_min_x"]


class TestFailClosed:
    def test_nan_rate_on_some_states_fails(self):
        model, lyap = lyapunov.pairing_gd_combined()
        o = model.oracle
        # c is NaN on half of the box: those slacks are NaN, not passes
        params = dataclasses.replace(
            lyap.strong_params,
            c=lambda st: np.where(st.x[..., 0] > o.x_star[0], o.mu, np.nan))
        report = strong_condition_check(
            model, dataclasses.replace(lyap, strong_params=params), 500, 0)
        assert not report["pass"]
        assert 0 < report["violations"] < 500
        assert np.isfinite(report["min_slack"])

    def test_nan_composite_rate_fails(self):
        report = lyapunov.composite_condition_check(
            lyapunov._lasso_sc(), 200, 0, c_override=math.nan)
        assert not report["pass"]
        assert report["violations"] == 200


class TestSequenceDecay:
    def test_case3_example(self):
        assert sequence_decay(3, 1.0, 1.0, 4) == pytest.approx(1.0 / 5.0)

    def test_case4_example(self):
        for k in (0, 1, 5, 100):
            assert sequence_decay(4, 1.0, 1.0, k) == pytest.approx(1.5 / (1.0 + k))

    def test_k_zero_values(self):
        assert sequence_decay(3, 2.0, 0.3, 0) == pytest.approx(2.0)
        delta = 0.3 * 2.0 / (1.0 + 0.3 * 2.0)
        assert sequence_decay(4, 2.0, 0.3, 0) == pytest.approx((1 + delta) * 2.0)
        assert sequence_decay(1, 2.0, [0.5], 0) == pytest.approx(2.0)
        assert sequence_decay(2, 2.0, [0.5], 0) == pytest.approx(2.0)

    def test_case1_rejects_alpha_at_least_one(self):
        with pytest.raises(SequenceParameterError):
            sequence_decay(1, 1.0, [0.5, 1.0], 2)

    def test_case2_constant_alpha_is_extremal(self):
        a = 1.0
        for k in range(1, 30):
            a /= 1.5
            assert sequence_decay(2, 1.0, np.full(k, 0.5), k) == pytest.approx(a)

    def test_case3_one_step_dominates(self):
        # extremal step 1 - 0.1 = 0.9 below the bound 1/1.1
        assert 0.9 <= sequence_decay(3, 1.0, 0.1, 1)

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_oracle_passes(self, case):
        alpha = 0.5 if case == 1 else 0.9
        report = sequence_decay_oracle(case, 1.0, alpha, k_max=1000, seed=0)
        assert report["pass"], report
        assert report["max_ratio"] <= 1.0 + 1e-12

    def test_oracle_case3_needs_small_product(self):
        with pytest.raises(SequenceParameterError):
            sequence_decay_oracle(3, 2.0, 1.0, 10)

    def test_unknown_case_rejected(self):
        with pytest.raises(SequenceParameterError):
            sequence_decay(5, 1.0, 0.1, 1)
