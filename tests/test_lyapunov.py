import dataclasses
import math

import numpy as np
import pytest

from lyapopt import calculus, flows, lyapunov
from lyapopt.lyapunov import (
    LyapunovConfigError,
    LyapunovSpec,
    StrongParams,
    evaluate,
    grad_blocks,
    strong_condition_check,
    verify_pairing,
)
from lyapopt.problems import box_rng, make_lasso, make_logcosh, make_quadratic, rowdot

from paper_identities import SequenceParameterError, sequence_decay, sequence_decay_oracle

RADIUS = calculus.SAMPLING_RADIUS


def reference_states(flow, samples, seed, f0_level=None):
    """The strong check's draws, one at a time by per-value rng.uniform
    calls: x, then v and gamma.  On a composite f the x draw w (from a box
    whose radius is log-uniform when mu = 0) maps to y = w - s grad h(w)
    and the prox point x = prox_g(y, s), which carries
    xi = grad h(x) + (y - x)/s.  With an f0_level only states with
    f(x) <= f0_level are kept.  Returns the kept states and the draws."""
    oracle = flow.oracle
    composite, s = oracle.is_composite, 1.0 / oracle.lip
    rng = box_rng(seed)
    states, draws = [], 0
    while len(states) < samples and draws < 200 * samples:
        radius = RADIUS
        if composite and oracle.mu == 0:
            radius = 10.0 ** rng.uniform(-2.0, math.log10(RADIUS))
        x = oracle.x_star + rng.uniform(-radius, radius, size=oracle.dim)
        grad = None
        if composite:
            y = x - s * oracle.grad_h(x)
            x = oracle.prox_g(y, s)
            grad = oracle.grad_h(x) + (y - x) / s
        v = oracle.x_star + rng.uniform(-RADIUS, RADIUS, size=oracle.dim) if flow.has_v else None
        gamma = float(rng.uniform(*lyapunov.GAMMA_RANGE)) if flow.has_gamma else None
        draws += 1
        if f0_level is not None and oracle.eval_f(x) > f0_level:
            continue
        states.append(flows.FlowState(0.0, x, v=v, gamma=gamma, grad=grad))
    return states, draws


def reference_strong_check(flow, lyap, samples, seed, f0_level=None):
    """The per-sample loop: one state drawn and checked at a time."""
    params, oracle = lyap.strong_params, flow.oracle
    states, draws = reference_states(flow, samples, seed, f0_level)
    violations, min_slack, arg_min = 0, math.inf, None
    for st in states:
        lval = evaluate(lyap, oracle, st)
        slack = (lyapunov.decay_rate(lyap, flow, st) - params.c(st) * lval ** params.q
                 - params.p_sq(st))
        if slack < min_slack:
            min_slack, arg_min = slack, st.x.tolist()
        if not slack >= -calculus.SLACK_TOL * (1.0 + abs(lval) ** params.q):
            violations += 1
    return {"samples": len(states), "draws": draws, "min_slack": min_slack,
            "violations": violations, "arg_min_x": arg_min}


def reference_composite_check(oracle, samples, seed, c=None):
    """The composite check as a per-sample loop on its own formula: with
    d = grad h(x) + (y - x)/s, an element of the subdifferential at the
    prox point x, the slack is |d|^2 - c L^q - |d|^2 / 2 for L = f - f*,
    on the f0 sublevel set when mu = 0."""
    if oracle.mu > 0:
        rate, q, f0 = oracle.mu, 1.0, None
    else:
        rate, q, f0 = 1.0 / (2.0 * oracle.radius_r0 ** 2), 2.0, oracle.f0_level
    c = rate if c is None else c
    states, draws = reference_states(flows.FlowModel("gradient", oracle), samples, seed, f0)
    violations, min_slack, arg_min = 0, math.inf, None
    for st in states:
        dsq = float(np.dot(st.grad, st.grad))
        lval = oracle.eval_f(st.x) - oracle.f_star
        slack = dsq - c * lval ** q - 0.5 * dsq
        if slack < min_slack:
            min_slack, arg_min = slack, st.x.tolist()
        if not slack >= -calculus.SLACK_TOL * (1.0 + abs(lval) ** q):
            violations += 1
    return {"samples": len(states), "draws": draws, "min_slack": min_slack,
            "violations": violations, "arg_min_x": arg_min}

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

    @pytest.mark.parametrize("samples", [0, -5])
    def test_no_samples_refused(self, samples):
        # zero samples reported "pass": true
        model, lyap = lyapunov.pairing_hb()
        with pytest.raises(LyapunovConfigError, match="samples must be >= 1"):
            strong_condition_check(model, lyap, samples, 0)
        with pytest.raises(LyapunovConfigError, match="samples must be >= 1"):
            lyapunov.composite_condition_check(lyapunov._lasso_sc(), samples, 0)

    def test_negative_seed_refused(self):
        # numpy's generator raised ValueError, which the CLI reported as a
        # failed certificate (exit 1) with a traceback
        model, lyap = lyapunov.pairing_hb()
        with pytest.raises(LyapunovConfigError, match="seed must be >= 0"):
            strong_condition_check(model, lyap, 10, -1)
        with pytest.raises(LyapunovConfigError, match="seed must be >= 0"):
            verify_pairing("hb", 10, -1)

    @pytest.mark.parametrize("kind, oracle, name", [
        ("gradient", make_quadratic([1.0, 4.0], [1.0, -2.0]), "gd_combined"),
        ("gradient", make_logcosh(2.0, dim=2), "gf_convex"),
        ("scaled_gradient", make_logcosh(2.0, dim=2), "scaled"),
        ("heavy_ball", make_quadratic([1.0, 4.0], [1.0, -2.0]), "hb"),
        ("avd_r3", make_quadratic([1.0, 4.0], [1.0, -2.0]), "avd"),
        ("hnag", make_quadratic([1.0, 4.0], [1.0, -2.0]), "hnag"),
    ])
    def test_flow_pairing(self, kind, oracle, name):
        model, lyap = lyapunov.flow_pairing(kind, oracle)
        want_model, want = lyapunov._PAIRINGS[name](oracle)
        assert model.kind == want_model.kind == kind and model.oracle is oracle
        assert (lyap.kind, lyap.domain, lyap.strong_params.q) == \
            (want.kind, want.domain, want.strong_params.q)

    def test_flow_pairing_unknown_kind(self):
        with pytest.raises(LyapunovConfigError, match="unknown flow model"):
            lyapunov.flow_pairing("verlet", make_quadratic([1.0], [0.0]))

    def test_composite_pairing_needs_composite(self):
        with pytest.raises(LyapunovConfigError, match="needs a composite objective"):
            lyapunov.composite_condition_check(QUAD, 10, 0)

    def test_convex_composite_pairing_needs_r0_and_f0(self):
        o = dataclasses.replace(lyapunov._lasso_convex(), radius_r0=None)
        with pytest.raises(LyapunovConfigError, match="needs R0 and f0"):
            lyapunov.composite_condition_check(o, 10, 0)
        with pytest.raises(LyapunovConfigError, match="needs R0 and f0"):
            strong_condition_check(*lyapunov.pairing_composite_convex(o), 10, 0)

    @pytest.mark.parametrize("name, problem", [
        ("composite_sc", QUAD),
        ("composite_convex", make_logcosh(2.0, dim=2)),
    ])
    def test_composite_pairings_pass_on_smooth_objective(self, name, problem):
        # on a smooth f the prox point is the box point and xi is grad f
        report = strong_condition_check(*lyapunov._PAIRINGS[name](problem), 2000, 0)
        assert report["pass"], report
        assert report["samples"] == 2000

    @pytest.mark.parametrize("kind, problem", [
        *((kind, "_lasso_sc") for kind in flows.FLOWS),
        *((kind, "_lasso_convex") for kind in flows.FLOWS if kind != "heavy_ball"),
    ])
    def test_flow_pairings_pass_on_composite_objective(self, kind, problem):
        # every flow moves on the subgradient xi that each prox point carries
        report = strong_condition_check(
            *lyapunov.flow_pairing(kind, getattr(lyapunov, problem)()), 2000, 0)
        assert report["pass"], report
        assert report["samples"] == 2000

    @pytest.mark.parametrize("kind", ["scaled_gradient", "avd_r3", "hnag"])
    def test_dropped_subgradient_fails(self, kind, monkeypatch):
        # states that carry grad h(x) in place of xi drop g's subgradient
        sample = lyapunov._sample_states

        def grad_h_only(flow, *args):
            for st, draws in sample(flow, *args):
                st.grad = flow.oracle.grad_h(st.x)
                yield st, draws

        monkeypatch.setattr(lyapunov, "_sample_states", grad_h_only)
        report = strong_condition_check(
            *lyapunov.flow_pairing(kind, lyapunov._lasso_convex()), 10_000, 0)
        assert not report["pass"]
        assert report["violations"] > 5000

    @pytest.mark.parametrize("problem", ["_lasso_sc", "_lasso_convex"])
    def test_inflated_hnag_rate_fails_on_composite_objective(self, problem):
        # c = 1 is tight on a LASSO: the slack is mu-strong convexity along xi
        o = getattr(lyapunov, problem)()
        report = strong_condition_check(*lyapunov.pairing_hnag(o, c_override=1.05), 10_000, 0)
        assert not report["pass"]
        assert report["violations"] >= 50

    def test_reference_problem_built_once(self, monkeypatch):
        # the pairing's LASSO is built on first use and shared by later calls
        built = []

        def counting_make_lasso(*args):
            built.append(args)
            return make_lasso(*args)

        monkeypatch.setattr(lyapunov, "make_lasso", counting_make_lasso)
        lyapunov._lasso_convex.cache_clear()
        first = verify_pairing("composite_convex", 200, 0)
        assert verify_pairing("composite_convex", 200, 0) == first
        assert len(built) == 1

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


class TestHnagDissipation:
    def test_p_sq_is_grad_sq_over_lip_plus_spread(self):
        # p^2 = (1.0 / L) |g|^2 + mu/2 |x - v|^2 bit for bit; with L = 3,
        # |g|^2 / L rounds differently on some states
        oracle = make_quadratic([1.0, 3.0], [1.0, -2.0])
        model, lyap = lyapunov.pairing_hnag(oracle)
        st = next(lyapunov._sample_states(model, 200, 0))[0]
        g, d = oracle.grad_h(st.x), st.x - st.v
        spread = 0.5 * oracle.mu * rowdot(d, d)
        assert np.array_equal(lyap.strong_params.p_sq(st),
                              (1.0 / oracle.lip) * rowdot(g, g) + spread)
        assert not np.array_equal(lyap.strong_params.p_sq(st),
                                  rowdot(g, g) / oracle.lip + spread)


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
        # rows laid out [log-radius u | x | v | gamma] on a mu = 0 composite f
        monkeypatch.setattr(lyapunov, "_BLOCK_VALUES", block_values)
        model = flows.FlowModel("hnag", lyapunov._lasso_convex())
        f0 = model.oracle.f0_level
        blocks = list(lyapunov._sample_states(model, 400, 3, f0))
        ref, ref_draws = reference_states(model, 400, 3, f0)
        assert blocks[-1][1] == ref_draws > 400
        for block in ("x", "v", "gamma", "grad"):
            assert np.array_equal(np.concatenate([getattr(st, block) for st, _ in blocks]),
                                  np.array([getattr(st, block) for st in ref])), block

    @pytest.mark.parametrize("block_values", [lyapunov._BLOCK_VALUES, 64])
    @pytest.mark.parametrize("name", ["composite_sc", "composite_convex"])
    def test_composite_report_matches_per_sample_loop(self, name, block_values, monkeypatch):
        monkeypatch.setattr(lyapunov, "_BLOCK_VALUES", block_values)
        model, lyap = getattr(lyapunov, "pairing_" + name)()
        report = strong_condition_check(model, lyap, 500, 4)
        ref = reference_composite_check(model.oracle, 500, 4)
        for key in ("samples", "draws", "min_slack", "violations", "arg_min_x"):
            assert report[key] == ref[key], key

    def test_inflated_composite_rate_matches_per_sample_loop(self):
        o = lyapunov._lasso_sc()
        report = lyapunov.composite_condition_check(o, 2000, 0, c_override=2.0 * o.mu)
        ref = reference_composite_check(o, 2000, 0, c=2.0 * o.mu)
        assert report["violations"] > 0 and not report["pass"]
        for key in ("samples", "draws", "min_slack", "violations", "arg_min_x"):
            assert report[key] == ref[key], key

    @pytest.mark.parametrize("block_values", [lyapunov._BLOCK_VALUES, 64])
    @pytest.mark.parametrize("name, problem", [
        ("hnag", None), ("avd", None), ("gf_convex", None),
        ("hnag", "_lasso_sc"), ("hnag", "_lasso_convex"),
    ], ids=["hnag", "avd", "gf_convex", "hnag-lasso_sc", "hnag-lasso_convex"])
    def test_pairing_report_matches_per_sample_loop(self, name, problem, block_values,
                                                    monkeypatch):
        # 64 uniforms per block splits the draws over many blocks
        monkeypatch.setattr(lyapunov, "_BLOCK_VALUES", block_values)
        oracle = getattr(lyapunov, problem)() if problem else None
        model, lyap = getattr(lyapunov, "pairing_" + name)(oracle)
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

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    def test_oracle_rejects_negative_start(self, case):
        with pytest.raises(SequenceParameterError):
            sequence_decay_oracle(case, -1.0, 0.5, 10)

    @pytest.mark.parametrize("case, alpha", [(1, 1.0), (1, -0.5), (2, -0.5)])
    def test_oracle_rejects_step_factor_out_of_range(self, case, alpha):
        with pytest.raises(SequenceParameterError):
            sequence_decay_oracle(case, 1.0, alpha, 10)

    def test_unknown_case_rejected(self):
        with pytest.raises(SequenceParameterError):
            sequence_decay(5, 1.0, 0.1, 1)

    @pytest.mark.parametrize("case", [1, 2, 3, 4])
    @pytest.mark.parametrize("a0, alpha", [(1.0, math.nan), (1.0, math.inf), (math.nan, 0.5)])
    def test_oracle_rejects_nonfinite_input(self, case, a0, alpha):
        # a NaN alpha made every bound NaN, which the oracle skipped: it
        # reported max_ratio 0.0 and passed in all four cases
        with pytest.raises(SequenceParameterError, match="finite"):
            sequence_decay_oracle(case, a0, alpha, 20)

    def test_oracle_fails_on_nan_ratio(self):
        # case 4's extremal step divides by alpha: at alpha = 0 every
        # sequence is NaN, which max() dropped
        with np.errstate(invalid="ignore"):
            report = sequence_decay_oracle(4, 1.0, 0.0, 20)
        assert report["pass"] is False and math.isnan(report["max_ratio"])
