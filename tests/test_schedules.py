import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapopt import schedules
from lyapopt.schedules import (
    ScheduleError,
    avd_alpha,
    gamma_step,
    iterate_schedule,
    momentum_alpha,
    new_apg_alpha,
    rho_bound,
)

from paper_identities import avd_gamma_bound, gamma_closed_form

GRID_R = [0.25, 1.0, 4.0]
GRID_Q = [0.0, 1e-4, 1e-2, 1.0]


class TestGammaRecursion:
    def test_fixed_point_at_mu(self):
        assert gamma_step(2.0, 0.7, 2.0) == pytest.approx(2.0)

    @given(st.floats(0.01, 10), st.floats(0.01, 5), st.floats(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_moves_toward_mu(self, gamma, alpha, mu):
        out = gamma_step(gamma, alpha, mu)
        assert min(gamma, mu) - 1e-12 <= out <= max(gamma, mu) + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(ScheduleError):
            gamma_step(0.0, 1.0, 1.0)
        with pytest.raises(ScheduleError):
            gamma_step(1.0, -1.0, 1.0)
        with pytest.raises(ScheduleError):
            gamma_step(1.0, 1.0, -1.0)

    @pytest.mark.parametrize("rule", ["nag", "apg", "new_apg", "fast_grad"])
    @pytest.mark.parametrize("r", GRID_R)
    @pytest.mark.parametrize("q", GRID_Q)
    def test_closed_form_matches_iteration(self, rule, r, q):
        lip = 3.0
        gamma0, mu = r * lip, q * lip
        alphas, gammas, _ = map(np.array, iterate_schedule(rule, gamma0, mu, lip, 200))
        t_seq = alphas / gammas[:-1]
        for k in (1, 50, 200):
            closed = gamma_closed_form(gamma0, mu, t_seq[:k])
            assert abs(closed - gammas[k]) <= 1e-12 * max(1.0, gammas[k])

    def test_mu_zero_branch(self):
        assert gamma_closed_form(2.0, 0.0, [1.0, 1.0]) == pytest.approx(2.0 / 5.0)


def numpy_indexed_schedule(rule, gamma0, mu, lip, k_max):
    """iterate_schedule as a loop over numpy element reads and writes."""
    alpha_fn = schedules.STEP_RULES[rule]
    gammas, rhos, alphas = np.empty(k_max + 1), np.empty(k_max + 1), np.empty(k_max)
    gammas[0], rhos[0] = gamma0, 1.0
    for k in range(k_max):
        a = alpha_fn(gammas[k], lip)
        alphas[k] = a
        gammas[k + 1] = gamma_step(gammas[k], a, mu)
        rhos[k + 1] = rhos[k] / (1.0 + a)
    return alphas, gammas, rhos


class TestIterateSchedule:
    @pytest.mark.parametrize("rule", ["nag", "apg", "new_apg", "fast_grad"])
    @pytest.mark.parametrize("r", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("q", [0.0, 1e-3])
    def test_matches_numpy_indexed_loop(self, rule, r, q):
        got = iterate_schedule(rule, r, q, 1.0, 1000)
        want = numpy_indexed_schedule(rule, r, q, 1.0, 1000)
        for a, b in zip(got, want):
            assert all(type(v) is float for v in a)
            assert np.array(a, dtype=float).tobytes() == b.tobytes()

    def test_steps_through_gamma_step(self, monkeypatch):
        calls = []
        step = schedules.gamma_step
        monkeypatch.setattr(schedules, "gamma_step",
                            lambda *a: calls.append(a) or step(*a))
        iterate_schedule("nag", 1.0, 0.0, 1.0, 7)
        assert len(calls) == 7

    def test_invalid_inputs(self):
        with pytest.raises(ScheduleError):
            iterate_schedule("nag", 1.0, 0.0, 1.0, -1)
        with pytest.raises(ScheduleError):
            iterate_schedule("nag", 1.0, 0.0, 0.0, 10)
        # a negative gamma0 reached math.sqrt in the step rule (ValueError)
        for gamma0 in (0.0, -1.0):
            with pytest.raises(ScheduleError, match="gamma0 > 0"):
                iterate_schedule("apg", gamma0, 0.0, 1.0, 0)
        alphas, gammas, rhos = iterate_schedule("apg", 1.0, 0.0, 1.0, 0)
        assert alphas == [] and gammas == [1.0] and rhos == [1.0]


class TestStepRules:
    @given(st.floats(0.01, 100), st.floats(0.01, 100))
    @settings(max_examples=200, deadline=None)
    def test_quadratic_root(self, gamma, lip):
        a = new_apg_alpha(gamma, lip)
        assert a > 0
        assert lip * a * a == pytest.approx(gamma * (1 + a), rel=1e-10)

    @pytest.mark.parametrize("gamma, lip", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_new_apg_alpha_rejects_nonpositive(self, gamma, lip):
        with pytest.raises(ScheduleError):
            new_apg_alpha(gamma, lip)

    def test_named_rules_satisfy_defining_equations(self):
        gamma, lip = 2.0, 5.0
        a = schedules.nag_alpha(gamma, lip)
        assert lip * a * a == pytest.approx(gamma * (2 + a))
        a = schedules.new_apg_alpha(gamma, lip)
        assert lip * a * a == pytest.approx(gamma * (1 + a))
        assert schedules.apg_alpha(gamma, lip) == pytest.approx(math.sqrt(gamma / lip))
        assert schedules.fast_grad_alpha(gamma, lip) == pytest.approx(
            math.sqrt(gamma / (4 * lip)))

    def test_nag_alpha_example(self):
        # gamma = L gives the root of a^2 = 2 + a, which is 2
        assert schedules.nag_alpha(7.0, 7.0) == pytest.approx(2.0)

    def test_new_apg_golden_ratio(self):
        assert schedules.new_apg_alpha(1.0, 1.0) == pytest.approx((1 + math.sqrt(5)) / 2)

    def test_momentum_alpha_feasible(self):
        for mu, lip in [(0.1, 1.0), (1.0, 1.0), (1e-4, 3.0)]:
            a = momentum_alpha(mu, lip)
            assert a == math.sqrt(mu / lip)
            assert lip * a * a <= mu * (1 + a) + 1e-12

    def test_momentum_rejects_mu_zero(self):
        with pytest.raises(ScheduleError):
            momentum_alpha(0.0, 1.0)

    @given(st.floats(0, 50), st.floats(0.1, 50))
    @settings(max_examples=200, deadline=None)
    def test_avd_alpha_defining_equation(self, gamma, lip):
        a = avd_alpha(gamma, lip)
        assert lip * a * a == pytest.approx(1 + a * math.sqrt(gamma), rel=1e-9)
        assert a >= 1.0 / math.sqrt(lip) - 1e-12


class TestRhoBounds:
    @pytest.mark.parametrize("rule", ["nag", "apg", "new_apg", "fast_grad"])
    @pytest.mark.parametrize("r", GRID_R)
    @pytest.mark.parametrize("q", GRID_Q)
    def test_measured_product_below_bound(self, rule, r, q):
        lip = 2.0
        gamma0, mu = r * lip, q * lip
        if gamma0 < mu:
            with pytest.raises(ScheduleError):
                rho_bound(rule, gamma0, mu, lip, 10)
            return
        _, _, rhos = iterate_schedule(rule, gamma0, mu, lip, 500)
        for k in range(0, 501, 25):
            rate_rule = {"apg": "b0", "new_apg": "b_half"}.get(rule, rule)
            assert rhos[k] <= rho_bound(rate_rule, gamma0, mu, lip, k) * (1 + 1e-12)

    def test_k_zero_is_one(self):
        for rule in ("b0", "b_half", "nag", "fast_grad"):
            assert rho_bound(rule, 1.0, 0.1, 1.0, 0) == pytest.approx(1.0)

    def test_rho_below_gamma_ratio(self):
        # rho_k <= gamma_k / gamma_0 along every coupled schedule
        for rule in ("nag", "apg", "new_apg", "fast_grad"):
            _, gammas, rhos = map(np.array, iterate_schedule(rule, 2.0, 0.3, 2.0, 100))
            assert np.all(rhos <= gammas / gammas[0] + 1e-12)

    def test_gamma0_below_mu_rejected(self):
        with pytest.raises(ScheduleError):
            rho_bound("b0", 0.5, 1.0, 1.0, 3)

    def test_b0_formula_value(self):
        # r = 1, mu = 0: ((sqrt(2)+1)/(sqrt(2)+1+k))^2
        c = math.sqrt(2.0) + 1.0
        for k in (0, 1, 7, 100):
            assert rho_bound("b0", 1.0, 0.0, 1.0, k) == pytest.approx((c / (c + k)) ** 2)

    def test_fast_grad_equals_b0_with_quadrupled_lip(self):
        for r in GRID_R:
            for q in (0.0, 1e-3, 0.01):
                for k in (1, 10, 200):
                    a = rho_bound("fast_grad", r * 1.0, q, 1.0, k)
                    b = rho_bound("b0", r * 1.0, q, 4.0, k)
                    assert a == pytest.approx(b, rel=1e-12)


# The per-rule bound formulas, one helper each and evaluated afresh at
# every k: the reference rho_bound's rule table must match bit for bit.
def _ref_sublinear_b0(r, k):
    c = 1.0 + math.sqrt(1.0 + max(r, math.sqrt(r)))
    return (c / (c + math.sqrt(r) * k)) ** 2


def _ref_sublinear_bhalf(r, k):
    return (2.0 / (2.0 + math.sqrt(r) * k)) ** 2


def _ref_sublinear_nag(r, k):
    s2 = math.sqrt(2.0)
    return (s2 / (s2 + math.sqrt(r) * k)) ** 2


def _ref_linear(mu_over_l, k, factor=1.0):
    return (1.0 + math.sqrt(factor * mu_over_l)) ** (-k)


def reference_rho_bound(rule, gamma0, mu, lip, k):
    if gamma0 <= 0 or lip <= 0 or mu < 0 or k < 0:
        raise ScheduleError("invalid rho_bound parameters")
    if gamma0 < mu:
        raise ScheduleError("accelerated bounds require gamma0 >= mu")
    r = gamma0 / lip
    q = mu / lip
    if rule in ("b0", "apg"):
        bound = min(_ref_sublinear_b0(r, k), _ref_linear(q, k))
    elif rule in ("b_half", "new_apg"):
        bound = min(_ref_sublinear_bhalf(r, k), _ref_linear(q, k))
    elif rule == "nag":
        bound = min(_ref_sublinear_nag(r, k), _ref_linear(q, k, factor=2.0))
    elif rule == "fast_grad":
        bound = min(_ref_sublinear_b0(gamma0 / (4.0 * lip), k), _ref_linear(q / 4.0, k))
    else:
        raise ScheduleError(f"unknown rate rule: {rule!r}")
    return math.nan if math.isnan(r) or math.isnan(q) else bound


def same_float(a, b):
    """a and b are the same float: equal with the same sign, or both NaN."""
    if type(a) is not float or type(b) is not float:
        return False
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


RATE_RULES = ("b0", "apg", "b_half", "new_apg", "nag", "fast_grad")
PIN_KS = [*range(61), 999, 1000, 10**6]


def pin_parameters():
    """(gamma0, mu, lip) over the pinned grid of r, mu/L and L, then NaN r,
    NaN mu/L, mu = -0.0 and int arguments."""
    params = [(r * lip, q * lip, lip) for r in (0.25, 1.0, 4.0, 3.7)
              for q in (0.0, 1e-3, 0.2) for lip in (1.0, 2.5)]
    params += [(math.nan, 0.0, 1.0), (math.nan, 1e-3, 2.5), (1.0, math.nan, 1.0),
               (4.0, math.nan, 2.5), (1.0, -0.0, 1.0), (3.7, -0.0, 2.5),
               (1, 0, 1), (4, 0, 1), (5, 1, 2), (1, 0.2, 1), (10, 0, 3)]
    return params


class TestRhoBoundPinned:
    @pytest.mark.parametrize("rule", RATE_RULES)
    def test_matches_reference_bit_for_bit(self, rule):
        for gamma0, mu, lip in pin_parameters():
            for k in PIN_KS:
                got = rho_bound(rule, gamma0, mu, lip, k)
                want = reference_rho_bound(rule, gamma0, mu, lip, k)
                assert same_float(got, want), (rule, gamma0, mu, lip, k, got, want)

    @pytest.mark.parametrize("rule", RATE_RULES)
    def test_argument_types_kept_apart(self, rule):
        # the terms are cached per parameter set: a float32 or int argument
        # equal to a float one must still be computed as given
        for args in [(1.0, 0.0, 3.0), (np.float32(1.0), np.float32(0.0), np.float32(3.0)),
                     (1, 0, 3), (2**60, 0, 3), (2.0**60, 0.0, 3.0)]:
            for k in (0, 1, 7, 1000):
                assert same_float(rho_bound(rule, *args, k),
                                  reference_rho_bound(rule, *args, k)), (args, k)

    @pytest.mark.parametrize("args, message", [
        # k < 0 comes first, then the other parameters, then gamma0 >= mu,
        # then the rule name
        (("bogus", 0.5, 1.0, 1.0, -1), "invalid rho_bound parameters"),
        (("bogus", 0.5, 1.0, -1.0, 3), "invalid rho_bound parameters"),
        (("bogus", 0.0, 1.0, 1.0, 3), "invalid rho_bound parameters"),
        (("bogus", 1.0, -1.0, 1.0, 3), "invalid rho_bound parameters"),
        (("bogus", 0.5, 1.0, 1.0, 3), "require gamma0 >= mu"),
        (("bogus", 1.0, 0.0, 1.0, 3), "unknown rate rule"),
    ])
    def test_refusal_order(self, args, message):
        with pytest.raises(ScheduleError, match=message):
            rho_bound(*args)
        with pytest.raises(ScheduleError, match=message):
            reference_rho_bound(*args)


class TestRhoBoundMemo:
    """rho_bound remembers the last parameter set by identity; every answer
    must still be the reference's for the arguments as given."""

    @pytest.mark.parametrize("rule", RATE_RULES)
    def test_interleaved_parameter_sets(self, rule):
        sets = [(1.0, 0.0, 1.0), (4.0, 1e-3, 1.0), (1.0, 0.0, 2.5), (0.25, 0.2, 2.5)]
        for k in (*range(8), 1000):
            for args in sets + sets[::-1]:
                assert same_float(rho_bound(rule, *args, k),
                                  reference_rho_bound(rule, *args, k)), (args, k)

    @pytest.mark.parametrize("rule", RATE_RULES)
    def test_equal_values_of_other_types(self, rule):
        # each follows an equal-valued set of another type, as in
        # TestRhoBoundPinned's typed cases
        sets = [(1.0, 0.0, 3.0), (np.float32(1.0), np.float32(0.0), np.float32(3.0)),
                (1, 0, 3), (float("1"), float("0"), float("3")), (2**60, 0, 3),
                (2.0**60, 0.0, 3.0), (np.float32(2.0**60), np.float32(0.0), np.float32(3.0))]
        for k in (0, 1, 7, 1000):
            for args in sets + sets[::-1]:
                assert same_float(rho_bound(rule, *args, k),
                                  reference_rho_bound(rule, *args, k)), (args, k)

    def test_float32_terms_differ_from_float(self):
        # so an equality-keyed memo would answer the float32 set wrongly
        assert rho_bound("b0", np.float32(1.0), np.float32(0.0), np.float32(3.0), 7) != \
            rho_bound("b0", 1.0, 0.0, 3.0, 7)

    @pytest.mark.parametrize("rule", RATE_RULES)
    def test_nan_parameter(self, rule):
        nan, other_nan = math.nan, float("nan")
        for args in [(nan, 0.0, 1.0), (nan, 0.0, 1.0), (other_nan, 0.0, 1.0),
                     (1.0, nan, 1.0), (1.0, 0.0, 1.0), (1.0, nan, 1.0)]:
            for k in (0, 3):
                assert same_float(rho_bound(rule, *args, k),
                                  reference_rho_bound(rule, *args, k)), (args, k)

    def test_refused_set_raises_again(self):
        gamma0, mu, lip = 0.5, 1.0, 1.0
        for _ in range(2):
            assert same_float(rho_bound("nag", 1.0, 0.0, 1.0, 3),
                              reference_rho_bound("nag", 1.0, 0.0, 1.0, 3))
            for _ in range(2):
                with pytest.raises(ScheduleError, match="require gamma0 >= mu"):
                    rho_bound("nag", gamma0, mu, lip, 3)
        # the same objects under a valid rule, then an unknown rule, then k < 0
        one, zero = 1.0, 0.0
        assert same_float(rho_bound("nag", one, zero, one, 3),
                          reference_rho_bound("nag", one, zero, one, 3))
        with pytest.raises(ScheduleError, match="unknown rate rule"):
            rho_bound("bogus", one, zero, one, 3)
        with pytest.raises(ScheduleError, match="invalid rho_bound parameters"):
            rho_bound("nag", one, zero, one, -1)

    def test_table_looks_its_terms_up_once(self, monkeypatch):
        calls = []
        terms = schedules._rate_terms
        monkeypatch.setattr(schedules, "_last_terms", (None,) * 5)
        monkeypatch.setattr(schedules, "_rate_terms",
                            lambda *a: calls.append(a) or terms(*a))
        r, q, lip = 0.25, 1e-3, 1.0
        for k in range(1001):
            rho_bound("nag", r, q, lip, k)
        assert calls == [("nag", r, q, lip)]


class TestAvdGammaBound:
    def test_measured_gamma_below_bound(self):
        lip = 1.0
        for r in GRID_R:
            gamma = r * lip
            gamma0 = gamma
            for k in range(1, 300):
                a = avd_alpha(gamma, lip)
                gamma = gamma / (1 + a * math.sqrt(gamma))
                assert gamma / gamma0 <= avd_gamma_bound(r, k) * (1 + 1e-12)

    def test_k_zero_prefactor_at_least_one(self):
        for r in GRID_R:
            assert avd_gamma_bound(r, 0) >= 1.0
