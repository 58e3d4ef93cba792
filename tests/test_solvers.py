import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapopt import harness, schedules, solvers
from lyapopt.problems import box_rng, make_lasso, make_logcosh, make_quadratic
from lyapopt.solvers import (
    SolverState,
    UnsupportedSolverError,
    init_state,
    momentum_two_sequence,
    run,
    step_apg_fast_grad,
    step_gd,
    step_momentum,
    step_new_apg,
    step_pg,
    step_ppa,
)

QUAD = make_quadratic([1.0, 4.0], [1.0, -2.0])


def sc_lasso():
    rng = box_rng(31)
    a = rng.standard_normal((12, 8)) + 2.0 * np.eye(12, 8)
    return make_lasso(a, rng.standard_normal(12), 0.5)


def convex_lasso():
    rng = box_rng(32)
    a = rng.standard_normal((8, 20))
    return make_lasso(a, rng.standard_normal(8), 0.5)


class TestSingleSteps:
    def test_ppa_quadratic_prox(self):
        o = make_quadratic([2.0], [4.0])
        new = step_ppa(o, SolverState(k=0, x=np.array([0.0])), 1.0)
        assert new.x[0] == pytest.approx(4.0 / 3.0)

    def test_ppa_scalar_contraction(self):
        mu = 3.0
        o = make_quadratic([mu], [0.0])
        new = step_ppa(o, SolverState(k=0, x=np.array([1.0])), 1.0)
        assert new.x[0] == pytest.approx(1.0 / (1.0 + mu))

    def test_ppa_needs_prox(self):
        with pytest.raises(UnsupportedSolverError):
            step_ppa(convex_lasso(), SolverState(k=0, x=np.zeros(20)), 1.0)

    def test_gd_one_step_exact(self):
        o = make_quadratic([5.0], [0.0])
        new = step_gd(o, SolverState(k=0, x=np.array([1.0])), 1.0 / 5.0)
        assert new.x[0] == pytest.approx(0.0, abs=1e-15)

    def test_pg_soft_threshold_example(self):
        o = make_lasso(np.eye(2), np.array([1.0, 0.0]), 0.5)
        new = step_pg(o, SolverState(k=0, x=np.zeros(2)), 1.0)
        assert np.allclose(new.x, [0.5, 0.0])

    def test_pg_on_smooth_problem_is_gd(self):
        st = SolverState(k=0, x=np.array([2.0, -1.0]))
        a = step_pg(QUAD, st, 0.3).x
        b = step_gd(QUAD, st, 0.3).x
        assert np.array_equal(a, b)

    def test_pg_descent_lemma(self):
        # f(x') - f(x) <= -|d_{k+1}|^2 / (2L) at the 1/L step
        o = convex_lasso()
        rng = box_rng(4)
        for _ in range(50):
            st = SolverState(k=0, x=rng.uniform(-2, 2, o.dim))
            new = step_pg(o, st, 1.0 / o.lip)
            drop = o.eval_f(new.x) - o.eval_f(st.x)
            dsq = float(np.dot(new.aux["d_next"], new.aux["d_next"]))
            assert drop <= -dsq / (2.0 * o.lip) + 1e-9

    def test_pg_gradient_mapping_descent(self):
        # the same descent bound phrased in the gradient mapping d_{k+1/2}
        o = sc_lasso()
        rng = box_rng(5)
        for alpha in (0.3 / o.lip, 1.0 / o.lip, 1.9 / o.lip):
            for _ in range(25):
                st = SolverState(k=0, x=rng.uniform(-2, 2, o.dim))
                new = step_pg(o, st, alpha)
                drop = o.eval_f(new.x) - o.eval_f(st.x)
                dsq = float(np.dot(new.aux["d_half"], new.aux["d_half"]))
                bound = alpha * (o.lip * alpha / 2.0 - 1.0) * dsq
                assert drop <= bound + 1e-9 * (1.0 + dsq)

    def test_pg_descent_constant_is_tight(self):
        # scalar L-strongly-convex quadratic: the descent equals
        # alpha (L alpha / 2 - 1) |d|^2 exactly, so no mu-dependent
        # sharpening of the constant can hold
        lip = 2.0
        o = make_quadratic([lip], [0.0])
        for alpha in (0.2, 0.5, 0.9):
            st = SolverState(k=0, x=np.array([1.0]))
            new = step_pg(o, st, alpha)
            drop = o.eval_f(new.x) - o.eval_f(st.x)
            dsq = float(np.dot(new.aux["d_half"], new.aux["d_half"]))
            assert drop == pytest.approx(alpha * (lip * alpha / 2.0 - 1.0) * dsq)
            sharpened = alpha * ((lip - o.mu) * alpha / 2.0 - 1.0) * dsq
            assert drop > sharpened + 1e-12

    def test_momentum_one_step_exact_when_mu_equals_lip(self):
        o = make_quadratic([1.0], [0.0])
        st = SolverState(k=0, x=np.array([3.0]), v=np.array([-1.0]))
        new = step_momentum(o, st, 1.0)
        assert new.x[0] == pytest.approx(0.0, abs=1e-15)

    def test_momentum_requires_strong_convexity(self):
        o = make_logcosh(2.0, dim=2)
        with pytest.raises(UnsupportedSolverError):
            step_momentum(o, SolverState(k=0, x=np.ones(2), v=np.ones(2)), 0.5)
        with pytest.raises(UnsupportedSolverError):
            solvers.step_hb_gs(o, SolverState(k=0, x=np.ones(2), v=np.ones(2)), 0.5)

    def test_nag_rejects_composite(self):
        o = convex_lasso()
        with pytest.raises(UnsupportedSolverError):
            run(o, "nag", np.zeros(20))

    def test_nag_alpha_two_at_gamma_equals_lip(self):
        st = init_state(QUAD, "nag", np.array([2.0, 0.0]), gamma0=QUAD.lip)
        assert solvers.step_nag(QUAD, st).alpha == pytest.approx(2.0)

    def test_new_apg_golden_ratio_alpha(self):
        o = convex_lasso()
        st = init_state(o, "new_apg", np.zeros(o.dim), gamma0=o.lip)
        new = step_new_apg(o, st)
        assert new.alpha == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0)

    def test_apg_alpha_update_mu_zero(self):
        o = convex_lasso()
        st = init_state(o, "apg", np.zeros(o.dim), gamma0=o.lip)
        assert st.alpha == pytest.approx(1.0)
        new = solvers.step_apg(o, st)
        assert new.alpha == pytest.approx(math.sqrt(0.5))

    def test_fast_grad_unit_alpha_and_key_identity(self):
        o = convex_lasso()
        st = init_state(o, "apg_fast_grad", np.zeros(o.dim), gamma0=4.0 * o.lip)
        new = step_apg_fast_grad(o, st)
        assert new.alpha == pytest.approx(1.0)
        assert new.aux["key_identity_err"] <= 1e-12

    def test_avd_gs_needs_alpha(self):
        st = init_state(QUAD, "avd_gs", np.ones(2))
        with pytest.raises(UnsupportedSolverError):
            solvers.step_avd(QUAD, st, "gs", None)

    def test_avd_unknown_variant(self):
        st = init_state(QUAD, "avd_grad", np.ones(2))
        with pytest.raises(UnsupportedSolverError):
            solvers.step_avd(QUAD, st, "midpoint", 0.5)


class TestFixedPoints:
    @pytest.mark.parametrize("kind", solvers.SOLVER_KINDS)
    def test_trace_flat_from_minimizer(self, kind):
        oracle = convex_lasso() if kind in ("pg", "apg", "apg_fast_grad",
                                            "new_apg") else QUAD
        res = run(oracle, kind, oracle.x_star, v0=oracle.x_star, iters=5)
        for rec in res.records:
            assert rec.f_gap <= 1e-12
            assert rec.lyapunov <= 1e-12


class TestCertificates:
    def check(self, res):
        assert res.certified
        assert res.violations == 0
        vals = [r.lyapunov for r in res.records]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-9 * (1.0 + a)

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    def test_ppa(self, alpha):
        self.check(run(QUAD, "ppa", [4.0, -3.0], iters=200, alpha=alpha))

    def test_gd_optimal_step(self):
        o = QUAD
        res = run(o, "gd", [4.0, -3.0], iters=1000)
        self.check(res)
        factor = (o.lip - o.mu) / (o.lip + o.mu)
        vals = [r.lyapunov for r in res.records]
        for a, b in zip(vals, vals[1:]):
            assert b <= factor * a + 1e-12

    def test_gd_inverse_lip_step(self):
        res = run(QUAD, "gd", [4.0, -3.0], iters=500, alpha=1.0 / QUAD.lip)
        self.check(res)

    def test_gd_oversized_step_uncertified(self):
        res = run(QUAD, "gd", [4.0, -3.0], iters=10, alpha=3.0 / QUAD.lip)
        assert not res.certified
        assert math.isnan(res.records[-1].slack)

    @pytest.mark.parametrize("oracle", [sc_lasso(), convex_lasso()],
                             ids=["sc", "convex"])
    def test_pg(self, oracle):
        self.check(run(oracle, "pg", np.zeros(oracle.dim), iters=1000))

    @pytest.mark.parametrize("oracle", [QUAD, make_logcosh(2.0, dim=2)],
                             ids=["quadratic", "logcosh"])
    def test_scaled_ppa(self, oracle):
        self.check(run(oracle, "scaled_ppa", oracle.x_star + 2.0,
                       gamma0=oracle.lip, iters=300))

    @pytest.mark.parametrize("variant", ["sqrt", "root"])
    def test_momentum(self, variant):
        self.check(run(QUAD, "momentum", [4.0, -3.0], iters=1000,
                       variant=variant))

    def test_nag(self):
        self.check(run(QUAD, "nag", [4.0, -3.0], iters=1000))

    @pytest.mark.parametrize("kind", ["apg", "apg_fast_grad", "new_apg"])
    @pytest.mark.parametrize("oracle", [sc_lasso(), convex_lasso()],
                             ids=["sc", "convex"])
    def test_accelerated_composite(self, kind, oracle):
        self.check(run(oracle, kind, np.zeros(oracle.dim), iters=1000))

    def test_avd_grad(self):
        self.check(run(QUAD, "avd_grad", [4.0, -3.0], iters=1000))

    @pytest.mark.parametrize("kind", ["hb_gs", "avd_gs"])
    def test_uncertified_schemes_record_lemma_slack(self, kind):
        res = run(QUAD, kind, [4.0, -3.0], iters=500, alpha=0.5)
        assert not res.certified
        for rec in res.records[1:]:
            assert math.isfinite(rec.slack)
            assert rec.slack >= -1e-9 * (1.0 + rec.lyapunov)


class TestEquivalences:
    @pytest.mark.parametrize("variant", ["sqrt", "root"])
    def test_momentum_two_sequence_form(self, variant):
        x0, v0 = np.array([4.0, -3.0]), np.array([0.0, 1.0])
        res = run(QUAD, "momentum", x0, v0=v0, iters=60, variant=variant)
        a = schedules.momentum_alpha(QUAD.mu, QUAD.lip, variant)
        xs = momentum_two_sequence(QUAD, x0, v0, variant, 60)
        st = SolverState(k=0, x=x0.copy(), v=v0.copy())
        for k, x_two in enumerate(xs[1:], start=1):
            st = step_momentum(QUAD, st, a)
            assert np.linalg.norm(st.x - x_two) <= 1e-12

    def test_avd_variants_share_x_iterates(self):
        x0 = np.array([4.0, -3.0])
        res_g = run(QUAD, "avd_grad", x0, iters=200)
        res_e = run(QUAD, "avd_extrap", x0, iters=200)
        for a, b in zip(res_g.records, res_e.records):
            assert abs(a.f_gap - b.f_gap) <= 1e-12 * (1.0 + a.f_gap)
            assert abs(a.lyapunov - b.lyapunov) <= 1e-11 * (1.0 + a.lyapunov)


class TestRatesAndRunLoop:
    def test_bound_dominates_trace(self):
        for kind, oracle in [("gd", QUAD), ("ppa", QUAD), ("nag", QUAD),
                             ("momentum", QUAD), ("avd_grad", QUAD),
                             ("pg", convex_lasso()), ("apg", convex_lasso()),
                             ("new_apg", convex_lasso()),
                             ("apg_fast_grad", convex_lasso())]:
            res = run(oracle, kind, oracle.x_star + 2.0, iters=300)
            for rec in res.records:
                val = rec.lyapunov
                if kind == "nag":
                    val -= rec.grad_norm ** 2 / (2.0 * oracle.lip)
                assert val <= rec.bound + 1e-9 * (1.0 + abs(rec.bound)), (kind, rec.k)

    def test_new_apg_sublinear_rate(self):
        o = convex_lasso()
        res = run(o, "new_apg", np.zeros(o.dim), gamma0=o.lip, iters=500)
        l0 = res.records[0].lyapunov
        for rec in res.records:
            assert rec.lyapunov <= l0 * (2.0 / (2.0 + rec.k)) ** 2 * (1 + 1e-9)

    def test_scaled_ppa_matches_gamma_closed_form(self):
        o = make_logcosh(2.0, dim=2)
        res = run(o, "scaled_ppa", o.x0_ref, gamma0=o.lip, alpha=1.0, iters=100)
        t_seq = []
        for rec in res.records[1:]:
            t_seq.append(rec.alpha / (rec.gamma * (1 + rec.alpha) - rec.alpha * o.mu))
            closed = schedules.gamma_closed_form(o.lip, o.mu, t_seq)
            assert abs(closed - rec.gamma) <= 1e-10 * max(1.0, rec.gamma)

    def test_pgconvex_inequality_at_new_apg_iterates(self):
        # <d_f(y), y - x*> >= f(x') - f* + mu/2 |y - x*|^2 + |d_f|^2 / (2L)
        o = sc_lasso()
        st = init_state(o, "new_apg", np.zeros(o.dim))
        for _ in range(100):
            st = step_new_apg(o, st)
            d_f, y = st.aux["d_f"], st.aux["y"]
            lhs = float(np.dot(d_f, y - o.x_star))
            rhs = (o.eval_f(st.x) - o.f_star
                   + 0.5 * o.mu * float(np.sum((y - o.x_star) ** 2))
                   + float(np.dot(d_f, d_f)) / (2.0 * o.lip))
            assert lhs >= rhs - 1e-9 * (1.0 + abs(rhs))

    def test_stop_tolerance_halts_early(self):
        res = run(QUAD, "gd", [4.0, -3.0], iters=10_000, stop_grad_tol=1e-8)
        assert len(res.records) < 10_001
        assert res.records[-1].grad_norm < 1e-8

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedSolverError):
            run(QUAD, "conjugate_gradient", [1.0, 1.0])


def counting(oracle):
    """oracle with grad_h and eval_f wrapped to count their calls."""
    calls = Counter()

    def counted(name):
        fn = getattr(oracle, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    return dataclasses.replace(oracle, grad_h=counted("grad_h"),
                               eval_f=counted("eval_f")), calls


TWO_GRAD_KINDS = ("momentum", "avd_grad", "avd_extrap")
COMPOSITE_KINDS = ("pg", "apg", "new_apg", "apg_fast_grad")


class TestOracleCallsPerIteration:
    """Each iteration evaluates f once (the gap serves the Lyapunov value
    and the record) and grad_h once per point the method visits: a second
    time only where the step's gradient is taken off the new iterate."""

    def per_iter(self, oracle, kind):
        calls = []
        for iters in (10, 30):
            counted, count = counting(oracle)
            res = run(counted, kind, oracle.x_star + 2.0, iters=iters)
            assert res.nonfinite_at_k is None and len(res.records) == iters + 1
            calls.append(count)
        return {name: (calls[1][name] - calls[0][name]) / 20 for name in ("grad_h", "eval_f")}

    @pytest.mark.parametrize("kind", solvers.SOLVER_KINDS)
    def test_quadratic(self, kind):
        grads = 2 if kind in TWO_GRAD_KINDS else 1
        assert self.per_iter(QUAD, kind) == {"grad_h": grads, "eval_f": 1}

    @pytest.mark.parametrize("kind", COMPOSITE_KINDS)
    @pytest.mark.parametrize("oracle", [sc_lasso(), convex_lasso()], ids=["sc", "convex"])
    def test_lasso(self, kind, oracle):
        assert self.per_iter(oracle, kind) == {"grad_h": 1, "eval_f": 1}

    @pytest.mark.parametrize("kind", solvers.SOLVER_KINDS)
    def test_carried_gradient_is_grad_at_x(self, kind):
        oracle = convex_lasso() if kind in COMPOSITE_KINDS else QUAD
        method = solvers.METHODS[kind]
        alpha = 1.0 / oracle.lip if kind in ("gd", "pg") else \
            method.default_alpha(oracle, "sqrt")
        state = init_state(oracle, kind, oracle.x_star + 2.0)
        for _ in range(5):
            state = method.step(oracle, state, alpha)
            if state.grad is not None:
                assert np.array_equal(state.grad, oracle.grad_h(state.x))


class TestFailClosed:
    def test_nan_start_stops_at_k0(self):
        res = run(QUAD, "gd", [math.nan, 1.0], iters=20)
        assert res.nonfinite_at_k == 0 and len(res.records) == 1

    def test_divergence_stops_at_first_nonfinite_record(self):
        o = make_quadratic([1e-3, 1.0], [0.0, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            res = run(o, "hb_gs", [1.0, 1.0], iters=300, alpha=1.0)
        k = res.nonfinite_at_k
        assert k is not None and res.records[-1].k == k
        last = res.records[-1]
        assert not all(map(math.isfinite, (last.f_gap, last.lyapunov, last.grad_norm)))
        for rec in res.records[:-1]:
            assert all(map(math.isfinite, (rec.f_gap, rec.lyapunov, rec.grad_norm)))

    def test_finite_run_has_no_nonfinite_k(self):
        assert run(QUAD, "nag", [4.0, -3.0], iters=50).nonfinite_at_k is None

    def test_nan_slack_is_a_violation(self, monkeypatch):
        monkeypatch.setitem(solvers.METHODS, "gd",
                            solvers.METHODS["gd"]._replace(slack=lambda *args: math.nan))
        res = run(QUAD, "gd", [4.0, -3.0], iters=7)
        assert res.certified and res.violations == 7


CERTIFIED_KINDS = [kind for kind, method in solvers.METHODS.items() if method.certificate]


@st.composite
def strongly_convex_quadratics(draw):
    """A diagonal quadratic of dim 2-8 with condition number up to 1e4, as
    a problem document, and a start point."""
    dim = draw(st.integers(2, 8))
    mu = 10.0 ** draw(st.floats(-2.0, 2.0))
    log_cond = draw(st.floats(0.0, 4.0))
    # the first and last eigenvalues are mu and mu * 10**log_cond
    spread = [0.0] + draw(st.lists(st.floats(0.0, 1.0), min_size=dim - 2,
                                   max_size=dim - 2)) + [1.0]
    coords = st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim)
    eigs = [mu * 10.0 ** (log_cond * u) for u in spread]
    return {"kind": "quadratic", "eigs": eigs, "b": draw(coords)}, draw(coords)


class TestTableProperty:
    """Every kind whose table entry carries a certificate keeps it, with a
    passing report, on random strongly convex quadratics."""

    @given(strongly_convex_quadratics())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_certified_kinds_pass(self, case):
        problem, x0 = case
        for kind in CERTIFIED_KINDS:
            report = harness.cmd_run({"problem": problem, "solver": kind, "x0": x0})
            assert report["certified"] and report["cert_violations"] == 0, (kind, report)
            assert report["nonfinite_at_k"] is None and report["pass"], (kind, report)
