import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapopt import calculus, flows, harness, lyapunov, schedules, solvers
from lyapopt.problems import (box_rng, make_lasso, make_logcosh, make_quadratic,
                              problem_from_json)
from lyapopt.solvers import (
    SolverState,
    UnsupportedSolverError,
    init_state,
    run,
    step_apg_fast_grad,
    step_gd,
    step_momentum,
    step_new_apg,
    step_pg,
    step_ppa,
)

from paper_identities import gamma_closed_form

QUAD = make_quadratic([1.0, 4.0], [1.0, -2.0])


def momentum_step(mu, lip, variant):
    """A constant momentum step with L a^2 <= mu (1 + a): "sqrt" is the
    library's sqrt(mu / L), "root" the positive root of L a^2 = mu (1 + a)."""
    if variant == "sqrt":
        return schedules.momentum_alpha(mu, lip)
    return (mu + math.sqrt(mu * mu + 4.0 * lip * mu)) / (2.0 * lip)


def momentum_two_sequence(oracle, x0, v0, variant: str, iters: int):
    """Equivalent v-free form of the momentum method; returns the x iterates.

    Eliminating v from the three-stage update under the constant step of
    the given variant leaves a two-term recursion in (x, y).
    """
    a = momentum_step(oracle.mu, oracle.lip, variant)
    x = np.asarray(x0, dtype=float).copy()
    y = (x + a * np.asarray(v0, dtype=float)) / (1.0 + a)
    xs = [x]
    one_a = 1.0 + a
    for _ in range(iters):
        x_next = y - oracle.grad_h(y) / oracle.lip
        if variant == "sqrt":
            y = a * y / one_a - x / one_a ** 2 + (2.0 + a) * x_next / one_a ** 2
        else:
            y = a * a * y / one_a ** 2 - x / one_a ** 2 + 2.0 * x_next / one_a
        x = x_next
        xs.append(x)
    return xs


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
                d_half = (st.x - new.x) / alpha
                dsq = float(np.dot(d_half, d_half))
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
            d_half = (st.x - new.x) / alpha
            dsq = float(np.dot(d_half, d_half))
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
        # a^2 beta^2 L / 2 + a^2 / (2 gamma) - a beta = -1/(4L), beta = 1/(2 L a)
        a, lip = new.alpha, o.lip
        beta = 1.0 / (2.0 * lip * a)
        key_id = a * a * beta * beta * lip / 2.0 + a * a / (2.0 * st.gamma) - a * beta
        assert abs(key_id + 1.0 / (4.0 * lip)) <= 1e-12

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
                       alpha=momentum_step(QUAD.mu, QUAD.lip, variant)))

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
        a = momentum_step(QUAD.mu, QUAD.lip, variant)
        res = run(QUAD, "momentum", x0, v0=v0, iters=60, alpha=a)
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
            # pg's convex-case rate holds from a start in {f <= f0_level}
            x0 = np.zeros(oracle.dim) if kind == "pg" else oracle.x_star + 2.0
            res = run(oracle, kind, x0, iters=300)
            for rec in res.records:
                val = rec.lyapunov
                if kind == "nag":
                    val -= rec.grad_norm ** 2 / (2.0 * oracle.lip)
                assert val <= rec.bound + 1e-9 * (1.0 + abs(rec.bound)), (kind, rec.k)

    def test_pg_convex_start_above_sublevel_set_uncertified(self):
        # f(x* + 2) = 559 > f0_level = 5.98: radius_r0 does not bound the run
        o = convex_lasso()
        x0 = o.x_star + 2.0
        assert o.mu == 0 and o.eval_f(x0) > o.f0_level
        res = run(o, "pg", x0, iters=300)
        assert not res.certified and res.violations == 0
        assert np.isnan(res.trace.bound).all() and np.isnan(res.trace.slack).all()

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
            closed = gamma_closed_form(o.lip, o.mu, t_seq)
            assert abs(closed - rec.gamma) <= 1e-10 * max(1.0, rec.gamma)

    def test_pgconvex_inequality_at_new_apg_iterates(self):
        # <d_f(y), y - x*> >= f(x') - f* + mu/2 |y - x*|^2 + |d_f|^2 / (2L)
        o = sc_lasso()
        st = init_state(o, "new_apg", np.zeros(o.dim))
        for _ in range(100):
            old, st = st, step_new_apg(o, st)
            d_f, y = st.aux["d_f"], (old.x + st.alpha * old.v) / (1.0 + st.alpha)
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
    """oracle with grad_h and eval_f wrapped to count the points they are
    called on: 1 for a point, n for a batch of n."""
    calls = Counter()

    def counted(name):
        fn = getattr(oracle, name)

        def call(x, *args):
            calls[name] += x.shape[0] if np.ndim(x) == 2 else 1
            return fn(x, *args)
        return call

    return dataclasses.replace(oracle, grad_h=counted("grad_h"),
                               eval_f=counted("eval_f")), calls


TWO_GRAD_KINDS = ("momentum", "avd_grad", "avd_extrap")
COMPOSITE_KINDS = ("pg", "apg", "new_apg", "apg_fast_grad")


class TestOracleCallsPerIteration:
    """Each iteration evaluates f at one point (the gap serves the Lyapunov
    value and the record) and grad_h once per point the method visits: a
    second time only where the step's gradient is taken off the new
    iterate.  A batched call counts each of its points."""

    def per_iter(self, oracle, kind):
        # the runs end in the second and third block, so a gradient that
        # the next block's first step takes again would count
        calls = []
        for iters in (260, 600):
            counted, count = counting(oracle)
            res = run(counted, kind, oracle.x_star + 2.0, iters=iters)
            assert res.nonfinite_at_k is None and len(res.records) == iters + 1
            calls.append(count)
        return {name: (calls[1][name] - calls[0][name]) / 340 for name in ("grad_h", "eval_f")}

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
        alpha = 1.0 / oracle.lip if kind in ("gd", "pg") else method.default_alpha(oracle)
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

    @pytest.mark.parametrize("kind, alpha", [("ppa", -0.5), ("gd", 0.0), ("pg", -1.0),
                                             ("nag", 0.0), ("gd", math.nan)])
    def test_nonpositive_alpha_rejected(self, kind, alpha):
        with pytest.raises(UnsupportedSolverError, match="alpha must be positive"):
            run(QUAD, kind, [4.0, -3.0], iters=10, alpha=alpha)

    @pytest.mark.parametrize("kind", [kind for kind, method in solvers.METHODS.items()
                                      if "gamma" in method.blocks])
    @pytest.mark.parametrize("gamma0", [-1.0, 0.0, -0.0, math.nan])
    def test_nonpositive_gamma0_rejected(self, kind, gamma0):
        # at gamma0 = -1 nag, apg, apg_fast_grad and avd_grad raised a math
        # domain error; at gamma0 = 0 nag ran
        with pytest.raises(UnsupportedSolverError, match="gamma0 > 0"):
            run(QUAD, kind, [4.0, -3.0], gamma0=gamma0, iters=10)
        with pytest.raises(UnsupportedSolverError, match="gamma0 > 0"):
            init_state(QUAD, kind, [4.0, -3.0], gamma0=gamma0)

    def test_nan_slack_is_a_violation(self, monkeypatch):
        monkeypatch.setitem(solvers.METHODS, "gd",
                            solvers.METHODS["gd"]._replace(
                                slack=lambda o, b, q_old, q_new: np.full(q_new.size, math.nan)))
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


@st.composite
def lasso_problems(draw):
    """A LASSO of 2-10 rows and columns (Gaussian A, with or without
    + 2 I), rho = 10^U(-1.5, 0.5), as a problem document, and a start point
    in [-5, 5]^n, which for mu = 0 lies almost always above f0_level."""
    m, n = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((m, n)) + (2.0 * np.eye(m, n) if draw(st.booleans()) else 0.0)
    rho = 10.0 ** draw(st.floats(-1.5, 0.5))
    x0 = draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n))
    problem = {"kind": "lasso", "a_matrix": a.tolist(),
               "b": rng.standard_normal(m).tolist(), "rho": rho}
    return problem, x0


class TestTableProperty:
    """Every kind whose table entry carries a certificate keeps it, with a
    passing report, on random strongly convex quadratics and LASSOs."""

    @given(strongly_convex_quadratics())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_certified_kinds_pass(self, case):
        problem, x0 = case
        for kind in CERTIFIED_KINDS:
            report = harness.cmd_run({"problem": problem, "solver": kind, "x0": x0})
            assert report["certified"] and report["cert_violations"] == 0, (kind, report)
            assert report["nonfinite_at_k"] is None and report["pass"], (kind, report)

    @given(lasso_problems())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_composite_kinds_pass(self, case):
        # pg's convex-case rate rests on radius_r0, which covers only the
        # sublevel set {f <= f0_level}: from a start above it the run is
        # uncertified, and every other run is certified
        problem, x0 = case
        oracle = problem_from_json(problem)
        outside = oracle.mu == 0 and oracle.eval_f(np.array(x0)) > oracle.f0_level
        for kind in COMPOSITE_KINDS:
            report = harness.cmd_run({"problem": problem, "solver": kind, "x0": x0})
            assert report["certified"] == (not (kind == "pg" and outside)), (kind, report)
            assert report["cert_violations"] == 0, (kind, report)
            assert report["nonfinite_at_k"] is None and report["pass"], (kind, report)
            assert report["max_bound_violation"] is not None, (kind, report)


# ---------------------------------------------------------------------------
# The block run loop against a reference copy of the per-step loop it
# replaced: one step, one record and one certificate check at a time, with
# each kind's certificate parts written per step.
# ---------------------------------------------------------------------------

def _ref_sq(d):
    return float(np.dot(d, d))


def _ref_grad_sq(o, s):
    if s.grad is None:
        s.grad = o.grad_h(s.x)
    return _ref_sq(s.grad)


def _ref_schedule_bound(rule):
    def bound(o, g0, a, k, rho, q0):
        try:
            return q0 * schedules.rho_bound(rule, g0, o.mu, o.lip, k)
        except schedules.ScheduleError:
            return math.nan
    return bound


def _ref_gd_in_range(o, a, x0):
    return a <= 2.0 / (o.lip + o.mu) + 1e-15


def _ref_gd_slack(o, old, new, q_old, q_new):
    return (1.0 - o.mu * new.alpha) * q_old - q_new


def _ref_gd_bound(o, g0, a, k, rho, q0):
    return q0 * (1.0 - o.mu * a) ** k


def _ref_pg_in_range(o, a, x0):
    # the convex-case rate needs a start inside the sublevel set radius_r0 covers
    if abs(a - 1.0 / o.lip) > 1e-15:
        return False
    return o.mu > 0 or (o.radius_r0 is not None and o.eval_f(x0) <= o.f0_level)


def _ref_pg_slack(o, old, new, q_old, q_new):
    if o.mu > 0:
        return q_old / (1.0 + o.mu / o.lip) - q_new
    c2 = 1.0 / (2.0 * o.lip * o.radius_r0 ** 2)
    return q_old - c2 * q_new * q_new - q_new


def _ref_pg_bound(o, g0, a, k, rho, q0):
    if o.mu > 0:
        return q0 * (1.0 + o.mu / o.lip) ** (-k)
    c2 = 1.0 / (2.0 * o.lip * o.radius_r0 ** 2)
    delta = c2 * q0 / (1.0 + c2 * q0)
    return (1.0 + delta) * q0 / (1.0 + c2 * q0 * k)


def _ref_alpha_slack(o, old, new, q_old, q_new):
    return q_old / (1.0 + new.alpha) - q_new


def _ref_contraction_slack(o, old, new, q_old, q_new):
    return new.aux["contraction"] * q_old - q_new


def _ref_hb_gs(o, old, new, l_old, l_new):
    a = new.alpha
    return l_old - a * l_new + a * a / (2.0 * o.mu) * _ref_sq(new.grad) - l_new


def _ref_avd_gs(o, old, new, l_old, l_new):
    a, sg = new.alpha, math.sqrt(old.gamma)
    return l_old - a * sg * l_new + a * a / 2.0 * _ref_sq(new.grad) - l_new


def _ref_measured(o, g0, a, k, rho, q0):
    return q0 * rho


def _ref_none(o, g0, a, k, rho, q0):
    return math.nan


def _ref_divide(rho, new):
    return rho / (1.0 + new.alpha)


def _ref_contract(rho, new):
    return rho * new.aux["contraction"]


def _ref_identity(o, l, r_sq):
    return l


# kind -> (weight, centre) of its Lyapunov value f - f* + w/2 |centre - x*|^2:
# w is oracle.mu for "mu" and the state's gamma for "gamma"; None is f - f*
REFERENCE_FORMS = {
    "ppa": ("mu", "x"), "gd": ("mu", "x"), "pg": (None, "x"), "scaled_ppa": ("gamma", "x"),
    "hb_gs": ("mu", "v"), "momentum": ("mu", "v"), "avd_gs": ("gamma", "v"),
    "avd_grad": ("gamma", "v"), "avd_extrap": ("gamma", "v"), "nag": ("gamma", "v"),
    "apg": ("gamma", "v"), "apg_fast_grad": ("gamma", "v"), "new_apg": ("gamma", "v"),
}

# kind -> whether (oracle, alpha, x0) is inside the premises of its slack and
# bound; a run outside them records neither and is uncertified
REFERENCE_IN_RANGE = {"gd": _ref_gd_in_range, "pg": _ref_pg_in_range}

# kind -> (slack, bound, rho, residual_sq, bounded)
REFERENCE_CERTIFICATES = {
    "ppa": (lambda o, old, new, q_old, q_new: q_old / (1.0 + o.mu * new.alpha) - q_new,
            lambda o, g0, a, k, rho, q0: q0 * (1.0 + o.mu * a) ** (-k),
            _ref_divide, _ref_grad_sq, _ref_identity),
    "gd": (_ref_gd_slack, _ref_gd_bound, _ref_divide, _ref_grad_sq, _ref_identity),
    "pg": (_ref_pg_slack, _ref_pg_bound, _ref_divide,
           lambda o, s: _ref_sq(s.aux["d_next"]), _ref_identity),
    "scaled_ppa": (_ref_alpha_slack, _ref_measured, _ref_divide, _ref_grad_sq, _ref_identity),
    "hb_gs": (_ref_hb_gs, _ref_none, _ref_divide, _ref_grad_sq, _ref_identity),
    "momentum": (_ref_alpha_slack, _ref_measured, _ref_divide, _ref_grad_sq, _ref_identity),
    "avd_gs": (_ref_avd_gs, _ref_none, _ref_divide, _ref_grad_sq, _ref_identity),
    "avd_grad": (_ref_contraction_slack, _ref_measured, _ref_contract, _ref_grad_sq,
                 _ref_identity),
    "avd_extrap": (_ref_contraction_slack, _ref_measured, _ref_contract, _ref_grad_sq,
                   _ref_identity),
    "nag": (_ref_alpha_slack, _ref_schedule_bound("nag"), _ref_divide, _ref_grad_sq,
            lambda o, l, r_sq: l - r_sq / (2.0 * o.lip)),
    # apg's rho is read by none of its columns (its bound is the b0 formula)
    "apg": (lambda o, old, new, q_old, q_new: (q_old - _ref_sq(new.aux["resid"]) / (2.0 * o.lip))
            / (1.0 + old.alpha) - q_new,
            _ref_schedule_bound("b0"), _ref_divide, _ref_grad_sq, _ref_identity),
    "apg_fast_grad": (lambda o, old, new, q_old, q_new:
                      (q_old - _ref_sq(new.aux["d_next"]) / (4.0 * o.lip)) / (1.0 + new.alpha)
                      - q_new,
                      _ref_schedule_bound("fast_grad"), _ref_divide,
                      lambda o, s: _ref_sq(s.aux["d_next"]), _ref_identity),
    "new_apg": (_ref_alpha_slack, _ref_schedule_bound("b_half"), _ref_divide,
                lambda o, s: _ref_sq(s.aux["d_f"]), _ref_identity),
}


def reference_run(oracle, kind, x0, v0=None, gamma0=None, iters=100, alpha=None,
                  stop_grad_tol=None):
    """The per-step run loop: (records, certified, violations, nonfinite_at_k)."""
    method = solvers.METHODS[kind]
    slack_fn, bound_fn, rho_fn, residual_fn, bounded_fn = REFERENCE_CERTIFICATES[kind]
    form_weight, centre = REFERENCE_FORMS[kind]
    if method.smooth and oracle.is_composite:
        raise UnsupportedSolverError(kind)

    def lyapunov(state, gap):
        if form_weight is None:
            return gap
        weight = oracle.mu if form_weight == "mu" else state.gamma
        return gap + 0.5 * weight * _ref_sq(getattr(state, centre) - oracle.x_star)

    def finite(*values):
        return all(map(math.isfinite, values))

    state = init_state(oracle, kind, x0, v0, gamma0)
    if alpha is None:
        alpha = method.default_alpha(oracle)
    elif not alpha > 0:
        raise UnsupportedSolverError(alpha)
    in_range = REFERENCE_IN_RANGE.get(kind, lambda o, a, x0: True)(oracle, alpha, state.x)
    if not in_range:
        bound_fn = _ref_none
    gamma0 = state.gamma
    gap = oracle.eval_f(state.x) - oracle.f_star
    l_cur = lyapunov(state, gap)
    r_sq = _ref_grad_sq(oracle, state)
    q0 = q_cur = bounded_fn(oracle, l_cur, r_sq)
    rho, certified, violations = 1.0, True, 0
    gnorm = math.sqrt(r_sq)
    records = [(0, gap, l_cur, bound_fn(oracle, gamma0, alpha, 0, rho, q0), math.nan,
                gnorm, math.nan, math.nan if state.gamma is None else state.gamma, q0)]
    nonfinite_at_k = None if finite(gap, l_cur, gnorm) else 0
    for _ in range(iters if nonfinite_at_k is None else 0):
        new = method.step(oracle, state, alpha)
        gap = oracle.eval_f(new.x) - oracle.f_star
        l_new = lyapunov(new, gap)
        r_sq = residual_fn(oracle, new)
        q_new = bounded_fn(oracle, l_new, r_sq)
        rho = rho_fn(rho, new)
        if not in_range:
            certified, slack = False, math.nan
        else:
            slack = slack_fn(oracle, state, new, q_cur, q_new)
            if not method.certificate:
                certified = False
            elif not slack >= -calculus.SLACK_TOL * (1.0 + abs(l_cur)):
                violations += 1
        gnorm = math.sqrt(r_sq)
        records.append((new.k, gap, l_new, bound_fn(oracle, gamma0, alpha, new.k, rho, q0),
                        slack, gnorm, new.alpha,
                        math.nan if new.gamma is None else new.gamma, q_new))
        if not finite(gap, l_new, gnorm):
            nonfinite_at_k = new.k
            break
        state, l_cur, q_cur = new, l_new, q_new
        if stop_grad_tol is not None and gnorm < stop_grad_tol:
            break
    return records, certified, violations, nonfinite_at_k


def outcome(call):
    """What a run gives: its records (each value as repr, so -0.0, 0.0 and
    the last bit all count) and verdict, or the type of what it raised."""
    with np.errstate(all="ignore"):
        try:
            result = call()
        except Exception as exc:
            return type(exc)
    if isinstance(result, solvers.RunResult):
        result = (result.records, result.certified, result.violations,
                  result.nonfinite_at_k)
    records, *verdict = result
    return [tuple(map(repr, rec)) for rec in records], verdict


def assert_same_as_reference(oracle, kind, x0, **kwargs):
    got = outcome(lambda: run(oracle, kind, x0, **kwargs))
    want = outcome(lambda: reference_run(oracle, kind, x0, **kwargs))
    assert got == want
    return got


LOGCOSH = make_logcosh(2.0, dim=3)
BLOCK_ITERS = [0, 1, 255, 256, 257, 600]


class TestBlockLoopMatchesPerStepLoop:
    @pytest.mark.parametrize("iters", BLOCK_ITERS)
    @pytest.mark.parametrize("kind", solvers.SOLVER_KINDS)
    def test_quadratic(self, kind, iters):
        alpha = 0.5 if kind in ("hb_gs", "avd_gs") else None
        assert_same_as_reference(QUAD, kind, [4.0, -3.0], iters=iters, alpha=alpha)

    @pytest.mark.parametrize("iters", BLOCK_ITERS)
    @pytest.mark.parametrize("kind", solvers.SOLVER_KINDS)
    def test_logcosh(self, kind, iters):
        # momentum and hb_gs need mu > 0: both loops raise the same error
        assert_same_as_reference(LOGCOSH, kind, LOGCOSH.x0_ref, iters=iters, gamma0=2.0)

    @pytest.mark.parametrize("iters", BLOCK_ITERS)
    @pytest.mark.parametrize("kind", COMPOSITE_KINDS)
    @pytest.mark.parametrize("oracle", [sc_lasso(), convex_lasso()], ids=["sc", "convex"])
    def test_lasso(self, oracle, kind, iters):
        assert_same_as_reference(oracle, kind, np.zeros(oracle.dim), iters=iters)

    def test_tolerance_scales_with_old_lyapunov_value(self, monkeypatch):
        # a slack just past -SLACK_TOL (1 + |q_old|) is a violation only where
        # nag's bounded value q_old = L_old - |g|^2/(2L) is far enough below
        # L_old, the value the tolerance scales with
        def slack(q_old):
            return -calculus.SLACK_TOL * (1.0 + abs(q_old)) * (1.0 + 1e-6)
        monkeypatch.setitem(solvers.METHODS, "nag", solvers.METHODS["nag"]._replace(
            slack=lambda o, b, q_old, q_new: slack(q_old) + 0.0 * q_new))
        monkeypatch.setitem(REFERENCE_CERTIFICATES, "nag", (
            lambda o, old, new, q_old, q_new: slack(q_old),
            *REFERENCE_CERTIFICATES["nag"][1:]))
        _, (certified, violations, _) = assert_same_as_reference(
            QUAD, "nag", [4.0, -3.0], iters=300)
        assert certified and 0 < violations < 300

    @pytest.mark.parametrize("kind", ["gd", "pg"])
    def test_alpha_outside_certified_range(self, kind):
        records, (certified, _, _) = assert_same_as_reference(
            QUAD, kind, [4.0, -3.0], iters=300, alpha=2.5 / QUAD.lip)
        assert not certified and records[-1][4] == "nan"

    def test_nonfinite_at_k0(self):
        _, verdict = assert_same_as_reference(QUAD, "nag", [math.nan, 1.0], iters=300)
        assert verdict[2] == 0

    def test_nonfinite_mid_block(self):
        o = make_quadratic([1.0, 100.0], [1.0, 1.0])
        records, verdict = assert_same_as_reference(o, "hb_gs", [2.0, 2.0], iters=2000,
                                                    alpha=1.0)
        assert verdict[2] == 112 and len(records) == 113

    def test_grad_tol_stop_mid_block(self):
        o = make_quadratic(np.geomspace(1e-3, 1.0, 10), np.ones(10))
        records, verdict = assert_same_as_reference(o, "nag", np.zeros(10), iters=2000,
                                                    stop_grad_tol=1e-9)
        # the stop row is the third block's 53rd
        assert len(records) == 566 and verdict[2] is None

    def test_stop_then_raise_in_one_block(self):
        # gamma underflows: the run is non-finite at k=1025, and the step at
        # k=1076, in the same block, divides by a zero gamma
        o = make_logcosh(2.0, dim=50)
        with pytest.raises(ZeroDivisionError), np.errstate(all="ignore"):
            state = init_state(o, "scaled_ppa", o.x0_ref)
            while state.k < 1076:
                state = solvers.step_scaled_ppa(o, state, 1.0)
        assert state.k == 1075
        records, verdict = assert_same_as_reference(o, "scaled_ppa", o.x0_ref, iters=2000)
        assert verdict[2] == 1025 and len(records) == 1026

    def test_grad_tol_stop_then_raise_in_one_block(self, monkeypatch):
        o = make_quadratic(np.geomspace(1e-3, 1.0, 10), np.ones(10))
        monkeypatch.setattr(solvers, "step_nag", raising_at(solvers.step_nag, 600))
        records, _ = assert_same_as_reference(o, "nag", np.zeros(10), iters=2000,
                                              stop_grad_tol=1e-9)
        assert len(records) == 566

    @pytest.mark.parametrize("k", [1, 256, 300])
    def test_raise_with_no_stop_before(self, monkeypatch, k):
        monkeypatch.setattr(solvers, "step_gd", raising_at(solvers.step_gd, k))
        assert assert_same_as_reference(QUAD, "gd", [4.0, -3.0], iters=600) is KeyError


def raising_at(step, k):
    """step, raising a KeyError when it would make the state at k."""
    def wrapped(oracle, state, *args):
        if state.k + 1 == k:
            raise KeyError(k)
        return step(oracle, state, *args)
    return wrapped


def quad40():
    eigs = np.geomspace(1e-3, 1.0, 40)
    x_star = box_rng(40).uniform(-1.0, 1.0, 40)
    return make_quadratic(eigs, eigs * x_star), x_star + 1.0


def logcosh50():
    o = make_logcosh(2.0, dim=50)
    return o, o.x0_ref


class TestRunMatchesEvaluate:
    """The run loop and the flow verifiers read one form table."""

    @pytest.mark.parametrize("kind", solvers.SOLVER_KINDS)
    def test_form_matches_reference(self, kind):
        assert lyapunov.FORMS[solvers.METHODS[kind].form] == REFERENCE_FORMS[kind]

    @pytest.mark.parametrize("problem, kind", [
        (problem, kind) for problem in (quad40, logcosh50) for kind in solvers.SOLVER_KINDS
        if not (problem is logcosh50 and kind in ("hb_gs", "momentum"))])
    def test_lyapunov_column_is_evaluate(self, problem, kind):
        # the run's batched column and evaluate on each iterate alone agree
        # bit for bit: both reduce the squared distance with rowdot
        oracle, x0 = problem()
        method = solvers.METHODS[kind]
        with np.errstate(all="ignore"):
            column = run(oracle, kind, x0, iters=300).trace.lyapunov
            states = [init_state(oracle, kind, x0)]
            alpha = method.default_alpha(oracle)
            while len(states) < column.size:
                states.append(method.step(oracle, states[-1], alpha))
            spec = lyapunov.LyapunovSpec(method.form)
            want = [lyapunov.evaluate(spec, oracle, flows.FlowState(0.0, s.x, v=s.v,
                                                                    gamma=s.gamma))
                    for s in states]
        assert list(map(repr, column.tolist())) == list(map(repr, want))
