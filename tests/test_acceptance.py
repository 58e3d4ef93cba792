"""End-to-end acceptance checks: every proved rate and certificate, verified
numerically at the stated tolerances.  Each test prints one PASS/FAIL line."""

import dataclasses
import math

import numpy as np

from lyapopt import calculus, flows, lyapunov, schedules, solvers
from lyapopt.flows import FlowModel, FlowState, continuous_decay_check
from lyapopt.problems import box_rng, make_lasso, make_logcosh, make_quadratic

from paper_identities import avd_gamma_bound, gamma_closed_form, sequence_decay_oracle


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:02d} {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def lasso_20x50():
    rng = box_rng(1001)
    return make_lasso(rng.standard_normal((20, 50)), rng.standard_normal(20), 0.5)


def lasso_50x100():
    rng = box_rng(1002)
    return make_lasso(rng.standard_normal((50, 100)), rng.standard_normal(50), 0.5)


def test_01_gd_per_step_contraction():
    o = make_quadratic([1.0] + [100.0], [1.0, 0.0])
    res = solvers.run(o, "gd", [4.0, -3.0], alpha=2.0 / 101.0, iters=500)
    vals = [r.lyapunov for r in res.records]
    ok = all(b <= (99.0 / 101.0 + 1e-12) * a
             for a, b in zip(vals, vals[1:]) if a > 1e-300)
    _report(1, "gd contraction 99/101 per step", ok)


def test_02_ppa_per_step_contraction():
    o = make_quadratic([1.0, 100.0], [1.0, 0.0])
    ok = True
    for alpha in (0.1, 1.0, 10.0):
        res = solvers.run(o, "ppa", [4.0, -3.0], alpha=alpha, iters=300)
        vals = [r.lyapunov for r in res.records]
        ok &= all(b <= a / (1.0 + o.mu * alpha) + 1e-12
                  for a, b in zip(vals, vals[1:]))
    _report(2, "ppa contraction 1/(1+mu a) per step", ok)


def test_03_scaled_ppa_closed_form():
    o = make_logcosh(2.0, dim=2)
    res = solvers.run(o, "scaled_ppa", o.x0_ref, gamma0=o.lip, alpha=1.0,
                      iters=100)
    l0 = res.records[0].lyapunov
    ok = True
    t_seq = []
    for k, rec in enumerate(res.records[1:], start=1):
        ok &= rec.lyapunov <= l0 * 2.0 ** (-k) * (1.0 + 1e-12)
        t_seq.append(1.0 / res.records[k - 1].gamma)
        closed = gamma_closed_form(o.lip, o.mu, t_seq)
        ok &= abs(closed - rec.gamma) <= 1e-10 * max(1.0, rec.gamma)
    _report(3, "scaled ppa product rate and gamma closed form", ok)


def test_04_pg_sublinear_rate():
    o = lasso_20x50()
    assert o.mu == 0.0
    res = solvers.run(o, "pg", np.zeros(o.dim), iters=1000)
    ok = all(r.slack >= -1e-9 for r in res.records[1:])
    c2 = 1.0 / (2.0 * o.lip * o.radius_r0 ** 2)
    l0 = res.records[0].lyapunov
    delta = c2 * l0 / (1.0 + c2 * l0)
    for rec in res.records:
        bound = (1.0 + delta) * l0 / (1.0 + c2 * l0 * rec.k)
        ok &= rec.lyapunov <= bound + 1e-9 * (1.0 + bound)
    _report(4, "pg per-step inequality and 1/k bound", ok)


def test_05_momentum_rate_and_gd_contrast():
    o = make_quadratic([1e-4, 1.0], [1.0, 0.0])
    x0 = [4.0, -3.0]
    res = solvers.run(o, "momentum", x0, iters=2000)
    l0 = res.records[0].lyapunov
    q = math.sqrt(o.mu / o.lip)
    ok = all(r.lyapunov <= l0 * (1.0 + q) ** (-r.k) + 1e-9
             for r in res.records)

    def iters_to(res_, target):
        l0_ = res_.records[0].lyapunov
        for rec in res_.records:
            if rec.lyapunov <= target * l0_:
                return rec.k
        return None

    k_mom = iters_to(res, 1e-6)
    res_gd = solvers.run(o, "gd", x0, iters=100_000)
    k_gd = iters_to(res_gd, 1e-6)
    ok &= k_mom is not None and k_gd is not None and k_gd >= 10 * k_mom
    _report(5, "momentum accelerated rate, >=10x faster than gd", ok)


def test_06_nag_rate():
    ok = True
    for mu_ratio in (0.0, 1e-4):
        o = make_quadratic([0.5, 1.0], [1.0, 0.0])
        o = dataclasses.replace(o, mu=mu_ratio * o.lip)
        res = solvers.run(o, "nag", [4.0, -3.0], gamma0=o.lip, iters=2000)
        m_prev = None
        rho = 1.0
        for rec in res.records:
            m_val = rec.lyapunov - rec.grad_norm ** 2 / (2.0 * o.lip)
            if rec.k == 0:
                m0 = m_val
            else:
                rho /= (1.0 + rec.alpha)
            ok &= m_val <= rho * m0 + 1e-9
            m_prev = m_val
    _report(6, "nag modified-quantity rate, mu in {0, 1e-4 L}", ok)


def test_07_accelerated_composite_rates():
    o = lasso_50x100()
    rules = {"apg": "b0", "new_apg": "b_half", "apg_fast_grad": "fast_grad"}
    ok = True
    for kind, rule in rules.items():
        res = solvers.run(o, kind, np.zeros(o.dim), gamma0=o.lip, iters=1000)
        l0 = res.records[0].lyapunov
        for rec in res.records:
            bound = schedules.rho_bound(rule, o.lip, o.mu, o.lip, rec.k)
            ok &= rec.lyapunov <= l0 * bound * (1.0 + 1e-9) + 1e-12
    _report(7, "apg / new apg / fast-gradient rate bounds", ok)


def test_08_avd_contraction_and_gamma_bound():
    o = make_quadratic([1.0, 4.0], [1.0, -2.0])
    res = solvers.run(o, "avd_grad", [4.0, -3.0], gamma0=o.lip, iters=1000)
    ok = res.violations == 0 and res.certified
    gamma0 = res.records[0].gamma
    for rec in res.records[1:]:
        ok &= rec.gamma / gamma0 <= avd_gamma_bound(1.0, rec.k) * (1 + 1e-12)
    res_e = solvers.run(o, "avd_extrap", [4.0, -3.0], gamma0=o.lip, iters=1000)
    for a, b in zip(res.records, res_e.records):
        ok &= abs(a.f_gap - b.f_gap) <= 1e-12 * (1.0 + a.f_gap)
    _report(8, "avd per-step contraction, gamma bound, variant agreement", ok)


def test_09_continuous_decay():
    ok = True
    quad = make_quadratic([1.0, 4.0], [1.0, -2.0])

    model, lyap = lyapunov.pairing_scaled(quad)
    st = FlowState(0.0, np.array([4.0, -3.0]), gamma=quad.lip)
    l0 = lyapunov.evaluate(lyap, quad, st)
    rep = continuous_decay_check(model, lyap, st, 10.0, 1e-3)
    ok &= rep["pass"]
    ok &= all(val <= l0 * math.exp(-t) * (1.0 + 1e-3)
              for t, val, *_ in rep["rows"])

    model, lyap = lyapunov.pairing_hnag(quad)
    st = FlowState(0.0, np.array([4.0, -3.0]), v=np.zeros(2), gamma=quad.lip)
    l0 = lyapunov.evaluate(lyap, quad, st)
    rep = continuous_decay_check(model, lyap, st, 10.0, 1e-3)
    ok &= rep["pass"]
    ok &= all(val <= l0 * math.exp(-t) * (1.0 + 1e-3)
              for t, val, *_ in rep["rows"])

    model, lyap = lyapunov.pairing_avd(quad)
    st = FlowState(1.0, np.array([4.0, -3.0]), v=np.zeros(2), gamma=4.0)
    l1 = lyapunov.evaluate(lyap, quad, st)
    rep = continuous_decay_check(model, lyap, st, 100.0, 1e-3)
    ok &= rep["pass"]
    ok &= all(val <= l1 / t**2 * (1.0 + 1e-3) for t, val, *_ in rep["rows"])

    model, lyap = lyapunov.pairing_gf_convex()
    o = model.oracle
    st = FlowState(0.0, o.x0_ref)
    l0 = lyapunov.evaluate(lyap, o, st)
    rep = continuous_decay_check(model, lyap, st, 10.0, 1e-3)
    ok &= rep["pass"]
    c = 1.0 / o.radius_r0 ** 2
    ok &= all(val <= (1.0 + 1e-3) / (c * t + 1.0 / l0)
              for t, val, *_ in rep["rows"])
    _report(9, "continuous decay bounds along rk4 trajectories", ok)


def test_10_strong_lyapunov_verifier():
    ok = True
    for name in lyapunov.PAIRING_NAMES:
        rep = lyapunov.verify_pairing(name, samples=10_000, seed=0)
        ok &= rep["pass"] and rep["samples"] == 10_000
    control = lyapunov.verify_pairing("hb", samples=10_000, seed=0,
                                      c_override=3.0)
    ok &= not control["pass"] and control["min_slack"] < 0
    _report(10, "eight verifier pairings pass, inflated-c control fails", ok)


def test_11_convexity_bound_suite():
    rng = box_rng(1003)
    problems = [
        make_quadratic([1.0, 4.0, 9.0], [1.0, 0.0, -3.0]),
        make_logcosh(2.0, dim=2),
        make_lasso(rng.standard_normal((12, 8)) + 2.0 * np.eye(12, 8),
                   rng.standard_normal(12), 0.5),
        make_lasso(rng.standard_normal((8, 20)), rng.standard_normal(8), 0.5),
    ]
    ok = True
    for o in problems:
        ok &= calculus.total_violations(
            calculus.check_bounds_lemma1(o, samples=10_000, seed=0)) == 0
        ok &= calculus.total_violations(
            calculus.check_minimum_bounds(o, samples=10_000, seed=0)) == 0
    _report(11, "curvature bounds: zero violations on built-ins", ok)


def test_12_sequence_theorems_and_gamma():
    ok = True
    for case in (1, 2, 3, 4):
        alpha = 0.5 if case == 1 else 0.9
        rep = sequence_decay_oracle(case, 1.0, alpha, k_max=10_000, n_random=100, seed=0)
        ok &= rep["pass"]
    rng = box_rng(1004)
    for _ in range(100):
        gamma0 = float(rng.uniform(0.1, 10.0))
        mu = float(rng.uniform(0.0, 5.0))
        t_seq = rng.uniform(0.01, 2.0, size=50)
        gamma = gamma0
        for i, t in enumerate(t_seq, start=1):
            alpha = t * gamma
            gamma = schedules.gamma_step(gamma, alpha, mu)
            closed = gamma_closed_form(gamma0, mu, t_seq[:i])
            ok &= abs(closed - gamma) <= 1e-12 * max(1.0, gamma)
    _report(12, "sequence decay oracle and gamma closed form", ok)
