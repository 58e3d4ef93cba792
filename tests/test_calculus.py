import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapopt import calculus
from lyapopt.problems import (box_rng, make_lasso, make_logcosh, make_quadratic, rowdot,
                               sample_box)

QUAD = make_quadratic([1.0, 4.0, 9.0], [1.0, 0.0, -3.0])
LOGCOSH = make_logcosh(2.0, dim=2)


def three_point_bound(oracle, x_k, y, x_next) -> float:
    """Upper bound on f(x_next) - f(x_k) through an intermediate point y.

    Combines the descent upper bound at y with the stronger of the two
    lower bounds between y and x_k.
    """
    x_k = np.asarray(x_k, dtype=float)
    y = np.asarray(y, dtype=float)
    x_next = np.asarray(x_next, dtype=float)
    gy = oracle.grad_h(y)
    gk = oracle.grad_h(x_k)
    lip, mu = oracle.lip, oracle.mu
    return (
        float(np.dot(gy, x_next - x_k))
        + 0.5 * lip * float(np.sum((x_next - y) ** 2))
        - max(
            0.5 * mu * float(np.sum((y - x_k) ** 2)),
            float(np.sum((gy - gk) ** 2)) / (2.0 * lip),
        )
    )


def bregman_by_quadrature(oracle, y, x, panels: int = 10_000) -> float:
    """Midpoint quadrature of the line-integral identity for D_h(y, x)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    gx = oracle.grad_h(x)
    xi = (np.arange(panels) + 0.5) / panels
    points = x + xi[:, None] * (y - x)
    return float(np.sum(rowdot(oracle.grad_h(points) - gx, y - x))) / panels


def lasso_oracle():
    rng = box_rng(13)
    a = rng.standard_normal((10, 6))
    return make_lasso(a, rng.standard_normal(10), 0.4)


class TestBregman:
    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=3),
           st.lists(st.floats(-5, 5), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_symmetrization_identity(self, x, y):
        div = calculus.bregman(QUAD, np.array(y), np.array(x))
        assert div.d_forward + div.d_backward == pytest.approx(2 * div.m_sym, abs=1e-9)

    def test_nonnegative_for_convex(self):
        rng = box_rng(2)
        for _ in range(50):
            x, y = rng.uniform(-4, 4, size=(2, 2))
            div = calculus.bregman(LOGCOSH, y, x)
            assert div.d_forward >= -1e-12
            assert div.d_backward >= -1e-12

    def test_quadratic_closed_form(self):
        # for a quadratic both divergences equal (y-x)' A (y-x) / 2
        x = np.array([1.0, 2.0, -1.0])
        y = np.array([0.0, -1.0, 3.0])
        expect = 0.5 * np.sum(np.array([1.0, 4.0, 9.0]) * (y - x) ** 2)
        div = calculus.bregman(QUAD, y, x)
        assert div.d_forward == pytest.approx(expect)
        assert div.d_backward == pytest.approx(expect)
        assert div.m_sym == pytest.approx(expect)

    def test_quadrature_matches_definition(self):
        x = np.array([0.5, -1.0])
        y = np.array([2.0, 1.5])
        direct = calculus.bregman(LOGCOSH, y, x).d_forward
        quad = bregman_by_quadrature(LOGCOSH, y, x, panels=2000)
        assert quad == pytest.approx(direct, rel=1e-6, abs=1e-8)


class TestCurvatureBounds:
    @pytest.mark.parametrize("oracle", [QUAD, LOGCOSH, lasso_oracle()],
                             ids=["quadratic", "logcosh", "lasso"])
    def test_lemma_bounds_hold(self, oracle):
        report = calculus.check_bounds_lemma1(oracle, samples=2000, seed=0)
        assert calculus.total_violations(report) == 0

    @pytest.mark.parametrize("oracle", [QUAD, LOGCOSH, lasso_oracle()],
                             ids=["quadratic", "logcosh", "lasso"])
    def test_minimum_bounds_hold(self, oracle):
        report = calculus.check_minimum_bounds(oracle, samples=2000, seed=0)
        assert calculus.total_violations(report) == 0

    def test_report_structure(self):
        report = calculus.check_bounds_lemma1(QUAD, samples=100, seed=1)
        assert {"upper_L", "lower_mu", "lower_grad_sq", "upper_grad_sq"} <= set(report)
        for entry in report.values():
            assert entry["arg_worst"] is not None
            assert np.isfinite(entry["worst_slack"])

    def test_mu_zero_skips_strong_bounds(self):
        report = calculus.check_bounds_lemma1(LOGCOSH, samples=50, seed=0)
        assert "upper_grad_sq" not in report

    def test_violation_detected_with_wrong_constant(self):
        # understate lip: the upper bound must now fail somewhere
        import dataclasses
        bad = dataclasses.replace(QUAD, lip=1.0)
        report = calculus.check_bounds_lemma1(bad, samples=500, seed=0)
        assert report["upper_L"]["violations"] > 0


@pytest.mark.parametrize("check", [calculus.check_bounds_lemma1,
                                   calculus.check_minimum_bounds])
@pytest.mark.parametrize("samples", [0, -5])
def test_no_samples_refused(check, samples):
    # zero samples reported zero violations, which callers read as a pass
    with pytest.raises(ValueError, match="samples must be >= 1"):
        check(QUAD, samples=samples, seed=0)


def reference_lemma1(oracle, samples, seed):
    """check_bounds_lemma1 one pair at a time: [worst, arg_worst, violations]."""
    rng = box_rng(seed)
    xs = sample_box(rng, oracle.x_star, calculus.SAMPLING_RADIUS, samples)
    ys = sample_box(rng, oracle.x_star, calculus.SAMPLING_RADIUS, samples)
    out = {}
    for x, y in zip(xs, ys):
        div = calculus.bregman(oracle, y, x)
        dist2 = float(np.dot(x - y, x - y))
        gdiff2 = float(np.sum((oracle.grad_h(x) - oracle.grad_h(y)) ** 2))
        big, small = max(div.d_forward, div.m_sym), min(div.d_forward, div.m_sym)
        slacks = {"upper_L": 0.5 * oracle.lip * dist2 - big,
                  "lower_mu": small - 0.5 * oracle.mu * dist2,
                  "lower_grad_sq": small - gdiff2 / (2.0 * oracle.lip)}
        if oracle.mu > 0:
            slacks["upper_grad_sq"] = gdiff2 / (2.0 * oracle.mu) - big
        for name, slack in slacks.items():
            entry = out.setdefault(name, [math.inf, None, 0])
            if slack < entry[0]:
                entry[0], entry[1] = slack, np.r_[x, y].tolist()
            if slack < -calculus.SLACK_TOL * (1.0 + dist2):
                entry[2] += 1
    return out


class TestBatchedChecks:
    @pytest.mark.parametrize("oracle", [QUAD, LOGCOSH, lasso_oracle()],
                             ids=["quadratic", "logcosh", "lasso"])
    def test_lemma1_matches_per_pair_loop(self, oracle):
        report = calculus.check_bounds_lemma1(oracle, samples=300, seed=5)
        ref = reference_lemma1(oracle, 300, 5)
        assert set(report) == set(ref)
        for name, (worst, arg, violations) in ref.items():
            assert report[name]["worst_slack"] == worst
            assert report[name]["arg_worst"] == arg
            assert report[name]["violations"] == violations

    def test_nan_gradient_counts_as_violation(self):
        def grad(x):
            x = np.asarray(x, dtype=float)
            return np.where(x[..., :1] > QUAD.x_star[0], np.nan, QUAD.grad_h(x))

        report = calculus.check_minimum_bounds(dataclasses.replace(QUAD, grad_h=grad),
                                               samples=200, seed=0)
        assert 0 < report["gap_lower_grad"]["violations"] < 200
        assert calculus.total_violations(report) > 0

    def test_bregman_batch_rows_equal_single_pairs(self):
        xs, ys = box_rng(8).uniform(-4, 4, size=(2, 30, 2))
        div = calculus.bregman(LOGCOSH, ys, xs)
        for i in range(30):
            one = calculus.bregman(LOGCOSH, ys[i], xs[i])
            assert (div.d_forward[i], div.d_backward[i], div.m_sym[i]) == \
                (one.d_forward, one.d_backward, one.m_sym)


class TestThreePointBound:
    def test_dominates_actual_difference(self):
        rng = box_rng(9)
        for _ in range(100):
            x_k, y, x_next = rng.uniform(-3, 3, size=(3, 3))
            actual = QUAD.eval_f(x_next) - QUAD.eval_f(x_k)
            assert actual <= three_point_bound(QUAD, x_k, y, x_next) + 1e-9

    def test_tight_at_coincident_points(self):
        x = np.array([1.0, -1.0, 0.5])
        assert three_point_bound(QUAD, x, x, x) == pytest.approx(0.0, abs=1e-12)
