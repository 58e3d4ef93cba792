import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lyapopt import problems
from lyapopt.problems import (
    InvalidProblemError,
    box_rng,
    make_lasso,
    make_logcosh,
    make_quadratic,
    problem_from_json,
    soft_threshold,
)


def subgradient_residual(oracle, w, s: float):
    """q = (w - prox_g(w, s)) / s, a subgradient of g at prox_g(w, s)."""
    if s <= 0:
        raise InvalidProblemError("s must be positive")
    w = np.asarray(w, dtype=float)
    return (w - oracle.prox_g(w, s)) / s


def finite_diff_grad(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestQuadratic:
    def test_minimizer_and_value(self):
        o = make_quadratic([2.0, 5.0], [4.0, -5.0])
        assert np.allclose(o.x_star, [2.0, -1.0])
        assert o.grad_h(o.x_star) == pytest.approx(np.zeros(2), abs=1e-14)
        assert o.eval_f(o.x_star) == pytest.approx(o.f_star)

    def test_gradient_matches_finite_difference(self):
        o = make_quadratic([1.0, 3.0, 10.0], [0.5, 0.0, -2.0])
        rng = box_rng(3)
        for x in rng.uniform(-5, 5, size=(10, 3)):
            assert np.allclose(o.grad_h(x), finite_diff_grad(o.eval_f, x), atol=1e-5)

    def test_prox_optimality(self):
        o = make_quadratic([2.0], [4.0])
        # prox minimizes s f(x) + |x - w|^2 / 2: stationarity s grad f + x - w = 0
        for w, s in [(0.0, 1.0), (3.0, 0.1), (-1.0, 7.0)]:
            x = o.prox_f(np.array([w]), s)
            assert abs(s * o.grad_h(x)[0] + x[0] - w) < 1e-12

    def test_mu_lip(self):
        o = make_quadratic([0.5, 9.0], [0.0, 0.0])
        assert o.mu == 0.5
        assert o.lip == 9.0

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidProblemError):
            make_quadratic([1.0, -2.0], [0.0, 0.0])
        with pytest.raises(InvalidProblemError):
            make_quadratic([1.0], [0.0, 0.0])


class TestSoftThreshold:
    @given(st.floats(-50, 50), st.floats(0, 10))
    @settings(max_examples=200, deadline=None)
    def test_scalar_cases(self, w, t):
        out = soft_threshold(np.array([w]), t)[0]
        if abs(w) <= t:
            assert out == 0.0
        else:
            assert out == pytest.approx(w - math.copysign(t, w))

    def test_is_prox_of_l1(self):
        # prox of s * rho |x|: subgradient condition x - w + s*rho*sign(x) = 0
        w = np.array([2.0, -0.3, 0.0, 5.0])
        out = soft_threshold(w, 0.5)
        assert np.allclose(out, [1.5, 0.0, 0.0, 4.5])


class TestLasso:
    def make(self, m=15, n=8, rho=0.4, seed=11):
        rng = box_rng(seed)
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        return make_lasso(a, b, rho), a, b, rho

    def test_lip_is_largest_gram_eigenvalue(self):
        o, a, _, _ = self.make()
        assert o.lip == pytest.approx(np.linalg.eigvalsh(a.T @ a).max(), rel=1e-8)

    @pytest.mark.parametrize("seed, shape", [(11, (15, 8)), (20240708, (8, 20)),
                                             (20240707, (12, 8))])
    def test_lip_never_below_top_gram_eigenvalue(self, seed, shape):
        # a smoothness constant below the true one is on the unsafe side;
        # power iteration stopped 1.3e-8 low on the (8, 20) instance
        rng = box_rng(seed)
        a = rng.standard_normal(shape)
        o = make_lasso(a, rng.standard_normal(shape[0]), 0.5)
        assert o.lip >= np.linalg.eigvalsh(a.T @ a).max()

    def test_reference_solution_is_stationary(self):
        o, a, b, rho = self.make()
        # optimality: -grad h(x*) is a subgradient of rho |.|_1 at x*
        g = o.grad_h(o.x_star)
        for xi, gi in zip(o.x_star, g):
            if abs(xi) > 1e-10:
                assert gi == pytest.approx(-rho * np.sign(xi), abs=1e-8)
            else:
                assert abs(gi) <= rho * (1 + 1e-8)

    def test_f_star_is_minimal_nearby(self):
        o, _, _, _ = self.make()
        rng = box_rng(5)
        for _ in range(20):
            x = o.x_star + 1e-3 * rng.standard_normal(o.dim)
            assert o.eval_f(x) >= o.f_star - 1e-12

    def test_radius_bounds_sublevel_set(self):
        o, _, _, rho = self.make()
        # any point of the f(0)-sublevel set satisfies rho |x|_1 <= f(x) <= f0
        rng = box_rng(6)
        for _ in range(200):
            x = rng.uniform(-2, 2, size=o.dim)
            if o.eval_f(x) <= o.f0_level:
                assert np.linalg.norm(x - o.x_star) <= o.radius_r0 + 1e-9

    def test_composite_structure(self):
        o, _, _, _ = self.make()
        assert o.is_composite
        x = np.ones(o.dim)
        assert o.eval_f(x) == pytest.approx(o.eval_h(x) + o.eval_g(x))

    def test_strongly_convex_variant(self):
        rng = box_rng(8)
        a = rng.standard_normal((12, 6)) + 2.0 * np.eye(12, 6)
        o = make_lasso(a, rng.standard_normal(12), 0.3)
        assert o.mu > 0

    def test_subgradient_residual_in_subdifferential(self):
        o, _, _, rho = self.make()
        w = np.linspace(-2, 2, o.dim)
        q = subgradient_residual(o, w, 0.7)
        x = o.prox_g(w, 0.7)
        for xi, qi in zip(x, q):
            if abs(xi) > 1e-12:
                assert qi == pytest.approx(rho * np.sign(xi))
            else:
                assert abs(qi) <= rho + 1e-12


def lasso_duality_gap(a, b, rho, x):
    """f(x) - D(theta) for the dual point theta = b - Ax scaled into
    |A^T theta|_inf <= rho, where D(theta) = <theta, b> - |theta|^2 / 2."""
    theta = b - a @ x
    theta = theta * min(1.0, rho / max(np.abs(a.T @ theta).max(), rho))
    primal = 0.5 * np.sum((a @ x - b) ** 2) + rho * np.sum(np.abs(x))
    return primal - (theta @ b - 0.5 * theta @ theta)


class TestLassoReferenceGap:
    """Every LASSO oracle's f* is within LASSO_GAP_TOL (1 + f*) of the
    optimum, on instances with ties and zero columns too."""

    @pytest.mark.parametrize("a, b, rho", [
        ([[1, -2, 0], [2, 1, -1], [0, 1, 2], [-1, 0, 1]], [1, -1, 2, 0], 0.5),
        ([[1, 0, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], [1, 2, -1], 0.3),
        ([[1, 1, 0.5], [2, 2, -1], [0, 0, 3]], [1, 0, 2], 0.2),
    ], ids=["integer", "zero-column", "repeated-column"])
    def test_gap_within_tolerance(self, a, b, rho):
        o = make_lasso(a, b, rho)
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        gap = lasso_duality_gap(a, b, rho, o.x_star)
        assert gap <= problems.LASSO_GAP_TOL * (1.0 + o.f_star)

    def test_unreachable_gap_raises(self, monkeypatch):
        monkeypatch.setattr(problems, "LASSO_GAP_TOL", -1.0)
        monkeypatch.setattr(problems, "LASSO_MAX_STEPS", 1000)
        with pytest.raises(InvalidProblemError, match="duality gap"):
            make_lasso([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 0.0, 1.0], 0.3)


class TestLogcosh:
    def test_gradient_is_tanh(self):
        o = make_logcosh(2.0, dim=3)
        x = np.array([0.5, -1.0, 3.0])
        assert np.allclose(o.grad_h(x), np.tanh(x))

    def test_minimum(self):
        o = make_logcosh(1.0, dim=4)
        assert o.f_star == pytest.approx(4 * math.log(2))
        assert np.all(o.x_star == 0)

    def test_overflow_safe(self):
        o = make_logcosh(1.0, dim=1)
        big = np.array([1e4])
        assert o.eval_f(big) == pytest.approx(1e4, rel=1e-12)
        assert np.isfinite(o.grad_h(big)).all()

    def test_radius_example(self):
        # one dimension: the sublevel set {f <= f(x0)} is [-x0, x0]
        o = make_logcosh(2.0, dim=1)
        assert o.radius_r0 == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("scale", [2.0, 3.0, *box_rng(11).uniform(0.01, 5.0, 40)])
    def test_radius_not_below_the_root(self, scale):
        # one dimension: the sublevel set is exactly [-scale, scale]; the
        # bisection midpoint gave 1.9999999999990905 for scale 2
        assert make_logcosh(scale, dim=1).radius_r0 >= scale

    def test_radius_multidim(self):
        o = make_logcosh(1.5, dim=3)
        # the boundary point (r, 0, 0) attains the level exactly
        edge = np.array([o.radius_r0, 0.0, 0.0])
        assert o.eval_f(edge) == pytest.approx(o.f0_level, rel=1e-9)

    def test_prox_stationarity(self):
        o = make_logcosh(2.0, dim=2)
        w = np.array([3.0, -0.2])
        for s in [0.1, 1.0, 25.0]:
            x = o.prox_f(w, s)
            assert np.allclose(x + s * np.tanh(x), w, atol=1e-12)


def prox_loop(w: float, s: float, tanh) -> float:
    """Reference: the safeguarded Newton loop of the logcosh prox_f on one
    coordinate, with the tanh it uses as a parameter."""
    lo, hi = min(0.0, w), max(0.0, w)
    x = w / (1.0 + s)
    for _ in range(100):
        phi = x + s * tanh(x) - w
        if abs(phi) <= 1e-15 * (1.0 + abs(w)):
            break
        if phi > 0:
            hi = x
        else:
            lo = x
        step = phi / (1.0 + s * (1.0 - tanh(x) ** 2))
        x_new = x - step
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        x = x_new
    return x


class TestLogcoshProx:
    """|w| <= 1e3 and s over 1e-3..1e6, the step range scaled_ppa reaches."""

    STEPS = np.geomspace(1e-3, 1e6, 28).tolist()

    def cases(self):
        rng = box_rng(8)
        oracle = make_logcosh(1.0, dim=60)
        for s in self.STEPS:
            for scale in (1e-3, 1.0, 30.0, 1e3):
                yield oracle, rng.uniform(-scale, scale, 60), s

    def test_equals_scalar_loop_with_numpy_tanh(self):
        for oracle, w, s in self.cases():
            x = oracle.prox_f(w, s)
            ref = [prox_loop(t, s, lambda v: float(np.tanh(v))) for t in w.tolist()]
            assert np.array_equal(x, ref), s

    def test_residual_within_tolerance(self):
        for oracle, w, s in self.cases():
            x = oracle.prox_f(w, s)
            assert np.all(np.abs(x + s * np.tanh(x) - w) <= 1e-15 * (1.0 + np.abs(w))), s

    def test_matches_libm_loop_to_root_tolerance(self):
        # math.tanh and np.tanh differ by an ulp on some inputs, so the two
        # loops stop at different points inside the residual tolerance: the
        # points agree to twice the tolerance over phi' = 1 + s sech^2 x
        for oracle, w, s in self.cases():
            x = oracle.prox_f(w, s)
            ref = np.array([prox_loop(t, s, math.tanh) for t in w.tolist()])
            slope = 1.0 + s * (1.0 - np.tanh(ref) ** 2)
            assert np.all(np.abs(x - ref) * slope <= 2e-15 * (1.0 + np.abs(w))), s

    def test_zero_and_nan(self):
        oracle = make_logcosh(1.0, dim=3)
        x = oracle.prox_f(np.array([0.0, -0.0, math.nan]), 2.0)
        assert x[0] == 0.0 and x[1] == 0.0 and math.isnan(x[2])

    def test_infinite_step_gives_nan(self):
        # s = inf makes the residual NaN (inf * tanh(0)): there is no root to
        # report, and a finite value would let a run carry on from garbage
        oracle = make_logcosh(1.0, dim=3)
        with np.errstate(invalid="ignore"):
            assert np.isnan(oracle.prox_f(np.array([2.0, -1.0, 0.5]), math.inf)).all()


def _lasso_for_batches():
    rng = box_rng(11)
    return make_lasso(rng.standard_normal((15, 8)), rng.standard_normal(15), 0.4)


class TestBatchedOracles:
    @pytest.mark.parametrize("oracle", [
        make_quadratic([1.0, 3.0, 10.0], [0.5, 0.0, -2.0]),
        _lasso_for_batches(),
        make_logcosh(2.0, dim=4),
    ], ids=["quadratic", "lasso", "logcosh"])
    def test_batch_rows_equal_single_points(self, oracle):
        xs = box_rng(21).uniform(-3, 3, size=(40, oracle.dim))
        for name in ("eval_f", "eval_h", "eval_g"):
            fn = getattr(oracle, name)
            batch = fn(xs)
            single = [fn(x) for x in xs]
            assert isinstance(batch, np.ndarray) and batch.shape == (40,)
            assert all(type(v) is float for v in single)
            assert np.array_equal(batch, single), name
        assert np.array_equal(oracle.grad_h(xs), [oracle.grad_h(x) for x in xs])
        assert np.array_equal(oracle.prox_g(xs, 0.3), [oracle.prox_g(x, 0.3) for x in xs])
        if oracle.prox_f is not None:
            assert np.array_equal(oracle.prox_f(xs, 0.3), [oracle.prox_f(x, 0.3) for x in xs])

    def test_logcosh_value_matches_scalar_formula(self):
        o = make_logcosh(1.0, dim=50)
        x = box_rng(4).uniform(-30, 30, size=50)
        expect = sum(abs(t) + math.log1p(math.exp(-2.0 * abs(t))) for t in x.tolist())
        assert o.eval_h(x) == pytest.approx(expect, rel=1e-14)

    def test_rowdot_matches_dot_per_row(self):
        rng = box_rng(5)
        for dim in (1, 2, 10, 33):
            a = rng.standard_normal((30, dim))
            b = rng.standard_normal((30, dim))
            assert np.array_equal(problems.rowdot(a, b),
                                  [np.dot(u, w) for u, w in zip(a, b)])
            assert np.array_equal(problems.rowdot(b[0], a), [np.dot(b[0], u) for u in a])


class TestJson:
    def test_roundtrip_kinds(self):
        q = problem_from_json({"kind": "quadratic", "eigs": [1, 2], "b": [0, 0]})
        assert q.kind == "quadratic"
        lc = problem_from_json({"kind": "logcosh", "scale": 2.0, "dim": 2})
        assert lc.dim == 2
        rng = box_rng(0)
        doc = {"kind": "lasso", "a_matrix": rng.standard_normal((4, 3)).tolist(),
               "b": [1.0, 0.0, 0.0, 0.0], "rho": 0.5}
        assert problem_from_json(doc).is_composite

    def test_rejects_unknown_keys(self):
        with pytest.raises(InvalidProblemError):
            problem_from_json({"kind": "quadratic", "eigs": [1], "b": [0], "typo": 1})
        with pytest.raises(InvalidProblemError):
            problem_from_json({"kind": "mystery"})
        with pytest.raises(InvalidProblemError):
            problem_from_json([1, 2, 3])


def test_box_rng_is_deterministic():
    a = problems.box_rng(42).uniform(size=5)
    b = problems.box_rng(42).uniform(size=5)
    assert np.array_equal(a, b)
