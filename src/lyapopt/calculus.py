"""Convex-analysis quantities used as test oracles throughout the package.

Bregman divergences, the symmetrized divergence, and sampling-based
checkers for the classical two-sided bounds on smooth convex functions.
The checkers are certificates over samples: they can refute an inequality
but not prove it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemOracle, box_rng, rowdot, sample_box, unbox

# every verifier's slack tolerance and sampling-box radius
SLACK_TOL = 1e-9
SAMPLING_RADIUS = 10.0
# how far a rate table's measured factor (or sequence) may exceed its bound
TABLE_TOL = 1e-12


@dataclass(frozen=True)
class DivergencePair:
    """Forward/backward Bregman divergences and their symmetrization.

    In exact arithmetic 2 * m_sym == d_forward + d_backward.  The three are
    computed separately, so in floating point they agree only up to
    rounding.
    """

    d_forward: float
    d_backward: float
    m_sym: float


def bregman(oracle: ProblemOracle, y, x) -> DivergencePair:
    """Divergences of the smooth part h between x and y.

    x and y may be batches of points along a leading axis; the fields of
    the result are then arrays.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    gx = oracle.grad_h(x)
    gy = oracle.grad_h(y)
    hx, hy = oracle.eval_h(x), oracle.eval_h(y)
    d_fwd = hy - hx - rowdot(gx, y - x)
    d_bwd = hx - hy - rowdot(gy, x - y)
    m_sym = 0.5 * rowdot(gx - gy, x - y)
    return DivergencePair(d_forward=unbox(d_fwd), d_backward=unbox(d_bwd), m_sym=unbox(m_sym))


def sampled_verdict(slack, tol):
    """Worst slack over samples, the index of its first occurrence, and
    the number of violations.

    A sample violates when its slack is not >= -tol, so a NaN slack counts
    (fail closed).  The worst slack skips NaN; with nothing below +inf it
    is (inf, None).
    """
    slack = np.asarray(slack, dtype=float)
    violations = int(np.count_nonzero(~(slack >= -tol)))
    ranked = np.where(np.isnan(slack), np.inf, slack)
    i = int(np.argmin(ranked)) if ranked.size else None
    if i is None or ranked[i] == np.inf:
        return np.inf, None, violations
    return float(ranked[i]), i, violations


def _entries(checks: dict, samples: np.ndarray, tol) -> dict:
    """Report entries for named slack arrays over the same samples."""
    report = {}
    for name, slack in checks.items():
        worst, i, violations = sampled_verdict(slack, tol)
        report[name] = {"inequality": name, "worst_slack": worst,
                        "arg_worst": None if i is None else samples[i].tolist(),
                        "violations": violations}
    return report


def _require_samples(samples: int) -> None:
    # a check over no samples certifies nothing: its zero violations are no pass
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")


def check_bounds_lemma1(oracle: ProblemOracle, samples: int, seed: int) -> dict:
    """Sample pairs (x, y) and check the four curvature bounds on h.

    Upper bounds L/2 ||x-y||^2 on both divergences, lower bounds
    mu/2 ||x-y||^2 and ||grad diff||^2/(2L); for mu > 0 also the upper
    bound ||grad diff||^2/(2 mu).  Slack is (bound side) - (bounded side);
    a violation is slack not >= -1e-9 * (1 + ||x-y||^2).  samples < 1
    raises.
    """
    _require_samples(samples)
    rng = box_rng(seed)
    mu, lip = oracle.mu, oracle.lip
    xs = sample_box(rng, oracle.x_star, SAMPLING_RADIUS, samples)
    ys = sample_box(rng, oracle.x_star, SAMPLING_RADIUS, samples)
    div = bregman(oracle, ys, xs)
    dist2 = rowdot(xs - ys, xs - ys)
    gdiff2 = np.sum((oracle.grad_h(xs) - oracle.grad_h(ys)) ** 2, axis=-1)
    big = np.maximum(div.d_forward, div.m_sym)
    small = np.minimum(div.d_forward, div.m_sym)
    checks = {
        "upper_L": 0.5 * lip * dist2 - big,
        "lower_mu": small - 0.5 * mu * dist2,
        "lower_grad_sq": small - gdiff2 / (2.0 * lip),
    }
    if mu > 0:
        checks["upper_grad_sq"] = gdiff2 / (2.0 * mu) - big
    return _entries(checks, np.hstack([xs, ys]), SLACK_TOL * (1.0 + dist2))


def check_minimum_bounds(oracle: ProblemOracle, samples: int, seed: int) -> dict:
    """Check the corollary bounds that pin one argument at the minimizer.
    samples < 1 raises."""
    _require_samples(samples)
    rng = box_rng(seed)
    mu, lip = oracle.mu, oracle.lip
    xs = sample_box(rng, oracle.x_star, SAMPLING_RADIUS, samples)
    g = oracle.grad_h(xs)
    gap = oracle.eval_h(xs) - oracle.eval_h(oracle.x_star)
    d = xs - oracle.x_star
    dist2 = rowdot(d, d)
    gnorm2 = rowdot(g, g)
    inner = rowdot(g, d)
    refined = (mu * lip / (mu + lip)) * dist2 + gnorm2 / (mu + lip)
    checks = {
        "gap_lower_grad": gap - gnorm2 / (2.0 * lip),
        "gap_upper_dist": 0.5 * lip * dist2 - gap,
        "inner_lower_grad": inner - gnorm2 / lip,
        "inner_upper_dist": lip * dist2 - inner,
        "inner_refined": inner - refined,
    }
    if mu > 0:
        checks.update({
            "gap_lower_dist": gap - 0.5 * mu * dist2,
            "gap_upper_grad": gnorm2 / (2.0 * mu) - gap,
            "inner_lower_dist": inner - mu * dist2,
            "inner_upper_grad": gnorm2 / mu - inner,
            "inner_strong": inner - gap - 0.5 * mu * dist2,
        })
    return _entries(checks, xs, SLACK_TOL * (1.0 + dist2))


def total_violations(report: dict) -> int:
    return sum(entry["violations"] for entry in report.values())

