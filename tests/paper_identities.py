"""Paper identities that only the tests check against: the closed form of
the gamma recursion, the vanishing-damping gamma bound, and the discrete
sequence-decay theorems with their brute-force oracle.

Not a test module (pytest collects only test_*.py); the test modules
import it.
"""

import math

import numpy as np

from lyapopt.calculus import TABLE_TOL
from lyapopt.problems import box_rng
from lyapopt.schedules import ScheduleError


def gamma_closed_form(gamma0: float, mu: float, t_seq) -> float:
    """Closed form of gamma_k in terms of the rescaled steps t_i = alpha_i/gamma_i.

    For mu = 0 the product formula degenerates to 1/(1/gamma0 + sum t_i).
    """
    if gamma0 <= 0 or mu < 0:
        raise ScheduleError("gamma_closed_form needs gamma0 > 0, mu >= 0")
    t_seq = np.asarray(t_seq, dtype=float)
    if mu == 0.0:
        return gamma0 / (1.0 + gamma0 * float(t_seq.sum()))
    # accumulate in log space so the product stays accurate when mu is tiny
    # and cannot overflow for long sequences; with s = sum log(1 + t_i mu),
    # gamma_k = gamma0 / (e^-s + gamma0 (1 - e^-s) / mu)
    log_prod = float(np.sum(np.log1p(t_seq * mu)))
    decay = math.exp(-log_prod)
    return gamma0 / (decay + gamma0 * (-math.expm1(-log_prod)) / mu)


def avd_gamma_bound(r: float, k: int) -> float:
    """Bound on gamma_k / gamma0 for the vanishing-damping scheme, r = gamma0/L."""
    if r <= 0 or k < 0:
        raise ScheduleError("need r > 0, k >= 0")
    sr = math.sqrt(r)
    return (1.0 + sr / (2.0 + sr)) ** 2 * (2.0 / (2.0 + sr * k)) ** 2


class SequenceParameterError(ValueError):
    pass


def sequence_decay(case: int, a0: float, alphas, k: int) -> float:
    """Bound value at index k for the four decay cases.

    Cases 1 and 2 take a sequence of step factors (only the first k are
    used); cases 3 and 4 take a single scalar alpha.
    """
    if a0 < 0 or k < 0:
        raise SequenceParameterError("need a0 >= 0, k >= 0")
    if case in (1, 2):
        arr = np.asarray(alphas, dtype=float)[:k]
        if case == 1:
            if np.any(arr < 0) or np.any(arr >= 1):
                raise SequenceParameterError("case 1 needs alpha_k in [0, 1)")
            return float(a0 * np.prod(1.0 - arr))
        if np.any(arr < 0):
            raise SequenceParameterError("case 2 needs alpha_k >= 0")
        return float(a0 * np.prod(1.0 / (1.0 + arr)))
    alpha = float(alphas)
    if alpha < 0:
        raise SequenceParameterError("cases 3/4 need alpha >= 0")
    if case == 3:
        return a0 / (1.0 + alpha * a0 * k)
    if case == 4:
        delta = alpha * a0 / (1.0 + alpha * a0)
        return (1.0 + delta) * a0 / (1.0 + alpha * a0 * k)
    raise SequenceParameterError(f"unknown case: {case}")


def _extremal_step(case: int, a: np.ndarray, alpha) -> np.ndarray:
    if case == 1:
        return a * (1.0 - alpha)
    if case == 2:
        return a / (1.0 + alpha)
    if case == 3:
        return a - alpha * a * a
    # case 4: A' = A - alpha A'^2, positive root
    return (-1.0 + np.sqrt(1.0 + 4.0 * alpha * a)) / (2.0 * alpha)


def sequence_decay_oracle(case: int, a0: float, alpha: float, k_max: int,
                          n_random: int = 100, seed: int = 0) -> dict:
    """Brute-force check that the decay bound dominates admissible sequences.

    Runs the extremal recursion (equality, p = 0) alongside n_random
    sequences with random extra dissipation p_k^2 >= 0, and reports the
    largest ratio sequence/bound seen over k <= k_max.  A non-finite a0 or
    alpha raises, and a NaN ratio fails the check.
    """
    # a NaN alpha makes every bound NaN, which `bound > 0` would skip
    if not (math.isfinite(a0) and math.isfinite(alpha)):
        raise SequenceParameterError("need a finite a0 and alpha")
    if case == 3 and alpha * a0 >= 1.0:
        raise SequenceParameterError("case 3 recursion needs alpha * a0 < 1")
    if a0 < 0:
        raise SequenceParameterError("need a0 >= 0")
    if case in (1, 2):
        # the bound is a0 times the k-th power of one step factor: kept as a
        # running product, the same bits as the product over k factors
        factor, product = sequence_decay(case, 1.0, [alpha], 1), 1.0
    rng = box_rng(seed)
    a = np.full(n_random + 1, float(a0))
    ratios = []
    for k in range(1, k_max + 1):
        nxt = _extremal_step(case, a, alpha)
        # random admissible sequences shed extra mass; index 0 is extremal
        shed = rng.uniform(0.0, 0.1, size=n_random + 1) * nxt
        shed[0] = 0.0
        a = np.maximum(nxt - shed, 0.0)
        if case in (1, 2):
            product *= factor
            bound = a0 * product
        else:
            bound = sequence_decay(case, a0, alpha, k)
        if bound > 0:
            ratios.append(float(a.max()) / bound)
    # np.max keeps a NaN ratio, which then fails the check (max() drops it)
    max_ratio = float(np.max(ratios, initial=0.0))
    return {"case": case, "k_max": k_max, "max_ratio": max_ratio,
            "pass": max_ratio <= 1.0 + TABLE_TOL}
