"""Parameter sequences for the accelerated methods.

The scaling factor gamma follows the implicit-Euler recursion
gamma_{k+1} = (gamma_k + alpha_k * mu) / (1 + alpha_k); each accelerated
method couples it with its own step-size rule.  The contraction factor
rho_k = prod 1/(1 + alpha_i) admits closed-form min{sublinear, linear}
bounds, kept here as one rule table.
"""

from __future__ import annotations

import math


class ScheduleError(ValueError):
    """Invalid schedule parameters (nonpositive inputs, gamma0 < mu...)."""


def gamma_step(gamma_k: float, alpha_k: float, mu: float) -> float:
    """One implicit-Euler step of gamma' = mu - gamma."""
    if gamma_k <= 0 or alpha_k <= 0 or mu < 0:
        raise ScheduleError("gamma_step needs gamma_k > 0, alpha_k > 0, mu >= 0")
    return (gamma_k + alpha_k * mu) / (1.0 + alpha_k)


def nag_alpha(gamma_k: float, lip: float) -> float:
    """Root of L a^2 = gamma (2 + a)."""
    return (gamma_k + math.sqrt(gamma_k * gamma_k + 8.0 * lip * gamma_k)) / (2.0 * lip)


def apg_alpha(gamma_k: float, lip: float) -> float:
    """a = sqrt(gamma / L)."""
    return math.sqrt(gamma_k / lip)


def new_apg_alpha(gamma_k: float, lip: float) -> float:
    """Positive root of L a^2 = gamma (1 + a)."""
    if gamma_k <= 0 or lip <= 0:
        raise ScheduleError("need gamma_k > 0, lip > 0")
    return (gamma_k + math.sqrt(gamma_k * gamma_k + 4.0 * lip * gamma_k)) / (2.0 * lip)


def fast_grad_alpha(gamma_k: float, lip: float) -> float:
    """a = sqrt(gamma / (4L))."""
    return math.sqrt(gamma_k / (4.0 * lip))


STEP_RULES = {
    "nag": nag_alpha,
    "apg": apg_alpha,
    "new_apg": new_apg_alpha,
    "fast_grad": fast_grad_alpha,
}


def momentum_alpha(mu: float, lip: float) -> float:
    """Constant momentum step a = sqrt(mu / L), which satisfies L a^2 <= mu (1 + a)."""
    if not 0 < mu <= lip:
        raise ScheduleError("momentum needs 0 < mu <= lip")
    return math.sqrt(mu / lip)


def avd_alpha(gamma_k: float, lip: float) -> float:
    """Positive root of L a^2 = 1 + a sqrt(gamma); always >= 1/sqrt(L)."""
    if gamma_k < 0 or lip <= 0:
        raise ScheduleError("need gamma_k >= 0, lip > 0")
    sg = math.sqrt(gamma_k)
    return (sg + math.sqrt(gamma_k + 4.0 * lip)) / (2.0 * lip)


def _b0_c(r: float) -> float:
    # each step grows 1/sqrt(rho) by at least sqrt(r)/(1 + sqrt(1 + a))
    # with a <= sqrt(r); for r >= 1 the looser a <= r gives the same form
    return 1.0 + math.sqrt(1.0 + max(r, math.sqrt(r)))


# rule -> (gamma0, lip, r, q) -> (c, sqrt r, linear base), with r = gamma0/L
# and q = mu/L: rho_k <= min{(c / (c + sqrt(r) k))^2, base^-k}.  The
# fast-gradient rule a = sqrt(gamma/(4L)) is the B = 0 rule with L replaced
# by 4L, which reproduces its stated bound exactly.
_RATE_RULES = {
    "b0": lambda g0, lip, r, q: (_b0_c(r), math.sqrt(r), 1.0 + math.sqrt(q)),
    "b_half": lambda g0, lip, r, q: (2.0, math.sqrt(r), 1.0 + math.sqrt(q)),
    "nag": lambda g0, lip, r, q: (math.sqrt(2.0), math.sqrt(r), 1.0 + math.sqrt(2.0 * q)),
    "fast_grad": lambda g0, lip, r, q: (_b0_c(g0 / (4.0 * lip)), math.sqrt(g0 / (4.0 * lip)),
                                        1.0 + math.sqrt(q / 4.0)),
}
_RATE_RULES["apg"] = _RATE_RULES["b0"]
_RATE_RULES["new_apg"] = _RATE_RULES["b_half"]


def _rate_terms(rule: str, gamma0: float, mu: float, lip: float) -> tuple:
    """rho_bound's k-independent terms: (c, sqrt r, linear base, NaN flag)."""
    if gamma0 <= 0 or lip <= 0 or mu < 0:
        raise ScheduleError("invalid rho_bound parameters")
    if gamma0 < mu:
        raise ScheduleError("accelerated bounds require gamma0 >= mu")
    r = gamma0 / lip
    q = mu / lip
    terms = _RATE_RULES.get(rule)
    if terms is None:
        raise ScheduleError(f"unknown rate rule: {rule!r}")
    return (*terms(gamma0, lip, r, q), math.isnan(r) or math.isnan(q))


# The last (rule, gamma0, mu, lip, terms) rho_bound computed, keyed on the
# identity of its arguments: a hit means the same objects, so the same types
# and values.  Stored only after _rate_terms returns, so a refused set raises
# again.
_last_terms = (None, None, None, None, None)


def rho_bound(rule: str, gamma0: float, mu: float, lip: float, k: int) -> float:
    """Closed-form min{sublinear, linear} bound on rho_k for the named rule.

    Requires gamma0 = r * lip >= mu (hypothesis of the bounds).
    """
    global _last_terms
    if k < 0:
        raise ScheduleError("invalid rho_bound parameters")
    last = _last_terms
    if rule is last[0] and gamma0 is last[1] and mu is last[2] and lip is last[3]:
        c, sr, base, nan = last[4]
    else:
        terms = _rate_terms(rule, gamma0, mu, lip)
        _last_terms = (rule, gamma0, mu, lip, terms)
        c, sr, base, nan = terms
    sublinear, linear = (c / (c + sr * k)) ** 2, base ** (-k)
    # min(sublinear, linear) spelled out: the builtin's call costs more than
    # the arithmetic
    bound = linear if linear < sublinear else sublinear
    # min() drops a NaN term, so a NaN parameter would give a finite bound
    return math.nan if nan else bound


def iterate_schedule(rule: str, gamma0: float, mu: float, lip: float, k_max: int):
    """Run the coupled (gamma, alpha) recursion; returns alphas, gammas, rhos.

    Each is a list, of Python floats for float mu and lip: gammas and rhos
    have length k_max + 1 (including index 0), alphas k_max.
    """
    if rule not in STEP_RULES:
        raise ScheduleError(f"unknown step rule: {rule!r}")
    # written so that a NaN gamma0 gets through, to a NaN table
    if gamma0 <= 0 or lip <= 0 or k_max < 0:
        raise ScheduleError("iterate_schedule needs gamma0 > 0, lip > 0 and k_max >= 0")
    alpha_fn = STEP_RULES[rule]
    # on Python floats, and returned as such: a numpy element read or write
    # costs more than the step, here and in every per-k reader
    gamma, rho = float(gamma0), 1.0
    alphas, gammas, rhos = [], [gamma], [rho]
    for _ in range(k_max):
        a = alpha_fn(gamma, lip)
        alphas.append(a)
        gamma = gamma_step(gamma, a, mu)
        rho = rho / (1.0 + a)
        gammas.append(gamma)
        rhos.append(rho)
    return alphas, gammas, rhos
