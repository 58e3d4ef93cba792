"""Convex test-problem oracles shared by all solvers and verifiers.

Each oracle describes a composite objective ``f = h + g`` with a smooth
part ``h`` (value + gradient, curvature bounds ``mu <= lip``), a convex
possibly nonsmooth part ``g`` (value + proximal map), and a reference
minimizer.  Oracles are immutable after construction and safe to share
across concurrent runs; every evaluation is pure.

Every oracle callable takes a single point (a 1-D vector) or a batch of
points stacked along a leading axis, shape ``(n, dim)``.  ``eval_*``
returns a ``float`` for a point and an array of shape ``(n,)`` for a
batch; ``grad_h`` and the prox maps return arrays of the input's shape.
For quadratics and LASSO a batch row gives, bit for bit, the value of
the same point passed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray


class InvalidProblemError(ValueError):
    """Raised when problem data is inconsistent (bad eigenvalues, shapes...)."""


@dataclass(frozen=True)
class ProblemOracle:
    """A convex objective f = h + g with the constants the theory needs.

    ``prox_g(w, s)`` solves argmin_x { g(x) + ||x - w||^2 / (2 s) }.
    ``prox_f`` is the analogous map for the full objective and is only
    available when a closed form exists (quadratics).  ``radius_r0`` bounds
    ``||x - x*||`` over the sublevel set { f <= f0_level } for coercive
    problems; it backs the convex-case (mu = 0) rate bounds.
    """

    dim: int
    eval_f: Callable[[Vector], float]
    eval_h: Callable[[Vector], float]
    grad_h: Callable[[Vector], Vector]
    eval_g: Callable[[Vector], float]
    prox_g: Callable[[Vector, float], Vector]
    mu: float
    lip: float
    x_star: Vector
    f_star: float
    prox_f: Optional[Callable[[Vector, float], Vector]] = None
    radius_r0: Optional[float] = None
    f0_level: Optional[float] = None
    x0_ref: Optional[Vector] = None
    kind: str = field(default="", compare=False)

    @property
    def is_composite(self) -> bool:
        return self.eval_g(self.x_star) != 0.0 or self.kind == "lasso"


def rowdot(a: np.ndarray, b: np.ndarray):
    """np.dot over the last axis of two arrays, broadcasting the leading
    (batch) axes.

    Each row goes through the same BLAS dot kernel as np.dot on that row
    alone, so batched values equal the per-point ones bit for bit.
    """
    if a.ndim == 1 and b.ndim == 1:
        return np.dot(a, b)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a vector x, and for each row of a batch (one gemv per row)."""
    return a @ x if x.ndim == 1 else np.matmul(a, x[..., None])[..., 0]


def unbox(v):
    """A float for a single point's value, the array for a batch."""
    return v if isinstance(v, np.ndarray) and v.ndim else float(v)


def _zero(x):
    x = np.asarray(x)
    return np.zeros(x.shape[:-1]) if x.ndim > 1 else 0.0


def _identity(w, s):
    return np.asarray(w, dtype=float)


def _as_vector(v, name: str) -> Vector:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidProblemError(f"{name} must be a nonempty 1-D array")
    return arr


def make_quadratic(eigs, b) -> ProblemOracle:
    """Diagonal quadratic f(x) = 1/2 sum_i eigs_i x_i^2 - <b, x>.

    The canonical smooth strongly convex instance: mu/lip are the extreme
    eigenvalues and both prox maps have closed forms.
    """
    eigs = _as_vector(eigs, "eigs")
    b = _as_vector(b, "b")
    if eigs.shape != b.shape:
        raise InvalidProblemError("eigs and b must have the same length")
    if np.any(eigs <= 0):
        raise InvalidProblemError("all eigenvalues must be positive")

    x_star = b / eigs
    f_star = float(0.5 * np.dot(eigs * x_star, x_star) - np.dot(b, x_star))

    def eval_h(x):
        x = np.asarray(x, dtype=float)
        return unbox(0.5 * rowdot(eigs * x, x) - rowdot(b, x))

    def grad_h(x):
        return eigs * x - b

    def prox_f(w, s):
        return (w + s * b) / (1.0 + s * eigs)

    return ProblemOracle(
        dim=eigs.size,
        eval_f=eval_h,
        eval_h=eval_h,
        grad_h=grad_h,
        eval_g=_zero,
        prox_g=_identity,
        mu=float(eigs.min()),
        lip=float(eigs.max()),
        x_star=x_star,
        f_star=f_star,
        prox_f=prox_f,
        kind="quadratic",
    )


def soft_threshold(w: Vector, t: float) -> Vector:
    """Componentwise prox of t * ||.||_1."""
    return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)


def _lasso_reference_solution(
    a: np.ndarray, b: Vector, rho: float, mu: float, lip: float
) -> Vector:
    """High-accuracy LASSO minimizer: accelerated proximal gradient run to
    near machine precision, then a direct solve on the detected support."""
    m, n = a.shape
    gram_rhs = a.T @ b

    def grad_h(x):
        return a.T @ (a @ x) - gram_rhs

    # accelerated proximal gradient (gamma0 = lip)
    x = np.zeros(n)
    v = x.copy()
    y = x - grad_h(x) / lip
    alpha = 1.0  # sqrt(gamma0 / lip)
    gm_norm = np.inf
    for _ in range(200_000):
        w = (y + alpha * v) / (1.0 + alpha)
        s = 1.0 / (lip * (1.0 + alpha))
        x_new = soft_threshold(w, s * rho)
        y_new = x_new - grad_h(x_new) / lip
        v = x_new + (y_new - y) / (alpha + mu / lip)
        alpha = math.sqrt((alpha * alpha + alpha * mu / lip) / (1.0 + alpha))
        x, y = x_new, y_new
        gm = lip * (x - soft_threshold(x - grad_h(x) / lip, rho / lip))
        gm_norm = np.linalg.norm(gm)
        if gm_norm < 1e-12:
            break

    # polish: solve the reduced smooth system on the support
    support = np.abs(x) > 1e-10 * max(1.0, float(np.abs(x).max()))
    if support.any():
        a_s = a[:, support]
        sgn = np.sign(x[support])
        try:
            z = np.linalg.solve(a_s.T @ a_s, a_s.T @ b - rho * sgn)
        except np.linalg.LinAlgError:
            return x
        if np.all(np.sign(z) == sgn):
            resid = a_s @ z - b
            dual = np.abs(a.T @ resid)
            if np.all(dual[~support] <= rho * (1.0 + 1e-8)):
                polished = np.zeros(n)
                polished[support] = z
                return polished
    return x


def make_lasso(a_matrix, b, rho: float) -> ProblemOracle:
    """LASSO: h(x) = 1/2 ||Ax - b||^2, g(x) = rho ||x||_1.

    lip is the top eigenvalue of A^T A and mu the bottom one (0 for wide
    A), both from one symmetric eigendecomposition, exact up to round-off
    (an iterative estimate of lip stops below it: the unsafe side for a
    smoothness constant).  The reference minimizer is computed by a long
    accelerated proximal gradient run polished on the detected support.
    """
    a = np.asarray(a_matrix, dtype=float)
    b = _as_vector(b, "b")
    if a.ndim != 2 or a.shape[0] != b.size:
        raise InvalidProblemError("a_matrix must be 2-D with rows matching b")
    if rho <= 0:
        raise InvalidProblemError("rho must be positive")
    n = a.shape[1]
    gram = a.T @ a

    eigs = np.linalg.eigvalsh(gram)
    lip = float(eigs[-1])
    if lip <= 0:
        raise InvalidProblemError("A must be nonzero")
    mu = float(eigs[0])
    if mu < 1e-12 * lip:
        mu = 0.0

    gram_rhs = a.T @ b

    def eval_h(x):
        r = _matvec(a, np.asarray(x, dtype=float)) - b
        return unbox(0.5 * rowdot(r, r))

    def grad_h(x):
        return _matvec(gram, np.asarray(x, dtype=float)) - gram_rhs

    def eval_g(x):
        return unbox(rho * np.abs(x).sum(axis=-1))

    def prox_g(w, s):
        return soft_threshold(np.asarray(w, dtype=float), s * rho)

    x_star = _lasso_reference_solution(a, b, rho, mu, lip)
    f_star = eval_h(x_star) + eval_g(x_star)

    # Coercivity radius for the sublevel set at x0 = 0: any x with f(x) <= f0
    # has rho*||x||_1 <= f0, so ||x - x*|| <= f0/rho + ||x*||.
    f0 = eval_h(np.zeros(n))
    radius = f0 / rho + float(np.linalg.norm(x_star))

    return ProblemOracle(
        dim=n,
        eval_f=lambda x: eval_h(x) + eval_g(x),
        eval_h=eval_h,
        grad_h=grad_h,
        eval_g=eval_g,
        prox_g=prox_g,
        mu=mu,
        lip=lip,
        x_star=x_star,
        f_star=f_star,
        radius_r0=radius,
        f0_level=f0,
        x0_ref=np.zeros(n),
        kind="lasso",
    )


def _logcosh_scalar(t: float) -> float:
    # log(e^t + e^-t), overflow-safe
    a = abs(t)
    return a + math.log1p(math.exp(-2.0 * a))


def make_logcosh(scale: float, dim: int = 1) -> ProblemOracle:
    """Coercive, convex but not strongly convex smooth instance.

    f(x) = sum_i log(e^{x_i} + e^{-x_i}), minimized at 0 with value
    dim * log 2; per-coordinate curvature is sech^2 <= 1 so lip = 1 and
    mu = 0.  ``scale`` sets the stored initial point x0 = scale * ones,
    from which the coercivity radius of the sublevel set {f <= f(x0)} is
    computed by bisection.
    """
    if scale <= 0:
        raise InvalidProblemError("scale must be positive")
    if dim < 1:
        raise InvalidProblemError("dim must be >= 1")

    def eval_h(x):
        a = np.abs(np.asarray(x, dtype=float))
        return unbox((a + np.log1p(np.exp(-2.0 * a))).sum(axis=-1))

    def grad_h(x):
        return np.tanh(np.asarray(x, dtype=float))

    x0 = np.full(dim, float(scale))
    f0 = eval_h(x0)

    # The farthest point of {f <= f0} from 0 puts all excess value in one
    # coordinate: solve logcosh(t) = f0 - (dim - 1) * log 2 by bisection.
    target = f0 - (dim - 1) * math.log(2.0)
    lo, hi = 0.0, 1.0
    while _logcosh_scalar(hi) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _logcosh_scalar(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    radius = 0.5 * (lo + hi)

    def _prox_scalar(w, s):
        # solve x + s tanh(x) = w; the root shares the sign of w and
        # |x| <= |w|, so Newton is safeguarded by that bracket
        lo, hi = min(0.0, w), max(0.0, w)
        x = w / (1.0 + s)
        for _ in range(100):
            phi = x + s * math.tanh(x) - w
            if abs(phi) <= 1e-15 * (1.0 + abs(w)):
                break
            if phi > 0:
                hi = x
            else:
                lo = x
            step = phi / (1.0 + s * (1.0 - math.tanh(x) ** 2))
            x_new = x - step
            if not lo < x_new < hi:
                x_new = 0.5 * (lo + hi)
            x = x_new
        return x

    def prox_f(w, s):
        w = np.asarray(w, dtype=float)
        return np.array([_prox_scalar(t, s) for t in w.ravel().tolist()]).reshape(w.shape)

    return ProblemOracle(
        dim=dim,
        eval_f=eval_h,
        eval_h=eval_h,
        grad_h=grad_h,
        eval_g=_zero,
        prox_g=_identity,
        mu=0.0,
        lip=1.0,
        x_star=np.zeros(dim),
        f_star=dim * math.log(2.0),
        prox_f=prox_f,
        radius_r0=radius,
        f0_level=f0,
        x0_ref=x0,
        kind="logcosh",
    )


def subgradient_residual(oracle: ProblemOracle, w, s: float) -> Vector:
    """q = (w - prox_g(w, s)) / s, a subgradient of g at prox_g(w, s)."""
    if s <= 0:
        raise InvalidProblemError("s must be positive")
    w = np.asarray(w, dtype=float)
    return (w - oracle.prox_g(w, s)) / s


_JSON_KEYS = {
    "quadratic": {"kind", "eigs", "b"},
    "lasso": {"kind", "a_matrix", "b", "rho"},
    "logcosh": {"kind", "scale", "dim"},
}


def problem_from_json(doc: dict) -> ProblemOracle:
    """Build an oracle from a JSON document {"kind": ..., parameters...}."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidProblemError("problem document must be an object with a 'kind'")
    kind = doc["kind"]
    if kind not in _JSON_KEYS:
        raise InvalidProblemError(f"unknown problem kind: {kind!r}")
    extra = set(doc) - _JSON_KEYS[kind]
    if extra:
        raise InvalidProblemError(f"unknown keys for {kind}: {sorted(extra)}")
    if kind == "quadratic":
        return make_quadratic(doc["eigs"], doc["b"])
    if kind == "lasso":
        return make_lasso(doc["a_matrix"], doc["b"], float(doc["rho"]))
    return make_logcosh(float(doc["scale"]), int(doc.get("dim", 1)))


def sample_box(rng: np.random.Generator, center: Vector, radius: float, n: int) -> np.ndarray:
    """n uniform samples from the axis-aligned box of the given radius."""
    return center + rng.uniform(-radius, radius, size=(n, center.size))


def box_rng(seed: int) -> np.random.Generator:
    """Counter-based deterministic generator used by every sampling checker."""
    return np.random.Generator(np.random.Philox(seed))
