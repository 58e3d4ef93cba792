"""First-order convex optimization methods with numeric Lyapunov certificates.

The package couples a catalog of continuous-time flows (gradient flow,
scaled gradient flow, heavy ball, vanishing-damping, Hessian-driven
accelerated flow) with their discretizations (proximal point, gradient
descent, proximal gradient, momentum, accelerated gradient and accelerated
proximal gradient methods).  Every method carries a per-iteration
contraction certificate and a closed-form rate bound that the test suite
and the CLI check numerically.
"""

from .problems import (
    InvalidProblemError,
    ProblemOracle,
    make_lasso,
    make_logcosh,
    make_quadratic,
    problem_from_json,
)

__all__ = [
    "InvalidProblemError",
    "ProblemOracle",
    "make_quadratic",
    "make_lasso",
    "make_logcosh",
    "problem_from_json",
]
