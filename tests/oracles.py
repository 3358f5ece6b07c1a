"""Closed-form oracles that only the tests use.

Each one is an independent formula for a quantity the package finds by
other means, kept here so the package carries only its pipeline.
"""

import math

from mqshape import NumericError, SpecError
from mqshape.criterion import _require_positive_c


def oned_threshold(sigma: float) -> float:
    """Branch point 2/sqrt(3 sigma) of the one-dimensional beta = -1
    criterion, where xi* = 1/c for q = 1."""
    return 2.0 / math.sqrt(3.0 * sigma)


def _case1_lhs_log(c: float, n: int, sigma: float) -> float:
    r = math.hypot(c, 2.0 * math.sqrt(n / sigma))
    return (
        2.0 * math.log(sigma)
        - math.log(16.0)
        + math.log(c)
        + math.log(r)
        + math.log(c + r)
        + math.log(2.0 * c + r + c * c / r)
    )


def critical_point_case1(n: int, sigma: float, tol: float = 1e-10) -> float:
    """Unique critical point of the beta=-1, n>=2 criterion.

    Solves, by bisection on a strictly increasing left side,

        (sigma^2/16) c R (c + R) (2c + R + c^2/R) = n^2,
        R = sqrt(c^2 + 4n/sigma).

    The left side tends to 0 as c -> 0+ and to infinity as c -> infinity,
    so the root exists and is unique; it is the interior minimizer of the
    criterion before admissibility clamping.
    """
    if n < 2:
        raise SpecError(f"requires n >= 2, got n={n}")
    if sigma <= 0.0:
        raise SpecError(f"sigma must be positive, got {sigma}")
    if tol <= 0.0:
        raise SpecError(f"tolerance must be positive, got {tol}")
    target = 2.0 * math.log(n)
    lo, hi = 1e-6, 1.0
    while _case1_lhs_log(lo, n, sigma) > target:
        lo *= 0.1
        if lo < 1e-300:
            raise NumericError("bracket growth exhausted toward zero")
    while _case1_lhs_log(hi, n, sigma) < target:
        hi *= 10.0
        if hi > 1e300:
            raise NumericError("bracket growth exhausted toward infinity")
    ua, ub = math.log(lo), math.log(hi)
    while (ub - ua) > tol:
        um = 0.5 * (ua + ub)
        if _case1_lhs_log(math.exp(um), n, sigma) < target:
            ua = um
        else:
            ub = um
    return math.exp(0.5 * (ua + ub))


def case2_sq_derivative(c: float, sigma: float) -> float:
    """Derivative of H(c)^2 for beta=-1, n=1 on the small-c branch.

    d/dc H^2 = -1/(log(2) c^2)
               + 2 sqrt(3) e^{1 - 1/(c^2 sigma)} (2 - c^2 sigma)/(c^4 sigma).
    Only valid for 0 < c < 2/sqrt(3 sigma).  Near c = 1/sqrt(3 sigma) this
    is a small positive multiple of sigma, which is why the minimum sits a
    little to the left of that heuristic location.
    """
    c = _require_positive_c(c)
    if c >= oned_threshold(sigma):
        raise SpecError(
            f"derivative formula only applies below the branch point, got c={c}"
        )
    c2s = c * c * sigma
    if c2s == 0.0:
        raise NumericError(f"c={c} is too small for the derivative formula")
    return -1.0 / (math.log(2.0) * c * c) + (
        2.0 * math.sqrt(3.0) * math.exp(1.0 - 1.0 / c2s) * (2.0 - c2s) / (c2s * c * c)
    )
