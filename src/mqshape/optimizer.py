"""Minimization of the criterion curves over the admissible interval.

The admissible interval for the shape parameter is [c_min, infinity) with
c_min = 12 rho sqrt(n) e^{2 n gamma_n} gamma_n (m+1) delta.  Every
supported criterion grows without bound as c -> infinity, so the interval
is capped at a finite right endpoint, recorded in the result for audit.

In practical mode the minimizer of the bare criterion is known in closed
form, so no search is made:

* for the general core it is (n - 1 - beta) / sqrt(2 n sigma) when
  1 + beta - n < 0; otherwise the core is nondecreasing;
* for beta = -1, n = 1 it is u*/sqrt(sigma), with u* the root of
  -u^2/ln 2 + 2 sqrt(3) e^{1 - 1/u^2} (2 - u^2) on the small-c branch.

The optimum is that point or c_min, whichever is larger.  The fixed-b0
and dilation-invariant modes add a convergence factor that moves the
minimizer, and are minimized by a log-spaced scan with golden-section
refinement.  For beta = -1, n >= 2 the critical point is also the unique
root of an explicit monotone equation, solved by bisection in
:func:`critical_point_case1` as an independent check.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .constants import DerivedConstants, Mode, ProblemSpec
from .criterion import Regime, kind_for, log_h_unified
from .errors import NumericError, PreconditionError, SpecError

__all__ = [
    "OptimalResult",
    "minimize_scalar",
    "critical_point_case1",
    "finite_c_cap",
    "optimal_c",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 64
# u* of the module docstring, correctly rounded
_ONED_U_STAR = 0.5166224863922065


@dataclass(frozen=True)
class OptimalResult:
    """Minimizer record for one criterion curve.

    ``clamped_lower`` is set when the minimum sits at the admissible lower
    endpoint (the curve never decreases inside the interval); ``bracket``
    is the interval that was actually searched, including the finite cap
    used in place of infinity.
    """

    c_star: float
    log_h_star: float
    clamped_lower: bool
    iterations: int
    bracket: Tuple[float, float]


@dataclass(frozen=True)
class _ScanResult:
    x: float
    fx: float
    iterations: int
    at_lower: bool


def _eval_checked(f: Callable[[float], float], x: float) -> float:
    v = f(x)
    if not math.isfinite(v):
        raise NumericError(f"criterion evaluated to a non-finite value at c={x!r}")
    return v


def _minimize_info(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> _ScanResult:
    if not (0.0 < lo < hi):
        raise SpecError(f"need 0 < lo < hi, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise SpecError(f"tolerance must be positive, got {tol}")
    ulo, uhi = math.log(lo), math.log(hi)
    step = (uhi - ulo) / (_SCAN_POINTS - 1)
    us = [ulo + k * step for k in range(_SCAN_POINTS - 1)] + [uhi]
    fs = [_eval_checked(f, math.exp(u)) for u in us]
    i = fs.index(min(fs))  # first occurrence, so ties go to the smaller c

    a = us[max(i - 1, 0)]
    b = us[min(i + 1, _SCAN_POINTS - 1)]
    iterations = 0
    # Golden-section refinement in log space; <= on the left comparison
    # biases flat regions toward the smaller c.
    c1 = b - _INV_GOLDEN * (b - a)
    c2 = a + _INV_GOLDEN * (b - a)
    f1 = _eval_checked(f, math.exp(c1))
    f2 = _eval_checked(f, math.exp(c2))
    while (b - a) > tol:
        iterations += 1
        if f1 <= f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - _INV_GOLDEN * (b - a)
            f1 = _eval_checked(f, math.exp(c1))
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + _INV_GOLDEN * (b - a)
            f2 = _eval_checked(f, math.exp(c2))
        if iterations > 400:
            break
    x = math.exp(0.5 * (a + b))
    at_lower = i == 0 and (x - lo) <= 4.0 * tol * lo
    if at_lower:
        x = lo
    return _ScanResult(x=x, fx=_eval_checked(f, x), iterations=iterations, at_lower=at_lower)


def minimize_scalar(
    f: Callable[[float], float], lo: float, hi: float, tol: float = 1e-8
) -> Tuple[float, float]:
    """Minimize a scalar function on [lo, hi] to relative tolerance tol.

    A 64-point log-spaced scan brackets the minimum, then golden-section
    refinement narrows it.  For unimodal f the result is within tol*x of
    the true argmin; monotone functions return the matching endpoint.
    Deterministic; raises :class:`NumericError` if f is non-finite
    anywhere it is probed.
    """
    info = _minimize_info(f, lo, hi, tol)
    return info.x, info.fx


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


def _interior_start(spec: ProblemSpec, regime: Regime) -> Optional[float]:
    """Minimizer of the bare criterion, when it is interior."""
    if regime is Regime.BETA_NEG1_1D:
        return _ONED_U_STAR / math.sqrt(spec.sigma)
    p = spec.n - 1.0 - spec.beta
    if p <= 0.0:
        return None
    return p / math.sqrt(2.0 * spec.n * spec.sigma)


def finite_c_cap(sigma: float) -> float:
    """Largest c at which the criterion stays finite in double precision:
    it keeps sigma c^2 / 8, the criterion's growth, representable.  For
    sigma below ~0.45 the quotient alone overflows, hence the min."""
    return math.sqrt(min(8e307 / sigma, sys.float_info.max))


def optimal_c(
    spec: ProblemSpec, dc: DerivedConstants, tol: float = 1e-8
) -> OptimalResult:
    """Optimal shape parameter on the admissible interval.

    Minimizes :func:`mqshape.criterion.log_h_unified` over
    [c_min, C_HI], where C_HI caps the unbounded interval at
    max(1000 * scale, 10 * c0 when defined, 10 * c_min), further limited
    so the criterion stays finite in double precision.  In practical mode
    the minimizer is max(c_min, the criterion's closed-form critical
    point), found with no search (``iterations`` is 0); the other modes
    scan the whole interval.  ``clamped_lower`` is set when the minimum
    sits at c_min.
    """
    kind = kind_for(spec)
    if spec.b0 is not None:
        bound = spec.b0 / (4.0 * dc.gamma_n * (dc.m + 1))
        if not spec.delta < bound:
            raise PreconditionError(
                f"fill distance delta={spec.delta:g} must be below "
                f"b0/(4 gamma_n (m+1)) = {bound:g}"
            )
    if dc.log_c_min.log_value > 709.0:
        raise NumericError(
            "admissible lower endpoint c_min overflows double precision "
            f"(log c_min = {dc.log_c_min.log_value:.6g}); this regime can "
            "only be inspected in the log domain"
        )
    c_min = dc.log_c_min.value

    start = _interior_start(spec, kind.regime)
    scale = max(1.0, start if start is not None else 1.0)
    c_hi = max(1e3 * scale, 10.0 * c_min)
    if dc.log_c0 is not None and dc.log_c0.log_value < math.log(1e306):
        c_hi = max(c_hi, 10.0 * dc.log_c0.value)
    c_hi = min(c_hi, finite_c_cap(spec.sigma))
    if not c_hi > c_min * (1.0 + 1e-12):
        raise NumericError(
            f"admissible interval [{c_min:g}, {c_hi:g}] collapses under the "
            "finite-evaluation cap; delta is too large for this regime"
        )

    def objective(c: float) -> float:
        return log_h_unified(c, spec, dc, kind)

    if spec.mode is Mode.PRACTICAL:
        clamped = start is None or start <= c_min
        c_star = c_min if clamped else start
        iterations = 0
    else:
        info = _minimize_info(objective, c_min, c_hi, tol)
        clamped = info.at_lower and info.x <= c_min * (1.0 + 8.0 * tol)
        c_star = c_min if clamped else info.x
        iterations = info.iterations
    return OptimalResult(
        c_star=c_star,
        log_h_star=objective(c_star),
        clamped_lower=clamped,
        iterations=iterations,
        bracket=(c_min, c_hi),
    )
