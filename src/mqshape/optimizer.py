"""Minimization of the criterion curves over the admissible interval.

The admissible interval for the shape parameter is [c_min, infinity) with
c_min = 12 rho sqrt(n) e^{2 n gamma_n} gamma_n (m+1) delta, empty when a
cube side puts the knee c0 below c_min.  Every
supported criterion grows without bound as c -> infinity, but it is a
double only up to :func:`mqshape.criterion.finite_cap`, so the interval
searched is [c_min, cap], recorded in the result for audit.

The minimizer is found with no scan.  Below the knee
:func:`mqshape.criterion.log_knee` (everywhere in dilation-invariant
mode) the mode adds -eta c to log H, eta = |eta(delta)|; beyond it, and
so everywhere in practical mode, it adds a constant (eta = 0).  The
criterion is evaluated at c_min, at the local minima of log H - eta c on
each piece, and at the knee; the least value wins.  The criterion owns
the shape of its curve: where its slope rises, where it meets eta, and
its closed-form minima at eta = 0 (``minima`` of
:func:`mqshape.criterion._shape_of`); this module only picks the pieces
and the candidates.

Beyond the cap the slope only grows, so a criterion that still falls
there has its minimizer beyond it, near 4 eta/sigma, where log H is about
-2 eta^2/sigma, far below any value under the cap; it cannot be
evaluated, and is refused.  :func:`curve_range` alone sets the range on
which a curve is drawn, from c_min past the knee and c* up to the cap.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Tuple

from .constants import DerivedConstants, ProblemSpec
from .criterion import _shape_of, finite_cap, log_h_unified, log_knee, regime_for
from .errors import NumericError, PreconditionError, SpecError

__all__ = [
    "OptimalResult",
    "curve_range",
    "minimize_scalar",
    "optimal_c",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_POINTS = 64


class OptimalResult(NamedTuple):
    """Minimizer record for one criterion curve.

    ``clamped_lower`` is set when the minimum sits at the admissible lower
    endpoint c_min; ``bracket`` is the interval searched, [c_min, cap]
    with :func:`mqshape.criterion.finite_cap` in place of infinity.
    The minimizer is found in closed form, so ``iterations`` is always 0.
    """

    c_star: float
    log_h_star: float
    clamped_lower: bool
    iterations: int
    bracket: Tuple[float, float]


def _eval_checked(f: Callable[..., float], x: float, *args) -> float:
    v = f(x, *args)
    if not math.isfinite(v):
        raise NumericError(f"criterion evaluated to a non-finite value at c={x!r}")
    return v


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
    if i == 0 and (x - lo) <= 4.0 * tol * lo:
        x = lo
    return x, _eval_checked(f, x)


def optimal_c(spec: ProblemSpec, dc: DerivedConstants) -> OptimalResult:
    """Optimal shape parameter on the admissible interval.

    Minimizes :func:`mqshape.criterion.log_h_unified` over [c_min, cap],
    cap = :func:`mqshape.criterion.finite_cap`, by evaluating it at
    c_min, at the local minima found as in the module docstring, and at
    the knee (:func:`mqshape.criterion.log_knee`) inside it; the least
    value wins, ties going to the smaller c.  c_min is skipped when the
    criterion falls there.  In practical mode the minimizer is
    max(c_min, the core's critical point), in closed form.  ``iterations``
    is always 0 and ``bracket`` is (c_min, cap); ``clamped_lower`` is set
    when the minimum sits at c_min.  Raises :class:`PreconditionError`
    when ``dc.admits`` refuses c0, so that no c is admissible, and
    :class:`NumericError` when the criterion still falls at the cap, past
    which its minimizer lies.
    """
    shape = _shape_of(spec)
    # every c >= c_min is admissible once c0 is, and none is otherwise
    if dc.log_c0 is not None and not dc.admits(dc.log_c0.log_value):
        bound = math.exp(dc.log_fill_cap_at_log_c(dc.log_c0.log_value))
        raise PreconditionError(
            f"fill distance delta={spec.delta!r} must not exceed "
            f"b0/(4 gamma_n (m+1)) = {bound!r}"
        )
    if dc.log_c_min.log_value > 709.0:
        raise NumericError(
            "admissible lower endpoint c_min overflows double precision "
            f"(log c_min = {dc.log_c_min.log_value:.6g}); this regime can "
            "only be inspected in the log domain"
        )
    c_min = dc.log_c_min.value
    cap = finite_cap(spec, dc)
    if not cap > c_min * (1.0 + 1e-12):
        raise NumericError(
            f"admissible interval [{c_min:g}, {cap:g}] collapses under the "
            "finite-evaluation cap; delta is too large for this regime"
        )

    # the pieces of [c_min, cap) and the rate eta of the factor's -eta c
    log_c0 = log_knee(spec, dc)
    knee = math.exp(log_c0) if log_c0 < math.log(cap) else cap
    pieces = [(c_min, knee, -dc.eta), (max(knee, c_min), cap, 0.0)]
    pieces = [piece for piece in pieces if piece[0] < piece[1]]

    if shape.slope(cap) < pieces[-1][2]:
        raise NumericError(
            f"the criterion still decreases at c = {cap:g}, beyond which it is "
            "not finite in double precision; its minimizer lies past that cap"
        )
    candidates = {lo for lo, _, _ in pieces[1:]}
    for lo, hi, rate in pieces:
        candidates.update(shape.minima(rate, lo, hi))
    # where the criterion falls at c_min, a point to its right is lower
    if shape.slope(c_min) >= pieces[0][2] or not candidates:
        candidates.add(c_min)

    # ascending, so that min() sends ties to the smaller c
    values = {c: _eval_checked(log_h_unified, c, spec, dc) for c in sorted(candidates)}
    c_star = min(values, key=values.__getitem__)
    return OptimalResult(
        c_star=c_star,
        log_h_star=values[c_star],
        clamped_lower=c_star == c_min,
        iterations=0,
        bracket=(c_min, cap),
    )


def curve_range(
    spec: ProblemSpec, dc: DerivedConstants, c_lo: float | None = None, c_hi: float | None = None
) -> Tuple[float, float]:
    """The range (c_lo, c_hi) on which ``spec``'s criterion curve is drawn.

    By default from c_min to the largest of 1e3 max(1, c_lo), 10 c0 (the
    finite knee) and 10 c*, at most the finite cap, which it is when the
    criterion still falls there.  Raises :class:`SpecError` for a spec no
    criterion covers, and :class:`NumericError` for a c_lo not below the
    cap or a given c_hi past it.
    """
    regime_for(spec.n, spec.beta)  # a spec no criterion covers is refused first
    cap = finite_cap(spec, dc)
    c_lo = dc.log_c_min.value if c_lo is None else c_lo
    if c_lo >= cap:
        raise NumericError(
            f"range start c_lo = {c_lo:g} is not below the finite cap {cap:g}, beyond which "
            "the criterion is not finite in double precision; pass a smaller --c-lo"
        )
    if c_hi is not None and c_hi > cap:
        raise NumericError(
            f"range end c_hi = {c_hi:g} lies past the finite cap {cap:g}; pass a smaller --c-hi"
        )
    if c_hi is None:
        # past the mode's knee c0 and the minimizer c*, so the curve shows both
        c_hi = 1e3 * max(1.0, c_lo)
        log_c0 = log_knee(spec, dc)
        if -math.inf < log_c0 < math.log(1e306):
            c_hi = max(c_hi, 10.0 * math.exp(log_c0))
        try:
            c_hi = max(c_hi, 10.0 * optimal_c(spec, dc).c_star)
        except NumericError:  # the criterion still falls at the cap
            c_hi = cap
        except PreconditionError:  # no c* to show; the curve is drawn all the same
            pass
        c_hi = min(c_hi, cap)
    return c_lo, c_hi
