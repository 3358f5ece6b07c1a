"""Log-domain evaluation of the shape-parameter criterion curves.

For each admissible (beta, n) the error bound of the interpolation theory
has a c-dependent core H(c); the recommended shape parameter is the
minimizer of H over the admissible interval.  The theory has two formulas
for H: the piecewise one-dimensional beta = -1 form and the general core,
which covers every other admissible (beta, n); for beta = -1, n >= 2 the
core differs from the explicit product form only by a c-independent
constant.  This module evaluates log H(c) with the formula that applies,
together with the exponential convergence factor lambda^(1/delta) that
the two non-practical modes add.  That sum is the one formula for the
c-dependent part of the error bound: :mod:`mqshape.optimizer` minimizes
it, with the knee :func:`log_knee` and the shape of the curve
(:func:`_shape_of`: its slope, the stretches on which the slope rises and
the local minima), and :mod:`mqshape.verify` adds the bound's
c-independent constants to it.  Both stop at :func:`finite_cap`, past
which it overflows, as does :func:`mqshape.optimizer.curve_range`, the one
owner of the range on which a curve is drawn.

Everything is computed in the log domain.  H ranges over hundreds of
orders of magnitude within a single curve (the exponential part behaves
like e^{sigma c^2 / 8} for large c), so linear-domain evaluation would
overflow long before the interesting region ends.

The module is scalar ``math`` code and imports neither numpy nor scipy,
so the ``constants``, ``criterion`` and ``optimize`` commands built on it
start without them, and its records are named tuples, which a fresh
process creates faster than frozen dataclass records.  Vectorizing the curves
would save little: the numpy import costs a fresh process more than the
scalar evaluation of a 2000-point curve.  A curve is evaluated instead by
one per-curve evaluator, :func:`_log_h_of`, which picks the formula,
sigma, q and the mode's factor once; :func:`log_h_unified` is its checks
plus that evaluator, and :func:`sample_curve` checks its range once and
calls the evaluator at every point.  The formula is picked in one place,
:func:`_shape_of`, whose record holds each formula's one body: its
public function, the evaluator and the optimizer all call it, so curves,
single evaluations and slopes agree to the bit.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Callable, List, NamedTuple, Optional, Tuple

from .constants import (
    DerivedConstants,
    Mode,
    ProblemSpec,
    _is_count,
    _require_positive_c,
    _require_positive_finite,
)
from .errors import SpecError

__all__ = [
    "Regime",
    "CriterionKind",
    "CurveSample",
    "regime_for",
    "kind_for",
    "log_h_beta_neg1_multid",
    "log_h_beta_neg1_multid_simplified",
    "log_h_beta_neg1_oned",
    "log_h_general",
    "log_knee",
    "log_lambda_pow",
    "log_h_unified",
    "finite_cap",
    "sample_curve",
]

_LOG_INV_LN2 = -math.log(math.log(2.0))
_LOG_2_SQRT3 = math.log(2.0) + 0.5 * math.log(3.0)
# u* and t_peak of the one-dimensional slope (:class:`_Shape`), correctly rounded
_ONED_U_STAR = 0.5166224863922065
_ONED_T_PEAK = 0.6806753792204169


class Regime(Enum):
    """The two criterion formulas."""

    BETA_NEG1_1D = "beta=-1, n=1"
    GENERAL = "|n+beta|>=1 and n+beta+1>=0"


class CriterionKind(NamedTuple):
    regime: Regime
    mode: Mode


class CurveSample(NamedTuple):
    """One point (c, log H(c)) of a criterion curve."""

    c: float
    log_h: float


def regime_for(n: int, beta: float) -> Regime:
    """The criterion formula covering (n, beta).

    Raises :class:`SpecError` when no criterion covers the combination
    (n + beta + 1 < 0 or |n + beta| < 1, other than the one-dimensional
    beta = -1 case).  It is the one test of (n, beta).
    """
    if beta == -1.0 and n == 1:
        return Regime.BETA_NEG1_1D
    if abs(n + beta) >= 1.0 and n + beta + 1.0 >= 0.0:
        return Regime.GENERAL
    raise SpecError(
        f"no criterion is available for n={n}, beta={beta:g}: "
        "need |n+beta| >= 1 and n+beta+1 >= 0"
    )


def kind_for(spec: ProblemSpec) -> CriterionKind:
    return CriterionKind(regime_for(spec.n, spec.beta), spec.mode)


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    m = a if a > b else b
    return m + math.log1p(math.exp(-abs(a - b)))


def _xi_star(c: float, sigma: float, q: float) -> float:
    """Positive critical point of xi^(q/2) e^(c xi - xi^2/sigma), for a
    positive finite c and sigma and q >= 0, unchecked.

    Equals (c sigma + sqrt(c^2 sigma^2 + 4 sigma q)) / 4.  Evaluated so
    that neither very small nor very large c overflows the intermediate
    square.
    """
    u = c * sigma
    if u > 1e150:
        # c^2 sigma^2 would overflow; factor c sigma out of the radical.
        return 0.25 * u * (1.0 + math.sqrt(1.0 + 4.0 * q / sigma / c / c))
    return 0.25 * (u + math.sqrt(u * u + 4.0 * sigma * q))


def log_h_beta_neg1_multid(c: float, n: int, sigma: float) -> float:
    """log of the product-form criterion for the inverse multiquadric,
    beta=-1, n>=2.

    H(c) = c^(-n/4) [c + R]^(n/4)
           e^{(sigma/8)[c^2 + cR] - (sigma/16)[c^2 + cR + 2n/sigma]}
    with R = sqrt(c^2 + 4n/sigma).  H tends to infinity both as c -> 0+
    and as c -> infinity; its unique interior minimum is the recommended
    shape parameter (before admissibility clamping).  It equals
    :func:`log_h_general` at beta = -1 plus (n/4) log(4/sigma); the
    criterion evaluates that core, and this form is kept as an
    independent test oracle.  c^2 + cR overflows for c above ~1e154.
    """
    c = _require_positive_c(c)
    if n < 2:
        raise SpecError(f"this criterion requires n >= 2, got n={n}")
    _require_positive_finite(sigma, "sigma")
    r = math.hypot(c, 2.0 * math.sqrt(n / sigma))
    a = c * c + c * r
    return (
        0.25 * n * (math.log(c + r) - math.log(c))
        + (sigma / 8.0) * a
        - (sigma / 16.0) * (a + 2.0 * n / sigma)
    )


def log_h_beta_neg1_multid_simplified(c: float, n: int, sigma: float) -> float:
    """Algebraically equivalent form of :func:`log_h_beta_neg1_multid`.

    H(c) = [1 + sqrt(1 + 4n/(c^2 sigma))]^(n/4)
           e^{(sigma/16)[c^2 + cR]} e^{-n/8}.
    Kept as an independent evaluation path for consistency testing.
    """
    c = _require_positive_c(c)
    if n < 2:
        raise SpecError(f"this criterion requires n >= 2, got n={n}")
    _require_positive_finite(sigma, "sigma")
    w = math.sqrt(1.0 + 4.0 * n / sigma / c / c)
    return (
        0.25 * n * math.log1p(w)
        + (sigma / 16.0) * (c * c + c * (c * w))
        - n / 8.0
    )


def log_h_beta_neg1_oned(c: float, sigma: float) -> float:
    """log of the criterion for beta=-1 in one dimension.

    H(c) = (1/sqrt(c)) [1/log 2 + 2 sqrt(3) M(c)]^(1/2), where
    M(c) = e^{1 - 1/(c^2 sigma)} up to the branch point 2/sqrt(3 sigma)
    and M(c) = sqrt(c xi*) e^{c xi* - xi*^2/sigma} beyond it, with
    xi* = (c sigma + sqrt(c^2 sigma^2 + 4 sigma))/4.  The two branches
    join continuously because xi* = 1/c exactly at the branch point.
    """
    c = _require_positive_c(c)
    return _OneD(_require_positive_finite(sigma, "sigma")).log_h(c)


def log_h_general(c: float, n: int, beta: float, sigma: float) -> float:
    """log of the criterion core for every (beta, n) but 1-D beta = -1.

    H(c) = c^((1+beta-n)/4) [xi*^((n+beta+1)/2)
           e^{c xi* - xi*^2/sigma}]^(1/2)
    with xi* the critical point from :func:`_xi_star` at q = n + beta + 1.
    Requires the (n, beta) for which :func:`regime_for` picks this core.
    """
    c = _require_positive_c(c)
    if regime_for(n, beta) is not Regime.GENERAL:
        raise SpecError(f"the core criterion does not cover n={n}, beta={beta:g}")
    _require_positive_finite(sigma, "sigma")
    return _Core(n, beta, sigma).log_h(c)


def _bisect(f: Callable[[float], float], target: float, a: float, b: float) -> float:
    """Where the increasing f reaches target in [a, b], f(a) <= target <=
    f(b), to the last bit; geometric midpoints, since b/a may be huge."""
    while True:
        m = math.sqrt(a) * math.sqrt(b)
        if not a < m < b:
            return a
        if f(m) < target:
            a = m
        else:
            b = m


class _Shape:
    """The shape of one criterion formula at one sigma: log H without the
    mode's factor (``log_h``) and its slope (``slope``), both unchecked
    functions of a positive finite c; the closed-form local minima of
    log H (``at_rest``); the stretches on which the slope rises
    (``rising``, worked out only when asked); and from those the local
    minima of log H - rate c (:meth:`minima`).  :func:`_shape_of` builds it.

    The slope is where the formula's shape shows:

    * for the general core it is -p/(4c) + xi*(c)/2, p = n - 1 - beta,
      since xi* is a critical point.  It rises on all of (0, inf) for
      p >= 0; for p < 0 it is convex and rises beyond the zero of its own
      derivative, itself found by bisection.  At rate 0 the only local
      minimum is p / sqrt(2 n sigma), when p > 0;
    * for beta = -1, n = 1 it is -1/(2c) + w (log M)'/2, w the weight of
      the M term in log(1/ln 2 + 2 sqrt(3) M), where (log M)' is
      2/(c^3 sigma) up to the branch point and 1/(2c) + xi* beyond.  It
      equals sqrt(sigma) D(c sqrt(sigma)) for one fixed function D, which
      rises from -inf through 0 at u*, peaks at t_peak, dips at the branch
      point 2/sqrt(3) and then grows like t/4; so it rises on
      [u*, t_peak]/sqrt(sigma) and beyond the branch point, and at rate 0
      the only local minimum is u*/sqrt(sigma), u* the root of
      -u^2/ln 2 + 2 sqrt(3) e^{1 - 1/u^2} (2 - u^2).
    """

    __slots__ = ("sigma",)

    def minima(self, rate: float, lo: float, hi: float) -> List[float]:
        """Local minima in [lo, hi) of log H - rate c: in closed form at
        rate 0, else where the slope passes upward through rate on each
        stretch on which it rises, by bisection to the last bit."""
        if rate == 0.0:
            points = self.at_rest()
        else:
            points = []
            for a, b in self.rising():
                a, b = max(a, lo), min(b, hi)
                if a < b and self.slope(a) <= rate <= self.slope(b):
                    points.append(_bisect(self.slope, rate, a, b))
        return [c for c in points if lo <= c < hi]


class _OneD(_Shape):
    """:class:`_Shape` of the one-dimensional beta = -1 formula, for a
    positive finite sigma, with its branch point 2/sqrt(3 sigma)."""

    __slots__ = ("threshold",)

    def __init__(self, sigma: float):
        self.sigma, self.threshold = sigma, 2.0 / math.sqrt(3.0 * sigma)

    def _log_m(self, c: float) -> tuple[float, Optional[float]]:
        """(log M(c), xi*); xi* is None up to the branch point, where M
        does not use it."""
        if c <= self.threshold:
            c2s = c * c * self.sigma
            # c^2 underflows for c below ~1e-162; the branch value then
            # vanishes entirely and only the constant term survives
            return (1.0 - 1.0 / c2s if c2s > 0.0 else -math.inf), None
        xs = _xi_star(c, self.sigma, 1.0)
        return 0.5 * math.log(c * xs) + c * xs - xs * xs / self.sigma, xs

    def log_h(self, c: float) -> float:
        log_m, _ = self._log_m(c)
        return -0.5 * math.log(c) + 0.5 * _logaddexp(_LOG_INV_LN2, _LOG_2_SQRT3 + log_m)

    def slope(self, c: float) -> float:
        log_m, xs = self._log_m(c)
        z = _LOG_2_SQRT3 + log_m - _LOG_INV_LN2
        w = 1.0 / (1.0 + math.exp(-z)) if z >= 0.0 else math.exp(z) / (1.0 + math.exp(z))
        if w == 0.0:
            return -0.5 / c
        # c^3 sigma as c (c^2 sigma): c^3 underflows where c^2 sigma does not
        d_log_m = 2.0 / (c * (c * c * self.sigma)) if xs is None else 0.5 / c + xs
        return -0.5 / c + 0.5 * w * d_log_m

    def at_rest(self) -> List[float]:
        return [_ONED_U_STAR / math.sqrt(self.sigma)]

    def rising(self) -> List[Tuple[float, float]]:
        rs = math.sqrt(self.sigma)
        return [(_ONED_U_STAR / rs, _ONED_T_PEAK / rs), (self.threshold, math.inf)]


class _Core(_Shape):
    """:class:`_Shape` of the general core, for p = n - 1 - beta,
    q = n + beta + 1 and the power c_power = (1 + beta - n)/4 of c."""

    __slots__ = ("n", "p", "q", "c_power")

    def __init__(self, n: int, beta: float, sigma: float):
        self.sigma, self.n = sigma, n
        self.p, self.q = n - 1.0 - beta, n + beta + 1.0
        self.c_power = 0.25 * (1.0 + beta - n)

    def log_h(self, c: float) -> float:
        xs = _xi_star(c, self.sigma, self.q)
        return self.c_power * math.log(c) + 0.5 * (
            0.5 * self.q * math.log(xs) + c * xs - xs * xs / self.sigma
        )

    def slope(self, c: float) -> float:
        return -self.p / (4.0 * c) + 0.5 * _xi_star(c, self.sigma, self.q)

    def at_rest(self) -> List[float]:
        p = self.p
        return [p / math.sqrt(2.0 * self.n * self.sigma)] if p > 0.0 else []

    def rising(self) -> List[Tuple[float, float]]:
        """The one stretch on which the slope rises: for p >= 0 both its
        terms rise, from c = 0.  For p < 0 it rises beyond the zero of
        its derivative p/(4c^2) + sigma/(4 + q sigma/xi*^2); since xi*'
        lies in [sigma/4, sigma/2), that zero lies in
        [sqrt(-p/sigma), sqrt(-2p/sigma)]."""
        p, q, sigma = self.p, self.q, self.sigma
        if p >= 0.0:
            return [(0.0, math.inf)]

        def curvature(c: float) -> float:
            xs = _xi_star(c, sigma, q)
            return p / (4.0 * c * c) + sigma / (4.0 + q * sigma / xs / xs)

        start = _bisect(curvature, 0.0, math.sqrt(-p / sigma), math.sqrt(-2.0 * p / sigma))
        return [(start, math.inf)]


def _shape_of(spec: ProblemSpec) -> _Shape:
    """The :class:`_Shape` of ``spec``'s criterion formula: the one place
    that picks the formula.  Raises :class:`SpecError` for a spec no
    criterion covers."""
    if regime_for(spec.n, spec.beta) is Regime.BETA_NEG1_1D:
        return _OneD(spec.sigma)
    return _Core(spec.n, spec.beta, spec.sigma)


def log_knee(spec: ProblemSpec, dc: DerivedConstants) -> float:
    """log of the knee: the mode's factor is e^{eta(delta) c} below it and
    constant beyond.  log c0, c0 = 3 b0 rho sqrt(n) e^{2 n gamma_n}, in
    FIXED_B0 mode, +inf in DILATION_INVARIANT mode and -inf in PRACTICAL
    mode, which has no factor."""
    if spec.mode is Mode.PRACTICAL:
        return -math.inf
    if spec.mode is Mode.DILATION_INVARIANT:
        return math.inf
    if dc.log_c0 is None:
        raise SpecError("fixed-b0 mode requires derived constants with b0")
    return dc.log_c0.log_value


def log_lambda_pow(c: float, spec: ProblemSpec, dc: DerivedConstants) -> float:
    """log of the convergence factor lambda^(1/delta) at shape parameter c.

    It is eta(delta) min(c, c0), c0 the knee of :func:`log_knee`: beyond
    c0 the factor is the constant (2/3)^{b0/(4 gamma_n delta)}.  PRACTICAL
    mode has no such factor and asking for it is a caller bug.
    """
    c = _require_positive_c(c)
    if spec.mode is Mode.PRACTICAL:
        raise SpecError("the convergence factor is undefined in practical mode")
    return _log_factor(c, dc.eta_log_abs, log_knee(spec, dc))


def _log_factor(c: float, eta_log_abs: float, log_c0: float) -> float:
    """:func:`log_lambda_pow` without its checks, for log |eta| and the
    log of the knee: -e^{log_abs}, saturating to -inf where that
    overflows."""
    log_abs = eta_log_abs + min(math.log(c), log_c0)
    return -math.inf if log_abs > 709.0 else -math.exp(log_abs)


def _check_kind(kind: CriterionKind, spec: ProblemSpec) -> None:
    regime = regime_for(spec.n, spec.beta)
    if kind.regime is not regime or kind.mode is not spec.mode:
        raise SpecError(
            f"criterion {kind.regime.name}, {kind.mode.value!r} does not match "
            f"the problem's {regime.name}, {spec.mode.value!r}"
        )


def log_h_unified(
    c: float,
    spec: ProblemSpec,
    dc: DerivedConstants,
    kind: Optional[CriterionKind] = None,
) -> float:
    """log H(c) for the problem's criterion, including the mode's factor.

    This is the c-dependent part of the error bound: the optimizer
    minimizes it, and :func:`mqshape.verify.error_bound` adds to it the
    c-independent constants.  The formula and the mode are those of
    ``spec``; a ``kind``, when given, must equal :func:`kind_for` of
    ``spec``.  Practical mode evaluates the bare criterion; the other two
    modes add :func:`log_lambda_pow`.  It is the per-curve evaluator
    :func:`_log_h_of` of ``spec`` at the checked c.
    """
    if kind is not None:
        _check_kind(kind, spec)
    log_h = _log_h_of(spec, dc)
    return log_h(_require_positive_c(c))


def _log_h_of(spec: ProblemSpec, dc: DerivedConstants) -> Callable[[float], float]:
    """log H of ``spec`` as an unchecked function of a positive finite c.

    The formula (:func:`_shape_of`) and the mode's factor (log |eta| and
    the knee) are picked once, here, and not at every point of a curve;
    the function is the ``log_h`` of the formula's :class:`_Shape`, which
    :func:`log_h_beta_neg1_oned` and :func:`log_h_general` evaluate, plus
    the helper of :func:`log_lambda_pow`, so its values are theirs to the
    bit.  Raises :class:`SpecError` for a spec no criterion covers, and in
    fixed-b0 mode for constants without a knee.
    """
    core = _shape_of(spec).log_h
    if spec.mode is Mode.PRACTICAL:
        return core
    eta_log_abs, log_c0 = dc.eta_log_abs, log_knee(spec, dc)
    return lambda c: core(c) + _log_factor(c, eta_log_abs, log_c0)


def finite_cap(spec: ProblemSpec, dc: DerivedConstants) -> float:
    """Largest c at which :func:`log_h_unified` of ``spec`` is finite.

    The core's growth sigma c^2 / 8 and xi*^2 ~ (sigma c / 2)^2 must stay
    doubles, the first for sigma below ~8.45.  Below the knee
    :func:`log_knee`, where the mode's factor is e^{-eta c}, eta c must
    not overflow either; the margin covers the rounding of log(exp(.)).
    """
    cap = min(math.sqrt(min(8e307 / spec.sigma, sys.float_info.max)), 2.6e154 / spec.sigma)
    log_eta_cap = 709.0 - dc.eta_log_abs - 1e-9
    return math.exp(log_eta_cap) if log_eta_cap < min(math.log(cap), log_knee(spec, dc)) else cap


def sample_curve(
    spec: ProblemSpec,
    dc: DerivedConstants,
    kind: Optional[CriterionKind],
    c_lo: float,
    c_hi: float,
    count: int,
) -> List[CurveSample]:
    """Log-spaced samples of the criterion curve on [c_lo, c_hi].

    A ``kind``, when not None, must equal :func:`kind_for` of ``spec``.
    The range and ``kind`` are checked once, before any point is
    evaluated; each point is then the per-curve evaluator
    :func:`_log_h_of` of ``spec``, equal to :func:`log_h_unified` to the
    bit.  Deterministic; the endpoints are hit exactly and the points in
    between are exp(log c_lo + i * step), evenly spaced in log c.  The
    range is not clamped to the admissible interval so curves may be
    plotted beyond it.
    """
    if not (0.0 < c_lo < c_hi) or not math.isfinite(c_hi):
        raise SpecError(f"need 0 < c_lo < c_hi, got [{c_lo}, {c_hi}]")
    if not _is_count(count, 2):
        raise SpecError(f"need at least 2 samples, got {count}")
    if kind is not None:
        _check_kind(kind, spec)
    log_h = _log_h_of(spec, dc)
    c_lo, c_hi = float(c_lo), float(c_hi)
    u_lo = math.log(c_lo)
    step = (math.log(c_hi) - u_lo) / (count - 1)
    cs = [c_lo, *(math.exp(u_lo + i * step) for i in range(1, count - 1)), c_hi]
    return [CurveSample(c, log_h(c)) for c in cs]
