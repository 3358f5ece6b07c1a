"""Derived constants of the multiquadric shape-parameter criteria.

A problem instance (dimension, kernel exponent, target-space parameter,
fill distance, optionally a cube side) determines a small family of
constants: the integer growth sequence gamma_n, the conditional positive
definiteness order m, the pair (rho, Delta_0), the unit-ball volume
alpha_n, and the admissibility endpoints c_min and c0 of the shape
parameter: the bound holds at c for a fill distance up to
delta0(c) = delta min(c, c0) / c_min.  Several of these contain the factor
e^{2 n gamma_n}, which already for n = 4 equals e^{5056} and overflows
double precision, so every quantity that can carry that factor is stored
as a natural logarithm.

The module also owns the input rules that the other modules share, each
with one message: the dimension n is an integer >= 1
(:func:`_validate_dimension`), the kernel exponent beta is a finite real
other than a nonnegative even integer (:func:`_validate_beta`), the
shape parameter c is a positive finite real (:func:`_require_positive_c`),
as are sigma, delta and b0 (:func:`_require_positive_finite`), and a
sample or grid size is an integer of at least a given value
(:func:`_is_count`).  A real is a number that ``math`` takes, never a
parsed string, and the real-number rules return it as a float with its
bits (:func:`_require_real`).

All functions here are pure; the records are immutable and safe to share
between threads.  They do without the ``dataclass`` decorator, whose
module import and generated methods cost a fresh process more than the
selection commands' own work: the plain-data records are
``typing.NamedTuple`` classes, and the records that validate or compute
their fields derive from :class:`_Record`.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from typing import NamedTuple, Optional

from .errors import SpecError

__all__ = [
    "Mode",
    "ProblemSpec",
    "LogScalar",
    "DerivedConstants",
    "gamma_seq",
    "cpd_order",
    "rho_delta0",
    "multiindex_count",
    "d0_constant",
    "derive_constants",
]

_LN2 = math.log(2.0)
_LN3 = math.log(3.0)
_LN12 = math.log(12.0)
_LN_LN_3_2 = math.log(math.log(1.5))  # log of |log(2/3)|


class Mode(str, Enum):
    """How the exponential convergence factor lambda^(1/delta) is treated.

    PRACTICAL drops the factor entirely, FIXED_B0 uses its piecewise form
    for a cube of fixed side b0, and DILATION_INVARIANT assumes the domain
    admits arbitrarily large cubes so the factor stays exponential in c
    for every c.
    """

    PRACTICAL = "practical"
    FIXED_B0 = "fixed-b0"
    DILATION_INVARIANT = "dilation-invariant"


def _require_real(value, rule: str, admits) -> float:
    """``value`` as a float with its bits, unless it is not a real number
    or ``admits`` refuses that float: :class:`SpecError` with the message
    ``rule``, then the value.  A real number is one that ``math`` takes,
    by ``__float__`` or ``__index__``, so a string is refused rather than
    parsed, and so is an integer beyond double range."""
    try:
        math.isfinite(value)
    except (TypeError, OverflowError):
        raise SpecError(f"{rule}, got {value!r}") from None
    x = float(value)
    if not admits(x):
        raise SpecError(f"{rule}, got {x}")
    return x


def _validate_beta(beta) -> float:
    """``beta`` as a float, unless it is not a finite real or is a
    nonnegative even integer, where Gamma(-beta/2) has a pole (:class:`SpecError`)."""
    beta = _require_real(beta, "kernel exponent beta must be a finite real", math.isfinite)
    if beta >= 0.0 and beta.is_integer() and int(beta) % 2 == 0:
        raise SpecError(
            f"kernel exponent beta={beta:g} is a nonnegative even integer, "
            "which is outside the admissible kernel family"
        )
    return beta


def _validate_dimension(n: int) -> int:
    if not isinstance(n, (int,)) or isinstance(n, bool):
        raise SpecError(f"dimension n must be an integer, got {n!r}")
    if n < 1:
        raise SpecError(f"dimension n must be >= 1, got {n}")
    return n


def _require_positive_finite(value, name: str) -> float:
    """``value`` as a float, unless it is not a positive finite real (:class:`SpecError`)."""
    rule = f"{name} must be a positive finite real"
    return _require_real(value, rule, lambda x: x > 0.0 and math.isfinite(x))


def _require_positive_c(c) -> float:
    """``c`` as a float, unless it is not a positive finite real: a finite c
    whose square overflows is a numeric failure, but c = inf is no shape
    parameter at all (:class:`SpecError`)."""
    return _require_positive_finite(c, "shape parameter c")


def _is_count(value, least: int) -> bool:
    """The rule for sample and grid sizes: an integer of at least ``least``
    (what ``numbers.Integral`` covers, without importing ``numbers``)."""
    try:
        return operator.index(value) >= least
    except TypeError:
        return False


class _Record:
    """Base of the immutable records that validate or compute their fields.

    The fields are the ``__slots__`` of the subclass, set once by
    :meth:`_set` in its ``__init__``.  Assigning or deleting an attribute
    raises :class:`AttributeError`; equality, hashing and ``repr`` go by
    field, and copies and pickles restore the fields without validating
    them again, as for a frozen dataclass.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return _restore, (type(self), self._values())


def _restore(cls, values):
    """The record of class ``cls`` with the given field values (unpickling)."""
    record = object.__new__(cls)
    record._set(*values)
    return record


class ProblemSpec(_Record):
    """One shape-parameter selection problem.

    Parameters
    ----------
    n : int
        Space dimension, n >= 1.
    beta : float
        Kernel exponent; any real except the nonnegative even integers.
    sigma : float
        Parameter of the target function space (the native space of
        gaussians with that sigma), sigma > 0.
    delta : float
        Fill distance of the intended node set, delta > 0.
    b0 : float, optional
        Cube side length.  Required in FIXED_B0 mode.
    mode : Mode
        Treatment of the convergence factor, see :class:`Mode`.
    """

    __slots__ = ("n", "beta", "sigma", "delta", "b0", "mode")

    def __init__(
        self,
        n: int,
        beta: float,
        sigma: float,
        delta: float,
        b0: Optional[float] = None,
        mode: Mode = Mode.PRACTICAL,
    ):
        _validate_dimension(n)
        beta = _validate_beta(beta)
        _require_positive_finite(sigma, "sigma")
        _require_positive_finite(delta, "delta")
        if b0 is not None:
            _require_positive_finite(b0, "b0")
        mode = Mode(mode)
        if mode is Mode.FIXED_B0 and b0 is None:
            raise SpecError("mode 'fixed-b0' requires a cube side b0")
        self._set(n, beta, sigma, delta, b0, mode)

    def replace(self, **changes) -> "ProblemSpec":
        """This spec with the given fields changed, validated again."""
        fields = dict(zip(self.__slots__, self._values()))
        fields.update(changes)
        return ProblemSpec(**fields)


class LogScalar(_Record):
    """A strictly positive real represented by its natural logarithm.

    Multiplication of the represented values is addition of ``log_value``,
    and the ordering of ``LogScalar`` instances matches the ordering of the
    represented values, so huge constants like e^{2 n gamma_n} can be
    combined and compared without ever leaving the representable range.
    """

    __slots__ = ("log_value",)

    def __init__(self, log_value: float):
        self._set(log_value)

    def __lt__(self, other):
        return self.log_value < other.log_value if other.__class__ is LogScalar else NotImplemented

    def __le__(self, other):
        return self.log_value <= other.log_value if other.__class__ is LogScalar else NotImplemented

    def __gt__(self, other):
        return self.log_value > other.log_value if other.__class__ is LogScalar else NotImplemented

    def __ge__(self, other):
        return self.log_value >= other.log_value if other.__class__ is LogScalar else NotImplemented

    @classmethod
    def from_value(cls, value: float) -> "LogScalar":
        if not value > 0.0:
            raise SpecError(f"LogScalar requires a positive value, got {value}")
        return cls(math.log(value))

    @property
    def value(self) -> float:
        """The represented number; overflows to inf when too large."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        return LogScalar(self.log_value + other.log_value)

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        return LogScalar(self.log_value - other.log_value)

    def __pow__(self, exponent: float) -> "LogScalar":
        return LogScalar(self.log_value * exponent)


def gamma_seq(n: int) -> int:
    """Integer growth sequence: 2 for n=1, then 2n(1 + previous).

    Evaluated with exact (arbitrary precision) integer arithmetic, since the
    value seeds exponents where even a one-ulp slip scales results by e.
    """
    _validate_dimension(n)
    g = 2
    for k in range(2, n + 1):
        g = 2 * k * (1 + g)
    return g


def cpd_order(beta: float) -> int:
    """Conditional positive definiteness order: max(ceil(beta/2), 0)."""
    beta = _validate_beta(beta)
    return max(math.ceil(beta / 2.0), 0)


def _log_falling_product(hi: int, lo: int) -> float:
    """log of hi*(hi-1)*...*lo for integers hi >= lo - 1 >= 0 (empty -> 0)."""
    if hi < lo:
        return 0.0
    return math.lgamma(hi + 1.0) - math.lgamma(float(lo))


def rho_delta0(n: int, beta: float) -> tuple[float, float]:
    """Admissibility factor rho and bound constant Delta_0 (as a log).

    The pair depends on where beta sits relative to the dimension:

    * beta < n - 3 with s = ceil((n - beta - 3)/2):
      for beta < 0, rho = (3+s)/3 and Delta_0 = (2+s)(1+s)...3 / rho^2;
      for beta > 0 with m = ceil(beta/2), rho = 1 + s/(2m+3) and
      Delta_0 = (2m+2+s)...(2m+3) / rho^(2m+2).
    * n - 3 <= beta < n - 1: rho = 1, Delta_0 = 1.
    * beta >= n - 1 with s = -ceil((n - beta - 3)/2): rho = 1 and
      Delta_0 = 1 / ((2m+2)(2m+1)...(2m-s+3)).

    Falling products are taken down to the stated last factor and an empty
    product is 1.  Delta_0 is returned as its natural log because the
    products grow factorially.
    """
    _validate_dimension(n)
    beta = _validate_beta(beta)
    if beta < n - 3:
        s = math.ceil((n - beta - 3) / 2.0)
        if beta < 0:
            rho = (3.0 + s) / 3.0
            log_delta = _log_falling_product(2 + s, 3) - 2.0 * math.log(rho)
        else:
            m = math.ceil(beta / 2.0)
            rho = 1.0 + s / (2.0 * m + 3.0)
            log_delta = _log_falling_product(2 * m + 2 + s, 2 * m + 3) - (
                2.0 * m + 2.0
            ) * math.log(rho)
        return rho, log_delta
    if beta < n - 1:
        return 1.0, 0.0
    s = -math.ceil((n - beta - 3) / 2.0)
    m = math.ceil(beta / 2.0)
    return 1.0, -_log_falling_product(2 * m + 2, 2 * m - s + 3)


def multiindex_count(m: int, n: int) -> int:
    """Number of n-dimensional multi-indices of total order m."""
    if m < 0:
        raise SpecError(f"multi-index order must be >= 0, got {m}")
    _validate_dimension(n)
    return math.comb(m + n - 1, n - 1)


def d0_constant(n: int, beta: float) -> float:
    """log of the norm-comparison constant d0 for kernels with beta > 0.

    d0 = sqrt(m! C(m, n)) / ((2 pi)^n sqrt(2^(1 + beta/2))) * (2/pi)^(1/4)
    with m the c.p.d. order and C(m, n) the multi-index count.
    """
    beta = _validate_beta(beta)
    if not beta > 0.0:
        raise SpecError(f"d0 is defined only for beta > 0, got beta={beta:g}")
    _validate_dimension(n)
    m = cpd_order(beta)
    log_mfact = math.lgamma(m + 1.0)
    log_count = math.log(multiindex_count(m, n))
    return (
        0.5 * (log_mfact + log_count)
        - n * math.log(2.0 * math.pi)
        - 0.5 * (1.0 + beta / 2.0) * _LN2
        + 0.25 * math.log(2.0 / math.pi)
    )


class DerivedConstants(NamedTuple):
    """Everything a problem instance determines, in overflow-safe form.

    ``log_c_min`` is the log of the admissible lower endpoint
    12 rho sqrt(n) e^{2 n gamma_n} gamma_n (m+1) delta, ``log_c0`` the log
    of the knee 3 b0 rho sqrt(n) e^{2 n gamma_n} of the convergence factor
    (present only when b0 is), and ``eta_log_abs`` the log of |eta(delta)|
    where eta(delta) = log(2/3) / (12 rho sqrt(n) e^{2 n gamma_n}
    gamma_n delta) is the (negative) exponential rate of that factor.
    :meth:`admits` is the one admissibility rule, delta <= delta0(c), that
    the optimizer and the error bound both apply.
    """

    spec: ProblemSpec
    m: int
    gamma_n: int
    rho: float
    log_delta_product: float  # log of the bound constant Delta_0
    alpha_n: float
    log_alpha_n: float
    log_c_min: LogScalar
    log_c0: Optional[LogScalar]
    eta_log_abs: float
    log_d0: Optional[float]
    two_n_gamma: float = 0.0

    @property
    def eta(self) -> float:
        """eta(delta) itself; underflows to -0.0 in high dimensions."""
        try:
            return -math.exp(self.eta_log_abs)
        except OverflowError:
            return -math.inf

    def _log_min_c_c0(self, log_c: float) -> float:
        return log_c if self.log_c0 is None else min(log_c, self.log_c0.log_value)

    def log_fill_cap_at_log_c(self, log_c: float) -> float:
        """log of the largest admissible fill distance at c, which is
        1/(6 C gamma_n (m+1)) = delta min(c, c0) / c_min (c0 = inf without b0)."""
        return math.log(self.spec.delta) + self._log_min_c_c0(log_c) - self.log_c_min.log_value

    def log_fill_cap(self, c: float) -> float:
        return self.log_fill_cap_at_log_c(math.log(_require_positive_c(c)))

    def admits(self, log_c: float) -> bool:
        """Whether delta <= delta0(c), i.e. c_min <= min(c, c0); the 1e-12
        slack keeps the boundary c = c_min from failing on rounding alone."""
        return self.log_c_min.log_value <= self._log_min_c_c0(log_c) + 1e-12


def derive_constants(spec: ProblemSpec) -> DerivedConstants:
    """Populate :class:`DerivedConstants` from a problem instance."""
    n = spec.n
    m = cpd_order(spec.beta)
    gamma_n = gamma_seq(n)
    rho, log_delta_product = rho_delta0(n, spec.beta)
    two_n_gamma = float(2 * n * gamma_n)
    log_alpha_n = 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)
    log_rho = math.log(rho)
    half_log_n = 0.5 * math.log(n)

    # log of 12 rho sqrt(n) e^{2 n gamma_n} gamma_n, which c_min and eta
    # share; Python sums left to right, so both keep their full sums' bits
    log_scale = _LN12 + log_rho + half_log_n + two_n_gamma + math.log(gamma_n)
    log_c_min = log_scale + math.log(m + 1.0) + math.log(spec.delta)
    log_c0 = None
    if spec.b0 is not None:
        log_c0 = LogScalar(
            _LN3 + math.log(spec.b0) + log_rho + half_log_n + two_n_gamma
        )
    eta_log_abs = _LN_LN_3_2 - (log_scale + math.log(spec.delta))
    log_d0 = d0_constant(n, spec.beta) if spec.beta > 0 else None

    return DerivedConstants(
        spec=spec,
        m=m,
        gamma_n=gamma_n,
        rho=rho,
        log_delta_product=log_delta_product,
        alpha_n=math.exp(log_alpha_n),
        log_alpha_n=log_alpha_n,
        log_c_min=LogScalar(log_c_min),
        log_c0=log_c0,
        eta_log_abs=eta_log_abs,
        log_d0=log_d0,
        two_n_gamma=two_n_gamma,
    )
