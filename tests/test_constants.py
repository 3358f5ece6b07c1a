import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqshape import (
    LogScalar,
    Mode,
    ProblemSpec,
    SpecError,
    cpd_order,
    d0_constant,
    derive_constants,
    gamma_seq,
    multiindex_count,
    rho_delta0,
)

# high-precision oracle value for log c_min at (n=3, beta=1, delta=1e-208)
LOG_C_MIN_N3_B1 = -2.8536305413899100735


def test_gamma_seq_small_values():
    assert gamma_seq(1) == 2
    assert gamma_seq(2) == 12
    assert gamma_seq(3) == 78
    assert gamma_seq(4) == 632


@given(st.integers(min_value=2, max_value=8))
def test_gamma_seq_recurrence(n):
    assert gamma_seq(n) == 2 * n * (1 + gamma_seq(n - 1))


def test_gamma_seq_rejects_bad_dimension():
    with pytest.raises(SpecError):
        gamma_seq(0)


@pytest.mark.parametrize(
    "beta, expected",
    [(-1.0, 0), (1.0, 1), (3.0, 2), (-0.5, 0), (0.5, 1), (-7.2, 0), (4.5, 3)],
)
def test_cpd_order(beta, expected):
    assert cpd_order(beta) == expected


def test_rho_delta0_flat_region():
    rho, log_d = rho_delta0(2, -1.0)
    assert rho == 1.0 and log_d == 0.0


def test_rho_delta0_flat_region_grid():
    # 100 (n, beta) pairs with n - 3 <= beta < n - 1 all give (1, 1)
    count = 0
    for n in range(1, 11):
        for k in range(10):
            beta = (n - 3) + 2.0 * (k + 0.517) / 10.4
            if beta >= 0 and float(beta).is_integer() and int(beta) % 2 == 0:
                continue
            rho, log_d = rho_delta0(n, beta)
            assert rho == 1.0
            assert log_d == 0.0
            count += 1
    assert count >= 100


def test_rho_delta0_low_beta_case():
    # n=5, beta=-1: s=2, rho=5/3, Delta_0=(4*3)/rho^2 = 108/25
    rho, log_d = rho_delta0(5, -1.0)
    assert rho == pytest.approx(5.0 / 3.0, rel=1e-15)
    assert math.exp(log_d) == pytest.approx(108.0 / 25.0, rel=1e-12)


def test_rho_delta0_high_beta_case():
    # n=1, beta=1: s=1, m=1, Delta_0 = 1/(2m+2) = 1/4
    rho, log_d = rho_delta0(1, 1.0)
    assert rho == 1.0
    assert math.exp(log_d) == pytest.approx(0.25, rel=1e-12)


def test_rho_delta0_low_beta_positive_case():
    # beta < n-3 with beta > 0: n=8, beta=1 -> s=2, m=1,
    # rho = 1 + 2/5, Delta_0 = (6*5)/rho^4
    rho, log_d = rho_delta0(8, 1.0)
    assert rho == pytest.approx(1.4, rel=1e-15)
    assert math.exp(log_d) == pytest.approx(30.0 / 1.4 ** 4, rel=1e-12)


@given(
    st.integers(min_value=1, max_value=10),
    st.floats(min_value=-3.0, max_value=9.0).filter(
        lambda b: not (b >= 0 and float(b).is_integer() and int(b) % 2 == 0)
    ),
)
def test_rho_at_least_one(n, beta):
    rho, _ = rho_delta0(n, beta)
    assert rho >= 1.0


def test_multiindex_count_examples():
    assert multiindex_count(0, 3) == 1
    assert multiindex_count(1, 3) == 3
    assert multiindex_count(2, 2) == 3


def test_multiindex_count_matches_enumeration():
    def brute(m, n):
        if n == 1:
            return 1
        return sum(brute(m - head, n - 1) for head in range(m + 1))

    for m in range(5):
        for n in range(1, 5):
            assert multiindex_count(m, n) == brute(m, n)


def test_d0_constant_composition():
    # n=1, beta=1: m=1, C(1,1)=1
    expected = (
        0.5 * math.log(1.0)
        - math.log(2.0 * math.pi)
        - 0.5 * 1.5 * math.log(2.0)
        + 0.25 * math.log(2.0 / math.pi)
    )
    assert d0_constant(1, 1.0) == pytest.approx(expected, abs=1e-14)
    # n=2, beta=1 uses the multi-index count 2
    expected2 = (
        0.5 * (math.log(1.0) + math.log(2.0))
        - 2.0 * math.log(2.0 * math.pi)
        - 0.5 * 1.5 * math.log(2.0)
        + 0.25 * math.log(2.0 / math.pi)
    )
    assert d0_constant(2, 1.0) == pytest.approx(expected2, abs=1e-14)


def test_d0_constant_rejects_negative_beta():
    with pytest.raises(SpecError):
        d0_constant(1, -1.0)


def test_problem_spec_validation():
    with pytest.raises(SpecError):
        ProblemSpec(n=1, beta=2.0, sigma=1.0, delta=0.1)
    with pytest.raises(SpecError):
        ProblemSpec(n=1, beta=0.0, sigma=1.0, delta=0.1)
    with pytest.raises(SpecError):
        ProblemSpec(n=0, beta=-1.0, sigma=1.0, delta=0.1)
    with pytest.raises(SpecError):
        ProblemSpec(n=1, beta=-1.0, sigma=-1.0, delta=0.1)
    with pytest.raises(SpecError):
        ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.0)
    with pytest.raises(SpecError):
        ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.1, mode=Mode.FIXED_B0)
    # beta = 2.5 is fine (only even nonnegative integers excluded)
    ProblemSpec(n=1, beta=2.5, sigma=1.0, delta=0.1)


def test_derive_constants_classic_endpoints():
    spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.01, b0=1.0)
    dc = derive_constants(spec)
    assert dc.m == 0 and dc.gamma_n == 2 and dc.rho == 1.0
    assert dc.log_c_min.value == pytest.approx(0.24 * math.exp(4.0), rel=1e-12)
    assert dc.log_c0.value == pytest.approx(3.0 * math.exp(4.0), rel=1e-12)


def test_derive_constants_tiny_delta_log_domain():
    spec = ProblemSpec(n=3, beta=1.0, sigma=1.0, delta=1e-208)
    dc = derive_constants(spec)
    assert dc.log_c_min.log_value == pytest.approx(LOG_C_MIN_N3_B1, abs=1e-10)
    assert dc.log_c_min.value == pytest.approx(0.0576346954309, rel=1e-10)


def test_alpha_n_values():
    for n, expected in [(1, 2.0), (2, math.pi), (3, 4.0 * math.pi / 3.0)]:
        dc = derive_constants(ProblemSpec(n=n, beta=-1.0, sigma=1.0, delta=0.1))
        assert dc.alpha_n == pytest.approx(expected, rel=1e-14)


def test_endpoint_identity():
    # log c0 - log c_min = log(b0 / (4 gamma_n (m+1) delta))
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        beta = float(rng.choice([-1.0, 1.0, -0.5, 3.0]))
        spec = ProblemSpec(
            n=n,
            beta=beta,
            sigma=float(rng.uniform(0.2, 5.0)),
            delta=float(10.0 ** rng.uniform(-8, -1)),
            b0=float(rng.uniform(0.5, 4.0)),
        )
        dc = derive_constants(spec)
        lhs = dc.log_c0.log_value - dc.log_c_min.log_value
        rhs = math.log(spec.b0 / (4.0 * dc.gamma_n * (dc.m + 1) * spec.delta))
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_eta_times_c0_identity():
    # eta(delta) * c0 = log(2/3) * b0 / (4 gamma_n delta)
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        spec = ProblemSpec(
            n=n,
            beta=-1.0,
            sigma=1.0,
            delta=float(10.0 ** rng.uniform(-6, -1)),
            b0=float(rng.uniform(0.5, 4.0)),
        )
        dc = derive_constants(spec)
        lhs = -math.exp(dc.eta_log_abs + dc.log_c0.log_value)
        rhs = math.log(2.0 / 3.0) * spec.b0 / (4.0 * dc.gamma_n * spec.delta)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_high_dimension_constants_stay_finite():
    # e^{2 n gamma_n} = e^{5056} at n=4 overflows floats; the log fields must not
    spec = ProblemSpec(n=4, beta=-1.0, sigma=1.0, delta=0.01, b0=1.0, mode=Mode.FIXED_B0)
    dc = derive_constants(spec)
    assert math.isfinite(dc.log_c_min.log_value)
    assert math.isfinite(dc.log_c0.log_value)
    assert math.isfinite(dc.eta_log_abs)
    assert dc.eta == 0.0 or dc.eta < 0.0  # underflows to -0.0 here
    assert dc.log_c_min.value == math.inf  # linear domain genuinely overflows


def test_fill_cap_matches_direct_formula():
    # delta0(c) = 1/(6 C(c) gamma_n (m+1)) with
    # C(c) = max(2 (rho/c) sqrt(n) e^{2 n gamma_n}, 2/(3 b0)); n = 1 has
    # rho = 1, gamma_n = 2, m = 0 and the knee c0 = 3 e^4 b0 ~ 164
    for b0, c in [(1.0, 13.2), (1.0, 1000.0), (None, 1000.0)]:
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.01, b0=b0)
        dc = derive_constants(spec)
        big_c = 2.0 * (1.0 / c) * math.exp(4.0)
        if b0 is not None:
            big_c = max(big_c, 2.0 / (3.0 * b0))
        cap = 1.0 / (6.0 * big_c * 2.0 * 1.0)
        assert dc.log_fill_cap(c) == pytest.approx(math.log(cap), rel=1e-13)


@settings(deadline=None, max_examples=300)
@given(
    n=st.sampled_from([1, 2, 3]),
    beta=st.sampled_from([-1.0, -3.0, -0.5, 0.5, 1.0, 3.0]),
    log_delta=st.floats(math.log(1e-12), math.log(0.3)),
    log_b0=st.none() | st.floats(math.log(1e-2), math.log(1e3)),
    u=st.floats(-3.0, 8.0),
)
def test_fill_cap_against_high_precision(n, beta, log_delta, log_b0, u):
    # the fill cap is delta min(c, c0) / c_min; this oracle builds it from
    # C(c) directly, in 60 digits, at c = c_min e^u
    mpmath = pytest.importorskip("mpmath")
    b0 = None if log_b0 is None else math.exp(log_b0)
    spec = ProblemSpec(n=n, beta=beta, sigma=1.0, delta=math.exp(log_delta), b0=b0)
    dc = derive_constants(spec)
    log_c = dc.log_c_min.log_value + u
    gamma_n, m = gamma_seq(n), cpd_order(beta)
    rho, _ = rho_delta0(n, beta)
    with mpmath.workdps(60):
        big_c = 2 * mpmath.mpf(rho) * mpmath.sqrt(n) * mpmath.exp(2 * n * gamma_n - mpmath.mpf(log_c))
        if b0 is not None:
            big_c = max(big_c, 2 / (3 * mpmath.mpf(b0)))
        want = -mpmath.log(6 * big_c * gamma_n * (m + 1))
        assert abs(dc.log_fill_cap_at_log_c(log_c) - float(want)) <= 1e-12


def test_fill_cap_is_flat_beyond_the_knee():
    for n, beta, delta, b0 in [(1, -1.0, 0.01, 1.0), (2, -1.0, 1e-3, 1.5), (3, 1.0, 1e-30, 20.0)]:
        dc = derive_constants(ProblemSpec(n=n, beta=beta, sigma=1.0, delta=delta, b0=b0))
        c0 = dc.log_c0.value
        assert dc.log_fill_cap(2.0 * c0) == dc.log_fill_cap(10.0 * c0)


@pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
def test_fill_cap_refuses_a_shape_parameter_that_is_not_positive_finite(c):
    # c = inf returned the cap at the knee c0, log(1/8) = -2.079
    dc = derive_constants(ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.01, b0=1.0))
    with pytest.raises(SpecError, match="shape parameter c must be a positive finite real"):
        dc.log_fill_cap(c)


# float.hex of (log c_min, eta_log_abs, log c0) as formed by summing each
# one's logs in full, left to right; c_min and eta share the scale
# 12 rho sqrt(n) e^{2 n gamma_n} gamma_n, and forming it once must keep
# these bits
DERIVED_BITS = [
    ((1, -1.0, 1e-2, None), "0x1.49544052782cep+1", "-0x1.bce0985bd6b46p+1", None),
    ((1, -1.0, 1e-2, 1.0), "0x1.49544052782cep+1", "-0x1.bce0985bd6b46p+1", "0x1.464fa9eab40c3p+2"),
    ((1, 1.0, 1e-50, None), "-0x1.ad083f368cf16p+6", "0x1.ac31a4d621446p+6", None),
    ((2, -1.0, 1e-5, 2.0), "0x1.4e6d7d2efbdadp+5", "-0x1.55a642af91c35p+5", "0x1.911b4e5cf4574p+5"),
    ((2, 3.0, 1e-200, None), "-0x1.961a1df1d9ae6p+8", "0x1.964c43e971c19p+8", None),
    ((3, -1.0, 1e-100, 0.5), "0x1.ead7169cc5b6ap+7", "-0x1.eca547fceb30cp+7", "0x1.d53e116bcd39ep+8"),
    ((3, 0.5, 1e-3, None), "0x1.d52d22e20c816p+8", "-0x1.d562c97a276c9p+8", None),
    ((4, 1.0, 1e-200, 1e10), "0x1.1fdcd961d282bp+12", "-0x1.1fe033cb54316p+12", "0x1.3d8d14eea454cp+12"),
]


@pytest.mark.parametrize("problem, log_c_min, eta_log_abs, log_c0", DERIVED_BITS)
def test_derived_logs_are_pinned_to_the_bit(problem, log_c_min, eta_log_abs, log_c0):
    n, beta, delta, b0 = problem
    dc = derive_constants(ProblemSpec(n=n, beta=beta, sigma=1.0, delta=delta, b0=b0))
    assert dc.log_c_min.log_value.hex() == log_c_min
    assert dc.eta_log_abs.hex() == eta_log_abs
    assert (None if dc.log_c0 is None else dc.log_c0.log_value.hex()) == log_c0


def test_log_scalar_arithmetic():
    a = LogScalar.from_value(3.0)
    b = LogScalar.from_value(4.0)
    assert (a * b).value == pytest.approx(12.0, rel=1e-14)
    assert (b / a).value == pytest.approx(4.0 / 3.0, rel=1e-14)
    assert (a ** 2).value == pytest.approx(9.0, rel=1e-14)
    assert a < b
    with pytest.raises(SpecError):
        LogScalar.from_value(0.0)


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.floats(min_value=1e-6, max_value=1e6),
)
def test_log_scalar_order_matches_values(x, y):
    assert (LogScalar.from_value(x) < LogScalar.from_value(y)) == (
        math.log(x) < math.log(y)
    )


def _spec_pair():
    args = dict(n=2, beta=-1.0, sigma=0.5, delta=1e-3, b0=2.0, mode=Mode.FIXED_B0)
    return ProblemSpec(**args), ProblemSpec(2, -1.0, 0.5, 1e-3, 2.0, "fixed-b0")


@pytest.mark.parametrize(
    "make, field",
    [
        (_spec_pair, "delta"),
        (lambda: (LogScalar(1.5), LogScalar(log_value=1.5)), "log_value"),
        (lambda: tuple(derive_constants(_spec_pair()[0]) for _ in range(2)), "m"),
    ],
    ids=["ProblemSpec", "LogScalar", "DerivedConstants"],
)
def test_records_are_immutable_values(make, field):
    a, b = make()
    assert a is not b and a == b and hash(a) == hash(b)
    name = type(a).__name__
    with pytest.raises(AttributeError):
        setattr(a, field, 1.0)
    with pytest.raises(AttributeError):
        setattr(a, "no_such_field", 1.0)
    assert getattr(a, field) == getattr(b, field)
    assert repr(a).startswith(f"{name}(") and f"{field}=" in repr(a)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_problem_spec_fields_and_defaults():
    spec = ProblemSpec(1, -1.0, 1.0, 0.1)
    assert (spec.n, spec.beta, spec.sigma, spec.delta, spec.b0, spec.mode) == (
        1, -1.0, 1.0, 0.1, None, Mode.PRACTICAL,
    )
    assert ProblemSpec(1, -1.0, 1.0, 0.1, mode="fixed-b0", b0=1.0).mode is Mode.FIXED_B0
    assert spec != ProblemSpec(1, -1.0, 1.0, 0.2)
    with pytest.raises(TypeError):
        ProblemSpec(1, -1.0, 1.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("beta", "-1", "kernel exponent beta must be a finite real, got '-1'"),
        ("beta", b"-1", "kernel exponent beta must be a finite real, got b'-1'"),
        ("beta", None, "kernel exponent beta must be a finite real, got None"),
        ("sigma", "1.0", "sigma must be a positive finite real, got '1.0'"),
        ("delta", "0.1", "delta must be a positive finite real, got '0.1'"),
        ("b0", "1", "b0 must be a positive finite real, got '1'"),
        ("sigma", 1j, "sigma must be a positive finite real, got 1j"),
    ],
)
def test_problem_spec_refuses_values_that_are_not_real_numbers(field, value, message):
    # a string beta was parsed and kept as the string, and a string sigma,
    # delta or b0 raised TypeError
    fields = dict(n=1, beta=-1.0, sigma=1.0, delta=0.1, b0=1.0)
    fields[field] = value
    with pytest.raises(SpecError) as caught:
        ProblemSpec(**fields)
    assert str(caught.value) == message


@pytest.mark.parametrize("beta", [-1, np.float64(-1.0), np.float32(0.3), np.float64(2.5e-7), True])
def test_problem_spec_stores_beta_as_a_float_with_its_bits(beta):
    spec = ProblemSpec(n=2, beta=beta, sigma=1.0, delta=1e-3)
    assert type(spec.beta) is float and spec.beta.hex() == float(beta).hex()
    assert spec == ProblemSpec(n=2, beta=float(beta), sigma=1.0, delta=1e-3)
    assert derive_constants(spec) == derive_constants(spec.replace(beta=float(beta)))


def test_an_integer_beyond_double_range_is_refused():
    with pytest.raises(SpecError, match="sigma must be a positive finite real"):
        ProblemSpec(n=1, beta=-1.0, sigma=10 ** 400, delta=0.1)
    with pytest.raises(SpecError, match="kernel exponent beta must be a finite real"):
        ProblemSpec(n=1, beta=-(10 ** 400), sigma=1.0, delta=0.1)


def test_problem_spec_replace_validates_again():
    spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.1)
    moved = spec.replace(delta=0.2, b0=1.0, mode=Mode.FIXED_B0)
    assert moved == ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.2, b0=1.0, mode=Mode.FIXED_B0)
    assert spec.delta == 0.1 and spec.replace() == spec
    with pytest.raises(SpecError):
        spec.replace(delta=-1.0)
    with pytest.raises(SpecError):
        spec.replace(mode=Mode.FIXED_B0)  # no b0
    with pytest.raises(TypeError):
        spec.replace(no_such_field=1.0)


def test_log_scalar_has_no_tuple_arithmetic():
    a = LogScalar(1.0)
    with pytest.raises(TypeError):
        a + LogScalar(2.0)
    with pytest.raises(TypeError):
        2 * a
    with pytest.raises(TypeError):
        a < 2.0
    assert a <= LogScalar(1.0) and a >= LogScalar(1.0) and LogScalar(2.0) > a
    assert sorted([LogScalar(3.0), a]) == [a, LogScalar(3.0)]
