import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from mqshape import (
    CriterionKind,
    CurveSample,
    Mode,
    OptimalResult,
    ProblemSpec,
    Regime,
    SpecError,
    derive_constants,
    kind_for,
    log_h_beta_neg1_multid,
    log_h_beta_neg1_oned,
    log_h_general,
    log_h_unified,
    log_lambda_pow,
    regime_for,
    sample_curve,
)
from mqshape.criterion import (
    _shape_of,
    _xi_star,
    finite_cap,
    log_h_beta_neg1_multid_simplified,
    log_knee,
)
from oracles import case2_sq_derivative, oned_threshold

ONE_D_ARGMIN_SIGMA1 = 0.5166224878150684  # bounded-search oracle


def _spec(n=1, beta=-1.0, sigma=1.0, delta=0.01, b0=None, mode=Mode.PRACTICAL):
    return ProblemSpec(n=n, beta=beta, sigma=sigma, delta=delta, b0=b0, mode=mode)


class TestXiStar:
    def test_perfect_square_discriminant(self):
        assert _xi_star(1.0, 1.0, 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_q_collapses_radical(self):
        assert _xi_star(2.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_branch_point_identity(self):
        # at c = 2/sqrt(3 sigma) with q = 1 the critical point equals 1/c
        c = 2.0 / math.sqrt(3.0)
        assert _xi_star(c, 1.0, 1.0) == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
        for sigma in (0.25, 1.0, 4.0):
            c = oned_threshold(sigma)
            assert _xi_star(c, sigma, 1.0) == pytest.approx(1.0 / c, rel=1e-13)

    @given(
        st.floats(min_value=1e-8, max_value=1e8),
        st.floats(min_value=1e-4, max_value=1e4),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_solves_defining_quadratic(self, c, sigma, q):
        xs = _xi_star(c, sigma, q)
        resid = q / 2.0 + c * xs - 2.0 * xs * xs / sigma
        scale = max(q / 2.0, c * xs, 2.0 * xs * xs / sigma)
        assert abs(resid) <= 1e-10 * scale

    def test_huge_c_does_not_overflow(self):
        assert math.isfinite(_xi_star(1e160, 1.0, 5.0))


class TestMultiDimCriterion:
    def test_two_forms_agree_at_reference_point(self):
        a = log_h_beta_neg1_multid(1.0, 2, 1.0)
        b = log_h_beta_neg1_multid_simplified(1.0, 2, 1.0)
        assert a == pytest.approx(b, abs=1e-12)
        assert a == pytest.approx(math.log(2.0), rel=1e-14)

    def test_two_forms_agree_over_random_draws(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            c = float(10.0 ** rng.uniform(-3, 3))
            n = int(rng.integers(2, 7))
            sigma = float(rng.uniform(0.1, 10.0))
            a = log_h_beta_neg1_multid(c, n, sigma)
            b = log_h_beta_neg1_multid_simplified(c, n, sigma)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        assert worst < 1e-10

    def test_blows_up_at_both_ends(self):
        mid = log_h_beta_neg1_multid(1.0, 2, 1.0)
        assert log_h_beta_neg1_multid(1e-6, 2, 1.0) > mid
        assert log_h_beta_neg1_multid(1e3, 2, 1.0) > mid

    def test_rejects_dimension_one(self):
        with pytest.raises(SpecError):
            log_h_beta_neg1_multid(1.0, 1, 1.0)


class TestOneDimCriterion:
    @pytest.mark.parametrize("sigma", [0.25, 1.0, 4.0])
    def test_branch_continuity(self, sigma):
        t = oned_threshold(sigma)
        below = log_h_beta_neg1_oned(t, sigma)
        above = log_h_beta_neg1_oned(t * (1.0 + 1e-14), sigma)
        assert abs(below - above) < 1e-10

    def test_minimum_near_heuristic_location(self):
        cs = np.geomspace(0.05, 20.0, 4001)
        vals = [log_h_beta_neg1_oned(float(c), 1.0) for c in cs]
        c_star = float(cs[int(np.argmin(vals))])
        assert 0.4 < c_star < 0.8
        assert c_star == pytest.approx(ONE_D_ARGMIN_SIGMA1, rel=2e-3)

    def test_nondecreasing_beyond_branch_point(self):
        cs = np.geomspace(oned_threshold(1.0), 1e3, 100)
        vals = [log_h_beta_neg1_oned(float(c), 1.0) for c in cs]
        assert all(vals[i + 1] >= vals[i] for i in range(len(vals) - 1))

    def test_small_branch_derivative_expression(self):
        # the closed-form derivative of H^2 matches a central difference
        for sigma in (0.5, 1.0, 2.0):
            c = 1.0 / math.sqrt(3.0 * sigma)
            h = 1e-6 * c

            def h_sq(x):
                return math.exp(2.0 * log_h_beta_neg1_oned(x, sigma))

            fd = (h_sq(c + h) - h_sq(c - h)) / (2.0 * h)
            expr = case2_sq_derivative(c, sigma)
            assert expr == pytest.approx(fd, rel=1e-6)
            # at this c the expression collapses to a fixed multiple of sigma
            closed = (
                (-3.0 * math.e ** 2 + 30.0 * math.sqrt(3.0) * math.log(2.0))
                * sigma
                / (math.e ** 2 * math.log(2.0))
            )
            assert expr == pytest.approx(closed, rel=1e-12)

    def test_rejects_nonpositive_c(self):
        with pytest.raises(SpecError):
            log_h_beta_neg1_oned(0.0, 1.0)

    def test_finite_below_square_underflow(self):
        # c^2 underflows to zero here; only the constant term survives
        v = log_h_beta_neg1_oned(1e-200, 1.0)
        expected = -0.5 * math.log(1e-200) + 0.5 * math.log(1.0 / math.log(2.0))
        assert v == pytest.approx(expected, rel=1e-13)


class TestPositiveBetaCriterion:
    def test_interior_critical_point(self):
        # n=3, beta=1, sigma=1: the curve dips exactly at 1/sqrt(6)
        c0 = 1.0 / math.sqrt(6.0)
        below = log_h_general(c0 * 0.999, 3, 1.0, 1.0)
        above = log_h_general(c0 * 1.001, 3, 1.0, 1.0)
        at = log_h_general(c0, 3, 1.0, 1.0)
        assert at < below and at < above
        assert log_h_general(1e-6, 3, 1.0, 1.0) > at
        assert log_h_general(1e3, 3, 1.0, 1.0) > at

    def test_nondecreasing_when_no_interior_point(self):
        # n=1, beta=1: 1+beta-n >= 0, curve never descends
        spec = _spec(n=1, beta=1.0, delta=0.01)
        dc = derive_constants(spec)
        cs = np.geomspace(dc.log_c_min.value, 1e3, 100)
        vals = [log_h_general(float(c), 1, 1.0, 1.0) for c in cs]
        assert all(vals[i + 1] >= vals[i] for i in range(len(vals) - 1))


class TestGeneralCore:
    def test_offset_from_specialized_form(self):
        # the core and the beta=-1 multidim criterion differ by the exact
        # constant (n/4) log(4/sigma), independent of c
        rng = np.random.default_rng(12)
        for _ in range(300):
            c = float(10.0 ** rng.uniform(-3, 3))
            n = int(rng.integers(2, 7))
            sigma = float(rng.uniform(0.1, 10.0))
            core = log_h_general(c, n, -1.0, sigma)
            special = log_h_beta_neg1_multid(c, n, sigma)
            offset = 0.25 * n * math.log(4.0 / sigma)
            assert core + offset == pytest.approx(special, abs=1e-10 * max(1.0, abs(special)))

    def test_exact_match_at_sigma_four(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            c = float(10.0 ** rng.uniform(-3, 3))
            n = int(rng.integers(2, 7))
            a = log_h_general(c, n, -1.0, 4.0)
            b = log_h_beta_neg1_multid(c, n, 4.0)
            assert a == pytest.approx(b, abs=1e-10 * max(1.0, abs(b)))

    def test_matches_positive_beta_form(self):
        # beta > 0 has no formula of its own: the criterion is the core
        spec = _spec(n=2, beta=1.5, delta=1e-3)
        dc = derive_constants(spec)
        assert log_h_unified(0.7, spec, dc, kind_for(spec)) == log_h_general(0.7, 2, 1.5, 1.0)

    def test_rejects_uncovered_combination(self):
        with pytest.raises(SpecError):
            log_h_general(1.0, 1, -1.5, 1.0)  # |n+beta| < 1
        with pytest.raises(SpecError):
            log_h_general(1.0, 1, -1.0, 1.0)  # 1-D beta=-1 has its own formula


class TestRegimeSelection:
    def test_most_specific_regime(self):
        # two formulas: 1-D beta=-1, and the core for everything else
        assert set(Regime) == {Regime.BETA_NEG1_1D, Regime.GENERAL}
        assert regime_for(1, -1.0) is Regime.BETA_NEG1_1D
        assert regime_for(2, -1.0) is Regime.GENERAL
        assert regime_for(1, 1.0) is Regime.GENERAL
        assert regime_for(1, -2.0) is Regime.GENERAL
        assert regime_for(3, -1.5) is Regime.GENERAL

    def test_unsupported_combination(self):
        with pytest.raises(SpecError):
            regime_for(1, -2.5)  # n + beta + 1 < 0
        with pytest.raises(SpecError):
            regime_for(2, -2.0)  # |n + beta| = 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("beta", [-5.0, -3.5, -2.5, -2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 3.0])
    def test_core_covers_exactly_the_general_regime(self, n, beta):
        try:
            general = regime_for(n, beta) is Regime.GENERAL
        except SpecError:
            general = False
        if general:
            assert math.isfinite(log_h_general(1.0, n, beta, 1.0))
        else:
            with pytest.raises(SpecError):
                log_h_general(1.0, n, beta, 1.0)


class TestLambdaFactor:
    def test_practical_mode_refuses(self):
        spec = _spec(b0=1.0)
        dc = derive_constants(spec)
        with pytest.raises(SpecError):
            log_lambda_pow(1.0, spec, dc)

    def test_value_at_knee(self):
        spec = _spec(b0=1.0, mode=Mode.FIXED_B0)
        dc = derive_constants(spec)
        c0 = dc.log_c0.value
        expected = 12.5 * math.log(2.0 / 3.0)  # b0/(4 gamma_n delta) = 12.5
        assert log_lambda_pow(c0, spec, dc) == pytest.approx(expected, rel=1e-13)

    def test_continuity_at_knee_random_specs(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(1, 4))
            beta = float(rng.choice([-1.0, 1.0, 3.0, -0.5]))
            spec = ProblemSpec(
                n=n,
                beta=beta,
                sigma=float(rng.uniform(0.2, 5.0)),
                delta=float(10.0 ** rng.uniform(-8, -1)),
                b0=float(rng.uniform(0.5, 4.0)),
                mode=Mode.FIXED_B0,
            )
            dc = derive_constants(spec)
            c0 = dc.log_c0.value
            below = log_lambda_pow(c0 * (1.0 - 1e-13), spec, dc)
            at = log_lambda_pow(c0, spec, dc)
            assert below == pytest.approx(at, rel=1e-12)

    def test_constant_beyond_knee(self):
        spec = _spec(n=2, b0=1.5, delta=1e-3, mode=Mode.FIXED_B0)
        dc = derive_constants(spec)
        c0 = dc.log_c0.value
        v1 = log_lambda_pow(2.0 * c0, spec, dc)
        v2 = log_lambda_pow(10.0 * c0, spec, dc)
        assert v1 == pytest.approx(v2, rel=1e-14)

    def test_nonincreasing_in_c(self):
        spec = _spec(b0=1.0, delta=0.05, mode=Mode.FIXED_B0)
        dc = derive_constants(spec)
        cs = np.geomspace(1e-3, 10.0 * dc.log_c0.value, 300)
        vals = [log_lambda_pow(float(c), spec, dc) for c in cs]
        assert all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))

    def test_dilation_invariant_is_pure_exponential(self):
        spec = _spec(delta=0.02, mode=Mode.DILATION_INVARIANT)
        dc = derive_constants(spec)
        eta = math.log(2.0 / 3.0) / (12.0 * math.exp(4.0) * 2.0 * spec.delta)
        rng = np.random.default_rng(15)
        for _ in range(50):
            c = float(10.0 ** rng.uniform(-3, 6))
            assert log_lambda_pow(c, spec, dc) == pytest.approx(eta * c, rel=1e-12)


class TestUnified:
    def test_practical_dispatch(self):
        spec = _spec(n=2, delta=1e-3)
        dc = derive_constants(spec)
        kind = kind_for(spec)
        assert kind.regime is Regime.GENERAL
        assert log_h_unified(0.8, spec, dc, kind) == log_h_general(0.8, 2, -1.0, 1.0)

    def test_fixed_b0_equals_practical_plus_constant_beyond_knee(self):
        spec_fb = _spec(b0=1.0, delta=0.01, mode=Mode.FIXED_B0)
        spec_pr = _spec(b0=1.0, delta=0.01, mode=Mode.PRACTICAL)
        dc_fb = derive_constants(spec_fb)
        dc_pr = derive_constants(spec_pr)
        c0 = dc_fb.log_c0.value
        shift = math.log(2.0 / 3.0) * spec_fb.b0 / (4.0 * dc_fb.gamma_n * spec_fb.delta)
        for c in (c0, 2.0 * c0, 7.3 * c0):
            base = log_h_unified(c, spec_pr, dc_pr, kind_for(spec_pr))
            diff = log_h_unified(c, spec_fb, dc_fb, kind_for(spec_fb)) - base
            # cancellation in the two large core values bounds the accuracy
            assert diff == pytest.approx(shift, abs=1e-12 * max(1.0, abs(base)))

    def test_general_core_kind_accepted_for_specialized_spec(self):
        spec = _spec(n=2, delta=1e-3)
        dc = derive_constants(spec)
        kind = CriterionKind(Regime.GENERAL, Mode.PRACTICAL)
        assert log_h_unified(1.0, spec, dc, kind) == log_h_general(1.0, 2, -1.0, 1.0)

    def test_mode_mismatch_rejected(self):
        spec = _spec(b0=1.0)
        dc = derive_constants(spec)
        with pytest.raises(SpecError):
            log_h_unified(1.0, spec, dc, CriterionKind(Regime.BETA_NEG1_1D, Mode.FIXED_B0))

    def test_regime_mismatch_rejected(self):
        spec = _spec(n=1, beta=-1.0)
        dc = derive_constants(spec)
        with pytest.raises(SpecError):
            log_h_unified(1.0, spec, dc, CriterionKind(Regime.GENERAL, Mode.PRACTICAL))

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n, beta", [(1, -1.0), (2, -1.0), (1, 1.0), (2, 1.5)])
    def test_kind_changes_no_bit(self, n, beta, mode):
        spec = ProblemSpec(n=n, beta=beta, sigma=0.7, delta=1e-3, b0=2.0, mode=mode)
        dc = derive_constants(spec)
        kind = kind_for(spec)
        for c in np.geomspace(dc.log_c_min.value, 1e4 * dc.log_c0.value, 40):
            with_kind = log_h_unified(float(c), spec, dc, kind)
            assert with_kind.hex() == log_h_unified(float(c), spec, dc).hex()

    @pytest.mark.parametrize(
        "n, beta, mode",
        [
            (1, -1.0, Mode.PRACTICAL),
            (1, -1.0, Mode.FIXED_B0),
            (1, -1.0, Mode.DILATION_INVARIANT),
            (2, -1.0, Mode.FIXED_B0),
            (3, 1.0, Mode.FIXED_B0),
            (1, 1.0, Mode.DILATION_INVARIANT),
            (4, -1.0, Mode.FIXED_B0),
            (4, 1.0, Mode.PRACTICAL),
            (1, -2.0, Mode.FIXED_B0),
        ],
    )
    def test_finite_over_wide_range(self, n, beta, mode):
        spec = ProblemSpec(n=n, beta=beta, sigma=1.0, delta=0.01, b0=1.0, mode=mode)
        dc = derive_constants(spec)
        kind = kind_for(spec)
        lo = 1e-300
        if dc.log_c_min.log_value < math.log(1e10):
            lo = max(lo, dc.log_c_min.value * 1e-3)
        for c in np.geomspace(lo, 1e10, 60):
            assert math.isfinite(log_h_unified(float(c), spec, dc, kind))


class TestFiniteCap:
    @given(
        n_beta=st.sampled_from([(1, -1.0), (2, -1.0), (1, 1.0), (2, 0.5), (3, -1.5), (3, 3.0)]),
        mode=st.sampled_from(list(Mode)),
        log_sigma=st.floats(math.log(1e-3), math.log(1e6)),
        log_delta=st.floats(math.log(1e-300), 0.0),
        log_b0=st.floats(math.log(1e-3), math.log(1e200)),
    )
    def test_criterion_is_finite_at_the_cap(self, n_beta, mode, log_sigma, log_delta, log_b0):
        # for sigma above ~8.45, xi*^2 overflowed below the old cap and
        # log H was -inf or, in one dimension, a wrong finite value
        spec = _spec(n_beta[0], n_beta[1], math.exp(log_sigma), math.exp(log_delta),
                     math.exp(log_b0), mode)
        dc = derive_constants(spec)
        cap = finite_cap(spec, dc)
        for c in (cap, 0.5 * cap):
            assert math.isfinite(log_h_unified(c, spec, dc))

    @given(sigma=st.floats(1e-3, 8.0))
    def test_practical_cap_unchanged_up_to_sigma_8(self, sigma):
        spec = _spec(n=2, beta=1.0, sigma=sigma)
        cap = finite_cap(spec, derive_constants(spec))
        assert cap == math.sqrt(min(8e307 / sigma, sys.float_info.max))

    def test_one_dimensional_value_at_the_cap(self):
        # 50-digit mpmath: log H at sigma = 16 grows like sigma c^2 / 8;
        # the overflowing xi*^2 once dropped it to the constant term, ~ -176
        mpmath = pytest.importorskip("mpmath")
        spec = _spec(sigma=16.0)
        c = finite_cap(spec, derive_constants(spec))
        with mpmath.workdps(50):
            cm, s = mpmath.mpf(c), mpmath.mpf(16)
            xs = (cm * s + mpmath.sqrt(cm * cm * s * s + 4 * s)) / 4
            log_m = mpmath.log(cm * xs) / 2 + cm * xs - xs * xs / s
            m_term = mpmath.log(2 * mpmath.sqrt(3)) + log_m
            want = -mpmath.log(cm) / 2 + mpmath.log(1 / mpmath.log(2) + mpmath.exp(m_term)) / 2
        assert log_h_beta_neg1_oned(c, 16.0) == pytest.approx(float(want), rel=1e-13)


class TestSlope:
    @given(
        n_beta=st.sampled_from([(1, -1.0), (2, -1.0), (1, 1.0), (2, 0.5), (3, -1.5), (3, 3.0)]),
        log_sigma=st.floats(math.log(0.1), math.log(10.0)),
        log_c=st.floats(-5.0, 6.0),
    )
    def test_matches_a_central_difference(self, n_beta, log_sigma, log_c):
        n, beta = n_beta
        sigma, c = math.exp(log_sigma), math.exp(log_c)
        # the 1-D slope has a kink in its own slope at the branch point
        assume(abs(c / oned_threshold(sigma) - 1.0) > 1e-3)
        spec = _spec(n, beta, sigma)
        dc = derive_constants(spec)
        h = 1e-5 * c
        lo, hi = log_h_unified(c - h, spec, dc), log_h_unified(c + h, spec, dc)
        want = (hi - lo) / (2.0 * h)
        got = _shape_of(spec).slope(c)
        assert abs(got - want) <= 1e-8 * (abs(want) + (abs(hi) + 1.0) / c)

    @pytest.mark.parametrize(
        "n, beta, sigma, c",
        [
            (1, -1.0, 1e238, 1e-120),  # c^3 underflows, c^2 sigma does not
            (1, -1.0, 1.0, 1e-160),  # c^2 sigma underflows to a subnormal
            (1, -1.0, 1.0, 1e-300),
            (2, 0.5, 1e-3, 1e-300),
            (3, -1.5, 1e6, 1e-300),
        ],
    )
    def test_finite_at_tiny_c(self, n, beta, sigma, c):
        assert math.isfinite(_shape_of(_spec(n, beta, sigma)).slope(c))

    @given(
        n_beta=st.sampled_from([(1, -1.0), (2, -1.0), (1, 1.0), (2, 0.5), (3, -1.5), (3, 3.0)]),
        mode=st.sampled_from(list(Mode)),
        log_sigma=st.floats(math.log(1e-3), math.log(1e6)),
        log_delta=st.floats(math.log(1e-300), 0.0),
        log_b0=st.floats(math.log(1e-3), math.log(1e200)),
        frac=st.floats(0.0, 1.0),
    )
    def test_finite_up_to_the_cap(self, n_beta, mode, log_sigma, log_delta, log_b0, frac):
        spec = _spec(n_beta[0], n_beta[1], math.exp(log_sigma), math.exp(log_delta),
                     math.exp(log_b0), mode)
        log_cap = math.log(finite_cap(spec, derive_constants(spec)))
        c = math.exp(math.log(1e-300) + frac * (log_cap - math.log(1e-300)))
        for x in (c, math.exp(log_cap)):
            assert math.isfinite(_shape_of(spec).slope(x))


# (n, beta) pairs of both formulas: the 1-D beta = -1 one, and cores with
# p = n - 1 - beta above, at and below 0
SHAPE_CASES = [
    (1, -1.0),
    (2, -1.0), (3, -1.5), (1, -2.0), (2, 0.5), (3, -0.5),
    (2, 1.0), (4, 3.0),
    (1, 0.5), (1, 1.0), (1, 3.0), (2, 1.5), (3, 3.0),
]


class TestShape:
    """The curve shape the optimizer relies on: where the slope rises,
    and the closed-form minima where the mode adds no rate."""

    @given(
        n_beta=st.sampled_from(SHAPE_CASES),
        log_sigma=st.floats(math.log(1e-3), math.log(1e6)),
        log_span=st.floats(1e-3, 60.0),
    )
    def test_slope_rises_on_every_rising_stretch(self, n_beta, log_sigma, log_span):
        # the first log_span nats of each stretch, up to the finite cap
        spec = _spec(*n_beta, math.exp(log_sigma))
        shape = _shape_of(spec)
        cap = finite_cap(spec, derive_constants(spec))
        for a, b in shape.rising():
            a = max(a, 1e-9 / math.sqrt(spec.sigma))
            b = min(b, cap, a * math.exp(log_span))
            slopes = [shape.slope(float(c)) for c in np.geomspace(a, b, 64)]
            assert all(x <= y for x, y in zip(slopes, slopes[1:])), (a, b)

    @given(
        n_beta=st.sampled_from([nb for nb in SHAPE_CASES if nb[0] - 1.0 - nb[1] < 0.0]),
        log_sigma=st.floats(math.log(1e-3), math.log(1e6)),
    )
    def test_negative_p_rise_starts_at_the_lowest_slope(self, n_beta, log_sigma):
        shape = _shape_of(_spec(*n_beta, math.exp(log_sigma)))
        ((start, end),) = shape.rising()
        assert end == math.inf
        at_start = shape.slope(start)
        assert shape.slope(0.99 * start) > at_start < shape.slope(1.01 * start)

    @given(
        n_beta=st.sampled_from(SHAPE_CASES),
        log_sigma=st.floats(math.log(1e-3), math.log(1e6)),
    )
    def test_closed_form_minima_are_slope_roots(self, n_beta, log_sigma):
        shape = _shape_of(_spec(*n_beta, math.exp(log_sigma)))
        minima = shape.minima(0.0, 0.0, math.inf)
        p = n_beta[0] - 1.0 - n_beta[1]
        assert len(minima) == (1 if n_beta == (1, -1.0) or p > 0.0 else 0)
        for c in minima:
            assert shape.slope(c * (1.0 - 1e-9)) < 0.0 < shape.slope(c * (1.0 + 1e-9))


@pytest.mark.parametrize(
    "call",
    [
        lambda: log_h_general(1.0, 2, 1.0, math.nan),
        lambda: log_h_general(1.0, 2, 1.0, math.inf),
        lambda: log_h_beta_neg1_oned(1.0, math.nan),
        lambda: log_h_beta_neg1_oned(1.0, math.inf),
        lambda: log_h_beta_neg1_multid(1.0, 2, math.nan),
        lambda: log_h_beta_neg1_multid(1.0, 2, -1.0),
        lambda: log_h_beta_neg1_multid_simplified(1.0, 2, math.nan),
        lambda: log_h_beta_neg1_multid_simplified(1.0, 2, -1.0),
    ],
    ids=[
        "general-nan", "general-inf", "oned-nan", "oned-inf",
        "multid-nan", "multid-negative", "simplified-nan", "simplified-negative",
    ],
)
def test_formulas_reject_a_sigma_that_is_not_positive_and_finite(call):
    with pytest.raises(SpecError):
        call()


class TestKnee:
    def test_one_knee_per_mode(self):
        spec = _spec(n=2, beta=1.0, b0=1.0, mode=Mode.FIXED_B0)
        dc = derive_constants(spec)
        assert log_knee(spec, dc) == dc.log_c0.log_value
        for mode, want in ((Mode.PRACTICAL, -math.inf), (Mode.DILATION_INVARIANT, math.inf)):
            spec = _spec(n=2, beta=1.0, mode=mode)
            assert log_knee(spec, derive_constants(spec)) == want

    def test_fixed_b0_needs_constants_with_b0(self):
        spec = _spec(n=2, beta=1.0, b0=1.0, mode=Mode.FIXED_B0)
        dc = derive_constants(_spec(n=2, beta=1.0))
        with pytest.raises(SpecError, match="b0"):
            log_knee(spec, dc)


class TestSampleCurve:
    def test_two_samples_hit_endpoints(self):
        spec = _spec(n=2, delta=1e-3)
        dc = derive_constants(spec)
        samples = sample_curve(spec, dc, kind_for(spec), 0.5, 7.0, 2)
        assert [s.c for s in samples] == [0.5, 7.0]

    def test_strictly_increasing_in_c(self):
        spec = _spec(n=2, delta=1e-3)
        dc = derive_constants(spec)
        samples = sample_curve(spec, dc, kind_for(spec), 0.1, 100.0, 257)
        cs = [s.c for s in samples]
        assert all(cs[i + 1] > cs[i] for i in range(len(cs) - 1))

    @pytest.mark.parametrize(
        "c_lo, c_hi, count",
        [
            (0.08352760365204465, 1637.9445009943277, 2000),  # spans c = 1
            (1e-3, 1e3, 5000),
            (1e-300, 1e-290, 600),
            (1e290, 1e300, 600),
            (1e-300, 1e300, 2000),
        ],
    )
    def test_points_match_geomspace(self, c_lo, c_hi, count):
        spec = _spec(n=2, delta=1e-3)
        dc = derive_constants(spec)
        cs = [s.c for s in sample_curve(spec, dc, kind_for(spec), c_lo, c_hi, count)]
        assert cs[0] == c_lo and cs[-1] == c_hi
        assert all(a < b for a, b in zip(cs, cs[1:]))
        # Both space the logs evenly, so each point carries an absolute log
        # error of a few eps times the larger |log endpoint|, even at c = 1.
        eps = np.finfo(float).eps
        rtol = 4.0 * eps * (1.0 + max(abs(math.log(c_lo)), abs(math.log(c_hi))))
        np.testing.assert_allclose(cs, np.geomspace(c_lo, c_hi, count), rtol=rtol, atol=0.0)

    def test_fixed_b0_curve_argmin_left_of_knee(self):
        # classic setup: small delta pushes the optimum to the admissible
        # left endpoint, which sits below the knee c0
        spec = _spec(b0=1.0, delta=0.1, mode=Mode.FIXED_B0)
        dc = derive_constants(spec)
        c_min, c0 = dc.log_c_min.value, dc.log_c0.value
        samples = sample_curve(spec, dc, kind_for(spec), c_min, 10.0 * c0, 4000)
        best = min(samples, key=lambda s: s.log_h)
        assert best.c < c0

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("n, beta", [(1, -1.0), (2, -1.0), (1, 1.0), (2, 1.5)])
    def test_no_kind_changes_no_sample(self, n, beta, mode):
        spec = ProblemSpec(n=n, beta=beta, sigma=0.7, delta=1e-3, b0=2.0, mode=mode)
        dc = derive_constants(spec)
        c_lo, c_hi = dc.log_c_min.value, 1e4 * dc.log_c0.value
        with_kind = sample_curve(spec, dc, kind_for(spec), c_lo, c_hi, 40)
        without = sample_curve(spec, dc, None, c_lo, c_hi, 40)
        assert [(s.c.hex(), s.log_h.hex()) for s in without] == [
            (s.c.hex(), s.log_h.hex()) for s in with_kind
        ]

    @pytest.mark.parametrize(
        "kind",
        [CriterionKind(Regime.BETA_NEG1_1D, Mode.PRACTICAL), CriterionKind(Regime.GENERAL, Mode.FIXED_B0)],
    )
    def test_mismatched_kind_rejected_before_any_point(self, monkeypatch, kind):
        from mqshape import criterion

        evaluated = []
        monkeypatch.setattr(criterion, "_log_h_of", lambda *args: evaluated.append)
        spec = _spec(n=2, delta=1e-3)
        dc = derive_constants(spec)
        with pytest.raises(SpecError):
            sample_curve(spec, dc, kind, 0.5, 7.0, 100)
        assert evaluated == []

    def test_invalid_ranges_rejected(self):
        spec = _spec(n=2, delta=1e-3)
        dc = derive_constants(spec)
        with pytest.raises(SpecError):
            sample_curve(spec, dc, kind_for(spec), 1.0, 0.5, 10)
        # a count that is not an integer >= 2
        for count in (1, 2.5, np.float64(3.0), "3"):
            with pytest.raises(SpecError, match="samples"):
                sample_curve(spec, dc, kind_for(spec), 0.5, 1.0, count)
        assert len(sample_curve(spec, dc, None, 0.5, 1.0, np.int64(3))) == 3


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: CriterionKind(Regime.GENERAL, Mode.FIXED_B0), "regime"),
        (lambda: CurveSample(c=2.0, log_h=-1.5), "log_h"),
        (lambda: OptimalResult(2.0, -1.5, False, 0, (1.0, 8.0)), "bracket"),
    ],
    ids=["CriterionKind", "CurveSample", "OptimalResult"],
)
def test_records_are_immutable_values(make, field):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    name = type(a).__name__
    assert repr(a).startswith(f"{name}(") and f"{field}=" in repr(a)


def _bits(xs):
    return [x.hex() for x in xs]


class TestCurveEvaluator:
    """``sample_curve`` and ``log_h_unified`` share one evaluator, and it
    is the formula's public function plus the mode's factor, to the bit."""

    @staticmethod
    def _check(spec, c_lo, c_hi, count=400):
        dc = derive_constants(spec)
        samples = sample_curve(spec, dc, None, c_lo, c_hi, count)
        cs = [s.c for s in samples]
        assert _bits(s.log_h for s in samples) == _bits(log_h_unified(c, spec, dc) for c in cs)
        if regime_for(spec.n, spec.beta) is Regime.BETA_NEG1_1D:
            core = [log_h_beta_neg1_oned(c, spec.sigma) for c in cs]
        else:
            core = [log_h_general(c, spec.n, spec.beta, spec.sigma) for c in cs]
        if spec.mode is not Mode.PRACTICAL:
            core = [h + log_lambda_pow(c, spec, dc) for h, c in zip(core, cs)]
        assert _bits(s.log_h for s in samples) == _bits(core)
        return dc, cs

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "n, beta, sigma", [(1, -1.0, 0.7), (2, -1.0, 1.3), (2, 3.0, 0.5), (1, 0.5, 2.0)]
    )
    def test_whole_finite_range(self, n, beta, sigma, mode):
        # from far below c_min to the finite cap: past the knee c0 in
        # fixed-b0 mode, and past c sigma = 1e150, where xi* factors c sigma
        # out of its radical
        spec = ProblemSpec(n=n, beta=beta, sigma=sigma, delta=1e-3, b0=2.0, mode=mode)
        dc, cs = self._check(spec, 1e-3, finite_cap(spec, derive_constants(spec)))
        assert cs[-1] * sigma > 1e150
        assert cs[0] < dc.log_c0.value < cs[-1]

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("sigma", [0.3, 1.0, 4.0])
    def test_one_dimensional_branch_point(self, sigma, mode):
        # the curve ends on the branch point 2/sqrt(3 sigma), then starts
        # there, so it is evaluated exactly on both branches' sides
        spec = ProblemSpec(n=1, beta=-1.0, sigma=sigma, delta=1e-2, b0=1.0, mode=mode)
        t = oned_threshold(sigma)
        _, below = self._check(spec, 0.5 * t, t, 101)
        _, above = self._check(spec, t, 2.0 * t, 101)
        assert below[-1] == t == above[0]
