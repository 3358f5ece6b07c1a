import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from mqshape import (
    Mode,
    MqShapeError,
    NumericError,
    PreconditionError,
    ProblemSpec,
    SpecError,
    derive_constants,
    error_bound,
    kind_for,
    log_h_beta_neg1_multid,
    log_h_general,
    log_h_unified,
    minimize_scalar,
    optimal_c,
    optimizer,
)
from mqshape.criterion import _xi_star, finite_cap
from oracles import case2_sq_derivative, critical_point_case1

# bounded-search oracles (independent high-precision runs)
DI_ARGMIN = 12.377774689597498  # n=1, beta=-1, sigma=1, delta=1e-4
ONE_D_ARGMIN = 0.5166224878150684  # n=1, beta=-1, sigma=1, practical
# root of -u^2/ln 2 + 2 sqrt(3) e^{1 - 1/u^2} (2 - u^2), correctly rounded
ONED_U_STAR = 0.5166224863922065


def _lhs_case1(c, n, sigma):
    # independent reimplementation of the monotone critical-point equation
    r = math.sqrt(c * c + 4.0 * n / sigma)
    return (
        (sigma ** 2 / 16.0)
        * c
        * r
        * (c + r)
        * (2.0 * c + r + c * c / r)
    )


class TestMinimizeScalar:
    def test_parabola(self):
        x, fx = minimize_scalar(lambda x: (x - 2.0) ** 2, 1.0, 5.0, tol=1e-10)
        assert x == pytest.approx(2.0, rel=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-15)

    def test_positive_beta_criterion(self):
        x, _ = minimize_scalar(
            lambda c: log_h_general(c, 3, 1.0, 1.0), 1e-3, 10.0, tol=1e-8
        )
        assert x == pytest.approx(0.408248, abs=1e-4)
        assert x == pytest.approx(1.0 / math.sqrt(6.0), rel=1e-6)

    def test_monotone_returns_lower_endpoint(self):
        x, fx = minimize_scalar(lambda x: x, 1.0, 5.0)
        assert x == 1.0 and fx == 1.0

    def test_decreasing_returns_upper_region(self):
        x, _ = minimize_scalar(lambda x: -x, 1.0, 5.0)
        assert x == pytest.approx(5.0, rel=1e-6)

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            minimize_scalar(lambda x: math.nan, 1.0, 5.0)
        with pytest.raises(NumericError):
            minimize_scalar(lambda x: math.inf if x > 2 else x, 1.0, 5.0)

    def test_invalid_interval(self):
        with pytest.raises(SpecError):
            minimize_scalar(lambda x: x, 5.0, 1.0)

    def test_deterministic(self):
        f = lambda x: (math.log(x) - 0.7) ** 2 + 0.1
        assert minimize_scalar(f, 0.1, 50.0) == minimize_scalar(f, 0.1, 50.0)


class TestCriticalPointCase1:
    def test_lhs_strictly_increasing(self):
        cs = np.geomspace(1e-4, 1e4, 1000)
        vals = [_lhs_case1(float(c), 2, 1.0) for c in cs]
        assert all(vals[i + 1] > vals[i] for i in range(len(vals) - 1))

    def test_root_for_n2_sigma1(self):
        # the root is exactly 1: both factors combine to 4 c^4 there
        root = critical_point_case1(2, 1.0)
        assert root == pytest.approx(1.0, rel=1e-8)

    def test_root_for_n3_sigma1(self):
        assert critical_point_case1(3, 1.0) == pytest.approx(math.sqrt(1.5), rel=1e-8)

    def test_scaling_and_residual(self):
        r1 = critical_point_case1(2, 1.0)
        r4 = critical_point_case1(2, 4.0)
        assert r4 == pytest.approx(r1 / 2.0, rel=1e-7)
        assert abs(_lhs_case1(r4, 2, 4.0) - 4.0) < 1e-10 * 4.0

    def test_root_matches_criterion_minimizer(self):
        for n, sigma in [(2, 1.0), (3, 1.0), (2, 4.0)]:
            root = critical_point_case1(n, sigma, tol=1e-12)
            x, _ = minimize_scalar(
                lambda c: log_h_beta_neg1_multid(c, n, sigma), 1e-3, 1e3, tol=1e-10
            )
            assert x == pytest.approx(root, rel=1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_unique_sign_change(self, n, sigma):
        cs = np.geomspace(1e-4, 1e4, 1000)
        signs = np.sign([_lhs_case1(float(c), n, sigma) - n * n for c in cs])
        flips = np.sum(signs[1:] != signs[:-1])
        assert flips == 1

    def test_rejects_dimension_one(self):
        with pytest.raises(SpecError):
            critical_point_case1(1, 1.0)


def _practical(n, beta, sigma, delta=1e-300):
    spec = ProblemSpec(n=n, beta=beta, sigma=sigma, delta=delta)
    return optimal_c(spec, derive_constants(spec))


class TestCase3Start:
    """Practical mode returns the core's critical point
    (n-1-beta)/sqrt(2 n sigma) itself, with no search."""

    def test_examples(self):
        for n, beta, sigma in [(3, 1.0, 1.0), (3, 0.5, 2.0), (2, 0.5, 0.3)]:
            r = _practical(n, beta, sigma)
            assert r.c_star == (n - 1.0 - beta) / math.sqrt(2.0 * n * sigma)
            assert not r.clamped_lower and r.iterations == 0
        # 1 + beta - n >= 0: the core never descends, so c* = c_min
        spec = ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=1e-300)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert r.clamped_lower and r.c_star == dc.log_c_min.value

    def test_negative_beta_core(self):
        for n, beta, sigma in [
            (2, -1.0, 1.0), (3, -1.0, 4.0), (2, -0.5, 1.5), (3, -1.5, 0.3), (1, -2.0, 2.0)
        ]:
            r = _practical(n, beta, sigma)
            assert r.c_star == (n - 1.0 - beta) / math.sqrt(2.0 * n * sigma)
            assert not r.clamped_lower and r.iterations == 0


class TestOptimalC:
    def test_interior_minimum_positive_beta(self):
        spec = ProblemSpec(n=3, beta=1.0, sigma=1.0, delta=1e-208)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert r.c_star == pytest.approx(0.408248, abs=1e-4)
        assert not r.clamped_lower
        assert r.log_h_star == pytest.approx(
            log_h_general(r.c_star, 3, 1.0, 1.0), abs=1e-14
        )

    def test_clamped_when_curve_never_descends(self):
        spec = ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=0.01)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert r.clamped_lower
        assert r.c_star == dc.log_c_min.value

    def test_one_dimensional_matches_grid_oracle(self):
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=1e-5)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        kind = kind_for(spec)
        cs = np.geomspace(dc.log_c_min.value, 1e3, 100000)
        vals = [log_h_unified(float(c), spec, dc, kind) for c in cs]
        c_grid = float(cs[int(np.argmin(vals))])
        assert abs(r.c_star - c_grid) / c_grid < 1e-3
        assert r.c_star == pytest.approx(ONE_D_ARGMIN, rel=1e-6)

    def test_precondition_on_fill_distance(self):
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.2, b0=1.0)
        dc = derive_constants(spec)
        with pytest.raises(PreconditionError) as err:
            optimal_c(spec, dc)
        assert "0.125" in str(err.value)  # b0/(4 gamma_n (m+1)) = 1/8

    @pytest.mark.parametrize("mode", list(Mode))
    def test_fill_distance_at_the_boundary_is_admissible(self, mode):
        # delta = b0/(4 gamma_n (m+1)) = 1/8 puts c_min on the knee c0:
        # c_min alone is admissible, for the optimizer and the bound alike
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.125, b0=1.0, mode=mode)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert r.clamped_lower and r.c_star == dc.log_c_min.value
        assert math.isfinite(error_bound(spec, dc, r.c_star, 1.0))

    @pytest.mark.parametrize("mode", list(Mode))
    def test_fill_distance_past_the_boundary_is_refused(self, mode):
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.125 * (1.0 + 1e-11), b0=1.0, mode=mode)
        dc = derive_constants(spec)
        with pytest.raises(PreconditionError):
            optimal_c(spec, dc)
        for c in (dc.log_c_min.value, dc.log_c0.value):
            with pytest.raises(PreconditionError):
                error_bound(spec, dc, c, 1.0)

    def test_refusals_past_the_boundary_tell_delta_from_its_cap(self):
        # delta and its cap print in full, so a delta 1e-11 past the cap
        # does not read as equal to it
        delta = 0.125 * (1.0 + 1e-11)
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=delta, b0=1.0, mode=Mode.FIXED_B0)
        dc = derive_constants(spec)
        with pytest.raises(PreconditionError) as opt_err:
            optimal_c(spec, dc)
        with pytest.raises(PreconditionError) as bound_err:
            error_bound(spec, dc, dc.log_c0.value, 1.0)
        for message, cap_pattern in ((opt_err, r"\) = (\S+)$"), (bound_err, r"delta0=(\S+) ")):
            text = str(message.value)
            shown = float(re.search(r"delta=(\S+) ", text).group(1))
            cap = float(re.search(cap_pattern, text).group(1))
            assert shown == delta and 0.125 <= cap < shown

    def test_clamping_is_correct(self):
        for spec in [
            ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=0.01),
            ProblemSpec(n=2, beta=-1.0, sigma=1.0, delta=1e-22, b0=1.0, mode=Mode.FIXED_B0),
            ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.1, mode=Mode.DILATION_INVARIANT),
        ]:
            dc = derive_constants(spec)
            r = optimal_c(spec, dc)
            assert r.clamped_lower
            kind = kind_for(spec)
            assert log_h_unified(1.01 * r.c_star, spec, dc, kind) > log_h_unified(
                r.c_star, spec, dc, kind
            )

    def test_fixed_b0_interior_minimum_matches_grid_oracle(self):
        spec = ProblemSpec(
            n=2, beta=-1.0, sigma=1.0, delta=1e-26, b0=1.0, mode=Mode.FIXED_B0
        )
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert not r.clamped_lower
        kind = kind_for(spec)
        cs = np.geomspace(dc.log_c_min.value, 1e5, 10000)
        vals = [log_h_unified(float(c), spec, dc, kind) for c in cs]
        c_grid = float(cs[int(np.argmin(vals))])
        assert abs(r.c_star - c_grid) / c_grid < 5e-3
        # descent on the left of the minimum, ascent on the right
        assert log_h_unified(r.c_star / 3.0, spec, dc, kind) > r.log_h_star
        assert log_h_unified(r.c_star * 3.0, spec, dc, kind) > r.log_h_star

    def test_dilation_invariant_interior_minimum(self):
        spec = ProblemSpec(
            n=1, beta=-1.0, sigma=1.0, delta=1e-4, mode=Mode.DILATION_INVARIANT
        )
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert not r.clamped_lower
        assert r.c_star == pytest.approx(DI_ARGMIN, rel=1e-4)

    def test_cross_validation_with_critical_point(self):
        # both routes must land on the same interior minimizer
        for n, sigma in [(2, 1.0), (3, 1.0), (3, 2.0)]:
            spec = ProblemSpec(n=n, beta=-1.0, sigma=sigma, delta=1e-30)
            dc = derive_constants(spec)
            root = critical_point_case1(n, sigma, tol=1e-12)
            if root <= dc.log_c_min.value:
                continue
            r = optimal_c(spec, dc)
            assert r.c_star == pytest.approx(root, rel=1e-5)

    def test_deterministic(self):
        spec = ProblemSpec(n=3, beta=1.0, sigma=1.0, delta=1e-208)
        dc = derive_constants(spec)
        r1 = optimal_c(spec, dc)
        r2 = optimal_c(spec, dc)
        assert r1 == r2

    def test_unrepresentable_lower_endpoint(self):
        spec = ProblemSpec(n=4, beta=-1.0, sigma=1.0, delta=0.01)
        dc = derive_constants(spec)
        with pytest.raises(NumericError):
            optimal_c(spec, dc)

    def test_bracket_recorded(self):
        spec = ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=0.01)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert r.bracket[0] == dc.log_c_min.value
        assert r.bracket[1] > r.bracket[0]

    def test_general_regime_interior_minimum(self):
        # n=1, beta=-2 falls through to the general core with q = n+beta+1 = 0,
        # where log H = -log(c)/2 + sigma c^2/8 exactly, minimized at sqrt(2/sigma)
        for sigma in (1.0, 2.0):
            spec = ProblemSpec(n=1, beta=-2.0, sigma=sigma, delta=1e-8)
            dc = derive_constants(spec)
            kind = kind_for(spec)
            c = 0.83
            expected = -0.5 * math.log(c) + sigma * c * c / 8.0
            assert log_h_unified(c, spec, dc, kind) == pytest.approx(expected, rel=1e-13)
            r = optimal_c(spec, dc)
            assert not r.clamped_lower
            assert r.c_star == pytest.approx(math.sqrt(2.0 / sigma), rel=1e-7)

    def test_minimum_at_the_factor_knee(self):
        # with delta tuned so the factor's descent still dominates the
        # core's ascent just below c0, the minimum sits exactly on the kink
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=5e-6, b0=1.0, mode=Mode.FIXED_B0)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert not r.clamped_lower
        assert r.c_star == pytest.approx(dc.log_c0.value, rel=1e-7)
        kind = kind_for(spec)
        assert log_h_unified(0.99 * r.c_star, spec, dc, kind) > r.log_h_star
        assert log_h_unified(1.01 * r.c_star, spec, dc, kind) > r.log_h_star

    @pytest.mark.parametrize(
        "n, beta, delta",
        [(1, -1.0, 1e-150), (2, -1.0, 1e-150), (3, 1.0, 1e-208)],
    )
    def test_minimizer_scales_as_inverse_sqrt_sigma(self, n, beta, delta):
        # substituting c = t/sqrt(sigma) removes sigma from the criterion
        # up to an additive constant, so the minimizer scales exactly;
        # delta is small enough that the interior dip stays admissible
        results = {}
        for sigma in (1.0, 4.0):
            spec = ProblemSpec(n=n, beta=beta, sigma=sigma, delta=delta)
            result = optimal_c(spec, derive_constants(spec))
            assert not result.clamped_lower
            results[sigma] = result.c_star
        assert results[4.0] == pytest.approx(results[1.0] / 2.0, rel=1e-6)


class TestPracticalClosedForm:
    @pytest.mark.parametrize("sigma", [0.25, 1.0, 1.5, 4.0])
    def test_oned_optimum_is_the_derivative_root(self, sigma):
        # d(H^2)/dc changes sign from - to + at the returned c*
        r = _practical(1, -1.0, sigma)
        assert r.c_star == ONED_U_STAR / math.sqrt(sigma)
        assert case2_sq_derivative(r.c_star * (1.0 - 1e-9), sigma) < 0.0
        assert case2_sq_derivative(r.c_star * (1.0 + 1e-9), sigma) > 0.0

    @pytest.mark.parametrize("n, beta", [(1, -1.0), (3, 1.0), (1, 1.0)])
    def test_one_criterion_evaluation(self, n, beta, monkeypatch):
        calls = []

        def counted(c, *args):
            calls.append(c)
            return log_h_unified(c, *args)

        monkeypatch.setattr(optimizer, "log_h_unified", counted)
        r = _practical(n, beta, 1.0)
        assert calls == [r.c_star]

    @settings(deadline=None)
    @given(
        n=st.integers(1, 3),
        beta=st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 3.0, 5.0, 9.0]),
        log_sigma=st.floats(math.log(0.25), math.log(4.0)),
        log_c_min=st.floats(math.log(1e-60), math.log(20.0)),
        mode=st.sampled_from(list(Mode)),
    )
    def test_no_grid_point_beats_the_optimum(self, n, beta, log_sigma, log_c_min, mode):
        # c_min down to 1e-60 (delta down to ~1e-62) puts the minimizers of
        # the two modes with a factor up to ~1e60, far above the 1e3 of the
        # former search cap
        assume(abs(n + beta) >= 1.0 or (n, beta) == (1, -1.0))
        sigma = math.exp(log_sigma)
        unit = derive_constants(ProblemSpec(n=n, beta=beta, sigma=sigma, delta=1.0))
        delta = math.exp(log_c_min - 0.5 * log_sigma - unit.log_c_min.log_value)
        assume(delta < 1.0 / (4.0 * unit.gamma_n * (unit.m + 1)))
        spec = ProblemSpec(n=n, beta=beta, sigma=sigma, delta=delta, b0=1.0, mode=mode)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert r.bracket[0] <= r.c_star <= r.bracket[1]
        kind = kind_for(spec)
        at_star = log_h_unified(r.c_star, spec, dc, kind)
        grid_min = min(
            log_h_unified(float(c), spec, dc, kind) for c in np.geomspace(*r.bracket, 2000)
        )
        assert at_star <= grid_min + 1e-9
        # an interior minimizer is a local minimum to within rounding
        if r.c_star in (dc.log_c_min.value, dc.log_c0.value):
            return
        slack = 1e-13 * max(1.0, abs(at_star))
        for factor in (1.0 - 1e-6, 1.0 + 1e-6):
            assert log_h_unified(r.c_star * factor, spec, dc, kind) >= at_star - slack


class TestCandidateSet:
    """Minimizers that the former scan over [c_min, max(1e3, 10 c_min,
    10 c0)] missed, and the ways the candidate set can end."""

    @staticmethod
    def _dilation_invariant(n, beta, sigma, delta):
        spec = ProblemSpec(n=n, beta=beta, sigma=sigma, delta=delta, mode=Mode.DILATION_INVARIANT)
        dc = derive_constants(spec)
        return spec, dc, optimal_c(spec, dc)

    @pytest.mark.parametrize(
        "n, beta, sigma, delta, expected",
        [(2, 1.0, 0.493, 1.2e-40, 1.9185e17), (1, -1.0, 1.0, 1e-6, 1237.73)],
    )
    def test_minimizer_above_the_former_cap(self, n, beta, sigma, delta, expected):
        # the scan returned its cap c_hi = 1000 for both
        spec, dc, r = self._dilation_invariant(n, beta, sigma, delta)
        assert r.c_star == pytest.approx(expected, rel=1e-4)
        assert not r.clamped_lower
        assert _slope(r.c_star * (1.0 - 1e-12), spec, dc) < 0.0
        assert _slope(r.c_star * (1.0 + 1e-12), spec, dc) > 0.0
        kind = kind_for(spec)
        assert r.log_h_star < log_h_unified(1000.0, spec, dc, kind)

    @pytest.mark.parametrize(
        "mode, b0, expected",
        [(Mode.DILATION_INVARIANT, None, 2.6442), (Mode.FIXED_B0, 0.0042, 0.65742)],
    )
    def test_both_oned_minima_admissible(self, mode, b0, expected):
        # eta/sqrt(sigma) = 0.62 lies between D's dip (0.0574) and its peak
        # (0.6285), so log H - eta c has a local minimum on both stretches
        # where D rises, near 0.6574 and 2.6442.  The second is lower; with
        # the knee c0 = 0.688 between them, log H is flat beyond c0 and the
        # first wins.
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=4.99083e-4, b0=b0, mode=mode)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        kind = kind_for(spec)
        cs = np.geomspace(dc.log_c_min.value, 10.0, 20001)
        hs = np.array([log_h_unified(float(c), spec, dc, kind) for c in cs])
        assert r.c_star == pytest.approx(expected, rel=1e-4)
        assert r.log_h_star <= hs.min()
        if mode is Mode.DILATION_INVARIANT:
            dips = [i for i in range(1, len(cs) - 1) if hs[i] < hs[i - 1] and hs[i] < hs[i + 1]]
            assert [round(float(cs[i]), 3) for i in dips] == [0.657, 2.644]

    @pytest.mark.parametrize("mode", [Mode.FIXED_B0, Mode.DILATION_INVARIANT])
    def test_stationary_point_when_p_is_zero(self, mode):
        # beta = n - 1: the slope is xi*/2 - |eta|, zero at xi* = 2 |eta|,
        # c = 4 |eta|/sigma - q/(4 |eta|), just above c_min = 1.545 here
        spec = ProblemSpec(
            n=2, beta=1.0, sigma=0.5920283548667656, delta=5.4077048472113586e-24,
            b0=1.0, mode=mode,
        )
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        eta = -dc.eta
        assert r.c_star == pytest.approx(4.0 * eta / spec.sigma - 4.0 / (4.0 * eta), rel=1e-14)
        assert r.c_star > dc.log_c_min.value and not r.clamped_lower
        assert _slope(r.c_star * (1.0 - 1e-12), spec, dc) < 0.0
        assert _slope(r.c_star * (1.0 + 1e-12), spec, dc) > 0.0

    def test_minimizer_beyond_the_cap_is_refused(self):
        # the minimizer ~4|eta|/sigma ~ 1e200 lies past the cap ~ 8.9e153,
        # where the scan used to return c_hi = 1000 without a flag
        with pytest.raises(NumericError, match="cap"):
            self._dilation_invariant(1, 1.0, 1.0, 1e-200)

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "n, beta, delta",
        [(1, -1.0, 5e-6), (1, -1.0, 4.99083e-4), (2, 0.5, 1e-40), (3, 1.0, 1e-208), (1, 3.0, 1e-3)],
    )
    def test_at_most_six_criterion_evaluations(self, n, beta, delta, mode, monkeypatch):
        calls = []

        def counted(c, *args):
            calls.append(c)
            return log_h_unified(c, *args)

        monkeypatch.setattr(optimizer, "log_h_unified", counted)
        spec = ProblemSpec(n=n, beta=beta, sigma=1.0, delta=delta, b0=1.0, mode=mode)
        r = optimal_c(spec, derive_constants(spec))
        assert 1 <= len(calls) <= 6 and r.c_star in calls
        assert len(set(calls)) == len(calls)


def _oned_slope_root(c, sigma, rate, dps):
    """Root near c of d/dc log H - rate for beta = -1, n = 1: mpmath's
    numerical derivative of the criterion at ``dps`` digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        s = mp.mpf(sigma)

        def log_h(x):
            if x * x * s <= mp.mpf(4) / 3:
                m = mp.exp(1 - 1 / (x * x * s))
            else:
                xi = (x * s + mp.sqrt(x * x * s * s + 4 * s)) / 4
                m = mp.sqrt(x * xi) * mp.exp(x * xi - xi * xi / s)
            return -mp.log(x) / 2 + mp.log(1 / mp.log(2) + 2 * mp.sqrt(3) * m) / 2

        return mp.findroot(lambda x: mp.diff(log_h, x) - mp.mpf(rate), mp.mpf(c))


@pytest.mark.parametrize(
    "sigma, delta, mode, b0",
    [
        (2.0692677457729807, 2.7675017135892625e-05, Mode.FIXED_B0, 1.0),
        (1.7811108802498383, 0.00010754792342867031, Mode.FIXED_B0, 1.0),
        (0.489948542829548, 7.870442066873725e-05, Mode.FIXED_B0, 1.0),
        (1.0, 4.99083e-4, Mode.FIXED_B0, 0.0042),  # on the stretch below t_peak
        (3.6882614053069074, 0.0001091335608736552, Mode.DILATION_INVARIANT, 1.0),
        (2.590120159195776, 5.0643677848298883e-05, Mode.DILATION_INVARIANT, 1.0),
        (0.4656577999561114, 0.00024061964044947215, Mode.DILATION_INVARIANT, 1.0),
        (1.0, 4.99083e-4, Mode.DILATION_INVARIANT, 1.0),
    ],
)
def test_oned_interior_minimum_is_the_slope_root(sigma, delta, mode, b0):
    # c* solves slope = |eta| by bisection of the slope in doubles, so it
    # lies a few ulps from the exact root (at most 4.7 over 272 random
    # interior minima); the root is taken at two precisions that must agree
    spec = ProblemSpec(n=1, beta=-1.0, sigma=sigma, delta=delta, b0=b0, mode=mode)
    dc = derive_constants(spec)
    r = optimal_c(spec, dc)
    assert not r.clamped_lower and r.c_star != ONED_U_STAR / math.sqrt(sigma)
    root = _oned_slope_root(r.c_star, sigma, -dc.eta, 50)
    assert abs(root - _oned_slope_root(r.c_star, sigma, -dc.eta, 60)) < 1e-40 * root
    assert abs(root - r.c_star) <= 6.0 * math.ulp(r.c_star)


def test_cap_stays_finite_for_small_sigma():
    # 8e307 / sigma overflows for sigma < 0.445, and the uncapped interval
    # reached c ~ 1e205, where the criterion is not finite
    for mode in (Mode.PRACTICAL, Mode.FIXED_B0):
        spec = ProblemSpec(n=3, beta=1.0, sigma=0.3, delta=1e-200, b0=1.0, mode=mode)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        assert r.clamped_lower and r.c_star == dc.log_c_min.value
        assert r.c_star == pytest.approx(5.76e6, rel=1e-3)
        assert math.isfinite(r.log_h_star) and math.isfinite(r.bracket[1])


def test_multid_inverse_multiquadric_finite_up_to_the_cap():
    # the product form's c^2 + cR overflowed below the cap (c ~ 1.26e154)
    spec = ProblemSpec(n=3, beta=-1.0, sigma=0.5, delta=1e-200, b0=1.0, mode=Mode.FIXED_B0)
    dc = derive_constants(spec)
    r = optimal_c(spec, dc)
    assert r.clamped_lower and r.c_star == dc.log_c_min.value
    assert math.isfinite(r.log_h_star)


@pytest.mark.parametrize("delta", [1e-200, 1e-300])
@pytest.mark.parametrize("n, beta", [(1, 1.0), (1, 3.0), (2, 3.0), (2, 5.0)])
def test_knee_wins_when_the_factor_falls_steeply(n, beta, delta):
    # beta > n - 1 and a tiny delta: -eta c falls so steeply below the knee
    # c0 that log H is least there, with c_min ~ 1e-297 .. 1e-177
    spec = ProblemSpec(n=n, beta=beta, sigma=1.0, delta=delta, b0=1.0, mode=Mode.FIXED_B0)
    dc = derive_constants(spec)
    r = optimal_c(spec, dc)
    assert r.c_star == dc.log_c0.value and not r.clamped_lower
    assert math.isfinite(r.log_h_star)


@settings(deadline=None)
@given(
    n=st.integers(1, 3),
    beta=st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 3.0, 5.0, 9.0]),
    log_sigma=st.floats(math.log(0.25), math.log(4.0)),
    log_delta=st.floats(math.log(1e-300), 0.0),
    mode=st.sampled_from(list(Mode)),
)
def test_optimal_c_raises_only_library_errors(n, beta, log_sigma, log_delta, mode):
    # the grid oracle above cannot take delta this small: |log H| reaches
    # ~1e306, where its 1e-9 absolute slack is far below rounding
    assume(abs(n + beta) >= 1.0 or (n, beta) == (1, -1.0))
    spec = ProblemSpec(
        n=n, beta=beta, sigma=math.exp(log_sigma), delta=math.exp(log_delta), b0=1.0, mode=mode
    )
    try:
        r = optimal_c(spec, derive_constants(spec))
    except MqShapeError:
        return
    assert r.bracket[0] <= r.c_star <= r.bracket[1]
    assert math.isfinite(r.log_h_star)


# Results of optimal_c recorded, as hex floats, from the numpy scan
# (np.linspace points, np.argmin) with golden-section refinement that
# optimal_c once ran.  The minimizer is now exact: a closed form in
# practical mode, else the least of c_min, the slope's sign changes found
# by bisection to the last bit, and the knee.  Each row is checked against
# its own closed form or stationary point and against the recorded scan
# value within the scan's tolerance; the
# iterations and the scan's c_hi are a record of the scan only.  Every
# (n, beta) and mode; sigma = 1.5, b0 = 1, and delta puts c_min at
# 0.05 / sqrt(sigma) (interior optimum) or 20 / sqrt(sigma) (clamped).
# Columns: n, beta, mode, delta, c_star, log_h_star, clamped_lower,
# iterations, bracket.
OPTIMAL_C_PINS = [
    (1, -1.0, 'practical', '0x1.055a003125ea2p-15',
     '0x1.aff1b609022c9p-2', '0x1.5f77e3b4579f7p-1', False, 35, ('0x1.4e6fdf33cf02dp-5', '0x1.e2b7dddfefa67p+3')),
    (1, -1.0, 'practical', '0x1.985ca04ccb3e2p-7',
     '0x1.0547666079ba6p+4', '0x1.94659e0d49361p+5', True, 33, ('0x1.0547666079ba6p+4', '0x1.997c72b44c6b5p+10')),
    (1, -1.0, 'fixed-b0', '0x1.055a003125ea2p-15',
     '0x1.a7c21fda6ad46p+4', '-0x1.05f1bc1bda1c7p+7', False, 37, ('0x1.4e6fdf33cf02dp-5', '0x1.997c72b44c6b5p+10')),
    (1, -1.0, 'fixed-b0', '0x1.985ca04ccb3e2p-7',
     '0x1.0547666079ba6p+4', '0x1.9127398fb1430p+5', True, 33, ('0x1.0547666079ba6p+4', '0x1.997c72b44c6b5p+10')),
    (1, -1.0, 'dilation-invariant', '0x1.055a003125ea2p-15',
     '0x1.a7c21fda6ad46p+4', '-0x1.05f1bc1bda1c7p+7', False, 37, ('0x1.4e6fdf33cf02dp-5', '0x1.997c72b44c6b5p+10')),
    (1, -1.0, 'dilation-invariant', '0x1.985ca04ccb3e2p-7',
     '0x1.0547666079ba6p+4', '0x1.9127398fb1430p+5', True, 33, ('0x1.0547666079ba6p+4', '0x1.997c72b44c6b5p+10')),
    (2, -1.0, 'practical', '0x1.61ae427400041p-82',
     '0x1.a20bd668377aap-1', '0x1.62e42fefa39f2p-1', False, 35, ('0x1.4e6fdf33cf041p-5', '0x1.a20bd700c2c3fp+4')),
    (2, -1.0, 'practical', '0x1.145023eaa002dp-73',
     '0x1.0547666079baep+4', '0x1.92c8547c16e18p+5', True, 38, ('0x1.0547666079baep+4', '0x1.9373a9efb6e08p+74')),
    (2, -1.0, 'fixed-b0', '0x1.61ae427400041p-82',
     '0x1.a7c26b2cb4ed7p+4', '-0x1.06595a0f0dc51p+7', False, 40, ('0x1.4e6fdf33cf041p-5', '0x1.9373a9efb6e08p+74')),
    (2, -1.0, 'fixed-b0', '0x1.145023eaa002dp-73',
     '0x1.0547666079baep+4', '0x1.8f89effe7eee7p+5', True, 38, ('0x1.0547666079baep+4', '0x1.9373a9efb6e08p+74')),
    (2, -1.0, 'dilation-invariant', '0x1.61ae427400041p-82',
     '0x1.a7c26b2cb4ed7p+4', '-0x1.06595a0f0dc51p+7', False, 40, ('0x1.4e6fdf33cf041p-5', '0x1.9373a9efb6e08p+74')),
    (2, -1.0, 'dilation-invariant', '0x1.145023eaa002dp-73',
     '0x1.0547666079baep+4', '0x1.8f89effe7eee7p+5', True, 38, ('0x1.0547666079baep+4', '0x1.9373a9efb6e08p+74')),
    (3, -1.0, 'practical', '0x1.17724ab38f26ap-691',
     '0x1.ffffffc4f69aap-1', '0x1.0a2b23f3bab73p+0', False, 36, ('0x1.4e6fdf33cf06bp-5', '0x1.0000000000000p+5')),
    (3, -1.0, 'practical', '0x1.b4a294b88fa50p-683',
     '0x1.0547666079b8dp+4', '0x1.942e6432dada3p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (3, -1.0, 'fixed-b0', '0x1.17724ab38f26ap-691',
     '0x1.a7c2e7ef729b9p+4', '-0x1.0600536f42e5ep+7', False, 44, ('0x1.4e6fdf33cf06bp-5', '0x1.16e0528dc9b60p+511')),
    (3, -1.0, 'fixed-b0', '0x1.b4a294b88fa50p-683',
     '0x1.0547666079b8dp+4', '0x1.90efffb542e72p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (3, -1.0, 'dilation-invariant', '0x1.17724ab38f26ap-691',
     '0x1.a7c2e7ef729b9p+4', '-0x1.0600536f42e5ep+7', False, 44, ('0x1.4e6fdf33cf06bp-5', '0x1.16e0528dc9b60p+511')),
    (3, -1.0, 'dilation-invariant', '0x1.b4a294b88fa50p-683',
     '0x1.0547666079b8dp+4', '0x1.90efffb542e72p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (2, 0.5, 'practical', '0x1.61ae427400035p-83',
     '0x1.a20bd751fc728p-3', '0x1.0b375dce91e00p-10', False, 35, ('0x1.4e6fdf33cf041p-5', '0x1.a20bd700c2c3fp+2')),
    (2, 0.5, 'practical', '0x1.145023eaa0024p-74',
     '0x1.0547666079baep+4', '0x1.9ec64b2e76b5fp+5', True, 38, ('0x1.0547666079baep+4', '0x1.9373a9efb6e08p+74')),
    (2, 0.5, 'fixed-b0', '0x1.61ae427400035p-83',
     '0x1.a774b867f043cp+5', '-0x1.05ae27b7f5effp+9', False, 40, ('0x1.4e6fdf33cf041p-5', '0x1.9373a9efb6e08p+74')),
    (2, 0.5, 'fixed-b0', '0x1.145023eaa0024p-74',
     '0x1.0547666079baep+4', '0x1.9849823346cfep+5', True, 38, ('0x1.0547666079baep+4', '0x1.9373a9efb6e08p+74')),
    (2, 0.5, 'dilation-invariant', '0x1.61ae427400035p-83',
     '0x1.a774b867f043cp+5', '-0x1.05ae27b7f5effp+9', False, 40, ('0x1.4e6fdf33cf041p-5', '0x1.9373a9efb6e08p+74')),
    (2, 0.5, 'dilation-invariant', '0x1.145023eaa0024p-74',
     '0x1.0547666079baep+4', '0x1.9849823346cfep+5', True, 38, ('0x1.0547666079baep+4', '0x1.9373a9efb6e08p+74')),
    (3, 1.0, 'practical', '0x1.7498639a14354p-692',
     '0x1.5555557709909p-2', '0x1.203d7629c8166p-2', False, 35, ('0x1.4e6fdf33cf06bp-5', '0x1.5555555555555p+3')),
    (3, 1.0, 'practical', '0x1.23170dd05fc4bp-683',
     '0x1.0547666079b8dp+4', '0x1.a38766c0dfcd9p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (3, 1.0, 'fixed-b0', '0x1.7498639a14354p-692',
     '0x1.a75afa5fb53bfp+5', '-0x1.053ce9348fc70p+9', False, 44, ('0x1.4e6fdf33cf06bp-5', '0x1.16e0528dc9b60p+511')),
    (3, 1.0, 'fixed-b0', '0x1.23170dd05fc4bp-683',
     '0x1.0547666079b8dp+4', '0x1.9d0a9dc5afe78p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (3, 1.0, 'dilation-invariant', '0x1.7498639a14354p-692',
     '0x1.a75afa5fb53bfp+5', '-0x1.053ce9348fc70p+9', False, 44, ('0x1.4e6fdf33cf06bp-5', '0x1.16e0528dc9b60p+511')),
    (3, 1.0, 'dilation-invariant', '0x1.23170dd05fc4bp-683',
     '0x1.0547666079b8dp+4', '0x1.9d0a9dc5afe78p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (1, 1.0, 'practical', '0x1.055a003125eaap-16',
     '0x1.4e6fdf33cf037p-5', '-0x1.1bcfd399b2b09p+0', True, 35, ('0x1.4e6fdf33cf037p-5', '0x1.997c72b44c6b5p+10')),
    (1, 1.0, 'practical', '0x1.985ca04ccb3e2p-8',
     '0x1.0547666079ba6p+4', '0x1.a4a3e6ae16e9bp+5', True, 33, ('0x1.0547666079ba6p+4', '0x1.997c72b44c6b5p+10')),
    (1, 1.0, 'fixed-b0', '0x1.055a003125eaap-16',
     '0x1.a75ae1cb2402ap+5', '-0x1.052a8f66994a1p+9', False, 37, ('0x1.4e6fdf33cf037p-5', '0x1.997c72b44c6b5p+10')),
    (1, 1.0, 'fixed-b0', '0x1.985ca04ccb3e2p-8',
     '0x1.0547666079ba6p+4', '0x1.9e271db2e703ap+5', True, 33, ('0x1.0547666079ba6p+4', '0x1.997c72b44c6b5p+10')),
    (1, 1.0, 'dilation-invariant', '0x1.055a003125eaap-16',
     '0x1.a75ae1cb2402ap+5', '-0x1.052a8f66994a1p+9', False, 37, ('0x1.4e6fdf33cf037p-5', '0x1.997c72b44c6b5p+10')),
    (1, 1.0, 'dilation-invariant', '0x1.985ca04ccb3e2p-8',
     '0x1.0547666079ba6p+4', '0x1.9e271db2e703ap+5', True, 33, ('0x1.0547666079ba6p+4', '0x1.997c72b44c6b5p+10')),
    (3, 3.0, 'practical', '0x1.f0cb2f781af3fp-693',
     '0x1.4e6fdf33cf06bp-5', '-0x1.9808c11411e79p-1', True, 42, ('0x1.4e6fdf33cf06bp-5', '0x1.16e0528dc9b60p+511')),
    (3, 3.0, 'practical', '0x1.841ebd15d5080p-684',
     '0x1.0547666079b8dp+4', '0x1.b8c7e6a45c713p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (3, 3.0, 'fixed-b0', '0x1.f0cb2f781af3fp-693',
     '0x1.3d8cc58d6ba34p+6', '-0x1.25dca12f47913p+10', False, 44, ('0x1.4e6fdf33cf06bp-5', '0x1.16e0528dc9b60p+511')),
    (3, 3.0, 'fixed-b0', '0x1.841ebd15d5080p-684',
     '0x1.0547666079b8dp+4', '0x1.af0cb92b94982p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (3, 3.0, 'dilation-invariant', '0x1.f0cb2f781af3fp-693',
     '0x1.3d8cc58d6ba34p+6', '-0x1.25dca12f47913p+10', False, 44, ('0x1.4e6fdf33cf06bp-5', '0x1.16e0528dc9b60p+511')),
    (3, 3.0, 'dilation-invariant', '0x1.841ebd15d5080p-684',
     '0x1.0547666079b8dp+4', '0x1.af0cb92b94982p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (2, -0.5, 'practical', '0x1.61ae427400041p-82',
     '0x1.3988e131e39c7p-1', '0x1.7c22d79a73cfbp-3', False, 35, ('0x1.4e6fdf33cf041p-5', '0x1.3988e1409212fp+4')),
    (2, -0.5, 'practical', '0x1.145023eaa002dp-73',
     '0x1.0547666079baep+4', '0x1.9429c21044060p+5', True, 38, ('0x1.0547666079baep+4', '0x1.9373a9efb6e08p+74')),
    (2, -0.5, 'fixed-b0', '0x1.61ae427400041p-82',
     '0x1.a75b70022f75fp+4', '-0x1.05c360c81bbcap+7', False, 40, ('0x1.4e6fdf33cf041p-5', '0x1.9373a9efb6e08p+74')),
    (2, -0.5, 'fixed-b0', '0x1.145023eaa002dp-73',
     '0x1.0547666079baep+4', '0x1.90eb5d92ac12fp+5', True, 38, ('0x1.0547666079baep+4', '0x1.9373a9efb6e08p+74')),
    (2, -0.5, 'dilation-invariant', '0x1.61ae427400041p-82',
     '0x1.a75b70022f75fp+4', '-0x1.05c360c81bbcap+7', False, 40, ('0x1.4e6fdf33cf041p-5', '0x1.9373a9efb6e08p+74')),
    (2, -0.5, 'dilation-invariant', '0x1.145023eaa002dp-73',
     '0x1.0547666079baep+4', '0x1.90eb5d92ac12fp+5', True, 38, ('0x1.0547666079baep+4', '0x1.9373a9efb6e08p+74')),
    (3, -1.5, 'practical', '0x1.17724ab38f26ap-691',
     '0x1.2aaaaa81e30cfp+0', '0x1.f2c1dfbb5e613p-3', False, 36, ('0x1.4e6fdf33cf06bp-5', '0x1.2aaaaaaaaaaabp+5')),
    (3, -1.5, 'practical', '0x1.b4a294b88fa50p-683',
     '0x1.0547666079b8dp+4', '0x1.88fdb9f1f00a9p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (3, -1.5, 'fixed-b0', '0x1.17724ab38f26ap-691',
     '0x1.a829a33c7c3ffp+4', '-0x1.090a2ea63e631p+7', False, 44, ('0x1.4e6fdf33cf06bp-5', '0x1.16e0528dc9b60p+511')),
    (3, -1.5, 'fixed-b0', '0x1.b4a294b88fa50p-683',
     '0x1.0547666079b8dp+4', '0x1.85bf557458178p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
    (3, -1.5, 'dilation-invariant', '0x1.17724ab38f26ap-691',
     '0x1.a829a33c7c3ffp+4', '-0x1.090a2ea63e631p+7', False, 44, ('0x1.4e6fdf33cf06bp-5', '0x1.16e0528dc9b60p+511')),
    (3, -1.5, 'dilation-invariant', '0x1.b4a294b88fa50p-683',
     '0x1.0547666079b8dp+4', '0x1.85bf557458178p+5', True, 42, ('0x1.0547666079b8dp+4', '0x1.16e0528dc9b60p+511')),
]


# c_min does not depend on the mode, so every row takes the lower end of
# its bracket from the fixed-b0 row at the same (n, beta, delta).
_SCAN_BRACKETS = {
    (n, beta, delta): bracket
    for n, beta, mode, delta, *_, bracket in OPTIMAL_C_PINS
    if mode == "fixed-b0"
}


def _slope(c, spec, dc):
    """d/dc log H below the factor's knee, from the envelope theorem:
    -p/(4c) + xi*/2 for the core, and -1/(2c) + w (log M)'/2 in 1-D with w
    the weight of the M term; the factor adds -|eta|."""
    sigma = spec.sigma
    if spec.n == 1 and spec.beta == -1.0:
        if c * c * sigma <= 4.0 / 3.0:
            log_m = 1.0 - 1.0 / (c * c * sigma)
            d_log_m = 2.0 / (c ** 3 * sigma)
        else:
            xs = _xi_star(c, sigma, 1.0)
            log_m = 0.5 * math.log(c * xs) + c * xs - xs * xs / sigma
            d_log_m = 0.5 / c + xs
        z = -math.log(2.0 * math.sqrt(3.0) * math.log(2.0)) - log_m
        w = 1.0 / (1.0 + math.exp(min(z, 700.0)))
        core = -0.5 / c + 0.5 * w * d_log_m
    else:
        p, q = spec.n - 1.0 - spec.beta, spec.n + spec.beta + 1.0
        core = -p / (4.0 * c) + 0.5 * _xi_star(c, sigma, q)
    return core if spec.mode is Mode.PRACTICAL else core + dc.eta


@pytest.mark.parametrize(
    "n, beta, mode, delta, c_star, log_h_star, clamped, iterations, bracket",
    OPTIMAL_C_PINS,
)
def test_optimal_c_bitwise_pinned(
    n, beta, mode, delta, c_star, log_h_star, clamped, iterations, bracket
):
    spec = ProblemSpec(
        n=n, beta=beta, sigma=1.5, delta=float.fromhex(delta), b0=1.0, mode=Mode(mode)
    )
    dc = derive_constants(spec)
    result = optimal_c(spec, dc)
    # beta=-1, n>=2 was recorded with the product form, which is the core
    # plus the constant (n/4) log(4/sigma)
    pinned = float.fromhex(log_h_star)
    offset = 0.25 * n * math.log(4.0 / 1.5) if beta == -1.0 and n >= 2 else 0.0
    log_h_tol = 1e-15 * max(1.0, abs(pinned))
    if mode == "practical":
        # closed form max(c_min, critical point) in place of the recorded
        # scan; the bracket is the whole capped interval, as in the other modes
        if n == 1 and beta == -1.0:
            start = ONED_U_STAR / math.sqrt(1.5)
        else:
            p = n - 1.0 - beta
            start = p / math.sqrt(2.0 * n * 1.5) if p > 0.0 else 0.0
        assert result.c_star == max(dc.log_c_min.value, start)
        assert result.c_star == pytest.approx(float.fromhex(c_star), rel=5e-8)
        assert abs(result.log_h_star - (pinned - offset)) <= log_h_tol
    elif clamped:
        assert result.c_star == dc.log_c_min.value
        if offset:
            assert abs(result.log_h_star - (pinned - offset)) <= log_h_tol
        else:
            assert result.log_h_star.hex() == log_h_star
    else:
        # a stationary point below the knee, to the last few bits, and the
        # scan's estimate of it within the scan's tolerance; log H is flat
        # there, so the two values differ only by rounding
        assert result.c_star < dc.log_c0.value
        assert _slope(result.c_star * (1.0 - 1e-12), spec, dc) < 0.0
        assert _slope(result.c_star * (1.0 + 1e-12), spec, dc) > 0.0
        assert result.c_star == pytest.approx(float.fromhex(c_star), rel=5e-8)
        assert abs(result.log_h_star - (pinned - offset)) <= 2.0 * log_h_tol
    assert result.clamped_lower is clamped
    assert result.iterations == 0
    assert result.bracket == (
        float.fromhex(_SCAN_BRACKETS[n, beta, delta][0]), finite_cap(spec, dc)
    )


MINIMIZE_SCALAR_PINS = {
    # name: (f, lo, hi, x, f(x)) with x and f(x) recorded, as hex floats,
    # from the numpy scan
    "log_parabola": (lambda x: (math.log(x) - 1.0) ** 2, 0.01, 100.0,
        '0x1.5bf0a8a1ce455p+1', '0x1.02f602034fd20p-57'),
    "increasing": (lambda x: x, 0.5, 8.0,
        '0x1.0000000000000p-1', '0x1.0000000000000p-1'),
    "decreasing": (lambda x: -x, 0.5, 8.0,
        '0x1.ffffffd931a1ap+2', '-0x1.ffffffd931a1ap+2'),
    "constant": (lambda x: 3.0, 0.1, 10.0,
        '0x1.999999999999ap-4', '0x1.8000000000000p+1'),
    "quartic_off_grid": (lambda x: (x - 2.345) ** 4 + 0.1 * x, 1e-3, 1e3,
        '0x1.06bb89e59ae48p+1', '0x1.b357d495c87a0p-3'),
}


@pytest.mark.parametrize("name", sorted(MINIMIZE_SCALAR_PINS))
def test_minimize_scalar_bitwise_pinned(name):
    f, lo, hi, x, fx = MINIMIZE_SCALAR_PINS[name]
    got_x, got_fx = minimize_scalar(f, lo, hi)
    assert (got_x.hex(), got_fx.hex()) == (x, fx)


def test_scan_points_are_linspace_bitwise():
    # the 64 scan probes are exp of np.linspace over [log lo, log hi], to the bit
    rng = np.random.default_rng(64)
    for _ in range(300):
        # ranges straddling c = 1 often round log lo + 63 * step off log hi
        lo = math.exp(rng.uniform(-30.0, 10.0))
        hi = lo * math.exp(rng.uniform(1e-6, 40.0))
        probes = []

        def f(c):
            probes.append(c)
            return (math.log(c) - math.log(lo)) ** 2

        minimize_scalar(f, lo, hi)
        us = np.linspace(math.log(lo), math.log(hi), 64)
        assert probes[:64] == [math.exp(u) for u in us]


class TestCurveRange:
    """``optimizer.curve_range``: the range ``mqshape criterion`` and demo 02 draw."""

    @pytest.mark.parametrize(
        "delta, hi",
        [(0.1, 131035.56007954622), (0.01, 13103.55600795462),
         (1e-3, 1637.9445009943277), (1e-5, 1637.9445009943277)],
    )
    def test_default_range_of_the_one_dimensional_demo_curves(self, delta, hi):
        # demo 02's fixed-b0 curves: 1e3 c_min at coarse fills, 10 c0 at fine ones
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=delta, b0=1.0, mode=Mode.FIXED_B0)
        dc = derive_constants(spec)
        assert optimizer.curve_range(spec, dc) == (
            dc.log_c_min.value, pytest.approx(hi, rel=1e-12)
        )

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize(
        "n, beta, sigma, delta",
        [(1, -1.0, 1.0, 1e-4), (2, -1.0, 1.0, 1e-22), (1, 1.0, 1.0, 1e-5),
         (3, 1.0, 0.3, 1e-200), (1, 1.0, 1.0, 1e-200), (1, -1.0, 16.0, 1e-3)],
    )
    def test_default_end_shows_c_star_and_the_knee_below_the_cap(
        self, n, beta, sigma, delta, mode
    ):
        spec = ProblemSpec(n=n, beta=beta, sigma=sigma, delta=delta, b0=1.0, mode=mode)
        dc = derive_constants(spec)
        lo, hi = optimizer.curve_range(spec, dc)
        cap = finite_cap(spec, dc)
        assert lo == dc.log_c_min.value < hi <= cap
        assert math.isfinite(log_h_unified(hi, spec, dc))
        try:
            wanted = [1e3 * max(1.0, lo), 10.0 * optimal_c(spec, dc).c_star]
        except NumericError:  # still falling at the cap: the range ends there
            wanted = [cap]
        if mode is Mode.FIXED_B0:
            wanted.append(10.0 * dc.log_c0.value)
        assert hi == min(max(wanted), cap)

    def test_given_ends_are_kept(self):
        spec = ProblemSpec(n=2, beta=1.0, sigma=1.0, delta=1e-3)
        dc = derive_constants(spec)
        assert optimizer.curve_range(spec, dc, 0.5, 2.0) == (0.5, 2.0)
        assert optimizer.curve_range(spec, dc, c_lo=0.5) == (
            0.5, 10.0 * optimal_c(spec, dc).c_star
        )

    def test_refusals(self):
        spec = ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=1e-3, mode=Mode.DILATION_INVARIANT)
        dc = derive_constants(spec)
        cap = finite_cap(spec, dc)
        with pytest.raises(NumericError, match="range start"):
            optimizer.curve_range(spec, dc, c_lo=cap)
        with pytest.raises(NumericError, match="range end"):
            optimizer.curve_range(spec, dc, c_hi=2.0 * cap)
        # a spec no criterion covers is refused before the range is looked at
        bad = ProblemSpec(n=1, beta=-0.5, sigma=1.0, delta=1e-3)
        with pytest.raises(SpecError, match="no criterion"):
            optimizer.curve_range(bad, derive_constants(bad), c_lo=1e300)
