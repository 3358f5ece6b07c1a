import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from mqshape import (
    GaussianBump,
    InputError,
    Mode,
    NodeSet,
    NumericError,
    PreconditionError,
    ProblemSpec,
    SpecError,
    derive_constants,
    e_sigma_norm,
    error_bound,
    fill_distance,
    log_h_unified,
    log_lambda_pow,
    optimal_c,
    run_bound_experiment,
    uniform_grid,
)
from mqshape.criterion import finite_cap
from mqshape.rbf import Kernel, evaluate, fit


def quad_norm_1d(a, sigma, amplitude=1.0):
    # directly integrate |fhat|^2 e^{xi^2/sigma}; exponents combined to
    # keep the integrand representable
    val, _ = quad(
        lambda xi: (math.pi / a) * math.exp(-xi * xi / (2.0 * a) + xi * xi / sigma),
        -40.0,
        40.0,
        epsabs=1e-13,
        epsrel=1e-13,
    )
    return amplitude * math.sqrt(val)


class TestNorm:
    def test_divergent_norm_rejected(self):
        with pytest.raises(PreconditionError):
            e_sigma_norm(GaussianBump(a=0.5, n=1), 1.0)
        with pytest.raises(PreconditionError):
            e_sigma_norm(GaussianBump(a=0.5, n=1), 0.9)

    def test_closed_form_matches_quadrature(self):
        closed = e_sigma_norm(GaussianBump(a=0.25, n=1), 1.0)
        assert closed == pytest.approx(quad_norm_1d(0.25, 1.0), rel=1e-8)

    def test_closed_form_matches_quadrature_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = float(rng.uniform(0.1, 1.2))
            sigma = float(2.0 * a * rng.uniform(1.2, 4.0))
            closed = e_sigma_norm(GaussianBump(a=a, n=1), sigma)
            assert closed == pytest.approx(quad_norm_1d(a, sigma), rel=1e-8)

    def test_two_dimensional_closed_form(self):
        # polar-coordinates oracle: 2 pi int r |fhat|^2 e^{r^2/sigma} dr
        a, sigma = 0.3, 1.5
        val, _ = quad(
            lambda r: 2.0
            * math.pi
            * r
            * (math.pi / a) ** 2
            * math.exp(-r * r / (2.0 * a) + r * r / sigma),
            0.0,
            40.0,
            epsabs=1e-13,
        )
        closed = e_sigma_norm(GaussianBump(a=a, n=2), sigma)
        assert closed == pytest.approx(math.sqrt(val), rel=1e-8)

    def test_norm_homogeneity(self):
        base = e_sigma_norm(GaussianBump(a=0.25, n=1), 1.0)
        scaled = e_sigma_norm(GaussianBump(a=0.25, n=1, amplitude=3.0), 1.0)
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_translation_does_not_change_norm(self):
        assert e_sigma_norm(GaussianBump(a=0.25, n=1, center=(4.0,)), 1.0) == e_sigma_norm(
            GaussianBump(a=0.25, n=1), 1.0
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: GaussianBump(a=0.25, n=1, amplitude=math.nan),
            lambda: GaussianBump(a=0.25, n=1, amplitude=math.inf),
            lambda: GaussianBump(a=0.25, n=1, amplitude=-math.inf),
            lambda: GaussianBump(a=math.inf, n=1),
            lambda: GaussianBump(a=math.nan, n=1),
            lambda: GaussianBump(a=0.25, n=1.5),
            lambda: GaussianBump(a=0.25, n=0),
            lambda: GaussianBump(a=0.25, n=2, center=(0.5, math.nan)),
            lambda: e_sigma_norm(GaussianBump(a=0.25, n=1), math.nan),
            lambda: e_sigma_norm(GaussianBump(a=0.25, n=1), math.inf),
        ],
        ids=["amplitude-nan", "amplitude-inf", "amplitude-minus-inf", "a-inf", "a-nan",
             "n-fraction", "n-zero", "center-nan", "norm-sigma-nan", "norm-sigma-inf"],
    )
    def test_non_finite_or_fractional_parameters_rejected(self, make):
        with pytest.raises(SpecError):
            make()

    @pytest.mark.parametrize(
        "fields",
        [dict(amplitude="1"), dict(amplitude=None), dict(amplitude=1j), dict(center=("0.5",)),
         dict(center=(None,)), dict(center=(np.complex128(0.5),)), dict(center="5")],
        ids=["amplitude-str", "amplitude-none", "amplitude-complex", "center-str",
             "center-none", "center-complex", "center-one-str"],
    )
    def test_bump_refuses_values_that_are_not_real_numbers(self, fields):
        # a string amplitude or center coordinate raised TypeError
        with pytest.raises(SpecError, match="amplitude|center"):
            GaussianBump(a=0.25, n=1, **fields)

    @pytest.mark.parametrize("center", [0.5, np.float64(0.5), np.array(0.5)], ids=["float", "numpy-float", "0-d"])
    def test_bump_center_that_is_not_a_sequence_is_refused(self, center):
        # len(center) raised TypeError
        with pytest.raises(SpecError, match="center"):
            GaussianBump(a=1.0, n=1, center=center)

    def test_bump_stores_numeric_inputs_as_floats_with_their_bits(self):
        f = GaussianBump(a=0.25, n=2, amplitude=np.float32(0.3), center=(1, np.float64(0.1)))
        assert type(f.amplitude) is float and f.amplitude == float(np.float32(0.3))
        assert f.center == (1.0, 0.1) and all(type(v) is float for v in f.center)
        for a in (True, 1, np.float32(0.25)):
            bump = GaussianBump(a=a, n=1)
            assert type(bump.a) is float and bump.a == float(a)

    def test_bump_rejects_wrong_point_dimension(self):
        f = GaussianBump(a=0.25, n=1)
        with pytest.raises(InputError):
            f(np.array([0.1, 0.2, 0.3]))  # ambiguous flat vector for n=1
        assert isinstance(f(0.5), float)
        assert f(np.array([[0.1], [0.2]])).shape == (2,)

    def test_bump_and_interpolant_share_the_point_rule(self):
        # one point, a scalar in 1-D or an n-vector, is a float; any other
        # shape than (n,) or (k, n) is refused with one message (a (k, 2, 2)
        # array read as a batch: evaluate raised ValueError, the bump
        # returned a (k, 2) array)
        nodes = uniform_grid(np.zeros(2), 1.0, 3, 2)
        interp = fit(Kernel(c=1.0, beta=-1.0, n=2), nodes, np.zeros(9))
        f = GaussianBump(a=0.25, n=2)
        calls = (f, lambda x: evaluate(interp, x))
        for x in (0.5, np.zeros(3), np.zeros((4, 1)), np.zeros((4, 2, 2))):
            messages = set()
            for call in calls:
                with pytest.raises(InputError) as caught:
                    call(x)
                messages.add(str(caught.value))
            assert len(messages) == 1
        assert all(isinstance(call(np.full(2, 0.5)), float) for call in calls)


class TestFillDistance:
    def test_single_center_node(self):
        nodes = NodeSet(points=np.array([[1.0]]), cube=(np.zeros(1), 2.0))
        assert fill_distance(nodes.cube, nodes, 101) == pytest.approx(1.0, rel=1e-12)

    def test_uniform_spacing(self):
        nodes = uniform_grid(np.zeros(1), 1.0, 11, 1)
        fd = fill_distance(nodes.cube, nodes, 4001)
        assert fd == pytest.approx(0.05, rel=1e-2)

    def test_2d_grid_self_consistency(self):
        rng = np.random.default_rng(22)
        pts = rng.uniform(0.0, 1.0, (30, 2))
        nodes = NodeSet(points=pts, cube=(np.zeros(2), 1.0))
        coarse = fill_distance(nodes.cube, nodes, 400)
        fine = fill_distance(nodes.cube, nodes, 800)
        assert abs(coarse - fine) / fine < 0.02
        assert coarse <= fine * (1.0 + 1e-12)  # refinement approaches from below

    def test_input_validation(self):
        nodes = uniform_grid(np.zeros(1), 1.0, 3, 1)
        with pytest.raises(InputError):
            fill_distance(nodes.cube, nodes, 1)
        with pytest.raises(InputError):
            fill_distance(nodes.cube, np.zeros((0, 1)), 10)
        # a grid size that is not an integer, even an integral float
        for size in (2.5, 3.0, np.float64(3.0)):
            with pytest.raises(InputError, match="integer"):
                fill_distance(nodes.cube, nodes, size)
        # NodeSet's cube rule: a positive finite side and a finite corner
        bad_cubes = [
            (np.zeros(1), -1.0),
            (np.zeros(1), math.nan),
            (np.zeros(1), math.inf),
            (np.array([math.nan]), 1.0),
        ]
        for cube in bad_cubes:
            with pytest.raises(InputError, match="cube"):
                fill_distance(cube, nodes, 11)
        # raw arrays, and nodes outside the cube, are still measured
        assert fill_distance((np.zeros(1), 1.0), np.array([[2.0]]), 11) == 2.0

    def test_one_function_beside_the_node_set(self):
        # rbf owns the scan; verify and the package name the same function
        import mqshape
        import mqshape.rbf
        import mqshape.verify

        assert mqshape.verify.fill_distance is mqshape.rbf.fill_distance
        assert mqshape.fill_distance is mqshape.rbf.fill_distance
        assert mqshape.rbf.fill_distance.__module__ == "mqshape.rbf"

    def test_experiment_measures_through_the_verify_binding(self, monkeypatch):
        # code that wraps verify.fill_distance, as the traced benchmark
        # pass does, sees every measurement of an experiment
        import mqshape.verify

        calls = []
        real = mqshape.verify.fill_distance

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(mqshape.verify, "fill_distance", counted)
        nodes = uniform_grid(np.zeros(1), 1.0, 11, 1)
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.05, b0=1.0)
        f = GaussianBump(a=0.25, n=1, center=(0.5,))
        c = 24.0 * math.exp(4.0) * 0.05 * 1.2
        rep = run_bound_experiment(spec, f, nodes, c, eval_grid=101, grid_per_side=201)
        assert calls == [201]
        assert rep.delta_measured == real(nodes.cube, nodes, 201)


def kdtree_fill_distance(cube, pts, grid_per_side):
    """Oracle: the same grid, nearest nodes from a KD-tree."""
    from scipy.spatial import cKDTree

    corner = np.asarray(cube[0], dtype=float).reshape(-1)
    axes = [np.linspace(x, x + cube[1], grid_per_side) for x in corner]
    grid = np.column_stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")])
    return float(cKDTree(pts).query(grid)[0].max())


class TestFillDistanceOracle:
    @pytest.mark.parametrize(
        "n, count, grid_per_side, corner, side",
        [
            (1, 17, 1001, 0.0, 1.0),  # random 1-D
            (2, 40, 120, 0.0, 1.0),  # random 2-D
            (2, 25, 90, 1e4, 2.5),  # cube far from the origin
            (1, 300, 2001, -3.0, 7.0),  # ten row blocks
            (2, 200, 150, 0.0, 1.0),  # ~70 row blocks
        ],
    )
    def test_matches_kdtree(self, n, count, grid_per_side, corner, side):
        rng = np.random.default_rng(1000 * n + count)
        pts = corner + side * rng.uniform(0.0, 1.0, (count, n))
        nodes = NodeSet(points=pts, cube=(np.full(n, corner), side))
        expected = kdtree_fill_distance(nodes.cube, pts, grid_per_side)
        got = fill_distance(nodes.cube, nodes, grid_per_side)
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)
        # a raw coordinate array gives the same answer as the NodeSet
        assert fill_distance(nodes.cube, pts, grid_per_side) == got

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InputError):
            fill_distance((np.zeros(2), 1.0), np.zeros((3, 1)), 10)

    def test_rejects_non_finite_nodes(self):
        # a raw array is not checked by NodeSet; a NaN node must not be
        # skipped by the pruned scan and yield a finite answer
        for bad in (math.nan, math.inf):
            with pytest.raises(InputError):
                fill_distance((np.zeros(1), 1.0), np.array([[0.5], [bad]]), 11)

    @pytest.mark.parametrize("n, grid_per_side", [(1, 4001), (2, 160)])
    def test_clustered_nodes_match_kdtree(self, n, grid_per_side):
        # bands at both ends of axis 0 and a small cluster between them,
        # with wide empty gaps: the nearest-node distance jumps between row
        # blocks, and a block scanned only with the radius carried over
        # from the previous one would miss nearer nodes
        rng = np.random.default_rng(1)

        def box(lo0, hi0, hi_rest, count):
            lo, hi = np.zeros(n), np.full(n, hi_rest)
            lo[0], hi[0] = lo0, hi0
            return rng.uniform(lo, hi, (count, n))

        pts = np.concatenate(
            [box(0.0, 0.1, 1.0, 40), box(0.45, 0.5, 0.05, 10), box(0.9, 1.0, 1.0, 40)]
        )
        nodes = NodeSet(points=pts, cube=(np.zeros(n), 1.0))
        expected = kdtree_fill_distance(nodes.cube, pts, grid_per_side)
        got = fill_distance(nodes.cube, nodes, grid_per_side)
        assert got == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestErrorBound:
    def test_exponent_composition(self):
        # beta/2 + (1-n-beta)/4 == (1+beta-n)/4 for all (n, beta)
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            beta = float(rng.uniform(-2.0, 4.0))
            assert beta / 2.0 + (1.0 - n - beta) / 4.0 == pytest.approx(
                (1.0 + beta - n) / 4.0, abs=1e-15
            )

    def test_convergence_factor_formula(self):
        # n=1, beta=-1, b0=1, delta=0.01, c=13.2:
        # log lambda^(1/delta) = (100/(12 C)) log(2/3), C = 2 e^4 / c
        # the factor the bound takes, that of the fixed-b0 mode
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.01, b0=1.0, mode=Mode.FIXED_B0)
        dc = derive_constants(spec)
        c = 13.2
        big_c = 2.0 * math.exp(4.0) / c
        expected = (100.0 / (12.0 * big_c)) * math.log(2.0 / 3.0)
        assert log_lambda_pow(c, spec, dc) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_function_norm(self):
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.01, b0=1.0)
        dc = derive_constants(spec)
        b1 = error_bound(spec, dc, 14.0, 1.0)
        b2 = error_bound(spec, dc, 14.0, 2.0)
        assert b2 - b1 == pytest.approx(math.log(2.0), rel=1e-12)

    def test_nan_function_norm_rejected(self):
        # NaN passed the f_norm < 0 check and then read as a zero norm,
        # a bound of -inf that claimed a zero error
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.01, b0=1.0)
        dc = derive_constants(spec)
        with pytest.raises(SpecError):
            error_bound(spec, dc, 14.0, math.nan)
        assert error_bound(spec, dc, 14.0, 0.0) == -math.inf

    @pytest.mark.parametrize("c", [0.0, -1.0, math.nan, math.inf])
    def test_one_shape_parameter_rule(self, c):
        # the kernel, the fill cap, the bound and the criterion refuse the
        # same shape parameters with the same message
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.01, b0=1.0)
        dc = derive_constants(spec)
        calls = [
            lambda: Kernel(c=c, beta=-1.0, n=1),
            lambda: dc.log_fill_cap(c),
            lambda: error_bound(spec, dc, c, 1.0),
            lambda: log_h_unified(c, spec, dc),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(SpecError) as caught:
                call()
            messages.add(str(caught.value))
        assert messages == {f"shape parameter c must be a positive finite real, got {c}"}

    def test_fill_cap_precondition(self):
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.05, b0=1.0)
        dc = derive_constants(spec)
        with pytest.raises(PreconditionError) as err:
            error_bound(spec, dc, 1.0, 1.0)  # cap at c=1 is ~7.6e-4
        assert "delta0" in str(err.value)

    @settings(deadline=None, max_examples=200)
    @given(
        problem=st.sampled_from([(1, -1.0), (2, -1.0), (1, 1.0), (2, 1.5), (3, -0.5), (2, -3.0)]),
        mode=st.sampled_from(list(Mode)),
        sigma=st.floats(0.1, 10.0),
        log_c_min=st.floats(-5.0, 50.0),
        log_knee=st.one_of(st.none(), st.floats(0.01, 30.0)),
        log_c=st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 40.0)),
    )
    def test_c_dependence_is_the_criterion(self, problem, mode, sigma, log_c_min, log_knee, log_c):
        # the paper's premise: the bound is H(c) lambda^(1/delta) times
        # constants, so minimizing the criterion minimizes the bound.
        # The bound takes the fixed-b0 factor when b0 is set, whatever the
        # mode, with its knee at c0 = c_min e^log_knee
        n, beta = problem
        unit = derive_constants(ProblemSpec(n=n, beta=beta, sigma=sigma, delta=1.0))
        delta = math.exp(log_c_min - unit.log_c_min.log_value)
        assume(log_knee is not None or mode is not Mode.FIXED_B0)
        b0 = None
        if log_knee is not None:
            b0 = 4.0 * unit.gamma_n * (unit.m + 1) * delta * math.exp(log_knee)
        spec = ProblemSpec(n=n, beta=beta, sigma=sigma, delta=delta, b0=b0, mode=mode)
        bound_spec = spec.replace(mode=Mode.DILATION_INVARIANT if b0 is None else Mode.FIXED_B0)
        dc = derive_constants(spec)
        rests, terms = [], [1.0]
        for u in log_c:
            c = math.exp(dc.log_c_min.log_value + u)
            log_bound = error_bound(spec, dc, c, 1.0)
            rests.append(log_bound - log_h_unified(c, bound_spec, dc))
            core = log_h_unified(c, spec.replace(mode=Mode.PRACTICAL), dc)
            terms += [log_bound, core, log_lambda_pow(c, bound_spec, dc)]
        assert abs(rests[0] - rests[1]) <= 1e-12 * max(abs(t) for t in terms)

    def test_past_the_finite_cap_raises(self):
        # past finite_cap, c xi* and xi*^2 / sigma overflow and the
        # criterion is nan; the bound names the cap instead, and is
        # finite at the cap itself
        spec = ProblemSpec(
            n=3, beta=-0.5, sigma=16.8, delta=4.8e-56, mode=Mode.DILATION_INVARIANT
        )
        dc = derive_constants(spec)
        cap = finite_cap(spec, dc)
        assert math.isnan(log_h_unified(6.2e160, spec, dc))
        with pytest.raises(NumericError, match=re.escape(f"{cap:g}")):
            error_bound(spec, dc, 6.2e160, 1.0)
        assert math.isfinite(error_bound(spec, dc, cap, 1.0))

    def test_positive_beta_bound_finite(self):
        spec = ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=0.01, b0=1.0)
        dc = derive_constants(spec)
        c = dc.log_c_min.value
        assert math.isfinite(error_bound(spec, dc, c, 2.0))


class TestExperiments:
    def test_zero_function(self):
        nodes = uniform_grid(np.zeros(1), 1.0, 9, 1)
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.0625, b0=1.0)
        f = GaussianBump(a=0.25, n=1, amplitude=0.0, center=(0.5,))
        c = 24.0 * math.exp(4.0) * 0.0625 * 1.5
        rep = run_bound_experiment(spec, f, nodes, c, eval_grid=301)
        assert rep.max_error_measured == 0.0
        assert rep.satisfied

    def test_end_to_end_bound_holds_at_recommended_c(self):
        nodes = uniform_grid(np.zeros(1), 1.0, 11, 1)
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.05, b0=1.0)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        f = GaussianBump(a=0.25, n=1, center=(0.5,))
        rep = run_bound_experiment(spec, f, nodes, r.c_star, eval_grid=801)
        assert rep.satisfied
        assert rep.delta_measured == pytest.approx(0.05, rel=1e-6)
        assert rep.max_error_measured < 1.0  # loose bound, sane interpolant

    @pytest.mark.parametrize(
        "count, ceiling",
        # measured 1.2e-4 and 4.4e-8 from one solve; 9.4e-4 and 2.2e-6 with
        # two refinement steps, which diverge at this cond (~1e18-1e20)
        [(41, 1.5e-4), (641, 1.5e-7)],
    )
    def test_error_at_optimal_c_is_that_of_one_solve(self, count, ceiling):
        nodes = uniform_grid(np.zeros(1), 1.0, count, 1)
        spec = ProblemSpec(
            n=1, beta=-1.0, sigma=1.0, delta=0.5 / (count - 1), b0=1.0, mode=Mode.FIXED_B0
        )
        c = optimal_c(spec, derive_constants(spec)).c_star
        f = GaussianBump(a=0.25, n=1, center=(0.5,))
        rep = run_bound_experiment(spec, f, nodes, c, eval_grid=4001)
        assert rep.satisfied
        assert rep.max_error_measured < ceiling

    def test_halving_spacing_reduces_error(self):
        f = GaussianBump(a=1.0, n=1, center=(0.0,))
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=1.0, b0=25.6)
        errs = []
        for per in (9, 17, 33):
            nodes = uniform_grid(np.array([-12.8]), 25.6, per, 1)
            interp = fit(Kernel(c=1.0, beta=-1.0, n=1), nodes, f(nodes.points))
            grid = np.linspace(-12.8, 12.8, 1501)[:, None]
            errs.append(float(np.max(np.abs(f(grid) - evaluate(interp, grid)))))
        assert errs[2] < errs[1] < errs[0]

    def test_error_at_recommended_c_no_worse_than_inflated_c(self):
        nodes = uniform_grid(np.zeros(1), 1.0, 26, 1)
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.02, b0=1.0)
        dc = derive_constants(spec)
        r = optimal_c(spec, dc)
        f = GaussianBump(a=0.25, n=1, center=(0.5,))
        grid = np.linspace(0, 1, 1201)[:, None]

        def err_at(c):
            interp = fit(Kernel(c=c, beta=-1.0, n=1), nodes, f(nodes.points))
            return float(np.max(np.abs(f(grid) - evaluate(interp, grid))))

        assert err_at(r.c_star) <= err_at(100.0 * r.c_star)

    def test_dimension_mismatch(self):
        nodes = uniform_grid(np.zeros(2), 1.0, 3, 2)
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.1, b0=1.0)
        f = GaussianBump(a=0.25, n=1)
        with pytest.raises(InputError):
            run_bound_experiment(spec, f, nodes, 30.0, eval_grid=50)

    @pytest.mark.parametrize(
        "eval_grid, grid_per_side",
        [(0, None), (-3, None), (1, None), (2.5, None), (50, 0), (50, 1), (50, -2)],
    )
    def test_grid_sizes_below_two_are_input_errors(self, eval_grid, grid_per_side):
        nodes = uniform_grid(np.zeros(1), 1.0, 11, 1)
        spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.1, b0=1.0)
        f = GaussianBump(a=0.25, n=1, center=(0.5,))
        with pytest.raises(InputError, match="integer >= 2"):
            run_bound_experiment(spec, f, nodes, 30.0, eval_grid, grid_per_side)

    def test_fill_distance_grid_on_the_nodes_is_an_input_error(self):
        # a 5 x 5 grid of nodes measured on the same 5 x 5 grid has delta =
        # 0, which is no fill distance: the grid is named, not delta
        nodes = uniform_grid(np.zeros(2), 1.0, 5, 2)
        spec = ProblemSpec(n=2, beta=-1.0, sigma=1.0, delta=0.1, b0=1.0)
        f = GaussianBump(a=0.25, n=2, center=(0.5, 0.5))
        with pytest.raises(InputError, match="grid_per_side=5") as err:
            run_bound_experiment(spec, f, nodes, 10.0, eval_grid=60, grid_per_side=5)
        assert "delta = 0" in str(err.value)

    def test_two_dimensional_experiment_inadmissible_at_desk_scale(self):
        # in two dimensions the admissible fill distance at any ordinary c
        # is far below what a finite node set can reach, so a live bound
        # experiment must refuse rather than compare against nonsense
        nodes = uniform_grid(np.zeros(2), 1.0, 9, 2)
        spec = ProblemSpec(n=2, beta=-1.0, sigma=1.0, delta=0.1, b0=1.0)
        f = GaussianBump(a=0.25, n=2, center=(0.5, 0.5))
        with pytest.raises(PreconditionError) as err:
            run_bound_experiment(spec, f, nodes, 10.0, eval_grid=60)
        assert "delta0" in str(err.value)
