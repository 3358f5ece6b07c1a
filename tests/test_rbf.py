import copy
import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mqshape import (
    BoundReport,
    ConditioningError,
    GaussianBump,
    InputError,
    Kernel,
    NodeSet,
    SpecError,
    condition_estimate,
    evaluate,
    fit,
    kernel_eval,
    poly_basis,
    uniform_grid,
)
from mqshape.constants import cpd_order
from mqshape.rbf import (
    _BEYOND_RANGE,
    _EVAL_BLOCK_ENTRIES,
    _cond1,
    _difference_rhs,
    _factor,
    _kernel_rows,
    _lapack,
    _row_blocks,
    _saddle,
    _sq_dists,
)


def perturbed_grid_1d(rng, count, spacing=0.5):
    # cube grows with the count so spacing, and conditioning, stay fixed
    side = spacing * count
    jitter = 0.35 * spacing * rng.uniform(-1.0, 1.0, count)
    pts = (np.arange(count) + 0.5) * spacing + jitter
    return NodeSet(points=pts[:, None], cube=(np.zeros(1), side))


def perturbed_grid_2d(rng, per_side, spacing=1.5):
    side = spacing * per_side
    base = (np.arange(per_side) + 0.5) * spacing
    xx, yy = np.meshgrid(base, base, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    pts += 0.3 * spacing * rng.uniform(-1.0, 1.0, pts.shape)
    return NodeSet(points=pts, cube=(np.zeros(2), side))


class TestKernel:
    def test_inverse_multiquadric_values(self):
        k = Kernel(c=1.0, beta=-1.0, n=1)
        assert kernel_eval(k, [0.0]) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert kernel_eval(k, [math.sqrt(3.0)]) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-14
        )

    def test_multiquadric_sign_flip(self):
        # Gamma(-1/2) = -2 sqrt(pi), so the beta=1 kernel is negative
        k = Kernel(c=2.0, beta=1.0, n=1)
        assert kernel_eval(k, [0.0]) == pytest.approx(-4.0 * math.sqrt(math.pi), rel=1e-14)

    def test_radial_symmetry(self):
        k = Kernel(c=0.7, beta=-1.0, n=2)
        assert kernel_eval(k, [0.3, 0.4]) == kernel_eval(k, [0.5, 0.0])

    @pytest.mark.parametrize("beta", [-1.0, 1.0])
    @pytest.mark.parametrize("c", [1e-100, 0.3, 1.0, 1e100])
    def test_sqrt_path_matches_pow(self, beta, c):
        # beta = +-1 take sqrt (and a reciprocal), not libm pow
        rng = np.random.default_rng(5)
        r2 = np.concatenate(
            [[0.0], np.logspace(-300, 300, 601), 10.0 ** rng.uniform(-300, 300, 400)]
        )
        k = Kernel(c=c, beta=beta, n=1)
        got = k.radial(r2)
        ref = np.array([k.gamma_factor * math.pow(c * c + t, beta / 2.0) for t in r2])
        assert np.all(np.abs(got - ref) <= 4.0 * np.finfo(float).eps * np.abs(ref))

    @pytest.mark.parametrize("beta", [-1.0, 1.0, 3.0])
    def test_radial_beyond_double_range(self, beta):
        # c^2 overflows: inf of the prefactor's sign for beta > 0, 0 for beta < 0
        g = Kernel(c=1.0, beta=beta, n=1).gamma_factor
        with np.errstate(all="raise"):
            big = Kernel(c=1e200, beta=beta, n=1).radial(np.array([0.0, 1.0]))
            tiny = Kernel(c=1e-200, beta=beta, n=1).radial(0.0)  # c^2 underflows
        assert np.all(big == (math.copysign(math.inf, g) if beta > 0 else 0.0))
        assert tiny == (0.0 if beta > 0 else math.inf)

    def test_radial_of_a_scalar_is_a_scalar(self):
        v = Kernel(c=0.7, beta=-1.0, n=1).radial(2.0)
        assert np.ndim(v) == 0
        assert float(v) == Kernel(c=0.7, beta=-1.0, n=1).radial(np.array([2.0]))[0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(SpecError):
            Kernel(c=0.0, beta=-1.0, n=1)
        with pytest.raises(SpecError):
            Kernel(c=1.0, beta=2.0, n=1)  # prefactor has a pole

    @pytest.mark.parametrize("c", ["1.0", b"1", "abc", None, 1j, [1.0]])
    def test_rejects_a_shape_parameter_that_is_not_a_real_number(self, c):
        # a string was parsed: Kernel(c="1.0") constructed and fit ran on it
        with pytest.raises(SpecError, match="shape parameter c must be a positive finite real"):
            Kernel(c=c, beta=-1.0, n=1)

    @pytest.mark.parametrize("beta", ["-1", b"1", None])
    def test_rejects_an_exponent_that_is_not_a_real_number(self, beta):
        with pytest.raises(SpecError, match="kernel exponent beta must be a finite real"):
            Kernel(c=1.0, beta=beta, n=1)

    @pytest.mark.parametrize(
        "c, beta", [(0.3, -1.0), (np.float64(0.1), np.float64(3.0)), (np.float32(0.1), -1), (2, 1)]
    )
    def test_stores_numeric_inputs_as_floats_with_their_bits(self, c, beta):
        k = Kernel(c=c, beta=beta, n=1)
        assert type(k.c) is float and type(k.beta) is float
        assert k.c.hex() == float(c).hex() and k.beta.hex() == float(beta).hex()
        assert k.radial(0.25) == Kernel(c=float(c), beta=float(beta), n=1).radial(0.25)

    def test_rejects_infinite_shape_parameter(self):
        # a finite c whose square overflows is a numeric failure of the
        # solve; c = inf is no shape parameter at all
        with pytest.raises(SpecError, match="positive finite real, got inf"):
            Kernel(c=math.inf, beta=-1.0, n=1)

    @pytest.mark.parametrize("n", [0, 2.5, True])
    def test_rejects_a_dimension_that_is_not_an_integer_of_at_least_one(self, n):
        with pytest.raises(SpecError, match="dimension n must be"):
            Kernel(c=1.0, beta=-1.0, n=n)

    @pytest.mark.parametrize(
        "beta", [-343.0, -200.5, -41.3, -11.68, -7.0, -3.0, -1.0, -0.5,
                 0.5, 1.0, 3.0, 5.5, 11.6, 41.0]
    )
    def test_gamma_factor_matches_scipy(self, beta):
        from scipy.special import gamma  # oracle only; mqshape uses math.gamma

        expected = float(gamma(-beta / 2.0))
        got = Kernel(c=1.0, beta=beta, n=1).gamma_factor
        assert abs(got - expected) <= 16 * math.ulp(expected)

    @pytest.mark.parametrize("beta", [0.0, 2.0, 4.0, -400.0])
    def test_gamma_factor_pole_or_overflow_rejected(self, beta):
        with pytest.raises(SpecError):
            Kernel(c=1.0, beta=beta, n=1)


class TestPolyBasis:
    def test_orders(self):
        assert poly_basis(0, 3) == []
        assert poly_basis(1, 2) == [(0, 0)]
        assert poly_basis(2, 2) == [(0, 0), (1, 0), (0, 1)]

    def test_counts(self):
        for m in range(5):
            for n in range(1, 4):
                q = len(poly_basis(m, n))
                assert q == (math.comb(m - 1 + n, n) if m >= 1 else 0)


class TestNodeSet:
    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            NodeSet(points=np.array([[0.1], [0.1]]), cube=(np.zeros(1), 1.0))

    def test_rejects_points_outside_cube(self):
        with pytest.raises(InputError):
            NodeSet(points=np.array([[1.5]]), cube=(np.zeros(1), 1.0))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            NodeSet(points=np.zeros((0, 1)), cube=(np.zeros(1), 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputError):
            NodeSet(points=[[bad, 0.5], [0.2, 0.3]], cube=(np.zeros(2), 1.0))
        with pytest.raises(InputError):
            NodeSet(points=[[0.5, 0.5]], cube=(np.array([bad, 0.0]), 1.0))

    def test_rejects_non_adjacent_duplicate(self):
        pts = [[0.1, 0.2], [0.1, 0.9], [0.5, 0.5], [0.7, 0.2], [0.1, 0.2]]
        with pytest.raises(InputError):
            NodeSet(points=pts, cube=(np.zeros(2), 1.0))

    def test_rejects_signed_zero_duplicate(self):
        with pytest.raises(InputError):
            NodeSet(points=[[0.0, 0.5], [0.3, 0.1], [-0.0, 0.5]], cube=(-np.ones(2), 2.0))

    def test_accepts_large_grid(self):
        assert uniform_grid(np.zeros(2), 1.0, 45, 2).count == 2025

    def test_uniform_grid_input_validation(self):
        # per_side is an integer >= 1, and the cube passes NodeSet's rule
        for per_side in (0, 2.5, np.float64(3.0)):
            with pytest.raises(InputError, match="per_side"):
                uniform_grid(np.zeros(1), 1.0, per_side, 1)
        with pytest.raises(InputError, match="dimension"):
            uniform_grid(np.zeros(1), 1.0, 3, 2)
        with pytest.raises(InputError, match="cube"):
            uniform_grid(np.zeros(1), math.nan, 3, 1)
        with pytest.raises(SpecError, match="dimension"):
            uniform_grid(np.zeros(0), 1.0, 3, 0)
        assert uniform_grid(np.zeros(2), 1.0, np.int64(3), 2).count == 9


class TestFit:
    def test_single_node(self):
        k = Kernel(c=1.0, beta=-1.0, n=1)
        nodes = NodeSet(points=np.array([[0.3]]), cube=(np.zeros(1), 1.0))
        interp = fit(k, nodes, [2.5])
        assert interp.kernel_coeffs[0] == pytest.approx(
            2.5 / kernel_eval(k, [0.0]), rel=1e-14
        )
        assert interp.condition_estimate == pytest.approx(1.0)

    def test_node_reproduction(self):
        rng = np.random.default_rng(42)
        nodes = perturbed_grid_1d(rng, 20)
        vals = np.sin(3.0 * nodes.points[:, 0]) + 0.3
        interp = fit(Kernel(c=1.0, beta=-1.0, n=1), nodes, vals)
        target = 1e-10 * (1.0 + np.max(np.abs(vals)))
        assert interp.node_residual < target
        assert np.max(np.abs(evaluate(interp, nodes.points) - vals)) < target

    def test_side_conditions(self):
        rng = np.random.default_rng(42)
        nodes = perturbed_grid_1d(rng, 20)
        vals = np.sin(3.0 * nodes.points[:, 0]) + 0.3
        interp = fit(Kernel(c=1.0, beta=1.0, n=1), nodes, vals)
        total = np.sum(np.abs(interp.kernel_coeffs))
        assert abs(np.sum(interp.kernel_coeffs)) < 1e-10 * total

    def test_value_count_mismatch(self):
        nodes = uniform_grid(np.zeros(1), 1.0, 5, 1)
        with pytest.raises(InputError):
            fit(Kernel(c=1.0, beta=-1.0, n=1), nodes, [1.0, 2.0])

    def test_unisolvency_check(self):
        # beta=3 needs a degree-1 tail; collinear 2D nodes cannot pin it down
        pts = np.column_stack([np.linspace(0.1, 0.9, 8), np.full(8, 0.5)])
        nodes = NodeSet(points=pts, cube=(np.zeros(2), 1.0))
        with pytest.raises(InputError):
            fit(Kernel(c=0.5, beta=3.0, n=2), nodes, np.ones(8))

    def test_exactly_singular_system(self):
        # the squared distances vanish below the ulp of c^2, so every
        # kernel entry collapses to the same number; for beta > 0 the
        # LDL^T meets an exactly zero pivot
        for beta, c, count in [(-1.0, 1e150, 3), (1.0, 1e100, 11), (3.0, 1e100, 11)]:
            nodes = uniform_grid(np.zeros(1), 1.0, count, 1)
            with pytest.raises(ConditioningError) as caught:
                fit(Kernel(c=c, beta=beta, n=1), nodes, np.arange(count, dtype=float))
            assert caught.value.condition_estimate == math.inf

    @pytest.mark.parametrize("beta", [-1.0, 1.0, 3.0])
    def test_overflowing_shape_parameter_is_ill_conditioned(self, beta):
        # c^2 overflows a double: the kernel entries become inf (beta > 0)
        # or 0 (beta < 0), which the solve must report, not raise on
        nodes = uniform_grid(np.zeros(1), 1.0, 3, 1)
        kern = Kernel(c=1e200, beta=beta, n=1)
        with pytest.raises(ConditioningError):
            fit(kern, nodes, [1.0, 2.0, 3.0])
        assert condition_estimate(kern, nodes) == math.inf

    @pytest.mark.parametrize("c, beta", [(1e-200, -1.0), (1e200, -1.0), (1e200, 1.0)])
    def test_out_of_range_kernel_warns_nothing(self, c, beta):
        # c^2 underflows (an infinite diagonal for beta < 0) or overflows:
        # the one signal is the ConditioningError, not a numpy warning or
        # FloatingPointError on the way
        nodes = uniform_grid(np.zeros(1), 1.0, 3, 1)
        kern = Kernel(c=c, beta=beta, n=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError):
                fit(kern, nodes, [1.0, 2.0, 3.0])
        with np.errstate(all="raise"), pytest.raises(ConditioningError):
            fit(kern, nodes, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("beta", [-1.0, 1.0])
    @pytest.mark.parametrize("n", [1, 2])
    def test_exactness_random_instances(self, beta, n):
        rng = np.random.default_rng(100 + n + int(beta))
        for trial in range(4):
            if n == 1:
                count = int(rng.integers(5, 51))
                nodes = perturbed_grid_1d(rng, count)
            else:
                per = int(rng.integers(2, 8))
                nodes = perturbed_grid_2d(rng, per)
            vals = rng.normal(size=nodes.count)
            interp = fit(Kernel(c=1.0, beta=beta, n=n), nodes, vals)
            assert interp.node_residual < 1e-10 * (1.0 + np.max(np.abs(vals)))
            if interp.poly_exponents:
                coef = interp.kernel_coeffs
                p = np.column_stack(
                    [np.ones(nodes.count)]
                )  # beta=1 has the constant tail only
                rel = np.abs(p.T @ coef) / max(np.sum(np.abs(coef)), 1e-300)
                assert np.max(rel) < 1e-9

    ROUTINES = ("dpotrf", "dpotrs", "dsytrf", "dsytrs", "dgetrf", "dgetrs")

    @staticmethod
    def count_lapack_calls(monkeypatch, names=("dpotrf", "dpotrs", "dgetrf", "dgetrs")):
        """Count the calls of the named factor and solve routines on the
        LAPACK module, and the dpotrf calls that report a breakdown
        (info > 0)."""
        lapack = _lapack()
        calls = dict.fromkeys(names, 0)
        failed = {"dpotrf": 0}
        for name in calls:
            real = getattr(lapack, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                out = _real(*args, **kwargs)
                if _name in failed and out[-1] > 0:
                    failed[_name] += 1
                return out

            monkeypatch.setattr(lapack, name, counted)
        return calls, failed

    def test_one_factorization_one_solve(self, monkeypatch):
        calls, _ = self.count_lapack_calls(monkeypatch, self.ROUTINES)
        nodes = perturbed_grid_2d(np.random.default_rng(3), 5)
        interp = fit(Kernel(c=1.0, beta=3.0, n=2), nodes, np.ones(nodes.count))
        assert calls == {
            "dpotrf": 0, "dpotrs": 0, "dsytrf": 1, "dsytrs": 1, "dgetrf": 0, "dgetrs": 0
        }
        assert interp.factorization == "ldl"

    def test_positive_definite_system_takes_cholesky(self, monkeypatch):
        calls, failed = self.count_lapack_calls(monkeypatch, self.ROUTINES)
        nodes = perturbed_grid_2d(np.random.default_rng(3), 6)
        kern = Kernel(c=0.2, beta=-1.0, n=2)
        interp = fit(kern, nodes, np.cos(nodes.points.sum(axis=1)))
        assert calls == {
            "dpotrf": 1, "dpotrs": 1, "dsytrf": 0, "dsytrs": 0, "dgetrf": 0, "dgetrs": 0
        }
        assert failed == {"dpotrf": 0}
        assert interp.factorization == "cholesky"
        assert interp.node_residual < 1e-12
        assert condition_estimate(kern, nodes) == interp.condition_estimate

    def test_cholesky_breakdown_falls_back_to_lu(self, monkeypatch):
        # the 41-node system of the mpmath oracle test, cond ~3e19: not
        # positive definite in floating point
        import scipy.linalg

        nodes = uniform_grid(np.zeros(1), 1.0, 41, 1)
        kern = Kernel(c=20.0, beta=-1.0, n=1)
        vals = np.exp(-0.25 * (nodes.points[:, 0] - 0.5) ** 2)
        saddle = _saddle(kern, nodes)[0]
        direct = scipy.linalg.lu_solve(scipy.linalg.lu_factor(saddle), vals)
        calls, failed = self.count_lapack_calls(monkeypatch)
        interp = fit(kern, nodes, vals)
        assert calls == {"dpotrf": 1, "dpotrs": 0, "dgetrf": 1, "dgetrs": 1}
        assert failed == {"dpotrf": 1}
        assert interp.factorization == "lu"
        assert np.array_equal(interp.kernel_coeffs, direct)
        assert condition_estimate(kern, nodes) == interp.condition_estimate

    @pytest.mark.parametrize(
        "beta, count, c, factorization",
        [(-1.0, 11, 0.5, "cholesky"), (-1.0, 41, 20.0, "lu"), (1.0, 11, 0.5, "ldl")],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_are_input_errors(self, beta, count, c, factorization, bad):
        # the system itself is fine: the data, not the conditioning, is at fault
        nodes = uniform_grid(np.zeros(1), 1.0, count, 1)
        kern = Kernel(c=c, beta=beta, n=1)
        vals = np.sin(3.0 * nodes.points[:, 0])
        assert fit(kern, nodes, vals).factorization == factorization
        vals[count // 2] = bad
        with pytest.raises(InputError, match="finite"):
            fit(kern, nodes, vals)

    @pytest.mark.parametrize(
        "beta, c, factorization",
        [(-1.0, 1.0, "cholesky"), (1.0, 1.0, "ldl"), (3.0, 1.0, "ldl"), (-1.0, 30.0, "lu")],
    )
    def test_residuals_against_the_assembled_saddle(self, beta, c, factorization):
        # fit reads its residuals from the triangle the factorization left
        # intact, a row block at a time; 400 nodes take three blocks
        rng = np.random.default_rng(13)
        nodes = perturbed_grid_2d(rng, 20)
        kern = Kernel(c=c, beta=beta, n=2)
        vals = rng.normal(size=nodes.count)
        interp = fit(kern, nodes, vals)
        assert interp.factorization == factorization
        saddle = _saddle(kern, nodes)[0]
        eps = np.finfo(float).eps
        x = np.concatenate([interp.kernel_coeffs, interp.poly_coeffs])
        residual = np.abs(saddle @ x - np.concatenate([vals, np.zeros(len(interp.poly_coeffs))]))
        side = residual[nodes.count:].max() if interp.poly_exponents else 0.0
        ulps = 8.0 * eps * np.abs(saddle).sum(axis=1).max() * np.abs(x).max()
        assert abs(interp.node_residual - residual[:nodes.count].max()) <= ulps
        assert abs(interp.side_condition_residual - side) <= ulps
        # a residual is itself of the order of those ulps, so check the
        # product on a factored saddle also where it is not small
        factored = _saddle(kern, nodes)[0]
        _, _, kind, product = _factor(factored, positive_definite=beta < 0)
        assert kind == factorization
        assert not np.array_equal(np.tril(factored), np.tril(saddle))
        y = rng.normal(size=x.shape[0])
        error = np.abs(product(y) - saddle @ y)
        assert np.all(error <= 8.0 * eps * (np.abs(saddle) @ np.abs(y)))

    @pytest.mark.parametrize("offset", [1e4, 1e5, 1e8])
    def test_tail_in_cube_frame(self, offset):
        # on raw coordinates the tail grows cond ~1000-fold by offset 1e4
        # and fails the unisolvency check from offset 1e5 on
        kern = Kernel(c=1.0, beta=3.0, n=2)
        ref = fit(kern, uniform_grid(np.zeros(2), 1.0, 12, 2), np.ones(144))
        nodes = uniform_grid(np.full(2, offset), 1.0, 12, 2)
        local = nodes.points - offset
        interp = fit(kern, nodes, np.sin(3.0 * local[:, 0]) * np.cos(2.0 * local[:, 1]))
        assert interp.condition_estimate <= 10.0 * ref.condition_estimate
        assert interp.node_residual < 1e-6

    def test_matches_extended_precision_oracle(self):
        # 41 nodes at c = 20: cond ~3e19, so the direct solve carries
        # roundoff, and iterative refinement, which diverges at this cond,
        # makes it ~100x worse
        mp = pytest.importorskip("mpmath")
        nodes = uniform_grid(np.zeros(1), 1.0, 41, 1)
        xs = np.linspace(0.0, 1.0, 201)
        vals = np.exp(-0.25 * (nodes.points[:, 0] - 0.5) ** 2)
        interp = fit(Kernel(c=20.0, beta=-1.0, n=1), nodes, vals)

        def phi(d):
            return 1 / mp.sqrt(400 + d * d)  # Gamma(1/2) cancels in s

        with mp.workdps(80):
            centers = [mp.mpf(float(x)) for x in nodes.points[:, 0]]
            a = mp.matrix([[phi(xi - xj) for xj in centers] for xi in centers])
            coef = mp.lu_solve(a, mp.matrix([mp.mpf(float(v)) for v in vals]))
            oracle = np.array(
                [float(mp.fsum(w * phi(mp.mpf(float(x)) - y) for w, y in zip(coef, centers)))
                 for x in xs]
            )
        # measured: 1.4e-4 from one solve, 1.6e-2 with two refinement steps
        assert np.max(np.abs(evaluate(interp, xs[:, None]) - oracle)) < 1.5e-3


class TestEvaluate:
    def test_zero_data_gives_zero_function(self):
        nodes = uniform_grid(np.zeros(1), 1.0, 7, 1)
        interp = fit(Kernel(c=1.0, beta=-1.0, n=1), nodes, np.zeros(7))
        xs = np.linspace(0, 1, 40)[:, None]
        assert np.all(evaluate(interp, xs) == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        nodes = perturbed_grid_1d(rng, 15)
        f = rng.normal(size=15)
        g = rng.normal(size=15)
        k = Kernel(c=1.0, beta=-1.0, n=1)
        sf = fit(k, nodes, f)
        sg = fit(k, nodes, g)
        sfg = fit(k, nodes, f + g)
        xs = np.linspace(0, 10, 60)[:, None]
        lhs = evaluate(sfg, xs)
        rhs = evaluate(sf, xs) + evaluate(sg, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * (1.0 + np.max(np.abs(lhs)))

    def test_shift_invariance(self):
        rng = np.random.default_rng(8)
        nodes = perturbed_grid_1d(rng, 12)
        vals = np.cos(nodes.points[:, 0])
        k = Kernel(c=1.0, beta=-1.0, n=1)
        interp = fit(k, nodes, vals)
        shift = 5.0
        nodes_shifted = NodeSet(
            points=nodes.points + shift, cube=(np.array([shift]), 10.0)
        )
        interp_shifted = fit(k, nodes_shifted, vals)
        xs = np.linspace(0.5, 9.5, 50)[:, None]
        a = evaluate(interp, xs)
        b = evaluate(interp_shifted, xs + shift)
        assert np.max(np.abs(a - b)) < 1e-9 * (1.0 + np.max(np.abs(a)))

    def test_offset_cube_reproduces_nodes(self):
        # a cube far from the origin must cost no digits to cancellation
        nodes = uniform_grid(np.array([1e4, 1e4]), 1.0, 12, 2)
        local = nodes.points - 1e4
        vals = np.sin(3.0 * local[:, 0]) * np.cos(2.0 * local[:, 1])
        interp = fit(Kernel(c=0.1, beta=1.0, n=2), nodes, vals)
        assert np.max(np.abs(evaluate(interp, nodes.points) - vals)) < 1e-12

    def test_blocks_match_row_by_row(self):
        rng = np.random.default_rng(11)
        nodes = perturbed_grid_2d(rng, 20, spacing=0.05)
        interp = fit(Kernel(c=0.02, beta=-1.0, n=2), nodes, rng.normal(size=nodes.count))
        rows = _EVAL_BLOCK_ENTRIES // nodes.count
        xs = rng.uniform(0.0, 1.0, (2 * rows + 7, 2))
        batch = evaluate(interp, xs)
        one_by_one = np.array([evaluate(interp, x) for x in xs])
        assert np.max(np.abs(batch - one_by_one)) < 1e-13 * (1.0 + np.max(np.abs(batch)))

    def test_single_point_shape(self):
        nodes = uniform_grid(np.zeros(1), 1.0, 5, 1)
        interp = fit(Kernel(c=1.0, beta=-1.0, n=1), nodes, np.ones(5))
        assert isinstance(evaluate(interp, np.array([0.5])), float)

    def test_one_dimensional_scalar_is_one_point(self):
        nodes = uniform_grid(np.zeros(1), 1.0, 5, 1)
        interp = fit(Kernel(c=1.0, beta=-1.0, n=1), nodes, np.arange(5.0))
        value = evaluate(interp, 0.5)
        assert isinstance(value, float)
        assert value == evaluate(interp, np.array([0.5]))


class TestAssembly:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("offset", [0.0, 1e5])
    def test_sq_dists_match_subtract_outer(self, n, offset):
        # copying y down and subtracting x gives the squares of the
        # broadcast differences to the bit, summed in the same order
        rng = np.random.default_rng(20 + n)
        corner = np.full(n, offset)
        x, y = (rng.uniform(0.0, 1.0, (k, n)) + corner - (corner + 0.5) for k in (37, 53))
        ref = np.subtract.outer(x[:, 0], y[:, 0]) ** 2
        for axis in range(1, n):
            ref += np.subtract.outer(x[:, axis], y[:, axis]) ** 2
        out, diff = np.empty_like(ref), np.empty_like(ref)
        assert np.array_equal(_sq_dists(x, _difference_rhs(y)), ref)
        assert np.array_equal(_sq_dists(x, _difference_rhs(y), out=out, diff=diff), ref)
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k, m", [(11, 9), (1, 9), (11, 1), (1, 1)])
    def test_sq_dists_match_subtract_outer_at_the_edges(self, n, k, m):
        # signed zeros, infinite evaluation coordinates, differences that
        # overflow and subnormal ones: the K = 2 product rounds as the
        # subtraction does, and the NaN left in the scratch reaches no entry
        tiny = np.finfo(float).smallest_subnormal
        normal = np.finfo(float).tiny
        xs = [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 3 * tiny, -2 * tiny, 1.5, np.nan, normal]
        ys = [0.0, -0.0, 1e308, -1e308, tiny, -tiny, 5 * tiny, 1.0, np.nextafter(normal, 0.0)]
        rng = np.random.default_rng(30 + n)
        x = np.column_stack([rng.permutation(xs)[:k] for _ in range(n)])
        y = np.column_stack([rng.permutation(ys)[:m] for _ in range(n)])
        with np.errstate(**_BEYOND_RANGE, invalid="ignore"):
            ref = np.subtract.outer(x[:, 0], y[:, 0]) ** 2
            for axis in range(1, n):
                ref += np.subtract.outer(x[:, axis], y[:, axis]) ** 2
            out, diff = np.full_like(ref, np.nan), np.full_like(ref, np.nan)
            got = _sq_dists(x, _difference_rhs(y), out=out, diff=diff)
            assert np.array_equal(got, ref, equal_nan=True)
            assert np.array_equal(_sq_dists(x, _difference_rhs(y)), ref, equal_nan=True)

    @pytest.mark.parametrize("beta, q", [(-1.0, 0), (1.0, 1), (3.0, 3)])
    def test_saddle_matches_dense_oracle(self, beta, q):
        # 400 nodes take row blocks of 163, 163 and 74 rows
        nodes = perturbed_grid_2d(np.random.default_rng(12), 20, spacing=0.05)
        step = _EVAL_BLOCK_ENTRIES // nodes.count
        assert 2 * step < nodes.count < 3 * step
        kern = Kernel(c=0.1, beta=beta, n=2)
        corner, side = nodes.cube
        centred = nodes.points - (corner + 0.5 * side)
        a = kern.radial(((centred[:, None, :] - centred[None, :, :]) ** 2).sum(axis=-1))
        frame = centred / (0.5 * side)
        exponents = poly_basis(cpd_order(beta), 2)
        assert len(exponents) == q
        p = np.ones((nodes.count, q))
        for j, (i, k) in enumerate(exponents):
            p[:, j] = frame[:, 0] ** i * frame[:, 1] ** k
        oracle = np.block([[a, p], [p.T, np.zeros((q, q))]])
        assert np.array_equal(_saddle(kern, nodes)[0], oracle)


class TestRowBlocks:
    @pytest.mark.parametrize("count", [0, 1, 40001])
    @pytest.mark.parametrize("width", [1, 625, 1025, 1 << 17])
    @pytest.mark.parametrize("entries", [_EVAL_BLOCK_ENTRIES, _EVAL_BLOCK_ENTRIES // 2])
    def test_slices_cover_every_row_once_in_order(self, count, width, entries):
        blocks = list(_row_blocks(count, width, entries))
        covered = [i for rows in blocks for i in range(rows.start, rows.stop)]
        assert covered == list(range(count))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert all(rows.step is None for rows in blocks) and all(sizes)
        if width > entries:
            assert set(sizes) <= {1}  # a row too wide for a block is its own
        else:
            assert all(size * width <= entries for size in sizes)
        # the first slice is as long as the rule allows, and so is every
        # slice but the last: buffers are sized from the first
        if blocks:
            assert sizes[0] == count or (sizes[0] + 1) * width > entries
            assert all(size == sizes[0] for size in sizes[:-1])

    def test_default_block_is_the_evaluation_block(self):
        for count, width in [(40001, 625), (1024, 1024), (3, 1 << 17)]:
            assert list(_row_blocks(count, width)) == list(
                _row_blocks(count, width, _EVAL_BLOCK_ENTRIES)
            )


class TestMemory:
    @staticmethod
    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("beta", [-1.0, 1.0, 3.0])
    def test_fit_holds_one_saddle(self, beta):
        # the factorization overwrites the saddle in place, and the
        # residuals are read from the triangle it leaves intact
        nodes = perturbed_grid_2d(np.random.default_rng(4), 25)
        kern = Kernel(c=1.0, beta=beta, n=2)
        vals = np.cos(nodes.points.sum(axis=1))
        saddle_bytes = 8 * (nodes.count + len(poly_basis(cpd_order(beta), 2))) ** 2
        # the first fit also loads the LAPACK extension before the trace
        assert fit(kern, nodes, vals).factorization != "lu"
        assert self.peak_bytes(lambda: fit(kern, nodes, vals)) <= 1.25 * saddle_bytes

    def test_cholesky_breakdown_holds_one_factor_copy(self):
        # at c = 30 Cholesky breaks down (cond ~6e19); its copy is freed
        # before the LU makes its own
        nodes = perturbed_grid_2d(np.random.default_rng(4), 25)
        kern = Kernel(c=30.0, beta=-1.0, n=2)
        vals = np.cos(nodes.points.sum(axis=1))
        assert fit(kern, nodes, vals).factorization == "lu"
        peak = self.peak_bytes(lambda: fit(kern, nodes, vals))
        assert peak <= 2.25 * 8 * nodes.count**2

    def test_one_dimensional_kernel_rows_hold_one_block(self):
        # 1-D squared distances need no scratch for the later axes; the
        # slack above one block holds _sq_dists's (1, 2, 625) right-hand
        # side and its (rows, 2) left-hand side
        x = np.linspace(0.0, 1.0, 625)[:, None]
        kern = Kernel(c=1.0, beta=-1.0, n=1)

        def consume():
            with np.errstate(**_BEYOND_RANGE):
                for _ in _kernel_rows(kern, x, x):
                    pass

        assert self.peak_bytes(consume) <= 8 * (_EVAL_BLOCK_ENTRIES + x.size + np.getbufsize())

    def test_evaluate_peak_does_not_grow_with_points(self):
        # the centred points and the result take 8 (n + 1) = 24 bytes a
        # point; one kernel row per point would take 8 N = 5000
        rng = np.random.default_rng(4)
        nodes = perturbed_grid_2d(rng, 25)
        interp = fit(Kernel(c=1.0, beta=-1.0, n=2), nodes, rng.normal(size=nodes.count))
        small, large = (rng.uniform(0.0, nodes.cube[1], (k, 2)) for k in (4096, 40000))
        grown = self.peak_bytes(lambda: evaluate(interp, large)) - self.peak_bytes(
            lambda: evaluate(interp, small)
        )
        assert grown <= 32 * (len(large) - len(small))


class TestTranslationInvariance:
    @settings(deadline=None, max_examples=60)
    @given(
        beta=st.sampled_from([-1.0, 1.0, 3.0]),
        n=st.sampled_from([1, 2]),
        c=st.floats(0.25, 2.0),
        data=st.data(),
    )
    def test_shifted_cube_gives_the_same_interpolant(self, beta, n, c, data):
        # Integer offsets and nodes on a 1/64 lattice make every shifted
        # coordinate exact, so the two fits solve the same system and may
        # differ only by the rounding of the solve, ~cond * eps.
        ticks = [
            data.draw(st.lists(st.integers(0, 64), min_size=2, max_size=6 // n + 1, unique=True))
            for _ in range(n)
        ]
        offsets = st.lists(st.integers(-10**6, 10**6), min_size=n, max_size=n)
        offset = np.array(data.draw(offsets), dtype=float)
        mesh = np.meshgrid(*[np.array(t) / 64.0 for t in ticks], indexing="ij")
        local = np.column_stack([m.ravel() for m in mesh])
        vals = np.cos(3.0 * local.sum(axis=1))
        ys = np.column_stack([m.ravel() for m in np.meshgrid(*[np.linspace(0, 1, 17)] * n)])
        kern = Kernel(c=c, beta=beta, n=n)
        ref = fit(kern, NodeSet(points=local, cube=(np.zeros(n), 1.0)), vals)
        shifted = fit(kern, NodeSet(points=local + offset, cube=(offset, 1.0)), vals)
        a = evaluate(ref, ys)
        b = evaluate(shifted, ys + offset)
        tol = 2.0 * np.finfo(float).eps * ref.condition_estimate * np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= tol


class TestScalingInvariance:
    @settings(deadline=None, max_examples=60)
    @given(
        beta=st.sampled_from([-1.0, 1.0, 3.0]),
        n=st.sampled_from([1, 2]),
        c=st.floats(0.25, 2.0),
        k=st.integers(-8, 8),
        data=st.data(),
    )
    def test_scaled_cube_gives_the_same_interpolant(self, beta, n, c, k, data):
        # Scaling the nodes, the cube, the evaluation points and c by 2^k
        # scales every distance and c exactly, so the kernel matrix scales
        # by 2^(k beta) and the tail, in the cube frame, not at all; the
        # interpolant is the same, and each fit may differ from it only by
        # the rounding of its own solve, ~cond * eps.
        ticks = [
            data.draw(st.lists(st.integers(0, 64), min_size=2, max_size=6 // n + 1, unique=True))
            for _ in range(n)
        ]
        mesh = np.meshgrid(*[np.array(t) / 64.0 for t in ticks], indexing="ij")
        local = np.column_stack([m.ravel() for m in mesh])
        vals = np.cos(3.0 * local.sum(axis=1))
        ys = np.column_stack([m.ravel() for m in np.meshgrid(*[np.linspace(0, 1, 17)] * n)])
        scale = 2.0**k
        ref = fit(Kernel(c=c, beta=beta, n=n), NodeSet(points=local, cube=(np.zeros(n), 1.0)), vals)
        scaled = fit(
            Kernel(c=c * scale, beta=beta, n=n),
            NodeSet(points=local * scale, cube=(np.zeros(n), scale)),
            vals,
        )
        a = evaluate(ref, ys)
        b = evaluate(scaled, ys * scale)
        cond = max(ref.condition_estimate, scaled.condition_estimate)
        tol = 2.0 * np.finfo(float).eps * cond * np.max(np.abs(a))
        assert np.max(np.abs(a - b)) <= tol


class TestConditioning:
    def test_kernel_matrix_bitwise_symmetric(self):
        # the factorization reads one triangle and the residual the other;
        # 300 nodes take two row blocks, the second one partial
        rng = np.random.default_rng(9)
        for n in (1, 2, 3):
            nodes = NodeSet(points=rng.uniform(0, 1, (300, n)), cube=(np.zeros(n), 1.0))
            assert _EVAL_BLOCK_ENTRIES // nodes.count < nodes.count
            for beta in (-1.0, 1.0, 3.0):
                saddle = _saddle(Kernel(c=0.8, beta=beta, n=n), nodes)[0]
                assert np.array_equal(saddle, saddle.T)

    def test_identity_estimate(self):
        assert _cond1(np.eye(6)) == pytest.approx(1.0)

    def test_singular_estimate(self):
        assert _cond1(np.zeros((3, 3))) == math.inf

    def test_single_node_estimate(self):
        nodes = NodeSet(points=np.array([[0.2]]), cube=(np.zeros(1), 1.0))
        assert condition_estimate(Kernel(c=1.0, beta=-1.0, n=1), nodes) == pytest.approx(1.0)

    def test_estimate_grows_with_c(self):
        nodes = uniform_grid(np.zeros(1), 90.0, 10, 1)
        conds = [
            condition_estimate(Kernel(c=c, beta=-1.0, n=1), nodes)
            for c in (1.0, 10.0, 100.0)
        ]
        assert conds[0] <= conds[1] <= conds[2]

    @pytest.mark.parametrize("beta", [-1.0, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimate_against_dense_oracle(self, beta, seed):
        rng = np.random.default_rng(seed)
        nodes = perturbed_grid_2d(rng, 6 + 2 * seed)
        k = Kernel(c=0.5 + seed, beta=beta, n=2)
        pts = nodes.points
        a = k.radial(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
        if beta > 0:  # constant tail
            ones = np.ones((nodes.count, 1))
            a = np.block([[a, ones], [ones.T, np.zeros((1, 1))]])
        oracle = np.linalg.cond(a, 1)
        est = condition_estimate(k, nodes)
        interp = fit(k, nodes, rng.normal(size=nodes.count))
        assert interp.condition_estimate == est
        assert oracle / 3.0 <= est <= 3.0 * oracle
        # the beta < 0 cases check the dpocon estimate, the others dsycon
        assert interp.factorization == ("cholesky" if beta < 0 else "ldl")

    def test_estimate_rejects_dimension_mismatch(self):
        nodes = uniform_grid(np.zeros(2), 1.0, 3, 2)
        with pytest.raises(InputError):
            condition_estimate(Kernel(c=1.0, beta=-1.0, n=1), nodes)


class TestRecords:
    """The rbf and verify records: immutable, compared and shown by field."""

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: Kernel(0.5, -1.0, 2), "c"),
            (lambda: GaussianBump(a=0.25, n=2, center=(0.5, 0.5)), "center"),
            (lambda: BoundReport(1.0, 0.1, -2.0, 0.01, True, 2.6), "margin_log"),
        ],
        ids=["Kernel", "GaussianBump", "BoundReport"],
    )
    def test_hashable_records(self, make, field):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        name = type(a).__name__
        assert repr(a).startswith(f"{name}(") and f"{field}=" in repr(a)
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a

    def test_kernel_fields_and_prefactor(self):
        k = Kernel(c=0.5, beta=-1.0, n=2)
        assert (k.c, k.beta, k.n) == (0.5, -1.0, 2)
        assert k.gamma_factor == math.gamma(0.5)
        assert Kernel(2.0, 3.0, 1).gamma_factor == math.gamma(-1.5)
        assert k != Kernel(c=0.5, beta=-1.0, n=1)
        with pytest.raises(TypeError):
            Kernel(0.5, -1.0, 2, gamma_factor=1.0)
        with pytest.raises(AttributeError):
            k.gamma_factor = 1.0

    def test_node_set_stays_read_only(self):
        nodes = NodeSet(np.array([[0.1, 0.2], [0.7, 0.4]]), (np.zeros(2), 1.0))
        assert nodes == nodes and "points=" in repr(nodes) and "cube=" in repr(nodes)
        with pytest.raises(ValueError):
            nodes.points[0, 0] = 0.3
        with pytest.raises(ValueError):
            nodes.cube[0][0] = 0.3
        with pytest.raises(AttributeError):
            nodes.points = np.zeros((2, 2))
        with pytest.raises(AttributeError):
            del nodes.cube
        assert (nodes.count, nodes.dim) == (2, 2)

    def test_interpolant_fields(self):
        nodes = uniform_grid([0.0], 1.0, 5, 1)
        interp = fit(Kernel(0.5, 1.0, 1), nodes, np.sin(nodes.points[:, 0]))
        assert interp.nodes is nodes and interp.factorization == "ldl"
        with pytest.raises(AttributeError):
            interp.node_residual = 0.0
        assert repr(interp).startswith("Interpolant(") and "condition_estimate=" in repr(interp)
