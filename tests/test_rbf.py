import copy
import ctypes
import math
import os
import pickle
import subprocess
import sys
import threading
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
    fill_distance,
    fit,
    poly_basis,
    uniform_grid,
)
from mqshape.constants import ProblemSpec, cpd_order
from mqshape import rbf
from mqshape.rbf import (
    _BEYOND_RANGE,
    _EVAL_BLOCK_ENTRIES,
    _deal_kernel_rows,
    _difference_rhs,
    _factor,
    _kernel_rows,
    _linalg,
    _row_blocks,
    _saddle,
    _sq_dists,
)


def poison_own_kernel_entry(monkeypatch, node):
    # the kernel entry of ``node`` with itself becomes NaN
    power = Kernel._power

    def poisoned(self, t):
        at = t[:, node] == 0.0  # the row of the node itself
        power(self, t)
        t[at, node] = math.nan
        return t

    monkeypatch.setattr(Kernel, "_power", poisoned)


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


def perturbed_grid_3d(rng, per_side, spacing=1.5):
    side = spacing * per_side
    base = (np.arange(per_side) + 0.5) * spacing
    mesh = np.meshgrid(base, base, base, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    pts += 0.3 * spacing * rng.uniform(-1.0, 1.0, pts.shape)
    return NodeSet(points=pts, cube=(np.zeros(3), side))


class TestKernel:
    def test_inverse_multiquadric_values(self):
        k = Kernel(c=1.0, beta=-1.0, n=1)
        assert k.radial(0.0) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert k.radial(3.0) == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-14)

    def test_multiquadric_sign_flip(self):
        # Gamma(-1/2) = -2 sqrt(pi), so the beta=1 kernel is negative
        k = Kernel(c=2.0, beta=1.0, n=1)
        assert k.radial(0.0) == pytest.approx(-4.0 * math.sqrt(math.pi), rel=1e-14)

    def test_radial_symmetry(self):
        # the assembled kernel entries depend on the distance alone: the
        # cube is centred on the origin, so the centred coordinates are exact
        k = Kernel(c=0.7, beta=-1.0, n=2)
        nodes = NodeSet([[0.0, 0.0], [0.3, 0.4], [0.5, 0.0]], (-np.ones(2), 2.0))
        saddle = _saddle(k, nodes)[0]
        assert saddle[0, 1] == saddle[0, 2] == k.radial(0.25)

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

    def test_accepts_a_numpy_integer_dimension(self):
        # the dimension rule takes any integer, as the count rule does, and
        # the records store it as a Python int
        assert type(Kernel(c=1.0, beta=-1.0, n=np.int64(2)).n) is int
        spec = ProblemSpec(n=np.int64(2), beta=-1.0, sigma=1.0, delta=1e-3)
        assert spec.n == 2 and type(spec.n) is int

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

    @pytest.mark.parametrize(
        "cube",
        [
            (np.zeros(1), "1.0"),
            (np.zeros(1), b"1"),
            (np.zeros(1), None),
            (np.zeros(1), 1.0 + 0j),
            (["0"], 1.0),
            (np.array(["0.0"]), 1.0),
            ([None], 1.0),
            ([0j], 1.0),
        ],
        ids=["side-str", "side-bytes", "side-none", "side-complex", "corner-str",
             "corner-str-array", "corner-none", "corner-complex"],
    )
    def test_cube_that_is_not_real_numbers_is_refused(self, cube):
        # the cube rule refuses a string rather than parsing it, as the
        # constants rules do, with the InputError of every other cube fault
        with pytest.raises(InputError, match="cube"):
            NodeSet(np.array([[0.5]]), cube)
        with pytest.raises(InputError, match="cube"):
            uniform_grid(cube[0], cube[1], 3, 1)
        with pytest.raises(InputError, match="cube"):
            fill_distance(cube, np.array([[0.5]]), 11)

    @pytest.mark.parametrize(
        "cube", [1.0, (np.zeros(1), 1.0, 5), (np.zeros(1),)], ids=["side-alone", "triple", "corner-alone"]
    )
    def test_cube_that_is_not_a_corner_side_pair_is_refused(self, cube):
        # a bare side raised TypeError, and a third element was ignored
        with pytest.raises(InputError, match="cube"):
            NodeSet(np.array([[0.5]]), cube)
        with pytest.raises(InputError, match="cube"):
            fill_distance(cube, np.array([[0.5]]), 11)

    def test_cube_of_numbers_keeps_its_bits(self):
        corner = np.array([0.1, -np.pi])
        for given in (corner, list(corner), corner.astype(np.float32), [0, np.int64(-3)]):
            nodes = NodeSet(np.array([[0.5, -2.0]]), (given, np.float32(3.3)))
            assert np.array_equal(nodes.cube[0], np.asarray(given, dtype=float))
            assert nodes.cube[1] == float(np.float32(3.3)) and type(nodes.cube[1]) is float


UNIT_CUBE = (np.zeros(1), 1.0)
KERN = Kernel(c=1.0, beta=-1.0, n=1)
GRID = uniform_grid(np.zeros(1), 1.0, 3, 1)


def grid_interpolant():
    return fit(KERN, GRID, [0.0, 1.0, 0.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: NodeSet([["0.1"], ["0.5"]], UNIT_CUBE),
        lambda: NodeSet(np.array([[0.1 + 1j], [0.5]]), UNIT_CUBE),
        lambda: fill_distance(UNIT_CUBE, [["0.5"]], 11),
        lambda: fit(KERN, GRID, ["1", "2", "3"]),
        lambda: fit(KERN, GRID, np.array([1.0, 2.0, 3.0]) + 0j),
        lambda: evaluate(grid_interpolant(), "0.5"),
        lambda: evaluate(grid_interpolant(), b"0.5"),
        lambda: evaluate(grid_interpolant(), [0.5 + 0.5j]),
        lambda: NodeSet(np.array([["0.1"], [0.5]], dtype=object), UNIT_CUBE),
        lambda: NodeSet(np.array([[0.1], [0.5 + 0j]], dtype=object), UNIT_CUBE),
        lambda: fit(KERN, GRID, np.array(["1", 2, 3], dtype=object)),
        lambda: evaluate(grid_interpolant(), np.array([None], dtype=object)),
    ],
    ids=["nodes-str", "nodes-complex", "fill-nodes-str", "values-str", "values-complex",
         "points-str", "points-bytes", "points-complex", "nodes-object-str",
         "nodes-object-complex", "values-object-str", "points-object-none"],
)
def test_array_inputs_that_are_not_real_numbers_are_refused(call):
    # strings were parsed, and complex numbers cut to their real parts with
    # only a ComplexWarning, where the scalar rules refuse both; an object
    # array's entries are held to the scalar rule one by one
    with pytest.raises(InputError, match="must be real numbers"):
        call()


def test_object_arrays_of_real_numbers_are_accepted():
    nodes = NodeSet(np.array([[0.1], [0.5]], dtype=object), UNIT_CUBE)
    assert nodes.points.dtype == float and nodes.points[:, 0].tolist() == [0.1, 0.5]
    assert fit(KERN, GRID, np.array([0.0, 1, 0.0], dtype=object)) is not None


def test_node_set_freezes_its_own_copy():
    # the caller's array stays writable, and writing to it, or to the
    # array it views, moves no node
    for make in (lambda a: a[:, None], lambda a: a.reshape(2, 1)):
        a = np.array([0.1, 0.5])
        nodes = NodeSet(make(a), UNIT_CUBE)
        a[0] = 0.2
        assert a.flags.writeable and not nodes.points.flags.writeable
        assert nodes.points[:, 0].tolist() == [0.1, 0.5]
    a = np.array([[0.1], [0.5]])
    nodes = NodeSet(a, UNIT_CUBE)
    a[0, 0] = 0.2
    assert nodes.points[:, 0].tolist() == [0.1, 0.5]


class TestFit:
    def test_single_node(self):
        k = Kernel(c=1.0, beta=-1.0, n=1)
        nodes = NodeSet(points=np.array([[0.3]]), cube=(np.zeros(1), 1.0))
        interp = fit(k, nodes, [2.5])
        assert interp.kernel_coeffs[0] == pytest.approx(
            2.5 / k.radial(0.0), rel=1e-14
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
        kern = Kernel(c=0.5, beta=3.0, n=2)
        with pytest.raises(InputError, match="unisolvent for the degree-1 polynomial tail"):
            fit(kern, nodes, np.ones(8))
        assert condition_estimate(kern, nodes) == math.inf

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 2)])
    def test_fewer_nodes_than_tail_terms_are_not_unisolvent(self, n, count):
        # beta = 3 has n + 1 tail terms, which fewer nodes cannot pin down,
        # and its saddle is singular
        pts = np.linspace(0.2, 0.8, count * n).reshape(count, n)
        nodes = NodeSet(points=pts, cube=(np.zeros(n), 1.0))
        kern = Kernel(c=0.5, beta=3.0, n=n)
        with pytest.raises(InputError, match="unisolvent"):
            fit(kern, nodes, np.ones(count))
        assert condition_estimate(kern, nodes) == math.inf

    def test_exactly_singular_system(self):
        # the squared distances vanish below the ulp of c^2, so every
        # kernel entry collapses to the same number; for beta > 0 the
        # kernel block on the null space of P^T is not positive definite,
        # and the LU that takes over meets an exactly zero pivot
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

    ROUTINES = ("dpotrf", "dpotrs", "dgetrf", "dgetrs")

    @staticmethod
    def count_lapack_calls(monkeypatch, names=ROUTINES):
        """Count the calls of the named factor and solve routines at the
        layer that every LAPACK call goes through, and the dpotrf calls
        that report a breakdown (info > 0)."""
        lapack = _linalg()
        calls = dict.fromkeys(names, 0)
        failed = {"dpotrf": 0}
        for name in calls:
            real = getattr(lapack, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                out = _real(*args, **kwargs)
                if _name in failed and out > 0:
                    failed[_name] += 1
                return out

            monkeypatch.setattr(lapack, name, counted)
        return calls, failed

    def test_one_factorization_one_solve(self, monkeypatch):
        calls, _ = self.count_lapack_calls(monkeypatch)
        nodes = perturbed_grid_2d(np.random.default_rng(3), 5)
        interp = fit(Kernel(c=1.0, beta=3.0, n=2), nodes, np.ones(nodes.count))
        # one solve of the data and one of the q polynomial columns that
        # the condition estimate reads
        assert calls == {"dpotrf": 1, "dpotrs": 2, "dgetrf": 0, "dgetrs": 0}
        assert interp.factorization == "cholesky"

    def test_positive_definite_system_takes_cholesky(self, monkeypatch):
        calls, failed = self.count_lapack_calls(monkeypatch)
        nodes = perturbed_grid_2d(np.random.default_rng(3), 6)
        kern = Kernel(c=0.2, beta=-1.0, n=2)
        interp = fit(kern, nodes, np.cos(nodes.points.sum(axis=1)))
        assert calls == {"dpotrf": 1, "dpotrs": 1, "dgetrf": 0, "dgetrs": 0}
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

    def test_reduced_cholesky_breakdown_falls_back_to_lu(self, monkeypatch):
        # beta = 1 on the nodes above, cond ~3e18-5e19 by the GEMM kernel:
        # the kernel block on the null space of P^T is not positive
        # definite in floating point, and the LU takes the whole saddle
        import scipy.linalg

        nodes = uniform_grid(np.zeros(1), 1.0, 41, 1)
        kern = Kernel(c=20.0, beta=1.0, n=1)
        vals = np.exp(-0.25 * (nodes.points[:, 0] - 0.5) ** 2)
        saddle = _saddle(kern, nodes)[0]
        direct = scipy.linalg.lu_solve(scipy.linalg.lu_factor(saddle), np.append(vals, 0.0))
        calls, failed = self.count_lapack_calls(monkeypatch)
        interp = fit(kern, nodes, vals)
        assert calls == {"dpotrf": 1, "dpotrs": 0, "dgetrf": 1, "dgetrs": 1}
        assert failed == {"dpotrf": 1}
        assert interp.factorization == "lu"
        assert np.array_equal(interp.kernel_coeffs, direct[:-1])
        assert np.array_equal(interp.poly_coeffs, direct[-1:])
        assert condition_estimate(kern, nodes) == interp.condition_estimate

    @pytest.mark.parametrize(
        "n, beta, c, q",
        [(1, 3.0, 1.0, 2), (2, 3.0, 1.0, 3), (2, 5.0, 1.0, 6), (3, 1.0, 3.0, 1)],
    )
    def test_every_tail_is_solved_on_the_null_space(self, n, beta, c, q):
        # Cholesky of the kernel block on the null space of P^T, for q = 2,
        # 3, 6 and 1 polynomial terms, against scipy's LU of the saddle
        import scipy.linalg

        rng = np.random.default_rng(5)
        grid = {1: lambda: perturbed_grid_1d(rng, 30), 2: lambda: perturbed_grid_2d(rng, 8)}
        nodes = grid.get(n, lambda: perturbed_grid_3d(rng, 4))()
        kern = Kernel(c=c, beta=beta, n=n)
        vals = rng.normal(size=nodes.count)
        interp = fit(kern, nodes, vals)
        assert interp.factorization == "cholesky" and len(interp.poly_exponents) == q
        saddle = _saddle(kern, nodes)[0]
        lu = scipy.linalg.lu_factor(saddle)
        cond = np.linalg.cond(saddle, 1)
        eps = np.finfo(float).eps
        direct = scipy.linalg.lu_solve(lu, np.concatenate([vals, np.zeros(q)]))
        x = np.concatenate([interp.kernel_coeffs, interp.poly_coeffs])
        assert np.abs(x - direct).max() <= cond * eps * np.abs(direct).max()
        p, a = saddle[:nodes.count, nodes.count:], interp.kernel_coeffs
        assert np.abs(p.T @ a).max() <= 4.0 * eps * (np.abs(p.T) @ np.abs(a)).max()
        assert cond / 3.0 <= interp.condition_estimate <= 3.0 * cond
        assert interp.condition_estimate == condition_estimate(kern, nodes)
        # a right-hand side with side conditions P^T a = g, g != 0
        b = rng.normal(size=saddle.shape[0])
        direct = scipy.linalg.lu_solve(lu, b)
        x = _factor(kern, nodes, saddle.copy(), b)[0]
        assert np.abs(x - direct).max() <= cond * eps * np.abs(direct).max()

    @pytest.mark.parametrize(
        "beta, count, c, factorization",
        [(-1.0, 11, 0.5, "cholesky"), (-1.0, 41, 20.0, "lu"), (1.0, 11, 0.5, "cholesky")],
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
        [(-1.0, 1.0, "cholesky"), (1.0, 1.0, "cholesky"), (3.0, 1.0, "cholesky"), (-1.0, 30.0, "lu")],
    )
    def test_residuals_against_the_assembled_saddle(self, beta, c, factorization):
        # fit reads its residuals from the triangle the factorization left
        # intact and its copy of the diagonal, by one BLAS dsymv
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
        # residual pass on a factored saddle also where it is not small: the
        # same dsymv on what _factor leaves, at a random x
        factored = _saddle(kern, nodes)[0]
        kind = _factor(kern, nodes, factored, rng.normal(size=x.shape[0]))[3]
        assert kind == factorization
        assert not np.array_equal(np.triu(factored, 1), np.triu(saddle, 1))
        y = rng.normal(size=x.shape[0])
        product = np.zeros_like(y)
        _linalg().dsymv(factored.T, y, product, 0.0)
        error = np.abs(product - saddle @ y)
        assert np.all(error <= 8.0 * eps * (np.abs(saddle) @ np.abs(y)))

    @pytest.mark.parametrize(
        "beta, c, factorization",
        [(-1.0, 1.0, "cholesky"), (1.0, 1.0, "cholesky"), (3.0, 1.0, "cholesky"), (-1.0, 30.0, "lu")],
    )
    def test_factorization_leaves_the_strict_lower_triangle(self, beta, c, factorization):
        # LAPACK consumes the upper triangle and the diagonal, and the
        # residuals read only the strict lower triangle and the copy of the
        # diagonal, while the upper triangle still holds the factor
        rng = np.random.default_rng(13)
        nodes = perturbed_grid_2d(rng, 20)
        kern = Kernel(c=c, beta=beta, n=2)
        saddle = _saddle(kern, nodes)[0]
        factored = saddle.copy()
        b = rng.normal(size=saddle.shape[0])
        x, residual, _, kind = _factor(kern, nodes, factored, b)
        assert kind == factorization
        assert np.array_equal(np.tril(factored, -1), np.tril(saddle, -1))
        assert not np.array_equal(np.triu(factored, 1), np.triu(saddle, 1))
        error = np.abs(residual - np.abs(saddle @ x - b))
        scale = np.abs(saddle) @ np.abs(x) + np.abs(b)
        assert np.all(error <= 8.0 * np.finfo(float).eps * scale)

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


class TestStrands:
    """evaluate's kernel row blocks are dealt to at most _STRANDS strands,
    one per CPU; the strand count may change neither a bit of the output
    nor a failure."""

    @staticmethod
    def outputs(kern, nodes, vals, xs):
        interp = fit(kern, nodes, vals)
        residuals = [interp.node_residual, interp.side_condition_residual]
        return [_saddle(kern, nodes)[0], interp.kernel_coeffs, interp.poly_coeffs, residuals,
                evaluate(interp, xs)]

    @pytest.mark.parametrize(
        "n, beta, c",
        [(2, -1.0, 0.1), (2, 1.0, 0.1), (1, -1.0, 0.01), (1, 1.0, 0.01), (2, 3.0, 0.1)],
    )
    def test_strand_count_changes_no_bit(self, monkeypatch, n, beta, c):
        # 2-D: 400 nodes and 4096 points; 1-D: 641 nodes and 40001 points,
        # whose width does not divide the block
        rng = np.random.default_rng(13)
        if n == 2:
            nodes = perturbed_grid_2d(rng, 20, spacing=0.05)
            xs = rng.uniform(0.0, nodes.cube[1], (4096, 2))
        else:
            nodes = uniform_grid(np.zeros(1), 1.0, 641, 1)
            xs = np.linspace(0.0, 1.0, 40001)[:, None]
        assert _EVAL_BLOCK_ENTRIES % nodes.count
        assert len(list(_row_blocks(len(xs), nodes.count))) >= 3
        kern = Kernel(c=c, beta=beta, n=n)
        vals = np.cos(3.0 * nodes.points.sum(axis=1))
        # the cap is raised so that three strands run
        monkeypatch.setattr(rbf, "_STRANDS", 3)
        runs = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(rbf, "_cpu_count", lambda: cpus)
            runs.append(self.outputs(kern, nodes, vals, xs))
        for run in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], run))

    def test_every_row_is_consumed_once(self, monkeypatch):
        # 1000 rows take 16 blocks of at most 65: the slices are the
        # serial ones, and there are no more strands than blocks (the cap
        # is raised to 64 to see that); a short switch interval
        # interleaves the strands finely
        x = np.linspace(0.0, 1.0, 1000)[:, None]
        kern = Kernel(c=1.0, beta=-1.0, n=1)
        serial = list(_row_blocks(len(x), len(x)))
        with np.errstate(**_BEYOND_RANGE):
            ref = np.concatenate([block.copy() for _, block in _kernel_rows(kern, x, x, serial)])
        monkeypatch.setattr(rbf, "_STRANDS", 64)
        for cpus in (1, 3, 64):
            monkeypatch.setattr(rbf, "_cpu_count", lambda: cpus)
            out = np.full_like(ref, np.nan)
            seen = []

            def consume(rows, block):
                seen.append((rows, threading.current_thread()))
                out[rows] = block

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                _deal_kernel_rows(kern, x, x, consume)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(out, ref)
            assert sum(rows.stop - rows.start for rows, _ in seen) == len(x)
            assert sorted((rows for rows, _ in seen), key=lambda r: r.start) == serial
            assert len({thread for _, thread in seen}) == min(cpus, len(serial))

    def test_strand_count_is_capped_whatever_the_cpu_count(self, monkeypatch):
        x = np.linspace(0.0, 1.0, 1000)[:, None]
        kern = Kernel(c=1.0, beta=-1.0, n=1)
        assert len(list(_row_blocks(len(x), len(x)))) > rbf._STRANDS == 2
        for cpus in (2, 64):
            monkeypatch.setattr(rbf, "_cpu_count", lambda: cpus)
            threads = set()
            _deal_kernel_rows(kern, x, x, lambda rows, block: threads.add(threading.current_thread()))
            assert len(threads) == rbf._STRANDS

    def test_a_failing_strand_raises_in_the_caller_and_leaves_no_thread(self, monkeypatch):
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        x = np.linspace(0.0, 1.0, 1000)[:, None]
        kern = Kernel(c=1.0, beta=-1.0, n=1)

        class Failure(Exception):
            pass

        def consume(rows, block):
            if threading.current_thread() is not threading.main_thread():
                raise Failure(rows.start)

        before = threading.active_count()
        with pytest.raises(Failure):
            _deal_kernel_rows(kern, x, x, consume)
        assert threading.active_count() == before

        def consume_in_the_caller(rows, block):
            if threading.current_thread() is threading.main_thread():
                raise Failure(rows.start)

        with pytest.raises(Failure):
            _deal_kernel_rows(kern, x, x, consume_in_the_caller)
        assert threading.active_count() == before

    def test_one_strand_starts_no_thread(self, monkeypatch):
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        nodes = uniform_grid(np.zeros(1), 1.0, 11, 1)
        interp = fit(Kernel(c=1.0, beta=-1.0, n=1), nodes, np.arange(11.0))
        evaluate(interp, np.linspace(0.0, 1.0, 400)[:, None])
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 1)
        evaluate(interp, np.linspace(0.0, 1.0, 40001)[:, None])
        assert started == []

    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_out_of_range_kernel_warns_in_no_strand(self, monkeypatch, c):
        # numpy's error state is not inherited by a new thread: each strand
        # sets its own, or c^2 overflows, or 1/sqrt(c^2 + 0) divides by
        # zero at a node, with a warning there
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        nodes = uniform_grid(np.zeros(1), 1.0, 300, 1)
        interp = fit(Kernel(c=1.0, beta=-1.0, n=1), nodes, np.ones(nodes.count))
        interp = interp._replace(kernel=Kernel(c=c, beta=-1.0, n=1))
        xs = np.tile(nodes.points, (4, 1))
        assert len(list(_row_blocks(len(xs), nodes.count))) >= 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = evaluate(interp, xs)
        assert not np.isfinite(s).all() if c < 1.0 else (s == 0.0).all()


    @pytest.mark.parametrize("c", [1e200, 1e-200])
    def test_out_of_range_saddle_warns_in_no_strand(self, monkeypatch, c):
        # assembly forms its rows on the strands too: c^2 overflows to a
        # zero matrix, or 1/sqrt(c^2 + 0) divides by zero on the diagonal,
        # and either is a ConditioningError with no warning
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        nodes = uniform_grid(np.zeros(1), 1.0, 300, 1)
        assert len(list(_row_blocks(nodes.count, nodes.count, _EVAL_BLOCK_ENTRIES // 2))) >= 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConditioningError):
                fit(Kernel(c=c, beta=-1.0, n=1), nodes, np.ones(nodes.count))

    @pytest.mark.parametrize("beta", [-1.0, 1.0, 3.0])
    def test_split_factorization_solves_the_saddle(self, beta):
        # the 2 x 2 block Cholesky of a saddle of several row blocks
        # against scipy's LU, as TestFit checks the one-block dpotrf
        import scipy.linalg

        rng = np.random.default_rng(5)
        nodes = perturbed_grid_2d(rng, 20, spacing=0.05)
        kern = Kernel(c=0.1, beta=beta, n=2)
        vals = rng.normal(size=nodes.count)
        interp = fit(kern, nodes, vals)
        saddle = _saddle(kern, nodes)[0]
        assert rbf._split(nodes.count, len(saddle)) is not None
        assert interp.factorization == "cholesky"
        cond = np.linalg.cond(saddle, 1)
        rhs = np.concatenate([vals, np.zeros(len(saddle) - nodes.count)])
        direct = scipy.linalg.lu_solve(scipy.linalg.lu_factor(saddle), rhs)
        x = np.concatenate([interp.kernel_coeffs, interp.poly_coeffs])
        assert np.abs(x - direct).max() <= cond * np.finfo(float).eps * np.abs(direct).max()
        assert cond / 3.0 <= interp.condition_estimate <= 3.0 * cond

    @pytest.mark.parametrize("beta", [-1.0, 1.0])
    def test_split_factorization_under_fine_thread_switching(self, monkeypatch, beta):
        # the strands share the factor, the event that releases the panel
        # and the results; a short switch interval interleaves them
        # finely, and every run still gives the one-strand bits
        nodes = perturbed_grid_2d(np.random.default_rng(13), 20, spacing=0.05)
        kern = Kernel(c=0.1, beta=beta, n=2)
        vals = np.cos(3.0 * nodes.points.sum(axis=1))
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 1)
        ref = fit(kern, nodes, vals)
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [fit(kern, nodes, vals) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            assert np.array_equal(run.kernel_coeffs, ref.kernel_coeffs)
            assert np.array_equal(run.poly_coeffs, ref.poly_coeffs)
            assert run.condition_estimate == ref.condition_estimate

    @staticmethod
    def clustered_nodes(cluster_first):
        # 150 nodes at spacing 1/300 and a cluster of 150 at spacing 1e-6:
        # at c = 0.002 the cluster is flat, and Cholesky breaks down a few
        # rows into it, in A11 where it comes first and in A22 where it
        # comes last (rows 4-5 of the cluster on three GEMM kernels)
        sparse = (np.arange(150) + 0.5) / 300
        dense = 0.75 + 1e-6 * np.arange(150)
        pts = np.concatenate([dense, sparse] if cluster_first else [sparse, dense])
        return NodeSet(points=pts[:, None], cube=(np.zeros(1), 1.0))

    @pytest.mark.parametrize("beta", [-1.0, 1.0])
    @pytest.mark.parametrize("block, factorizations", [("A11", 1), ("A22", 2)])
    def test_block_cholesky_breakdown_falls_back_to_lu(self, monkeypatch, beta, block, factorizations):
        # a breakdown in either diagonal block joins both strands and
        # factors a fresh saddle by scipy's LU, to the bit; a split saddle
        # takes one BLAS thread throughout, and so does scipy's LU here
        import scipy.linalg

        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        nodes = self.clustered_nodes(block == "A11")
        kern = Kernel(c=0.002, beta=beta, n=1)
        vals = np.sin(3.0 * nodes.points[:, 0])
        saddle = _saddle(kern, nodes)[0]
        assert rbf._split(nodes.count, len(saddle)) is not None
        rhs = np.concatenate([vals, np.zeros(len(saddle) - nodes.count)])
        with rbf._strand():
            direct = scipy.linalg.lu_solve(scipy.linalg.lu_factor(saddle), rhs)
        calls, failed = TestFit.count_lapack_calls(monkeypatch)
        before = threading.active_count()
        interp = fit(kern, nodes, vals)
        assert threading.active_count() == before
        assert calls == {"dpotrf": factorizations, "dpotrs": 0, "dgetrf": 1, "dgetrs": 1}
        assert failed == {"dpotrf": 1}
        assert interp.factorization == "lu"
        assert np.array_equal(interp.kernel_coeffs, direct[:nodes.count])
        assert np.array_equal(interp.poly_coeffs, direct[nodes.count:])
        assert condition_estimate(kern, nodes) == interp.condition_estimate

    def test_a_non_finite_entry_below_the_split_is_ill_conditioned(self, monkeypatch):
        # node 250's own kernel entry is NaN: the second strand assembles
        # that row while the first factors A11, and the solve still
        # raises, with estimate inf, and leaves no thread
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        nodes = uniform_grid(np.zeros(1), 1.0, 300, 1)
        node = 250
        assert rbf._split(nodes.count, nodes.count)[0] < node
        poison_own_kernel_entry(monkeypatch, node)
        calls, _ = TestFit.count_lapack_calls(monkeypatch)
        kern = Kernel(c=0.01, beta=-1.0, n=1)
        before = threading.active_count()
        with pytest.raises(ConditioningError, match="numerically singular") as caught:
            fit(kern, nodes, np.ones(nodes.count))
        assert caught.value.condition_estimate == math.inf
        assert threading.active_count() == before
        assert calls["dgetrf"] == 0  # refused before any fallback
        assert condition_estimate(kern, nodes) == math.inf

    def test_one_cpu_factors_a_split_saddle_on_the_caller(self, monkeypatch):
        # the split calls all run, in turn, on the calling thread, which
        # starts no thread: a task handed to a thread would never run
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 1)
        names = ("dpotrf", "dtrsm", "dsyrk", "dgemm", "dpocon", "dpotrs")
        calls, failed = TestFit.count_lapack_calls(monkeypatch, names)
        nodes = perturbed_grid_2d(np.random.default_rng(3), 20)
        for beta in (-1.0, 1.0):
            interp = fit(Kernel(c=0.1, beta=beta, n=2), nodes, np.cos(nodes.points.sum(axis=1)))
            assert interp.factorization == "cholesky"
        # A11 and A22, two panel rows ranges, three tiles, and for beta = 1
        # the polynomial columns' solve besides the data's
        assert calls == {"dpotrf": 4, "dtrsm": 4, "dsyrk": 4, "dgemm": 2, "dpocon": 2, "dpotrs": 3}
        assert failed == {"dpotrf": 0}
        assert started == []

    def test_split_calls_take_one_blas_thread_each(self, monkeypatch):
        # two strands of OpenBLAS's threaded calls would spin against each
        # other: each strand's calls take one BLAS thread, and the caller
        # gets its own count back (with one BLAS thread, trivially)
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        lib, setters = _linalg(), rbf._blas_setters()
        counts = []
        for name in ("dtrsm", "dsyrk", "dgemm", "dpocon"):
            real = getattr(lib, name)

            def counted(*args, _real=real):
                counts.append(TestBlasThreads.read_counts(setters))
                return _real(*args)

            monkeypatch.setattr(lib, name, counted)
        caller = TestBlasThreads.read_counts(setters)
        nodes = perturbed_grid_2d(np.random.default_rng(3), 20)
        fit(Kernel(c=0.1, beta=-1.0, n=2), nodes, np.ones(nodes.count))
        assert TestBlasThreads.read_counts(setters) == caller
        assert len(counts) == 6 and set(counts) == {(1,) * len(setters)}


class TestBlasThreads:
    """fit, evaluate and condition_estimate take one BLAS thread on each
    OpenBLAS the package calls, numpy's and scipy's, in every strand and
    between the strands, and give the caller its counts back."""

    @staticmethod
    def read_counts(setters):
        # a setter returns the previous count, so setting it back reads it
        counts = []
        for set_count in setters:
            counts.append(set_count(1))
            set_count(counts[-1])
        return tuple(counts)

    @staticmethod
    def fake_setters(monkeypatch, counts):
        # one process-wide count per library, as OpenBLAS keeps it
        def setter(k):
            def set_count(count):
                counts[k], previous = count, counts[k]
                return previous

            return set_count

        fakes = tuple(setter(k) for k in range(len(counts)))
        monkeypatch.setattr(rbf, "_blas_setters", lambda: fakes)

    @staticmethod
    def split_nodes():
        nodes = perturbed_grid_2d(np.random.default_rng(3), 20)
        assert rbf._split(nodes.count, nodes.count) is not None
        return nodes

    def calls(self, monkeypatch):
        small = perturbed_grid_2d(np.random.default_rng(3), 5)
        split = self.split_nodes()
        line = np.linspace(0.0, 1.0, 400)
        collinear = NodeSet(np.column_stack([line, 0.5 * line]), (np.zeros(2), 1.0))
        ones = lambda nodes: np.ones(nodes.count)
        interp = fit(Kernel(c=0.5, beta=3.0, n=2), small, np.cos(small.points.sum(axis=1)))
        xs = np.random.default_rng(4).uniform(0.0, small.cube[1], (4096, 2))

        def poisoned_fit():
            poison_own_kernel_entry(monkeypatch, 250)  # below the split
            fit(Kernel(c=0.01, beta=-1.0, n=1), uniform_grid(np.zeros(1), 1.0, 300, 1), np.ones(300))

        return {
            "split fit": lambda: fit(Kernel(c=0.1, beta=1.0, n=2), split, ones(split)),
            "one-block fit": lambda: fit(Kernel(c=0.5, beta=3.0, n=2), small, ones(small)),
            "evaluate": lambda: evaluate(interp, xs),
            "condition_estimate": lambda: condition_estimate(Kernel(c=0.1, beta=-1.0, n=2), split),
            "NaN below the split": poisoned_fit,
            "collinear nodes": lambda: fit(Kernel(c=0.5, beta=3.0, n=2), collinear, ones(collinear)),
        }

    @pytest.mark.parametrize(
        "call, error",
        [("split fit", None), ("one-block fit", None), ("evaluate", None),
         ("condition_estimate", None), ("NaN below the split", ConditioningError),
         ("collinear nodes", InputError)],
    )
    def test_the_caller_gets_its_counts_back(self, monkeypatch, call, error):
        # the caller's count is set to 2, not 1, so that a count left at
        # one thread shows, also where the process runs on one BLAS thread
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        run = self.calls(monkeypatch)[call]
        setters = rbf._blas_setters()
        if not setters:
            pytest.skip("no OpenBLAS with openblas_set_num_threads_local")
        before = [set_count(2) for set_count in setters]
        try:
            if error is None:
                run()
            else:
                with pytest.raises(error):
                    run()
            assert self.read_counts(setters) == (2,) * len(setters)
        finally:
            for set_count, count in zip(setters, before):
                set_count(count)

    def test_every_strand_and_every_serial_call_sees_one_thread(self, monkeypatch):
        # fake setters keep one process-wide count each, as OpenBLAS does;
        # every LAPACK or BLAS routine, every block of squared distances
        # (assembly's and evaluate's strands), every polynomial block and
        # the reduction records the counts it runs under, and on which thread
        counts = [4, 4]
        self.fake_setters(monkeypatch, counts)
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        seen = []

        def spy(owner, name):
            real = getattr(owner, name)

            def spied(*args, **kwargs):
                seen.append((name, tuple(counts), threading.current_thread()))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spied)

        lib = _linalg()
        for name in ("dpotrf", "dpocon", "dpotrs", "dgetrf", "dgecon", "dgetrs", "dtrsm", "dsyrk",
                     "dgemm", "dsymv", "dsyr2", "dsyr2k"):
            spy(lib, name)
        for name in ("_sq_dists", "_poly_matrix", "_reduce"):
            spy(rbf, name)
        split, small = self.split_nodes(), perturbed_grid_2d(np.random.default_rng(3), 5)
        xs = np.random.default_rng(4).uniform(0.0, small.cube[1], (4096, 2))
        runs = {
            "split fit": lambda: fit(Kernel(c=0.1, beta=1.0, n=2), split, np.ones(split.count)),
            "one-block fit": lambda: fit(Kernel(c=0.5, beta=3.0, n=2), small, np.ones(small.count)),
        }
        interp = runs["one-block fit"]()
        runs["evaluate"] = lambda: evaluate(interp, xs)
        runs["strands alone"] = lambda: _deal_kernel_rows(
            Kernel(c=0.1, beta=-1.0, n=2), split.points, split.points, lambda rows, block: None
        )
        for call, run in runs.items():
            seen.clear()
            run()
            assert counts == [4, 4], call
            assert seen and all(under == (1, 1) for _, under, _ in seen), call
            names = {name for name, _, _ in seen}
            threads = {thread for _, _, thread in seen}
            if call == "split fit":
                assert {"dtrsm", "dsyrk", "dgemm", "dsymv", "_reduce"} <= names
                assert len(threads) > 1
            elif call == "one-block fit":
                assert {"dpotrf", "dpocon", "dsymv", "_reduce", "_sq_dists"} <= names
            elif call == "strands alone":  # with no holder around them
                assert "_sq_dists" in names and len(threads) > 1
            else:
                assert {"_sq_dists", "_poly_matrix"} <= names and len(threads) > 1

    def test_overlapping_callers_leave_the_counts_as_they_were(self, monkeypatch):
        # OpenBLAS's count is the process's: thread A enters evaluate, then
        # B does, A leaves first and B last, and the count is back at 4,
        # not at the 1 that B would have seen on entering
        counts = [4]
        self.fake_setters(monkeypatch, counts)
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 1)
        small = perturbed_grid_2d(np.random.default_rng(3), 5)
        interp = fit(Kernel(c=0.5, beta=3.0, n=2), small, np.ones(small.count))
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        poly_matrix = rbf._poly_matrix

        def spied(*args):
            if threading.current_thread().name == "A":
                a_in.set()
                b_in.wait(10.0)
            else:
                b_in.set()
                a_out.wait(10.0)
            return poly_matrix(*args)

        monkeypatch.setattr(rbf, "_poly_matrix", spied)

        def a():
            evaluate(interp, small.points)
            a_out.set()

        def b():
            a_in.wait(10.0)
            evaluate(interp, small.points)

        threads = [threading.Thread(target=a, name="A"), threading.Thread(target=b, name="B")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not any(thread.is_alive() for thread in threads)
        assert a_out.is_set() and counts == [4]

    def test_many_callers_under_fine_switching(self, monkeypatch):
        # four callers of evaluate, each on two strands, on two CPUs, with
        # a short switch interval: every block sees one thread, and the
        # count is back at 4 once they are all done
        counts, seen = [4], []
        self.fake_setters(monkeypatch, counts)
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 2)
        small = perturbed_grid_2d(np.random.default_rng(3), 5)
        interp = fit(Kernel(c=0.5, beta=3.0, n=2), small, np.ones(small.count))
        xs = np.random.default_rng(4).uniform(0.0, small.cube[1], (4096, 2))
        assert len(list(_row_blocks(len(xs), small.count))) >= 2
        sq_dists = rbf._sq_dists

        def spied(*args, **kwargs):
            seen.append(counts[0])
            return sq_dists(*args, **kwargs)

        monkeypatch.setattr(rbf, "_sq_dists", spied)
        callers = [threading.Thread(target=lambda: [evaluate(interp, xs) for _ in range(5)])
                   for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(seen) == 4 * 5 * 2 and set(seen) == {1}
        assert counts == [4]

    def test_one_setter_per_library(self, monkeypatch):
        # numpy's matrix products and scipy's factorizations each reach
        # the setter of their own OpenBLAS; numpy's core extension links the
        # OpenBLAS that its linalg extension does, so standing in for
        # scipy's, it adds no setter
        names = ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath")
        core = next(sys.modules[name] for name in names if name in sys.modules)
        address = lambda f: ctypes.cast(f, ctypes.c_void_p).value
        found = {address(f) for f in rbf._blas_setters()}
        for module in (core, rbf._linalg_extension("cython_lapack")):
            own = getattr(ctypes.CDLL(module.__file__), "openblas_set_num_threads_local", None)
            assert own is None or address(own) in found
        monkeypatch.setattr(rbf, "_linalg_extension", lambda name: core)
        one = rbf._blas_setters.__wrapped__()
        if not one:
            pytest.skip("numpy's BLAS has no openblas_set_num_threads_local")
        assert len(one) == 1

    def test_default_threads_give_the_one_thread_bits(self):
        # fresh processes with and without OPENBLAS_NUM_THREADS=1: 144 2-D
        # nodes (one block, beta = -1 and 3) and 1024 (split, beta = +-1),
        # whose coefficients, residuals, estimates and values at 4096
        # points hash the same; the 144-node fits differed where only the
        # split saddles took one thread
        script = """
import hashlib
import numpy as np
from mqshape import Kernel, NodeSet, condition_estimate, evaluate, fit
rng = np.random.default_rng(601)
for per_side, beta, c in ((12, -1.0, 0.3), (12, 3.0, 0.3), (32, -1.0, 0.2), (32, 1.0, 0.2)):
    spacing = 1.0 / per_side
    base = (np.arange(per_side) + 0.5) * spacing
    pts = np.stack(np.meshgrid(base, base, indexing="ij"), axis=-1).reshape(-1, 2)
    nodes = NodeSet(pts + 0.3 * spacing * rng.uniform(-1.0, 1.0, pts.shape), (np.zeros(2), 1.0))
    kern = Kernel(c=c, beta=beta, n=2)
    interp = fit(kern, nodes, np.exp(-8.0 * ((nodes.points - 0.5) ** 2).sum(axis=1)))
    outputs = [interp.kernel_coeffs, interp.poly_coeffs, interp.node_residual,
               interp.side_condition_residual, interp.condition_estimate,
               condition_estimate(kern, nodes), evaluate(interp, rng.uniform(0.0, 1.0, (4096, 2)))]
    print(per_side, beta, c, interp.factorization,
          hashlib.sha256(b"".join(np.asarray(o, dtype=float).tobytes() for o in outputs)).hexdigest())
"""
        src = str(rbf.__file__).rsplit(os.sep, 2)[0]
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        out = []
        for threads in ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}):
            env = dict(base, PYTHONPATH=path, **threads)
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            out.append(proc.stdout)
        assert len(out[0].splitlines()) == 4
        assert out[0] == out[1]


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

    @pytest.mark.parametrize("beta", [-1.0, 1.0, 3.0])
    def test_fit_holds_one_saddle_whatever_the_cpu_count(self, monkeypatch, beta):
        # the assembly strands are capped as evaluate's are, and each adds
        # only its half-block scratch
        monkeypatch.setattr(rbf, "_cpu_count", lambda: 64)
        self.test_fit_holds_one_saddle(beta)

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
                for _ in _kernel_rows(kern, x, x, list(_row_blocks(len(x), len(x)))):
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

    def test_evaluate_peak_does_not_grow_with_cpus(self, monkeypatch):
        # the bound above with 64 CPUs in the mask, where 4096 points take
        # 40 blocks and 40000 take 385: a strand per CPU would hold ~1.06
        # MB more for each extra strand; and 64 CPUs hold no more than two
        rng = np.random.default_rng(4)
        nodes = perturbed_grid_2d(rng, 25)
        interp = fit(Kernel(c=1.0, beta=-1.0, n=2), nodes, rng.normal(size=nodes.count))
        small, large = (rng.uniform(0.0, nodes.cube[1], (k, 2)) for k in (4096, 40000))
        peaks = {}
        for cpus in (2, 64):
            monkeypatch.setattr(rbf, "_cpu_count", lambda: cpus)
            peaks[cpus] = [self.peak_bytes(lambda: evaluate(interp, xs)) for xs in (small, large)]
        assert peaks[64][1] - peaks[64][0] <= 32 * (len(large) - len(small))
        assert peaks[64][1] <= peaks[2][1] + 8 * _EVAL_BLOCK_ENTRIES // 4


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
        # beta < 0 checks the dpocon estimate; beta = 1 checks dpocon on the
        # reduced block together with the saddle's polynomial columns
        assert interp.factorization == "cholesky"

    @pytest.mark.parametrize(
        "beta, c, seed, factorization",
        [(-1.0, 0.2, 3, "cholesky"), (1.0, 0.2, 601, "cholesky"), (-1.0, 3.0, 3, "lu")],
    )
    def test_estimate_does_not_follow_the_heap(self, beta, c, seed, factorization):
        # the estimators' work arrays sit at a 64-byte boundary; at the
        # addresses that malloc gave them, rcond's last bits followed the
        # address modulo 64, and so whatever was allocated before the call
        # (on the Cholesky saddles, work arrays 16, 32 and 48 bytes past
        # the boundary moved the estimate by an ulp or two)
        nodes = perturbed_grid_2d(np.random.default_rng(seed), 32, spacing=1.0 / 32)
        kern = Kernel(c=c, beta=beta, n=2)
        vals = np.cos(nodes.points.sum(axis=1))
        estimate = condition_estimate(kern, nodes)
        held = []
        for i in range(20):
            held.append(np.empty(97 * i + 13))
            interp = fit(kern, nodes, vals)
            assert interp.condition_estimate == estimate
        assert interp.factorization == factorization

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
        assert interp.nodes is nodes and interp.factorization == "cholesky"
        with pytest.raises(AttributeError):
            interp.node_residual = 0.0
        assert repr(interp).startswith("Interpolant(") and "condition_estimate=" in repr(interp)
