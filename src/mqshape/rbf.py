"""Multiquadric kernel interpolation with polynomial side conditions.

The kernel is h(x) = Gamma(-beta/2) (c^2 + |x|^2)^(beta/2).  The
prefactor Gamma(-beta/2) comes from :func:`math.gamma`; a pole (beta a
nonnegative even integer) or an overflow (beta below about -343) is a
:class:`SpecError`, and so are a dimension n that is not an integer
>= 1 and a shape parameter c that is not a positive finite real, by the
rules of :mod:`mqshape.constants`.  A finite c so large that c^2 or the
kernel values overflow gives infinite or zero matrix entries, which the
solve reports as a :class:`ConditioningError`.  For beta > 0 the kernel is
conditionally positive definite of order m = ceil(beta/2) and the
interpolant carries a polynomial tail of degree m - 1 plus moment side
conditions on the kernel coefficients; for beta < 0 the tail is empty.
The system is factored once and solved once, in place: the saddle is
bitwise symmetric, so its transpose is the same matrix in LAPACK's column
order, and LAPACK overwrites it without the transposing copy that a
row-ordered argument costs.  For beta < 0 the kernel matrix is positive
definite (Gamma(-beta/2) > 0), so it is factored by Cholesky; where
Cholesky breaks down, the matrix is not positive definite in floating
point (cond * eps >~ 1, the large-c regime) and a copy of it is factored
by a partially pivoted LU instead.  Every beta > 0 saddle is indefinite
and is factored by a symmetric indefinite LDL^T (Bunch-Kaufman pivoting:
Bunch & Kaufman, *Math. Comp.* 31 (1977) 163-179), at half the LU's
flops.  :attr:`Interpolant.factorization` records which.  That one
factorization also gives the 1-norm condition estimate of the whole
saddle (LAPACK ``dpocon``, ``dsycon`` or ``dgecon``, the Hager/Higham
estimator: Higham, *Accuracy and Stability of Numerical Algorithms*,
ch. 15).  Cholesky and LDL^T overwrite one triangle and the diagonal, so
:func:`_factor` keeps a copy of the diagonal and forms the residuals of
:func:`fit` from it and the other triangle: the system is held once.  The
LAPACK routines are called directly from scipy's f2py extension
``scipy.linalg._flapack``, which is loaded on the first factorization
without the ``scipy.linalg`` package (:func:`_lapack`), so the criterion
and optimizer never load scipy and a fit loads only that one extension.

Distances are taken per axis on coordinates centred on the node cube, so
an offset cube loses no digits to cancellation.  The polynomial tail is
built in the same frame, scaled to [-1, 1]^n, so its coefficients refer
to the cube and not to the origin.

Every scan over a matrix of distances or kernel values runs in row
blocks of at most ``_EVAL_BLOCK_ENTRIES`` entries, by one rule
(:func:`_row_blocks`).  Kernel values are formed in place, one row block
at a time (:func:`_kernel_rows`): the
squared distances (each coordinate difference one exact K = 2 matrix
product, :func:`_sq_dists`), then + c^2, then the power
(``sqrt`` for beta = 1, ``sqrt`` and a reciprocal for beta = -1, ``pow``
otherwise), then the factor Gamma(-beta/2).  Assembly forms each block
in one contiguous buffer, with blocks of half the size so that the
buffer and its scratch add no more than one full block would, and copies
it into the one saddle matrix it allocates, whose kernel rows are strided
for beta > 0.  :func:`evaluate` reuses one block buffer and applies the factor
once per evaluation point, so its memory does not grow with the number
of evaluation points.

The fill distance of a node set in its cube, the one property of the
nodes that the error bound depends on, is measured by a nearest-node
scan over a tensor grid (:func:`fill_distance`), in the same row blocks
and from the same squared distances, that skips the nodes too far along
the first axis to be nearest; it is exact, needs no spatial index and,
like the rest of the package apart from the linear solve, no scipy.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from typing import List, NamedTuple, Tuple, Union

import numpy as np

from .constants import (
    _is_count, _Record, _require_positive_c, _validate_beta, _validate_dimension, cpd_order
)
from .errors import ConditioningError, InputError, SpecError

__all__ = [
    "Kernel",
    "NodeSet",
    "Interpolant",
    "kernel_eval",
    "poly_basis",
    "fit",
    "evaluate",
    "condition_estimate",
    "uniform_grid",
    "fill_distance",
]

# Entries per row block of _row_blocks(), the one blocking rule of every
# scan over a matrix of distances or kernel values: assembly and evaluate()
# (through _kernel_rows()), fill_distance(), and the norm, copy and product
# passes of _factor().  Each block is 512 KiB, so its working set stays in
# a core's L2 cache and memory does not grow with the number of evaluation
# points.
_EVAL_BLOCK_ENTRIES = 1 << 16

# Kernel values beyond double range are inf (or 0 for beta < 0): c^2 may
# overflow or underflow, and (c^2 + r^2)^(beta/2) may divide by zero.  The
# solve reports such entries as ill-conditioning, so they raise nothing.
_BEYOND_RANGE = dict(over="ignore", under="ignore", divide="ignore")


class Kernel(_Record):
    """Multiquadric kernel h(x) = Gamma(-beta/2) (c^2 + |x|^2)^(beta/2);
    ``gamma_factor`` is the prefactor Gamma(-beta/2)."""

    __slots__ = ("c", "beta", "n", "gamma_factor")

    def __init__(self, c: float, beta: float, n: int):
        c = _require_positive_c(c)
        beta = _validate_beta(beta)  # the poles of Gamma(-beta/2) are refused
        _validate_dimension(n)
        try:
            g = math.gamma(-beta / 2.0)
        except OverflowError:
            g = math.inf
        if not math.isfinite(g):
            raise SpecError(
                f"beta={beta:g} makes the kernel prefactor non-finite"
            )
        self._set(c, beta, n, g)

    def radial(self, r2):
        """Kernel value as a function of squared distance (array-friendly).
        Values beyond double range are inf (or 0 for beta < 0), never an
        exception or a warning: the solve reports them as ill-conditioning."""
        t = np.array(r2, dtype=float)
        with np.errstate(**_BEYOND_RANGE):
            self._power(t)
            t *= self.gamma_factor
        return t[()]  # a scalar for a scalar r2

    def _power(self, t: np.ndarray) -> np.ndarray:
        """t <- (c^2 + t)^(beta/2) in place, for squared distances t; run
        under ``np.errstate(**_BEYOND_RANGE)``.  numpy's ``pow`` has no
        fast path for the exponent -1/2, so beta = -1 takes sqrt and a
        reciprocal: two correctly rounded steps, within 2 ulp of ``pow``."""
        t += np.float64(self.c) ** 2
        if self.beta == 1.0:
            np.sqrt(t, out=t)
        elif self.beta == -1.0:
            np.sqrt(t, out=t)
            np.divide(1.0, t, out=t)
        else:
            np.power(t, self.beta / 2.0, out=t)
        return t


def kernel_eval(kernel: Kernel, x) -> float:
    """Evaluate the kernel at offset x (an n-vector)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (kernel.n,):
        raise InputError(f"expected an offset of shape ({kernel.n},), got {x.shape}")
    return float(kernel.radial(float(np.dot(x, x))))


def _points(points) -> np.ndarray:
    """``points`` as a float array, checked by :class:`NodeSet`'s rule: a
    nonempty (N, n) array of finite coordinates (:class:`InputError`)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.size == 0:
        raise InputError("node set must be a nonempty (N, n) array")
    if not np.isfinite(pts).all():
        raise InputError("node coordinates must be finite")
    return pts


def _point_batch(x, n: int) -> Tuple[np.ndarray, bool]:
    """(points, one) for ``x``, one point or a (k, n) batch of them: the
    points as a (k, n) float array, and whether ``x`` is one point, a
    scalar or an n-vector, whose value is a float rather than an array.
    Any other shape raises :class:`InputError`."""
    pts = np.asarray(x, dtype=float)
    batch = np.atleast_2d(pts)
    if batch.ndim > 2 or batch.shape[1] != n:
        raise InputError(
            f"evaluation points must be one point of dimension {n} or a (k, {n}) batch, "
            f"got shape {pts.shape}"
        )
    return batch, pts.ndim < 2


def _cube(cube, n: int) -> Tuple[np.ndarray, float]:
    """(corner, side) of ``cube`` as a float array and a float, checked by
    :class:`NodeSet`'s rule: an n-vector corner and a positive side, all
    finite (:class:`InputError`)."""
    corner = np.asarray(cube[0], dtype=float).reshape(-1)
    side = float(cube[1])
    if corner.shape[0] != n:
        raise InputError(
            f"cube corner dimension {corner.shape[0]} does not match node dimension {n}"
        )
    if not side > 0.0:
        raise InputError(f"cube side must be positive, got {side}")
    if not (np.isfinite(corner).all() and math.isfinite(side)):
        raise InputError("cube corner and side must be finite")
    return corner, side


class NodeSet(_Record):
    """Pairwise-distinct centers inside an axis-aligned cube.

    ``cube`` is (corner, side): the cube spans corner + [0, side]^n.
    ``points`` and the corner are read-only float arrays.
    """

    __slots__ = ("points", "cube")

    def __init__(self, points, cube: Tuple[np.ndarray, float]):
        pts = _points(points)
        corner, side = _cube(cube, pts.shape[1])
        slack = 1e-12 * max(side, 1.0)
        if (pts < corner - slack).any() or (pts > corner + side + slack).any():
            raise InputError("all nodes must lie inside the cube")
        # equal rows are adjacent once sorted; -0.0 == 0.0 as for distances
        ordered = pts[np.lexsort(pts.T[::-1])]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise InputError("node set contains duplicate points")
        pts.setflags(write=False)
        corner.setflags(write=False)
        self._set(pts, (corner, side))

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def uniform_grid(corner, side: float, per_side: int, n: int) -> NodeSet:
    """Uniform tensor grid of per_side^n nodes filling the cube."""
    if not _is_count(per_side, 1):
        raise InputError(f"per_side must be an integer >= 1, got {per_side!r}")
    corner, side = _cube((corner, side), _validate_dimension(n))
    return NodeSet(points=_tensor_grid(corner, side, per_side, n), cube=(corner, side))


def _tensor_grid(corner: np.ndarray, side: float, per_side: int, n: int) -> np.ndarray:
    """The per_side^n points of the tensor grid on the cube, endpoints
    included, one row per point with the last axis varying fastest."""
    axes = [np.linspace(corner[i], corner[i] + side, per_side) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def fill_distance(
    cube: Tuple, nodes: Union[NodeSet, np.ndarray], grid_per_side: int
) -> float:
    """Approximate worst-case distance from the cube to the node set.

    Maximizes the nearest-node distance over a uniform tensor grid with
    grid_per_side points per axis (endpoints included), converging to the
    true supremum from below as the grid refines.  The grid is scanned in
    the row blocks of :func:`_row_blocks`, as :func:`evaluate` scans its
    points, so memory stays bounded.  The nodes are sorted by their
    first coordinate, and a block scans only the nodes within a radius r
    of its first-coordinate range, r an upper bound on every nearest-node
    distance in the block: a node farther than r along that axis cannot be
    nearest, so the result equals that of an exhaustive scan.  r is the
    previous block's largest nearest-node distance; a block whose own
    largest exceeds it is scanned again with that larger radius.

    The cube and raw node arrays are checked by :class:`NodeSet`'s rules
    (:class:`InputError`), but the nodes need not lie inside the cube.
    """
    if not _is_count(grid_per_side, 2):
        raise InputError(f"grid_per_side must be an integer >= 2, got {grid_per_side!r}")
    pts = nodes.points if isinstance(nodes, NodeSet) else _points(nodes)
    corner, side = _cube(cube, pts.shape[1])
    grid = _tensor_grid(corner, side, grid_per_side, pts.shape[1])

    rhs = _difference_rhs(pts[np.argsort(pts[:, 0], kind="stable")])
    keys = rhs[0, 0]
    lhs = np.ones((next(_row_blocks(grid.shape[0], len(keys))).stop, 2))

    def nearest_sq(block: np.ndarray, radius: float) -> np.ndarray:
        lo, hi = block[:, 0].min(), block[:, 0].max()
        # relative slack so that rounding in the window bounds never drops
        # a node that could be nearest; a wider window only costs time
        pad = radius * (1.0 + 1e-12) + 1e-12 * (abs(lo) + abs(hi))
        i = np.searchsorted(keys, lo - pad, side="left")
        j = np.searchsorted(keys, hi + pad, side="right")
        if i == j:  # no node within the radius: scan them all
            i, j = 0, len(keys)
        return _sq_dists(block, rhs[:, :, i:j], lhs=lhs[:len(block)]).min(axis=1)

    radius = math.inf
    worst_sq = 0.0
    for rows in _row_blocks(grid.shape[0], len(keys)):
        block = grid[rows]
        block_sq = nearest_sq(block, radius).max()
        if math.sqrt(block_sq) > radius:
            block_sq = nearest_sq(block, math.sqrt(block_sq)).max()
        radius = math.sqrt(block_sq)
        worst_sq = max(worst_sq, block_sq)
    return math.sqrt(worst_sq)


def _difference_rhs(y: np.ndarray) -> np.ndarray:
    """The (n, 2, M) right-hand sides [y_a; -1], one per axis a, of the
    products that :func:`_sq_dists` forms its coordinate differences with,
    for the M rows of y, an (M, n) array."""
    rhs = np.empty((y.shape[1], 2, y.shape[0]))
    rhs[:, 0] = y.T
    rhs[:, 1] = -1.0
    return rhs


def _sq_dists(x: np.ndarray, rhs: np.ndarray, out=None, diff=None, lhs=None) -> np.ndarray:
    """Squared distances between the rows of x, a (k, n) array, and the M
    points of ``rhs``, their :func:`_difference_rhs`.  They are summed axis
    by axis from coordinate differences: the |x|^2 - 2 x.y + |y|^2 form
    would cancel badly when the points are far from the origin.  Each
    difference y_a - x_a is the K = 2 matrix product [1, x_a] @ [y_a; -1].
    Both of its products are exact, since each multiplies by 1 or -1, and
    their sum is rounded once whatever order or fused multiply-add the
    BLAS kernel takes, so it equals the subtraction to the bit, overflow
    and infinities included.  One product per axis, with no zero padding,
    keeps 0 * inf out; it runs faster than the broadcast subtraction.
    Every entry sums its axes in the same order, so the distances from a
    point set to itself are symmetric to the bit.
    ``out`` receives the result, ``diff`` is scratch for the second and
    later axes and ``lhs`` is (k, 2) scratch whose first column is ones;
    each is allocated when not given."""
    shape = (x.shape[0], rhs.shape[2])
    d2 = np.empty(shape) if out is None else out
    if lhs is None:
        lhs = np.ones((x.shape[0], 2))
    lhs[:, 1] = x[:, 0]
    np.matmul(lhs, rhs[0], out=d2)
    np.square(d2, out=d2)
    if diff is None and x.shape[1] > 1:
        diff = np.empty(shape)
    for axis in range(1, x.shape[1]):
        lhs[:, 1] = x[:, axis]
        np.matmul(lhs, rhs[axis], out=diff)
        np.square(diff, out=diff)
        d2 += diff
    return d2


def _row_blocks(count: int, width: int, entries: int = _EVAL_BLOCK_ENTRIES):
    """The slices of ``count`` rows of ``width`` entries each, in order,
    that hold at most ``entries`` entries each, or one row each when a row
    alone holds more: a temporary of all the rows would be page-faulted
    in anew on every call.  Every slice but the last has the length of
    the first, so a consumer sizes its buffers from that one."""
    step = max(1, entries // width)
    for start in range(0, count, step):
        yield slice(start, min(start + step, count))


def _kernel_rows(kernel: Kernel, x: np.ndarray, y: np.ndarray, entries=_EVAL_BLOCK_ENTRIES):
    """Yield (rows, block) for each row block of x (:func:`_row_blocks`
    with ``entries``): ``block`` holds (c^2 + |x_i - y_j|^2)^(beta/2)
    for the rows ``rows`` of x and every row of y, without the factor
    Gamma(-beta/2).  The blocks are one contiguous buffer that every
    block reuses: each fresh 512 KiB array would be page-faulted in
    anew, and numpy's in-place steps run at half speed on rows strided
    within a wider matrix.  y's
    :func:`_difference_rhs` is built once, and so is the (rows, 2)
    left-hand side of :func:`_sq_dists`; the scratch for the second and
    later axes is allocated only for n > 1.
    Run it under ``np.errstate(**_BEYOND_RANGE)``."""
    count, width = x.shape[0], y.shape[0]
    rhs = _difference_rhs(y)
    shape = (next(_row_blocks(count, width, entries), slice(0, 0)).stop, width)
    buffer = np.empty(shape)
    diff = np.empty(shape) if x.shape[1] > 1 else None
    lhs = np.ones((shape[0], 2))
    for rows in _row_blocks(count, width, entries):
        size = rows.stop - rows.start
        block = buffer[:size]
        _sq_dists(
            x[rows], rhs, out=block, diff=None if diff is None else diff[:size], lhs=lhs[:size]
        )
        yield rows, kernel._power(block)


def _centred(nodes: NodeSet, x: np.ndarray) -> np.ndarray:
    """x relative to the centre of the node cube."""
    corner, side = nodes.cube
    return x - (corner + 0.5 * side)


def poly_basis(m: int, n: int) -> List[Tuple[int, ...]]:
    """Monomial exponent tuples spanning polynomials of degree <= m - 1.

    Graded lexicographic order; empty for m = 0 (no polynomial tail).
    """
    if m < 0:
        raise SpecError(f"order must be >= 0, got {m}")
    _validate_dimension(n)
    basis: List[Tuple[int, ...]] = []

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in compositions(total - head, parts - 1):
                yield (head,) + tail

    for degree in range(m):
        basis.extend(compositions(degree, n))
    return basis


def _poly_matrix(exponents, nodes: NodeSet, x: np.ndarray) -> np.ndarray:
    """Monomials at the rows of x in the cube frame: coordinates centred
    on the node cube and scaled to [-1, 1]^n."""
    pts = _centred(nodes, x) / (0.5 * nodes.cube[1])
    q = len(exponents)
    p = np.ones((pts.shape[0], q))
    for j, expo in enumerate(exponents):
        for axis, power in enumerate(expo):
            if power:
                p[:, j] *= pts[:, axis] ** power
    return p


class Interpolant(NamedTuple):
    """Fitted interpolant: kernel part plus optional polynomial tail,
    whose ``poly_coeffs`` act on cube-frame coordinates (:func:`_poly_matrix`)."""

    kernel: Kernel
    nodes: NodeSet
    kernel_coeffs: np.ndarray
    poly_coeffs: np.ndarray
    poly_exponents: Tuple[Tuple[int, ...], ...]
    side_condition_residual: float
    node_residual: float
    condition_estimate: float
    factorization: str  # "cholesky", "ldl" or "lu", see _factor()


def _lapack():
    """scipy's f2py LAPACK extension, ``scipy.linalg._flapack``.  It is
    loaded from its file and registered under its own name, which skips
    ``scipy/linalg/__init__.py``: that package costs ~0.25 s a process
    (its array-API layer imports ``numpy.testing`` and ``numpy.f2py``),
    against ~25 ms for ``import scipy`` and the extension.  A module
    already in ``sys.modules`` is reused, and a later ``import scipy.linalg``
    finds this one, so a process holds one copy either way.  Where the
    extension is not a file on scipy's path, the package imports it."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy  # scipy's own start-up checks run; scipy.linalg's do not

    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "linalg")]
    )
    if spec is None:
        from scipy.linalg import _flapack

        return _flapack
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _factor(matrix: np.ndarray, positive_definite: bool):
    """(solve, cond, factorization, product) for a bitwise symmetric
    matrix A, which it consumes: ``solve(b)`` solves A x = b from one
    factorization, cond is the 1-norm condition estimate ||A||_1 / rcond
    with rcond from LAPACK on those same factors, factorization names
    them and ``product(x)`` is A @ x (:func:`_symmetric_product`).

    ``matrix.T`` is column-major and, A being symmetric, equal to A, so
    LAPACK factors it in place, with no transposing copy.  A matrix known
    to be positive definite is factored by Cholesky (``dpotrf``,
    ``dpocon``); where that breaks down (``info > 0``), A is not positive
    definite in floating point, and a copy of it, rebuilt from the intact
    triangle, is factored by a partially pivoted LU (``dgetrf``,
    ``dgecon``).  Any other matrix is factored by the symmetric indefinite
    LDL^T (``dsytrf``, ``dsycon``).  Cholesky and LDL^T overwrite the lower
    triangle and the diagonal of ``matrix`` and leave its strict upper
    triangle as it was; the one copy of the diagonal taken beforehand
    and that triangle give A back, to the LU and to ``product``.  An
    exactly singular matrix estimates inf; non-finite entries raise
    :class:`ConditioningError` with estimate inf.  The Cholesky and LU
    calls and their arguments are those of scipy.linalg's ``cho_factor``,
    ``cho_solve``, ``lu_factor`` and ``lu_solve`` without the finiteness
    checks, so the factors and solutions are theirs to the bit."""
    lapack = _lapack()
    size = matrix.shape[0]
    # ||A||_1, the largest column sum of |A|, a row block at a time
    col_sums = sum(np.abs(matrix[rows]).sum(axis=0) for rows in _row_blocks(size, size))
    anorm = float(col_sums.max())  # a NaN or inf entry propagates here
    if not math.isfinite(anorm):
        message = "saddle system is numerically singular (cond ~ inf)"
        raise ConditioningError(message, condition_estimate=math.inf)
    diagonal = matrix.diagonal().copy()
    product = lambda x: _symmetric_product(matrix, diagonal, x)
    if not positive_definite:
        lwork, _ = lapack.dsytrf_lwork(size)  # the default runs unblocked
        ldl, ipiv, info = lapack.dsytrf(matrix.T, lwork=int(lwork), overwrite_a=1)
        # info > 0 is an exactly zero pivot, which dsycon estimates as inf
        rcond, info = lapack.dsycon(ldl, ipiv, anorm)
        solve = lambda b: lapack.dsytrs(ldl, ipiv, b)[0]
        return solve, _from_rcond(rcond, info), "ldl", product
    # LAPACK's upper triangle is the lower one of ``matrix``; clean=0, as
    # in cho_factor, leaves the other triangle as it was
    factor, info = lapack.dpotrf(matrix.T, clean=0, overwrite_a=1)
    if info == 0:
        rcond, info = lapack.dpocon(factor, anorm)
        solve = lambda b: lapack.dpotrs(factor, b)[0]
        return solve, _from_rcond(rcond, info), "cholesky", product
    # the LU overwrites all of its matrix, and product still reads the
    # strict upper triangle of this one
    lu, piv, info = lapack.dgetrf(_symmetric_copy(matrix, diagonal).T, overwrite_a=1)
    # info > 0 is an exactly zero pivot, which estimates inf
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    solve = lambda b: lapack.dgetrs(lu, piv, b)[0]
    return solve, _from_rcond(rcond, info), "lu", product


def _from_rcond(rcond: float, info: int) -> float:
    """The condition estimate 1/rcond from a LAPACK estimator's output."""
    return 1.0 / rcond if info == 0 and rcond > 0.0 else math.inf


def _cond1(matrix: np.ndarray, positive_definite: bool = False) -> float:
    """The 1-norm condition estimate of a symmetric matrix, which it
    consumes (:func:`_factor`); inf for non-finite entries."""
    try:
        return _factor(matrix, positive_definite)[1]
    except ConditioningError:
        return math.inf


def _diagonal_block(upper: np.ndarray, diagonal: np.ndarray, rows: slice) -> np.ndarray:
    """The symmetric block A[rows, rows] of the matrix A whose strict upper
    triangle is that of ``upper`` and whose diagonal is ``diagonal``."""
    strict = np.triu(upper[rows, rows], 1)
    block = strict + strict.T
    np.fill_diagonal(block, diagonal[rows])
    return block


def _symmetric_copy(upper: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose strict upper triangle is that of
    ``upper`` and whose diagonal is ``diagonal``, built a row block at a
    time: every entry is copied, so it equals the original to the bit."""
    full = np.empty_like(upper)
    for rows in _row_blocks(*upper.shape):
        full[rows, :rows.start] = upper[:rows.start, rows].T
        full[rows, rows] = _diagonal_block(upper, diagonal, rows)
        full[rows, rows.stop:] = upper[rows, rows.stop:]
    return full


def _symmetric_product(upper: np.ndarray, diagonal: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for the symmetric A whose strict upper triangle is that of
    ``upper`` and whose diagonal is ``diagonal``, a row block at a time:
    each block's part right of the diagonal serves its own rows and,
    transposed, the rows below it."""
    y = np.zeros_like(x)
    for rows in _row_blocks(*upper.shape):
        right = upper[rows, rows.stop:]
        y[rows] += _diagonal_block(upper, diagonal, rows) @ x[rows] + right @ x[rows.stop:]
        y[rows.stop:] += right.T @ x[rows]
    return y


def _saddle(kernel: Kernel, nodes: NodeSet):
    """(saddle matrix, exponents) of the interpolation system on
    ``nodes``: [[A, P], [P^T, 0]], with A the kernel matrix and P the
    polynomial block.  It is bitwise symmetric."""
    if kernel.n != nodes.dim:
        raise InputError(
            f"kernel dimension {kernel.n} does not match node dimension {nodes.dim}"
        )
    exponents = tuple(poly_basis(cpd_order(kernel.beta), nodes.dim))
    count, q = nodes.count, len(exponents)
    saddle = np.empty((count + q, count + q))
    centred = _centred(nodes, nodes.points)
    # form each block in a contiguous buffer and copy it in: numpy's
    # in-place steps run at half speed on rows strided within the saddle
    # (beta > 0); the buffer and its scratch take half a block each
    with np.errstate(**_BEYOND_RANGE):
        blocks = _kernel_rows(kernel, centred, centred, entries=_EVAL_BLOCK_ENTRIES // 2)
        for rows, block in blocks:
            np.multiply(block, kernel.gamma_factor, out=saddle[rows, :count])
    p = _poly_matrix(exponents, nodes, nodes.points)
    saddle[:count, count:] = p
    saddle[count:, :count] = p.T
    saddle[count:, count:] = 0.0
    return saddle, exponents


def fit(kernel: Kernel, nodes: NodeSet, values) -> Interpolant:
    """Solve the interpolation saddle system for the given data.

    The system is [[A, P], [P^T, 0]] [coef; poly] = [values; 0] with
    A the kernel matrix and P the polynomial block.  It is held once:
    :func:`_factor` factors it in place and forms the products the
    residuals are read from.  Raises :class:`InputError` for mismatched
    or non-finite data or a node set that cannot determine the
    polynomial tail, and :class:`ConditioningError` for non-finite
    system entries or coefficients (expected behaviour for very large c).
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    n_nodes = nodes.count
    if values.shape[0] != n_nodes:
        raise InputError(
            f"got {values.shape[0]} values for {n_nodes} nodes"
        )
    if not np.isfinite(values).all():
        raise InputError("data values must be finite")

    saddle, exponents = _saddle(kernel, nodes)
    q = len(exponents)
    if q:
        svals = np.linalg.svd(saddle[:n_nodes, n_nodes:], compute_uv=False)
        if svals[-1] <= 1e-10 * svals[0]:
            raise InputError(
                f"node set is not unisolvent for the degree-{cpd_order(kernel.beta) - 1} "
                "polynomial tail"
            )

    # One factorization serves the solve, the estimate and the residuals.
    rhs = np.concatenate([values, np.zeros(q)])
    solve, cond, factorization, product = _factor(saddle, positive_definite=not q)
    solution = solve(rhs)
    if not np.isfinite(solution).all():
        raise ConditioningError(
            f"saddle solve produced non-finite coefficients (cond ~ {cond:.3e})",
            condition_estimate=cond,
        )

    residual = np.abs(product(solution) - rhs)
    return Interpolant(
        kernel=kernel,
        nodes=nodes,
        kernel_coeffs=solution[:n_nodes],
        poly_coeffs=solution[n_nodes:],
        poly_exponents=exponents,
        side_condition_residual=float(residual[n_nodes:].max()) if q else 0.0,
        node_residual=float(residual[:n_nodes].max()),
        condition_estimate=cond,
        factorization=factorization,
    )


def evaluate(interp: Interpolant, x):
    """Evaluate the interpolant at one point (n,), a float, or at a batch
    (k, n), an array (:func:`_point_batch`); in 1-D a scalar is one point."""
    pts, one = _point_batch(x, interp.nodes.dim)
    nodes, kernel = interp.nodes, interp.kernel
    s = np.empty(pts.shape[0])
    with np.errstate(**_BEYOND_RANGE):
        for rows, block in _kernel_rows(
            kernel, _centred(nodes, pts), _centred(nodes, nodes.points)
        ):
            np.matmul(block, interp.kernel_coeffs, out=s[rows])
        s *= kernel.gamma_factor
    if interp.poly_exponents:
        s += _poly_matrix(interp.poly_exponents, nodes, pts) @ interp.poly_coeffs
    return float(s[0]) if one else s


def condition_estimate(kernel: Kernel, nodes: NodeSet) -> float:
    """1-norm condition estimate of the full saddle matrix, the same
    number :func:`fit` reports for these nodes."""
    saddle, exponents = _saddle(kernel, nodes)
    return _cond1(saddle, positive_definite=not exponents)
