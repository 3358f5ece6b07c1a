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
row-ordered argument costs.  Every beta takes one factorization, Cholesky.
For beta < 0 the kernel matrix is positive definite (Gamma(-beta/2) > 0)
and is factored as it is.  For beta > 0 the saddle is indefinite, but the
kernel matrix is positive definite on the null space of P^T, the polynomial
block's transpose (Wendland, *Scattered Data Approximation*, ch. 8):
Householder reflectors of P reduce the saddle in place to that block,
padded with the identity, and Cholesky factors it (a null-space method:
Benzi, Golub & Liesen, *Acta Numer.* 14 (2005) 1-137; :func:`_reduce`).
Where Cholesky breaks down, the matrix is not positive definite in
floating point (cond * eps >~ 1, the large-c regime) and the saddle,
assembled again, is factored by a partially pivoted LU instead; every
entry is formed elementwise, so it is the same matrix to the bit.
:attr:`Interpolant.factorization` records which.  That one factorization
also gives the 1-norm condition estimate of the whole saddle (LAPACK
``dpocon`` or ``dgecon``, the Hager/Higham estimator: Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 15); for beta > 0 the estimate
also takes the q polynomial columns of the saddle's inverse, which the
reduced block does not see, at the cost of one solve.  The reduction and
Cholesky write LAPACK's lower triangle of the transpose, which is the
saddle's upper triangle (with one BLAS thread, OpenBLAS's lower Cholesky
runs faster), and the diagonal, and leave the strict lower triangle
intact.  :func:`_factor` keeps a copy of the diagonal, writes it back once
the solve has spent the factor, and forms the residuals S x - b of
:func:`fit`, the solve's backward error (Higham, ch. 7), by one BLAS
symmetric matrix-vector product (``dsymv``) that reads only that lower
triangle: the system is held once.  The LAPACK and BLAS routines are
called directly from scipy's f2py extensions ``scipy.linalg._flapack``
and ``scipy.linalg._fblas``, each loaded on its first use without the
``scipy.linalg`` package (:func:`_linalg_extension`), so the criterion and
optimizer never load scipy, and a fit loads only those two extensions.

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
otherwise), then the factor Gamma(-beta/2).  The row blocks do not
depend on each other, and numpy's ufuncs and ``matmul`` release the GIL,
so they are dealt round-robin to two strands (:func:`_deal_kernel_rows`),
or fewer where the process may run on one CPU or there is one block.
:func:`evaluate` gives each strand one full
block in its own buffers, and its slices stay the serial ones, because a
row's matrix-vector product may round differently in a block of another
height; so the output does not depend on the number of strands.
:func:`evaluate` applies the factor once per evaluation point, and the
strand count is capped by a constant, so its memory grows neither with
the number of evaluation points nor with the number of CPUs.  Assembly
(:func:`_saddle`) deals its blocks to the same strands and forms them in
place, in the saddle's own rows, with no buffer and no copy: the
right-hand side of :func:`_sq_dists` carries one padding point per
polynomial term, so every block is whole, contiguous saddle rows for every
beta (numpy's in-place steps run at half speed on rows strided within a
wider matrix), and the polynomial tail then overwrites the padding
columns.  Its blocks are half blocks, so that the scratch of two strands
adds no more than one block, and every entry is formed elementwise, so the
saddle does not depend on the number of strands either.

The fill distance of a node set in its cube, the one property of the
nodes that the error bound depends on, is measured by a nearest-node
scan over a tensor grid (:func:`fill_distance`), in the same row blocks
and from the same squared distances, that skips the nodes too far along
the first axis to be nearest; it is exact, needs no spatial index and,
like the rest of the package apart from the linear solve, no scipy.  It
runs on one strand: each block's search radius comes from the block
before it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from typing import List, NamedTuple, Tuple, Union

import numpy as np

from .constants import (
    _is_count,
    _Record,
    _require_positive_c,
    _require_real,
    _validate_beta,
    _validate_dimension,
    cpd_order,
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
# (through _kernel_rows()), fill_distance(), and the norm pass of _factor().
# Each block is 512 KiB, so its working set stays in a core's L2 cache and
# memory does not grow with the number of evaluation points.  evaluate()
# holds one block per strand, at most _STRANDS of them (_deal_kernel_rows());
# assembly forms half blocks in the saddle itself, and each of its strands
# holds only a half block of scratch.
_EVAL_BLOCK_ENTRIES = 1 << 16

# The most strands that evaluate() and assembly deal their row blocks to:
# a block of memory each for evaluate(), half a block for assembly.  Two is
# the count measured faster than one, on two CPUs with one BLAS thread
# (where OpenBLAS threads each strand's matrix-vector product, evaluate()
# on two ran slower); a larger count would hold more memory per strand and
# is unmeasured.
_STRANDS = 2

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
        n = _validate_dimension(n)
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
    x = np.atleast_1d(_real_array(x, "kernel offset"))
    if x.shape != (kernel.n,):
        raise InputError(f"expected an offset of shape ({kernel.n},), got {x.shape}")
    return float(kernel.radial(float(np.dot(x, x))))


def _real_array(x, what: str) -> np.ndarray:
    """``x`` as a float array, unless its entries are strings, bytes or
    complex numbers (:class:`InputError`, naming ``what``): numpy would
    parse the strings and drop the imaginary parts, where the rule for
    scalars (:func:`mqshape.constants._require_real`) refuses both."""
    data = np.asarray(x)
    if data.dtype.kind in "SUc":
        raise InputError(f"{what} must be real numbers, got {data.dtype} entries")
    return data.astype(float, copy=False)


def _points(points) -> np.ndarray:
    """``points`` as a float array, checked by :class:`NodeSet`'s rule: a
    nonempty (N, n) array of finite real coordinates (:class:`InputError`)."""
    pts = np.atleast_2d(_real_array(points, "node coordinates"))
    if pts.ndim != 2 or pts.size == 0:
        raise InputError("node set must be a nonempty (N, n) array")
    if not np.isfinite(pts).all():
        raise InputError("node coordinates must be finite")
    return pts


def _point_batch(x, n: int) -> Tuple[np.ndarray, bool]:
    """(points, one) for ``x``, one point or a (k, n) batch of them: the
    points as a (k, n) float array, and whether ``x`` is one point, a
    scalar or an n-vector, whose value is a float rather than an array.
    Any other shape, or entries that are not real numbers
    (:func:`_real_array`), raise :class:`InputError`."""
    pts = _real_array(x, "evaluation points")
    batch = np.atleast_2d(pts)
    if batch.ndim > 2 or batch.shape[1] != n:
        raise InputError(
            f"evaluation points must be one point of dimension {n} or a (k, {n}) batch, "
            f"got shape {pts.shape}"
        )
    return batch, pts.ndim < 2


def _cube(cube, n: int) -> Tuple[np.ndarray, float]:
    """(corner, side) of ``cube`` as a float array and a float, checked by
    :class:`NodeSet`'s rule: a (corner, side) pair of an n-vector corner
    and a positive side, all finite real numbers by
    :func:`mqshape.constants._require_real`, so a string is refused rather
    than parsed (:class:`InputError`)."""
    try:
        corner, side = cube
    except (TypeError, ValueError):
        raise InputError(f"cube must be a (corner, side) pair, got {cube!r}") from None
    real = lambda v: _require_real(
        v, "cube corner and side must be finite real numbers", math.isfinite, InputError
    )
    corner = np.array([real(v) for v in np.ravel(corner)])
    side = real(side)
    if corner.shape[0] != n:
        raise InputError(
            f"cube corner dimension {corner.shape[0]} does not match node dimension {n}"
        )
    if not side > 0.0:
        raise InputError(f"cube side must be positive, got {side}")
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


def _kernel_rows(kernel: Kernel, x: np.ndarray, y: np.ndarray, blocks=None, out=None):
    """Yield (rows, block) for each slice ``rows`` of x in ``blocks``, by
    default every slice of :func:`_row_blocks`: ``block`` holds
    (c^2 + |x_i - y_j|^2)^(beta/2) for those rows of x and every row of
    y, without the factor Gamma(-beta/2).  Each block is formed in place
    in ``out[rows]`` where ``out``, a C-ordered array of x's rows and y's
    columns, is given, and otherwise in one contiguous buffer, sized from
    the first slice, that every block reuses: each fresh 512 KiB array
    would be page-faulted in anew, and numpy's in-place steps run at half
    speed on rows strided within a wider matrix, so a block is always
    whole rows.  y's :func:`_difference_rhs` is built once, and so is the
    (rows, 2) left-hand side of :func:`_sq_dists`; the scratch for the
    second and later axes is allocated only for n > 1.
    Run it under ``np.errstate(**_BEYOND_RANGE)``."""
    blocks = list(_row_blocks(x.shape[0], y.shape[0]) if blocks is None else blocks)
    rhs = _difference_rhs(y)
    first = blocks[0] if blocks else slice(0, 0)
    shape = (first.stop - first.start, y.shape[0])
    buffer = np.empty(shape) if out is None else None
    diff = np.empty(shape) if x.shape[1] > 1 else None
    lhs = np.ones((shape[0], 2))
    for rows in blocks:
        size = rows.stop - rows.start
        block = buffer[:size] if out is None else out[rows]
        _sq_dists(
            x[rows], rhs, out=block, diff=None if diff is None else diff[:size], lhs=lhs[:size]
        )
        yield rows, kernel._power(block)


def _cpu_count() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal_kernel_rows(
    kernel: Kernel, x: np.ndarray, y: np.ndarray, consume,
    entries: int = _EVAL_BLOCK_ENTRIES, out=None,
) -> None:
    """Call ``consume(rows, block)`` on every (rows, block) of
    :func:`_kernel_rows`, formed in ``out`` where it is given, its slices
    those of :func:`_row_blocks` for blocks of ``entries`` entries, dealt
    round-robin to ``_STRANDS`` strands, but to no more than there are
    CPUs (:func:`_cpu_count`) or slices.  Each strand holds its own
    scratch, and its own buffer where there is no ``out``, and runs under
    its own ``np.errstate(**_BEYOND_RANGE)`` (numpy's error state is a
    context variable, which a new thread does not inherit); ``consume``
    must write only the rows it is given.

    The calling thread runs the first strand, and each other strand is a
    thread of its own, started here and joined before this returns,
    whether a strand raised or not; once one has raised, the others stop
    at their next block, and the first exception is raised again here.
    One strand starts no thread."""
    blocks = list(_row_blocks(x.shape[0], y.shape[0], entries))
    strands = max(1, min(_STRANDS, _cpu_count(), len(blocks)))
    failed = []

    def strand(first: int) -> None:
        try:
            with np.errstate(**_BEYOND_RANGE):
                for rows, block in _kernel_rows(kernel, x, y, blocks[first::strands], out):
                    if failed:
                        return
                    consume(rows, block)
        except BaseException as exc:  # raised again by the caller
            failed.append(exc)

    threads = [threading.Thread(target=strand, args=(k,)) for k in range(1, strands)]
    try:
        for thread in threads:
            thread.start()
        strand(0)
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if failed:
        raise failed[0]


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
    n = _validate_dimension(n)
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
    factorization: str  # "cholesky" or "lu", see _factor()


def _linalg_extension(name: str):
    """scipy's f2py extension ``scipy.linalg.<name>``.  It is loaded from
    its file and registered under its own name, which skips
    ``scipy/linalg/__init__.py``: that package costs ~0.25 s a process
    (its array-API layer imports ``numpy.testing`` and ``numpy.f2py``),
    against ~25 ms for ``import scipy`` and the extension.  A module
    already in ``sys.modules`` is reused, and a later ``import scipy.linalg``
    finds this one, so a process holds one copy either way.  Where the
    extension is not a file on scipy's path, the package imports it."""
    name = "scipy.linalg." + name
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy  # scipy's own start-up checks run; scipy.linalg's do not

    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(scipy.__path__[0], "linalg")]
    )
    if spec is None:
        return importlib.import_module(name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _lapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, loaded by
    :func:`_linalg_extension` on the first factorization."""
    return _linalg_extension("_flapack")


def _factor(kernel: Kernel, nodes: NodeSet, matrix: np.ndarray, rhs=None):
    """(solution, residual, cond, factorization) for the saddle S of
    ``kernel`` on ``nodes`` in ``matrix`` (:func:`_saddle`), which it
    consumes, with q = order - N polynomial rows and columns [P^T, 0]:
    the solution x of S x = ``rhs`` from one factorization, the residual
    |S x - rhs|, the 1-norm condition estimate ||S||_1 / rcond with rcond
    from LAPACK on those same factors (for q > 0 at least ||S||_1 times
    the 1-norm of the last q columns of S^-1, which the reduced factor
    does not see), and the name of the factorization.  Without ``rhs``,
    solution and residual are empty.

    ``matrix.T`` is column-major and, S being symmetric, equal to S, so
    LAPACK factors it in place, with no transposing copy.  For q = 0 the
    matrix is factored by Cholesky (``dpotrf``, ``dpocon``).  For q > 0
    it is first reduced in place to the kernel block on the null space of
    P^T, padded with the identity (:func:`_reduce`), and that is factored
    by Cholesky.  Where Cholesky breaks down (``info > 0``), the matrix
    is not positive definite in floating point, and a fresh saddle from
    :func:`_saddle`, equal to S to the bit, is factored by a partially
    pivoted LU (``dgetrf``, ``dgecon``).  The reduction and Cholesky are
    called on LAPACK's lower triangle of ``matrix.T``: they overwrite the
    upper triangle and the diagonal of ``matrix`` and leave its strict
    lower triangle as it was.  Once the solve has spent the factor, the
    copy of the diagonal taken beforehand is written back, and one BLAS
    ``dsymv`` on that lower triangle forms S x - rhs.  An exactly
    singular matrix estimates inf; non-finite entries, or fewer nodes
    than polynomial terms, raise :class:`ConditioningError` with
    estimate inf.  The LU calls and their arguments are those of
    scipy.linalg's ``lu_factor`` and ``lu_solve``, and for q = 0 the
    Cholesky calls those of ``cho_factor(lower=True)`` and ``cho_solve``,
    without the finiteness checks, so the factors and solutions are
    theirs to the bit."""
    lapack = _lapack()
    size = matrix.shape[0]
    q = size - nodes.count
    # ||S||_1, the largest column sum of |S|, a row block at a time
    col_sums = sum(np.abs(matrix[rows]).sum(axis=0) for rows in _row_blocks(size, size))
    anorm = float(col_sums.max())  # a NaN or inf entry propagates here
    if not math.isfinite(anorm):
        message = "saddle system is numerically singular (cond ~ inf)"
        raise ConditioningError(message, condition_estimate=math.inf)
    if nodes.count < q:  # rank S <= 2 N < N + q
        message = "saddle system is singular (fewer nodes than polynomial terms)"
        raise ConditioningError(message, condition_estimate=math.inf)
    diagonal = matrix.diagonal().copy()
    lift = _reduce(matrix, q) if q else None
    # lower=1 on matrix.T is LAPACK's lower triangle, the upper one of
    # ``matrix``: OpenBLAS's lower Cholesky runs faster on one BLAS thread;
    # clean=0, as in cho_factor, leaves the other triangle as it was
    factor, info = lapack.dpotrf(matrix.T, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        rcond, info = lapack.dpocon(factor, anorm, uplo=b"L")
        cond = _from_rcond(rcond, info)
        solve = lambda b: lapack.dpotrs(factor, b, lower=1)[0]
        if lift is not None:
            solve = lift(solve)
            # dpocon sees M alone; the polynomial block's share of S^-1 is
            # in its last q columns, one solve with q right-hand sides
            with np.errstate(all="ignore"):
                try:
                    poly_norm = float(np.abs(solve(np.eye(size, q, q - size))).sum(axis=0).max())
                except np.linalg.LinAlgError:  # R~ is singular: P has dependent columns
                    poly_norm = math.inf
            cond = max(cond, anorm * poly_norm) if poly_norm < math.inf else math.inf
        factorization = "cholesky"
    else:
        lu, piv, info = lapack.dgetrf(_saddle(kernel, nodes)[0].T, overwrite_a=1)
        # info > 0 is an exactly zero pivot, which estimates inf
        rcond, info = lapack.dgecon(lu, anorm, norm="1")
        cond = _from_rcond(rcond, info)
        solve = lambda b: lapack.dgetrs(lu, piv, b)[0]
        factorization = "lu"
    if rhs is None:
        return np.empty(0), np.empty(0), cond, factorization
    solution = solve(rhs)
    # the factor is spent: with the diagonal back, the strict lower
    # triangle is S's, LAPACK's upper triangle of matrix.T
    np.fill_diagonal(matrix, diagonal)
    blas = _linalg_extension("_fblas")
    residual = blas.dsymv(1.0, matrix.T, solution, beta=-1.0, y=rhs, lower=0)
    return solution, np.abs(residual), cond, factorization


def _reduce(matrix: np.ndarray, q: int):
    """Reduce the saddle S = [[A, P], [P^T, 0]] in ``matrix``, of order
    N + q, to the kernel block on the null space of P^T, in place in its
    upper triangle, and return ``lift``: ``lift(solve)`` solves S x = b
    given ``solve``, the solve with the factored upper triangle.

    q Householder reflectors of P with its rows reversed give an
    orthogonal G = I - W V^T with G P = [0; R~], R~ (q x q) in the last q
    node rows (Benzi, Golub & Liesen, *Acta Numer.* 14 (2005) 1-137).
    With m = N - q, M = (G A G^T)[:m, :m] is positive definite
    wherever the kernel is conditionally positive definite, since G^T's
    first m columns span the null space of P^T.  G A G^T = A - W Z^T -
    Z W^T for Z = A V - W (V^T A V) / 2, a symmetric rank-2q update
    (BLAS ``dsyr2``, or ``dsyr2k`` for q > 1), whose vectors are zero
    past m, so it writes M over the upper triangle of A's leading block.
    The upper triangle's entries from column m on are then set to the
    identity, so LAPACK's lower triangle of ``matrix.T`` is
    blockdiag(M, I) and factors in place; the q columns (G A G^T)[:, m:N]
    and R~ are kept aside.  ``matrix``'s strict lower triangle is not
    written.  For S [a; b] = [f; g], u = G^T a solves
    R~^T u[m:] = g, M u[:m] = (G f)[:m] - (G A G^T)[:m, m:] u[m:] and
    R~ b = (G f)[m:] - (G A G^T)[m:, :] u."""
    count = matrix.shape[0] - q
    m = count - q
    # Q^T (J P) = [R; 0] for the row reversal J, and G = J Q^T J
    h, tau = np.linalg.qr(matrix[count - 1::-1, count:], mode="raw")
    v = np.tril(h.T, -1)
    v[range(q), range(q)] = 1.0
    t = np.zeros((q, q))  # Q = I - V T V^T, the compact WY form of dlarft
    for i in range(q):
        t[:i, i] = -tau[i] * (t[:i, :i] @ (v[:, :i].T @ v[:, i]))
        t[i, i] = tau[i]
    r = np.triu(h.T[:q])
    v = np.ascontiguousarray(v[::-1])  # a reversed view would not reach BLAS
    w = v @ t.T
    av = matrix[:count, :count] @ v  # from A intact, before any write
    vav = v.T @ av
    z = av - 0.5 * (w @ (0.5 * (vav + vav.T)))
    border = matrix[:count, m:count] - w @ z[m:].T - z @ w[m:].T  # (G A G^T)[:, m:N]
    padded = np.zeros((2, count + q, q))
    padded[0, :m], padded[1, :m] = w[:m], z[:m]
    blas = _linalg_extension("_fblas")
    if q == 1:
        blas.dsyr2(-1.0, padded[0, :, 0], padded[1, :, 0], lower=1, a=matrix.T, overwrite_a=1)
    else:
        blas.dsyr2k(-1.0, padded[0], padded[1], beta=1.0, c=matrix.T, lower=1, overwrite_c=1)
    matrix[:m, m:] = 0.0
    np.copyto(matrix[m:, m:], np.eye(2 * q), where=np.triu(np.ones((2 * q, 2 * q), dtype=bool)))

    def lift(solve):
        def lifted(b: np.ndarray) -> np.ndarray:
            f, g = b[:count], b[count:]
            gf = f - w @ (v.T @ f)
            u = np.zeros(b.shape)
            # R~ = J R, so R~^T u[m:] = g is R^T (J u[m:]) = g
            u[m:count] = np.linalg.solve(r.T, g)[::-1]
            u[:m] = gf[:m] - border[:m] @ u[m:count]
            u[:m] = solve(u)[:m]
            poly = np.linalg.solve(r, (gf[m:] - border.T @ u[:count])[::-1])
            return np.concatenate([u[:count] - v @ (w.T @ u[:count]), poly])

        return lifted

    return lift


def _from_rcond(rcond: float, info: int) -> float:
    """The condition estimate 1/rcond from a LAPACK estimator's output."""
    return 1.0 / rcond if info == 0 and rcond > 0.0 else math.inf


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
    # q padding points at the centre make every kernel block whole saddle
    # rows, contiguous for numpy's in-place steps, for every beta; the
    # polynomial tail then overwrites their columns.  A strand adds only
    # its scratch for the later axes, half a block, so two add one block
    padded = np.concatenate([centred, np.zeros((q, nodes.dim))])
    scale = lambda rows, block: np.multiply(block, kernel.gamma_factor, out=block)
    _deal_kernel_rows(kernel, centred, padded, scale, _EVAL_BLOCK_ENTRIES // 2, saddle[:count])
    p = _poly_matrix(exponents, nodes, nodes.points)
    saddle[:count, count:] = p
    saddle[count:, :count] = p.T
    saddle[count:, count:] = 0.0
    return saddle, exponents


def fit(kernel: Kernel, nodes: NodeSet, values) -> Interpolant:
    """Solve the interpolation saddle system for the given data.

    The system is [[A, P], [P^T, 0]] [coef; poly] = [values; 0] with
    A the kernel matrix and P the polynomial block.  It is held once:
    :func:`_factor` factors it in place, solves it and forms the residuals
    from the triangle the factorization leaves intact.  Raises
    :class:`InputError` for mismatched, non-finite or non-real data or a
    node set that cannot determine the polynomial tail, and
    :class:`ConditioningError` for non-finite system entries or
    coefficients (expected behaviour for very large c).
    """
    values = _real_array(values, "data values").reshape(-1)
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
        if len(svals) < q or svals[-1] <= 1e-10 * svals[0]:  # N < q nodes: rank P < q
            raise InputError(
                f"node set is not unisolvent for the degree-{cpd_order(kernel.beta) - 1} "
                "polynomial tail"
            )

    # One factorization serves the solve, the estimate and the residuals.
    rhs = np.concatenate([values, np.zeros(q)])
    solution, residual, cond, factorization = _factor(kernel, nodes, saddle, rhs)
    if not np.isfinite(solution).all():
        raise ConditioningError(
            f"saddle solve produced non-finite coefficients (cond ~ {cond:.3e})",
            condition_estimate=cond,
        )

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
    consume = lambda rows, block: np.matmul(block, interp.kernel_coeffs, out=s[rows])
    _deal_kernel_rows(kernel, _centred(nodes, pts), _centred(nodes, nodes.points), consume)
    with np.errstate(**_BEYOND_RANGE):
        s *= kernel.gamma_factor
    if interp.poly_exponents:
        s += _poly_matrix(interp.poly_exponents, nodes, pts) @ interp.poly_coeffs
    return float(s[0]) if one else s


def condition_estimate(kernel: Kernel, nodes: NodeSet) -> float:
    """1-norm condition estimate of the full saddle matrix, the same
    number :func:`fit` reports for these nodes."""
    saddle = _saddle(kernel, nodes)[0]
    try:
        return _factor(kernel, nodes, saddle)[2]
    except ConditioningError:
        return math.inf
