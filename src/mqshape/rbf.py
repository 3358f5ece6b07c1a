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
triangle: the system is held once.  The 1-norm and the diagonal copy
are taken block by block as the saddle is assembled.

The LAPACK and BLAS routines are the C functions that scipy's Cython
modules ``scipy.linalg.cython_lapack`` and ``scipy.linalg.cython_blas``
export, called through :mod:`ctypes`, which releases the GIL, in place on
sub-blocks of the saddle (:func:`_linalg`); scipy's f2py wrappers hold
the GIL.  Each module is loaded on the first fit without the
``scipy.linalg`` package (:func:`_linalg_extension`), so the criterion and
optimizer never load scipy, and a fit loads only those two modules.  A
saddle of more than one assembly row block is factored as a fixed 2 x 2
block Cholesky on two strands (:func:`_cholesky`), whose calls and bits
depend on the saddle's size alone; for beta < 0 its second strand assembles the lower
half of the rows while the first factors the leading block.  The
estimate then runs on one strand while the other solves.

One rule holds for every fit, evaluate and condition estimate
(:func:`_strand`): all of their work, on each strand and between the
strands, takes one BLAS thread of each OpenBLAS the package calls,
numpy's (assembly's and :func:`evaluate`'s products, the tail's QR) and
the one that scipy's Cython modules link to (the factorizations), and
the previous counts come back on exit.  Two strands of threaded calls
would spin against each other, and a threaded call's bits would follow
the thread count; so the results do not depend on ``OPENBLAS_NUM_THREADS``.

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
(:func:`_assemble`) deals its half blocks to the same strands and forms
them in place, in the saddle's own rows, with no buffer and no copy; every
entry is formed elementwise, so the saddle does not depend on the number
of strands either.

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

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
import types
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
    "poly_basis",
    "fit",
    "evaluate",
    "condition_estimate",
    "uniform_grid",
    "fill_distance",
]

# Entries per row block of _row_blocks(), the one blocking rule of every
# scan over a matrix of distances or kernel values: assembly and evaluate()
# (through _kernel_rows()) and fill_distance().
# Each block is 512 KiB, so its working set stays in a core's L2 cache and
# memory does not grow with the number of evaluation points.  evaluate()
# holds one block per strand, at most _STRANDS of them (_deal_kernel_rows());
# assembly forms half blocks in the saddle itself, and each of its strands
# holds only a half block of scratch.
_EVAL_BLOCK_ENTRIES = 1 << 16

# The most strands that evaluate() and assembly deal their row blocks to:
# a block of memory each for evaluate(), half a block for assembly.  Two is
# the count measured faster than one, on two CPUs with one BLAS thread per
# strand (_strand()); a larger count would hold more memory per strand and
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


def _real_array(x, what: str) -> np.ndarray:
    """``x`` as a float array, unless its entries are strings, bytes or
    complex numbers (:class:`InputError`, naming ``what``): numpy would
    parse the strings and drop the imaginary parts, where the rule for
    scalars (:func:`mqshape.constants._require_real`) refuses both.  The
    entries of an object array are held to that rule one by one."""
    data = np.asarray(x)
    rule = f"{what} must be real numbers"
    if data.dtype.kind in "SUc":
        raise InputError(f"{rule}, got {data.dtype} entries")
    if data.dtype.kind == "O":
        real = [_require_real(v, rule, lambda x: True, InputError) for v in data.flat]
        return np.array(real, dtype=float).reshape(data.shape)
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
    ``points`` and the corner are read-only float arrays of its own.
    """

    __slots__ = ("points", "cube")

    def __init__(self, points, cube: Tuple[np.ndarray, float]):
        pts = _points(points).copy()  # frozen below, so never the caller's
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


def _kernel_rows(kernel: Kernel, x: np.ndarray, y: np.ndarray, blocks, out=None):
    """Yield (rows, block) for each slice ``rows`` of x in the list
    ``blocks``, slices of :func:`_row_blocks`: ``block`` holds
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


@functools.lru_cache(maxsize=None)
def _blas_setters() -> tuple:
    """The distinct ``openblas_set_num_threads_local`` functions of the
    libraries that numpy's ``linalg._umath_linalg`` and scipy's
    ``cython_lapack`` link to, each found by ``dlsym`` on the extension's
    own file and told apart by address: numpy and scipy may carry an
    OpenBLAS each, or share one.  A library without the symbol, another
    BLAS, gives none.  Each sets the thread count and returns the previous
    one."""
    files = (np.linalg._umath_linalg.__file__, _linalg_extension("cython_lapack").__file__)
    found = (getattr(ctypes.CDLL(file), "openblas_set_num_threads_local", None) for file in files)
    addresses = {ctypes.cast(f, ctypes.c_void_p).value for f in found if f is not None}
    return tuple(map(ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_int), addresses))  # int (int)


# OpenBLAS's thread count belongs to the process, not to the calling thread:
# openblas_set_num_threads_local sets the shared count and returns the old
# one.  So the first holder of _strand() sets one thread, and the last to
# leave restores the counts that the first one saw.
_blas = types.SimpleNamespace(lock=threading.Lock(), holders=0, saved=[])


@contextlib.contextmanager
def _strand():
    """The setting of every strand (:func:`_run_strands`), and of the work
    of :func:`_factor` and :func:`evaluate` around their strands:
    ``np.errstate(**_BEYOND_RANGE)`` (numpy's error state is a context
    variable, which a new thread does not inherit) and one BLAS thread on
    each OpenBLAS of :func:`_blas_setters`, whose counts come back when
    the last holder leaves.  Under OpenBLAS's default threads, two strands
    of threaded calls spun against each other on two CPUs and ran a fit at
    half speed, and a threaded call's last bits followed the thread count
    and the state of the pool.  While a holder runs, the process's other
    BLAS calls take one thread too."""
    with _blas.lock:
        if not _blas.holders:
            _blas.saved = [(set_count, set_count(1)) for set_count in _blas_setters()]
        _blas.holders += 1
    try:
        with np.errstate(**_BEYOND_RANGE):
            yield
    finally:
        with _blas.lock:
            _blas.holders -= 1
            if not _blas.holders:
                for set_count, count in _blas.saved:
                    set_count(count)


def _run_strands(tasks, failed=None) -> None:
    """Run each of ``tasks``, callables of no argument, on a strand of its
    own, in :func:`_strand`'s setting: the first on the calling thread,
    each other one on a thread started here and joined before this
    returns, whether a task raised or not.  Where the process may run on
    one CPU (:func:`_cpu_count`), the calling thread runs them all in turn
    and starts no thread, so a later task may wait for an earlier one,
    never the reverse.  An exception is appended to ``failed``, where the
    other tasks may see it and stop; on one CPU no later task starts, and
    the first exception is raised again here."""
    failed = [] if failed is None else failed

    def run(task) -> None:
        try:
            with _strand():
                task()
        except BaseException as exc:  # raised again by the caller
            failed.append(exc)

    if _cpu_count() < 2:
        for task in tasks:
            if not failed:
                run(task)
    else:
        threads = [threading.Thread(target=run, args=(task,)) for task in tasks[1:]]
        try:
            for thread in threads:
                thread.start()
            run(tasks[0])
        finally:
            for thread in threads:
                if thread.ident is not None:
                    thread.join()
    if failed:
        raise failed[0]


def _deal_kernel_rows(
    kernel: Kernel, x: np.ndarray, y: np.ndarray, consume,
    entries: int = _EVAL_BLOCK_ENTRIES, out=None, strands=None,
) -> None:
    """Call ``consume(rows, block)`` on every (rows, block) of
    :func:`_kernel_rows`, formed in ``out`` where it is given, its slices
    those of :func:`_row_blocks` for blocks of ``entries`` entries, dealt
    round-robin to ``strands`` strands, by default ``_STRANDS``, but to no
    more than there are CPUs (:func:`_cpu_count`) or slices
    (:func:`_run_strands`).  Each strand holds its own scratch, and its
    own buffer where there is no ``out``; ``consume`` must write only the
    rows it is given.  Once a strand has raised, the others stop at their
    next block.  One strand starts no thread."""
    blocks = list(_row_blocks(x.shape[0], y.shape[0], entries))
    count = max(1, min(_STRANDS if strands is None else strands, _cpu_count(), len(blocks)))
    failed = []

    def strand(first: int) -> None:
        for rows, block in _kernel_rows(kernel, x, y, blocks[first::count], out):
            if failed:
                return
            consume(rows, block)

    _run_strands([functools.partial(strand, k) for k in range(count)], failed)


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
    """scipy's compiled extension ``scipy.linalg.<name>``.  It is loaded
    from its file and registered under its own name, which skips
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


def _leading_dimension(a: np.ndarray) -> int:
    """The leading dimension of ``a`` as a Fortran argument: a float64
    matrix whose columns are contiguous, such as the transpose of a block
    of C-ordered rows, or a contiguous vector.  Anything else is refused,
    since LAPACK would read and write past it."""
    if a.dtype != np.float64 or a.ndim not in (1, 2) or (a.shape[0] > 1 and a.strides[0] != 8):
        raise ValueError(f"not a Fortran-ordered float64 array: {a.dtype}, strides {a.strides}")
    if a.ndim == 1 or a.shape[1] < 2:
        return max(1, a.shape[0])
    if a.strides[1] % 8 or a.strides[1] < 8 * a.shape[0]:
        raise ValueError(f"columns overlap or are misaligned: strides {a.strides}")
    return max(1, a.strides[1] // 8)


def _aligned(count: int, dtype=np.float64) -> np.ndarray:
    """An empty array of ``count`` entries at a 64-byte boundary.  The
    estimators' last bits follow the address of their work arrays modulo
    64 (the BLAS kernels they call peel to alignment), so a fixed
    alignment makes the estimate the same in every call."""
    size = count * np.dtype(dtype).itemsize
    raw = np.empty(size + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + size].view(dtype)


def _c_argument(value):
    """``value`` as a pointer argument of a LAPACK or BLAS function: a
    character as its bytes, an array by its address, and a Python int,
    a float or a ctypes output by reference."""
    if isinstance(value, np.ndarray):
        return value.ctypes.data
    if isinstance(value, bytes):
        return value
    if isinstance(value, int):
        value = ctypes.c_int(value)
    elif isinstance(value, float):
        value = ctypes.c_double(value)
    return ctypes.byref(value)


@functools.lru_cache(maxsize=None)
def _linalg() -> types.SimpleNamespace:
    """The LAPACK and BLAS routines of the solve, loaded on its first call.

    Each is a C function that scipy's Cython modules
    ``scipy.linalg.cython_lapack`` and ``scipy.linalg.cython_blas`` export
    as a capsule in their ``__pyx_capi__``, called by :mod:`ctypes`, which
    releases the GIL for the call, so two strands factor, solve and
    estimate at once.  (scipy's f2py wrappers hold the GIL: two Cholesky
    factorizations on two threads took longer than the two in turn.)  The
    arrays are Fortran-ordered (:func:`_leading_dimension`), so a routine
    works in place on a sub-block of the saddle.  The LAPACK routines
    return their ``info``, the estimators (rcond, info) and the solves the
    solution, in a new array; the Cholesky routines read and write the
    lower triangle."""
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    capsules = {}
    for module in ("cython_lapack", "cython_blas"):
        capsules.update(_linalg_extension(module).__pyx_capi__)

    def routine(name: str):
        signature = name_of(capsules[name])  # b"void (char *, int *, ...)"
        # every argument is a pointer: to a character, a scalar or an array
        arguments = [ctypes.c_void_p] * (signature.count(b",") + 1)
        function = ctypes.CFUNCTYPE(None, *arguments)(pointer_of(capsules[name], signature))
        return lambda *args: function(*map(_c_argument, args))

    potrf, pocon, potrs = routine("dpotrf"), routine("dpocon"), routine("dpotrs")
    getrf, gecon, getrs = routine("dgetrf"), routine("dgecon"), routine("dgetrs")
    trsm, syrk, gemm = routine("dtrsm"), routine("dsyrk"), routine("dgemm")
    symv, syr2, syr2k = routine("dsymv"), routine("dsyr2"), routine("dsyr2k")
    ld = _leading_dimension

    def vector(x: np.ndarray) -> np.ndarray:  # contiguous, checked as a column is
        ld(x)
        return x

    def solution(b: np.ndarray) -> Tuple[np.ndarray, int]:
        x = np.array(b, dtype=float, order="F")
        return x, 1 if x.ndim == 1 else x.shape[1]

    def dpotrf(a):
        info = ctypes.c_int()
        potrf(b"L", a.shape[0], a, ld(a), info)
        return info.value

    def dpocon(a, anorm):
        n, rcond, info = a.shape[0], ctypes.c_double(), ctypes.c_int()
        pocon(b"L", n, a, ld(a), anorm, rcond, _aligned(3 * n), _aligned(n, np.intc), info)
        return rcond.value, info.value

    def dpotrs(a, b):
        (x, nrhs), info = solution(b), ctypes.c_int()
        potrs(b"L", a.shape[0], nrhs, a, ld(a), x, ld(x), info)
        return x

    def dgetrf(a):
        piv, info = np.empty(a.shape[0], np.intc), ctypes.c_int()
        getrf(a.shape[0], a.shape[1], a, ld(a), piv, info)
        return piv, info.value

    def dgecon(a, anorm):
        n, rcond, info = a.shape[0], ctypes.c_double(), ctypes.c_int()
        gecon(b"1", n, a, ld(a), anorm, rcond, _aligned(4 * n), _aligned(n, np.intc), info)
        return rcond.value, info.value

    def dgetrs(a, piv, b):
        (x, nrhs), info = solution(b), ctypes.c_int()
        getrs(b"N", a.shape[0], nrhs, a, ld(a), piv, x, ld(x), info)
        return x

    def dtrsm(lower, b):  # b <- b L^-T for the lower triangle L of ``lower``
        trsm(b"R", b"L", b"T", b"N", b.shape[0], b.shape[1], 1.0, lower, ld(lower), b, ld(b))

    def dsyrk(a, c):  # c <- c - a a^T, on the lower triangle
        syrk(b"L", b"N", c.shape[0], a.shape[1], -1.0, a, ld(a), 1.0, c, ld(c))

    def dgemm(a, b, c):  # c <- c - a b^T
        m, n = c.shape
        gemm(b"N", b"T", m, n, a.shape[1], -1.0, a, ld(a), b, ld(b), 1.0, c, ld(c))

    def dsymv(a, x, y, beta):  # y <- a x + beta y, from the upper triangle
        symv(b"U", a.shape[0], 1.0, a, ld(a), vector(x), 1, beta, vector(y), 1)

    def dsyr2(x, y, a):  # a <- a - x y^T - y x^T, on the lower triangle
        syr2(b"L", a.shape[0], -1.0, vector(x), 1, vector(y), 1, a, ld(a))

    def dsyr2k(a, b, c):  # c <- c - a b^T - b a^T, on the lower triangle
        syr2k(b"L", b"N", c.shape[0], a.shape[1], -1.0, a, ld(a), b, ld(b), 1.0, c, ld(c))

    return types.SimpleNamespace(
        dpotrf=dpotrf, dpocon=dpocon, dpotrs=dpotrs, dgetrf=dgetrf, dgecon=dgecon, dgetrs=dgetrs,
        dtrsm=dtrsm, dsyrk=dsyrk, dgemm=dgemm, dsymv=dsymv, dsyr2=dsyr2, dsyr2k=dsyr2k,
    )


def _factor(kernel: Kernel, nodes: NodeSet, matrix: np.ndarray, rhs=None):
    """(solution, residual, cond, factorization) for the saddle S of
    ``kernel`` on ``nodes``, which it assembles in ``matrix``, an array of
    S's order N + q (:func:`_empty_saddle`), and consumes, with q
    polynomial rows and columns [P^T, 0]: the solution x of S x = ``rhs``
    from one factorization, the residual |S x - rhs|, the 1-norm condition
    estimate ||S||_1 / rcond with rcond from LAPACK on those same factors
    (for q > 0 at least ||S||_1 times the 1-norm of the last q columns of
    S^-1, which the reduced factor does not see), and the name of the
    factorization.  Without ``rhs``, solution and residual are empty.

    ``matrix.T`` is column-major and, S being symmetric, equal to S, so
    LAPACK factors it in place, with no transposing copy.  For q = 0 the
    matrix is factored by Cholesky (:func:`_cholesky`).  For q > 0 it is
    first reduced in place to the kernel block on the null space of P^T,
    padded with the identity (:func:`_reduce`), and that is factored by
    Cholesky.  Where Cholesky breaks down (``info > 0``), the matrix is
    not positive definite in floating point, and a fresh saddle from
    :func:`_saddle`, equal to S to the bit, is factored by a partially
    pivoted LU (``dgetrf``).  Where the kernel rows take more than one
    assembly row block (:func:`_split`), the Cholesky factorization runs on
    two strands, for q = 0 beside the assembly of the rows below its split,
    and then the estimate (``dpocon`` or ``dgecon``) runs on the second
    strand while the first solves, the data and, for q > 0, the q
    polynomial columns; a smaller saddle starts no thread.  Every call,
    on either strand and between them, takes one BLAS thread
    (:func:`_strand`), so the bits do not follow the process's BLAS
    threads.  The reduction and Cholesky write LAPACK's lower triangle of
    ``matrix.T``, the upper triangle and the diagonal of ``matrix``, and
    leave its strict lower triangle as it was.  Once the solve has spent the factor, the copy of
    the diagonal that the assembly took is written back, and one BLAS
    ``dsymv`` on that lower triangle forms S x - rhs.  An exactly singular
    matrix estimates inf, and non-finite entries raise
    :class:`ConditioningError` with estimate inf.  Nodes that do not
    determine the polynomial tail raise :class:`InputError`: fewer nodes
    than polynomial terms, or numerically dependent columns of P
    (:func:`_reduce`).  The LU calls and their arguments are those of
    scipy.linalg's ``lu_factor`` and ``lu_solve``, and for a saddle of one
    block and q = 0 the Cholesky calls those of ``cho_factor(lower=True)``
    and ``cho_solve``, without the finiteness checks, so those factors and
    solutions are theirs on one BLAS thread, to the bit."""
    lib = _linalg()
    count, size = nodes.count, matrix.shape[0]
    q = size - count
    split = _split(count, size)
    with _strand():
        sums, diagonal = np.empty(size), np.empty(size)
        assemble = functools.partial(_assemble, kernel, nodes, matrix, sums, diagonal)
        if split and not q:
            # both strands form the rows above the split, and the second the rest
            assemble(slice(0, split[0]))
            prelude = functools.partial(assemble, slice(split[0], count), 1)
        else:
            assemble()
            prelude = lambda: None
        lift = None
        if q:  # the reduction must not meet a non-finite entry
            _one_norm(sums)
            lift = _reduce(matrix, q)
            if lift is None:
                raise InputError(
                    f"node set is not unisolvent for the degree-{cpd_order(kernel.beta) - 1} "
                    "polynomial tail"
                )
        info = _cholesky(lib, matrix.T, split, prelude)
        anorm = _one_norm(sums)
        if info == 0:
            factor = matrix.T
            estimate = lambda: lib.dpocon(factor, anorm)
            solve = lambda b: lib.dpotrs(factor, b)
            if lift is not None:
                solve = lift(solve)
            factorization = "cholesky"
        else:
            lu = _saddle(kernel, nodes)[0].T
            piv, _ = lib.dgetrf(lu)  # info > 0 is an exactly zero pivot, which estimates inf
            estimate = lambda: lib.dgecon(lu, anorm)
            solve = lambda b: lib.dgetrs(lu, piv, b)
            lift = None
            factorization = "lu"
        out = {}

        def solves() -> None:
            if lift is not None:
                # dpocon sees M alone; the polynomial block's share of S^-1 is
                # in its last q columns, one solve with q right-hand sides
                with np.errstate(all="ignore"):
                    out["poly"] = float(np.abs(solve(np.eye(size, q, q - size))).sum(axis=0).max())
            if rhs is not None:
                out["solution"] = solve(rhs)

        def estimates() -> None:
            out["cond"] = _from_rcond(*estimate())

        if split:
            _run_strands([solves, estimates])
        else:
            solves()
            estimates()
        cond = out["cond"]
        if lift is not None:
            cond = max(cond, anorm * out["poly"]) if out["poly"] < math.inf else math.inf
        if rhs is None:
            return np.empty(0), np.empty(0), cond, factorization
        # the factor is spent: with the diagonal back, the strict lower
        # triangle is S's, LAPACK's upper triangle of matrix.T
        np.fill_diagonal(matrix, diagonal)
        solution, residual = out["solution"], np.array(rhs, dtype=float)
        lib.dsymv(matrix.T, solution, residual, -1.0)
        return solution, np.abs(residual), cond, factorization


def _one_norm(sums: np.ndarray) -> float:
    """||S||_1, the largest of the row sums of |S| in ``sums``; a NaN or
    inf entry propagates to it and raises :class:`ConditioningError`
    with estimate inf."""
    anorm = float(sums.max())
    if not math.isfinite(anorm):
        message = "saddle system is numerically singular (cond ~ inf)"
        raise ConditioningError(message, condition_estimate=math.inf)
    return anorm


# Where the Cholesky factorization of order n splits (_split()): the
# leading block takes the first N // 2 rows, for N nodes, and the first
# strand the first shares of the n - N // 2 rows below, of the panel's
# dtrsm and of the trailing update's tiles; the second strand takes the
# rest of each.  For q = 0 the panel share balances the leading block's
# dpotrf against the assembly of the rows below it, on the second strand;
# for q > 0 that strand has nothing to assemble, and the panel splits in
# halves.  The tile share gives the dsyrk of the leading tile and the
# dgemm below it about as many flops as the dsyrk of the last tile,
# 1 - 1/sqrt(2) of the rows.  Measured on two CPUs with one BLAS thread.
_PANEL_SHARE = 0.57
_TILE_SHARE = 0.29


def _split(count: int, size: int):
    """(half, panel, tiles): the row where the Cholesky factorization of
    the saddle of ``count`` nodes, of order ``size``, splits into a 2 x 2
    block one (:func:`_cholesky`), and the rows where the panel and the
    trailing tiles below it split between two strands; or None where the
    kernel rows take one assembly row block, and the saddle one
    ``dpotrf``.  The rows depend on N and q alone, so the number of
    strands decides no bit."""
    if next(_row_blocks(count, size, _EVAL_BLOCK_ENTRIES // 2)).stop >= count:
        return None
    half = count // 2
    below = size - half
    panel = _PANEL_SHARE if size == count else 0.5
    return half, half + round(panel * below), half + round(_TILE_SHARE * below)


def _cholesky(lib, a: np.ndarray, split, prelude) -> int:
    """LAPACK's ``info`` of the Cholesky factorization of ``a``'s lower
    triangle, in place: one ``dpotrf`` where ``split`` is None, else, for
    ``split`` = (h, p, t) from :func:`_split`, A = [[A11, .], [A21, A22]]
    with A11 of order h:

    1. the first strand factors A11 = L11 L11^T (``dpotrf``) while the
       second runs ``prelude``; then each solves its rows of the
       panel L21 = A21 L11^-T (``dtrsm``), rows h:p on the first strand
       and the rest on the second;
    2. the trailing update A22 - L21 L21^T in three tiles: the first
       strand takes the ``dsyrk`` of rows h:t and the ``dgemm`` of rows
       t: against them, and the second the ``dsyrk`` of rows t:;
    3. the caller factors the updated A22 (``dpotrf``).

    A breakdown in A11 stops there, with A11's ``info``; one in A22 gives
    h + its ``info``.  Each call's arguments, and so its bits, depend on
    ``split`` alone, not on which strand runs it (:func:`_run_strands`),
    and each call takes one BLAS thread (:func:`_strand`)."""
    if split is None:
        return lib.dpotrf(a)
    half, panel, tiles = split
    top = a[:half, :half]
    factored = threading.Event()
    info = []

    def first() -> None:
        try:
            info.append(lib.dpotrf(top))
        finally:
            factored.set()
        if not info[0]:
            lib.dtrsm(top, a[half:panel, :half])

    def second() -> None:
        prelude()
        factored.wait()
        if info == [0]:
            lib.dtrsm(top, a[panel:, :half])

    _run_strands([first, second])
    if info[0]:
        return info[0]
    upper, lower = a[half:tiles, :half], a[tiles:, :half]

    def leading_tiles() -> None:
        lib.dsyrk(upper, a[half:tiles, half:tiles])
        lib.dgemm(lower, upper, a[tiles:, half:tiles])

    _run_strands([leading_tiles, lambda: lib.dsyrk(lower, a[tiles:, tiles:])])
    info = lib.dpotrf(a[half:, half:])
    return half + info if info else 0


def _reduce(matrix: np.ndarray, q: int):
    """Reduce the saddle S = [[A, P], [P^T, 0]] in ``matrix``, of order
    N + q, to the kernel block on the null space of P^T, in place in its
    upper triangle, and return ``lift``: ``lift(solve)`` solves S x = b
    given ``solve``, the solve with the factored upper triangle.  Where
    the nodes do not determine the polynomial tail, rank P < q, it returns
    None and writes nothing: where N < q, and where R~'s singular values,
    which are P's, have sigma_min <= 1e-10 sigma_max.

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
    if m < 0:  # rank P <= N < q
        return None
    # Q^T (J P) = [R; 0] for the row reversal J, and G = J Q^T J
    h, tau = np.linalg.qr(matrix[count - 1::-1, count:], mode="raw")
    r = np.triu(h.T[:q])
    if np.linalg.cond(r) >= 1e10:  # sigma_min <= 1e-10 sigma_max
        return None
    v = np.tril(h.T, -1)
    v[range(q), range(q)] = 1.0
    t = np.zeros((q, q))  # Q = I - V T V^T, the compact WY form of dlarft
    for i in range(q):
        t[:i, i] = -tau[i] * (t[:i, :i] @ (v[:, :i].T @ v[:, i]))
        t[i, i] = tau[i]
    v = np.ascontiguousarray(v[::-1])  # a reversed view would not reach BLAS
    w = v @ t.T
    av = matrix[:count, :count] @ v  # from A intact, before any write
    vav = v.T @ av
    z = av - 0.5 * (w @ (0.5 * (vav + vav.T)))
    border = matrix[:count, m:count] - w @ z[m:].T - z @ w[m:].T  # (G A G^T)[:, m:N]
    padded = np.zeros((2, q, count + q)).transpose(0, 2, 1)  # Fortran-ordered
    padded[0, :m], padded[1, :m] = w[:m], z[:m]
    lib = _linalg()
    if q == 1:
        lib.dsyr2(padded[0, :, 0], padded[1, :, 0], matrix.T)
    else:
        lib.dsyr2k(padded[0], padded[1], matrix.T)
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


def _empty_saddle(kernel: Kernel, nodes: NodeSet):
    """(matrix, exponents): an uninitialised square array of the order
    N + q of the interpolation saddle of ``kernel`` on ``nodes``, and the
    q exponents of its polynomial tail."""
    if kernel.n != nodes.dim:
        raise InputError(
            f"kernel dimension {kernel.n} does not match node dimension {nodes.dim}"
        )
    exponents = tuple(poly_basis(cpd_order(kernel.beta), nodes.dim))
    size = nodes.count + len(exponents)
    return np.empty((size, size)), exponents


def _assemble(kernel: Kernel, nodes: NodeSet, matrix, sums, diagonal, rows=None, strands=None):
    """Form ``rows`` of the saddle S = [[A, P], [P^T, 0]] of ``kernel`` on
    ``nodes`` in place in ``matrix``: by default every row, and otherwise
    the slice ``rows`` of the kernel rows, with their polynomial columns.
    The kernel rows are dealt to at most ``strands`` strands
    (:func:`_deal_kernel_rows`) in half blocks, formed in the saddle's own
    rows, with no buffer and no copy: the right-hand side of
    :func:`_sq_dists` carries one padding point per polynomial term, so
    every block is whole, contiguous saddle rows for every beta (numpy's
    in-place steps run at half speed on rows strided within a wider
    matrix), and each block's polynomial tail then overwrites the padding
    columns.  Half blocks keep the scratch of two strands within one
    block, and every entry is formed elementwise, so S depends neither on
    the number of strands nor on ``rows``.

    Each block also leaves its rows' 1-norms in ``sums`` (S is
    symmetric, so they are its column sums, and the largest is ||S||_1)
    and its diagonal entries in ``diagonal``, read while the block is in
    cache.  Every kernel entry has the sign of Gamma(-beta/2) or is zero
    or NaN, so the 1-norm of a kernel row is the magnitude of its sum, to
    the bit, and takes no temporary."""
    count, size = nodes.count, matrix.shape[0]
    q = size - count
    whole, rows = rows is None, slice(0, count) if rows is None else rows
    centred = _centred(nodes, nodes.points)
    padded = np.concatenate([centred, np.zeros((q, nodes.dim))])
    p = _poly_matrix(poly_basis(cpd_order(kernel.beta), nodes.dim), nodes, nodes.points)

    def consume(block_rows: slice, block: np.ndarray) -> None:
        at = slice(rows.start + block_rows.start, rows.start + block_rows.stop)
        np.multiply(block, kernel.gamma_factor, out=block)
        np.abs(block[:, :count].sum(axis=1), out=sums[at])
        diagonal[at] = block.reshape(-1)[at.start::size + 1]
        if q:
            block[:, count:] = p[at]
            sums[at] += np.abs(p[at]).sum(axis=1)

    _deal_kernel_rows(
        kernel, centred[rows], padded, consume, _EVAL_BLOCK_ENTRIES // 2, matrix[rows], strands
    )
    if whole and q:
        matrix[count:, :count] = p.T
        matrix[count:, count:] = 0.0
        sums[count:] = np.abs(p).sum(axis=0)
        diagonal[count:] = 0.0


def _saddle(kernel: Kernel, nodes: NodeSet):
    """(saddle matrix, exponents) of the interpolation system on
    ``nodes``: [[A, P], [P^T, 0]], with A the kernel matrix and P the
    polynomial block (:func:`_assemble`).  It is bitwise symmetric."""
    matrix, exponents = _empty_saddle(kernel, nodes)
    _assemble(kernel, nodes, matrix, np.empty(len(matrix)), np.empty(len(matrix)))
    return matrix, exponents


def fit(kernel: Kernel, nodes: NodeSet, values) -> Interpolant:
    """Solve the interpolation saddle system for the given data.

    The system is [[A, P], [P^T, 0]] [coef; poly] = [values; 0] with
    A the kernel matrix and P the polynomial block.  It is held once:
    :func:`_factor` assembles it, factors it in place, solves it and forms
    the residuals from the triangle the factorization leaves intact.
    Raises :class:`InputError` for mismatched, non-finite or non-real data
    or a node set that cannot determine the polynomial tail, and
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

    matrix, exponents = _empty_saddle(kernel, nodes)
    q = len(exponents)

    # One factorization serves the solve, the estimate and the residuals.
    rhs = np.concatenate([values, np.zeros(q)])
    solution, residual, cond, factorization = _factor(kernel, nodes, matrix, rhs)
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
    with _strand():
        _deal_kernel_rows(kernel, _centred(nodes, pts), _centred(nodes, nodes.points), consume)
        s *= kernel.gamma_factor
        if interp.poly_exponents:
            s += _poly_matrix(interp.poly_exponents, nodes, pts) @ interp.poly_coeffs
    return float(s[0]) if one else s


def condition_estimate(kernel: Kernel, nodes: NodeSet) -> float:
    """1-norm condition estimate of the full saddle matrix, the same
    number :func:`fit` reports for these nodes."""
    matrix = _empty_saddle(kernel, nodes)[0]
    try:
        return _factor(kernel, nodes, matrix)[2]
    except (ConditioningError, InputError):  # InputError: rank P < q
        return math.inf
