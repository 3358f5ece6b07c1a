"""Multiquadric kernel interpolation with polynomial side conditions.

The kernel is h(x) = Gamma(-beta/2) (c^2 + |x|^2)^(beta/2).  The
prefactor Gamma(-beta/2) comes from :func:`math.gamma`; a pole (beta a
nonnegative even integer) or an overflow (beta below about -343) is a
:class:`SpecError`.  A shape parameter so large that c^2 or the kernel
values overflow gives infinite or zero matrix entries, which the solve
reports as a :class:`ConditioningError`.  For beta > 0 the kernel is
conditionally positive definite of order m = ceil(beta/2) and the
interpolant carries a polynomial tail of degree m - 1 plus moment side
conditions on the kernel coefficients; for beta < 0 the tail is empty.
The saddle system is factored once by a partially pivoted LU and solved
once.  That one factorization also gives the 1-norm condition estimate
(LAPACK ``dgecon``, the Hager/Higham estimator: Higham, *Accuracy and
Stability of Numerical Algorithms*, ch. 15).  ``scipy.linalg`` is
imported on the first factorization, not with this module, so the
criterion and optimizer never load scipy.

Distances are taken per axis on coordinates centred on the node cube, so
an offset cube loses no digits to cancellation.  The polynomial tail is
built in the same frame, scaled to [-1, 1]^n, so its coefficients refer
to the cube and not to the origin.  :func:`evaluate` works through
fixed-size row blocks (:func:`_row_reduce`), so its memory does not grow
with the number of evaluation points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import List, Tuple

import numpy as np

from .constants import cpd_order
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
]

# Entries per row block in _row_reduce() and verify.fill_distance(): each
# temporary is 512 KiB, so a block's working set stays in a core's L2
# cache and memory does not grow with the number of evaluation points.
_EVAL_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Kernel:
    """Multiquadric kernel h(x) = Gamma(-beta/2) (c^2 + |x|^2)^(beta/2)."""

    c: float
    beta: float
    n: int
    gamma_factor: float = field(init=False)

    def __post_init__(self):
        if not self.c > 0.0:
            raise SpecError(f"shape parameter c must be positive, got {self.c}")
        try:
            g = math.gamma(-self.beta / 2.0)
        except (ValueError, OverflowError):  # a pole, or beyond double range
            g = math.inf
        if not math.isfinite(g):
            raise SpecError(
                f"beta={self.beta:g} makes the kernel prefactor non-finite"
            )
        object.__setattr__(self, "gamma_factor", g)

    def radial(self, r2):
        """Kernel value as a function of squared distance (array-friendly).
        Values beyond double range are inf (or 0 for beta < 0), never an
        exception: the solve reports them as ill-conditioning."""
        with np.errstate(over="ignore"):
            c2 = np.float64(self.c) ** 2
            return self.gamma_factor * (c2 + np.asarray(r2)) ** (self.beta / 2.0)


def kernel_eval(kernel: Kernel, x) -> float:
    """Evaluate the kernel at offset x (an n-vector)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (kernel.n,):
        raise InputError(f"expected an offset of shape ({kernel.n},), got {x.shape}")
    return float(kernel.radial(float(np.dot(x, x))))


@dataclass(frozen=True)
class NodeSet:
    """Pairwise-distinct centers inside an axis-aligned cube.

    ``cube`` is (corner, side): the cube spans corner + [0, side]^n.
    """

    points: np.ndarray
    cube: Tuple[np.ndarray, float]

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.size == 0:
            raise InputError("node set must be a nonempty (N, n) array")
        if not np.isfinite(pts).all():
            raise InputError("node coordinates must be finite")
        corner = np.asarray(self.cube[0], dtype=float).reshape(-1)
        side = float(self.cube[1])
        if corner.shape[0] != pts.shape[1]:
            raise InputError(
                f"cube corner dimension {corner.shape[0]} does not match "
                f"node dimension {pts.shape[1]}"
            )
        if not side > 0.0:
            raise InputError(f"cube side must be positive, got {side}")
        if not (np.isfinite(corner).all() and math.isfinite(side)):
            raise InputError("cube corner and side must be finite")
        slack = 1e-12 * max(side, 1.0)
        if (pts < corner - slack).any() or (pts > corner + side + slack).any():
            raise InputError("all nodes must lie inside the cube")
        # equal rows are adjacent once sorted; -0.0 == 0.0 as for distances
        ordered = pts[np.lexsort(pts.T[::-1])]
        if (ordered[1:] == ordered[:-1]).all(axis=1).any():
            raise InputError("node set contains duplicate points")
        pts.setflags(write=False)
        corner.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "cube", (corner, side))

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def uniform_grid(corner, side: float, per_side: int, n: int) -> NodeSet:
    """Uniform tensor grid of per_side^n nodes filling the cube."""
    if per_side < 1:
        raise InputError(f"per_side must be >= 1, got {per_side}")
    corner = np.asarray(corner, dtype=float).reshape(-1)
    return NodeSet(points=_tensor_grid(corner, side, per_side, n), cube=(corner, side))


def _tensor_grid(corner: np.ndarray, side: float, per_side: int, n: int) -> np.ndarray:
    """The per_side^n points of the tensor grid on the cube, endpoints
    included, one row per point with the last axis varying fastest."""
    axes = [np.linspace(corner[i], corner[i] + side, per_side) for i in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances between the rows of x and of y, summed axis by
    axis from coordinate differences: the |x|^2 - 2 x.y + |y|^2 form
    would cancel badly when the points are far from the origin."""
    d2 = np.subtract.outer(x[:, 0], y[:, 0])
    d2 *= d2
    for axis in range(1, x.shape[1]):
        diff = np.subtract.outer(x[:, axis], y[:, axis])
        diff *= diff
        d2 += diff
    return d2


def _row_reduce(x: np.ndarray, y: np.ndarray, reduce) -> np.ndarray:
    """``reduce`` applied to the squared distances from the rows of x to
    the rows of y, one row block of at most _EVAL_BLOCK_ENTRIES entries
    at a time; ``reduce`` maps a (rows, len(y)) block to one value per
    row."""
    step = max(1, _EVAL_BLOCK_ENTRIES // y.shape[0])
    out = np.empty(x.shape[0])
    for start in range(0, x.shape[0], step):
        out[start:start + step] = reduce(_sq_dists(x[start:start + step], y))
    return out


def _pairwise_sq_dists(pts: np.ndarray) -> np.ndarray:
    """Squared distance matrix of the rows of pts.  (x_i - x_j)^2 and
    (x_j - x_i)^2 are the same number and every entry sums its axes in
    the same order, so the result is symmetric to the bit."""
    return _sq_dists(pts, pts)


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
    if n < 1:
        raise SpecError(f"dimension must be >= 1, got {n}")
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


@dataclass(frozen=True)
class Interpolant:
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


def _factor(matrix: np.ndarray):
    """(solve, cond) for a square matrix: ``solve(b)`` solves A x = b from
    one LU factorization, and cond is the 1-norm condition estimate
    ||A||_1 / rcond with rcond from LAPACK dgecon on those same factors.
    An exactly singular matrix estimates inf.  Raises ValueError when the
    matrix has non-finite entries.  scipy is imported here, on the first
    factorization, so that importing this module does not load it."""
    import scipy.linalg
    from scipy.linalg.lapack import dgecon

    anorm = np.linalg.norm(matrix, 1)  # a NaN or inf entry propagates here
    if not math.isfinite(anorm):
        raise ValueError("matrix has non-finite entries")
    with warnings.catch_warnings():
        # conditioning is reported explicitly, as an estimate or an error
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu_piv = scipy.linalg.lu_factor(matrix, check_finite=False)
    rcond, info = dgecon(lu_piv[0], anorm, norm="1")
    cond = 1.0 / rcond if info == 0 and rcond > 0.0 else math.inf
    return partial(scipy.linalg.lu_solve, lu_piv), cond


def _cond1(matrix: np.ndarray) -> float:
    try:
        return _factor(matrix)[1]
    except ValueError:
        return math.inf


def _saddle(kernel: Kernel, nodes: NodeSet):
    """(saddle matrix, polynomial block or None, exponents) of the
    interpolation system on ``nodes``."""
    if kernel.n != nodes.dim:
        raise InputError(
            f"kernel dimension {kernel.n} does not match node dimension {nodes.dim}"
        )
    a = kernel.radial(_pairwise_sq_dists(_centred(nodes, nodes.points)))
    exponents = tuple(poly_basis(cpd_order(kernel.beta), nodes.dim))
    q = len(exponents)
    if not q:
        return a, None, exponents
    p = _poly_matrix(exponents, nodes, nodes.points)
    return np.block([[a, p], [p.T, np.zeros((q, q))]]), p, exponents


def fit(kernel: Kernel, nodes: NodeSet, values) -> Interpolant:
    """Solve the interpolation saddle system for the given data.

    The system is [[A, P], [P^T, 0]] [coef; poly] = [values; 0] with
    A the kernel matrix and P the polynomial block.  Raises
    :class:`InputError` for mismatched data or a node set that cannot
    determine the polynomial tail, and :class:`ConditioningError` when the
    factorization breaks down (expected behaviour for very large c).
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    n_nodes = nodes.count
    if values.shape[0] != n_nodes:
        raise InputError(
            f"got {values.shape[0]} values for {n_nodes} nodes"
        )

    saddle, p, exponents = _saddle(kernel, nodes)
    q = len(exponents)
    a = saddle[:n_nodes, :n_nodes]
    if q:
        svals = np.linalg.svd(p, compute_uv=False)
        if svals[-1] <= 1e-10 * svals[0]:
            raise InputError(
                f"node set is not unisolvent for the degree-{cpd_order(kernel.beta) - 1} "
                "polynomial tail"
            )

    # One LU serves the solve and the condition estimate.
    cond = math.inf
    try:
        solve, cond = _factor(saddle)
        solution = solve(np.concatenate([values, np.zeros(q)]))
    except (np.linalg.LinAlgError, ValueError) as exc:  # scipy raises numpy's
        raise ConditioningError(
            f"saddle system is numerically singular (cond ~ {cond:.3e})",
            condition_estimate=cond,
        ) from exc
    if not np.isfinite(solution).all():
        raise ConditioningError(
            f"saddle solve produced non-finite coefficients (cond ~ {cond:.3e})",
            condition_estimate=cond,
        )

    coef = solution[:n_nodes]
    poly = solution[n_nodes:]
    fitted = a @ coef + (p @ poly if q else 0.0)
    node_residual = float(np.max(np.abs(fitted - values)))
    side_residual = float(np.max(np.abs(p.T @ coef))) if q else 0.0
    return Interpolant(
        kernel=kernel,
        nodes=nodes,
        kernel_coeffs=coef,
        poly_coeffs=poly,
        poly_exponents=exponents,
        side_condition_residual=side_residual,
        node_residual=node_residual,
        condition_estimate=cond,
    )


def evaluate(interp: Interpolant, x) -> np.ndarray:
    """Evaluate the interpolant at one point (n,) or a batch (k, n)."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != interp.nodes.dim:
        raise InputError(
            f"evaluation points have dimension {pts.shape[1]}, "
            f"expected {interp.nodes.dim}"
        )
    nodes = interp.nodes
    s = _row_reduce(
        _centred(nodes, pts),
        _centred(nodes, nodes.points),
        lambda d2: interp.kernel.radial(d2) @ interp.kernel_coeffs,
    )
    if interp.poly_exponents:
        s = s + _poly_matrix(interp.poly_exponents, nodes, pts) @ interp.poly_coeffs
    return float(s[0]) if single else s


def condition_estimate(kernel: Kernel, nodes: NodeSet) -> float:
    """1-norm condition estimate of the full saddle matrix, the same
    number :func:`fit` reports for these nodes."""
    return _cond1(_saddle(kernel, nodes)[0])
