"""Quantitative checks of the error-bound machinery on real interpolants.

The criterion curves only order candidate shape parameters; this module
closes the loop by fitting interpolants to concrete target functions,
measuring the worst-case error on a grid, and comparing against the full
error bound (constant prefactors included).  Bounds and errors are
compared in the log domain because the convergence factor alone can span
hundreds of orders of magnitude.  The fill distance at which the bound
is evaluated is measured by :func:`mqshape.rbf.fill_distance`, which
this module re-exports.

The bound is c-independent constants plus the criterion log H(c) of
:mod:`mqshape.criterion`, the formula the optimizer minimizes.  Its
convergence factor, from the bound's constant
C(c) = max(2 (rho/c) sqrt(n) e^{2 n gamma_n}, 2/(3 b0)), is the fixed-b0
one when a cube side b0 is given and the dilation-invariant one
otherwise.

Target functions are gaussian bumps.  Under the Fourier convention
fhat(xi) = integral f(x) e^{-i <x, xi>} dx, the bump e^{-a|x|^2} has
fhat(xi) = (pi/a)^(n/2) e^{-|xi|^2/(4a)}, so its squared weighted norm
integral |fhat|^2 e^{|xi|^2/sigma} d xi is finite exactly when
sigma > 2a and has the closed form (pi/a)^n (pi/kappa)^(n/2) with
kappa = 1/(2a) - 1/sigma.  That one convention is used consistently
everywhere in this module.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from .constants import (
    DerivedConstants,
    Mode,
    ProblemSpec,
    _is_count,
    _Record,
    _require_positive_c,
    _require_positive_finite,
    _require_real,
    _validate_dimension,
    derive_constants,
)
from .criterion import Regime, finite_cap, log_h_unified, regime_for
from .errors import InputError, NumericError, PreconditionError, SpecError
from .rbf import Kernel, NodeSet, _point_batch, _tensor_grid, evaluate, fill_distance, fit

__all__ = [
    "GaussianBump",
    "BoundReport",
    "e_sigma_norm",
    "fill_distance",
    "error_bound",
    "run_bound_experiment",
]

_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)


class GaussianBump(_Record):
    """Target function amplitude * e^{-a |x - center|^2}."""

    __slots__ = ("a", "n", "amplitude", "center")

    def __init__(
        self,
        a: float,
        n: int,
        amplitude: float = 1.0,
        center: Optional[Tuple[float, ...]] = None,
    ):
        a = _require_positive_finite(a, "gaussian width a")
        n = _validate_dimension(n)
        amplitude = _require_real(amplitude, "amplitude must be a finite real", math.isfinite)
        if center is not None:
            try:
                size = len(center)
            except TypeError:  # a number, or a 0-d array
                size = None
            if size != n:
                raise SpecError(f"center must be a sequence of n = {n} coordinates, got {center!r}")
            rule = "center coordinates must be finite reals"
            center = tuple(_require_real(v, rule, math.isfinite) for v in center)
        self._set(a, n, amplitude, center)

    def __call__(self, x):
        """The bump at one point, a float, or at a (k, n) batch, an array
        (:func:`mqshape.rbf._point_batch`)."""
        pts, one = _point_batch(x, self.n)
        if self.center is not None:
            pts = pts - np.asarray(self.center, dtype=float)
        r2 = np.sum(pts ** 2, axis=1)
        out = self.amplitude * np.exp(-self.a * r2)
        return float(out[0]) if one else out


def e_sigma_norm(f: GaussianBump, sigma: float) -> float:
    """Weighted L2 norm of the bump in the gaussian native space.

    Closed form |amplitude| (pi/a)^(n/2) (pi/kappa)^(n/4) with
    kappa = 1/(2a) - 1/sigma; translation of the bump does not change it.
    Raises :class:`PreconditionError` when sigma <= 2a (the integral
    diverges).
    """
    _require_positive_finite(sigma, "sigma")
    kappa = 1.0 / (2.0 * f.a) - 1.0 / sigma
    if kappa <= 0.0:
        raise PreconditionError(
            f"norm diverges: needs sigma > 2a, got sigma={sigma:g}, a={f.a:g}"
        )
    return (
        abs(f.amplitude)
        * (math.pi / f.a) ** (0.5 * f.n)
        * (math.pi / kappa) ** (0.25 * f.n)
    )


def error_bound(
    spec: ProblemSpec, dc: DerivedConstants, c: float, f_norm: float
) -> float:
    """log of the full worst-case error bound at shape parameter c.

    The c-independent constant prefactors and the log of the
    target-function norm, plus :func:`mqshape.criterion.log_h_unified` at
    the instance's fill distance: with the fixed-b0 factor, whose knee is
    c0, when ``spec.b0`` is set, else with the dilation-invariant one,
    whatever ``spec.mode`` says.  This is the quantity the measured
    interpolation error is compared against.  Raises
    :class:`NumericError` for c past that criterion's
    :func:`mqshape.criterion.finite_cap`, and :class:`PreconditionError`
    when ``dc.admits`` refuses c: the fill distance exceeds the admissible
    cap delta0(c) = delta min(c, c0) / c_min.
    """
    _require_positive_c(c)
    if not f_norm >= 0.0:
        raise SpecError(f"function norm must be >= 0, got {f_norm}")

    n, beta = spec.n, spec.beta
    if regime_for(n, beta) is Regime.BETA_NEG1_1D:
        const = ((beta - 3.0) / 4.0) * _LN2 - 0.5 * _LNPI
    elif beta > 0.0:
        const = ((n + beta + 1.0) / 4.0) * _LN2 + ((n + 1.0) / 4.0) * _LNPI + dc.log_d0
    else:
        # beta = -1 in n >= 2 and the other negative exponents share one
        # bound shape; the criterion rejects (n, beta) that none covers
        const = -(3.0 * n / 4.0) * (_LN2 + _LNPI)
    bound_spec = spec.replace(mode=Mode.DILATION_INVARIANT if spec.b0 is None else Mode.FIXED_B0)
    log_h = log_h_unified(c, bound_spec, dc)
    cap = finite_cap(bound_spec, dc)
    if c > cap:
        raise NumericError(
            f"shape parameter c={c:g} lies past the finite cap c={cap:g}, "
            "beyond which the criterion overflows"
        )

    if not dc.admits(math.log(c)):
        cap = math.exp(dc.log_fill_cap(c))
        raise PreconditionError(
            f"fill distance delta={spec.delta!r} exceeds the admissible cap "
            f"delta0={cap!r} at c={c:g}"
        )

    half_log_nalpha = 0.5 * (math.log(n) + dc.log_alpha_n)
    half_log_delta_prod = 0.5 * dc.log_delta_product
    log_norm = math.log(f_norm) if f_norm > 0.0 else -math.inf
    return const + half_log_nalpha + half_log_delta_prod + log_h + log_norm


class BoundReport(NamedTuple):
    """Outcome of one measured-error-versus-bound experiment."""

    c: float
    delta_measured: float
    log_bound: float
    max_error_measured: float
    satisfied: bool
    margin_log: float


def run_bound_experiment(
    spec: ProblemSpec,
    f: GaussianBump,
    nodes: NodeSet,
    c: float,
    eval_grid: int,
    grid_per_side: Optional[int] = None,
) -> BoundReport:
    """Fit, measure, and compare against the bound at the measured delta.

    Fits the interpolant to f on the nodes, measures max |f - s| over a
    uniform evaluation grid, measures the fill distance on a grid of
    ``grid_per_side`` points per axis (defaults to the evaluation grid),
    and evaluates :func:`error_bound` with delta replaced by the measured
    value.  Both grid sizes must be integers >= 2 (:class:`InputError`).
    """
    if f.n != nodes.dim or spec.n != nodes.dim:
        raise InputError("dimension mismatch between spec, target, and nodes")
    grid_per_side = eval_grid if grid_per_side is None else grid_per_side
    for name, size in (("eval_grid", eval_grid), ("grid_per_side", grid_per_side)):
        if not _is_count(size, 2):
            raise InputError(f"{name} must be an integer >= 2, got {size!r}")
    kern = Kernel(c=c, beta=spec.beta, n=spec.n)
    interp = fit(kern, nodes, f(nodes.points))

    corner, side = nodes.cube
    grid = _tensor_grid(corner, side, eval_grid, spec.n)
    err = float(np.max(np.abs(f(grid) - evaluate(interp, grid))))

    delta = fill_distance(nodes.cube, nodes, grid_per_side)
    spec_measured = spec.replace(delta=delta)
    dc = derive_constants(spec_measured)
    log_bound = error_bound(spec_measured, dc, c, e_sigma_norm(f, spec.sigma))

    log_err = math.log(err) if err > 0.0 else -math.inf
    satisfied = log_err <= log_bound
    if err == 0.0:
        margin = math.inf if log_bound > -math.inf else 0.0
    else:
        margin = log_bound - log_err
    return BoundReport(
        c=c,
        delta_measured=delta,
        log_bound=log_bound,
        max_error_measured=err,
        satisfied=satisfied,
        margin_log=margin,
    )
