"""Command-line front end.

Subcommands: ``constants``, ``criterion``, ``optimize``, ``fit``,
``verify``.  Curves are emitted as CSV, structured results as JSON, and
stdout carries exclusively the requested document (diagnostics go to
stderr).  Exit codes: 0 ok, 2 usage or input error, 3 numeric failure,
4 violated admissibility precondition.

The selection commands (``constants``, ``criterion``, ``optimize``) are
pure ``math`` code and load neither numpy nor scipy, nor the ``inspect``
module, so most of their process time is the interpreter's own start-up;
``criterion`` samples its curve on the range of
:func:`mqshape.optimizer.curve_range`, the one owner of that range, with
one per-curve evaluator (:func:`mqshape.criterion.sample_curve`) and
writes the CSV rows as text.
``fit`` and ``verify`` import numpy, :mod:`mqshape.rbf` and
:mod:`mqshape.verify` when they run, and the first factorization loads
scipy's LAPACK extension without the ``scipy.linalg`` package.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import List, Optional

from .constants import Mode, ProblemSpec, derive_constants
from .criterion import sample_curve
from .errors import (
    ConditioningError,
    InputError,
    NumericError,
    PreconditionError,
    SpecError,
)
from .optimizer import curve_range, optimal_c

__all__ = ["main", "build_parser"]

# Package exports that this module's namespace offers without importing
# them (and numpy) at load time: code that reads or wraps ``cli.fit`` and
# the like, as the traced benchmark pass does, resolves them on first
# access through the package, whose lazy table names their modules.
_LAZY = ("fit", "run_bound_experiment")


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(sys.modules[__package__], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _add_spec_flags(p: argparse.ArgumentParser, need_delta: bool = True) -> None:
    p.add_argument("--n", type=int, required=True, help="space dimension")
    p.add_argument("--beta", type=float, required=True, help="kernel exponent")
    p.add_argument("--sigma", type=float, default=1.0, help="target-space parameter")
    if need_delta:
        p.add_argument("--delta", type=float, required=True, help="fill distance")
    p.add_argument("--b0", type=float, default=None, help="cube side length")
    p.add_argument(
        "--mode",
        choices=[m.value for m in Mode],
        default=Mode.PRACTICAL.value,
        help="criterion mode",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqshape",
        description="Optimal multiquadric shape parameter selection",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", help="derived constants as JSON")
    _add_spec_flags(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("criterion", help="criterion curve samples as CSV")
    _add_spec_flags(p)
    p.add_argument("--c-lo", type=float, default=None, help="range start (default c_min)")
    p.add_argument("--c-hi", type=float, default=None, help="range end")
    p.add_argument("--count", type=int, default=200, help="number of samples")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("optimize", help="optimal shape parameter as JSON")
    _add_spec_flags(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("fit", help="fit an interpolant to CSV data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--c", type=float, required=True, help="shape parameter")
    p.add_argument("--nodes", required=True, help="CSV of nodes (coords[, value])")
    p.add_argument("--values", default=None, help="optional CSV of values")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("verify", help="bound-versus-error experiment as JSON")
    _add_spec_flags(p, need_delta=False)
    p.add_argument("--c", type=float, required=True, help="shape parameter")
    p.add_argument("--gauss-a", type=float, required=True, help="gaussian width")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.add_argument("--nodes", required=True, help="CSV of node coordinates")
    p.add_argument("--corner", type=float, default=0.0, help="cube corner (all axes)")
    p.add_argument("--eval-grid", type=int, default=400)
    p.add_argument("--grid-per-side", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _spec_from_args(args, delta: Optional[float] = None) -> ProblemSpec:
    return ProblemSpec(
        n=args.n,
        beta=args.beta,
        sigma=args.sigma,
        delta=args.delta if delta is None else delta,
        b0=args.b0,
        mode=Mode(args.mode),
    )


def _read_csv_rows(path: str, columns: int):
    """The numeric rows of a CSV file as a float array."""
    import numpy as np

    rows: List[List[float]] = []
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != columns:
                raise InputError(
                    f"{path}, row {lineno}: expected {columns} columns, got {len(row)}"
                )
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise InputError(f"{path}, row {lineno}: {exc}") from exc
    if not rows:
        raise InputError(f"{path}: no data rows")
    return np.asarray(rows)


def _finite_or_null(value):
    """``value`` with every non-finite float replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return value


def _json(doc) -> str:
    """Strict JSON: it has no NaN or Infinity, so non-finite floats print
    as null."""
    return json.dumps(_finite_or_null(doc), indent=2, allow_nan=False) + "\n"


def _emit(doc, fmt: str) -> str:
    if fmt == "json":
        return _json(doc)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in doc.items():
        writer.writerow([key, json.dumps(value) if isinstance(value, (list, dict)) else value])
    return out.getvalue()


def _cmd_constants(args) -> str:
    spec = _spec_from_args(args)
    dc = derive_constants(spec)
    doc = {
        "m": dc.m,
        "gamma_n": dc.gamma_n,
        "rho": dc.rho,
        "log_delta_product": dc.log_delta_product,
        "alpha_n": dc.alpha_n,
        "log_alpha_n": dc.log_alpha_n,
        "log_c_min": dc.log_c_min.log_value,
        "log_c0": None if dc.log_c0 is None else dc.log_c0.log_value,
        "eta_log_abs": dc.eta_log_abs,
        "two_n_gamma_n": dc.two_n_gamma,
        "log_d0": dc.log_d0,
        "log_fill_cap_at_c0": (
            None if dc.log_c0 is None else dc.log_fill_cap_at_log_c(dc.log_c0.log_value)
        ),
    }
    return _emit(doc, args.format)


def _cmd_criterion(args) -> str:
    spec = _spec_from_args(args)
    dc = derive_constants(spec)
    c_lo, c_hi = curve_range(spec, dc, args.c_lo, args.c_hi)
    samples = sample_curve(spec, dc, None, c_lo, c_hi, args.count)
    if args.format == "json":
        return _json([{"c": s.c, "logH": s.log_h} for s in samples])
    # the text csv.writer would give: a float's repr never needs quoting
    return "c,logH\n" + "".join(f"{c!r},{log_h!r}\n" for c, log_h in samples)


def _cmd_optimize(args) -> str:
    spec = _spec_from_args(args)
    dc = derive_constants(spec)
    result = optimal_c(spec, dc)
    doc = {
        "c_star": result.c_star,
        "log_h_star": result.log_h_star,
        "clamped_lower": result.clamped_lower,
        "iterations": result.iterations,
        "bracket": list(result.bracket),
    }
    return _emit(doc, args.format)


def _cmd_fit(args) -> str:
    import numpy as np

    from . import rbf

    if args.values is None:
        data = _read_csv_rows(args.nodes, args.n + 1)
        pts, values = data[:, : args.n], data[:, args.n]
    else:
        pts = _read_csv_rows(args.nodes, args.n)
        values = _read_csv_rows(args.values, 1).ravel()
    corner = pts.min(axis=0)
    side = float(max(np.max(pts.max(axis=0) - corner), 1.0))
    nodes = rbf.NodeSet(points=pts, cube=(corner, side))
    kern = rbf.Kernel(c=args.c, beta=args.beta, n=args.n)
    interp = rbf.fit(kern, nodes, values)
    doc = {
        "n_nodes": nodes.count,
        "n_poly_terms": len(interp.poly_exponents),
        "node_residual": interp.node_residual,
        "side_condition_residual": interp.side_condition_residual,
        "condition_estimate": interp.condition_estimate,
        "kernel_coeffs": interp.kernel_coeffs.tolist(),
        "poly_coeffs": interp.poly_coeffs.tolist(),
    }
    return _emit(doc, args.format)


def _cmd_verify(args) -> str:
    import numpy as np

    from . import rbf, verify

    pts = _read_csv_rows(args.nodes, args.n)
    if args.b0 is None:
        raise SpecError("verify requires --b0 (the cube side)")
    corner = np.full(args.n, args.corner)
    nodes = rbf.NodeSet(points=pts, cube=(corner, args.b0))
    # delta is measured from the nodes; the placeholder keeps validation happy
    spec = _spec_from_args(args, delta=1.0)
    bump_center = tuple(corner + 0.5 * args.b0)
    f = verify.GaussianBump(a=args.gauss_a, n=args.n, amplitude=args.amplitude, center=bump_center)
    report = verify.run_bound_experiment(
        spec, f, nodes, args.c, args.eval_grid, args.grid_per_side
    )
    doc = {
        "c": report.c,
        "delta_measured": report.delta_measured,
        "log_bound": report.log_bound,
        "max_error_measured": report.max_error_measured,
        "satisfied": report.satisfied,
        "margin_log": report.margin_log,
    }
    return _emit(doc, args.format)


_DISPATCH = {
    "constants": _cmd_constants,
    "criterion": _cmd_criterion,
    "optimize": _cmd_optimize,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document = _DISPATCH[args.subcommand](args)
    except (SpecError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 4
    except (NumericError, ConditioningError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
