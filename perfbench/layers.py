"""Module boundaries the traced pass wraps, and the per-layer metrics.

Every public function that one layer calls in another is wrapped under
each module name it is called through, because ``from .x import f``
binds ``f`` separately in every importing module.  Span names are
``<defining module>.<function>`` whichever binding was called.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# (module, attribute) bindings per span name.
BINDINGS = {
    "constants.derive_constants": [("constants", "derive_constants"), ("verify", "derive_constants"), ("cli", "derive_constants")],
    "criterion.log_h_unified": [("criterion", "log_h_unified"), ("optimizer", "log_h_unified")],
    "criterion.sample_curve": [("criterion", "sample_curve"), ("cli", "sample_curve")],
    "optimizer.optimal_c": [("optimizer", "optimal_c"), ("cli", "optimal_c")],
    "rbf.fit": [("rbf", "fit"), ("verify", "fit"), ("cli", "fit")],
    "rbf.evaluate": [("rbf", "evaluate"), ("verify", "evaluate")],
    "verify.run_bound_experiment": [("verify", "run_bound_experiment"), ("cli", "run_bound_experiment")],
    "verify.fill_distance": [("verify", "fill_distance")],
    "verify.error_bound": [("verify", "error_bound")],
}

# name -> (unit, better); the order is the order of BENCHMARK.json.
METRICS = {
    "constants.derive_constants.calls": ("calls/op", "lower"),
    "constants.derive_constants.self_ms": ("ms/op", "lower"),
    "criterion.log_h_unified.calls": ("calls/op", "lower"),
    "criterion.log_h_unified.self_ms": ("ms/op", "lower"),
    "criterion.sample_curve.calls": ("calls/op", "lower"),
    "criterion.sample_curve.self_ms": ("ms/op", "lower"),
    "criterion.sample_curve.nonfinite_frac": ("ratio", "lower"),
    "optimizer.optimal_c.calls": ("calls/op", "lower"),
    "optimizer.optimal_c.self_ms": ("ms/op", "lower"),
    "optimizer.probes_per_call": ("probes/call", "lower"),
    "optimizer.golden_iterations": ("iter/call", "lower"),
    "optimizer.clamped_frac": ("ratio", "lower"),
    "optimizer.failed": ("ratio", "lower"),
    "rbf.NodeSet.self_ms": ("ms/op", "lower"),
    "rbf.fit.calls": ("calls/op", "lower"),
    "rbf.fit.self_ms": ("ms/op", "lower"),
    "rbf.fit.log10_cond_median": ("log10", "lower"),
    "rbf.fit.node_residual_max": ("abs", "lower"),
    "rbf.evaluate.calls": ("calls/op", "lower"),
    "rbf.evaluate.self_ms": ("ms/op", "lower"),
    "rbf.evaluate.kernel_entries": ("entries/op", "lower"),
    "rbf.evaluate.ns_per_entry": ("ns", "lower"),
    "verify.run_bound_experiment.self_ms": ("ms/op", "lower"),
    "verify.fill_distance.self_ms": ("ms/op", "lower"),
    "verify.fill_distance.query_points": ("points/op", "lower"),
    "verify.error_bound.self_ms": ("ms/op", "lower"),
    "verify.satisfied_frac": ("ratio", "higher"),
    "verify.margin_log_min": ("nat", "higher"),
    "cli.startup_ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms/call", "lower"),
    "cli.process_overhead_ms": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Observations:
    """Counters read from the arguments and results of wrapped calls."""

    def __init__(self):
        self.optimal = []  # (iterations, clamped) per successful call
        self.optimal_failed = 0
        self.fits = []  # (condition estimate, node residual)
        self.kernel_entries = 0
        self.query_points = 0
        self.reports = []  # (satisfied, margin_log)
        self.curve_samples = 0
        self.curve_nonfinite = 0

    def on_optimal_c(self, args, result, exc):
        if exc is None:
            self.optimal.append((result.iterations, result.clamped_lower))
        else:
            self.optimal_failed += 1

    def on_fit(self, args, result, exc):
        if exc is None:
            self.fits.append((result.condition_estimate, result.node_residual))

    def on_evaluate(self, args, result, exc):
        interp, x = args[0], np.asarray(args[1])
        k = 1 if x.ndim == 1 else x.shape[0]
        self.kernel_entries += k * interp.nodes.count

    def on_fill_distance(self, args, result, exc):
        cube, grid_per_side = args[0], args[2]
        self.query_points += grid_per_side ** len(np.atleast_1d(cube[0]))

    def on_report(self, args, result, exc):
        if exc is None:
            self.reports.append((result.satisfied, result.margin_log))

    def on_curve(self, args, result, exc):
        if exc is None:
            self.curve_samples += len(result)
            self.curve_nonfinite += sum(not math.isfinite(s.log_h) for s in result)

    def observer(self, name):
        return {
            "optimizer.optimal_c": self.on_optimal_c,
            "rbf.fit": self.on_fit,
            "rbf.evaluate": self.on_evaluate,
            "verify.fill_distance": self.on_fill_distance,
            "verify.run_bound_experiment": self.on_report,
            "criterion.sample_curve": self.on_curve,
        }.get(name)


def targets(obs: Observations):
    """(module, attr, span name, observer) for :meth:`Tracer.install`."""
    import mqshape.cli  # noqa: F401  (loaded so its bindings can be wrapped)

    import mqshape

    out = []
    for name, bindings in BINDINGS.items():
        for module, attr in bindings:
            out.append((getattr(mqshape, module), attr, name, obs.observer(name)))
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, obs: Observations, n_ops: int, extra: dict) -> dict:
    """Per-layer metrics of one traced pass, per benchmark op where the
    unit says so.  A layer the workload never reaches reads 0."""
    totals = tracer.totals()

    def calls(name):
        return _ratio(totals.get(name, (0, 0.0))[0], n_ops)

    def self_ms(name):
        return _ratio(1e3 * totals.get(name, (0, 0.0))[1], n_ops)

    n_opt = len(obs.optimal) + obs.optimal_failed
    conds = [c for c, _ in obs.fits if math.isfinite(c)]
    evaluate_s = totals.get("rbf.evaluate", (0, 0.0))[1]
    out = {
        "constants.derive_constants.calls": calls("constants.derive_constants"),
        "constants.derive_constants.self_ms": self_ms("constants.derive_constants"),
        "criterion.log_h_unified.calls": calls("criterion.log_h_unified"),
        "criterion.log_h_unified.self_ms": self_ms("criterion.log_h_unified"),
        "criterion.sample_curve.calls": calls("criterion.sample_curve"),
        "criterion.sample_curve.self_ms": self_ms("criterion.sample_curve"),
        "criterion.sample_curve.nonfinite_frac": _ratio(obs.curve_nonfinite, obs.curve_samples),
        "optimizer.optimal_c.calls": calls("optimizer.optimal_c"),
        "optimizer.optimal_c.self_ms": self_ms("optimizer.optimal_c"),
        "optimizer.probes_per_call": _ratio(
            tracer.count_children("criterion.log_h_unified", "optimizer.optimal_c"), n_opt
        ),
        "optimizer.golden_iterations": _ratio(sum(it for it, _ in obs.optimal), len(obs.optimal)),
        "optimizer.clamped_frac": _ratio(sum(cl for _, cl in obs.optimal), len(obs.optimal)),
        "optimizer.failed": _ratio(obs.optimal_failed, n_opt),
        "rbf.NodeSet.self_ms": self_ms("rbf.NodeSet"),
        "rbf.fit.calls": calls("rbf.fit"),
        "rbf.fit.self_ms": self_ms("rbf.fit"),
        "rbf.fit.log10_cond_median": math.log10(statistics.median(conds)) if conds else 0.0,
        "rbf.fit.node_residual_max": max((r for _, r in obs.fits), default=0.0),
        "rbf.evaluate.calls": calls("rbf.evaluate"),
        "rbf.evaluate.self_ms": self_ms("rbf.evaluate"),
        "rbf.evaluate.kernel_entries": _ratio(obs.kernel_entries, n_ops),
        "rbf.evaluate.ns_per_entry": _ratio(1e9 * evaluate_s, obs.kernel_entries),
        "verify.run_bound_experiment.self_ms": self_ms("verify.run_bound_experiment"),
        "verify.fill_distance.self_ms": self_ms("verify.fill_distance"),
        "verify.fill_distance.query_points": _ratio(obs.query_points, n_ops),
        "verify.error_bound.self_ms": self_ms("verify.error_bound"),
        "verify.satisfied_frac": _ratio(sum(s for s, _ in obs.reports), len(obs.reports)),
        "verify.margin_log_min": min((m for _, m in obs.reports if math.isfinite(m)), default=0.0),
        "cli.main.self_ms": _ratio(1e3 * totals.get("cli.main", (0, 0.0))[1], totals.get("cli.main", (0, 0.0))[0]),
    }
    out.update(extra)
    return {name: out.get(name, 0.0) for name in METRICS}
