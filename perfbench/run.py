#!/usr/bin/env python3
"""mqshape benchmark: one workload per process, closed loop, one client.

Run from the repository root:

    python3 perfbench/run.py --workload select --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each input
cycle of the same workload once untraced and once traced, and prints the
per-layer metrics with the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("select", "fit", "verify", "cli")
PROBES = 7  # fresh processes timed for setup_s and for cli.startup_ms
# One BLAS thread, here and in every child.  On two shared vCPUs a second
# OpenBLAS thread spins between calls beside the main one, and the spread
# between runs doubles; see README.md, "Threads".
ONE_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

E2E_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0, help="measured time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0.0:
        p.error("--seconds must be positive")
    return args


def monotonic() -> float:
    """System-wide clock, comparable between this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_library() -> None:
    """Import mqshape from this checkout's src/, and nowhere else."""
    package = SRC / "mqshape"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no mqshape sources at {package}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import mqshape

    if Path(mqshape.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported mqshape from {mqshape.__file__}, not from {package}")


def prepare(name: str, seed: int):
    """Import, build every input and make one untimed, unchecked warm-up op."""
    load_library()
    import spans
    import workloads

    wl = workloads.WORKLOADS[name](seed, ROOT)
    wl.op(wl.inputs[0], spans.NullTracer())
    return wl


class Phase:
    """Latency and check verdict of every op of one timed loop."""

    def __init__(self):
        self.latency: list[float] = []
        self.verdict: list[str] = []
        self.in_process: list[float] = []  # cli: wall time of the same command through cli.main
        self.setup: list[float] = []  # set-up times of the probes made during the loop

    @property
    def attempted(self) -> int:
        return len(self.latency)

    @property
    def ok(self) -> int:
        return self.verdict.count("ok")

    def counts(self) -> dict[str, int]:
        return {v: self.verdict.count(v) for v in sorted(set(self.verdict))}


def run_op(wl, i: int, tr, phase: Phase, in_process: bool = False) -> None:
    """Op ``i``, timed alone, then its check; with ``in_process`` a `cli`
    command is also run through ``cli.main`` and its output checked."""
    import workloads

    inp = wl.inputs[i % len(wl.inputs)]
    tr.op_index = i
    out = exc = None
    t0 = time.perf_counter()
    try:
        with tr.span(f"bench.{wl.name}.op"):
            out = wl.op(inp, tr)
    except Exception as e:  # counted as a failed op, never hidden
        exc = e
    phase.latency.append(time.perf_counter() - t0)
    verdict = wl.check(inp, out, exc)
    if in_process and hasattr(wl, "in_process"):
        t1 = time.perf_counter()
        ok = wl.in_process(inp, tr)
        phase.in_process.append(time.perf_counter() - t1)
        if verdict == workloads.OK and not ok:
            verdict = workloads.WRONG
    phase.verdict.append(verdict)


def run_ops(wl, seconds: float, tr, probe=None) -> Phase:
    """Closed loop: the next op starts when the previous one and its check
    are done.  Stops at the first whole input cycle after ``seconds``.  With
    ``probe``, PROBES set-up probes are spread evenly over the run, between
    input cycles; the time they take is added to the run."""
    phase = Phase()
    t0 = time.perf_counter()
    paused = 0.0
    i = 0
    while True:
        if i and i % wl.cycle == 0:
            busy = time.perf_counter() - t0 - paused
            while probe is not None and len(phase.setup) < PROBES and busy * PROBES >= seconds * (len(phase.setup) + 1):
                t1 = time.perf_counter()
                phase.setup.append(probe())
                paused += time.perf_counter() - t1
            if busy >= seconds:
                return phase
        run_op(wl, i, tr, phase)
        i += 1


def best_by_kind(phase: Phase, cycle: int) -> list[tuple[float, int]]:
    """(fastest latency, samples) of each kind of op, i.e. each position
    in the input cycle, ordered by that latency.  Other tenants of a shared
    machine only ever add time to an op, and for minutes at a stretch, so
    the fastest of ~20 ops of one kind follows the program while their
    median follows the machine; see README.md, "Statistics"."""
    kinds = (phase.latency[k::cycle] for k in range(cycle))
    return sorted((min(xs), len(xs)) for xs in kinds)


def kind_at(best: list[tuple[float, int]], pct: float) -> int:
    """Index of the kind at nearest-rank percentile ``pct`` of the ops:
    every kind is an equal share of a run."""
    return max(1, math.ceil(len(best) * pct / 100.0)) - 1


def setup_probe(workload: str, seed: int):
    """A function timing the set-up of one fresh process: from just before
    spawning the interpreter to the end of its warm-up op."""
    import workloads

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]

    def probe() -> float:
        t0 = monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, env=workloads.src_env(ROOT), capture_output=True,
                              text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        return float(proc.stdout.split()[-1]) - t0

    return probe


def startup_ms() -> float:
    """Median wall time of a fresh ``python -c "import mqshape"``."""
    import workloads

    times = []
    for _ in range(PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mqshape"], cwd=ROOT, env=workloads.src_env(ROOT),
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def end_to_end(wl, phase: Phase) -> tuple[dict, list[str]]:
    if wl.rss_children:
        peak_rss_mb = wl.child_peak_rss_kib / 1024.0  # ru_maxrss is KiB on Linux
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = phase.setup
    n = phase.attempted
    best = best_by_kind(phase, wl.cycle)
    mid, tail = kind_at(best, 50.0), kind_at(best, wl.tail_pct)
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": wl.cycle / sum(t for t, _ in best),
        "latency_p50_ms": 1e3 * best[mid][0],
        "latency_tail_ms": 1e3 * best[tail][0],
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": phase.ok / n,
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes spread over the run: "
                   + " ".join(f"{s:.3f}" for s in setups),
        "throughput_ops_s": f"{wl.cycle} kinds of op at their fastest; over the whole run"
                            f" {n / sum(phase.latency):.6g} ops/s ({n} ops / {sum(phase.latency):.3f} s timed)",
        "latency_p50_ms": f"fastest of {best[mid][1]} ops of kind {mid + 1} of {wl.cycle} by speed;"
                          f" all-sample median {1e3 * statistics.median(phase.latency):.6g}",
        "latency_tail_ms": f"p{wl.tail_pct:g} kind: fastest of {best[tail][1]} ops of kind {tail + 1} of"
                           f" {wl.cycle}; all-sample p{wl.tail_pct:g}"
                           f" {1e3 * sorted(phase.latency)[math.ceil(n * wl.tail_pct / 100.0) - 1]:.6g}",
        "peak_rss_mb": "ru_maxrss of " + ("the cli child processes" if wl.rss_children else "this process"),
        "ok_frac": f"failed_frac = {n - phase.ok}/{n} = {(n - phase.ok) / n:.6f}",
    }
    lines = [f"{k:<18} {v:<14.6g} {E2E_UNITS[k]:<6} {notes[k]}" for k, v in values.items()]
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}, lines


def per_layer(wl, seconds: float) -> tuple[dict, Phase, list[str]]:
    """Per-layer metrics from a pass that runs each input cycle twice, once
    untraced and once traced, in alternating order, until ``seconds`` have
    passed.  The returned phase holds the verdicts of both kinds of block."""
    import layers
    import spans

    null, tracer, obs = spans.NullTracer(), spans.Tracer(), layers.Observations()
    untraced, traced = Phase(), Phase()
    for i in range(wl.cycle):  # untimed: the in-process cli path is cold until now
        run_op(wl, i, null, Phase(), in_process=True)
    deadline = time.perf_counter() + seconds
    start = 0
    while start == 0 or time.perf_counter() < deadline:
        block = range(start, start + wl.cycle)
        order = ((untraced, null), (traced, tracer))
        for phase, tr in order if start // wl.cycle % 2 == 0 else order[::-1]:
            if tr is tracer:
                tracer.install(layers.targets(obs))
            try:
                for i in block:
                    run_op(wl, i, tr, phase, in_process=True)
            finally:
                tracer.uninstall()
        start += wl.cycle
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{wl.name}.npz"
    tracer.write(trace_file)

    # Both kinds of block ran the same ops.  The subprocess a `cli` op
    # spawns is never traced, so there the in-process calls carry the cost.
    timed = "in_process" if untraced.in_process else "latency"
    extra = {"trace.overhead_frac": sum(getattr(traced, timed)) / sum(getattr(untraced, timed)) - 1.0}
    if untraced.in_process:
        gaps = [s - i for s, i in zip(untraced.latency, untraced.in_process)]
        extra["cli.process_overhead_ms"] = 1e3 * statistics.median(gaps)
        extra["cli.startup_ms"] = startup_ms()
    values = layers.layer_metrics(tracer, obs, traced.attempted, extra)
    lines = [
        f"{traced.attempted} ops each untraced and traced; {timed} {sum(getattr(untraced, timed)):.6g} s"
        f" untraced, {sum(getattr(traced, timed)):.6g} s traced;"
        f" {len(tracer.start)} spans written to {trace_file.relative_to(ROOT)}"
    ]
    lines += [f"{k:<40} {v:<14.6g} {layers.METRICS[k][0]}" for k, v in values.items()]
    metrics = {k: {"value": v, "unit": layers.METRICS[k][0]} for k, v in values.items()}
    both = Phase()
    both.latency = untraced.latency + traced.latency
    both.verdict = untraced.verdict + traced.verdict
    return metrics, both, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(ONE_THREAD)  # before numpy is first imported
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print(repr(monotonic()))
        return 0

    wl = prepare(args.workload, args.seed)
    import machine
    import spans

    info = machine.describe()
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    print("machine " + json.dumps(info, sort_keys=True))

    if args.trace:
        metrics, phase, lines = per_layer(wl, args.seconds)
    else:
        phase = run_ops(wl, args.seconds, spans.NullTracer(), setup_probe(args.workload, args.seed))
        metrics, lines = end_to_end(wl, phase)
    counts = phase.counts()
    print(f"reference_loop_ms after the run: {machine.reference_loop_ms():.4g}")
    print(f"workload {wl.name}: attempted {phase.attempted}, verdicts {json.dumps(counts)}")
    for line in lines:
        print(line)
    result = {
        "correct": counts.get("wrong", 0) == 0 and counts.get("error", 0) == 0,
        "attempted": phase.attempted,
        "failed": phase.attempted - phase.ok,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
