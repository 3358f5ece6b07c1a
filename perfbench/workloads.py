"""The four benchmark workloads: inputs, one operation, and its output check.

Each workload builds its whole input pool from the seed before any timing,
then the runner calls ``op`` once per operation (closed loop, one client)
and ``check`` on the result outside the timed interval.  The library is
reached only through module attributes of ``constants``, ``criterion``,
``optimizer``, ``rbf`` and ``verify`` (looked up at call time, so a traced
run sees the wrapped functions), and ``cli`` only as a subprocess.

``check`` returns one of:

* ``OK``    - the output passed its check;
* ``KNOWN`` - the op hit one of the defects documented in README.md,
  "Known defects"; counted as failed, not hidden;
* ``WRONG`` - the op returned an output that failed its check;
* ``ERROR`` - the op raised anything else.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from mqshape import constants, criterion, optimizer, rbf, verify
from mqshape.constants import Mode, ProblemSpec
from mqshape.errors import NumericError

OK, KNOWN, WRONG, ERROR = "ok", "known", "wrong", "error"

# Captured before any tracing is installed, so checks never add spans.
_oracle_log_h = criterion.log_h_unified


def _oned_optimum_scale() -> float:
    """u* with c* = u*/sqrt(sigma) for the 1-D beta=-1 practical criterion.

    Root of c^4 d(H^2)/dc at sigma = 1 on the small-c branch,
    -c^2/ln 2 + 2 sqrt(3) e^{1 - 1/c^2} (2 - c^2) = 0, by bisection.  H
    depends on c only through c^2 sigma besides the c^-1/2 prefactor, so
    the minimizer scales exactly as 1/sqrt(sigma).
    """

    def g(c):
        return -c * c / math.log(2.0) + 2.0 * math.sqrt(3.0) * math.exp(1.0 - 1.0 / (c * c)) * (2.0 - c * c)

    lo, hi = 0.3, 0.9  # g(lo) < 0 < g(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


ONED_U_STAR = _oned_optimum_scale()  # 0.516622486...


def src_env(root: Path) -> dict:
    """Environment for child interpreters: import mqshape from root/src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    return env


def _loguniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def practical_optimum(n: int, beta: float, sigma: float) -> float | None:
    """Unclamped practical-mode minimizer, or None when the curve only climbs."""
    if n == 1 and beta == -1.0:
        return ONED_U_STAR / math.sqrt(sigma)
    p = n - 1.0 - beta
    return p / math.sqrt(2.0 * n * sigma) if p > 0.0 else None


def cli_default_range(dc) -> tuple[float, float]:
    """The range ``mqshape criterion`` samples when no --c-lo/--c-hi is given."""
    c_lo = dc.log_c_min.value
    c_hi = 1e3 * max(1.0, c_lo)
    if dc.log_c0 is not None and dc.log_c0.log_value < math.log(1e306):
        c_hi = max(c_hi, 10.0 * dc.log_c0.value)
    return c_lo, c_hi


# (n, beta): 1-D beta=-1; multi-D beta=-1; beta>0 with an interior dip
# (beta < n-1); beta>0 without one; general negative beta.
SELECT_REGIMES = [
    (1, -1.0),
    (2, -1.0), (3, -1.0),
    (2, 0.5), (3, 1.0),
    (1, 1.0), (2, 1.0), (3, 3.0),
    (2, -0.5), (3, -0.5), (3, -1.5),
]
MODES = list(Mode)


def draw_specs(rng: random.Random, regimes, count: int) -> list[ProblemSpec]:
    """Admissible specs, round-robin over regimes x modes so every seed has
    the same mix; sigma is log-uniform on [0.25, 4] and delta puts c_min at
    0.1x..10x the regime's reference point, so clamped and interior optima
    both occur."""
    specs = []
    for i in range(count):
        n, beta = regimes[i % len(regimes)]
        mode = MODES[(i // len(regimes)) % len(MODES)]
        sigma = _loguniform(rng, 0.25, 4.0)
        ref = practical_optimum(n, beta, sigma) or 1.0 / math.sqrt(sigma)
        log_c_min_at_unit_delta = constants.derive_constants(
            ProblemSpec(n=n, beta=beta, sigma=sigma, delta=1.0)
        ).log_c_min.log_value
        c_min = ref * _loguniform(rng, 0.1, 10.0)
        delta = math.exp(math.log(c_min) - log_c_min_at_unit_delta)
        specs.append(ProblemSpec(n=n, beta=beta, sigma=sigma, delta=delta, b0=1.0, mode=mode))
    return specs


class Select:
    """derive_constants + optimal_c + sample_curve: pure scalar Python in
    criterion/optimizer; never touches rbf or scipy."""

    name = "select"
    cycle = len(SELECT_REGIMES) * len(MODES)  # the period of draw_specs
    tail_pct = 99.0
    rss_children = False
    pool = 62 * cycle
    grid = 1000  # oracle grid for the non-practical modes
    curve_points = 200

    def __init__(self, seed: int, root: Path):
        self.inputs = draw_specs(random.Random(seed), SELECT_REGIMES, self.pool)

    def op(self, spec, tr):
        dc = constants.derive_constants(spec)
        best = optimizer.optimal_c(spec, dc)
        lo, hi = cli_default_range(dc)
        curve = criterion.sample_curve(spec, dc, criterion.kind_for(spec), lo, hi, self.curve_points)
        return dc, best, (lo, hi), curve

    def check(self, spec, out, exc):
        if exc is not None:
            # optimizer.py caps the search at sqrt(8e307/sigma), which is
            # inf for small sigma and too loose for the beta=-1 multi-D
            # form; with b0 given in n=3 the cap becomes 10*c0 ~ 1e205.
            if isinstance(exc, NumericError) and spec.n == 3 and spec.b0 is not None:
                return KNOWN
            return ERROR
        dc, best, (lo, hi), curve = out
        cs = [s.c for s in curve]
        if len(cs) != self.curve_points or cs[0] != lo or cs[-1] != hi:
            return WRONG
        if any(b <= a for a, b in zip(cs, cs[1:])):
            return WRONG
        c_min = dc.log_c_min.value
        if spec.mode is Mode.PRACTICAL:
            expected = max(c_min, practical_optimum(spec.n, spec.beta, spec.sigma) or 0.0)
            return OK if abs(best.c_star - expected) <= 1e-6 * expected else WRONG
        kind = criterion.kind_for(spec)
        at_star = _oracle_log_h(best.c_star, spec, dc, kind)
        grid_min = math.inf
        for c in np.geomspace(best.bracket[0], best.bracket[1], self.grid):
            v = _oracle_log_h(float(c), spec, dc, kind)
            if v < grid_min:
                grid_min = v
        return OK if at_star <= grid_min + 1e-9 else WRONG


FIT_C = 0.2
FIT_TOL = 1e-3


class Fit:
    """NodeSet + fit + evaluate on ~1024 jittered 2-D nodes: O(N^2) assembly
    and duplicate check, O(N^3) condition estimate and LU."""

    name = "fit"
    cycle = 2  # beta = -1, then +1
    tail_pct = 70.0
    rss_children = False
    pool = 8
    per_side = 32
    eval_per_side = 64

    def __init__(self, seed: int, root: Path):
        rng = np.random.default_rng(seed)
        h = 1.0 / self.per_side
        ij = np.stack(np.meshgrid(np.arange(self.per_side), np.arange(self.per_side), indexing="ij"), -1)
        base = (ij.reshape(-1, 2) + 0.5) * h
        g = np.linspace(0.0, 1.0, self.eval_per_side)
        self.grid = np.stack(np.meshgrid(g, g, indexing="ij"), -1).reshape(-1, 2)
        self.inputs = []
        for i in range(self.pool):
            pts = base + rng.uniform(-0.3 * h, 0.3 * h, base.shape)
            bump = verify.GaussianBump(a=4.0, n=2, center=tuple(0.5 + rng.uniform(-0.1, 0.1, 2)))
            beta = -1.0 if i % 2 == 0 else 1.0  # SPD, then saddle with a constant tail
            self.inputs.append((pts, beta, bump(pts), bump(self.grid)))

    def op(self, inp, tr):
        pts, beta, values, _ = inp
        with tr.span("rbf.NodeSet"):
            nodes = rbf.NodeSet(points=pts, cube=(np.zeros(2), 1.0))
        interp = rbf.fit(rbf.Kernel(c=FIT_C, beta=beta, n=2), nodes, values)
        return interp, rbf.evaluate(interp, self.grid)

    def check(self, inp, out, exc):
        if exc is not None:
            return ERROR
        interp, s = out
        finite = (
            math.isfinite(interp.node_residual)
            and math.isfinite(interp.side_condition_residual)
            and np.isfinite(s).all()
        )
        return OK if finite and float(np.max(np.abs(s - inp[3]))) < FIT_TOL else WRONG


class Verify:
    """1-D fixed-b0 bound experiments at c* with a 40001-point evaluation
    grid: small systems, a huge k x N evaluate block, a KD-tree query."""

    name = "verify"
    cycle = 5  # runs stop on a whole cycle of node counts
    tail_pct = 75.0
    rss_children = False
    node_counts = (41, 81, 161, 321, 641)
    cycles = 6
    eval_grid = 40001

    def __init__(self, seed: int, root: Path):
        rng = random.Random(seed)
        grids = {m: rbf.uniform_grid(np.zeros(1), 1.0, m, 1) for m in self.node_counts}
        self.inputs = []
        for _ in range(self.cycles):
            sigma = _loguniform(rng, 0.5, 2.0)
            bump = verify.GaussianBump(a=sigma * rng.uniform(0.1, 0.4), n=1, center=(0.5 + rng.uniform(-0.1, 0.1),))
            for m in self.node_counts:
                spec = ProblemSpec(n=1, beta=-1.0, sigma=sigma, delta=0.5 / (m - 1), b0=1.0, mode=Mode.FIXED_B0)
                c_star = optimizer.optimal_c(spec, constants.derive_constants(spec)).c_star
                self.inputs.append((spec, bump, grids[m], c_star))

    def op(self, inp, tr):
        spec, bump, nodes, c_star = inp
        return verify.run_bound_experiment(spec, bump, nodes, c_star, self.eval_grid)

    def check(self, inp, report, exc):
        if exc is not None:
            return ERROR
        if report.satisfied and math.isfinite(report.log_bound):
            return OK
        # fit() returns solutions of systems with cond ~1e18..1e22 without a
        # warning.  At the largest node count, where cond*eps is far above 1,
        # the measured error can be roundoff of size up to cond*eps*max|f|
        # and break the bound: a known defect, counted as failed.  Any other
        # violation, or a larger error, is wrong.
        spec, bump, nodes, c_star = inp
        if nodes.count != self.node_counts[-1] or not math.isfinite(report.log_bound):
            return WRONG
        eps = np.finfo(float).eps
        cond = rbf.condition_estimate(rbf.Kernel(c=c_star, beta=spec.beta, n=spec.n), nodes)
        roundoff = cond * eps * float(np.max(np.abs(bump(nodes.points))))
        return KNOWN if cond * eps > 1.0 and report.max_error_measured <= roundoff else WRONG


OPTIMIZE_KEYS = {"c_star", "log_h_star", "clamped_lower", "iterations", "bracket"}
VERIFY_KEYS = {"c", "delta_measured", "log_bound", "max_error_measured", "satisfied", "margin_log"}


class Cli:
    """``mqshape optimize``, ``criterion --count 2000`` and ``verify`` on an
    11-node file, each a fresh interpreter: start-up, import, argparse,
    CSV reading and JSON output."""

    name = "cli"
    cycle = 3  # optimize, criterion, verify
    tail_pct = 90.0
    rss_children = True
    cycles = 10
    criterion_count = 2000

    def __init__(self, seed: int, root: Path):
        self.env = src_env(root)
        self.root = root
        self.child_peak_rss_kib = 0  # largest ru_maxrss of any command run
        rng = random.Random(seed)
        nodes_csv = root / ".bench_out" / "cli_nodes_11.csv"
        nodes_csv.parent.mkdir(exist_ok=True)
        nodes_csv.write_text("".join(f"{float(x)!r}\n" for x in np.linspace(0.0, 1.0, 11)))
        # n <= 2 only: the n=3 optimizer defect is counted in `select`; here
        # it would only add noise to ~25 ops per run.
        specs = draw_specs(rng, [r for r in SELECT_REGIMES if r[0] <= 2], 2 * self.cycles)
        self.inputs = []
        for k in range(self.cycles):
            for kind, spec in (("optimize", specs[2 * k]), ("criterion", specs[2 * k + 1])):
                argv = [kind, "--n", str(spec.n), "--beta", repr(spec.beta), "--sigma", repr(spec.sigma),
                        "--delta", repr(spec.delta), "--b0", repr(spec.b0), "--mode", spec.mode.value]
                if kind == "criterion":
                    argv += ["--count", str(self.criterion_count)]
                self.inputs.append((kind, argv))
            sigma = _loguniform(rng, 0.25, 4.0)
            spec = ProblemSpec(n=1, beta=-1.0, sigma=sigma, delta=0.05, b0=1.0, mode=Mode.FIXED_B0)
            c_star = optimizer.optimal_c(spec, constants.derive_constants(spec)).c_star
            self.inputs.append(("verify", [
                "verify", "--n", "1", "--beta", "-1", "--sigma", repr(sigma), "--b0", "1",
                "--mode", "fixed-b0", "--c", repr(c_star), "--gauss-a", repr(sigma / 4.0),
                "--nodes", str(nodes_csv),
            ]))

    def op(self, inp, tr):
        """(exit code, stdout).  The child is reaped with ``wait4`` to read its
        own ru_maxrss: RUSAGE_CHILDREN would also take in the set-up probes."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "mqshape.cli", *inp[1]],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        timer = threading.Timer(120.0, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_rss_kib = max(self.child_peak_rss_kib, usage.ru_maxrss)
        return proc.returncode, out

    def check(self, inp, out, exc):
        if exc is not None:
            return ERROR
        returncode, stdout = out
        if returncode != 0:
            return WRONG
        return OK if parse_cli_output(inp[0], stdout, self.criterion_count) else WRONG

    def in_process(self, inp, tr):
        """Run the same command through ``cli.main`` in this process, so a
        traced run can split a call into CLI work and process overhead."""
        from mqshape import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), tr.span("cli.main"):
            rc = cli.main(inp[1])
        return rc == 0 and parse_cli_output(inp[0], buf.getvalue(), self.criterion_count)


def parse_cli_output(kind: str, stdout: str, count: int) -> bool:
    try:
        if kind == "criterion":
            lines = stdout.splitlines()
            rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
            return lines[0] == "c,logH" and len(rows) == count and all(len(r) == 2 for r in rows)
        doc = json.loads(stdout)
    except (ValueError, IndexError):
        return False
    if kind == "optimize":
        return set(doc) == OPTIMIZE_KEYS and doc["c_star"] > 0.0 and math.isfinite(doc["c_star"])
    return set(doc) == VERIFY_KEYS and doc["satisfied"] is True and math.isfinite(doc["log_bound"])


WORKLOADS = {w.name: w for w in (Select, Fit, Verify, Cli)}
