#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, both passes, a few ops each.

Run from the repository root (takes about two minutes):

    python3 perfbench/smoke.py

Checks that each run exits 0 and that the last line of its stdout is the
result object with exactly the metric names and units BENCHMARK.json lists
for that pass, and that a directory holding only the benchmark files, with
no sources, makes the runner fail without printing a result.  It is a
plain script, outside the pytest collection under tests/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    # every workload, also those BENCHMARK.json does not gate (see README.md)
    for workload in ("select", "fit", "verify", "cli"):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if units != expected[trace]:
                problems.append(f"{label}: metrics {units} != {expected[trace]}")
            if not (result["correct"] and result["attempted"] >= 1):
                problems.append(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            print(f"ok  {label}: {result['attempted']} ops, {result['failed']} failed")

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "select", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    else:
        print(f"ok  bare directory: exit {proc.returncode}, {proc.stderr.strip()}")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
