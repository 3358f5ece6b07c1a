"""Emit criterion curves as CSV, ready for any plotting tool.

The recommended shape parameter is the minimizer of a regime-specific
criterion H(c) over the admissible interval [c_min, infinity).  This
script regenerates the classic curve families as (c, log H) tables:

* the one-dimensional inverse multiquadric at several fill distances,
  with the convergence factor included (fixed cube side),
* the two-dimensional inverse multiquadric at very small fill distances,
  where the convergence factor visibly moves the optimum,
* the multiquadric with beta > 0, whose curve dips at an interior point
  when the dimension is large enough.

Run:  python demos/02_criterion_curves.py
Output: demos/output/curve_*.csv with header c,logH
"""

import csv
import os

from mqshape import Mode, ProblemSpec, derive_constants, kind_for, sample_curve
from mqshape.optimizer import curve_range

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)


def emit(name, spec, c_lo=None, c_hi=None, count=600):
    dc = derive_constants(spec)
    # the range `mqshape criterion` draws: past the knee and c*, up to the cap
    lo, hi = curve_range(spec, dc, c_lo, c_hi)
    samples = sample_curve(spec, dc, kind_for(spec), lo, hi, count)
    path = os.path.join(OUT, f"curve_{name}.csv")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["c", "logH"])
        writer.writerows([(s.c, s.log_h) for s in samples])
    best = min(samples, key=lambda s: s.log_h)
    print(f"{name:<28} argmin ~ {best.c:<12.6g} log H = {best.log_h:.6g}  -> {path}")
    return best


# One dimension, beta = -1, fixed cube side: the optimum sits at the left
# endpoint for coarse fills and stays near 1/sqrt(3 sigma) when delta is small.
for delta in (0.1, 0.01, 1e-3, 1e-5):
    spec = ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=delta, b0=1.0, mode=Mode.FIXED_B0)
    emit(f"1d_beta-1_delta{delta:g}", spec)

print()
# Two dimensions, beta = -1: at delta = 1e-22 the curve only climbs on the
# admissible interval; at 1e-26 the convergence factor carves out an
# interior minimum far to the right of the bare criterion's dip.
for delta in (1e-22, 1e-26):
    spec = ProblemSpec(n=2, beta=-1.0, sigma=1.0, delta=delta, b0=1.0, mode=Mode.FIXED_B0)
    emit(f"2d_beta-1_delta{delta:g}", spec, c_hi=1e6)

print()
# beta > 0: in three dimensions the curve dips at exactly
# (n - 1 - beta)/sqrt(2 n sigma) = 0.408248...
spec = ProblemSpec(n=3, beta=1.0, sigma=1.0, delta=1e-208)
emit("3d_beta1_practical", spec, c_hi=10.0)

# ... while for n = 1 it only climbs, so smaller c is always better.
spec = ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=0.01)
emit("1d_beta1_practical", spec, c_hi=100.0)
