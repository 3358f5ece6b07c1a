"""Pick the optimal shape parameter across regimes and modes.

The optimizer minimizes the criterion over the admissible interval
[c_min, infinity), clamping to the left endpoint when the curve never
descends.  In practical mode the minimizer is known in closed form and
no search is made:

* for the general core (every (n, beta) but beta = -1 in one dimension)
  the dip is at (n - 1 - beta)/sqrt(2 n sigma) when 1 + beta - n < 0; for
  beta = -1 in n >= 2 dimensions that is sqrt(n/(2 sigma)) (compared
  below with what the optimizer returns),
* for beta = -1 in one dimension it is u*/sqrt(sigma), u* = 0.516622...

The fixed-b0 and dilation-invariant modes add the convergence factor's
-eta c below its knee c0; their local minima are where the slope of
log H - eta c passes upward through 0, found to the last bit by bisection
on each stretch where that slope rises, so the optimizer compares log H
at c_min, at those points and at c0, with no scan.

Run:  python demos/03_optimal_shape_parameter.py
"""

import math

from mqshape import (
    Mode,
    ProblemSpec,
    derive_constants,
    optimal_c,
)

CASES = [
    ("1D inverse MQ, coarse fill", ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=0.01)),
    ("1D inverse MQ, fine fill", ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=1e-5)),
    ("2D inverse MQ, practical", ProblemSpec(n=2, beta=-1.0, sigma=1.0, delta=1e-30)),
    ("3D MQ beta=1 (interior dip)", ProblemSpec(n=3, beta=1.0, sigma=1.0, delta=1e-208)),
    ("1D MQ beta=1 (always climbs)", ProblemSpec(n=1, beta=1.0, sigma=1.0, delta=0.01)),
    (
        "2D inverse MQ + factor, d=1e-26",
        ProblemSpec(n=2, beta=-1.0, sigma=1.0, delta=1e-26, b0=1.0, mode=Mode.FIXED_B0),
    ),
    (
        "1D dilation-invariant, d=1e-4",
        ProblemSpec(n=1, beta=-1.0, sigma=1.0, delta=1e-4, mode=Mode.DILATION_INVARIANT),
    ),
]

print(f"{'case':<34} {'c*':>14} {'log H(c*)':>14} {'clamped':>8}")
for label, spec in CASES:
    result = optimal_c(spec, derive_constants(spec))
    print(
        f"{label:<34} {result.c_star:>14.6g} {result.log_h_star:>14.6g} "
        f"{str(result.clamped_lower):>8}"
    )

print()
print("Closed-form cross-checks:")
for n, delta in ((2, 1e-30), (3, 1e-208)):
    spec = ProblemSpec(n=n, beta=-1.0, sigma=1.0, delta=delta)
    c_star = optimal_c(spec, derive_constants(spec)).c_star
    print(f"  {n}D inverse MQ practical c* at sigma=1: {c_star:.9f} (sqrt({n}/2) = {math.sqrt(n / 2):.9f})")
print(f"  3D MQ dip: (3-1-1)/sqrt(6) = {1.0 / math.sqrt(6.0):.9f}")
print()
print("The admissible interval matters: with delta = 0.01 in one dimension the")
print("left endpoint c_min = 0.24 e^4 = 13.1 already exceeds the bare optimum")
print("near 0.52, so the recommendation clamps to c_min.")
