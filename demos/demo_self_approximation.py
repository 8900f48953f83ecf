"""The headline experiment: how often do differently scaled vertical shifts of
an L-function come epsilon-close to each other on a compact set?

Run with:  python3 demos/demo_self_approximation.py
"""

import numpy as np

from selfapprox import (
    ShiftFamily,
    StripRegion,
    character_from_id,
    density_from_samples,
    g_values,
    sample_g,
)

chi = character_from_id("4:1")
region = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)
family = ShiftFamily((1.0, 2.0), (chi, chi))

# g(tau) is the sup over the compact K of |L(s + i tau, chi) - L(s + 2i tau, chi)|.
# Self-approximation says g dips below any epsilon on a set of tau of positive
# lower density.

print("g(tau) at a few points:")
few = [0.0, 1.0, 5.0, 25.0]
for tau, g_tau in zip(few, g_values(few, family, region, refine=False)[0]):
    print(f"  g({tau:5.1f}) = {g_tau:.4f}")

# A degenerate family (equal scalings, equal characters) collapses exactly.
degenerate = ShiftFamily((1.0, 1.0), (chi, chi))
g_deg, _ = g_values([7.3], degenerate, region, refine=False)
print(f"degenerate family: g(7.3) = {g_deg[0]:.1e}")

# --- density of epsilon-approximation ---------------------------------------
# Sample tau uniformly in [0, T] once, then measure the fraction with g < eps
# and attach a Wilson interval.  Positivity of ci_lo at finite T is the
# numeric shadow of the positivity theorem.  sample_g returns the raw g
# values, so sweeping epsilon is free afterwards; refinement re-takes the sup
# on a doubled grid but leaves these base-grid values as they are.

_, g, deltas = sample_g(family, region, 2000.0, 400,
                        seed=20260824, refine=True, threads=4)
for eps in (0.5, 1.0, 1.5):
    est = density_from_samples(g, eps, 2000.0)
    print(f"eps = {eps:3.1f}: density {est.density:.4f} "
          f"[{est.ci_lo:.4f}, {est.ci_hi:.4f}]  ({est.hits}/{est.n_samples})")

qs = np.quantile(g, [0.05, 0.25, 0.5, 0.75, 0.95])
print("\nquantiles of g over [0, 2000]: "
      + "  ".join(f"{q:.3f}" for q in qs))
print(f"largest grid-refinement correction: {float(np.max(deltas)):.2e}")
