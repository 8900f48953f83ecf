"""Distributional and mean-square structure behind the density results: the
empirical law of g(tau), the Carlson mean value, and Besicovitch distances to
partial sums.

Run with:  python3 demos/demo_distribution_and_mean_values.py
"""

from selfapprox import (
    ShiftFamily,
    StripRegion,
    b2_ladder,
    carlson_mean_value,
    character_from_id,
    convergence_diagnostic,
    empirical_cdf,
    sample_g,
)

chi = character_from_id("4:1")
region = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)
family = ShiftFamily((1.0, 2.0), (chi, chi))

# --- the law of g ------------------------------------------------------------
# F_T(x) = fraction of tau in [0, T] with g(tau) < x.  As T grows the curves
# stabilize; the diagnostic below quantifies that on a grid that avoids
# candidate jump points of the limit law.

_, g, _ = sample_g(family, region, 2000.0, 256, seed=42, refine=False,
                   threads=4)
print("F_2000 at selected x:")
for x in (0.25, 0.5, 1.0, 2.0):
    print(f"  F({x:4.2f}) = {empirical_cdf(g, x):.3f}")

report = convergence_diagnostic(family, region, [1000.0, 2000.0, 4000.0],
                                n_samples=256, seed=42, threads=4)
print("sup-distances along the T ladder "
      f"{[int(t) for t in report['T_ladder']]}: "
      + ", ".join(f"{d:.4f}" for d in report["distances"]))
print(f"two-sample noise threshold: {report['noise_threshold']:.4f}, "
      f"flagged jump intervals: {report['flagged_intervals']}")

# --- Carlson mean value ------------------------------------------------------
# The time average of |L - L_y|^2 along a vertical line converges to the tail
# coefficient sum: for chi mod 4 and sigma = 3/4, sum over odd n > 20 of
# n^(-3/2).  A desk-scale Monte Carlo average already lands within a few
# percent.

res = carlson_mean_value(chi, 0.75 + 0j, 20, 1.0, 5000.0, 20000, seed=3,
                         threads=4)
print(f"\nCarlson mean value, y = 20: empirical {res.empirical:.5f}, "
      f"limit {res.theoretical:.5f}, gap {100 * res.relative_gap:.1f}%")

# --- Besicovitch distances ---------------------------------------------------
# The sup-difference functional built from partial sums approaches the one
# built from L in mean square as the truncation length N grows -- the
# quantitative backbone of the almost-periodicity argument.

ladder = [10, 100, 1000]
out = b2_ladder(family, ladder, 2000.0, region, n_samples=96, seed=7,
                threads=4)
print("\nB^2 distance between g and its partial-sum version:")
for n, (est, se) in zip(ladder, out):
    print(f"  N = {n:5d}: {est:.5f}  (stderr {se:.5f})")
