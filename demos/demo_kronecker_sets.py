"""Diophantine side of self-approximation: rational relations among shifts,
Kronecker sets, and constructive tau.

Run with:  python3 demos/demo_kronecker_sets.py
"""

import math
from fractions import Fraction

from selfapprox import (
    KroneckerTarget,
    check_log_prime_independence,
    find_rational_relations,
    find_tau_in_set,
    in_kronecker_set,
    measure_kronecker_density,
)

# --- rational relations among the shifts ------------------------------------
# The shift tuple d = (1, 1/2, 1/3): d_0 spans everything, with common
# denominator a = 6 and integer coefficients (3,) and (2,).

d = [1, Fraction(1, 2), Fraction(1, 3)]
rel = find_rational_relations(d)
print(f"shifts {d}")
print(f"  independent: {rel.independent_indices}, a = {rel.denominator}, "
      f"coefficients = {rel.coefficients}, A = {rel.bound_A}")
print(f"  re-substitution exact: {rel.verify(d)}")

# Float mode uses integer relation detection; sqrt(2) is genuinely
# independent of 1 over the rationals, and the search reports that.
relf = find_rational_relations([1.0, math.sqrt(2)], mode="float")
print(f"shifts (1, sqrt 2): independent indices {relf.independent_indices}, "
      f"no relation with coefficients <= 10^6")

# Logarithms of distinct primes are independent over Q (unique factorization);
# PSLQ at 30 digits agrees.
report = check_log_prime_independence([1.0], [2, 3, 5])
print(f"relation among log 2, log 3, log 5 found: {report['relation_found']}")

# --- Kronecker sets and the volume law --------------------------------------
# S_T(delta, v) collects tau in [0, T] whose coordinates tau d log p / (2 pi a)
# all sit within delta of integers.  Equidistribution makes its density tend
# to (2 delta)^(l M): one factor of 2 delta per (shift, prime) pair.

# The density is measured exactly: the set is a union of intervals, and the
# same sweep that lists them (below) adds up their widths.  The bracket is
# the a-priori rounding bound, not a confidence interval.

target = KroneckerTarget((1.0,), 1, 0.1, 5)   # primes 2, 3, 5
density, (lo, hi) = measure_kronecker_density(target, 1e5)
print(f"\nKronecker density in [0, 1e5], primes {target.primes}, delta = {target.delta}:")
print(f"  exact measure {density:.8f} +- {(hi - lo) / 2:.1e} (rounding bound)")
print(f"  volume (2 delta)^(lM) = {target.expected_density:.8f}")

# With two shifts the finite-T gap to the volume is visible, and it closes
# slowly as T grows; one sweep measures every horizon of a ladder.
pair = KroneckerTarget((1.0, math.sqrt(2)), 1, 0.1, 7)
horizons = [1e4, 1e5, 1e6]
densities, _ = measure_kronecker_density(pair, horizons)
print(f"shifts (1, sqrt 2), primes {pair.primes}: volume {pair.expected_density:.3g}")
for T, value in zip(horizons, densities):
    print(f"  T = {T:.0e}: exact measure {value:.3g}")

# --- constructive tau --------------------------------------------------------
# For small prime sets one can exhibit members of S_T explicitly: each
# condition ||tau d log p / (2 pi a)|| < delta is a periodic union of
# intervals, and intersecting those unions lists every member interval, one
# tau (its midpoint) per interval.  With a single prime the set is periodic
# with period 2 pi / log 2.

single = KroneckerTarget((1.0,), 1, 0.1, 2)
hits = find_tau_in_set(single, 100.0)
period = 2 * math.pi / math.log(2)
print(f"\ntau in S_100(0.1, 2), first few of {len(hits)}: "
      + ", ".join(f"{t:.3f}" for t in hits[:5]))
print(f"  period 2 pi / log 2 = {period:.3f}")

two = KroneckerTarget((1.0,), 1, 0.05, 3)     # primes 2 and 3
hits = find_tau_in_set(two, 1e4)
print(f"tau for primes (2, 3), delta 0.05, tau <= 1e4: {len(hits)} member intervals, "
      f"all verified: {all(in_kronecker_set(t, two) for t in hits)}")
