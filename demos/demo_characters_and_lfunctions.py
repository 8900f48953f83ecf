"""Walk through the exact character machinery and the L-function evaluator.

Run with:  python3 demos/demo_characters_and_lfunctions.py
"""

import math

import numpy as np

from selfapprox import (
    character_from_id,
    enumerate_characters,
    l_partial_sum,
    l_truncated,
    l_value,
)

# --- the character group mod 12 ---------------------------------------------
# Characters are built exactly: every value is a root of unity stored as a
# rational angle, so orthogonality sums cancel to machine zero.

print("characters mod 12 (phi(12) = 4):")
for chi in enumerate_characters(12):
    row = ["   . " if chi.angle(n) is None else f"{chi(n).real:+.2f}" for n in range(1, 13)]
    print(f"  {chi.label}  order {chi.order}  conductor {chi.conductor:2d}  " + " ".join(row))

chi = character_from_id("4:1")
total = sum(chi(n) for n in range(1, 5) if chi(n) is not None)
print(f"orthogonality sum for {chi.label}: |sum| = {abs(total):.2e}")

# --- sanity anchors for the evaluator ---------------------------------------
# The evaluator goes through Hurwitz zeta with Euler-Maclaurin tails, for the
# primitive character mod the conductor (times the Euler factors of the
# primes it drops); two classical values pin it down.  The principal
# character mod 1 gives zeta.

print(f"\nzeta(2)      = {l_value(2.0 + 0j, character_from_id('1:0')).real:.15f}"
      f"  (pi^2/6 = {math.pi**2 / 6:.15f})")
print(f"L(1, chi_4)  = {l_value(1.0 + 0j, chi).real:.15f}"
      f"  (pi/4   = {math.pi / 4:.15f})")

# --- inside the critical strip ----------------------------------------------
# Everything interesting happens at 1/2 < sigma < 1, where neither the series
# nor the product converges; the evaluator continues analytically.

s = 0.75 + 10.0j
print(f"\nL({s}, chi_4) = {l_value(s, chi):.12f}")

# Partial sums creep toward the true value much more slowly than the
# Euler-Maclaurin route; truncated Euler products approximate it "in mean"
# but not pointwise -- both are first-class objects in this package.
for n in (10, 100, 1000):
    gap = abs(l_partial_sum(s, chi, n) - l_value(s, chi))
    print(f"  |L - L_N|, N = {n:5d}: {gap:.3e}")
for v in (10, 100, 1000):
    gap = abs(l_truncated(s, chi, v) - l_value(s, chi))
    print(f"  |L - prod(p <= {v:5d})|: {gap:.3e}")

# --- vectorized evaluation ---------------------------------------------------
ts = np.linspace(0.0, 40.0, 9)
vals = l_value(0.75 + 1j * ts, chi)
print("\n|L(0.75 + it, chi_4)| along t in [0, 40]:")
print("  " + "  ".join(f"{abs(v):.3f}" for v in vals))
