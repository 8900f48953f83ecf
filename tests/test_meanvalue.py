import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from oracles import coprime_head_every_n, coprime_power_tail
from selfapprox.characters import character_from_id
from selfapprox.density import ShiftFamily
from selfapprox.errors import DomainError, RangeError
from selfapprox.lfunc import StripRegion, l_partial_sum, l_value
from selfapprox.meanvalue import (
    CarlsonResult,
    b2_ladder,
    carlson_mean_value,
    coprime_tail_sum,
)
from selfapprox.sampling import uniform_samples

CHI4 = character_from_id("4:1")
REGION = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)


# ---------------------------------------------------------------- max identity


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=0, max_value=1e12, allow_nan=False),
    b=st.floats(min_value=0, max_value=1e12, allow_nan=False),
)
def test_max_identity_to_one_ulp(a, b):
    # max(a,b) = (|a-b| + (a+b))/2, the closure trick for almost periodicity
    lhs = max(a, b)
    rhs = (abs(a - b) + (a + b)) / 2.0
    assert rhs == pytest.approx(lhs, rel=2**-50, abs=0.0)


# ---------------------------------------------------------------- tail sums


def test_coprime_tail_against_direct_oracle():
    ours = coprime_tail_sum(CHI4, 20, 1.5)
    oracle = coprime_power_tail(CHI4, 20, 1.5)
    assert ours == pytest.approx(oracle, rel=2e-4)


def test_coprime_tail_against_mpmath():
    # sum over odd n > 20 of n^{-3/2} = (1 - 2^{-3/2}) zeta(3/2) - head
    head = sum(n**-1.5 for n in range(1, 21) if n % 2)
    ref = float((1 - mpmath.mpf(2) ** mpmath.mpf(-1.5)) * mpmath.zeta(1.5)) - head
    assert coprime_tail_sum(CHI4, 20, 1.5) == pytest.approx(ref, rel=1e-12)


def test_coprime_tail_against_hurwitz_identity():
    # the coprime n > y0 = q floor(y/q) split by residue class r mod q give
    # q^-e sum_r zeta(e, (y0 + r)/q); the coprime n in (y0, y] are taken off.
    # The tail is 1e-5 of the O(1) values it is the difference of, so a head
    # summed in plain float64 already costs it 2e-9 relative
    chi, y, e = character_from_id("60:1"), 10**5, 1.9
    q = chi.modulus
    y0 = q * (y // q)
    with mpmath.workdps(30):
        coprime = [r for r in range(1, q + 1) if math.gcd(r, q) == 1]
        ref = mpmath.mpf(q) ** -e * mpmath.fsum(mpmath.zeta(e, mpmath.mpf(y0 + r) / q) for r in coprime)
        ref -= mpmath.fsum(mpmath.mpf(n) ** -e for n in range(y0 + 1, y + 1) if math.gcd(n, q) == 1)
        ref = float(ref)
    assert abs(coprime_tail_sum(chi, y, e) - ref) <= 1e-10 * ref


@pytest.mark.parametrize("label, y, e", [
    ("1:0", 1000.5, 1.5), ("4:1", 20, 1.5), ("4:1", 12345.7, 2.0),
    ("60:1", 10**5, 1.9), ("120:7", 999.9, 3.0), ("7:2", 0.5, 1.2),
])
def test_coprime_tail_head_over_units_is_exact(label, y, e):
    # the head summed unit class by unit class is the every-n head bit for
    # bit: the same Python pow per term, and fsum does not depend on order
    chi = character_from_id(label)
    total = l_value(complex(e), character_from_id(f"{chi.modulus}:0")).real
    assert coprime_tail_sum(chi, y, e) == total - coprime_head_every_n(chi, y, e)


def test_coprime_tail_empty_limit():
    assert coprime_tail_sum(CHI4, 10**6, 1.5) < 2e-3
    with pytest.raises(DomainError):
        coprime_tail_sum(CHI4, 20, 1.0)


# ---------------------------------------------------------------- carlson


def test_carlson_quick_agreement():
    res = carlson_mean_value(CHI4, 0.75 + 0j, 20, 1.0, 5000.0, 4000, seed=3)
    assert isinstance(res, CarlsonResult)
    assert res.relative_gap < 0.15
    assert res.stderr > 0


def test_carlson_decreases_in_y_on_fixed_samples():
    values = [
        carlson_mean_value(CHI4, 0.75 + 0j, y, 1.0, 2000.0, 1500, seed=6).empirical
        for y in (5, 20, 80)
    ]
    assert values[0] > values[1] > values[2] >= 0.0


def test_carlson_validation():
    with pytest.raises(DomainError):
        carlson_mean_value(CHI4, 1.2 + 0j, 20)
    with pytest.raises(DomainError):
        carlson_mean_value(CHI4, 0.75 + 0j, 20, x=0.0)


@pytest.mark.parametrize("t, T, usable", [(1000.0, 1e5, "24500"), (6e4, 1.0, "0")])
def test_carlson_beyond_cap_reports_usable_horizon(t, T, usable):
    # |Im s| reaches |t| + 2T against the cap 5e4; a start above the cap leaves no T
    with pytest.raises(RangeError) as err:
        carlson_mean_value(CHI4, complex(0.75, t), 20, x=2.0, T=T, n_samples=4)
    assert f"largest usable T at this cap is {usable};" in str(err.value) + ";"


def _no_draws(monkeypatch):
    def draw(*args):
        raise AssertionError("tau drawn before the partial-sum length was checked")

    monkeypatch.setattr("selfapprox.meanvalue.uniform_samples", draw)


def test_carlson_beyond_the_partial_sum_cap_names_the_largest_usable_y(monkeypatch):
    # L_y sums about y / q terms per residue class; beyond _N_MAX of them the
    # run is refused before any tau is drawn
    _no_draws(monkeypatch)
    with pytest.raises(RangeError) as err:
        carlson_mean_value(CHI4, 0.75 + 0j, 1e9, T=100.0, n_samples=4)
    assert "largest usable y at this cap is 40000000" in str(err.value)


def test_carlson_y_below_one_is_refused_before_any_draw(monkeypatch):
    _no_draws(monkeypatch)
    with pytest.raises(DomainError, match="y = 0.5 must be >= 1"):
        carlson_mean_value(CHI4, 0.75 + 0j, 0.5, T=100.0, n_samples=4)


def test_b2_beyond_the_partial_sum_cap_names_the_largest_usable_n(monkeypatch):
    # every rung is checked against the smallest modulus of the family
    _no_draws(monkeypatch)
    fam = ShiftFamily((1.0, 2.0), (CHI4, character_from_id("3:1")))
    with pytest.raises(RangeError) as err:
        b2_ladder(fam, [10, 35_000_000], 10.0, REGION, n_samples=2)
    assert "largest usable N at this cap is 30000000" in str(err.value)


# ---------------------------------------------------------------- B^2 distances


def test_b2_degenerate_zero():
    fam = ShiftFamily((1.0, 1.0), (CHI4, CHI4))
    est, se = b2_ladder(fam, [10], 100.0, REGION, n_samples=64, seed=0)[0]
    assert est == 0.0


def test_b2_positive_at_n_one():
    fam = ShiftFamily((1.0, 2.0), (CHI4, CHI4))
    est, se = b2_ladder(fam, [1], 500.0, REGION, n_samples=128, seed=1)[0]
    assert est > 0.0 and se > 0.0


def test_b2_ladder_decreasing_trend():
    fam = ShiftFamily((1.0, 2.0), (CHI4, CHI4))
    out = b2_ladder(fam, [10, 100, 1000], 2000.0, REGION, n_samples=96, seed=7)
    ests = [e for e, _ in out]
    assert ests[0] > ests[1] > ests[2]


def test_b2_triangle_and_square_decomposition():
    # per-sample: |f - f_N| <= sup|L-L_N|(shift 1) + sup|L-L_N|(shift 2),
    # and the (a+b)^2 <= 2a^2+2b^2 bound dominates the direct square
    fam = ShiftFamily((1.0, 2.0), (CHI4, CHI4))
    n_partial = 50
    taus = uniform_samples(9, 40, -300.0, 300.0)
    grid, _ = REGION.grid_points(refine=False)
    sups = []
    vals, vals_n = [], []
    for d, chi in zip(fam.shifts, fam.characters):
        pts = grid[None, :] + 1j * d * taus[:, None]
        lv = l_value(pts, chi)
        ln = l_partial_sum(pts, chi, n_partial)
        vals.append(lv)
        vals_n.append(ln)
        sups.append(np.abs(lv - ln).max(axis=1))
    f = np.abs(vals[0] - vals[1]).max(axis=1)
    f_n = np.abs(vals_n[0] - vals_n[1]).max(axis=1)
    gap = np.abs(f - f_n)
    assert np.all(gap <= sups[0] + sups[1] + 1e-12)
    assert np.all(gap**2 <= 2 * sups[0] ** 2 + 2 * sups[1] ** 2 + 1e-12)


def test_b2_validation():
    fam = ShiftFamily((1.0, 2.0), (CHI4, CHI4))
    with pytest.raises(DomainError):
        b2_ladder(fam, [0], 100.0, REGION)
    with pytest.raises(DomainError):
        b2_ladder(fam, [10], 100.0, REGION, n_samples=1)


def test_b2_rejects_nonpositive_horizon():
    fam = ShiftFamily((1.0, 2.0), (CHI4, CHI4))
    with pytest.raises(DomainError):
        b2_ladder(fam, [10], 0.0, REGION, n_samples=4)


def test_b2_ladder_matches_single_rungs_bitwise():
    fam = ShiftFamily((1.0, 2.0), (CHI4, CHI4))
    ladder = [10, 100, 1000]
    out = b2_ladder(fam, ladder, 500.0, REGION, n_samples=48, seed=3)
    singles = [b2_ladder(fam, [n], 500.0, REGION, n_samples=48, seed=3)[0] for n in ladder]
    assert out == singles


def test_b2_pair_selects_members_of_larger_family():
    chi5 = character_from_id("5:1")
    fam = ShiftFamily((1.0, 2.0, 3.0), (CHI4, CHI4, chi5))
    n_partial, T, n = 30, 300.0, 40
    # f is g over the whole family: the largest of the three pairwise sup-differences
    est, se = b2_ladder(fam, [n_partial], T, REGION, n_samples=n, seed=2)[0]
    taus = uniform_samples(2, n, -T, T)
    grid, _ = REGION.grid_points(refine=False)
    vals, vals_n = [], []
    for d, chi in zip(fam.shifts, fam.characters):
        pts = grid[None, :] + 1j * d * taus[:, None]
        vals.append(l_value(pts, chi))
        vals_n.append(l_partial_sum(pts, chi, n_partial))
    pairs = [(0, 1), (0, 2), (1, 2)]
    f = np.max([np.abs(vals[j] - vals[k]).max(axis=1) for j, k in pairs], axis=0)
    f_n = np.max([np.abs(vals_n[j] - vals_n[k]).max(axis=1) for j, k in pairs], axis=0)
    sq = (f - f_n) ** 2
    assert est == pytest.approx(np.mean(sq), rel=1e-12)
    assert se == pytest.approx(np.std(sq, ddof=1) / math.sqrt(n), rel=1e-12)
