import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import binomial_stderr, exact_kronecker_measure, monte_carlo_kronecker_density
from selfapprox.characters import character_from_id
from selfapprox.density import ShiftFamily, g_values
from selfapprox.diophantine import (
    SWEEP_CAP,
    KroneckerTarget,
    _SWEEP_WINDOW,
    _member_intervals,
    find_rational_relations,
    find_tau_in_set,
    in_kronecker_set,
    kronecker_membership,
    check_log_prime_independence,
    measure_kronecker_density,
    nearest_int_distance,
)
from selfapprox.errors import DomainError, RangeError
from selfapprox.lfunc import StripRegion
from selfapprox.primes import primes_upto
from selfapprox.sampling import BLOCK_SIZE, uniform_samples, wilson_interval


# ---------------------------------------------------------------- relations


def test_exact_relation_half():
    rel = find_rational_relations([1, Fraction(1, 2)])
    assert rel.independent_indices == (0,)
    assert rel.denominator == 2
    assert rel.coefficients == ((1,),)
    assert rel.bound_A == 1
    assert rel.verify([1, Fraction(1, 2)])


def test_exact_relation_integer_multiples():
    rel = find_rational_relations([1, 2, 3])
    assert rel.independent_indices == (0,)
    assert rel.denominator == 1
    assert rel.coefficients == ((2,), (3,))
    assert rel.bound_A == 3
    assert rel.verify([1, 2, 3])


def test_exact_relation_sixths():
    d = [1, Fraction(1, 2), Fraction(1, 3)]
    rel = find_rational_relations(d)
    assert rel.denominator == 6
    assert rel.coefficients == ((3,), (2,))
    assert rel.bound_A == 3
    assert rel.verify(d)


def test_exact_mode_accepts_strings():
    rel = find_rational_relations(["1", "0.5", "1/4"])
    assert rel.denominator == 4
    assert rel.coefficients == ((2,), (1,))


def test_float_mode_sqrt2_independent():
    rel = find_rational_relations([1.0, math.sqrt(2)], mode="float",
                                  tolerance=1e-10, coeff_cap=10**6)
    assert rel.independent_indices == (0, 1)
    assert rel.dependent_indices == ()
    assert rel.bound_A == 0


def test_float_mode_finds_rational_relations():
    d = [1.0, 0.5, math.sqrt(2), 3.0]
    rel = find_rational_relations(d, mode="float")
    assert 0 in rel.independent_indices and 2 in rel.independent_indices
    assert set(rel.dependent_indices) == {1, 3}
    assert all(any(row) for row in rel.coefficients)
    assert rel.verify(d, tol=1e-8)


@pytest.mark.parametrize("d, k", [([1e-200, 1.0], 0), ([1.0, 1e-300], 1), ([5e-324, 1.0], 0), ([1.0, 2e-11], 1)])
def test_float_mode_refuses_a_shift_below_the_tolerance(d, k):
    # such a shift passed the residual test as d_k = 0 * d_0, or ended in mpmath's traceback
    with pytest.raises(DomainError, match=f"shift d_{k} = "):
        find_rational_relations(d, mode="float")
    rel = find_rational_relations(d, mode="float", tolerance=min(map(abs, d)))
    assert all(any(row) for row in rel.coefficients)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_mode_refuses_a_nonfinite_shift(bad):
    with pytest.raises(DomainError, match="shift d_1 = "):
        find_rational_relations([1.0, bad], mode="float")


@pytest.mark.parametrize("coeff_cap", [0, -5])
def test_float_mode_refuses_a_coefficient_cap_below_one(coeff_cap):
    # a cap of 0 used to report 1, 2 and 1/2 all independent
    with pytest.raises(DomainError, match="coeff_cap"):
        find_rational_relations([1.0, 2.0, 0.5], mode="float", coeff_cap=coeff_cap)


def test_verify_refuses_a_nan():
    rel = find_rational_relations([1.0, 2.0], mode="float")
    assert rel.verify([1.0, 2.0], 1e-9)
    assert not rel.verify([1.0, math.nan], 1e-9)
    assert not rel.verify([math.nan, 2.0])


def test_verify_reads_the_shifts_the_finder_took():
    # verify did arithmetic on the raw strings, a raw TypeError
    assert find_rational_relations(["1", "1/2"]).verify(["1", "1/2"])
    assert find_rational_relations(["1", "1/3"], mode="float").verify(["1", "1/3"], 1e-12)
    assert not find_rational_relations(["1", "1/2"]).verify(["1", "abc"])


def test_exact_verify_stays_exact_on_fractions():
    rel = find_rational_relations([Fraction(1, 3), Fraction(1, 7)])
    assert (rel.denominator, rel.coefficients) == (7, ((3,),))
    assert rel.verify([Fraction(1, 3), Fraction(1, 7)])
    # below the float spacing of 1/7, so only an exact reading sees it
    assert not rel.verify([Fraction(1, 3), Fraction(1, 7) + Fraction(1, 10**30)])


def test_relation_rejects_zero_shift():
    with pytest.raises(DomainError):
        find_rational_relations([1, 0])


@pytest.mark.parametrize("d, match", [
    (["0", "1"], "nonzero"),  # used to end in ZeroDivisionError
    (["1", "0/5"], "nonzero"),  # used to return the row ((0,),)
    ([1, math.nan], "d_1 = nan"),  # used to end in a raw ValueError
    ([1, math.inf], "d_1 = inf"),  # used to end in a raw OverflowError
])
def test_exact_mode_refuses_zero_and_non_finite_shifts(d, match):
    with pytest.raises(DomainError, match=match):
        find_rational_relations(d)


@settings(max_examples=50, deadline=None)
@given(
    nums=st.lists(st.fractions(min_value=Fraction(-20), max_value=Fraction(20),
                               max_denominator=30).filter(lambda f: f != 0),
                  min_size=2, max_size=5)
)
def test_exact_relations_always_verify(nums):
    rel = find_rational_relations(nums)
    assert rel.verify(nums)
    assert rel.bound_A == max(abs(r[0]) for r in rel.coefficients)


# ---------------------------------------------------------------- membership


def test_nearest_int_distance():
    assert nearest_int_distance(0.0) == 0.0
    assert nearest_int_distance(1.25) == 0.25
    assert nearest_int_distance(-0.6) == pytest.approx(0.4)
    # round-half-to-even at the midpoint still gives distance 1/2
    assert nearest_int_distance(2.5) == 0.5


def test_membership_examples():
    t = KroneckerTarget((1.0,), 1, 0.25, 2)
    assert in_kronecker_set(0.0, t)
    assert in_kronecker_set(2 * math.pi / math.log(2), t)
    t_small = KroneckerTarget((1.0,), 1, 0.1, 2)
    assert not in_kronecker_set(math.pi / math.log(2), t_small)


def test_membership_strict_inequality():
    t = KroneckerTarget((1.0,), 1, 0.1, 2)
    # coordinate exactly delta away from an integer fails the strict test
    tau = 0.1 * 2 * math.pi / math.log(2)
    assert not in_kronecker_set(tau, t)


def _dense_membership(taus, target):
    """The full tau x frequency predicate, reference for kronecker_membership."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    alpha = target.frequencies.ravel()
    return np.all(nearest_int_distance(taus[:, None] * alpha) < target.delta, axis=1)


@settings(max_examples=150, deadline=None)
@given(
    shifts=st.lists(
        st.floats(min_value=-20.0, max_value=20.0).filter(lambda x: abs(x) > 1e-3),
        min_size=1, max_size=2,
    ),
    denominator=st.integers(min_value=1, max_value=5),
    delta=st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
    prime_bound=st.sampled_from([2, 3, 5, 7, 11, 13]),
    taus=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=200),
    ks=st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4),
)
def test_short_circuit_membership_equals_dense_predicate(shifts, denominator, delta, prime_bound, taus, ks):
    target = KroneckerTarget(tuple(shifts), denominator, delta, prime_bound)
    alpha = target.frequencies.ravel()
    # tau exactly at the interval endpoints (k +- delta)/alpha_i, and one ulp either side
    ends = np.array([(k + sign * delta) / a for a in alpha for k in ks for sign in (-1.0, 1.0)])
    ends = np.concatenate([ends, np.nextafter(ends, np.inf), np.nextafter(ends, -np.inf)])
    special = [0.0, -0.0, -1.5, float("nan"), float("inf"), float("-inf")]
    for sample in (taus, special, ends, np.concatenate([taus, special, ends])):
        with np.errstate(over="ignore", invalid="ignore"):  # huge and infinite tau
            got, expected = kronecker_membership(sample, target), _dense_membership(sample, target)
        assert got.dtype == bool
        assert np.array_equal(got, expected)


def test_membership_of_empty_input():
    t = KroneckerTarget((1.0, 0.5), 2, 0.2, 13)
    for empty in ([], np.array([]), np.zeros(0)):
        got = kronecker_membership(empty, t)
        assert got.shape == (0,) and got.dtype == bool


def test_target_validation():
    with pytest.raises(DomainError):
        KroneckerTarget((1.0,), 1, 0.5, 2)
    with pytest.raises(DomainError):
        KroneckerTarget((1.0,), 0, 0.1, 2)
    with pytest.raises(DomainError):
        KroneckerTarget((0.0,), 1, 0.1, 2)
    with pytest.raises(DomainError):
        KroneckerTarget((1.0,), 1, 0.1, 1.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_target_rejects_nonfinite_shift(bad):
    # every comparison with NaN is false, so a NaN shift would silently give density 0.0
    with pytest.raises(DomainError):
        KroneckerTarget((bad,), 1, 0.1, 5)
    with pytest.raises(DomainError):
        KroneckerTarget((1.0, bad), 1, 0.1, 5)


def test_expected_density_formula():
    t = KroneckerTarget((1.0, math.sqrt(2)), 3, 0.1, 5)
    assert t.n_primes == 3
    assert t.expected_density == pytest.approx((0.2) ** 6)


def test_dependent_shift_bound():
    # accepted tau imply ||tau d_k log p / (2 pi)|| < A * delta for dependents
    d_full = [1.0, 0.5, 1.5]
    rel = find_rational_relations([Fraction(1), Fraction(1, 2), Fraction(3, 2)])
    a, A = rel.denominator, rel.bound_A
    target = KroneckerTarget((1.0,), a, 0.12, 5)
    taus = uniform_samples(17, 200000, 0.0, 1e5)
    accepted = taus[kronecker_membership(taus, target)]
    assert len(accepted) >= 100
    logs = np.log(np.array(target.primes, dtype=float))
    for k, row in zip(rel.dependent_indices, rel.coefficients):
        coords = accepted[:, None] * d_full[k] * logs[None, :] / (2 * math.pi)
        assert np.all(nearest_int_distance(coords) < A * target.delta + 1e-12)


# ---------------------------------------------------------------- density


def test_volume_law_single_prime():
    t = KroneckerTarget((1.0,), 1, 0.25, 2)
    density, (lo, hi) = measure_kronecker_density(t, 1e5)
    assert abs(density - 0.5) < 0.01
    assert lo <= density <= hi


def test_volume_law_random_targets():
    rng = np.random.default_rng(123)
    for trial in range(8):
        l = int(rng.integers(1, 3))
        shifts = tuple(float(x) for x in rng.uniform(0.3, 2.0, l))
        v = float(rng.choice([2, 3, 5][: 4 - l]))
        delta = float(rng.uniform(0.08, 0.4))
        t = KroneckerTarget(shifts, 1, delta, v)
        if len(shifts) * t.n_primes > 4:
            continue
        n = 10**6  # the sample size the binomial standard error is taken at
        density, _ = measure_kronecker_density(t, 1e5)
        se = binomial_stderr(int(round(density * n)), n)
        assert abs(density - t.expected_density) < 3 * se + 0.003


def test_density_reproducible_and_stratified():
    t = KroneckerTarget((1.0,), 1, 0.1, 5)
    a = monte_carlo_kronecker_density(t, 1e5, 50000, seed=9)
    b = monte_carlo_kronecker_density(t, 1e5, 50000, seed=9)
    assert a == b
    c, _ = monte_carlo_kronecker_density(t, 1e5, 50000, seed=9, stratified=True)
    assert abs(c - t.expected_density) < 0.002


def test_density_draws_the_same_taus_block_by_block():
    # per-block draws reproduce the whole-array samples of the same seed
    t = KroneckerTarget((1.0,), 1, 0.1, 5)
    n, T = 3 * BLOCK_SIZE + 17, 1e5
    taus = uniform_samples(4, n, 0.0, T)
    hits = int(np.count_nonzero(kronecker_membership(taus, t)))
    assert monte_carlo_kronecker_density(t, T, n, seed=4) == (hits / n, wilson_interval(hits, n))
    offset = np.random.Generator(np.random.PCG64(np.random.SeedSequence((4, 0)))).uniform(0.0, 1.0)
    grid = 0.0 + (T - 0.0) * (np.arange(n) + offset) / n
    hits = int(np.count_nonzero(kronecker_membership(grid, t)))
    assert monte_carlo_kronecker_density(t, T, n, seed=4, stratified=True)[0] == hits / n


@pytest.mark.parametrize("stratified", [False, True])
def test_density_memory_does_not_grow_with_samples(stratified):
    t = KroneckerTarget((1.0,), 1, 0.1, 2)
    n = 2_000_000  # 16 MB of tau values if held at once
    tracemalloc.start()
    try:
        monte_carlo_kronecker_density(t, 1e5, n, seed=1, stratified=stratified)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 8 * BLOCK_SIZE


def test_near_full_cube():
    t = KroneckerTarget((1.0,), 1, 0.499, 3)
    density, _ = measure_kronecker_density(t, 1e4)
    assert density > 0.99 * (0.998) ** 2


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    shifts=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=2),
    a=st.integers(1, 3),
    delta=st.floats(0.1, 0.45),
    prime_bound=st.sampled_from([2, 3, 5, 7]),
    T=st.floats(10.0, 1e4),
    seed=st.integers(0, 2**32),
)
def test_exact_density_matches_monte_carlo_oracle(shifts, a, delta, prime_bound, T, seed):
    t = KroneckerTarget(tuple(shifts), a, delta, prime_bound)
    assume(len(shifts) * t.n_primes <= 4)
    n = 100_000
    exact, _ = measure_kronecker_density(t, T)
    estimate, _ = monte_carlo_kronecker_density(t, T, n, seed)
    # 4 binomial standard errors at the exact value, plus 4 hits for the
    # Poisson tail of sets with few expected hits
    assert abs(estimate - exact) < 4 * math.sqrt(exact * (1 - exact) / n) + 4 / n


@pytest.mark.parametrize("shift, a, delta, T", [
    (1.0, 1, 0.1, 1e5),
    (-2.5, 3, 0.25, 12345.6),
    (0.001, 1, 0.4, 50.0),  # T inside the interval around 0
    (7.0, 2, 0.3, 1e7),  # about 75 sweep windows
])
def test_exact_density_single_coordinate_closed_form(shift, a, delta, T):
    # one prime: the set is the periodic union of (k - delta, k + delta)/|alpha|,
    # so meas [0, T] = (2 delta floor(x) + min(r, delta) + max(r - 1 + delta, 0)) / |alpha|
    # with x = T |alpha| = floor(x) + r, exact in rationals at the float alpha
    t = KroneckerTarget((shift,), a, delta, 2)
    alpha, d = Fraction(abs(float(t.frequencies[0, 0]))), Fraction(delta)
    x = Fraction(T) * alpha
    r = x - math.floor(x)
    exact = (2 * d * math.floor(x) + min(r, d) + max(r - 1 + d, Fraction(0))) / alpha / Fraction(T)
    density, (lo, hi) = measure_kronecker_density(t, T)
    assert Fraction(lo) <= exact <= Fraction(hi)
    assert lo <= density <= hi < lo + 1e-7


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    shifts=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=2),
    a=st.integers(1, 3),
    delta=st.floats(0.05, 0.45),
    prime_bound=st.sampled_from([2, 3, 5, 7]),
    T=st.floats(1.0, 300.0),
)
def test_exact_density_within_its_rounding_bound(shifts, a, delta, prime_bound, T):
    t = KroneckerTarget(tuple(shifts[:-1]) + (-shifts[-1],), a, delta, prime_bound)
    density, (lo, hi) = measure_kronecker_density(t, T)
    exact = exact_kronecker_measure(t, T) / Fraction(T)
    assert Fraction(lo) <= exact <= Fraction(hi)
    assert 0.0 <= lo <= density <= hi <= 1.0


def test_exact_density_is_monotone_and_lipschitz_across_a_window_edge():
    t = KroneckerTarget((1.0,), 1, 0.1, 5)
    edge = (_SWEEP_WINDOW - 0.5) / np.max(np.abs(t.frequencies))  # ~6.4e4
    horizons = np.linspace(edge - 40.0, edge + 40.0, 4001)
    density, (lo, hi) = measure_kronecker_density(t, horizons)
    measure, slack = horizons * density, horizons * (hi - lo)
    tol = slack[1:] + slack[:-1]
    step = np.diff(measure)
    assert np.all(step >= -tol) and np.all(step <= np.diff(horizons) + tol)
    assert np.count_nonzero(step > 0) > 100  # the window holds member intervals
    # each horizon of the ladder agrees with a sweep that stops there
    for i in (0, 1000, 1999, 2000, 2001, 3000, 4000):
        alone, (alone_lo, alone_hi) = measure_kronecker_density(t, float(horizons[i]))
        assert abs(alone - density[i]) <= (hi[i] - lo[i]) + (alone_hi - alone_lo)
    assert measure_kronecker_density(t, float(horizons[-1]))[0] == density[-1]


def test_exact_density_memory_does_not_grow_with_T():
    t = KroneckerTarget((1.0,), 1, 0.1, 5)
    peaks = []
    for T in (1e5, 1e7):  # 2 and 157 sweep windows
        tracemalloc.start()
        try:
            measure_kronecker_density(t, T)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]


def test_exact_density_refuses_T_beyond_the_sweep_cap():
    t = KroneckerTarget((1.0,), 1, 0.1, 2)
    usable = SWEEP_CAP / np.max(np.abs(t.frequencies))
    with pytest.raises(RangeError, match="largest usable T at this cap is ") as err:
        measure_kronecker_density(t, 1.01 * usable)
    # the T named is usable, rounded down to 6 significant digits
    named = float(str(err.value).rsplit(" ", 1)[1])
    assert float(f"{named:.6g}") == named and usable * (1 - 1e-5) <= named <= usable
    for bad in (0.0, -1.0, [], [2.0, 1.0], [[1.0]]):
        with pytest.raises(DomainError):
            measure_kronecker_density(t, bad)


def test_wilson_interval_sane():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1


# ---------------------------------------------------------------- tau search


def test_find_tau_periodic_solutions():
    t = KroneckerTarget((1.0,), 1, 0.1, 2)
    hits = find_tau_in_set(t, 100.0)
    assert hits and hits[0] == 0.0
    period = 2 * math.pi / math.log(2)
    for k in range(1, 12):
        assert min(abs(h - k * period) for h in hits) < t.delta * period + 1e-9
    assert all(in_kronecker_set(h, t) for h in hits)


def test_find_tau_two_primes_grid_and_lattice():
    t = KroneckerTarget((1.0,), 1, 0.05, 3)
    hits = find_tau_in_set(t, 1e4)
    assert hits
    assert all(in_kronecker_set(h, t) for h in hits)


def test_find_tau_zero_always_member():
    t = KroneckerTarget((1.0, math.pi), 2, 0.2, 3)
    hits = find_tau_in_set(t, 1.0)
    assert 0.0 in hits


def test_find_tau_empty_is_not_error():
    t = KroneckerTarget((1.0,), 1, 0.01, 7)
    hits = find_tau_in_set(t, 1.0)
    assert hits == [0.0] or hits == []


def test_search_and_density_match_recorded_values():
    # recorded from the full tau x frequency membership test, which the
    # short-circuit test must reproduce bit for bit
    t1 = KroneckerTarget((1.0,), 1, 0.1, 5)
    t2 = KroneckerTarget((1.0, 2.5), 3, 0.2, 3)
    n = 70000
    assert monte_carlo_kronecker_density(t1, 1e5, n, seed=11)[0] == 502 / n
    assert monte_carlo_kronecker_density(t2, 1e4, n, seed=12)[0] == 1907 / n
    assert monte_carlo_kronecker_density(t1, 1e5, n, seed=11, stratified=True)[0] == 560 / n
    assert monte_carlo_kronecker_density(t2, 1e4, n, seed=12, stratified=True)[0] == 1791 / n


def test_find_tau_bad_inputs():
    t = KroneckerTarget((1.0,), 1, 0.1, 2)
    with pytest.raises(DomainError):
        find_tau_in_set(t, -1.0)


def _intervals(target, bound):
    parts = list(_member_intervals(target, bound))
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


@settings(max_examples=40, deadline=None)
@given(
    magnitudes=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=2),
    a=st.integers(1, 3),
    delta=st.floats(0.05, 0.45),
    prime_bound=st.sampled_from([2, 3, 5, 7, 11, 13]),
    bound=st.floats(1.0, 60.0),
)
def test_find_tau_lists_every_member_interval(magnitudes, a, delta, prime_bound, bound):
    shifts = tuple(magnitudes[:-1]) + (-magnitudes[-1],)
    t = KroneckerTarget(shifts, a, delta, prime_bound)
    hits = np.array(find_tau_in_set(t, bound, max_results=10**6))
    assert hits[0] == 0.0
    assert np.all(np.diff(hits) > 0) and np.all(hits <= bound)
    assert kronecker_membership(hits, t).all()
    lo, hi = _intervals(t, bound)
    assert np.all(lo < hi) and np.all(hi[:-1] < lo[1:])
    # one tau per interval: each hit lies in its own interval
    where = np.searchsorted(lo, hits, side="right") - 1
    assert np.array_equal(where, np.unique(where))
    assert np.all(lo[where] < hits) and np.all(hits < hi[where])
    assert len(hits) >= np.count_nonzero(hi - lo > 1e-9)
    # dense oracle, at a step 32 times below the narrowest coordinate interval
    # 2*delta/max|alpha|: members lie in the intervals, interval interiors are members
    step = delta / (16.0 * np.max(np.abs(t.frequencies)))
    taus = np.arange(0.0, bound, step)
    member = kronecker_membership(taus, t)
    tol = 1e-9 * (1.0 + bound)
    # the interval each tau is checked against is the last one starting below
    # tau + tol, so a member within rounding below an interval's start is
    # checked against that interval
    i = np.maximum(np.searchsorted(lo, taus + tol, side="right") - 1, 0)
    assert not np.any(member & ~((lo[i] - tol < taus) & (taus < hi[i] + tol)))
    assert np.all(member[(lo[i] + tol < taus) & (taus < hi[i] - tol)])


def test_find_tau_hits_are_exact_members():
    # the benchmark target: d = 1, delta = 0.05, p <= 7, tau <= 1e6
    import mpmath

    t = KroneckerTarget((1.0,), 1, 0.05, 7)
    hits = find_tau_in_set(t, 1e6, max_results=10**6)
    assert len(hits) == len(_intervals(t, 1e6)[0]) == 852
    with mpmath.workdps(50):
        scale = [mpmath.log(p) / (2 * mpmath.pi) for p in t.primes]
        for tau in hits:
            for c in scale:
                x = mpmath.mpf(tau) * c
                assert abs(x - mpmath.nint(x)) < t.delta


def test_interval_measure_matches_monte_carlo_density():
    t = KroneckerTarget((1.0,), 1, 0.1, 5)
    T, n = 1e5, 200000
    lo, hi = _intervals(t, T)
    measure = float(np.sum(np.clip(hi, 0.0, T) - np.clip(lo, 0.0, T))) / T
    density, _ = monte_carlo_kronecker_density(t, T, n, seed=3)
    assert abs(measure - density) < 4 * binomial_stderr(int(round(density * n)), n)
    exact, (lo, hi) = measure_kronecker_density(t, T)
    assert lo <= measure <= hi and abs(exact - measure) < 1e-12


def test_find_tau_smaller_searches_are_prefixes():
    # windows span 2**14 / max|alpha| ~ 5.3e4 here, so these cross several
    t = KroneckerTarget((1.0,), 1, 0.05, 7)
    full = find_tau_in_set(t, 4e5, max_results=10**6)
    small = find_tau_in_set(t, 1.5e5, max_results=10**6)
    # only an interval straddling the smaller bound may end in a clipped tau
    assert small[:-1] == full[: len(small) - 1]
    assert small[-1] in (full[len(small) - 1], 1.5e5)
    for k in (1, 50, len(full) // 2, len(full) - 1):
        assert find_tau_in_set(t, 4e5, max_results=k) == full[:k]


def test_find_tau_memory_does_not_grow_with_bound():
    t = KroneckerTarget((1.0,), 1, 0.01, 7)  # a few members per window
    peaks = []
    # 5e7 is 1.55e7 periods of log(7)/(2 pi), just inside SWEEP_CAP
    for bound in (1e6, 5e7):
        tracemalloc.start()
        try:
            find_tau_in_set(t, bound, max_results=10**6)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.2 * peaks[0]


def test_find_tau_refuses_a_bound_beyond_the_sweep_cap():
    # this search ran for over 10 s with no output before the cap
    t = KroneckerTarget((1.0,), 1, 0.002, 7)
    usable = SWEEP_CAP / np.max(np.abs(t.frequencies))
    with pytest.raises(RangeError, match="largest usable bound at this cap is ") as err:
        find_tau_in_set(t, 1e12)
    named = float(str(err.value).rsplit(" ", 1)[1])
    assert float(f"{named:.6g}") == named and usable * (1 - 1e-5) <= named <= usable
    with pytest.raises(RangeError):
        find_tau_in_set(t, 1.01 * usable, max_results=1)
    assert find_tau_in_set(t, named, max_results=1) == [0.0]


# ---------------------------------------------------------------- independence


def test_log_primes_no_relation():
    report = check_log_prime_independence([1.0], [2, 3, 5])
    assert report["relation_found"] is False
    assert report["coefficients"] == []
    assert report["precision_digits"] == 30 and report["coeff_cap"] == 1000


def test_dependent_shifts_expose_relation():
    report = check_log_prime_independence([1.0, 2.0], [2])
    assert report["relation_found"] is True
    c = report["coefficients"]
    assert sorted(abs(x) for x in c) == [1, 2]
    assert report["residual"] < 1e-25


def test_sqrt2_consistent_with_independence():
    report = check_log_prime_independence([1.0, math.sqrt(2)], [2, 3])
    assert report["relation_found"] is False


def test_independence_reads_fraction_shifts_exactly():
    # a Fraction used to be refused; the exact mode of find_rational_relations
    # and the Kronecker demo pass them
    report = check_log_prime_independence([1, Fraction(1, 2)], [2, 3])
    assert report == check_log_prime_independence([1, 0.5], [2, 3])
    assert report["relation_found"] is True and report["residual"] < 1e-25
    # read through a float, 1/3 would leave a residual near 1e-17 and no relation
    report = check_log_prime_independence([1, Fraction(1, 3)], [2])
    assert sorted(abs(c) for c in report["coefficients"]) == [1, 3]
    assert report["residual"] < 1e-25


def test_independence_input_validation():
    with pytest.raises(DomainError):
        check_log_prime_independence([1.0], [2, 2])
    with pytest.raises(DomainError):
        check_log_prime_independence([], [2])


def test_independence_refuses_non_primes():
    # [-2, 3] and [None, 3] used to end in mpmath's TypeError, [2, 4] to
    # report the relation 2 log 2 = log 4, and [2.5, 3] and ["7", 3] to run
    # silently
    for primes in ([-2, 3], [None, 3], [2, 4], [2.5, 3], ["7", 3]):
        with pytest.raises(DomainError, match="integer primes"):
            check_log_prime_independence([1.0], primes)
    # the primes that primes_upto returns are numpy integers
    assert check_log_prime_independence([1.0], primes_upto(5))["relation_found"] is False


@pytest.mark.parametrize("args, match", [
    # the first four used to end in mpmath's TypeError or ValueError
    (([None], [2, 3]), "shifts must be"),
    ((["x"], [2, 3]), "shifts must be"),
    (([1j], [2, 3]), "shifts must be"),
    (([[1.0]], [2, 3]), "shifts must be"),
    (([1.0], []), "two values"),
    (([1.0], [2]), "two values"),
    (([1e-30], [2, 3]), "modulus"),  # used to end in ZeroDivisionError
    (([1.0, math.nan], [2]), "shifts must be"),
    (([1.0, math.inf], [2]), "shifts must be"),
    (([1.0], [1, 2]), "modulus"),
    # mpmath.mpf used to read a tuple as (mantissa, exponent): [(1, 2)] gave
    # the report of [4.0], and [(1, 2), 1.0] over [2] the relation [1, -4]
    (([(1, 2)], [2, 3]), "shifts must be"),
    (([(1, 2), 1.0], [2]), "shifts must be"),
])
def test_independence_refuses_out_of_range_pslq_settings(args, match):
    with pytest.raises(DomainError, match=match):
        check_log_prime_independence(*args)


# ---------------------------------------------------------------- shift reading

CHI4 = character_from_id("4:1")

# the five entry points that read shifts, each given d = (1, x)
_SHIFT_READERS = {
    "family": lambda x: ShiftFamily((1.0, x), (CHI4, CHI4)),
    "target": lambda x: KroneckerTarget((1.0, x), 1, 0.1, 5),
    "exact": lambda x: find_rational_relations([1, x]),
    "float": lambda x: find_rational_relations([1.0, x], mode="float"),
    "independence": lambda x: check_log_prime_independence([1.0, x], [2, 3]),
}


@pytest.mark.parametrize("entry, bad", [
    *((entry, bad) for entry in sorted(_SHIFT_READERS) for bad in [None, 1j, (1, 2), [1.0], "abc", math.nan, math.inf]),
    # beyond the float range, where a float is needed
    *(pytest.param(entry, 10**400, id=f"{entry}-10**400") for entry in ("family", "float", "target")),
])
def test_every_entry_point_refuses_a_bad_shift(entry, bad):
    # the family, the target and float mode used to end in a raw TypeError,
    # ValueError or OverflowError
    with pytest.raises(DomainError, match=r"shift d_1 = .*: shifts must be"):
        _SHIFT_READERS[entry](bad)


def test_an_exact_shift_needs_no_float_range():
    assert find_rational_relations([1, 10**400]).coefficients == ((10**400,),)
    assert check_log_prime_independence([1, 10**400], [2])["precision_digits"] == 30


@pytest.mark.parametrize("entry", sorted(_SHIFT_READERS))
@pytest.mark.parametrize("x, plain", [
    (2, 2.0),
    (np.int64(2), 2.0),
    (np.float32(0.5), 0.5),
    (np.float64(0.25), 0.25),
    (Fraction(3, 4), 0.75),
    ("1.5", 1.5),
])
def test_every_entry_point_reads_a_shift_as_its_number(entry, x, plain):
    got, want = _SHIFT_READERS[entry](x), _SHIFT_READERS[entry](plain)
    if entry == "family":
        assert got.shifts == (1.0, plain) and all(type(d) is float for d in got.shifts)
        region, taus = StripRegion(0.65, 0.75, -0.5, 0.5), [1.0, 5.0]
        assert np.array_equal(g_values(taus, got, region)[0], g_values(taus, want, region)[0])
    elif entry == "target":
        assert got.shifts == (1.0, plain) and all(type(d) is float for d in got.shifts)
        assert np.array_equal(got.frequencies, want.frequencies)
    else:
        assert got == want
