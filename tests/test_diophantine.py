import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfapprox.diophantine import (
    KroneckerTarget,
    find_rational_relations,
    find_tau_in_set,
    in_kronecker_set,
    kronecker_membership,
    check_log_prime_independence,
    measure_kronecker_density,
    nearest_int_distance,
)
from selfapprox.errors import DomainError
from selfapprox.sampling import BLOCK_SIZE, binomial_stderr, uniform_samples, wilson_interval


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
    assert rel.verify(d, tol=1e-8)


def test_relation_rejects_zero_shift():
    with pytest.raises(DomainError):
        find_rational_relations([1, 0])


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
    density, (lo, hi) = measure_kronecker_density(t, 1e5, 200000, seed=1)
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
        n = 10**6
        density, _ = measure_kronecker_density(t, 1e5, n, seed=1000 + trial)
        se = binomial_stderr(int(round(density * n)), n)
        assert abs(density - t.expected_density) < 3 * se + 0.003


def test_density_reproducible_and_stratified():
    t = KroneckerTarget((1.0,), 1, 0.1, 5)
    a = measure_kronecker_density(t, 1e5, 50000, seed=9)
    b = measure_kronecker_density(t, 1e5, 50000, seed=9)
    assert a == b
    c, _ = measure_kronecker_density(t, 1e5, 50000, seed=9, stratified=True)
    assert abs(c - t.expected_density) < 0.002


def test_density_draws_the_same_taus_block_by_block():
    # per-block draws reproduce the whole-array samples of the same seed
    t = KroneckerTarget((1.0,), 1, 0.1, 5)
    n, T = 3 * BLOCK_SIZE + 17, 1e5
    taus = uniform_samples(4, n, 0.0, T)
    hits = int(np.count_nonzero(kronecker_membership(taus, t)))
    assert measure_kronecker_density(t, T, n, seed=4) == (hits / n, wilson_interval(hits, n))
    offset = np.random.Generator(np.random.PCG64(np.random.SeedSequence((4, 0)))).uniform(0.0, 1.0)
    grid = 0.0 + (T - 0.0) * (np.arange(n) + offset) / n
    hits = int(np.count_nonzero(kronecker_membership(grid, t)))
    assert measure_kronecker_density(t, T, n, seed=4, stratified=True)[0] == hits / n


@pytest.mark.parametrize("stratified", [False, True])
def test_density_memory_does_not_grow_with_samples(stratified):
    t = KroneckerTarget((1.0,), 1, 0.1, 2)
    n = 2_000_000  # 16 MB of tau values if held at once
    tracemalloc.start()
    try:
        measure_kronecker_density(t, 1e5, n, seed=1, stratified=stratified)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 8 * BLOCK_SIZE


def test_near_full_cube():
    t = KroneckerTarget((1.0,), 1, 0.499, 3)
    density, _ = measure_kronecker_density(t, 1e4, 50000, seed=2)
    assert density > 0.99 * (0.998) ** 2


def test_wilson_interval_sane():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo < 1


# ---------------------------------------------------------------- tau search


def test_find_tau_periodic_solutions():
    t = KroneckerTarget((1.0,), 1, 0.1, 2)
    hits = find_tau_in_set(t, 100.0, "grid")
    assert hits and hits[0] == 0.0
    period = 2 * math.pi / math.log(2)
    for k in range(1, 12):
        assert min(abs(h - k * period) for h in hits) < t.delta * period + 1e-9
    assert all(in_kronecker_set(h, t) for h in hits)


def test_find_tau_two_primes_grid_and_lattice():
    t = KroneckerTarget((1.0,), 1, 0.05, 3)
    for strategy in ("grid", "lattice"):
        hits = find_tau_in_set(t, 1e4, strategy)
        assert hits
        assert all(in_kronecker_set(h, t) for h in hits)


def test_find_tau_zero_always_member():
    t = KroneckerTarget((1.0, math.pi), 2, 0.2, 3)
    hits = find_tau_in_set(t, 1.0, "grid")
    assert 0.0 in hits


def test_find_tau_empty_is_not_error():
    t = KroneckerTarget((1.0,), 1, 0.01, 7)
    hits = find_tau_in_set(t, 1.0, "lattice")
    assert hits == [0.0] or hits == []


def test_find_tau_bad_inputs():
    t = KroneckerTarget((1.0,), 1, 0.1, 2)
    with pytest.raises(DomainError):
        find_tau_in_set(t, -1.0)
    with pytest.raises(DomainError):
        find_tau_in_set(t, 10.0, strategy="magic")


# ---------------------------------------------------------------- independence


def test_log_primes_no_relation():
    report = check_log_prime_independence([1.0], [2, 3, 5], 30, 1000)
    assert report["relation_found"] is False
    assert report["coefficients"] == []
    assert report["precision_digits"] == 30 and report["coeff_cap"] == 1000


def test_dependent_shifts_expose_relation():
    report = check_log_prime_independence([1.0, 2.0], [2], 30, 1000)
    assert report["relation_found"] is True
    c = report["coefficients"]
    assert sorted(abs(x) for x in c) == [1, 2]
    assert report["residual"] < 1e-25


def test_sqrt2_consistent_with_independence():
    report = check_log_prime_independence([1.0, math.sqrt(2)], [2, 3], 30, 10**4)
    assert report["relation_found"] is False


def test_independence_input_validation():
    with pytest.raises(DomainError):
        check_log_prime_independence([1.0], [2, 2])
    with pytest.raises(DomainError):
        check_log_prime_independence([], [2])
