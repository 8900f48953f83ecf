import math

import mpmath
import numpy as np
import pytest

from oracles import l_oracle, zeta_series
from selfapprox.characters import character_from_id, enumerate_characters
from selfapprox import lfunc
from selfapprox.errors import DomainError, PoleError, RangeError
from selfapprox.lfunc import (
    DEFAULT_CONFIG,
    EvaluatorConfig,
    StripRegion,
    hurwitz_zeta,
    l_partial_sum,
    l_truncated,
    l_value,
    log_l_truncated_ratio,
)
from selfapprox.primes import primes_between, primes_upto

CHI4 = character_from_id("4:1")
CHI1 = enumerate_characters(1)[0]


# ---------------------------------------------------------------- hurwitz


def test_zeta_two():
    assert abs(hurwitz_zeta(2.0 + 0j, 1.0) - 1.6449340668482264) < 1e-12


def test_hurwitz_at_a_one_is_zeta():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-20, 20))
        assert abs(hurwitz_zeta(s, 1.0) - zeta_series(s)) < 1e-10


def test_hurwitz_half_identity():
    # zeta(s, 1/2) = (2^s - 1) zeta(s)
    for s in (2.0 + 0j, 1.7 - 3.2j, 0.8 + 11.0j):
        lhs = hurwitz_zeta(s, 0.5)
        rhs = (2.0**s - 1.0) * hurwitz_zeta(s, 1.0)
        assert abs(lhs - rhs) < 1e-10
    assert abs(hurwitz_zeta(2.0 + 0j, 0.5) - 4.934802200544679) < 1e-10


def test_hurwitz_errors():
    with pytest.raises(PoleError):
        hurwitz_zeta(1.0 + 0j, 1.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0 + 0j, 0.0)
    with pytest.raises(DomainError):
        hurwitz_zeta(2.0 + 0j, 1.5)
    with pytest.raises(RangeError):
        hurwitz_zeta(2.0 + 1e6j, 1.0)


def test_hurwitz_array_shapes():
    arr = np.array([[2.0 + 1j, 3.0 - 2j], [0.8 + 5j, 1.5 + 0j]])
    out = hurwitz_zeta(arr, 1.0)
    assert out.shape == arr.shape
    assert abs(out[0, 0] - hurwitz_zeta(arr[0, 0], 1.0)) < 1e-13


# ---------------------------------------------------------------- l_value


def test_l_value_zeta_two():
    assert abs(l_value(2.0 + 0j, CHI1) - math.pi**2 / 6) < 1e-10


def test_l_value_against_series_oracle():
    s = 2.0 + 3.0j
    assert abs(l_value(s, CHI4) - l_oracle(s, CHI4, tol=1e-8)) < 1e-6


def test_l_value_cross_validation_sample():
    rng = np.random.default_rng(11)
    chars = [c for q in range(1, 13) for c in enumerate_characters(q)]
    for _ in range(12):
        chi = chars[rng.integers(len(chars))]
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-20, 20))
        assert abs(l_value(s, chi) - l_oracle(s, chi)) < 1e-8


def test_l_value_entire_for_nonprincipal():
    val = l_value(0.75 + 0j, CHI4)
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    # known closed form at s=1: L(1, chi_4) = pi/4
    assert abs(l_value(1.0 + 0j, CHI4) - math.pi / 4) < 1e-10


def test_l_value_errors():
    with pytest.raises(PoleError):
        l_value(1.0 + 0j, CHI1)
    with pytest.raises(DomainError):
        l_value(0.4 + 2j, CHI4)
    with pytest.raises(RangeError):
        l_value(0.8 + 1e9j, CHI4)


def test_l_value_conjugation_symmetry():
    for chi in (CHI1, CHI4, character_from_id("3:1")):
        assert chi.is_real
        for s in (0.8 + 3j, 2.0 - 7j):
            lhs = l_value(np.conj(s), chi)
            rhs = np.conj(l_value(s, chi))
            assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------- shifted evaluation


@pytest.mark.parametrize("with_coeffs", [False, True])
def test_power_sum_shifted_matches_pointwise(with_coeffs):
    n = 3 * lfunc._SHIFT_CHUNK + 17
    logn = np.log(np.arange(1, n + 1, dtype=float))
    coeffs = np.exp(2j * np.pi * np.arange(n) / 7.0) if with_coeffs else None
    s = np.array([0.6 - 0.5j, 0.75 + 0.25j, 0.9 + 0.0j])
    shifts = np.array([0.0, 3.5, -120.25, 999.5])
    got = lfunc._power_sum(s, logn, coeffs, shifts)
    assert got.shape == (4, 3)
    want = lfunc._power_sum((s[None, :] + 1j * shifts[:, None]).ravel(), logn, coeffs)
    assert np.max(np.abs(got - want.reshape(4, 3))) <= 1e-12


def _mp_dirichlet(s, chi):
    q = chi.modulus
    table = []
    for n in range(q):
        angle = chi.angle(n if n else q)
        table.append(0 if angle is None else mpmath.expjpi(2 * mpmath.mpf(angle.numerator) / angle.denominator))
    with mpmath.workdps(20):
        return complex(mpmath.dirichlet(mpmath.mpc(s.real, s.imag), table))


@pytest.mark.parametrize("label, base, shifts", [
    pytest.param("1:0", [0.95 + 0.25j, 0.7 - 0.5j], [3999.5], id="q1"),
    pytest.param("1:0", [0.55 + 0.0j], [3999.5], id="q1-sigma0.55", marks=pytest.mark.xfail(
        strict=True, reason="rounding of t log n gives 1.5e-12 here, shifted or not, "
        "against the documented 1e-12 for q = 1 (ROADMAP item 3)")),
    pytest.param("4:1", [0.55 + 0.0j, 0.95 - 0.5j], [10.0, 4000.0], id="q4"),
    pytest.param("60:1", [0.55 + 0.5j, 0.7 + 0.0j], [3999.75], id="q60"),
])
def test_shifted_l_value_against_mpmath_in_strip(label, base, shifts):
    chi = character_from_id(label)
    base, shifts = np.array(base), np.array(shifts)
    got = l_value(base, chi, shifts=shifts)
    assert got.shape == (len(shifts), len(base))
    bound = chi.modulus * DEFAULT_CONFIG.target_abs_error
    for h, row in zip(shifts, got):
        for s, value in zip(base, row):
            assert abs(value - _mp_dirichlet(s + 1j * h, chi)) <= bound


def test_shifted_values_do_not_depend_on_the_other_grid_points():
    region = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)
    fine, coarse = region.grid_points(refine=True)
    base, _ = region.grid_points(refine=False)
    assert np.array_equal(fine[coarse], base)
    shifts = np.array([1999.875, 12.5, 730.0])
    for chi in (CHI4, character_from_id("60:1")):
        assert np.array_equal(l_value(fine, chi, shifts=shifts)[:, coarse], l_value(base, chi, shifts=shifts))
        assert np.array_equal(
            l_partial_sum(fine, chi, 300, shifts=shifts)[:, coarse],
            l_partial_sum(base, chi, 300, shifts=shifts),
        )


def test_shifted_shapes_and_pole():
    vals = l_value(0.8 + 0j, CHI4, shifts=[1.0, 2.0])
    assert vals.shape == (2,)
    assert abs(vals[1] - l_value(0.8 + 2j, CHI4)) < 1e-13
    assert l_partial_sum([0.8 + 0j], CHI4, 10, shifts=[1.0, 2.0, 3.0]).shape == (3, 1)
    # a shifted point landing on s = 1 takes the regularized value
    vals = l_value(np.array([1.0 - 1j, 0.9 - 1j]), CHI4, shifts=[1.0])
    assert vals[0, 0] == l_value(1.0 + 0j, CHI4)
    with pytest.raises(PoleError):
        l_value(1.0 - 1j, CHI1, shifts=[0.0, 1.0])
    with pytest.raises(RangeError):
        l_value(0.7 + 0j, CHI4, shifts=[10.0, 6e4])


# ---------------------------------------------------------------- truncations


def test_truncated_single_factor():
    assert abs(l_truncated(2.0 + 0j, CHI1, 2) - 4.0 / 3.0) < 1e-15


def test_truncated_approaches_zeta_two():
    target = math.pi**2 / 6
    prev_gap = None
    for v in (10, 30, 100, 300):
        gap = abs(l_truncated(2.0 + 0j, CHI1, v) - target)
        tail_envelope = 4.0 * sum(p**-2.0 for p in primes_between(v, 10**5))
        assert gap < tail_envelope + 1e-12
        if prev_gap is not None:
            assert gap <= prev_gap
        prev_gap = gap


def test_truncated_trivial_for_chi4_at_v2():
    # chi(2) = 0, so the only candidate factor drops out
    for s in (0.6 + 0j, 2.0 + 5j):
        assert l_truncated(s, CHI4, 2) == 1.0 + 0j


def test_log_ratio_empty_range_is_zero():
    assert log_l_truncated_ratio(2.0 + 0j, CHI1, 5, 5) == 0


def test_log_ratio_single_prime_closed_form():
    val = log_l_truncated_ratio(2.0 + 0j, CHI1, 2, 3)
    assert abs(val - (-math.log(1.0 - 3.0**-2.0))) < 1e-14
    assert abs(val - 0.11778303565638346) < 1e-12


def test_log_exp_consistency_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        s = complex(rng.uniform(0.6, 2.5), rng.uniform(-30, 30))
        v = float(rng.integers(2, 20))
        y = v + float(rng.integers(1, 60))
        chi = CHI4 if rng.integers(2) else CHI1
        lhs = np.exp(log_l_truncated_ratio(s, chi, v, y)) * l_truncated(s, chi, v)
        rhs = l_truncated(s, chi, y)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


# ---------------------------------------------------------------- partial sums


def test_partial_sum_first_term():
    for s in (0.1 + 90j, 2.0 + 0j):
        assert l_partial_sum(s, CHI4, 1) == 1.0 + 0j


def test_partial_sum_ten_terms():
    expected = sum(n**-2.0 for n in range(1, 11))
    assert abs(l_partial_sum(2.0 + 0j, CHI1, 10) - expected) < 1e-15
    assert abs(l_partial_sum(2.0 + 0j, CHI1, 10) - 1.5497677311665408) < 1e-12


def test_partial_sum_converges_with_tail_bound():
    s = 2.5 + 0j
    for n in (100, 1000):
        gap = abs(l_partial_sum(s, CHI1, n) - l_value(s, CHI1))
        assert gap < n ** (1 - s.real) / (s.real - 1)


# ---------------------------------------------------------------- config and region


def test_config_validation():
    with pytest.raises(DomainError):
        EvaluatorConfig(em_order=3)
    with pytest.raises(DomainError):
        EvaluatorConfig(target_abs_error=0.0)
    cfg = EvaluatorConfig(em_order=16, shift_count=80, target_abs_error=1e-10)
    assert abs(hurwitz_zeta(2.0 + 0j, 1.0, cfg) - math.pi**2 / 6) < 1e-10


def test_strip_region_validation():
    with pytest.raises(DomainError):
        StripRegion(0.51, 0.75, 0, 1, margin=0.02)  # U pokes out left
    with pytest.raises(DomainError):
        StripRegion(0.6, 0.99, 0, 1, margin=0.02)  # U pokes out right
    with pytest.raises(DomainError):
        StripRegion(0.7, 0.6, 0, 1, margin=0.01)
    reg = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=4)
    pts, coarse = reg.grid_points(refine=False)
    assert len(pts) == 12 and len(coarse) == 12
    fine, coarse2 = reg.grid_points(refine=True)
    assert len(fine) == 5 * 7 and len(coarse2) == 12
    assert np.all(np.isin(fine[coarse2], pts))


def test_point_region_grids():
    reg = StripRegion(0.7, 0.7, 0.0, 0.0, margin=0.05, grid_sigma=1, grid_t=1)
    pts, coarse = reg.grid_points(refine=True)
    assert len(pts) == 1 and pts[0] == 0.7 + 0j


def test_u_grid_area():
    reg = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02)
    centers, cell = reg.u_grid(5, 4)
    assert len(centers) == 20
    slo, shi, tlo, thi = reg.u_rect
    assert abs(cell * 20 - (shi - slo) * (thi - tlo)) < 1e-12


def test_prime_tables():
    assert primes_upto(10) == [2, 3, 5, 7]
    assert primes_between(3, 11) == [5, 7, 11]
    assert primes_upto(1) == []
