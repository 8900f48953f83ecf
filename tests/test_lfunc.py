import dataclasses
import json
import math
import pathlib
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from oracles import (
    em_tail_oracle,
    euler_product_oracle,
    johansson_sum_terms,
    johansson_terms,
    l_oracle,
    zeta_series,
)
from selfapprox.characters import character_from_id, enumerate_characters
from selfapprox import lfunc
from selfapprox.density import ShiftFamily, g_values
from selfapprox.errors import DomainError, PoleError, RangeError
from selfapprox.lfunc import DEFAULT_CONFIG, StripRegion, l_partial_sum, l_truncated, l_value
from selfapprox.primes import primes_upto

ROOT = pathlib.Path(__file__).resolve().parent.parent
CHI4 = character_from_id("4:1")
CHI1 = enumerate_characters(1)[0]


# ---------------------------------------------------------------- l_value


def test_l_value_mod_one_is_zeta():
    rng = np.random.default_rng(5)
    for _ in range(10):
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-20, 20))
        assert abs(l_value(s, CHI1) - zeta_series(s)) < 1e-10


@pytest.mark.parametrize("q", [1, 4, 12, 60, 120])
@pytest.mark.parametrize("e", [1.02, 1.1, 1.5, 2.0, math.e])
def test_principal_l_value_against_mpmath(q, e):
    # L(e, chi_0 mod q) = zeta(e) prod_{p | q} (1 - p^-e), the value Carlson's
    # tail sum and selfcheck's zeta(2) rest on
    with mpmath.workdps(30):
        want = mpmath.zeta(e)
        for p in primes_upto(q).tolist():
            if q % p == 0:
                want *= 1 - mpmath.mpf(p) ** -e
        want = float(want)
    got = l_value(complex(e), character_from_id(f"{q}:0"))
    assert abs(got - want) <= 1e-15 * want


def test_l_value_array_shapes():
    arr = np.array([[2.0 + 1j, 3.0 - 2j], [0.8 + 5j, 1.5 + 0j]])
    out = l_value(arr, CHI1)
    assert out.shape == arr.shape
    assert abs(out[0, 0] - l_value(arr[0, 0], CHI1)) < 1e-13


def test_zeta_two():
    assert abs(l_value(2.0 + 0j, CHI1) - 1.6449340668482264) < 1e-12


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
    with pytest.raises(TypeError):  # shifts are keyword-only
        l_value(0.8 + 1j, CHI4, [1.0])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, error", [
    (lambda: l_value(complex(NAN, 1.0), CHI4), DomainError),
    (lambda: l_value(complex(0.7, NAN), CHI4), DomainError),
    (lambda: l_value(0.7, CHI4, shifts=[NAN]), DomainError),
    (lambda: l_value(complex(INF, 0.0), CHI4), DomainError),
    (lambda: l_value(np.array([2.0, complex(0.7, NAN)]), CHI4), DomainError),
    (lambda: l_value(complex(0.7, INF), CHI4), RangeError),
    (lambda: l_value(0.7, CHI4, shifts=[1.0, -INF]), RangeError),
    (lambda: l_partial_sum(complex(NAN, 0.0), CHI4, 100), DomainError),
    (lambda: l_partial_sum(0.7, CHI4, 100, shifts=[NAN]), DomainError),
    (lambda: l_partial_sum(complex(0.7, INF), CHI4, 100), RangeError),
    (lambda: l_truncated(complex(NAN, 0.0), CHI4, 100), DomainError),
    (lambda: l_truncated(complex(0.7, INF), CHI4, 100), RangeError),
], ids=[
    "nan_re", "nan_im", "nan_shift", "inf_re", "nan_in_array", "inf_im", "inf_shift",
    "partial_nan_re", "partial_nan_shift", "partial_inf_im", "truncated_nan_re", "truncated_inf_im",
])
def test_nonfinite_points_are_refused_not_evaluated_to_nan(call, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way to the error
        with pytest.raises(error):
            call()


def test_l_value_conjugation_symmetry():
    for chi in (CHI1, CHI4, character_from_id("3:1")):
        assert chi.order <= 2  # real
        for s in (0.8 + 3j, 2.0 - 7j):
            lhs = l_value(np.conj(s), chi)
            rhs = np.conj(l_value(s, chi))
            assert abs(lhs - rhs) < 1e-10


# ---------------------------------------------------------------- shifted evaluation


@pytest.mark.parametrize("with_coeffs", [False, True])
def test_power_sum_shifted_matches_pointwise(with_coeffs):
    # the nodes 7 n + r, r = 1..7, are 1, 2, ..., n with coefficient e^{2 pi i (m - 1)/7} at m
    n = 3 * lfunc._TERM_CHUNK + 17
    nodes = (7, np.arange(1, 8), np.exp(2j * np.pi * np.arange(7) / 7.0) if with_coeffs else np.ones(7))
    s = np.array([0.6 - 0.5j, 0.75 + 0.25j, 0.9 + 0.0j])
    shifts = np.array([0.0, 3.5, -120.25, 999.5])
    got = lfunc._power_sum(s, n, *nodes, shifts)
    assert got.shape == (4, 3)
    want = lfunc._power_sum((s[None, :] + 1j * shifts[:, None]).ravel(), n, *nodes)
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
    pytest.param("1:0", [0.55 + 0.0j], [3999.5], id="q1-sigma0.55"),
    pytest.param("4:1", [0.55 + 0.0j, 0.95 - 0.5j], [10.0, 4000.0], id="q4"),
    pytest.param("60:1", [0.55 + 0.5j, 0.7 + 0.0j], [3999.75], id="q60"),
    # imprimitive: conductor 3, and conductor 8 with the Euler factors of 3 and 5
    pytest.param("12:1", [0.6 + 1.0j], [0.0], id="q12-conductor3"),
    pytest.param("120:8", [0.6 + 2.0j, 0.8 + 0.5j], [0.0, 499.5], id="q120-conductor8"),
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


@pytest.mark.parametrize("label, t", [
    ("1:0", 1e4), ("1:0", 4.9e4), ("4:1", 4.9e4), ("60:1", 1000.0), ("12:1", 3000.0), ("120:8", 500.0),
])
def test_l_value_against_mpmath_at_large_height(label, t):
    # rows that broke the documented bound while the phase t log n was rounded in float64
    chi = character_from_id(label)
    s = complex(0.7, t)
    assert abs(l_value(s, chi) - _mp_dirichlet(s, chi)) <= chi.modulus * DEFAULT_CONFIG.target_abs_error


# L(0.7 + 49000i, chi) for chi = 60:1, by mpmath.dirichlet over the whole table
# mod 60 at 30 digits; recorded because that takes 16 s
L60_1_AT_49000 = complex(1.089633315707340490754857, -0.3298076975307164682767027)


def test_imprimitive_l_value_at_the_cap_against_recorded_mpmath():
    # 60:1 has conductor 5: l_value sums 4 residue classes mod 5 and the
    # Euler factors of 2 and 3, mpmath the whole table mod 60
    chi = character_from_id("60:1")
    assert abs(l_value(0.7 + 49_000j, chi) - L60_1_AT_49000) <= chi.modulus * DEFAULT_CONFIG.target_abs_error


@pytest.mark.parametrize("name", ["density", "carlson", "b2", "baseline"])
def test_shifted_path_at_the_benchmark_reference_points(name):
    # each reference set the way the workloads evaluate it, through shifts=:
    # a grid row is the base grid moved up by the Im s of its middle point (the
    # grids are symmetric about t = 0), a single point is Re s moved up by Im s
    ref = json.loads((ROOT / "perfbench" / "data" / "reference.json").read_text(encoding="utf-8"))
    for group in ref["sets"][name]:
        chi = character_from_id(group["chi"])
        pts = np.array([[complex(*p) for p in row] for row in group["points"]])
        want = np.array([[complex(float(re), float(im)) for re, im in row] for row in group["values"]])
        if name in ("carlson", "baseline"):
            pts, want = pts.reshape(-1, 1), want.reshape(-1, 1)
        shifts = pts[:, pts.shape[1] // 2].imag
        base = pts - 1j * shifts[:, None]
        assert np.all(base == base[0])
        got = l_value(base[0], chi, shifts=shifts)
        assert np.max(np.abs(got - want)) <= chi.modulus * DEFAULT_CONFIG.target_abs_error


def test_residues_are_those_of_the_primitive_character():
    # chi(n) = chi*(n mod d) at every unit n mod q, and the Euler primes are
    # the primes dividing q but not d, with chi* read at p mod d
    for q in range(1, 61):
        for chi in enumerate_characters(q):
            d, r, weights, (primes, chi_p) = lfunc._residues(chi)
            assert d == chi.conductor and len(r) == sum(math.gcd(n, d) == 1 for n in range(1, d + 1))
            star = dict(zip(r.tolist(), weights))
            units = [n for n in range(1, q + 1) if math.gcd(n, q) == 1]
            assert all(star[(n - 1) % d + 1] == chi.values[n % q] for n in units)
            assert primes.tolist() == [p for p in primes_upto(q) if q % p == 0 and d % p]
            assert [star[(p - 1) % d + 1] for p in primes.tolist()] == chi_p.tolist()


def test_shifted_imprimitive_values_do_not_depend_on_the_other_points():
    # the Euler factors of 60:1 (conductor 5) are formed per (shift, point)
    # pair: each pair alone gives the same bits as the whole call, and the
    # shifted kernel agrees with the unshifted one at the same points
    chi = character_from_id("60:1")
    base = np.array([0.65 - 0.5j, 0.7 + 0j, 0.75 + 0.5j])
    shifts = np.array([0.0, 12.5, 730.0, 1999.875, 4999.5])
    whole = l_value(base, chi, shifts=shifts)
    for i, h in enumerate(shifts):
        for j, s in enumerate(base):
            assert l_value(s, chi, shifts=h) == whole[i, j]
    assert np.max(np.abs(whole - l_value(base[None, :] + 1j * shifts[:, None], chi))) <= 1e-14


def test_phase_is_exact_to_rounding():
    rng = np.random.default_rng(9)
    nodes = np.concatenate([[1, 2, 3, 2**19, 2**19 + 1, 999_983, 10**6], rng.integers(1, 10**6, 60)])
    x = np.concatenate([[5e4, -5e4, 49_999.99], rng.uniform(-5e4, 5e4, 9)])
    got = lfunc._phase(x, *lfunc._log_parts(nodes.astype(float)))
    assert np.all(np.abs(got) <= 3.15)
    with mpmath.workdps(40):
        two_pi = 2 * mpmath.pi
        for xi, row in zip(x, got):
            for m, theta in zip(nodes, row):
                d = mpmath.mpf(float(theta)) - mpmath.mpf(float(xi)) * mpmath.log(int(m))
                assert abs(d - two_pi * mpmath.nint(d / two_pi)) <= 4e-15


def test_bernoulli_coefficients_are_correctly_rounded():
    with mpmath.workdps(60):
        want = [float(mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k)) for k in range(1, 51)]
    assert lfunc._bernoulli_over_fact(100) == tuple(want)


def _use_settings(monkeypatch, **settings):
    """Run the evaluator at other settings for the rest of the test."""
    monkeypatch.setattr(lfunc, "DEFAULT_CONFIG", dataclasses.replace(DEFAULT_CONFIG, **settings))


@pytest.mark.parametrize("em_order", [80, 100])
def test_high_em_order_stays_finite(em_order, monkeypatch):
    # the rising factorial (s)_{2k-1} alone reaches 1e380 here at em_order 80
    s = 0.7 + 49_000j
    want = l_value(s, CHI4)
    _use_settings(monkeypatch, em_order=em_order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = l_value(s, CHI4)
    assert np.isfinite(got.real) and np.isfinite(got.imag)
    assert abs(got - want) <= 1e-13


def _one_term_more():
    """The smallest |t| on a 0.1 grid at which lfunc._n_terms, at the settings
    in force, gives one term more than the log sum: where the integral bound
    parts from the sum depends on em_order and the target."""
    cfg = lfunc.DEFAULT_CONFIG
    for start in range(0, int(10 * lfunc.IM_CAP), 1000):
        t = np.arange(start, start + 1000) / 10
        more = np.flatnonzero(lfunc._n_terms(t) > johansson_sum_terms(t, cfg))
        if more.size:
            return float(t[more[0]])
    raise AssertionError(f"the integral bound never parts from the log sum under {cfg}")


def test_n_terms_and_em_tail_read_the_settings_when_called(monkeypatch):
    # neither takes a settings argument: both read lfunc.DEFAULT_CONFIG as it
    # is at call time, so replacing it moves N and the tail.  N follows the
    # integral bound: at some |t| under each setting (em_order 16, target
    # 1e-6, and shift_count 4000, where it must pass the floor) it is one
    # more than the log sum gives
    t = np.array([0.0, 10.0, 5000.0, 4.9e4])
    s = 0.7 + 1j * t
    default_n = lfunc._n_terms(t)
    counts, step, offsets, weights = _tail_inputs("4:1", s)
    default_tail = lfunc._em_tail(s, counts, step, offsets, weights)
    split = _one_term_more()
    assert lfunc._n_terms(split) == johansson_sum_terms(split, DEFAULT_CONFIG) + 1
    for settings in ({"em_order": 16}, {"shift_count": 4000}, {"target_abs_error": 1e-6}):
        _use_settings(monkeypatch, **settings)
        split, cfg = _one_term_more(), lfunc.DEFAULT_CONFIG
        both = np.append(t, split)
        n = lfunc._n_terms(both)
        assert n.tolist() == [johansson_terms(x, cfg) for x in both], settings
        assert np.any(n[len(t) :] > johansson_sum_terms([split], cfg)), settings
        assert not np.array_equal(n[: len(t)], default_n), settings
    _use_settings(monkeypatch, em_order=2)
    tail = lfunc._em_tail(s, counts, step, offsets, weights)
    want = [em_tail_oracle(z, c, step, offsets, weights, 2) for z, c in zip(s, counts)]
    assert np.all(np.abs(tail - want) <= 2e-15 * _tail_scale(s, counts, step, offsets))
    assert not np.array_equal(tail, default_tail)


@pytest.mark.parametrize("em_order", [16, 60, 100, 160])
def test_integral_bound_adds_at_most_one_term(em_order, monkeypatch):
    # the integral of log |1/2 + x + it| bounds the log sum over the 2M
    # factors of |(s)_{2M}| from above, so N never falls below the N the sum
    # certifies (johansson_sum_terms), and the gap is at most one term
    t = np.concatenate([[0.0, lfunc.IM_CAP], np.random.default_rng(em_order).uniform(0.0, lfunc.IM_CAP, 10**5)])
    _use_settings(monkeypatch, em_order=em_order)
    n = lfunc._n_terms(t)
    floor = np.concatenate([johansson_sum_terms(part, lfunc.DEFAULT_CONFIG) for part in np.array_split(t, 20)])
    assert np.all(n >= floor) and np.all(n <= floor + 1)
    assert np.any(n > floor)


def _tail_inputs(label, s):
    """_em_tail's arguments after s for the points s under chi = label: the
    head counts l_value gives them, and chi*'s residue classes."""
    d, r, weights, _ = lfunc._residues(character_from_id(label))
    n = lfunc._n_terms(np.abs(s.imag))
    return lfunc._TERM_CHUNK * -(-len(r) * n // lfunc._TERM_CHUNK), d, r, weights


def _tail_scale(s, counts, step, offsets):
    """sum_j |x_j^{-s}| (|b_j / (s - 1)| + 1), with b_j log x_j for the pole
    part at s = 1: the size of the largest terms that each tail adds up."""
    classes = len(offsets)
    b = -(-(counts[:, None] - np.arange(classes)) // classes) + np.asarray(offsets) / step
    x = step * b
    pole = (s == 1.0)[:, None]
    big = np.where(pole, b * np.log(x), b / np.where(pole, 1.0, np.abs(s[:, None] - 1.0)))
    return (x ** -s.real[:, None] * (big + 1.0)).sum(axis=-1)


@pytest.mark.parametrize("em_order", [2, 16, 60, 160])
def test_em_tail_against_mpmath(em_order, monkeypatch):
    # the Horner-form tail against the tail summed term by term at 40 digits,
    # at density-shaped points (chi_4, the refined grid on K shifted by
    # d tau <= 4000) and Carlson-shaped ones (60:1, conductor 5, sigma 0.75,
    # |t| <= 5000), each with the head l_value gives it, and at s = 1 for
    # nonprincipal weights, where the pole is replaced by its regular part.
    # The error is at most 4.6e-16 of the largest terms summed (this numpy
    # build, x86-64), as it was with the steps' cumulative products.
    # The heads are those of the default em_order; the tails are taken at
    # em_order.
    rng = np.random.default_rng(16)
    cases = []
    for label, s in (
        ("4:1", rng.uniform(0.63, 0.77, 8) + 1j * rng.uniform(-4000.5, 4000.5, 8)),
        ("60:1", 0.75 + 1j * np.concatenate([[5000.0, 0.0], rng.uniform(-5000.0, 5000.0, 6)])),
    ):
        counts, step, offsets, weights = _tail_inputs(label, s)
        cases.append((label, np.append(s, [1.0, 1.0]), np.append(counts, [256, 4096]), step, offsets, weights))
    _use_settings(monkeypatch, em_order=em_order)
    for label, s, counts, step, offsets, weights in cases:
        got = lfunc._em_tail(s, counts, step, offsets, weights)
        want = [em_tail_oracle(z, c, step, offsets, weights, em_order) for z, c in zip(s, counts)]
        assert np.all(np.abs(got - want) <= 2e-15 * _tail_scale(s, counts, step, offsets)), label


def test_em_tail_of_one_pair_does_not_depend_on_its_call():
    # a (shift, point) pair's tail alone, with its neighbours, and inside a
    # call of over 10^5 pairs that spans several tiles of _TILE // classes
    # points: every step of the Horner sum is elementwise
    grid, _ = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3).grid_points(refine=True)
    taus = np.random.default_rng(17).uniform(0.0, 2000.0, 2100)
    s = (grid[None, :] + 1j * np.concatenate([taus, 2.0 * taus])[:, None]).ravel()
    assert s.size >= 10**5
    for label in ("4:1", "60:1", "60:13"):
        counts, step, offsets, weights = _tail_inputs(label, s)
        group = lfunc._TILE // len(offsets)
        assert s.size > 3 * group
        whole = lfunc._em_tail(s, counts, step, offsets, weights)
        for i in (0, 1, group - 1, group, group + 1, 3 * group, s.size - 1):
            alone = lfunc._em_tail(s[i : i + 1], counts[i : i + 1], step, offsets, weights)
            assert alone[0] == whole[i], (label, i)
            near = slice(max(i - 2, 0), i + 3)
            assert np.array_equal(lfunc._em_tail(s[near], counts[near], step, offsets, weights), whole[near])


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


@pytest.mark.parametrize("evaluator, args", [
    (l_value, (0.8 + 0j, CHI4)),
    (l_partial_sum, (0.8 + 0j, CHI4, 10)),
], ids=["l_value", "l_partial_sum"])
def test_shifts_are_keyword_only(evaluator, args):
    # g_values' evaluator contract calls evaluator(grid, chi, shifts=h)
    with pytest.raises(TypeError):
        evaluator(*args, [1.0])
    assert evaluator(*args, shifts=[1.0]).shape == (1,)


def test_shifted_shapes_and_pole():
    vals = l_value(0.8 + 0j, CHI4, shifts=[1.0, 2.0])
    assert vals.shape == (2,)
    assert abs(vals[1] - l_value(0.8 + 2j, CHI4)) < 1e-13
    assert l_partial_sum([0.8 + 0j], CHI4, 10, shifts=[1.0, 2.0, 3.0]).shape == (3, 1)
    # a shifted point landing on s = 1 takes the regularized value, and only
    # it: its neighbour keeps the values it has without it
    vals = l_value(np.array([1.0 - 1j, 0.9 - 1j]), CHI4, shifts=[1.0, 500.0])
    assert abs(vals[0, 0] - l_value(1.0 + 0j, CHI4)) < 1e-13
    assert np.array_equal(vals[:, 1], l_value(np.array([0.9 - 1j]), CHI4, shifts=[1.0, 500.0])[:, 0])
    assert isinstance(l_value(1.0 - 1j, CHI4, shifts=1.0), complex)
    with pytest.raises(PoleError):
        l_value(1.0 - 1j, CHI1, shifts=[0.0, 1.0])
    with pytest.raises(RangeError):
        l_value(0.7 + 0j, CHI4, shifts=[10.0, 6e4])


def test_l_value_does_not_call_itself(monkeypatch):
    # a shifted point on s = 1 used to be re-evaluated by a second, unshifted
    # call; the shifted head and the regularized tail are finite there
    calls = []
    monkeypatch.setattr(lfunc, "l_value", lambda *args, **kwargs: calls.append(args))
    vals = l_value(np.array([1.0 - 1j, 0.9 - 1j]), CHI4, shifts=[1.0])
    assert calls == []
    assert np.isfinite(vals).all()


def test_values_do_not_depend_on_the_other_points_in_the_call():
    # every point sums the head its own |Im s| needs, so a value is the same
    # alone, in any subset and in any order of its call
    pts = 0.7 + 1j * np.linspace(2500.0, 3000.0, 1000)
    whole = l_value(pts, CHI4)
    for i in (0, 1, 500, 998):
        assert np.array_equal(l_value(pts[[i, -1]], CHI4), whole[[i, -1]])
    rng = np.random.default_rng(23)
    pts = rng.uniform(0.55, 0.95, 40) + 1j * rng.uniform(-6000.0, 6000.0, 40)
    pts[:3] = [0.7 + 0j, 0.6 + 0.5j, 0.9 - 5999.0j]
    for chi in (CHI4, character_from_id("60:1")):
        whole = l_value(pts, chi)
        assert np.array_equal([l_value(p, chi) for p in pts], whole)
        order = rng.permutation(len(pts))
        assert np.array_equal(l_value(pts[order], chi), whole[order])
    # shifted calls: each shift alone, and the shifts in another order
    base = np.array([0.65 - 0.5j, 0.7 + 0j, 0.75 + 0.5j])
    shifts = np.concatenate([[0.0, 4999.5], rng.uniform(-5000.0, 5000.0, 30)])
    for chi in (CHI4, character_from_id("60:1")):
        whole = l_value(base, chi, shifts=shifts)
        for h, row in zip(shifts, whole):
            assert np.array_equal(l_value(base, chi, shifts=[h])[0], row)
        order = rng.permutation(len(shifts))
        assert np.array_equal(l_value(base, chi, shifts=shifts[order]), whole[order])
    # one tau through the sup-difference functional, alone and in a block
    family = ShiftFamily((1.0, 2.0), (CHI4, CHI4))
    region = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)
    taus = rng.uniform(0.0, 600.0, 4096 + 17)
    g, delta = g_values(taus, family, region)
    for i in (0, 1, 4095, 4096, 4112):
        alone = g_values(taus[i : i + 1], family, region)
        assert np.array_equal(alone[0], g[i : i + 1]) and np.array_equal(alone[1], delta[i : i + 1])


def test_concatenated_shifts_equal_the_calls_stacked():
    # density.g_values merges the members of one character into one call;
    # 100 + 60 shifts cross a group of _TILE // _TERM_CHUNK = 128 shift rows
    assert lfunc._TILE // lfunc._TERM_CHUNK == 128
    grid, _ = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3).grid_points(refine=True)
    rng = np.random.default_rng(31)
    a, b = rng.uniform(0.0, 2000.0, 100), rng.uniform(0.0, 4000.0, 60)
    for chi in (CHI4, character_from_id("60:1")):
        for evaluator in (l_value, lambda s, chi, shifts: l_partial_sum(s, chi, 1000, shifts=shifts)):
            whole = evaluator(grid, chi, shifts=np.concatenate([a, b]))
            stacked = np.concatenate([evaluator(grid, chi, shifts=a), evaluator(grid, chi, shifts=b)])
            assert np.array_equal(whole, stacked)


def test_shifted_contractions_stay_within_one_chunk(monkeypatch):
    # each (shift, point) pair is one dot product of at most _TERM_CHUNK terms,
    # far below the length at which OpenBLAS splits a dot across threads, so
    # the values do not depend on the BLAS thread count
    lengths = []
    vecdot = np.vecdot

    def spy(x1, x2, **kwargs):
        lengths.append(np.shape(x1)[-1])
        return vecdot(x1, x2, **kwargs)

    monkeypatch.setattr(lfunc.np, "vecdot", spy)
    grid, _ = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3).grid_points(refine=True)
    taus = np.random.default_rng(32).uniform(0.0, 2000.0, 32)
    l_value(grid, CHI4, shifts=np.concatenate([taus, 2.0 * taus]))
    l_partial_sum(grid, CHI4, 1000, shifts=taus)
    l_value(0.75 + 0j, character_from_id("60:1"), shifts=taus)
    assert lengths and max(lengths) <= lfunc._TERM_CHUNK


# a primitive character with phi(q) = key residue classes
_PRIMITIVE = {1: "1:0", 2: "4:1", 16: "60:13", 48: "65:13", 300: "341:31"}


def _last_t_within(budget, classes, cfg, terms=johansson_terms):
    """The largest float |t| in [0, IM_CAP] with classes * N(|t|) <= budget
    under the oracle `terms`, by bisection down to adjacent floats."""
    lo, hi = 0.0, lfunc.IM_CAP
    while np.nextafter(lo, hi) < hi:
        mid = max(0.5 * (lo + hi), np.nextafter(lo, hi))
        if classes * terms(mid, cfg) <= budget:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("classes", [1, 2, 16, 48, 300])
def test_every_residue_class_sums_the_certified_length(classes, monkeypatch):
    # the head counts C that l_value hands the power sum for a primitive chi
    # of `classes` residue classes, at |t| where classes * N crosses a
    # multiple of _TERM_CHUNK under the scalar math oracle, one ulp either
    # side, midway to where it crosses under the log sum (johansson_sum_terms,
    # which gives one term fewer in between, so a shorter head), and at
    # random |t| <= IM_CAP: class j sums ceil((C - j) / classes) terms, at
    # least N and fewer for C - _TERM_CHUNK.  The evaluator rounds the
    # oracle's closed form in numpy rather than math, so where N steps up the
    # two may split by a few ulps of |t|; there N is checked against the
    # oracle 1e-13 (relative) either side, which moves the remainder bound by
    # about 6e-12 relative.
    chi = character_from_id(_PRIMITIVE[classes])
    assert chi.conductor == chi.modulus and len(lfunc._residues(chi)[1]) == classes
    cfg, chunk = DEFAULT_CONFIG, lfunc._TERM_CHUNK
    top = -(-classes * johansson_terms(lfunc.IM_CAP, cfg) // chunk)
    first = -(-classes * cfg.shift_count // chunk)
    budgets = chunk * np.arange(first, top, max(1, top // 150))
    edges = np.array([_last_t_within(b, classes, cfg) for b in budgets])
    sum_edges = np.array([_last_t_within(b, classes, cfg, johansson_sum_terms) for b in budgets])
    split = 0.5 * (edges + sum_edges)
    split = split[(split > edges) & (split <= sum_edges)]
    assert split.size > 0
    edges = edges[edges > 0.0]
    random_t = np.random.default_rng(classes).uniform(0.0, lfunc.IM_CAP, 200)
    t = np.concatenate([edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), split, random_t, [0.0]])
    seen = []

    def power_sum(s, counts, *rest):
        seen.append(counts.ravel())
        return np.zeros(counts.shape, complex)

    monkeypatch.setattr(lfunc, "_power_sum", power_sum)
    monkeypatch.setattr(lfunc, "_em_tail", lambda s, *rest: np.zeros(s.shape, complex))
    l_value(0.75 + 1j * t, chi)
    (counts,) = seen
    assert np.all(counts % chunk == 0)
    fewest = -(-(counts - (classes - 1)) // classes)  # the last class's terms
    short = -(-(counts - chunk - (classes - 1)) // classes)  # and with C - _TERM_CHUNK
    exact = slice(3 * len(edges), None)  # the split, the random |t| and 0
    n = np.array([johansson_terms(float(x), cfg) for x in t[exact]])
    assert np.all(fewest[exact] >= n) and np.all(short[exact] < n)
    n_lo = np.array([johansson_terms(x * (1.0 - 1e-13), cfg) for x in t])
    n_hi = np.array([johansson_terms(x * (1.0 + 1e-13), cfg) for x in t])
    assert np.all(fewest >= n_lo) and np.all(short < n_hi)
    # each point alone gets the count it got in the call of all of them
    seen.clear()
    for x in t[: 3 * len(edges)]:
        l_value(0.75 + 1j * x, chi)
    assert np.array_equal(np.concatenate(seen), counts[: 3 * len(edges)])


def test_single_point_matches_the_same_point_in_a_large_call():
    # a point alone, with one other point and among 300 points (three tiles
    # of _TILE // _TERM_CHUNK points) sums the same _TERM_CHUNK-term chunks
    # and adds their sums in the same order; the 16 classes of the primitive
    # 60:13 give a head of more than _TILE terms, the 4 of 60:1 (conductor 5)
    # a quarter of that
    pts = 0.7 + 1j * np.linspace(9000.0, 10_000.0, 300)
    assert lfunc._n_terms(10_000.0) * 16 > lfunc._TILE
    assert character_from_id("60:13").conductor == 60
    for label in ("60:1", "60:13"):
        chi = character_from_id(label)
        whole = l_value(pts, chi)
        assert l_value(pts[-1], chi) == whole[-1]
        assert np.array_equal(l_value(pts[[7, -1]], chi), whole[[7, -1]])


def test_unshifted_memory_stays_bounded():
    # 20 000 points over three chunks of terms: up to the largest whole |t|
    # at which chi_4's two residue classes still fit in three, at the
    # settings in force.  The head is summed one _TERM_CHUNK-term chunk of
    # _TILE // _TERM_CHUNK points at a time and the Euler-Maclaurin tail in
    # tiles of _TILE values, so the peak (4.3 MB) does not grow with the
    # number of terms.
    t = np.arange(float(lfunc.IM_CAP))
    top = t[np.ceil(2 * lfunc._n_terms(t) / lfunc._TERM_CHUNK) <= 3].max()
    pts = 0.7 + 1j * np.linspace(0.0, top, 20_000)
    assert math.ceil(2 * lfunc._n_terms(top) / lfunc._TERM_CHUNK) == 3
    tracemalloc.start()
    try:
        l_value(pts, CHI4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6


def test_one_long_point_is_summed_chunk_by_chunk():
    # one point at the top of the supported range: 4 classes of 13 814 terms
    # for 60:1 (conductor 5), 216 chunks, summed one chunk at a time like any
    # other call.  A tiling that gave a lone point _TILE terms per numpy call
    # peaked at 2.86 MB here.
    chi = character_from_id("60:1")
    tracemalloc.start()
    try:
        l_value(0.7 + 49_000j, chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6


def test_shifted_memory_stays_bounded():
    # Carlson's call shape at the top of the supported range: 16 residue
    # classes of 13 800 terms each, built chunk by chunk from the residue list
    taus = np.linspace(100.0, 49_000.0, 120)
    chi = character_from_id("60:1")
    tracemalloc.start()
    try:
        l_value(0.75 + 0j, chi, shifts=taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6


# ---------------------------------------------------------------- truncations


def test_truncated_single_factor():
    assert abs(l_truncated(2.0 + 0j, CHI1, 2) - 4.0 / 3.0) < 1e-15


def test_truncated_approaches_zeta_two():
    target = math.pi**2 / 6
    prev_gap = None
    for v in (10, 30, 100, 300):
        gap = abs(l_truncated(2.0 + 0j, CHI1, v) - target)
        tail_envelope = 4.0 * sum(p**-2.0 for p in primes_upto(10**5) if p > v)
        assert gap < tail_envelope + 1e-12
        if prev_gap is not None:
            assert gap <= prev_gap
        prev_gap = gap


@pytest.mark.parametrize("label, s", [("1:0", 0.7 + 1000j), ("4:1", 0.7 + 4.9e4j)])
def test_truncated_against_mpmath(label, s):
    # the phases t log p are reduced in double-double, as in l_value's Euler
    # factors; rounded in float64 they were off by 1e-13 and 5e-12 here
    chi = character_from_id(label)
    with mpmath.workdps(30):
        want = mpmath.mpf(1)
        for p in primes_upto(13).tolist():
            c = chi(p)
            want /= 1 - mpmath.mpc(c.real, c.imag) * mpmath.power(p, -mpmath.mpc(s.real, s.imag))
        want = complex(want)
    assert abs(l_truncated(s, chi, 13) - want) <= 1e-14


def test_truncated_trivial_for_chi4_at_v2():
    # chi(2) = 0, so the only candidate factor drops out
    for s in (0.6 + 0j, 2.0 + 5j):
        assert l_truncated(s, CHI4, 2) == 1.0 + 0j


@pytest.mark.parametrize("label", ["4:1", "60:1", "1:0"])
def test_truncated_across_prime_tiles(label):
    # 1229 primes p <= 10^4 at 100 points are 4 tiles of 327 primes in the
    # Euler-factor kernel; the tiling changes no value, so each point alone,
    # one tile of all its primes, gives the same bits as in the whole call
    chi = character_from_id(label)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.55, 0.95, 100) + 1j * rng.uniform(-4e4, 4e4, 100)
    got = l_truncated(pts, chi, 10**4)
    assert lfunc._TILE // len(pts) == 327
    for k, s in enumerate(pts):
        assert l_truncated(s, chi, 10**4) == got[k]
    primes = primes_upto(10**4).tolist()
    with mpmath.workdps(40):
        logs = [mpmath.log(p) for p in primes]
        for k in range(0, len(pts), 10):
            s = mpmath.mpc(pts[k].real, pts[k].imag)
            want = mpmath.mpf(1)
            for p, log_p in zip(primes, logs):
                c = chi.values[p % chi.modulus]
                if c != 0:
                    want *= 1 - mpmath.mpc(c.real, c.imag) * mpmath.exp(-s * log_p)
            want = complex(1 / want)
            assert abs(got[k] - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("label", ["4:1", "60:1", "7:2"])
@pytest.mark.parametrize("points", [1, 25, 400])
def test_euler_kernel_matches_the_per_prime_loop(label, points):
    # each tile's np.multiply.reduce over real-formed factors gives the bits
    # of the per-prime loop in real arithmetic, here over 1 and up to 119
    # tiles of primes: the kernel relies on numpy multiplying a complex row
    # out in order, without fused multiply-adds
    chi = character_from_id(label)
    rng = np.random.default_rng(points)
    pts = rng.uniform(0.55, 0.95, points) + 1j * rng.uniform(-4e4, 4e4, points)
    for v in (100, 10**5):
        primes = primes_upto(v)
        want = euler_product_oracle(np.ones(points, complex), pts, primes, chi.values[primes % chi.modulus])
        assert np.array_equal(l_truncated(pts, chi, v), 1.0 / want)


def test_euler_factors_match_the_per_prime_loop_across_point_tiles(monkeypatch):
    # l_value's factors at the primes 2 and 3 that divide 60 but not the
    # conductor 5 of 60:1, over a shifted call of more than _TILE points, so
    # the kernel takes them one prime and _TILE points at a time
    chi = character_from_id("60:1")
    kernel, calls = lfunc._times_euler_factors, []

    def spy(acc, s, primes, values):
        out = kernel(acc, s, primes, values)
        calls.append((acc.ravel(), s.ravel(), primes, values, out.ravel()))
        return out

    monkeypatch.setattr(lfunc, "_times_euler_factors", spy)
    got = l_value(np.array([0.6, 0.7, 0.8]) + 0.1j, chi, shifts=np.linspace(0.0, 500.0, 12_000))
    ((acc, s, primes, values, out),) = calls
    assert s.size > lfunc._TILE and primes.tolist() == [2, 3]
    assert np.array_equal(out, euler_product_oracle(acc, s, primes, values))
    assert np.array_equal(got.ravel(), out)


# ---------------------------------------------------------------- partial sums


def test_partial_sum_first_term():
    for s in (0.1 + 90j, 2.0 + 0j):
        assert l_partial_sum(s, CHI4, 1) == 1.0 + 0j


def test_partial_sum_length_is_capped_per_residue_class():
    # the partial sum is capped at _N_MAX terms per residue class: 2 classes
    # mod 4 allow n_max up to 4 _N_MAX
    usable = 4 * lfunc._N_MAX
    for n_max in (usable + 1, 10**10):
        with pytest.raises(RangeError) as err:
            l_partial_sum(0.75 + 0j, CHI4, n_max, shifts=[1.0, 2.0])
        assert f"largest usable n_max at this cap is {usable}" in str(err.value)


def test_partial_sum_ten_terms():
    expected = sum(n**-2.0 for n in range(1, 11))
    assert abs(l_partial_sum(2.0 + 0j, CHI1, 10) - expected) < 1e-15
    assert abs(l_partial_sum(2.0 + 0j, CHI1, 10) - 1.5497677311665408) < 1e-12


def test_partial_sum_converges_with_tail_bound():
    s = 2.5 + 0j
    for n in (100, 1000):
        gap = abs(l_partial_sum(s, CHI1, n) - l_value(s, CHI1))
        assert gap < n ** (1 - s.real) / (s.real - 1)


# ---------------------------------------------------------------- region


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


def test_prime_tables():
    primes = primes_upto(10)
    assert primes.dtype == np.int64 and primes.tolist() == [2, 3, 5, 7]
    assert primes_upto(1).tolist() == [] and primes_upto(1.9).tolist() == []
    # a bound, like every horizon and length, is positive (tests/test_limits.py)
    with pytest.raises(DomainError, match="must be positive and finite"):
        primes_upto(-3)


def test_prime_sieve_at_the_cap_stays_small():
    # the 664 579 primes below 10^7 as int64 take 5.3 MB next to the 10 MB
    # mask; as a list of Python ints they held 26.6 MB, a 42 MB peak
    tracemalloc.start()
    try:
        primes = primes_upto(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes.size == 664_579 and primes[-1] == 9_999_991
    assert peak < 20e6


def test_prime_sieve_keeps_no_table():
    # each call sieves its own bound; a cache of the three tables held 9.4 MB
    tracemalloc.start()
    try:
        for bound in (10**6, 10**6 - 1, 10**6 - 2):
            primes_upto(bound)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert current < 10**6


def test_prime_sieve_is_capped_before_it_allocates():
    # uncapped, this bound sieves a 100 MB mask for about 7 s
    tracemalloc.start()
    try:
        with pytest.raises(RangeError, match="largest usable bound at this cap is 10000000$"):
            primes_upto(10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
