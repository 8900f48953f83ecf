"""Every operating limit is refused by one guard, errors._check_limit, and
every count is read by one reader, errors._check_count.

For each guarded entry point, a value past the limit gets RangeError in one
message form that ends in the largest usable value; that value, read back as
printed, is accepted by the same check, and a value 10^-4 above it is not.
Horizons, bounds and lengths that are NaN, infinite, zero or negative get
DomainError instead.  A count is accepted as an int, a numpy integer or a
whole float from its least value up, and anything else gets DomainError.  The
work behind each guard is replaced by a sentinel, so a value is accepted when
the call reaches the sentinel; the sieve, at most 0.1 s, runs as it is.
"""

import math

import mpmath
import numpy as np
import pytest

from selfapprox import cli, density, diophantine, lfunc, meanvalue
from selfapprox.characters import DirichletCharacter, character_from_id, enumerate_characters
from selfapprox.density import ShiftFamily, convergence_diagnostic, empirical_cdf, sample_g
from selfapprox.diophantine import KroneckerTarget, find_rational_relations, find_tau_in_set, measure_kronecker_density
from selfapprox.errors import DomainError, RangeError
from selfapprox.lfunc import StripRegion, l_partial_sum, l_value
from selfapprox.meanvalue import b2_ladder, carlson_mean_value, coprime_tail_sum
from selfapprox.primes import primes_upto
from selfapprox.sampling import wilson_interval

CHI4 = character_from_id("4:1")
# the density argv's region: K's largest |t| is 0.5
REGION = StripRegion(0.65, 0.75, -0.5, 0.5)
FAMILY = ShiftFamily((1.0, 2.0), (CHI4, CHI4))


class Accepted(Exception):
    """Raised in place of the work behind a guard."""


def _accept(*args, **kwargs):
    raise Accepted


def _target(p):
    return KroneckerTarget((1.0,), 1, 0.1, p)


# id: (the call with the guarded value v, its name, a value past the limit,
# the (module, name) the sentinel replaces, or None)
LIMITS = {
    "sample_g": (lambda v: sample_g(FAMILY, REGION, v, 1, seed=0), "T", 1e5, (density, "uniform_samples")),
    "convergence_diagnostic": (
        lambda v: convergence_diagnostic(FAMILY, REGION, [v]), "T", 1e5, (density, "sample_g")
    ),
    "carlson_T": (
        lambda v: carlson_mean_value(CHI4, 0.75 + 1000j, 20, x=3.0, T=v), "T", 1e5, (meanvalue, "uniform_samples")
    ),
    "carlson_y": (lambda v: carlson_mean_value(CHI4, 0.75, v, T=10.0), "y", 1e9, (meanvalue, "uniform_samples")),
    "b2_T": (lambda v: b2_ladder(FAMILY, [10], v, REGION), "T", 1e5, (meanvalue, "uniform_samples")),
    "b2_N": (lambda v: b2_ladder(FAMILY, [10, v], 10.0, REGION), "N", 1e9, (meanvalue, "uniform_samples")),
    "l_partial_sum": (lambda v: l_partial_sum(0.75, CHI4, v), "n_max", 1e9, (lfunc, "_power_sum")),
    "l_value": (lambda v: l_value(complex(0.75, v), CHI4), "|Im s|", 1e5, (lfunc, "_power_sum")),
    "primes_upto": (primes_upto, "bound", 1e8, None),
    "coprime_tail_sum": (lambda v: coprime_tail_sum(CHI4, v, 2.0), "y", 1e12, (meanvalue, "l_value")),
    **{
        f"kronecker_p{p}": (
            lambda v, p=p: measure_kronecker_density(_target(p), v), "T", 1e9, (diophantine, "_member_intervals")
        )
        for p in (2, 3, 5, 7)
    },
    **{
        f"find_tau_p{p}": (
            lambda v, p=p: find_tau_in_set(_target(p), v), "bound", 1e9, (diophantine, "_member_intervals")
        )
        for p in (2, 3, 5, 7)
    },
}


@pytest.mark.parametrize("case", LIMITS)
def test_the_largest_usable_value_named_is_accepted(case, monkeypatch):
    call, name, past, sentinel = LIMITS[case]
    with pytest.raises(RangeError) as err:
        call(past)
    message = str(err.value)
    assert len(message.splitlines()) == 1
    head, named = message.rsplit(" ", 1)
    assert head.endswith(f"; largest usable {name} at this cap is")
    if sentinel is None:
        call(float(named))
    else:
        monkeypatch.setattr(*sentinel, _accept)
        with pytest.raises(Accepted):
            call(float(named))
    with pytest.raises(RangeError):
        call(float(named) * (1 + 1e-4))


BAD = (math.nan, math.inf, -math.inf, 0.0, -1.0)


@pytest.mark.parametrize("case", [case for case in LIMITS if case not in ("l_value", "coprime_tail_sum")])
@pytest.mark.parametrize("bad", BAD, ids=["nan", "inf", "-inf", "zero", "negative"])
def test_a_bad_horizon_bound_or_length_is_a_domain_error(case, bad, monkeypatch):
    # |Im s| is no horizon: 0 and negative heights are valid for l_value
    call, _, _, sentinel = LIMITS[case]
    if sentinel is not None:
        monkeypatch.setattr(*sentinel, _accept)
    with pytest.raises(DomainError) as err:
        call(bad)
    assert not isinstance(err.value, RangeError)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0])
def test_carlson_refuses_a_shift_scale_that_is_not_finite_and_nonzero(x, monkeypatch):
    # x = inf used to be read as a horizon past the cap: "largest usable T at this cap is 0"
    monkeypatch.setattr(meanvalue, "uniform_samples", _accept)
    with pytest.raises(DomainError, match="shift scale x"):
        carlson_mean_value(CHI4, 0.75, 20, x=x, T=10.0)
    with pytest.raises(Accepted):
        carlson_mean_value(CHI4, 0.75, 20, x=-1.0, T=10.0)


def test_a_height_of_zero_is_no_horizon():
    # the guard would refuse |Im s| = 0, so l_value calls it only past the cap
    assert np.isfinite(l_value(0.75, CHI4, shifts=[0.0, -1.0, 5e4])).all()


def test_a_tail_sum_from_y_at_most_zero_takes_every_n():
    # y was never checked: NaN ended in a ValueError, inf in an OverflowError,
    # and 1e12 would run a Python loop of about 5e11 steps
    for y in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError) as err:
            coprime_tail_sum(CHI4, y, 2.0)
        assert not isinstance(err.value, RangeError)
    # sum of 1/n^2 over odd n
    assert coprime_tail_sum(CHI4, 0, 2.0) == coprime_tail_sum(CHI4, -5.5, 2.0) == pytest.approx(math.pi**2 / 8)


@pytest.mark.parametrize("x", [math.nan, [math.nan, 0.5]], ids=["scalar", "array"])
def test_a_nan_x_is_a_domain_error(x):
    # searchsorted put NaN past every sample: F_T(NaN) read 1.0
    with pytest.raises(DomainError, match="x must not be NaN"):
        empirical_cdf([0.1, 0.5, 0.9], x)


# id: (the call with the count v, its least value, the (module, name) the
# sentinel replaces, or None when the call returns)
COUNTS = {
    "sample_g": (lambda v: sample_g(FAMILY, REGION, 10.0, v, seed=0), 1, (density, "uniform_samples")),
    "convergence_diagnostic": (lambda v: convergence_diagnostic(FAMILY, REGION, [10.0], v), 1, (density, "sample_g")),
    "carlson": (lambda v: carlson_mean_value(CHI4, 0.75, 20, T=10.0, n_samples=v), 2, (meanvalue, "uniform_samples")),
    "b2_N": (lambda v: b2_ladder(FAMILY, [10, v], 10.0, REGION), 1, (meanvalue, "uniform_samples")),
    "b2_n_samples": (lambda v: b2_ladder(FAMILY, [10], 10.0, REGION, n_samples=v), 2, (meanvalue, "uniform_samples")),
    "l_partial_sum": (lambda v: l_partial_sum(0.75, CHI4, v), 1, (lfunc, "_power_sum")),
    "find_tau_in_set": (lambda v: find_tau_in_set(_target(2), 100.0, max_results=v), 1, (diophantine, "_member_intervals")),
    "find_rational_relations": (
        lambda v: find_rational_relations([1.0, 2.0, 0.5], mode="float", coeff_cap=v), 1, (mpmath, "pslq")
    ),
    "KroneckerTarget": (lambda v: KroneckerTarget((1.0,), v, 0.25, 2), 1, None),
    "StripRegion_sigma": (lambda v: StripRegion(0.65, 0.75, -0.5, 0.5, grid_sigma=v), 1, None),
    "StripRegion_t": (lambda v: StripRegion(0.65, 0.75, -0.5, 0.5, grid_t=v), 1, None),
    "DirichletCharacter_modulus": (lambda v: DirichletCharacter(v, 0), 1, None),
    "DirichletCharacter_index": (lambda v: DirichletCharacter(4, v), 0, None),
    "enumerate_characters": (enumerate_characters, 1, None),
    "wilson_interval": (lambda v: wilson_interval(0, v), 1, None),
    "seed": (lambda v: sample_g(FAMILY, REGION, 10.0, 1, seed=v), 0, (density, "map_blocks")),
    "seed_convergence_diagnostic": (
        lambda v: convergence_diagnostic(FAMILY, REGION, [10.0], 4, seed=v), 0, (density, "sample_g")
    ),
    "threads": (lambda v: sample_g(FAMILY, REGION, 10.0, 1, seed=0, threads=v), 1, (density, "g_values")),
    "run_seed": (lambda v: cli.run("selfcheck", {}, v, "unused", 1), 0, (cli, "_write_artifacts")),
    "run_threads": (lambda v: cli.run("selfcheck", {}, 0, "unused", v), 1, (cli, "_write_artifacts")),
}


@pytest.mark.parametrize("case", COUNTS)
@pytest.mark.parametrize("kind", [int, np.int64, float])
def test_a_whole_count_from_its_least_value_is_accepted(case, kind, monkeypatch):
    call, least, sentinel = COUNTS[case]
    if sentinel is None:
        call(kind(least))
    else:
        monkeypatch.setattr(*sentinel, _accept)
        with pytest.raises(Accepted):
            call(kind(least))


@pytest.mark.parametrize("case", COUNTS)
@pytest.mark.parametrize("bad", [2.5, math.nan, math.inf, True, "3", "least - 1"])
def test_any_other_count_is_a_domain_error(case, bad, monkeypatch):
    # these used to end in a raw TypeError (10.5, NaN), a silently wrong value
    # (True as 1, a NaN grid as one midpoint, the label "4:1.5"), or a late
    # failure (max_results=nan sweeping to the end, threads=0 running serially)
    call, least, sentinel = COUNTS[case]
    if sentinel is not None:
        monkeypatch.setattr(*sentinel, _accept)
    with pytest.raises(DomainError) as err:
        call(least - 1 if bad == "least - 1" else bad)
    assert not isinstance(err.value, RangeError)


def test_a_count_is_stored_as_the_int_read():
    assert DirichletCharacter(4.0, np.int64(1)).label == "4:1"
    assert [chi.label for chi in enumerate_characters(5.0)] == ["5:0", "5:1", "5:2", "5:3"]
    # a negative denominator cuts out the same set as its modulus
    assert KroneckerTarget((1.0,), -2.0, 0.25, 2).denominator == -2
    for bad in (-2.5, -math.inf):
        with pytest.raises(DomainError):
            KroneckerTarget((1.0,), bad, 0.25, 2)
    region = StripRegion(0.65, 0.75, -0.5, 0.5, grid_sigma=np.int64(2), grid_t=3.0)
    assert type(region.grid_sigma) is type(region.grid_t) is int


@pytest.mark.parametrize("call", [
    lambda n: sample_g(FAMILY, REGION, 10.0, n, seed=0),
    lambda n: convergence_diagnostic(FAMILY, REGION, [10.0], n),
    lambda n: carlson_mean_value(CHI4, 0.75, 20, T=10.0, n_samples=n),
    lambda n: b2_ladder(FAMILY, [10], 10.0, REGION, n_samples=n),
], ids=["sample_g", "convergence_diagnostic", "carlson_mean_value", "b2_ladder"])
@pytest.mark.parametrize("n", [2**60, 2**63, 1e19], ids=["2^60", "2^63", "1e19"])
def test_sample_counts_whose_draw_exceeds_2_63_bytes_are_refused(call, n):
    # each ended in numpy's ValueError, "array is too big" or "Maximum allowed
    # dimension exceeded"; the largest usable count named fails in np.empty
    # with MemoryError, as every count too large for memory does
    with pytest.raises(RangeError, match="^n_samples = .* largest usable n_samples at this cap is 1.15292e[+]18$"):
        call(n)
