"""Every operating limit is refused by one guard, errors._check_limit.

For each guarded entry point, a value past the limit gets RangeError in one
message form that ends in the largest usable value; that value, read back as
printed, is accepted by the same check, and a value 10^-4 above it is not.
Horizons, bounds and lengths that are NaN, infinite, zero or negative get
DomainError instead.  The work behind each guard is replaced by a sentinel,
so a value is accepted when the call reaches the sentinel; the sieve, at most
0.1 s, runs as it is.
"""

import math

import numpy as np
import pytest

from selfapprox import density, diophantine, lfunc, meanvalue
from selfapprox.characters import character_from_id
from selfapprox.density import ShiftFamily, convergence_diagnostic, sample_g
from selfapprox.diophantine import KroneckerTarget, find_tau_in_set, measure_kronecker_density
from selfapprox.errors import DomainError, RangeError
from selfapprox.lfunc import StripRegion, l_partial_sum, l_value
from selfapprox.meanvalue import b2_ladder, carlson_mean_value
from selfapprox.primes import primes_upto

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


@pytest.mark.parametrize("case", [case for case in LIMITS if case != "l_value"])
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
