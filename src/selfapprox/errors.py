"""Exception types shared across the package, the one guard of its
operating limits and the one reader of its counts."""

import math
import numbers
from decimal import ROUND_FLOOR, Context, Decimal


class DomainError(ValueError):
    """An argument is outside the mathematically supported domain."""


class PoleError(DomainError):
    """Evaluation was requested exactly at a pole."""


class RangeError(DomainError):
    """A parameter exceeds the configured numerical operating range.

    Raised instead of silently degrading accuracy (e.g. imaginary parts
    beyond the Euler-Maclaurin cap).
    """


def _check_limit(name, value, cap, what=None, rate=1.0, base=0.0, base_name=None):
    """The guard of every operating limit.  DomainError if the horizon, bound
    or length `value` is NaN, infinite or not positive; RangeError if its need
    value * rate + base, the `what` it reaches (the value itself if None),
    exceeds cap.  The RangeError names the largest usable value, rounded down
    to 6 significant digits, so that this guard accepts it as printed; where
    base alone reaches the cap, no value > 0 works, and the message says so
    and names 0."""
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} = {value} must be positive and finite")
    need = value * rate + base
    if need > cap:
        usable = (cap - base) / rate if base < cap else 0.0
        while usable > 0.0 and usable * rate + base > cap:  # the quotient may round up
            usable = math.nextafter(usable, 0.0)
        usable = float(Context(prec=6, rounding=ROUND_FLOOR).plus(Decimal(usable)))
        raise RangeError(
            f"{name} = {value:.6g} " + (f"needs {what} = {need:.6g} " if what else "") + f"> cap {cap:.6g}; "
            + (f"{base_name} = {base:.6g} alone reaches the cap, so no {name} > 0 works; " if base >= cap else "")
            + f"largest usable {name} at this cap is {usable:.15g}"
        )


def _check_count(name, value, least=1) -> int:
    """The reader of every count: an int, a numpy integer or a whole float, at least
    `least`, as an int.  Anything else (a bool, 2.5, NaN, inf, "3", None) gets DomainError."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole or value < least:
        raise DomainError(f"{name} = {value!r} must be a whole number >= {least}")
    return int(value)
