"""Prime tables shared by the Euler-product and Diophantine machinery."""

from functools import lru_cache

import numpy as np

from .errors import RangeError

# The largest bound sieved: about a second and a 42 MB heap peak, both linear in the bound.
_SIEVE_CAP = 10**7


@lru_cache(maxsize=16)
def _sieve(bound: int) -> tuple:
    if bound < 2:
        return ()
    mask = np.ones(bound + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(bound**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return tuple(int(p) for p in np.flatnonzero(mask))


def primes_upto(bound) -> list:
    """All primes p <= bound, ascending; RangeError, before sieving, past _SIEVE_CAP."""
    bound = int(bound)
    if bound > _SIEVE_CAP:
        raise RangeError(f"prime bound {bound:.6g} exceeds the sieve cap; largest usable bound is {_SIEVE_CAP}")
    if bound < 2:
        return []
    table = _sieve(max(bound, 1000))
    out = []
    for p in table:
        if p > bound:
            break
        out.append(p)
    return out
