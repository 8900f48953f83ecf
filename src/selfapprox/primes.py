"""Prime tables shared by the Euler-product and Diophantine machinery."""

import numpy as np

from .errors import RangeError

# The largest bound sieved: about 0.1 s and a 15 MB heap peak (a 10 MB mask and
# the 5.3 MB int64 array of its 664 579 primes), both linear in the bound.
_SIEVE_CAP = 10**7


def primes_upto(bound) -> np.ndarray:
    """All primes p <= bound, ascending, as an int64 array; RangeError, before
    sieving, past _SIEVE_CAP.  Each call sieves its own bound and keeps no table."""
    bound = max(int(bound), 1)
    if bound > _SIEVE_CAP:
        raise RangeError(f"prime bound {bound:.6g} exceeds the sieve cap; largest usable bound is {_SIEVE_CAP}")
    mask = np.ones(bound + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(bound**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)
