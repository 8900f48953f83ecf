"""Rational relations among shifts, Kronecker sets, and constructive tau search.

Covers four jobs: discovering the decomposition a*d_k = sum_j a_{k,j} d_j over
a maximal Q-independent subset of the shifts, membership testing for the sets
of tau whose scaled coordinates tau*d_n*log(p)/(2*pi*a) all sit within delta of
integers, and one exact sweep over the maximal member intervals of those sets.
The sweep lists one member per interval (find_tau_in_set) and sums the
interval widths into the exact density of the set in [0, T]
(measure_kronecker_density), whose limit is the box volume (2*delta)^(l*M).
Its cost grows with T * max|alpha|, capped at SWEEP_CAP for both.

Float-mode relation detection is lattice based (PSLQ) and only ever claims a
relation "at the stated precision"; Q-linear independence is not decidable
from floating point data.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DomainError, _check_count, _check_limit
from .primes import primes_upto
from .sampling import block_slices, uniform_samples  # noqa: F401  (perfbench/spans.py wraps these names)

__all__ = [
    "SWEEP_CAP",
    "LinearRelation",
    "KroneckerTarget",
    "find_rational_relations",
    "in_kronecker_set",
    "kronecker_membership",
    "measure_kronecker_density",
    "find_tau_in_set",
    "check_log_prime_independence",
    "nearest_int_distance",
]


def nearest_int_distance(x):
    """||x||: distance to the nearest integer (round-half-to-even)."""
    x = np.asarray(x, dtype=float)
    return np.abs(x - np.round(x))


@dataclass(frozen=True)
class LinearRelation:
    """Decomposition a*d_k = sum_j a_{k,j} d_j of the dependent shifts.

    independent_indices select a maximal Q-linearly-independent subset (greedy
    by index, so index 0 stays independent).  coefficients has one integer row
    per dependent index, columns aligned with independent_indices.  bound_A is
    the maximal row sum of |a_{k,j}| (0 when nothing is dependent).
    """

    independent_indices: tuple
    dependent_indices: tuple
    denominator: int
    coefficients: tuple  # tuple of integer tuples
    bound_A: int
    mode: str = "exact"

    def verify(self, d: Sequence, tol: float = 0.0) -> bool:
        """Re-substitute each claimed relation into the shifts d, read by _read_shift as the
        finder read them (exactly in exact mode); a shift the reader refuses, a NaN say, fails."""
        try:
            d = [_read_shift(k, x, exact=self.mode == "exact") for k, x in enumerate(d)]
        except DomainError:
            return False
        return all(
            abs(self.denominator * d[k] - sum(c * d[j] for c, j in zip(row, self.independent_indices))) <= tol
            for k, row in zip(self.dependent_indices, self.coefficients)
        )


def _read_shift(k: int, x, exact: bool = False):
    """The one reader of a shift d_k: an int, a float (its exact binary value),
    a numpy integer or float, a Fraction, a Decimal or a decimal string such as
    "1/3".  Returns the exact Fraction, or else the float it rounds to; anything
    else, a NaN, an infinity, and a float beyond the float range get DomainError."""
    try:
        if isinstance(x, np.generic):
            x = x.item()  # np.float32 is no float to Fraction, and np.int64 would stay in it
        value = Fraction(x)
        return value if exact else x if isinstance(x, float) else float(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):  # 1j, NaN, inf or 10**400, "1/0"
        raise DomainError(f"shift d_{k} = {x!r}: shifts must be finite ints, floats, Fractions or decimal strings") from None


def find_rational_relations(
    d: Sequence,
    mode: str = "exact",
    tolerance: float = 1e-10,
    coeff_cap: int = 10**6,
) -> LinearRelation:
    """Maximal Q-independent subset of the shifts plus integer relations.

    Each shift is read by _read_shift, exactly in exact mode, where the
    relations are exact.  float mode: PSLQ at the given tolerance and
    coefficient cap; failing to find a relation leaves an index independent.
    A float-mode shift must have |d_k| >= tolerance: a smaller one passes the
    residual test as d_k = 0 times the others.
    """
    if len(d) < 1:
        raise DomainError("need at least one shift")
    if mode not in ("exact", "float"):
        raise DomainError(f"unknown mode {mode!r}")
    vals = [_read_shift(k, x, exact=mode == "exact") for k, x in enumerate(d)]
    if any(x == 0 for x in vals):
        raise DomainError("all shifts must be nonzero")
    indep = [0]
    dep = []  # (index, Fraction coefficients over the indep prefix at its time)
    if mode == "exact":
        # every rational is a multiple of d_0, so the independent set is {0}
        dep = [(k, [v / vals[0]]) for k, v in enumerate(vals[1:], 1)]
    else:
        if not 0.0 < tolerance < math.inf:
            raise DomainError("float mode needs a positive finite tolerance")
        coeff_cap = _check_count("coeff_cap", coeff_cap)
        for k, x in enumerate(vals):
            if abs(x) < tolerance:
                raise DomainError(f"shift d_{k} = {x!r} must have |d_{k}| >= tolerance {tolerance!r}")
        import mpmath  # only PSLQ needs it; importing it costs every command ~25 ms

        dps = max(15, int(-math.log10(tolerance)) + 5)
        for k in range(1, len(vals)):
            with mpmath.workdps(dps):
                rel = mpmath.pslq(
                    [mpmath.mpf(vals[j]) for j in [k, *indep]],
                    tol=mpmath.mpf(tolerance),
                    maxcoeff=coeff_cap,
                    maxsteps=10000,
                )
            if rel is not None and rel[0] != 0:
                c0, rest = rel[0], rel[1:]
                coeffs = [Fraction(-c, c0) for c in rest]
                resid = abs(c0 * vals[k] + sum(c * vals[j] for c, j in zip(rest, indep)))
                scale = max(abs(c) for c in rel)
                if resid < tolerance * max(1.0, scale) and all(
                    abs(c.numerator) <= coeff_cap and c.denominator <= coeff_cap for c in coeffs
                ):
                    dep.append((k, coeffs))
                    continue
            indep.append(k)
    a = math.lcm(*(c.denominator for _, coeffs in dep for c in coeffs))
    rows = tuple(
        tuple(int(c * a) for c in coeffs) + (0,) * (len(indep) - len(coeffs)) for _, coeffs in dep
    )
    return LinearRelation(
        independent_indices=tuple(indep),
        dependent_indices=tuple(k for k, _ in dep),
        denominator=a,
        coefficients=rows,
        bound_A=max((sum(abs(c) for c in row) for row in rows), default=0),
        mode=mode,
    )


@dataclass(frozen=True)
class KroneckerTarget:
    """The data cutting out the simultaneous-approximation set.

    Membership of tau requires ||tau * d_n * log(p) / (2 pi a)|| < delta for
    every independent shift d_n and every prime p <= prime_bound.  The limit
    density of the set in [0, T] is the box volume (2*delta)^(l*M).  The
    shifts are kept as the floats _read_shift reads.
    """

    shifts: tuple
    denominator: int
    delta: float
    prime_bound: float
    primes: tuple = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise DomainError("delta must lie in (0, 1/2)")
        a = self.denominator  # a negative a cuts out the same set as |a|
        negative = isinstance(a, (int, float, np.integer)) and a < 0
        object.__setattr__(self, "denominator", -_check_count("|a|", -a) if negative else _check_count("|a|", a))
        object.__setattr__(self, "shifts", tuple(_read_shift(k, x) for k, x in enumerate(self.shifts)))
        if not self.shifts or 0 in self.shifts:
            raise DomainError("independent shifts must be nonzero")
        object.__setattr__(self, "primes", tuple(primes_upto(self.prime_bound).tolist()))
        if not self.primes:
            raise DomainError("prime_bound admits no primes")

    @property
    def n_primes(self) -> int:
        return len(self.primes)

    @property
    def expected_density(self) -> float:
        return (2.0 * self.delta) ** (len(self.shifts) * self.n_primes)

    @property
    def frequencies(self) -> np.ndarray:
        """Matrix alpha[n, i] = d_n * log(p_i) / (2 pi a)."""
        logs = np.log(np.asarray(self.primes, dtype=float))
        d = np.asarray(self.shifts, dtype=float)
        return np.outer(d, logs) / (2.0 * math.pi * self.denominator)


def kronecker_membership(taus, target: KroneckerTarget) -> np.ndarray:
    """Vectorized membership test; returns a boolean array over tau samples."""
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    alpha = target.frequencies.ravel()
    return np.all(nearest_int_distance(taus[:, None] * alpha) < target.delta, axis=1)


def in_kronecker_set(tau: float, target: KroneckerTarget) -> bool:
    return bool(kronecker_membership([tau], target)[0])


# Periods of the fastest coordinate per sweep window.  Window edges sit where
# that coordinate is a half-integer, so no member interval crosses one.  A
# window meets at most about _SWEEP_WINDOW intervals of each coordinate, so the
# sweep's memory is set by this constant and the number of coordinates, not
# by the search bound or by how far apart the frequencies are.
_SWEEP_WINDOW = 1 << 14

# Most periods of the fastest coordinate, T * max|alpha|, that one density
# measurement or find_tau_in_set search sweeps: 2**10 windows.  A window costs
# about 1 ms at one coordinate and up to about 10 ms at a dozen, so the cap
# keeps a call to seconds; it also keeps every k of the sweep far below 2**53.
SWEEP_CAP = float(_SWEEP_WINDOW << 10)


def _member_intervals(target: KroneckerTarget, search_bound: float):
    """Maximal open intervals (lo, hi) of the Kronecker set that meet [0, search_bound].

    Each condition ||alpha_i tau|| < delta is the periodic union of the open
    intervals ((k - delta)/|alpha_i|, (k + delta)/|alpha_i|).  Per window,
    starting from the whole window, the current intervals are intersected
    with each coordinate's union in turn, slowest |alpha| first, by repeating
    every interval once per integer k whose interval meets it.  Yields one
    (lo, hi) pair of sorted arrays per window, windows in increasing tau; the
    interval around 0 comes first and reaches below 0.
    """
    alpha = np.sort(np.abs(target.frequencies.ravel()))
    delta = target.delta
    period = 1.0 / alpha[-1]
    w = 0
    while (w * _SWEEP_WINDOW - 0.5) * period < search_bound:
        lo = np.array([(w * _SWEEP_WINDOW - 0.5) * period])
        w += 1
        hi = np.array([(w * _SWEEP_WINDOW - 0.5) * period])
        for a in alpha:
            k0 = np.floor(lo * a - delta) + 1.0  # first k whose interval ends above lo
            n = np.maximum(np.ceil(hi * a + delta) - k0, 0.0).astype(np.intp)
            ends = np.cumsum(n)
            k = np.repeat(k0 - (ends - n), n) + np.arange(n.sum())
            lo = np.maximum(np.repeat(lo, n), (k - delta) / a)
            hi = np.minimum(np.repeat(hi, n), (k + delta) / a)
            keep = lo < hi
            lo, hi = lo[keep], hi[keep]
        keep = (hi > 0.0) & (lo < search_bound)
        yield lo[keep], hi[keep]


def measure_kronecker_density(target: KroneckerTarget, T):
    """Exact density (1/T) meas{tau in [0, T] in the Kronecker set}.

    T is one horizon or an increasing 1-D array of them; every horizon is
    measured by one sweep of _member_intervals up to the largest.  The
    member intervals are clipped to [0, T] and their widths added: at the
    largest horizon by math.fsum per window and across windows, at a smaller
    horizon h by the cumulative sum of its own window up to h on top of the
    windows before it.  Returns (density, (lo, hi)) with the shape of T.

    (lo, hi) bounds the rounding a priori: each endpoint (k +- delta)/|alpha|
    is off by at most 2 ulp(h), and each width and partial sum by ulp(h) more,
    so density(h) is within (8 n + 4) ulp(h) / h of the exact measure of the
    set that the float frequencies cut out, n the number of member intervals
    meeting [0, h].  The cost grows with T * max|alpha|, the number of
    periods of the fastest coordinate; past SWEEP_CAP periods it raises
    RangeError, naming the largest usable T.
    """
    horizons = np.atleast_1d(np.asarray(T, dtype=float))
    if horizons.ndim != 1 or not horizons.size or not np.all(np.diff(horizons, prepend=0.0) > 0):
        raise DomainError("T must be positive, or an increasing array of positive horizons")
    bound = float(horizons[-1])
    _check_limit("T", bound, SWEEP_CAP, "periods of the fastest coordinate", np.abs(target.frequencies).max())
    last = horizons.size - 1  # the horizon that math.fsum measures
    measure, count = np.empty(horizons.size), np.empty(horizons.size)
    sums, n, j = [], 0, 0  # each window's fsum, intervals so far, next horizon
    for lo, hi in _member_intervals(target, bound):
        lo, hi = np.maximum(lo, 0.0), np.minimum(hi, bound)
        width = hi - lo
        # horizons up to this window's last interval end take every interval
        # starting below them from this window and the ones before
        stop = j + int(np.searchsorted(horizons[j:last], hi[-1], side="right")) if hi.size else j
        if stop > j:
            h = horizons[j:stop]
            k = np.searchsorted(lo, h)
            prev = np.maximum(k - 1, 0)
            inside = np.cumsum(width)[prev] - np.maximum(hi[prev] - h, 0.0)
            measure[j:stop] = math.fsum(sums) + np.where(k > 0, inside, 0.0)
            count[j:stop] = n + k
            j = stop
        sums.append(math.fsum(width))
        n += width.size
    measure[j:] = math.fsum(sums)
    count[j:] = n
    density = measure / horizons
    half = (8.0 * count + 4.0) * np.spacing(horizons) / horizons
    lo, hi = np.maximum(density - half, 0.0), np.minimum(density + half, 1.0)
    if np.ndim(T) == 0:
        return float(density[0]), (float(lo[0]), float(hi[0]))
    return density, (lo, hi)


def find_tau_in_set(
    target: KroneckerTarget,
    search_bound: float,
    max_results: int = 10000,
) -> list:
    """Members of the Kronecker set in [0, search_bound], one per member interval.

    Sweeps the maximal member intervals in increasing tau (see
    _member_intervals) and returns each one's midpoint, clipped into
    [0, search_bound], so the interval around 0 gives exactly 0.0.  A
    midpoint is kept only if kronecker_membership, the strict float
    predicate, accepts it: an interval narrower than the rounding of its
    endpoints may be dropped, never a point outside the set returned.  The
    sweep stops at the window where max_results is reached; a search_bound
    past SWEEP_CAP periods of the fastest coordinate raises RangeError up
    front, naming the largest usable bound.
    """
    _check_limit("bound", search_bound, SWEEP_CAP, "periods of the fastest coordinate", np.abs(target.frequencies).max())
    max_results = _check_count("max_results", max_results)
    hits = []
    for lo, hi in _member_intervals(target, search_bound):
        taus = np.clip(0.5 * (lo + hi), 0.0, search_bound)
        hits.extend(taus[kronecker_membership(taus, target)].tolist())
        if len(hits) >= max_results:
            break
    return hits[:max_results]


_PSLQ_DIGITS = 30
_PSLQ_COEFF_CAP = 1000


def check_log_prime_independence(d: Sequence[float], primes: Sequence[int]) -> dict:
    """Integer-relation scan over the vector {d_k * log p_n}.

    PSLQ at _PSLQ_DIGITS = 30 digits either reports that no relation with
    coefficients <= _PSLQ_COEFF_CAP = 1000 exists at that precision, or
    exhibits a candidate relation and its residual; the report records both
    settings.  Each shift is read exactly by _read_shift, then rounded once
    to the working precision.  Every p_n must be an integer prime, and the
    vector needs at least two entries, each with |d_k log p_n| >= 10^-30.
    """
    if len(d) < 1:
        raise DomainError("need at least one shift")
    primes = list(primes)
    for p in primes:
        if not isinstance(p, (int, np.integer)):
            raise DomainError(f"primes must be integer primes, got {p!r}")
    if len(set(primes)) != len(primes):
        raise DomainError("primes must be distinct")
    if len(d) * len(primes) < 2:
        raise DomainError("PSLQ needs at least two values d_k * log p")
    exact = [_read_shift(k, x, exact=True) for k, x in enumerate(d)]
    import mpmath

    with mpmath.workdps(_PSLQ_DIGITS + 10):
        tol = mpmath.mpf(10) ** (-_PSLQ_DIGITS)
        # divided out here: mpmath.mpf refuses a Fraction, and mpmathify rounds it to a float
        vec = [mpmath.mpf(x.numerator) / x.denominator * mpmath.log(p) for x in exact for p in primes]
        if not all(tol <= abs(v) for v in vec):
            raise DomainError(f"every d_k * log p must have modulus >= 10^-{_PSLQ_DIGITS}")
        for p in primes:
            if not mpmath.libmp.isprime(int(p)):
                raise DomainError(f"primes must be integer primes, got {p!r}")
        rel = mpmath.pslq(vec, tol=tol, maxcoeff=_PSLQ_COEFF_CAP, maxsteps=20000)
        residual = None if rel is None else float(abs(mpmath.fsum(c * v for c, v in zip(rel, vec))))
    return {
        "relation_found": rel is not None,
        "coefficients": [] if rel is None else [int(c) for c in rel],
        "residual": residual,
        "precision_digits": _PSLQ_DIGITS,
        "coeff_cap": _PSLQ_COEFF_CAP,
    }
