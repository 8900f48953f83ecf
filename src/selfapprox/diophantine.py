"""Rational relations among shifts, Kronecker sets, and constructive tau search.

Covers four jobs: discovering the decomposition a*d_k = sum_j a_{k,j} d_j over
a maximal Q-independent subset of the shifts, membership testing for the sets
of tau whose scaled coordinates tau*d_n*log(p)/(2*pi*a) all sit within delta of
integers, Monte Carlo measurement of the density of those sets (whose limit is
the box volume (2*delta)^(l*M)), and effective search for members.

Float-mode relation detection is lattice based (PSLQ) and only ever claims a
relation "at the stated precision"; Q-linear independence is not decidable
from floating point data.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError
from .primes import primes_upto
from .sampling import BLOCK_SIZE, block_rng, wilson_interval
from .sampling import block_slices, uniform_samples  # noqa: F401  (perfbench/spans.py wraps these names)

__all__ = [
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
    tolerance: Optional[float] = None

    def verify(self, d: Sequence, tol: float = 0.0) -> bool:
        """Re-substitute each claimed relation into the shift values."""
        for k, row in zip(self.dependent_indices, self.coefficients):
            lhs = self.denominator * d[k]
            rhs = sum(c * d[j] for c, j in zip(row, self.independent_indices))
            if tol == 0.0:
                if lhs != rhs:
                    return False
            elif abs(lhs - rhs) > tol:
                return False
        return True


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction) or isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value; callers wanting decimals pass strings
    raise DomainError(f"cannot interpret {x!r} as an exact rational")


def _pslq_relation(values, tolerance: float, coeff_cap: int, dps: int):
    """Integer relation for `values` via PSLQ, or None."""
    import mpmath  # only PSLQ needs it; importing it costs every command ~25 ms

    with mpmath.workdps(dps):
        rel = mpmath.pslq(
            [mpmath.mpf(v) for v in values],
            tol=mpmath.mpf(tolerance),
            maxcoeff=coeff_cap,
            maxsteps=10000,
        )
    return rel


def find_rational_relations(
    d: Sequence,
    mode: str = "exact",
    tolerance: float = 1e-10,
    coeff_cap: int = 10**6,
) -> LinearRelation:
    """Maximal Q-independent subset of the shifts plus integer relations.

    exact mode: inputs must be rationals (int, Fraction, or strings like
    "1/3"); relations are exact.  float mode: PSLQ at the given tolerance and
    coefficient cap; failing to find a relation leaves an index independent.
    """
    if len(d) < 1:
        raise DomainError("need at least one shift")
    if any(x == 0 for x in d):
        raise DomainError("all shifts must be nonzero")
    if mode == "exact":
        vals = [_as_fraction(x) for x in d]
        # every rational is a multiple of d_0, so the independent set is {0}
        ratios = [v / vals[0] for v in vals[1:]]
        a = math.lcm(*[r.denominator for r in ratios]) if ratios else 1
        rows = tuple((int(r * a),) for r in ratios)
        bound = max((abs(row[0]) for row in rows), default=0)
        return LinearRelation(
            independent_indices=(0,),
            dependent_indices=tuple(range(1, len(d))),
            denominator=a,
            coefficients=rows,
            bound_A=bound,
            mode="exact",
        )
    if mode != "float":
        raise DomainError(f"unknown mode {mode!r}")
    if not 0.0 < tolerance < math.inf:
        raise DomainError("float mode needs a positive finite tolerance")

    vals = [float(x) for x in d]
    dps = max(15, int(-math.log10(tolerance)) + 5)
    indep = [0]
    dep = []  # (index, Fraction coefficients over current indep prefix)
    for k in range(1, len(vals)):
        rel = _pslq_relation([vals[k]] + [vals[j] for j in indep], tolerance, coeff_cap, dps)
        ok = False
        if rel is not None and rel[0] != 0:
            c0, rest = rel[0], rel[1:]
            coeffs = [Fraction(-c, c0) for c in rest]
            resid = abs(c0 * vals[k] + sum(c * vals[j] for c, j in zip(rest, indep)))
            scale = max(abs(c0), *(abs(c) for c in rest)) if rest else abs(c0)
            if resid < tolerance * max(1.0, scale) and all(
                abs(c.numerator) <= coeff_cap and c.denominator <= coeff_cap for c in coeffs
            ):
                dep.append((k, coeffs))
                ok = True
        if not ok:
            indep.append(k)
    if not dep:
        return LinearRelation(
            independent_indices=tuple(indep),
            dependent_indices=(),
            denominator=1,
            coefficients=(),
            bound_A=0,
            mode="float",
            tolerance=tolerance,
        )
    a = math.lcm(*[math.lcm(*[c.denominator for c in coeffs] or [1]) for _, coeffs in dep])
    rows = []
    for k, coeffs in dep:
        row = [0] * len(indep)
        for j, c in zip(range(len(coeffs)), coeffs):
            row[j] = int(c * a)
        rows.append(tuple(row))
    bound = max(sum(abs(c) for c in row) for row in rows)
    return LinearRelation(
        independent_indices=tuple(indep),
        dependent_indices=tuple(k for k, _ in dep),
        denominator=a,
        coefficients=tuple(rows),
        bound_A=bound,
        mode="float",
        tolerance=tolerance,
    )


@dataclass(frozen=True)
class KroneckerTarget:
    """The data cutting out the simultaneous-approximation set.

    Membership of tau requires ||tau * d_n * log(p) / (2 pi a)|| < delta for
    every independent shift d_n and every prime p <= prime_bound.  The limit
    density of the set in [0, T] is the box volume (2*delta)^(l*M).
    """

    shifts: tuple
    denominator: int
    delta: float
    prime_bound: float
    primes: tuple = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.delta < 0.5:
            raise DomainError("delta must lie in (0, 1/2)")
        if self.denominator == 0:
            raise DomainError("denominator must be nonzero")
        if len(self.shifts) < 1 or any(x == 0 for x in self.shifts):
            raise DomainError("independent shifts must be nonzero")
        if not all(math.isfinite(x) for x in self.shifts):
            raise DomainError("independent shifts must be finite")
        object.__setattr__(self, "primes", tuple(primes_upto(self.prime_bound)))
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
    """Vectorized membership test; returns a boolean array over tau samples.

    Tests one frequency at a time and carries only the surviving indices to
    the next, so a tau stops costing work at its first failed coordinate; each
    survivor gets the same float operations as the full tau x frequency test.
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    alpha = target.frequencies.ravel()
    alive = np.flatnonzero(nearest_int_distance(taus * alpha[0]) < target.delta)
    for a in alpha[1:]:
        alive = alive[nearest_int_distance(taus[alive] * a) < target.delta]
    mask = np.zeros(taus.shape, dtype=bool)
    mask[alive] = True
    return mask


def in_kronecker_set(tau: float, target: KroneckerTarget) -> bool:
    return bool(kronecker_membership([tau], target)[0])


def measure_kronecker_density(
    target: KroneckerTarget,
    T: float,
    n_samples: int,
    seed: int,
    stratified: bool = False,
):
    """Monte Carlo estimate of (1/T) meas{tau in [0,T] in the set}.

    Returns (density, (wilson_lo, wilson_hi)); reproducible per seed.  Each
    block's tau values are drawn inside the loop, block b from block_rng(seed,
    b) as in sampling.uniform_samples, so memory stays at one block however
    large n_samples is.  stratified=True takes equally spaced points with one
    common random offset, drawn from block 0's stream.
    """
    if T <= 0 or n_samples < 1:
        raise DomainError("T must be positive and n_samples >= 1")
    offset = block_rng(seed, 0).uniform(0.0, 1.0) if stratified else None
    hits = 0
    for b, i0 in enumerate(range(0, n_samples, BLOCK_SIZE)):
        i1 = min(i0 + BLOCK_SIZE, n_samples)
        if stratified:
            taus = T * (np.arange(i0, i1) + offset) / n_samples
        else:
            taus = block_rng(seed, b).uniform(0.0, T, i1 - i0)
        hits += int(np.count_nonzero(kronecker_membership(taus, target)))
    return hits / n_samples, wilson_interval(hits, n_samples)


def _lll_reduce(basis, delta=0.75):
    """Integer LLL on a list of integer row vectors (small dimensions)."""
    b = [list(map(int, row)) for row in basis]
    n = len(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    def gso():
        star = [[float(x) for x in b[0]]]
        mu = [[0.0] * n for _ in range(n)]
        for i in range(1, n):
            v = [float(x) for x in b[i]]
            for j in range(i):
                denom = dot(star[j], star[j])
                mu[i][j] = dot([float(x) for x in b[i]], star[j]) / denom if denom else 0.0
                v = [x - mu[i][j] * y for x, y in zip(v, star[j])]
            star.append(v)
        return star, mu

    star, mu = gso()
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                star, mu = gso()
        lhs = dot(star[k], star[k])
        rhs = (delta - mu[k][k - 1] ** 2) * dot(star[k - 1], star[k - 1])
        if lhs >= rhs:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            star, mu = gso()
            k = max(k - 1, 1)
    return b


def _lattice_candidates(gammas, delta, k_max):
    """Integers k with ||k * gamma_i|| plausibly < delta, via LLL short vectors."""
    r = len(gammas)
    if r == 0:
        return list(range(1, min(k_max, 1000) + 1))
    scale = int(round((2.0 / delta) ** (1 + 1.0 / max(r, 1))))
    dim = r + 1
    basis = [[1] + [int(round(scale * g)) for g in gammas]]
    for i in range(r):
        row = [0] * dim
        row[i + 1] = scale
        basis.append(row)
    reduced = _lll_reduce(basis)
    ks = set()
    for combo in itertools.product([-2, -1, 0, 1, 2], repeat=min(len(reduced), 3)):
        vec = [0] * dim
        for c, row in zip(combo, reduced):
            vec = [x + c * y for x, y in zip(vec, row)]
        k = abs(vec[0])
        if 0 < k <= k_max:
            ks.add(k)
    out = set()
    for k in ks:  # multiples of good k are often good too
        j = 1
        while j * k <= k_max and j <= 64:
            out.add(j * k)
            j += 1
    return sorted(out)


def find_tau_in_set(
    target: KroneckerTarget,
    search_bound: float,
    strategy: str = "grid",
    max_results: int = 10000,
) -> list:
    """Members of the Kronecker set in [0, search_bound]; every hit re-verifies.

    grid: scan with step delta*2*pi*a/max(|d_n| log p), small enough that no
    coordinate can cross a half-integer between consecutive points.
    lattice: pin the fastest coordinate to exact integers and LLL-reduce the
    remaining simultaneous approximation problem; candidates are still checked
    through the membership test, so soundness never depends on the reduction.
    """
    if search_bound <= 0:
        raise DomainError("search_bound must be positive")
    if max_results < 1:
        raise DomainError("max_results must be >= 1")
    alpha = target.frequencies.ravel()
    if strategy == "grid":
        step = target.delta / np.max(np.abs(alpha))
        n_steps = int(math.floor(search_bound / step)) + 1
        hits = []
        chunk = 1 << 16
        for i0 in range(0, n_steps, chunk):
            taus = step * np.arange(i0, min(i0 + chunk, n_steps), dtype=float)
            mask = kronecker_membership(taus, target)
            hits.extend(taus[mask].tolist())
            if len(hits) >= max_results:
                break
        return hits[:max_results]
    if strategy == "lattice":
        pin = int(np.argmax(np.abs(alpha)))
        base = 1.0 / abs(alpha[pin])  # tau = k * base makes coordinate `pin` integral
        gammas = [a / abs(alpha[pin]) for i, a in enumerate(alpha) if i != pin]
        k_max = int(math.floor(search_bound / base))
        hits = [0.0] if in_kronecker_set(0.0, target) else []
        for k in _lattice_candidates(gammas, target.delta, k_max):
            tau = float(k * base)
            if tau <= search_bound and in_kronecker_set(tau, target):
                hits.append(tau)
                if len(hits) >= max_results:
                    break
        return sorted(hits)
    raise DomainError(f"unknown strategy {strategy!r}")


def check_log_prime_independence(
    d: Sequence[float],
    primes: Sequence[int],
    precision_digits: int = 30,
    coeff_cap: int = 1000,
) -> dict:
    """Integer-relation scan over the vector {d_k * log p_n}.

    Either reports that no relation with coefficients <= coeff_cap exists at
    the stated precision, or exhibits a candidate relation and its residual.
    Result keys match the documented JSON report schema.
    """
    if len(d) < 1:
        raise DomainError("need at least one shift")
    primes = list(primes)
    if len(set(primes)) != len(primes):
        raise DomainError("primes must be distinct")
    import mpmath

    dps = precision_digits + 10
    with mpmath.workdps(dps):
        vec = [mpmath.mpf(dk) * mpmath.log(p) for dk in d for p in primes]
        rel = mpmath.pslq(
            vec,
            tol=mpmath.mpf(10) ** (-precision_digits),
            maxcoeff=coeff_cap,
            maxsteps=20000,
        )
        if rel is None:
            return {
                "relation_found": False,
                "coefficients": [],
                "residual": None,
                "precision_digits": precision_digits,
                "coeff_cap": coeff_cap,
            }
        residual = float(abs(mpmath.fsum(c * v for c, v in zip(rel, vec))))
    return {
        "relation_found": True,
        "coefficients": [int(c) for c in rel],
        "residual": residual,
        "precision_digits": precision_digits,
        "coeff_cap": coeff_cap,
    }
