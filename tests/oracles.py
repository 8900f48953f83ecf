"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the package's Euler-Maclaurin and
interval-sweep code paths: plain truncated series with explicit tail
corrections or bounds, the Euler-Maclaurin tail term by term in mpmath,
Monte Carlo membership counts, and exact rational interval arithmetic.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

from selfapprox.characters import char_value
from selfapprox.diophantine import KroneckerTarget, kronecker_membership
from selfapprox.errors import DomainError
from selfapprox.sampling import BLOCK_SIZE, block_rng, wilson_interval


def zeta_series(s, terms=10**5):
    """zeta(s) by direct summation with a three-term integral tail correction.

    Valid for Re s > 1; correction error is O(|s|^3 X^{-Re s - 3}).
    """
    s = complex(s)
    n = np.arange(1, terms + 1, dtype=float)
    head = complex(np.sum(np.exp(-s * np.log(n))))
    x = float(terms)
    tail = x ** (1 - s) / (s - 1) - 0.5 * x ** (-s) + s * x ** (-s - 1) / 12.0
    return head + tail


def dirichlet_series(s, chi, terms):
    """Plain truncated Dirichlet series sum_{n<=terms} chi(n) n^{-s}."""
    s = complex(s)
    total = 0j
    chunk = 10**6
    pattern = np.array([char_value(chi, n) for n in range(1, chi.modulus + 1)])
    for start in range(1, terms + 1, chunk):
        stop = min(start + chunk - 1, terms)
        n = np.arange(start, stop + 1)
        coeff = pattern[(n - 1) % chi.modulus]
        total += complex(np.sum(coeff * np.exp(-s * np.log(n.astype(float)))))
    return total


def abel_tail_bound(s, chi, terms):
    """Bound on |sum_{n>terms} chi(n) n^{-s}| for nonprincipal chi.

    Partial sums of a nonprincipal character are bounded by q; summation by
    parts then bounds the tail by q * (|s|/sigma + 1) * terms^{-sigma}.
    """
    s = complex(s)
    q = chi.modulus
    return q * (abs(s) / s.real + 1.0) * terms ** (-s.real)


def abel_terms_needed(s, chi, tol):
    """Series length making abel_tail_bound fall below tol."""
    s = complex(s)
    q = chi.modulus
    return int(math.ceil((q * (abs(s) / s.real + 1.0) / tol) ** (1.0 / s.real)))


def l_oracle(s, chi, tol=5e-9):
    """Direct-series oracle for L(s, chi), sigma > 1 only.

    Nonprincipal characters: truncated series with the Abel tail bound below
    tol.  Principal characters (no cancellation in the tail): zeta by
    corrected direct summation times the local Euler factors.
    """
    s = complex(s)
    if s.real <= 1.0:
        raise ValueError("oracle valid only for sigma > 1")
    if chi.principal:
        val = zeta_series(s)
        for p in range(2, chi.modulus + 1):
            if chi.modulus % p == 0 and all(p % r for r in range(2, p)):
                val *= 1.0 - p ** (-s)
        return val
    terms = min(abel_terms_needed(s, chi, tol), 2 * 10**7)
    return dirichlet_series(s, chi, terms)


def johansson_terms(t, cfg):
    """N per residue class at |Im s| = t, one point in plain math.log: the
    smallest N >= cfg.shift_count with Johansson's bound (arXiv:1309.2877,
    Thm. 1) on the Euler-Maclaurin remainder after N terms and em_order
    Bernoulli terms at most cfg.target_abs_error / 100, taken at sigma = 1/2
    and a = 0, as lfunc._n_terms states it."""
    e = cfg.em_order - 0.5
    log_poch = 0.5 * sum(math.log((k + 0.5) ** 2 + t * t) for k in range(cfg.em_order))
    log_r = math.log(4.0) + log_poch - cfg.em_order * math.log(2.0 * math.pi) - math.log(e)
    log_n = (log_r - math.log(cfg.target_abs_error / 100.0)) / e
    return max(cfg.shift_count, math.ceil(math.exp(log_n)))


def em_tail_oracle(s, count, step, offsets, weights, em_order, dps=40):
    """sum_j weights[j] x_j^{-s} E(s, b_j) in mpmath at dps digits, with the
    Euler-Maclaurin tail after M = em_order/2 Bernoulli terms

        E(s, b) = b / (s - 1) + 1/2 + sum_{k=1}^{M} B_2k/(2k)! (s)_{2k-1} b^{1-2k},

    each B_2k/(2k)! and rising factorial (s)_{2k-1} formed on its own, and
    b_j = ceil((count - j) / J) + offsets[j] / step the index of the first
    node x_j = step b_j that a head of `count` terms leaves out of residue
    class j (J = len(offsets)), as lfunc._em_tail states it.  At s = 1 each
    class's pole 1 / (step (s - 1)) is taken out, which changes nothing when
    the weights add up to 0, and the sum is the limit s -> 1, taken at
    s = 1 + 10^-dps with 3 dps digits.
    """
    classes = len(offsets)
    with mpmath.workdps(3 * dps if s == 1 else dps):
        z = mpmath.mpf(1) + mpmath.mpf(10) ** -dps if s == 1 else mpmath.mpc(s)
        pole = 1 / (step * (z - 1)) if s == 1 else 0
        total = mpmath.mpc(0)
        for j, (a, w) in enumerate(zip(offsets, weights)):
            b = -(-(int(count) - j) // classes) + mpmath.mpf(int(a)) / step
            e = b / (z - 1) + mpmath.mpf(1) / 2
            for k in range(1, em_order // 2 + 1):
                e += mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.rf(z, 2 * k - 1) * b ** (1 - 2 * k)
            total += mpmath.mpc(complex(w)) * ((step * b) ** -z * e - pole)
        return complex(total)


def binomial_stderr(hits: int, n: int) -> float:
    """Standard error of a binomial proportion, floored at one hit in n."""
    p = hits / n
    return math.sqrt(max(p * (1 - p), 1.0 / n) / n)


def coprime_power_tail(chi, y, exponent, terms=10**6):
    """sum_{n>y} |chi(n)| n^{-exponent} by direct summation plus integral tail."""
    q = chi.modulus
    n = np.arange(int(y) + 1, terms + 1)
    mask = np.array([math.gcd(int(k), q) == 1 for k in n])
    head = float(np.sum(n[mask].astype(float) ** (-exponent)))
    density = np.count_nonzero([math.gcd(r, q) == 1 for r in range(1, q + 1)]) / q
    tail = density * terms ** (1 - exponent) / (exponent - 1)
    return head + tail


def coprime_head_every_n(chi, y, exponent):
    """sum_{n <= y, (n, q) = 1} n^-exponent, exactly rounded (math.fsum), testing every n <= y."""
    q = chi.modulus
    return math.fsum(n ** (-exponent) for n in range(1, int(math.floor(y)) + 1) if chi.numerators[n % q] >= 0)


def monte_carlo_kronecker_density(
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


def exact_kronecker_measure(target, T) -> Fraction:
    """meas{tau in [0, T]: ||tau * alpha|| < delta for every frequency} as a Fraction.

    Takes the float frequencies and delta at their exact binary values and
    intersects the periodic unions ((k - delta)/|alpha|, (k + delta)/|alpha|)
    one coordinate at a time, every endpoint an exact rational.  For small
    T * max|alpha| only: the lists hold every interval.
    """
    delta, T = Fraction(target.delta), Fraction(T)
    current = [(Fraction(0), T)]
    for alpha in np.abs(target.frequencies.ravel()):
        a = Fraction(float(alpha))
        nxt = []
        for lo, hi in current:
            for k in range(math.floor(lo * a - delta), math.ceil(hi * a + delta) + 1):
                left, right = max(lo, (k - delta) / a), min(hi, (k + delta) / a)
                if left < right:
                    nxt.append((left, right))
        current = nxt
    return sum((hi - lo for lo, hi in current), Fraction(0))
