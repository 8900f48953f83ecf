"""Numerical evaluation of L(s, chi) in sigma > 1/2 and of its truncations.

One evaluator, `l_value`, goes through the primitive character chi* mod the
conductor d of chi, which induces it, and its Hurwitz-zeta decomposition

    L(s, chi) = L(s, chi*) prod_{p | q, p not dividing d} (1 - chi*(p) p^{-s}),
    L(s, chi*) = d^{-s} sum_{a=1}^{d} chi*(a) zeta(s, a/d),

with each Hurwitz zeta summed by Euler-Maclaurin to N terms, so an
imprimitive chi sums phi(d) residue classes rather than phi(q) (4 rather
than 16 for a character mod 60 of conductor 5).  The heads merge into one
Dirichlet sum over the integers m <= dN prime to d, and each class keeps only
its Euler-Maclaurin tail, whose M Bernoulli terms `_em_tail` adds by Horner's
rule, in M elementwise passes over one value per (class, point).  One
function, `_n_terms`, holds the series-length rule: N per point from a
rigorous bound on the remainder (Johansson, arXiv:1309.2877) at that point's
own |Im s|, in closed form, so it grows linearly with that |Im s| alone; the
point's head is then the fewest whole chunks of terms that give every class
N.  Evaluation refuses (RangeError) beyond IM_CAP rather than silently
degrading.  The partial sums `l_partial_sum` are chi's own truncations, so
they stay on chi mod q.  Every Euler product, L's factors at the primes p | q
that do not divide d and the truncated product `l_truncated` over the primes
p <= v, is one ordered reduce per tile in one kernel, `_times_euler_factors`.

Almost all of the time goes into the direct power sums sum_n c_n x_n^{-s}, all
of them summed by one kernel, `_power_sum`, over rows of shifts times points
(one row without shifts), one chunk of _TERM_CHUNK = 256 terms at a time with
the chunk sums added in order, so no value depends on the other points or
shifts in its call.  Each phase Im(s) log x_n is reduced mod 2 pi in
double-double arithmetic (`_phase`), so the error is float64 rounding, not
the phase.  Callers that evaluate one base set of points moved up by many
vertical shifts (the grid on K at s + i d tau, one row per sampled tau) pass
`shifts`: x^{-(s + i h)} = x^{-s} x^{-i h}, so x_n^{-s} is built once and
each shift adds one phase row, N (P + S) phase factors rather than N P S
(N terms, P points, S shifts).  A chunk is reduced by one BLAS dot (zdotc)
per (shift, point) pair, too short for the BLAS to split across threads, or
without shifts by numpy's more accurate pairwise sum.

The evaluators accept numpy arrays of s values and broadcast; they are pure
functions of immutable inputs and safe to call from worker threads.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, _factorize
from .errors import DomainError, PoleError, RangeError
from .primes import primes_upto

__all__ = [
    "StripRegion",
    "DEFAULT_CONFIG",
    "IM_CAP",
    "l_value",
    "l_truncated",
    "l_partial_sum",
]

# largest supported |Im s|; beyond it evaluation raises RangeError
IM_CAP = 5e4
# elements per temporary array in the power sums and Euler-Maclaurin tails
_TILE = 1 << 15
# series terms per chunk of a power sum; a constant, so that the summation
# order, and with it every value, does not depend on the number of points or
# shifts in the call
_TERM_CHUNK = 256
# largest partial-sum length per residue class
_N_MAX = 10**7
# 2 pi = _C1 + _C2 to 7e-26, _C1 with 30 significant bits (Cody-Waite)
_C1, _C2 = 6.283185303211212, 3.968374318722162e-09
# log 2 = _LN2_A + _LN2_B to 4e-31, _LN2_A with 47 significant bits
_LN2_A, _LN2_B = 0.6931471805599401, 5.2412386838766985e-15


@dataclass(frozen=True)
class _Settings:
    """The evaluator's fixed settings, read by _n_terms and _em_tail.

    em_order: 2M, the index of the last Bernoulli number B_2M in the
        Euler-Maclaurin correction (even).
    shift_count: floor for N, the number of directly summed terms per
        residue class; above it N comes from the remainder bound (_n_terms).
    target_abs_error: requested absolute accuracy per residue class; N makes
        the Euler-Maclaurin remainder of each one at most 1/100 of it.
    """

    em_order: int = 60
    shift_count: int = 50
    target_abs_error: float = 1e-12


DEFAULT_CONFIG = _Settings()


@dataclass(frozen=True)
class StripRegion:
    """Compact rectangle K in 1/2 < sigma < 1 plus its enclosing rectangle U.

    U expands K by `margin` on every side and must itself stay inside the
    open strip; `margin` is then the distance from K to the boundary of U.
    grid_sigma x grid_t is the sampling resolution used for sup-over-K maxima.
    """

    sigma_lo: float
    sigma_hi: float
    t_lo: float
    t_hi: float
    margin: float = 0.02
    grid_sigma: int = 3
    grid_t: int = 3

    def __post_init__(self):
        if not (self.sigma_lo <= self.sigma_hi and self.t_lo <= self.t_hi):
            raise DomainError("region bounds out of order")
        if self.margin <= 0:
            raise DomainError("margin must be positive")
        if not (0.5 < self.sigma_lo - self.margin and self.sigma_hi + self.margin < 1.0):
            raise DomainError(
                "enclosing rectangle U must stay inside 1/2 < sigma < 1; "
                f"got K sigma-range [{self.sigma_lo}, {self.sigma_hi}] with margin {self.margin}"
            )
        if self.grid_sigma < 1 or self.grid_t < 1:
            raise DomainError("grid resolutions must be >= 1")

    @property
    def t_abs_max(self) -> float:
        return max(abs(self.t_lo), abs(self.t_hi))

    def _axis(self, lo, hi, n, refine):
        if lo == hi:
            return np.array([lo]), np.array([0])
        if refine:
            pts = np.linspace(lo, hi, 2 * n - 1) if n > 1 else np.linspace(lo, hi, 3)
            coarse = np.arange(0, len(pts), 2) if n > 1 else np.array([1])
        else:
            pts = np.linspace(lo, hi, n) if n > 1 else np.array([(lo + hi) / 2])
            coarse = np.arange(len(pts))
        return pts, coarse

    def grid_points(self, refine: bool = False):
        """Flattened complex sample grid on K.

        Returns (points, coarse_idx): `points` samples K at (possibly doubled)
        resolution; `coarse_idx` indexes the subset forming the base grid, so a
        single refined evaluation yields both the base and refined maxima.
        """
        sg, ci = self._axis(self.sigma_lo, self.sigma_hi, self.grid_sigma, refine)
        tg, cj = self._axis(self.t_lo, self.t_hi, self.grid_t, refine)
        pts = (sg[:, None] + 1j * tg[None, :]).ravel()
        coarse = (ci[:, None] * len(tg) + cj[None, :]).ravel()
        return pts, coarse


@lru_cache(maxsize=8)
def _bernoulli_over_fact(em_order: int):
    """B_{2k}/(2k)! for k = 1..em_order/2, correctly rounded, from the tangent
    numbers T_k: B_2k/(2k)! = (-1)^{k-1} T_k / ((2k-1)! 4^k (4^k - 1))."""
    m = em_order // 2
    t = [0, 1] + [0] * (m - 1)  # T_1..T_m in integers (Brent and Harvey, Algorithm 2)
    for k in range(2, m + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(
        (-1) ** (k - 1) * (t[k] / (math.factorial(2 * k - 1) * 4**k * (4**k - 1))) for k in range(1, m + 1)
    )


def _n_terms(t_abs) -> np.ndarray:
    """N per point, the terms per residue class: the smallest N >= shift_count
    with Johansson's bound (arXiv:1309.2877, Thm. 1) on the Euler-Maclaurin
    remainder of zeta(s, a) after N terms and M = em_order/2 Bernoulli terms,

        |R| <= 4 |(s)_{2M}| / (2 pi)^{2M} (N + a)^{-(sigma + 2M - 1)} / (sigma + 2M - 1),

    at most target_abs_error / 100 for |Im s| = t_abs (any shape), a = 0 and
    sigma = 1/2, the settings read from DEFAULT_CONFIG when called (N is
    about 13 800 at IM_CAP).  There log |(s)_{2M}| = sum_{k < 2M} g(k + 1/2)
    with g(x) = log(x^2 + t^2) / 2 increasing, so it is at most the integral
    of g over [1/2, 2M + 1/2], F(2M + 1/2) - F(1/2) with

        F(x) = (x log(x^2 + t^2) - 2x + 2t arctan2(x, t)) / 2,

    which N takes instead: at most one term more, and a tighter bound.  Each
    N depends on its own |Im s| alone.
    """
    em_order, target = DEFAULT_CONFIG.em_order, DEFAULT_CONFIG.target_abs_error
    t = np.asarray(t_abs, dtype=float)

    def f(x):
        return 0.5 * (x * np.log(x * x + t * t) - 2.0 * x + 2.0 * t * np.arctan2(x, t))

    e = em_order - 0.5
    log_r = math.log(4.0) + (f(em_order + 0.5) - f(0.5)) - em_order * math.log(2.0 * math.pi) - math.log(e)
    log_n = (log_r - math.log(target / 100.0)) / e
    return np.maximum(DEFAULT_CONFIG.shift_count, np.ceil(np.exp(log_n))).astype(np.int64)


def _split(x):
    """Dekker's split x = high + low, both halves with at most 26 significant bits."""
    c = x * 134217729.0  # 2^27 + 1
    high = c - (c - x)
    return high, x - high


def _log_parts(x: np.ndarray):
    """(hi, lo), float64 arrays with hi + lo = log x for positive float64 x,
    hi with 26 significant bits.  log x = e log 2 + log f with f = x 2^-e in
    [2^-1/2, 2^1/2]: f and e _LN2_A - hi are exact, and only log f < 0.35 is
    rounded, in long double, so hi + lo is within 2e-20 of log x with an
    80-bit long double, and within 1e-16 where long double is float64.
    """
    hi = _split(np.log(x))[0]
    e = np.rint(np.log2(x))
    lo = np.log(np.ldexp(x, -e.astype(int)), dtype=np.longdouble)
    lo += e * _LN2_A - hi
    return hi, lo.astype(np.float64) + e * _LN2_B


def _phase(x: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """x[:, None] (hi + lo) mod 2 pi in about [-pi, pi], for 1-d x and hi, lo
    of shape (n,) or (len(x), n): both halves of x multiply hi exactly
    and k _C1 is exact, so only the small rest rounds; the error is about
    1e-16 plus |x| times that of hi + lo.
    """
    xh, xl = _split(x[:, None])
    r = xh * hi
    k = np.rint(r * (0.5 / math.pi))
    r -= k * _C1
    k *= -_C2
    k += xl * hi
    k += x[:, None] * lo
    r += k
    return r


def _powers(s: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """x^{-s}, shape (len(s), n), for the nodes x with log x = hi + lo (shape
    (n,), or (len(s), n) for nodes per point): cos + i sin of the reduced
    phase (cheaper than a complex exp), times the modulus x^{-Re s} unless
    every Re s is 0 (phase rows)."""
    theta = _phase(-s.imag, hi, lo)
    z = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    if s.real.any():
        z *= np.exp(-s.real[:, None] * (hi + lo))
    return z


def _power_sum(s: np.ndarray, counts, step, offsets, weights, shifts=None) -> np.ndarray:
    """sum_{k < count} w_k x_k^{-s} over the 1-d points s, for the nodes
    x_k = step (k // J) + offsets[k % J] and weights w_k = weights[k % J]
    (J = len(offsets)), as (rows, points): one row per shift h of `shifts`
    (1-d, real), the sums at s + i h, or one row without shifts.

    `counts` holds one count per (row, point) (an int applies to all); every
    count is a multiple of _TERM_CHUNK unless they are all equal.  Points and
    rows are sorted by count, longest first.  Every call is summed one
    _TERM_CHUNK-term chunk at a time: the nodes (float64, exact for integers),
    their logs and x^{-s} for the leading points still summing, then one sum
    per pair whose count has not ended, added in order, so a value depends on
    its own point, shift and count alone.  Only the chunk sum differs.  With
    shifts, np.vecdot, one BLAS zdotc per (shift, point) pair, of x^{-s} and the
    phase row built at -h (vecdot conjugates its first argument): OpenBLAS
    splits a dot only far above _TERM_CHUNK terms, so values do not depend on
    the BLAS thread count.  Without, numpy's pairwise sum, kept as the more
    accurate: zdotc against a row of ones raises the benchmark's largest
    reference error from 9.2e-16 to 1.4e-15 (density) and 1.6e-15 (Carlson).
    """
    offsets = np.asarray(offsets, dtype=float)
    counts = np.broadcast_to(counts, (1 if shifts is None else len(shifts), len(s)))
    h = np.argsort(-counts.max(axis=1, initial=0), kind="stable")
    p = np.argsort(-counts.max(axis=0, initial=0), kind="stable")
    s, counts = s[p], counts[np.ix_(h, p)]
    ends, row_ends = counts.max(axis=0, initial=0), counts.max(axis=1, initial=0)
    acc = np.zeros(counts.shape, dtype=np.complex128)
    group = _TILE // _TERM_CHUNK
    for j in range(0, len(s), group):
        pts, out, end = s[j : j + group], acc[:, j : j + group], ends[j : j + group].tolist()
        live = len(pts)
        for i in range(0, end[0], _TERM_CHUNK):
            n, r = np.divmod(np.arange(i, min(i + _TERM_CHUNK, end[0])), len(offsets))
            hi, lo = _log_parts(offsets[r] + step * n)
            while end[live - 1] <= i:
                live -= 1
            base = _powers(pts[:live], hi, lo)
            base *= weights[r]
            rows = np.count_nonzero(row_ends > i)
            for h0 in range(0, rows, group):
                h1 = min(h0 + group, rows)
                block = out[h0:h1, :live]
                if shifts is None:
                    terms = base.sum(axis=-1)
                else:
                    terms = np.vecdot(_powers(-1j * shifts[h[h0:h1]], hi, lo)[:, None, :], base)
                np.add(block, terms, out=block, where=counts[h0:h1, j : j + live] > i)
    result = np.empty_like(acc)
    result[np.ix_(h, p)] = acc
    return result


def _em_tail(s: np.ndarray, counts: np.ndarray, step, offsets, weights) -> np.ndarray:
    """sum_j weights[j] x_j^{-s} E(s, b_j) over the 1-d points s, with

        E(s, b) = b / (s - 1) + 1/2 + sum_{k=1}^{M} B_2k/(2k)! (s)_{2k-1} b^{1-2k},

    M = DEFAULT_CONFIG.em_order / 2 read when called, the Euler-Maclaurin
    tail of residue class j after the point's head
    _power_sum(s, count, step, offsets, weights): the class's first node left
    out is x_j = step b_j = step ceil((count - j) / J) + offsets[j]
    (J = len(offsets)).
    The Bernoulli terms add up to B_2/2! s/b (1 + sum_{k=1}^{M-1} prod_{i<=k} r_i),
    r_k = (s+2k-1)(s+2k)/b^2 (B_{2k+2}/(2k+2)!) / (B_2k/(2k)!) the ratio of
    consecutive terms, summed by Horner's rule in place, acc <- 1 + r_k acc
    for k = M-1 down to 1: no rising factorial (1e380 at |s| = 5e4, em_order
    80) is formed on its own, and no array holds more than one value per
    (class, point), so a tile takes _TILE // J points, as (J, points) arrays
    whose inner loops run over the points.  Every step is elementwise and a
    point's classes are added along one contiguous row, so a value depends on
    its own point alone.  At s = 1 the pole is replaced by its regular part
    -b log x; the poles cancel when the weights add up to 0.
    """
    bern = np.array(_bernoulli_over_fact(DEFAULT_CONFIG.em_order))
    ratios = bern[1:] / bern[:-1]
    offsets = np.asarray(offsets, dtype=float)[:, None]
    classes = len(offsets)
    out = np.empty(s.shape, dtype=np.complex128)
    group = max(1, _TILE // classes)
    for i in range(0, len(s), group):
        z = s[i : i + group]
        x = step * ((counts[i : i + group] + classes - 1 - np.arange(classes)[:, None]) // classes) + offsets
        b = x / step
        hi, lo = _log_parts(x)
        inv_b2 = 1.0 / (b * b)
        acc = np.ones(x.shape, dtype=np.complex128)
        for k in range(len(ratios), 0, -1):
            acc *= (z + (2 * k - 1)) * (z + 2 * k) * ratios[k - 1]
            acc *= inv_b2
            acc += 1.0
        acc *= bern[0] * z / b
        pole = z == 1.0
        acc += np.where(pole, -b * (hi + lo), b / np.where(pole, 2.0, z - 1.0)) + 0.5
        terms = _powers(z, hi.T, lo.T)
        terms *= acc.T
        terms *= weights
        out[i : i + group] = terms.sum(axis=-1)
    return out


def _call_points(s, shifts=None):
    """(flat base points, flat shifts or None, output shape) of an evaluator call.

    A NaN in s or the shifts, or an infinite Re s, raises DomainError; an
    infinite Im s raises RangeError.  Either would otherwise evaluate to NaN."""
    arr = np.asarray(s, dtype=np.complex128)
    shape = arr.shape
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        shape = shifts.shape + shape
        shifts = shifts.ravel()
    if not (np.isfinite(arr).all() and (shifts is None or np.isfinite(shifts).all())):
        if np.isnan(arr).any() or np.isinf(arr.real).any() or (shifts is not None and np.isnan(shifts).any()):
            raise DomainError("s and the shifts must not be NaN, and Re s must be finite")
        raise RangeError("|Im s| is infinite")
    return arr.ravel(), shifts, shape


def _shaped(values: np.ndarray, shape):
    """An evaluator's result: values in the call's shape, a complex for a scalar call."""
    out = values.reshape(shape)
    return complex(out) if out.ndim == 0 else out


def _units(chi: DirichletCharacter) -> np.ndarray:
    """The residues 1 <= n <= q prime to q, ascending."""
    q = chi.modulus
    return np.array([n for n in range(1, q + 1) if chi.numerators[n % q] >= 0])


def _residues(chi: DirichletCharacter):
    """The primitive character chi* mod the conductor d of chi, as
    (d, r, chi*(r), (p, chi*(p))): the residues 1 <= r <= d prime to d, and
    the primes p | q that do not divide d, with chi* read from chi at the
    least lift n = r (mod d) prime to q, so that

        L(s, chi) = L(s, chi*) prod_p (1 - chi*(p) p^{-s}).

    For primitive chi (d = q) these are the residues prime to q with chi(r),
    and no primes."""
    q, d = chi.modulus, chi.conductor
    n = _units(chi)
    r, lift = np.unique((n - 1) % d + 1, return_index=True)
    weights = chi.values[n[lift] % q]
    primes = np.array([p for p, _ in _factorize(q) if d % p], dtype=np.int64)
    return d, r, weights, (primes, weights[np.searchsorted(r, (primes - 1) % d + 1)])


def _times_euler_factors(acc: np.ndarray, s: np.ndarray, primes: np.ndarray, values: np.ndarray):
    """acc prod_p (1 - values_p p^{-s}), for the points s of acc's shape, the
    one Euler-product kernel (L's factors at p | q, and l_truncated).  Per
    tile of at most _TILE (point, prime) pairs, p^{-s} is built with the
    phases reduced in double-double (_powers), and np.multiply.reduce
    multiplies out each row of acc and then the factors, formed in float64
    real and imaginary parts, in prime order: one ordered reduce, so a value
    does not depend on the other points in the call or on the tiling."""
    out = acc.flatten()
    flat = s.ravel()
    width = max(1, min(flat.size, _TILE))
    tile = _TILE // width
    for j in range(0, len(primes), tile):
        hi, lo = _log_parts(primes[j : j + tile].astype(float))
        c = values[j : j + tile]
        for i in range(0, flat.size, width):
            z = _powers(flat[i : i + width], hi, lo)
            f = np.empty((len(z), 1 + len(c)), dtype=np.complex128)
            f[:, 0] = out[i : i + width]
            f[:, 1:].real = 1.0 - (c.real * z.real - c.imag * z.imag)
            f[:, 1:].imag = -(c.real * z.imag + c.imag * z.real)
            out[i : i + width] = np.multiply.reduce(f, axis=1)
    return out.reshape(s.shape)


def l_value(s, chi: DirichletCharacter, *, shifts=None):
    """L(s, chi) for sigma > 1/2, through the primitive character chi* mod the
    conductor d of chi (_residues), as one Dirichlet sum plus Euler-Maclaurin
    tails times the Euler factors of the primes p | q that do not divide d,

        L(s, chi) = (sum_{m <= dN, (m, d) = 1} chi*(m) m^{-s} + d^{-s} sum_r chi*(r) T(s, N + r/d))
                    prod_p (1 - chi*(p) p^{-s}),

    with each point's head the first C integers prime to d, C the smallest
    multiple of _TERM_CHUNK with C >= phi(d) N and N = _n_terms(|Im s|) from
    the remainder bound at that point's own |Im s|, so residue class j sums
    ceil((C - j) / phi(d)) >= N terms, truncation adds at most
    sqrt(d) target_abs_error / 100 before the Euler factors, whose
    product is at most prod_p (1 + p^{-1/2}) <= q/d, and a value depends on
    its own point alone;
    the phases t log m and t log p are reduced mod 2 pi in double-double
    (_phase): the error is float64 rounding, within the documented
    q * target_abs_error over the whole supported range (README,
    "Evaluator limits").  For primitive chi (d = q) the Euler-factor
    product is empty.  Raises PoleError for the principal character at
    s = 1; nonprincipal characters are evaluated at s = 1, shifted or not,
    through the regularized (pole-cancelling) tail.  The settings are fixed
    (DEFAULT_CONFIG): em_order 60, N >= 50 and target_abs_error 1e-12.

    With `shifts` (real, keyword-only), returns L at s + i h for every shift
    h, with shape shifts.shape + np.shape(s).  The sum is then built once for
    s with one phase row per shift (see _power_sum), so a block of S shifts
    of P points costs N (P + S) phase factors rather than N P S.
    """
    flat, shifts, shape = _call_points(s, shifts)
    full = flat[None, :] if shifts is None else flat[None, :] + 1j * shifts[:, None]
    if full.size == 0:
        return np.zeros(shape, dtype=np.complex128)
    if np.any(flat.real <= 0.5):
        raise DomainError("l_value supports only sigma > 1/2")
    t_abs = np.abs(full.imag)
    if np.max(t_abs) > IM_CAP:
        raise RangeError(f"|Im s| = {np.max(t_abs):.6g} exceeds evaluator cap {IM_CAP:.6g}")
    if chi.principal and bool((full == 1.0).any()):
        raise PoleError(f"L(s, chi_0 mod {chi.modulus}) has a pole at s = 1")
    d, r, weights, (primes, chi_p) = _residues(chi)
    counts = _TERM_CHUNK * -(-len(r) * _n_terms(t_abs) // _TERM_CHUNK)
    acc = _power_sum(flat, counts, d, r, weights, shifts)
    acc += _em_tail(full.ravel(), counts.ravel(), d, r, weights).reshape(full.shape)
    return _shaped(_times_euler_factors(acc, full, primes, chi_p), shape)


def l_truncated(s, chi: DirichletCharacter, v: float):
    """Truncated Euler product prod_{p <= v} (1 - chi(p) p^{-s})^{-1}, sigma > 0:
    the reciprocal of the product of L's own Euler-factor kernel
    (_times_euler_factors) over the primes p <= v, each phase t log p reduced
    mod 2 pi in double-double."""
    flat, _, shape = _call_points(s)
    if np.any(flat.real <= 0.0):
        raise DomainError("l_truncated requires sigma > 0")
    primes = primes_upto(v)
    ones = np.ones(flat.shape, dtype=np.complex128)
    product = _times_euler_factors(ones, flat, primes, chi.values[primes % chi.modulus])
    return _shaped(1.0 / product, shape)


def _validate_partial_length(n_max: int, q: int, name: str = "n_max"):
    """RangeError, naming the largest usable n_max, if n_max terms mod q exceed _N_MAX per residue class."""
    if n_max > q * _N_MAX:
        usable = f"largest usable {name} at this cap is {q * _N_MAX}"
        raise RangeError(f"{name} = {n_max:.6g} needs over {_N_MAX:.0e} terms per residue class mod {q}; {usable}")


def l_partial_sum(s, chi: DirichletCharacter, n_max: int, *, shifts=None):
    """Dirichlet partial sum L_N(s, chi) = sum_{n <= N} chi(n) n^{-s}, over
    chi mod q itself (not the primitive chi* that l_value sums), N <= q _N_MAX.

    `shifts` works as in l_value: values at s + i h, shape shifts.shape + np.shape(s).
    """
    if n_max < 1:
        raise DomainError("partial sum length must be >= 1")
    _validate_partial_length(n_max, chi.modulus)
    flat, shifts, shape = _call_points(s, shifts)
    q = chi.modulus
    r = _units(chi)
    weights = chi.values[r % q]
    count = n_max // q * len(r) + int(np.count_nonzero(r <= n_max % q))
    return _shaped(_power_sum(flat, count, q, r, weights, shifts), shape)
