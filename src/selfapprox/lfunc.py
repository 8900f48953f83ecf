"""Numerical evaluation of L(s, chi) and its truncations in sigma > 1/2.

The analytic continuation route is the Hurwitz-zeta decomposition

    L(s, chi) = q^{-s} sum_{a=1}^{q} chi(a) zeta(s, a/q),

with each Hurwitz zeta computed by Euler-Maclaurin summation to N terms.  The
q heads merge into one Dirichlet sum over the integers m <= qN prime to q, and
each class keeps only its Euler-Maclaurin tail.  N comes from a rigorous bound
on the remainder (Johansson, arXiv:1309.2877), so it grows linearly with the
largest |Im s| of a call, and evaluation refuses (RangeError) beyond
IM_CAP rather than silently degrading.

Almost all of the time goes into the direct power sums sum_n c_n x_n^{-s}, all
of them summed by one kernel, `_power_sum`, in chunks of a constant number of
terms, so no value depends on the other points in its call.  Each phase
Im(s) log x_n is reduced mod 2 pi in double-double arithmetic (`_phase`), so
the error is float64 rounding, not the phase.  Callers that evaluate one base
set of points moved up by many vertical shifts (the grid on K at s + i d tau,
one row per sampled tau) pass `shifts`: since x^{-(s + i h)} = x^{-s} x^{-i h},
the matrix x_n^{-s} is built once for the base points and each shift adds only
one phase row x_n^{-i h}, so a call costs N (P + S) phase factors plus an
N P S contraction instead of N P S (N terms, P points, S shifts).

All evaluators accept numpy arrays of s values and broadcast; they are pure
functions of immutable inputs and safe to call from worker threads.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, char_value
from .errors import DomainError, PoleError, RangeError
from .primes import primes_upto

__all__ = [
    "EvaluatorConfig",
    "StripRegion",
    "DEFAULT_CONFIG",
    "IM_CAP",
    "hurwitz_zeta",
    "l_value",
    "l_truncated",
    "log_l_truncated_ratio",
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
# largest series length per residue class
_N_MAX = 10**7
# 2 pi = _C1 + _C2 to 7e-26, _C1 with 30 significant bits (Cody-Waite)
_C1, _C2 = 6.283185303211212, 3.968374318722162e-09
# log 2 = _LN2_A + _LN2_B to 4e-31, _LN2_A with 47 significant bits
_LN2_A, _LN2_B = 0.6931471805599401, 5.2412386838766985e-15


@dataclass(frozen=True)
class EvaluatorConfig:
    """Tuning knobs for the Euler-Maclaurin evaluator.

    em_order: 2M, the index of the last Bernoulli number B_2M in the
        Euler-Maclaurin correction (even).
    shift_count: floor for N, the number of directly summed terms per
        residue class; above it N comes from the remainder bound (_n_terms).
    target_abs_error: requested absolute accuracy per Hurwitz evaluation;
        N makes the Euler-Maclaurin remainder of each one at most 1/100 of it.
    """

    em_order: int = 60
    shift_count: int = 50
    target_abs_error: float = 1e-12

    def __post_init__(self):
        if self.em_order < 2 or self.em_order % 2:
            raise DomainError("em_order must be even and >= 2")
        if self.target_abs_error <= 0:
            raise DomainError("target_abs_error must be positive")
        if self.shift_count < 1:
            raise DomainError("shift_count must be >= 1")


DEFAULT_CONFIG = EvaluatorConfig()


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
    def u_rect(self):
        """(sigma_lo, sigma_hi, t_lo, t_hi) of the enclosing rectangle U."""
        m = self.margin
        return (self.sigma_lo - m, self.sigma_hi + m, self.t_lo - m, self.t_hi + m)

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

    def u_grid(self, n_sigma: int = 6, n_t: int = 6):
        """Midpoint-rule grid on U: (complex cell centers, cell area)."""
        slo, shi, tlo, thi = self.u_rect
        ds, dt = (shi - slo) / n_sigma, (thi - tlo) / n_t
        sg = slo + ds * (np.arange(n_sigma) + 0.5)
        tg = tlo + dt * (np.arange(n_t) + 0.5)
        return (sg[:, None] + 1j * tg[None, :]).ravel(), ds * dt


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


def _check_cap(imag_max: float):
    if imag_max > IM_CAP:
        raise RangeError(f"|Im s| = {imag_max:.6g} exceeds evaluator cap {IM_CAP:.6g}")


def _n_terms(imag_max: float, cfg: EvaluatorConfig) -> int:
    """N, the terms per residue class: the smallest N >= cfg.shift_count with
    Johansson's bound (arXiv:1309.2877, Thm. 1) on the Euler-Maclaurin
    remainder of zeta(s, a) after N terms and M = em_order/2 Bernoulli terms,

        |R| <= 4 |(s)_{2M}| / (2 pi)^{2M} (N + a)^{-(sigma + 2M - 1)} / (sigma + 2M - 1),

    at most cfg.target_abs_error / 100 for sigma = 1/2, |Im s| = imag_max and
    a = 0.  RangeError if that N exceeds _N_MAX (small em_order).
    """
    e = cfg.em_order - 0.5  # sigma + 2M - 1 at sigma = 1/2
    log_poch = 0.5 * sum(math.log((k + 0.5) ** 2 + imag_max**2) for k in range(cfg.em_order))
    log_r = math.log(4.0) + log_poch - cfg.em_order * math.log(2.0 * math.pi) - math.log(e)
    log_n = (log_r - math.log(cfg.target_abs_error / 100.0)) / e
    if log_n > math.log(_N_MAX):
        raise RangeError(f"em_order {cfg.em_order} needs over {_N_MAX:.0e} terms at |Im s| = {imag_max:.6g}")
    return max(cfg.shift_count, math.ceil(math.exp(log_n)))


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
    """x (hi + lo) mod 2 pi in about [-pi, pi], shape (len(x), len(hi)): both
    halves of x multiply hi exactly and k _C1 is exact, so only the small rest
    rounds; the error is about 1e-16 plus |x| times that of hi + lo.
    """
    xh, xl = _split(x)
    r = np.multiply.outer(xh, hi)
    k = np.rint(r * (0.5 / math.pi))
    r -= k * _C1
    k *= -_C2
    k += np.multiply.outer(xl, hi)
    k += np.multiply.outer(x, lo)
    r += k
    return r


def _powers(s: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """x^{-s}, shape (len(s), len(hi)), for the nodes x with log x = hi + lo:
    cos + i sin of the reduced phase (cheaper than a complex exp), times the
    modulus x^{-Re s} unless every Re s is 0 (phase rows)."""
    theta = _phase(-s.imag, hi, lo)
    z = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    if s.real.any():
        z *= np.exp(np.multiply.outer(-s.real, hi + lo))
    return z


def _power_sum(s: np.ndarray, count: int, step=1, offsets=(1,), weights=None, shifts=None) -> np.ndarray:
    """sum_{k < count} w_k x_k^{-s} over the 1-d points s, for the nodes
    x_k = step (k // J) + offsets[k % J] and weights w_k = weights[k % J]
    (J = len(offsets); weights=None means every w_k is 1).

    Nodes (float64, exact for integers) and their logs are built per tile,
    never for the whole series.  Without `shifts`, a group of G points takes
    _TILE // G terms per tile, each _TERM_CHUNK-term chunk is summed on its
    own and the chunk sums are added in order, so a value does not depend on
    the other points in its call.  With `shifts` (1-d, real) the result has
    shape (len(shifts), len(s)) and holds the sums at s[None, :] + i
    shifts[:, None]: per chunk, x^{-s} is built once, one phase row x^{-i h}
    per shift h, and the two are contracted by a fixed-order (non-BLAS)
    einsum, so values do not depend on the number of BLAS threads.
    """
    offsets = np.asarray(offsets, dtype=float)
    acc = np.zeros(s.shape if shifts is None else (len(shifts), len(s)), dtype=np.complex128)
    group = _TILE // _TERM_CHUNK
    for j in range(0, len(s), group):
        pts, out = s[j : j + group], acc[..., j : j + group]
        span = _TERM_CHUNK * (1 if shifts is not None else group // len(pts))
        for i in range(0, count, span):
            n, r = np.divmod(np.arange(i, min(i + span, count)), len(offsets))
            hi, lo = _log_parts(offsets[r] + step * n)
            base = _powers(pts, hi, lo)
            if weights is not None:
                base *= weights[r]
            if shifts is None:
                for c in range(0, base.shape[1], _TERM_CHUNK):
                    out += base[:, c : c + _TERM_CHUNK].sum(axis=-1)
            else:
                for h in range(0, len(shifts), group):
                    out[h : h + group] += np.einsum("pn,hn->hp", base, _powers(1j * shifts[h : h + group], hi, lo))
    return acc


def _em_tail(s: np.ndarray, x: np.ndarray, b: np.ndarray, weights: np.ndarray, cfg: EvaluatorConfig) -> np.ndarray:
    """sum_r weights[r] x_r^{-s} E(s, b_r) over the 1-d points s, with

        E(s, b) = b / (s - 1) + 1/2 + sum_{k=1}^{M} B_2k/(2k)! (s)_{2k-1} b^{1-2k},

    the Euler-Maclaurin tail of the residue class whose first node left out
    of the head is x_r = q b_r.  The Bernoulli terms are
    term_1 = B_2/2! s/b times the cumulative products of the ratios
    (s+2k-3)(s+2k-2)/b^2 B_2k/(2k)! / (B_{2k-2}/(2k-2)!), so no rising
    factorial (1e380 at |s| = 5e4, em_order 80) is formed on its own.  At
    s = 1 the pole is replaced by its regular part -b log x; the poles cancel
    when the weights add up to 0.
    """
    bern = np.array(_bernoulli_over_fact(cfg.em_order))
    j = 2.0 * np.arange(1, len(bern))  # 2k - 2 for k = 2..M
    ratio = bern[1:] / bern[:-1] / (b * b)[:, None]
    hi, lo = _log_parts(x)
    out = np.empty(s.shape, dtype=np.complex128)
    group = max(1, _TILE // (len(x) * len(bern)))
    for i in range(0, len(s), group):
        z = s[i : i + group, None]
        pole = z == 1.0
        steps = (z[..., None] + (j - 1.0)) * (z[..., None] + j) * ratio
        first = bern[0] * z / b
        total = np.where(pole, -b * (hi + lo), b / np.where(pole, 2.0, z - 1.0)) + 0.5
        total += first * (1.0 + np.cumprod(steps, axis=-1).sum(axis=-1))
        out[i : i + group] = (_powers(z[:, 0], hi, lo) * total * weights).sum(axis=-1)
    return out


def _call_points(s, shifts=None):
    """(flat base points, flat shifts or None, output shape) of an evaluator call."""
    arr = np.asarray(s, dtype=np.complex128)
    shape = arr.shape
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        shape = shifts.shape + shape
        shifts = shifts.ravel()
    return arr.ravel(), shifts, shape


def _shaped(values: np.ndarray, shape):
    """An evaluator's result: values in the call's shape, a complex for a scalar call."""
    out = values.reshape(shape)
    return complex(out) if out.ndim == 0 else out


def _shifted(s: np.ndarray, shifts) -> np.ndarray:
    """The full point set s[None, :] + i shifts[:, None], or s if shifts is None."""
    return s if shifts is None else s[None, :] + 1j * shifts[:, None]


def _residues(chi: DirichletCharacter):
    """(r, chi(r)) over the residues 1 <= r <= q prime to q, as two arrays."""
    r = np.array([r for r in range(1, chi.modulus + 1) if chi.numerators[r % chi.modulus] >= 0])
    return r, chi.values[r % chi.modulus]


def hurwitz_zeta(s, a: float, cfg: EvaluatorConfig = DEFAULT_CONFIG):
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s}, continued by Euler-Maclaurin.

    `s` may be a complex scalar or ndarray; requires 0 < a <= 1 and s != 1.
    """
    if not 0.0 < a <= 1.0:
        raise DomainError(f"Hurwitz parameter must satisfy 0 < a <= 1, got {a}")
    flat, _, shape = _call_points(s)
    if np.any(flat == 1.0):
        raise PoleError("zeta(s, a) has a pole at s = 1")
    imag_max = float(np.max(np.abs(flat.imag), initial=0.0))
    _check_cap(imag_max)
    n = _n_terms(imag_max, cfg)
    x = np.array([n + a])
    acc = _power_sum(flat, n, 1, (a,)) + _em_tail(flat, x, x, np.ones(1), cfg)
    return _shaped(acc, shape)


def l_value(s, chi: DirichletCharacter, cfg: EvaluatorConfig = DEFAULT_CONFIG, shifts=None):
    """L(s, chi) for sigma > 1/2, as one Dirichlet sum plus Euler-Maclaurin tails,

        L(s, chi) = sum_{m <= qN, (m, q) = 1} chi(m) m^{-s} + q^{-s} sum_r chi(r) T(s, N + r/q),

    with N from the remainder bound at the largest |Im s| of the call
    (_n_terms), so truncation adds at most sqrt(q) cfg.target_abs_error / 100,
    and the phases t log m reduced mod 2 pi in double-double (_phase): the
    error is float64 rounding, within the documented q * cfg.target_abs_error
    over the whole supported range (README, "Evaluator limits").  Raises
    PoleError for the principal character at s = 1; nonprincipal characters
    are evaluated at s = 1 through the regularized (pole-cancelling) tail.

    With `shifts` (real), returns L at s + i h for every shift h, with shape
    shifts.shape + np.shape(s).  The sum is then built once for s with one
    phase row per shift (see _power_sum), so a block of S shifts of P points
    costs N (P + S) phase factors rather than N P S.
    """
    flat, shifts, shape = _call_points(s, shifts)
    full = _shifted(flat, shifts)
    if full.size == 0:
        return np.zeros(shape, dtype=np.complex128)
    if np.any(flat.real <= 0.5):
        raise DomainError("l_value supports only sigma > 1/2")
    imag_max = float(np.max(np.abs(full.imag)))
    _check_cap(imag_max)
    q = chi.modulus
    at_pole = full == 1.0
    if chi.principal and bool(at_pole.any()):
        raise PoleError(f"L(s, chi_0 mod {q}) has a pole at s = 1")
    if shifts is not None and bool(at_pole.any()):
        # the regularized value at s = 1 comes from the unshifted path
        return _shaped(l_value(full, chi, cfg), shape)
    r, weights = _residues(chi)
    n = _n_terms(imag_max, cfg)
    x = q * n + r.astype(float)
    acc = _power_sum(flat, n * len(r), q, r, weights, shifts)
    acc += _em_tail(full.ravel(), x, x / q, weights, cfg).reshape(full.shape)
    return _shaped(acc, shape)


def _prime_char_values(chi: DirichletCharacter, v: float):
    out = []
    for p in primes_upto(v):
        c = char_value(chi, p)
        if c != 0:
            out.append((p, c))
    return out


def l_truncated(s, chi: DirichletCharacter, v: float):
    """Truncated Euler product prod_{p <= v} (1 - chi(p) p^{-s})^{-1}, sigma > 0."""
    flat, _, shape = _call_points(s)
    if np.any(flat.real <= 0.0):
        raise DomainError("l_truncated requires sigma > 0")
    acc = np.ones(flat.shape, dtype=np.complex128)
    for p, cval in _prime_char_values(chi, v):
        acc /= 1.0 - cval * np.exp(-flat * math.log(p))
    return _shaped(acc, shape)


def log_l_truncated_ratio(
    s, chi: DirichletCharacter, v: float, y: float, cfg: EvaluatorConfig = DEFAULT_CONFIG
):
    """log(L_y/L_v)(s, chi) = sum_{v < p <= y} sum_{j>=1} chi(p)^j / (j p^{js}).

    The inner sum stops once p^{-j*sigma_min}/j falls below both 1e-16 and
    cfg.target_abs_error divided by the number of primes in range.
    """
    if y < v:
        raise DomainError("log_l_truncated_ratio requires y >= v")
    flat, _, shape = _call_points(s)
    if np.any(flat.real <= 0.5):
        raise DomainError("log_l_truncated_ratio supports only sigma > 1/2")
    pairs = [(p, c) for p, c in _prime_char_values(chi, y) if p > v]
    acc = np.zeros(flat.shape, dtype=np.complex128)
    if not pairs or flat.size == 0:
        return _shaped(acc, shape)
    sigma_min = float(np.min(flat.real))
    threshold = min(1e-16, cfg.target_abs_error / len(pairs))
    for p, cval in pairs:
        logp = math.log(p)
        j = 1
        cj = cval
        while p ** (-j * sigma_min) / j >= threshold and j <= 60:
            acc += cj / j * np.exp(-j * flat * logp)
            j += 1
            cj *= cval
    return _shaped(acc, shape)


def l_partial_sum(s, chi: DirichletCharacter, n_max: int, shifts=None):
    """Dirichlet partial sum L_N(s, chi) = sum_{n <= N} chi(n) n^{-s}.

    `shifts` works as in l_value: values at s + i h, shape shifts.shape + np.shape(s).
    """
    if n_max < 1:
        raise DomainError("partial sum length must be >= 1")
    flat, shifts, shape = _call_points(s, shifts)
    q = chi.modulus
    r, weights = _residues(chi)
    count = n_max // q * len(r) + int(np.count_nonzero(r <= n_max % q))
    return _shaped(_power_sum(flat, count, q, r, weights, shifts), shape)
