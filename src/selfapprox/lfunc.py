"""Numerical evaluation of L(s, chi) and its truncations in sigma > 1/2.

The analytic continuation route is the Hurwitz-zeta decomposition

    L(s, chi) = q^{-s} sum_{a=1}^{q} chi(a) zeta(s, a/q),

with each Hurwitz zeta computed by Euler-Maclaurin summation.  One code path
covers every modulus; the number of directly summed terms grows linearly with
|Im s| and evaluation refuses (RangeError) beyond a configured cap rather than
silently degrading.

Almost all of the time goes into the direct power sums sum_n c_n x_n^{-s}.
Callers that evaluate one base set of points moved up by many vertical shifts
(the grid on K at s + i d tau, one row per sampled tau) pass `shifts`: since
x^{-(s + i h)} = x^{-s} x^{-i h}, the matrix x_n^{-s} is built once for the
base points and each shift adds only one phase row x_n^{-i h}, so a call costs
N (P + S) complex exponentials plus an N P S contraction instead of N P S
exponentials (N terms, P points, S shifts).

All evaluators accept numpy arrays of s values and broadcast; they are pure
functions of immutable inputs and safe to call from worker threads.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import DirichletCharacter, char_value
from .errors import DomainError, PoleError, RangeError
from .primes import primes_upto

__all__ = [
    "EvaluatorConfig",
    "StripRegion",
    "DEFAULT_CONFIG",
    "hurwitz_zeta",
    "l_value",
    "l_truncated",
    "log_l_truncated_ratio",
    "l_partial_sum",
]

# N0 >= SHIFT_SCALE * (|Im s| + 10) guarantees the Euler-Maclaurin remainder
# stays below target accuracy at em_order 24 in sigma > 1/2.
SHIFT_SCALE = 1.3

# elements per temporary array in the chunked power sums
_CHUNK_BUDGET = 2_000_000
# series terms per chunk of a shifted power sum; a constant, so that the
# summation order, and with it every value, does not depend on the number of
# points or shifts in the call
_SHIFT_CHUNK = 256


@dataclass(frozen=True)
class EvaluatorConfig:
    """Tuning knobs for the Euler-Maclaurin evaluator.

    em_order: number of Bernoulli correction terms (even).
    shift_count: floor for the number of directly summed series terms; the
        actual count is max(shift_count, ceil(SHIFT_SCALE * (|Im s| + 10))).
    target_abs_error: requested absolute accuracy per Hurwitz evaluation.
    im_cap: largest supported |Im s|; beyond it evaluation raises RangeError.
    """

    em_order: int = 24
    shift_count: int = 50
    target_abs_error: float = 1e-12
    im_cap: float = 5e4

    def __post_init__(self):
        if self.em_order < 2 or self.em_order % 2:
            raise DomainError("em_order must be even and >= 2")
        if self.target_abs_error <= 0:
            raise DomainError("target_abs_error must be positive")
        if self.shift_count < 1 or self.im_cap <= 0:
            raise DomainError("invalid shift_count or im_cap")


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
    """B_{2k}/(2k)! for k = 1..em_order/2, via the exact rational recurrence."""
    n_max = em_order
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        acc = Fraction(0)
        c = 1  # binomial(m+1, k)
        for k in range(m):
            acc += c * b[k]
            c = c * (m + 1 - k) // (k + 1)
        b.append(-acc / (m + 1))
    fact = [Fraction(1)]
    for n in range(1, n_max + 1):
        fact.append(fact[-1] * n)
    return tuple(float(b[2 * k] / fact[2 * k]) for k in range(1, em_order // 2 + 1))


def _check_cap(imag_max: float, cfg: EvaluatorConfig):
    if imag_max > cfg.im_cap:
        raise RangeError(
            f"|Im s| = {imag_max:.6g} exceeds evaluator cap {cfg.im_cap:.6g}; "
            "raise EvaluatorConfig.im_cap explicitly if this is intended"
        )


def _n_terms(imag_max: float, cfg: EvaluatorConfig) -> int:
    return max(cfg.shift_count, int(math.ceil(SHIFT_SCALE * (imag_max + 10.0))))


def _power_sum(s: np.ndarray, logn: np.ndarray, coeffs=None, shifts=None) -> np.ndarray:
    """sum_n coeffs[n] * exp(-s * logn[n]) in memory-bounded chunks.

    coeffs=None means every coefficient is 1.  With `shifts` (1-d, real) the
    result has shape (len(shifts), len(s)) and holds the sums at
    s[None, :] + i shifts[:, None]: per chunk of terms, exp(-s logn) is built
    once, one phase row exp(-i shift logn) per shift, and the two are
    contracted by a fixed-order (non-BLAS) einsum, so values do not depend on
    the number of BLAS threads.
    """
    if shifts is not None:
        acc = np.zeros((len(shifts), len(s)), dtype=np.complex128)
        for i in range(0, len(logn), _SHIFT_CHUNK):
            part = logn[i : i + _SHIFT_CHUNK]
            base = np.exp(-s[:, None] * part)
            if coeffs is not None:
                base *= coeffs[i : i + _SHIFT_CHUNK]
            phase = np.exp(-1j * shifts[:, None] * part)
            acc += np.einsum("pn,hn->hp", base, phase)
        return acc
    acc = np.zeros(s.shape, dtype=np.complex128)
    chunk = max(1, _CHUNK_BUDGET // max(1, s.size))
    neg_s = -s[..., None]
    for i in range(0, len(logn), chunk):
        terms = np.exp(neg_s * logn[i : i + chunk])
        if coeffs is not None:
            terms *= coeffs[i : i + chunk]
        acc += terms.sum(axis=-1)
        del terms  # free this chunk before the next one is allocated
    return acc


def _call_points(s, shifts):
    """(flat base points, flat shifts or None, output shape) of an evaluator call."""
    arr = np.asarray(s, dtype=np.complex128)
    shape = arr.shape
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        shape = shifts.shape + shape
        shifts = shifts.ravel()
    return np.atleast_1d(arr).ravel(), shifts, shape


def _shifted(s: np.ndarray, shifts) -> np.ndarray:
    """The full point set s[None, :] + i shifts[:, None], or s if shifts is None."""
    return s if shifts is None else s[None, :] + 1j * shifts[:, None]


def _hurwitz_em(s: np.ndarray, a: float, cfg: EvaluatorConfig, shifts=None) -> np.ndarray:
    """Euler-Maclaurin zeta(s, a) for an array of s with no entry equal to 1.

    With `shifts`, returns the (len(shifts), len(s)) values at the shifted
    points; the series length comes from the largest |Im| over all of them.
    """
    full = _shifted(s, shifts)
    imag_max = float(np.max(np.abs(full.imag))) if full.size else 0.0
    n_terms = _n_terms(imag_max, cfg)
    logn = np.log(np.arange(n_terms) + a)
    acc = _power_sum(s, logn, shifts=shifts)
    s = full  # the Euler-Maclaurin tail is taken point by point
    na = n_terms + a
    lna = math.log(na)
    acc += np.exp((1.0 - s) * lna) / (s - 1.0) + 0.5 * np.exp(-s * lna)
    poch = s.copy()  # rising factorial (s)_{2k-1}
    pw = np.exp(-(s + 1.0) * lna)  # na^{-s-2k+1}
    for k, bk in enumerate(_bernoulli_over_fact(cfg.em_order), start=1):
        acc += bk * poch * pw
        poch = poch * (s + (2 * k - 1)) * (s + 2 * k)
        pw = pw / (na * na)
    return acc


def _hurwitz_reg1(a: float, cfg: EvaluatorConfig) -> float:
    """lim_{s->1} [zeta(s, a) - 1/(s-1)]  (= -digamma(a))."""
    n_terms = max(cfg.shift_count, 50)
    na = n_terms + a
    acc = float(np.sum(1.0 / (np.arange(n_terms) + a))) - math.log(na) + 0.5 / na
    for k, bk in enumerate(_bernoulli_over_fact(cfg.em_order), start=1):
        acc += bk * math.factorial(2 * k - 1) * na ** (-2.0 * k)
    return acc


def hurwitz_zeta(s, a: float, cfg: EvaluatorConfig = DEFAULT_CONFIG):
    """zeta(s, a) = sum_{n>=0} (n+a)^{-s}, continued by Euler-Maclaurin.

    `s` may be a complex scalar or ndarray; requires 0 < a <= 1 and s != 1.
    """
    if not 0.0 < a <= 1.0:
        raise DomainError(f"Hurwitz parameter must satisfy 0 < a <= 1, got {a}")
    arr = np.asarray(s, dtype=np.complex128)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if np.any(flat == 1.0):
        raise PoleError("zeta(s, a) has a pole at s = 1")
    if flat.size:
        _check_cap(float(np.max(np.abs(flat.imag))), cfg)
    out = _hurwitz_em(flat, a, cfg).reshape(np.shape(s))
    return complex(out) if scalar else out


def l_value(s, chi: DirichletCharacter, cfg: EvaluatorConfig = DEFAULT_CONFIG, shifts=None):
    """L(s, chi) for sigma > 1/2, via the Hurwitz decomposition.

    Absolute error is at most q * cfg.target_abs_error.  Raises PoleError for
    the principal character at s = 1; nonprincipal characters are evaluated
    at s = 1 through the regularized (pole-cancelling) path.

    With `shifts` (real), returns L at s + i h for every shift h, with shape
    shifts.shape + np.shape(s).  Each Hurwitz pass then builds its power sum
    once for s and adds one phase row per shift (see _power_sum), so a block
    of S shifts of P points costs N (P + S) exponentials rather than N P S.
    """
    flat, shifts, shape = _call_points(s, shifts)
    full = _shifted(flat, shifts)
    if full.size == 0:
        return np.zeros(shape, dtype=np.complex128)
    if np.any(flat.real <= 0.5):
        raise DomainError("l_value supports only sigma > 1/2")
    _check_cap(float(np.max(np.abs(full.imag))), cfg)
    q = chi.modulus
    at_pole = full == 1.0
    if chi.principal and bool(at_pole.any()):
        raise PoleError(f"L(s, chi_0 mod {q}) has a pole at s = 1")
    if shifts is not None and bool(at_pole.any()):
        # the pole is patched point by point below; do that on the full set
        return l_value(full, chi, cfg).reshape(shape)
    work = flat if shifts is not None else np.where(at_pole, 2.0 + 0.0j, flat)
    residues = [
        (r, char_value(chi, r))
        for r in range(1, q + 1)
        if chi.value_table[(r - 1) % q] is not None
    ]
    acc = np.zeros(full.shape, dtype=np.complex128)
    for r, cval in residues:
        acc += cval * _hurwitz_em(work, r / q, cfg, shifts)
    acc *= np.exp(-_shifted(work, shifts) * math.log(q)) if q > 1 else 1.0
    if bool(at_pole.any()):
        # sum chi(a) = 0 kills the poles; what survives is the regularized part
        val1 = sum(cval * _hurwitz_reg1(r / q, cfg) for r, cval in residues) / q
        acc[at_pole] = val1
    out = acc.reshape(shape)
    return complex(out) if out.ndim == 0 else out


def _prime_char_values(chi: DirichletCharacter, v: float):
    out = []
    for p in primes_upto(v):
        c = char_value(chi, p)
        if c != 0:
            out.append((p, c))
    return out


def l_truncated(s, chi: DirichletCharacter, v: float):
    """Truncated Euler product prod_{p <= v} (1 - chi(p) p^{-s})^{-1}, sigma > 0."""
    arr = np.asarray(s, dtype=np.complex128)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if flat.size and np.any(flat.real <= 0.0):
        raise DomainError("l_truncated requires sigma > 0")
    acc = np.ones(flat.shape, dtype=np.complex128)
    for p, cval in _prime_char_values(chi, v):
        acc /= 1.0 - cval * np.exp(-flat * math.log(p))
    out = acc.reshape(np.shape(s))
    return complex(out) if scalar else out


def log_l_truncated_ratio(
    s, chi: DirichletCharacter, v: float, y: float, cfg: EvaluatorConfig = DEFAULT_CONFIG
):
    """log(L_y/L_v)(s, chi) = sum_{v < p <= y} sum_{j>=1} chi(p)^j / (j p^{js}).

    The inner sum stops once p^{-j*sigma_min}/j falls below both 1e-16 and
    cfg.target_abs_error divided by the number of primes in range.
    """
    if y < v:
        raise DomainError("log_l_truncated_ratio requires y >= v")
    arr = np.asarray(s, dtype=np.complex128)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if flat.size and np.any(flat.real <= 0.5):
        raise DomainError("log_l_truncated_ratio supports only sigma > 1/2")
    pairs = [(p, c) for p, c in _prime_char_values(chi, y) if p > v]
    acc = np.zeros(flat.shape, dtype=np.complex128)
    if not pairs or flat.size == 0:
        out = acc.reshape(np.shape(s))
        return complex(out) if scalar else out
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
    out = acc.reshape(np.shape(s))
    return complex(out) if scalar else out


def l_partial_sum(s, chi: DirichletCharacter, n_max: int, shifts=None):
    """Dirichlet partial sum L_N(s, chi) = sum_{n <= N} chi(n) n^{-s}.

    `shifts` works as in l_value: values at s + i h, shape shifts.shape + np.shape(s).
    """
    if n_max < 1:
        raise DomainError("partial sum length must be >= 1")
    flat, shifts, shape = _call_points(s, shifts)
    coeffs = np.array([char_value(chi, n) for n in range(1, n_max + 1)])
    nz = np.flatnonzero(coeffs != 0)
    logn = np.log(np.arange(1, n_max + 1, dtype=float))[nz]
    out = _power_sum(flat, logn, coeffs[nz], shifts).reshape(shape)
    return complex(out) if out.ndim == 0 else out
