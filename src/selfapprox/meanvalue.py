"""Quantitative mean-value checks: Carlson identity, truncation tails, and
Besicovitch mean-square distances.

These operations make the proof's bookkeeping measurable at desk scale: the
time-averaged square of a Dirichlet-series remainder against its coefficient
sum, the Kronecker-restricted double integral against its prime-tail envelope
(the implied constant is reported, never asserted), the area-to-sup bound for
analytic functions, and the mean-square distance between the sup-difference
functional built from L and the one built from partial sums.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter
from .diophantine import KroneckerTarget, kronecker_membership
from .density import ShiftFamily, _validate_cap, g_values
from .errors import DomainError
from .lfunc import StripRegion, hurwitz_zeta, l_partial_sum, l_value, log_l_truncated_ratio
from .primes import prime_zeta_tail, primes_upto
from .sampling import block_slices, map_blocks, uniform_samples

__all__ = [
    "max_modulus_bound",
    "coprime_tail_sum",
    "carlson_mean_value",
    "CarlsonResult",
    "truncation_tail_check",
    "b2_distance",
    "b2_ladder",
]


def max_modulus_bound(area_integral: float, margin: float) -> float:
    """sup bound sqrt(eps/pi)/d for an analytic f with integral_U |f|^2 <= eps,
    K at distance d from the boundary of U."""
    if area_integral < 0:
        raise DomainError("area integral must be nonnegative")
    if margin <= 0:
        raise DomainError("margin must be positive")
    return math.sqrt(area_integral / math.pi) / margin


def coprime_tail_sum(chi: DirichletCharacter, y: float, exponent: float) -> float:
    """sum_{n > y} |chi(n)| / n^exponent, requires exponent > 1.

    Computed as zeta(exponent) * prod_{p | q}(1 - p^-exponent) minus the head.
    """
    if exponent <= 1.0:
        raise DomainError("tail sum needs exponent > 1")
    q = chi.modulus
    total = hurwitz_zeta(complex(exponent), 1.0).real
    for p in primes_upto(q):
        if q % p == 0:
            total *= 1.0 - p ** (-exponent)
    head = sum(
        n ** (-exponent) for n in range(1, int(math.floor(y)) + 1) if chi.numerators[n % q] >= 0
    )
    return total - head


@dataclass(frozen=True)
class CarlsonResult:
    empirical: float
    theoretical: float
    stderr: float

    @property
    def relative_gap(self) -> float:
        return abs(self.empirical - self.theoretical) / self.theoretical


def carlson_mean_value(
    chi: DirichletCharacter,
    s: complex,
    y: float,
    x: float = 1.0,
    T: float = 5000.0,
    n_samples: int = 50000,
    seed: int = 0,
    threads: int = 1,
) -> CarlsonResult:
    """Time-averaged |L - L_y|^2 along vertical shifts against its limit.

    empirical: (1/T) int_0^T |L(s+ix tau, chi) - L_y(s+ix tau, chi)|^2 dtau by
    Monte Carlo, where L_y is the Dirichlet partial sum over n <= y (the
    truncation for which the limit equals the tail coefficient sum exactly).
    theoretical: sum_{n > y} |chi(n)| / n^{2 sigma}.
    """
    s = complex(s)
    if not 0.5 < s.real < 1.0:
        raise DomainError("carlson_mean_value requires 1/2 < sigma < 1")
    if x == 0:
        raise DomainError("shift scale x must be nonzero")
    if T <= 0 or n_samples < 2:
        raise DomainError("T must be positive and n_samples >= 2")
    _validate_cap(T, abs(x), abs(s.imag))
    taus = uniform_samples(seed, n_samples, 0.0, T)
    n_trunc = int(math.floor(y))

    def work(i0, i1):
        shifts = x * taus[i0:i1]
        diff = l_value(s, chi, shifts=shifts) - l_partial_sum(s, chi, n_trunc, shifts=shifts)
        return np.abs(diff) ** 2

    sq = np.concatenate(map_blocks(work, n_samples, threads))
    empirical = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1) / math.sqrt(n_samples))
    theoretical = coprime_tail_sum(chi, y, 2.0 * s.real)
    return CarlsonResult(empirical, theoretical, stderr)


def truncation_tail_check(
    chi: DirichletCharacter,
    target: KroneckerTarget,
    region: StripRegion,
    y: float,
    T: float,
    n_samples: int = 20000,
    seed: int = 0,
    u_grid: tuple = (6, 6),
    threads: int = 1,
) -> dict:
    """Kronecker-restricted tail average against its prime-tail envelope.

    empirical: (1/T) int over the Kronecker set of
    int_U sum_k |log(L_y/L_v)(s + i d_k tau)|^2 dsigma dt, with the U integral
    by midpoint rule; the shifts are the target's independent ones.
    bound: meas R * sum_{p > v} p^{-2 sigma_1} with sigma_1 the left edge of U.
    The ratio empirical/bound estimates the implied constant (reported only).
    """
    v = target.prime_bound
    if y < v:
        raise DomainError("truncation_tail_check requires y >= v")
    if T <= 0 or n_samples < 1:
        raise DomainError("T must be positive and n_samples >= 1")
    taus = uniform_samples(seed, n_samples, 0.0, T)
    mask = np.zeros(n_samples, dtype=bool)
    for i0, i1 in block_slices(n_samples):
        mask[i0:i1] = kronecker_membership(taus[i0:i1], target)
    hit_taus = taus[mask]
    centers, cell_area = region.u_grid(*u_grid)
    sigma1 = region.u_rect[0]
    tail = prime_zeta_tail(2.0 * sigma1, v)
    bound = target.expected_density * tail
    if y == v or len(hit_taus) == 0:
        empirical = 0.0
    else:
        def work(i0, i1):
            sub = hit_taus[i0:i1]
            acc = np.zeros(len(sub))
            for dk in target.shifts:
                pts = centers[None, :] + 1j * dk * sub[:, None]
                acc += (np.abs(log_l_truncated_ratio(pts, chi, v, y)) ** 2).sum(axis=1)
            return acc * cell_area

        integrals = np.concatenate(map_blocks(work, len(hit_taus), threads))
        empirical = float(np.sum(integrals) / n_samples)
    report = {
        "empirical": empirical,
        "bound": bound,
        "ratio": empirical / bound if bound > 0 else 0.0,
        "n_samples": n_samples,
        "n_hits": int(len(hit_taus)),
        "v": float(v),
        "y": float(y),
        "sigma1": sigma1,
        "warning": None,
    }
    if len(hit_taus) < 30:
        report["warning"] = (
            f"only {len(hit_taus)} Kronecker hits out of {n_samples} samples; "
            "empirical average is noisy"
        )
    return report


def b2_distance(
    family: ShiftFamily,
    n_partial: int,
    T: float,
    region: StripRegion,
    n_samples: int = 2000,
    seed: int = 0,
    pair: tuple = (0, 1),
    threads: int = 1,
):
    """Mean-square distance (1/2T) int_{-T}^{T} |f - f_N|^2 dtau by Monte Carlo.

    The single-rung b2_ladder: returns (estimate, stderr) for N = n_partial.
    """
    return b2_ladder(family, [n_partial], T, region, n_samples, seed, pair, threads)[0]


def b2_ladder(
    family: ShiftFamily,
    n_ladder,
    T: float,
    region: StripRegion,
    n_samples: int = 2000,
    seed: int = 0,
    pair: tuple = (0, 1),
    threads: int = 1,
) -> list:
    """(estimate, stderr) of (1/2T) int_{-T}^{T} |f - f_N|^2 dtau for each N in n_ladder.

    f is g_values on the two family members that `pair` selects, over the
    base K grid; f_N is the same functional with L replaced by the partial
    sum of length N.  Two-sided in tau, as the mean-square almost-periodicity
    distance is.  All rungs share one tau sample set, and f is evaluated once
    per tau.
    """
    n_ladder = list(n_ladder)
    if not n_ladder or any(n < 1 for n in n_ladder) or n_samples < 2 or T <= 0:
        raise DomainError("b2 needs a nonempty N ladder, every N >= 1, n_samples >= 2 and T > 0")
    j, k = pair
    if j == k or not (0 <= j < family.m and 0 <= k < family.m):
        raise DomainError(f"pair must name two distinct members of the family, got {pair!r}")
    _validate_cap(T, family.max_abs_shift, region.t_abs_max)
    sub = ShiftFamily(
        (family.shifts[j], family.shifts[k]), (family.characters[j], family.characters[k])
    )
    taus = uniform_samples(seed, n_samples, -T, T)

    def work(i0, i1):
        block = taus[i0:i1]
        f, _ = g_values(block, sub, region, refine=False)
        out = []
        for n in n_ladder:
            partial = functools.partial(l_partial_sum, n_max=n)
            f_n, _ = g_values(block, sub, region, refine=False, evaluator=partial)
            out.append((f - f_n) ** 2)
        return out

    estimates = []
    for rung in zip(*map_blocks(work, n_samples, threads)):
        sq = np.concatenate(rung)
        estimates.append((float(np.mean(sq)), float(np.std(sq, ddof=1) / math.sqrt(len(sq)))))
    return estimates
