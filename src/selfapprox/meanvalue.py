"""Quantitative mean-value checks: the Carlson identity and Besicovitch
mean-square distances.

These operations make two mean values measurable at desk scale: the
time-averaged square of a Dirichlet-series remainder against its coefficient
sum, and the mean-square distance between the sup-difference functional built
from L and the one built from partial sums.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .characters import DirichletCharacter, character_from_id
from .density import ShiftFamily, _validate_cap, g_values
from .errors import DomainError
from .lfunc import StripRegion, _units, _validate_partial_length, l_partial_sum, l_value
from .sampling import map_blocks, uniform_samples

__all__ = [
    "coprime_tail_sum",
    "carlson_mean_value",
    "CarlsonResult",
    "b2_ladder",
]


def coprime_tail_sum(chi: DirichletCharacter, y: float, exponent: float) -> float:
    """sum_{n > y} |chi(n)| / n^exponent, requires exponent > 1.

    Computed as L(exponent, chi_0 mod q) minus the head, the head summed
    exactly rounded (math.fsum): the tail is a small difference of two O(1)
    numbers, so rounding in the head would dominate it.  The head runs over
    n = r, r + q, ... <= y for each unit r mod q; fsum is exact, so the order
    of its terms does not change the result.
    """
    if exponent <= 1.0:
        raise DomainError("tail sum needs exponent > 1")
    q = chi.modulus
    total = l_value(complex(exponent), character_from_id(f"{q}:0")).real
    top = int(math.floor(y))
    head = math.fsum(n ** (-exponent) for r in _units(chi).tolist() for n in range(r, top + 1, q))
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
    if y < 1:
        raise DomainError(f"partial sum length y = {y!r} must be >= 1")
    _validate_cap(T, abs(x), abs(s.imag), "|Im s| at tau = 0")
    n_trunc = int(math.floor(y))
    _validate_partial_length(n_trunc, chi.modulus, "y")
    taus = uniform_samples(seed, n_samples, 0.0, T)

    def work(i0, i1):
        shifts = x * taus[i0:i1]
        diff = l_value(s, chi, shifts=shifts) - l_partial_sum(s, chi, n_trunc, shifts=shifts)
        return (np.abs(diff) ** 2,)

    (sq,) = map_blocks(work, n_samples, threads)
    empirical = float(np.mean(sq))
    stderr = float(np.std(sq, ddof=1) / math.sqrt(n_samples))
    theoretical = coprime_tail_sum(chi, y, 2.0 * s.real)
    return CarlsonResult(empirical, theoretical, stderr)


def b2_ladder(
    family: ShiftFamily,
    n_ladder,
    T: float,
    region: StripRegion,
    n_samples: int = 1000,
    seed: int = 0,
    threads: int = 1,
) -> list:
    """(estimate, stderr) of (1/2T) int_{-T}^{T} |f - f_N|^2 dtau for each N in n_ladder.

    f is g_values on the whole family over the base K grid, the functional
    the densities use; f_N is the same functional with L replaced by the
    partial sum of length N.  Two-sided in tau, as the mean-square
    almost-periodicity distance is.  All rungs share one tau sample set, and f
    is evaluated once per tau.
    """
    n_ladder = list(n_ladder)
    if not n_ladder or any(n < 1 for n in n_ladder) or n_samples < 2 or T <= 0:
        raise DomainError("b2 needs a nonempty N ladder, every N >= 1, n_samples >= 2 and T > 0")
    _validate_cap(T, family.max_abs_shift, region.t_abs_max)
    _validate_partial_length(max(n_ladder), min(chi.modulus for chi in family.characters), "N")
    taus = uniform_samples(seed, n_samples, -T, T)

    def work(i0, i1):
        block = taus[i0:i1]
        f, _ = g_values(block, family, region, refine=False)
        out = []
        for n in n_ladder:
            partial = functools.partial(l_partial_sum, n_max=n)
            f_n, _ = g_values(block, family, region, refine=False, evaluator=partial)
            out.append((f - f_n) ** 2)
        return out

    return [
        (float(np.mean(sq)), float(np.std(sq, ddof=1) / math.sqrt(len(sq))))
        for sq in map_blocks(work, n_samples, threads)
    ]
