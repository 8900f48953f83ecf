"""The sup-difference functional g(tau) and its sublevel-set densities.

g(tau) is the largest pairwise sup-difference over a compact rectangle K of
the shifted values L(s + i d_j tau, chi_j).  Every estimate here starts from
one seeded Monte Carlo draw: sample_g returns tau samples in [0, T] and their
g values.  From those, density_from_samples reads the density of
{tau in [0,T] : g(tau) < eps} with a Wilson interval at any eps, and
empirical_cdf(g, x) the distribution function F_T(x) of g, both from one
count of the samples strictly below; convergence_diagnostic compares F_T
along a ladder of horizons, a test of its weak convergence as T grows.  g at a few given tau is
g_values(taus, family, region, refine=False)[0].

The sup over K is taken on the region's sample grid.  g_values and sample_g
can re-take it at doubled resolution; the relative change (refine_delta)
then rides along with every sample, so grid adequacy is visible in the
output.  The per-sample g values that scan-density writes to samples.csv can
be re-analysed at any eps by density_from_samples without re-evaluating L.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .characters import DirichletCharacter
from .diophantine import _read_shift
from .errors import DomainError, _check_limit
from .lfunc import IM_CAP, StripRegion, l_value
from .sampling import ks_two_sample_threshold, map_blocks, uniform_samples, wilson_interval

__all__ = [
    "ShiftFamily",
    "DensityEstimate",
    "g_values",
    "sample_g",
    "density_from_samples",
    "empirical_cdf",
    "convergence_diagnostic",
]


@dataclass(frozen=True)
class ShiftFamily:
    """Shift parameters d_1..d_m paired with characters chi_1..chi_m.

    Each shift is kept as the float diophantine._read_shift reads.  Zero is
    allowed (the limit-existence statement permits any reals); runs that need
    nonzero shifts reject them at the relation finder.
    """

    shifts: tuple
    characters: tuple

    def __post_init__(self):
        if len(self.shifts) < 2:
            raise DomainError("a shift family needs m >= 2 members")
        if len(self.shifts) != len(self.characters):
            raise DomainError("shifts and characters must have equal length")
        object.__setattr__(self, "shifts", tuple(_read_shift(k, x) for k, x in enumerate(self.shifts)))
        if not all(isinstance(c, DirichletCharacter) for c in self.characters):
            raise DomainError("characters must be DirichletCharacter instances")

    @property
    def m(self) -> int:
        return len(self.shifts)

    @property
    def max_abs_shift(self) -> float:
        return max(abs(x) for x in self.shifts)


@dataclass(frozen=True)
class DensityEstimate:
    """Monte Carlo estimate of (1/T) meas{tau in [0,T] : g(tau) < eps}."""

    epsilon: float
    horizon: float
    n_samples: int
    hits: int
    density: float
    ci_lo: float
    ci_hi: float


def g_values(
    taus,
    family: ShiftFamily,
    region: StripRegion,
    refine: bool = True,
    evaluator=None,
):
    """g(tau) for an array of tau values.

    Returns (g, refine_delta): g is the max over the base grid on K of all
    pairwise |F(s+i d_j tau, chi_j) - F(s+i d_k tau, chi_k)|; refine_delta is
    the relative increase observed on the nested double-resolution grid
    (zeros when refine=False).  F comes from evaluator(grid, chi, shifts=h), a
    callable returning F at grid + i h for every shift h as a (len(h),
    len(grid)) array; it is called once per distinct character, in order of
    first appearance, with the shifts d_k * taus of that character's members
    concatenated in member order, so the grid's power sums are built once per
    character and each (member, tau) pair costs one phase row (see
    lfunc.l_value).  The default is l_value, looked up when called; partial
    sums (the B^2 distances) enter as functools.partial(l_partial_sum,
    n_max=N).  l_truncated takes no shifts, so a truncated Euler product
    enters through a wrapper that forms the points, lambda s, chi, shifts:
    l_truncated(s[None, :] + 1j * shifts[:, None], chi, v).
    """
    taus = np.atleast_1d(np.asarray(taus, dtype=float))
    grid, coarse_idx = region.grid_points(refine)
    evaluator = l_value if evaluator is None else evaluator
    members = {}
    for k, chik in enumerate(family.characters):
        members.setdefault(chik, []).append(k)
    vals = np.empty((family.m, len(taus), len(grid)), dtype=np.complex128)
    for chik, ks in members.items():
        shifts = np.concatenate([family.shifts[k] * taus for k in ks])
        vals[ks] = evaluator(grid, chik, shifts=shifts).reshape(len(ks), len(taus), len(grid))
    # itertools, not np.triu_indices, whose first call pages in 0.13 MB of numpy
    j, k = np.array(list(itertools.combinations(range(family.m), 2))).T
    # the max over pairs, per (tau, grid point); without refinement
    # coarse_idx takes every point, so refine_delta is exactly zero
    diff = np.abs(vals[j] - vals[k]).max(axis=0)
    g = diff.max(axis=1)
    g_base = diff[:, coarse_idx].max(axis=1)
    return g_base, (g - g_base) / np.maximum(g, 1e-300)


def sample_g(
    family: ShiftFamily,
    region: StripRegion,
    T: float,
    n_samples: int,
    seed: int,
    refine: bool = True,
    threads: int = 1,
):
    """Seeded tau samples and their g values; the workhorse for all densities.

    Sampling and evaluation proceed in fixed blocks (deterministic regardless
    of thread count).
    """
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    _check_limit("T", T, IM_CAP, "|Im s|", family.max_abs_shift, region.t_abs_max, "K's largest |t|")
    taus = uniform_samples(seed, n_samples, 0.0, T)

    def work(i0, i1):
        return g_values(taus[i0:i1], family, region, refine=refine)

    g, deltas = map_blocks(work, n_samples, threads)
    return taus, g, deltas


def _count_below(g, x):
    """(number of samples of g strictly below x, number of samples), x a
    scalar or an array; g is checked here, in any order."""
    g = np.asarray(g, dtype=float)
    if g.ndim != 1:
        raise DomainError(f"g must be a one-dimensional sample array, got shape {g.shape}")
    if len(g) == 0 or np.isnan(g).any():
        raise DomainError("g needs at least one sample and no NaN")
    return np.searchsorted(np.sort(g), x, side="left"), len(g)


def density_from_samples(g: np.ndarray, epsilon: float, T: float) -> DensityEstimate:
    """Re-analyse stored g samples at a (possibly new) eps without re-evaluating L."""
    if not (0.0 < epsilon < math.inf and 0.0 < T < math.inf):
        raise DomainError(f"epsilon and T must be finite and positive, got {epsilon!r} and {T!r}")
    below, n = _count_below(g, epsilon)
    hits = int(below)
    lo, hi = wilson_interval(hits, n)
    return DensityEstimate(epsilon, T, n, hits, hits / n, lo, hi)


def empirical_cdf(g, x):
    """F_T(x), the share of the samples g (any order) strictly below x: a
    float for a scalar x, an array for an array x."""
    below, n = _count_below(g, x)
    return float(below / n) if np.ndim(x) == 0 else below / n


# 100 cells over the pooled 1%-99% range, about 1% of the mass each: the grid
# misses at most about 0.01 of a sup-distance, below the KS noise threshold
_N_GRID = 101
# a cell above this multiple of the median cell mass holds an atom of the
# limit distribution; a continuous density varies far less between cells
_JUMP_FACTOR = 8.0


def _continuity_safe_grid(pooled: np.ndarray):
    """x grid between the pooled 1%-99% quantiles, minus detected jump clusters.

    A cell whose pooled empirical-mass increment exceeds _JUMP_FACTOR times
    the median increment is flagged as a candidate discontinuity of the limit
    distribution and excluded from sup-distance evaluation.
    """
    lo = float(np.quantile(pooled, 0.01))
    hi = float(np.quantile(pooled, 0.99))
    if hi <= lo:
        return np.array([lo]), []
    edges = np.linspace(lo, hi, _N_GRID)
    counts = np.histogram(pooled, bins=edges)[0].astype(float)
    med = max(float(np.median(counts)), 1.0)
    bad = counts > _JUMP_FACTOR * med
    flagged = [(float(edges[i]), float(edges[i + 1])) for i in np.flatnonzero(bad)]
    keep = np.ones(_N_GRID, dtype=bool)
    for i in np.flatnonzero(bad):
        keep[i] = keep[i + 1] = False
    return edges[keep], flagged


def convergence_diagnostic(
    family: ShiftFamily,
    region: StripRegion,
    T_ladder: Sequence[float],
    n_samples: int = 256,
    seed: int = 0,
    threads: int = 1,
) -> dict:
    """Sup-distances between consecutive F_T along an increasing T ladder.

    Distances are evaluated on a continuity-safe x grid; x cells carrying a
    jump cluster are reported as candidate exceptional eps regions instead.
    """
    T_ladder = list(T_ladder)
    if not T_ladder:
        raise DomainError("T_ladder needs at least one horizon")
    if any(b <= a for a, b in zip(T_ladder, T_ladder[1:])):
        raise DomainError("T_ladder must be strictly increasing")
    # every rung, before any draw
    for T in T_ladder:
        _check_limit("T", T, IM_CAP, "|Im s|", family.max_abs_shift, region.t_abs_max, "K's largest |t|")
    samples = []
    for i, T in enumerate(T_ladder):
        _, g, _ = sample_g(
            family, region, T, n_samples, seed=seed + 7919 * i, refine=False, threads=threads
        )
        samples.append(g)
    xs, flagged = _continuity_safe_grid(np.concatenate(samples))
    cdfs = [empirical_cdf(s, xs) for s in samples]
    distances = [
        float(np.max(np.abs(a - b))) if len(xs) else 0.0
        for a, b in zip(cdfs, cdfs[1:])
    ]
    return {
        "T_ladder": [float(T) for T in T_ladder],
        "n_samples": n_samples,
        "distances": distances,
        "noise_threshold": ks_two_sample_threshold(n_samples, n_samples),
        "flagged_intervals": flagged,
        "x_grid": [float(x) for x in xs],
    }
