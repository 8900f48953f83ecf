"""Reproducible Monte Carlo plumbing: block-seeded sampling and Wilson intervals.

All randomness flows from one 64-bit master seed.  Samples are produced in
fixed-size blocks; block b uses Generator(PCG64(SeedSequence((seed, b)))).
Because the per-block streams depend only on (seed, block index) and results
are always reassembled in block order, output is bit-identical regardless of
how many worker threads processed the blocks.
"""

import math

import numpy as np

BLOCK_SIZE = 4096

Z95 = 1.959963984540054  # two-sided 95% normal quantile


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block_index))))


def block_slices(n: int):
    return [(i, min(i + BLOCK_SIZE, n)) for i in range(0, n, BLOCK_SIZE)]


def uniform_samples(seed: int, n: int, low: float, high: float) -> np.ndarray:
    """n iid U(low, high) samples, assembled block by block."""
    out = np.empty(n)
    for b, (i0, i1) in enumerate(block_slices(n)):
        out[i0:i1] = block_rng(seed, b).uniform(low, high, i1 - i0)
    return out


def map_blocks(fn, n: int, threads: int = 1) -> list:
    """Apply fn(i0, i1) to each block of range(n); results in block order."""
    slices = block_slices(n)
    if threads <= 1 or len(slices) <= 1:
        return [fn(i0, i1) for i0, i1 in slices]
    # imported here: it pulls in logging, about 8 ms that serial runs skip
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, i0, i1) for i0, i1 in slices]
        return [f.result() for f in futures]


def wilson_interval(hits: int, n: int, z: float = Z95):
    """Wilson score interval for a binomial proportion."""
    if n < 1:
        raise ValueError("need at least one sample")
    p = hits / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


def binomial_stderr(hits: int, n: int) -> float:
    p = hits / n
    return math.sqrt(max(p * (1 - p), 1.0 / n) / n)


def ks_two_sample_threshold(n1: int, n2: int, alpha: float = 0.05) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov rejection threshold."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    return c * math.sqrt((n1 + n2) / (n1 * n2))
