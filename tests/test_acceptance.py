"""End-to-end acceptance gate.

Ten independent criteria, each printing a single PASS/FAIL line.  Values
marked as pinned are seeded regression numbers recorded from the first
successful run of this suite; they guard against silent behavior drift, not
against theory.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from oracles import binomial_stderr, coprime_power_tail, l_oracle
from selfapprox.characters import character_from_id, enumerate_characters
from selfapprox.cli import main as cli_main
from selfapprox.density import (
    ShiftFamily,
    convergence_diagnostic,
    density_from_samples,
    sample_g,
)
from selfapprox.diophantine import (
    KroneckerTarget,
    find_rational_relations,
    find_tau_in_set,
    in_kronecker_set,
    measure_kronecker_density,
)
from selfapprox.lfunc import StripRegion, l_value
from selfapprox.meanvalue import carlson_mean_value

CHI4 = character_from_id("4:1")
REGION = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)
FAMILY = ShiftFamily((1.0, 2.0), (CHI4, CHI4))


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:2d}] {label}: {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed{suffix}"


def _euler_phi(q: int) -> int:
    return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)


def test_01_character_suite():
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(1)
    for q in range(1, 201):
        chars = enumerate_characters(q)
        ok &= len(chars) == _euler_phi(q)
        for chi in chars:
            if chi.principal:
                continue
            total = sum(chi(n) for n in range(1, q + 1) if chi(n) is not None)
            ok &= abs(total) < 1e-12
    moduli = [3, 4, 5, 7, 8, 12, 60, 101, 144, 197]
    for _ in range(10**4):
        q = moduli[rng.integers(len(moduli))]
        chi = enumerate_characters(q)[rng.integers(_euler_phi(q))]
        m, n = int(rng.integers(1, 10**6)), int(rng.integers(1, 10**6))
        a, b, c = chi(m), chi(n), chi(m * n)
        if a is None or b is None:
            ok &= c is None
        else:
            ok &= abs(a * b - c) < 1e-12
    elapsed = time.time() - t0
    _report(1, "character suite q<=200", ok and elapsed < 10.0, f"{elapsed:.1f}s")


def test_02_evaluator_oracle_equivalence():
    t0 = time.time()
    ok = abs(l_value(2.0 + 0j, character_from_id("1:0")) - 1.6449340668482264) < 1e-10
    rng = np.random.default_rng(2)
    chars = [c for q in range(1, 13) for c in enumerate_characters(q)]
    worst = 0.0
    for _ in range(100):
        chi = chars[rng.integers(len(chars))]
        s = complex(rng.uniform(1.5, 3.0), rng.uniform(-20.0, 20.0))
        gap = abs(l_value(s, chi) - l_oracle(s, chi))
        worst = max(worst, gap)
    ok &= worst < 1e-8
    elapsed = time.time() - t0
    _report(2, "L oracle equivalence", ok and elapsed < 60.0,
            f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_03_kronecker_volume_law():
    t0 = time.time()
    target = KroneckerTarget((1.0,), 1, 0.1, 5)
    n = 10**6  # the sample size the binomial standard error is taken at
    density, _ = measure_kronecker_density(target, 1e5)
    expected = target.expected_density
    se = binomial_stderr(int(round(density * n)), n)
    ok = abs(density - expected) / expected < 0.30
    ok &= abs(density - expected) < 3 * se
    elapsed = time.time() - t0
    _report(3, "Kronecker volume law (2*delta)^(lM)", ok and elapsed < 60.0,
            f"density {density:.6f} vs {expected:.6f}, {elapsed:.1f}s")


def test_04_constructive_tau():
    t0 = time.time()
    target = KroneckerTarget((1.0,), 1, 0.05, 3)
    hits = find_tau_in_set(target, 1e4)
    ok = len(hits) > 0 and all(in_kronecker_set(t, target) for t in hits)
    elapsed = time.time() - t0
    _report(4, "constructive tau search", ok and elapsed < 60.0,
            f"{len(hits)} hits, {elapsed:.1f}s")


def test_05_carlson_identity():
    t0 = time.time()
    res = carlson_mean_value(CHI4, 0.75 + 0j, 20, 1.0, 5000.0, 50000, seed=3, threads=4)
    oracle = coprime_power_tail(CHI4, 20, 1.5)
    ok = abs(res.empirical - oracle) / oracle < 0.15
    ok &= abs(res.theoretical - oracle) < 1e-4
    elapsed = time.time() - t0
    _report(5, "Carlson mean value", ok and elapsed < 1800.0,
            f"empirical {res.empirical:.5f} vs {oracle:.5f}, {elapsed:.1f}s")


def test_06_positivity_probe():
    t0 = time.time()
    _, g, _ = sample_g(FAMILY, REGION, 2000.0, 400, seed=20260824, refine=False, threads=4)
    est = density_from_samples(g, 1.0, 2000.0)
    ok = est.ci_lo > 0.0
    # pinned seeded regression values from the first successful run
    ok &= est.hits == 73
    ok &= est.density == pytest.approx(0.1825, abs=0.0)
    elapsed = time.time() - t0
    _report(6, "positivity of approximation density", ok,
            f"density {est.density:.4f}, ci_lo {est.ci_lo:.4f}, {elapsed:.1f}s")


def test_07_degenerate_exactness():
    t0 = time.time()
    degenerate = ShiftFamily((1.0, 1.0), (CHI4, CHI4))
    _, g, _ = sample_g(degenerate, REGION, 500.0, 128, seed=1, refine=False)
    ok = bool(np.all(g <= 1e-12))
    _, g64, _ = sample_g(degenerate, REGION, 500.0, 64, seed=2, refine=False)
    for eps in (1e-9, 1e-3, 1.0):
        ok &= density_from_samples(g64, eps, 500.0).density == 1.0
    elapsed = time.time() - t0
    _report(7, "degenerate family exactness", ok and elapsed < 60.0,
            f"max g {float(np.max(g)):.2e}, {elapsed:.1f}s")


def test_08_distribution_convergence_trend():
    t0 = time.time()
    report = convergence_diagnostic(
        FAMILY, REGION, [1000.0, 2000.0, 4000.0],
        n_samples=256, seed=42, threads=4,
    )
    d12, d24 = report["distances"]
    ok = d24 <= d12 + report["noise_threshold"]
    # pinned seeded regression values from the first successful run
    ok &= d12 == pytest.approx(0.12109375, abs=0.0)
    ok &= d24 == pytest.approx(0.09765625, abs=0.0)
    elapsed = time.time() - t0
    _report(8, "F_T convergence trend", ok,
            f"distances {d12:.5f}, {d24:.5f}, {elapsed:.1f}s")


def test_09_relation_finder_exactness():
    d = [1, Fraction(1, 2), Fraction(1, 3)]
    rel = find_rational_relations(d)
    ok = rel.denominator == 6
    ok &= rel.coefficients == ((3,), (2,))
    ok &= rel.bound_A == 3
    ok &= rel.verify(d)
    indep = find_rational_relations([1.0, math.sqrt(2)], mode="float",
                                    tolerance=1e-10, coeff_cap=10**6)
    ok &= indep.independent_indices == (0, 1) and indep.dependent_indices == ()
    _report(9, "relation finder exactness", ok)


def test_10_manifest_determinism(tmp_path):
    base = tmp_path / "base"
    rc = cli_main([
        "scan-density", "--d", "1,2", "--chars", "4:1,4:1", "--eps", "1.0",
        "--T", "500", "--samples", "256", "--seed", "13", "--refine", "0",
        "--threads", "1", "--output-dir", str(base),
    ])
    ok = rc == 0
    reference = (base / "results.json").read_bytes()
    for threads in (1, 4, 8):
        out = tmp_path / f"threads{threads}"
        rc = cli_main([
            "rerun", str(base / "manifest.json"),
            "--output-dir", str(out), "--threads", str(threads),
        ])
        ok &= rc == 0
        ok &= (out / "results.json").read_bytes() == reference
        ok &= (out / "samples.csv").read_bytes() == (base / "samples.csv").read_bytes()
    density = json.loads(reference)["density"]
    _report(10, "manifest rerun determinism", ok, f"density {density}")
