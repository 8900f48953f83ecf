import dataclasses
import functools
import math

import numpy as np
import pytest

from selfapprox import density as density_module
from selfapprox import lfunc
from selfapprox.characters import character_from_id, enumerate_characters
from selfapprox.cli import main
from selfapprox.density import (
    DensityEstimate,
    EmpiricalDistribution,
    ShiftFamily,
    convergence_diagnostic,
    density_from_samples,
    empirical_distribution,
    estimate_density,
    g_value,
    g_values,
    sample_g,
)
from selfapprox.diophantine import KroneckerTarget, find_tau_in_set
from selfapprox.errors import DomainError, RangeError
from selfapprox.lfunc import DEFAULT_CONFIG, StripRegion, l_partial_sum, l_truncated, l_value
from selfapprox.sampling import ks_two_sample_threshold

CHI4 = character_from_id("4:1")
CHI3 = character_from_id("3:1")
REGION = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)
POINT = StripRegion(0.7, 0.7, 0.0, 0.0, margin=0.05, grid_sigma=1, grid_t=1)
FAMILY = ShiftFamily((1.0, 2.0), (CHI4, CHI4))
DEGENERATE = ShiftFamily((1.0, 1.0), (CHI4, CHI4))
MIXED = ShiftFamily((1.0, 2.0, 0.5), (CHI4, CHI4, CHI3))


def test_family_validation():
    with pytest.raises(DomainError):
        ShiftFamily((1.0,), (CHI4,))
    with pytest.raises(DomainError):
        ShiftFamily((1.0, float("inf")), (CHI4, CHI4))
    with pytest.raises(DomainError):
        ShiftFamily((1.0, 2.0), (CHI4,))
    fam = ShiftFamily((0.0, 1.0), (CHI4, CHI3))  # zero shifts allowed here
    assert fam.m == 2


def test_degenerate_family_gives_zero():
    for tau in (0.0, 3.7, 55.1):
        assert g_value(tau, DEGENERATE, REGION) == 0.0


def test_tau_zero_with_equal_characters():
    fam = ShiftFamily((1.0, 5.0), (CHI4, CHI4))
    assert g_value(0.0, fam, REGION) == 0.0


def test_point_region_matches_direct_difference():
    expected = abs(l_value(0.7 + 1j, CHI4) - l_value(0.7 + 2j, CHI4))
    assert g_value(1.0, FAMILY, POINT) == pytest.approx(expected, abs=1e-12)


def test_two_configurations_agree(monkeypatch):
    # the evaluator reads lfunc.DEFAULT_CONFIG when called
    monkeypatch.setattr(lfunc, "DEFAULT_CONFIG", dataclasses.replace(DEFAULT_CONFIG, em_order=24, shift_count=50))
    ga, _ = g_values([1.0], FAMILY, POINT)
    monkeypatch.setattr(lfunc, "DEFAULT_CONFIG", dataclasses.replace(DEFAULT_CONFIG, em_order=16, shift_count=120))
    gb, _ = g_values([1.0], FAMILY, POINT)
    assert abs(ga[0] - gb[0]) < 1e-8


def test_g_values_looks_up_l_value_when_called(monkeypatch):
    # the default evaluator is density.l_value as it is at call time, so a
    # wrapper installed on that name sees every default evaluation
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].label)
        return l_value(*args, **kwargs)

    monkeypatch.setattr(density_module, "l_value", counting)
    g_values([1.0], FAMILY, POINT)
    assert calls == ["4:1"]  # one call per distinct character
    calls.clear()
    g_values([1.0], MIXED, POINT)
    assert calls == ["4:1", "3:1"]


def _member_by_member(taus, family, region, refine, evaluator):
    """g_values as an oracle: one evaluator call per family member."""
    grid, coarse_idx = region.grid_points(refine)
    vals = [evaluator(grid, chi, shifts=d * taus) for d, chi in zip(family.shifts, family.characters)]
    g_fine = np.zeros(len(taus))
    g_base = np.zeros(len(taus))
    for j in range(family.m):
        for k in range(j + 1, family.m):
            diff = np.abs(vals[j] - vals[k])
            g_fine = np.maximum(g_fine, diff.max(axis=1))
            g_base = np.maximum(g_base, diff[:, coarse_idx].max(axis=1))
    delta = (g_fine - g_base) / np.maximum(g_fine, 1e-300) if refine else np.zeros(len(taus))
    return g_base, delta


@pytest.mark.parametrize("family", [FAMILY, MIXED], ids=["chi4-chi4", "chi4-chi4-chi3"])
@pytest.mark.parametrize("evaluator", [
    l_value,
    functools.partial(l_partial_sum, n_max=100),
    lambda s, chi, shifts: l_truncated(s[None, :] + 1j * shifts[:, None], chi, 5.0),
], ids=["l_value", "partial-sum", "truncated"])
def test_g_values_matches_one_call_per_member(family, evaluator):
    # members that share a character share one evaluator call, their shifts
    # concatenated; each value depends on its own (shift, point) pair alone,
    # so the merge changes no bit
    taus = np.random.default_rng(5).uniform(0.0, 2000.0, 70)
    for refine in (False, True):
        got = g_values(taus, family, REGION, refine=refine, evaluator=evaluator)
        want = _member_by_member(taus, family, REGION, refine, evaluator)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_pairwise_symmetry_of_max():
    taus = np.linspace(0.5, 20.0, 8)
    fam3 = ShiftFamily((1.0, 2.0, 0.5), (CHI4, CHI4, CHI3))
    g, _ = g_values(taus, fam3, REGION, refine=False)
    grid, _ = REGION.grid_points(refine=False)
    # recompute with the full ordered double loop, from the same evaluator call
    vals = [l_value(grid, chi, shifts=d * taus) for d, chi in zip(fam3.shifts, fam3.characters)]
    full = np.zeros(len(taus))
    for j in range(3):
        for k in range(3):
            full = np.maximum(full, np.abs(vals[j] - vals[k]).max(axis=1))
    assert np.allclose(g, full, rtol=0, atol=0)


def test_refine_delta_reported():
    # the estimators that write no refine delta take the base grid alone, so
    # refinement must leave the base-grid g bit-identical
    regions = [
        REGION,
        StripRegion(0.62, 0.78, -1.0, 2.0, margin=0.02, grid_sigma=2, grid_t=4),
        StripRegion(0.7, 0.7, -0.5, 0.5, margin=0.05, grid_sigma=1, grid_t=3),
        POINT,
    ]
    taus = [0.0, 4.0, 37.5, 1234.25]
    for region in regions:
        g, delta = g_values(taus, FAMILY, region, refine=True)
        assert np.all(delta >= 0.0)
        g2, delta2 = g_values(taus, FAMILY, region, refine=False)
        assert np.all(delta2 == 0.0)
        assert np.array_equal(g, g2), region


def test_indicator_strictness():
    est = density_from_samples(np.array([0.3]), 0.3, 1.0)
    assert est.hits == 0  # g = eps does not count: strict "<"


def test_density_monotone_in_eps_and_matches_cdf():
    _, g, _ = sample_g(FAMILY, REGION, 200.0, 96, seed=4, refine=False)
    d_small = density_from_samples(g, 0.4, 200.0)
    d_big = density_from_samples(g, 1.2, 200.0)
    assert d_small.density <= d_big.density
    dist = EmpiricalDistribution(np.sort(g), 200.0)
    for eps in (0.4, 0.8, 1.2):
        assert density_from_samples(g, eps, 200.0).density == dist.cdf(eps)


def test_degenerate_density_is_one():
    est = estimate_density(1e-9, 100.0, DEGENERATE, REGION, n_samples=32, seed=0)
    assert est.density == 1.0 and est.hits == 32
    assert est.ci_hi == 1.0


def test_cap_validation_reports_usable_horizon():
    with pytest.raises(RangeError) as err:
        estimate_density(1.0, 1e6, FAMILY, REGION, n_samples=8, seed=0)
    assert "largest usable T" in str(err.value)


def test_stream_and_reanalysis(tmp_path):
    # the samples.csv of a scan-density run is enough to re-analyse at any eps
    assert main([
        "scan-density", "--d", "1,2", "--chars", "4:1,4:1", "--eps", "1", "--T", "100",
        "--samples", "48", "--seed", "5", "--output-dir", str(tmp_path),
    ]) == 0
    _, g, _ = sample_g(FAMILY, REGION, 100.0, 48, seed=5, refine=True)
    path = tmp_path / "samples.csv"
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "tau,g_value,refine_delta"
    assert len(rows) == 49
    loaded = np.loadtxt(str(path), delimiter=",", skiprows=1)
    assert np.array_equal(loaded[:, 1], g)
    # re-analysis at a new eps uses only stored values
    est = density_from_samples(loaded[:, 1], 0.7, 100.0)
    assert est.hits == int(np.count_nonzero(g < 0.7))


def test_threaded_sampling_deterministic():
    _, g1, _ = sample_g(FAMILY, REGION, 150.0, 64, seed=8, threads=1, refine=False)
    _, g4, _ = sample_g(FAMILY, REGION, 150.0, 64, seed=8, threads=4, refine=False)
    assert np.array_equal(g1, g4)


def test_empirical_distribution_degenerate_step():
    dist = empirical_distribution(50.0, DEGENERATE, REGION, n_samples=16, seed=1)
    assert dist.cdf(0.0) == 0.0  # strict "< x"
    assert dist.cdf(1e-300) == 1.0


def test_empirical_distribution_strict_at_zero():
    dist = empirical_distribution(200.0, FAMILY, REGION, n_samples=48, seed=2)
    assert dist.cdf(0.0) == 0.0
    assert np.median(dist.sample_values) > 0


def test_distribution_seed_consistency_ks():
    d1 = empirical_distribution(2000.0, FAMILY, POINT, n_samples=160, seed=21)
    d2 = empirical_distribution(2000.0, FAMILY, POINT, n_samples=160, seed=22)
    xs = np.linspace(0, float(d1.sample_values[-1]), 200)
    ks = float(np.max(np.abs(d1.cdf(xs) - d2.cdf(xs))))
    assert ks < ks_two_sample_threshold(160, 160)


def test_convergence_diagnostic_degenerate():
    report = convergence_diagnostic(
        DEGENERATE, REGION, [50.0, 100.0, 200.0], n_samples=16, seed=0
    )
    assert all(d == 0.0 for d in report["distances"])


def test_convergence_diagnostic_validates_ladder():
    with pytest.raises(DomainError):
        convergence_diagnostic(FAMILY, REGION, [100.0, 100.0], n_samples=8)
    with pytest.raises(DomainError):
        convergence_diagnostic(FAMILY, REGION, [], n_samples=8)


def test_kronecker_conditioned_enrichment_on_truncated():
    # restricting tau to the approximation set cannot raise the mean of the
    # truncated-product functional
    v = 5.0
    target = KroneckerTarget((1.0,), 1, 0.05, v)
    cond = np.array(find_tau_in_set(target, 8000.0)[:200])
    assert len(cond) >= 20
    uncond = np.linspace(0.0, 8000.0, 211)
    fam = ShiftFamily((1.0, 2.0), (CHI4, CHI4))
    def truncated(s, chi, shifts):
        return l_truncated(s[None, :] + 1j * shifts[:, None], chi, v)

    g_cond, _ = g_values(cond, fam, REGION, refine=False, evaluator=truncated)
    g_unc, _ = g_values(uncond, fam, REGION, refine=False, evaluator=truncated)
    assert np.mean(g_cond) <= np.mean(g_unc)
