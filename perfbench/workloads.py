"""The benchmark's workloads: fixed inputs, set-up, timed calls and checks.

Each workload drives the program only through `selfapprox.cli.main` and the
public package API.  A workload has three parts:

* ``setup``: import the package and resolve the workload's characters, shift
  family, region or Kronecker targets (this is what `setup_s` times);
* ``run``: the timed CLI/API calls at the stated input size (`run_s`);
* ``check``: correctness checks on the outputs, made after the timed region.

Nothing here imports selfapprox at module level, so that importing this file
costs the set-up measurement almost nothing.
"""

import hashlib
import json
import math
import os

# Input sizes are chosen so one invocation runs for about a second on a
# 2-core x86-64 machine, so that a run holds a few dozen of them and the
# upper quartile of their times (see run.py) is steady.
DENSITY_SAMPLES = 32
CARLSON_SAMPLES = 120
B2_SAMPLES = 24
CHAR_MODULI = range(1, 121)
KRONECKER_SAMPLES = 4_000_000
FIND_TAU_BOUND = 1e6
FIND_TAU_MAX_RESULTS = 1_000_000

# |empirical - theoretical| of the Carlson mean value, in units of its own
# standard error.  |L - L_y|^2 is heavy tailed, so at a few hundred samples
# the sample mean sits several standard errors low far more often than a
# normal law would say: at 300 samples over seeds 0..239 the lowest z was
# -4.4, and 12 of the 240 were below -3; at the 120 samples used here, over
# seeds 0..149, the lowest was -4.1.
CARLSON_MAX_Z = 7.0
# The same outliers inflate the standard error, so a badly wrong evaluator
# can pass the z test; the relative gap over those seeds was at most 0.21
# (0.28 at 120 samples).
CARLSON_MAX_GAP = 0.5
# Kronecker density against the volume law, in binomial standard errors.
KRONECKER_MAX_Z = 4.0


def _region_args():
    return [
        "--sigma-range=0.65,0.75",
        "--t-range=-0.5,0.5",
        "--margin=0.02",
        "--grid=3x3",
    ]


def density_argv(seed, threads, outdir):
    return [
        "scan-density", "--d=1,2", "--chars=4:1,4:1", "--eps=1.0", "--T=2000",
        f"--samples={DENSITY_SAMPLES}", *_region_args(), "--refine=1",
        f"--seed={seed}", f"--threads={threads}", f"--output-dir={outdir}",
    ]


def carlson_argv(seed, threads, outdir):
    return [
        "mean-value", "--char=60:1", "--sigma=0.75", "--t=0", "--y=20", "--x=1",
        "--T=5000", f"--samples={CARLSON_SAMPLES}",
        f"--seed={seed}", f"--threads={threads}", f"--output-dir={outdir}",
    ]


def b2_argv(seed, threads, outdir):
    return [
        "b2", "--d=1,2", "--chars=4:1,4:1", "--N-ladder=10,100,1000", "--T=2000",
        f"--samples={B2_SAMPLES}", *_region_args(),
        f"--seed={seed}", f"--threads={threads}", f"--output-dir={outdir}",
    ]


def kronecker_argv(seed, outdir):
    return [
        "kronecker", "--d=1", "--a=1", "--delta=0.1", "--primes-upto=5", "--T=1e5",
        f"--samples={KRONECKER_SAMPLES}", f"--seed={seed}", f"--output-dir={outdir}",
    ]


def find_tau_argv(outdir):
    return [
        "find-tau", "--d=1", "--a=1", "--delta=0.05", "--primes-upto=7", f"--bound={FIND_TAU_BOUND:g}",
        "--strategy=grid", f"--max-results={FIND_TAU_MAX_RESULTS}", f"--output-dir={outdir}",
    ]


def euler_phi(q):
    """phi(q) by counting units, independent of the package's characters."""
    return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)


def digests(outdir):
    """sha256 of every results.json and samples.csv an invocation wrote."""
    out = {}
    for sub in sorted(os.listdir(outdir)):
        for name in ("results.json", "samples.csv"):
            path = os.path.join(outdir, sub, name)
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    out[f"{sub}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


class Ops:
    """Operations attempted by one invocation: CLI calls, API steps, checks."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append({"op": name, "ok": bool(ok), "detail": str(detail)})
        return bool(ok)

    def cli(self, tracer, main, argv):
        """One CLI invocation, in a `cli.main` span; returns True on exit code 0."""
        command = argv[0]
        outdir = next(a.split("=", 1)[1] for a in argv if a.startswith("--output-dir="))
        with tracer.span("cli.main", command=command) as attrs:
            rc = main(argv)
        if rc == 0 and tracer.enabled:
            attrs["bytes_written"] = _dir_bytes(outdir)
        return self.add(f"cli {command}", rc == 0, f"exit code {rc}")


# ---------------------------------------------------------------------------
# density
#
# Why: the paper's headline estimator, scan-density on chi_4 x chi_4 with
# d = (1, 2), T = 2000, a 3x3 grid refined to 5x5.  Its cost is lfunc power
# sums at |Im s| <= 4000 over 25 grid points per shift, plus the pairwise
# reduction in density.  The separable-grid kernel and refinement changes
# show here.


def density_setup():
    import selfapprox
    from selfapprox import cli

    chars = tuple(selfapprox.character_from_id(c) for c in ("4:1", "4:1"))
    family = selfapprox.ShiftFamily((1.0, 2.0), chars)
    region = selfapprox.StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)
    return {"main": cli.main, "family": family, "region": region}


def density_run(ctx, seed, threads, outdir, tracer, ops):
    ops.cli(tracer, ctx["main"], density_argv(seed, threads, os.path.join(outdir, "density")))


def density_check(ctx, outdir, ops):
    d = os.path.join(outdir, "density")
    res = _load(os.path.join(d, "results.json"))
    ok = res["n_samples"] == DENSITY_SAMPLES and _finite(res["density"], res["ci_lo"], res["ci_hi"])
    ops.add("density results finite", ok, res.get("density"))
    with open(os.path.join(d, "samples.csv")) as fh:
        rows = fh.read().splitlines()[1:]
    values = [float(x) for row in rows for x in row.split(",")]
    ops.add("density samples finite", len(rows) == DENSITY_SAMPLES and _finite(*values), len(rows))
    return {"hits": res["hits"]}


# ---------------------------------------------------------------------------
# meanvalue
#
# Why: uses lfunc differently from density.  Carlson (chi = 60:1, sigma =
# 0.75, y = 20, T = 5000) takes one point per tau and phi(60) = 16 Hurwitz
# passes per point, and l_partial_sum runs on every call; b2 on chi_4 x chi_4
# with the N ladder 10,100,1000 re-evaluates identical L values once per rung.
# The one-Dirichlet-sum, partial-sum reuse and B^2-caching changes show here;
# a per-(chi, grid) precomputed matrix does not.


def meanvalue_setup():
    import selfapprox
    from selfapprox import cli

    chi60 = selfapprox.character_from_id("60:1")
    chi4 = selfapprox.character_from_id("4:1")
    family = selfapprox.ShiftFamily((1.0, 2.0), (chi4, chi4))
    region = selfapprox.StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)
    return {"main": cli.main, "chi": chi60, "family": family, "region": region}


def meanvalue_run(ctx, seed, threads, outdir, tracer, ops):
    ops.cli(tracer, ctx["main"], carlson_argv(seed, threads, os.path.join(outdir, "carlson")))
    ops.cli(tracer, ctx["main"], b2_argv(seed, threads, os.path.join(outdir, "b2")))


def meanvalue_check(ctx, outdir, ops):
    c = _load(os.path.join(outdir, "carlson", "results.json"))
    finite = _finite(c["empirical"], c["theoretical"], c["stderr"], c["relative_gap"])
    z = (c["empirical"] - c["theoretical"]) / c["stderr"] if finite and c["stderr"] > 0 else math.inf
    ok = finite and abs(z) <= CARLSON_MAX_Z and c["relative_gap"] <= CARLSON_MAX_GAP
    ops.add("carlson within stderr of the theoretical value", ok, f"z = {z:.3f}, gap = {c['relative_gap']}")
    b = _load(os.path.join(outdir, "b2", "results.json"))
    est = b["estimates"]
    ok = len(est) == 3 and _finite(*est) and all(x > y for x, y in zip(est, est[1:]))
    ops.add("b2 decreasing along N ladder", ok, est)
    return {"carlson_z": z, "carlson_relative_gap": c["relative_gap"], "b2_estimates": est}


# ---------------------------------------------------------------------------
# arithmetic
#
# Why: no L evaluation at all.  It exercises characters (enumerate_characters
# for every q <= 120 on a cold cache), diophantine and sampling (kronecker,
# delta = 0.1, p <= 5, T = 1e5, 4e6 samples) and cli I/O (find-tau grid,
# delta = 0.05, p <= 7, bound 1e6, the whole bound searched).  Every L-kernel
# change is predicted to leave it unchanged; the character-matrix rewrite and
# the interval sweep show in run_s, per-block tau generation in peak_rss_mb.


def arithmetic_setup():
    import selfapprox
    from selfapprox import cli

    kron = selfapprox.KroneckerTarget((1.0,), 1, 0.1, 5)
    find = selfapprox.KroneckerTarget((1.0,), 1, 0.05, 7)
    return {
        "main": cli.main,
        "enumerate": selfapprox.enumerate_characters,
        "in_set": selfapprox.in_kronecker_set,
        "kron_target": kron,
        "find_target": find,
    }


def arithmetic_run(ctx, seed, threads, outdir, tracer, ops):
    counts = {}
    for q in CHAR_MODULI:
        with tracer.span("characters.enumerate", q=q) as attrs:
            chars = ctx["enumerate"](q)
        attrs["entries"] = len(chars) * q
        counts[q] = len(chars)
    ctx["char_counts"] = counts
    ops.add(f"enumerate_characters q <= {CHAR_MODULI.stop - 1}", True)
    ops.cli(tracer, ctx["main"], kronecker_argv(seed, os.path.join(outdir, "kronecker")))
    ops.cli(tracer, ctx["main"], find_tau_argv(os.path.join(outdir, "find-tau")))


def arithmetic_check(ctx, outdir, ops):
    bad = [q for q, n in ctx["char_counts"].items() if n != euler_phi(q)]
    ops.add("len(enumerate_characters(q)) == phi(q)", not bad, bad)

    k = _load(os.path.join(outdir, "kronecker", "results.json"))
    target = ctx["kron_target"]
    expected = target.expected_density
    se = math.sqrt(expected * (1.0 - expected) / KRONECKER_SAMPLES)
    z = (k["density"] - expected) / se if _finite(k["density"]) else math.inf
    ok = abs(k["expected_density"] - expected) < 1e-15 and abs(z) <= KRONECKER_MAX_Z
    ops.add("kronecker density within binomial stderr", ok, f"z = {z:.3f}")

    f = os.path.join(outdir, "find-tau")
    res = _load(os.path.join(f, "results.json"))
    with open(os.path.join(f, "samples.csv")) as fh:
        hits = [float(x) for x in fh.read().splitlines()[1:]]
    find = ctx["find_target"]
    ok = (
        len(hits) == res["n_hits"] > 0
        and res["n_hits"] < FIND_TAU_MAX_RESULTS
        and all(0.0 <= t <= FIND_TAU_BOUND for t in hits)
    )
    ops.add("find-tau covered the whole bound", ok, res["n_hits"])
    outside = [t for t in hits if not ctx["in_set"](t, find)]
    ops.add("find-tau hits pass in_kronecker_set", not outside, len(outside))
    return {"kronecker_z": z, "find_tau_hits": res["n_hits"]}


WORKLOADS = {
    "density": {
        "setup": density_setup, "run": density_run, "check": density_check,
        "threads": 2, "traced_threads": 1,
        "accuracy_sets": ("density",),
    },
    "meanvalue": {
        "setup": meanvalue_setup, "run": meanvalue_run, "check": meanvalue_check,
        "threads": 2, "traced_threads": 2,
        "accuracy_sets": ("carlson", "b2"),
    },
    "arithmetic": {
        "setup": arithmetic_setup, "run": arithmetic_run, "check": arithmetic_check,
        "threads": 1, "traced_threads": 1,
        # no L evaluation: reports the evaluator error on the other
        # workloads' fixed points so that every workload has the metric
        "accuracy_sets": ("density", "carlson", "b2"),
    },
}


def parameters(name, seed):
    """The workload's CLI argument lists, recorded with every result."""
    out = "<outdir>"
    spec = WORKLOADS[name]
    if name == "density":
        return {"argv": [density_argv(seed, spec["threads"], out)]}
    if name == "meanvalue":
        return {"argv": [carlson_argv(seed, spec["threads"], out), b2_argv(seed, spec["threads"], out)]}
    return {
        "enumerate_characters": f"q = {CHAR_MODULI.start}..{CHAR_MODULI.stop - 1}",
        "argv": [kronecker_argv(seed, out), find_tau_argv(out)],
    }
