"""One invocation of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD --spawned T0 --out DIR --result FILE
        [--seed N] [--threads K] [--setup-only] [--trace] [--accuracy]
    python3 perfbench/worker.py baseline --spawned T0 --out DIR --result FILE --seed N

T0 is the caller's time.perf_counter() taken just before it started this
process.  On Linux perf_counter reads the system-wide monotonic clock, so
`setup_s` counts from the process start: interpreter start-up, the package
import and the resolution of the workload's characters, family and region.
The process writes one JSON object to FILE; run.py reads it.
"""

import argparse
import json
import os
import resource
import time
import traceback


def _arguments():
    p = argparse.ArgumentParser()
    p.add_argument("workload")
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--accuracy", action="store_true")
    return p.parse_args()


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy(set_names, ops):
    """Largest |L - L_mpmath| over the fixed reference points of the given sets."""
    import reference

    ref = reference.load()
    rows = [row for name in set_names for row in reference.errors(ref, name)]
    over = [(label, str(s), err) for label, s, err, bound in rows if not err <= bound]
    ops.add("l_value within q * target_abs_error at reference points", not over, over)
    return max(err for _, _, err, _ in rows)


def invocation(args):
    import workloads

    spec = workloads.WORKLOADS[args.workload]
    ctx = spec["setup"]()
    setup_s = time.perf_counter() - args.spawned
    result = {"setup_s": setup_s}
    if args.setup_only:
        return result

    import spans

    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    else:
        tracer = spans.NullTracer()
    ops = workloads.Ops()
    t0 = time.perf_counter()
    try:
        spec["run"](ctx, args.seed, args.threads, args.out, tracer, ops)
        ran = True
    except Exception:
        ran = ops.add("workload raised", False, traceback.format_exc())
    result["run_s"] = time.perf_counter() - t0
    result["peak_rss_mb"] = _peak_rss_mb()

    # everything below is outside the timed region
    if ran and all(op["ok"] for op in ops.items):
        try:
            result["outputs"] = spec["check"](ctx, args.out, ops)
        except Exception:
            ops.add("checks raised", False, traceback.format_exc())
    if args.accuracy:
        result["max_abs_err"] = accuracy(spec["accuracy_sets"], ops)
    if args.trace:
        dump = tracer.dump()
        with open(os.path.join(args.out, "spans.json"), "w") as fh:
            json.dump(dump, fh)
        result["layers"] = {k: v for k, (v, _) in spans.layer_metrics(dump).items()}
    result["ops"] = ops.items
    return result


def baseline(args):
    """The ROADMAP baseline rows: g_values per tau and l_value per point."""
    import numpy as np

    import reference
    from selfapprox import (
        ShiftFamily, StripRegion, character_from_id, g_values, l_value,
    )

    out = {}
    chi4 = character_from_id("4:1")
    family = ShiftFamily((1.0, 2.0), (chi4, chi4))
    region = StripRegion(0.65, 0.75, -0.5, 0.5, margin=0.02, grid_sigma=3, grid_t=3)
    taus = np.random.default_rng(args.seed).uniform(0.0, 2000.0, 32)
    for refine in (0, 1):
        t0 = time.perf_counter()
        g_values(taus, family, region, refine=bool(refine))
        out[f"baseline.g_values_ms_refine{refine}"] = (time.perf_counter() - t0) * 1e3 / len(taus)

    errors = {(label, s): (err, bound) for label, s, err, bound in reference.errors(reference.load(), "baseline")}
    over = []
    for label in reference.BASELINE_CHARS:
        chi = character_from_id(label)
        q = chi.modulus
        for t in reference.BASELINE_T:
            s = complex(0.7, t)
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                l_value(s, chi)
                times.append(time.perf_counter() - t0)
            err, bound = errors[(label, s)]
            out[f"baseline.l_value_ms.q{q}.t{t}"] = float(np.median(times)) * 1e3
            out[f"baseline.l_value_err.q{q}.t{t}"] = err
            if not err <= bound:
                over.append(f"chi {label}, s = {s}: error {err:.3e} > q * target_abs_error = {bound:.0e}")
    return {"baseline": out, "baseline_over_bound": over}


def main():
    args = _arguments()
    if args.workload == "baseline":
        result = baseline(args)
    else:
        result = invocation(args)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
