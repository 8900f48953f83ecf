import json
import os
import runpy
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_span_hooks_find_every_wrapped_name():
    # perfbench/spans.py wraps names such as density.l_value and
    # diophantine.block_slices through getattr; a rename breaks every traced
    # benchmark run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _benchmark_module(name):
    # run_path compiles from source, so nothing is written under perfbench/
    return runpy.run_path(os.path.join(ROOT, "perfbench", name))


def test_arithmetic_workload_passes_the_benchmark_checks(tmp_path):
    # the benchmark's own run and checks (seed 7), among them the Kronecker
    # density within KRONECKER_MAX_Z binomial standard errors of the volume
    # and every find-tau hit a member: a change that would fail the
    # benchmark fails here first
    workloads, spans = _benchmark_module("workloads.py"), _benchmark_module("spans.py")
    ctx = workloads["arithmetic_setup"]()
    ops = workloads["Ops"]()
    workloads["arithmetic_run"](ctx, 7, 1, str(tmp_path), spans["NullTracer"](), ops)
    found = workloads["arithmetic_check"](ctx, str(tmp_path), ops)
    assert all(op["ok"] for op in ops.items), ops.items
    assert abs(found["kronecker_z"]) <= workloads["KRONECKER_MAX_Z"]


def test_meanvalue_workload_passes_the_benchmark_checks(tmp_path):
    # the benchmark's own Carlson and b2 runs and checks (seed 7): Carlson's
    # empirical mean within CARLSON_MAX_Z standard errors and CARLSON_MAX_GAP
    # of the tail sum, and the b2 estimates decreasing along the N ladder
    workloads, spans = _benchmark_module("workloads.py"), _benchmark_module("spans.py")
    ctx = workloads["meanvalue_setup"]()
    ops = workloads["Ops"]()
    workloads["meanvalue_run"](ctx, 7, 1, str(tmp_path), spans["NullTracer"](), ops)
    found = workloads["meanvalue_check"](ctx, str(tmp_path), ops)
    assert len(ops.items) == 4 and all(op["ok"] for op in ops.items), ops.items
    assert abs(found["carlson_z"]) <= workloads["CARLSON_MAX_Z"]
    assert found["carlson_relative_gap"] <= workloads["CARLSON_MAX_GAP"]


def test_density_workload_passes_the_benchmark_checks(tmp_path):
    # the benchmark's own scan-density run and checks for seeds 0-4, and its
    # hit counts against the table the benchmark checks every density run
    # against (perfbench/data/density_hits.json, read only): a last-digit
    # change in g that flips a hit fails here first
    workloads, spans = _benchmark_module("workloads.py"), _benchmark_module("spans.py")
    with open(os.path.join(ROOT, "perfbench", "data", "density_hits.json")) as fh:
        table = json.load(fh)
    assert table["argv"] == workloads["density_argv"]("<seed>", "<threads>", "<outdir>")
    ctx = workloads["density_setup"]()
    for seed in range(5):
        ops = workloads["Ops"]()
        outdir = str(tmp_path / str(seed))
        workloads["density_run"](ctx, seed, 1, outdir, spans["NullTracer"](), ops)
        found = workloads["density_check"](ctx, outdir, ops)
        assert len(ops.items) == 3 and all(op["ok"] for op in ops.items), ops.items
        assert found["hits"] == table["hits"][str(seed)], seed


# max_abs_err that BENCH_16.json recorded on every workload; a change that
# moves it on purpose updates this constant and says so in CHANGES.md
RECORDED_MAX_ABS_ERR = 9.155134e-16


def test_max_abs_err_stays_within_the_benchmark_bound():
    # each workload's max_abs_err as perfbench/worker.py's `accuracy` computes
    # it, over the workload's own reference point sets, against BENCHMARK.json's
    # own bound on how much worse it may get: shift-free sums contracted by
    # zdotc instead of numpy's pairwise sum read 1.351e-15 and 1.570e-15 here
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        (metric,) = [m for m in json.load(fh)["end_to_end"] if m["name"] == "max_abs_err"]
    workloads, reference = _benchmark_module("workloads.py"), _benchmark_module("reference.py")
    ref = reference["load"]()
    for name, spec in workloads["WORKLOADS"].items():
        rows = [row for s in spec["accuracy_sets"] for row in reference["errors"](ref, s)]
        err = max(err for _, _, err, _ in rows)
        assert err <= RECORDED_MAX_ABS_ERR * (1.0 + metric["bound"]), (name, err)


_TRACED_RUN = """
import json, sys, tempfile
import spans, workloads

tracer = spans.Tracer()
spans.install(tracer)
failed = []
for name, spec in workloads.WORKLOADS.items():
    ctx, ops = spec["setup"](), workloads.Ops()
    with tempfile.TemporaryDirectory() as outdir:
        spec["run"](ctx, 7, spec["traced_threads"], outdir, tracer, ops)
        spec["check"](ctx, outdir, ops)
    failed += [(name, op) for op in ops.items if not op["ok"]]
metrics = {k: v for k, (v, _) in spans.layer_metrics(tracer.dump()).items()}
print(json.dumps({"failed": failed, "metrics": metrics}))
"""


def test_traced_benchmark_runs_every_workload():
    # perfbench/run.py --trace 1 in one process: the span wrappers installed,
    # then each workload's run and checks at seed 7; a wrapper whose signature
    # no longer fits the program fails here, not only in a traced benchmark run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", _TRACED_RUN],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout.splitlines()[-1])
    assert not found["failed"], found["failed"]
    for layer in ("lfunc.l_value_s", "density.g_values_s", "meanvalue.carlson_s", "diophantine.kronecker_s"):
        assert found["metrics"][layer] > 0, layer
