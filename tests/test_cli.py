import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import selfapprox
from selfapprox import cli
from selfapprox.cli import main
from selfapprox.errors import DomainError
from selfapprox.sampling import BLOCK_SIZE


def _read(outdir, name):
    return (outdir / name).read_text()


def _results(outdir):
    return json.loads(_read(outdir, "results.json"))


def test_relations_exact(tmp_path):
    rc = main([
        "relations", "--shifts", "1,0.5,1/4", "--output-dir", str(tmp_path)
    ])
    assert rc == 0
    res = _results(tmp_path)
    assert res["a"] == 4
    assert res["coefficients"] == [[2], [1]]
    assert res["independent_indices"] == [0]
    manifest = json.loads(_read(tmp_path, "manifest.json"))
    assert manifest["command"] == "relations"
    assert manifest["params"]["shifts"] == "1,0.5,1/4"


def test_relations_float_independent(tmp_path):
    rc = main([
        "relations", "--shifts", f"1,{math.sqrt(2)!r}", "--mode", "float",
        "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    res = _results(tmp_path)
    assert res["independent_indices"] == [0, 1]
    assert res["A"] == 0


def test_kronecker_small(tmp_path):
    rc = main([
        "kronecker", "--delta", "0.25", "--primes-upto", "2", "--T", "1e4",
        "--samples", "20000", "--seed", "5", "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    res = _results(tmp_path)
    assert abs(res["density"] - 0.5) < 0.02
    assert res["ci_lo"] <= res["density"] <= res["ci_hi"]
    assert res["expected_density"] == 0.5
    assert res["l"] == 1 and res["M"] == 1


def test_kronecker_writes_the_exact_density_ladder(tmp_path):
    argv = ["kronecker", "--d", "1,1.4142135623730951", "--delta", "0.1", "--primes-upto", "7",
            "--T", "1e5"]
    runs = {
        "t1": argv + ["--threads", "1"],
        "t2": argv + ["--threads", "2"],
        # the Monte Carlo keys are accepted and change nothing
        "mc": argv + ["--samples", "4e6", "--stratified", "1", "--seed", "9"],
    }
    for name, extra in runs.items():
        assert main(extra + ["--output-dir", str(tmp_path / name)]) == 0
    assert main(["rerun", str(tmp_path / "t1" / "manifest.json"),
                 "--output-dir", str(tmp_path / "rerun")]) == 0
    for name in ("results.json", "plotdata.csv"):
        expected = (tmp_path / "t1" / name).read_bytes()
        assert all((tmp_path / d / name).read_bytes() == expected for d in ("t2", "mc", "rerun"))
    res = _results(tmp_path / "t1")
    assert res["density"] == pytest.approx(4.04e-6, rel=1e-3)  # volume 2.56e-6
    assert res["ci_lo"] <= res["density"] <= res["ci_hi"]
    rows = [row.split(",") for row in _read(tmp_path / "t1", "plotdata.csv").splitlines()]
    assert rows[0] == ["x", "y"] and len(rows) == 42
    horizons = [float(x) for x, _ in rows[1:]]
    assert horizons == sorted(horizons) and horizons[0] == pytest.approx(10.0)
    assert rows[-1] == ["100000.0", repr(res["density"])]


def test_kronecker_beyond_the_sweep_cap_names_the_largest_usable_T(tmp_path, capsys):
    argv = ["kronecker", "--delta", "0.1", "--primes-upto", "2", "--output-dir", str(tmp_path)]
    assert main(argv + ["--T", "1e9"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert error.endswith("largest usable T at this cap is 152080000")
    assert not (tmp_path / "results.json").exists()
    # the T named is run as printed; 1.52081e+08, rounded to nearest, was refused
    assert main(argv + ["--T", error.rsplit(" ", 1)[1]]) == 0
    assert _results(tmp_path)["density"] > 0.0


def test_find_tau_writes_samples(tmp_path):
    rc = main([
        "find-tau", "--delta", "0.1", "--primes-upto", "2", "--bound", "100",
        "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    res = _results(tmp_path)
    assert res["n_hits"] > 0
    rows = _read(tmp_path, "samples.csv").strip().splitlines()
    assert rows[0] == "tau"
    assert len(rows) == res["n_hits"] + 1
    assert (tmp_path / "plotdata.csv").exists()


def test_find_tau_first_hit_is_zero(tmp_path):
    # the interval around tau = 0 is clipped to 0.0, a member at any delta,
    # so even a tiny bound has one hit and results.json carries no note
    assert main([
        "find-tau", "--delta", "0.01", "--primes-upto", "5", "--bound", "1e-3",
        "--output-dir", str(tmp_path),
    ]) == 0
    res = _results(tmp_path)
    assert res["n_hits"] == 1 and "note" not in res
    assert _read(tmp_path, "samples.csv") == "tau\n0.0\n"


def test_find_tau_strategy_names_run_the_one_search(tmp_path):
    # recorded manifests name "grid" or "lattice"; both select the interval sweep
    argv = ["find-tau", "--delta", "0.05", "--primes-upto", "7", "--bound", "2e4"]
    outputs = []
    for extra in ([], ["--strategy", "grid"], ["--strategy", "lattice"]):
        out = tmp_path / (extra[-1] if extra else "default")
        assert main(argv + extra + ["--output-dir", str(out)]) == 0
        outputs.append((_read(out, "results.json"), _read(out, "samples.csv")))
    assert outputs[0] == outputs[1] == outputs[2]


def test_scan_density_degenerate(tmp_path):
    rc = main([
        "scan-density", "--d", "1,1", "--chars", "4:1,4:1", "--eps", "1e-9",
        "--T", "100", "--samples", "32", "--refine", "0",
        "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    res = _results(tmp_path)
    assert res["density"] == 1.0
    assert res["hits"] == 32
    assert res["characters"] == ["4:1", "4:1"]
    rows = _read(tmp_path, "samples.csv").strip().splitlines()
    assert rows[0] == "tau,g_value,refine_delta"
    assert len(rows) == 33


def test_unknown_config_key_is_hard_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("delta = 0.25\nprimes_upto = 2\nT = 100\nsamples = 100\nbogus = 7\n")
    rc = main(["kronecker", "--config", str(cfg), "--output-dir", str(tmp_path / "out")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "bogus" in err["error"]


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# kronecker volume check\n"
        "delta = 0.25\n"
        "primes_upto = 2\n"
        "T = 1e4\n"
        "samples = 5000\n"
    )
    out = tmp_path / "out"
    rc = main([
        "kronecker", "--config", str(cfg), "--samples", "20000",
        "--seed", "5", "--output-dir", str(out),
    ])
    assert rc == 0
    manifest = json.loads(_read(out, "manifest.json"))
    assert manifest["params"]["samples"] == 20000.0  # flag beats file
    assert manifest["params"]["delta"] == 0.25


def test_missing_required_parameter(tmp_path, capsys):
    rc = main(["kronecker", "--delta", "0.25", "--output-dir", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "primes_upto" in err["error"]


def test_bad_input_reports_json_error(tmp_path, capsys):
    rc = main([
        "kronecker", "--delta", "0.6", "--primes-upto", "2", "--T", "100",
        "--samples", "100", "--output-dir", str(tmp_path),
    ])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert "error" in err


def test_rerun_reproduces_results_across_threads(tmp_path):
    out1 = tmp_path / "a"
    rc = main([
        "scan-density", "--d", "1,2", "--chars", "4:1,4:1", "--eps", "1.0",
        "--T", "200", "--samples", "300", "--seed", "11", "--refine", "0",
        "--threads", "1", "--output-dir", str(out1),
    ])
    assert rc == 0
    for threads in ("4", "8"):
        out2 = tmp_path / f"t{threads}"
        rc = main([
            "rerun", str(out1 / "manifest.json"),
            "--output-dir", str(out2), "--threads", threads,
        ])
        assert rc == 0
        assert (out2 / "results.json").read_bytes() == (out1 / "results.json").read_bytes()
        assert (out2 / "samples.csv").read_bytes() == (out1 / "samples.csv").read_bytes()


def _outputs_across_blas_and_worker_threads(tmp_path, args):
    """The set of (results.json, samples.csv) bytes of one command at
    OPENBLAS_NUM_THREADS 1 and 2 times --threads 1 and 2, each run in its own
    process so that the BLAS thread count takes effect."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(selfapprox.__file__)))
    outputs = set()
    for blas in ("1", "2"):
        for threads in ("1", "2"):
            out = tmp_path / f"blas{blas}-threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, PYTHONPATH=src)
            argv = [sys.executable, "-m", "selfapprox.cli", *args, "--threads", threads, "--output-dir", str(out)]
            subprocess.run(argv, env=env, check=True)
            samples = out / "samples.csv"
            outputs.add(((out / "results.json").read_bytes(), samples.read_bytes() if samples.exists() else None))
    return outputs


def test_scan_density_identical_across_blas_and_worker_threads(tmp_path):
    # two blocks, refined grid
    args = [
        "scan-density", "--d", "1,2", "--chars", "4:1,4:1", "--eps", "1.0", "--T", "300",
        "--samples", str(BLOCK_SIZE + 4), "--seed", "3", "--refine", "1",
    ]
    assert len(_outputs_across_blas_and_worker_threads(tmp_path, args)) == 1


@pytest.mark.parametrize("args", [
    pytest.param(["mean-value", "--char", "60:1", "--sigma", "0.75", "--t", "0", "--y", "20", "--x", "1",
                  "--T", "500"], id="mean-value"),
    pytest.param(["b2", "--d", "1,2", "--chars", "4:1,4:1", "--N-ladder", "10,100", "--T", "200",
                  "--sigma-range=0.65,0.75", "--t-range=-0.5,0.5", "--grid=3x3"], id="b2"),
])
def test_shifted_commands_identical_across_blas_and_worker_threads(tmp_path, args):
    # two blocks each; Carlson contracts one point per shift, b2 the grid
    # through both l_value and the partial sums
    args = [*args, "--samples", str(BLOCK_SIZE + 4), "--seed", "3"]
    assert len(_outputs_across_blas_and_worker_threads(tmp_path, args)) == 1


def test_cli_import_leaves_mpmath_unloaded():
    # only the PSLQ commands need mpmath; they import it when they run
    src = os.path.dirname(os.path.dirname(os.path.abspath(selfapprox.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, selfapprox.cli; print('mpmath' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_concurrent_futures_unloaded():
    # only map_blocks with threads > 1 needs it, and it pulls in logging
    src = os.path.dirname(os.path.dirname(os.path.abspath(selfapprox.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, selfapprox.cli; print('concurrent.futures' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_evaluator_commands_leave_numpy_ma_unloaded(tmp_path):
    # importing numpy.ma (np.unique does, on its first call) costs a fresh
    # process about 6 ms and 1.4 MB; the L evaluator has no need of it
    src = os.path.dirname(os.path.dirname(os.path.abspath(selfapprox.__file__)))
    region = ["--sigma-range=0.65,0.75", "--t-range=-0.5,0.5", "--grid=3x3"]
    runs = [
        ["scan-density", "--d", "1,2", "--chars", "4:1,4:1", "--eps", "1.0", "--T", "200",
         "--samples", "16", "--refine", "1", *region, "--output-dir", str(tmp_path / "density")],
        ["mean-value", "--char", "60:1", "--sigma", "0.75", "--t", "0", "--y", "20", "--x", "1",
         "--T", "500", "--samples", "16", "--output-dir", str(tmp_path / "carlson")],
        ["b2", "--d", "1,2", "--chars", "4:1,4:1", "--N-ladder", "10,100", "--T", "200",
         "--samples", "8", *region, "--output-dir", str(tmp_path / "b2")],
    ]
    code = f"import sys\nfrom selfapprox.cli import main\nfor argv in {runs!r}:\n    assert main(argv) == 0\nprint('numpy.ma' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_artifacts_land_in_the_output_dir_whatever_the_environment(tmp_path, monkeypatch):
    # SELFAPPROX_OUTPUT_DIR used to beat both --output-dir and the manifest's
    # directory that rerun writes to
    monkeypatch.setenv("SELFAPPROX_OUTPUT_DIR", str(tmp_path / "env"))
    out = tmp_path / "out"
    assert main(["relations", "--shifts", "1,2", "--output-dir", str(out)]) == 0
    (out / "results.json").unlink()
    assert main(["rerun", str(out / "manifest.json")]) == 0
    assert (out / "results.json").exists()
    assert not (tmp_path / "env").exists()


def test_selfcheck(tmp_path):
    rc = main(["selfcheck", "--output-dir", str(tmp_path), "--seed", "1"])
    assert rc == 0
    res = _results(tmp_path)
    assert res["passed"] is True


def test_mean_value_quick(tmp_path):
    rc = main([
        "mean-value", "--char", "4:1", "--y", "20", "--T", "2000",
        "--samples", "1500", "--seed", "3", "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    res = _results(tmp_path)
    assert res["theoretical"] > 0
    assert res["relative_gap"] < 0.5


def test_b2_plotdata(tmp_path):
    rc = main([
        "b2", "--d", "1,2", "--chars", "4:1,4:1", "--N-ladder", "10,100",
        "--T", "500", "--samples", "96", "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    res = _results(tmp_path)
    assert res["estimates"][0] > res["estimates"][1]
    rows = _read(tmp_path, "plotdata.csv").strip().splitlines()
    assert rows[0] == "x,y"
    assert len(rows) == 3


def test_b2_reproducible_across_threads_and_rerun(tmp_path):
    argv = [
        "b2", "--d", "1,2,3", "--chars", "4:1,4:1,5:1", "--N-ladder", "10,100",
        "--T", "300", "--samples", "40", "--seed", "6",
    ]
    out1, out2, out3 = tmp_path / "t1", tmp_path / "t2", tmp_path / "rerun"
    assert main(argv + ["--threads", "1", "--output-dir", str(out1)]) == 0
    assert main(argv + ["--threads", "2", "--output-dir", str(out2)]) == 0
    assert main(["rerun", str(out1 / "manifest.json"), "--output-dir", str(out3)]) == 0
    expected = (out1 / "results.json").read_bytes()
    assert (out2 / "results.json").read_bytes() == expected
    assert (out3 / "results.json").read_bytes() == expected


def _write_manifest(path, manifest):
    path.write_text(json.dumps(manifest))
    return str(path)


def _write_bytes(path, data):
    path.write_bytes(data)
    return str(path)


FIND_TAU_MANIFEST = {"command": "find-tau", "seed": 0, "params": {
    "d": "1", "delta": 0.05, "primes_upto": 7.0, "bound": 1e3, "max_results": 10}}
SCAN_MANIFEST = {"command": "scan-density", "seed": 0, "params": {
    "d": "1,2", "chars": "4:1,4:1", "eps": 1.0, "T": 10.0, "samples": 4.0}}


@pytest.mark.parametrize("manifest, key", [
    (FIND_TAU_MANIFEST, "max_results"), (SCAN_MANIFEST, "samples"), (FIND_TAU_MANIFEST, "bound"),
])
def test_rerun_refuses_a_bool_parameter_naming_it(manifest, key, tmp_path, capsys):
    assert main(["rerun", _write_manifest(tmp_path / "ok.json", manifest)]) == 0
    bad = {**manifest, "params": {**manifest["params"], key: True}}
    assert main(["rerun", _write_manifest(tmp_path / "bad.json", bad), "--output-dir", str(tmp_path / "bad")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == f"parameter {key!r}: true is a bool, not a number or text"


@pytest.mark.parametrize("case", [
    "eps_nan", "grid_no_x", "T_not_a_number", "zero_tolerance",
    "manifest_without_params", "manifest_unknown_command", "manifest_threads_not_int",
    "empty_N_ladder", "samples_beyond_memory", "sieve_beyond_memory",
    "negative_max_results", "zero_max_results_lattice", "empty_T_ladder", "unknown_strategy",
    "config_not_utf8", "manifest_not_utf8", "threads_zero", "threads_negative",
    "manifest_seed_bool", "manifest_threads_bool", "mean_value_beyond_cap",
    "seed_not_int", "unknown_flag", "no_subcommand", "rerun_without_manifest", "threads_not_int",
    "kronecker_beyond_sweep_cap", "find_tau_beyond_sweep_cap",
    "eps_zero", "mean_value_y_below_one", "sieve_beyond_cap",
    "float_shift_underflows", "float_shift_below_tolerance", "float_coeff_cap_zero",
    "float_coeff_cap_negative", "refine_seven", "refine_negative",
    "manifest_max_results_bool", "manifest_samples_bool", "manifest_bound_bool",
])
def test_bad_input_gives_one_line_json_error(case, tmp_path, capsys):
    out = ["--output-dir", str(tmp_path / "out")]
    scan = ["scan-density", "--d", "1,2", "--chars", "4:1,4:1", "--T", "100", "--samples", "4"]
    find_tau = ["find-tau", "--d", "1", "--delta", "0.05", "--primes-upto", "7", "--bound", "1e5"]
    selfcheck = {"command": "selfcheck", "seed": 0, "params": {}}
    # a JSON true in a manifest's params, one for each kind of parser
    bools = {"max_results": FIND_TAU_MANIFEST, "samples": SCAN_MANIFEST, "bound": FIND_TAU_MANIFEST}
    for key, manifest in bools.items():
        bad = {**manifest, "params": {**manifest["params"], key: True}}
        bools[key] = ["rerun", _write_manifest(tmp_path / f"{key}_bool.json", bad)] + out
    # each case writes its own file: the dict below builds every argv
    argv = {
        "eps_nan": scan + ["--eps", "nan"] + out,
        "grid_no_x": scan + ["--eps", "1", "--grid", "3"] + out,
        "T_not_a_number": ["kronecker", "--delta", "0.25", "--primes-upto", "2",
                           "--T", "abc", "--samples", "10"] + out,
        "zero_tolerance": ["relations", "--shifts", "1,2", "--mode", "float",
                           "--tolerance", "0"] + out,
        "manifest_without_params": ["rerun", _write_manifest(
            tmp_path / "no_params.json", {"command": "scan-density", "seed": 0})] + out,
        "manifest_unknown_command": ["rerun", _write_manifest(
            tmp_path / "bogus.json", {"command": "bogus", "seed": 0, "params": {}})] + out,
        "manifest_threads_not_int": ["rerun", _write_manifest(
            tmp_path / "threads_str.json", {**selfcheck, "threads": "2"})] + out,
        "empty_N_ladder": ["b2", "--d", "1,2", "--chars", "4:1,4:1", "--N-ladder", ",",
                           "--T", "10", "--samples", "4"] + out,
        # allocations larger than any address space fail at once, on any host
        "samples_beyond_memory": ["scan-density", "--d", "1,2", "--chars", "4:1,4:1",
                                  "--T", "100", "--eps", "1", "--samples", "1e17"] + out,
        "sieve_beyond_memory": ["kronecker", "--delta", "0.25", "--primes-upto", "1e18",
                                "--T", "100", "--samples", "10"] + out,
        "negative_max_results": find_tau + ["--max-results", "-1"] + out,
        "zero_max_results_lattice": find_tau + ["--max-results", "0", "--strategy", "lattice"] + out,
        "empty_T_ladder": ["dist-fn", "--d", "1,2", "--chars", "4:1,4:1", "--T-ladder", ",",
                           "--samples", "4"] + out,
        "unknown_strategy": find_tau + ["--strategy", "magic"] + out,
        "config_not_utf8": ["kronecker", "--config", _write_bytes(
            tmp_path / "bad.cfg", b"delta = 0.25\n# \xff\n")] + out,
        "manifest_not_utf8": ["rerun", _write_bytes(
            tmp_path / "bad.json", b'{"command": "selfcheck", "params": {}, "x": "\xff"}')] + out,
        "threads_zero": ["relations", "--shifts", "1,2", "--threads", "0"] + out,
        "threads_negative": ["relations", "--shifts", "1,2", "--threads=-3"] + out,
        "manifest_seed_bool": ["rerun", _write_manifest(
            tmp_path / "seed_bool.json", {**selfcheck, "seed": True})] + out,
        "manifest_threads_bool": ["rerun", _write_manifest(
            tmp_path / "threads_bool.json", {**selfcheck, "threads": True})] + out,
        "mean_value_beyond_cap": ["mean-value", "--char", "4:1", "--T", "1e5",
                                  "--samples", "4"] + out,
        # usage errors of the command-line reader
        "seed_not_int": ["relations", "--shifts", "1,2", "--seed", "abc"] + out,
        "unknown_flag": ["relations", "--shifts", "1,2", "--bogus", "1"] + out,
        "no_subcommand": [],
        "rerun_without_manifest": ["rerun"] + out,
        "threads_not_int": ["kronecker", "--delta", "0.25", "--primes-upto", "2", "--T", "10",
                            "--samples", "10", "--threads", "x"] + out,
        "kronecker_beyond_sweep_cap": ["kronecker", "--delta", "0.25", "--primes-upto", "2",
                                       "--T", "1e300"] + out,
        "find_tau_beyond_sweep_cap": ["find-tau", "--delta", "0.002", "--primes-upto", "7",
                                      "--bound", "1e12"] + out,
        "eps_zero": scan + ["--eps", "0"] + out,
        "mean_value_y_below_one": ["mean-value", "--char", "60:1", "--y", "0.5", "--samples", "4"] + out,
        "sieve_beyond_cap": ["kronecker", "--delta", "0.25", "--primes-upto", "1e8", "--T", "100"] + out,
        "float_shift_underflows": ["relations", "--mode", "float", "--shifts", "1e-200,1"] + out,
        "float_shift_below_tolerance": ["relations", "--mode", "float", "--shifts", "1,2e-11"] + out,
        "float_coeff_cap_zero": ["relations", "--mode", "float", "--shifts", "1,2,0.5",
                                 "--coeff-cap", "0"] + out,
        "float_coeff_cap_negative": ["relations", "--mode", "float", "--shifts", "1,2,0.5",
                                     "--coeff-cap=-5"] + out,
        # bool() read any integer as on, and the manifest recorded 7
        "refine_seven": scan + ["--eps", "1", "--refine", "7"] + out,
        "refine_negative": scan + ["--eps", "1", "--refine=-1"] + out,
        # int(True) read it as 1, and the rerun recorded 1
        "manifest_max_results_bool": bools["max_results"],
        "manifest_samples_bool": bools["samples"],
        "manifest_bound_bool": bools["bound"],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert set(json.loads(err)) == {"error"}
    assert not (tmp_path / "out" / "results.json").exists()


def _given(argv):
    """The command and the values _parse_args reads from argv, without the
    keys left unset."""
    command, values = cli._parse_args(argv)
    return command, {key: value for key, value in values.items() if value is not None}


def test_argv_reads_to_its_command_and_values(tmp_path, capsys):
    common = {"seed": 0, "output_dir": "runs/out", "threads": 1}
    assert _given(["scan-density", "--d=1,2", "--chars", "4:1,4:1", "--eps", "1", "--T", "10", "--threads", "2"]) == (
        "scan-density", {**common, "threads": 2, "d": "1,2", "chars": "4:1,4:1", "eps": "1", "T": "10"})
    kronecker = ["kronecker", "--delta", "0.1", "--primes-upto", "5", "--T", "1e5", "--seed", "7"]
    assert _given(kronecker + ["--output-dir", "x"]) == (
        "kronecker", {**common, "seed": 7, "output_dir": "x", "delta": "0.1", "primes_upto": "5", "T": "1e5"})
    assert _given(["rerun", "manifest.json", "--threads", "2"]) == ("rerun", {"manifest": "manifest.json", "threads": 2})
    assert _given(["selfcheck"]) == ("selfcheck", common)
    # the last repeat of a flag wins
    assert _given(["selfcheck", "--seed", "1", "--seed=2"]) == ("selfcheck", {**common, "seed": 2})
    # a flag is read by its full name only: argparse read --out as --output-dir
    for flag in ("--out", "--output_dir"):
        assert main(kronecker + [flag, str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == f"selfapprox kronecker: unrecognized argument {flag}"
    assert not (tmp_path / "results.json").exists()
    # a missing or unknown command gets the list of every command
    for argv in ([], ["bogus"]):
        assert main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"].endswith(", ".join([*cli._COMMANDS, "rerun"]))


# each argv ends as it did when the CLI read argv with argparse's parser of
# every command: help exits 0 with the usage on stdout, `rerun manifest.json`
# reads, and every other argv is the one-line JSON usage error with exit 2
@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["scan-density", "--help"], ["b2", "-h"], ["rerun", "--help"],
    ["bogus"], [], ["relations", "--shifts", "1,2", "--bogus", "1"],
    ["relations", "--shifts", "1,2", "--seed", "abc"], ["kronecker", "--threads", "x"],
    ["scan-density", "--d"], ["mean-value", "--char"], ["find-tau", "--seed"],
    ["selfcheck", "extra"], ["rerun"], ["rerun", "manifest.json"], ["rerun", "a.json", "b.json"],
])
def test_help_and_usage_errors_read_as_in_the_full_parser(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    if {"-h", "--help"} & set(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: selfapprox ")
    elif argv == ["rerun", "manifest.json"]:
        assert _given(argv) == ("rerun", {"manifest": "manifest.json"})
    else:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"].startswith("selfapprox")
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", [*cli._COMMANDS, "rerun"])
def test_every_key_reads_in_either_spelling_and_is_listed_in_help(command, capsys):
    with pytest.raises(SystemExit):
        cli._parse_args([command, "--help"])
    usage = capsys.readouterr().out.splitlines()
    if command == "rerun":
        head, defaults = ["rerun", "manifest.json"], dict.fromkeys(["output_dir", "threads"], "the manifest's")
    else:
        head = [command]
        defaults = {key: "required" if default is None else str(default)
                    for key, (_, default) in cli._COMMANDS[command][1].items()}
        defaults.update(config="none", seed="0", output_dir="runs/out", threads="1")
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        read = cli._parse_args(head + [flag, "7"])
        assert read == cli._parse_args(head + [f"{flag}=7"])
        assert read[1][key] == (7 if key in ("seed", "threads") else "7")
        # rerun's one usage line names its flags; every other command lists a
        # line per flag with its default
        lines = [line for line in usage if f"{flag} " in line]
        assert len(lines) == 1 and default in lines[0]


@pytest.mark.parametrize("command", [
    ["scan-density", "--d=1,2", "--chars=4:1,4:1", "--eps=1", "--T=100"],
    ["dist-fn", "--d=1,2", "--chars=4:1,4:1", "--T-ladder=10,20"],
    ["mean-value", "--char=4:1"],
    ["b2", "--d=1,2", "--chars=4:1,4:1", "--T=10"],
], ids=["scan-density", "dist-fn", "mean-value", "b2"])
@pytest.mark.parametrize("samples", ["1e19", "2.5", "nan"])
def test_samples_must_be_a_whole_count(command, samples, tmp_path, capsys):
    # 1e19 ended in a numpy "Maximum allowed dimension exceeded" traceback
    # (exit 1); 2.5 ran 2 samples while the manifest recorded 2.5
    assert main(command + [f"--samples={samples}", "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "samples" in json.loads(err)["error"]
    assert not (tmp_path / "results.json").exists()


@pytest.mark.parametrize("argv", [["--help"], ["b2", "--help"]], ids=["top", "b2"])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: selfapprox" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["mean-value", "--char=4:1", "--y=1e9", "--samples=4", "--T=100"],
    ["b2", "--d=1,2", "--chars=4:1,4:1", "--N-ladder=10000000000", "--samples=2", "--T=10"],
], ids=["mean_value_y", "b2_N"])
def test_partial_sums_beyond_their_cap_are_refused_at_once(argv, tmp_path, capsys):
    # more than _N_MAX terms per residue class in L_N: uncapped, each of
    # these ran on for more than 20 s, one 256-term chunk after another
    start = time.perf_counter()
    rc = main(argv + ["--output-dir", str(tmp_path)])
    assert rc == 2 and time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "largest usable" in json.loads(err)["error"]
    assert not (tmp_path / "results.json").exists()


@pytest.mark.parametrize("argv, name", [
    (["scan-density", "--d=1,2", "--chars=4:1,4:1", "--T=100", "--eps=0", "--samples=8000"], "epsilon"),
    (["mean-value", "--char=60:1", "--y=0.5", "--samples=4096"], "y"),
], ids=["eps_zero", "y_below_one"])
def test_bad_eps_and_y_are_refused_before_any_tau_is_drawn(argv, name, tmp_path, capsys):
    # checked after the sampling, each of these took as long as a valid run
    # (0.6 and 0.4 s); checked first, they take milliseconds
    start = time.perf_counter()
    rc = main(argv + ["--output-dir", str(tmp_path)])
    assert rc == 2 and time.perf_counter() - start < 0.2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"{name} " in json.loads(err)["error"]


def test_scan_density_csv_is_streamed(tmp_path):
    # the CSV rows are formatted a slice at a time: the peak holds the tau, g
    # and delta arrays (24 B per sample), not every row as strings (290 B per
    # sample, a 15.6 MB peak at these samples)
    argv = ["scan-density", "--d=1,2", "--chars=4:1,4:1", "--eps=1", "--T=1", "--samples=50000",
            "--grid=1x1", "--refine=0", "--t-range=0,0", "--output-dir", str(tmp_path)]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(_read(tmp_path, "samples.csv").splitlines()) == 50001
    assert peak < 8e6


def _csv_writer_bytes(header, columns):
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows(zip(*((repr(float(v)) for v in column) for column in columns)))
    return out.getvalue().encode()


def test_csv_tables_are_the_bytes_of_csv_writer(tmp_path):
    # every cell is repr(float(v)), so an int ladder is written as 10.0; the
    # columns run across a slice boundary of the writer
    reps = cli._CSV_ROWS // 5 + 1
    columns = [np.array([5e-324, 1e-05, -0.0, 1e16, math.inf] * reps), [10, 100, 1000, 10**17, -1] * reps]
    cli._write_artifacts(tmp_path, {}, {}, (["tau", "g_value"], columns), columns)
    assert (tmp_path / "samples.csv").read_bytes() == _csv_writer_bytes(["tau", "g_value"], columns)
    assert (tmp_path / "plotdata.csv").read_bytes() == _csv_writer_bytes(["x", "y"], columns)
    assert _read(tmp_path, "plotdata.csv").splitlines()[1:4] == ["5e-324,10.0", "1e-05,100.0", "-0.0,1000.0"]


def test_scan_density_eps_curve_is_the_share_of_samples_below_x(tmp_path):
    rc = main([
        "scan-density", "--d", "1,2", "--chars", "4:1,4:1", "--eps", "0.8", "--T", "300",
        "--samples", "200", "--seed", "4", "--output-dir", str(tmp_path),
    ])
    assert rc == 0
    g = [float(row.split(",")[1]) for row in _read(tmp_path, "samples.csv").splitlines()[1:]]
    rows = [row.split(",") for row in _read(tmp_path, "plotdata.csv").splitlines()]
    assert rows[0] == ["x", "y"] and len(rows) == 102
    for x, y in ((float(x), float(y)) for x, y in rows[1:]):
        assert y == sum(v < x for v in g) / len(g)
    assert rows[-1][1] == "1.0"
    density = _results(tmp_path)["density"]
    assert 0.0 < density < 1.0
    assert density == sum(v < 0.8 for v in g) / len(g)


def test_mean_value_beyond_cap_names_the_largest_usable_T(tmp_path, capsys):
    rc = main([
        "mean-value", "--char", "4:1", "--t", "1000", "--x", "2", "--T", "1e5",
        "--samples", "4", "--output-dir", str(tmp_path),
    ])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert "largest usable T at this cap is 24500" in err


def test_library_defaults_equal_the_cli_defaults():
    # b2_ladder sampled 2000 tau by default where `b2 --samples` takes 1000
    def library(fn, name):
        return inspect.signature(fn).parameters[name].default

    def command(name, key):
        parse, default = cli._COMMANDS[name][1][key]
        return parse(default)

    shared = [
        (selfapprox.carlson_mean_value, "x", "mean-value", "x"),
        (selfapprox.carlson_mean_value, "T", "mean-value", "T"),
        (selfapprox.carlson_mean_value, "n_samples", "mean-value", "samples"),
        (selfapprox.convergence_diagnostic, "n_samples", "dist-fn", "samples"),
        (selfapprox.b2_ladder, "n_samples", "b2", "samples"),
        (selfapprox.find_rational_relations, "mode", "relations", "mode"),
        (selfapprox.find_rational_relations, "tolerance", "relations", "tolerance"),
        (selfapprox.find_rational_relations, "coeff_cap", "relations", "coeff_cap"),
        (selfapprox.find_tau_in_set, "max_results", "find-tau", "max_results"),
        (selfapprox.StripRegion, "margin", "scan-density", "margin"),
    ]
    for fn, name, cmd, key in shared:
        assert library(fn, name) == command(cmd, key), (fn.__name__, name, cmd, key)
    grid = f"{library(selfapprox.StripRegion, 'grid_sigma')}x{library(selfapprox.StripRegion, 'grid_t')}"
    assert grid == command("scan-density", "grid")


@pytest.mark.parametrize("argv, height", [
    (["scan-density", "--d", "1,2", "--chars", "4:1,4:1", "--eps", "1", "--T", "10",
      "--t-range", "0,60000"], "K's largest |t| = 60000"),
    (["b2", "--d", "1,2", "--chars", "4:1,4:1", "--t-range", "0,50000"], "K's largest |t| = 50000"),
    (["mean-value", "--char", "4:1", "--t", "1e5"], "|Im s| at tau = 0 = 100000"),
], ids=["scan-density", "b2", "mean-value"])
def test_a_height_beyond_the_cap_is_named(argv, height, tmp_path, capsys):
    # the message used to end in "largest usable T at this cap is 0" alone,
    # though no T > 0 works at that height
    assert main(argv + ["--samples", "4", "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert f"{height} alone reaches the cap, so no T > 0 works" in json.loads(err)["error"]
    assert not (tmp_path / "results.json").exists()


def _artifacts(tmp_path, name, argv):
    assert main(argv + ["--output-dir", str(tmp_path / name)]) == 0
    return {f: (tmp_path / name / f).read_bytes()
            for f in ("results.json", "samples.csv", "plotdata.csv") if (tmp_path / name / f).exists()}


@pytest.mark.parametrize("argv, rational, decimal", [
    (["scan-density", "--chars", "4:1,4:1", "--eps", "1", "--T", "100", "--samples", "8", "--d"],
     "1,1/2", "1,0.5"),
    (["kronecker", "--delta", "0.1", "--primes-upto", "3", "--T", "1e4", "--d"], "1/2", "0.5"),
], ids=["scan-density", "kronecker"])
def test_a_rational_shift_text_reads_as_its_decimal(argv, rational, decimal, tmp_path):
    # the CLI used to refuse "1/2" with "could not convert string to float"
    assert _artifacts(tmp_path, "rational", argv + [rational]) == _artifacts(tmp_path, "decimal", argv + [decimal])


def test_float_relations_read_a_rational_shift_as_the_library_does(tmp_path):
    assert main(["relations", "--mode", "float", "--shifts", "1,1/3", "--output-dir", str(tmp_path)]) == 0
    rel = selfapprox.find_rational_relations([1, "1/3"], mode="float")
    assert (rel.denominator, rel.coefficients, rel.dependent_indices) == (3, ((1,),), (1,))
    res = _results(tmp_path)
    assert (res["a"], res["coefficients"], res["dependent_indices"]) == (3, [[1]], [1])


_SHIFT_COMMANDS = {
    "scan-density": ["scan-density", "--chars", "4:1,4:1", "--eps", "1", "--T", "100", "--samples", "4"],
    "dist-fn": ["dist-fn", "--chars", "4:1,4:1", "--T-ladder", "10,20", "--samples", "4"],
    "b2": ["b2", "--chars", "4:1,4:1", "--T", "10", "--samples", "4"],
    "kronecker": ["kronecker", "--delta", "0.1", "--primes-upto", "3", "--T", "100"],
    "find-tau": ["find-tau", "--delta", "0.1", "--primes-upto", "3", "--bound", "100"],
    "relations-exact": ["relations"],
    "relations-float": ["relations", "--mode", "float"],
}


# exact relations read 1e400 as the finite rational it is
@pytest.mark.parametrize("command, bad", [
    (command, bad) for command in _SHIFT_COMMANDS for bad in ("abc", "nan", "inf", "1e400", "1/0")
    if (command, bad) != ("relations-exact", "1e400")
])
def test_every_shift_taking_command_refuses_a_bad_shift_naming_it(command, bad, tmp_path, capsys):
    flag = "--shifts" if command.startswith("relations") else "--d"
    argv = _SHIFT_COMMANDS[command] + [flag, f"1,{bad}", "--output-dir", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith(f"shift d_1 = {bad!r}: shifts must be")
    assert not (tmp_path / "results.json").exists()


@pytest.mark.parametrize("argv, flag, value", [
    (_SHIFT_COMMANDS["scan-density"] + ["--d", "1,2"], "--t-range", "-0.5,0.5"),
    (_SHIFT_COMMANDS["scan-density"], "--d", "-1,2"),
    (_SHIFT_COMMANDS["scan-density"], "--d", "-.5,1"),
    (_SHIFT_COMMANDS["dist-fn"], "--d", "-1/2,1"),
    (_SHIFT_COMMANDS["relations-exact"], "--shifts", "-1,1/3"),
], ids=["t-range", "d", "d-point", "d-rational", "shifts"])
def test_a_negative_value_reads_alike_in_either_spelling(argv, flag, value, tmp_path):
    # argparse took "-1,2" and "-0.5,0.5" for options, so `--d -1,2` ended in
    # "expected one argument" where `--d=-1,2` ran
    separate = _artifacts(tmp_path, "separate", argv + [flag, value])
    assert separate == _artifacts(tmp_path, "joined", argv + [f"{flag}={value}"])
    assert _read(tmp_path / "separate", "manifest.json") == _read(tmp_path / "joined", "manifest.json")


def test_an_option_in_place_of_a_value_is_still_a_usage_error(tmp_path, capsys):
    argv = ["scan-density", "--chars", "4:1,4:1", "--T", "100", "--d", "--eps", "1"]
    assert main(argv + ["--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "selfapprox scan-density: argument --d: expected one argument"
    assert not (tmp_path / "results.json").exists()
