"""Hypothesis over the CLI's argv, config-file and manifest layer.

Every input must end in exit 0 with valid artifacts, or in the one-line JSON
error on stderr (exit 2 for bad input, 3 for I/O), never in a traceback.
Sizes stay small: samples <= 64, T <= 100, bound <= 1e3, threads <= 2.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selfapprox.cli import main

FUZZ = settings(
    max_examples=40, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

# Each key draws from a well-formed range most of the time and from these
# malformed or out-of-range values otherwise.
JUNK = st.sampled_from([
    "", "abc", "magic", "nan", "inf", "-inf", "-1", "0", "1/0", ",", "1,,2", "é", "\x00", " 1 ",
    "1e999",
])


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False).map(repr)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _items(choices, lo, hi):
    return st.lists(st.sampled_from(choices), min_size=lo, max_size=hi).map(",".join)


def _mostly(good, bad):
    """Draws from `good`, one draw in eight from `bad`."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 7 else good)


def _or_junk(strategy):
    return _mostly(strategy, JUNK)


SHIFTS = ["1", "2", "0.5", "-1", "0", "3", "1e-3", "1/3", "-1/2"]
CHARS = ["4:1", "4:0", "3:1", "5:2", "1:0", "7:3", "4:9", "0:0", "x", "12:3"]
_TARGET = {
    "d": _items(SHIFTS, 1, 3),
    "a": _ints(1, 5),
    "delta": _num(0.01, 0.49),
    "primes_upto": _num(2.0, 50.0),
}
_REGION = {
    "sigma_range": st.tuples(_num(0.5, 1.0), _num(0.5, 1.0)).map(",".join),
    "t_range": st.tuples(_num(-5.0, 5.0), _num(-5.0, 5.0)).map(",".join),
    "margin": _num(0.001, 0.1),
    "grid": st.tuples(st.integers(1, 4), st.integers(1, 4)).map(lambda g: f"{g[0]}x{g[1]}"),
}
# command -> key -> strategy for its raw value
PARAMS = {
    "relations": {
        "shifts": _items(SHIFTS + ["1/2", "3/4", "1.4142135623730951", "1e-200", "2e-11"], 1, 4),
        "mode": st.sampled_from(["exact", "float"]),
        "tolerance": _num(1e-12, 1.0),
        "coeff_cap": _ints(-5, 10**6),
    },
    "kronecker": {
        **_TARGET,
        "T": _num(1.0, 100.0),
        "samples": _num(1.0, 64.0),
        "stratified": _ints(0, 1),
    },
    "find-tau": {
        **_TARGET,
        "bound": _num(1.0, 1e3),
        "strategy": st.sampled_from(["grid", "lattice"]),
        "max_results": _ints(1, 50),
    },
    "scan-density": {
        "d": _items(SHIFTS, 1, 3),
        "chars": _items(CHARS, 1, 3),
        "eps": _num(0.01, 3.0),
        "T": _num(1.0, 100.0),
        "samples": _ints(1, 64),
        **_REGION,
        "refine": _ints(0, 1),
    },
}


# keys without a default; the rest are drawn or left to their defaults
REQUIRED = {
    "relations": ("shifts",),
    "kronecker": ("delta", "primes_upto", "T"),
    "find-tau": ("delta", "primes_upto", "bound"),
    "scan-density": ("d", "chars", "eps", "T"),
}


def _params(command):
    keys = {key: _or_junk(value) for key, value in PARAMS[command].items()}
    required = {key: keys.pop(key) for key in REQUIRED[command]}
    return st.fixed_dictionaries(required, optional=keys)


def _run(argv):
    """(exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue()


def _check(rc, err, outdir):
    if rc == 0:
        assert err == ""
        with open(os.path.join(outdir, "results.json")) as fh:
            json.load(fh)
        return
    assert rc in (2, 3), (rc, err)
    assert len(err.splitlines()) == 1 and err.endswith("\n"), err
    assert set(json.loads(err)) == {"error"}
    if rc == 2:
        assert not os.path.exists(os.path.join(outdir, "results.json"))


@st.composite
def _invocations(draw):
    command = draw(st.sampled_from(sorted(PARAMS)))
    params = draw(_params(command))
    in_file = draw(st.sets(st.sampled_from(sorted(params))) if params else st.just(set()))
    seed = draw(st.integers(0, 2**64))
    threads = draw(_mostly(st.integers(1, 2), st.sampled_from([0, -3])))
    return command, params, in_file, seed, threads


@FUZZ
@given(_invocations())
def test_argv_and_config_file_end_in_results_or_json_error(invocation):
    command, params, in_file, seed, threads = invocation
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "out")
        argv = [command, f"--seed={seed}", f"--threads={threads}", f"--output-dir={outdir}"]
        argv += [f"--{k.replace('_', '-')}={v}" for k, v in params.items() if k not in in_file]
        if in_file:
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(f"{k} = {params[k]}\n" for k in sorted(in_file))
            argv.append(f"--config={path}")
        _check(*_run(argv), outdir)


@settings(FUZZ, max_examples=200)
@given(_params("relations"))
def test_relations_argv_ends_in_results_or_json_error(params):
    # the mixed-command fuzz above makes about five relations runs in its 40 draws
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "out")
        argv = ["relations", f"--output-dir={outdir}"]
        argv += [f"--{k.replace('_', '-')}={v}" for k, v in params.items()]
        _check(*_run(argv), outdir)


# JSON values that are not what the manifest field holds
_JSON_JUNK = st.sampled_from([None, True, False, [], {}, "x", -1, 0.5, "2"])


@st.composite
def _manifests(draw):
    command = draw(st.sampled_from(sorted(PARAMS) + ["selfcheck", "bogus"]))
    manifest = {"command": command}
    params = draw(_params(command)) if command in PARAMS else {}
    params = {k: draw(_mostly(st.just(v), _JSON_JUNK)) for k, v in params.items()}
    manifest["params"] = draw(_mostly(st.just(params), _JSON_JUNK))
    for key, good in (("seed", st.integers(0, 2**64)), ("threads", st.integers(1, 2))):
        value = draw(_mostly(good, st.one_of(_JSON_JUNK, st.just("missing"))))
        if value != "missing":
            manifest[key] = value
    return draw(_mostly(st.just(manifest), _JSON_JUNK))


@FUZZ
@given(_manifests(), st.sampled_from([None, "1", "2", "0"]))
def test_rerun_of_any_manifest_ends_in_results_or_json_error(manifest, threads):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        outdir = os.path.join(tmp, "out")
        argv = ["rerun", path, f"--output-dir={outdir}"]
        if threads is not None:
            argv.append(f"--threads={threads}")
        _check(*_run(argv), outdir)
