"""Batch front-end: reproducible experiment runs with manifest/results artifacts.

Every run resolves its configuration (plain key=value config file, overridden
by command-line flags), validates it, and writes into the output directory:

    manifest.json   the full resolved configuration (re-runnable)
    results.json    command results, fixed key order
    samples.csv     per-sample data, when the command produces samples
    plotdata.csv    two-column x,y data ready for any plotting tool

Unknown config keys are hard errors.  All randomness flows from the single
64-bit seed through the block-splitting scheme in selfapprox.sampling, so
`selfapprox rerun manifest.json` reproduces results.json byte-identically at
any --threads setting.  Artifacts go to --output-dir; rerun writes next to
its manifest unless --output-dir is given.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .characters import character_from_id, enumerate_characters
from .density import ShiftFamily, convergence_diagnostic, density_from_samples, empirical_cdf, sample_g
from .diophantine import (
    KroneckerTarget,
    find_rational_relations,
    find_tau_in_set,
    measure_kronecker_density,
)
from .errors import DomainError
from .lfunc import StripRegion, l_value
from .meanvalue import b2_ladder, carlson_mean_value


def _finite_float(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise DomainError(f"{raw!r} is not a finite number")
    return value


def _sample_count(raw) -> float:
    """A sample count: a finite whole number n with 1 <= n < 2^63, kept as the
    float that the manifest records."""
    value = _finite_float(raw)
    if not (value.is_integer() and 1 <= value < 2.0**63):
        raise DomainError(f"samples must be a whole number in [1, 2^63), got {raw!r}")
    return value


# Key groups shared by several commands, spliced into the schemas of
# _COMMANDS in the order the manifests record them.
_FAMILY = {"d": (str, None), "chars": (str, None)}
_REGION = {
    "sigma_range": (str, "0.65,0.75"),
    "t_range": (str, "-0.5,0.5"),
    "margin": (_finite_float, 0.02),
    "grid": (str, "3x3"),
}
_TARGET = {
    "d": (str, "1"),
    "a": (int, 1),
    "delta": (_finite_float, None),
    "primes_upto": (_finite_float, None),
}


def _parse_list(text, parse=_finite_float, count=None):
    """Comma-separated values; DomainError on a bad item or a wrong count."""
    try:
        values = [parse(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"cannot parse {text!r}: {exc}") from None
    if count is not None and len(values) != count:
        raise DomainError(f"expected {count} comma-separated values, got {text!r}")
    return values


def _parse_region(params) -> StripRegion:
    slo, shi = _parse_list(params["sigma_range"], count=2)
    tlo, thi = _parse_list(params["t_range"], count=2)
    try:
        gs, gt = (int(x) for x in params["grid"].split("x"))
    except ValueError:
        raise DomainError(f"grid must look like 3x3, got {params['grid']!r}") from None
    return StripRegion(slo, shi, tlo, thi, margin=params["margin"], grid_sigma=gs, grid_t=gt)


def _parse_family(params) -> ShiftFamily:
    chars = tuple(character_from_id(c.strip()) for c in params["chars"].split(","))
    return ShiftFamily(tuple(_parse_list(params["d"], str)), chars)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _read_config_file(path: str) -> dict:
    out = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key] = val
    return out


def _resolve_params(command: str, file_params: dict, overrides: dict) -> dict:
    schema = _COMMANDS[command][1]
    unknown = set(file_params) - set(schema)
    if unknown:
        raise DomainError(f"unknown config keys for {command}: {sorted(unknown)}")
    params = {}
    for name, (parse, default) in schema.items():
        if name in overrides and overrides[name] is not None:
            raw = overrides[name]
        elif name in file_params:
            raw = file_params[name]
        elif default is not None:
            raw = default
        else:
            raise DomainError(f"missing required parameter {name!r} for {command}")
        try:
            params[name] = parse(raw)
        except (TypeError, ValueError) as exc:
            raise DomainError(f"parameter {name!r}: {exc}") from None
    return params


# rows formatted at a time, so the text of a CSV table is never all in memory
_CSV_ROWS = 4096


def _write_artifacts(outdir, manifest, results, samples=None, plot=None):
    """Write the two JSON files, then each CSV table given as (header,
    columns of numbers), every cell repr(float(v)), in slices of _CSV_ROWS
    rows."""
    os.makedirs(outdir, exist_ok=True)
    for name, obj in (("manifest.json", manifest), ("results.json", results)):
        with open(os.path.join(outdir, name), "wb") as fh:
            fh.write((json.dumps(obj, indent=2, allow_nan=False) + "\n").encode())
    if plot is not None:
        plot = (("x", "y"), plot)
    for name, table in (("samples.csv", samples), ("plotdata.csv", plot)):
        if table is not None:
            header, columns = table
            columns = [np.asarray(column, dtype=float) for column in columns]
            # header names and float reprs need no CSV quoting; rows end in
            # \r\n, as csv.writer's do
            with open(os.path.join(outdir, name), "w", newline="") as fh:
                fh.write(",".join(header) + "\r\n")
                for lo in range(0, len(columns[0]), _CSV_ROWS):
                    rows = zip(*(column[lo:lo + _CSV_ROWS].tolist() for column in columns))
                    fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _run_relations(params, seed, threads):
    rel = find_rational_relations(
        _parse_list(params["shifts"], str),
        mode=params["mode"], tolerance=params["tolerance"], coeff_cap=params["coeff_cap"],
    )
    results = {
        "independent_indices": list(rel.independent_indices),
        "dependent_indices": list(rel.dependent_indices),
        "a": rel.denominator,
        "coefficients": [list(row) for row in rel.coefficients],
        "A": rel.bound_A,
        "mode": rel.mode,
    }
    return results, None, None


def _make_target(params) -> KroneckerTarget:
    shifts = tuple(_parse_list(params["d"], str))
    return KroneckerTarget(shifts, params["a"], params["delta"], params["primes_upto"])


def _run_kronecker(params, seed, threads):
    # "samples" and "stratified" set the Monte Carlo estimate that the exact
    # measure replaced; both stay accepted, and ignored, so that recorded
    # manifests still run.
    target = _make_target(params)
    # the exact density on 41 log-spaced horizons over four decades up to T,
    # from one sweep; the last is T itself
    horizons = params["T"] * np.logspace(-4.0, 0.0, 41)
    horizons = horizons[np.diff(horizons, prepend=0.0) > 0.0]  # T near underflow
    densities, (lo, hi) = measure_kronecker_density(target, horizons)
    results = {
        "density": float(densities[-1]),
        "ci_lo": float(lo[-1]),
        "ci_hi": float(hi[-1]),
        "expected_density": target.expected_density,
        "l": len(target.shifts),
        "M": target.n_primes,
    }
    return results, None, (horizons, densities)


def _run_find_tau(params, seed, threads):
    # "grid" and "lattice" name the two searches the interval sweep replaced;
    # both stay accepted so that recorded manifests still run.
    if params["strategy"] not in ("grid", "lattice"):
        raise DomainError(f"unknown strategy {params['strategy']!r}")
    target = _make_target(params)
    hits = find_tau_in_set(target, params["bound"], max_results=params["max_results"])
    # tau = 0 is always a member, so hits is never empty
    results = {"n_hits": len(hits), "expected_density": target.expected_density}
    return results, (["tau"], [hits]), (hits, np.arange(len(hits)) / max(len(hits), 1))


def _run_scan_density(params, seed, threads):
    if params["eps"] <= 0:
        raise DomainError("epsilon must be positive")
    family = _parse_family(params)
    region = _parse_region(params)
    taus, g, deltas = sample_g(
        family, region, params["T"], int(params["samples"]), seed,
        refine=bool(params["refine"]), threads=threads,
    )
    est = density_from_samples(g, params["eps"], params["T"])
    results = {
        **asdict(est),
        "shifts": list(family.shifts),
        "characters": [c.label for c in family.characters],
        "region": asdict(region),
    }
    # density as a function of eps, F_T(x) from the same sample set
    xs = np.linspace(0, float(g.max()) * 1.05 + 1e-9, 101)
    return results, (["tau", "g_value", "refine_delta"], [taus, g, deltas]), (xs, empirical_cdf(g, xs))


def _run_dist_fn(params, seed, threads):
    family = _parse_family(params)
    region = _parse_region(params)
    ladder = _parse_list(params["T_ladder"])
    report = convergence_diagnostic(
        family, region, ladder, int(params["samples"]), seed, threads=threads
    )
    # plot data: consecutive sup-distance against the larger horizon
    return report, None, (report["T_ladder"][1:], report["distances"])


def _run_mean_value(params, seed, threads):
    chi = character_from_id(params["char"])
    res = carlson_mean_value(
        chi,
        complex(params["sigma"], params["t"]),
        params["y"],
        params["x"],
        params["T"],
        int(params["samples"]),
        seed,
        threads=threads,
    )
    return {**asdict(res), "relative_gap": res.relative_gap}, None, None


def _run_b2(params, seed, threads):
    family = _parse_family(params)
    region = _parse_region(params)
    ladder = _parse_list(params["N_ladder"], int)
    out = b2_ladder(
        family, ladder, params["T"], region,
        n_samples=int(params["samples"]), seed=seed, threads=threads,
    )
    results = {
        "N_ladder": ladder,
        "estimates": [est for est, _ in out],
        "stderrs": [se for _, se in out],
    }
    return results, None, (ladder, results["estimates"])


def _run_selfcheck(params, seed, threads):
    checks = {}
    cs = enumerate_characters(12)
    checks["characters_mod_12"] = len(cs) == 4
    z2 = l_value(2.0 + 0j, character_from_id("1:0"))
    checks["zeta_2"] = abs(z2 - 1.6449340668482264) < 1e-10
    rel = find_rational_relations([1, "1/2"])
    checks["relation_half"] = rel.denominator == 2 and rel.coefficients == ((1,),)
    target = KroneckerTarget((1.0,), 1, 0.25, 2)
    density, _ = measure_kronecker_density(target, 1e4)
    checks["kronecker_volume"] = abs(density - 0.5) < 0.02
    results = {"checks": checks, "passed": all(checks.values())}
    return results, None, None


# command -> (runner, ordered parameter schema: name -> (parser, default));
# default None with no entry in the config means the parameter is required.
# A runner returns (results, samples, plot): samples as (header, columns) and
# plot as (xs, ys), columns of numbers, or None.
_COMMANDS = {
    "relations": (_run_relations, {
        "shifts": (str, None),
        "mode": (str, "exact"),
        "tolerance": (_finite_float, 1e-10),
        "coeff_cap": (int, 10**6),
    }),
    "kronecker": (_run_kronecker, {
        **_TARGET,
        "T": (_finite_float, None),
        # accepted and ignored, see _run_kronecker
        "samples": (_finite_float, 0),
        "stratified": (int, 0),
    }),
    "find-tau": (_run_find_tau, {
        **_TARGET,
        "bound": (_finite_float, None),
        "strategy": (str, "grid"),
        "max_results": (int, 10000),
    }),
    "scan-density": (_run_scan_density, {
        **_FAMILY,
        "eps": (_finite_float, None),
        "T": (_finite_float, None),
        "samples": (_sample_count, 256),
        **_REGION,
        "refine": (int, 1),
    }),
    "dist-fn": (_run_dist_fn, {
        **_FAMILY,
        "T_ladder": (str, None),
        "samples": (_sample_count, 256),
        **_REGION,
    }),
    "mean-value": (_run_mean_value, {
        "char": (str, None),
        "sigma": (_finite_float, 0.75),
        "t": (_finite_float, 0.0),
        "y": (_finite_float, 20),
        "x": (_finite_float, 1.0),
        "T": (_finite_float, 5000),
        "samples": (_sample_count, 50000),
    }),
    "b2": (_run_b2, {
        **_FAMILY,
        "N_ladder": (str, "10,100,1000"),
        "T": (_finite_float, 2000),
        "samples": (_sample_count, 1000),
        **_REGION,
    }),
    "selfcheck": (_run_selfcheck, {}),
}


def run(command: str, params: dict, seed: int, output_dir: str, threads: int = 1) -> int:
    """Execute one resolved command and write its artifacts."""
    for name, value, least in (("seed", seed, 0), ("threads", threads, 1)):
        if isinstance(value, bool) or not isinstance(value, int) or value < least:
            raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    manifest = {
        "command": command,
        "seed": seed,
        "threads": threads,
        "params": params,
        "version": __version__,
    }
    results, samples, plot = _COMMANDS[command][0](params, seed, threads)
    _write_artifacts(output_dir, manifest, results, samples, plot)
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise DomainError, so that they
    get the one-line JSON error like every other bad input; subparsers
    inherit the class.  An argument that starts with "-" and a digit, or "-."
    and a digit, is a value, so `--d -1,2` reads as `--d=-1,2`; argparse's
    own rule varies with the Python version and takes "-1,2" for an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _fail(message: str, code: int = 2) -> int:
    sys.stderr.write(json.dumps({"error": message}) + "\n")
    return code


def _parser(command=None) -> _ArgumentParser:
    """The argument parser with every subcommand, or with `command`'s alone."""
    parser = _ArgumentParser(
        prog="selfapprox",
        description="Numerical experiments on self-approximation of Dirichlet L-functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--output-dir", default="runs/out")
    common.add_argument("--threads", type=int, default=1)
    for name, (_, schema) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, parents=[common])
            for key in schema:
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)
    if command in (None, "rerun"):
        rerun = sub.add_parser("rerun")
        rerun.add_argument("manifest")
        rerun.add_argument("--output-dir", default=None)
        rerun.add_argument("--threads", type=int, default=None)
    return parser


def _parse_args(argv):
    """Parsed argv.  Only the invoked subcommand's parser is built, whose help
    and usage errors read as the full parser's; an unknown command goes to the
    full parser, which lists every command."""
    command = argv[0] if argv else None
    return _parser(command if command in (*_COMMANDS, "rerun") else None).parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        if args.command == "rerun":
            manifest = json.loads(_read_text(args.manifest))
            if not (
                isinstance(manifest, dict)
                and manifest.get("command") in _COMMANDS
                and isinstance(manifest.get("params"), dict)
            ):
                raise DomainError(f"{args.manifest}: needs a known command and a params object")
            command, file_params, overrides = manifest["command"], manifest["params"], {}
            seed = manifest.get("seed")
            outdir = args.output_dir or os.path.dirname(os.path.abspath(args.manifest))
            threads = args.threads if args.threads is not None else manifest.get("threads", 1)
        else:
            command, overrides = args.command, vars(args)
            file_params = _read_config_file(args.config) if args.config else {}
            seed, outdir, threads = args.seed, args.output_dir, args.threads
        params = _resolve_params(command, file_params, overrides)
        return run(command, params, seed, outdir, threads)
    except DomainError as exc:
        return _fail(str(exc))
    except MemoryError as exc:
        return _fail(f"out of memory: {exc}")
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(str(exc), code=3)


if __name__ == "__main__":
    sys.exit(main())
