"""Record the density workload's hit count for a range of seeds.

    python3 perfbench/record_hits.py FIRST LAST

runs the density workload's scan-density call once per seed in FIRST..LAST
and writes data/density_hits.json, which run.py checks every density run
against.  The file also stores the argument list it was recorded with; run.py
refuses the table if the workload's arguments have changed since.  About
0.8 s per seed on one x86-64 core.
"""

import json
import os
import sys
import tempfile

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(HERE, "data", "density_hits.json")


def template():
    return workloads.density_argv("<seed>", "<threads>", "<outdir>")


def load():
    with open(DATA) as fh:
        return json.load(fh)


def main(first, last):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from selfapprox.cli import main as cli_main

    hits = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-tmp-") as tmp:
        for seed in range(first, last + 1):
            out = os.path.join(tmp, str(seed))
            if cli_main(workloads.density_argv(seed, 1, out)) != 0:
                raise SystemExit(f"scan-density failed for seed {seed}")
            with open(os.path.join(out, "results.json")) as fh:
                hits[str(seed)] = json.load(fh)["hits"]
            print(f"seed {seed}: {hits[str(seed)]} hits", file=sys.stderr, flush=True)
    with open(DATA, "w") as fh:
        json.dump({"generator": f"python3 perfbench/record_hits.py {first} {last}",
                   "argv": template(), "hits": hits}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(int(sys.argv[1]), int(sys.argv[2]))
