"""Fixed L(s, chi) points, their mpmath values, and the evaluator's error there.

The points have the shape of each workload's own l_value calls: the same
character, the region's sample grid shifted by d * tau, one row per tau, and
tau near the top of the workload's range, where the error is largest.  They
are fixed rather than drawn from the run's seed, so `max_abs_err` does not
move with the seed.  The reference values come from `mpmath.dirichlet`, which
shares no code with the package's Euler-Maclaurin evaluator.  Regenerate
data/reference.json (about two minutes on one core) with

    python3 perfbench/reference.py
"""

import json
import os
import sys

import numpy as np

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "reference.json")
MP_DPS = 25

# ROADMAP baseline rows: one point per call, sigma = 0.7
BASELINE_CHARS = ("1:0", "4:1", "60:1")
BASELINE_T = (100, 1000, 10000, 49000)


def _grid(n):
    """The workloads' region K = [0.65, 0.75] x [-0.5, 0.5] sampled n x n."""
    sg = np.linspace(0.65, 0.75, n)
    tg = np.linspace(-0.5, 0.5, n)
    return (sg[:, None] + 1j * tg[None, :]).ravel()


def _shifted(grid, d, taus):
    return [[complex(z) for z in grid + 1j * d * tau] for tau in taus]


def point_sets():
    """name -> list of (chi label, rows of points); each entry is one l_value call."""
    fine, base = _grid(5), _grid(3)
    return {
        # scan-density, refined 5x5 grid, tau in [0, 2000]
        "density": [("4:1", _shifted(fine, d, (1000.125, 1999.875))) for d in (1.0, 2.0)],
        # Carlson, s = 0.75 + i tau, tau in [0, 5000]
        "carlson": [("60:1", [[complex(0.75, t) for t in (312.5, 1250.5, 2500.25, 3750.75, 4999.5)]])],
        # b2, base 3x3 grid, tau in [-2000, 2000]
        "b2": [("4:1", _shifted(base, d, (-1999.875, 1000.125))) for d in (1.0, 2.0)],
        "baseline": [
            (label, [[complex(0.7, t)]]) for label in BASELINE_CHARS for t in BASELINE_T
        ],
    }


def load():
    with open(DATA) as fh:
        return json.load(fh)


def errors(ref, set_name):
    """Evaluate each call of one set through l_value; return per-point rows.

    Each row is (chi label, s, |L - L_mpmath|, documented bound q * target).
    """
    from selfapprox import DEFAULT_CONFIG, character_from_id, l_value

    rows = []
    for group in ref["sets"][set_name]:
        chi = character_from_id(group["chi"])
        pts = np.array([[complex(*p) for p in row] for row in group["points"]])
        want = np.array([[complex(float(re), float(im)) for re, im in row] for row in group["values"]])
        got = l_value(pts, chi)
        bound = chi.modulus * DEFAULT_CONFIG.target_abs_error
        for s, err in zip(pts.ravel(), np.abs(got - want).ravel()):
            rows.append((group["chi"], complex(s), float(err), bound))
    return rows


def _mp_character(label):
    """chi as mpmath.dirichlet wants it: chi[n % q], exact roots of unity."""
    import mpmath

    from selfapprox import character_from_id

    chi = character_from_id(label)
    q = chi.modulus
    out = []
    for n in range(q):
        angle = chi.angle(n if n else q)
        out.append(0 if angle is None else mpmath.expjpi(2 * mpmath.mpf(angle.numerator) / angle.denominator))
    return out


def regenerate():
    import mpmath

    mpmath.mp.dps = MP_DPS
    sets = {}
    for name, groups in point_sets().items():
        sets[name] = []
        for label, rows in groups:
            chi = _mp_character(label)
            values = [
                [
                    [mpmath.nstr(v.real, 20), mpmath.nstr(v.imag, 20)]
                    for v in (mpmath.dirichlet(mpmath.mpc(s.real, s.imag), chi) for s in row)
                ]
                for row in rows
            ]
            sets[name].append({
                "chi": label,
                "points": [[[s.real, s.imag] for s in row] for row in rows],
                "values": values,
            })
            print(f"{name} {label}: {sum(len(r) for r in rows)} points", file=sys.stderr)
    doc = {
        "generator": "python3 perfbench/reference.py",
        "reference": "mpmath.dirichlet",
        "mpmath": mpmath.__version__,
        "dps": MP_DPS,
        "sets": sets,
    }
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    regenerate()
    for name in point_sets():
        worst = max(errors(load(), name), key=lambda row: row[2])
        print(f"{name}: max |L - L_mpmath| = {worst[2]:.3e} at chi {worst[0]}, s = {worst[1]}")
