"""Spans recorded around the calls into each selfapprox module, and the
per-layer metrics computed from them.

`install` replaces, in each calling module, the names that module imported
(for example `selfapprox.density.l_value` or `selfapprox.cli.sample_g`) with
wrappers that record a span per call.  Nothing inside the package changes.
The point, term, byte and test counts are computed from the call arguments,
not taken from inside the program.  Each span records its name, start, end,
parent span and thread id; spans stay in memory and are written out once,
when the traced invocation ends.
"""

import contextlib
import functools
import itertools
import math
import threading
import time

import numpy as np

# Spans that only carry work on behalf of their caller: a caller's self time
# looks through them to the spans of other layers underneath.
TRANSPARENT = ("sampling.map_blocks", "sampling.block")

# The seed evaluator's series length per Hurwitz pass (lfunc._n_terms with the
# default EvaluatorConfig), used for the computed term counts.
SHIFT_FLOOR = 50
SHIFT_SCALE = 1.3

CLI_COMMANDS = ("scan-density", "mean-value", "b2", "kronecker", "find-tau")


def series_terms(abs_im):
    return np.maximum(SHIFT_FLOOR, np.ceil(SHIFT_SCALE * (np.asarray(abs_im) + 10.0)))


class NullTracer:
    """Tracing off: spans cost one no-op context manager."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name, **attrs):
        yield attrs


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.distinct_points = set()

    def current(self):
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def span(self, name, parent=None, **attrs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident(), "attrs": attrs,
                })

    def dump(self):
        return {"spans": self.spans, "distinct_points": len(self.distinct_points)}


def _wrap(tracer, fn, name, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(*args, **kwargs) if before else {}
        with tracer.span(name, **attrs) as live:
            out = fn(*args, **kwargs)
        if after:
            after(live, out, *args, **kwargs)
        return out

    return wrapper


def install(tracer):
    """Put span wrappers on the names each calling module imported."""
    from selfapprox import cli, density, diophantine, meanvalue
    from selfapprox.sampling import BLOCK_SIZE

    def l_value_attrs(s, chi, *args, **kwargs):
        flat = np.atleast_1d(np.asarray(s, dtype=np.complex128)).ravel()
        abs_im = np.abs(flat.imag)
        phi = sum(1 for a in chi.value_table if a is not None)
        paid = float(series_terms(abs_im.max())) if flat.size else 0.0
        with tracer._lock:
            tracer.distinct_points.update((chi.label, z) for z in flat.tolist())
        return {
            "points": int(flat.size),
            "max_im": float(abs_im.max()) if flat.size else 0.0,
            "terms": phi * paid * flat.size,
            "needed_terms": phi * float(series_terms(abs_im).sum()),
        }

    def g_values_attrs(taus, family, region, cfg=None, refine=True, **kwargs):
        return {
            "tau": int(np.atleast_1d(taus).size),
            "points_per_tau": int(region.grid_points(refine)[0].size),
        }

    def draw_attrs(seed, n, *args, **kwargs):
        return {"bytes": 8 * int(n)}

    def wrap_map_blocks(original):
        @functools.wraps(original)
        def wrapper(fn, n, threads=1):
            blocks = math.ceil(n / BLOCK_SIZE)
            with tracer.span("sampling.map_blocks", threads=threads, blocks=blocks):
                parent = tracer.current()

                def block(i0, i1):
                    with tracer.span("sampling.block", parent=parent):
                        return fn(i0, i1)

                return original(block, n, threads)

        return wrapper

    def membership_attrs(taus, target):
        n = int(np.atleast_1d(taus).size)
        return {"tau": n, "tests": n * int(target.frequencies.size)}

    def membership_after(attrs, out, *args):
        attrs["hits"] = int(np.count_nonzero(out))

    def resolve_attrs(label):
        return {"misses": cli.enumerate_characters.cache_info().misses}

    def resolve_after(attrs, out, label):
        if cli.enumerate_characters.cache_info().misses > attrs.pop("misses"):
            attrs["entries"] = out.modulus * len(cli.enumerate_characters(out.modulus))

    def block_slices_after(attrs, out, *args):
        attrs["blocks"] = len(out)

    patches = [
        (cli, "sample_g", "density.sample_g", None, None),
        (cli, "carlson_mean_value", "meanvalue.carlson", None, None),
        (cli, "b2_ladder", "meanvalue.b2_ladder", None, None),
        (cli, "measure_kronecker_density", "diophantine.kronecker", None, None),
        (cli, "find_tau_in_set", "diophantine.find_tau", None, None),
        (cli, "character_from_id", "characters.enumerate", resolve_attrs, resolve_after),
        (density, "g_values", "density.g_values", g_values_attrs, None),
        (density, "l_value", "lfunc.l_value", l_value_attrs, None),
        (meanvalue, "l_value", "lfunc.l_value", l_value_attrs, None),
        (meanvalue, "l_partial_sum", "lfunc.l_partial_sum", None, None),
        (density, "uniform_samples", "sampling.draw", draw_attrs, None),
        (meanvalue, "uniform_samples", "sampling.draw", draw_attrs, None),
        (diophantine, "uniform_samples", "sampling.draw", draw_attrs, None),
        (diophantine, "block_slices", "sampling.block_slices", None, block_slices_after),
        (diophantine, "kronecker_membership", "diophantine.membership", membership_attrs, membership_after),
    ]
    for module, attr, name, before, after in patches:
        setattr(module, attr, _wrap(tracer, getattr(module, attr), name, before, after))
    for module in (density, meanvalue):
        module.map_blocks = wrap_map_blocks(module.map_blocks)


# ---------------------------------------------------------------------------
# reduction to per-layer metrics


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanSet:
    def __init__(self, dump):
        self.spans = dump["spans"]
        self.distinct_points = dump["distinct_points"]
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def total(self, name):
        return sum(s["end"] - s["start"] for s in self.named(name))

    def attr_sum(self, name, key):
        return sum(s["attrs"].get(key, 0) for s in self.named(name))

    def _foreign_descendants(self, span):
        out = []
        for c in self.children.get(span["id"], []):
            if c["name"] in TRANSPARENT:
                out.extend(self._foreign_descendants(c))
            else:
                out.append(c)
        return out

    def self_time(self, name):
        """Time in `name` spans not covered by spans of other calls below them."""
        total = 0.0
        for s in self.named(name):
            kids = [(c["start"], c["end"]) for c in self._foreign_descendants(s)]
            total += (s["end"] - s["start"]) - _covered(kids, s["start"], s["end"])
        return total


def _ratio(num, den, scale=1.0):
    return num * scale / den if den else 0.0


def layer_metrics(dump):
    """Per-layer metrics of one traced invocation: name -> (value, unit)."""
    sp = SpanSet(dump)
    m = {}

    l_s = sp.total("lfunc.l_value")
    points = sp.attr_sum("lfunc.l_value", "points")
    terms = sp.attr_sum("lfunc.l_value", "terms")
    m["lfunc.l_value_s"] = (l_s, "s")
    m["lfunc.points"] = (points, "count")
    m["lfunc.terms"] = (terms, "count")
    m["lfunc.ns_per_term"] = (_ratio(l_s, terms, 1e9), "ns")
    m["lfunc.term_efficiency"] = (_ratio(sp.attr_sum("lfunc.l_value", "needed_terms"), terms), "ratio")
    m["lfunc.unique_point_ratio"] = (_ratio(sp.distinct_points, points), "ratio")
    m["lfunc.partial_sum_s"] = (sp.total("lfunc.l_partial_sum"), "s")
    m["lfunc.max_im"] = (max((s["attrs"]["max_im"] for s in sp.named("lfunc.l_value")), default=0.0), "abs")

    g_s = sp.total("density.g_values")
    taus = sp.attr_sum("density.g_values", "tau")
    m["density.g_values_s"] = (g_s, "s")
    m["density.self_s"] = (sp.self_time("density.g_values"), "s")
    m["density.tau"] = (taus, "count")
    m["density.ms_per_tau"] = (_ratio(g_s, taus, 1e3), "ms")
    m["density.points_per_tau"] = (_ratio(sp.attr_sum("density.g_values", "points_per_tau") * 1.0,
                                          len(sp.named("density.g_values"))), "count")

    m["meanvalue.carlson_s"] = (sp.total("meanvalue.carlson"), "s")
    m["meanvalue.b2_s"] = (sp.total("meanvalue.b2_ladder"), "s")
    m["meanvalue.self_s"] = (sp.self_time("meanvalue.carlson") + sp.self_time("meanvalue.b2_ladder"), "s")

    busy = sp.total("sampling.block")
    capacity = sum((s["end"] - s["start"]) * s["attrs"]["threads"] for s in sp.named("sampling.map_blocks"))
    m["sampling.draw_s"] = (sp.total("sampling.draw"), "s")
    m["sampling.draw_bytes"] = (sp.attr_sum("sampling.draw", "bytes"), "B")
    m["sampling.blocks"] = (sp.attr_sum("sampling.map_blocks", "blocks")
                            + sp.attr_sum("sampling.block_slices", "blocks"), "count")
    m["sampling.worker_util"] = (_ratio(busy, capacity), "ratio")

    tests = sp.attr_sum("diophantine.membership", "tests")
    mem_s = sp.total("diophantine.membership")
    m["diophantine.kronecker_s"] = (sp.total("diophantine.kronecker"), "s")
    m["diophantine.find_tau_s"] = (sp.total("diophantine.find_tau"), "s")
    m["diophantine.membership_s"] = (mem_s, "s")
    m["diophantine.tests"] = (tests, "count")
    m["diophantine.ns_per_test"] = (_ratio(mem_s, tests, 1e9), "ns")
    m["diophantine.hit_ratio"] = (_ratio(sp.attr_sum("diophantine.membership", "hits"),
                                         sp.attr_sum("diophantine.membership", "tau")), "ratio")

    builds = [s for s in sp.named("characters.enumerate") if s["attrs"].get("entries")]
    build_s = sum(s["end"] - s["start"] for s in builds)
    entries = sum(s["attrs"]["entries"] for s in builds)
    m["characters.build_s"] = (build_s, "s")
    m["characters.entries"] = (entries, "count")
    m["characters.us_per_entry"] = (_ratio(build_s, entries, 1e6), "us")

    mains = sp.named("cli.main")
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = (sum(s["end"] - s["start"] for s in mains if s["attrs"]["command"] == command), "s")
    m["cli.self_s"] = (sp.self_time("cli.main"), "s")
    m["cli.bytes_written"] = (sp.attr_sum("cli.main", "bytes_written"), "B")
    return m


def metric_units():
    """Every per-layer metric name with its unit."""
    return {k: unit for k, (_, unit) in layer_metrics({"spans": [], "distinct_points": 0}).items()}


def absent_layers(metrics):
    """Layers whose every time metric is zero: not exercised by this workload."""
    layers = sorted({k.split(".")[0] for k in metrics})
    return [
        layer for layer in layers
        if all(v == 0 for k, (v, unit) in metrics.items() if k.startswith(layer + ".") and unit == "s")
    ]
