"""Outside-in tracing of crossdimer's public functions.

Nothing inside the package is edited.  Each traced function is replaced
by a wrapper in every ``crossdimer`` module namespace that holds it,
because ``from .x import f`` copies the binding: ``harness.count_fkt`` and
``matchcount.count_fkt`` are two names for one function and both must be
wrapped.  Methods are wrapped once, on their class.

Spans (name, start, end, parent) live in flat arrays in memory while the
traced pass runs and are aggregated, and optionally written out, after it.
Hot predicates that only need a call count get a counting wrapper without
a span.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from math import isqrt

MODULES = ("lattice", "families", "matchcount", "formulas", "harness")


def _det_stats(counters, args, result):
    """Dimension and bit budget of one exact determinant call."""
    mat = args[0]
    n = len(mat)
    b2 = 1
    for row in mat:
        b2 *= sum(x * x for x in row)
    counters["matchcount.det_exact.dim_sum"] += n
    counters["matchcount.det_exact.dim_max"] = max(
        counters["matchcount.det_exact.dim_max"], n)
    # det_exact's own bound; a zero row short-circuits before it is formed
    counters["matchcount.det_exact.hadamard_bits"] += (
        (isqrt(b2) + 1).bit_length() if b2 else 0)
    counters["matchcount.det_exact.result_bits"] += abs(result).bit_length()


def _reduce_stats(counters, args, result):
    counters["matchcount.reduce_forced.n_in"] += len(args[0])
    counters["matchcount.reduce_forced.n_out"] += len(result[0])


def _build_stats(counters, args, result):
    counters["families.build.vertices"] += len(result)


def _cache_stats(counters, args, result):
    counters["harness.cache.lookups"] += 1
    counters["harness.cache.hits"] += result is not None


def targets(pkg):
    """(owner, attribute, span name, extra) for every traced callable.

    With a span name, extra is None or a hook run on (counters, args,
    result) after the call.  Without one, extra is either a counter name
    (count calls only) or such a hook, and no span is recorded.  Several
    builders share the one span name ``families.build``; a build nested in
    another (``build_TR`` calls ``build_augmented_aztec``) is counted once.
    """
    lat, fam, mc, fo, ha = (getattr(pkg, m) for m in MODULES)
    out = [
        (lat, "induced_subgraph", "lattice.induced_subgraph", None),
        (lat, "corner_cut", "lattice.corner_cut", None),
        (lat.LatticeSpec, "has_vertex", None, "lattice.has_vertex.calls"),
        (lat.LatticeSpec, "edge_exists", None, "lattice.edge_exists.calls"),
        (lat.LatticeSpec, "edge_offset", None, "lattice.edge_offset.calls"),
        (fam, "assign_cross_weights", "families.assign_cross_weights", None),
        (mc.Graph, "__init__", "matchcount.Graph", None),
        (mc.Graph, "graph_hash", "matchcount.graph_hash", None),
        (mc, "reduce_forced", "matchcount.reduce_forced", _reduce_stats),
        (mc, "planar_faces", "matchcount.planar_faces", None),
        (mc, "count_fkt", "matchcount.count_fkt", None),
        (mc, "det_exact", "matchcount.det_exact", _det_stats),
        (fo.FactoredCount, "value", "formulas.value", None),
        (fo, "recurrence_check", "formulas.recurrence_check", None),
        (ha, "cached_count", "harness.cached_count", None),
        (ha.CountCache, "get", None, _cache_stats),
        (ha, "run_suite", "harness.run_suite", None),
    ]
    for name in ("build_A", "build_F", "build_TR", "build_TA", "build_TB",
                 "build_aztec_rectangle", "build_augmented_aztec"):
        out.append((fam, name, "families.build", _build_stats))
    return out


class Tracer:
    """Installs wrappers, records spans, and aggregates them per layer."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.sname = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = defaultdict(int)
        self._stack = [-1]
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self, pkg):
        mods = [m for k, m in sys.modules.items()
                if k == pkg.__name__ or k.startswith(pkg.__name__ + ".")]
        for owner, attr, span, extra in targets(pkg):
            fn = owner.__dict__[attr]
            if span is not None:
                wrapper = self._span_wrapper(span, fn, extra)
            elif isinstance(extra, str):
                wrapper = self._count_wrapper(extra, fn)
            else:
                wrapper = self._hook_wrapper(fn, extra)
            if isinstance(owner, type):
                self._swap(owner, attr, fn, wrapper)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._swap(mod, key, fn, wrapper)

    def _swap(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def _span_wrapper(self, name, fn, after):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, counters = self._stack, self.counters
        sname, parent, start, end = self.sname, self.parent, self.start, self.end
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            sname.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(counters, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, metric, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[metric] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hook_wrapper(self, fn, after):
        counters = self.counters

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(counters, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self):
        """Per-name calls, seconds and self seconds, plus per-module self time.

        ``calls`` and ``s`` count only outermost spans of a name, so nested
        builds are not counted twice; self time is each span's duration
        minus the time its direct child spans cover.
        """
        n = len(self.start)
        child = [0.0] * n
        ancestors = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                ancestors[i] = ancestors[p] | (1 << self.sname[p])
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for i in range(n):
            name = self.names[self.sname[i]]
            dur = self.end[i] - self.start[i]
            self_s[name] += dur - child[i]
            if not (ancestors[i] >> self.sname[i]) & 1:
                calls[name] += 1
                total[name] += dur
        out = dict(self.counters)
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = self_s[name]
        for mod in MODULES:
            out[f"{mod}.self_s"] = sum(v for k, v in self_s.items()
                                       if k.startswith(mod + "."))
        lookups = out.get("harness.cache.lookups", 0)
        out["harness.cache.hit_ratio"] = (
            out.get("harness.cache.hits", 0) / lookups if lookups else 0.0)
        hb = out.get("matchcount.det_exact.hadamard_bits", 0)
        out["matchcount.det_exact.bit_yield"] = (
            out.get("matchcount.det_exact.result_bits", 0) / hb if hb else 0.0)
        return out

    def write_spans(self, path):
        """One tab-separated line per span: id, parent, name, start, end."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.sname[i]]}"
                         f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")
