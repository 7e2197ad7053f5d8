"""Benchmark for crossdimer: the time to a verified verdict, per workload.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload suite-theorem21 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload tr-ladder --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload all --seconds 25 --trace 0

``--trace 0`` repeats one fixed pass of the workload until ``--seconds``
is used up and reports medians of the end-to-end metrics.  ``--trace 1``
runs one plain pass and one traced pass, reports the per-layer metrics,
and writes the spans to perfbench/out/spans-<workload>.tsv.  ``--full`` swaps the reduced passes for the complete suites
(as ``crossdimer verify`` runs them) and the ladder for a = 2..6.

Every result is checked exactly (suite records must pass, ladder counts
must equal thm_TR).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
carry the run metadata, a readable table, and the failure list.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CACHE_ENV = "CROSSDIMER_CACHE"

# Reduced passes: each suite runs unchanged through run_suite, on the
# family triples of perimeter <= `perimeter` (None: the suite's own cap).
SUITES = {
    "suite-theorem21": {"suite": "theorem21", "perimeter": 16},
    "suite-recurrences": {"suite": "recurrences", "perimeter": 16, "grid": 6},
    "suite-conjecture": {"suite": "conjecture", "perimeter": 12},
}
# TR(a, 2a) ladders, a = lo..hi; `micro` is the smoke-test input.
LADDERS = {"tr-ladder": (2, 5), "micro": (1, 2)}
WORKLOADS = ("suite-theorem21", "suite-recurrences", "tr-ladder",
             "suite-conjecture")
FULL_LADDER_TOP = 6

TOP_MIN_S = 0.4
# On a shared host, speed can drift by +-20 % over seconds to minutes, for
# CPU time as much as for wall time.  Every time metric is therefore scaled
# by a fixed reference kernel timed next to it, and reads as seconds on a
# host where that kernel takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.3
SETUP_REPS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from crossdimer import build_TR, count_fkt; "
              "print(count_fkt(build_TR(1, 2)))")

END_TO_END = {"setup_s": "s", "wall_s": "s", "top_rung_s": "s",
              "peak_rss_mb": "MB", "checks": "count"}
PER_LAYER_UNITS = {"calls": "count", "lookups": "count", "hits": "count",
                   "vertices": "count", "n_in": "count", "n_out": "count",
                   "dim_sum": "count", "dim_max": "count",
                   "hadamard_bits": "bit", "result_bits": "bit",
                   "bit_yield": "ratio", "hit_ratio": "ratio",
                   "overhead_frac": "ratio", "s": "s", "self_s": "s"}
PER_LAYER = (
    "lattice.induced_subgraph.calls", "lattice.induced_subgraph.s",
    "lattice.corner_cut.s", "lattice.has_vertex.calls",
    "lattice.edge_exists.calls", "lattice.edge_offset.calls",
    "lattice.self_s",
    "families.build.calls", "families.build.s", "families.build.vertices",
    "families.assign_cross_weights.calls", "families.assign_cross_weights.s",
    "families.self_s",
    "matchcount.Graph.calls", "matchcount.Graph.s",
    "matchcount.graph_hash.calls", "matchcount.graph_hash.s",
    "matchcount.reduce_forced.s", "matchcount.reduce_forced.n_in",
    "matchcount.reduce_forced.n_out",
    "matchcount.planar_faces.calls", "matchcount.planar_faces.s",
    "matchcount.count_fkt.calls", "matchcount.count_fkt.s",
    "matchcount.count_fkt.self_s",
    "matchcount.det_exact.calls", "matchcount.det_exact.s",
    "matchcount.det_exact.dim_sum", "matchcount.det_exact.dim_max",
    "matchcount.det_exact.hadamard_bits", "matchcount.det_exact.result_bits",
    "matchcount.det_exact.bit_yield", "matchcount.self_s",
    "formulas.value.calls", "formulas.value.s",
    "formulas.recurrence_check.calls", "formulas.recurrence_check.s",
    "formulas.self_s",
    "harness.cached_count.calls", "harness.cached_count.s",
    "harness.cache.lookups", "harness.cache.hits", "harness.cache.hit_ratio",
    "harness.run_suite.s", "harness.self_s",
    "trace.overhead_frac",
)


def per_layer_unit(name):
    return PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


# -- workloads --------------------------------------------------------------------


class SuiteWorkload:
    """One pass = run_suite(name) on a clamped family domain.

    The clamp wraps harness.valid_triples, where the suites look it up,
    and records the domains the suite asked for.  The top rung is the
    largest family graph at the largest perimeter of those full domains,
    the biggest graph the complete suite counts.
    """

    def __init__(self, cd, suite, perimeter=None, grid=None, seed=0):
        self.cd, self.suite = cd, suite
        kw = {"recurrence_grid": grid} if grid else {}
        self.cfg = cd.SuiteConfig(seed=seed, **kw)
        self.domains = set()
        self.checked_triples = 0
        orig = self.valid_triples = cd.harness.valid_triples

        def clamped(b_range, cap):
            self.domains.add((b_range, cap))
            out = orig(b_range, cap if perimeter is None
                       else min(cap, perimeter))
            self.checked_triples = max(self.checked_triples, len(out))
            return out

        cd.harness.valid_triples = clamped
        self.top = None

    def run_pass(self):
        rep = self.cd.harness.run_suite(self.suite, self.cfg)
        bad = [f"{r['suite']}/{r['check']} {r['spec']}: expected "
               f"{r['expected']}, computed {r['computed']}"
               for r in rep.failures()]
        if not rep.records:
            bad.append(f"{self.suite}: no records")
        return len(rep.records), bad

    def _pick_top(self):
        cd = self.cd
        perim = {t: cd.derive_params(*t).perimeter
                 for r, cap in self.domains for t in self.valid_triples(r, cap)}
        pmax = max(perim.values())
        best = None
        for t in sorted(t for t, p in perim.items() if p == pmax):
            for kind, build in (("A", cd.build_A), ("F", cd.build_F)):
                for i in (1, 2, 3):
                    g = build(i, *t)
                    if best is None or len(g) > len(best[1]):
                        best = ((kind, i) + t, g)
        (kind, i, a, b, c), g = best
        if self.suite == "conjecture":
            ha = cd.harness
            vec = ha.conjecture_probe(kind, i, a, b, c, ha.PROBE_POINTS,
                                      cap=len(g))
            if not isinstance(vec, ha.ConjectureExponents):
                raise ValueError(f"{kind}{i}:{a},{b},{c}: probe inconsistent")
            g = cd.assign_cross_weights(g, cd.weight_point(*ha.HELD_OUT_POINT))
            want = ha.reconstruct_weighted_count(kind, a, b, c, vec,
                                                 ha.HELD_OUT_POINT)
        else:
            fn = cd.formulas.phi_value if kind == "A" else \
                cd.formulas.psi_value
            want = fn(i, a, b, c)
        return f"{kind}{i}:{a},{b},{c}", g, want

    def top_count(self):
        """Mean time of repeated exact, checked counts of the largest graph.

        One count takes milliseconds, so it is repeated for at least
        TOP_MIN_S, a window as long as the reference kernel's.
        """
        if self.top is None:
            self.top = self._pick_top()
        spec, g, want = self.top
        times, bad = [], []
        while len(times) < 3 or sum(times) < TOP_MIN_S:
            t0 = time.perf_counter()
            got = self.cd.matchcount.count_fkt(g, cap=len(g))
            times.append(time.perf_counter() - t0)
            if got != want:
                bad.append(f"{spec}: expected {want}, computed {got}")
        return sum(times) / len(times), len(times), bad

    def describe(self):
        out = {"suite": self.suite, "triples": self.checked_triples}
        if self.top is not None:
            out["top_rung"] = {"spec": self.top[0], "vertices": len(self.top[1])}
        return out


class LadderWorkload:
    """One pass = build and count TR(a, 2a) for each rung, against thm_TR.

    Rungs above FKT_CAP are reached by passing cap= to count_fkt; the
    package constant is left alone.
    """

    def __init__(self, cd, lo, hi):
        self.cd, self.rungs = cd, range(lo, hi + 1)
        self.sizes = {}
        self.last_top = None

    def run_pass(self):
        cd, bad = self.cd, []
        for a in self.rungs:
            spec = f"TR:{a},{2 * a}"
            try:
                g = cd.families.build_TR(a, 2 * a)
                self.sizes[spec] = len(g)
                t0 = time.perf_counter()
                got = cd.matchcount.count_fkt(g, cap=len(g))
                self.last_top = time.perf_counter() - t0
                want = cd.formulas.thm_TR(a, 2 * a).value()
            except Exception as exc:  # recorded as a failed check
                bad.append(f"{spec}: raised {exc!r}")
                continue
            if got != want:
                bad.append(f"{spec}: expected {want}, computed {got}")
        return len(self.rungs), bad

    def top_count(self):
        """The top rung is counted and checked inside the pass."""
        return self.last_top, 0, []

    def describe(self):
        return {"ladder": "TR(a,2a)", "rung_vertices": self.sizes}


def make_workload(cd, name, seed, full):
    if name in SUITES:
        spec = dict(SUITES[name])
        if full:
            spec.pop("perimeter")
            spec.pop("grid", None)
        return SuiteWorkload(cd, seed=seed, **spec)
    lo, hi = LADDERS[name]
    if full and name == "tr-ladder":
        hi = FULL_LADDER_TOP
    return LadderWorkload(cd, lo, hi)


# -- measurement --------------------------------------------------------------------


def child_env():
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env.update({v: "1" for v in THREAD_VARS})
    return env


def measure_setup(want):
    """Median wall time of a fresh interpreter's import and first count."""
    times, bad = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC],
                              cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0 or proc.stdout.strip() != str(want):
            bad.append(f"setup TR:1,2: exit {proc.returncode}, printed "
                       f"{proc.stdout.strip()!r}, expected {want}; "
                       f"{proc.stderr.strip()[-200:]}")
    return statistics.median(times), len(times), bad


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, attempted, bad):
        self.attempted += attempted
        self.failures.extend(bad)


def timed_pass(work, tally, label):
    """Run one pass; an exception is one failed check, carrying its spec."""
    t0 = time.perf_counter()
    try:
        checks, bad = work.run_pass()
    except Exception as exc:
        tally.add(1, [f"{label}: raised {exc!r}"])
        return None, None
    tally.add(checks, bad)
    return time.perf_counter() - t0, checks


def host_reference():
    """Seconds for a fixed mix of the kinds of work crossdimer does.

    Tuple-keyed dict/set graph building and sorting, Fraction powers, and
    a numpy int64 modular elimination, on inputs small enough not to raise
    the peak resident memory.  It imports nothing from crossdimer, so no
    change to the program moves it.
    """
    import numpy as np  # loaded by main() after the thread settings

    t0 = time.perf_counter()
    for _ in range(32):
        pts = [(x, y) for x in range(30) for y in range(30)]
        keep = set(pts)
        adj = {p: set() for p in pts}
        for x, y in pts:
            for q in ((x + 1, y), (x, y + 1)):
                if q in keep:
                    adj[(x, y)].add(q)
                    adj[q].add((x, y))
        sorted((u, v) for u in adj for v in adj[u])
        v = Fraction(1)
        for e in range(1, 375):
            v = v * Fraction(3, 2) ** (e % 7) / Fraction(5) ** (e % 3)
        p = (1 << 30) - 35
        a = (np.arange(60 * 60, dtype=np.int64).reshape(60, 60) ** 2 + 7) % p
        for k in range(59):
            f = (a[k + 1:, k] * 12345) % p
            a[k + 1:, k:] = (a[k + 1:, k:] - f[:, None] * a[k, k:]) % p
    return time.perf_counter() - t0


def run_plain(cd, work, name, seconds, tally):
    """Repeat passes for `seconds`; report medians of host-scaled times.

    The reference kernel runs before the set-up probe, after it, and
    after every pass.  A pass time is scaled by the mean of the two
    reference times around it, and the top-rung count that ends the pass
    by the reference time right after it, so both follow the host's drift
    within the run.  The set-up time, a few short processes, is scaled by
    the median reference time of the run.
    """
    want = cd.formulas.thm_TR(1, 2).value()
    refs = [host_reference()]
    setup_raw, reps, bad = measure_setup(want)
    tally.add(reps, bad)
    refs.append(host_reference())
    walls, tops, checks = [], [], []
    start = time.perf_counter()
    while True:
        wall, n = timed_pass(work, tally, name)
        if wall is None:
            break
        top, checked, bad = work.top_count()
        tally.add(checked, bad)
        refs.append(host_reference())
        walls.append(wall)
        tops.append(top)
        checks.append(n)
        per_pass = statistics.median(w + t for w, t in zip(walls, tops))
        if time.perf_counter() - start + per_pass + refs[-1] > seconds:
            break
    if not walls:
        return None
    # pass i runs between refs[i + 1] and refs[i + 2]
    around = [2 * REF_NOMINAL_S / (a + b) for a, b in zip(refs[1:], refs[2:])]
    after = [REF_NOMINAL_S / b for b in refs[2:]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {"setup_s": setup_raw * REF_NOMINAL_S / statistics.median(refs),
              "wall_s": statistics.median(w * k for w, k in zip(walls, around)),
              "top_rung_s": statistics.median(t * k for t, k in zip(tops, after)),
              "peak_rss_mb": rss_mb, "checks": min(checks)}
    samples = {"passes": len(walls), "setup_reps": reps,
               "raw_setup_s": setup_raw, "raw_wall_s": walls,
               "raw_top_rung_s": tops, "reference_s": refs}
    return values, samples


def run_traced(cd, work, name, tally, spans_path):
    """One plain pass, then one traced pass; the overhead compares the two,
    each scaled by the mean of the reference times around it."""
    from tracer import Tracer

    refs = [host_reference()]
    plain, _ = timed_pass(work, tally, name)
    refs.append(host_reference())
    tracer = Tracer()
    tracer.install(cd)
    try:
        traced, _ = timed_pass(work, tally, name)
    finally:
        tracer.uninstall()
    refs.append(host_reference())
    if plain is None or traced is None:
        return None
    layer = tracer.layer_metrics()
    values = {k: layer.get(k, 0) for k in PER_LAYER}
    values["trace.overhead_frac"] = (
        traced * (refs[0] + refs[1]) / (plain * (refs[1] + refs[2])) - 1)
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write_spans(spans_path)
    return values, {"raw_plain_pass_s": plain, "raw_traced_pass_s": traced,
                    "reference_s": refs, "spans": len(tracer.start)}


# -- metadata and entry point -------------------------------------------------------


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(np, cache_was_set, args):
    return {
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": np.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu_model(), "platform": platform.platform(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "processes": "one workload per process, no workers",
        "cache": {"mode": "in-memory per suite call",
                  f"{CACHE_ENV}_was_set": cache_was_set,
                  "action": f"{CACHE_ENV} removed before import"},
        "seed": args.seed,
        "seed_note": "forwarded to SuiteConfig.seed; these workloads are "
                     "deterministic and do not draw from it",
        "full": args.full,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("micro", "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true",
                    help="complete suites and the a=2..6 ladder")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def run_all(args):
    """Each workload in its own fresh process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--full"] * args.full
        print(f"== {name}", flush=True)
        status = status or subprocess.run(cmd, cwd=ROOT).returncode
    return status


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "crossdimer", "__init__.py")):
        print(f"error: no crossdimer sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy loads
    cache_was_set = os.environ.pop(CACHE_ENV, None) is not None
    sys.path.insert(0, SRC)
    import numpy as np
    import crossdimer as cd
    if not os.path.realpath(cd.__file__).startswith(os.path.realpath(SRC)):
        print(f"error: imported crossdimer from {cd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = make_workload(cd, args.workload, args.seed, args.full)
    tally = Tally()
    if args.trace:
        spans = os.path.join(ROOT, "perfbench", "out",
                             f"spans-{args.workload}.tsv")
        res = run_traced(cd, work, args.workload, tally, spans)
        units = {k: per_layer_unit(k) for k in PER_LAYER}
    else:
        res = run_plain(cd, work, args.workload, args.seconds, tally)
        units = END_TO_END
    meta = metadata(np, cache_was_set, args)
    meta["workload"] = {"name": args.workload, **work.describe()}
    print(json.dumps({"meta": meta}))
    for line in tally.failures[:50]:
        print(f"FAILED {line}", file=sys.stderr)
    if res is None:
        print("error: no pass completed", file=sys.stderr)
        return 1
    values, samples = res
    print(json.dumps({"samples": samples}))
    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    for k, unit in units.items():
        print(f"{args.workload:18s} {k:40s} {values[k]:>16.6g} {unit}")
    print(f"{args.workload:18s} {'failed_frac':40s} "
          f"{failed / attempted:>16.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
