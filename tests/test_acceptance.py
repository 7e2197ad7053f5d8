"""Acceptance gate: every criterion at its stated (exact) tolerance.

Each test prints one pass/fail line; timing budgets are asserted where the
criteria state them.  All comparisons are exact integer equality.
"""

import resource
import time

from crossdimer.families import (
    build_TR, build_aztec_rectangle, build_augmented_aztec,
)
from crossdimer.formulas import thm_TR
from crossdimer.harness import (
    SuiteConfig, delannoy, run_suite, tr_three_way_split,
)
from crossdimer.lattice import FULL_GRID
from crossdimer.matchcount import count_fkt, split_check

CFG = SuiteConfig()
_T0 = time.time()


def _report(name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.1f}s / budget {budget}s)")
    assert ok, name
    assert elapsed < budget, f"{name} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_01_aztec_diamond_law():
    t0 = time.time()
    ok = all(count_fkt(build_aztec_rectangle(FULL_GRID, n, n))
             == 2 ** (n * (n + 1) // 2) for n in range(1, 8))
    _report("1 aztec diamond law n=1..7", ok, time.time() - t0, 5)


def test_criterion_02_null_cases():
    t0 = time.time()
    ok = count_fkt(build_aztec_rectangle(FULL_GRID, 2, 3)) == 0 \
        and count_fkt(build_aztec_rectangle(FULL_GRID, 3, 5)) == 0
    _report("2 null cases", ok, time.time() - t0, 5)


def test_criterion_03_delannoy_law():
    t0 = time.time()
    ok = all(count_fkt(build_augmented_aztec(FULL_GRID, m, n))
             == delannoy(m, n)
             for m in range(1, 6) for n in range(1, 6))
    _report("3 delannoy law m,n<=5", ok, time.time() - t0, 5)


def test_criterion_04_oracle_equivalence():
    t0 = time.time()
    rep = run_suite("sanity", CFG)
    oracle = [r for r in rep.records if r["check"] == "oracle_equivalence"]
    ok = rep.passed and len(oracle) >= 200
    _report(f"4 oracle equivalence ({len(oracle)} instances)", ok,
            time.time() - t0, 120)


def test_criterion_05_theorem21_closed_forms():
    t0 = time.time()
    rep = run_suite("theorem21", CFG)
    _report(f"5 closed forms A/F ({len(rep.records)} checks)", rep.passed,
            time.time() - t0, 300)


def test_criterion_06_theorem11_tr():
    t0 = time.time()
    ok = all(count_fkt(build_TR(1, b)) == 100 for b in (2, 3, 4))
    ok = ok and count_fkt(build_TR(2, 4)) == 12_100_000_000
    ok = ok and thm_TR(2, 4).value() == 12_100_000_000
    _report("6 trimmed augmented rectangle values", ok, time.time() - t0, 180)


def test_criterion_07_theorem13_trim_rects():
    t0 = time.time()
    rep = run_suite("theorem13", CFG)
    values = [r for r in rep.records if r["check"] == "trim_rect_value"]
    cofs = [r for r in rep.records if r["check"] == "small_prime_factors"]
    ok = rep.passed and values and len(values) == len(cofs)
    _report(f"7 trimmed rectangles ({len(values)} instances, "
            "factors in {2,3,5,11})", ok, time.time() - t0, 300)


def test_criterion_08_kuo_condensation():
    t0 = time.time()
    rep = run_suite("kuo", CFG)
    ids = [r for r in rep.records if r["check"] == "kuo_identity"]
    corner = [r for r in rep.records
              if r["check"] == "kuo_corner_configuration"]
    ok = rep.passed and len(ids) >= 50 and corner
    _report(f"8 condensation identity ({len(ids)} tuples + corner config)",
            ok, time.time() - t0, 120)


def test_criterion_09_recurrence_suites():
    t0 = time.time()
    rep = run_suite("recurrences", CFG)
    formula = [r for r in rep.records if r["check"].startswith("formula_")]
    graph = [r for r in rep.records if r["check"].startswith("graph_")]
    ok = rep.passed and formula and graph
    _report(f"9 recurrences (formula {len(formula)}, graph {len(graph)})",
            ok, time.time() - t0, 360)


def test_criterion_10_graph_splitting():
    t0 = time.time()
    g, east, mid, west = tr_three_way_split(2, 6)
    r1 = split_check(g, east, method="fkt")
    rest = g.induced([v for v in g.vertices if v not in east])
    r2 = split_check(rest, mid, method="fkt")
    ok = r1["equal"] and r2["equal"] and r2["M_h"] == 1
    _report("10 graph splitting of TR(2,6), unique middle band", ok,
            time.time() - t0, 120)


def test_criterion_11_conjecture_probe():
    t0 = time.time()
    rep = run_suite("conjecture", CFG)
    probes = [r for r in rep.records if r["check"] == "probe_consistency"]
    helds = [r for r in rep.records if r["check"] == "probe_heldout"]
    ok = rep.passed and probes and len(helds) == len(probes)
    _report(f"11 weighted probe ({len(probes)} families, held-out point)",
            ok, time.time() - t0, 600)


def test_criterion_12_budget():
    elapsed = time.time() - _T0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
    print(f"[acceptance] 12 total {elapsed:.0f}s, peak {peak_gb:.2f} GB")
    assert elapsed < 1800, f"suite took {elapsed:.0f}s"
    assert peak_gb < 4.0, f"peak memory {peak_gb:.2f} GB"
