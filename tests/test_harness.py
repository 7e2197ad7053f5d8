import json
import os

import numpy as np
import pytest

from crossdimer import harness
from crossdimer.families import InvalidParams, Spec, build_A, build_F, build_TR
from crossdimer.harness import (
    BadProbePoint, CacheCorrupt, ConjectureExponents, CountCache,
    SuiteConfig, cached_count, conjecture_probe, corner_kuo_quad, delannoy,
    reconstruct_weighted_count, render_svg, run_suite, screen_probe_point,
    seeded_kuo_quads, tr_three_way_split,
)
from crossdimer.lattice import GRID_B
from crossdimer.matchcount import FKT_CAP, Graph, count_fkt, kuo_check


def test_delannoy_values():
    assert delannoy(1, 1) == 3
    assert delannoy(2, 2) == 13
    assert delannoy(1, 2) == delannoy(2, 1) == 5
    assert delannoy(0, 7) == 1


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    c = CountCache(path)
    assert c.get("k") is None
    c.put("k", 12345)
    assert c.get("k") == "12345"
    c2 = CountCache(path)
    assert c2.get("k") == "12345"
    with pytest.raises(CacheCorrupt):
        c2.put("k", 54321)


def test_cache_reports_file_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"key": "a", "count": "1"}\n\n{"key": "b", "cou')
    with pytest.raises(CacheCorrupt, match=r"cache\.jsonl: line 3,"):
        CountCache(str(path))
    path.write_text('{"key": "a", "count": "1"}\n["a", "1"]\n')
    with pytest.raises(CacheCorrupt, match="line 2 is not"):
        CountCache(str(path))
    path.write_text('{"key": "a", "count": "1"}\n{"key": "a", "count": "2"}')
    with pytest.raises(CacheCorrupt, match="line 2: conflicting"):
        CountCache(str(path))
    path.write_bytes(b'{"key": "a", "count": "1"}\n\xff\xfe\xfa\n')
    with pytest.raises(CacheCorrupt, match="line 2"):
        CountCache(str(path))


def test_cached_count_hashes_once_counts_duplicates_once(monkeypatch):
    keyed, batches = [], []
    count_key = harness.count_key
    count_many = harness.count_many

    def key_spy(lat, grid):
        keyed.append(grid)
        return count_key(lat, grid)

    def count_spy(graphs):
        graphs = list(graphs)
        batches.append(len(graphs))
        return count_many(graphs)

    monkeypatch.setattr(harness, "count_key", key_spy)
    monkeypatch.setattr(harness, "count_many", count_spy)
    monkeypatch.delenv("CROSSDIMER_CACHE", raising=False)
    items = [Spec("A1", (2, 2, 0)), Spec("F1", (3, 3, 1)),
             Spec("A1", (2, 2, 0)), Spec("TR", (1, 2))]
    want = [count_fkt(g) for g in (build_A(1, 2, 2, 0), build_F(1, 3, 3, 1),
                                   build_A(1, 2, 2, 0), build_TR(1, 2))]
    cache = CountCache(None)
    assert cached_count(iter(items), cache) == want
    assert len(keyed) == 4 and batches == [3]
    # a second call is served by the cache, without a count
    assert cached_count(items[:2], cache) == want[:2]
    assert len(keyed) == 6 and batches == [3, 0]
    assert all(k.startswith(harness.CACHE_KEY_PREFIX) for k in cache.mem)


def test_probe_screen_rejects_unit_and_collisions():
    with pytest.raises(BadProbePoint):
        screen_probe_point((1, 1, 1))
    with pytest.raises(BadProbePoint):
        screen_probe_point((3, 2, 1))   # z collides with the unit
    with pytest.raises(BadProbePoint):
        screen_probe_point((5, 2, 3))   # even y makes a base share 2
    screen_probe_point((3, 5, 7))
    screen_probe_point((3, 5, 11))


def test_probe_consistent_and_reconstructs():
    vec = conjecture_probe("A", 1, 2, 2, 0, ((3, 5, 7), (5, 7, 3), (7, 3, 5)))
    assert isinstance(vec, ConjectureExponents)
    from crossdimer.families import assign_cross_weights, weight_point
    g = build_A(1, 2, 2, 0)
    held = (3, 5, 11)
    gw = assign_cross_weights(g, weight_point(*held))
    assert count_fkt(gw) == reconstruct_weighted_count("A", 2, 2, 0, vec, held)


def test_probe_rejects_bad_point(monkeypatch):
    import crossdimer.families as fams

    with pytest.raises(BadProbePoint):
        conjecture_probe("A", 1, 2, 2, 0, ((1, 1, 1),))
    with pytest.raises(BadProbePoint, match=r"\(3, 5\)"):
        conjecture_probe("A", 1, 2, 2, 0, ((3, 5),))
    # every point is screened before anything is counted, so a bad point
    # is reported even after a point that would read inconsistent
    broken = dict(fams.WEIGHT_TABLE)
    broken[((0, 0), (0, 1))] = "x"
    for table in (fams.WEIGHT_TABLE, broken):
        monkeypatch.setattr(fams, "WEIGHT_TABLE", table)
        with pytest.raises(BadProbePoint, match=r"\(1, 1, 1\)"):
            conjecture_probe("A", 1, 2, 2, 0, ((3, 5, 7), (1, 1, 1)))


def test_probe_inconsistent_on_broken_weights(monkeypatch):
    import crossdimer.families as fams
    from crossdimer.harness import Inconsistent

    broken = dict(fams.WEIGHT_TABLE)
    broken[((0, 0), (0, 1))] = "x"  # weight an edge the pattern leaves at 1
    monkeypatch.setattr(fams, "WEIGHT_TABLE", broken)
    out = conjecture_probe("A", 1, 2, 2, 0, ((3, 5, 7), (5, 7, 3)))
    assert isinstance(out, Inconsistent)


def test_suite_conjecture_matches_per_point_counts(monkeypatch):
    from crossdimer.families import assign_cross_weights, weight_point
    from crossdimer.harness import (
        HELD_OUT_POINT, PROBE_POINTS, _probe_vector, valid_triples,
    )

    monkeypatch.setattr(harness, "valid_triples",
                        lambda r, cap: valid_triples(r, min(cap, 10)))
    want = []
    for (a, b, c) in valid_triples(range(2, 7), 10):
        for i in (1, 2, 3):
            for family, build in (("A", build_A), ("F", build_F)):
                spec = f"{family}{i}:{a},{b},{c}"
                counts = [count_fkt(assign_cross_weights(
                    build(i, a, b, c), weight_point(*pt)))
                    for pt in PROBE_POINTS + (HELD_OUT_POINT,)]
                vec = _probe_vector(family, a, b, c, PROBE_POINTS, counts)
                ok = isinstance(vec, ConjectureExponents)
                want.append(("probe_consistency", spec, "True", str(ok), ok))
                if ok:
                    exp = reconstruct_weighted_count(family, a, b, c, vec,
                                                     HELD_OUT_POINT)
                    want.append(("probe_heldout", spec, str(exp),
                                 str(counts[3]), exp == counts[3]))
    got = [(r["check"], r["spec"], r["expected"], r["computed"], r["pass"])
           for r in run_suite("conjecture", SuiteConfig()).records]
    assert len(want) > 12 and got == want


# sha256 of json.dumps(records, sort_keys=True) for the full conjecture
# suite, as counted from built Graphs with per-entry Fraction weights
CONJECTURE_RECORDS_SHA256 = \
    "cf4bf87ad578b67b84d7e2a032209909dd355cad9a7d72904cb9e2c7b77c359f"


def test_suite_conjecture_records_pinned():
    import hashlib

    records = run_suite("conjecture", SuiteConfig()).records
    assert len(records) == 432
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode())
    assert digest.hexdigest() == CONJECTURE_RECORDS_SHA256


# the same digest for each other suite at the default SuiteConfig
SUITE_RECORDS_SHA256 = {
    "sanity":
        "e020e8fd9f62dd23cf1b0993f2a34a03d02b76c06a9233058d4cfea9947edde7",
    "theorem21":
        "23e7463edb6f9c61306c7bbf3c96c924c579cf02f47fc2ee7ac8abbc9f93101f",
    "theorem11":
        "d10c128c272dbe53cbfcd4cd15ef40796a04f76e880714738579414faf2e1da9",
    "theorem13":
        "8025ec1701a2e3c9ad33c2f045324ddeb8882ac7eb311e9a8325c1f3d186a426",
    "kuo":
        "12a5bb1bbddb42e30776d8ffd6ef5ace0a67a212250816f97da6ca768ea0cc06",
    "recurrences":
        "4fcffbc8b5e4c6637f0c035668e15f44208974139475d63d6a9f5cd6fcd4fcee",
}


@pytest.mark.parametrize("name", sorted(SUITE_RECORDS_SHA256))
def test_suite_records_pinned(name):
    import hashlib

    records = run_suite(name, SuiteConfig()).records
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode())
    assert digest.hexdigest() == SUITE_RECORDS_SHA256[name]


def test_weighted_counts_match_weighted_graphs():
    from crossdimer.families import assign_cross_weights, weight_point
    from crossdimer.harness import HELD_OUT_POINT, PROBE_POINTS

    specs = [("A", 1, 2, 2, 0), ("F", 1, 2, 2, 0), ("A", 2, 4, 4, 2),
             ("F", 3, 4, 4, 2), ("A", 3, 3, 3, 1), ("F", 2, 5, 4, 1)]
    points = PROBE_POINTS + (HELD_OUT_POINT,)
    got = harness._weighted_counts(
        [Spec(f"{family}{i}", (a, b, c)) for family, i, a, b, c in specs],
        points, FKT_CAP)
    want = [[count_fkt(assign_cross_weights(
        (build_A if family == "A" else build_F)(i, a, b, c),
        weight_point(*pt))) for pt in points]
        for family, i, a, b, c in specs]
    assert got == want and all(n > 0 for row in got for n in row)


def _graph_recurrence_reference(triples):
    """The graph_* records, from hand-written shift lists and one fresh
    build and count_fkt per graph instance; returns (records, {instance:
    count key}).
    """
    import functools

    from crossdimer.families import derive_params, grids

    keys = {}

    @functools.cache
    def gm(kind, i, t):
        g = build_A(i, *t) if kind == "A" else build_F(i, *t)
        grid, = grids([Spec(f"{kind}{i}", t)])
        keys[kind, i, t] = harness.count_key(GRID_B, grid)
        return count_fkt(g)

    want = []

    def add(name, spec, ok):
        want.append((name, spec, "True", str(ok), ok))

    for (a, b, c) in triples:
        p = derive_params(a, b, c)
        d, e = p.d, p.e
        if b >= 5 and c >= 2 and a > c + d:
            trs = [(a, b, c), (a - 3, b - 3, c - 2), (a - 2, b - 1, c),
                   (a - 1, b - 2, c - 2), (a - 1, b - 1, c - 1),
                   (a - 2, b - 2, c - 1)]
            for kind in ("A", "F"):
                for i in (1, 2, 3):
                    v = [gm(kind, i, t) for t in trs]
                    add("graph_R1", f"{kind}{i}:{a},{b},{c}",
                        v[0] * v[1] == v[2] * v[3] + v[4] * v[5])
        if a >= 2 and b >= 4 and d >= 2 and e >= 2 and c >= 1:
            trs = [(a, b, c), (a - 2, b - 2, c), (a - 1, b - 1, c),
                   (a, b, c + 1), (a - 2, b - 2, c - 1)]
            for kind in ("A", "F"):
                for i in (1, 2, 3):
                    v = [gm(kind, i, t) for t in trs]
                    add("graph_R2", f"{kind}{i}:{a},{b},{c}",
                        v[0] * v[1] == v[2] ** 2 + v[3] * v[4])
        if a >= 2 and b >= 4 and d >= 2 and e >= 2 and c == 0:
            e0, d0 = 3 * b - 2 * a, 2 * b - a
            for kind in ("A", "F"):
                for i in (1, 2, 3):
                    j = 1 if i == 1 else 5 - i
                    lhs = gm(kind, i, (a, b, 0)) * gm(kind, i, (a - 2, b - 2, 0))
                    rhs = gm(kind, i, (a - 1, b - 1, 0)) ** 2 \
                        + gm(kind, i, (a, b, 1)) * gm(kind, j, (e0, d0, 1))
                    add("graph_R3" if i == 1 else "graph_R6",
                        f"{kind}{i}:{a},{b},0", lhs == rhs)
        if a >= 2 and b >= 5 and c >= 2 and a <= c + d and d >= 1:
            trs = [(a, b, c), (a - 2, b - 3, c - 2), (a - 1, b - 1, c),
                   (a - 1, b - 2, c - 2), (a - 2, b - 2, c - 1),
                   (a, b - 1, c - 1)]
            for kind in ("A", "F"):
                for i in (1, 2, 3):
                    v = [gm(kind, i, t) for t in trs]
                    add("graph_R4", f"{kind}{i}:{a},{b},{c}",
                        v[0] * v[1] == v[2] * v[3] + v[4] * v[5])
        if a >= 2 and b >= 5 and c >= 2 and a <= c + d and d == 0:
            for kind, other in (("A", "F"), ("F", "A")):
                for i in (1, 2, 3):
                    lhs = gm(kind, i, (a, b, c)) \
                        * gm(kind, i, (a - 2, b - 3, c - 2))
                    rhs = gm(other, 4 - i, (c, b - 1, a - 1)) \
                        * gm(kind, i, (a - 1, b - 2, c - 2)) \
                        + gm(kind, i, (a - 2, b - 2, c - 1)) \
                        * gm(kind, i, (a, b - 1, c - 1))
                    add("graph_R5", f"{kind}{i}:{a},{b},{c}", lhs == rhs)
    return want, keys


def test_suite_recurrences_matches_per_graph_counts(monkeypatch):
    from crossdimer.harness import valid_triples

    monkeypatch.setattr(harness, "valid_triples",
                        lambda r, cap: valid_triples(r, min(cap, 16)))
    monkeypatch.delenv("CROSSDIMER_CACHE", raising=False)
    batches, keyed = [], []
    count_many, count_key = harness.count_many, harness.count_key

    def count_spy(graphs):
        graphs = list(graphs)
        batches.append(len(graphs))
        return count_many(graphs)

    def key_spy(lat, grid):
        keyed.append(count_key(lat, grid))
        return keyed[-1]

    monkeypatch.setattr(harness, "count_many", count_spy)
    monkeypatch.setattr(harness, "count_key", key_spy)
    rep = run_suite("recurrences", SuiteConfig(recurrence_grid=2))
    monkeypatch.setattr(harness, "count_key", count_key)
    got = [(r["check"], r["spec"], r["expected"], r["computed"], r["pass"])
           for r in rep.records if r["check"].startswith("graph_")]
    want, keys = _graph_recurrence_reference(
        valid_triples(range(2, 8), 16))
    assert {w[0] for w in want} == {f"graph_R{k}" for k in range(1, 7)}
    assert got == want and all(w[4] for w in want)
    # one key per instance, and one elimination with each distinct graph
    # in it once
    assert len(keyed) == len(keys) and set(keyed) == set(keys.values())
    assert batches == [len(set(keyed))]


def test_suite_recurrences_tabulates_each_closed_form_per_call(monkeypatch):
    from crossdimer import formulas
    from crossdimer.harness import valid_triples

    monkeypatch.setattr(harness, "valid_triples",
                        lambda r, cap: valid_triples(r, min(cap, 12)))
    built, values = [], []
    value = formulas.FactoredCount.value

    def value_spy(self):
        values.append(self)
        return value(self)

    def closed_spy(tag, f):
        def spy(i, a, b, c):
            built.append((tag, i, np.broadcast(a, b, c).size))
            return f(i, a, b, c)
        return spy

    monkeypatch.setattr(formulas.FactoredCount, "value", value_spy)
    monkeypatch.setattr(harness, "phi", closed_spy("phi", formulas.phi))
    monkeypatch.setattr(harness, "psi", closed_spy("psi", formulas.psi))
    calls = []
    for _ in range(2):
        built.clear()
        assert run_suite("recurrences", SuiteConfig(recurrence_grid=3)).passed
        calls.append(list(built))
    # each call tabulates every closed form once, on the box [-3, 4]^3,
    # and evaluates the same other terms directly
    assert calls[0] == calls[1]
    assert [t for t in calls[0] if t[2] == 8 ** 3] == [
        (tag, i, 8 ** 3) for tag in ("phi", "psi") for i in (1, 2, 3)]
    assert values == []


def _mutant_g(a, b, c):
    """g_fn with // 4 for // 3, under which the recurrences fail."""
    return (b - a) * (b - c) + (a - c) ** 2 // 4


@pytest.mark.parametrize("mutant", [False, True])
def test_formula_records_match_scalar_recurrence_check(monkeypatch, mutant):
    import functools
    from itertools import product

    from crossdimer import formulas
    from crossdimer.formulas import recurrence_check

    if mutant:
        monkeypatch.setattr(formulas, "g_fn", _mutant_g)
    monkeypatch.setattr(harness, "valid_triples", lambda r, cap: [])
    G = 4
    got = [(r["check"], r["spec"], int(r["computed"])) for r in run_suite(
        "recurrences", SuiteConfig(recurrence_grid=G)).records]
    # the scalar path: one recurrence_check per point, over memoised values
    fn = {f"{tag}{i}": functools.cache(
              lambda a, b, c, f=f, i=i: f(i, a, b, c).value())
          for tag, f in (("phi", formulas.phi), ("psi", formulas.psi))
          for i in (1, 2, 3)}
    box = list(product(range(G + 1), repeat=3))
    plane = [(a, b, 0) for a, b in product(range(G + 1), repeat=2)]

    def bad(r, star, points, diamond=None):
        return sum(not recurrence_check(r, fn[star], fn.get(diamond),
                                        *t)["equal"] for t in points)

    want = [(f"formula_{r}", s, bad(r, s, box))
            for r in ("R1", "R2", "R4") for s in fn]
    want += [("formula_R3", s, bad("R3", s, plane)) for s in ("phi1", "psi1")]
    want += [("formula_R6", f"({s},{d})", bad("R6", s, plane, d))
             for tag in ("phi", "psi") for i in (2, 3)
             for s, d in [(f"{tag}{i}", f"{tag}{5 - i}")]]
    want += [("formula_R5", f"({s},{d})", bad("R5", s, box, d))
             for i in (1, 2, 3)
             for s, d in ((f"phi{i}", f"psi{4 - i}"), (f"psi{i}", f"phi{4 - i}"))]
    phi1 = fn["phi1"]
    want.append(("formula_reflection_c0", "phi1", sum(
        phi1(a - 2, b - 2, -1) != phi1(3 * b - 2 * a, 2 * b - a, 1)
        for a, b, _ in plane)))
    assert got == want
    assert (sum(w[2] for w in want) > 0) == mutant


def test_theorem11_counts_in_four_batches(monkeypatch):
    from crossdimer import matchcount

    monkeypatch.delenv("CROSSDIMER_CACHE", raising=False)
    batches, count_many = [], matchcount.count_many

    def spy(graphs, cap=FKT_CAP):
        batches.append(1)
        return count_many(graphs, cap)

    monkeypatch.setattr(harness, "count_many", spy)
    monkeypatch.setattr(matchcount, "count_many", spy)
    assert run_suite("theorem11", SuiteConfig()).passed
    # the claims, the bands of the split, and one per split_check
    assert len(batches) == 4


def test_render_svg(tmp_path):
    out = str(tmp_path / "g.svg")
    g = build_TR(1, 2)
    render_svg(g, out)
    text = open(out).read()
    assert text.startswith("<?xml")
    assert text.count("<line") == len(g.edges())
    # empty graph renders valid svg
    render_svg(Graph([], []), out)
    assert "<svg" in open(out).read()


def test_render_svg_weight_labels(tmp_path):
    from crossdimer.families import assign_cross_weights, weight_point
    g = assign_cross_weights(build_A(1, 2, 2, 0), weight_point(3, 5, 7))
    out = str(tmp_path / "w.svg")
    render_svg(g, out, show_weights=True)
    assert open(out).read().count("<text") == len(g.weights)


def test_seeded_quads_valid():
    import random
    g = build_A(1, 3, 3, 0)
    quads = seeded_kuo_quads(g, random.Random(7), want=3)
    for q in quads:
        res = kuo_check(g, *q)
        assert res["equal"]


def test_corner_quad_found():
    g, quad = corner_kuo_quad(8, 8, 3)
    res = kuo_check(g, *quad, method="fkt")
    assert res["equal"] and res["rhs"] > 0


def test_tr_split_structure():
    from crossdimer.matchcount import reduce_forced

    g, east, mid, west = tr_three_way_split(1, 2)
    band = g.induced(mid)
    assert count_fkt(band) == 1
    reduced, mult = reduce_forced(band)
    assert len(reduced) == 0 and mult == 1
    assert count_fkt(g.induced(east)) * count_fkt(g.induced(west)) == 100


def test_suite_determinism():
    cfg = SuiteConfig(seed=99)
    r1 = run_suite("sanity", cfg)
    r2 = run_suite("sanity", cfg)
    assert r1.records == r2.records


def test_run_suite_unknown():
    with pytest.raises(InvalidParams):
        run_suite("nope")


def test_cache_env_override(tmp_path, monkeypatch):
    path = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("CROSSDIMER_CACHE", path)
    c = CountCache()
    c.put("x", 7)
    assert os.path.exists(path)
    rec = json.loads(open(path).read().strip())
    assert rec["key"] == "x" and rec["count"] == "7"


def test_valid_triples_match_the_full_scan():
    # bounding a and c from d, e >= 0 gives the triples, in order, that
    # trying derive_params on every (a, c) in [0, 3b] x [0, 2b] gives
    from crossdimer.families import derive_params
    from crossdimer.harness import valid_triples

    def scan(b_range, cap):
        out = []
        for b in b_range:
            for a in range(3 * b + 1):
                for c in range(2 * b + 1):
                    try:
                        p = derive_params(a, b, c)
                    except InvalidParams:
                        continue
                    if p.perimeter <= cap:
                        out.append((a, b, c))
        return out

    for cap in range(8, 41):
        assert valid_triples(range(2, 15), cap) == scan(range(2, 15), cap)
    assert valid_triples(range(-1, 3), 16) == scan(range(-1, 3), 16)


def test_theorem21_walks_no_contour(monkeypatch):
    # the family graphs come from corner arithmetic: the contour walk
    # stays the validator of user contours and the tests' oracle
    import sys

    def walked(spec):
        raise AssertionError(f"trace_contour({spec}) was called")

    for name, mod in list(sys.modules.items()):
        if name.startswith("crossdimer") and hasattr(mod, "trace_contour"):
            monkeypatch.setattr(mod, "trace_contour", walked)
    assert run_suite("theorem21", SuiteConfig()).passed
