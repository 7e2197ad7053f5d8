"""Verification suites, the weighted-probe machinery, SVG export, cache.

Each suite re-derives a block of the closed-form claims from scratch and
compares exact graph counts against exact formula values, one record per
check.  Suites are deterministic given the seed in SuiteConfig.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, product
from math import gcd, prod

from .errors import CrossdimerError
from .families import (
    Spec, build_A, build_TR, check_trim_domain, cross_weightings,
    derive_params, family_geometry, grids, weight_point, InvalidParams,
)
from .formulas import (
    C0, FOLD, phi, psi, phi_value, psi_value, recurrence_check,
    recurrence_holds, exponent_table, factor_small, alpha_w, beta_w,
    HypothesisViolated, _signed_exponents,
)
from .lattice import FULL_GRID, GRID_B
from .matchcount import (
    BRUTE_CAP, BUILD_CAP, FKT_CAP, BadVertexSelection, count_brute,
    count_many, kuo_check, split_check, planar_faces,
)


class CacheCorrupt(CrossdimerError):
    """A count cache file holds a torn, malformed or conflicting line."""


class BadProbePoint(CrossdimerError):
    pass


DEFAULT_CACHE_ENV = "CROSSDIMER_CACHE"
# The version of count_key's format; keys of other formats never match.
CACHE_KEY_PREFIX = "points-v1:"


@dataclass
class SuiteConfig:
    recurrence_grid: int = 20
    cache_path: str | None = None
    seed: int = 20260808

    def __post_init__(self):
        for name in ("recurrence_grid", "seed"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int):
                raise InvalidParams(f"{name} must be an integer, not {v!r}")
        if not isinstance(self.cache_path, (str, type(None))):
            raise InvalidParams(f"cache_path must be a string or null, not "
                                f"{self.cache_path!r}")
        if (G := self.recurrence_grid) <= 0:
            raise InvalidParams("recurrence_grid must be positive")
        if (G + 5) ** 3 > BUILD_CAP:  # suite_recurrences' table size
            raise InvalidParams(f"recurrence_grid {G} is too large: a closed "
                                f"form's table spans (G + 5)^3 points, above "
                                f"the build cap of {BUILD_CAP}")


@dataclass
class SuiteReport:
    name: str
    records: list = field(default_factory=list)

    def add(self, check, spec, expected, computed):
        self.records.append({
            "suite": self.name, "check": check, "spec": spec,
            "expected": str(expected), "computed": str(computed),
            "pass": bool(expected == computed),
        })

    @property
    def passed(self):
        return all(r["pass"] for r in self.records)

    def failures(self):
        return [r for r in self.records if not r["pass"]]


# -- result cache ----------------------------------------------------------------


class CountCache:
    """Append-only JSON-lines store of exact counts keyed by count_key.

    Lines keyed otherwise (the graph_hash keys of earlier versions) still
    load and are checked for conflicts, but no count_key matches them.
    """

    def __init__(self, path=None):
        self.path = path or os.environ.get(DEFAULT_CACHE_ENV)
        self.mem = {}
        if self.path and os.path.exists(self.path):
            with open(self.path, "rb") as fh:
                for no, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        rec = json.loads(line)
                        self._absorb(rec["key"], rec["count"])
                    except json.JSONDecodeError as exc:
                        raise CacheCorrupt(
                            f"{self.path}: line {no}, column {exc.colno}: "
                            f"{exc.msg}") from None
                    except (ValueError, TypeError, KeyError):
                        raise CacheCorrupt(f"{self.path}: line {no} is not "
                                           f"a key/count record") from None
                    except CacheCorrupt as exc:
                        raise CacheCorrupt(
                            f"{self.path}: line {no}: {exc}") from None

    def _absorb(self, key, count):
        if not (type(count) is str and count.isascii() and count.isdigit()):
            raise CacheCorrupt(f"count {count!r} is not decimal digits")
        if key in self.mem and self.mem[key] != count:
            raise CacheCorrupt(
                f"conflicting counts for {key}: {self.mem[key]} vs {count}")
        self.mem[key] = count

    def get(self, key):
        return self.mem.get(key)

    def put(self, key, count):
        count = str(count)
        self._absorb(key, count)
        if self.path:
            with open(self.path, "a") as fh:
                fh.write(json.dumps({"key": key, "count": count,
                                     "method": "fkt"}) + "\n")


def count_key(lat, g):
    """The cache key of the graph g that lattice lat induces on a point
    set: CACHE_KEY_PREFIX and the sha256 of the lattice kind and the sorted
    little-endian int64 point array."""
    digest = hashlib.sha256(lat.kind.encode() + b"\0")
    digest.update(g.points().astype("<i8").tobytes())
    return CACHE_KEY_PREFIX + digest.hexdigest()


def cached_count(specs, cache=None):
    """Exact FKT counts of the graphs that an iterable of Specs names, in
    order.

    The Specs become graphs a bounded batch at a time (families.grids),
    and each is keyed once (count_key).  The distinct graphs that the cache
    does not hold are counted together by one count_many, so a graph
    repeated in the input is counted once; integer counts are then stored.
    """
    keys, counts, todo, specs = [], {}, {}, list(specs)
    for spec, g in zip(specs, grids(specs)):
        key = count_key(spec.lat, g)
        keys.append(key)
        if key in counts or key in todo:
            continue
        hit = cache.get(key) if cache is not None else None
        if hit is None:
            todo[key] = g
        else:
            counts[key] = int(hit)
    for key, n in zip(todo, count_many(todo.values())):
        counts[key] = n
        if cache is not None and not isinstance(n, Fraction):
            cache.put(key, n)
    return [counts[key] for key in keys]


# -- small oracles ----------------------------------------------------------------


def delannoy(m, n):
    """Lattice paths (0,0) -> (m,n) with north, northeast and east steps."""
    row = [1] * (n + 1)
    for _ in range(m):
        new = [1] * (n + 1)
        for j in range(1, n + 1):
            new[j] = new[j - 1] + row[j] + row[j - 1]
        row = new
    return row[n]


def valid_triples(b_range, cap):
    """The family triples (a, b, c), ordered, with b >= 2 in b_range and
    perimeter at most cap: d, e >= 0 bound a and c directly."""
    return [(a, b, c) for b in b_range if b >= 2
            for a in range(3 * b // 2 + 1)
            for c in range(min(2 * b - a, 3 * b - 2 * a) // 2 + 1)
            if derive_params(a, b, c).perimeter <= cap]


# -- suites -----------------------------------------------------------------------


def suite_sanity(cfg):
    rep = SuiteReport("sanity")
    # (check, spec, expected, graph), all counted by one count_many
    laws = [("aztec_diamond_law", Spec("AR", (n, n), FULL_GRID),
             2 ** (n * (n + 1) // 2)) for n in range(1, 8)]
    laws += [("null_case", Spec("AR", mn, FULL_GRID), 0)
             for mn in ((2, 3), (3, 5))]
    laws += [("delannoy_law", Spec("AAR", (m, n), FULL_GRID), delannoy(m, n))
             for m in range(1, 6) for n in range(1, 6)]
    checks = [(check, str(spec), want, g) for (check, spec, want), g
              in zip(laws, grids(spec for _, spec, _ in laws))]
    # oracle equivalence over the small-instance pool
    pool = [Spec(head, (m, n), lat)
            for m in range(1, 4) for n in range(1, 4)
            for lat in (FULL_GRID, GRID_B) for head in ("AR", "AAR")]
    pool += [Spec(f"{kind}{i}", t)
             for t in valid_triples(range(2, 7), 16) for i in (1, 2, 3)
             for kind in ("A", "F")]
    pool = [(str(spec), g) for spec, g in zip(pool, grids(pool))]
    rng = random.Random(cfg.seed)
    extended = list(pool)
    for spec_str, g in pool:
        if len(g) < 8 or len(g) > BRUTE_CAP + 2:
            continue
        ev = sorted(v for v in g.vertices if (v[0] + v[1]) % 2 == 0)
        od = sorted(v for v in g.vertices if (v[0] + v[1]) % 2 == 1)
        if ev and od:
            for k in range(2):
                u, v = rng.choice(ev), rng.choice(od)
                extended.append((f"{spec_str}-minus{k}:{u},{v}",
                                 g.without((u, v))))
    checks += [("oracle_equivalence", spec_str, count_brute(g), g)
               for spec_str, g in extended if len(g) <= BRUTE_CAP]
    counts = count_many([g for *_, g in checks])
    for (check, spec_str, want, _), got in zip(checks, counts):
        rep.add(check, spec_str, want, got)
    checked = sum(check == "oracle_equivalence" for check, *_ in checks)
    rep.add("oracle_equivalence_volume", ">=200 instances", True,
            checked >= 200)
    return rep


def claims_report(name, claims, cfg):
    """The report of suite name with one record per (check, Spec) claim on
    the count of the spec's graph: that it is the spec's closed form or,
    for theorem13's small_prime_factors claims, that no prime but 2, 3, 5
    and 11 divides it.  One cached_count counts the distinct graphs,
    straight from their point sets."""
    rep = SuiteReport(name)
    specs = list(dict.fromkeys(spec for _, spec in claims))
    counts = dict(zip(specs, cached_count(specs, CountCache(cfg.cache_path))))
    for check, spec in claims:
        got = counts[spec]
        if check == "small_prime_factors":
            cofactor = factor_small(got)["cofactor"] if got > 0 else 0
            rep.add(check, str(spec), 1, cofactor)
        else:
            rep.add(check, str(spec), spec.closed_form().value(), got)
    return rep


def suite_theorem21(cfg):
    return claims_report("theorem21", [
        (f"{head[0]}_closed_form", Spec(head, t))
        for t in valid_triples(range(2, 7), 28)
        for i in (1, 2, 3) for head in (f"A{i}", f"F{i}")], cfg)


def tr_three_way_split(a, b):
    """The two staircase cuts of the trimmed augmented rectangle.

    Returns (g, part_east, part_mid, part_west) where the two outer bands
    realize the two family factors of the count (one per side) and the
    middle band has a unique matching.  The bands lie between the balanced
    x + y levels (as in matchcount._plan), each counted once; the outer
    bands are the first and the last.
    """
    g = build_TR(a, b)
    size = Counter(x + y for x, y in g.vertices)
    levels = sorted(size)
    cuts = [t for t, s in zip(levels, accumulate(
        size[t] * (1 - 2 * (t % 2)) for t in levels)) if s == 0]
    bands = [{v for v in g.vertices if lo < v[0] + v[1] <= hi}
             for lo, hi in zip([levels[0] - 1] + cuts, cuts)]
    counts = count_many([g.induced(h) for h in bands])
    factors = sorted((phi_value(3, 2 * a, 3 * a, 2 * a),
                      psi_value(3, 2 * a, 3 * a, 2 * a)))
    if (len(bands) < 2 or sorted((counts[0], counts[-1])) != factors
            or set(counts[1:-1]) - {1}):
        raise AssertionError("the outer bands do not realize the two "
                             "family factors")
    return g, bands[-1], set().union(*bands[1:-1]), bands[0]


def suite_theorem11(cfg):
    rep = claims_report("theorem11", [
        ("tr_value", Spec("TR", t)) for t in ((1, 2), (1, 3), (1, 4), (2, 4))],
        cfg)
    # graph splitting of TR_{2,6} into three bands
    g, east, mid, west = tr_three_way_split(2, 6)
    r1 = split_check(g, east, method="fkt")
    rep.add("tr_split_east", "TR:2,6", True, r1["equal"])
    rest = g.without(east)
    r2 = split_check(rest, mid, method="fkt")
    rep.add("tr_split_mid", "TR:2,6", True, r2["equal"])
    rep.add("tr_split_unique_band", "TR:2,6 middle", 1, r2["M_h"])
    return rep


def trim_rect_domain(m_cap=5, n_cap=7):
    """Trim-rectangle parameters (m, n, h1, h2) that satisfy the floor-sum
    constraint; check_trim_domain picks those theorem 1.3 covers."""
    return [(m, n, h1, h2) for m in range(1, m_cap + 1)
            for n in range(m, n_cap + 1)
            for h1 in range(4 * (n - m) + 2) for h2 in range(4 * (n - m) + 2)
            if (h1 + 1) // 2 + (h2 + 1) // 2 == 2 * (n - m)]


def suite_theorem13(cfg):
    claims = []
    for t in trim_rect_domain():
        for variant in ("TA", "TB"):
            try:
                check_trim_domain(variant, *t)
            except HypothesisViolated:
                continue
            spec = Spec(variant, t)
            claims += [("trim_rect_value", spec),
                       ("small_prime_factors", spec)]
    return claims_report("theorem13", claims, cfg)


def seeded_kuo_quad(g, rng):
    """A class-alternating 4-tuple in cyclic order on a face of g, drawn
    with rng (a face and four of its places per draw, at most 400 draws),
    or None if no draw gives one."""
    faces = [f for f in planar_faces(g) if len(set(f)) >= 4]
    faces.sort(key=len, reverse=True)
    for _ in range(400):
        face = rng.choice(faces)
        idx = sorted(rng.sample(range(len(face)), 4))
        u, v, w, t = (face[i] for i in idx)
        if len({u, v, w, t}) < 4:
            continue
        pu, pv, pw, pt = ((p[0] + p[1]) % 2 for p in (u, v, w, t))
        if pu == pw and pv == pt and pu != pv:
            return u, v, w, t
    return None


def corner_kuo_quad(a, b, c):
    """A corner condensation quadruple on the fully-stripped graph.

    Takes the first quadruple in valid parity classes of one vertex near
    the west corner, two near the south corner and one near the east
    corner, in cyclic order, and checks that the condensation identity
    holds for it with a nonzero right-hand side.  Returns (graph,
    (u, v, w, t), kuo_check's result).
    """
    g = build_A(1, a, b, c)
    corners2 = family_geometry([Spec("A1", (a, b, c))])[0][0].tolist()

    def nearest(j, k):
        cx2, cy2 = corners2[j]
        return sorted(g.vertices, key=lambda p: (abs(2 * p[0] - cx2)
                                                 + abs(2 * p[1] - cy2), p))[:k]

    def cls(p):
        return (p[0] + p[1]) % 2

    # the contour starts at the west corner, then runs SE to the south
    # corner and NE to the east corner
    west, south, east = nearest(0, 6), nearest(1, 8), nearest(2, 6)
    quad = next(((u, v, w, t)
                 for u, v, w, t in product(west, south, south, east)
                 if cls(u) == cls(w) != cls(v) == cls(t)), None)
    res = quad and kuo_check(g, *quad, method="fkt")
    if not (res and res["equal"] and res["rhs"] > 0):
        raise AssertionError(
            f"no corner condensation quadruple for {(a, b, c)}")
    return g, quad, res


def suite_kuo(cfg):
    rep = SuiteReport("kuo")
    rng = random.Random(cfg.seed)
    specs = [Spec(f"{kind}{i}", t) for t in valid_triples(range(2, 7), 20)
             for i in (1, 2, 3) for kind in ("A", "F")]
    # the balanced graphs of 8 to 60 vertices, each built when reached
    pool = ((str(spec), g) for spec, g in zip(specs, grids(specs))
            if 8 <= len(g) <= 60 and g.is_balanced())
    done = 0
    for spec_str, g in pool:
        if done >= 50:
            break
        if (quad := seeded_kuo_quad(g, rng)) is None:
            continue
        try:
            res = kuo_check(g, *quad, method="auto")
        except BadVertexSelection:
            continue
        rep.add("kuo_identity", f"{spec_str} @ {quad}", True, res["equal"])
        done += 1
    rep.add("kuo_volume", ">=50 tuples", True, done >= 50)
    _, quad, res = corner_kuo_quad(8, 8, 3)
    rep.add("kuo_corner_configuration", f"A1:8,8,3 @ {quad}",
            True, res["equal"])
    return rep


def suite_recurrences(cfg):
    rep = SuiteReport("recurrences")
    G = cfg.recurrence_grid
    # each closed form tabulated once per call, on the box padded by the
    # shifts of RECURRENCES
    fn = {f"{tag}{i}": exponent_table(f, i, -3, G + 1)
          for tag, f in (("phi", phi), ("psi", psi)) for i in (1, 2, 3)}
    box, plane = ((0, G),) * 3, ((0, G), (0, G), (0, 0))
    cases = [(r, s, None, box) for r in ("R1", "R2", "R4") for s in fn]
    cases += [("R3", s, None, plane) for s in ("phi1", "psi1")]
    cases += [("R6", f"{tag}{i}", f"{tag}{5 - i}", plane)
               for tag in ("phi", "psi") for i in (2, 3)]
    cases += [("R5", s, d, box) for i in (1, 2, 3) for s, d in (
        (f"phi{i}", f"psi{4 - i}"), (f"psi{i}", f"phi{4 - i}"))]
    for r, s, d, points in cases:
        bad = ~recurrence_holds(r, fn[s], fn.get(d), points)
        rep.add(f"formula_{r}", s if d is None else f"({s},{d})", 0,
                int(bad.sum()))
    # phi1(a - 2, b - 2, -1) against phi1(3b - 2a, 2b - a, 1) on the plane
    rep.add("formula_reflection_c0", "phi1", 0, int(
        (fn["phi1"](C0, (-2, -2, -1), plane)
         != fn["phi1"](FOLD, (0, 0, 1), plane)).any(0).sum()))
    # graph-level recurrences, within the stated hypotheses; a check is
    # (recurrence, star head, diamond head or None, triple)
    checks = []
    for t in valid_triples(range(2, 8), 20):
        a, b, c = t
        p = derive_params(*t)
        d, e = p.d, p.e
        r4_r5 = a >= 2 and b >= 5 and c >= 2 and a <= c + d
        for r, holds in (
                ("R1", b >= 5 and c >= 2 and a > c + d),
                ("R2", a >= 2 and b >= 4 and d >= 2 and e >= 2 and c >= 1),
                ("R3", a >= 2 and b >= 4 and d >= 2 and e >= 2 and c == 0),
                ("R4", r4_r5 and d >= 1), ("R5", r4_r5 and d == 0)):
            if not holds:
                continue
            for kind, other in (("A", "F"), ("F", "A")):
                for i in (1, 2, 3):
                    star = f"{kind}{i}"
                    if r == "R5":
                        checks.append((r, star, f"{other}{4 - i}", t))
                    elif r == "R3" and i > 1:
                        checks.append(("R6", star, f"{kind}{5 - i}", t))
                    else:
                        checks.append((r, star, None, t))

    def verdicts(value):
        def closed(head):
            if head is not None:
                return lambda *t: value(head, t)
        return [recurrence_check(r, closed(s), closed(d), *t)["equal"]
                for r, s, d, t in checks]

    graphs = {}  # every (head, triple) a check reads, first seen first
    verdicts(lambda *key: graphs.setdefault(key, 0))
    counts = dict(zip(graphs, cached_count(
        (Spec(*key) for key in graphs), CountCache(cfg.cache_path))))
    for (r, star, _, t), ok in zip(
            checks, verdicts(lambda *key: counts[key])):
        rep.add(f"graph_{r}", str(Spec(star, t)), True, ok)
    return rep


# -- weighted conjecture probe ------------------------------------------------------


@dataclass(frozen=True)
class ConjectureExponents:
    X: int
    Y: int
    Z: int
    T: int
    Q: int
    K: int


@dataclass(frozen=True)
class Inconsistent:
    residues: tuple


def _p5(x, y, z):
    return x * x + 2 * x * y * z + 2 * y * y * z * z


def _p11(x, y, z):
    return 2 * x * x + 5 * x * y * z + 4 * y * y * z * z


def screen_probe_point(pt):
    """Require the six divisor bases to be pairwise coprime and non-unit."""
    if len(pt) != 3:
        raise BadProbePoint(f"{pt}: a probe point has three coordinates")
    x, y, z = pt
    if any(t != int(t) or t < 1 for t in pt):
        raise BadProbePoint(f"{pt}: coordinates must be positive integers")
    bases = [2, int(x), int(y), int(z), _p5(x, y, z), _p11(x, y, z)]
    if any(v < 2 for v in bases):
        raise BadProbePoint(f"{pt}: a base collides with the unit")
    for p, q in combinations(bases, 2):
        if gcd(p, q) != 1:
            raise BadProbePoint(f"{pt}: bases {p} and {q} share a factor")
    return bases


def _weighted_counts(specs, points, cap):
    """Exact counts of the family graphs that the Specs in specs name, at
    each of the screened points: one list per spec.

    Every point is screened before anything is counted.  Each graph is
    built from its point set once, and the weighted copies of all of them,
    which share its arrays, are counted by one count_many.
    """
    for pt in points:
        screen_probe_point(pt)
    wps, k = [weight_point(*map(int, pt)) for pt in points], len(points)
    counts = count_many(cross_weightings(grids(specs), wps), cap=cap)
    return [counts[j * k:(j + 1) * k] for j in range(len(specs))]


def _probe_vector(family, a, b, c, points, counts):
    """The exponent vector read off the weighted counts at the points.

    It is returned only when identical across all points with residue
    exactly 1; otherwise Inconsistent carries the residues seen.
    """
    prefactor = alpha_w if family == "A" else beta_w
    vec, residues = None, []
    for pt, w in zip(points, counts):
        x, y, z = (int(t) for t in pt)
        num, den = prefactor(a, b, c, (x, y, z))
        exps, residue = _signed_exponents(  # of w over the prefactor
            w * den, num, (2, x, y, z, _p5(x, y, z), _p11(x, y, z)))
        residues.append(residue)
        ev = ConjectureExponents(X=exps[0], T=exps[1], Q=exps[2], K=exps[3],
                                 Y=exps[4], Z=exps[5])
        if residue != 1 or vec not in (None, ev):
            return Inconsistent(tuple(str(r) for r in residues))
        vec = ev
    return Inconsistent(()) if vec is None else vec


def conjecture_probe(family, i, a, b, c, points, cap=FKT_CAP):
    """Extract the conjectured exponent vector from exact weighted counts.

    Every point must pass the coprimality screen before anything is
    counted; the vector is returned only when identical across all points
    with residue exactly 1.
    """
    (counts,) = _weighted_counts([Spec(f"{family}{i}", (a, b, c))], points,
                                 cap)
    return _probe_vector(family, a, b, c, points, counts)


def reconstruct_weighted_count(family, a, b, c, vec, pt):
    """The weighted count at the integer point pt that vec predicts."""
    x, y, z = pt
    num, den = (alpha_w if family == "A" else beta_w)(a, b, c, pt)
    powers = ((2, vec.X), (_p5(x, y, z), vec.Y), (_p11(x, y, z), vec.Z),
              (x, vec.T), (y, vec.Q), (z, vec.K))
    return Fraction(num * prod(b ** e for b, e in powers if e > 0),
                    den * prod(b ** -e for b, e in powers if e < 0))


PROBE_POINTS = ((3, 5, 7), (5, 7, 3), (7, 3, 5))
HELD_OUT_POINT = (3, 5, 11)


def suite_conjecture(cfg):
    rep = SuiteReport("conjecture")
    specs = [Spec(f"{family}{i}", t) for t in valid_triples(range(2, 7), 16)
             for i in (1, 2, 3) for family in ("A", "F")]
    counts = _weighted_counts(specs, PROBE_POINTS + (HELD_OUT_POINT,),
                              FKT_CAP)
    for spec, (*probed, got) in zip(specs, counts):
        family, (a, b, c), spec_str = spec.head[0], spec.nums, str(spec)
        vec = _probe_vector(family, a, b, c, PROBE_POINTS, probed)
        consistent = isinstance(vec, ConjectureExponents)
        rep.add("probe_consistency", spec_str, True, consistent)
        if consistent:
            rep.add("probe_heldout", spec_str, reconstruct_weighted_count(
                family, a, b, c, vec, HELD_OUT_POINT), got)
    return rep


SUITES = {
    "sanity": suite_sanity,
    "theorem21": suite_theorem21,
    "theorem11": suite_theorem11,
    "theorem13": suite_theorem13,
    "kuo": suite_kuo,
    "recurrences": suite_recurrences,
    "conjecture": suite_conjecture,
}


def run_suite(name, cfg=None):
    cfg = cfg or SuiteConfig()
    if name == "all":
        rep = SuiteReport("all")
        for sub in SUITES.values():
            rep.records.extend(sub(cfg).records)
        return rep
    if name not in SUITES:
        raise InvalidParams(f"unknown suite {name!r}; options: "
                            f"{', '.join(list(SUITES) + ['all'])}")
    return SUITES[name](cfg)


# -- SVG rendering ------------------------------------------------------------------


def render_svg(g, out):
    """Write a deterministic SVG 1.1 drawing of the graph, with a label on
    each edge whose weight is not 1."""
    scale = 24
    vs = g.vertices
    xs, ys = zip(*vs) if vs else ((0,), (0,))
    xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    pad = 1
    W = (xmax - xmin + 2 * pad) * scale
    H = (ymax - ymin + 2 * pad) * scale

    def sx(x):
        return (x - xmin + pad) * scale

    def sy(y):
        return (ymax - y + pad) * scale

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{W}" height="{H}" viewBox="0 0 {W} {H}">',
    ]
    for u, v in sorted(g.edges()):
        lines.append(
            f'<line x1="{sx(u[0])}" y1="{sy(u[1])}" x2="{sx(v[0])}" '
            f'y2="{sy(v[1])}" stroke="#333333" stroke-width="2"/>')
    for x, y in vs:
        fill = "#000000" if (x + y) % 2 == 0 else "#ffffff"
        lines.append(
            f'<circle cx="{sx(x)}" cy="{sy(y)}" r="4" fill="{fill}" '
            f'stroke="#000000"/>')
    for (u, v), w in sorted(g.weights.items()):
        mx = (sx(u[0]) + sx(v[0])) / 2
        my = (sy(u[1]) + sy(v[1])) / 2
        lines.append(
            f'<text x="{mx}" y="{my}" font-size="10" '
            f'fill="#aa0000">{w}</text>')
    lines.append("</svg>")
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return out
