"""Verification suites, the engine that settles their claims, the
weighted-probe machinery, SVG export, and the count cache.

A suite counts nothing itself: it yields Claims, each the graphs whose
exact counts it reads and how those counts become its records, validated
as it is made.  settle counts the graphs of all claims of a run, each
distinct unweighted one once; run_suite("all") settles the seven suites
together.  Suites are deterministic given the seed in SuiteConfig.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import accumulate, combinations, islice, product
from math import comb, gcd, prod
from typing import Callable, NamedTuple

import numpy as np

from .errors import CrossdimerError
from .families import (
    Spec, build_A, build_TR, check_trim_domain, cross_weightings,
    derive_params, family_geometry, grids, weight_point, InvalidParams,
)
from .formulas import (
    C0, FOLD, phi, psi, phi_value, psi_value, recurrence_holds,
    recurrence_terms, exponent_table, factor_small,
    alpha_w, beta_w, HypothesisViolated, _signed_exponents,
)
from .lattice import FULL_GRID, GRID_B
from .matchcount import (
    BRUTE_CAP, BUILD_CAP, FKT_CAP, BadVertexSelection, count_brute,
    count_many, kuo_graphs, kuo_sides, oracle_check, split_graphs,
    split_sides, planar_faces,
)


class CacheCorrupt(CrossdimerError):
    """A count cache file holds a torn, malformed or conflicting line."""


class BadProbePoint(CrossdimerError):
    pass


DEFAULT_CACHE_ENV = "CROSSDIMER_CACHE"
# The version of count_key's format; keys of other formats never match.
CACHE_KEY_PREFIX = "graph-v2:"


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

    def add(self, suite, check, spec, expected, computed):
        self.records.append({
            "suite": suite, "check": check, "spec": spec,
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

    Lines keyed otherwise (the graph_hash and points-v1 keys of earlier
    versions) still load and are checked for conflicts, but no count_key
    matches them.
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


def count_key(g):
    """The cache key of the unweighted graph g: CACHE_KEY_PREFIX and the
    sha256 of its vertices, sorted, as little-endian int64 pairs, then of
    whether each is the lower-left end of an east edge, and of a north
    one."""
    at = np.argwhere(g.occ)
    digest = hashlib.sha256((at + g.origin).astype("<i8").tobytes())
    digest.update(g.links[:, at[:, 0], at[:, 1]].tobytes())
    return CACHE_KEY_PREFIX + digest.hexdigest()


def cached_count(graphs, cache=None):
    """Exact FKT counts of unweighted graphs, in order: each is keyed once
    (count_key), and the distinct ones that the cache does not hold are
    counted together by one count_many, then stored."""
    keys, counts, todo = [], {}, {}
    for g in graphs:
        keys.append(key := count_key(g))
        if key in counts or key in todo:
            continue
        hit = cache.get(key) if cache is not None else None
        if hit is None:
            todo[key] = g
        else:
            counts[key] = int(hit)
    for key, n in zip(todo, count_many(todo.values())):
        counts[key] = n
        if cache is not None:
            cache.put(key, n)
    return [counts[key] for key in keys]


# -- claims and the engine ---------------------------------------------------------


class Claim(NamedTuple):
    """A statement on the exact counts of graphs: records(their counts, in
    order) gives its records, each (check, spec, expected, computed)."""

    graphs: tuple
    records: Callable


def fact(check, spec, expected, computed):
    """A claim on no graph, whose one record is known beforehand."""
    return Claim((), lambda _: [(check, spec, expected, computed)])


def claim(check, spec, expected, graphs, read=sum):
    """A claim of one record: read(the counts of graphs) is expected.  The
    default reads the count of one graph."""
    return Claim(tuple(graphs), lambda counts: [
        (check, spec, expected, read(counts))])


def settle(claims, cache=None):
    """The records of each of claims, in order, from one exact count of
    each graph object they read: the unweighted ones by one cached_count,
    each distinct graph once, and the weighted copies by one count_many,
    in claim order, so that the copies of one structure share its plan."""
    claims = list(claims)
    graphs = list({id(g): g for c in claims for g in c.graphs}.values())
    plain = [g for g in graphs if g.wd is None]
    weighted = [g for g in graphs if g.wd is not None]
    count = dict(zip(map(id, plain + weighted), cached_count(plain, cache)
                     + (count_many(weighted) if weighted else [])))
    return [c.records([count[id(g)] for g in c.graphs]) for c in claims]


# -- suites: each yields its claims ------------------------------------------------


def delannoy(m, n):
    """Lattice paths (0,0) -> (m,n) with north, northeast and east steps,
    C(m, k) C(n, k) 2^k of them with k steps east and k north."""
    return sum(comb(m, k) * comb(n, k) * 2 ** k for k in range(min(m, n) + 1))


def valid_triples(b_range, cap):
    """The family triples (a, b, c), ordered, with b >= 2 in b_range and
    perimeter at most cap: d, e >= 0 bound a and c directly."""
    return [(a, b, c) for b in b_range if b >= 2
            for a in range(3 * b // 2 + 1)
            for c in range(min(2 * b - a, 3 * b - 2 * a) // 2 + 1)
            if derive_params(a, b, c).perimeter <= cap]


def suite_sanity(cfg):
    laws = [("aztec_diamond_law", Spec("AR", (n, n), FULL_GRID),
             2 ** (n * (n + 1) // 2)) for n in range(1, 8)]
    laws += [("null_case", Spec("AR", mn, FULL_GRID), 0)
             for mn in ((2, 3), (3, 5))]
    laws += [("delannoy_law", Spec("AAR", (m, n), FULL_GRID), delannoy(m, n))
             for m in range(1, 6) for n in range(1, 6)]
    for (check, spec, want), g in zip(laws, grids(s for _, s, _ in laws)):
        yield claim(check, str(spec), want, [g])
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
        ev, od = ([v for v in g.vertices if sum(v) % 2 == k] for k in (0, 1))
        if ev and od:
            for k in range(2):
                u, v = rng.choice(ev), rng.choice(od)
                extended.append((f"{spec_str}-minus{k}:{u},{v}",
                                 g.without((u, v))))
    extended = [(s, g) for s, g in extended if len(g) <= BRUTE_CAP]
    for spec_str, g in extended:
        yield claim("oracle_equivalence", spec_str, count_brute(g), [g])
    yield fact("oracle_equivalence_volume", ">=200 instances", True,
               len(extended) >= 200)


def closed_forms(check, specs):
    """A claim per Spec of specs that its graph counts as its closed form,
    with the check that check(spec) names."""
    for spec, g in zip(specs, grids(specs)):
        yield claim(check(spec), str(spec), spec.closed_form().value(), [g])


def suite_theorem21(cfg):
    return closed_forms(lambda spec: f"{spec.head[0]}_closed_form", [
        Spec(head, t) for t in valid_triples(range(2, 7), 28)
        for i in (1, 2, 3) for head in (f"A{i}", f"F{i}")])


def tr_bands(a, b):
    """(g, east, mid, west, claim): TR(a, b), its last band between its
    balanced x + y levels (as in matchcount._plan), the bands between and
    its first, and a claim with no record that raises AssertionError
    unless the outer bands realize the two family factors of the count
    and the others have one matching each."""
    g = build_TR(a, b)
    size = Counter(x + y for x, y in g.vertices)
    levels = sorted(size)
    cuts = [t for t, s in zip(levels, accumulate(
        size[t] * (1 - 2 * (t % 2)) for t in levels)) if s == 0]
    bands = [{v for v in g.vertices if lo < v[0] + v[1] <= hi}
             for lo, hi in zip([levels[0] - 1] + cuts, cuts)]
    factors = sorted((phi_value(3, 2 * a, 3 * a, 2 * a),
                      psi_value(3, 2 * a, 3 * a, 2 * a)))

    def realized(m):
        if len(m) < 2 or sorted((m[0], m[-1])) != factors or {*m[1:-1]} - {1}:
            raise AssertionError("the outer bands do not realize the two "
                                 "family factors")
        return []
    return (g, bands[-1], set().union(*bands[1:-1]), bands[0],
            Claim(tuple(map(g.induced, bands)), realized))


def tr_three_way_split(a, b):
    """(g, part_east, part_mid, part_west) of tr_bands, its claim settled."""
    *split, check = tr_bands(a, b)
    settle([check])
    return tuple(split)


def suite_theorem11(cfg):
    yield from closed_forms(lambda _: "tr_value", [
        Spec("TR", t) for t in ((1, 2), (1, 3), (1, 4), (2, 4))])
    # graph splitting of TR_{2,6} into three bands
    g, east, mid, _, check = tr_bands(2, 6)
    yield check
    yield claim("tr_split_east", "TR:2,6", True, split_graphs(g, east),
                lambda counts: split_sides(counts)["equal"])
    yield Claim(split_graphs(g.without(east), mid), lambda counts: [
        ("tr_split_mid", "TR:2,6", True, split_sides(counts)["equal"]),
        ("tr_split_unique_band", "TR:2,6 middle", 1,
         split_sides(counts)["M_h"])])


def trim_rect_domain(m_cap=5, n_cap=7):
    """Trim-rectangle parameters (m, n, h1, h2) that satisfy the floor-sum
    constraint; check_trim_domain picks those theorem 1.3 covers."""
    return [(m, n, h1, h2) for m in range(1, m_cap + 1)
            for n in range(m, n_cap + 1)
            for h1 in range(4 * (n - m) + 2) for h2 in range(4 * (n - m) + 2)
            if (h1 + 1) // 2 + (h2 + 1) // 2 == 2 * (n - m)]


def suite_theorem13(cfg):
    specs = []
    for t in trim_rect_domain():
        for variant in ("TA", "TB"):
            try:
                check_trim_domain(variant, *t)
            except HypothesisViolated:
                continue
            specs.append(Spec(variant, t))
    # each count is the closed form, with no prime but 2, 3, 5 and 11
    for spec, g in zip(specs, grids(specs)):
        yield claim("trim_rect_value", str(spec), spec.closed_form().value(),
                    [g])
        yield claim("small_prime_factors", str(spec), 1, [g], lambda n: (
            factor_small(n[0])["cofactor"] if n[0] > 0 else 0))


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
        if sum(u) % 2 == sum(w) % 2 != sum(v) % 2 == sum(t) % 2:
            return u, v, w, t
    return None


def corner_kuo_quad(a, b, c):
    """A corner condensation quadruple on the fully-stripped graph.

    Takes the first quadruple in valid parity classes of one vertex near
    the west corner, two near the south corner and one near the east
    corner, in cyclic order.  Returns (graph, (u, v, w, t)), or raises
    AssertionError if there is none.
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
    if quad is None:
        raise AssertionError(
            f"no corner condensation quadruple for {(a, b, c)}")
    return g, quad


def suite_kuo(cfg):
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
            graphs = kuo_graphs(g, *quad)
        except BadVertexSelection:
            continue
        # checked against count_brute too, as kuo_check's method="auto" is
        yield claim("kuo_identity", f"{spec_str} @ {quad}", True, graphs,
                    lambda m, gs=graphs: kuo_sides(
                        oracle_check(gs, m))["equal"])
        done += 1
    yield fact("kuo_volume", ">=50 tuples", True, done >= 50)
    # the corner identity must also be nontrivial
    g, quad = corner_kuo_quad(8, 8, 3)
    yield claim("kuo_corner_configuration", f"A1:8,8,3 @ {quad}", True,
                kuo_graphs(g, *quad), lambda counts: (
                    (res := kuo_sides(counts))["equal"] and res["rhs"] > 0))


def suite_recurrences(cfg):
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
        yield fact(f"formula_{r}", s if d is None else f"({s},{d})", 0,
                   int(bad.sum()))
    # phi1(a - 2, b - 2, -1) against phi1(3b - 2a, 2b - a, 1) on the plane
    yield fact("formula_reflection_c0", "phi1", 0, int(
        (fn["phi1"](C0, (-2, -2, -1), plane)
         != fn["phi1"](FOLD, (0, 0, 1), plane)).any(0).sum()))
    # graph-level recurrences, within the stated hypotheses; a check is
    # (recurrence, star head, diamond head or None, triple)
    checks = []
    for t in valid_triples(range(2, 8), 20):
        a, b, c = t
        d, e = derive_params(*t)[3:5]
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
                    # R5 pairs the star with a diamond; R3 is R6 for i > 1
                    r6 = r == "R3" and i > 1
                    checks.append(("R6" if r6 else r, f"{kind}{i}",
                                   f"{other}{4 - i}" if r == "R5" else
                                   f"{kind}{5 - i}" if r6 else None, t))
    # the graph of each (head, triple) that a check's terms read, built
    # once; a check's six counts make two sides as Kuo's identity's do
    terms = [[((s, d)[f], args) for f, args in recurrence_terms(r, *t)]
             for r, s, d, t in checks]
    keys = list(dict.fromkeys(key for ts in terms for key in ts))
    graph = dict(zip(keys, grids(Spec(*key) for key in keys)))
    for (r, s, _, t), ts in zip(checks, terms):
        yield claim(f"graph_{r}", str(Spec(s, t)), True,
                    [graph[key] for key in ts],
                    lambda counts: kuo_sides(counts)["equal"])


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


def _bases(x, y, z):
    """The six divisor bases at the point (x, y, z): 2, x, y, z, p5 and
    p11."""
    return (2, x, y, z, x * x + 2 * x * y * z + 2 * y * y * z * z,
            2 * x * x + 5 * x * y * z + 4 * y * y * z * z)


def screen_probe_point(pt):
    """Require the six divisor bases to be pairwise coprime and non-unit."""
    if len(pt) != 3:
        raise BadProbePoint(f"{pt}: a probe point has three coordinates")
    if any(t != int(t) or t < 1 for t in pt):
        raise BadProbePoint(f"{pt}: coordinates must be positive integers")
    bases = _bases(*map(int, pt))
    if any(v < 2 for v in bases):
        raise BadProbePoint(f"{pt}: a base collides with the unit")
    for p, q in combinations(bases, 2):
        if gcd(p, q) != 1:
            raise BadProbePoint(f"{pt}: bases {p} and {q} share a factor")
    return bases


def probe_weightings(specs, points):
    """An iterator of the copies of the family graphs that specs name
    weighted at each of points (cross_weightings), spec by spec, once every
    point is screened; the copies of a graph share its arrays."""
    for pt in points:
        screen_probe_point(pt)
    return cross_weightings(grids(specs),
                            [weight_point(*map(int, pt)) for pt in points])


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
            w * den, num, _bases(x, y, z))
        residues.append(residue)
        ev = ConjectureExponents(**dict(zip("XTQKYZ", exps)))
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
    copies = probe_weightings([Spec(f"{family}{i}", (a, b, c))], points)
    return _probe_vector(family, a, b, c, points, count_many(copies, cap))


def reconstruct_weighted_count(family, a, b, c, vec, pt):
    """The weighted count at the integer point pt that vec predicts."""
    num, den = (alpha_w if family == "A" else beta_w)(a, b, c, pt)
    powers = tuple(zip(_bases(*pt), (vec.X, vec.T, vec.Q, vec.K, vec.Y,
                                     vec.Z)))
    return Fraction(num * prod(b ** e for b, e in powers if e > 0),
                    den * prod(b ** -e for b, e in powers if e < 0))


PROBE_POINTS = ((3, 5, 7), (5, 7, 3), (7, 3, 5))
HELD_OUT_POINT = (3, 5, 11)


def _probe_records(spec, counts):
    """Whether the counts of spec's graph at PROBE_POINTS read one exponent
    vector, and if so whether it predicts the count at HELD_OUT_POINT."""
    family, (a, b, c), spec_str = spec.head[0], spec.nums, str(spec)
    vec = _probe_vector(family, a, b, c, PROBE_POINTS, counts[:-1])
    if not isinstance(vec, ConjectureExponents):
        return [("probe_consistency", spec_str, True, False)]
    return [("probe_consistency", spec_str, True, True),
            ("probe_heldout", spec_str, reconstruct_weighted_count(
                family, a, b, c, vec, HELD_OUT_POINT), counts[-1])]


def suite_conjecture(cfg):
    specs = [Spec(f"{family}{i}", t) for t in valid_triples(range(2, 7), 16)
             for i in (1, 2, 3) for family in ("A", "F")]
    points = PROBE_POINTS + (HELD_OUT_POINT,)
    copies = probe_weightings(specs, points)
    for spec in specs:
        yield Claim(tuple(islice(copies, len(points))),
                    partial(_probe_records, spec))


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
    """The report of suite name, or of all seven in order for "all", with
    their claims settled in one run."""
    cfg = cfg or SuiteConfig()
    if name != "all" and name not in SUITES:
        raise InvalidParams(f"unknown suite {name!r}; options: "
                            f"{', '.join(list(SUITES) + ['all'])}")
    claims = [(sub, c) for sub in (SUITES if name == "all" else [name])
              for c in SUITES[sub](cfg)]
    rep = SuiteReport(name)
    for (sub, _), records in zip(claims, settle(
            [c for _, c in claims], CountCache(cfg.cache_path))):
        for record in records:
            rep.add(sub, *record)
    return rep


# -- SVG rendering ------------------------------------------------------------------


def render_svg(g, out):
    """Write a deterministic SVG 1.1 drawing of the graph, with a label on
    each edge whose weight is not 1."""
    xs, ys = zip(*g.vertices) if g.vertices else ((0,), (0,))
    x0, y1 = min(xs) - 1, max(ys) + 1  # a unit of padding on each side
    W, H = (max(xs) + 1 - x0) * 24, (y1 + 1 - min(ys)) * 24

    def at(p):  # the SVG coordinates of the point p, 24 per unit
        return (p[0] - x0) * 24, (y1 - p[1]) * 24

    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
             f'width="{W}" height="{H}" viewBox="0 0 {W} {H}">']
    for u, v in sorted(g.edges()):
        (ux, uy), (vx, vy) = at(u), at(v)
        lines.append(f'<line x1="{ux}" y1="{uy}" x2="{vx}" y2="{vy}" '
                     f'stroke="#333333" stroke-width="2"/>')
    for p in g.vertices:
        fill = "#000000" if sum(p) % 2 == 0 else "#ffffff"
        lines.append(f'<circle cx="{at(p)[0]}" cy="{at(p)[1]}" r="4" '
                     f'fill="{fill}" stroke="#000000"/>')
    for (u, v), w in sorted(g.weights.items()):
        (ux, uy), (vx, vy) = at(u), at(v)
        lines.append(f'<text x="{(ux + vx) / 2}" y="{(uy + vy) / 2}" '
                     f'font-size="10" fill="#aa0000">{w}</text>')
    lines.append("</svg>")
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return out
