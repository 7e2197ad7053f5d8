"""Exact perfect-matching counts for plane lattice graphs.

Two independent counting routes are provided: a transfer-matrix counter
over the sorted vertices (the oracle, for small graphs) and a
Pfaffian-orientation counter whose determinant is computed exactly by CRT
over word-sized primes.  All arithmetic is exact; no floats touch any
counting path.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, chain, groupby, islice, product
from math import isqrt, lcm, prod

import numpy as np

from .errors import CrossdimerError

BRUTE_CAP = 44
FKT_CAP = 4000
BUILD_CAP = 2 ** 20  # points that a graph may be bounded by and be built


class TooLarge(CrossdimerError):
    pass


def _refuse(what, size):
    """Raise TooLarge if what spans size points, more than BUILD_CAP."""
    if size > BUILD_CAP:
        raise TooLarge(f"{what} is too large to build: it spans {size} "
                       f"points, above the build cap of {BUILD_CAP}")


class BadVertexSelection(CrossdimerError):
    pass


class ConditionsViolated(CrossdimerError):
    pass


class NonPlanarEmbedding(CrossdimerError):
    """Raised for an edge that is not a unit step of Z^2, which face
    tracing and the sign rule do not cover."""


class InexactArithmetic(ArithmeticError):
    """An exactness guard failed: a CRT determinant outside its Hadamard
    bound."""


def edge_key(u, v):
    return (u, v) if u <= v else (v, u)


class Graph:
    """Undirected graph on integer lattice points, joined by unit steps.

    Vertices are (x, y) tuples; the bipartition is by (x + y) parity.  A
    Graph holds boolean arrays on a box that contains its vertices but
    need not be tight (a subgraph keeps its parent's), indexed [x - x0, y
    - y0] for origin (x0, y0), so that ravel order is the x-major order of
    vertices: occ marks the n vertices, and links[0] and links[1] the
    edges (x, y)-(x+1, y) and (x, y)-(x, y+1) at (x, y).  Its weights are
    wd = (w, d), w an integer array shaped like links (int64, or Python
    ints in an object array) whose edge at flat index k weighs
    w.ravel()[k] / d, or None when all are 1.  The arrays are not changed,
    and weighted copies share them (with_weights).

    Graph(vertices, edges, weights) checks every edge and weight and makes
    the arrays and wd; Graph.of wraps arrays made elsewhere (the builders,
    _masked).  vertices, adj (each vertex, in sorted order, to its set of
    neighbours) and weights (those that differ from 1, keyed by edge_key,
    as Fractions) are decoded from the arrays when first read.
    """

    __slots__ = ("origin", "occ", "links", "n", "wd", "vertices", "adj",
                 "weights")

    def __init__(self, vertices, edges=(), weights=None):
        """The graph of the given vertices, edges and weights dict.  It
        raises NonPlanarEmbedding unless every edge is a unit step, and
        TooLarge before any array of its box is made if that box spans
        more than BUILD_CAP points or has a coordinate, or one past its
        far corner, outside int64."""
        self.vertices = tuple(sorted(set(vertices)))
        adj = {v: set() for v in self.vertices}
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            if u not in adj or v not in adj:
                raise ValueError("edge endpoint not a vertex")
            if not (u[0] + u[1] + v[0] + v[1]) % 2:
                raise ValueError(f"edge {u}-{v} joins same parity class")
            adj[u].add(v)
            adj[v].add(u)
        self.adj, n = adj, len(adj)
        east, north = (np.fromiter(((x + dx, y + dy) in s
                                    for (x, y), s in adj.items()), bool, n)
                       for dx, dy in ((1, 0), (0, 1)))
        # each unit edge is found once, at its lower-left end
        if 2 * (east.sum() + north.sum()) != sum(map(len, adj.values())):
            for (x, y), s in adj.items():
                for u, v in s:
                    if abs(u - x) + abs(v - y) != 1:
                        raise NonPlanarEmbedding(
                            f"edge {(x, y)}-{(u, v)} is not a unit step")
        # the box in Python ints, which may lie past int64
        xs, ys = zip(*adj) if n else ((0,), (0,))
        x0, y0 = min(xs), min(ys)
        shape = (max(xs) - x0 + 1, max(ys) - y0 + 1) if n else (0, 0)
        _refuse(f"a graph of {n} vertices", prod(shape))
        if min(x0, y0) < -2 ** 63 or max(max(xs), max(ys)) + 1 >= 2 ** 63:
            raise TooLarge(f"a graph of {n} vertices has a point past int64")
        at = tuple(np.array([(x - x0, y - y0) for x, y in adj], np.int64)
                   .reshape(n, 2).T)
        occ, links = np.zeros(shape, bool), np.zeros((2,) + shape, bool)
        occ[at], links[(0,) + at], links[(1,) + at] = True, east, north
        self.origin, self.occ, self.links, self.n = (x0, y0), occ, links, n
        self.wd = _checked_weights(self, weights)

    @classmethod
    def of(cls, origin, occ, links, wd=None):
        """The graph of the arrays occ and links at origin, weighted by wd,
        as Graph holds them; links has no edge with an end outside occ.
        Nothing is checked or copied."""
        g = cls.__new__(cls)
        g.origin, g.occ, g.links, g.wd = origin, occ, links, wd
        g.n = int(np.count_nonzero(occ))
        return g

    def __getattr__(self, name):
        # only an unset slot gets here, before it is first decoded
        if name in ("vertices", "adj"):
            self.vertices = tuple(map(tuple, self.points().tolist()))
            self.adj = {v: set() for v in self.vertices}
            for u, v in _edge_keys(self, np.flatnonzero(self.links)):
                self.adj[u].add(v)
                self.adj[v].add(u)
        elif name == "weights":
            self.weights = {} if self.wd is None else \
                _weight_dict(self, *self.wd)
        else:
            raise AttributeError(name)
        return getattr(self, name)

    # -- basic accessors ------------------------------------------------

    def __len__(self):
        return self.n

    def edges(self):
        return [(u, v) for u in self.vertices for v in self.adj[u] if u < v]

    def weight(self, u, v):
        return self.weights.get(edge_key(u, v), 1)

    def points(self):
        """The vertices as an int64 array of shape (n, 2), sorted."""
        return np.argwhere(self.occ) + self.origin

    def classes(self):
        """(x + y) % 2 at each cell of the box, an array shaped like occ."""
        (x0, y0), (w, h) = self.origin, self.occ.shape
        return (np.arange(x0, x0 + w)[:, None] + np.arange(y0, y0 + h)) % 2

    def is_balanced(self):
        """Whether both (x + y) parity classes have equally many vertices."""
        return 2 * int(self.classes()[self.occ].sum()) == len(self)

    # -- derived graphs --------------------------------------------------

    def induced(self, keep):
        """The subgraph on the vertices among the points keep (others are
        ignored), masked as _masked masks one."""
        return self._masked(self._cells(keep))

    def without(self, drop):
        """The subgraph on the vertices not among the points drop."""
        return self._masked(~self._cells(drop))

    def _cells(self, points):
        """A mask shaped like occ, True at those of the points (x, y), read
        as Python numbers (an int may lie past int64), that lie in the box
        and have integer coordinates: the others are no vertex."""
        at = np.fromiter(chain.from_iterable(points), object).reshape(
            -1, 2) - self.origin
        at = at[((at >= 0) & (at < self.occ.shape) & (at % 1 == 0)).all(1)]
        mask = np.zeros(self.occ.shape, bool)
        mask[tuple(at.astype(np.int64).T)] = True
        return mask

    def _masked(self, keep):
        """The subgraph on the box's vertices where the mask keep (or one
        bool) is True, with the edges whose two ends are both kept, masked
        as stacked_grids masks them, and self's wd on the same box.  No
        edge or weight is checked again."""
        occ = self.occ & keep
        links = self.links & occ
        links[0, :-1] &= occ[1:]
        links[1, :, :-1] &= occ[:, 1:]
        return Graph.of(self.origin, occ, links, self.wd)

    def with_weights(self, weights):
        """This graph with the given edge weights in place of its own: a
        dict, checked as Graph checks one, or wd itself.  The copy shares
        self's arrays and n, and decodes its own vertices and adj; no edge
        is checked again."""
        g = Graph.__new__(Graph)
        g.origin, g.occ, g.links = self.origin, self.occ, self.links
        g.n, g.wd = self.n, (weights if type(weights) is tuple
                             else _checked_weights(self, weights))
        return g

    # -- canonical serialization ------------------------------------------

    def to_json(self):
        """Canonical JSON: sorted vertices, sorted index pairs (i < j)."""
        idx = {v: i for i, v in enumerate(self.vertices)}
        ed = sorted((idx[u], idx[v]) for u, v in self.edges())
        doc = {"vertices": [list(v) for v in self.vertices],
               "edges": [list(e) for e in ed]}
        if self.weights:
            doc["weights"] = sorted(
                [idx[u], idx[v], str(w)] for (u, v), w in self.weights.items())
        return json.dumps(doc, separators=(",", ":"))

    def graph_hash(self):
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _checked_weights(g, weights):
    """The wd on g of the weights dict, whose weights of 1 are left out
    (_edge_weights; None if none is left).  A weight on a pair that is not
    an edge of g, one that is not an int or a Fraction (bool is not
    allowed), or one that is not above 0 raises ValueError naming the
    pair: counts are |det|, the weighted count for positive ones."""
    out = {}
    for (u, v), w in (weights or {}).items():
        if v not in g.adj.get(u, ()):
            raise ValueError(f"weight on {u}-{v}, which is not an edge")
        if type(w) is not Fraction and (
                type(w) is bool or not isinstance(w, int)):
            raise ValueError(
                f"weight {w!r} on {u}-{v} is not an int or Fraction")
        if w <= 0:
            raise ValueError(f"weight {w} on {u}-{v} is not positive")
        if w != 1:
            out[edge_key(u, v)] = w
    return _edge_weights(g, out) if out else None


def _edge_weights(g, weights):
    """The wd of a weights dict, keyed by edge_key, on g's links: d the lcm
    of their denominators, and w d times each weight (an edge with none:
    1)."""
    d = lcm(*(t.denominator for t in weights.values()))
    vals = int_array([d] + [t.numerator * (d // t.denominator)
                            for t in weights.values()])
    w = np.full(g.links.shape, vals[0], dtype=vals.dtype)
    x, y, _, y1 = np.fromiter(chain.from_iterable(chain.from_iterable(
        weights)), np.int64, 4 * len(weights)).reshape(-1, 4).T
    w[y1 - y, x - g.origin[0], y - g.origin[1]] = vals[1:]
    return w, d


def _weight_dict(g, w, d):
    """The weights dict, as Graph decodes it, of g weighted by (w, d):
    Fraction(w, d) on each edge where w != d."""
    ids = np.flatnonzero(g.links & (w != d))
    return dict(zip(_edge_keys(g, ids),
                    (Fraction(t, d) for t in w.ravel()[ids].tolist())))


def _edge_keys(g, ids):
    """The edge_keys of the edges at flat indices ids of g's raveled links,
    in the order of ids."""
    d, x, y = np.unravel_index(ids, g.links.shape)
    x, y = (x + g.origin[0]).tolist(), (y + g.origin[1]).tolist()
    return [((u, v), (u + 1 - k, v + k)) for k, u, v in zip(d.tolist(), x, y)]


# -- forced-edge reduction -------------------------------------------------


def _degrees(east, north, h):
    """Per cell of raveled arrays of height h, how many of the edges east
    and north (at their lower-left cells) it lies on."""
    deg = east.astype(np.int8)
    deg[h:] += east[:-h]
    deg += north
    deg[1:] += north[:-1]
    return deg


def _peel(occ, edges, h):
    """Match forced edges away, in place, on the raveled occ and edges of
    one Graph or more side by side, of height h, without reading weights.

    In rounds, every vertex of degree 1 is matched to its neighbour, and
    both leave with their edges.  Returns (forced, bad): the matched
    edges, and the vertices that show no perfect matching exists: a
    vertex left isolated, and a vertex that two leaves claim.
    """
    n = len(occ)
    pair, east, north = edges.reshape(2, n), edges[:n], edges[n:]
    forced, bad = np.zeros_like(edges), np.zeros_like(occ)
    while True:
        leaf = occ & (_degrees(east, north, h) < 2)
        if not leaf.any():
            return forced, bad
        # cell i's east neighbour is i + h, and its north one i + 1
        new = (pair & leaf).ravel()
        new[:n - h] |= east[:-h] & leaf[h:]
        new[n:-1] |= north[:-1] & leaf[1:]
        hit = _degrees(new[:n], new[n:], h)
        gone = leaf | (hit > 0)
        bad |= gone & (hit != 1)
        occ &= ~gone
        pair &= occ
        east[:-h] &= occ[h:]
        north[:-1] &= occ[1:]
        forced |= new


def reduce_forced(g):
    """Repeatedly match degree-1 vertices away.

    Returns (reduced graph, multiplier): M(g) = multiplier * M(reduced).
    The reduced graph is g masked to the vertices left (Graph._masked),
    and the multiplier the forced edges' weight product.  With nothing
    forced, g itself comes back with multiplier 1.  A vertex left
    isolated, or claimed by two degree-1 vertices, short-circuits to (g
    masked to no vertex, 0).
    """
    occ, links = g.occ.ravel().copy(), g.links.ravel().copy()
    forced, bad = _peel(occ, links, g.occ.shape[1])
    if bad.any():
        return g._masked(False), 0
    if occ.sum() == len(g):
        return g, 1
    w, d = g.wd or (np.ones(g.links.shape, np.int64), 1)
    fw = w[forced.reshape(w.shape)].tolist()
    return (g._masked(occ.reshape(g.occ.shape)),
            _exact(Fraction(prod(fw), d ** len(fw))))


# -- transfer-matrix oracle --------------------------------------------------


def count_brute(g, cap=BRUTE_CAP):
    """Exact weighted matching count by a transfer matrix over g's vertices
    in sorted order.  It reads len(g), g.vertices, g.adj and g.weight
    alone, so it shares no code with the FKT count and takes any bipartite
    graph that offers them, a Graph or another object (K_{3,3}, say).

    A state is the set of later vertices already matched to earlier ones,
    as a bitmask of their places in the order, and it carries the weighted
    sum of its partial matchings.  Vertex i drops its bit from each state
    that holds it, and matches each other state to each later neighbour not
    in it; the count is what the empty state holds at the end.  The order
    is (x, y), or (y, x) when g is taller than it is wide, so that a state
    spans about the shorter side.  More than cap vertices raise TooLarge.
    """
    if len(g) > cap:
        raise TooLarge(f"{len(g)} vertices exceeds brute cap {cap}")
    dx, dy = [max(t) - min(t) for t in zip(*g.vertices)] or (0, 0)
    order = sorted(g.vertices, key=(lambda v: v[::-1]) if dy > dx else None)
    at = {v: i for i, v in enumerate(order)}
    states = {0: 1}
    for i, v in enumerate(order):
        bit, step = 1 << i, {}
        later = [(1 << at[u], g.weight(v, u)) for u in g.adj[v] if at[u] > i]
        for s, t in states.items():
            if s & bit:
                step[s ^ bit] = step.get(s ^ bit, 0) + t
                continue
            for b, w in later:
                if not s & b:
                    step[s | b] = step.get(s | b, 0) + t * w
        states = step
    return _exact(states.get(0, 0))


def _exact(t):
    """t, with an integral Fraction turned into an int."""
    return int(t) if isinstance(t, Fraction) and t.denominator == 1 else t


# -- planar embedding: faces ------------------------------------------------


# Counterclockwise rank of each unit step, starting east.
_CCW_RANK = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _sorted_rotations(g):
    """Neighbors of each vertex in counterclockwise order (E, N, W, S)."""
    return {v: sorted(g.adj[v],
                      key=lambda u: _CCW_RANK[u[0] - v[0], u[1] - v[1]])
            for v in g.vertices}


def planar_faces(g):
    """Face cycles of the straight-line embedding.

    Each face is a list of vertices, one entry per boundary dart; bridges
    appear twice.  Faces traced with this rotation rule keep the interior
    on the left, so bounded faces come out counterclockwise (positive
    signed area) and the outer face clockwise.
    """
    rot = _sorted_rotations(g)
    pos = {v: {u: i for i, u in enumerate(rot[v])} for v in g.vertices}
    used = set()
    faces = []
    # a face is traced from its least dart, so faces keep that order
    for start in sorted((u, v) for u in g.vertices for v in g.adj[u]):
        if start in used:
            continue
        cycle, dart = [], start
        while not cycle or dart != start:
            cycle.append(dart[0])
            used.add(dart)
            u, v = dart
            dart = (v, rot[v][(pos[v][u] - 1) % len(rot[v])])
        faces.append(cycle)
    return faces


# -- Pfaffian orientation ----------------------------------------------------


def _flips(occ, x0, y0):
    """Kasteleyn's square-lattice rule on the vertex array occ of a Graph
    (or of several side by side) with origin (x0, y0), which matters mod
    2 only: per cell, whether its east edge points west, and whether its
    north edge points south, as an array shaped like Graph.links.  A
    horizontal edge in row y points east iff y is even, and a vertical
    edge (x, y)-(x, y+1) north iff x + rank is even, rank being the number
    of vertices left of (x, y) in its row.

    With every vertical pointing north, each unit square is clockwise-odd,
    so a cycle C has #clockwise = 1 + #(points of Z^2 inside C) mod 2.
    For any column a left of occ, x + rank = a + #(points (x', y) that are
    not vertices, a <= x' < x) mod 2.  The constant flips every vertical,
    and C has an even number of them.  Each such point flips the verticals
    that an eastward ray from it at height y + 1/2 crosses, and the ray
    crosses C an odd number of times iff the point is inside C.  So
    #clockwise = 1 + #(vertices inside C) mod 2, which is 1 on a face.

    Kasteleyn's theorem asks only that every nice cycle C (one whose
    inside has a perfect matching of its own) be clockwise-odd.  So the
    ranks run over whole rows, with no component split: the vertices of
    other components inside a nice cycle come in even number, and the
    other graphs stacked beside it lie in other columns, never inside C.
    The same ranks serve each piece between two of _plan's cuts along
    x + y.  The cut edges only drop out of the graph, and each piece lies
    between two diagonals, a convex band, so the inside of a cycle of a
    piece holds no vertex of another piece: a nice cycle of a piece is
    still clockwise-odd."""
    w, h = occ.shape
    flips = np.empty((2, w, h), dtype=np.int64)
    flips[0] = np.arange(y0, y0 + h)
    flips[1] = np.cumsum(occ, 0) - occ + np.arange(x0, x0 + w)[:, None]
    return flips & 1


# -- exact determinant via CRT ----------------------------------------------

_PRIME_POOL = []


def _is_prime(n):
    """Whether the odd n, 7 < n < 3.2 * 10^9, is prime: Miller-Rabin to the
    bases 2, 3, 5 and 7, which is exact below 3215031751 (Jaeschke)."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _crt_primes(need):
    """The fewest of the largest primes below 2^30 whose product >= need."""
    k, cover = 0, 1
    while cover < need:
        if k == len(_PRIME_POOL):
            n = _PRIME_POOL[-1] - 2 if _PRIME_POOL else (1 << 30) - 1
            while not _is_prime(n):
                n -= 2
            _PRIME_POOL.append(n)
        cover *= _PRIME_POOL[k]
        k += 1
    return _PRIME_POOL[:k]


# Between two reductions of the window an entry takes at most this many
# updates x - f*y with f, y < p < 2^30, so it stays above -7 * 2^60 and fits
# in int64.
_STEPS_PER_REDUCTION = 7


def int_array(values):
    """Python ints as an int64 array, or an object array if one overflows."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _packed(vals, lens, cols):
    """Copies of a row-sparse matrix packed as _det_residues takes them.
    Row i of a copy holds the next lens[i] entries of its row of vals (an
    int64 or object array of ints, one row per copy), at the distinct
    columns that cols gives in the same order.  Returns per copy (sq,
    lens, cols, vals), sq the Python int product of its rows' sums of
    squares (0 exactly when a row is zero)."""
    lens = np.asarray(lens, dtype=np.int32)
    cols = np.asarray(cols, dtype=np.int32)
    sq = [0] * len(vals)
    if lens.all() and vals.size:
        top = max(int(vals.max()), -int(vals.min()))
        # Python ints where a row's sum of squares would not fit int64
        v = vals.astype(object) if top * top * int(lens.max()) >> 63 else vals
        sq = map(prod, np.add.reduceat(v * v, np.cumsum(lens) - lens,
                                       axis=1).tolist())
    return [(s, lens, cols, row) for s, row in zip(sq, vals)]


def _lane_entries(mats, primes):
    """Every nonzero of every matrix, one copy per lane, and the envelope
    that _det_residues eliminates in.

    The matrices come largest first.  A matrix whose upper bandwidth is
    below its lower one is transposed.  Then a matrix whose lower band
    (each entry weighted by its distance below the diagonal) lies more
    after its middle than before it is reflected in its antidiagonal.
    Neither changes the determinant.  The reflection lines up the wide
    ends of matrices that mirror each other, as two of the three pieces of
    a TR graph do, so that their joint envelope is little larger than
    each one's.  Matrix j, of size m_j, runs the steps t_j .. t_j + m_j - 1
    for t_j = (n - m_j) // 2, n the largest size, with its row i and
    column c at step t_j + i and t_j + c.  As j grows, t_j rises and
    t_j + m_j falls, so the live lanes of each step are a prefix.

    At step s the window covers rows s..D_s and columns s..E_s, over all
    the matrices.  D_s is the last row with an entry in a column up to s,
    and E_s the last column of the rows up to D_s; both are running
    maxima, and at least s.  The rows below D_s are still untouched, so
    zero in column s.  Row operations among the rows up to D_s keep them
    inside column E_s.

    Returns (shape, live, rows, cols, red, at, start): the window buffer
    shape (lanes, rows, columns); per step s, the number of live lanes and
    the block's D_s - s + 1 rows and E_s - s + 1 columns; the copies
    ordered by the step at which they enter (the first s >= t_j with
    D_s >= their row), red holding each copy's entry reduced mod its
    lane's prime and at its flat index in the buffer at that step; and
    start[s] the first copy entering at step s, for s = 0..n.
    """
    sizes = np.array([len(lens) for _, lens, _, _ in mats])
    n = int(sizes[0])
    lens = np.concatenate([lens for _, lens, _, _ in mats])
    row_of = np.repeat(np.arange(len(lens)), lens)
    mat = np.repeat(np.arange(len(mats)), sizes)[row_of]
    m = sizes[mat]
    r = row_of - (np.cumsum(sizes) - sizes)[mat]
    c = np.concatenate([cols for _, _, cols, _ in mats]).astype(np.int64)
    v = np.concatenate([vals for _, _, _, vals in mats])
    lo = np.zeros(len(mats), dtype=np.int64)
    hi = np.zeros(len(mats), dtype=np.int64)
    np.maximum.at(lo, mat, r - c)
    np.maximum.at(hi, mat, c - r)
    flip = (hi < lo)[mat]
    r, c = np.where(flip, c, r), np.where(flip, r, c)
    # r + c - m + 1 is twice an entry's place past the middle
    tilt = np.zeros(len(mats), dtype=np.int64)
    np.add.at(tilt, mat, np.maximum(r - c, 0) * (r + c - m + 1))
    flip = (tilt > 0)[mat]
    r, c = np.where(flip, m - 1 - c, r), np.where(flip, m - 1 - r, c)
    # rows and columns in step coordinates
    t = (n - sizes) // 2
    r += t[mat]
    c += t[mat]
    steps = np.arange(n)
    low = np.full(n, -1)  # per column, its last row
    np.maximum.at(low, c, r)
    rows = np.maximum(np.maximum.accumulate(low), steps)
    right = np.full(n, -1)  # per row, its last column
    np.maximum.at(right, r, c)
    cols = np.maximum(np.maximum.accumulate(right)[rows], steps)
    enter = np.maximum(np.searchsorted(rows, r), t[mat])
    rows -= steps - 1
    cols -= steps - 1
    k = np.array([len(ps) for ps in primes])
    first = np.concatenate(([0], np.cumsum(k)))  # each matrix's first lane
    # matrix j is live while t_j <= s < t_j + m_j
    live = first[np.minimum(np.searchsorted(t, steps, "right"),
                            np.searchsorted(-(t + sizes), -steps))]
    shape = (int(first[-1]), int(rows.max()), int(cols.max()))
    order = np.argsort(enter, kind="stable")
    r, c, mat, v = r[order], c[order], mat[order], v[order]
    enter = enter[order]
    copies = k[mat]
    ends = np.cumsum(copies)
    # the lane of each copy: its matrix's first lane plus its place in
    # the run of copies of one entry; then, in place, its flat index, in
    # int32 unless the buffer has 2^31 cells or more
    lane = np.arange(ends[-1] if len(ends) else 0, dtype=np.int32
                     if np.prod(shape) < 2 ** 31 else np.int64)
    lane -= np.repeat(ends - copies - first[mat], copies)
    red = np.repeat(v, copies)
    red %= np.fromiter(chain.from_iterable(primes), dtype=np.int64)[lane]
    at = lane
    at *= shape[1] * shape[2]
    at += np.repeat(((r - enter) * shape[2] + c - enter).astype(at.dtype),
                    copies)
    start = np.concatenate(([0], ends))[
        np.searchsorted(enter, np.arange(n + 1))]
    return (shape, live.tolist(), rows.tolist(), cols.tolist(),
            red.astype(np.int64, copy=False), at, start.tolist())


def _check_columns(mats):
    """Raise ValueError, naming the first matrix of mats at fault, for a
    column outside its matrix or one twice in a row.  The elimination
    would read the first as another entry of its window and let the
    second overwrite the first, and a matrix with a zero row would skip
    the elimination with determinant 0."""
    if not mats:
        return
    sizes = np.array([len(lens) for _, lens, _, _ in mats])
    row_of = np.repeat(np.arange(sizes.sum()),
                       np.concatenate([lens for _, lens, _, _ in mats]))
    mat = np.repeat(np.arange(len(mats)), sizes)[row_of]
    c = np.concatenate([cols for _, _, cols, _ in mats])
    key = row_of * int(sizes.max()) + c
    at = np.argsort(key, kind="stable")
    bad = (c < 0) | (c >= sizes[mat])
    bad[at[1:]] |= key[at[1:]] == key[at[:-1]]
    if bad.any():
        j = mat[bad.argmax()]
        raise ValueError(f"matrix {j} has a column outside range({sizes[j]}) "
                         f"or twice in one row")


def _det_residues(mats, primes):
    """Determinants of row-sparse integer matrices modulo primes, all from
    one elimination.

    mats[j] is a matrix packed by _packed, and primes[j] lists the primes
    wanted for it; each (matrix, prime) pair is one lane.  One Gaussian
    elimination serves all lanes, over the union of the matrices'
    envelopes (_lane_entries): at step s only the live lanes run, and only
    on the block of the window that holds rows s..D_s and columns s..E_s.
    A matrix starts at its own step, centred on the largest, and its lanes
    retire after its last row.  Each lane picks its own pivot row (the
    first in the block that is nonzero in the pivot column), and no
    nonzero leaves the block.  Every entry is reduced mod each of its
    matrix's primes once, up front.  The block shifts by one row and
    column into a second buffer per step, which zeroes only the rows and
    columns that the next block adds before their entries enter.

    At each step, when every live lane is nonzero in the first row of its
    pivot column, that row is the pivot row of every lane and no row
    moves; otherwise each lane finds its own and swaps it with the first.
    At each step but the last, the live lanes of each prime (grouped again
    whenever the number of live lanes changes) get their pivot inverses
    from one pow.  A lone lane inverts its own pivot, if it has one.  Two
    lanes invert the product x y, and 1/x = y/(x y), 1/y = x/(x y).  Three
    or more use Montgomery's trick: prefix products, one inverse, and
    back-substitution.  A lane with no pivot takes 1 in place of it; its
    pivot column is zero, so its multipliers stay 0 whatever the inverse.
    One TR graph puts at most 3 lanes on a prime; count_many's chunks of
    about _CHUNK copies put tens.
    Returns, per matrix, the list of residues in [0, p).
    """
    if not mats:
        return []
    # largest first, so that the live lanes of each step are a prefix
    order = sorted(range(len(mats)), key=lambda j: -len(mats[j][1]))
    primes = [primes[j] for j in order]
    shape, live, rows, cols, red, at, start = _lane_entries(
        [mats[j] for j in order], primes)
    pr = np.fromiter(chain.from_iterable(primes), dtype=np.int64)
    plist = pr.tolist()
    by_prime = {}  # each prime's lanes, in order
    for j, p in enumerate(plist):
        by_prime.setdefault(p, []).append(j)

    win = np.zeros(shape, dtype=np.int64)
    win.put(at[:start[1]], red[:start[1]])
    nxt = np.zeros_like(win)
    det = np.ones(len(pr), dtype=np.int64)
    flips = np.zeros(len(pr), dtype=bool)
    was = 0
    for step, (J, r, c) in enumerate(zip(live, rows, cols)):
        if J != was:
            # views of the live lanes, and the live lanes of each prime
            was, ix, pj, dj, fj = J, np.arange(J), pr[:J], det[:J], flips[:J]
            q = pj[:, None]
            groups = [(p, js[:k]) for p, js in by_prime.items()
                      if (k := bisect_left(js, J))]
        w = win[:J, :r, :c]
        if step % _STEPS_PER_REDUCTION == 0:
            np.remainder(w, q[:, None], out=w)
        col = w[:, :, 0] % q
        if col[:, 0].all():  # every lane pivots on its first row
            pivot, prow = col[:, 0], w[:, 0] % q
        else:
            piv = (col != 0).argmax(axis=1)
            pivot = col[ix, piv]
            prow = w[ix, piv] % q
            if piv.any():
                fj ^= piv != 0
                w[ix, piv] = w[:, 0]
                col[ix, piv] = col[:, 0]
        dj *= pivot
        dj %= pj
        if step + 1 == len(live):
            break
        # one pow per prime; a lane with no pivot has det 0 and eliminates
        # nothing, so it takes 1 in place of its pivot
        pv, inv = pivot.tolist(), [1] * J
        for p, js in groups:
            if len(js) == 1:
                if x := pv[js[0]]:
                    inv[js[0]] = pow(x, -1, p)
            elif len(js) == 2:
                j, k = js
                x, y = pv[j] or 1, pv[k] or 1
                t = pow(x * y, -1, p)
                inv[j], inv[k] = t * y % p, t * x % p
            else:
                xs = [pv[j] or 1 for j in js]
                pre = [1]
                for x in xs:
                    pre.append(pre[-1] * x % p)
                t = pow(pre.pop(), -1, p)  # 1 / (xs[0] ... xs[-1])
                for j, x, a in zip(reversed(js), reversed(xs), reversed(pre)):
                    inv[j] = t * a % p
                    t = t * x % p
        f = col[:, 1:] * np.array(inv, dtype=np.int64)[:, None] % q
        np.subtract(w[:, 1:, 1:], f[:, :, None] * prow[:, None, 1:],
                    out=nxt[:J, :r - 1, :c - 1])
        # zero the rows and columns that the next block adds, and enter
        # their entries
        K, r1, c1 = live[step + 1], rows[step + 1], cols[step + 1]
        nxt[:K, r - 1:r1, :c1] = 0
        nxt[:K, :r - 1, c - 1:c1] = 0
        s, e = start[step + 1], start[step + 2]
        nxt.put(at[s:e], red[s:e])
        win, nxt = nxt, win
    res = np.where(flips, (pr - det) % pr, det).tolist()
    ends = np.cumsum([len(ps) for ps in primes]).tolist()
    out = [None] * len(mats)
    for j, e, ps in zip(order, ends, primes):
        out[j] = res[e - len(ps):e]
    return out


def _crt(primes, residues, bound):
    """The integer in [-bound, bound] with the given residues, by CRT."""
    acc, pr = 0, 1
    for p, r in zip(primes, residues):
        # incremental CRT
        t = (r - acc) * pow(pr, -1, p) % p
        acc += pr * t
        pr *= p
    if acc > pr // 2:
        acc -= pr
    if abs(acc) > bound:
        raise InexactArithmetic(
            f"CRT determinant has {abs(acc).bit_length()} bits, above the "
            f"Hadamard bound of {bound.bit_length()}")
    return acc


def _dets_exact(mats):
    """Exact determinants of matrices packed by _packed.

    Each matrix uses the fewest primes whose product covers twice its
    Hadamard row bound; the residues of all of them come from one
    elimination (_det_residues).  An empty matrix has determinant 1, and
    one with a zero row 0.
    """
    _check_columns(mats)
    dets = [1 if not len(lens) else 0 for _, lens, _, _ in mats]
    todo, bounds, primes = [], [], []
    for j, (sq, lens, _, _) in enumerate(mats):
        if len(lens) and sq:
            bound = isqrt(sq) + 1
            todo.append(j)
            bounds.append(bound)
            primes.append(_crt_primes(2 * bound + 1))
    residues = _det_residues([mats[j] for j in todo], primes)
    for j, ps, rs, bound in zip(todo, primes, residues, bounds):
        dets[j] = _crt(ps, rs, bound)
    return dets


def det_exact(vals, cols):
    """Exact determinant of a row-sparse integer matrix by CRT.

    Row i holds the Python ints vals[i] at the distinct columns cols[i];
    every other entry is 0.  The one-matrix case of _dets_exact.
    """
    return _dets_exact(_packed(int_array([list(chain.from_iterable(vals))]),
                               [len(c) for c in cols],
                               list(chain.from_iterable(cols))))[0]


# -- FKT counting -------------------------------------------------------------


# Matrices (copies of structures) eliminated together: few enough that the
# stacked arrays and the elimination window of a chunk stay small.
_CHUNK = 64


def _plan(graphs, cap):
    """The Kasteleyn matrices of graphs, planned on one stacked array.

    The graphs lie side by side, with empty columns between them, and
    _peel reduces all of them at once.  Per graph the result is None when
    it has no perfect matching (_peel's bad vertices, or classes of
    unequal size), and otherwise (pieces, forced): the forced edges as a
    mask shaped like the graph's links, and per piece of what is left
    (lens, cols, signs, at): the row lengths, columns and +-1 entries of
    its Kasteleyn matrix, and in the rows of at the index (d, x, y) of
    each entry's edge in the graph's links.  The matching count of the
    graph is the product of its pieces' |det|.

    The pieces come from cuts along x + y.  A cut lies above each level l
    (a diagonal x + y = l) below which the vertices left are balanced.
    All vertices of a level are of one class, and every edge joins two
    consecutive levels, so every edge across the cut leaves the part below
    from level l, of one class c.  The vertices of the other class below
    have all their neighbours below, and are as many as those of class c
    below, so a perfect matching matches them to all of those and uses no
    edge across the cut (the splitting lemma).  The count, weighted or
    not, is the product of the counts of the pieces between consecutive
    cuts.  A graph with no cut is one piece.

    Row i and column j of a piece are its i-th even and j-th odd vertex in
    level order: by level x + y, then by x.  An edge joins two consecutive
    levels, so the columns of a row lie in the two levels next to its own,
    and the envelope that _det_residues eliminates in follows the width of
    the levels.  (A fixed band is narrower in x-major order, but the
    envelope is smaller in level order.)  An entry is + when _flips
    orients its edge out of the even vertex, with ranks over whole rows of
    the stack, as for a whole graph: a piece lies between two diagonals, so
    no vertex of another piece lies inside one of its cycles (_flips).  A
    graph left with more than cap vertices raises TooLarge.
    """
    # a graph's point (x, y) goes to cell (x - dx, y - dy), dx a multiple
    # of 4 and dy of 2, so parities (and Kasteleyn's rule) are kept
    boxes, x = [], 1  # each graph's cells [:, X, Y] in the stack
    for g in graphs:
        x += (g.origin[0] - x) % 4
        y = g.origin[1] % 2
        boxes.append(np.s_[:, x:x + g.occ.shape[0], y:y + g.occ.shape[1]])
        x += g.occ.shape[0] + 1
    h = max([1] + [box[2].stop for box in boxes])
    occ, edges = np.zeros((x, h), dtype=bool), np.zeros((2, x, h), dtype=bool)
    owner = np.full(x, len(graphs))  # gap columns belong to no graph
    for j, (g, box) in enumerate(zip(graphs, boxes)):
        occ[box[1:]], edges[box] = g.occ, g.links
        owner[box[1]] = j
    forced, bad = _peel(occ.ravel(), edges.ravel(), h)

    # each vertex's level x + y, counted from its box's left edge, so
    # that a graph's levels lie in range(span); a level holds one class
    # only, and the running sum over the levels of even minus odd
    # vertices is 0 below each cut
    n, span = x * h, max([0] + [g.occ.shape[0] for g in graphs]) + h
    vs = np.flatnonzero(occ)
    vx, vy = np.divmod(vs, h)
    own, x0 = owner[vx], np.array([box[1].start for box in boxes] + [0])
    y0 = np.array([box[2].start for box in boxes] + [0])
    key = own * span + vx - x0[own] + vy
    tally = np.bincount(key, minlength=x0.size * span).reshape(-1, span)
    below = np.cumsum(
        tally * (1 - 2 * ((x0[:, None] + np.arange(span)) % 2)), 1)
    size, dead = tally.sum(1), below[:, -1] != 0
    dead[owner[bad.reshape(x, h).any(1)]] = True
    dead[-1] = True
    if (size[~dead] > cap).any():
        raise TooLarge(f"{int(size[~dead].max())} vertices after forced-edge "
                       f"reduction exceed {cap}")
    cut = (below == 0) & (tally > 0)
    # each vertex's piece: its graph's first key, plus the cuts below it
    piece = np.full(n, -1)
    piece[vs] = (np.cumsum(cut, 1) - cut).ravel()[key] + own * span
    # rows and columns: even and odd vertices by piece, then by level,
    # then by x (vs is x-major, and lexsort is stable)
    live, level = ~dead[own], vx + vy
    a, b = (vs[m][np.lexsort((level[m], piece[vs[m]]))]
            for m in (live & (level % 2 == k) for k in (0, 1)))
    col = np.empty(n, dtype=np.int32)
    col[b] = np.arange(len(b))
    slot = a[:, None] + [0, -h, n, n - 1]  # the edges E, W, N, S of a
    mate, pa = a[:, None] + [h, -h, 1, -1], piece[a]
    # an edge across a cut is in no perfect matching
    valid = edges.ravel()[slot] & (piece[mate] == pa[:, None])
    signs = ((1 - 2 * _flips(occ, 0, 0).ravel()[slot])
             * [1, -1, 1, -1])[valid]
    cols = col[mate[valid]]
    lens = valid.sum(1, dtype=np.int32)
    # each entry's edge as its index (d, x, y) in its graph's links
    d, ex, ey = np.unravel_index(slot[valid], (2, x, h))
    k = owner[ex]
    at = np.stack((d, ex - x0[k], ey - y0[k]))
    forced = forced.reshape(2, x, h)  # a graph's box of it is like g.links
    pieces = [[] for _ in graphs]
    first = np.flatnonzero(np.diff(pa, prepend=-1))
    rows = first.tolist() + [len(a)]
    ends = [0] + np.cumsum(lens).tolist()
    for j, r0, r1 in zip((pa[first] // span).tolist(), rows, rows[1:]):
        # a balanced piece starts at column r0, as at row r0
        e = np.s_[ends[r0]:ends[r1]]
        pieces[j].append((lens[r0:r1], cols[e] - r0, signs[e], at[:, e]))
    return [None if dead[j] else (pieces[j], forced[box])
            for j, box in enumerate(boxes)]


def count_many(graphs, cap=FKT_CAP):
    """Exact matching counts of graphs, in order, by Pfaffian orientations
    and exact determinants.  Each is a Graph, read as its arrays weighted
    by its wd.

    Consecutive graphs that share their arrays (with_weights copies) share
    one plan.  The structures are sorted by size into chunks of about
    _CHUNK copies, each planned by one _plan and eliminated by one
    _dets_exact, with each piece of a graph (_plan) as a matrix of its
    own.  A weighted count is the forced
    edges' weight product times the product of the pieces' |det(signs *
    w)|, over d^(rows + forced edges).  A graph left with more than cap
    vertices after forced-edge reduction raises TooLarge.
    """
    structs, copies, last = [], [], None  # one graph per run; its (i, wd)
    for i, g in enumerate(graphs):
        key = (g.origin, id(g.occ), id(g.links))
        if key != last:
            structs.append(g)
            copies.append([])
            last = key
        copies[-1].append((i, g.wd))
    counts = [0] * sum(map(len, copies))
    order = sorted(range(len(structs)), key=lambda j: structs[j].n)
    # a chunk: the structures whose first copy is in one run of _CHUNK copies
    before = accumulate((len(copies[j]) for j in order), initial=0)
    for _, run in groupby(zip(order, before), lambda t: t[1] // _CHUNK):
        chunk = [j for j, _ in run]
        mats, owners = [], []
        for j, plan in zip(chunk, _plan([structs[j] for j in chunk], cap)):
            if plan is None:
                continue
            pieces, forced = plan
            weighted = [(i, w) for i, w in copies[j] if w is not None]
            for i, w in copies[j]:
                if w is None:  # a row's sum of squares is its length
                    mats += [(prod(lens.tolist()), lens, cols, signs)
                             for lens, cols, signs, _ in pieces]
                    owners.append((i, len(pieces), 1, 1))
            if not weighted:
                continue
            # the weighted copies' entries, piece by piece; mats copy by copy
            w = np.stack([w for _, (w, _) in weighted], axis=-1)
            mats += chain.from_iterable(zip(*(
                _packed(signs * w[tuple(at)].T, lens, cols)
                for lens, cols, signs, at in pieces)))
            rows = sum(len(lens) for lens, *_ in pieces)
            owners += [(i, len(pieces), prod(fw), d ** (rows + len(fw)))
                       for (i, (_, d)), fw in zip(
                           weighted, w[forced].T.tolist())]
        dets = iter(_dets_exact(mats))
        for i, k, num, den in owners:
            det = prod(abs(t) for t in islice(dets, k))
            counts[i] = _exact(Fraction(num * det, den))
    return counts


def count_fkt(g, cap=FKT_CAP):
    """Exact matching count of one graph: count_many([g], cap)[0]."""
    return count_many([g], cap)[0]


def count_matchings(g, method="auto"):
    """Count with the requested method; `auto` cross-checks when both run."""
    return _count_each([g], method)[0]


def _count_each(graphs, method):
    """count_matchings of each graph, with every FKT count from one
    count_many; `auto` checks them with oracle_check."""
    if method == "brute":
        return [count_brute(g) for g in graphs]
    if method not in ("fkt", "auto"):
        raise ValueError(f"unknown method {method!r}")
    counts = count_many(graphs)
    return oracle_check(graphs, counts) if method == "auto" else counts


def oracle_check(graphs, counts):
    """counts, once each of graphs of at most BRUTE_CAP vertices has its
    count in counts by count_brute as well; otherwise AssertionError."""
    for g, nf in zip(graphs, counts):
        if len(g) <= BRUTE_CAP and (nb := count_brute(g)) != nf:
            raise AssertionError(f"oracle mismatch: brute={nb} fkt={nf} "
                                 f"for {g.graph_hash()}")
    return counts


# -- identity checkers ---------------------------------------------------------


def kuo_graphs(g, u, v, w, t):
    """The six graphs of the condensation identity for four face-cyclic
    vertices: g, and g less {u, v, w, t}, {u, v}, {w, t}, {t, u} and
    {v, w}.  u, v, w, t must be four distinct vertices, u, w of one parity
    class and v, t of the other, in cyclic order (either rotation sense)
    on a single face of the balanced graph g, or BadVertexSelection is
    raised."""
    if len({u, v, w, t}) < 4 or len(g.induced((u, v, w, t))) < 4:
        raise BadVertexSelection("u, v, w, t must be four distinct vertices")
    if not g.is_balanced():
        raise BadVertexSelection("graph is not balanced")
    pu, pv, pw, pt = ((p[0] + p[1]) % 2 for p in (u, v, w, t))
    if not (pu == pw and pv == pt and pu != pv):
        raise BadVertexSelection("u,w and v,t must oppose by parity class")
    if not _on_common_face_in_order(g, (u, v, w, t)):
        raise BadVertexSelection("vertices not in cyclic order on one face")
    return [g] + [g.without(d) for d in ((u, v, w, t), (u, v), (w, t),
                                         (t, u), (v, w))]


def kuo_sides(m):
    """Both sides of the condensation identity, from the counts m of the
    six graphs of kuo_graphs."""
    lhs, rhs = m[0] * m[1], m[2] * m[3] + m[4] * m[5]
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def kuo_check(g, u, v, w, t, method="auto"):
    """Verify the condensation identity for four face-cyclic vertices
    (kuo_graphs), counting by method.  Returns a dict with both sides of
    the identity."""
    return kuo_sides(_count_each(kuo_graphs(g, u, v, w, t), method))


def _on_common_face_in_order(g, quad):
    """Whether the points quad lie on one face cycle in this cyclic order,
    in either rotation sense, at some of their places on it."""
    for cycle in planar_faces(g):
        n = len(cycle)
        for a, *rest in product(*([i for i, p in enumerate(cycle) if p == q]
                                  for q in quad)):
            b, c, d = ((i - a) % n for i in rest)
            if 0 < b < c < d or 0 < d < c < b:
                return True
    return False


def split_graphs(g, h_vertices):
    """The three graphs of the splitting identity: g, H and G - H.

    H and G - H are g under two masks (induced and without), and the
    edges that cross between them are g's edges in neither.  Unless H is
    a vertex subset of g that meets both conditions, ConditionsViolated
    is raised.  Separating: no edge joins V(H) in one fixed class to
    G - H.  Balancing: H has equally many vertices of both classes.
    """
    h_set = set(h_vertices)
    h, rest = g.induced(h_set), g.without(h_set)
    if len(h) != len(h_set):
        raise ConditionsViolated("H is not a vertex subset of G")
    cls, in_h = g.classes(), h.occ
    if 2 * (h_odd := int(cls[in_h].sum())) != len(h):
        raise ConditionsViolated(
            f"balancing condition fails: {len(h) - h_odd} vs {h_odd}")
    # a crossing edge's end in H is its lower-left end, at its cell, if
    # that cell is in H, and otherwise its other end, of the other class
    cross = (g.links & ~h.links & ~rest.links).any(0)
    if len(np.unique((cls == in_h)[cross])) > 1:
        raise ConditionsViolated(
            "separating condition fails: both classes of H meet G-H")
    return [g, h, rest]


def split_sides(counts):
    """The product identity M(G) = M(H) M(G - H), from the counts of the
    three graphs of split_graphs."""
    m_g, m_h, m_r = counts
    return {"M_g": m_g, "M_h": m_h, "M_rest": m_r,
            "equal": m_g == m_h * m_r}


def split_check(g, h_vertices, method="auto"):
    """Check the two splitting conditions and the product identity
    (split_graphs), counting by method."""
    return split_sides(_count_each(split_graphs(g, h_vertices), method))
