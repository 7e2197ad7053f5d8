"""Exact perfect-matching counts for plane lattice graphs.

Two independent counting routes are provided: a branching brute-force
counter (the oracle, for small graphs) and a Pfaffian-orientation counter
whose determinant is computed exactly by CRT over word-sized primes.  All
arithmetic is exact; no floats touch any counting path.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import chain, islice
from math import isqrt, lcm, prod

import numpy as np

BRUTE_CAP = 44
FKT_CAP = 4000


class TooLarge(Exception):
    pass


class BadVertexSelection(Exception):
    pass


class ConditionsViolated(Exception):
    pass


class NonPlanarEmbedding(Exception):
    """Internal assertion: lattice graphs must embed without crossings."""


class InexactArithmetic(ArithmeticError):
    """An exactness guard failed: a CRT determinant outside its Hadamard
    bound."""


def edge_key(u, v):
    return (u, v) if u <= v else (v, u)


class Graph:
    """Undirected graph on integer lattice points.

    Vertices are (x, y) tuples; the bipartition is by (x + y) parity.
    adj maps each vertex, in sorted order, to its set of neighbours.
    Edge weights default to 1 and are stored sparsely as exact Fractions
    (or ints) only where they differ from 1.  No Graph changes its adj
    after construction, so weighted copies share it (with_weights).
    """

    __slots__ = ("vertices", "adj", "weights")

    def __init__(self, vertices, edges, weights=None):
        self.vertices = tuple(sorted(set(vertices)))
        vs = set(self.vertices)
        adj = {v: set() for v in self.vertices}
        for u, v in edges:
            if u == v:
                raise ValueError("self-loop")
            if u not in vs or v not in vs:
                raise ValueError("edge endpoint not a vertex")
            if (u[0] + u[1] + v[0] + v[1]) % 2:
                adj[u].add(v)
                adj[v].add(u)
            else:
                raise ValueError(f"edge {u}-{v} joins same parity class")
        self.adj = adj
        self.weights = _checked_weights(adj, weights)

    # -- basic accessors ------------------------------------------------

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        return [(u, v) for u in self.vertices for v in self.adj[u] if u < v]

    def n_edges(self):
        return sum(len(s) for s in self.adj.values()) // 2

    def weight(self, u, v):
        return self.weights.get(edge_key(u, v), 1)

    def degree(self, v):
        return len(self.adj[v])

    def has_edge(self, u, v):
        return v in self.adj.get(u, ())

    def classes(self):
        """Vertices by (x+y) parity: (even list, odd list), both sorted."""
        ev = [v for v in self.vertices if (v[0] + v[1]) % 2 == 0]
        od = [v for v in self.vertices if (v[0] + v[1]) % 2 == 1]
        return ev, od

    def is_balanced(self):
        ev, od = self.classes()
        return len(ev) == len(od)

    # -- derived graphs --------------------------------------------------

    def induced(self, keep):
        keep = set(keep)
        edges = [(u, v) for u, v in self.edges() if u in keep and v in keep]
        w = {e: w for e, w in self.weights.items()
             if e[0] in keep and e[1] in keep}
        return Graph([v for v in self.vertices if v in keep], edges, w)

    def without(self, drop):
        drop = set(drop)
        return self.induced(v for v in self.vertices if v not in drop)

    def with_weights(self, weights):
        """This graph with the given edge weights in place of its own.  The
        copy shares vertices and adj with self; no edge is checked again."""
        g = Graph.__new__(Graph)
        g.vertices, g.adj = self.vertices, self.adj
        g.weights = _checked_weights(self.adj, weights)
        return g

    def mapped(self, fn):
        """Relabel vertices through fn (must stay parity-preserving)."""
        edges = [(fn(u), fn(v)) for u, v in self.edges()]
        w = {edge_key(fn(u), fn(v)): wt for (u, v), wt in self.weights.items()}
        return Graph([fn(v) for v in self.vertices], edges, w)

    def components(self):
        """Connected components; a connected graph is its own component."""
        comps = _components(self.adj)
        if len(comps) == 1:
            return [self]
        return [self._on_adjacency({v: self.adj[v] for v in comp})
                for comp in comps]

    def _on_adjacency(self, adj):
        """The graph with adjacency adj, a closed part of self's, carrying
        self's weights; no edge of self outside adj is visited."""
        edges = [(v, u) for v, s in adj.items() for u in s if v < u]
        return Graph(adj, edges, {e: self.weights[e] for e in edges
                                  if e in self.weights})

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


def _checked_weights(adj, weights):
    """The weights that differ from 1, keyed by edge_key.  A weight on a
    pair that is not an edge of adj, or one that is not an int or a
    Fraction (bool is not allowed), raises ValueError naming the pair."""
    out = {}
    for (u, v), w in (weights or {}).items():
        if v not in adj.get(u, ()):
            raise ValueError(f"weight on {u}-{v}, which is not an edge")
        if type(w) is not Fraction and (
                type(w) is bool or not isinstance(w, int)):
            raise ValueError(
                f"weight {w!r} on {u}-{v} is not an int or Fraction")
        if w != 1:
            out[edge_key(u, v)] = w
    return out


def _components(adj):
    """Vertex lists of the connected components of adjacency adj, each in
    adj's order, and ordered by their first vertex in adj."""
    label, comps = {}, []
    for start in adj:
        if start in label:
            continue
        label[start] = k = len(comps)
        comps.append([])
        stack = [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in label:
                    label[u] = k
                    stack.append(u)
    for v in adj:
        comps[label[v]].append(v)
    return comps


# -- forced-edge reduction -------------------------------------------------


def _forced(adj):
    """Repeatedly match degree-1 vertices away, without reading weights.

    Returns (pairs, rest): the forced edges as edge_keys, and the
    adjacency they leave, in adj's order; rest is adj itself when nothing
    is forced, and None when a vertex is left isolated (no perfect
    matching).  adj is not modified.
    """
    queue = [v for v, s in adj.items() if len(s) <= 1]
    if not queue:
        return [], adj
    rest = {v: set(s) for v, s in adj.items()}
    pairs = []
    while queue:
        v = queue.pop()
        if v not in rest:
            continue
        # degrees only fall, so a queued vertex has at most one neighbour
        nbrs = rest.pop(v)
        if not nbrs:
            return pairs, None
        (u,) = nbrs
        pairs.append(edge_key(u, v))
        for w in rest.pop(u):
            if w != v:
                rest[w].discard(u)
                if len(rest[w]) <= 1:
                    queue.append(w)
    return pairs, rest


def reduce_forced(g):
    """Repeatedly match degree-1 vertices away.

    Returns (reduced graph, multiplier): M(g) = multiplier * M(reduced).
    With nothing forced, g itself comes back with multiplier 1.  An
    isolated vertex short-circuits to (empty graph, 0).
    """
    pairs, rest = _forced(g.adj)
    if rest is None:
        return Graph([], []), 0
    if not pairs:
        return g, 1
    return g._on_adjacency(rest), prod(g.weight(u, v) for u, v in pairs)


# -- brute-force oracle ------------------------------------------------------


def count_brute(g, cap=BRUTE_CAP):
    """Exact weighted matching count by branching on a min-degree vertex.

    Deterministic: ties in degree are broken by lexicographic point order.
    """
    if len(g) > cap:
        raise TooLarge(f"{len(g)} vertices exceeds brute cap {cap}")
    adj = {v: set(s) for v, s in g.adj.items()}
    return _exact(_brute(adj, g.weights))


def _exact(t):
    """t, with an integral Fraction turned into an int."""
    return int(t) if isinstance(t, Fraction) and t.denominator == 1 else t


def _brute(adj, weights):
    if not adj:
        return 1
    total = 1
    # forced / isolated propagation
    while True:
        pivot = min(adj, key=lambda v: (len(adj[v]), v))
        d = len(adj[pivot])
        if d == 0:
            return 0
        if d > 1:
            break
        (u,) = adj[pivot]
        total *= weights.get(edge_key(pivot, u), 1)
        for w in adj[u]:
            if w != pivot:
                adj[w].discard(u)
        del adj[pivot]
        del adj[u]
        if not adj:
            return total
    if len(adj) % 2:
        return 0
    acc = 0
    for u in sorted(adj[pivot]):
        sub = {v: {w for w in s if w != pivot and w != u}
               for v, s in adj.items() if v != pivot and v != u}
        acc += weights.get(edge_key(pivot, u), 1) * _brute(sub, weights)
    return total * acc


# -- planar embedding: faces ------------------------------------------------


# Counterclockwise rank of each unit step, starting east.
_CCW_RANK = {(1, 0): 0, (0, 1): 1, (-1, 0): 2, (0, -1): 3}


def _require_unit_steps(g):
    """Raise NonPlanarEmbedding unless every edge of g is a unit step of
    Z^2: face tracing and the sign rule of _points_from cover no other."""
    for (x, y), s in g.adj.items():
        for u, v in s:
            if abs(u - x) + abs(v - y) != 1:
                raise NonPlanarEmbedding(
                    f"edge {(x, y)}-{(u, v)} is not a unit step")


def _sorted_rotations(g):
    """Neighbors of each vertex in counterclockwise order (E, N, W, S)."""
    _require_unit_steps(g)
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
        cycle = []
        dart = start
        while True:
            cycle.append(dart[0])
            used.add(dart)
            u, v = dart
            nbrs = rot[v]
            i = pos[v][u]
            dart = (v, nbrs[(i - 1) % len(nbrs)])
            if dart == start:
                break
        faces.append(cycle)
    return faces


# -- Pfaffian orientation ----------------------------------------------------


def _row_ranks(vertices):
    """rank[v]: how many of the vertices lie left of v in its row.  One
    pass over the vertices, which must be sorted by x and then y."""
    rank, seen = {}, {}
    for v in vertices:
        rank[v] = seen.get(v[1], 0)
        seen[v[1]] = rank[v] + 1
    return rank


def _points_from(a, b, rank):
    """Whether the unit-step edge a-b is oriented a -> b.

    Kasteleyn's square-lattice rule: a horizontal edge in row y points
    east iff y is even, and a vertical edge (x, y)-(x, y+1) points north
    iff x + rank[x, y] is even, where rank holds the _row_ranks of a
    connected graph.
    """
    if a[1] == b[1]:
        return (b[0] > a[0]) == (a[1] % 2 == 0)
    up = b[1] > a[1]
    low = a if up else b
    return up == ((low[0] + rank[low]) % 2 == 0)


def pfaffian_orientation(g):
    """Orient the edges of a unit-step graph so every bounded face is
    clockwise-odd, by _points_from's rule on each connected component.

    With every vertical pointing north, each unit square is clockwise-odd,
    so a cycle C has #clockwise = 1 + #(points of Z^2 inside C) mod 2.
    For any x0 left of the component, x + rank[x, y] = x0 + #(points
    (x', y) outside it with x0 <= x' < x) mod 2.  The constant flips every
    vertical, and C has an even number of them.  Each such point flips the
    verticals that an eastward ray from it at height y + 1/2 crosses, and
    the ray crosses C an odd number of times iff the point is inside C.
    So #clockwise = 1 + #(vertices inside C) mod 2, which is 1 on a face.
    Returns {edge_key: (tail, head)}; a non-unit edge raises
    NonPlanarEmbedding.
    """
    _require_unit_steps(g)
    orient = {}
    for comp in g.components():
        rank = _row_ranks(comp.vertices)
        for u, v in comp.edges():
            orient[u, v] = (u, v) if _points_from(u, v, rank) else (v, u)
    return orient


# -- exact determinant via CRT ----------------------------------------------

_PRIME_POOL = []


def _is_probable_prime(n):
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
            while not _is_probable_prime(n):
                n -= 2
            _PRIME_POOL.append(n)
        cover *= _PRIME_POOL[k]
        k += 1
    return _PRIME_POOL[:k]


# Between two reductions of the window an entry takes at most this many
# updates x - f*y with f, y < p < 2^30, so it stays above -7 * 2^60 and fits
# in int64.
_STEPS_PER_REDUCTION = 7


def _packed(vals, lens, cols):
    """A row-sparse matrix packed as _det_residues takes it.  Row i holds
    the next lens[i] of the Python ints vals, at the distinct columns
    that cols (a list or an int32 array) gives in the same order.

    Returns (sq, lens, cols, vals): sq the product of the rows' sums of
    squares (0 exactly when a row is zero), and the row lengths, columns
    and entries as arrays.  Entries that do not fit int64 make the entry
    array an object array.
    """
    entries = iter(vals)
    sq = prod(sum(x * x for x in islice(entries, n)) for n in lens)
    try:
        v = np.array(vals, dtype=np.int64)
    except OverflowError:
        v = np.array(vals, dtype=object)
    return (sq, np.array(lens, dtype=np.int32),
            np.asarray(cols, dtype=np.int32), v)


def _lane_entries(mats, primes, n):
    """Every nonzero of every matrix, one copy per lane, for _det_residues.

    A matrix whose upper bandwidth is below its lower one is transposed
    (same determinant, narrower band).  Returns (lo, width, red, at,
    start): lo and width = lo + hi + 1 from the largest lower and upper
    bandwidths; the copies ordered by row, red holding each copy's entry
    reduced mod its lane's prime and at its flat index in a window of
    shape (lanes, lo + 1, width) when its row enters as the last window
    row; and start[i] the first copy of row i, for i = 0..n.
    """
    sizes = np.array([len(lens) for _, lens, _, _ in mats])
    lens = np.concatenate([lens for _, lens, _, _ in mats])
    row_of = np.repeat(np.arange(len(lens), dtype=np.int32), lens)
    mat = np.repeat(np.arange(len(mats), dtype=np.int32), sizes)[row_of]
    r = row_of - (np.cumsum(sizes) - sizes).astype(np.int32)[mat]
    d = np.concatenate([cols for _, _, cols, _ in mats]) - r
    v = np.concatenate([vals for _, _, _, vals in mats])
    lo = np.zeros(len(mats), dtype=np.int32)
    hi = np.zeros(len(mats), dtype=np.int32)
    np.maximum.at(lo, mat, -d)
    np.maximum.at(hi, mat, d)
    flip = hi < lo
    lo, hi = int(np.where(flip, hi, lo).max()), int(np.maximum(hi, lo).max())
    width = lo + hi + 1
    flip = flip[mat]
    r[flip] += d[flip]
    np.negative(d, out=d, where=flip)
    order = np.argsort(r, kind="stable")
    r, d, mat, v = r[order], d[order], mat[order], v[order]
    k = np.array([len(ps) for ps in primes])
    copies = k[mat]
    ends = np.cumsum(copies)
    # the lane of each copy: its matrix's first lane plus its place in
    # the run of copies of one entry
    lane = np.arange(ends[-1] if len(ends) else 0, dtype=np.int32)
    lane -= np.repeat(ends - copies - (np.cumsum(k) - k)[mat], copies)
    red = np.repeat(v, copies)
    red %= np.fromiter(chain.from_iterable(primes), dtype=np.int64)[lane]
    # an entering row's band starts at column step - lo
    at = lane.astype(np.int64) * ((lo + 1) * width)
    at += np.repeat(d + lo * (width + 1), copies)
    start = np.concatenate(([0], ends))[np.searchsorted(r, np.arange(n + 1))]
    return lo, width, red.astype(np.int64, copy=False), at, start.tolist()


def _det_residues(mats, primes):
    """Determinants of row-sparse integer matrices modulo primes, all from
    one elimination.

    mats[j] is a matrix packed by _packed, and primes[j] lists the primes
    wanted for it; each (matrix, prime) pair is one lane.  Every matrix is
    padded with identity rows to the largest size n, and one banded
    Gaussian elimination serves all lanes: a window of shape
    (lanes, L+1, L+H+1) slides down the
    diagonal, where L and H are the largest lower and upper bandwidths
    (after _lane_entries transposes the matrices that are narrower that
    way).  Each lane picks its own pivot row (the first in the window that
    is nonzero in the pivot column), so the upper band of the eliminated
    rows grows to at most L+H and no nonzero leaves the window.  Every
    entry is reduced mod each of its matrix's primes once, up front.
    Returns, per matrix, the list of residues in [0, p).
    """
    if not mats:
        return []
    sizes = [len(lens) for _, lens, _, _ in mats]
    n = max(sizes)
    lo, width, red, at, start = _lane_entries(mats, primes, n)
    pr = np.fromiter(chain.from_iterable(primes), dtype=np.int64)
    plist = pr.tolist()
    p1, p2 = pr[:, None], pr[:, None, None]
    # row i of a lane is an identity row once i reaches its matrix's size
    size = np.repeat(sizes, [len(ps) for ps in primes])
    smallest = min(sizes)
    lanes = len(pr)
    each = np.arange(lanes)

    win = np.zeros((lanes, lo + 1, width), dtype=np.int64)
    first = np.arange(min(lo + 1, n))
    win[:, first, first] = size[:, None] <= first
    for i in first.tolist():
        s, e = start[i], start[i + 1]
        np.put(win, at[s:e] - (lo - i) * (width + 1), red[s:e])
    nxt = np.empty_like(win)
    det = np.ones(lanes, dtype=np.int64)
    flips = np.zeros(lanes, dtype=bool)
    for step in range(n):
        if step % _STEPS_PER_REDUCTION == 0:
            np.remainder(win, p2, out=win)
        col = win[:, :, 0] % p1
        piv = (col != 0).argmax(axis=1)
        pivot = col[each, piv]
        prow = win[each, piv] % p1
        det = det * pivot % pr
        if piv.any():
            flips ^= piv != 0
            win[each, piv] = win[:, 0]
            col[each, piv] = col[:, 0]
        # a lane with no pivot has det 0 and eliminates nothing
        inv = np.array([pow(x, -1, p) if x else 0
                        for x, p in zip(pivot.tolist(), plist)],
                       dtype=np.int64)
        f = col[:, 1:] * inv[:, None] % p1
        np.subtract(win[:, 1:, 1:], f[:, :, None] * prow[:, None, 1:],
                    out=nxt[:, :lo, :-1])
        nxt[:, :lo, -1] = 0
        nxt[:, lo] = 0
        i = step + 1 + lo
        if i < n:
            if i >= smallest:
                nxt[:, lo, lo] = size <= i
            s, e = start[i], start[i + 1]
            np.put(nxt, at[s:e], red[s:e])
        win, nxt = nxt, win
    res = np.where(flips, (pr - det) % pr, det).tolist()
    ends = np.cumsum([len(ps) for ps in primes]).tolist()
    return [res[e - len(ps):e] for e, ps in zip(ends, primes)]


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
    Hadamard row bound; the residues of all of them come from one banded
    elimination.  An empty matrix has determinant 1, and one with a zero
    row 0.
    """
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
    return _dets_exact([_packed(list(chain.from_iterable(vals)),
                                [len(c) for c in cols],
                                list(chain.from_iterable(cols)))])[0]


# -- FKT counting -------------------------------------------------------------


def _plan(g, cap):
    """The weight-free part of counting g, shared by every graph with g's
    adj.

    Returns (pairs, parts): the edges that forced-edge reduction matches,
    and per component of what it leaves, (keys, signs, lens, cols) for a
    Kasteleyn matrix: the edge_key and the sign of every entry, in row
    order, the row lengths, and the entries' columns as an int32 array.
    parts is None when no perfect matching exists: a vertex is left
    isolated, or a component has odd size or unequal classes.  Row i and
    column j are the component's i-th even and j-th odd vertex in sorted
    order, and an entry is + when _points_from orients its edge out of the
    even vertex; every nice cycle is then clockwise-odd
    (pfaffian_orientation).
    """
    _require_unit_steps(g)
    pairs, rest = _forced(g.adj)
    if rest is None:
        return pairs, None
    parts = []
    for comp in _components(rest):
        if len(comp) % 2:
            return pairs, None
        if len(comp) > cap:
            raise TooLarge(f"component of {len(comp)} vertices exceeds {cap}")
        ev = [v for v in comp if (v[0] + v[1]) % 2 == 0]
        # classes of unequal size admit no perfect matching
        if 2 * len(ev) != len(comp):
            return pairs, None
        index = {v: j for j, v in enumerate(v for v in comp
                                            if (v[0] + v[1]) % 2)}
        rank = _row_ranks(comp)
        keys, signs, lens, cols = [], [], [], []
        for a in ev:
            lens.append(len(rest[a]))
            for b in rest[a]:
                keys.append(edge_key(a, b))
                signs.append(1 if _points_from(a, b, rank) else -1)
                cols.append(index[b])
        parts.append((keys, signs, lens, np.array(cols, dtype=np.int32)))
    return pairs, parts


def count_many(graphs, cap=FKT_CAP):
    """Exact matching counts of graphs, in order, by Pfaffian orientations
    and exact determinants.

    Each graph runs per connected component after forced-edge reduction;
    exact for arbitrary Fraction edge weights.  Consecutive graphs that
    share one adj object, as Graph.with_weights copies do, share one
    _plan; each then adds only its weight product over the forced edges
    and its entries sign * numerator * (scale // denominator), scale being
    the lcm of the component's denominators.  The Kasteleyn matrices of
    all components of all graphs share one elimination.  A graph with an
    edge that is not a unit step raises NonPlanarEmbedding, even when
    forced-edge reduction would remove that edge.
    """
    counts, mats, owners = [], [], []
    adj = None
    for g in graphs:
        if g.adj is not adj:
            adj, (pairs, parts) = g.adj, _plan(g, cap)
        weights = g.weights
        if parts is None:
            total = 0
        else:
            forced = [weights.get(e, 1) for e in pairs]
            total = Fraction(prod(w.numerator for w in forced),
                             prod(w.denominator for w in forced))
        for keys, signs, lens, cols in parts if total else ():
            if weights:
                ws = [weights.get(k, 1) for k in keys]
                scale = lcm(*(w.denominator for w in ws))
                vals = [s * w.numerator * (scale // w.denominator)
                        for s, w in zip(signs, ws)]
            else:
                scale, vals = 1, signs
            mats.append(_packed(vals, lens, cols))
            owners.append((len(counts), scale ** len(lens)))
        counts.append(total)
    for (gi, den), det in zip(owners, _dets_exact(mats)):
        counts[gi] *= Fraction(abs(det), den)
    return [_exact(t) for t in counts]


def count_fkt(g, cap=FKT_CAP):
    """Exact matching count of one graph: count_many([g], cap)[0]."""
    return count_many([g], cap)[0]


def count_matchings(g, method="auto", brute_cap=BRUTE_CAP, fkt_cap=FKT_CAP):
    """Count with the requested method; `auto` cross-checks when both run."""
    if method == "brute":
        return count_brute(g, cap=brute_cap)
    if method == "fkt":
        return count_fkt(g, cap=fkt_cap)
    if method == "auto":
        if len(g) <= brute_cap:
            nb = count_brute(g, cap=brute_cap)
            nf = count_fkt(g, cap=fkt_cap)
            if nb != nf:
                raise AssertionError(
                    f"oracle mismatch: brute={nb} fkt={nf} for {g.graph_hash()}")
            return nb
        return count_fkt(g, cap=fkt_cap)
    raise ValueError(f"unknown method {method!r}")


# -- identity checkers ---------------------------------------------------------


def kuo_check(g, u, v, w, t, method="auto"):
    """Verify the condensation identity for four face-cyclic vertices.

    u, w must share one parity class and v, t the other; the four must
    appear in cyclic order (either rotation sense) on a single face.
    Returns a dict with both sides of the identity.
    """
    for p in (u, v, w, t):
        if p not in g.adj:
            raise BadVertexSelection(f"{p} not a vertex")
    if not g.is_balanced():
        raise BadVertexSelection("graph is not balanced")
    pu, pv, pw, pt = ((p[0] + p[1]) % 2 for p in (u, v, w, t))
    if not (pu == pw and pv == pt and pu != pv):
        raise BadVertexSelection("u,w and v,t must oppose by parity class")
    if not _on_common_face_in_order(g, (u, v, w, t)):
        raise BadVertexSelection("vertices not in cyclic order on one face")
    m = lambda deleted: count_matchings(g.without(deleted), method=method)
    lhs = count_matchings(g, method=method) * m((u, v, w, t))
    rhs = m((u, v)) * m((w, t)) + m((t, u)) * m((v, w))
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def _on_common_face_in_order(g, quad):
    for cycle in planar_faces(g):
        index = {}
        for i, p in enumerate(cycle):
            index.setdefault(p, []).append(i)
        if any(p not in index for p in quad):
            continue
        from itertools import product

        n = len(cycle)
        for picks in product(*(index[p] for p in quad)):
            a, b, c, d = picks
            fwd = ((b - a) % n, (c - a) % n, (d - a) % n)
            if 0 < fwd[0] < fwd[1] < fwd[2]:
                return True
            rev = ((d - a) % n, (c - a) % n, (b - a) % n)
            if 0 < rev[0] < rev[1] < rev[2]:
                return True
    return False


def split_check(g, h_vertices, method="auto"):
    """Check the two splitting conditions and the product identity.

    Separating: no edge joins V(H) in one fixed class to G - H.
    Balancing: H has equally many vertices of both classes.
    """
    h_set = set(h_vertices)
    if not h_set <= set(g.vertices):
        raise ConditionsViolated("H is not a vertex subset of G")
    rest = [v for v in g.vertices if v not in h_set]
    h_even = sum(1 for v in h_set if (v[0] + v[1]) % 2 == 0)
    h_odd = len(h_set) - h_even
    if h_even != h_odd:
        raise ConditionsViolated(
            f"balancing condition fails: {h_even} vs {h_odd}")
    crossing_parity = set()
    for x, y in g.edges():
        if (x in h_set) != (y in h_set):
            inner = x if x in h_set else y
            crossing_parity.add((inner[0] + inner[1]) % 2)
    if len(crossing_parity) > 1:
        raise ConditionsViolated(
            "separating condition fails: both classes of H meet G-H")
    h = g.induced(h_set)
    r = g.induced(rest)
    m_g = count_matchings(g, method=method)
    m_h = count_matchings(h, method=method)
    m_r = count_matchings(r, method=method)
    return {"M_g": m_g, "M_h": m_h, "M_rest": m_r,
            "equal": m_g == m_h * m_r}
