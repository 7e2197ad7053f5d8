import random
import re
import tracemalloc
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from math import isqrt, prod
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from crossdimer.families import (
    build_aztec_rectangle, build_augmented_aztec, build_TR,
)
from crossdimer.formulas import thm_TR
from crossdimer.lattice import FULL_GRID, GRID_B
from crossdimer import matchcount
from crossdimer.matchcount import (
    Graph, BadVertexSelection, ConditionsViolated, InexactArithmetic,
    NonPlanarEmbedding, TooLarge,
    count_brute, count_fkt, count_many, count_matchings, det_exact, edge_key,
    kuo_check, planar_faces, reduce_forced, split_check,
)


def sparse(mat):
    """A dense matrix as det_exact's (vals, cols): the nonzeros of each row
    and their columns."""
    return ([[x for x in row if x] for row in mat],
            [[j for j, x in enumerate(row) if x] for row in mat])


def path(n):
    return Graph([(i, 0) for i in range(n)],
                 [((i, 0), (i + 1, 0)) for i in range(n - 1)])


def square():
    return Graph([(0, 0), (1, 0), (0, 1), (1, 1)],
                 [((0, 0), (1, 0)), ((0, 0), (0, 1)),
                  ((1, 0), (1, 1)), ((0, 1), (1, 1))])


def moved(g, fn):
    """g with each point p at fn(p), for fn a map of Z^2 that keeps parity."""
    return Graph(map(fn, g.vertices), [(fn(u), fn(v)) for u, v in g.edges()],
                 {(fn(u), fn(v)): w for (u, v), w in g.weights.items()})


def test_graph_rejects_same_parity_edge():
    with pytest.raises(ValueError):
        Graph([(0, 0), (1, 1)], [((0, 0), (1, 1))])


def test_graph_rejects_bad_weights():
    sq = square()
    # a weight off the edges, or one that is not an int or a Fraction
    for pair, w in ((((0, 0), (1, 1)), 5), (((0, 0), (7, 0)), 5),
                    (((0, 0), (1, 0)), 0.5), (((0, 0), (1, 0)), True)):
        named = re.escape(f"{pair[0]}-{pair[1]}")
        with pytest.raises(ValueError, match=named):
            sq.with_weights({pair: w})
        with pytest.raises(ValueError, match=named):
            Graph(sq.vertices, sq.edges(), {pair: w})
    g = sq.with_weights({((1, 0), (0, 0)): Fraction(2), ((0, 1), (1, 1)): 1})
    assert g.weights == {((0, 0), (1, 0)): 2}
    assert g.adj is sq.adj and g.vertices is sq.vertices
    # an integral weighted count is an int from both methods
    assert count_brute(g) == count_fkt(g) == 3
    assert type(count_brute(g)) is type(count_fkt(g)) is int


def test_graph_rejects_non_positive_weights():
    # counts are |det|: a negative weight would come back with its sign
    # lost, so Graph refuses it and with_weights with it
    g = grid(2, 3)
    pair = ((0, 1), (0, 2))
    for w in (-2, 0, Fraction(-1, 2)):
        named = re.escape(f"{pair[0]}-{pair[1]}")
        with pytest.raises(ValueError, match=named):
            Graph(g.vertices, g.edges(), {pair: w})
        with pytest.raises(ValueError, match="not positive"):
            g.with_weights({pair: w})
    assert count_matchings(g.with_weights({pair: 2})) == 4


def test_reduce_forced_path2():
    g, mult = reduce_forced(path(2))
    assert len(g) == 0 and mult == 1


def test_reduce_forced_path3():
    g, mult = reduce_forced(path(3))
    assert mult == 0


def test_reduce_forced_preserves_count():
    g = build_augmented_aztec(FULL_GRID, 2, 2)
    red, mult = reduce_forced(g)
    assert mult * count_brute(red) == count_brute(g)


def test_brute_examples():
    assert count_brute(Graph([], [])) == 1
    assert count_brute(build_aztec_rectangle(FULL_GRID, 2, 2)) == 8
    assert count_brute(build_augmented_aztec(FULL_GRID, 2, 2)) == 13


def test_brute_cap():
    g = build_aztec_rectangle(FULL_GRID, 5, 5)
    with pytest.raises(TooLarge):
        count_brute(g, cap=10)


def face_area2(cycle):
    """Twice the signed (shoelace) area of a face cycle."""
    s = 0
    n = len(cycle)
    for i in range(n):
        x1, y1 = cycle[i]
        x2, y2 = cycle[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return s


def inside(cycle, points):
    """The points off the closed walk cycle that it encloses: those whose
    eastward ray at height y + 1/2 crosses it an odd number of times."""
    walls = [(u[0], min(u[1], v[1]))
             for u, v in zip(cycle, cycle[1:] + cycle[:1]) if u[0] == v[0]]
    return [p for p in points if p not in cycle and sum(
        y == p[1] and x > p[0] for x, y in walls) % 2]


def plan_orientations(g):
    """The live vertices of g and, per piece that _plan makes of it, the
    piece's vertices and its edges as (tail, head) pairs, read off the
    piece's (lens, cols, signs): row i is the piece's i-th even live
    vertex in order of level x + y, then of x, column j its j-th odd one,
    and an entry is + when its edge points out of the even vertex.  The
    live vertices are those that no forced edge covers, and the pieces lie
    between the levels of diagonal_cuts.  None when g has no perfect
    matching."""
    grid = matchcount.Grid.of_graph(g)
    (plan,) = matchcount._plan([grid], len(g))
    if plan is None:
        return None
    pieces, forced = plan
    peeled = matchcount.Grid(grid.origin, grid.occ, forced).graph().adj
    live = g.without(v for v, s in peeled.items() if s)
    cuts = diagonal_cuts(live)
    assert len(pieces) == (len(cuts) + 1 if len(live) else 0)
    out = []
    for k, (lens, cols, signs, _) in enumerate(pieces):
        band = sorted((v for v in live.vertices
                       if bisect_left(cuts, sum(v)) == k),
                      key=lambda v: (sum(v), v[0]))
        even, odd = ([v for v in band if sum(v) % 2 == c] for c in (0, 1))
        assert len(lens) == len(even) == len(odd)
        rows = np.repeat(np.arange(len(lens)), lens).tolist()
        out.append((band, [(even[i], odd[j]) if s > 0 else (odd[j], even[i])
                           for i, j, s in zip(rows, cols.tolist(),
                                              signs.tolist())]))
    return live, out


def check_plan_faces(g):
    """Check that each bounded face C of each piece of g has #clockwise =
    1 + #(live vertices inside C) mod 2 under _plan's signs, and that the
    signs orient every edge of the piece once; the number of pieces, or
    None when g has no perfect matching."""
    found = plan_orientations(g)
    if found is None:
        return None
    live, pieces = found
    for band, arcs in pieces:
        orient = {edge_key(*a): a for a in arcs}
        assert sorted(orient) == sorted(live.induced(band).edges())
        for cyc in planar_faces(Graph(band, arcs)):
            if face_area2(cyc) > 0:
                clockwise = sum(orient[edge_key(u, v)] == (v, u)
                                for u, v in zip(cyc, cyc[1:] + cyc[:1]))
                enclosed = len(inside(cyc, live.vertices))
                assert clockwise % 2 == (1 + enclosed) % 2
    return len(pieces)


def test_orientation_square_is_odd():
    g = square()
    assert len([f for f in planar_faces(g) if face_area2(f) > 0]) == 1
    assert check_plan_faces(g) == 1


def test_orientation_forest():
    # a forest is matched by peeling alone: no piece is left to orient
    assert check_plan_faces(path(4)) == 0


def test_orientation_edgeless_components():
    assert check_plan_faces(Graph([], [])) == 0
    # an isolated vertex leaves no perfect matching, and so no signs
    assert check_plan_faces(Graph([(0, 0)], [])) is None
    assert check_plan_faces(Graph(list(square().vertices) + [(5, 5)],
                                  square().edges())) is None
    # two squares, with a cut along x + y between them
    far = moved(square(), lambda p: (p[0] + 5, p[1] + 5))
    assert check_plan_faces(Graph(square().vertices + far.vertices,
                                  square().edges() + far.edges())) == 2


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_orientation_odd_on_random_subgraphs(m, n, data):
    # dropped vertices leave holes, bridges and several components
    g = build_augmented_aztec(FULL_GRID, m, n)
    drop = data.draw(st.sets(st.sampled_from(sorted(g.vertices)),
                             max_size=4))
    check_plan_faces(g.without(drop))


def test_orientation_determinant_is_count_squared():
    # _plan's signs, as a skew-symmetric matrix on all of g's vertices
    g = build_aztec_rectangle(FULL_GRID, 2, 2)
    idx = {v: i for i, v in enumerate(g.vertices)}
    skew = [[0] * len(g) for _ in g.vertices]
    for _, arcs in plan_orientations(g)[1]:
        for tail, head in arcs:
            skew[idx[tail]][idx[head]], skew[idx[head]][idx[tail]] = 1, -1
    assert det_exact(*sparse(skew)) == 64  # = M(AD_2)^2


def test_fkt_matches_known_counts():
    for n in range(1, 6):
        g = build_aztec_rectangle(FULL_GRID, n, n)
        assert count_fkt(g) == 2 ** (n * (n + 1) // 2)
    assert count_fkt(build_aztec_rectangle(FULL_GRID, 3, 5)) == 0


def test_fkt_disconnected_is_product():
    g1 = square()
    g2 = Graph([(10, 0), (11, 0), (10, 1), (11, 1)],
               [((10, 0), (11, 0)), ((10, 0), (10, 1)),
                ((11, 0), (11, 1)), ((10, 1), (11, 1))])
    both = Graph(list(g1.vertices) + list(g2.vertices),
                 g1.edges() + g2.edges())
    assert count_fkt(both) == count_fkt(g1) * count_fkt(g2) == 4


def test_fkt_weighted_rational():
    g = square().with_weights({((0, 0), (1, 0)): Fraction(1, 2),
                               ((0, 1), (1, 1)): Fraction(1, 3)})
    # matchings: {bottom, top} and {left, right}
    assert count_brute(g) == Fraction(1, 6) + 1
    assert count_fkt(g) == Fraction(7, 6)


def grid(w, h, x0=0):
    pts = [(x0 + x, y) for x in range(w) for y in range(h)]
    return Graph(pts, [(p, q) for p in pts for q in pts
                       if q in ((p[0] + 1, p[1]), (p[0], p[1] + 1))])


def test_count_many_matches_count_fkt():
    weighted = square().with_weights({((0, 0), (1, 0)): Fraction(1, 2),
                                      ((0, 1), (1, 1)): Fraction(1, 3)})
    two = Graph(list(square().vertices) + list(grid(2, 3, 5).vertices),
                square().edges() + grid(2, 3, 5).edges())
    odd = Graph(list(square().vertices) + list(grid(3, 3, 5).vertices),
                square().edges() + grid(3, 3, 5).edges())
    batch = [weighted, two, path(3), odd, Graph([], []), build_TR(2, 4),
             two, grid(4, 3)]
    got = count_many(batch)
    assert got == [count_fkt(g) for g in batch]
    assert got == [Fraction(7, 6), 6, 0, 0, 1, 12_100_000_000, 6, 11]
    assert [count_brute(g) for g in batch if len(g) <= 44] == \
        [x for g, x in zip(batch, got) if len(g) <= 44]
    assert type(got[1]) is int and count_many([]) == []


def test_count_many_traces_no_faces(monkeypatch):
    from crossdimer.families import assign_cross_weights, build_A, weight_point

    calls = []
    faces = matchcount.planar_faces

    def spy(g):
        calls.append(g)
        return faces(g)

    g = build_A(1, 4, 4, 2)
    weighted = [assign_cross_weights(g, weight_point(*pt))
                for pt in ((3, 5, 7), (5, 7, 3), (7, 3, 5), (3, 5, 11))]
    want = [count_fkt(gw) for gw in weighted]
    monkeypatch.setattr(matchcount, "planar_faces", spy)
    assert count_many(weighted) == want
    # same vertex set, one interior rung fewer: a different structure
    ladder = grid(2, 4)
    cut = Graph(ladder.vertices,
                [e for e in ladder.edges() if e != ((0, 1), (1, 1))])
    assert cut.vertices == ladder.vertices
    assert len(cut.edges()) == len(ladder.edges()) - 1
    assert count_many([ladder, cut]) == [count_brute(ladder),
                                         count_brute(cut)]
    assert calls == []


@st.composite
def holey_grids(draw):
    """Subgraphs of a w x h grid (w, h <= 7, w * h <= 36), less the corner
    (0, 0) when w * h is odd, with up to 4 dominoes (a point and its east
    or north neighbour) dropped, so that the two classes stay balanced,
    and each edge kept with probability 0.9: holes, bridges and several
    components.  Some edges carry random Fraction weights.  (The area
    bound keeps count_brute fast: the 7 x 7 grid less a corner has 100352
    matchings.)"""
    w = draw(st.integers(1, 7))
    h = draw(st.integers(1, min(7, 36 // w)))
    pts = [(x, y) for x in range(w) for y in range(h)]
    drop = {(0, 0)} if w * h % 2 else set()
    for x, y in draw(st.lists(st.sampled_from(pts), max_size=4)):
        q = (x + 1, y) if draw(st.booleans()) else (x, y + 1)
        if q in pts and not drop & {(x, y), q}:
            drop |= {(x, y), q}
    pts = [p for p in pts if p not in drop]
    kept = set(pts)
    edges, weights = [], {}
    for x, y in pts:
        for q in ((x + 1, y), (x, y + 1)):
            if q in kept and draw(st.integers(0, 9)):
                edges.append(((x, y), q))
                if draw(st.integers(0, 3)) == 0:
                    weights[(x, y), q] = Fraction(draw(st.integers(1, 9)),
                                                  draw(st.integers(1, 9)))
    return Graph(pts, edges, weights)


def ring_around_island(w, h):
    """The w x h grid with its boundary ring cut off from the inside."""
    g = grid(w, h)

    def inside(p):
        return 0 < p[0] < w - 1 and 0 < p[1] < h - 1

    return Graph(g.vertices, [(p, q) for p, q in g.edges()
                              if inside(p) == inside(q)])


@settings(max_examples=300, deadline=None)
@given(holey_grids())
# a ring around one missing point: the rank term must flip the verticals
# right of the hole
@example(grid(3, 3).without([(1, 1)]))
# rings around islands of one and of two dominoes: the island's vertices
# lie inside the ring's cycle, in even number
@example(ring_around_island(4, 3))
@example(ring_around_island(4, 4))
@example(ring_around_island(6, 3))
def test_fkt_matches_brute_on_holey_grids(g):
    assert count_fkt(g) == count_brute(g, cap=len(g))


@settings(max_examples=300, deadline=None)
@given(holey_grids())
@example(build_TR(2, 4))
@example(grid(3, 3).without([(1, 1)]))
@example(ring_around_island(4, 3))
@example(ring_around_island(4, 4))
@example(ring_around_island(6, 3))
def test_plan_signs_make_each_face_clockwise_odd(g):
    # TR(2, 4) is counted as three pieces, each checked on its own
    check_plan_faces(g)


@st.composite
def weighted_batches(draw):
    """Weighted copies of one holey grid g that share its plan, each with
    its own forced-edge weights, around another grid h and g2, a copy of
    g built apart, which each need a plan of their own."""
    g, h = draw(holey_grids()), draw(holey_grids())
    fraction = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))

    def weighted(base):
        return base.with_weights({e: draw(fraction) for e in base.edges()
                                  if draw(st.booleans())})

    g2 = Graph(g.vertices, g.edges(), g.weights)
    return [weighted(g), weighted(g), h, weighted(g), weighted(g2)]


def weighted_squares(*weightings):
    """Copies of grid(2, 2) that weigh its bottom, top and left edges as
    the triples in weightings do; all of them share one adjacency."""
    base = grid(2, 2)
    return [base.with_weights(dict(zip(
        [((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 0), (0, 1))], ws)))
        for ws in weightings]


@settings(max_examples=60, deadline=None)
@given(weighted_batches())
# copies whose weights have different denominators, so that each scales
# its entries by its own common denominator
@example(weighted_squares((Fraction(1, 2), Fraction(1, 3), 1),
                          (Fraction(2, 5), Fraction(7, 3), Fraction(3, 4)),
                          (5, 1, Fraction(1, 7))))
# scaled weights that do not fit int64 (2^80 over 3 * 2^40), and integer
# weights whose squares do not: both are counted with Python ints
@example(weighted_squares((Fraction(2 ** 40, 3), Fraction(1, 2 ** 40), 1),
                          (2 ** 40, 2 ** 40 + 1, 2 ** 62)))
def test_count_many_shares_plans_across_weightings(batch):
    assert count_many(batch) == [count_brute(x, cap=len(x)) for x in batch]


def test_count_many_weights_beyond_int64():
    # the object-array fallback: the exact count, with no wrap-around
    (big,) = weighted_squares((Fraction(2 ** 40, 3), Fraction(1, 2 ** 40),
                               2 ** 62))
    w, d = matchcount._edge_weights(matchcount.Grid.of_graph(big),
                                    big.weights)
    assert w.dtype == object and d == 3 * 2 ** 40
    # {bottom, top} and {left, right}
    assert count_many([big]) == [Fraction(1, 3) + 2 ** 62] == \
        [count_brute(big)]


def test_count_many_plans_each_structure_once(monkeypatch):
    from crossdimer.families import (
        Spec, assign_cross_weights, build_A, cross_weightings, weight_point,
    )
    from crossdimer.harness import _weighted_counts
    from crossdimer.lattice import LatticeSpec
    from crossdimer.matchcount import FKT_CAP

    g = build_A(1, 4, 4, 2)
    pts = ((3, 5, 7), (5, 7, 3), (7, 3, 5), (3, 5, 11))
    points = [weight_point(*pt) for pt in pts]
    want = [count_fkt(assign_cross_weights(g, w)) for w in points]
    calls, planned = Counter(), []

    def spy(owner, name, label):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(matchcount.Grid, "of_graph", "grid")
    spy(Graph, "__init__", "Graph")
    spy(LatticeSpec, "edge_offset", "edge_offset")
    plan = matchcount._plan

    def plan_spy(grids, cap):
        planned.append(len(grids))
        return plan(grids, cap)

    monkeypatch.setattr(matchcount, "_plan", plan_spy)
    assert count_many(cross_weightings(g, points)) == want
    # the four weightings share one structure, planned once; the weight
    # symbols come from the residue table, with no edge_offset lookups
    assert planned == [1]
    assert calls == {"grid": 1}
    # the conjecture path counts the weightings of the family's point set
    # on its Grid, with no Graph
    calls.clear()
    assert _weighted_counts([Spec("A1", (4, 4, 2))], pts, FKT_CAP) == [want]
    assert planned == [1, 1]
    assert not calls  # no Graph.__init__, Grid.of_graph or edge_offset


def unmatchable():
    """Graphs with no perfect matching, one per way _plan finds that out:
    an isolated vertex, two leaves on one mate, unequal classes and odd
    size."""
    lone = Graph(list(square().vertices) + [(3, 0)], square().edges())
    # two leaves on (1, 1) and two on (1, 4), of opposite classes, around a
    # domino: the classes stay equal, and the domino alone is matchable
    claimed = Graph([(1, y) for y in range(1, 5)]
                    + [(0, 1), (2, 1), (0, 4), (2, 4)],
                    [((1, y), (1, y + 1)) for y in range(1, 4)]
                    + [((0, 1), (1, 1)), ((2, 1), (1, 1)),
                       ((0, 4), (1, 4)), ((2, 4), (1, 4))])
    return [lone, claimed, grid(4, 4).without([(1, 1), (2, 2)]), grid(3, 3)]


def test_count_many_stacks_graphs_apart(monkeypatch):
    dead = unmatchable()
    assert [count_brute(g) for g in dead] == [0, 0, 0, 0]
    assert dead[1].is_balanced() and not dead[2].is_balanced()
    assert len(dead[3]) % 2
    # far apart in y, and on both row parities
    live = [moved(grid(2, 3), lambda p: (p[0] + 1, p[1] + 1001)),
            moved(grid(4, 3), lambda p: (p[0] + 5, p[1] - 3)),
            build_TR(1, 2),
            moved(square(), lambda p: (p[0] - 7, p[1] + 2)).with_weights(
                {((-7, 2), (-6, 2)): Fraction(1, 2)}),
            build_aztec_rectangle(GRID_B, 2, 2)]
    batch = [g for pair in zip(live, dead + [path(4)]) for g in pair]
    alone = [count_fkt(g) for g in batch]
    assert alone == [3, 0, 11, 0, 100, 0, Fraction(3, 2), 0,
                     count_brute(live[-1]), 1]
    rng = random.Random(11)
    for chunk in (32, 2, 3):
        monkeypatch.setattr(matchcount, "_CHUNK", chunk)
        for _ in range(4):
            order = rng.sample(range(len(batch)), len(batch))
            assert count_many([batch[i] for i in order]) == \
                [alone[i] for i in order]


def test_too_large_applies_after_forced_reduction():
    # a forced tail of 10 vertices beside a 4 x 4 grid: 26 vertices, 16
    # left after forced-edge reduction
    g = Graph(list(path(10).vertices) + list(grid(4, 4, 20).vertices),
              path(10).edges() + grid(4, 4, 20).edges())
    assert count_fkt(g, cap=16) == 36
    with pytest.raises(TooLarge, match="16 vertices"):
        count_fkt(g, cap=15)
    # a graph with no perfect matching counts 0 whatever its size
    assert count_fkt(grid(9, 9), cap=4) == 0


def test_det_exact_small():
    assert det_exact(*sparse([[2, 1], [1, 2]])) == 3
    assert det_exact(*sparse([[0, 0], [0, 0]])) == 0
    assert det_exact([], []) == 1
    # columns within a row may come in any order
    assert det_exact([[1, 2], [1, 2]], [[1, 0], [0, 1]]) == 3


@pytest.mark.parametrize("vals, cols, size", [
    ([[2, 5]], [[0, 1]], 1),                  # column 1 of a 1 x 1 matrix
    ([[2], [7, 3]], [[0], [-1, 1]], 2),       # column -1
    ([[1, 1], [1, 1]], [[0, 0], [0, 1]], 2),  # column 0 twice in row 0
    # a zero row would make the determinant 0 without an elimination
    ([[0]], [[3]], 1),
    ([[1, 1], [0, 0]], [[0, 9], [0, 1]], 2),
])
def test_det_exact_rejects_bad_columns(vals, cols, size):
    with pytest.raises(ValueError, match=rf"matrix 0 has a column outside "
                                         rf"range\({size}\) or twice"):
        det_exact(vals, cols)


def test_elimination_names_the_matrix_with_a_bad_column():
    good, bad = (matchcount._packed(matchcount.int_array([[1, 2, 3, 4]]),
                                    [2, 2], cols)[0] for cols in
                 ([0, 1, 1, 0], [0, 1, 1, 1]))
    assert matchcount._dets_exact([good]) == [-5]
    with pytest.raises(ValueError, match="matrix 1 has a column"):
        matchcount._dets_exact([good, bad])
    # the index counts the matrices with a zero row, which skip elimination
    (zero,) = matchcount._packed(matchcount.int_array([[0, 1]]), [1, 1],
                                 [0, 1])
    assert matchcount._dets_exact([zero, good]) == [0, -5]
    with pytest.raises(ValueError, match="matrix 2 has a column"):
        matchcount._dets_exact([zero, good, bad])


def test_det_exact_rejects_residues_beyond_bound(monkeypatch):
    # a residue of (p - 1) / 2 = -1/2 mod every prime reconstructs to a
    # value far outside the Hadamard bound
    monkeypatch.setattr(matchcount, "_det_residues",
                        lambda mats, primes: [[p // 2 for p in ps]
                                              for ps in primes])
    with pytest.raises(InexactArithmetic):
        det_exact(*sparse([[2, 1], [1, 2]]))


def fraction_det(mat):
    """Reference determinant: Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


# the largest pool prime: a row scaled by it makes the matrix zero mod it
P0 = matchcount._crt_primes(2)[0]


@st.composite
def banded_matrices(draw):
    """Square integer matrices of random bandwidths (full band = dense),
    with small or huge entries, repeated rows and rows scaled by P0.  Some
    are also zero outside a random monotone row profile: row i only holds
    columns first[i]..last[i], both nondecreasing in i, so the envelope
    is ragged."""
    n = draw(st.integers(1, 7))
    lo, hi = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    entry = draw(st.sampled_from([st.integers(-2, 2), st.integers(-9, 9),
                                  st.integers(-(2 ** 70), 2 ** 70),
                                  st.sampled_from([0, 1, 2 ** 31,
                                                   -(2 ** 62), 2 ** 63])]))
    first, last = [0] * n, [n - 1] * n
    if draw(st.booleans()):
        first, last = (sorted(draw(st.lists(st.integers(0, n - 1),
                                            min_size=n, max_size=n)))
                       for _ in "fl")
    mat = [[draw(entry) if -lo <= j - i <= hi and first[i] <= j <= last[i]
            else 0 for j in range(n)] for i in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    how = draw(st.sampled_from(["none", "repeat", "scale"]))
    if how == "repeat":
        mat[i] = list(mat[j])
    elif how == "scale":
        mat[i] = [x * P0 for x in mat[i]]
    return mat


# tridiagonal, but for one long row above the diagonal and one below
JUMP = [[2, 1, 0, 0, 0, 0, 0],
        [1, 2, 1, 0, 0, 0, 0],
        [0, 1, 2, 1, 0, 0, 1],
        [0, 0, 1, 2, 1, 0, 0],
        [0, 0, 0, 1, 2, 1, 0],
        [0, 0, 3, 0, 1, 2, 1],
        [0, 0, 0, 0, 0, 1, 2]]


@settings(max_examples=300, deadline=None)
@given(banded_matrices())
@example([[5]])
@example([[0, 1], [1, 0]])
@example([[1, 2], [2, 4]])
@example([[P0, 0], [0, 1]])
@example([[2 ** 31, 1], [1, 2 ** 31]])
@example([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
# lower bandwidth above the upper, with a row swap: the transpose is
# eliminated
@example([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
@example([[0, 1, 0, 0], [1, 0, 0, 0], [3, 0, 0, 1], [0, 2, 1, 0]])
@example([[0, 2 ** 70, 0], [5, 0, 0], [1, -3, 2 ** 63]])
# a late row that reaches far left: the window's last row D_s jumps from
# 1 to 4 in one step
@example(JUMP)
def test_det_exact_matches_fraction_det(mat):
    seen = []
    residues = matchcount._det_residues

    def spy(mats, primes):
        seen.extend(primes)
        return residues(mats, primes)

    with mock.patch.object(matchcount, "_det_residues", spy):
        assert det_exact(*sparse(mat)) == fraction_det(mat)
    row_sums = [sum(x * x for x in row) for row in mat]
    if 0 in row_sums:
        assert not seen
        return
    (primes,) = seen
    need = 2 * (isqrt(prod(row_sums)) + 1) + 1
    assert prod(primes) >= need > prod(primes[:-1])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(banded_matrices(), st.integers(0, 2)),
                min_size=1, max_size=12))
# several sizes and bandwidths in one batch, one transposed, one singular
# and one zero mod the first prime; all nine share that prime, so their
# pivots are inverted together
@example([([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 1), ([[5]], 0),
          ([[1, 2], [2, 4]], 2), ([[P0, 0], [0, 1]], 1),
          ([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], 0),
          ([[3, -7, 0], [2, 9, 4], [0, 5, -1]], 2), ([[4, 1], [1, 3]], 1),
          ([[0, 2], [-5, 7]], 0), ([[2 ** 40, 1], [3, 2 ** 35]], 2)])
# sizes 7, 5, 3 and 1 run the steps 0-6, 1-5, 2-4 and 3: the live prefix
# grows by one matrix per step, then shrinks
@example([(JUMP, 2),
          ([[3, 1, 0, 0, 0], [1, 3, 1, 0, 0], [0, 1, 3, 1, 0],
            [0, 0, 1, 3, 1], [0, 0, 0, 1, 3]], 1),
          ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 0), ([[7]], 2)])
def test_det_residues_batch_matches_fraction_det(batch):
    pool = matchcount._crt_primes(2 ** 90)
    mats = [matchcount._packed(
                matchcount.int_array([[x for row in mat for x in row if x]]),
                [sum(1 for x in row if x) for row in mat],
                [j for row in mat for j, x in enumerate(row) if x])[0]
            for mat, _ in batch]
    primes = [pool[:1] + pool[len(pool) - extra:] if extra else pool[:1]
              for _, extra in batch]
    inverted = Counter()  # pow(x, -1, p) calls, by p

    def spy(x, e, p):
        inverted[p] += e == -1
        return pow(x, e, p)

    with mock.patch.object(matchcount, "pow", spy, create=True):
        got = matchcount._det_residues(mats, primes)
    assert len(got) == len(batch)
    for (mat, _), ps, residues in zip(batch, primes, got):
        want = int(fraction_det(mat))
        assert residues == [want % p for p in ps]
    # every matrix has a lane on pool[0].  A matrix of size m is live at
    # the steps t .. t + m - 1 for t = (n - m) // 2, and the live lanes
    # invert their pivots at every step but the last of the call: with at
    # least _BATCH_LANES of them, by one pow; with fewer, by one pow per
    # nonzero pivot, and a matrix invertible mod pool[0] has no zero pivot
    n = max(len(mat) for mat, _ in batch)
    batched = lone = singular = 0
    for step in range(n - 1):
        runs = [r[0] != 0 for (mat, _), r in zip(batch, got)
                if (n - len(mat)) // 2 <= step < (n + len(mat)) // 2]
        if len(runs) >= matchcount._BATCH_LANES:
            batched += 1
        else:
            lone += sum(runs)
            singular += runs.count(False)
    assert batched + lone <= inverted[pool[0]] <= batched + lone + singular


def test_det_residues_retires_each_lane_with_its_matrix():
    # a lane stops at its matrix's last row: the 3 x 3 matrix's prime is
    # not inverted through the 40 steps of the other
    rng = random.Random(3)
    small, big = ([[rng.randint(1, 9) for _ in range(m)] for _ in range(m)]
                  for m in (3, 40))
    pool = matchcount._crt_primes(2 ** 60)
    mats = [matchcount._packed(matchcount.int_array([sum(mat, [])]),
                               [len(mat)] * len(mat),
                               list(range(len(mat))) * len(mat))[0]
            for mat in (small, big)]
    inverted = Counter()

    def spy(x, e, p):
        inverted[p] += e == -1
        return pow(x, e, p)

    with mock.patch.object(matchcount, "pow", spy, create=True):
        got = matchcount._det_residues(mats, [pool[:1], pool[1:2]])
    assert got == [[int(fraction_det(small)) % pool[0]],
                   [int(fraction_det(big)) % pool[1]]]
    assert inverted[pool[0]] <= 3


def test_det_exact_dense_past_reduction_period():
    # 40 elimination steps run through several lazy-reduction periods
    rng = random.Random(7)
    mat = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    assert det_exact(*sparse(mat)) == fraction_det(mat)
    # a lower Hessenberg matrix is eliminated through its transpose
    low = [[x if j <= i + 1 else 0 for j, x in enumerate(row)]
           for i, row in enumerate(mat)]
    assert det_exact(*sparse(low)) == fraction_det(low)


def test_fkt_tr_6_12_above_cap():
    g = build_TR(6, 12)
    assert len(g) == 2208
    assert count_fkt(g, cap=len(g)) == thm_TR(6, 12).value()


def test_fkt_tr_8_16_above_cap():
    g = build_TR(8, 16)
    assert len(g) == 3968
    assert count_fkt(g) == thm_TR(8, 16).value()


def test_fkt_tr_6_12_memory():
    # the Kasteleyn matrix is row-sparse: no n x n array (n = 1104) is built
    g = build_TR(6, 12)
    tracemalloc.start()
    try:
        assert count_fkt(g) == thm_TR(6, 12).value()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def spy_dets(monkeypatch):
    """The (rows, entries) of the matrices of each _dets_exact call.  Each
    matrix must be square: every column of an entry one of its rows."""
    seen, dets = [], matchcount._dets_exact

    def spy(mats):
        for _, lens, cols, _ in mats:
            assert ((0 <= cols) & (cols < len(lens))).all()
        seen.append([(len(lens), len(cols)) for _, lens, cols, _ in mats])
        return dets(mats)

    monkeypatch.setattr(matchcount, "_dets_exact", spy)
    return seen


def diagonal_cuts(g):
    """The levels l below which (x + y <= l) g's vertices are balanced,
    short of its top level."""
    levels = sorted({x + y for x, y in g.vertices})
    run, cuts = 0, []
    for lev in levels[:-1]:
        run += sum(1 - 2 * (lev % 2) for x, y in g.vertices if x + y == lev)
        if run == 0:
            cuts.append(lev)
    return cuts


def test_tr_counts_as_pieces_between_its_two_cuts(monkeypatch):
    from crossdimer.families import Spec, grids
    from crossdimer.harness import SuiteConfig, valid_triples

    seen = spy_dets(monkeypatch)
    for a in range(1, 7):
        g = build_TR(a, 2 * a)
        cuts = diagonal_cuts(g)
        assert len(cuts) == 2
        assert count_fkt(g, cap=len(g)) == thm_TR(a, 2 * a).value()
        rows, entries = zip(*seen[-1])
        assert len(rows) == 3 and sum(rows) == len(g) // 2
        # no matrix holds an edge across a cut
        across = [e for e in g.edges() if min(map(sum, e)) in cuts]
        assert across and sum(entries) == len(g.edges()) - len(across)
    # TR(5, 10): two family regions and the band between them
    assert [r for r, _ in seen[4]] == [380, 29, 351]
    # no theorem21 graph has a cut after peeling: one matrix each
    specs = [Spec(head, t) for t in valid_triples(
        range(2, 7), SuiteConfig().perimeter_cap)
        for i in (1, 2, 3) for head in (f"A{i}", f"F{i}")]
    seen.clear()
    assert count_many(grids(specs)) == [s.closed_form().value()
                                        for s in specs]
    assert sum(map(len, seen)) == len(specs) == 564


def test_tr_1_2_pieces_match_brute():
    g = build_TR(1, 2)
    assert len(g) == 48
    assert count_fkt(g) == count_brute(g, cap=48) == thm_TR(1, 2).value()


def test_mirrored_tr_is_counted_whole(monkeypatch):
    # the cuts follow x + y only, and the mirror's x + y levels are the
    # y - x levels of TR(3, 6), below none of which it is balanced
    seen = spy_dets(monkeypatch)
    g = moved(build_TR(3, 6), lambda p: (-p[0], p[1]))
    assert diagonal_cuts(g) == []
    assert count_fkt(g) == thm_TR(3, 6).value()
    assert [[r for r, _ in call] for call in seen] == [[len(g) // 2]]


def test_weights_across_a_cut_do_not_count():
    g = build_TR(2, 4)
    cuts = diagonal_cuts(g)
    rng = random.Random(5)
    edges = g.edges()
    across = [(u, v) for u, v in edges if min(sum(u), sum(v)) in cuts]
    assert len(across) > 4
    inside = {e: Fraction(rng.randint(1, 9), rng.randint(1, 9))
              for e in rng.sample(edges, len(edges) // 4) if e not in across}
    heavy = g.with_weights({**inside, **{
        e: Fraction(rng.randint(2, 9), rng.randint(1, 9)) for e in across}})
    assert count_fkt(heavy) == count_fkt(g.with_weights(inside))
    assert count_fkt(g.with_weights(inside)) != count_fkt(g)


def squares_across(extra=()):
    """Two 2 x 2 squares, below and above x + y = 3, joined by the edge
    (1, 1)-(1, 2), which weighs 5/3, and by the vertices and edges in
    extra."""
    lo, hi = square(), moved(square(), lambda p: (p[0] + 1, p[1] + 2))
    pts = set(lo.vertices) | set(hi.vertices)
    pts |= {p for e in extra for p in e}
    join = ((1, 1), (1, 2))
    return Graph(pts, lo.edges() + hi.edges() + [join, *extra],
                 {join: Fraction(5, 3)})


@st.composite
def regions_across_a_diagonal(draw):
    """Two holey regions, below and above the line x + y = c - 1/2, that
    split the union of random 2 x 2 blocks of a 6 x 6 box less up to two
    points.  Each side keeps its own unit edges with probability 0.95,
    and the edges across the line are kept with probability 1/2.
    Vertices of the larger class next to the line are dropped, from the
    side below until it is balanced (in about half the draws), and then
    from the side above until both together are.  A quarter of the edges
    carry random Fraction weights."""
    blocks = draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                          min_size=2))
    pts = sorted({(2 * i + x, 2 * j + y) for i, j in blocks
                  for x in (0, 1) for y in (0, 1)})
    drop = draw(st.sets(st.sampled_from(pts), max_size=2))
    c = draw(st.integers(1, 10))
    below, above = ([p for p in pts if p not in drop and (sum(p) < c) == lo]
                    for lo in (True, False))
    for side, span in ((below, [below]), (above, [below, above])):
        if side is below and draw(st.booleans()):
            continue
        while True:
            odd = sum(2 * (sum(p) % 2) - 1 for s in span for p in s)
            pool = [p for p in side if odd and sum(p) % 2 == (odd > 0)
                    and abs(2 * sum(p) + 1 - 2 * c) < 4]
            if not pool:
                break
            side.remove(draw(st.sampled_from(pool)))
    kept = set(below + above)
    edges, weights = [], {}
    for x, y in sorted(kept):
        for q in ((x + 1, y), (x, y + 1)):
            if q in kept and draw(st.integers(0, 19)) < (
                    10 if x + y == c - 1 else 19):
                edges.append(((x, y), q))
                if draw(st.integers(0, 3)) == 0:
                    weights[(x, y), q] = Fraction(draw(st.integers(1, 9)),
                                                  draw(st.integers(1, 9)))
    return Graph(kept, edges, weights)


@settings(max_examples=150, deadline=None)
@given(regions_across_a_diagonal())
# a balanced side below: the weighted join is in no perfect matching
@example(squares_across())
# an unbalanced side below (one more even vertex): the joins are needed
@example(squares_across([((1, 0), (2, 0)), ((2, 0), (2, 1)),
                         ((1, 1), (2, 1)), ((2, 1), (2, 2))]))
def test_fkt_matches_brute_across_a_diagonal(g):
    assert count_fkt(g) == count_brute(g, cap=len(g))


@st.composite
def monotone_regions(draw):
    """y-monotone regions: rows y = 0..h-1 (2 <= h <= 7), each an interval of
    at most 6 points that overlaps the row below it, with every unit edge
    between the points.  In about half the draws every row has even
    length, so that horizontal dominoes match the region."""
    length = draw(st.sampled_from([st.sampled_from([2, 4, 6]),
                                   st.integers(1, 6)]))
    pts, x0, n = [], 0, 0
    for y in range(draw(st.integers(2, 7))):
        m = draw(length)
        if y:
            x0 = draw(st.integers(x0 - m + 1, x0 + n - 1))
        pts += [(x0 + i, y) for i in range(m)]
        n = m
    kept = set(pts)
    return Graph(pts, [(p, q) for p in pts for q in (
        (p[0] + 1, p[1]), (p[0], p[1] + 1)) if q in kept])


@settings(max_examples=40, deadline=None)
@given(st.lists(monotone_regions(), min_size=2 * matchcount._BATCH_LANES,
                max_size=3 * matchcount._BATCH_LANES))
def test_fkt_matches_brute_on_monotone_regions(regions):
    # at most 42 vertices each: every matrix of the batch needs only the
    # first prime, so the lanes of the regions left with a piece share it
    # (at least _BATCH_LANES of them in most draws)
    assert count_many(regions) == [count_brute(g) for g in regions]


def test_faces_start_at_least_dart_in_order():
    # the face order is deterministic: each face is traced from the least
    # dart not yet used
    faces = planar_faces(build_augmented_aztec(GRID_B, 3, 2))
    darts = [list(zip(f, f[1:] + f[:1])) for f in faces]
    assert all(d[0] == min(d) for d in darts)
    assert [d[0] for d in darts] == sorted(d[0] for d in darts)


def test_faces_reject_non_unit_edge():
    g = Graph([(0, 0), (1, 0), (0, 1), (2, 2)],
              [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (2, 2))])
    with pytest.raises(NonPlanarEmbedding):
        planar_faces(g)
    with pytest.raises(NonPlanarEmbedding):
        count_fkt(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_oracle_equivalence_random_subgraphs(m, n, data):
    g = build_augmented_aztec(FULL_GRID, m, n)
    drop = data.draw(st.sets(st.sampled_from(sorted(g.vertices)),
                             max_size=4))
    h = g.without(drop)
    assert count_brute(h) == count_fkt(h)


def test_fkt_invariant_under_reflection():
    g = build_augmented_aztec(FULL_GRID, 3, 2)
    assert count_fkt(g) == count_fkt(moved(g, lambda p: (-p[0], p[1])))
    assert count_fkt(g) == count_fkt(moved(g, lambda p: (p[0], -p[1])))


def test_kuo_on_diamond_corners():
    g = build_aztec_rectangle(FULL_GRID, 2, 2)
    ev = [v for v in g.vertices if (v[0] + v[1]) % 2 == 0]
    od = [v for v in g.vertices if (v[0] + v[1]) % 2 == 1]
    west = min(ev, key=lambda p: (p[0], p[1]))
    east = max(ev, key=lambda p: (p[0], p[1]))
    south = min(od, key=lambda p: (p[1], p[0]))
    north = max(od, key=lambda p: (p[1], p[0]))
    res = kuo_check(g, west, south, east, north)
    assert res["equal"]


def test_kuo_rejects_bad_selection():
    g = build_aztec_rectangle(FULL_GRID, 2, 3)  # unbalanced
    vs = sorted(g.vertices)
    with pytest.raises(BadVertexSelection):
        kuo_check(g, vs[0], vs[1], vs[2], vs[3])


def test_split_whole_graph_trivial():
    g = square()
    res = split_check(g, g.vertices)
    assert res["equal"] and res["M_rest"] == 1


def test_split_unbalanced_rejected():
    g = build_aztec_rectangle(FULL_GRID, 2, 2)
    ev = [v for v in g.vertices if (v[0] + v[1]) % 2 == 0]
    with pytest.raises(ConditionsViolated):
        split_check(g, ev[:2])


def test_count_matchings_auto_cross_checks():
    g = build_aztec_rectangle(FULL_GRID, 3, 3)
    assert count_matchings(g, method="auto") == 64


def test_canonical_json_stable():
    g = square()
    h = Graph(list(reversed(g.vertices)), list(reversed(g.edges())))
    assert g.to_json() == h.to_json()
    assert g.graph_hash() == h.graph_hash()
