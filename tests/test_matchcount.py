import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from crossdimer.families import build_aztec_rectangle, build_augmented_aztec
from crossdimer.lattice import FULL_GRID
from crossdimer import matchcount
from crossdimer.matchcount import (
    Graph, BadVertexSelection, ConditionsViolated, InexactArithmetic,
    NonPlanarEmbedding, TooLarge,
    count_brute, count_fkt, count_matchings, det_exact, edge_key,
    face_area2, kuo_check, pfaffian_orientation, planar_faces,
    reduce_forced, split_check,
)


def path(n):
    return Graph([(i, 0) for i in range(n)],
                 [((i, 0), (i + 1, 0)) for i in range(n - 1)])


def square():
    return Graph([(0, 0), (1, 0), (0, 1), (1, 1)],
                 [((0, 0), (1, 0)), ((0, 0), (0, 1)),
                  ((1, 0), (1, 1)), ((0, 1), (1, 1))])


def test_graph_rejects_same_parity_edge():
    with pytest.raises(ValueError):
        Graph([(0, 0), (1, 1)], [((0, 0), (1, 1))])


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


def test_orientation_square_is_odd():
    g = square()
    orient = pfaffian_orientation(g)
    faces = [f for f in planar_faces(g) if face_area2(f) > 0]
    assert len(faces) == 1
    cyc = faces[0]
    clockwise = 0
    for i in range(len(cyc)):
        u, v = cyc[i], cyc[(i + 1) % len(cyc)]
        if orient[edge_key(u, v)] == (v, u):
            clockwise += 1
    assert clockwise % 2 == 1


def test_orientation_forest():
    g = path(4)
    assert pfaffian_orientation(g)  # any orientation valid, must not raise


def test_orientation_determinant_is_count_squared():
    g = build_aztec_rectangle(FULL_GRID, 2, 2)
    orient = pfaffian_orientation(g)
    idx = {v: i for i, v in enumerate(g.vertices)}
    n = len(g)
    skew = [[0] * n for _ in range(n)]
    for e, (tail, head) in orient.items():
        skew[idx[tail]][idx[head]] = 1
        skew[idx[head]][idx[tail]] = -1
    assert det_exact(skew) == 64  # = M(AD_2)^2


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


def test_det_exact_small():
    assert det_exact([[2, 1], [1, 2]]) == 3
    assert det_exact([[0, 0], [0, 0]]) == 0
    assert det_exact([]) == 1


def test_det_exact_rejects_residues_beyond_bound(monkeypatch):
    # a residue of (p - 1) / 2 = -1/2 mod every prime reconstructs to a
    # value far outside the Hadamard bound
    monkeypatch.setattr(matchcount, "_det_mod", lambda mat, p: p // 2)
    with pytest.raises(InexactArithmetic):
        det_exact([[2, 1], [1, 2]])


def test_faces_reject_non_unit_edge():
    g = Graph([(0, 0), (1, 0), (0, 1), (2, 2)],
              [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((1, 0), (2, 2))])
    with pytest.raises(NonPlanarEmbedding):
        planar_faces(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_oracle_equivalence_random_subgraphs(m, n, data):
    g = build_augmented_aztec(FULL_GRID, m, n)
    drop = data.draw(st.sets(st.sampled_from(sorted(g.vertices)),
                             max_size=4))
    h = g.without(drop)
    assert count_brute(h) == count_fkt(h)


def test_fkt_invariant_under_reflection():
    from crossdimer.families import reflect
    g = build_augmented_aztec(FULL_GRID, 3, 2)
    assert count_fkt(g) == count_fkt(reflect(g, "vertical"))
    assert count_fkt(g) == count_fkt(reflect(g, "horizontal"))


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
