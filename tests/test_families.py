import pytest
from hypothesis import given, settings, strategies as st

from crossdimer.families import (
    InvalidParams, NotGridB, assign_cross_weights,
    build_A, build_F, build_TA, build_TB, build_TR, build_aztec_rectangle,
    build_augmented_aztec, derive_params, weight_point, Spec,
)
from crossdimer.lattice import FULL_GRID, GRID_B
from crossdimer.matchcount import (
    Graph, Grid, NonPlanarEmbedding, count_brute, count_fkt,
)


def moved(g, fn):
    """g with each point p at fn(p), for fn a map of Z^2 that keeps parity."""
    return Graph(map(fn, g.vertices), [(fn(u), fn(v)) for u, v in g.edges()],
                 {(fn(u), fn(v)): w for (u, v), w in g.weights.items()})


def mirror_x(p):
    return -p[0], p[1]


def mirror_y(p):
    return p[0], -p[1]


def test_derive_params_examples():
    p = derive_params(9, 8, 2)
    assert (p.d, p.e, p.f) == (3, 2, 4)
    assert p.case_tall and p.perimeter == 28
    p = derive_params(5, 8, 4)
    assert (p.d, p.e, p.f) == (3, 6, 2)
    assert not p.case_tall and p.perimeter == 28


def test_derive_params_errors():
    with pytest.raises(InvalidParams):
        derive_params(1, 1, 0)
    with pytest.raises(InvalidParams):
        derive_params(9, 2, 0)   # e < 0
    with pytest.raises(InvalidParams):
        derive_params(5, 2, 2)   # d < 0


def test_aztec_rectangle_full_grid():
    g = build_aztec_rectangle(FULL_GRID, 2, 2)
    assert len(g) == 12
    assert count_fkt(g) == 8
    assert count_fkt(build_aztec_rectangle(FULL_GRID, 2, 3)) == 0


def test_augmented_examples():
    assert count_fkt(build_augmented_aztec(FULL_GRID, 1, 1)) == 3
    assert count_fkt(build_augmented_aztec(FULL_GRID, 2, 2)) == 13
    assert count_fkt(build_augmented_aztec(FULL_GRID, 1, 2)) == 5


def test_family_example_counts():
    assert count_fkt(build_A(1, 9, 8, 2)) == 302_500_000_000
    assert count_fkt(build_F(1, 5, 8, 4)) == 48_000_000_000_000


def test_family_invalid():
    with pytest.raises(InvalidParams):
        build_A(1, 1, 1, 0)
    with pytest.raises(InvalidParams):  # a head that Spec.parse refuses
        Spec("XX", (1, 2)).graph()


def test_families_balanced():
    for (a, b, c) in ((2, 2, 0), (9, 8, 2), (5, 8, 4), (3, 4, 2)):
        for i in (1, 2, 3):
            assert build_A(i, a, b, c).is_balanced()
            assert build_F(i, a, b, c).is_balanced()


def test_tr_values():
    assert count_fkt(build_TR(1, 2)) == 100
    assert count_fkt(build_TR(2, 4)) == 12_100_000_000
    with pytest.raises(InvalidParams):
        build_TR(2, 3)


def test_builders_construct_one_graph(monkeypatch):
    # strips, trims and cuts compose point sets; the graph is built once
    made = []
    init = Graph.__init__

    def spy(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", spy)
    builds = {
        "A1": lambda: build_A(1, 9, 8, 2),
        "A3": lambda: build_A(3, 6, 6, 1),
        "F2": lambda: build_F(2, 5, 8, 4),
        "TR": lambda: build_TR(2, 4),
        "TA": lambda: build_TA(5, 7, 4, 3),
        "TB": lambda: build_TB(5, 7, 4, 3),
    }
    for name, build in builds.items():
        made.clear()
        assert len(build()) > 0
        assert len(made) == 1, name


def test_built_graphs_count_from_their_grid(monkeypatch):
    # a built Graph keeps its Grid, and counting it reads no dict: with
    # the dict builder made to raise, the counts still equal the closed
    # forms, and each build still runs Graph.__init__ once
    from crossdimer.formulas import phi_value, thm_TR

    made = []
    init = Graph.__init__

    def spy(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    def no_dict(self):
        raise AssertionError("the vertices and adj dict was built")

    monkeypatch.setattr(Graph, "__init__", spy)
    monkeypatch.setattr(Grid, "vertices_adj", no_dict)
    for build, want in ((lambda: build_TR(3, 6), thm_TR(3, 6).value()),
                        (lambda: build_TR(5, 10), thm_TR(5, 10).value()),
                        (lambda: build_A(1, 8, 8, 3), phi_value(1, 8, 8, 3))):
        made.clear()
        g = build()
        assert made == [1]
        assert count_fkt(g) == want


def test_built_graphs_read_like_eager_graphs():
    # the vertices and adj that a built Graph makes on first read are
    # those of Graph(vertices, edges), which checks every edge, on one
    # spec per head on each lattice it lies on; and the Grid that the
    # eager graph makes of its adj has the kept one's arrays
    import numpy as np

    specs = [Spec(f"{kind}{i}", (5, 8, 4), lat) for kind in "AF"
             for i in (1, 2, 3) for lat in (None, FULL_GRID)]
    specs += [Spec("TR", (2, 5)), Spec("TA", (5, 7, 4, 3)),
              Spec("TB", (5, 7, 4, 3))]
    specs += [Spec(head, (2, 3), lat) for head in ("AR", "AAR")
              for lat in (FULL_GRID, GRID_B)]
    for spec in specs:
        g = spec.graph()
        n = len(g)  # from the Grid, before any dict exists
        eager = Graph(g.vertices, g.edges())
        assert eager.grid is not g.grid
        assert n == len(g) == len(eager) == g.grid.n, str(spec)
        assert g.vertices == eager.vertices and g.adj == eager.adj
        assert sorted(g.edges()) == sorted(eager.edges())
        assert g.to_json() == eager.to_json()
        assert g.is_balanced() == eager.is_balanced()
        grid = eager.grid
        assert grid.origin == g.grid.origin
        assert np.array_equal(grid.occ, g.grid.occ)
        assert np.array_equal(grid.edges, g.grid.edges)


def test_weighted_copies_keep_the_grid():
    # cross-weighted and with_weights copies of a built Graph share its
    # Grid, as those of its eager twin share the twin's, and they count
    # alike
    from fractions import Fraction

    g = build_A(1, 4, 4, 2)
    plain = g.with_weights({})
    assert plain.grid is g.grid and plain.grid_weights is None
    eager = Graph(g.vertices, g.edges())
    for w in (weight_point(3, 5, 7), weight_point(1, 1, 1),
              weight_point(Fraction(1, 2), 3, 1)):
        got, want = assign_cross_weights(g, w), assign_cross_weights(eager, w)
        assert got.grid is g.grid and want.grid is eager.grid
        assert got.adj == g.adj and got.weights == want.weights
        assert count_fkt(got) == count_fkt(want)
    # a weight is checked against the edges of a built Graph too
    edge = g.edges()[0]
    doubled = g.with_weights({edge: 2})
    assert doubled.grid is g.grid and doubled.adj == g.adj
    assert count_fkt(doubled) == count_fkt(eager.with_weights({edge: 2}))
    with pytest.raises(ValueError, match="not an edge"):
        g.with_weights({(edge[0], (edge[0][0] + 1, edge[0][1] + 1)): 2})


def test_cross_weights_on_a_built_graph_come_from_its_grid(monkeypatch):
    # on one spec per head of the cross lattice, a cross-weighted copy of
    # the built Graph carries its Grid's (w, d), as the copy of its eager
    # twin carries the twin's: counting it builds neither the edges, nor
    # the weights dict, nor weight arrays from one, and it serialises and
    # counts as the twin's copy does
    from fractions import Fraction

    import numpy as np

    from crossdimer import matchcount

    specs = [Spec(f"{kind}{i}", (5, 8, 4)) for kind in "AF"
             for i in (1, 2, 3)]
    specs += [Spec("TR", (2, 5)), Spec("TA", (5, 7, 4, 3)),
              Spec("TB", (5, 7, 4, 3))]
    specs += [Spec(head, (2, 3), GRID_B) for head in ("AR", "AAR")]
    points = [weight_point(3, 5, 7), weight_point(Fraction(1, 2), 1, 5)]
    copies = [assign_cross_weights(spec.graph(), w)
              for spec in specs for w in points]

    def refuse(*args):
        raise AssertionError("the count read a weights dict or the edges")

    with monkeypatch.context() as m:
        for owner, name in ((matchcount, "_edge_weights"),
                            (matchcount, "_weight_dict"), (Graph, "edges"),
                            (Grid, "vertices_adj")):
            m.setattr(owner, name, refuse)
        counts = [count_fkt(g) for g in copies]
    for j, (g, n) in enumerate(zip(copies, counts)):
        spec, w = specs[j // len(points)], points[j % len(points)]
        eager = assign_cross_weights(Graph(g.vertices, g.edges()), w)
        assert g.grid_weights is not None and eager.grid_weights is not None
        assert all(np.array_equal(a, b) for a, b in zip(g.grid_weights,
                                                         eager.grid_weights))
        assert g.to_json() == eager.to_json(), str(spec)
        assert g.graph_hash() == eager.graph_hash()
        assert g.weights == eager.weights
        assert n == count_fkt(eager)


def test_a_batch_of_rectangles_spans_no_family_rows(monkeypatch):
    # with no A or F spec in a batch, family_geometry returns at once and
    # grids spans only the rectangles' rows
    from crossdimer import families

    calls = []
    row_spans = families.row_spans

    def spy(corners2):
        calls.append(len(corners2))
        return row_spans(corners2)

    monkeypatch.setattr(families, "row_spans", spy)
    grid = next(families.grids([Spec("TR", (2, 4))]))
    assert calls == [1]
    assert grid.n == len(build_TR(2, 4))
    corners, cleared = families.family_geometry([])
    assert corners.shape == (0, 7, 2) and cleared.shape == (0, 3)


def test_point_sets_count_like_their_graphs():
    # counting straight from point sets, in one batch, gives the count of
    # each built graph alone, on the reduced benchmark domains
    from crossdimer.harness import (
        HypothesisViolated, check_trim_domain, trim_rect_domain,
        valid_triples,
    )
    from crossdimer.families import grids
    from crossdimer.matchcount import count_many

    specs = [(kind, (i, a, b, c))
             for (a, b, c) in valid_triples(range(2, 7), 16)
             for i in (1, 2, 3) for kind in ("A", "F")]
    for (m, n, h1, h2) in trim_rect_domain():
        for variant in ("TA", "TB"):
            try:
                check_trim_domain(variant, m, n, h1, h2)
            except HypothesisViolated:
                continue
            specs.append((variant, (m, n, h1, h2)))
    specs += [("TR", (a, 2 * a)) for a in (1, 2, 3)]
    def spec(kind, args):
        if kind in ("A", "F"):
            return Spec(f"{kind}{args[0]}", args[1:])
        return Spec(kind, args)

    builds = {"A": build_A, "F": build_F, "TA": build_TA, "TB": build_TB,
              "TR": build_TR}
    got = count_many(grids(spec(kind, args) for kind, args in specs))
    assert len(got) == 216 + 152 + 3
    assert got == [count_fkt(builds[kind](*args)) for kind, args in specs]


def test_tr_b_independence():
    assert count_fkt(build_TR(1, 2)) == count_fkt(build_TR(1, 3)) \
        == count_fkt(build_TR(1, 4)) == 100


def test_trim_rect_params_constraint():
    # the floor-sum rule of theorem 1.3, checked before anything is built
    from crossdimer.formulas import HypothesisViolated

    for build in (build_TA, build_TB):
        with pytest.raises(HypothesisViolated, match=r"\(5, 7, 1, 1\)"):
            build(5, 7, 1, 1)
        assert len(build(5, 7, 4, 3)) > 0


def test_ta_tb_counts():
    assert count_fkt(build_TA(5, 7, 4, 3)) == 1_125_000_000
    assert count_fkt(build_TB(5, 7, 4, 3)) == 72_000_000


def test_vertical_reflection_count_identities():
    # mirroring preserves counts, and the mirrored family count equals the
    # partner family's count at (f, e, d)
    for (a, b, c) in ((1, 2, 1), (5, 8, 4), (0, 2, 1)):
        p = derive_params(a, b, c)
        if p.case_tall:
            continue
        for i in (1, 2, 3):
            left = moved(build_A(i, a, b, c), mirror_x)
            right = build_F(4 - i, p.f, p.e, p.d)
            assert count_fkt(left) == count_fkt(right), (i, a, b, c)
            assert left.is_balanced() == right.is_balanced()


def test_horizontal_reflection_count_identities():
    for (a, b, c) in ((3, 2, 0), (9, 8, 2)):
        p = derive_params(a, b, c)
        assert p.case_tall
        for i, j in ((1, 1), (2, 3), (3, 2)):
            left = moved(build_A(i, a, b, c), mirror_y)
            right = build_A(j, b, a, p.f)
            assert count_fkt(left) == count_fkt(right), (i, a, b, c)


def test_double_reflection_is_translation():
    # a mirror, shifted by a period of the cross lattice and mirrored back,
    # has g's arrays at another origin
    g = build_A(1, 2, 2, 0).grid
    for fn in (mirror_x, mirror_y):
        h = moved(moved(moved(Graph(g), fn),
                        lambda p: (p[0] + 4, p[1] + 4)), fn).grid
        assert (g.occ == h.occ).all() and (g.edges == h.edges).all()
        assert h.origin != g.origin


def test_weight_point_is_a_tuple_of_positive_fractions():
    from fractions import Fraction

    w = weight_point(3, "1/2", Fraction(5, 7))
    assert w == (3, Fraction(1, 2), Fraction(5, 7))
    assert type(w) is tuple and {type(t) for t in w} == {Fraction}
    for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (1, -2, 1)):
        with pytest.raises(InvalidParams, match="positive"):
            weight_point(*bad)


def test_weights_unit_point_matches_unweighted():
    g = build_A(1, 2, 2, 0)
    gw = assign_cross_weights(g, weight_point(1, 1, 1))
    assert count_brute(gw) == count_brute(g) == 5


def test_weights_periodic():
    g = build_F(1, 2, 2, 0)
    w = weight_point(3, 5, 7)
    shifted = moved(g, lambda p: (p[0] + 4, p[1]))
    a = assign_cross_weights(g, w)
    b = assign_cross_weights(shifted, w)
    assert count_brute(a) == count_brute(b)


def test_weights_reject_full_grid():
    g = build_aztec_rectangle(FULL_GRID, 2, 2)
    with pytest.raises(NotGridB):
        assign_cross_weights(g, weight_point(1, 1, 1))


def test_cross_weights_on_a_hand_made_graph_never_walk_its_edges(
        monkeypatch):
    # a hand-made graph is cross-weighted from the Grid it made of its adj,
    # as a built one is from the Grid it keeps, and its copies share it
    from fractions import Fraction

    from crossdimer.families import cross_weightings

    g = build_A(1, 4, 4, 2)
    twin = Graph(g.vertices, g.edges())
    points = [weight_point(3, 5, 7), weight_point(Fraction(1, 2), 3, 1)]
    want = cross_weightings(g, points)

    def refuse(*args):
        raise AssertionError("cross_weightings walked the edges")

    with monkeypatch.context() as m:
        m.setattr(Graph, "edges", refuse)
        got = cross_weightings(twin, points)
    for copy, built in zip(got, want):
        assert copy.grid is twin.grid and copy.grid_weights is not None
        assert copy.adj == twin.adj and copy.weights == built.weights
        assert count_fkt(copy) == count_fkt(built)


def test_cross_weights_on_a_hand_made_graph_build_its_grid_once(
        monkeypatch):
    # a hand-made graph makes its Grid once, when it is made: neither
    # cross_weightings nor the counts of its copies make another
    from crossdimer.families import cross_weightings
    from crossdimer.matchcount import count_many

    g = build_A(1, 9, 8, 2)
    points = [weight_point(3, 5, 7), weight_point(5, 7, 3),
              weight_point(7, 3, 5), weight_point(3, 5, 11)]
    built = []
    of_adj = Grid.of_adj.__func__

    def spy(cls, adj):
        built.append(len(adj))
        return of_adj(cls, adj)

    monkeypatch.setattr(Grid, "of_adj", classmethod(spy))
    twin = Graph(g.vertices, g.edges())
    assert built == [len(g)]
    got = cross_weightings(twin, points)
    want = cross_weightings(g, points)
    assert count_many(got) == count_many(want)
    assert built == [len(g)]
    for copy, other in zip(got, want):
        assert copy.weights == other.weights


def test_cross_weights_reject_an_edge_that_is_not_a_unit_step():
    # such a graph is refused when it is made, before it can be weighted
    with pytest.raises(NonPlanarEmbedding,
                       match=r"\(0, 0\)-\(0, 3\) is not a unit"):
        Graph([(0, 0), (1, 0), (0, 3)], [((0, 0), (1, 0)), ((0, 0), (0, 3))])


def test_spec_names_each_family_once():
    from crossdimer.formulas import HypothesisViolated, phi, thm_TA

    for text in ("A1:9,8,2", "F3:5,8,4", "TR:2,4", "TA:5,7,4,3",
                 "AR:2,2@full", "AR:1,1@b", "AAR:3,3@full"):
        assert str(Spec.parse(text)) == text
    assert str(Spec.parse(" aar:3,3@cross ")) == "AAR:3,3@b"
    # a rotated rectangle defaults to the full grid, a family to grid B
    assert Spec.parse("AR:2,2") == Spec("AR", (2, 2))
    assert Spec.parse("AR:2,2").lat == FULL_GRID
    assert Spec.parse("A1:9,8,2").graph().to_json() \
        == build_A(1, 9, 8, 2).to_json()
    assert Spec.parse("AAR:2,2@b").graph().to_json() \
        == build_augmented_aztec(GRID_B, 2, 2).to_json()
    assert Spec.parse("A1:9,8,2").closed_form() == phi(1, 9, 8, 2)
    assert Spec.parse("TA:5,7,4,3").closed_form() == thm_TA(5, 7, 4, 3)
    for text, exc in (("AR:2,2@full", InvalidParams),
                      ("A1:9,1,0", InvalidParams),
                      ("TB:1,1,0,0", HypothesisViolated)):
        with pytest.raises(exc):
            Spec.parse(text).closed_form()
    for text in ("TR:1,2@full", "A1:2,2,0@", "AR:1,1@hex"):
        with pytest.raises(InvalidParams):
            Spec.parse(text)


def test_parse_spec_round_trip():
    for text, want in (("TR:1,2", 100), ("AR:2,2@full", 8),
                       ("AAR:2,2@full", 13), ("A1:9,8,2", 302_500_000_000),
                       ("TA:5,7,4,3", 1_125_000_000)):
        assert count_fkt(Spec.parse(text).graph()) == want
    for text in ("XX:1,2", "A1:1"):
        with pytest.raises(InvalidParams):
            Spec.parse(text)


def _batch_specs():
    """A/F specs with triples of perimeter <= 24 on both lattices, mixed
    with TR, TA, TB, AR and AAR specs."""
    from crossdimer.families import FAMILY_HEADS, Spec
    from crossdimer.harness import trim_rect_domain, valid_triples

    family = st.builds(Spec, st.sampled_from(FAMILY_HEADS),
                       st.sampled_from(valid_triples(range(2, 9), 24)),
                       st.sampled_from([None, FULL_GRID]))
    tr = st.builds(lambda a, k: Spec("TR", (a, 2 * a + k)),
                   st.integers(1, 3), st.integers(0, 2))
    trim = st.builds(Spec, st.sampled_from(["TA", "TB"]),
                     st.sampled_from(trim_rect_domain()))
    rect = st.builds(lambda head, m, n, lat: Spec(head, (m, n), lat),
                     st.sampled_from(["AR", "AAR"]), st.integers(1, 5),
                     st.integers(1, 5), st.sampled_from([None, GRID_B]))
    return st.lists(st.one_of(family, family, tr, trim, rect),
                    min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(_batch_specs())
def test_grids_batch_equals_each_spec_built_alone(specs):
    # one stacked array for the batch gives each graph's Grid exactly as a
    # batch of one and as the Grid of its Graph give it, with the edges of
    # its lattice, and counts that match the closed forms where theorems
    # 2.1, 1.1 and 1.3 give them
    import numpy as np

    from crossdimer.families import check_trim_domain, grids
    from crossdimer.formulas import HypothesisViolated
    from crossdimer.matchcount import Grid, count_many

    batch = list(grids(specs))
    assert len(batch) == len(specs)
    for spec, grid in zip(specs, batch):
        for other in (next(grids([spec])), spec.graph().grid):
            assert grid.origin == other.origin
            assert np.array_equal(grid.occ, other.occ)
            assert np.array_equal(grid.edges, other.edges)
        # the edges are those that the lattice has between the points
        g = Graph(grid)
        assert {tuple(sorted(e)) for e in g.edges()} == {
            (p, q) for p in g.vertices for q in ((p[0] + 1, p[1]),
                                                 (p[0], p[1] + 1))
            if q in g.adj and spec.lat.edge_exists(p, q)}
    for spec, got in zip(specs, count_many(batch)):
        if spec.lat is FULL_GRID or spec.head in ("AR", "AAR"):
            continue
        try:
            if spec.head in ("TA", "TB"):
                check_trim_domain(spec.head, *spec.nums)
        except HypothesisViolated:
            continue
        assert got == spec.closed_form().value(), str(spec)


def test_cross_weighted_grids_use_the_smallest_signed_dtype():
    # scaled weights of 7, 200 and 2^70 need int8, int16 and Python ints,
    # and the counts equal those of the weighted graphs
    import numpy as np

    from crossdimer.families import cross_weighted_grids, grids
    from crossdimer.matchcount import count_many

    spec = Spec("A1", (4, 4, 2))
    points = [weight_point(3, 5, 7), weight_point(200, 5, 7),
              weight_point(2 ** 70, 3, 5)]
    copies = list(cross_weighted_grids(grids([spec]), points))
    assert [w.dtype for _, (w, _) in copies] == [np.int8, np.int16, object]
    g = spec.graph()
    assert count_many(copies) == [count_fkt(assign_cross_weights(g, w))
                                  for w in points]


def test_build_bounds_hold_the_graphs():
    # the bounds that grids checks against BUILD_CAP before it builds:
    # every rectangle graph within its rectangle's box (2m + 1)(2n + 1),
    # and every family region within its corners' box.  AR:1,3000@full
    # spans 18003 points by its rectangle's box, but 3001^2 > BUILD_CAP
    # by its corners' box, and must build
    import numpy as np

    from crossdimer.families import _rectangle, family_geometry, grids
    from crossdimer.harness import trim_rect_domain, valid_triples

    specs = [Spec("TR", (a, 2 * a + k)) for a in range(1, 5)
             for k in range(3)]
    specs += [Spec(head, t) for t in trim_rect_domain()
              for head in ("TA", "TB")]
    specs += [Spec(head, (m, n), lat) for m in range(1, 6)
              for n in range(1, 6) for head in ("AR", "AAR")
              for lat in (FULL_GRID, GRID_B)]
    specs.append(Spec("AR", (1, 3000), FULL_GRID))
    for spec, grid in zip(specs, grids(specs)):
        m, n = _rectangle(spec)[:2]
        assert grid.n <= (2 * m + 1) * (2 * n + 1), str(spec)
    assert (2 * m + 1) * (2 * n + 1) == 18003
    fam = [Spec(f"{kind}{i}", t) for t in valid_triples(range(2, 8), 28)
           for i in (1, 2, 3) for kind in ("A", "F")]
    corners, _ = family_geometry(fam)
    box = ((corners.max(1) - corners.min(1)) // 2).prod(1)
    assert np.all([grid.n for grid in grids(fam)] <= box)


def reference_rectangle(spec):
    """The points of a TR, TA, TB, AR or AAR graph, point by point: the
    rotated rectangle's points by (u, v) = (x + y, x - y), with their west
    neighbours for TR and AAR, cut by lattice.corner_cut."""
    from crossdimer.families import ALIGN_UV
    from crossdimer.lattice import corner_cut

    head, nums = spec.head, spec.nums
    if head == "TR":
        a, b = nums
        m, n = 2 * b + 2 * a - 2, 2 * b + 4 * a - 2
        u0, v0 = ALIGN_UV["east"]
    elif head in ("TA", "TB"):
        tb = head == "TB"
        m, n = 2 * nums[0] - tb, 2 * nums[1] - tb
        u0, v0 = ALIGN_UV["west" if tb else "east"]
    else:
        m, n = nums
        u0, v0 = ALIGN_UV["east"] if spec.lat.kind == "cross" else (0, 1)
    pts = {((u + v) // 2, (u - v) // 2) for u in range(u0 - 2 * n, u0 + 1)
           for v in range(v0 - 2 * m, v0 + 1) if (u + v) % 2 == 0}
    if head in ("TR", "AAR"):
        pts |= {(x - 1, y) for x, y in pts}
    # the rows just below the north corner and just above the south one
    north, south = (u0 - v0 + 2 * m - 1) // 2, (u0 - v0 - 2 * n + 1) // 2
    if head == "TR":
        east = u0 - v0  # the east corner's doubled y
        pts = corner_cut(pts, (east - 1) // 2 + 2 * a, "below", delta=3)
        return corner_cut(pts, (east + 1) // 2 - 4 * a, "above", delta=3)
    if head in ("TA", "TB"):
        pts = corner_cut(pts, north - nums[2], "below", anchor_offset=3)
        return corner_cut(pts, south + nums[3], "above", anchor_offset=3)
    return pts


def test_rectangle_geometry_matches_the_point_sets():
    # every rectangle graph that grids builds from rows has the points of
    # its rectangle cut point by point, rows cut twice (TA:1,3,1,6) and
    # empty graphs (TB:1,2,0,4) included
    import numpy as np

    from crossdimer.families import grids
    from crossdimer.harness import trim_rect_domain

    specs = [Spec("TR", (a, 2 * a + k)) for a in range(1, 4)
             for k in range(4)]
    specs += [Spec(head, t) for t in trim_rect_domain()
              for head in ("TA", "TB")]
    specs += [Spec(head, (m, n), lat) for m in range(1, 5)
              for n in range(1, 5) for head in ("AR", "AAR")
              for lat in (FULL_GRID, GRID_B)]
    assert {"TA:1,3,1,6", "TB:1,2,0,4"} <= set(map(str, specs))
    for spec, grid in zip(specs, grids(specs)):
        x, y = np.nonzero(grid.occ)
        got = set(zip((x + grid.origin[0]).tolist(),
                      (y + grid.origin[1]).tolist()))
        assert got == reference_rectangle(spec), str(spec)
