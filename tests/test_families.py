import pytest
from hypothesis import given, settings, strategies as st

from crossdimer.families import (
    InvalidParams, NotGridB, TrimRectParams, assign_cross_weights,
    build_A, build_F, build_TA, build_TB, build_TR, build_aztec_rectangle,
    build_augmented_aztec, derive_params, weight_point, Spec,
)
from crossdimer.lattice import FULL_GRID, GRID_B
from crossdimer.matchcount import Graph, Grid, count_brute, count_fkt


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
        "TA": lambda: build_TA(TrimRectParams(5, 7, 4, 3, variant="TA")),
        "TB": lambda: build_TB(TrimRectParams(5, 7, 4, 3, variant="TB")),
    }
    for name, build in builds.items():
        made.clear()
        assert len(build()) > 0
        assert len(made) == 1, name


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
            specs.append((variant, (TrimRectParams(m, n, h1, h2, variant),)))
    specs += [("TR", (a, 2 * a)) for a in (1, 2, 3)]
    def spec(kind, args):
        if kind in ("A", "F"):
            return Spec(f"{kind}{args[0]}", args[1:])
        if kind == "TR":
            return Spec("TR", args)
        p, = args
        return Spec(kind, (p.m, p.n, p.h1, p.h2))

    builds = {"A": build_A, "F": build_F, "TA": build_TA, "TB": build_TB,
              "TR": build_TR}
    got = count_many(grids(spec(kind, args) for kind, args in specs))
    assert len(got) == 216 + 152 + 3
    assert got == [count_fkt(builds[kind](*args)) for kind, args in specs]


def test_tr_b_independence():
    assert count_fkt(build_TR(1, 2)) == count_fkt(build_TR(1, 3)) \
        == count_fkt(build_TR(1, 4)) == 100


def test_trim_rect_params_constraint():
    with pytest.raises(InvalidParams):
        TrimRectParams(5, 7, 1, 1, variant="TA")
    TrimRectParams(5, 7, 4, 3, variant="TA")


def test_ta_tb_counts():
    assert count_fkt(build_TA(TrimRectParams(5, 7, 4, 3, variant="TA"))) \
        == 1_125_000_000
    assert count_fkt(build_TB(TrimRectParams(5, 7, 4, 3, variant="TB"))) \
        == 72_000_000


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
    g = Grid.of_graph(build_A(1, 2, 2, 0))
    for fn in (mirror_x, mirror_y):
        h = Grid.of_graph(moved(moved(moved(g.graph(), fn),
                                      lambda p: (p[0] + 4, p[1] + 4)), fn))
        assert (g.occ == h.occ).all() and (g.edges == h.edges).all()
        assert h.origin != g.origin


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
        for other in (next(grids([spec])), Grid.of_graph(spec.graph())):
            assert grid.origin == other.origin
            assert np.array_equal(grid.occ, other.occ)
            assert np.array_equal(grid.edges, other.edges)
        # the edges are those that the lattice has between the points
        g = grid.graph()
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
    # every point set within its rectangle's bound, and every family
    # region within its corners' box
    import numpy as np

    from crossdimer.families import family_geometry, grids
    from crossdimer.harness import trim_rect_domain, valid_triples

    specs = [Spec("TR", (a, 2 * a + k)) for a in range(1, 5)
             for k in range(3)]
    specs += [Spec(head, t) for t in trim_rect_domain()
              for head in ("TA", "TB")]
    specs += [Spec(head, (m, n), lat) for m in range(1, 6)
              for n in range(1, 6) for head in ("AR", "AAR")
              for lat in (FULL_GRID, GRID_B)]
    for spec in specs:
        assert len(set(spec._point_set())) <= spec._box_size(), str(spec)
    fam = [Spec(f"{kind}{i}", t) for t in valid_triples(range(2, 8), 28)
           for i in (1, 2, 3) for kind in ("A", "F")]
    corners, _ = family_geometry(fam)
    box = ((corners.max(1) - corners.min(1)) // 2).prod(1)
    assert np.all([grid.n for grid in grids(fam)] <= box)
