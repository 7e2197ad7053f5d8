import pytest

from crossdimer.families import (
    InvalidParams, NotGridB, TrimRectParams, assign_cross_weights,
    build_A, build_F, build_TA, build_TB, build_TR, build_aztec_rectangle,
    build_augmented_aztec, derive_params, isomorphic_by_translation,
    parse_spec, reflect, translate, weight_point,
)
from crossdimer.lattice import FULL_GRID, GRID_B
from crossdimer.matchcount import Graph, count_brute, count_fkt


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
    from crossdimer.families import family_points, tr_points, trim_rect_points
    from crossdimer.lattice import grid_on_points
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
    points = {"A": lambda *t: family_points("A", *t),
              "F": lambda *t: family_points("F", *t),
              "TA": trim_rect_points, "TB": trim_rect_points, "TR": tr_points}
    builds = {"A": build_A, "F": build_F, "TA": build_TA, "TB": build_TB,
              "TR": build_TR}
    got = count_many(grid_on_points(GRID_B, points[kind](*args))
                     for kind, args in specs)
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
            left = reflect(build_A(i, a, b, c), "vertical")
            right = build_F(4 - i, p.f, p.e, p.d)
            assert count_fkt(left) == count_fkt(right), (i, a, b, c)
            assert left.is_balanced() == right.is_balanced()


def test_horizontal_reflection_count_identities():
    for (a, b, c) in ((3, 2, 0), (9, 8, 2)):
        p = derive_params(a, b, c)
        assert p.case_tall
        for i, j in ((1, 1), (2, 3), (3, 2)):
            left = reflect(build_A(i, a, b, c), "horizontal")
            right = build_A(j, b, a, p.f)
            assert count_fkt(left) == count_fkt(right), (i, a, b, c)


def test_double_reflection_is_translation():
    g = build_A(1, 2, 2, 0)
    gg = reflect(reflect(g, "vertical"), "vertical")
    assert isomorphic_by_translation(g, gg)
    hh = reflect(reflect(g, "horizontal"), "horizontal")
    assert isomorphic_by_translation(g, hh)


def test_weights_unit_point_matches_unweighted():
    g = build_A(1, 2, 2, 0)
    gw = assign_cross_weights(g, weight_point(1, 1, 1))
    assert count_brute(gw) == count_brute(g) == 5


def test_weights_periodic():
    g = build_F(1, 2, 2, 0)
    w = weight_point(3, 5, 7)
    shifted = translate(g, 4, 0)
    a = assign_cross_weights(g, w)
    b = assign_cross_weights(shifted, w)
    assert count_brute(a) == count_brute(b)


def test_weights_reject_full_grid():
    g = build_aztec_rectangle(FULL_GRID, 2, 2)
    with pytest.raises(NotGridB):
        assign_cross_weights(g, weight_point(1, 1, 1))


def test_spec_names_each_family_once():
    from crossdimer.families import Spec
    from crossdimer.formulas import HypothesisViolated, phi, thm_TA

    for text in ("A1:9,8,2", "F3:5,8,4", "TR:2,4", "TA:5,7,4,3",
                 "AR:2,2@full", "AR:1,1@b", "AAR:3,3@full"):
        assert str(Spec.parse(text)) == text
    assert str(Spec.parse(" aar:3,3@cross ")) == "AAR:3,3@b"
    # a rotated rectangle defaults to the full grid, a family to grid B
    assert Spec.parse("AR:2,2") == Spec("AR", (2, 2))
    assert Spec.parse("AR:2,2").points()[0] == FULL_GRID
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
    assert count_fkt(parse_spec("TR:1,2")) == 100
    assert count_fkt(parse_spec("AR:2,2@full")) == 8
    assert count_fkt(parse_spec("AAR:2,2@full")) == 13
    assert count_fkt(parse_spec("A1:9,8,2")) == 302_500_000_000
    assert count_fkt(parse_spec("TA:5,7,4,3")) == 1_125_000_000
    with pytest.raises(InvalidParams):
        parse_spec("XX:1,2")
    with pytest.raises(InvalidParams):
        parse_spec("A1:1")
