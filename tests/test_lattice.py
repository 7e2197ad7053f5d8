import pytest
from hypothesis import given, settings, strategies as st

from crossdimer.families import (
    FAMILY_HEADS, SIDE_NAMES, _STRIP_RULES, _TRIM_RULES, Spec,
    derive_params, family_contour, family_geometry,
)
from crossdimer.harness import valid_triples
from crossdimer.lattice import (
    CROSS_EDGES, CROSS_OFFSETS, FULL_GRID, GRID_B, ContourSpec, NonClosing,
    SelfIntersecting, induced_subgraph, row_spans, slit_base, trace_contour,
    zigzag_trim_row,
)


def region_points(corners2):
    """The lattice points inside or on a closed polyline, by its rows."""
    return [(x, y) for _, y, lo, hi in row_spans([corners2]).tolist()
            for x in range(lo, hi + 1)]


def cleared_points(spec):
    """The points that family_geometry clears from spec's region."""
    _, cleared = family_geometry([spec])
    return {(x, y) for _, x, y in cleared.tolist()}


def test_full_grid_edges():
    assert FULL_GRID.edge_exists((0, 0), (1, 0))
    assert not FULL_GRID.edge_exists((0, 0), (1, 1))
    assert not FULL_GRID.edge_exists((0, 0), (2, 0))


def test_cross_table_shape():
    # one sliced-open arm: 14 of the 16 in-diamond edges
    assert len(CROSS_EDGES) == 14
    assert ((0, 0), (1, 0)) in CROSS_EDGES
    assert ((1, 0), (1, 1)) not in CROSS_EDGES
    assert ((2, 0), (2, 1)) not in CROSS_EDGES


def test_grid_b_missing_slits():
    # the two vertical edges east of each cross base are absent
    assert not GRID_B.edge_exists((1, 0), (1, 1))
    assert not GRID_B.edge_exists((2, 0), (2, 1))
    assert GRID_B.edge_exists((0, 0), (0, 1))
    assert GRID_B.edge_exists((3, 0), (3, 1))
    assert GRID_B.edge_exists((0, 0), (1, 0))
    # every lattice point is a vertex of the cross lattice
    assert all(GRID_B.has_vertex((x, y)) for x in range(-3, 4)
               for y in range(-3, 4))


def test_grid_b_residue_rule():
    # each cross edge is its own class mod the period lattice, and the
    # only absent unit edges are the two slits per period
    assert len(CROSS_OFFSETS) == len(CROSS_EDGES)
    for x in range(-12, 12):
        for y in range(-12, 12):
            assert GRID_B.edge_exists((x, y), (x + 1, y))
            slit = y % 2 == 0 and (x - slit_base(y)) % 4 in (0, 1)
            assert GRID_B.edge_exists((x, y), (x, y + 1)) == (not slit)
            assert (GRID_B.edge_offset((x, y), (x, y + 1)) is None) == slit


@settings(max_examples=100, deadline=None)
@given(st.integers(-20, 20), st.integers(-20, 20),
       st.sampled_from([(1, 0), (0, 1)]),
       st.integers(-10, 10), st.integers(-10, 10))
def test_grid_b_symmetric_and_periodic(x, y, d, i, j):
    p, q = (x, y), (x + d[0], y + d[1])
    tx = 4 * i + 2 * j
    ty = 2 * j
    assert GRID_B.edge_exists(p, q) == GRID_B.edge_exists(q, p)
    assert GRID_B.edge_exists(p, q) == GRID_B.edge_exists(
        (p[0] + tx, p[1] + ty), (q[0] + tx, q[1] + ty))


def test_trace_contour_closes_tall_case():
    corners = trace_contour(family_contour(1, 9, 8, 2))
    assert corners[0] == corners[-1] == (1, 1)
    assert len(corners) == 7


def test_trace_contour_closes_flat_case():
    corners = trace_contour(family_contour(1, 5, 8, 4))
    assert corners[0] == corners[-1]


def test_trace_contour_degenerate():
    with pytest.raises(SelfIntersecting):
        trace_contour(ContourSpec("z", (0, 0), (("E", 0), ("W", 0))))


def test_trace_contour_nonclosing():
    with pytest.raises(NonClosing):
        trace_contour(ContourSpec("z", (0, 0), (("E", 4), ("NE", 2))))


def test_induced_diamond_order1():
    # 45-degree square of side 1 around one unit square: the 4-cycle
    spec = ContourSpec("ar", (0, 0),
                       (("SE", 1), ("NE", 1), ("NW", 1), ("SW", 1)))
    with pytest.raises(SelfIntersecting):
        trace_contour(spec)  # odd diagonal sides are not contour-legal


def test_induced_subgraph_counts():
    # diamond of radius 2 on the full grid: the order-1 rotated square
    spec = ContourSpec("d", (0, 0),
                       (("SE", 2), ("NE", 2), ("NW", 2), ("SW", 2)))
    corners = trace_contour(spec)
    g = induced_subgraph(FULL_GRID, corners)
    # all lattice points within L1 distance 2 of (0.5, 0.5)
    assert len(g) == 12
    for u, v in g.edges():
        assert (u[0] + u[1] + v[0] + v[1]) % 2 == 1


def test_empty_region_graph():
    g = induced_subgraph(FULL_GRID, [(100, 101), (100, 101)])
    assert len(g) == 0


def test_stripped_side_points_lie_at_odd_steps():
    # A1 strips its SE side a, from (1, 1) to (9, -7) in doubled
    # coordinates at a = 2: the points half-way along its odd steps
    corners, _ = family_geometry([Spec("A1", (2, 2, 0))])
    assert corners[0, :2].tolist() == [[1, 1], [9, -7]]
    side_a = {(x, y) for x, y in cleared_points(Spec("A1", (2, 2, 0)))
              if x + y == 1}
    assert side_a == {(1, 0), (2, -1), (3, -2), (4, -3)}
    # F1 strips no side, so it clears only the points of its two trims,
    # each on a row next to a horizontal side
    rows = {y for _, y in cleared_points(Spec("F1", (2, 2, 0)))}
    assert rows <= {(y + d) // 2 for _, y in corners[0].tolist()
                    for d in (-1, 1)}


def test_zigzag_trim_idempotent():
    # F1 strips no side and trims its horizontal side c at phase 3: one
    # row, at the fixed columns x = slit_base(y) + 3 (mod 4), so trimming
    # twice is trimming once
    spec = Spec("F1", (3, 4, 2))
    corners, _ = family_geometry([spec])
    pts = set(region_points(corners[0].tolist()))
    y2 = corners[0, 2, 1]
    drop = {(x, y) for x, y in cleared_points(spec) if abs(2 * y - y2) == 1}
    assert drop and drop <= pts
    (row,) = {y for _, y in drop}
    assert {x % 4 for x, _ in drop} == {(slit_base(row) + 3) % 4}
    t1 = pts - drop
    assert t1 - drop == t1


def test_zigzag_no_room_is_noop():
    # a span shorter than one period contains at most one pattern column
    drop = zigzag_trim_row(0, 1, 2, 2)
    assert len(drop) <= 1


def test_region_points_boundary_inclusive():
    corners = trace_contour(family_contour(1, 2, 2, 0))
    pts = set(region_points(corners))
    assert (1, 0) in pts            # on the first diagonal side
    assert len(pts) == 40


def test_region_points_rejects_non_monotone_contour():
    # a U shape: rows across its arms cross the contour four times
    u_shape = ContourSpec("u", (0, 0), (
        ("E", 12), ("N", 8), ("W", 4), ("S", 4),
        ("W", 4), ("N", 4), ("W", 4), ("S", 8)))
    with pytest.raises(ValueError):
        row_spans([trace_contour(u_shape)])


def reference_cleared(spec, corners2):
    """The points that the strip and trim rules clear, point by point:
    the lattice points on each stripped side, and the zigzag of each
    trimmed side's row inside the contour."""
    (kind, i), p = spec.head, derive_params(*spec.nums)
    out = set()
    for side in _STRIP_RULES[(kind, int(i))][p.case_tall]:
        j = SIDE_NAMES.index(side)
        (x1, y1), (x2, y2) = corners2[j], corners2[j + 1]
        n = max(abs(x2 - x1), abs(y2 - y1))
        for t in range(n + 1 if n else 0):
            x, y = x1 + t * (x2 - x1) // n, y1 + t * (y2 - y1) // n
            if x % 2 == 0 and y % 2 == 0:
                out.add((x // 2, y // 2))
    area2 = sum(ax * by - bx * ay
                for (ax, ay), (bx, by) in zip(corners2, corners2[1:]))
    for side, delta in _TRIM_RULES[(kind, int(i))]:
        j, delta = SIDE_NAMES.index(side), int(delta)
        (x1, y2), (x2, _) = corners2[j], corners2[j + 1]
        # the inside is left of a counterclockwise side: below one that
        # runs west
        below = (x2 < x1) == (area2 > 0)
        out |= zigzag_trim_row((y2 - 1) // 2 if below else (y2 + 1) // 2,
                               (min(x1, x2) + 1) // 2,
                               (max(x1, x2) - 1) // 2, delta)
    return out


def test_family_geometry_matches_the_walk_on_every_triple():
    # every valid triple with b <= 16, in all three families: the corners
    # are those of the contour walk, which finds each contour closed and
    # simple, and the cleared points are those of the rules point by point
    specs = [Spec(head, t) for t in valid_triples(range(2, 17), 10 ** 9)
             for head in FAMILY_HEADS]
    assert len(specs) == 2 * 4623
    corners, cleared = family_geometry(specs)
    got = [set() for _ in specs]
    for k, x, y in cleared.tolist():
        got[k].add((x, y))
    for k, spec in enumerate(specs):
        want = trace_contour(family_contour(int(spec.head[1]), *spec.nums))
        assert corners[k].tolist() == [list(c) for c in want], str(spec)
        assert got[k] == reference_cleared(spec, want), str(spec)
