import pytest
from hypothesis import given, settings, strategies as st

from crossdimer.families import family_contour
from crossdimer.lattice import (
    CROSS_EDGES, CROSS_OFFSETS, FULL_GRID, GRID_B, ContourSpec, NonClosing,
    SelfIntersecting, induced_subgraph, points_on_segment, row_spans,
    slit_base, trace_contour, trim_zigzag_side, zigzag_trim_row,
)


def region_points(corners2):
    """The lattice points inside or on a closed polyline, by its rows."""
    return [(x, y) for _, y, lo, hi in row_spans([(0, corners2)]).tolist()
            for x in range(lo, hi + 1)]


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


def test_points_on_segment_diagonal():
    pts = points_on_segment((1, 1), (9, -7))
    assert pts == [(1, 0), (2, -1), (3, -2), (4, -3)]
    assert points_on_segment((1, 1), (9, 1)) == []  # half-integer row


def test_zigzag_trim_idempotent():
    corners = trace_contour(family_contour(1, 3, 4, 2))
    pts = set(region_points(corners))
    drop = trim_zigzag_side(corners, 2, sweep="right_to_left")
    assert drop and drop <= pts
    t1 = pts - drop
    t2 = t1 - trim_zigzag_side(corners, 2, sweep="right_to_left")
    assert t1 == t2


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
        row_spans([(0, trace_contour(u_shape))])
