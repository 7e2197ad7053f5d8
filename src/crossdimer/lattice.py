"""Square grid and cross-lattice geometry.

The cross lattice (grid "B") is the square grid without the vertical
edges (x, y)-(x, y+1) with y even and x - y = 1 or 2 (mod 4): two per
period of L = <(4,0), (2,2)>.  It is glued from 14-edge crosses, one per
diamond centered at beta + (1/2, 1/2) for beta in L.  Lattice questions
are residue arithmetic: a point's class mod L is residue(p) =
((x - 2*(y//2)) mod 4, y mod 2), and a unit edge is fixed up to a period
by its direction and the class of its lower-left end.  CROSS_EDGES, the
transcribed cross, remains the source of the 14-entry edge table
CROSS_OFFSETS.  The cross and every trim/strip rule below were frozen by
exhaustive calibration against the closed-form counts; the acceptance
suite re-verifies the transcription end to end.

Contours anchor at cross centers, which sit at half-integer points, so
polygon corners are stored in doubled coordinates: one diagonal step of a
contour side is (+-2, +-2), one horizontal unit is (+-2, 0), and a lattice
vertex (x, y) appears as (2x, 2y).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CrossdimerError
from .matchcount import Grid


class NonClosing(CrossdimerError):
    pass


class SelfIntersecting(CrossdimerError):
    pass


class NotHorizontalSide(CrossdimerError):
    pass


COMPASS = {
    "E": (1, 0), "W": (-1, 0), "N": (0, 1), "S": (0, -1),
    "NE": (1, 1), "NW": (-1, 1), "SE": (1, -1), "SW": (-1, -1),
}

# One cross, as edges between lattice points relative to its base point
# (the lattice point just south-west of the cross center).  The pattern is
# the five-square plus shape with its east arm sliced open: of the sixteen
# grid edges inside the diamond, the east central-square edge and the east
# tip edge are missing.
CROSS_EDGES = frozenset((
    ((0, 0), (1, 0)), ((0, 1), (1, 1)),        # central square, horizontals
    ((0, 0), (0, 1)),                          # central square, west side
    ((1, 0), (2, 0)), ((1, 1), (2, 1)),        # east arm (open: no tip)
    ((-1, 0), (0, 0)), ((-1, 1), (0, 1)),      # west arm
    ((-1, 0), (-1, 1)),                        # west tip
    ((0, 1), (0, 2)), ((1, 1), (1, 2)),        # north arm
    ((0, 2), (1, 2)),                          # north tip
    ((0, -1), (0, 0)), ((1, -1), (1, 0)),      # south arm
    ((0, -1), (1, -1)),                        # south tip
))


def residue(p):
    """Class of p in Z^2 / L, one of eight; cross bases are (0, 0)."""
    x, y = p
    return ((x - 2 * (y // 2)) % 4, y % 2)


# (direction, residue of the lower-left end) -> position in the cross.  The
# 14 cross edges fill 14 of the 16 unit-edge classes; the other two are
# the slits.
CROSS_OFFSETS = {((b[0] - a[0], b[1] - a[1]), residue(a)): (a, b)
                 for a, b in CROSS_EDGES}


def unit_edge_table(fn):
    """fn of the class of each unit edge, as table[d][x % 4][y % 4] for the
    edge from (x, y) east (d = 0) or north (d = 1).  (4, 0) and (0, 4) lie
    in L, so a class depends on x and y mod 4 only."""
    return [[[fn((step, residue((x, y)))) for y in range(4)]
             for x in range(4)] for step in ((1, 0), (0, 1))]


# Which unit edges each lattice has, as unit_edge_table arrays.
UNIT_EDGES = {"full": np.ones((2, 4, 4), dtype=bool),
              "cross": np.array(unit_edge_table(CROSS_OFFSETS.__contains__))}


def _edge_class(p, q):
    a, b = min(p, q), max(p, q)
    return (b[0] - a[0], b[1] - a[1]), residue(a)


@dataclass(frozen=True)
class LatticeSpec:
    """Either the full square grid or the periodic cross lattice."""

    kind: str  # "full" | "cross"

    def has_vertex(self, p):
        """Both lattices contain every point of Z^2."""
        return True

    def edge_exists(self, p, q):
        """True iff {p, q} is an edge of this lattice; symmetric in p, q."""
        if self.kind == "full":
            return abs(q[0] - p[0]) + abs(q[1] - p[1]) == 1
        return _edge_class(p, q) in CROSS_OFFSETS

    def edge_offset(self, p, q):
        """The element of CROSS_EDGES that {p, q} translates, or None."""
        return CROSS_OFFSETS.get(_edge_class(p, q))


FULL_GRID = LatticeSpec(kind="full")
GRID_B = LatticeSpec(kind="cross")


# -- contours --------------------------------------------------------------------


@dataclass(frozen=True)
class ContourSpec:
    """Closed polyline spec: a start base point and compass sides.

    Side lengths are in lattice units (diagonal sides count diagonal unit
    steps); the traced polygon itself lives at half-unit offsets, through
    the cross center start + (1/2, 1/2).
    """

    family: str
    start: tuple
    sides: tuple  # ((compass, length), ...)


def trace_contour(spec):
    """Corners of the closed polygon, in doubled coordinates.

    Validates closure, simplicity, and the side-length conventions
    (diagonal sides even, horizontal sides divisible by 4).
    """
    x = 2 * spec.start[0] + 1
    y = 2 * spec.start[1] + 1
    corners = [(x, y)]
    seen_midpoints = set()
    total = 0
    for comp, length in spec.sides:
        if length < 0:
            raise ValueError("negative side length")
        dx, dy = COMPASS[comp]
        diagonal = dx != 0 and dy != 0
        if length and diagonal and length % 2:
            raise SelfIntersecting(f"odd diagonal step count {length}")
        if length and not diagonal and length % 4:
            raise SelfIntersecting(f"horizontal length {length} not 4-aligned")
        for _ in range(length):
            mid = (2 * x + 2 * dx, 2 * y + 2 * dy)
            if mid in seen_midpoints:
                raise SelfIntersecting(f"boundary passes twice through {mid}")
            seen_midpoints.add(mid)
            x, y = x + 2 * dx, y + 2 * dy
        total += length
        corners.append((x, y))
    if total == 0:
        raise SelfIntersecting("degenerate empty polygon")
    if corners[-1] != corners[0]:
        raise NonClosing(f"ends at {corners[-1]}, started at {corners[0]}")
    return corners


def row_span(corners2, y):
    """Lattice x-interval (lo, hi) of row y inside or on the polygon.

    None when the row misses the polygon.  Contour corners sit at odd
    doubled coordinates, so a row never runs along a side or through a
    corner, and meets a diagonal side at a lattice point.  Family contours
    are y-monotone: each row is crossed at most twice.
    """
    h = 2 * y
    xs = sorted(x1 + (h - y1) * (x2 - x1) // (y2 - y1)
                for (x1, y1), (x2, y2) in zip(corners2, corners2[1:])
                if min(y1, y2) <= h < max(y1, y2))
    if not xs:
        return None
    if len(xs) != 2:
        raise ValueError(f"contour is not y-monotone: row {y} crosses it "
                         f"{len(xs)} times")
    return (xs[0] + 1) // 2, xs[1] // 2


def region_points(corners2):
    """Lattice points inside or on the closed polyline."""
    ys = [c[1] for c in corners2]
    for y in range(min(ys) // 2, max(ys) // 2 + 1):
        span = row_span(corners2, y)
        if span:
            for x in range(span[0], span[1] + 1):
                yield (x, y)


def grid_on_points(lat, pts):
    """The graph that lat induces on the distinct points pts, as a Grid."""
    pts = np.fromiter(chain.from_iterable(pts), dtype=np.int64).reshape(-1, 2)
    return Grid(pts, *UNIT_EDGES[lat.kind][:, pts[:, 0] % 4, pts[:, 1] % 4])


def graph_on_points(lat, pts):
    """The graph that lat induces on the points pts."""
    return grid_on_points(lat, pts).graph()


def induced_subgraph(lat, corners2):
    """Lattice graph induced by the points inside or on the polyline."""
    return graph_on_points(lat, region_points(corners2))


# -- side strips -----------------------------------------------------------------


def points_on_segment(p1_2, p2_2):
    """Lattice points lying on a segment given in doubled coordinates."""
    (x1, y1), (x2, y2) = p1_2, p2_2
    if p1_2 == p2_2:
        return []
    steps = max(abs(x2 - x1), abs(y2 - y1))
    dx = (x2 - x1) // steps
    dy = (y2 - y1) // steps
    out = []
    for t in range(steps + 1):
        X, Y = x1 + t * dx, y1 + t * dy
        if X % 2 == 0 and Y % 2 == 0:
            out.append((X // 2, Y // 2))
    return out


# -- zigzag trims ----------------------------------------------------------------

ZIGZAG_PERIOD = 4
# The zigzag pattern removes one vertex per period from the trimmed row,
# always in a column adjacent to the row's missing-edge pair: delta=2 is
# the column just east of the pair, delta=3 the column just west of the
# next one.  The sweep direction of the cut maps onto these two phases.
SWEEP_DELTA = {"right_to_left": 2, "left_to_right": 3}


def slit_base(row_y):
    """Column residue (mod 4) of the missing vertical edge pair on a row."""
    return (row_y + 1) % 4 if row_y % 2 == 0 else row_y % 4


def zigzag_trim_row(row_y, x_lo, x_hi, delta):
    """Vertices removed by the zigzag cut of one lattice row.

    One vertex per period of four columns, at the slit-locked phase
    delta, over the side span [x_lo, x_hi].  Fixed columns make the trim
    idempotent.
    """
    r = (slit_base(row_y) + delta) % 4
    return {(x, row_y) for x in range(x_lo, x_hi + 1) if x % 4 == r}


def trim_zigzag_side(corners2, side_idx, sweep=None, delta=None):
    """Points the zigzag trim removes along one horizontal contour side."""
    p1, p2 = corners2[side_idx], corners2[side_idx + 1]
    if p1 == p2:
        return set()
    if p1[1] != p2[1]:
        raise NotHorizontalSide(f"{p1}..{p2} is not horizontal")
    if delta is None:
        delta = SWEEP_DELTA[sweep]
    y2 = p1[1]
    below_x, below_y = ((p1[0] + p2[0]) // 2) // 2, (y2 - 1) // 2
    span = row_span(corners2, below_y)
    interior_is_below = span is not None and span[0] <= below_x <= span[1]
    row_y = below_y if interior_is_below else (y2 + 1) // 2
    x_lo = (min(p1[0], p2[0]) + 1) // 2
    x_hi = (max(p1[0], p2[0]) - 1) // 2
    return zigzag_trim_row(row_y, x_lo, x_hi, delta)


def corner_cut(pts, level, keep, delta=None, anchor_offset=None):
    """Zigzag corner cut at a horizontal level: the points of pts it keeps.

    keep="below" removes every point above `level` and then the zigzag
    pattern of the exposed row y=level itself; keep="above" mirrors this.
    The pattern is slit-locked via `delta`, or, when `anchor_offset` is
    given instead, anchored that many columns in from the row's east end
    (keep="below") or, as a half turn maps it, its west end (keep="above").
    """
    if keep == "below":
        kept = {v for v in pts if v[1] <= level}
    elif keep == "above":
        kept = {v for v in pts if v[1] >= level}
    else:
        raise ValueError(f"keep must be 'below' or 'above', got {keep!r}")
    row = sorted(x for (x, y) in kept if y == level)
    if not row:
        return kept
    if anchor_offset is None:
        drop = zigzag_trim_row(level, row[0], row[-1], delta)
    elif keep == "below":
        drop = {(x, level) for x in range(row[-1] - anchor_offset,
                                          row[0] - 1, -ZIGZAG_PERIOD)}
    else:
        drop = {(x, level) for x in range(row[0] + anchor_offset,
                                          row[-1] + 1, ZIGZAG_PERIOD)}
    return kept - drop
