"""Square grid and cross-lattice geometry.

The cross lattice (grid "B") is the square grid without the vertical
edges (x, y)-(x, y+1) with y even and x - y = 1 or 2 (mod 4): two per
period of L = <(4,0), (2,2)>.  It is glued from 14-edge crosses, one per
diamond centered at beta + (1/2, 1/2) for beta in L.  Lattice questions
are residue arithmetic: a point's class mod L is residue(p) =
((x - 2*(y//2)) mod 4, y mod 2), and a unit edge is fixed up to a period
by its direction and the class of its lower-left end.  CROSS_EDGES, the
transcribed cross, remains the source of the 14-entry edge table
CROSS_OFFSETS.  The cross and the zigzag trims below were frozen by
exhaustive calibration against the closed-form counts; the acceptance
suite re-verifies the transcription end to end.

Contours anchor at cross centers, which sit at half-integer points, so
polygon corners are stored in doubled coordinates: one diagonal step of a
contour side is (+-2, +-2), one horizontal unit is (+-2, 0), and a lattice
vertex (x, y) appears as (2x, 2y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossdimerError
from .matchcount import Graph


class NonClosing(CrossdimerError):
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


def ragged_steps(counts):
    """(run, step) of each step 0 .. counts[k] - 1 of each run k."""
    run = np.repeat(np.arange(len(counts)), counts)
    return run, np.arange(len(run)) - (np.cumsum(counts) - counts)[run]


def row_spans(corners2):
    """The rows of the regions inside or on the closed polylines whose
    corners, in doubled coordinates, fill the int array corners2 of shape
    (polylines, corners, 2), in one pass: an int array of rows (k, y, lo,
    hi), sorted, one per row y that polyline k meets, whose points inside
    or on it are those with lo <= x <= hi.  Corners sit at odd doubled
    coordinates, so a row meets a side at a lattice point or not at all;
    a row crossed more than twice (not y-monotone) raises ValueError."""
    c = np.asarray(corners2, dtype=np.int64)
    k = np.repeat(np.arange(len(c)), c.shape[1] - 1)
    x1, y1 = c[:, :-1].reshape(-1, 2).T
    x2, y2 = c[:, 1:].reshape(-1, 2).T
    # a side crosses the rows y with min(y1, y2) <= 2y < max(y1, y2)
    first = (np.minimum(y1, y2) + 1) // 2
    count = (np.maximum(y1, y2) + 1) // 2 - first
    s, y = ragged_steps(count)
    y += first[s]
    x = x1[s] + (2 * y - y1[s]) * (x2[s] - x1[s]) // (y2[s] - y1[s])
    order = np.lexsort((x, y, k[s]))
    k, y, x = k[s][order], y[order], x[order]
    # the first crossing of each row (of none, if there are no crossings)
    new = np.flatnonzero(np.r_[len(k) > 0, (k[1:] != k[:-1])
                               | (y[1:] != y[:-1])])
    times = np.diff(new, append=len(k))
    if (times != 2).any():
        j = np.argmax(times != 2)
        raise ValueError(f"contour is not y-monotone: row {y[new[j]]} "
                         f"crosses it {times[j]} times")
    return np.stack([k[new], y[new], (x[new] + 1) // 2, x[new + 1] // 2], 1)


def stacked_grids(lats, spans, cleared):
    """The Graphs that the lattices lats induce on point sets, built side
    by side in one stacked array: graph k has the points of its rows (k,
    y, lo, hi) in the int array spans, x from lo to hi, less its points
    (k, x, y) in the int array cleared.  Its point (x, y) lies at
    cell (x - dx, y - dy), dx and dy multiples of 4 so that every cell
    keeps its lattice class, with an empty column between graphs; the
    edges come from UNIT_EDGES once, and each Graph is a view of its part.
    """
    k, y, x_lo, x_hi = spans.T
    bounds = np.full((4, len(lats)), -2 ** 62)  # -x0, x1, -y0, y1 per graph
    for bound, v in zip(bounds, (-x_lo, x_hi, -y, y)):
        np.maximum.at(bound, k, v)
    bounds[:, bounds[1] < -bounds[0]] = [[0], [-1], [0], [-1]]  # no points
    lo, hi = -bounds[::2], bounds[1::2]
    slots = (hi[0] - lo[0] + 8) // 4 * 4  # the box and at least one gap
    base = np.cumsum(slots) - slots
    dx, dy = lo[0] - base - lo[0] % 4, lo[1] - lo[1] % 4
    # the last slot ends in a gap, and h leaves the top row empty too, so
    # that no edge leaves the stack
    w, h = int(slots.sum()), int((hi[1] - dy).max(initial=0)) + 2
    diff = np.zeros((w, h), dtype=np.int8)  # +1 where a row starts, -1 past
    diff[x_lo - dx[k], y - dy[k]] = 1
    diff[x_hi + 1 - dx[k], y - dy[k]] -= 1
    occ = np.cumsum(diff, 0, dtype=np.int8) > 0
    ck = cleared[:, 0]
    occ[cleared[:, 1] - dx[ck], cleared[:, 2] - dy[ck]] = False
    full = np.repeat([lat.kind == "full" for lat in lats], slots)
    edges = UNIT_EDGES["cross"][:, np.arange(w)[:, None] % 4,
                                np.arange(h) % 4] | full[:, None]
    edges &= occ
    edges[0, :-1] &= occ[1:]
    edges[1, :, :-1] &= occ[:, 1:]
    # each graph's bounding box in the stack
    cols = np.flatnonzero(np.append(occ.any(1), True))  # and w, a sentinel
    x0 = cols[np.searchsorted(cols, base)]
    x1 = cols[np.searchsorted(cols, base + slots) - 1] + 1
    rows = np.logical_or.reduceat(occ, base, axis=0)
    y0, y1 = rows.argmax(1), h - rows[:, ::-1].argmax(1)
    on = rows.any(1)  # a graph with no points: origin (0, 0), size 0
    return [Graph.of((a + ox, c + oy), occ[a:b, c:d], edges[:, a:b, c:d])
            for a, b, c, d, ox, oy in np.where(
                on, [x0, x1, y0, y1, dx, dy], 0).T.tolist()]


def induced_subgraph(lat, corners2):
    """Lattice graph induced by the points inside or on the polyline."""
    return stacked_grids([lat], row_spans([corners2]),
                         np.zeros((0, 3), dtype=np.int64))[0]


# -- zigzag trims ----------------------------------------------------------------

ZIGZAG_PERIOD = 4
# The zigzag pattern removes one vertex per period from the trimmed row,
# always in a column adjacent to the row's missing-edge pair: delta=2 is
# the column just east of the pair, delta=3 the column just west of the
# next one.


def slit_base(row_y):
    """Column residue (mod 4) of the missing vertical edge pair on a row
    (or an int array of rows)."""
    return (row_y + 1 - row_y % 2) % 4


def zigzag_trim_row(row_y, x_lo, x_hi, delta):
    """Vertices removed by the zigzag cut of one lattice row.

    One vertex per period of four columns, at the slit-locked phase
    delta, over the side span [x_lo, x_hi].  Fixed columns make the trim
    idempotent.
    """
    r = (slit_base(row_y) + delta) % 4
    return {(x, row_y) for x in range(x_lo, x_hi + 1) if x % 4 == r}


# No build path calls it; perfbench/tracer.py wraps it, tests compare with it.
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
