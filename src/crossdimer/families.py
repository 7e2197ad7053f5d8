"""Builders for every named graph family on the cross lattice.

Every graph is built as rows less cleared points, for a batch of Specs
at once in integer arithmetic.  An A or F graph (family_geometry) is its
six-sided contour's rows less the points of its stripped diagonal sides
and zigzag-trimmed horizontal sides.  A TR, TA, TB, AR or AAR graph
(rectangle_geometry) is a rotated rectangle's rows, stretched one point
west for TR and AAR, between two cut rows less every fourth point of
each cut row.  Which sides are stripped per family (with the tall/flat
case split), the trim phases, and the rectangles' corner classes are
frozen calibration results; the acceptance suite is the authority that
they are right.  Spec names one graph as the CLI and the suite records
spell it, and gives its graph and closed form; grids builds the Grids of
many Specs in one stacked array, and every build_* is the graph of its
Spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm

import numpy as np

from .errors import CrossdimerError
from .formulas import (
    HypothesisViolated, InvalidParams, check_trim_constraint, derive_params,
    phi, psi, thm_TA, thm_TB, thm_TR, trim_rect_triple,
)
from .lattice import (
    COMPASS, CROSS_OFFSETS, FULL_GRID, GRID_B, LatticeSpec, NonClosing,
    ragged_steps, row_spans, stacked_grids, slit_base, unit_edge_table,
)
from .matchcount import BUILD_CAP, Graph, _edge_keys, _refuse, int_array


class NotGridB(CrossdimerError):
    pass


SIDE_NAMES = ("a", "b", "c", "d", "e", "f")


# The compass directions of the sides a..f of each family's contour, by
# family index; the closing side f turns with the case, (flat, tall).
_FAMILY_SIDES = {1: ("SE", "NE", "W", "NW", "SW", ("E", "W")),
                 2: ("SW", "E", "NW", "NE", "W", ("SE", "NW")),
                 3: ("E", "NW", "SW", "W", "SE", ("NE", "SW"))}


def _sides(i, tall):
    """(compass, unit steps per unit of length: 2 diagonal, 4 horizontal)
    of each side of family i's contour."""
    *comps, closing = _FAMILY_SIDES[i]
    return [(comp, 2 if len(comp) == 2 else 4)
            for comp in comps + [closing[tall]]]


# Each contour's path in doubled coordinates per unit of its lengths,
# indexed [i - 1, tall, step]: a step of length 1 to its start (1, 1),
# the cross center of the base (0, 0), then its sides a..f
_SIDE_VECTORS = np.array([[[(1, 1)] + [[2 * u * t for t in COMPASS[comp]]
                                       for comp, u in _sides(i, tall)]
                           for tall in (0, 1)] for i in (1, 2, 3)])


# Sides stripped per family: (when flat, when tall); tall means a > c + d.
_STRIP_RULES = {("A", 1): ("abde", "abde"), ("F", 1): ("", ""),
                ("A", 2): ("cf", "c"), ("F", 2): ("ad", "adf"),
                ("A", 3): ("", "f"), ("F", 3): ("bcef", "bce")}
# Horizontal-side trims per family: (side and slit phase, ...).  Each
# family trims its two horizontal sides at the two opposite slit-adjacent
# phases; which side takes which phase is a calibration result.
_TRIM_RULES = {("A", 1): ("c2", "f3"), ("F", 1): ("c3", "f2"),
               ("A", 2): ("b2", "e3"), ("F", 2): ("b3", "e2"),
               ("A", 3): ("a3", "d2"), ("F", 3): ("a2", "d3")}
# Both rule tables as arrays indexed [family letter, i - 1, ...]: whether
# each side is stripped, by tall, and each trimmed side and its phase
_STRIPPED = np.array([[[[side in _STRIP_RULES[kind, i][tall]
                         for side in SIDE_NAMES] for tall in (0, 1)]
                       for i in (1, 2, 3)] for kind in "AF"])
_TRIMMED = np.array([[[(SIDE_NAMES.index(side), int(delta))
                       for side, delta in _TRIM_RULES[kind, i]]
                      for i in (1, 2, 3)] for kind in "AF"])


def build_A(i, a, b, c):
    """The i-th family graph with all bounding diagonals stripped bare."""
    return Spec(f"A{i}", (a, b, c)).graph()


def build_F(i, a, b, c):
    """The i-th family graph that keeps its diagonal boundary rows."""
    return Spec(f"F{i}", (a, b, c)).graph()


# -- rotated rectangles ------------------------------------------------------------

# East-corner residues (u_max, v_max) in rotated coordinates u = x+y,
# v = x-y.  "east": the rectangle's east tip edge is the east arm tip of a
# cross; "west": its west arm tip.  Frozen by calibration.
ALIGN_UV = {"east": (4, 3), "west": (1, 0)}


def build_aztec_rectangle(lat, m, n):
    return Spec("AR", (m, n), lat).graph()


def build_augmented_aztec(lat, m, n):
    """Rectangle stretched one unit west: one extra square per row."""
    return Spec("AAR", (m, n), lat).graph()


def build_TR(a, b):
    """Trimmed augmented rectangle; counted by powers of 10 and 11."""
    return Spec("TR", (a, b)).graph()


def build_TA(m, n, h1, h2):
    """Even trimmed rectangle; counted by phi_1 times a power of 3."""
    return Spec("TA", (m, n, h1, h2)).graph()


def build_TB(m, n, h1, h2):
    """Odd trimmed rectangle; counted by psi_1 times a power of 3."""
    return Spec("TB", (m, n, h1, h2)).graph()


# -- cross weights ------------------------------------------------------------------

# Weight symbol per cross edge (everything else weighs 1): x on the open
# east arm, y on the central-square horizontals and the left vertical arm
# edges, z on the right vertical arm edges and the north/south tips.
# One representative of the eight equivalent calibrated transcriptions.
WEIGHT_TABLE = {
    ((1, 0), (2, 0)): "x", ((1, 1), (2, 1)): "x",
    ((0, 0), (1, 0)): "y", ((0, 1), (1, 1)): "y",
    ((0, 1), (0, 2)): "y", ((0, -1), (0, 0)): "y",
    ((1, 1), (1, 2)): "z", ((1, -1), (1, 0)): "z",
    ((0, 2), (1, 2)): "z", ((0, -1), (1, -1)): "z",
}


def weight_point(x, y, z):
    """The cross weights (x, y, z) as a tuple of Fractions, each of which
    must be positive (InvalidParams)."""
    w = (Fraction(x), Fraction(y), Fraction(z))
    if min(w) <= 0:
        raise InvalidParams("weights must be positive")
    return w


# WEIGHT_TABLE as a read-only unit_edge_table array: 1, 2 or 3 where an
# edge weighs x, y or z, 0 where it weighs 1, -1 where there is no edge
WEIGHT_SYMBOLS = np.array(unit_edge_table(
    lambda e: "_xyz".index(WEIGHT_TABLE.get(CROSS_OFFSETS[e], "_"))
    if e in CROSS_OFFSETS else -1))
WEIGHT_SYMBOLS.setflags(write=False)


def cross_weightings(g, points):
    """Copies of g carrying the periodic cross weight pattern, one per
    weight_point tuple in points: g.with_weights((w, d)) for each (w, d)
    that cross_weighted_grids gives g's Grid.  An edge off the cross
    lattice raises NotGridB."""
    if len(off := np.flatnonzero(g.grid.edges & (_symbols_at(g.grid) < 0))):
        (u, v), = _edge_keys(g.grid, off[:1])
        raise NotGridB(f"edge {u}-{v} is not a cross-lattice edge")
    return [g.with_weights(wd)
            for _, wd in cross_weighted_grids([g.grid], points)]


def _symbols_at(grid):
    """WEIGHT_SYMBOLS[:, x % 4, y % 4] at the cell of each (x, y) of grid."""
    (x0, y0), (m, n) = grid.origin, grid.occ.shape
    return WEIGHT_SYMBOLS[:, np.arange(x0, x0 + m)[:, None] % 4,
                          np.arange(y0, y0 + n) % 4]


def cross_weighted_grids(grids, points):
    """(grid, (w, d)) for each Grid of the cross lattice in grids and, grid
    by grid, each weight_point tuple in points, as count_many weights a Grid:
    d is the lcm of the point's denominators, and w is d times the weight
    at WEIGHT_SYMBOLS[:, x % 4, y % 4], in the smallest signed dtype that
    holds it (int_array's objects past int64)."""
    ds = [lcm(*(t.denominator for t in w)) for w in points]
    scaled = [int_array([d] + [int(t * d) for t in w])
              for w, d in zip(points, ds)]
    scaled = [v if v.dtype == object else  # every value is positive
              v.astype(np.min_scalar_type(-1 - int(v.max()))) for v in scaled]
    for grid in grids:
        sym = np.maximum(_symbols_at(grid), 0)  # no edge: it weighs 1
        yield from ((grid, (vals[sym], d)) for vals, d in zip(scaled, ds))


def assign_cross_weights(g, w):
    """Attach the periodic cross weight pattern to every edge of g."""
    return cross_weightings(g, [w])[0]


# -- family spec strings ---------------------------------------------------------------


FAMILY_HEADS = ("A1", "A2", "A3", "F1", "F2", "F3")
SPEC_PARAMS = {**dict.fromkeys(FAMILY_HEADS, "a,b,c"), "TR": "a,b",
               "TA": "m,n,h1,h2", "TB": "m,n,h1,h2", "AR": "m,n", "AAR": "m,n"}
LATTICE_TAGS = {"full": FULL_GRID, "b": GRID_B, "cross": GRID_B}


def check_trim_domain(variant, m, n, h1, h2):
    """Raise HypothesisViolated unless theorem 1.3 covers this trimmed
    rectangle: its core triple must be a valid family triple, and neither
    cut may leave its corner."""
    spec = Spec(variant, (m, n, h1, h2))
    try:
        derive_params(*trim_rect_triple(m, n, h1, h2, variant))
    except InvalidParams as exc:
        raise HypothesisViolated(f"{spec} has no valid core: {exc}") from None
    short_side = 2 * m - (variant == "TB")  # its rectangle's SE side
    if h1 >= short_side or h2 >= short_side:
        raise HypothesisViolated(
            f"{spec}: a cut leaves its corner (side {short_side})")


@dataclass(frozen=True)
class Spec:
    """One named family graph: a head (a key of SPEC_PARAMS), its integer
    parameters, and the lattice of a family or rotated rectangle, None for
    its default (the cross lattice for families, the full grid for AR and
    AAR).  Spec.parse reads the CLI form, and str gives it back."""

    head: str
    nums: tuple
    lattice: LatticeSpec | None = None

    @classmethod
    def parse(cls, text):
        """The Spec of a string like A1:9,8,2 or AR:2,2@full.  An unknown
        family or lattice, a wrong parameter count or a malformed string
        raises InvalidParams."""
        text = text.strip()
        if ":" not in text:
            raise InvalidParams(f"malformed spec {text!r}")
        head, rest = text.split(":", 1)
        head = head.upper()
        if head not in SPEC_PARAMS:
            raise InvalidParams(f"unknown family {head!r}")
        rest, at, tag = rest.partition("@")
        lat = LATTICE_TAGS.get(tag.lower())
        if at and lat is None:
            raise InvalidParams(f"unknown lattice {tag!r}")
        if lat is not None and head in ("TR", "TA", "TB"):
            raise InvalidParams(f"{head} lies on the cross lattice only")
        try:
            nums = tuple(int(t) for t in rest.split(","))
        except ValueError:
            raise InvalidParams(f"bad numbers in {text!r}") from None
        if len(nums) != len(SPEC_PARAMS[head].split(",")):
            raise InvalidParams(f"{head} needs {SPEC_PARAMS[head]}")
        return cls(head, nums, lat)

    def __str__(self):
        tag = "" if self.lattice is None else \
            "@full" if self.lattice.kind == "full" else "@b"
        return f"{self.head}:{','.join(map(str, self.nums))}{tag}"

    @property
    def lat(self):
        """The lattice that the graph lies on."""
        return self.lattice or (
            FULL_GRID if self.head in ("AR", "AAR") else GRID_B)

    def graph(self):
        return Graph(next(grids([self])))

    def closed_form(self):
        """The FactoredCount that theorem 2.1 (A and F), 1.1 (TR) or 1.3
        (TA and TB) gives, once the parameters are checked to lie in its
        domain; the rotated rectangles have none (InvalidParams)."""
        head, nums = self.head, self.nums
        if head in FAMILY_HEADS:
            derive_params(*nums)
            return (phi if head[0] == "A" else psi)(int(head[1]), *nums)
        if head == "TR":
            return thm_TR(*nums)
        if head in ("TA", "TB"):
            check_trim_domain(head, *nums)
            return (thm_TA if head == "TA" else thm_TB)(*nums)
        raise InvalidParams(f"no closed form for {head!r}")


GRID_BATCH = 256  # Specs per stacked array, which bounds its size


def family_geometry(specs):
    """(corners, cleared) of the A and F graphs that specs name, at once in
    integer arithmetic: an int array (len(specs), 7, 2) of each contour's
    corners in doubled coordinates, (1, 1) and the running sums of its
    side vectors, which must close (NonClosing), and one of rows (k, x, y),
    the points of spec k's stripped sides and trimmed rows.  A spec whose
    corners' box spans more than BUILD_CAP points raises TooLarge first."""
    if not specs:  # as in a batch of rotated rectangles only
        return np.zeros((0, 7, 2), np.int64), np.zeros((0, 3), np.int64)
    par = [derive_params(*spec.nums) for spec in specs]
    for spec, p in zip(specs, par):
        _refuse(spec, max(p[:6]))  # which keeps what follows in int64
    rule = np.array([(spec.head[0] == "F", int(spec.head[1]) - 1,
                      p.case_tall, 1, *p[:6]) for spec, p in zip(specs, par)],
                    dtype=np.int64).reshape(-1, 10)
    kind, i, tall = rule[:, :3].T
    steps = _SIDE_VECTORS[i, tall] * rule[:, 3:, None]
    corners = steps.cumsum(1)
    if (corners[:, -1] != 1).any():
        k = (corners[:, -1] != 1).any(1).argmax()
        raise NonClosing(f"{specs[k]} ends at {corners[k, -1].tolist()}")
    box = ((corners.max(1) - corners.min(1)) // 2).prod(1)
    if (box > BUILD_CAP).any():
        _refuse(specs[box.argmax()], int(box.max()))
    # a stripped side of 2n diagonal unit steps has its lattice points at
    # the odd ones t = 1, 3, ... of its 4n doubled steps
    k, j = np.nonzero(_STRIPPED[kind, i, tall])
    sign = np.sign(steps[k, j + 1])
    # a counterclockwise contour (twice its signed area is positive) has
    # its inside left of each side: below a horizontal side that runs west
    ccw = ((2 * corners[:, :-1, 0] + steps[:, 1:, 0])
           * steps[:, 1:, 1]).sum(1) > 0
    trim_k = np.repeat(np.arange(len(specs)), 2)
    tj, delta = _TRIMMED[kind, i].reshape(-1, 2).T
    (x1, y1), (x2, _) = corners[trim_k, tj].T, corners[trim_k, tj + 1].T
    row = (y1 + np.where((x2 < x1) == ccw[trim_k], -1, 1)) // 2
    lo, hi = (np.minimum(x1, x2) + 1) // 2, (np.maximum(x1, x2) - 1) // 2
    lo += (slit_base(row) + delta - lo) % 4
    # the cleared points as runs: from a start, count times by a step
    run, t = ragged_steps(np.concatenate([
        np.abs(steps[k, j + 1, 0]) // 2,
        np.maximum((hi - lo) // 4 + 1, 0)]))
    start = np.concatenate([(corners[k, j] + sign) // 2,
                            np.stack([lo, row], 1)])
    step = np.zeros_like(start)
    step[:len(sign)], step[len(sign):, 0] = sign, 4
    return corners, np.column_stack([np.concatenate([k, trim_k])[run],
                                     start[run] + t[:, None] * step[run]])


def _rectangle(spec):
    """(m, n, u, v, west, top, bottom, ends) of a TR, TA, TB, AR or AAR
    spec: a rectangle of sides m (SE) and n (NE) from its east corner
    (u, v) = (x + y, x - y), each row one point longer west if west, cut
    to the rows top to bottom, less every fourth point of the rows top
    and bottom, at slit phase 3 or, if ends, from 3 columns in from the
    top row's east end and the bottom row's west end.  It raises TooLarge
    if the box (2m + 1)(2n + 1) spans more than BUILD_CAP points, then
    InvalidParams on numbers out of range, or HypothesisViolated off the
    floor-sum rule."""
    head, nums = spec.head, spec.nums
    u, v = ALIGN_UV["west" if head == "TB" else "east"]
    # the cuts are rows counted from y0, the row just below the east corner
    if head == "TR":
        a, b = nums
        m, n, cuts = 2 * b + 2 * a - 2, 2 * b + 4 * a - 2, (2 * a, 1 - 4 * a)
    elif head in ("TA", "TB"):
        # sides 2m and 2n, less 1 each for TB
        m, n = (2 * t - (head == "TB") for t in nums[:2])
        cuts = (m - nums[2], 1 - n + nums[3])
    elif head in ("AR", "AAR"):
        m, n, cuts = *nums, (nums[0] + 1, -nums[1])  # each past an end
        u, v = (0, 1) if spec.lat.kind == "full" else (u, v)
    else:
        raise InvalidParams(f"unknown family {head!r}")
    _refuse(spec, max(2 * m + 1, 0) * max(2 * n + 1, 0))
    if head in ("TA", "TB"):
        if not 1 <= nums[0] <= nums[1] or min(nums[2:]) < 0:
            raise InvalidParams(f"{spec} needs 1 <= m <= n and h1, h2 >= 0")
        check_trim_constraint(*nums)
    elif head == "TR" and (nums[0] < 1 or nums[1] < 2 * nums[0]):
        raise InvalidParams(f"need a >= 1 and b >= 2a, got {nums}")
    elif min(m, n) < 1:
        raise InvalidParams("m, n must be >= 1")
    y0 = (u - v - 1) // 2
    return (m, n, u, v, head in ("TR", "AAR"), y0 + cuts[0], y0 + cuts[1],
            head in ("TA", "TB"))


def rectangle_geometry(specs):
    """(rows, cleared) of the TR, TA, TB, AR and AAR graphs that specs
    name (_rectangle, which checks BUILD_CAP first): an int array of rows
    (k, y, lo, hi), the row_spans of spec k's rectangle's corners at odd
    doubled coordinates (u + v, u - v), stretched and clipped to its cuts,
    and one of rows (k, x, y), the points that its cuts clear."""
    if not specs:  # as in a batch of A and F specs only
        return np.zeros((0, 4), np.int64), np.zeros((0, 3), np.int64)
    rect = np.array([_rectangle(spec) for spec in specs], dtype=np.int64)
    west, top, bottom, ends = rect[:, 4:].T
    # the corners east, north, west, south and east again, as (u, v)
    uv = rect[:, None, 2:4] - [[0, 0], [0, 2], [2, 2], [2, 0], [0, 0]] \
        * rect[:, None, 1::-1]
    rows = row_spans(uv @ np.array([[1, 1], [1, -1]]))
    rows[:, 2] -= west[rows[:, 0]]
    k, y = rows[:, :2].T
    rows = rows[(bottom[k] <= y) & (y <= top[k])]
    k, y, lo, hi = rows.T
    at_top = y == top[k]
    # on a row cut twice, the bottom cut anchors past lo if the top took it
    left = lo + (at_top & ((hi + 1 - lo) % 4 == 0))
    phase = np.where(ends[k], [hi + 1, left - 1], slit_base(y) + 3)
    cut = np.concatenate([at_top, y == bottom[k]])
    k, y, lo, hi = np.tile(rows, (2, 1))[cut].T
    lo += (phase.ravel()[cut] - lo) % 4
    run, t = ragged_steps(np.maximum((hi - lo) // 4 + 1, 0))
    return rows, np.stack([k[run], lo[run] + 4 * t, y[run]], 1)


def grids(specs):
    """The Grids of the graphs that specs name, in order, GRID_BATCH at a
    time in one stacked array (stacked_grids): rows less cleared points,
    from family_geometry (A and F) or rectangle_geometry, which refuse
    any spec past BUILD_CAP before a row of its batch is computed."""
    specs = iter(specs)
    while batch := list(islice(specs, GRID_BATCH)):
        fam = np.array([spec.head in FAMILY_HEADS for spec in batch])
        f, r = np.flatnonzero(fam), np.flatnonzero(~fam)
        corners, cleared = family_geometry([batch[k] for k in f])
        rect = rectangle_geometry([batch[k] for k in r])
        # a batch of rectangles only has no family rows to span
        rows = [row_spans(corners) if len(f) else rect[0][:0], rect[0]]
        cleared = [cleared, rect[1]]
        for a, k in zip(rows + cleared, (f, r, f, r)):
            a[:, 0] = k[a[:, 0]]  # from index in its part to in batch
        yield from stacked_grids([spec.lat for spec in batch],
                                 np.concatenate(rows), np.concatenate(cleared))
