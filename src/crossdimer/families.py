"""Builders for every named graph family on the cross lattice.

Pipeline, fixed, for a batch of A/F specs at once in integer arithmetic
(family_geometry): contour corners -> region rows -> strip diagonal
sides -> zigzag-trim horizontal sides -> one induced lattice graph.
Induced subgraphs compose, so a family graph is its region's rows less
the stripped and trimmed points; the others are point sets (tr_points,
trim_rect_points, aztec_rectangle_points, augmented_aztec_points).
Which sides are stripped per family (with the tall/flat case split), the
trim phases, and the rotated-rectangle anchor classes are frozen
calibration results; the acceptance suite is the authority that they are
right.  Spec names one graph as the CLI and the suite records spell it,
and gives its graph and closed form; grids builds the Grids of many
Specs in one stacked array, and every build_* is the graph of its Spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import lcm

import numpy as np

from .errors import CrossdimerError
from .formulas import (
    HypothesisViolated, InvalidParams, derive_params, phi, psi, thm_TA,
    thm_TB, thm_TR, trim_rect_triple,
)
from .lattice import (
    COMPASS, CROSS_OFFSETS, FULL_GRID, GRID_B, ContourSpec, LatticeSpec,
    NonClosing, ragged_steps, row_spans, stacked_grids, slit_base,
    corner_cut, unit_edge_table,
)
from .matchcount import TooLarge, int_array


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


def family_contour(i, a, b, c):
    """Six-sided contour of family i in {1,2,3}, anchored at a cross base."""
    p = derive_params(a, b, c)
    if i not in _FAMILY_SIDES:
        raise InvalidParams(f"family index {i} not in 1..3")
    return ContourSpec(family=f"C{i}", start=(0, 0), sides=tuple(
        (comp, u * n) for (comp, u), n in zip(_sides(i, p.case_tall), p)))


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


def build_A(i, a, b, c, lat=GRID_B):
    """The i-th family graph with all bounding diagonals stripped bare."""
    return Spec(f"A{i}", (a, b, c), lat).graph()


def build_F(i, a, b, c, lat=GRID_B):
    """The i-th family graph that keeps its diagonal boundary rows."""
    return Spec(f"F{i}", (a, b, c), lat).graph()


# -- rotated rectangles ------------------------------------------------------------

# East-corner residues (u_max, v_max) in rotated coordinates u = x+y,
# v = x-y.  "east": the rectangle's east tip edge is the east arm tip of a
# cross; "west": its west arm tip.  Frozen by calibration.
ALIGN_UV = {"east": (4, 3), "west": (1, 0)}


def aztec_rectangle_points(m, n, corner_uv):
    """Vertices of the rotated rectangle with SE side m and NE side n."""
    if m < 1 or n < 1:
        raise InvalidParams("m, n must be >= 1")
    u_max, v_max = corner_uv
    if (u_max + v_max) % 2 == 0:
        raise InvalidParams("rectangle corner must be a unit-square center")
    out = []
    for u in range(u_max - 2 * n, u_max + 1):
        for v in range(v_max - 2 * m, v_max + 1):
            if (u + v) % 2 == 0:
                out.append(((u + v) // 2, (u - v) // 2))
    return out


def build_aztec_rectangle(lat, m, n):
    return Spec("AR", (m, n), lat).graph()


def augmented_aztec_points(m, n, corner_uv):
    """The rectangle's vertices and their western neighbours."""
    base = aztec_rectangle_points(m, n, corner_uv)
    pts = set(base)
    pts.update((x - 1, y) for x, y in base)
    return pts


def build_augmented_aztec(lat, m, n):
    """Rectangle stretched one unit west: one extra square per row."""
    return Spec("AAR", (m, n), lat).graph()


def tr_points(a, b):
    """The point set of the trimmed augmented rectangle TR(a, b)."""
    if a < 1 or b < 2 * a:
        raise InvalidParams(f"need a >= 1 and b >= 2a, got {(a, b)}")
    m = 2 * b + 2 * a - 2
    n = 2 * b + 4 * a - 2
    u_max, v_max = ALIGN_UV["east"]
    pts = augmented_aztec_points(m, n, (u_max, v_max))
    east_y2 = u_max - v_max
    level_n = (east_y2 - 1) // 2 + (2 * a - 1) + 1
    level_s = (east_y2 + 1) // 2 - (4 * a - 1) - 1
    pts = corner_cut(pts, level_n, "below", delta=3)
    return corner_cut(pts, level_s, "above", delta=3)


def build_TR(a, b):
    """Trimmed augmented rectangle; counted by powers of 10 and 11."""
    return Spec("TR", (a, b)).graph()


@dataclass(frozen=True)
class TrimRectParams:
    m: int
    n: int
    h1: int
    h2: int
    variant: str  # "TA" | "TB"

    def __post_init__(self):
        if min(self.m, self.n, self.h1, self.h2) < 0 or self.m > self.n:
            raise InvalidParams(f"bad trim-rectangle parameters {self}")
        if (self.h1 + 1) // 2 + (self.h2 + 1) // 2 != 2 * (self.n - self.m):
            raise InvalidParams(
                f"floor-sum constraint fails for "
                f"{(self.m, self.n, self.h1, self.h2)}")
        if self.variant not in ("TA", "TB"):
            raise InvalidParams(f"variant must be TA or TB, not {self.variant}")


def trim_rect_points(p):
    """The point set of the trimmed rectangle that p (TA or TB) names."""
    if p.variant == "TA":
        rect_m, rect_n, corner_uv = 2 * p.m, 2 * p.n, ALIGN_UV["east"]
    else:
        rect_m, rect_n, corner_uv = 2 * p.m - 1, 2 * p.n - 1, ALIGN_UV["west"]
    pts = aztec_rectangle_points(rect_m, rect_n, corner_uv)
    u_max, v_max = corner_uv
    north_y2 = u_max - (v_max - 2 * rect_m)
    south_y2 = (u_max - 2 * rect_n) - v_max
    level_top = (north_y2 - 1) // 2 - p.h1
    level_bot = (south_y2 + 1) // 2 + p.h2
    # these two cuts anchor at the ragged row ends, not at slit phase
    pts = corner_cut(pts, level_top, "below", anchor_offset=3)
    return corner_cut(pts, level_bot, "above", anchor_offset=3)


def build_TA(p):
    if p.variant != "TA":
        raise InvalidParams("params are not TA params")
    return Spec("TA", (p.m, p.n, p.h1, p.h2)).graph()


def build_TB(p):
    if p.variant != "TB":
        raise InvalidParams("params are not TB params")
    return Spec("TB", (p.m, p.n, p.h1, p.h2)).graph()


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


@dataclass(frozen=True)
class WeightPoint:
    x: Fraction
    y: Fraction
    z: Fraction

    def __post_init__(self):
        for t in (self.x, self.y, self.z):
            if t <= 0:
                raise InvalidParams("weights must be positive")

    def as_tuple(self):
        return (self.x, self.y, self.z)


def weight_point(x, y, z):
    return WeightPoint(Fraction(x), Fraction(y), Fraction(z))


def weight_symbols():
    """WEIGHT_TABLE as a unit_edge_table array: 1, 2 or 3 where an edge
    weighs x, y or z, 0 where it weighs 1, -1 where there is no edge."""
    return np.array(unit_edge_table(
        lambda e: "_xyz".index(WEIGHT_TABLE.get(CROSS_OFFSETS[e], "_"))
        if e in CROSS_OFFSETS else -1))


def cross_weightings(g, points):
    """Copies of g carrying the periodic cross weight pattern, one per
    WeightPoint in points, that share g's structure (Graph.with_weights).
    Each edge takes its symbol from the class of its lower-left end
    (weight_symbols), once per call."""
    table = weight_symbols().tolist()
    by_symbol = [[], [], [], []]
    for u, v in g.edges():
        step = (v[0] - u[0], v[1] - u[1])
        sym = table[step[1]][u[0] % 4][u[1] % 4] \
            if step in ((1, 0), (0, 1)) else -1
        if sym < 0:
            raise NotGridB(f"edge {u}-{v} is not a cross-lattice edge")
        by_symbol[sym].append((u, v))
    return [g.with_weights({e: Fraction(t)
                            for t, edges in zip(w.as_tuple(), by_symbol[1:])
                            if t != 1 for e in edges}) for w in points]


def cross_weighted_grids(grids, points):
    """(grid, (w, d)) for each Grid of the cross lattice in grids and, grid
    by grid, each WeightPoint in points, as count_many weights a Grid:
    d is the lcm of the point's denominators, and w is d times the weight
    at table[:, x % 4, y % 4] of one weight_symbols table, in the smallest
    signed dtype that holds it (int_array's objects past int64)."""
    table = np.maximum(weight_symbols(), 0)  # a cell with no edge weighs 1
    ds = [lcm(*(t.denominator for t in w.as_tuple())) for w in points]
    scaled = [int_array([d] + [int(t * d) for t in w.as_tuple()])
              for w, d in zip(points, ds)]
    scaled = [v if v.dtype == object else  # every value is positive
              v.astype(np.min_scalar_type(-1 - int(v.max()))) for v in scaled]
    for grid in grids:
        (x0, y0), (m, n) = grid.origin, grid.occ.shape
        sym = table[:, np.arange(x0, x0 + m)[:, None] % 4,
                    np.arange(y0, y0 + n) % 4]
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
    short_side = 2 * m if variant == "TA" else 2 * m - 1
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

    def _point_set(self):
        """The points of a TR, TA, TB, AR or AAR graph."""
        head, nums = self.head, self.nums
        if head == "TR":
            return tr_points(*nums)
        if head in ("TA", "TB"):
            return trim_rect_points(TrimRectParams(*nums, head))
        if head in ("AR", "AAR"):
            pts = aztec_rectangle_points if head == "AR" \
                else augmented_aztec_points
            return pts(*nums, ALIGN_UV["east"] if self.lat.kind == "cross"
                       else (0, 1))
        raise InvalidParams(f"unknown family {head!r}")

    def _box_size(self):
        """A bound on the points of a TR, TA, TB, AR or AAR graph: the
        cells of its m x n rectangle's rotated box, over twice its points."""
        head, (m, n) = self.head, self.nums[:2]
        if head == "TR":
            m, n = 2 * n + 2 * m - 2, 2 * n + 4 * m - 2
        elif head in ("TA", "TB"):
            m, n = 2 * m - (head == "TB"), 2 * n - (head == "TB")
        return max(2 * m + 1, 0) * max(2 * n + 1, 0)

    def graph(self):
        return next(grids([self])).graph()

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
BUILD_CAP = 2 ** 20  # points that a graph may be bounded by and be built


def _refuse(spec, size):
    """Raise TooLarge if spec spans size points, more than BUILD_CAP."""
    if size > BUILD_CAP:
        raise TooLarge(f"{spec} is too large to build: it spans {size} "
                       f"points, above the build cap of {BUILD_CAP}")


def family_geometry(specs):
    """(corners, cleared) of the A and F graphs that specs name, at once in
    integer arithmetic: an int array (len(specs), 7, 2) of each contour's
    corners in doubled coordinates, (1, 1) and the running sums of its
    side vectors, which must close (NonClosing), and one of rows (k, x, y),
    the points of spec k's stripped sides and trimmed rows.  A spec whose
    corners' box spans more than BUILD_CAP points raises TooLarge first."""
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


def grids(specs):
    """The Grids of the graphs that the Specs in specs name, in order,
    built GRID_BATCH at a time in one stacked array (stacked_grids).  An A
    or F graph is its region's rows (family_geometry, then row_spans) less
    its cleared points; any other graph is its point set, if a bound from
    its parameters (Spec._box_size) keeps it within BUILD_CAP."""
    specs = iter(specs)
    while batch := list(islice(specs, GRID_BATCH)):
        fam = np.array([k for k, spec in enumerate(batch)
                        if spec.head in FAMILY_HEADS], dtype=np.int64)
        others = [(k, spec) for k, spec in enumerate(batch)
                  if spec.head not in FAMILY_HEADS]
        for k, spec in others:
            _refuse(spec, spec._box_size())
        rows, cleared = [], np.zeros((0, 3), dtype=np.int64)
        if len(fam):
            corners, cleared = family_geometry([batch[k] for k in fam])
            rows.append(row_spans(corners))
            for a in (rows[0], cleared):  # from index in fam to in batch
                a[:, 0] = fam[a[:, 0]]
        for k, spec in others:
            x, y = np.fromiter(chain.from_iterable(spec._point_set()),
                               np.int64).reshape(-1, 2).T  # a row each
            rows.append(np.stack([np.full_like(x, k), y, x, x], 1))
        yield from stacked_grids([spec.lat for spec in batch],
                                 np.concatenate(rows), cleared)
