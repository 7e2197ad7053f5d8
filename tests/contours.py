"""The contour walk: the tests' oracle for families.family_geometry.

A contour is a start base point and compass sides.  Contours anchor at
cross centers, which sit at half-integer points, so the walk stores its
corners in doubled coordinates: one diagonal step of a side is
(+-2, +-2), one horizontal unit is (+-2, 0), and a lattice vertex (x, y)
appears as (2x, 2y).  No package module walks a contour; family_geometry
gets the same corners from arithmetic on a table of side vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

from crossdimer.errors import CrossdimerError
from crossdimer.families import _FAMILY_SIDES, _sides
from crossdimer.formulas import InvalidParams, derive_params
from crossdimer.lattice import COMPASS, NonClosing


class SelfIntersecting(CrossdimerError):
    pass


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


def family_contour(i, a, b, c):
    """Six-sided contour of family i in {1,2,3}, anchored at a cross base."""
    p = derive_params(a, b, c)
    if i not in _FAMILY_SIDES:
        raise InvalidParams(f"family index {i} not in 1..3")
    return ContourSpec(family=f"C{i}", start=(0, 0), sides=tuple(
        (comp, u * n) for (comp, u), n in zip(_sides(i, p.case_tall), p)))
