"""Low-level 2D predicates and measurements.

Everything here is scalar float math over immutable points. One fixed
tolerance policy serves the whole library, so nothing else compares raw
floats: cross products are tested against the absolute area tolerance
``EPS_AREA``, point coincidence against the length tolerance ``EPS_LEN``.
The absolute tolerances suit coordinates in roughly the unit-to-thousands
range; rescale wilder inputs before use.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Sequence

__all__ = [
    "GeometryError",
    "InvalidRing",
    "DegenerateVertex",
    "DegenerateTriangle",
    "Point2",
    "EPS_AREA",
    "EPS_LEN",
    "Orientation",
    "cross2",
    "orientation",
    "signed_area",
    "points_close",
    "point_in_triangle_closure",
    "point_on_segment",
    "segments_properly_cross",
    "triangle_angles",
    "point_in_ring",
]


class GeometryError(Exception):
    """A geometric operation received input it cannot handle."""


class InvalidRing(GeometryError):
    """Ring has too few vertices, non-finite coordinates, or no area."""


class DegenerateVertex(GeometryError):
    """Vertex coincides with one of its neighbours."""


class DegenerateTriangle(GeometryError):
    """Triangle with (near-)zero area where a proper one is required."""


class Point2(NamedTuple):
    """Immutable 2D point, double precision."""

    x: float
    y: float


# Bound on |cross product| below which three points count as collinear.
EPS_AREA = 1e-12
# Distance below which two points count as coincident.
EPS_LEN = 1e-9


class Orientation(Enum):
    RIGHT = -1
    COLLINEAR = 0
    LEFT = 1


def cross2(a: Point2, b: Point2, c: Point2) -> float:
    """z component of (b - a) x (c - a); twice the signed area of abc."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def orientation(a: Point2, b: Point2, c: Point2) -> Orientation:
    """Turn direction of the path a -> b -> c.

    LEFT for a counter-clockwise turn, RIGHT for clockwise, COLLINEAR when
    |cross product| <= EPS_AREA.
    """
    z = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if z > EPS_AREA:
        return Orientation.LEFT
    if z < -EPS_AREA:
        return Orientation.RIGHT
    return Orientation.COLLINEAR


def signed_area(ring: Sequence[Point2]) -> float:
    """Shoelace area of a closed vertex loop; positive iff counter-clockwise.

    Raises InvalidRing for fewer than 3 points. Uses compensated summation so
    long rings with large coordinates stay accurate.
    """
    n = len(ring)
    if n < 3:
        raise InvalidRing(f"need at least 3 points, got {n}")
    terms = []
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        terms.append(x0 * y1 - x1 * y0)
    return 0.5 * math.fsum(terms)


def points_close(a: Point2, b: Point2) -> bool:
    return math.hypot(b[0] - a[0], b[1] - a[1]) <= EPS_LEN


def point_in_triangle_closure(
    p: Point2, a: Point2, b: Point2, c: Point2
) -> bool:
    """True iff ``p`` lies inside triangle abc or on its boundary.

    Three orientation tests; a collinear verdict counts as on-boundary and
    therefore inside the closure. Works for either winding of abc.
    """
    e = EPS_AREA
    z1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    z2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
    z3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
    if z1 >= -e and z2 >= -e and z3 >= -e:
        return True
    return z1 <= e and z2 <= e and z3 <= e


def point_on_segment(a: Point2, b: Point2, p: Point2) -> bool:
    """True iff ``p`` lies on segment ab (endpoints included)."""
    if orientation(a, b, p) is not Orientation.COLLINEAR:
        return False
    t = EPS_LEN
    return (
        min(a[0], b[0]) - t <= p[0] <= max(a[0], b[0]) + t
        and min(a[1], b[1]) - t <= p[1] <= max(a[1], b[1]) + t
    )


def segments_properly_cross(
    p1: Point2, p2: Point2, q1: Point2, q2: Point2
) -> bool:
    """True iff segments p1p2 and q1q2 share a point beyond a common endpoint.

    Touching at one shared endpoint does not count. Everything else that
    shares at least one point does: interior crossings, T-contacts where an
    endpoint of one lies inside the other, collinear overlaps, and identical
    segments.
    """
    s11 = points_close(p1, q1)
    s12 = points_close(p1, q2)
    s21 = points_close(p2, q1)
    s22 = points_close(p2, q2)
    shared = s11 + s12 + s21 + s22
    if shared >= 2:
        return True  # same segment (possibly reversed)
    if shared == 1:
        # One common endpoint: a further shared point exists only when the
        # segments overlap collinearly past it.
        if s11:
            return point_on_segment(q1, q2, p2) or point_on_segment(p1, p2, q2)
        if s12:
            return point_on_segment(q1, q2, p2) or point_on_segment(p1, p2, q1)
        if s21:
            return point_on_segment(q1, q2, p1) or point_on_segment(p1, p2, q2)
        return point_on_segment(q1, q2, p1) or point_on_segment(p1, p2, q1)
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)
    col = Orientation.COLLINEAR
    if o1 is not col and o2 is not col and o3 is not col and o4 is not col:
        return o1 is not o2 and o3 is not o4
    # Some endpoint is collinear with the other segment: shared points exist
    # iff an endpoint actually lies on the other segment.
    return (
        point_on_segment(p1, p2, q1)
        or point_on_segment(p1, p2, q2)
        or point_on_segment(q1, q2, p1)
        or point_on_segment(q1, q2, p2)
    )


def triangle_angles(
    a: Point2, b: Point2, c: Point2
) -> tuple[float, float, float]:
    """The three interior angles of triangle abc in degrees, at a, b, c.

    Uses atan2 of (|cross|, dot) at each corner, which stays accurate for
    sliver triangles where acos-based formulas lose digits. Raises
    DegenerateTriangle when the area is not above EPS_AREA.
    """
    z = cross2(a, b, c)
    if 0.5 * abs(z) <= EPS_AREA:
        raise DegenerateTriangle(f"triangle {a}, {b}, {c} has (near-)zero area")

    def corner(v: Point2, p: Point2, q: Point2) -> float:
        ux, uy = p[0] - v[0], p[1] - v[1]
        wx, wy = q[0] - v[0], q[1] - v[1]
        return math.degrees(math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy))

    return corner(a, b, c), corner(b, c, a), corner(c, a, b)


def point_in_ring(p: Point2, ring: Sequence[Point2]) -> bool:
    """Even-odd ray casting containment test; boundary points are unreliable."""
    px, py = p
    inside = False
    n = len(ring)
    x1, y1 = ring[-1]
    for i in range(n):
        x2, y2 = ring[i]
        if (y1 > py) != (y2 > py):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xint:
                inside = not inside
        x1, y1 = x2, y2
    return inside
