"""Low-level 2D predicates and measurements.

Everything here is scalar float math over immutable points. One fixed
tolerance policy serves the whole library, so nothing else compares raw
floats: cross products are tested against the absolute area tolerance
``EPS_AREA``, point coincidence against the length tolerance ``EPS_LEN``.
A triangle (a, b, c) is degenerate exactly when ``EPS_AREA`` bounds the
cross product at its middle corner b, ``(c - b) x (a - b)``: the float that
``polygon.refresh_node`` tests to call b convex, so a convex tip and its
two neighbours never make a degenerate triangle.
The absolute tolerances suit coordinates in roughly the unit-to-thousands
range; rescale wilder inputs before use.

Angles come out in degrees by one multiply with ``_DEG``, which is
``math.degrees(1.0)``: CPython computes ``math.degrees(x)`` as that constant
times ``x``, rounded once, so the product is the same float without the
call. ``triangle_min_angle_xy`` takes the smallest of the three radian
angles and converts only that one; rounding a product by a positive
constant is monotone, so it equals ``min(triangle_angles_xy(...))``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

__all__ = [
    "GeometryError",
    "InvalidRing",
    "DegenerateVertex",
    "DegenerateTriangle",
    "Point2",
    "EPS_AREA",
    "EPS_LEN",
    "orientation",
    "signed_area",
    "points_close",
    "point_on_segment",
    "segments_properly_cross",
    "triangle_angles_xy",
    "triangle_min_angle_xy",
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


# Bound on |cross product| at or below which three points count as collinear.
EPS_AREA = 1e-12
# Distance below which two points count as coincident.
EPS_LEN = 1e-9
# Degrees per radian: x * _DEG is math.degrees(x), bit for bit.
_DEG = math.degrees(1.0)


def orientation(a: Point2, b: Point2, c: Point2) -> int:
    """Turn direction of the path a -> b -> c, as the sign of its turn.

    1 for a counter-clockwise (left) turn, -1 for clockwise (right), 0 for
    collinear, meaning |cross product| <= EPS_AREA.
    """
    z = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if z > EPS_AREA:
        return 1
    if z < -EPS_AREA:
        return -1
    return 0


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


def point_on_segment(a: Point2, b: Point2, p: Point2) -> bool:
    """True iff ``p`` lies on segment ab (endpoints included)."""
    if orientation(a, b, p) != 0:
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
        # segments overlap collinearly past it, that is when the unshared
        # endpoint of one segment lies on the other.
        p = p1 if s21 or s22 else p2
        q = q1 if s12 or s22 else q2
        return point_on_segment(q1, q2, p) or point_on_segment(p1, p2, q)
    return _segments_meet(p1, p2, q1, q2)


def _segments_meet(p1: Point2, p2: Point2, q1: Point2, q2: Point2) -> bool:
    """:func:`segments_properly_cross` for segments with no endpoint of one
    within EPS_LEN of an endpoint of the other: True iff they share a point."""
    o1 = orientation(p1, p2, q1)
    o2 = orientation(p1, p2, q2)
    o3 = orientation(q1, q2, p1)
    o4 = orientation(q1, q2, p2)
    if o1 and o2 and o3 and o4:
        return o1 != o2 and o3 != o4
    # Some endpoint is collinear with the other segment: shared points exist
    # iff an endpoint actually lies on the other segment.
    return (
        point_on_segment(p1, p2, q1)
        or point_on_segment(p1, p2, q2)
        or point_on_segment(q1, q2, p1)
        or point_on_segment(q1, q2, p2)
    )


def triangle_angles_xy(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> tuple[float, float, float]:
    """The interior angles in degrees at (ax, ay), (bx, by) and (cx, cy).

    Uses atan2 of (|cross|, dot) at each corner, which stays accurate for
    sliver triangles where acos-based formulas lose digits. Raises
    DegenerateTriangle when EPS_AREA bounds the absolute cross product at
    the middle corner (see the module docstring); that cross product then
    gives the angle at (bx, by). Hot loops pass vertex coordinates here
    directly rather than building points.
    """
    # At each corner v with neighbours p, q (in the order a-b-c, b-c-a, c-a-b):
    # u = p - v, w = q - v, angle = atan2(|u x w|, u . w).
    ux, uy, wx, wy = cx - bx, cy - by, ax - bx, ay - by
    z = ux * wy - uy * wx
    if abs(z) <= EPS_AREA:
        raise DegenerateTriangle(
            f"triangle {Point2(ax, ay)}, {Point2(bx, by)}, {Point2(cx, cy)} has (near-)zero area"
        )
    atan2 = math.atan2
    at_b = atan2(abs(z), ux * wx + uy * wy) * _DEG
    ux, uy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay
    at_a = atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy) * _DEG
    ux, uy, wx, wy = ax - cx, ay - cy, bx - cx, by - cy
    at_c = atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy) * _DEG
    return at_a, at_b, at_c


def triangle_min_angle_xy(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> float:
    """The smallest interior angle in degrees, ``min(triangle_angles_xy(...))``.

    Raises DegenerateTriangle exactly where ``triangle_angles_xy`` does, by
    the same cross product at the middle corner. The three radian angles
    are compared in the order the builtin ``min`` would compare their
    degrees, a then b then c, and only the smallest is converted (see the
    module docstring).
    """
    ux, uy, wx, wy = cx - bx, cy - by, ax - bx, ay - by
    z = ux * wy - uy * wx
    if abs(z) <= EPS_AREA:
        raise DegenerateTriangle(
            f"triangle {Point2(ax, ay)}, {Point2(bx, by)}, {Point2(cx, cy)} has (near-)zero area"
        )
    atan2 = math.atan2
    at_b = atan2(abs(z), ux * wx + uy * wy)
    ux, uy, wx, wy = bx - ax, by - ay, cx - ax, cy - ay
    low = atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
    if at_b < low:
        low = at_b
    ux, uy, wx, wy = ax - cx, ay - cy, bx - cx, by - cy
    at = atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy)
    if at < low:
        low = at
    return low * _DEG


def _box(pts: Sequence[Point2]) -> tuple[float, float, float, float]:
    """``(min x, min y, max x, max y)`` of ``pts``, which need ``x`` and ``y``."""
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


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
