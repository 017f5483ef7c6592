"""Hole elimination via bridge edges.

A polygon with holes is turned into a single ring by repeatedly joining the
current boundary to one hole with the shortest valid connecting segment.
The bridge is traversed twice, once in each direction, so its endpoints
appear twice in the output: a counter-clockwise ring with a zero-width slit
cut into each hole. Merging a hole of n vertices into a ring of m vertices
yields m + n + 2 vertices, and the enclosed area drops by the hole's area.

Candidate bridges are every (ring vertex, hole vertex) pair, tried in order
of increasing length. A candidate is valid when it does not share a point
with any edge of the current ring, the hole, or any hole still waiting to
be merged, beyond the candidate's own endpoints. Checking the pending holes
goes beyond just the two rings being joined, but without it a bridge can
slice through a later hole and corrupt the ring.

A candidate must additionally leave each endpoint through the interior
angular wedge there: out of the ring vertex between its two incident edges,
and into the hole vertex between its two incident edges on the outside of
the hole. The crossing test alone cannot see this because it exempts
contacts at the candidate's own endpoints; in particular, when an earlier
bridge already duplicated a vertex, the duplicates share coordinates but
have different wedges, and splicing into the wrong copy would make the
merged ring cross itself at that point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geom import EPS_LEN, GeometryError, Point2, segments_properly_cross
from .polygon import PolygonWithHoles, Ring, _ring_edges

__all__ = ["NoValidBridge", "BridgeEdge", "DegenerateRing", "find_bridge", "merge_hole", "eliminate_holes"]


class NoValidBridge(GeometryError):
    """Every candidate segment between ring and hole was obstructed."""


@dataclass(frozen=True)
class BridgeEdge:
    """A chosen connection between the current ring and a hole.

    Endpoints are (ring id, position) pairs: ring id 0 is the ring being
    merged into (the outer boundary, possibly already carrying earlier
    holes), and hole ring ids count holes in input order starting at 1.
    Positions index into the respective ring's vertex list.
    """

    outer_vertex: tuple[int, int]
    hole_vertex: tuple[int, int]
    length: float


@dataclass(frozen=True)
class DegenerateRing:
    """Single CCW ring equivalent to a polygon with its holes slit open.

    ``indices`` maps each ring position to its index in the flattened input
    vertex table; bridge duplicates repeat the index of the vertex they
    duplicate, so downstream triangles always reference real input vertices.
    """

    ring: Ring
    indices: tuple[int, ...]
    bridges: tuple[BridgeEdge, ...]


def _in_wedge(v: Point2, toward_next: Point2, toward_prev: Point2, target: Point2) -> bool:
    """True iff the ray v->target lies strictly inside the CCW wedge at v.

    The wedge opens from direction v->toward_next counter-clockwise to
    direction v->toward_prev, matching how interior angles are measured on
    a CCW ring.
    """
    a_prev = math.atan2(toward_prev.y - v.y, toward_prev.x - v.x)
    a_next = math.atan2(toward_next.y - v.y, toward_next.x - v.x)
    a_t = math.atan2(target.y - v.y, target.x - v.x)
    size = (a_prev - a_next) % (2.0 * math.pi)
    off = (a_prev - a_t) % (2.0 * math.pi)
    return 0.0 < off < size


def find_bridge(
    current: Ring,
    hole: Ring,
    obstacles: Sequence[Ring] = (),
    hole_id: int = 1,
) -> BridgeEdge:
    """Shortest unobstructed segment joining ``current`` to ``hole``.

    All m*n vertex pairs are sorted by length (ties: smaller ring position,
    then smaller hole position) and scanned until one neither crosses nor
    grazes any edge of the involved rings and enters the interior wedge at
    both of its endpoints. Zero-length candidates, where a ring vertex
    coincides with a hole vertex, are skipped: they would create a null
    slit. Raises NoValidBridge if every candidate is obstructed.
    """
    cpts = current.points
    hpts = hole.points
    m = len(cpts)
    k = len(hpts)
    candidates = sorted(
        (math.hypot(c.x - h.x, c.y - h.y), i, j)
        for i, c in enumerate(cpts)
        for j, h in enumerate(hpts)
    )
    edges = _ring_edges(current) + _ring_edges(hole)
    for obstacle in obstacles:
        edges.extend(_ring_edges(obstacle))
    for length, i, j in candidates:
        if length <= EPS_LEN:
            continue
        a, b = cpts[i], hpts[j]
        # Out of the ring vertex between its incident edges (the ring is
        # CCW), and into the hole vertex between its incident edges seen
        # from outside the hole (the hole is CW, so prev/next swap roles).
        if not _in_wedge(a, cpts[(i + 1) % m], cpts[i - 1], b):
            continue
        if not _in_wedge(b, hpts[(j + 1) % k], hpts[j - 1], a):
            continue
        if any(segments_properly_cross(a, b, e1, e2) for e1, e2 in edges):
            continue
        return BridgeEdge((0, i), (hole_id, j), length)
    raise NoValidBridge(
        f"all {len(cpts)}x{len(hpts)} bridge candidates are obstructed; "
        "input polygon is likely malformed"
    )


def _splice(cur: tuple, hole: tuple, i: int, j: int) -> tuple:
    """Insert ``hole`` into ``cur`` after position i, entering at position j.

    The hole is walked once around from j back to j (j repeated), then the
    anchor cur[i] is repeated to close the slit: len(cur) + len(hole) + 2
    entries total.
    """
    return cur[: i + 1] + hole[j:] + hole[:j] + (hole[j], cur[i]) + cur[i + 1 :]


def merge_hole(current: Ring, hole: Ring, b: BridgeEdge) -> Ring:
    """Join ``hole`` into ``current`` along bridge ``b``.

    The hole is traversed in its stored clockwise order starting and ending
    at the bridged hole vertex, so the result stays counter-clockwise with
    area equal to the current area minus the hole's. Both bridge endpoints
    appear twice.
    """
    return Ring(_splice(current.points, hole.points, b.outer_vertex[1], b.hole_vertex[1]))


def eliminate_holes(poly: PolygonWithHoles) -> DegenerateRing:
    """Merge every hole into the outer ring, one bridge at a time.

    Holes are processed in input order; each bridge search treats the holes
    still waiting as obstacles. A polygon without holes passes through
    unchanged. Expects a normalized polygon.
    """
    m = len(poly.outer)
    cur_pts = poly.outer.points
    cur_idx = tuple(range(m))
    offsets = []
    off = m
    for h in poly.holes:
        offsets.append(off)
        off += len(h)
    bridges = []
    for h, hole in enumerate(poly.holes):
        b = find_bridge(Ring(cur_pts), hole, poly.holes[h + 1 :], hole_id=h + 1)
        i, j = b.outer_vertex[1], b.hole_vertex[1]
        hole_idx = tuple(range(offsets[h], offsets[h] + len(hole)))
        cur_pts = _splice(cur_pts, hole.points, i, j)
        cur_idx = _splice(cur_idx, hole_idx, i, j)
        bridges.append(b)
    return DegenerateRing(Ring(cur_pts), cur_idx, tuple(bridges))
