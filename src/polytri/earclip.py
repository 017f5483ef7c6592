"""Ear clipping triangulation.

Two selection policies drive one clipping engine, ``_clip``, which
:func:`polytri.pipeline.triangulate_ring` runs. The traditional policy
walks the ring and clips the first ear it meets, which tends to shave off
long fans of sliver triangles. The angle-aware policy always clips the ear
whose tip has the smallest interior angle, removing the sharpest corner
before it can be split into something worse. Both emit exactly n-2
triangles for an n-vertex ring.

An ear is three consecutive vertices whose tip is convex and whose triangle
closure contains no reflex vertex of the current ring other than the tip's
own neighbours. The ear test asks the ring's reflex grid for the reflex
vertices near the triangle instead of visiting all of them. Ear status is
cached per vertex and refreshed only for the two neighbours of each cut;
the angle-aware policy keeps the flagged ears in a heap with lazily skipped
stale entries, so a cut costs no ring scan. The selected candidate is
re-verified before cutting as a cheap guard against stale flags on
degenerate rings. Worst-case time stays quadratic: a triangle whose box
holds most reflex vertices still visits them all.

Rings produced by bridging holes repeat vertices, and exact coincidences
can starve the literal ear test even though the limit geometry still has
ears. When no ear is found the engine rescans once for the smallest-angle
tip that is an ear when reflex blockers on a corner of the candidate
triangle are exempted, and raises EarSearchFailed if there is none; an
exactly collinear tip is never clipped as a zero-area triangle mid-run.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Optional

from .geom import EPS_AREA, EPS_LEN, GeometryError, Point2
from .polygon import VertexNode, VertexRing, refresh_node, remove_vertex

__all__ = [
    "EarSearchFailed",
    "Triangle",
    "Triangulation",
    "is_ear",
    "update_after_cut",
]


class EarSearchFailed(GeometryError):
    """No clippable ear exists although more than 3 vertices remain.

    Signals self-intersecting input, or features too small for the fixed
    EPS_AREA tolerance. Carries the surviving ring coordinates for
    debugging.
    """

    def __init__(self, ring: VertexRing):
        self.points: list[Point2] = [n.point for n in ring]
        super().__init__(
            f"no ear found with {ring.count} vertices remaining; input is likely "
            "self-intersecting, or its features are below the area tolerance "
            f"EPS_AREA={EPS_AREA:g} (rescale it to roughly unit size)"
        )


class Triangle:
    """Output triangle: three indices into the vertex table, CCW.

    ``nodes`` keeps the originating ring nodes, which tell apart the two
    copies of a vertex on a bridged ring; the improved pass keys its
    adjacency by them. ``degenerate`` marks a zero-area last triangle, left
    over when a bridge slit collapses; it is excluded from quality
    statistics.
    """

    __slots__ = ("a", "b", "c", "nodes", "degenerate")

    def __init__(
        self, na: VertexNode, nb: VertexNode, nc: VertexNode, degenerate: bool = False
    ):
        self.nodes = (na, nb, nc)
        self.a = na.original_index
        self.b = nb.original_index
        self.c = nc.original_index
        self.degenerate = degenerate

    def indices(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def points(self) -> tuple[Point2, Point2, Point2]:
        na, nb, nc = self.nodes
        return (na.point, nb.point, nc.point)

    def __repr__(self) -> str:
        flag = " degenerate" if self.degenerate else ""
        return f"Triangle({self.a},{self.b},{self.c}{flag})"


class Triangulation:
    """Triangles over an immutable vertex table, in emission order.

    No adjacency is kept here; ``swap_count`` counts the diagonal swaps the
    improved pass made on the stored triangles.
    """

    def __init__(self, vertex_table: tuple[Point2, ...]):
        self.vertex_table = vertex_table
        self.triangles: list[Triangle] = []
        self.swap_count = 0

    def add_triangle(
        self, na: VertexNode, nb: VertexNode, nc: VertexNode, degenerate: bool = False
    ) -> int:
        """Append the triangle and return its position in ``triangles``."""
        self.triangles.append(Triangle(na, nb, nc, degenerate))
        return len(self.triangles) - 1

    @property
    def degenerate_count(self) -> int:
        return sum(1 for t in self.triangles if t.degenerate)

    def __len__(self) -> int:
        return len(self.triangles)

    def __repr__(self) -> str:
        return (
            f"Triangulation({len(self.vertex_table)} vertices, "
            f"{len(self.triangles)} triangles)"
        )


def is_ear(
    ring: VertexRing, v: VertexNode, corner_twins: bool = False
) -> bool:
    """Ear test for tip ``v`` against the current ring state.

    True iff ``v`` is convex and no reflex vertex of the ring, other than
    ``v.prev`` and ``v.next``, lies in the closure of the tip triangle. Only
    the reflex vertices that ``ring.reflex`` returns for the triangle's
    padded bounding box are tested, against the live ring state.

    With ``corner_twins`` a reflex vertex within EPS_LEN of a triangle corner
    does not block: the bridge duplicate of a corner lies on the closure even
    when the limit geometry keeps it outside. Only the fallback uses this.
    """
    if not v.is_convex:
        return False
    p = v.prev
    n = v.next
    ax, ay = p.x, p.y
    bx, by = v.x, v.y
    cx, cy = n.x, n.y
    abx, aby = bx - ax, by - ay
    bcx, bcy = cx - bx, cy - by
    cax, cay = ax - cx, ay - cy
    neg = -EPS_AREA
    # A point passing all three closure tests lies within EPS_AREA/min_side
    # of the triangle, so the bounding box can be padded by that margin and
    # stay conservative.
    margin = EPS_AREA / math.sqrt(
        min(abx * abx + aby * aby, bcx * bcx + bcy * bcy, cax * cax + cay * cay)
    )
    minx = min(ax, bx, cx) - margin
    maxx = max(ax, bx, cx) + margin
    miny = min(ay, by, cy) - margin
    maxy = max(ay, by, cy) + margin
    for r in ring.reflex.query(minx, miny, maxx, maxy):
        if r is p or r is n:
            continue
        px = r.x
        py = r.y
        if px < minx or px > maxx or py < miny or py > maxy:
            continue
        if abx * (py - ay) - aby * (px - ax) < neg:
            continue
        if bcx * (py - by) - bcy * (px - bx) < neg:
            continue
        if cax * (py - cy) - cay * (px - cx) < neg:
            continue
        if corner_twins and (
            math.hypot(px - ax, py - ay) <= EPS_LEN
            or math.hypot(px - bx, py - by) <= EPS_LEN
            or math.hypot(px - cx, py - cy) <= EPS_LEN
        ):
            continue
        return False
    return True


def update_after_cut(
    ring: VertexRing, left: VertexNode, right: VertexNode
) -> None:
    """Refresh the two neighbours of a cut: angle, convexity, ear status.

    Geometry first for both nodes, then ear tests, so each neighbour's ear
    test sees the other's updated reflex status. A neighbour flagged as an
    ear is pushed onto the ear heap once that exists. No other node is
    touched.
    """
    refresh_node(ring, left)
    refresh_node(ring, right)
    left.is_ear = is_ear(ring, left) if left.is_convex else False
    right.is_ear = is_ear(ring, right) if right.is_convex else False
    if ring.ears is not None:
        for node in (left, right):
            if node.is_ear:
                heapq.heappush(ring.ears, (*_ear_key(node), node))


def _ear_key(node: VertexNode) -> tuple[float, int, int]:
    """Selection order: smallest interior angle, then smallest original
    index, then earliest ring position, so runs are reproducible."""
    return (node.interior_angle, node.original_index, node.seq)


def _select_smallest_angle(ring: VertexRing) -> Optional[VertexNode]:
    """Flagged ear with the minimal :func:`_ear_key`, re-verified before use.

    Reads the top of ``ring.ears``, a heap of ``(*key, node)`` entries
    built from the ear flags on the first call and fed by
    :func:`update_after_cut`, popping stale entries: those whose node lost
    the flag, changed angle or left the ring. Every live flagged node has a
    current entry, so the first live entry is the minimum a full ring scan
    would find. No tiebreaker is needed: ``seq`` is unique within a ring, so
    entries of different nodes differ before the node, and equal entries of
    one node compare equal by identity without ordering nodes. Returns None
    when no flagged ear survives re-verification.
    """
    ears = ring.ears
    if ears is None:
        ears = ring.ears = [(*_ear_key(node), node) for node in ring if node.is_ear]
        heapq.heapify(ears)
    while ears:
        angle, _, _, node = ears[0]
        if node.is_ear and node.interior_angle == angle and node.prev.next is node:
            if is_ear(ring, node):
                return node
            node.is_ear = False
        heapq.heappop(ears)
    return None


def _select_next_sequential(
    ring: VertexRing, start: VertexNode
) -> Optional[VertexNode]:
    """First flagged-and-verified ear at or after ``start`` in ring order."""
    node = start
    for _ in range(ring.count):
        if node.is_ear:
            if is_ear(ring, node):
                return node
            node.is_ear = False
        node = node.next
    return None


def _select_fallback(ring: VertexRing) -> VertexNode:
    """Last resort when no literal ear exists.

    Returns the smallest-angle tip, with the same tie-breaks as the normal
    selection, that is an ear once reflex blockers on a corner of its
    triangle are exempted. Raises EarSearchFailed when there is none.
    """
    best = min(
        (v for v in ring if v.is_convex and is_ear(ring, v, corner_twins=True)),
        key=_ear_key,
        default=None,
    )
    if best is None:
        raise EarSearchFailed(ring)
    return best


def _clip(
    ring: VertexRing,
    smallest_angle: bool,
    *,
    post_emit: Optional[Callable[[Triangulation, int], None]] = None,
) -> Triangulation:
    """Shared clipping loop; emits n-2 triangles and returns the result."""
    tri = Triangulation(ring.table)
    for node in ring:
        node.is_ear = is_ear(ring, node) if node.is_convex else False
    cursor = ring.head
    while ring.count > 3:
        if smallest_angle:
            v = _select_smallest_angle(ring)
        else:
            v = _select_next_sequential(ring, cursor)
        if v is None:
            v = _select_fallback(ring)
        left, right = v.prev, v.next
        tid = tri.add_triangle(left, v, right)
        remove_vertex(ring, v)
        update_after_cut(ring, left, right)
        cursor = right
        if post_emit is not None:
            post_emit(tri, tid)
    h = ring.head
    a, b, c = h, h.next, h.next.next
    z = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    tid = tri.add_triangle(a, b, c, degenerate=0.5 * abs(z) <= EPS_AREA)
    if post_emit is not None:
        post_emit(tri, tid)
    return tri

