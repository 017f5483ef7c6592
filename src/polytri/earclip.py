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
own neighbours. The ear test asks the ring's reflex index for the reflex
vertices near the triangle instead of visiting all of them: each row of the
index that the triangle's box spans is bisected to the box's x-range, and a
triangle wider than tall is clipped to the triangle row by row (see
``ReflexGrid``).

Ear flags are tested on demand. Removing an ear changes the ear status of
its two neighbours only (Eberly, "Triangulation by Ear Clipping", 2002), so
a cut refreshes those two and leaves every other flag as it is. Every
convex node when the clip starts, and each convex neighbour after a cut,
gets a pending flag (``is_ear`` None) stamped with the number of cuts made
so far (``ring.clock``); the angle-aware policy pushes it onto a heap of
ear candidates with lazily skipped stale entries, so a cut costs no ring
scan. Only the selection resolves a pending flag, when the heap top or the
traditional cursor reaches it, by one ear test; a node refreshed again or
clipped before that is never tested. That test runs against the reflex set
as of the stamp, not the current one, so it gives the flag that a test at
the time of the stamp would have given. One index serves both:
``ring.reflex`` never loses a member, so a test as of a stamp skips the
members that had turned convex by then (``gone_at``), and a test of the
current ring skips the members that are convex now.

A resolved ear flag is trusted without a new test: since its stamp the tip,
its neighbours and every reflex vertex stayed where they were, and while
the reflex set only loses members the test would pass again. The one
exception is a cut neighbour that turns reflex, which takes a degenerate
ring: the neighbour becomes a zero-width spike or meets a coincident
vertex, as where bridge twins or touching holes repeat a point.
``ring.reflex_grown`` records it. From then on a cut tests its neighbours
at once, against the current reflex set, and the selection re-tests the
chosen tip for the rest of the clip. A flag stamped before the growth still
resolves exactly: nothing had joined the reflex set by its stamp, and a new
member's ``gone_at`` of -1 hides it from every stamp.

Worst-case time stays quadratic: an ear whose box holds most reflex
vertices still visits them all unless the triangle clip cuts them away,
and a box at least as tall as wide is never clipped.

Rings produced by bridging holes repeat vertices, and exact coincidences
can starve the literal ear test even though the limit geometry still has
ears. When no ear is found the engine rescans once for the smallest-angle
tip that is an ear when reflex blockers on a corner of the candidate
triangle are exempted, and raises EarSearchFailed if there is none; an
exactly collinear tip is never clipped as a zero-area triangle mid-run.
"""

from __future__ import annotations

import heapq
import logging
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

log = logging.getLogger("polytri")


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
    ring: VertexRing, v: VertexNode, corner_twins: bool = False, stamp: Optional[int] = None
) -> bool:
    """Ear test for tip ``v`` against the current ring state, or as of a cut.

    True iff ``v`` is convex and no reflex vertex of the ring, other than
    ``v.prev`` and ``v.next``, lies in the closure of the tip triangle: in
    its bounding box padded by EPS_AREA over the shortest side, and on the
    inner side of each edge up to EPS_AREA. Only the members that
    ``ring.reflex`` returns for that box and tip, a superset of the ones
    passing those tests, are tested, against the live ring state. The index
    keeps members that are no longer reflex, so one filter after the
    closure tests picks the reflex set: the members that are not convex.

    With ``stamp`` the reflex set is the one as of cut ``stamp``: the
    members whose ``gone_at`` exceeds it. That is exact for a stamp set
    before ``ring.reflex_grown``; the selection uses it to resolve a pending
    flag, whose tip and neighbours are those of its stamp.

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
    # The padded box is part of the predicate, not a filter that the closure
    # tests would make redundant: they reach about d / sin(theta / 2) past a
    # corner of angle theta, with d = EPS_AREA / (edge length), which on a
    # sliver is far more than this margin.
    margin = EPS_AREA / math.sqrt(
        min(abx * abx + aby * aby, bcx * bcx + bcy * bcy, cax * cax + cay * cay)
    )
    minx = min(ax, bx, cx) - margin
    maxx = max(ax, bx, cx) + margin
    miny = min(ay, by, cy) - margin
    maxy = max(ay, by, cy) + margin
    for r in ring.reflex.query(minx, miny, maxx, maxy, v):
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
        if (r.is_convex if stamp is None else r.gone_at <= stamp):
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

    Counts the cut in ``ring.clock``, then refreshes both nodes before
    either flag is set, so each flag sees the other's updated reflex status.
    A convex neighbour gets a pending flag stamped with the new count (in
    :func:`refresh_node`), or a fresh ear test once ``ring.reflex_grown``
    is set (a neighbour that turns reflex sets it), and is pushed onto the
    ear heap once that exists unless the test failed. No other node is
    touched.
    """
    ring.clock += 1
    refresh_node(ring, left)
    refresh_node(ring, right)
    grown = ring.reflex_grown
    ears = ring.ears
    for node in (left, right):
        if node.is_convex:
            node.is_ear = is_ear(ring, node) if grown else None
            if ears is not None and node.is_ear is not False:
                heapq.heappush(ears, (*_ear_key(node), node))


def _ear_key(node: VertexNode) -> tuple[float, int, int]:
    """Selection order: smallest interior angle, then smallest original
    index, then earliest ring position, so runs are reproducible."""
    return (node.interior_angle, node.original_index, node.seq)


def _select_smallest_angle(ring: VertexRing) -> Optional[VertexNode]:
    """Ear with the minimal :func:`_ear_key`.

    Reads the top of ``ring.ears``, a heap of ``(*key, node)`` entries for
    the nodes flagged as ears or pending, built from the flags on the first
    call and fed by :func:`update_after_cut`, popping stale entries: those
    whose node lost the flag, changed angle or left the ring. A pending flag
    at the top is resolved by an ear test as of its stamp and popped when
    that fails. Every live node flagged or pending has a current entry, so
    the first live entry that passes is the ear with the minimal key, as a
    full ring scan would find. No tiebreaker is needed: ``seq`` is unique
    within a ring, so entries of different nodes differ before the node,
    and equal entries of one node compare equal by identity without
    ordering nodes. A set flag is trusted until ``ring.reflex_grown`` is
    set (see the module docstring); after that the candidate is re-tested
    and dropped when it fails. Returns None when no ear is left.
    """
    ears = ring.ears
    if ears is None:
        ears = ring.ears = [
            (*_ear_key(node), node) for node in ring if node.is_ear is not False
        ]
        heapq.heapify(ears)
    while ears:
        angle, _, _, node = ears[0]
        flag = node.is_ear
        if flag is not False and node.interior_angle == angle and node.prev.next is node:
            if flag is None:
                flag = node.is_ear = is_ear(ring, node, stamp=node.stamp)
            if flag:
                if not ring.reflex_grown or is_ear(ring, node):
                    return node
                node.is_ear = False
        heapq.heappop(ears)
    return None


def _select_next_sequential(
    ring: VertexRing, start: VertexNode
) -> Optional[VertexNode]:
    """First ear at or after ``start`` in ring order.

    Pending flags on the way are resolved, and set flags trusted, as in
    :func:`_select_smallest_angle`; set flags are re-tested once
    ``ring.reflex_grown`` is set.
    """
    node = start
    for _ in range(ring.count):
        flag = node.is_ear
        if flag is None:
            flag = node.is_ear = is_ear(ring, node, stamp=node.stamp)
        if flag:
            if not ring.reflex_grown or is_ear(ring, node):
                return node
            node.is_ear = False
        node = node.next
    return None


def _select_fallback(ring: VertexRing) -> VertexNode:
    """Last resort when no literal ear exists.

    Returns the smallest-angle tip, with the same tie-breaks as the normal
    selection, that is an ear once reflex blockers on a corner of its
    triangle are exempted, and logs it at debug level. Raises
    EarSearchFailed when there is none.
    """
    best = min(
        (v for v in ring if v.is_convex and is_ear(ring, v, corner_twins=True)),
        key=_ear_key,
        default=None,
    )
    if best is None:
        raise EarSearchFailed(ring)
    log.debug("fallback: no literal ear, clipping tip %d with %d vertices left",
              best.original_index, ring.count)
    return best


def _clip(
    ring: VertexRing,
    smallest_angle: bool,
    *,
    post_emit: Optional[Callable[[Triangulation, int], None]] = None,
) -> Triangulation:
    """Shared clipping loop over a ring fresh from ``build_ring`` (every node
    stamped 0, so every convex one starts pending); emits n-2 triangles."""
    tri = Triangulation(ring.table)
    for node in ring:
        node.is_ear = None if node.is_convex else False
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

