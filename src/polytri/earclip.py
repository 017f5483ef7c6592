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
own neighbours. The ear test walks the rows of the ring's reflex index
instead of visiting every reflex vertex: each row that the triangle's box
spans is bisected to the box's x-range, a triangle wider than tall is first
clipped to the triangle row by row, and each member reached is tested in
place, so the first blocker ends the test (see ``ReflexGrid`` and
``is_ear``). The index is the clip's own: ``_start_flags`` builds it from
the live ring when the clip starts, and again only when it restarts.

Ear flags are tested on demand. Removing an ear changes the ear status of
its two neighbours only (Eberly, "Triangulation by Ear Clipping", 2002), so
a cut refreshes those two and leaves every other flag as it is. Every
convex node when the clip starts (``_start_flags``), and each convex
neighbour after a cut (``update_after_cut``), gets a pending flag
(``is_ear`` None) stamped (``stamp``) with the number of cuts made so far
(``ring.clock``); the angle-aware policy pushes it onto a heap of ear
candidates (``ring.ears``) with lazily skipped stale entries, so a cut
costs no ring scan. Only the selection resolves a pending flag,
when the heap top or the traditional cursor reaches it, by one ear test; a
node refreshed again or clipped before that is never tested. That test runs
against the reflex set as of the stamp, not the current one, so it gives
the flag that a test at the time of the stamp would have given. The index
``ring.reflex`` never loses a member, so the test skips the members that
had turned convex by its stamp (``gone_at``, the cut that left a member
convex), or by the current cut when no stamp is given; it rejects these
dead members first, before any geometry. The box of the tip triangle is
built by comparison chains rather than builtin ``min``/``max`` calls (see
the README's design notes).

A resolved ear flag is trusted without a new test: since its stamp the tip,
its neighbours and every reflex vertex stayed where they were, and while
the reflex set only loses members the test would pass again. A cut
neighbour that turns reflex, which takes a degenerate ring (the neighbour
becomes a zero-width spike or meets a coincident vertex, as where bridge
twins or touching holes repeat a point), restarts this bookkeeping by the
same ``_start_flags`` call that starts the clip: ``ring.reflex`` is rebuilt
from the live ring, every live node gets a flag stamped with that cut,
pending if convex, and the heap is rebuilt. Between restarts the reflex set
only shrinks, so every flag is exact as of its stamp.

This module alone writes these fields and the ear flags, and
``_start_flags`` alone sets their starting values;
``polygon.refresh_node`` computes only a node's convexity and clears its
cached interior angle. Only ``_ear_key`` computes an angle, into that
cache, and only the angle-aware policy and the fallback call it, on
convex nodes; so the traditional policy computes no angle outside the
fallback, and the clip none of a reflex node.

Worst-case time stays quadratic: an ear whose box holds most reflex
vertices still visits them all unless the triangle clip cuts them away,
and a box at least as tall as wide is never clipped.

Rings produced by bridging holes repeat vertices, and exact coincidences
can starve the literal ear test even though the limit geometry still has
ears. When no ear is found the engine rescans once for the smallest-angle
tip that is an ear when reflex blockers on a corner of the candidate
triangle are exempted, and raises EarSearchFailed if there is none; an
exactly collinear tip is never clipped as a zero-area triangle mid-run.
Every cut tip is convex, so only the last triangle can be clockwise, as a
self-crossing ring can leave it; that raises EarSearchFailed too.
"""

from __future__ import annotations

import heapq
import logging
import math
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Callable, Optional, Sequence

from .geom import _DEG, EPS_AREA, EPS_LEN, GeometryError, Point2, _box, triangle_min_angle_xy
from .polygon import VertexNode, VertexRing, refresh_node

__all__ = [
    "EarSearchFailed",
    "ReflexGrid",
    "Triangle",
    "Triangulation",
    "is_ear",
    "smallest_angle",
    "update_after_cut",
]

log = logging.getLogger("polytri")


class EarSearchFailed(GeometryError):
    """No clippable ear exists although more than 3 vertices remain, or the
    last 3 make a clockwise triangle.

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
    over when a bridge slit collapses: one whose cross product at its
    middle corner is within EPS_AREA of zero, where the angle kernels
    raise DegenerateTriangle. It is excluded from quality statistics. Every
    other emitted triangle has a convex middle corner, so the kernels
    measure it.

    ``min_angle`` is the triangle's smallest angle, ``min`` of
    ``triangle_angles_xy`` over ``nodes`` in order, which the improved pass
    stores on every triangle it emits or rewrites, else None; read it with
    :func:`smallest_angle`. No other library code assigns ``nodes``; code
    that does so from outside sets ``min_angle`` too, or sets it to None.
    """

    __slots__ = ("a", "b", "c", "nodes", "degenerate", "min_angle")

    def __init__(
        self, na: VertexNode, nb: VertexNode, nc: VertexNode, degenerate: bool = False
    ):
        self.nodes = (na, nb, nc)
        self.a = na.original_index
        self.b = nb.original_index
        self.c = nc.original_index
        self.degenerate = degenerate
        self.min_angle: Optional[float] = None

    def indices(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def points(self) -> tuple[Point2, Point2, Point2]:
        na, nb, nc = self.nodes
        return (na.point, nb.point, nc.point)

    def __repr__(self) -> str:
        flag = " degenerate" if self.degenerate else ""
        return f"Triangle({self.a},{self.b},{self.c}{flag})"


def smallest_angle(t: Triangle) -> float:
    """``t.min_angle`` when stored, else ``t``'s smallest angle measured by
    ``triangle_min_angle_xy`` over its nodes in order, which raises
    DegenerateTriangle where the angle kernels do."""
    m = t.min_angle
    if m is not None:
        return m
    a, b, c = t.nodes
    return triangle_min_angle_xy(a.x, a.y, b.x, b.y, c.x, c.y)


class Triangulation:
    """Triangles over an immutable vertex table, in emission order.

    No adjacency is kept here; ``swap_count`` counts the diagonal swaps the
    improved pass made on the stored triangles.
    """

    def __init__(self, vertex_table: tuple[Point2, ...]):
        self.vertex_table = vertex_table
        self.triangles: list[Triangle] = []
        self.swap_count = 0

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


class ReflexGrid:
    """An index of the reflex nodes of a ring, in rows sorted by x, for the
    ear test.

    Built from ``nodes``, the ring's live nodes when :func:`_start_flags`
    starts or restarts the clip, it keeps the nodes that are not convex.
    The rows split the bounding box of ``nodes`` into strips as tall as the
    cells of a uniform grid with about sqrt(n) cells along the longer side
    (the uniform grid of Held's FIST, 2001, without its columns). Row ``k``
    keeps two parallel lists: ``xs[k]``, its members' x-coordinates in
    ascending order, and ``rows[k]``, the members in the same order, so the
    ear test bisects every row its box spans to the box's x-range. The
    index never changes once built: :func:`is_ear` filters the members it
    reads, and a ring whose reflex set grows gets a new index. The ear test
    places a coordinate ``y`` by the row function ``floor((y - y0) * inv)``
    clamped to the rows; it is monotone in ``y``, so the walk never misses a
    member inside its box. Each row also keeps its members' y-extent, and
    the index a rounding ``guard``, for the ear test's clip of a wide
    triangle row by row, whose superset proof sits beside the walk in
    :func:`is_ear`.
    """

    __slots__ = ("xs", "rows", "ylo", "yhi", "x0", "y0", "inv", "flat", "guard")

    def __init__(self, nodes: Sequence[VertexNode]):
        members = [node for node in nodes if not node.is_convex]
        x0, y0, x1, y1 = _box(nodes)
        self.x0, self.y0 = x0, y0
        span = max(x1 - x0, y1 - y0)
        k = math.ceil(math.sqrt(len(nodes)))
        self.inv = inv = k / span if span > 0.0 else 0.0
        last = int((y1 - y0) * inv)
        # A row clip uses an edge only if its rise |dy| exceeds ``flat``: its
        # relaxation EPS_AREA / |dy| is then under a row height, which is
        # all the rounding bound of the ear test's clip asks of it.
        self.flat = EPS_AREA * inv
        # 32 times the clip's rounding bound, derived in is_ear
        big = max(abs(x0), abs(y0), abs(x1), abs(y1))
        self.guard = 2.0**-44 * (big + 21.0 * span)
        self.rows = rows = [[] for _ in range(last + 1)]
        self.ylo = ylo = [math.inf] * (last + 1)
        self.yhi = yhi = [-math.inf] * (last + 1)
        # one sort, stable, fills every row in x order; a member lies in the
        # box of ``nodes``, so its row needs no clamp
        for node in sorted(members, key=attrgetter("x")):
            y = node.y
            row = int((y - y0) * inv)
            rows[row].append(node)
            if y < ylo[row]:
                ylo[row] = y
            if y > yhi[row]:
                yhi[row] = y
        self.xs = [[node.x for node in row] for row in rows]


def is_ear(
    ring: VertexRing, v: VertexNode, corner_twins: bool = False, stamp: Optional[int] = None
) -> bool:
    """Ear test for tip ``v`` against the current ring state, or as of a cut.

    True iff ``v`` is convex and no reflex vertex of the ring, other than
    ``v.prev`` and ``v.next``, lies in the closure of the tip triangle: in
    its bounding box padded by EPS_AREA over the shortest side, and on the
    inner side of each edge up to EPS_AREA. Only the members of
    ``ring.reflex`` that the row walk below reaches for that box and tip, a
    superset of the ones passing those tests, are tested, against the live
    ring state, and the first that passes them ends the walk. The index
    keeps members that are no longer reflex, so one filter picks the reflex
    set as of cut ``stamp``, by default the current cut ``ring.clock``: the
    members whose ``gone_at`` exceeds it. It runs first, before the box and
    closure tests, since a dead member is the commonest visit; every test
    only exempts a member, so their order cannot change the verdict.
    The selection resolves a pending flag as of its stamp, since which its
    tip and neighbours have not moved; any stamp since the index was built
    gives the exact reflex set of that cut.

    With ``corner_twins`` a reflex vertex within EPS_LEN of a triangle corner
    does not block: the bridge duplicate of a corner lies on the closure even
    when the limit geometry keeps it outside. Only the fallback uses this.
    """
    if not v.is_convex:
        return False
    if stamp is None:
        stamp = ring.clock
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
    # sliver is far more than this margin. The shortest squared edge and the
    # box are the builtin min and max spelled as the left-to-right comparison
    # chains they run, which give the same floats without the calls.
    sq = abx * abx + aby * aby
    e = bcx * bcx + bcy * bcy
    if e < sq:
        sq = e
    e = cax * cax + cay * cay
    if e < sq:
        sq = e
    margin = EPS_AREA / math.sqrt(sq)
    lo = hi = ax
    if bx < lo:
        lo = bx
    if cx < lo:
        lo = cx
    if bx > hi:
        hi = bx
    if cx > hi:
        hi = cx
    minx = lo - margin
    maxx = hi + margin
    lo = hi = ay
    if by < lo:
        lo = by
    if cy < lo:
        lo = cy
    if by > hi:
        hi = by
    if cy > hi:
        hi = cy
    miny = lo - margin
    maxy = hi + margin
    # The walk over the rows of the reflex index. Each row the box spans is
    # bisected to its members in the box's x-range, so every member reached
    # has minx <= x <= maxx. A triangle whose box spans more columns (as
    # tall as a row) than rows, and more than two, is clipped row by row
    # first: each row keeps only the x-interval where the three relaxed
    # closure tests can hold for y in the row's member y-extent within the
    # box, widened each side by ``guard``, a bound on rounding that the
    # index computes once from its nodes. A box at least as tall as wide is
    # not clipped, so a comb on a vertical spine gains nothing from it.
    #
    # Why the clip reaches every member that passes the tests, for a
    # triangle of the index's nodes: take a rising edge (ey > flat; a
    # falling one is the mirror image, and one within ``flat`` of
    # horizontal limits nothing), its exact limit
    # L(y) = ox + (ex * (y - oy) + EPS_AREA) / ey and c = EPS_AREA / ey,
    # under a row height by the choice of ``flat``. Let u = 2**-53, W the
    # box width, big the largest |coordinate| of the nodes and span the
    # longer side of their bounding box.
    # - The closure test ex * (py - oy) - ey * (px - ox) >= -EPS_AREA
    #   rounds by at most 3.01 u (|ex (py - oy)| + |ey (px - ox)|), so a
    #   member that passes it has px <= L(py) + 3.01 u (2 W + c).
    # - L is linear, so L(py) <= L(Y) at the end Y of the extent that the
    #   solve takes.
    # - The solve ox + (ex * (Y - oy) + EPS_AREA) / ey rounds by at most
    #   6.01 u (|ox| + |L(Y) - ox| + 2 c). A passing member puts L(Y) above
    #   ox - W less the first bound, and where L(Y) - ox exceeds 2 (W + c)
    #   the rounded solve still lands past maxx, within 6.01 u (big + 2 c).
    # - So a member passing the test lies within 10 u (big + 4 W + 5 c) of
    #   the clipped interval. A convex tip's shortest edge exceeds EPS_AREA
    #   over its longest, so the padding margin is under the longest edge,
    #   at most sqrt(2) span, and W is at most (1 + 2 sqrt(2)) span, under
    #   4 span; c is under a row height, at most span. The rounding is thus
    #   under 2**-49 (big + 21 span), and ``guard`` is 32 times that, which
    #   also covers the rounding of adding it.
    grid = ring.reflex
    y0, inv = grid.y0, grid.inv
    last = len(grid.rows) - 1
    # the row function; int() truncates toward zero, which agrees with
    # floor() once clamped
    r0 = int((miny - y0) * inv)
    r0 = 0 if r0 < 0 else last if r0 > last else r0
    r1 = int((maxy - y0) * inv)
    r1 = 0 if r1 < 0 else last if r1 > last else r1
    x0 = grid.x0
    cols = int((maxx - x0) * inv) - int((minx - x0) * inv)
    clip = cols > r1 - r0 and cols > 2
    if clip:
        # Each edge (ox, oy) + t (ex, ey) of the triangle keeps the points
        # with ex * (y - oy) - ey * (x - ox) >= -EPS_AREA: an upper x bound
        # when it rises, a lower one when it falls.
        edges = ((ax, ay, abx, aby), (bx, by, bcx, bcy), (cx, cy, cax, cay))
        flat, ylo, yhi, guard = grid.flat, grid.ylo, grid.yhi, grid.guard
    xs, rows = grid.xs, grid.rows
    for k in range(r0, r1 + 1):
        row_xs = xs[k]
        if clip:
            lo_y = ylo[k] if ylo[k] > miny else miny
            hi_y = yhi[k] if yhi[k] < maxy else maxy
            if lo_y > hi_y:
                continue
            lo, hi = minx, maxx
            for ox, oy, ex, ey in edges:
                if ey > flat:
                    t = ox + (ex * ((hi_y if ex > 0.0 else lo_y) - oy) + EPS_AREA) / ey
                    if t < hi:
                        hi = t
                elif ey < -flat:
                    t = ox + (ex * ((lo_y if ex < 0.0 else hi_y) - oy) + EPS_AREA) / ey
                    if t > lo:
                        lo = t
            lo -= guard
            hi += guard
            i = bisect_left(row_xs, lo if lo > minx else minx)
            j = bisect_right(row_xs, hi if hi < maxx else maxx, i)
        else:
            i = bisect_left(row_xs, minx)
            j = bisect_right(row_xs, maxx, i)
        if i == j:
            continue
        # a member turned convex by the stamp, the most common exemption,
        # goes first
        for r in rows[k][i:j]:
            if r.gone_at <= stamp:
                continue
            if r is p or r is n:
                continue
            px = r.x
            py = r.y
            if py < miny or py > maxy:
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
    """Refresh the two neighbours of a cut: convexity, ear status.

    Counts the cut in ``ring.clock``, then refreshes both nodes, and keeps
    their books, before either flag is set. Each node is stamped with the
    new count. A node that was reflex and turns convex records the cut in
    ``gone_at``; a node that stays reflex keeps its false ear flag. A
    convex neighbour gets a pending flag and is pushed onto the ear heap
    once that exists; no other node is touched. A neighbour that turns
    reflex instead restarts the books of the whole ring through
    :func:`_start_flags` (see the module docstring): a new ``ring.reflex``,
    a flag stamped with this cut on every live node, and no heap until the
    selection rebuilds it.
    """
    clock = ring.clock = ring.clock + 1
    grown = False
    was_convex = left.is_convex
    refresh_node(left)
    left.stamp = clock
    if left.is_convex:
        if not was_convex:
            left.gone_at = clock
    elif was_convex:
        grown = True
    was_convex = right.is_convex
    refresh_node(right)
    right.stamp = clock
    if right.is_convex:
        if not was_convex:
            right.gone_at = clock
    elif was_convex:
        grown = True
    if grown:
        _start_flags(ring)
        return
    ears = ring.ears
    if left.is_convex:
        left.is_ear = None
        if ears is not None:
            heapq.heappush(ears, (*_ear_key(left), left))
    if right.is_convex:
        right.is_ear = None
        if ears is not None:
            heapq.heappush(ears, (*_ear_key(right), right))


def _start_flags(ring: VertexRing) -> None:
    """Set the starting values of the clip state, the only code that does.

    Builds ``ring.reflex`` from the live nodes, stamps every live node with
    ``ring.clock``, marks it a member of the reflex set as of now
    (``gone_at`` inf; only members of the new index are read), and gives it
    a pending flag if convex, no ear flag if not; drops the heap for the
    selection to rebuild. The clip's start, and its restart when the reflex
    set grows."""
    nodes = list(ring)
    ring.reflex = ReflexGrid(nodes)
    clock = ring.clock
    for node in nodes:
        node.stamp = clock
        node.gone_at = math.inf
        node.is_ear = None if node.is_convex else False
    ring.ears = None


def _ear_key(node: VertexNode) -> tuple[float, int, int]:
    """Selection order: smallest interior angle, then smallest original
    index, then earliest ring position, so runs are reproducible.

    The angle is the interior angle of ``node`` in degrees from its
    current neighbours, and no other code computes one. The clip keys only
    convex nodes. The angle fills the cache ``node._angle``, which
    ``polygon.refresh_node`` clears, and is read from there until then."""
    angle = node._angle
    if angle is None:
        p, n = node.prev, node.next
        ux, uy = p.x - node.x, p.y - node.y
        wx, wy = n.x - node.x, n.y - node.y
        angle = node._angle = (math.atan2(uy, ux) - math.atan2(wy, wx)) * _DEG % 360.0
    return (angle, node.original_index, node.seq)


def _select_smallest_angle(ring: VertexRing) -> Optional[VertexNode]:
    """Ear with the minimal :func:`_ear_key`.

    Reads the top of ``ring.ears``, a heap of ``(*key, node)`` entries for
    the nodes flagged as ears or pending, built from the flags on the first
    call and fed by :func:`update_after_cut`, popping stale entries: those
    whose node lost the flag, changed angle or left the ring. The angle check
    reads the node's cache: a node refreshed since its entry was pushed has
    either a new entry, which filled the cache, or no flag. A pending flag
    at the top is resolved by an ear test as of its stamp and popped when
    that fails. Every live node flagged or pending has a current entry, so
    the first live entry that passes is the ear with the minimal key, as a
    full ring scan would find. No tiebreaker is needed: ``seq`` is unique
    within a ring, so entries of different nodes differ before the node,
    and equal entries of one node compare equal by identity without
    ordering nodes. A set flag is trusted (see the module docstring).
    Returns None when no ear is left.
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
        if flag is not False and node._angle == angle and node.prev.next is node:
            if flag is None:
                flag = node.is_ear = is_ear(ring, node, stamp=node.stamp)
            if flag:
                return node
        heapq.heappop(ears)
    return None


def _select_next_sequential(
    ring: VertexRing, start: VertexNode
) -> Optional[VertexNode]:
    """First ear at or after ``start`` in ring order.

    Pending flags on the way are resolved, and set flags trusted, as in
    :func:`_select_smallest_angle`.
    """
    node = start
    for _ in range(ring.count):
        flag = node.is_ear
        if flag is None:
            flag = node.is_ear = is_ear(ring, node, stamp=node.stamp)
        if flag:
            return node
        node = node.next
    return None


def _select_fallback(ring: VertexRing) -> VertexNode:
    """Last resort when no literal ear exists.

    Returns the smallest-angle tip, with the same tie-breaks as the normal
    selection, that is an ear once reflex blockers on a corner of its
    triangle are exempted, and logs it at debug level. The convex tips are
    tested in :func:`_ear_key` order, which ``seq`` makes strict, up to the
    first that passes. Raises EarSearchFailed when there is none.
    """
    for v in sorted((v for v in ring if v.is_convex), key=_ear_key):
        if is_ear(ring, v, corner_twins=True):
            log.debug("fallback: no literal ear, clipping tip %d with %d vertices left",
                      v.original_index, ring.count)
            return v
    raise EarSearchFailed(ring)


def _clip(
    ring: VertexRing,
    smallest_angle: bool,
    *,
    post_emit: Optional[Callable[[Triangulation, int], None]] = None,
) -> Triangulation:
    """Shared clipping loop over a ring fresh from ``build_ring``; emits n-2
    triangles. :func:`_start_flags` starts the clip state (every convex node
    pending). Each clipped tip is convex, so its triangle is not degenerate
    by the kernels' test (see :mod:`polytri.geom`); the last triangle is
    flagged ``degenerate`` by that same test at its middle corner, and
    raises EarSearchFailed when its cross product there is below -EPS_AREA:
    it is then clockwise, as a self-crossing ring can leave it. Each cut
    appends its triangle to ``triangles``, unlinks the tip (which keeps its
    own ``prev`` and ``next`` for the triangle), refreshes the two
    neighbours, then hands ``post_emit`` the triangle's position. Only
    convex tips are cut, which the ear test skips among the members of
    ``ring.reflex`` by their ``gone_at``, so the index needs no change.
    Clipping consumes the ring: a ring that was cut raises ValueError."""
    if ring.clock > 0:
        raise ValueError("ring was already clipped; build a new one with build_ring")
    tri = Triangulation(ring.table)
    triangles = tri.triangles
    _start_flags(ring)
    cursor = ring.head
    while ring.count > 3:
        if smallest_angle:
            v = _select_smallest_angle(ring)
        else:
            v = _select_next_sequential(ring, cursor)
        if v is None:
            v = _select_fallback(ring)
        left, right = v.prev, v.next
        triangles.append(Triangle(left, v, right))
        left.next = right
        right.prev = left
        if ring.head is v:
            ring.head = right
        ring.count -= 1
        update_after_cut(ring, left, right)
        cursor = right
        if post_emit is not None:
            post_emit(tri, len(triangles) - 1)
    h = ring.head
    a, b, c = h, h.next, h.next.next
    ux, uy, wx, wy = c.x - b.x, c.y - b.y, a.x - b.x, a.y - b.y
    z = ux * wy - uy * wx
    if z < -EPS_AREA:
        raise EarSearchFailed(ring)
    triangles.append(Triangle(a, b, c, z <= EPS_AREA))
    if post_emit is not None:
        post_emit(tri, len(triangles) - 1)
    return tri

