"""Inline edge swapping for sharp triangles.

The improved triangulator runs the smallest-angle clipping loop with the
hook from :func:`sharp_swapper`: every time a new triangle comes out
sharper than a bound, it tries one diagonal swap with the neighbour across
its longest edge. The swap is kept only when it strictly raises the minimum
angle over the pair, and it only rewrites the two stored triangles (and the
hook's own adjacency), never the live clipping ring, so subsequent cuts
proceed as if nothing happened.

Each new triangle gets exactly one swap attempt; swapped-in triangles are
not re-tested and no flip cascades are chased.

The hook's adjacency is one entry per live ring edge: the triangle outside
it, found under the edge's start node. A fresh triangle can border an
emitted one only across the ring edges its cut consumed, so the hook
depends on ``_clip``'s emission order and is not a general mesh index.

The pass measures each stored triangle once. The hook stores a fresh
triangle's smallest angle on it (``Triangle.min_angle``); :func:`try_swap`
reads the stored values of the pair and stores the minima of the two
triangles a swap writes; :func:`polytri.quality.min_angles` reads them
again for the report. Both read with :func:`polytri.earclip.smallest_angle`.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

from .geom import EPS_AREA, DegenerateTriangle, triangle_angles_xy, triangle_min_angle_xy
from .earclip import Triangle, Triangulation, smallest_angle
from .polygon import VertexNode

__all__ = ["sharp_swapper", "try_swap"]

log = logging.getLogger("polytri")


def try_swap(
    t1: Triangle, t2: Triangle, tri: Triangulation
) -> Optional[tuple[Triangle, Triangle]]:
    """Swap the shared diagonal of ``t1``/``t2`` when it improves the pair.

    The four distinct corners form a quadrilateral; if it is not strictly
    convex the other diagonal would leave it, so nothing happens. The test
    takes each new half's cross product at its middle corner as the angle
    kernels do, so they measure both halves without raising. Otherwise the
    pair minimum over six angles decides: swap only on strict improvement.
    The old pair's minimum comes from :func:`~polytri.earclip.smallest_angle`,
    and a triangle the kernel rejects there means no. The first rewritten
    triangle is measured next, and when its minimum is not above the old
    one the answer is no without measuring the second. A swap stores the
    new minima on the two rewritten triangles. Returns the re-diagonalized
    pair (the same Triangle objects rewritten in place) or None when
    unchanged. Raises ValueError unless the two triangles share exactly one
    edge.
    """
    if t1.degenerate or t2.degenerate:
        return None
    n2 = t2.nodes
    p, q, r = t1.nodes
    # t1's apex a1 is its one corner off t2; its other two, s and v, are on it.
    if p not in n2:
        a1, s, v = p, q, r
    elif q not in n2:
        a1, s, v = q, r, p
    else:
        a1, s, v = r, p, q
    if a1 in n2 or s not in n2 or v not in n2:
        raise ValueError(f"{t1!r} and {t2!r} do not share exactly one edge")
    # Orient the shared edge u->w as it appears in t2, so the quad reads
    # (u, a1, w, a2) counter-clockwise.
    d, e, f = n2
    if d is not s and d is not v:
        a2, u, w = d, e, f
    elif e is not s and e is not v:
        a2, u, w = e, f, d
    else:
        a2, u, w = f, d, e
    x1, y1, x2, y2 = a1.x, a1.y, a2.x, a2.y
    ux, uy, wx, wy = u.x, u.y, w.x, w.y
    # Both halves on the new diagonal, (a1, w, a2) and (a2, u, a1), need
    # positive area, or the quad is non-convex; each cross product is the
    # kernel's own, at the middle corner, so neither kernel raises below.
    if (
        (x2 - wx) * (y1 - wy) - (y2 - wy) * (x1 - wx) <= EPS_AREA
        or (x1 - ux) * (y2 - uy) - (y1 - uy) * (x2 - ux) <= EPS_AREA
    ):
        return None
    # Each min below is the builtin's comparison chain, ties and NaN alike.
    try:
        old_min = smallest_angle(t1)
        m = smallest_angle(t2)
    except DegenerateTriangle:
        return None
    if m < old_min:
        old_min = m
    m1 = triangle_min_angle_xy(x1, y1, wx, wy, x2, y2)
    # min(m1, m2) > old_min needs m1 > old_min, NaN included.
    if not m1 > old_min:
        return None
    m2 = triangle_min_angle_xy(x2, y2, ux, uy, x1, y1)
    m = m1
    if m2 < m:
        m = m2
    if not m > old_min:
        return None
    t1.nodes = (a1, w, a2)
    t1.a, t1.b, t1.c = a1.original_index, w.original_index, a2.original_index
    t1.min_angle = m1
    t2.nodes = (a2, u, a1)
    t2.a, t2.b, t2.c = a2.original_index, u.original_index, a1.original_index
    t2.min_angle = m2
    tri.swap_count += 1
    return (t1, t2)


def sharp_swapper(bound: float) -> Callable[[Triangulation, int], None]:
    """Post-emit hook giving each new triangle sharper than ``bound`` one swap.

    The bound is in degrees. A triangle whose minimum angle falls strictly
    below it is paired with the neighbour across its longest edge (the edge
    opposite its largest angle, ties going to the earliest corner), when
    that neighbour has been emitted already, and the diagonal is swapped if
    that strictly raises the pair minimum. A minimum angle never exceeds 60,
    so a larger bound is clamped to 60 with a warning; 0 disables swapping
    because the test is strict. Raises ValueError for a negative or NaN
    bound.

    The hook keeps the only adjacency of the run, and it relies on getting
    the triangles in ``_clip``'s emission order. A triangle cut from the
    ring is ``(left, tip, right)``; the only triangles emitted before it
    that it can border lie across the two ring edges it consumes,
    ``left -> tip`` and ``tip -> right``, never across the new ring edge
    ``left -> right``. The last triangle's three edges are all ring edges;
    the hook tells it by ``right.next is left``, which no earlier cut
    leaves, as at least three nodes stay linked after it. So the hook maps
    the start node of each live ring edge to the triangle outside that
    edge, keyed by node identity so the twin nodes of a bridged ring stay
    distinct, and each cut stores its triangle under ``left``. A swap keeps
    the outer edges of the pair; the rewritten triangle that owns
    ``right -> left`` takes over ``left``'s entry.

    Every triangle the clip emits unflagged has a convex middle corner, so
    the angle kernels measure it without raising (see
    :class:`~polytri.earclip.Triangle`).
    """
    limit = float(bound)
    if not limit >= 0.0:  # also rejects NaN
        raise ValueError(f"angle bound must be non-negative, got {limit}")
    if limit > 60.0:
        log.warning("angle bound %.6g clamped to 60", limit)
        limit = 60.0
    outside: dict[VertexNode, Triangle] = {}

    def post_emit(tri: Triangulation, tid: int) -> None:
        t = tri.triangles[tid]
        if t.degenerate:
            return
        left, tip, right = t.nodes
        at_a, at_b, at_c = triangle_angles_xy(left.x, left.y, tip.x, tip.y, right.x, right.y)
        # min and argmax as the builtins' comparison chains
        sharpest = at_a
        if at_b < sharpest:
            sharpest = at_b
        if at_c < sharpest:
            sharpest = at_c
        t.min_angle = sharpest
        if not sharpest < limit:
            outside[left] = t
            return
        k, widest = 0, at_a
        if at_b > widest:
            k, widest = 1, at_b
        if at_c > widest:
            k = 2
        # the longest edge starts at tip, right or left; right -> left is a
        # ring edge only in the last triangle
        if k != 1 or right.next is left:
            neighbor = outside.get(t.nodes[(k + 1) % 3])
        else:
            neighbor = None
        outside[left] = t
        if neighbor is not None and try_swap(t, neighbor, tri) is not None and k == 0:
            outside[left] = neighbor  # rewritten to (apex, right, left)

    return post_emit
