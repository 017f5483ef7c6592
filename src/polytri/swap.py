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
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

from .geom import EPS_AREA, DegenerateTriangle, triangle_angles_xy
from .earclip import Triangle, Triangulation
from .polygon import VertexNode

__all__ = ["sharp_swapper", "try_swap"]

log = logging.getLogger("polytri")


def _node_angles(t: Triangle) -> tuple[float, float, float]:
    a, b, c = t.nodes
    return triangle_angles_xy(a.x, a.y, b.x, b.y, c.x, c.y)


def try_swap(
    t1: Triangle, t2: Triangle, tri: Triangulation, t1_min: Optional[float] = None
) -> Optional[tuple[Triangle, Triangle]]:
    """Swap the shared diagonal of ``t1``/``t2`` when it improves the pair.

    The four distinct corners form a quadrilateral; if it is not strictly
    convex the other diagonal would leave it, so nothing happens. Otherwise
    the pair minimum over six angles decides: swap only on strict
    improvement. ``t1_min`` is the smallest angle of ``t1`` when the caller
    has measured it already; it is measured here otherwise. Returns the
    re-diagonalized pair (the same Triangle objects rewritten in place) or
    None when unchanged.
    """
    if t1.degenerate or t2.degenerate:
        return None
    shared = set(t1.nodes) & set(t2.nodes)
    if len(shared) != 2:
        raise ValueError(f"{t1!r} and {t2!r} do not share exactly one edge")
    a1 = next(n for n in t1.nodes if n not in shared)
    k = next(k for k, n in enumerate(t2.nodes) if n not in shared)
    a2 = t2.nodes[k]
    # Orient the shared edge u->w as it appears in t2, so the quad reads
    # (u, a1, w, a2) counter-clockwise.
    u = t2.nodes[(k + 1) % 3]
    w = t2.nodes[(k + 2) % 3]
    x1, y1, x2, y2 = a1.x, a1.y, a2.x, a2.y
    ux, uy, wx, wy = u.x, u.y, w.x, w.y
    # Both halves on the new diagonal must keep positive area (the cross
    # products of (a1, w, a2) and (a2, u, a1)), otherwise the quad is
    # non-convex and the swapped diagonal falls outside it.
    if (
        (wx - x1) * (y2 - y1) - (wy - y1) * (x2 - x1) <= EPS_AREA
        or (ux - x2) * (y1 - y2) - (uy - y2) * (x1 - x2) <= EPS_AREA
    ):
        return None
    try:
        if t1_min is None:
            t1_min = min(_node_angles(t1))
        old_min = min(t1_min, min(_node_angles(t2)))
        new_min = min(
            min(triangle_angles_xy(x1, y1, wx, wy, x2, y2)),
            min(triangle_angles_xy(x2, y2, ux, uy, x1, y1)),
        )
    except DegenerateTriangle:
        return None
    if not new_min > old_min:
        return None
    t1.nodes = (a1, w, a2)
    t1.a, t1.b, t1.c = a1.original_index, w.original_index, a2.original_index
    t2.nodes = (a2, u, a1)
    t2.a, t2.b, t2.c = a2.original_index, u.original_index, a1.original_index
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

    The hook keeps the only adjacency of the run: every emitted triangle
    owns its three directed edges ``(a, b), (b, c), (c, a)``, keyed by node
    identity so the twin nodes of a bridged ring stay distinct. Triangles
    are counter-clockwise, so the neighbour across ``u -> w`` owns
    ``(w, u)``.
    """
    limit = float(bound)
    if not limit >= 0.0:  # also rejects NaN
        raise ValueError(f"angle bound must be non-negative, got {limit}")
    if limit > 60.0:
        log.warning("angle bound %.6g clamped to 60", limit)
        limit = 60.0
    half: dict[tuple[VertexNode, VertexNode], Triangle] = {}

    def own(t: Triangle) -> None:
        a, b, c = t.nodes
        half[a, b] = half[b, c] = half[c, a] = t

    def post_emit(tri: Triangulation, tid: int) -> None:
        t = tri.triangles[tid]
        own(t)
        if t.degenerate:
            return
        try:
            angles = _node_angles(t)
        except DegenerateTriangle:
            return
        sharpest = min(angles)
        if not sharpest < limit:
            return
        k = 0
        if angles[1] > angles[k]:
            k = 1
        if angles[2] > angles[k]:
            k = 2
        u = t.nodes[(k + 1) % 3]
        w = t.nodes[(k + 2) % 3]
        neighbor = half.get((w, u))
        if neighbor is not None and try_swap(t, neighbor, tri, sharpest) is not None:
            del half[u, w], half[w, u]
            own(t)
            own(neighbor)

    return post_emit
