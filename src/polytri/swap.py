"""Inline edge swapping for sharp triangles.

The improved triangulator runs the smallest-angle clipping loop with the
hook from :func:`sharp_swapper`: every time a new triangle comes out
sharper than a bound, it tries one diagonal swap with the neighbour across
its longest edge. The swap is kept only when it strictly raises the minimum
angle over the pair, and it only touches the stored triangles and edge map,
never the live clipping ring, so subsequent cuts proceed as if nothing
happened.

Each new triangle gets exactly one swap attempt; swapped-in triangles are
not re-tested and no flip cascades are chased.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

from .geom import EPS_AREA, DegenerateTriangle, cross2, triangle_angles
from .earclip import Triangle, Triangulation, edge_key
from .polygon import VertexNode

__all__ = ["sharp_swapper", "find_neighbor_across_longest_edge", "try_swap"]

log = logging.getLogger("polytri")


def _node_angles(t: Triangle) -> tuple[float, float, float]:
    na, nb, nc = t.nodes
    return triangle_angles(na.point, nb.point, nc.point)


def find_neighbor_across_longest_edge(t: Triangle, tri: Triangulation) -> Optional[Triangle]:
    """The other triangle sharing ``t``'s longest edge, if one exists yet.

    The longest edge is the one opposite the largest interior angle (ties
    resolved toward the earliest corner). Absence is normal: the edge may be
    an input boundary edge, or the neighbour may simply not have been
    created yet.
    """
    angles = _node_angles(t)
    k = 0
    if angles[1] > angles[k]:
        k = 1
    if angles[2] > angles[k]:
        k = 2
    u = t.nodes[(k + 1) % 3]
    w = t.nodes[(k + 2) % 3]
    owners = tri.edge_map.get(edge_key(u, w))
    if not owners or len(owners) < 2:
        return None
    other = owners[0] if owners[1] == t.id else owners[1]
    return tri.triangles[other]


def _replace_edge_owner(
    tri: Triangulation, u: VertexNode, w: VertexNode, old_id: int, new_id: int
) -> None:
    owners = tri.edge_map[edge_key(u, w)]
    owners[owners.index(old_id)] = new_id


def try_swap(
    t1: Triangle, t2: Triangle, tri: Triangulation
) -> Optional[tuple[Triangle, Triangle]]:
    """Swap the shared diagonal of ``t1``/``t2`` when it improves the pair.

    The four distinct corners form a quadrilateral; if it is not strictly
    convex the other diagonal would leave it, so nothing happens. Otherwise
    the pair minimum over six angles decides: swap only on strict
    improvement. Returns the re-diagonalized pair (the same Triangle objects
    rewritten in place) or None when unchanged. The edge map is updated in
    the same step.
    """
    if t1.degenerate or t2.degenerate:
        return None
    shared = set(t1.nodes) & set(t2.nodes)
    if len(shared) != 2:
        raise ValueError(f"{t1!r} and {t2!r} do not share exactly one edge")
    a1 = next(n for n in t1.nodes if n not in shared)
    a2 = next(n for n in t2.nodes if n not in shared)
    # Orient the shared edge u->w as it appears in t2, so the quad reads
    # (u, a1, w, a2) counter-clockwise.
    u = w = None
    for k in range(3):
        n1, n2 = t2.nodes[k], t2.nodes[(k + 1) % 3]
        if n1 in shared and n2 in shared:
            u, w = n1, n2
            break
    assert u is not None and w is not None
    pa1, pa2 = a1.point, a2.point
    pu, pw = u.point, w.point
    # Both halves on the new diagonal must keep positive area, otherwise the
    # quad is non-convex and the swapped diagonal falls outside it.
    if cross2(pa1, pw, pa2) <= EPS_AREA or cross2(pa2, pu, pa1) <= EPS_AREA:
        return None
    try:
        old_min = min(min(_node_angles(t1)), min(_node_angles(t2)))
        new_min = min(
            min(triangle_angles(pa1, pw, pa2)),
            min(triangle_angles(pa2, pu, pa1)),
        )
    except DegenerateTriangle:
        return None
    if not new_min > old_min:
        return None
    i1, i2 = t1.id, t2.id
    _replace_edge_owner(tri, u, a1, i1, i2)
    _replace_edge_owner(tri, w, a2, i2, i1)
    del tri.edge_map[edge_key(u, w)]
    tri.edge_map[edge_key(a1, a2)] = [i1, i2]
    t1.nodes = (a1, w, a2)
    t1.a, t1.b, t1.c = a1.original_index, w.original_index, a2.original_index
    t2.nodes = (a2, u, a1)
    t2.a, t2.b, t2.c = a2.original_index, u.original_index, a1.original_index
    tri.swap_count += 1
    return (t1, t2)


def sharp_swapper(bound: float) -> Callable[[Triangulation, int], None]:
    """Post-emit hook giving each new triangle sharper than ``bound`` one swap.

    The bound is in degrees. A triangle whose minimum angle falls strictly
    below it is paired with the neighbour across its longest edge (when that
    neighbour exists) and the diagonal is swapped if that strictly raises
    the pair minimum. A minimum angle never exceeds 60, so a larger bound is
    clamped to 60 with a warning; 0 disables swapping because the test is
    strict. Raises ValueError for a negative or NaN bound.
    """
    limit = float(bound)
    if not limit >= 0.0:  # also rejects NaN
        raise ValueError(f"angle bound must be non-negative, got {limit}")
    if limit > 60.0:
        log.warning("angle bound %.6g clamped to 60", limit)
        limit = 60.0

    def post_emit(tri: Triangulation, tid: int) -> None:
        t = tri.triangles[tid]
        if t.degenerate:
            return
        try:
            sharp = min(_node_angles(t)) < limit
        except DegenerateTriangle:
            return
        if not sharp:
            return
        neighbor = find_neighbor_across_longest_edge(t, tri)
        if neighbor is not None:
            try_swap(t, neighbor, tri)

    return post_emit
