"""Hole elimination via bridge edges.

A polygon with holes is turned into a single ring by repeatedly joining the
current boundary to one hole with the shortest valid connecting segment.
The bridge is traversed twice, once in each direction, so its endpoints
appear twice in the output: a counter-clockwise ring with a zero-width slit
cut into each hole. Merging a hole of n vertices into a ring of m vertices
yields m + n + 2 vertices, and the enclosed area drops by the hole's area.

Candidate bridges are every (ring vertex, hole vertex) pair, tried in order
of increasing length (ties: smaller ring position, then smaller hole
position). The pairs are produced nearest first, one growing radius at a
time, so a search that stops at a short bridge never builds or sorts the
long pairs; one that finds every near candidate obstructed still orders
them all, O(m*n log(m*n)) as with a single full sort. A candidate is valid
when it does not share a point with any edge of the current ring, the hole,
or any hole still waiting to be merged, beyond the candidate's own
endpoints. Checking the pending holes goes beyond just the two rings being
joined, but without it a bridge can slice through a later hole and corrupt
the ring. Merging only reorders edges and adds the bridge, so these are
always all input edges plus the bridges placed so far.

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
from typing import Iterator, Sequence

from .geom import EPS_LEN, GeometryError, Point2
from .polygon import PolygonWithHoles, Ring, _boxed_edge, _boxed_edges, _crosses_any

__all__ = ["NoValidBridge", "BridgeEdge", "DegenerateRing", "find_bridge", "eliminate_holes"]


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


def _pairs_by_length(
    cpts: Sequence[Point2], hpts: Sequence[Point2]
) -> Iterator[tuple[float, int, int]]:
    """Every ``(length, i, j)`` of ring position i and hole position j, in
    the order ``sorted()`` gives all of them, produced nearest first.

    The ring's vertices are bucketed in a uniform grid with about sqrt(m)
    cells along the longer side of their bounding box. Each round takes a
    radius r, starting at one cell width and doubling: for every hole vertex
    it visits the cells within r (plus one cell, so rounding in the cell
    function cannot drop a vertex), keeps the pairs longer than the previous
    radius and at most r, and yields them sorted. Once r spans the bounding
    box of both rings, the last round yields every pair still left. Each
    pair falls in exactly one round and rounds ascend, so the stream equals
    the full sort, ties included.
    """
    xs = [c.x for c in cpts]
    ys = [c.y for c in cpts]
    x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
    spanx, spany = x1 - x0, y1 - y0
    width = max(spanx, spany) / math.ceil(math.sqrt(len(cpts)))
    inv = 1.0 / width if width > 0.0 else 0.0
    last_col, last_row = int(spanx * inv), int(spany * inv)
    cols = last_col + 1
    cells: list[list[int]] = [[] for _ in range(cols * (last_row + 1))]
    for i, c in enumerate(cpts):
        cells[int((c.y - y0) * inv) * cols + int((c.x - x0) * inv)].append(i)
    hxs = [h.x for h in hpts]
    hys = [h.y for h in hpts]
    reach = math.hypot(
        max(x1, *hxs) - min(x0, *hxs), max(y1, *hys) - min(y0, *hys)
    )
    lo, r = -math.inf, width
    while 0.0 < r < reach:
        batch = []
        for j, h in enumerate(hpts):
            # int() truncates toward zero, which can only widen floor()'s range
            c0 = max(int((h.x - r - x0) * inv) - 1, 0)
            c1 = min(int((h.x + r - x0) * inv) + 1, last_col)
            r0 = max(int((h.y - r - y0) * inv) - 1, 0)
            r1 = min(int((h.y + r - y0) * inv) + 1, last_row)
            if c1 < c0 or r1 < r0:
                continue  # no ring vertex within r; keeps slice ends non-negative
            for base in range(r0 * cols, r1 * cols + 1, cols):
                for bucket in cells[base + c0 : base + c1 + 1]:
                    for i in bucket:
                        c = cpts[i]
                        length = math.hypot(c.x - h.x, c.y - h.y)
                        if lo < length <= r:
                            batch.append((length, i, j))
        batch.sort()
        yield from batch
        lo, r = r, 2.0 * r
    yield from sorted(
        (length, i, j)
        for i, c in enumerate(cpts)
        for j, h in enumerate(hpts)
        if (length := math.hypot(c.x - h.x, c.y - h.y)) > lo
    )


def find_bridge(
    cpts: Sequence[Point2], hpts: Sequence[Point2], edges: list
) -> tuple[float, int, int]:
    """Shortest unobstructed segment joining ring ``cpts`` to hole ``hpts``.

    Returns ``(length, i, j)`` for ring position i and hole position j.
    ``edges`` are the obstacles, boxed by ``polygon._boxed_edge``. The m*n
    vertex pairs are visited in order of length (ties: smaller ring
    position, then smaller hole position), nearest first, until one neither
    crosses nor grazes any of ``edges`` and enters the interior wedge at
    both of its endpoints. Only the pairs up to about twice the winning
    length are ever built and sorted. Zero-length candidates, where a ring
    vertex coincides with a hole vertex, are skipped: they would create a
    null slit. Raises NoValidBridge if every candidate is obstructed.
    """
    m = len(cpts)
    k = len(hpts)
    for length, i, j in _pairs_by_length(cpts, hpts):
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
        if _crosses_any(a, b, edges):
            continue
        return length, i, j
    raise NoValidBridge(
        f"all {m}x{k} bridge candidates are obstructed; input polygon is likely malformed"
    )


def _splice(cur: tuple, hole: tuple, i: int, j: int) -> tuple:
    """Insert ``hole`` into ``cur`` after position i, entering at position j.

    The hole is walked once around from j back to j (j repeated), then the
    anchor cur[i] is repeated to close the slit: len(cur) + len(hole) + 2
    entries total.
    """
    return cur[: i + 1] + hole[j:] + hole[:j] + (hole[j], cur[i]) + cur[i + 1 :]


def eliminate_holes(poly: PolygonWithHoles) -> DegenerateRing:
    """Merge every hole into the outer ring, one bridge at a time.

    Holes are processed in input order; each bridge search treats the holes
    still waiting as obstacles. A polygon without holes passes through
    unchanged. Expects a normalized polygon.

    Every input edge is boxed once, into one obstacle list; after each merge
    the list gets both directions of the new bridge and nothing else, so it
    holds the merged ring's directed edges plus the pending holes'. Both
    directions are kept because the crossing test's orientation signs can
    round differently for the two.
    """
    outer = poly.outer
    cpts, cur_idx = outer.points, tuple(range(len(outer)))
    if not poly.holes:
        return DegenerateRing(outer, cur_idx, ())
    edges = [e for ring in (outer, *poly.holes) for e in _boxed_edges(ring)]
    off = len(outer)  # table index of the current hole's first vertex
    bridges = []
    for h, hole in enumerate(poly.holes, start=1):
        hpts = hole.points
        length, i, j = find_bridge(cpts, hpts, edges)
        a, c = cpts[i], hpts[j]
        edges += (_boxed_edge(a, c), _boxed_edge(c, a))
        cpts = _splice(cpts, hpts, i, j)
        cur_idx = _splice(cur_idx, tuple(range(off, off + len(hpts))), i, j)
        off += len(hpts)
        bridges.append(BridgeEdge((0, i), (h, j), length))
    return DegenerateRing(Ring(cpts), cur_idx, tuple(bridges))
