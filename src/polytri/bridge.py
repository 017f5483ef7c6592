"""Hole elimination via bridge edges.

A polygon with holes is turned into a single ring by repeatedly joining the
current boundary to one hole with the shortest valid connecting segment.
The bridge is traversed twice, once in each direction, so its endpoints
appear twice in the output: a counter-clockwise ring with a zero-width slit
cut into each hole. Merging a hole of n vertices into a ring of m vertices
yields m + n + 2 vertices, and the enclosed area drops by the hole's area.

Candidate bridges are every (ring vertex, hole vertex) pair, tried in order
of increasing length (ties: smaller ring position, then smaller hole
position). The pairs are produced nearest first, one doubling radius at a
time, each round looking only at the ring vertices near the hole, so a
search that stops at a short bridge never builds or sorts the long pairs;
one that finds every near candidate obstructed still orders them all,
O(m*n log(m*n)) as with a single full sort. A candidate is valid
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .geom import EPS_LEN, GeometryError, Point2, _box
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
    cpts: Sequence[Point2],
    hpts: Sequence[Point2],
    *,
    box: Optional[tuple[float, float, float, float]] = None,
) -> Iterator[tuple[float, int, int]]:
    """Every ``(length, i, j)`` of ring position i and hole position j, in
    the order ``sorted()`` gives all of them, produced nearest first.
    ``box``, by default ``_box(cpts)``, is any box containing ``cpts``.

    Ring vertices fall in rows as tall as about 1/sqrt(m) of the longer side
    of ``box``, each in one of its rows. Each round takes a radius r, from
    one row height, doubling. It files the ring vertices in the hole's
    bounding box grown by r into rows sorted as ``(x, i, y)``, and each hole
    vertex takes one slice of x within r, by bisection, from every row
    within r of it, clamped to the rows of ``box``. It yields, sorted, the
    pairs longer than the previous radius and at most r. Once r spans both
    rings, the last round yields every pair left. Each pair falls in one
    round and rounds ascend, so the stream equals the full sort, ties
    included. Rounding drops no vertex: a computed length of at most r means
    coordinates within r(1 + 2^-50), the bounds grow by r(1 + 2^-32), and
    rounding is monotone.
    """
    x0, y0, x1, y1 = _box(cpts) if box is None else box
    height = max(x1 - x0, y1 - y0) / math.ceil(math.sqrt(len(cpts)))
    inv = 1.0 / height if height > 0.0 else 0.0
    last_row = int((y1 - y0) * inv)
    hx0, hy0, hx1, hy1 = _box(hpts)
    reach = math.hypot(max(x1, hx1) - min(x0, hx0), max(y1, hy1) - min(y0, hy0))
    lo, r = -math.inf, height
    while 0.0 < r < reach:
        pad = r + r * 2.0**-32
        bx0, by0, bx1, by1 = hx0 - pad, hy0 - pad, hx1 + pad, hy1 + pad
        rows: dict = {}  # row -> (its x-coordinates, its (x, i, y)), by x
        for i, (x, y) in enumerate(cpts):
            if bx0 <= x <= bx1 and by0 <= y <= by1:
                rows.setdefault(int((y - y0) * inv), []).append((x, i, y))
        for k, row in rows.items():
            row.sort()
            rows[k] = [x for x, _, _ in row], row
        batch = [
            (length, i, j)
            for j, (hx, hy) in enumerate(hpts)
            for k in range(
                max(int((hy - pad - y0) * inv), 0), min(int((hy + pad - y0) * inv), last_row) + 1
            )
            if k in rows
            for row_x, row in [rows[k]]
            for x, i, y in row[bisect_left(row_x, hx - pad) : bisect_right(row_x, hx + pad)]
            if lo < (length := math.hypot(x - hx, y - hy)) <= r
        ]
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
    cpts: Sequence[Point2],
    hpts: Sequence[Point2],
    edges: list,
    *,
    box: Optional[tuple[float, float, float, float]] = None,
) -> tuple[float, int, int]:
    """Shortest unobstructed segment joining ring ``cpts`` to hole ``hpts``.

    Returns ``(length, i, j)`` for ring position i and hole position j.
    ``edges`` are the obstacles, boxed by ``polygon._boxed_edge``. The m*n
    vertex pairs are visited in order of length (ties: smaller ring
    position, then smaller hole position), nearest first, until one neither
    crosses nor grazes any of ``edges`` and enters the interior wedge at
    both of its endpoints. Only pairs shorter than about twice the winning
    length, or one row height of ``_pairs_by_length`` when that is longer,
    are ever measured and sorted. Zero-length candidates, where a ring
    vertex coincides with a hole vertex, are skipped: they would create a
    null slit. Raises NoValidBridge if every candidate is obstructed.
    ``box`` is any ``(x0, y0, x1, y1)`` containing ``cpts``, by default
    their bounding box.
    """
    m = len(cpts)
    k = len(hpts)
    for length, i, j in _pairs_by_length(cpts, hpts, box=box):
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

    Each search is given the box of the whole vertex table: it contains
    every merged ring and, on valid input, equals the merged ring's box.
    """
    outer = poly.outer
    cpts, cur_idx = outer.points, tuple(range(len(outer)))
    if not poly.holes:
        return DegenerateRing(outer, cur_idx, ())
    edges = [e for ring in (outer, *poly.holes) for e in _boxed_edges(ring)]
    off = len(outer)  # table index of the current hole's first vertex
    bridges = []
    box = _box(poly.vertex_table())
    for h, hole in enumerate(poly.holes, start=1):
        hpts = hole.points
        length, i, j = find_bridge(cpts, hpts, edges, box=box)
        a, c = cpts[i], hpts[j]
        edges += (_boxed_edge(a, c), _boxed_edge(c, a))
        cpts = _splice(cpts, hpts, i, j)
        cur_idx = _splice(cur_idx, tuple(range(off, off + len(hpts))), i, j)
        off += len(hpts)
        bridges.append(BridgeEdge((0, i), (h, j), length))
    return DegenerateRing(Ring._trusted(cpts), cur_idx, tuple(bridges))
