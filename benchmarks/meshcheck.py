"""Independent validity check of one triangulation.

Re-derives, without the library's helpers, what a correct result must
satisfy for a polygon whose hole-eliminated ring has N positions:

* exactly N - 2 triangles, N being the outer vertex count plus, per hole,
  its vertex count plus 2;
* every triangle index lies in the vertex table and names the same vertex
  as the ring node it came from;
* every triangle is counter-clockwise, or flagged degenerate with an area
  no larger than the library's area tolerance;
* the triangle areas sum (``math.fsum``) to the outer area minus the hole
  areas, to a relative 1e-9;
* edge balance by node identity: each edge of the N-position ring is used
  by exactly one triangle and every other edge by exactly two;
* every triangle centroid lies inside the outer ring and outside every hole,
  up to 1e-9 from their boundaries.

This is at least as strict as the count, area, edge-balance and centroid
checks of the test suite's acceptance criteria 1-3.
"""

from __future__ import annotations

import math
from collections import Counter

AREA_REL_TOL = 1e-9
DEGENERATE_AREA = 1e-12  # the library's default absolute area tolerance
BOUNDARY_TOL = 1e-9


def _ring_area(pts) -> float:
    n = len(pts)
    return 0.5 * math.fsum(
        pts[i][0] * pts[(i + 1) % n][1] - pts[(i + 1) % n][0] * pts[i][1] for i in range(n)
    )


def _dist_point_segment(p, a, b) -> float:
    dx, dy = b[0] - a[0], b[1] - a[1]
    l2 = dx * dx + dy * dy
    if l2 == 0.0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    t = max(0.0, min(1.0, ((p[0] - a[0]) * dx + (p[1] - a[1]) * dy) / l2))
    return math.hypot(p[0] - (a[0] + t * dx), p[1] - (a[1] + t * dy))


class _RingIndex:
    """Even-odd point containment for one ring, edges bucketed by y band."""

    def __init__(self, pts):
        self.pts = pts
        n = len(pts)
        ys = [p[1] for p in pts]
        self.ymin = min(ys)
        self.bands = max(1, n // 4)
        self.height = (max(ys) - self.ymin) / self.bands or 1.0
        self.buckets: list[list[tuple]] = [[] for _ in range(self.bands)]
        for i in range(n):
            a, b = pts[i], pts[(i + 1) % n]
            lo, hi = self._band(min(a[1], b[1])), self._band(max(a[1], b[1]))
            for k in range(lo, hi + 1):
                self.buckets[k].append((a[0], a[1], b[0], b[1]))

    def _band(self, y: float) -> int:
        return min(self.bands - 1, max(0, int((y - self.ymin) / self.height)))

    def inside(self, x: float, y: float) -> bool:
        inside = False
        for xi, yi, xj, yj in self.buckets[self._band(y)]:
            if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
                inside = not inside
        return inside

    def near_boundary(self, x: float, y: float) -> bool:
        n = len(self.pts)
        p = (x, y)
        return any(
            _dist_point_segment(p, self.pts[i], self.pts[(i + 1) % n]) <= BOUNDARY_TOL
            for i in range(n)
        )


def check_mesh(tri, poly) -> list[str]:
    """Problems found in ``tri`` as a triangulation of ``poly`` (empty = valid).

    ``poly`` is the normalized input polygon; ``tri`` the library's
    ``Triangulation`` for it.
    """
    problems: list[str] = []
    table = tri.vertex_table
    nv = len(table)
    outer = [tuple(p) for p in poly.outer.points]
    holes = [[tuple(p) for p in h.points] for h in poly.holes]
    expected_table = outer + [p for h in holes for p in h]
    if [tuple(p) for p in table] != expected_table:
        problems.append("vertex table differs from the input polygon's vertices")
    positions = len(outer) + sum(len(h) + 2 for h in holes)
    if len(tri.triangles) != positions - 2:
        problems.append(f"{len(tri.triangles)} triangles for a {positions}-position ring")

    nodes_by_seq: dict[int, object] = {}
    edges: Counter = Counter()
    areas = []
    for t in tri.triangles:
        idx = (t.a, t.b, t.c)
        if not all(isinstance(i, int) and 0 <= i < nv for i in idx):
            problems.append(f"triangle {idx} indexes outside the {nv}-vertex table")
            continue
        if tuple(n.original_index for n in t.nodes) != idx:
            problems.append(f"triangle {idx} disagrees with its ring nodes")
        (ax, ay), (bx, by), (cx, cy) = (table[i] for i in idx)
        area = 0.5 * ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))
        areas.append(area)
        if t.degenerate:
            if abs(area) > DEGENERATE_AREA:
                problems.append(f"triangle {idx} flagged degenerate has area {area!r}")
        elif not area > 0.0:
            problems.append(f"triangle {idx} is not counter-clockwise (area {area!r})")
        for node in t.nodes:
            if nodes_by_seq.setdefault(node.seq, node) is not node:
                problems.append(f"two ring nodes share position {node.seq}")
        s = [n.seq for n in t.nodes]
        for u, v in ((s[0], s[1]), (s[1], s[2]), (s[2], s[0])):
            edges[(u, v) if u < v else (v, u)] += 1
    if problems:
        return problems

    want = _ring_area(outer) - sum(abs(_ring_area(h)) for h in holes)
    got = math.fsum(areas)
    if abs(got - want) > AREA_REL_TOL * abs(want):
        problems.append(f"triangle area {got!r} differs from polygon area {want!r}")

    boundary = {(k, k + 1) for k in range(positions - 1)} | {(0, positions - 1)}
    for edge, count in edges.items():
        if count != (1 if edge in boundary else 2):
            problems.append(f"edge between ring positions {edge} used by {count} triangles")
    missing = boundary - edges.keys()
    if missing:
        problems.append(f"{len(missing)} ring edges belong to no triangle")

    outer_index = _RingIndex(outer)
    hole_indexes = [_RingIndex(h) for h in holes]
    for t in tri.triangles:
        (ax, ay), (bx, by), (cx, cy) = (table[i] for i in (t.a, t.b, t.c))
        x, y = (ax + bx + cx) / 3.0, (ay + by + cy) / 3.0
        if not outer_index.inside(x, y) and not outer_index.near_boundary(x, y):
            problems.append(f"triangle {t.indices()} lies outside the outer ring")
        for k, hole in enumerate(hole_indexes):
            if hole.inside(x, y) and not hole.near_boundary(x, y):
                problems.append(f"triangle {t.indices()} lies inside hole {k}")
    return problems
