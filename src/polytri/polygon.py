"""Polygon data model.

Immutable rings and polygons on one side; on the other, the mutable doubly
linked vertex ring that the clipping passes consume and tear down. A ring is
stored open (the last point connects implicitly back to the first) and the
outer boundary is always normalized to counter-clockwise order with holes
clockwise.
"""

from __future__ import annotations

import logging
import math
from typing import Iterable, Iterator, Optional, Sequence

from .geom import (
    EPS_AREA,
    EPS_LEN,
    DegenerateVertex,
    InvalidRing,
    Point2,
    point_in_ring,
    points_close,
    segments_properly_cross,
    signed_area,
)
from .reflexgrid import ReflexGrid

__all__ = [
    "Ring",
    "PolygonWithHoles",
    "VertexNode",
    "VertexRing",
    "normalize",
    "build_ring",
    "remove_vertex",
    "refresh_node",
    "validate_polygon",
]

log = logging.getLogger("polytri")


class Ring:
    """An open list of vertices forming a closed loop (last joins first)."""

    __slots__ = ("points",)

    def __init__(self, points: Iterable[Sequence[float]]):
        pts = tuple(Point2(float(p[0]), float(p[1])) for p in points)
        if len(pts) < 3:
            raise InvalidRing(f"ring needs at least 3 points, got {len(pts)}")
        for p in pts:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise InvalidRing(f"non-finite coordinate {p}")
        self.points = pts

    @classmethod
    def _trusted(cls, points: tuple[Point2, ...]) -> "Ring":
        """A ring over ``points`` as given: at least 3 finite ``Point2``s,
        taken from rings that were already checked. Not for outside input."""
        ring = object.__new__(cls)
        ring.points = points
        return ring

    def signed_area(self) -> float:
        return signed_area(self.points)

    def reversed(self) -> "Ring":
        return Ring._trusted(self.points[::-1])

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point2]:
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return f"Ring({len(self.points)} points)"


class PolygonWithHoles:
    """One outer ring plus zero or more hole rings.

    After :func:`normalize` the outer ring is counter-clockwise and every
    hole is clockwise. Hole containment and disjointness are not checked
    here; that is the opt-in :func:`validate_polygon` pass.
    """

    __slots__ = ("outer", "holes")

    def __init__(self, outer: Ring, holes: Iterable[Ring] = ()):
        self.outer = outer
        self.holes = tuple(holes)

    def vertex_table(self) -> tuple[Point2, ...]:
        """Flattened vertex list: outer vertices first, then each hole's."""
        table = list(self.outer.points)
        for h in self.holes:
            table.extend(h.points)
        return tuple(table)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolygonWithHoles)
            and self.outer == other.outer
            and self.holes == other.holes
        )

    def __hash__(self) -> int:
        return hash((self.outer, self.holes))

    def __repr__(self) -> str:
        return f"PolygonWithHoles(outer={len(self.outer)} pts, holes={len(self.holes)})"


def _dedupe(points: Sequence[Point2]) -> tuple[Point2, ...]:
    """Drop consecutive (and wrap-around) points closer than EPS_LEN."""
    kept: list[Point2] = []
    for p in points:
        if kept and math.hypot(p.x - kept[-1].x, p.y - kept[-1].y) <= EPS_LEN:
            continue
        kept.append(p)
    while len(kept) > 1 and math.hypot(
        kept[0].x - kept[-1].x, kept[0].y - kept[-1].y
    ) <= EPS_LEN:
        kept.pop()
    return tuple(kept)


def _normalize_ring(ring: Ring, want_ccw: bool, label: str) -> Ring:
    pts = _dedupe(ring.points)
    if len(pts) < 3:
        raise InvalidRing(f"{label} collapses below 3 points after removing duplicates")
    area = signed_area(pts)
    if abs(area) <= EPS_AREA:
        raise InvalidRing(f"{label} has (near-)zero area")
    if (area > 0.0) != want_ccw:
        pts = tuple(reversed(pts))
        log.info("%s reversed to %s order", label, "CCW" if want_ccw else "CW")
    if pts == ring.points:
        return ring
    return Ring._trusted(pts)


def normalize(poly: PolygonWithHoles) -> PolygonWithHoles:
    """Canonical form: outer CCW, holes CW, consecutive duplicates removed.

    Idempotent; point order is otherwise preserved. Raises InvalidRing when
    a ring collapses below 3 points or encloses no area.
    """
    outer = _normalize_ring(poly.outer, True, "outer ring")
    holes = tuple(
        _normalize_ring(h, False, f"hole {i}") for i, h in enumerate(poly.holes)
    )
    if outer is poly.outer and all(a is b for a, b in zip(holes, poly.holes)):
        return poly
    return PolygonWithHoles(outer, holes)


class VertexNode:
    """A vertex in the live clipping ring.

    Carries its coordinates inline (hot loops read ``x``/``y`` directly),
    the index of the vertex in the flattened input table, and the cached
    interior angle, convexity, and ear status. ``is_ear`` is None while the
    flag is pending: the ear test it stands for is due as of ring cut
    ``stamp``, the cut that last refreshed the node (see
    :mod:`polytri.earclip`). ``gone_at`` is the first cut at which the node
    was refreshed convex, infinite until then, or -1 once it joined the
    reflex set after :func:`build_ring`.
    """

    __slots__ = (
        "x",
        "y",
        "original_index",
        "prev",
        "next",
        "interior_angle",
        "is_convex",
        "is_ear",
        "seq",
        "stamp",
        "gone_at",
    )

    def __init__(self, x: float, y: float, original_index: int, seq: int):
        self.x = x
        self.y = y
        self.original_index = original_index
        self.prev: "VertexNode" = self
        self.next: "VertexNode" = self
        self.interior_angle = 0.0
        self.is_convex = False
        self.is_ear: Optional[bool] = False
        self.seq = seq
        self.stamp = 0
        self.gone_at = math.inf

    @property
    def point(self) -> Point2:
        return Point2(self.x, self.y)

    def __repr__(self) -> str:
        return (
            f"VertexNode(#{self.original_index} ({self.x:.6g},{self.y:.6g}) "
            f"angle={self.interior_angle:.2f})"
        )


class VertexRing:
    """Circular doubly linked ring of vertices, consumed by ear clipping.

    ``reflex``, set by :func:`build_ring`, is a :class:`ReflexGrid`: rows
    over the ring's starting bounding box, each sorted by x, so an ear test
    visits only the reflex nodes near its triangle. It never loses a member:
    it holds every node reflex when :func:`build_ring` returns, plus each
    node that :func:`refresh_node` finds reflex later. The current reflex
    set is its members that are not convex (a clipped node is convex).
    ``reflex_grown`` turns true when a node turns reflex after
    :func:`build_ring`; until then the reflex set only loses members, and
    the reflex set as of cut ``t`` is the members whose ``gone_at`` exceeds
    ``t``, which is what a pending ear flag stamped ``t`` is tested against.
    ``clock`` counts the cuts made so far. ``ears`` is the clipping loop's
    heap of ear candidates, built on first use (see :mod:`polytri.earclip`).
    Single-threaded mutable state: one triangulation run owns one ring.
    """

    __slots__ = ("head", "count", "table", "reflex", "ears", "reflex_grown", "clock")

    def __init__(self, head: VertexNode, count: int, table: tuple[Point2, ...]):
        self.head = head
        self.count = count
        self.table = table
        self.ears: Optional[list] = None
        self.reflex_grown = False
        self.clock = 0

    def __iter__(self) -> Iterator[VertexNode]:
        node = self.head
        for _ in range(self.count):
            yield node
            node = node.next


def refresh_node(
    ring: VertexRing, node: VertexNode, strict: bool = False
) -> None:
    """Recompute angle and convexity of ``node`` from its current neighbours.

    Convexity comes from the turn direction (a left turn is convex on a CCW
    ring); exactly straight or spiked vertices are reflex. A node that was
    reflex and turns convex records the cut in ``gone_at`` unless it has
    one. A node that was convex and turns reflex sets ``ring.reflex_grown``
    and, unless it is a member already, joins ``ring.reflex`` with
    ``gone_at`` -1, so that no ear test as of an earlier cut sees it. Clears
    the ear flag on non-convex nodes and stamps the node with
    ``ring.clock``, the cut its ear flag is due as of.

    With ``strict`` a coincident neighbour raises DegenerateVertex (build
    time, where it means broken input). Without it the node is marked
    reflex with a 360 degree angle so a collapsed edge mid-run is never
    clipped as an ear.
    """
    was_convex = node.is_convex
    p, n = node.prev, node.next
    ux, uy = p.x - node.x, p.y - node.y
    wx, wy = n.x - node.x, n.y - node.y
    if math.hypot(ux, uy) <= EPS_LEN or math.hypot(wx, wy) <= EPS_LEN:
        if strict:
            raise DegenerateVertex(f"coincident neighbours at {node!r}")
        node.interior_angle = 360.0
        node.is_convex = False
    else:
        z = wx * uy - wy * ux  # positive iff convex on a CCW ring
        if abs(z) > EPS_AREA:
            node.interior_angle = (
                math.degrees(math.atan2(uy, ux) - math.atan2(wy, wx)) % 360.0
            )
        else:
            node.interior_angle = 180.0 if ux * wx + uy * wy < 0.0 else 360.0
        node.is_convex = z > EPS_AREA
    node.stamp = ring.clock
    if node.is_convex:
        if not was_convex:
            node.gone_at = min(node.gone_at, ring.clock)
    else:
        node.is_ear = False
        if was_convex:
            ring.reflex_grown = True
            if node not in ring.reflex:
                ring.reflex.add(node)
                node.gone_at = -1


def build_ring(
    ring: Ring,
    indices: Optional[Sequence[int]] = None,
    table: Optional[tuple[Point2, ...]] = None,
) -> VertexRing:
    """Create the linked vertex ring for a normalized CCW boundary.

    ``indices`` maps each position to its index in the flattened vertex
    table (bridged rings repeat indices for duplicated vertices); it
    defaults to 0..n-1 with the ring's own points as the table. Interior
    angles and convexity are computed for every node; ear flags start
    false, and so does ``reflex_grown``. Then ``reflex`` is built over the
    nodes' bounding box and filled with the reflex nodes by one sort.
    """
    pts = ring.points
    n = len(pts)
    if indices is None:
        indices = range(n)
    if table is None:
        table = pts
    nodes = [VertexNode(p.x, p.y, idx, seq) for seq, (p, idx) in enumerate(zip(pts, indices))]
    for i, node in enumerate(nodes):
        node.prev = nodes[i - 1]
        node.next = nodes[(i + 1) % n]
    vring = VertexRing(nodes[0], n, table)
    for node in nodes:
        refresh_node(vring, node, strict=True)  # nodes start non-convex: no growth
    vring.reflex = ReflexGrid(nodes, [node for node in nodes if not node.is_convex])
    return vring


def remove_vertex(ring: VertexRing, v: VertexNode) -> VertexRing:
    """Unlink ``v`` from the ring; neighbour angles are NOT recomputed here.

    The caller (the clipping loop) refreshes the two neighbours afterwards.
    ``v`` keeps its own prev/next pointers so an emitted triangle can still
    reference them. The clip removes only convex tips, so ``ring.reflex``,
    which skips convex members in current-set ear tests, needs no change.
    """
    if ring.count < 3:
        raise InvalidRing("cannot remove from a ring with fewer than 3 vertices")
    v.prev.next = v.next
    v.next.prev = v.prev
    if ring.head is v:
        ring.head = v.next
    ring.count -= 1
    return ring


def _boxed_edge(a: Point2, b: Point2) -> tuple[float, float, float, float, Point2, Point2]:
    """Edge ``(a, b)`` as ``(minx, miny, maxx, maxy, a, b)``.

    The box is the edge's bounding box padded by EPS_LEN: the coincidence
    tests of ``segments_properly_cross`` accept points at most EPS_LEN
    outside a segment's box, and a proper crossing lies inside both boxes,
    so a segment whose box misses the padded box cannot meet the edge.
    """
    t = EPS_LEN
    minx, maxx = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
    miny, maxy = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
    return (minx - t, miny - t, maxx + t, maxy + t, a, b)


def _boxed_edges(ring: Ring) -> list[tuple[float, float, float, float, Point2, Point2]]:
    """Each edge of ``ring``, in ring order, boxed by :func:`_boxed_edge`."""
    pts = ring.points
    return [_boxed_edge(a, b) for a, b in zip(pts, pts[1:] + pts[:1])]


def _crosses_any(
    a: Point2, b: Point2, edges: Sequence[tuple[float, float, float, float, Point2, Point2]]
) -> bool:
    """True iff segment ab properly crosses one of ``edges`` (see :func:`_boxed_edges`).

    Only edges whose padded box meets the box of ab are tested.
    """
    minx, maxx = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
    miny, maxy = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
    for x0, y0, x1, y1, c, d in edges:
        if x1 < minx or x0 > maxx or y1 < miny or y0 > maxy:
            continue
        if segments_properly_cross(a, b, c, d):
            return True
    return False


def validate_polygon(poly: PolygonWithHoles) -> list[str]:
    """Opt-in O(n^2) structural check; returns a list of problems (empty = ok).

    Verifies that every hole lies strictly inside the outer ring and that no
    two rings touch or cross. Assumes a normalized polygon.
    """
    problems: list[str] = []
    outer_edges = _boxed_edges(poly.outer)
    hole_edges = [_boxed_edges(h) for h in poly.holes]
    for i, h in enumerate(poly.holes):
        for p in h.points:
            if not point_in_ring(p, poly.outer.points):
                problems.append(f"hole {i}: vertex {p} outside the outer ring")
                break
        for *_, a, b in hole_edges[i]:
            if _crosses_any(a, b, outer_edges):
                problems.append(f"hole {i}: crosses the outer ring")
                break
    for i in range(len(poly.holes)):
        for j in range(i + 1, len(poly.holes)):
            crossing = any(_crosses_any(a, b, hole_edges[j]) for *_, a, b in hole_edges[i])
            nested = point_in_ring(
                poly.holes[i].points[0], poly.holes[j].points
            ) or point_in_ring(poly.holes[j].points[0], poly.holes[i].points)
            if crossing or nested:
                problems.append(f"holes {i} and {j} overlap")
            elif any(points_close(p, q) for p in poly.holes[i] for q in poly.holes[j]):
                # a shared vertex is not a crossing (segments_properly_cross)
                problems.append(f"holes {i} and {j} touch at a vertex")
    return problems
