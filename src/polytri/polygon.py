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
    _DEG,
    EPS_AREA,
    EPS_LEN,
    DegenerateVertex,
    InvalidRing,
    Point2,
    _segments_meet,
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
        try:
            pts = tuple(Point2(float(p[0]), float(p[1])) for p in points)
        except (LookupError, TypeError, ValueError) as exc:
            raise InvalidRing(f"{_first_non_point(points)} is not two numbers") from exc
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


def _first_non_point(points: object) -> str:
    """``point i value`` for the first entry of ``points`` that is not two
    numbers; ``a point`` if ``points`` cannot be read a second time."""
    try:
        for i, p in enumerate(points):
            try:
                float(p[0]), float(p[1])
            except (LookupError, TypeError, ValueError):
                return f"point {i} {p!r}"
    except TypeError:
        pass
    return "a point"


class PolygonWithHoles:
    """One outer ring plus zero or more hole rings.

    After :func:`normalize` the outer ring is counter-clockwise and every
    hole is clockwise. Hole containment and disjointness are not checked
    here; that is the opt-in :func:`validate_polygon` pass. ``_normal`` is
    :func:`normalize`'s record (see there), else None.
    """

    __slots__ = ("outer", "holes", "_normal")

    def __init__(self, outer: Ring, holes: Iterable[Ring] = ()):
        self.outer = outer
        self.holes = tuple(holes)
        self._normal: Optional[tuple[tuple[Point2, ...], ...]] = None

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

    Point order is otherwise preserved. Raises InvalidRing when a ring
    collapses below 3 points or encloses no area. Idempotent, to the
    object: no two neighbours of a deduplicated ring are within EPS_LEN,
    and a reversed ring's shoelace terms are the exact negations of the
    original's, so a second pass changes nothing. The result records its
    rings' points in ``_normal`` and comes back at once while they are
    unchanged, as when the CLI's parsed polygon is triangulated.
    """
    points = (poly.outer.points, *(h.points for h in poly.holes))
    if poly._normal == points:
        return poly
    outer = _normalize_ring(poly.outer, True, "outer ring")
    holes = tuple(
        _normalize_ring(h, False, f"hole {i}") for i, h in enumerate(poly.holes)
    )
    if not (outer is poly.outer and all(a is b for a, b in zip(holes, poly.holes))):
        poly = PolygonWithHoles(outer, holes)
    poly._normal = (poly.outer.points, *(h.points for h in poly.holes))
    return poly


class VertexNode:
    """A vertex in the live clipping ring.

    Carries its coordinates inline (hot loops read ``x``/``y`` directly),
    the index of the vertex in the flattened input table, its ring position
    ``seq``, and the convexity from :func:`refresh_node`. ``is_ear``,
    ``stamp`` and ``gone_at`` are the ear-flag state that
    :mod:`polytri.earclip` keeps (see its module docstring).

    The interior angle is computed on first read, from the current
    neighbours, and cached in ``_angle`` (0.0 before the first refresh):
    :func:`refresh_node` sets it for a straight or collapsed corner and
    clears it (None) otherwise. Only
    :func:`refresh_node` clears it, and it runs after every change of
    neighbours, so a cached angle is always the current one. Read it as
    ``interior_angle``; ``earclip._ear_key`` fills the cache inline with
    the same expression.
    """

    __slots__ = (
        "x",
        "y",
        "original_index",
        "prev",
        "next",
        "_angle",
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
        self._angle: Optional[float] = 0.0
        self.is_convex = False
        self.is_ear: Optional[bool] = False
        self.seq = seq
        self.stamp = 0
        self.gone_at = math.inf

    @property
    def point(self) -> Point2:
        return Point2(self.x, self.y)

    @property
    def interior_angle(self) -> float:
        """Interior angle in degrees, 360 at a collapsed corner; computed
        on the first read since :func:`refresh_node` cleared it."""
        angle = self._angle
        if angle is None:
            p, n = self.prev, self.next
            ux, uy = p.x - self.x, p.y - self.y
            wx, wy = n.x - self.x, n.y - self.y
            angle = self._angle = (math.atan2(uy, ux) - math.atan2(wy, wx)) * _DEG % 360.0
        return angle

    def __repr__(self) -> str:
        return (
            f"VertexNode(#{self.original_index} ({self.x:.6g},{self.y:.6g}) "
            f"angle={self.interior_angle:.2f})"
        )


class VertexRing:
    """Circular doubly linked ring of vertices, consumed by ear clipping.

    ``reflex``, set by :func:`build_ring`, is a :class:`ReflexGrid` of the
    nodes reflex then. It and ``ears`` and ``clock`` are the clipping state
    that :mod:`polytri.earclip` keeps (see its module docstring), which
    rebuilds ``reflex`` when the reflex set grows. Single-threaded mutable
    state: one triangulation run owns one ring.
    """

    __slots__ = ("head", "count", "table", "reflex", "ears", "clock")

    def __init__(self, head: VertexNode, count: int, table: tuple[Point2, ...]):
        self.head = head
        self.count = count
        self.table = table
        self.ears: Optional[list] = None
        self.clock = 0

    def __iter__(self) -> Iterator[VertexNode]:
        node = self.head
        for _ in range(self.count):
            yield node
            node = node.next


def refresh_node(node: VertexNode, strict: bool = False) -> None:
    """Recompute ``is_convex`` of ``node`` from its current neighbours, and
    set or clear its cached interior angle; the ear-flag state is
    :mod:`polytri.earclip`'s.

    Convexity comes from the turn direction (a left turn is convex on a CCW
    ring); exactly straight or spiked vertices are reflex, with an angle of
    180 or 360 degrees. With ``strict`` a coincident neighbour raises
    DegenerateVertex (build time, where it means broken input). Without it
    the node is marked reflex with a 360 degree angle so a collapsed edge
    mid-run is never clipped as an ear. Any other angle is left for the
    first read of ``interior_angle`` (see :class:`VertexNode`).

    A leg is coincident when its ``hypot`` is at most EPS_LEN. ``hypot`` is
    faithfully rounded (Python 3.10 on), so it is never below the larger
    absolute coordinate, and a leg with a coordinate outside
    [-EPS_LEN, EPS_LEN] is not coincident without the call.
    """
    p, n = node.prev, node.next
    ux, uy = p.x - node.x, p.y - node.y
    wx, wy = n.x - node.x, n.y - node.y
    t = EPS_LEN
    if (-t <= ux <= t and -t <= uy <= t and math.hypot(ux, uy) <= t) or (
        -t <= wx <= t and -t <= wy <= t and math.hypot(wx, wy) <= t
    ):
        if strict:
            raise DegenerateVertex(f"coincident neighbours at {node!r}")
        node._angle = 360.0
        node.is_convex = False
        return
    z = wx * uy - wy * ux  # positive iff convex on a CCW ring
    if z > EPS_AREA:
        node._angle = None
        node.is_convex = True
    elif z < -EPS_AREA:
        node._angle = None
        node.is_convex = False
    else:
        node._angle = 180.0 if ux * wx + uy * wy < 0.0 else 360.0
        node.is_convex = False


def build_ring(
    ring: Ring,
    indices: Optional[Sequence[int]] = None,
    table: Optional[tuple[Point2, ...]] = None,
) -> VertexRing:
    """Create the linked vertex ring for a normalized CCW boundary.

    ``indices`` maps each position to its index in the flattened vertex
    table (bridged rings repeat indices for duplicated vertices); it
    defaults to 0..n-1 with the ring's own points as the table. Every
    node's convexity is computed by :func:`refresh_node`. Then ``reflex`` is
    built over the nodes' bounding box and filled with the reflex nodes by
    one sort.
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
        refresh_node(node, strict=True)
    vring.reflex = ReflexGrid(nodes)
    return vring


def remove_vertex(ring: VertexRing, v: VertexNode) -> VertexRing:
    """Unlink ``v`` from the ring; neighbour angles are NOT recomputed here.

    The caller (the clipping loop) refreshes the two neighbours afterwards.
    ``v`` keeps its own prev/next pointers so an emitted triangle can still
    reference them. The clip removes only convex tips, which the ear test
    skips among the members of ``ring.reflex`` by their ``gone_at``, so the
    index needs no change.
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


def _vertex_contacts(rings: Sequence[Sequence[Point2]]) -> set[tuple[int, int]]:
    """The pairs ``(i, j)``, ``i <= j``, of rings with two vertices within
    EPS_LEN of each other, ``(i, i)`` where ring ``i`` revisits a vertex. Sorted
    by x, each vertex meets only the later ones within EPS_LEN of it in x."""
    pts = sorted((p.x, p.y, k) for k, ring in enumerate(rings) for p in ring)
    pairs = set()
    for s, p in enumerate(pts):
        for t in range(s + 1, len(pts)):
            q = pts[t]
            if q[0] - p[0] > EPS_LEN:
                break
            if points_close(p, q):
                pairs.add((p[2], q[2]) if p[2] <= q[2] else (q[2], p[2]))
    return pairs


def _edge_contacts(
    rings: Sequence[Sequence[tuple[float, float, float, float, Point2, Point2]]],
    contacts: set[tuple[int, int]],
) -> set[tuple[int, int]]:
    """The pairs ``(i, j)``, ``i <= j``, of rings, each given by its
    :func:`_boxed_edges`, with two edges that share a point
    (:func:`segments_properly_cross`); consecutive edges of one ring do not
    count, so ``(i, i)`` means ring ``i`` crosses itself.

    Sorted by the left side of their padded boxes, each edge is tested only
    against the later ones whose box starts before its own ends and meets
    it in y, and not for a pair of rings already found. ``contacts``, the
    rings' :func:`_vertex_contacts`, spares the endpoint coincidence tests
    for a pair of rings not in it: no endpoint of one edge is then within
    EPS_LEN of one of the other, since two edges of one ring that are not
    consecutive have four distinct vertices.
    """
    order = sorted((e[0], i, k) for i, edges in enumerate(rings) for k, e in enumerate(edges))
    n = len(order)
    pairs = set()
    for s in range(n):
        _, i, k = order[s]
        _, y0, x1, y1, a, b = rings[i][k]
        for t in range(s + 1, n):
            left, j, m = order[t]
            if left > x1:
                break
            _, ey0, _, ey1, c, d = rings[j][m]
            if ey1 < y0 or ey0 > y1:
                continue
            if i == j and (k - m) % len(rings[i]) in (1, len(rings[i]) - 1):
                continue
            pair = (i, j) if i <= j else (j, i)
            if pair in pairs:
                continue
            if pair in contacts:
                if segments_properly_cross(a, b, c, d):
                    pairs.add(pair)
            elif _segments_meet(a, b, c, d):
                pairs.add(pair)
    return pairs


def validate_polygon(poly: PolygonWithHoles) -> list[str]:
    """Opt-in structural check; returns a list of problems (empty = ok).

    Verifies that no ring revisits a vertex or crosses itself, that every
    hole lies strictly inside the outer ring and that no two rings touch or
    cross. One sweep over all vertices finds every vertex contact
    (:func:`_vertex_contacts`), and one over all edges every edge contact
    (:func:`_edge_contacts`, told the vertex contacts), within a ring or
    between two. A hole that meets the outer ring neither at a vertex nor
    along an edge lies wholly inside or wholly outside it, so its first
    vertex decides; a hole that meets it has every vertex tested, to name
    the first one outside.
    Assumes a normalized polygon, in which no two consecutive vertices
    coincide.
    """
    problems: list[str] = []
    outer = poly.outer.points
    holes = poly.holes
    # ring 0 is the outer ring, ring i + 1 is hole i
    contacts = _vertex_contacts([outer, *(h.points for h in holes)])
    crossings = _edge_contacts(
        [_boxed_edges(poly.outer), *(_boxed_edges(h) for h in holes)], contacts
    )
    if (0, 0) in contacts:
        problems.append("outer ring revisits a vertex")
    if (0, 0) in crossings:
        problems.append("outer ring crosses itself")
    for i, h in enumerate(holes):
        k = i + 1
        if (k, k) in contacts:
            problems.append(f"hole {i} revisits a vertex")
        if (k, k) in crossings:
            problems.append(f"hole {i} crosses itself")
        pts = h.points
        meets = (0, k) in crossings or (0, k) in contacts
        for t in range(len(pts) if meets else 1):
            if not point_in_ring(pts[t], outer):
                problems.append(f"hole {i}: vertex {pts[t]} outside the outer ring")
                break
        if (0, k) in crossings:
            problems.append(f"hole {i}: crosses the outer ring")
        # a shared vertex is not a crossing, and ray casting may count it inside
        if (0, k) in contacts:
            problems.append(f"hole {i} touches the outer ring at a vertex")
    for i in range(len(holes)):
        for j in range(i + 1, len(holes)):
            a, b = holes[i].points, holes[j].points
            if (i + 1, j + 1) in crossings or point_in_ring(a[0], b) or point_in_ring(b[0], a):
                problems.append(f"holes {i} and {j} overlap")
            elif (i + 1, j + 1) in contacts:
                # a shared vertex is not a crossing (segments_properly_cross)
                problems.append(f"holes {i} and {j} touch at a vertex")
    return problems
