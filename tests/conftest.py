"""Shared fixtures and independent oracles.

The oracles here deliberately re-derive results with different formulations
than the library (parametric segment intersection, explicit-loop ray
casting, exhaustive enumeration) so that agreement between the two is
meaningful.
"""

import functools
import math
import random
from collections import Counter

import pytest

from polytri import PolygonWithHoles, Ring, build_ring, eliminate_holes, generate_corpus, normalize
from polytri import earclip
from polytri.earclip import Triangle, _start_flags
from polytri.geom import EPS_AREA, EPS_LEN, Point2, triangle_angles_xy


# ---------------------------------------------------------------------------
# point-based forms of library predicates, used only by tests


def cross2(a: Point2, b: Point2, c: Point2) -> float:
    """z component of (b - a) x (c - a); twice the signed area of abc."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def point_in_triangle_closure(
    p: Point2, a: Point2, b: Point2, c: Point2
) -> bool:
    """True iff ``p`` lies inside triangle abc or on its boundary.

    Three orientation tests; a collinear verdict counts as on-boundary and
    therefore inside the closure. Works for either winding of abc.
    """
    e = EPS_AREA
    z1 = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
    z2 = (c[0] - b[0]) * (p[1] - b[1]) - (c[1] - b[1]) * (p[0] - b[0])
    z3 = (a[0] - c[0]) * (p[1] - c[1]) - (a[1] - c[1]) * (p[0] - c[0])
    if z1 >= -e and z2 >= -e and z3 >= -e:
        return True
    return z1 <= e and z2 <= e and z3 <= e


def triangle_angles(
    a: Point2, b: Point2, c: Point2
) -> tuple[float, float, float]:
    """The interior angles of triangle abc in degrees, at a, b, c, from
    :func:`polytri.geom.triangle_angles_xy` on the points' coordinates."""
    return triangle_angles_xy(a[0], a[1], b[0], b[1], c[0], c[1])


# ---------------------------------------------------------------------------
# independent geometric oracles


def oracle_inside(p, pts) -> bool:
    """Even-odd ray casting, written independently of the library's."""
    x, y = p[0], p[1]
    inside = False
    n = len(pts)
    j = n - 1
    for i in range(n):
        xi, yi = pts[i][0], pts[i][1]
        xj, yj = pts[j][0], pts[j][1]
        if (yi > y) != (yj > y) and x < (xj - xi) * (y - yi) / (yj - yi) + xi:
            inside = not inside
        j = i
    return inside


def dist_point_segment(p, a, b) -> float:
    px, py = p[0], p[1]
    ax, ay = a[0], a[1]
    bx, by = b[0], b[1]
    dx, dy = bx - ax, by - ay
    L2 = dx * dx + dy * dy
    if L2 == 0.0:
        return math.hypot(px - ax, py - ay)
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / L2))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def dist_to_ring(p, pts) -> float:
    n = len(pts)
    return min(dist_point_segment(p, pts[i], pts[(i + 1) % n]) for i in range(n))


def inside_with_tolerance(p, pts, tol=1e-9) -> bool:
    """Closure containment: inside, or within tol of the boundary."""
    return oracle_inside(p, pts) or dist_to_ring(p, pts) <= tol


def outside_with_tolerance(p, pts, tol=1e-9) -> bool:
    """Not strictly inside: outside, or within tol of the boundary."""
    return (not oracle_inside(p, pts)) or dist_to_ring(p, pts) <= tol


def oracle_segments_share_beyond_endpoint(a, b, c, d, tol=1e-9) -> bool:
    """Parametric re-derivation of segments_properly_cross semantics."""
    ax, ay, bx, by = a[0], a[1], b[0], b[1]
    cx, cy, dx, dy = c[0], c[1], d[0], d[1]
    rx, ry = bx - ax, by - ay
    sx, sy = dx - cx, dy - cy
    rlen = math.hypot(rx, ry)
    denom = rx * sy - ry * sx
    qpx, qpy = cx - ax, cy - ay

    def close(p, q):
        return math.hypot(p[0] - q[0], p[1] - q[1]) <= tol

    shared_pairs = [(p, q) for p in (a, b) for q in (c, d) if close(p, q)]
    if len(shared_pairs) >= 2:
        return True
    if abs(denom) > 1e-12 * max(1.0, rlen * math.hypot(sx, sy)):
        t = (qpx * sy - qpy * sx) / denom
        u = (qpx * ry - qpy * rx) / denom
        margin = 1e-9
        if -margin <= t <= 1 + margin and -margin <= u <= 1 + margin:
            hit = (ax + t * rx, ay + t * ry)
            if shared_pairs and close(hit, shared_pairs[0][0]):
                return False  # only contact is the shared endpoint
            return True
        return False
    # parallel: collinear iff c is on line ab
    if abs(qpx * ry - qpy * rx) > tol * max(1.0, rlen):
        return False
    # collinear overlap test by projection onto ab
    t0 = (qpx * rx + qpy * ry) / (rlen * rlen)
    t1 = ((dx - ax) * rx + (dy - ay) * ry) / (rlen * rlen)
    lo, hi = min(t0, t1), max(t0, t1)
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if hi < lo - tol / rlen:
        return False
    if (hi - lo) * rlen > tol:
        return True  # overlap longer than a point
    # single-point contact: allowed only when it is a shared endpoint
    return not shared_pairs


def segment_separation(a, b, c, d) -> float:
    """Minimum distance between two segments (0 when they intersect)."""

    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 != 0 and o2 != 0:
        return 0.0
    return min(
        dist_point_segment(a, c, d),
        dist_point_segment(b, c, d),
        dist_point_segment(c, a, b),
        dist_point_segment(d, a, b),
    )


def oracle_in_wedge(v, toward_next, toward_prev, target) -> bool:
    """Sign-logic re-derivation of the bridge sector test (no atan2)."""
    nx, ny = toward_next[0] - v[0], toward_next[1] - v[1]
    px, py = toward_prev[0] - v[0], toward_prev[1] - v[1]
    tx, ty = target[0] - v[0], target[1] - v[1]
    left_of_n = nx * ty - ny * tx > 0.0
    right_of_p = tx * py - ty * px > 0.0
    if nx * py - ny * px > 0.0:  # convex wedge (up to 180 degrees)
        return left_of_n and right_of_p
    if nx * py - ny * px < 0.0:  # reflex wedge
        return left_of_n or right_of_p
    # straight or null wedge: straight means dot < 0, null contains nothing
    if nx * px + ny * py < 0.0:
        return left_of_n and right_of_p
    return False


def oracle_find_bridge(current, hole, obstacles=()):
    """Exhaustive shortest-valid bridge, fully independent re-derivation.

    Returns (length, ring position, hole position) or None.
    """
    cpts, hpts = current.points, hole.points
    m, k = len(cpts), len(hpts)
    edges = []
    for ring in (current, hole, *obstacles):
        pts = ring.points
        edges.extend((pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts)))
    for length, i, j in sorted(
        (math.hypot(c.x - h.x, c.y - h.y), i, j)
        for i, c in enumerate(cpts)
        for j, h in enumerate(hpts)
    ):
        if length <= 1e-9:
            continue
        a, b = cpts[i], hpts[j]
        if not oracle_in_wedge(a, cpts[(i + 1) % m], cpts[i - 1], b):
            continue
        if not oracle_in_wedge(b, hpts[(j + 1) % k], hpts[j - 1], a):
            continue
        if any(oracle_segments_share_beyond_endpoint(a, b, c, d) for c, d in edges):
            continue
        return (length, i, j)
    return None


def recorded_bridge_calls(poly):
    """Run ``eliminate_holes(poly)`` and record every ``bridge.find_bridge`` call.

    Returns the DegenerateRing and one ``(cpts, hpts, edges, result)`` per
    call; ``edges`` is copied at call time, before the merge extends it.
    """
    from polytri import bridge

    real = bridge.find_bridge
    calls = []

    def recorder(cpts, hpts, edges, **kwargs):
        result = real(cpts, hpts, edges, **kwargs)
        calls.append((cpts, hpts, list(edges), result))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bridge, "find_bridge", recorder)
        degen = bridge.eliminate_holes(poly)
    return degen, calls


def tri_angles_oracle(a, b, c):
    """Law-of-cosines angles, independent of the library's atan2 version."""
    la = math.hypot(b[0] - c[0], b[1] - c[1])
    lb = math.hypot(a[0] - c[0], a[1] - c[1])
    lc = math.hypot(a[0] - b[0], a[1] - b[1])

    def ang(opp, s1, s2):
        v = (s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2)
        return math.degrees(math.acos(max(-1.0, min(1.0, v))))

    return ang(la, lb, lc), ang(lb, lc, la), ang(lc, la, lb)


def brute_force_is_ear(ring, v, corner_twins=False) -> bool:
    """Condition check from scratch: convexity by cross sign, then every
    reflex vertex (recomputed here, not trusting cached flags) tested
    against the triangle closure, exempting only the tip's neighbours and,
    with ``corner_twins``, reflex vertices within EPS_LEN of a corner."""
    nodes = list(ring)

    def convex(n):
        z = (n.x - n.prev.x) * (n.next.y - n.y) - (n.y - n.prev.y) * (n.next.x - n.x)
        return z > EPS_AREA

    if not convex(v):
        return False
    a, b, c = v.prev.point, v.point, v.next.point
    for r in nodes:
        if r is v or r is v.prev or r is v.next or convex(r):
            continue
        if corner_twins and min(math.dist(r.point, q) for q in (a, b, c)) <= EPS_LEN:
            continue
        if point_in_triangle_closure(r.point, a, b, c):
            return False
    return True


def add_triangle(tri, na, nb, nc, degenerate=False) -> int:
    """Append ``Triangle(na, nb, nc, degenerate)`` to ``tri`` and return its
    position in ``tri.triangles``, as ``earclip._clip`` does for a cut."""
    tri.triangles.append(Triangle(na, nb, nc, degenerate))
    return len(tri.triangles) - 1


def remove_vertex(ring, v) -> None:
    """Unlink ``v`` from ``ring`` as ``earclip._clip`` does for a cut tip.

    ``v`` keeps its own ``prev`` and ``next``; the neighbours are not
    refreshed, and the reflex index is left as it is.
    """
    v.prev.next = v.next
    v.next.prev = v.prev
    if ring.head is v:
        ring.head = v.next
    ring.count -= 1


def start_clip(ring):
    """Start the clip state of ``ring``, fresh from ``build_ring``, as the
    clip does (:func:`polytri.earclip._start_flags`): the reflex index
    ``ring.reflex``, every node's ``stamp``, ``gone_at`` and ear flag, and
    no heap. Returns ``ring``."""
    _start_flags(ring)
    return ring


@pytest.fixture()
def started_indexes(monkeypatch):
    """The reflex indexes that ``earclip._start_flags`` builds while the
    test runs, in order: one when a clip starts, one more per restart."""
    indexes = []

    def recording(ring):
        _start_flags(ring)
        indexes.append(ring.reflex)

    monkeypatch.setattr(earclip, "_start_flags", recording)
    return indexes


def reflex_members(grid) -> set:
    """The members of a :class:`polytri.earclip.ReflexGrid`, read from its
    rows."""
    return {m for row in grid.rows for m in row}


def ring_adjacent_edges(tri) -> set:
    """Boundary edges of a ring triangulation, re-derived from ring order.

    Every triangle edge whose two nodes are ring-adjacent by ``seq``, modulo
    the ring length N = triangles + 2. Checks that there are exactly N.
    """
    n = len(tri.triangles) + 2
    found = set()
    for t in tri.triangles:
        na, nb, nc = t.nodes
        for u, w in ((na, nb), (nb, nc), (nc, na)):
            if (u.seq - w.seq) % n in (1, n - 1):
                found.add(frozenset((u, w)))
    assert len(found) == n, (len(found), n)
    return found


def edge_counts(tri) -> Counter:
    """How many triangles use each undirected edge, keyed by node identity.

    Keys are ``frozenset((u, w))`` of ring nodes, the form
    ``ring_adjacent_edges`` returns, so the two copies of a bridged vertex
    give distinct edges.
    """
    counts = Counter()
    for t in tri.triangles:
        na, nb, nc = t.nodes
        for u, w in ((na, nb), (nb, nc), (nc, na)):
            counts[frozenset((u, w))] += 1
    return counts


def quad_pair_min6(p0, p1, p2, p3):
    """Minimum angle over the pair (p0,p1,p2),(p0,p2,p3): diagonal p0-p2."""
    return min(min(tri_angles_oracle(p0, p1, p2)), min(tri_angles_oracle(p0, p2, p3)))


def triangulation_area(tri) -> float:
    return math.fsum(
        0.5 * ((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x))
        for a, b, c in (t.points() for t in tri.triangles)
    )


def polygon_area(poly: PolygonWithHoles) -> float:
    return poly.outer.signed_area() - sum(abs(h.signed_area()) for h in poly.holes)


def total_vertex_count(poly: PolygonWithHoles) -> int:
    return len(poly.outer) + sum(len(h) for h in poly.holes)


def random_convex_quad(rng: random.Random):
    """Four points in strictly convex CCW position, no sliver halves."""
    while True:
        pts = [Point2(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(4)]
        hull = _convex_hull(pts)
        if len(hull) != 4:
            continue
        ok = True
        for k in range(4):
            a, b, c = hull[k], hull[(k + 1) % 4], hull[(k + 2) % 4]
            z = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
            if z < 1e-5:
                ok = False
                break
        if ok:
            return hull


def _convex_hull(pts):
    pts = sorted(set(pts))
    if len(pts) < 3:
        return pts

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and (
                (out[-1].x - out[-2].x) * (p.y - out[-2].y)
                - (out[-1].y - out[-2].y) * (p.x - out[-2].x)
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


# ---------------------------------------------------------------------------
# shared corpora (session scoped: generation is deterministic but not free)


@pytest.fixture(scope="session")
def corpus200():
    return generate_corpus(seed=42, count=200, vertex_range=(4, 200), holes_range=(0, 3))


@pytest.fixture(scope="session")
def quality_corpus():
    """Reflex-rich star polygons for quality comparisons."""
    return generate_corpus(seed=1234, count=50, vertex_range=(20, 100), holes_range=(0, 0))


@pytest.fixture(scope="session")
def small_corpus():
    return generate_corpus(seed=7, count=25, vertex_range=(5, 60), holes_range=(0, 2))


# An octagon with two holes that meet at the vertex (15, 3), which each hole
# lists. Under the traditional scan a cut leaves the outer vertex (58, 50)
# between the two copies: it turns into a zero-width spike, reflex at 360
# degrees, mid-run, and blocks a tip that is still flagged as an ear.
TOUCHING_HOLES = PolygonWithHoles(
    Ring([(79, 1), (58, 50), (3, 80), (-52, 56), (-92, 5), (-62, -54), (-10, -76), (68, -65)]),
    [
        Ring([(5, -13), (2, -10), (-1, -7), (-3, -3), (15, 3)]),
        Ring([(48, -1), (47, -9), (43, -15), (38, -21), (15, 3)]),
    ],
)


# Two valid polygons whose shoelace area overflows the float range: a square
# of side 1.6e308 with a unit hole, and a 40-vertex star of radius 1e154
# whose inner vertices lie at 0.4 of it.
FAR_SQUARE = PolygonWithHoles(
    Ring([(-8e307, -8e307), (8e307, -8e307), (8e307, 8e307), (-8e307, 8e307)]),
    [Ring([(0, 0), (0, 1), (1, 1), (1, 0)])],
)
FAR_STAR = PolygonWithHoles(
    Ring(
        [
            (r * 1e154 * math.cos(k * math.pi / 20), r * 1e154 * math.sin(k * math.pi / 20))
            for k, r in enumerate([1.0, 0.4] * 20)
        ]
    )
)


@functools.cache
def restarting_polygon() -> PolygonWithHoles:
    """A valid polygon whose ring grows mid-clip once under every algorithm
    and still meshes cleanly: ``generate_corpus(100, 5, (4, 200), (0, 8))[2]``
    scaled by 1e-5, 87 vertices in all with 3 holes."""
    poly = generate_corpus(100, 5, (4, 200), (0, 8))[2]
    return PolygonWithHoles(
        Ring([(x * 1e-5, y * 1e-5) for x, y in poly.outer]),
        [Ring([(x * 1e-5, y * 1e-5) for x, y in h]) for h in poly.holes],
    )


def bridged_ring(poly):
    """The clipping ring of ``poly`` with its holes bridged in, as
    ``triangulate_polygon`` builds it."""
    poly = normalize(poly)
    degen = eliminate_holes(poly)
    return build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())


@pytest.fixture()
def unit_square():
    return Ring([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture()
def l_shape():
    return Ring([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
