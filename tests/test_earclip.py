import heapq
import math
import pathlib

import pytest

from polytri import (
    EarSearchFailed,
    PolygonWithHoles,
    Ring,
    build_ring,
    eliminate_holes,
    generate_corpus,
    normalize,
    parse_polygon,
    triangulate_polygon,
    triangulate_ring,
)
from polytri.earclip import (
    _ear_key,
    _select_fallback,
    _select_smallest_angle,
    is_ear,
    update_after_cut,
)
from polytri.geom import Point2, cross2
from polytri.polygon import remove_vertex
from conftest import (
    brute_force_is_ear,
    edge_counts,
    inside_with_tolerance,
    oracle_inside,
    ring_adjacent_edges,
    triangulation_area,
)

P = Point2
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def centroid(a, b, c):
    return P((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)


class TestIsEar:
    def test_convex_polygon_every_vertex_is_ear(self):
        hexagon = Ring(
            [P(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
        )
        ring = build_ring(hexagon)
        for node in ring:
            assert is_ear(ring, node)

    def test_reflex_vertex_is_not_ear(self, l_shape):
        ring = build_ring(l_shape)
        reflex = next(n for n in ring if not n.is_convex)
        assert not is_ear(ring, reflex)

    def test_dart_blocked_by_contained_reflex(self):
        # tip (4,0) forms triangle (0,0),(4,0),(4,4) whose closure holds the
        # reflex vertex (1,1); the closure oracle confirms both facts
        dart = Ring([(0, 0), (4, 0), (4, 4), (1, 1)])
        ring = build_ring(dart)
        nodes = list(ring)
        tip = nodes[1]
        blocker = nodes[3]
        assert not blocker.is_convex
        from polytri.geom import point_in_triangle_closure

        assert point_in_triangle_closure(blocker.point, P(0, 0), P(4, 0), P(4, 4))
        assert not is_ear(ring, tip)

    def test_matches_brute_force_on_corpus(self, small_corpus):
        for poly in small_corpus:
            ring = build_ring(poly.outer)
            for node in ring:
                assert is_ear(ring, node) == brute_force_is_ear(ring, node)


class TestTriangulateBasic:
    def test_unit_square(self, unit_square):
        tri = triangulate_ring(build_ring(unit_square), "basic")
        assert [(t.a, t.b, t.c) for t in tri.triangles] == [(3, 0, 1), (1, 2, 3)]
        areas = [0.5 * cross2(*t.points()) for t in tri.triangles]
        assert areas == pytest.approx([0.5, 0.5])
        assert triangulation_area(tri) == pytest.approx(1.0)

    def test_triangle_count_law(self, small_corpus):
        for poly in small_corpus:
            ring = build_ring(poly.outer)
            tri = triangulate_ring(ring, "basic")
            assert len(tri.triangles) == len(poly.outer) - 2

    def test_area_conservation_random_20gon(self):
        from polytri import generate_corpus

        poly = generate_corpus(seed=3, count=1, vertex_range=(20, 20))[0]
        tri = triangulate_ring(build_ring(poly.outer), "basic")
        want = poly.outer.signed_area()
        assert abs(triangulation_area(tri) - want) <= 1e-9 * abs(want)

    def test_all_triangles_ccw(self, small_corpus):
        for poly in small_corpus[:10]:
            tri = triangulate_ring(build_ring(poly.outer), "basic")
            for t in tri.triangles:
                assert cross2(*t.points()) > 0

    def test_centroids_inside(self, small_corpus):
        for poly in small_corpus[:10]:
            tri = triangulate_ring(build_ring(poly.outer), "basic")
            for t in tri.triangles:
                assert inside_with_tolerance(centroid(*t.points()), poly.outer.points)

    def test_edge_balance(self, small_corpus):
        for poly in small_corpus[:10]:
            tri = triangulate_ring(build_ring(poly.outer), "basic")
            boundary = ring_adjacent_edges(tri)
            counts = edge_counts(tri)
            for key, count in counts.items():
                if key in boundary:
                    assert count == 1
                else:
                    assert count == 2
            singles = {k for k, v in counts.items() if v == 1}
            assert singles == boundary

    def test_selection_rule(self, small_corpus):
        # the engine never clips a tip when a verified ear with a strictly
        # smaller interior angle exists
        poly = small_corpus[0]
        ring = build_ring(poly.outer)
        for node in ring:
            node.is_ear = is_ear(ring, node) if node.is_convex else False
        steps = 0
        while ring.count > 3 and steps < 12:
            chosen = _select_smallest_angle(ring)
            assert chosen is not None
            for node in ring:
                if node is chosen:
                    continue
                if is_ear(ring, node):
                    assert node.interior_angle >= chosen.interior_angle - 1e-12
            left, right = chosen.prev, chosen.next
            remove_vertex(ring, chosen)
            update_after_cut(ring, left, right)
            steps += 1

    def test_duplicate_heap_entry_compares_no_nodes(self, small_corpus):
        # heap entries end in the node itself, and VertexNode has no
        # ordering: two equal entries of one node must tie without the heap
        # ever asking which node is smaller, or it raises TypeError
        ring = build_ring(small_corpus[0].outer)
        for node in ring:
            node.is_ear = is_ear(ring, node) if node.is_convex else False
        first = _select_smallest_angle(ring)
        entry = ring.ears[0]
        copy = (*entry,)
        assert copy == entry and copy is not entry
        heapq.heappush(ring.ears, copy)
        assert _select_smallest_angle(ring) is first
        left, right = first.prev, first.next
        remove_vertex(ring, first)
        update_after_cut(ring, left, right)
        assert _select_smallest_angle(ring) not in (None, first)

    @pytest.mark.parametrize("name", ["spiral", "comb", "star2000", "two_holes"])
    def test_selection_matches_brute_force_oracle(self, name):
        # a full basic clip, cut by cut: every selected tip is the live node
        # with the smallest selection key among those the from-scratch ear
        # oracle accepts, and the fallback fires only when it accepts none.
        # On a bridged ring a cut can turn convex the bridge twin of another
        # tip's neighbour and so unblock that tip, whose cached ear flag
        # stays false; there the oracle ranks flagged nodes only.
        if name in ("spiral", "comb"):
            poly = parse_polygon((FIXTURES / f"{name}.poly").read_text())
        elif name == "star2000":
            poly = generate_corpus(seed=909, count=1, vertex_range=(2000, 2000))[0]
        else:
            # the bridged ring of this seed needs the fallback twice
            poly = generate_corpus(
                seed=1, count=1, vertex_range=(60, 60), holes_range=(2, 2)
            )[0]
        poly = normalize(poly)
        degen = eliminate_holes(poly)
        ring = build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())
        for node in ring:
            node.is_ear = is_ear(ring, node) if node.is_convex else False
        cuts = fallbacks = 0
        while ring.count > 3:
            ears = (v for v in sorted(ring, key=_ear_key) if brute_force_is_ear(ring, v))
            best = next(ears, None)
            while poly.holes and best is not None and not best.is_ear:
                best = next(ears, None)
            chosen = _select_smallest_angle(ring)
            if chosen is None:
                assert best is None, best
                chosen = _select_fallback(ring)
                fallbacks += 1
            else:
                assert chosen is best, (chosen, best)
            left, right = chosen.prev, chosen.next
            remove_vertex(ring, chosen)
            update_after_cut(ring, left, right)
            cuts += 1
        assert cuts == len(degen.ring) - 3
        assert (fallbacks > 0) == (name == "two_holes")

    def test_unnormalized_cw_ring_fails(self):
        # bypassing normalize: a clockwise ring reads as all-reflex, so no
        # ear or fallback ever applies
        cw_square = Ring([(0, 0), (0, 1), (1, 1), (1, 0)])
        with pytest.raises(EarSearchFailed) as exc:
            triangulate_ring(build_ring(cw_square), "basic")
        assert len(exc.value.points) >= 3

    def test_tiny_simple_polygon_blames_tolerance(self):
        # a simple star scaled by 1e-7: every cross product falls below the
        # absolute EPS_AREA, so the message must name scale as a cause and
        # not only self-intersection
        poly = generate_corpus(5, 20, (4, 200), (0, 2))[11]
        assert not poly.holes
        triangulate_polygon(poly, "basic")
        tiny = PolygonWithHoles(Ring([(x * 1e-7, y * 1e-7) for x, y in poly.outer]))
        with pytest.raises(EarSearchFailed, match="tolerance"):
            triangulate_polygon(tiny, "basic")


class TestTriangulateTraditional:
    def test_unit_square(self, unit_square):
        tri = triangulate_ring(build_ring(unit_square), "traditional")
        assert len(tri.triangles) == 2
        assert triangulation_area(tri) == pytest.approx(1.0)

    def test_convex_hexagon_scan_order(self):
        # hand-traced: clip 0, resume at 1, clip 1, 2, then the remainder
        hexagon = Ring(
            [P(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
        )
        tri = triangulate_ring(build_ring(hexagon), "traditional")
        assert [(t.a, t.b, t.c) for t in tri.triangles] == [
            (5, 0, 1),
            (5, 1, 2),
            (5, 2, 3),
            (3, 4, 5),
        ]

    def test_same_count_and_area_as_basic(self, small_corpus):
        for poly in small_corpus:
            t1 = triangulate_ring(build_ring(poly.outer), "basic")
            t2 = triangulate_ring(build_ring(poly.outer), "traditional")
            assert len(t1.triangles) == len(t2.triangles)
            assert triangulation_area(t1) == pytest.approx(
                triangulation_area(t2), rel=1e-9
            )

    def test_spiral_and_comb_fixtures(self):
        import pathlib

        from polytri import parse_polygon

        here = pathlib.Path(__file__).parent / "fixtures"
        for name in ("spiral.poly", "comb.poly"):
            poly = parse_polygon((here / name).read_text())
            n = len(poly.outer)
            for algorithm in ("basic", "traditional", "improved"):
                tri = triangulate_ring(build_ring(poly.outer), algorithm)
                assert len(tri.triangles) == n - 2
                for t in tri.triangles:
                    assert oracle_inside(centroid(*t.points()), poly.outer.points)
                want = poly.outer.signed_area()
                assert abs(triangulation_area(tri) - want) <= 1e-9 * abs(want)


class TestMeshDisjointness:
    @staticmethod
    def _strictly_inside(p, a, b, c):
        for u, w in ((a, b), (b, c), (c, a)):
            if (w.x - u.x) * (p.y - u.y) - (w.y - u.y) * (p.x - u.x) <= 1e-9:
                return False
        return True

    def _assert_disjoint_interiors(self, tri):
        from conftest import oracle_segments_share_beyond_endpoint

        tris = [t.points() for t in tri.triangles if not t.degenerate]
        edges = [
            [tuple(sorted(((pts[i].x, pts[i].y), (pts[(i + 1) % 3].x, pts[(i + 1) % 3].y))))
             for i in range(3)]
            for pts in tris
        ]
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                for ei, (p1, p2) in enumerate(edges[i]):
                    for ej, (q1, q2) in enumerate(edges[j]):
                        if (p1, p2) == (q1, q2):
                            continue  # shared diagonals and doubled slit edges
                        assert not oracle_segments_share_beyond_endpoint(
                            p1, p2, q1, q2
                        ), (i, j, p1, p2, q1, q2)
                for p in tris[i]:
                    assert not self._strictly_inside(p, *tris[j])
                for p in tris[j]:
                    assert not self._strictly_inside(p, *tris[i])

    def test_interiors_pairwise_disjoint(self, small_corpus):
        # exact cover evidence beyond area conservation: no two triangle
        # interiors may overlap, including across bridge slits
        from polytri import PolygonWithHoles, triangulate_polygon

        simple = next(p for p in small_corpus if not p.holes and len(p.outer) <= 40)
        holed = next(p for p in small_corpus if len(p.holes) == 2)
        for poly, alg in ((simple, "basic"), (simple, "traditional"), (holed, "improved")):
            tri, _ = triangulate_polygon(poly, alg, bound=30.0)
            self._assert_disjoint_interiors(tri)


class TestUpdateAfterCut:
    def test_square_corner_cut_makes_45_degree_ears(self, unit_square):
        ring = build_ring(unit_square)
        v = ring.head  # (0,0)
        left, right = v.prev, v.next
        remove_vertex(ring, v)
        update_after_cut(ring, left, right)
        assert left.interior_angle == pytest.approx(45.0)
        assert right.interior_angle == pytest.approx(45.0)
        assert left.is_convex and right.is_convex
        assert left.is_ear and right.is_ear

    def test_cut_unreflexes_neighbour(self):
        ring = build_ring(Ring([(0, 0), (2, 0), (1.2, 0.4), (2, 2), (0, 1)]))
        nodes = list(ring)
        b, c = nodes[1], nodes[2]
        assert not c.is_convex
        assert is_ear(ring, b)
        left, right = b.prev, b.next
        remove_vertex(ring, b)
        update_after_cut(ring, left, right)
        assert c.is_convex
        assert c.interior_angle < 180.0

    def test_far_vertex_untouched(self):
        ring = build_ring(Ring([(0, 0), (2, 0), (1.2, 0.4), (2, 2), (0, 1)]))
        nodes = list(ring)
        far = nodes[4]
        before = (far.interior_angle, far.is_convex, far.is_ear)
        b = nodes[1]
        left, right = b.prev, b.next
        remove_vertex(ring, b)
        update_after_cut(ring, left, right)
        assert (far.interior_angle, far.is_convex, far.is_ear) == before

