import logging
import random

import pytest

from polytri import (
    AngleBound,
    Point2,
    build_ring,
    find_neighbor_across_longest_edge,
    triangulate_basic,
    triangulate_improved,
    try_swap,
)
from polytri.earclip import Triangulation, edge_key
from polytri.polygon import VertexNode
from polytri.geom import cross2
from conftest import quad_pair_min6, ring_adjacent_edges, triangulation_area

P = Point2


def quad_triangulation(p0, p1, p2, p3):
    """Two triangles (p0,p1,p2) and (p0,p2,p3) over the diagonal p0-p2."""
    nodes = [VertexNode(p.x, p.y, i, i) for i, p in enumerate((p0, p1, p2, p3))]
    tri = Triangulation((p0, p1, p2, p3))
    tri.add_triangle(nodes[0], nodes[1], nodes[2])
    tri.add_triangle(nodes[0], nodes[2], nodes[3])
    return tri, nodes


class TestAngleBound:
    def test_clamps_above_60(self, caplog):
        with caplog.at_level(logging.WARNING, logger="polytri"):
            b = AngleBound(75.0)
        assert b.degrees == 60.0
        assert any("clamp" in r.message for r in caplog.records)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            AngleBound(-1.0)


class TestFindNeighbor:
    def test_across_square_diagonal(self):
        tri, _ = quad_triangulation(P(0, 0), P(1, 0), P(1, 1), P(0, 1))
        t0, t1 = tri.triangles
        assert find_neighbor_across_longest_edge(t0, tri) is t1
        assert find_neighbor_across_longest_edge(t1, tri) is t0

    def test_first_clipped_ear_has_no_neighbor(self, unit_square):
        # replicate the engine's very first cut by hand
        ring = build_ring(unit_square)
        tri = Triangulation(ring.table)
        v = ring.head
        tri.add_triangle(v.prev, v, v.next)
        assert find_neighbor_across_longest_edge(tri.triangles[0], tri) is None

    def test_longest_edge_on_boundary_gives_none(self):
        # lone obtuse triangle: the longest edge is opposite the obtuse
        # corner and has multiplicity one, like any input boundary edge
        a, b, c = P(0, 0), P(10, 0), P(5, 1)
        nodes = [VertexNode(p.x, p.y, i, i) for i, p in enumerate((a, b, c))]
        tri = Triangulation((a, b, c))
        tri.add_triangle(*nodes)
        assert find_neighbor_across_longest_edge(tri.triangles[0], tri) is None


class TestTrySwap:
    def test_square_is_tie_and_unchanged(self):
        tri, _ = quad_triangulation(P(0, 0), P(1, 0), P(1, 1), P(0, 1))
        t0, t1 = tri.triangles
        before = (t0.indices(), t1.indices())
        assert try_swap(t0, t1, tri) is None
        assert (t0.indices(), t1.indices()) == before

    def test_kite_swaps(self):
        # sliver pair over the long diagonal; the short diagonal roughly
        # doubles the pair minimum (5.71 -> 11.42 degrees)
        tri, _ = quad_triangulation(P(0, 0), P(10, -1), P(20, 0), P(10, 1))
        t0, t1 = tri.triangles
        old_min = quad_pair_min6(P(0, 0), P(10, -1), P(20, 0), P(10, 1))
        assert old_min == pytest.approx(5.71, abs=0.01)
        out = try_swap(t0, t1, tri)
        assert out is not None
        new1, new2 = out
        for t in (new1, new2):
            assert cross2(*t.points()) > 0
        # the new diagonal joins the two apexes
        assert {frozenset((t.a, t.b, t.c)) for t in tri.triangles} == {
            frozenset((0, 1, 3)),
            frozenset((1, 2, 3)),
        }

    def test_nonconvex_quad_unchanged(self):
        tri, _ = quad_triangulation(P(0, 0), P(4, 0), P(1, 1), P(0, 4))
        t0, t1 = tri.triangles
        assert try_swap(t0, t1, tri) is None

    def test_edge_map_transactional_update(self):
        tri, nodes = quad_triangulation(P(0, 0), P(10, -1), P(20, 0), P(10, 1))
        t0, t1 = tri.triangles
        assert try_swap(t0, t1, tri) is not None
        assert edge_key(nodes[0], nodes[2]) not in tri.edge_map
        assert sorted(tri.edge_map[edge_key(nodes[1], nodes[3])]) == [0, 1]
        for key, owners in tri.edge_map.items():
            for tid in owners:
                u, w = key
                assert u in tri.triangles[tid].nodes and w in tri.triangles[tid].nodes

    def test_verdict_matches_brute_force_on_random_quads(self):
        rng = random.Random(99)
        from conftest import random_convex_quad

        agree = 0
        for _ in range(1000):
            p0, p1, p2, p3 = random_convex_quad(rng)
            tri, _ = quad_triangulation(p0, p1, p2, p3)
            t0, t1 = tri.triangles
            old_min = quad_pair_min6(p0, p1, p2, p3)
            alt_min = quad_pair_min6(p1, p2, p3, p0)  # diagonal p1-p3
            out = try_swap(t0, t1, tri)
            assert (out is not None) == (alt_min > old_min), (p0, p1, p2, p3)
            agree += 1
        assert agree == 1000


class TestTriangulateImproved:
    def test_bound_zero_identical_to_basic(self, small_corpus):
        for poly in small_corpus[:12]:
            t_basic = triangulate_basic(build_ring(poly.outer))
            t_imp = triangulate_improved(build_ring(poly.outer), bound=0.0)
            assert [(t.a, t.b, t.c) for t in t_basic.triangles] == [
                (t.a, t.b, t.c) for t in t_imp.triangles
            ]
            assert t_imp.swap_count == 0

    def test_square_any_bound(self, unit_square):
        for bound in (0.0, 30.0, 60.0):
            tri = triangulate_improved(build_ring(unit_square), bound=bound)
            assert len(tri.triangles) == 2
            assert triangulation_area(tri) == pytest.approx(1.0)

    def test_count_and_area_preserved_under_swaps(self, small_corpus):
        for poly in small_corpus:
            n = len(poly.outer)
            tri = triangulate_improved(build_ring(poly.outer), bound=30.0)
            assert len(tri.triangles) == n - 2
            want = poly.outer.signed_area()
            assert abs(triangulation_area(tri) - want) <= 1e-9 * abs(want)
            for t in tri.triangles:
                if not t.degenerate:
                    assert cross2(*t.points()) > 0

    def test_edge_balance_after_swaps(self, small_corpus):
        swaps_seen = 0
        for poly in small_corpus:
            tri = triangulate_improved(build_ring(poly.outer), bound=30.0)
            swaps_seen += tri.swap_count
            boundary = ring_adjacent_edges(tri)
            for key, owners in tri.edge_map.items():
                assert len(owners) in (1, 2)
                if key in boundary:
                    assert len(owners) == 1
            singles = {k for k, v in tri.edge_map.items() if len(v) == 1}
            assert singles == boundary
        assert swaps_seen > 0  # the corpus must actually exercise swapping

    def test_accepts_plain_float_bound(self, unit_square):
        tri = triangulate_improved(build_ring(unit_square), bound=30)
        assert len(tri.triangles) == 2
