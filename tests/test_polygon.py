import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polytri import (
    InvalidRing,
    PolygonWithHoles,
    Ring,
    build_ring,
    normalize,
)
from polytri.geom import DegenerateVertex, Point2
from polytri.polygon import refresh_node, remove_vertex, validate_polygon
from conftest import tri_angles_oracle

P = Point2


class TestRing:
    def test_too_few_points(self):
        with pytest.raises(InvalidRing):
            Ring([(0, 0), (1, 0)])

    def test_non_finite(self):
        with pytest.raises(InvalidRing):
            Ring([(0, 0), (1, 0), (float("nan"), 1)])

    def test_vertex_table_order(self):
        poly = PolygonWithHoles(
            Ring([(0, 0), (4, 0), (4, 4), (0, 4)]), [Ring([(1, 1), (1, 3), (3, 3), (3, 1)])]
        )
        table = poly.vertex_table()
        assert table[:4] == (P(0, 0), P(4, 0), P(4, 4), P(0, 4))
        assert table[4:] == (P(1, 1), P(1, 3), P(3, 3), P(3, 1))


class TestNormalize:
    def test_ccw_hole_reversed_to_cw(self):
        outer = Ring([(0, 0), (4, 0), (4, 4), (0, 4)])
        hole_ccw = Ring([(1, 1), (3, 1), (3, 3), (1, 3)])
        assert hole_ccw.signed_area() > 0
        poly = normalize(PolygonWithHoles(outer, [hole_ccw]))
        assert poly.outer.signed_area() > 0
        assert poly.holes[0].signed_area() < 0

    def test_cw_outer_reversed_to_ccw(self):
        outer = Ring([(0, 0), (0, 4), (4, 4), (4, 0)])
        poly = normalize(PolygonWithHoles(outer))
        assert poly.outer.signed_area() > 0

    def test_idempotent(self):
        poly = PolygonWithHoles(
            Ring([(0, 0), (0, 4), (4, 4), (4, 0)]),
            [Ring([(1, 1), (3, 1), (3, 3), (1, 3)])],
        )
        once = normalize(poly)
        twice = normalize(once)
        assert once == twice

    def test_already_normalized_unchanged(self):
        poly = PolygonWithHoles(Ring([(0, 0), (4, 0), (4, 4), (0, 4)]))
        assert normalize(poly) == poly

    def test_consecutive_duplicate_removed(self):
        ring = Ring([(0, 0), (1, 0), (1, 0), (1, 1), (0, 1)])
        poly = normalize(PolygonWithHoles(ring))
        assert len(poly.outer) == 4

    def test_wraparound_duplicate_removed(self):
        ring = Ring([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
        poly = normalize(PolygonWithHoles(ring))
        assert len(poly.outer) == 4

    def test_collapse_raises(self):
        ring = Ring([(0, 0), (0, 0), (0, 0), (1e-12, 0)])
        with pytest.raises(InvalidRing):
            normalize(PolygonWithHoles(ring))

    def test_zero_area_raises(self):
        with pytest.raises(InvalidRing):
            normalize(PolygonWithHoles(Ring([(0, 0), (1, 0), (2, 0)])))


class TestBuildRing:
    def test_unit_square(self, unit_square):
        ring = build_ring(unit_square)
        assert ring.count == 4
        for node in ring:
            assert node.interior_angle == pytest.approx(90.0)
            assert node.is_convex
            assert not node.is_ear
        assert not ring.reflex

    def test_l_shape_single_reflex(self, l_shape):
        ring = build_ring(l_shape)
        reflex = [n for n in ring if not n.is_convex]
        assert len(reflex) == 1
        assert reflex[0].point == P(1, 1)
        assert reflex[0].interior_angle == pytest.approx(270.0)
        # every angle agrees with an unsigned-angle oracle folded by convexity
        for n in ring:
            raw = tri_angles_oracle(n.point, n.prev.point, n.next.point)[0]
            want = raw if n.is_convex else 360.0 - raw
            assert n.interior_angle == pytest.approx(want, abs=1e-9)

    def test_triangle_angles_sum(self):
        ring = build_ring(Ring([(0, 0), (4, 0), (0, 3)]))
        assert ring.count == 3
        assert math.fsum(n.interior_angle for n in ring) == pytest.approx(180.0)

    def test_original_indices_and_table(self, l_shape):
        ring = build_ring(l_shape)
        assert [n.original_index for n in ring] == list(range(6))
        assert ring.table == l_shape.points

    def test_custom_indices(self):
        ring = build_ring(
            Ring([(0, 0), (1, 0), (1, 1)]),
            indices=[5, 7, 9],
            table=tuple(P(float(i), 0.0) for i in range(10)),
        )
        assert [n.original_index for n in ring] == [5, 7, 9]

    def test_coincident_neighbours_raise(self):
        with pytest.raises(DegenerateVertex):
            build_ring(Ring([(0, 0), (0, 0), (1, 1), (0, 1)]))

    def test_straight_vertex_is_reflex(self):
        ring = build_ring(Ring([(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)]))
        mid = next(n for n in ring if n.point == P(1, 0))
        assert mid.interior_angle == 180.0
        assert not mid.is_convex
        assert mid in ring.reflex

    def test_spike_vertex_is_full_turn(self):
        # both neighbours leave the tip along the same ray: zero-width spike
        ring = build_ring(Ring([(2, 0), (0, 0), (1, 0), (1, 2)]))
        tip = next(n for n in ring if n.point == P(0, 0))
        assert tip.interior_angle == 360.0
        assert not tip.is_convex
        assert tip in ring.reflex

    def test_linkage(self, unit_square):
        ring = build_ring(unit_square)
        for n in ring:
            assert n.prev.next is n
            assert n.next.prev is n

    def test_gauss_bonnet_on_simple_rings(self, small_corpus):
        # turning angles of a simple CCW ring add up to one full turn
        for poly in small_corpus:
            ring = build_ring(poly.outer)
            total = math.fsum(180.0 - n.interior_angle for n in ring)
            assert total == pytest.approx(360.0, abs=1e-6)


class TestRemoveVertex:
    def test_square_to_triangle(self, unit_square):
        ring = build_ring(unit_square)
        remove_vertex(ring, ring.head)
        assert ring.count == 3
        assert len(ring.nodes()) == 3

    def test_pentagon_link_contract(self):
        ring = build_ring(Ring([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]))
        nodes = ring.nodes()
        v1, v2, v3 = nodes[1], nodes[2], nodes[3]
        remove_vertex(ring, v2)
        assert v1.next is v3
        assert v3.prev is v1

    def test_removal_down_to_three(self):
        ring = build_ring(Ring([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]))
        remove_vertex(ring, ring.head)
        remove_vertex(ring, ring.head)
        assert ring.count == 3
        assert len(ring.nodes()) == 3
        for n in ring:
            assert n.prev.next is n
            assert n.next.prev is n

    def test_head_forwarding(self, unit_square):
        ring = build_ring(unit_square)
        old_head = ring.head
        remove_vertex(ring, old_head)
        assert ring.head is not old_head

    def test_reflex_set_maintenance(self, l_shape):
        ring = build_ring(l_shape)
        reflex_node = next(n for n in ring if not n.is_convex)
        remove_vertex(ring, reflex_node)
        assert reflex_node not in ring.reflex


class TestRefreshNode:
    def test_unreflexing_cut(self):
        # clipping the ear at B turns its reflex neighbour C convex
        ring = build_ring(Ring([(0, 0), (2, 0), (1.2, 0.4), (2, 2), (0, 1)]))
        nodes = ring.nodes()
        b, c = nodes[1], nodes[2]
        assert not c.is_convex
        remove_vertex(ring, b)
        refresh_node(ring, c)
        assert c.is_convex
        assert c not in ring.reflex

    def test_collapsed_edge_marks_reflex_without_raising(self):
        ring = build_ring(Ring([(0, 0), (4, 0), (4, 4), (0, 4)]))
        nodes = ring.nodes()
        # forge a collapsed edge: drag a node onto its neighbour
        nodes[1].x, nodes[1].y = nodes[2].x, nodes[2].y
        refresh_node(ring, nodes[1])
        assert not nodes[1].is_convex
        assert nodes[1].interior_angle == 360.0
        assert nodes[1] in ring.reflex


class TestValidatePolygon:
    def test_valid(self):
        poly = normalize(
            PolygonWithHoles(
                Ring([(0, 0), (4, 0), (4, 4), (0, 4)]),
                [Ring([(1, 1), (1, 3), (3, 3), (3, 1)])],
            )
        )
        assert validate_polygon(poly) == []

    def test_hole_outside(self):
        poly = normalize(
            PolygonWithHoles(
                Ring([(0, 0), (4, 0), (4, 4), (0, 4)]),
                [Ring([(5, 5), (5, 6), (6, 6), (6, 5)])],
            )
        )
        assert validate_polygon(poly)

    def test_hole_crossing_outer(self):
        poly = normalize(
            PolygonWithHoles(
                Ring([(0, 0), (4, 0), (4, 4), (0, 4)]),
                [Ring([(3, 1), (5, 1), (5, 3), (3, 3)])],
            )
        )
        assert validate_polygon(poly)

    def test_overlapping_holes(self):
        poly = normalize(
            PolygonWithHoles(
                Ring([(0, 0), (8, 0), (8, 8), (0, 8)]),
                [
                    Ring([(1, 1), (1, 4), (4, 4), (4, 1)]),
                    Ring([(3, 3), (3, 6), (6, 6), (6, 3)]),
                ],
            )
        )
        assert validate_polygon(poly)

    def test_corpus_polygons_valid(self, small_corpus):
        for poly in small_corpus:
            assert validate_polygon(poly) == []


@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=4, max_value=30),
)
def test_normalize_idempotent_on_random_stars(seed, n):
    import random

    from polytri.corpus import star_ring

    ring = star_ring(random.Random(seed), n)
    poly = normalize(PolygonWithHoles(ring))
    assert normalize(poly) == poly
