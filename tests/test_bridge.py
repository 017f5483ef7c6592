import math

import pytest

from polytri import (
    NoValidBridge,
    PolygonWithHoles,
    Ring,
    build_ring,
    eliminate_holes,
    find_bridge,
    normalize,
    triangulate_ring,
)
from polytri.bridge import _in_wedge, merge_hole
from polytri.geom import Point2
from conftest import oracle_segments_share_beyond_endpoint, triangulation_area

P = Point2

OUTER = Ring([(0, 0), (4, 0), (4, 4), (0, 4)])
HOLE = Ring([(1, 1), (1, 3), (3, 3), (3, 1)])  # already clockwise


from conftest import oracle_find_bridge as brute_force_bridge  # noqa: E402


class TestFindBridge:
    def test_square_in_square_corner_pair(self):
        b = find_bridge(OUTER, HOLE)
        assert b.outer_vertex == (0, 0)
        assert b.hole_vertex == (1, 0)
        assert b.length == pytest.approx(math.sqrt(2.0))
        oracle = brute_force_bridge(OUTER, HOLE)
        assert oracle == (b.length, b.outer_vertex[1], b.hole_vertex[1])

    def test_hole_hugging_wall(self):
        # hole close to the right wall connects to that wall's nearest vertex
        hole = Ring([(3.4, 1.8), (3.4, 2.2), (3.9, 2.2), (3.9, 1.8)])
        assert hole.signed_area() < 0
        b = find_bridge(OUTER, hole)
        want = brute_force_bridge(OUTER, hole)
        assert want == (b.length, b.outer_vertex[1], b.hole_vertex[1])
        assert OUTER.points[b.outer_vertex[1]].x == 4.0  # a right-wall vertex

    def test_blocked_by_second_hole_picks_next_shortest(self):
        outer = Ring([(0, 0), (12, 0), (12, 6), (0, 6)])
        # target hole on the right; blocking hole sits between it and the
        # nearest outer corner so the shortest pair is obstructed
        blocker = Ring([(9.4, 0.4), (9.4, 1.6), (10.6, 1.6), (10.6, 0.4)])
        target = Ring([(8.6, 1.9), (8.6, 3.1), (9.9, 3.1), (9.9, 1.9)])
        assert blocker.signed_area() < 0 and target.signed_area() < 0
        naive = find_bridge(outer, target)
        guarded = find_bridge(outer, target, obstacles=[blocker])
        assert guarded.length >= naive.length
        want = brute_force_bridge(outer, target, obstacles=[blocker])
        assert want == (guarded.length, guarded.outer_vertex[1], guarded.hole_vertex[1])
        # the chosen bridge must not touch the blocking hole
        a = outer.points[guarded.outer_vertex[1]]
        b = target.points[guarded.hole_vertex[1]]
        bpts = blocker.points
        for i in range(len(bpts)):
            assert not oracle_segments_share_beyond_endpoint(
                a, b, bpts[i], bpts[(i + 1) % len(bpts)]
            )

    def test_no_valid_bridge(self):
        # a "hole" congruent with the outer ring leaves only zero-length or
        # overlapping candidates
        with pytest.raises(NoValidBridge):
            find_bridge(OUTER, OUTER.reversed())


class TestMergeHole:
    def test_vertex_count(self):
        b = find_bridge(OUTER, HOLE)
        merged = merge_hole(OUTER, HOLE, b)
        assert len(merged) == len(OUTER) + len(HOLE) + 2

    def test_area_subtracts_hole(self):
        b = find_bridge(OUTER, HOLE)
        merged = merge_hole(OUTER, HOLE, b)
        assert merged.signed_area() == pytest.approx(16.0 - 4.0)

    def test_result_is_ccw(self):
        b = find_bridge(OUTER, HOLE)
        assert merge_hole(OUTER, HOLE, b).signed_area() > 0

    def test_traversal_layout(self):
        b = find_bridge(OUTER, HOLE)
        merged = merge_hole(OUTER, HOLE, b)
        assert merged.points == (
            P(0, 0),
            P(1, 1), P(1, 3), P(3, 3), P(3, 1), P(1, 1),
            P(0, 0),
            P(4, 0), P(4, 4), P(0, 4),
        )

    def test_bridge_endpoints_duplicated(self):
        b = find_bridge(OUTER, HOLE)
        merged = merge_hole(OUTER, HOLE, b)
        assert merged.points.count(OUTER.points[b.outer_vertex[1]]) == 2
        assert merged.points.count(HOLE.points[b.hole_vertex[1]]) == 2


class TestEliminateHoles:
    def test_zero_holes_identity(self):
        degen = eliminate_holes(PolygonWithHoles(OUTER))
        assert degen.ring == OUTER
        assert degen.indices == tuple(range(4))
        assert degen.bridges == ()

    def test_single_hole_counts_and_triangulation(self):
        poly = normalize(PolygonWithHoles(OUTER, [HOLE]))
        degen = eliminate_holes(poly)
        assert len(degen.ring) == 10
        assert len(degen.indices) == 10
        ring = build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())
        tri = triangulate_ring(ring, "basic")
        assert len(tri.triangles) == 8
        assert triangulation_area(tri) == pytest.approx(12.0)

    def test_two_holes_count_law(self):
        poly = normalize(
            PolygonWithHoles(
                Ring([(0, 0), (10, 0), (10, 10), (0, 10)]),
                [
                    Ring([(1, 1), (1, 2), (2, 2), (2, 1)]),
                    Ring([(6, 6), (6, 8), (8, 8), (8, 6)]),
                ],
            )
        )
        degen = eliminate_holes(poly)
        n_total = 4 + 4 + 4
        assert len(degen.ring) == n_total + 2 * 2
        assert len(degen.bridges) == 2
        assert degen.ring.signed_area() == pytest.approx(100.0 - 1.0 - 4.0)

    def test_duplicates_share_original_index(self):
        poly = normalize(PolygonWithHoles(OUTER, [HOLE]))
        degen = eliminate_holes(poly)
        table = poly.vertex_table()
        seen = {}
        for pos, idx in enumerate(degen.indices):
            assert table[idx] == degen.ring.points[pos]
            seen.setdefault(idx, []).append(pos)
        duplicated = [idx for idx, ps in seen.items() if len(ps) == 2]
        assert len(duplicated) == 2  # both bridge endpoints

    def test_bridges_do_not_cross_result(self, corpus200):
        # spot-check on real corpus geometry: no bridge shares a point with
        # any non-incident edge of the final ring
        checked = 0
        for poly in corpus200:
            if not poly.holes or checked >= 10:
                continue
            checked += 1
            degen = eliminate_holes(poly)
            pts = degen.ring.points
            n = len(pts)
            edge_list = [(pts[i], pts[(i + 1) % n]) for i in range(n)]
            # the doubled bridge edges appear twice in the edge list and
            # legitimately coincide; every other pair must stay disjoint
            for i in range(n):
                for j in range(i + 1, n):
                    if j in ((i + 1) % n, i) or (j + 1) % n == i:
                        continue
                    a, b = edge_list[i]
                    c, d = edge_list[j]
                    # doubled bridge edges legitimately overlap each other
                    if {a, b} == {c, d}:
                        continue
                    assert not oracle_segments_share_beyond_endpoint(a, b, c, d), (
                        i,
                        j,
                        a,
                        b,
                        c,
                        d,
                    )


class TestWedge:
    def test_square_corner(self):
        v, nxt, prv = P(0, 0), P(1, 0), P(0, 1)
        assert _in_wedge(v, nxt, prv, P(1, 1))
        assert not _in_wedge(v, nxt, prv, P(-1, -1))
        assert not _in_wedge(v, nxt, prv, P(1, 0))  # along an edge: excluded

    def test_reflex_wedge(self):
        v, nxt, prv = P(0, 0), P(0, 1), P(1, 0)  # 270 degree wedge
        assert _in_wedge(v, nxt, prv, P(-1, -1))
        assert not _in_wedge(v, nxt, prv, P(1, 1))
