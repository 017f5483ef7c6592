import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import (
    NoValidBridge,
    PolygonWithHoles,
    Ring,
    build_ring,
    eliminate_holes,
    generate_corpus,
    normalize,
    triangulate_ring,
)
from polytri import bridge
from polytri.bridge import BridgeEdge, _box, _in_wedge, _pairs_by_length, find_bridge
from polytri.polygon import _boxed_edges
from polytri.geom import Point2
from conftest import oracle_segments_share_beyond_endpoint, recorded_bridge_calls, triangulation_area

P = Point2

OUTER = Ring([(0, 0), (4, 0), (4, 4), (0, 4)])
HOLE = Ring([(1, 1), (1, 3), (3, 3), (3, 1)])  # already clockwise


from conftest import oracle_find_bridge as brute_force_bridge  # noqa: E402


def bridge_between(current, hole, obstacles=()):
    """``find_bridge`` with the edges of every given ring as the obstacles."""
    edges = [e for ring in (current, hole, *obstacles) for e in _boxed_edges(ring)]
    return find_bridge(current.points, hole.points, edges)


class TestFindBridge:
    def test_square_in_square_corner_pair(self):
        got = bridge_between(OUTER, HOLE)
        assert got == brute_force_bridge(OUTER, HOLE)
        assert got[0] == pytest.approx(math.sqrt(2.0))
        b = eliminate_holes(PolygonWithHoles(OUTER, [HOLE])).bridges[0]
        assert b.outer_vertex == (0, 0)
        assert b.hole_vertex == (1, 0)

    def test_hole_hugging_wall(self):
        # hole close to the right wall connects to that wall's nearest vertex
        hole = Ring([(3.4, 1.8), (3.4, 2.2), (3.9, 2.2), (3.9, 1.8)])
        assert hole.signed_area() < 0
        got = bridge_between(OUTER, hole)
        assert got == brute_force_bridge(OUTER, hole)
        assert OUTER.points[got[1]].x == 4.0  # a right-wall vertex

    def test_blocked_by_second_hole_picks_next_shortest(self):
        outer = Ring([(0, 0), (12, 0), (12, 6), (0, 6)])
        # target hole on the right; blocking hole sits between it and the
        # nearest outer corner so the shortest pair is obstructed
        blocker = Ring([(9.4, 0.4), (9.4, 1.6), (10.6, 1.6), (10.6, 0.4)])
        target = Ring([(8.6, 1.9), (8.6, 3.1), (9.9, 3.1), (9.9, 1.9)])
        assert blocker.signed_area() < 0 and target.signed_area() < 0
        naive = bridge_between(outer, target)
        guarded = bridge_between(outer, target, obstacles=[blocker])
        assert guarded[0] >= naive[0]
        assert guarded == brute_force_bridge(outer, target, obstacles=[blocker])
        # the chosen bridge must not touch the blocking hole
        a = outer.points[guarded[1]]
        b = target.points[guarded[2]]
        bpts = blocker.points
        for i in range(len(bpts)):
            assert not oracle_segments_share_beyond_endpoint(
                a, b, bpts[i], bpts[(i + 1) % len(bpts)]
            )

    def test_no_valid_bridge(self):
        # a "hole" congruent with the outer ring leaves only zero-length or
        # overlapping candidates
        with pytest.raises(NoValidBridge):
            bridge_between(OUTER, OUTER.reversed())


def all_pairs_sorted(cpts, hpts):
    return sorted(
        (math.hypot(c.x - h.x, c.y - h.y), i, j)
        for i, c in enumerate(cpts)
        for j, h in enumerate(hpts)
    )


def grid_points(lo, hi):
    return st.builds(P, st.integers(lo, hi).map(float), st.integers(lo, hi).map(float))


# the integer points on the circle of radius 5 about the origin
CIRCLE5 = [P(float(x), float(y)) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]


class TestCandidateOrder:
    """The nearest-first stream equals the full sort of all m*n pairs."""

    @settings(max_examples=200)
    @given(
        st.lists(grid_points(-6, 6), min_size=3, max_size=40),
        st.lists(grid_points(-12, 12), min_size=3, max_size=10),
    )
    def test_integer_grid(self, cpts, hpts):
        assert list(_pairs_by_length(cpts, hpts)) == all_pairs_sorted(cpts, hpts)

    @settings(max_examples=200)
    @given(
        st.lists(st.sampled_from(CIRCLE5), min_size=3, max_size=24),
        st.integers(1, 40),
        grid_points(-50, 50),
        st.lists(grid_points(-30, 30), max_size=6),
    )
    def test_cocircular_ring_and_equidistant_hole_vertex(self, circle, scale, center, others):
        # every ring vertex lies at one distance from the circle's center,
        # which is a hole vertex, so its pairs all tie on length
        cpts = [P(center.x + scale * p.x, center.y + scale * p.y) for p in circle]
        hpts = [center, *others, center]
        assert list(_pairs_by_length(cpts, hpts)) == all_pairs_sorted(cpts, hpts)

    def test_degenerate_ring_of_one_point(self):
        cpts = [P(1.0, 1.0)] * 3
        hpts = [P(0.0, 0.0), P(1.0, 1.0), P(5.0, -2.0)]
        assert list(_pairs_by_length(cpts, hpts)) == all_pairs_sorted(cpts, hpts)

    @settings(max_examples=200)
    @given(
        st.lists(grid_points(-6, 6), min_size=3, max_size=40),
        st.lists(grid_points(-12, 12), min_size=3, max_size=10),
        st.floats(0.1, 10.0),
    )
    def test_shifted_by_1e8_and_scaled_by_1e_6(self, cpts, hpts, unit):
        # coordinates near 1e8 keep about 8 bits below the cell width, so
        # box and cell bounds round onto the vertices they must keep
        def far(p):
            return P(1e8 + p.x * unit * 1e-6, 1e8 - p.y * unit * 1e-6)

        cpts, hpts = [far(c) for c in cpts], [far(h) for h in hpts]
        assert list(_pairs_by_length(cpts, hpts)) == all_pairs_sorted(cpts, hpts)

    @settings(max_examples=200)
    @given(
        st.lists(grid_points(-6, 6), min_size=3, max_size=40),
        st.lists(grid_points(-40, 40), min_size=1, max_size=10),
        grid_points(-1, 1),
    )
    def test_hole_vertices_outside_the_ring_box(self, cpts, hpts, side):
        hpts = [P(h.x + 20.0 * side.x, h.y + 20.0 * side.y) for h in hpts]
        assert list(_pairs_by_length(cpts, hpts)) == all_pairs_sorted(cpts, hpts)

    @settings(max_examples=200)
    @given(
        st.lists(grid_points(-6, 6), min_size=3, max_size=40),
        st.lists(grid_points(-12, 12), min_size=3, max_size=10),
        st.lists(grid_points(-30, 30), min_size=1, max_size=4),
    )
    def test_any_box_containing_the_ring(self, cpts, hpts, extra):
        # eliminate_holes passes the box of the whole vertex table, which
        # can be larger than the ring's own
        box = _box(cpts + extra)
        assert list(_pairs_by_length(cpts, hpts, box=box)) == all_pairs_sorted(cpts, hpts)

    @settings(max_examples=100)
    @given(
        st.lists(grid_points(-6, 6), min_size=3, max_size=40),
        grid_points(-8, 8),
        st.lists(st.tuples(st.floats(0.0, 0.3), st.floats(0.0, 0.3)), min_size=1, max_size=60),
    )
    def test_many_hole_vertices_in_one_cell(self, cpts, corner, offsets):
        hpts = [P(corner.x + dx, corner.y + dy) for dx, dy in offsets]
        assert list(_pairs_by_length(cpts, hpts)) == all_pairs_sorted(cpts, hpts)

    @settings(max_examples=200)
    @given(
        st.lists(grid_points(-6, 6), min_size=3, max_size=30),
        st.lists(st.integers(0, 29), min_size=1, max_size=6),
        st.lists(grid_points(-12, 12), min_size=3, max_size=10),
    )
    def test_repeated_ring_points(self, cpts, twins, hpts):
        # a bridged ring repeats both endpoints of every bridge
        for t in twins:
            cpts.insert(t % len(cpts), cpts[t % len(cpts)])
        assert list(_pairs_by_length(cpts, hpts)) == all_pairs_sorted(cpts, hpts)


def grid_polygon_with_square_holes(seed, n_holes):
    """Integer-grid square with a vertex at every unit step of its boundary
    and ``n_holes`` clockwise unit or 2-unit square holes, none touching."""
    rng = random.Random(seed)
    w = rng.randint(8, 14)
    outer = (
        [(x, 0) for x in range(w)]
        + [(w, y) for y in range(w)]
        + [(x, w) for x in range(w, 0, -1)]
        + [(0, y) for y in range(w, 0, -1)]
    )
    holes, taken = [], []
    while len(holes) < n_holes:
        s = rng.randint(1, 2)
        x, y = rng.randint(1, w - 1 - s), rng.randint(1, w - 1 - s)
        if any(x <= bx + bs and bx <= x + s and y <= by + bs and by <= y + s for bx, by, bs in taken):
            continue
        taken.append((x - 1, y - 1, s + 1))  # keep one unit of clearance
        holes.append(Ring([(x, y), (x, y + s), (x + s, y + s), (x + s, y)]))
    return normalize(PolygonWithHoles(Ring(outer), holes))


def square_ring(lo, hi, steps):
    """The square [lo, hi]^2 with ``steps`` vertices along each side."""
    t = [lo + (hi - lo) * k / steps for k in range(steps)]
    u = [hi - (hi - lo) * k / steps for k in range(steps)]
    return Ring(
        [(x, lo) for x in t] + [(hi, y) for y in t] + [(x, hi) for x in u] + [(lo, y) for y in u]
    )


def assert_bridges_match_oracle(poly):
    """Every bridge ``eliminate_holes(poly)`` picks is the exhaustive oracle's
    for the ring merged so far, the next hole and the pending holes; each
    merge splices the hole in after the bridged ring vertex; and every
    position is indexed by its vertex (the polygon's vertices must be
    distinct)."""
    where = {p: i for i, p in enumerate(poly.vertex_table())}
    assert len(where) == len(poly.vertex_table())
    degen, calls = recorded_bridge_calls(poly)
    assert len(calls) == len(poly.holes)
    assert calls[0][0] == poly.outer.points
    merged = [c[0] for c in calls[1:]] + [degen.ring.points]
    for h, (cpts, hpts, _, (length, i, j)) in enumerate(calls):
        assert hpts == poly.holes[h].points
        assert (length, i, j) == brute_force_bridge(Ring(cpts), Ring(hpts), poly.holes[h + 1 :])
        assert merged[h] == cpts[: i + 1] + hpts[j:] + hpts[:j] + (hpts[j], cpts[i]) + cpts[i + 1 :]
        assert degen.bridges[h] == BridgeEdge((0, i), (h + 1, j), length)
    assert len(degen.bridges) == len(poly.holes)
    assert degen.indices == tuple(where[p] for p in degen.ring.points)


class TestFindBridgeOnGridPolygons:
    @pytest.mark.parametrize("n_holes", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_at_every_merge(self, seed, n_holes):
        assert_bridges_match_oracle(grid_polygon_with_square_holes(seed, n_holes))

    @pytest.mark.parametrize(
        "outer_steps, hole_steps, inset",
        [(3, 3, 0.1), (30, 30, 0.05), (30, 7, 0.2), (11, 30, 0.01)],
    )
    def test_annulus(self, outer_steps, hole_steps, inset):
        # the worst case for the nearest-first search: every hole vertex is
        # about as near the ring as the shortest bridge
        hole = square_ring(inset, 1.0 - inset, hole_steps)
        poly = normalize(PolygonWithHoles(square_ring(0.0, 1.0, outer_steps), [hole]))
        assert len(poly.holes[0]) == 4 * hole_steps
        assert_bridges_match_oracle(poly)


def merged_square():
    degen = eliminate_holes(PolygonWithHoles(OUTER, [HOLE]))
    return degen.ring, degen.bridges[0]


class TestMergeHole:
    def test_vertex_count(self):
        merged, _ = merged_square()
        assert len(merged) == len(OUTER) + len(HOLE) + 2

    def test_area_subtracts_hole(self):
        merged, _ = merged_square()
        assert merged.signed_area() == pytest.approx(16.0 - 4.0)

    def test_result_is_ccw(self):
        merged, _ = merged_square()
        assert merged.signed_area() > 0

    def test_traversal_layout(self):
        merged, _ = merged_square()
        assert merged.points == (
            P(0, 0),
            P(1, 1), P(1, 3), P(3, 3), P(3, 1), P(1, 1),
            P(0, 0),
            P(4, 0), P(4, 4), P(0, 4),
        )

    def test_bridge_endpoints_duplicated(self):
        merged, b = merged_square()
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

    def test_matches_public_step_by_step_path(self):
        for poly in generate_corpus(7, 40, (4, 120), (1, 3)):
            assert_bridges_match_oracle(poly)

    def test_carried_edge_boxes_equal_fresh_boxing(self):
        # The one obstacle list holds, at every bridge search, exactly the
        # directed edges of the ring merged so far, the hole and the pending
        # holes, boxed as afresh: the crossing verdicts equal those of
        # boxing these rings for each search.
        searches = 0
        for poly in generate_corpus(7, 40, (4, 120), (1, 3)):
            _, calls = recorded_bridge_calls(poly)
            for h, (cpts, hpts, edges, _) in enumerate(calls):
                rings = (Ring(cpts), Ring(hpts), *poly.holes[h + 1 :])
                assert sorted(edges) == sorted(e for r in rings for e in _boxed_edges(r))
                searches += 1
        assert searches > 40

    def test_search_box_contains_the_merged_ring(self, monkeypatch):
        # Every search is given the box of the whole vertex table. It
        # contains the ring being searched, the bridge is the one found with
        # the ring's own box, and on valid input the two boxes are equal.
        real = bridge.find_bridge
        boxes = []

        def recorder(cpts, hpts, edges, *, box=None):
            fresh = _box(cpts)
            assert box[0] <= fresh[0] and box[1] <= fresh[1]
            assert fresh[2] <= box[2] and fresh[3] <= box[3]
            result = real(cpts, hpts, edges, box=box)
            assert result == real(cpts, hpts, edges, box=fresh)
            boxes.append((box, fresh))
            return result

        monkeypatch.setattr(bridge, "find_bridge", recorder)
        for poly in generate_corpus(7, 40, (4, 120), (1, 3)):
            eliminate_holes(normalize(poly))
        assert len(boxes) > 40
        assert all(given == fresh for given, fresh in boxes)

        # Not valid: the first hole pokes out through the right side of
        # the outer ring's box, yet can still be bridged. The first search
        # gets a box wider than its ring, the second the merged ring's.
        boxes.clear()
        outer = Ring([(0, 0), (10, 0), (10, 10), (0, 10)])
        poking = Ring([(8, 4), (8, 6), (12, 6), (12, 4)])
        square = Ring([(2, 2), (2, 3), (3, 3), (3, 2)])
        eliminate_holes(normalize(PolygonWithHoles(outer, [poking, square])))
        assert boxes == [((0, 0, 12, 10), (0, 0, 10, 10)), ((0, 0, 12, 10), (0, 0, 12, 10))]

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
