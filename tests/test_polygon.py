import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytri import (
    InvalidRing,
    PolygonWithHoles,
    Ring,
    build_ring,
    generate_corpus,
    normalize,
    triangulate_polygon,
)
from polytri.bridge import eliminate_holes
from polytri.earclip import _select_fallback, _select_smallest_angle, is_ear, update_after_cut
from polytri.geom import EPS_AREA, DegenerateVertex, Point2
from polytri.polygon import VertexNode, refresh_node, remove_vertex, validate_polygon
from polytri.reflexgrid import ReflexGrid
from conftest import brute_force_is_ear, tri_angles_oracle

P = Point2


class TestRing:
    def test_too_few_points(self):
        with pytest.raises(InvalidRing):
            Ring([(0, 0), (1, 0)])

    def test_non_finite(self):
        with pytest.raises(InvalidRing):
            Ring([(0, 0), (1, 0), (float("nan"), 1)])

    def test_rings_from_checked_rings_equal_checked_ones(self):
        # reversed, normalized and merged rings reuse their source's points
        # unchecked (Ring._trusted); they must equal a checked Ring of them
        ring = Ring([(0, 0), (4, 0), (4, 4), (4, 4), (0, 4)])
        assert ring.reversed() == Ring(ring.points[::-1])
        for made in (ring.reversed(), normalize(PolygonWithHoles(ring.reversed())).outer):
            assert made == Ring(made.points)
            assert all(type(p) is Point2 for p in made.points)
        degen = eliminate_holes(normalize(PolygonWithHoles(ring, [Ring([(1, 1), (1, 3), (3, 3)])])))
        assert degen.ring == Ring(degen.ring.points)

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
        assert len(list(ring)) == 3

    def test_pentagon_link_contract(self):
        ring = build_ring(Ring([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]))
        nodes = list(ring)
        v1, v2, v3 = nodes[1], nodes[2], nodes[3]
        remove_vertex(ring, v2)
        assert v1.next is v3
        assert v3.prev is v1

    def test_removal_down_to_three(self):
        ring = build_ring(Ring([(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)]))
        remove_vertex(ring, ring.head)
        remove_vertex(ring, ring.head)
        assert ring.count == 3
        assert len(list(ring)) == 3
        for n in ring:
            assert n.prev.next is n
            assert n.next.prev is n

    def test_head_forwarding(self, unit_square):
        ring = build_ring(unit_square)
        old_head = ring.head
        remove_vertex(ring, old_head)
        assert ring.head is not old_head


class TestRefreshNode:
    def test_unreflexing_cut(self):
        # clipping the ear at B turns its reflex neighbour C convex; C stays
        # in the grid, marked as gone at this cut
        ring = build_ring(Ring([(0, 0), (2, 0), (1.2, 0.4), (2, 2), (0, 1)]))
        nodes = list(ring)
        b, c = nodes[1], nodes[2]
        assert not c.is_convex and c.gone_at == math.inf
        remove_vertex(ring, b)
        ring.clock += 1
        refresh_node(ring, c)
        assert c.is_convex
        assert c in ring.reflex
        assert c.gone_at == ring.clock == 1

    def test_collapsed_edge_marks_reflex_without_raising(self):
        ring = build_ring(Ring([(0, 0), (4, 0), (4, 4), (0, 4)]))
        nodes = list(ring)
        # forge a collapsed edge: drag a node onto its neighbour
        nodes[1].x, nodes[1].y = nodes[2].x, nodes[2].y
        refresh_node(ring, nodes[1])
        assert not nodes[1].is_convex
        assert nodes[1].interior_angle == 360.0
        assert nodes[1] in ring.reflex


def clip_steps(ring):
    """Run a basic clip cut by cut, yielding the ring after each cut."""
    for node in ring:
        node.is_ear = is_ear(ring, node) if node.is_convex else False
    while ring.count > 3:
        v = _select_smallest_angle(ring) or _select_fallback(ring)
        left, right = v.prev, v.next
        remove_vertex(ring, v)
        update_after_cut(ring, left, right)
        yield ring


def comb_polygon(teeth, seed=0, holes=False):
    """The benchmark comb (``workloads.comb_polygon``): ``teeth`` unit-wide
    teeth of seeded height on a straight spine, 4 * teeth + 3 vertices. With
    ``holes`` every third tooth holds a square hole."""
    rng = random.Random(seed)
    width = 2.0 * teeth + 1.0
    pts = [(0.0, -1.0), (width, -1.0), (width, 0.0)]
    squares = []
    for t in reversed(range(teeth)):
        x0 = 1.0 + 2.0 * t
        x1 = x0 + 1.0
        h = rng.uniform(2.0, 10.0)
        pts += [(x1, 0.0), (x1, h), (x0, h), (x0, 0.0)]
        if holes and t % 3 == 0:
            squares.append(
                Ring([(x0 + 0.25, 1.0), (x0 + 0.25, 1.5), (x0 + 0.75, 1.5), (x0 + 0.75, 1.0)])
            )
    return normalize(PolygonWithHoles(Ring(pts), squares))


def bridged_ring(poly):
    degen = eliminate_holes(poly)
    return build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())


def tip_box(v):
    """``is_ear``'s padded box of the CCW triangle ``v.prev, v, v.next``, with
    the same float expressions."""
    a, c = v.prev, v.next
    ax, ay, bx, by, cx, cy = a.x, a.y, v.x, v.y, c.x, c.y
    abx, aby, bcx, bcy, cax, cay = bx - ax, by - ay, cx - bx, cy - by, ax - cx, ay - cy
    margin = EPS_AREA / math.sqrt(
        min(abx * abx + aby * aby, bcx * bcx + bcy * bcy, cax * cax + cay * cay)
    )
    return (min(ax, bx, cx) - margin, min(ay, by, cy) - margin,
            max(ax, bx, cx) + margin, max(ay, by, cy) + margin)


def query_and_blockers(grid, v):
    """The grid's answer for the CCW triangle ``v.prev, v, v.next``, and the
    members that pass ``is_ear``'s padded-box test and its three closure
    tests, recomputed here with the same float expressions."""
    a, c = v.prev, v.next
    ax, ay, bx, by, cx, cy = a.x, a.y, v.x, v.y, c.x, c.y
    abx, aby, bcx, bcy, cax, cay = bx - ax, by - ay, cx - bx, cy - by, ax - cx, ay - cy
    box = tip_box(v)
    minx, miny, maxx, maxy = box
    blockers = {
        m for m in grid
        if minx <= m.x <= maxx and miny <= m.y <= maxy
        and abx * (m.y - ay) - aby * (m.x - ax) >= -EPS_AREA
        and bcx * (m.y - by) - bcy * (m.x - bx) >= -EPS_AREA
        and cax * (m.y - cy) - cay * (m.x - cx) >= -EPS_AREA
    }
    return list(grid.query(*box, v)), blockers, box


class TestReflexGrid:
    def test_index_invariants_through_a_full_clip(self):
        # after every cut of a 2000-vertex star the grid's non-convex members
        # are exactly the live non-convex nodes, the grid never shrinks, and
        # a box query returns every member inside
        # the box and no non-member: for random boxes a few cells wide that
        # may reach past the ring's bounding box, boxes with edges exactly
        # on cell boundaries, and point boxes on a member
        poly = generate_corpus(seed=909, count=1, vertex_range=(2000, 2000))[0]
        ring = build_ring(poly.outer)
        grid = ring.reflex
        xs = [p.x for p in poly.outer]
        ys = [p.y for p in poly.outer]
        lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
        cell = 1.0 / grid.inv
        rng = random.Random(7)
        pruned = 0

        def check(minx, miny, maxx, maxy):
            nonlocal pruned
            found = list(grid.query(minx, miny, maxx, maxy))
            assert len(found) == len(set(found))
            assert set(found) <= set(grid)
            pruned += len(found) < len(grid)
            for m in grid:
                if minx <= m.x <= maxx and miny <= m.y <= maxy:
                    assert m in found, (m, (minx, miny, maxx, maxy))

        checked = 0
        size = len(grid)
        for ring in clip_steps(ring):
            assert {m for m in grid if not m.is_convex} == {n for n in ring if not n.is_convex}
            assert len(grid) >= size
            size = len(grid)
            x = rng.uniform(lo_x - 2 * cell, hi_x + 2 * cell)
            y = rng.uniform(lo_y - 2 * cell, hi_y + 2 * cell)
            check(x, y, x + rng.uniform(0, 3 * cell), y + rng.uniform(0, 3 * cell))
            i = rng.randrange(int((hi_x - grid.x0) * grid.inv) + 1)
            j = rng.randrange(len(grid.rows))
            w = rng.randrange(1, 4)
            check(
                grid.x0 + i * cell,
                grid.y0 + j * cell,
                grid.x0 + (i + w) * cell,
                grid.y0 + (j + w) * cell,
            )
            m = rng.choice(list(grid))
            check(m.x, m.y, m.x, m.y)
            checked += 1
        assert checked > 1000
        assert pruned > checked

    def test_is_ear_matches_brute_force_through_a_full_clip(self):
        # a 400-vertex star is large enough that the grid prunes most reflex
        # vertices; wide triangles of both rings, the comb's fans among them,
        # take the row clip, which returns fewer members than the box alone;
        # every convex node is tested after every cut
        star = generate_corpus(seed=404, count=1, vertex_range=(400, 400))[0]
        for poly, floor, clip_floor in ((star, 10000, 4000), (comb_polygon(60), 5000, 200)):
            compared = clipped = 0
            ring = build_ring(poly.outer)
            grid = ring.reflex
            for ring in clip_steps(ring):
                for node in ring:
                    if node.is_convex:
                        assert is_ear(ring, node) == brute_force_is_ear(ring, node), node
                        compared += 1
                        box = tip_box(node)
                        clipped += len(grid.query(*box, node)) < len(grid.query(*box))
            assert compared > floor
            assert clipped > clip_floor, clipped

    def test_triangle_query_is_a_superset_for_random_triangles(self):
        # lattice members, many exactly on triangle edges, in a grid of two
        # rows whose member y-extents have height; wide, thin triangles take
        # the row clip
        rng = random.Random(11)
        nodes = [
            VertexNode(float(rng.randrange(201)), float(rng.randrange(11)), k, k)
            for k in range(600)
        ]
        grid = ReflexGrid(nodes, nodes[:300])
        for node in nodes[300:]:
            grid.add(node)
        assert len(grid) == 600 and len(grid.rows) == 2
        clipped = 0
        for k in range(3000):
            y = rng.randrange(-2, 12)
            a, v, c = (
                VertexNode(float(rng.randrange(-5, 206)), float(y + rng.randrange(4)), 0, 0)
                for _ in range(3)
            )
            z = (v.x - a.x) * (c.y - a.y) - (v.y - a.y) * (c.x - a.x)
            if z == 0.0:
                continue
            if z < 0.0:
                a, c = c, a
            v.prev, v.next = a, c
            found, blockers, box = query_and_blockers(grid, v)
            assert blockers <= set(found), (k, blockers - set(found))
            clipped += len(found) < len(list(grid.query(*box)))
        assert clipped > 1000

    @pytest.mark.parametrize("shape", ["comb", "bridged", "holed_comb"])
    def test_triangle_query_is_a_superset_through_a_full_clip(self, shape):
        # after every cut, for every convex node, the query with its
        # triangle returns every member that passes is_ear's box and closure
        # tests; bridged rings add coincident twins, and a comb with holes
        # has twins on a grid dense enough for the row clip
        if shape == "comb":
            ring = build_ring(comb_polygon(100).outer)
        elif shape == "bridged":
            ring = bridged_ring(generate_corpus(1, 1, (60, 60), (2, 2))[0])
        else:
            ring = bridged_ring(comb_polygon(60, holes=True))
        grid = ring.reflex
        checked = clipped = 0
        fan_found = fan_members = 0
        for ring in clip_steps(ring):
            fan = shape == "comb" and all(n.y <= 0.0 for n in ring)
            tip = _select_smallest_angle(ring) if fan else None
            for node in ring:
                if not node.is_convex:
                    continue
                found, blockers, box = query_and_blockers(grid, node)
                assert blockers <= set(found), (node, blockers - set(found))
                checked += 1
                clipped += len(found) < len(list(grid.query(*box)))
                if node is tip:
                    fan_found += len(found)
                    fan_members += len(grid)
        assert checked > 1000
        # the star-shaped bridged ring has few boxes wider than tall
        assert clipped > (10 if shape == "bridged" else 100), clipped
        if shape == "comb":
            # the fan tips' slivers span the spine, yet their queries return
            # under a quarter of the members
            assert 0 < 4 * fan_found < fan_members, (fan_found, fan_members)

    def test_fewer_members_per_ear_test_than_the_column_grid(self, monkeypatch):
        # members returned per ear test over a full basic clip, exactly; the
        # column grid that the rows replaced returned 45413 members over 1997
        # ear tests on the star (22.7 each) and 6477 over 402 on the comb (16.1)
        counts = [0, 0]
        query = ReflexGrid.query

        def counted(grid, *args):
            found = query(grid, *args)
            counts[0] += 1
            counts[1] += len(found)
            return found

        monkeypatch.setattr(ReflexGrid, "query", counted)
        star = generate_corpus(seed=909, count=1, vertex_range=(2000, 2000))[0]
        for poly, column_grid, rows in (
            (star, (1997, 45413), (1997, 26990)),
            (comb_polygon(100), (402, 6477), (402, 2989)),
        ):
            counts[:] = [0, 0]
            triangulate_polygon(poly, "basic")
            assert tuple(counts) == rows
            assert counts[1] / counts[0] < column_grid[1] / column_grid[0]


LATTICE = st.tuples(st.integers(0, 40), st.integers(0, 12))


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(LATTICE, min_size=1, max_size=60),
    twins=st.lists(st.integers(0, 59), max_size=10),
    split=st.tuples(st.integers(1, 70), st.integers(0, 70)),
    frame=st.sampled_from([(1.0, 0.0), (1e-6, 0.0), (1.0, 1e8), (1e-6, 1e8)]),
    boxes=st.lists(st.tuples(LATTICE, LATTICE), max_size=10),
    triangles=st.lists(st.tuples(LATTICE, LATTICE, LATTICE), max_size=10),
)
# a member added to a row that was empty at construction, inside a wide triangle
@example(
    points=[(0, 0), (10, 0), (20, 0), (30, 0), (40, 0), (0, 5), (10, 5), (20, 5), (30, 5), (20, 11)],
    twins=[], split=(10, 9), frame=(1.0, 0.0), boxes=[], triangles=[((0, 9), (40, 9), (20, 12))],
)
def test_reflex_index_property(points, twins, split, frame, boxes, triangles):
    # Members on a small lattice repeat x values and sit on triangle edges;
    # twins repeat a member's coordinates; the frame scales by 1e-6 or shifts
    # by 1e8. The index is built over the first ``bounds`` nodes with the first
    # ``late`` as members; the rest are added one by one, possibly outside
    # the bounds.
    scale, shift = frame
    pts = points + [points[i % len(points)] for i in twins]

    def at(p):
        return shift + scale * p[0], shift + scale * p[1]

    nodes = [VertexNode(*at(p), k, k) for k, p in enumerate(pts)]
    bounds, late = min(split[0], len(nodes)), min(split[1], len(nodes))
    grid = ReflexGrid(nodes[:bounds], nodes[:late])
    for node in nodes[late:]:
        grid.add(node)

    assert len(grid) == len(nodes)
    assert sum(map(len, grid.rows)) == len(nodes) and set().union(*grid.rows) == grid
    for xs, row in zip(grid.xs, grid.rows, strict=True):
        assert xs == sorted(xs) == [m.x for m in row]

    def check(found, minx, maxx):
        assert len(found) == len(set(found)) and set(found) <= grid
        assert all(minx <= m.x <= maxx for m in found)

    point_boxes = [(m.x, m.y, m.x, m.y) for m in nodes[:5]]
    lattice_boxes = [
        (min(u[0], v[0]), min(u[1], v[1]), max(u[0], v[0]), max(u[1], v[1]))
        for u, v in ((at(p), at(q)) for p, q in boxes)
    ]
    for minx, miny, maxx, maxy in point_boxes + lattice_boxes:
        found = grid.query(minx, miny, maxx, maxy)
        check(found, minx, maxx)
        inside = {m for m in nodes if minx <= m.x <= maxx and miny <= m.y <= maxy}
        assert inside <= set(found)
    for corners in triangles:
        a, v, c = (VertexNode(*at(p), 0, 0) for p in corners)
        z = (v.x - a.x) * (c.y - a.y) - (v.y - a.y) * (c.x - a.x)
        if z == 0.0:
            continue
        if z < 0.0:
            a, c = c, a
        v.prev, v.next = a, c
        found, blockers, (minx, _, maxx, _) = query_and_blockers(grid, v)
        check(found, minx, maxx)
        assert blockers <= set(found)


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

    def test_holes_sharing_a_vertex_touch(self):
        # a shared endpoint is not a crossing, and neither hole's first
        # vertex lies inside the other
        poly = normalize(
            PolygonWithHoles(
                Ring([(0, 0), (10, 0), (10, 10), (0, 10)]),
                [Ring([(2, 2), (2, 8), (5, 5)]), Ring([(5, 5), (8, 8), (8, 2)])],
            )
        )
        assert validate_polygon(poly) == ["holes 0 and 1 touch at a vertex"]

    def test_corpus_polygons_valid(self, small_corpus):
        for poly in small_corpus:
            assert validate_polygon(poly) == []
        for poly in generate_corpus(11, 60, (4, 120), (1, 4)):
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
