import ast
import copy
import math
import pathlib
import random
from contextlib import contextmanager
from types import SimpleNamespace

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
    parse_polygon,
    triangulate_polygon,
)
from polytri import earclip
from polytri import polygon as polygon_module
from polytri.bridge import eliminate_holes
from polytri.earclip import (
    ReflexGrid,
    _clip,
    _ear_key,
    _select_fallback,
    _select_smallest_angle,
    is_ear,
    update_after_cut,
)
from polytri.geom import (
    _DEG,
    EPS_AREA,
    EPS_LEN,
    DegenerateVertex,
    Point2,
    points_close,
    segments_properly_cross,
)
from polytri.polygon import (
    VertexNode,
    _boxed_edges,
    _edge_contacts,
    _vertex_contacts,
    refresh_node,
    validate_polygon,
)
from conftest import (
    FAR_SQUARE,
    FAR_STAR,
    WIDE_EXTENT,
    brute_force_is_ear,
    reflex_members,
    remove_vertex,
    start_clip,
    tri_angles_oracle,
)

P = Point2
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


class TestRing:
    def test_too_few_points(self):
        with pytest.raises(InvalidRing):
            Ring([(0, 0), (1, 0)])

    @pytest.mark.parametrize("bad", [(1,), ("a", 1), None, {"x": 1}])
    def test_point_that_is_not_two_numbers(self, bad):
        with pytest.raises(InvalidRing, match="point 2 "):
            Ring([(0, 0), (1, 0), bad, (0, 1)])

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

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=3, max_size=12
        ),
        scale=st.sampled_from([1.0, 1e-9, 4e-10, 1e-6, 1e8]),
        shift=st.sampled_from([0.0, 0.1, 1e8]),
        clockwise=st.booleans(),
    )
    def test_a_second_pass_changes_nothing(self, steps, scale, shift, clockwise):
        # What lets normalize return a polygon it made at once: a full
        # second pass over its rings keeps every ring object. Lattice walks
        # scaled to the EPS_LEN and EPS_AREA tolerances, and far from the
        # origin, hit near-duplicate points and near-zero areas; the outer
        # ring doubles as a hole, which is normalized the other way round.
        pts = [(shift + scale * x, shift + scale * y) for x, y in steps]
        if clockwise:
            pts.reverse()
        try:
            once = normalize(PolygonWithHoles(Ring(pts), [Ring(pts)]))
        except InvalidRing:
            return
        assert normalize(once) is once
        again = PolygonWithHoles(once.outer, once.holes)  # no record: a full pass
        assert normalize(again) is again

    def test_a_ring_changed_after_normalizing_is_normalized_again(self):
        poly = normalize(
            PolygonWithHoles(
                Ring([(0, 0), (4, 0), (4, 4), (0, 4)]), [Ring([(1, 1), (1, 3), (3, 3), (3, 1)])]
            )
        )
        hole = poly.holes[0]
        hole.points = hole.points[::-1]  # counter-clockwise
        again = normalize(poly)
        assert again is not poly
        assert again.holes[0].signed_area() < 0
        assert normalize(again) is again
        poly.holes = (*poly.holes, Ring([(1, 1), (1, 1), (2, 1), (2, 2)]))
        assert len(normalize(poly).holes[1]) == 3

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

    @pytest.mark.parametrize("poly", [FAR_SQUARE, FAR_STAR], ids=["square", "star"])
    @pytest.mark.parametrize("algorithm", ["traditional", "basic", "improved"])
    def test_area_outside_the_float_range_raises(self, poly, algorithm):
        # valid polygons whose shoelace area overflows; normalize refuses
        # them before bridging or clipping can overflow
        with pytest.raises(InvalidRing, match="overflows the float range"):
            triangulate_polygon(poly, algorithm)

    @pytest.mark.parametrize("name", sorted(WIDE_EXTENT))
    @pytest.mark.parametrize("algorithm", ["traditional", "basic", "improved"])
    def test_extent_outside_the_float_range_raises(self, name, algorithm):
        # finite area, but the box of all rings is wider than the float
        # range; normalize refuses it before bridging or clipping
        with pytest.raises(InvalidRing, match="extent overflows the float range; rescale"):
            normalize(WIDE_EXTENT[name])
        with pytest.raises(InvalidRing, match="extent overflows the float range; rescale"):
            triangulate_polygon(WIDE_EXTENT[name], algorithm)

    @pytest.mark.parametrize("algorithm", ["traditional", "basic", "improved"])
    def test_wide_thin_rectangle_with_a_finite_extent_meshes(self, algorithm):
        poly = PolygonWithHoles(Ring([(0, 0), (1e308, 0), (1e308, 1e-8), (0, 1e-8)]))
        tri, _ = triangulate_polygon(poly, algorithm)
        assert [t.indices() for t in tri.triangles] == [(3, 0, 1), (1, 2, 3)]


class TestBuildRing:
    def test_unit_square(self, unit_square):
        ring = start_clip(build_ring(unit_square))
        assert ring.count == 4
        for node in ring:
            assert _ear_key(node)[0] == pytest.approx(90.0)
            assert node.is_convex
            assert not node.is_ear
        assert not reflex_members(ring.reflex)

    def test_l_shape_single_reflex(self, l_shape):
        ring = build_ring(l_shape)
        reflex = [n for n in ring if not n.is_convex]
        assert len(reflex) == 1
        assert reflex[0].point == P(1, 1)
        assert _ear_key(reflex[0])[0] == pytest.approx(270.0)
        # every angle agrees with an unsigned-angle oracle folded by convexity
        for n in ring:
            raw = tri_angles_oracle(n.point, n.prev.point, n.next.point)[0]
            want = raw if n.is_convex else 360.0 - raw
            assert _ear_key(n)[0] == pytest.approx(want, abs=1e-9)

    def test_triangle_angles_sum(self):
        ring = build_ring(Ring([(0, 0), (4, 0), (0, 3)]))
        assert ring.count == 3
        assert math.fsum(_ear_key(n)[0] for n in ring) == pytest.approx(180.0)

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
        ring = start_clip(build_ring(Ring([(0, 0), (1, 0), (2, 0), (2, 1), (0, 1)])))
        mid = next(n for n in ring if n.point == P(1, 0))
        assert not mid.is_convex and mid._angle is None
        assert mid in reflex_members(ring.reflex)

    def test_spike_vertex_is_full_turn(self):
        # both neighbours leave the tip along the same ray: zero-width spike
        ring = start_clip(build_ring(Ring([(2, 0), (0, 0), (1, 0), (1, 2)])))
        tip = next(n for n in ring if n.point == P(0, 0))
        assert not tip.is_convex and tip._angle is None
        assert tip in reflex_members(ring.reflex)

    def test_linkage(self, unit_square):
        ring = build_ring(unit_square)
        for n in ring:
            assert n.prev.next is n
            assert n.next.prev is n

    def test_gauss_bonnet_on_simple_rings(self, small_corpus):
        # turning angles of a simple CCW ring add up to one full turn
        for poly in small_corpus:
            ring = build_ring(poly.outer)
            total = math.fsum(180.0 - _ear_key(n)[0] for n in ring)
            assert total == pytest.approx(360.0, abs=1e-6)

    @pytest.mark.parametrize("shape", ["star", "comb", "bridged"])
    def test_no_angle_before_the_selection_reads_one(self, shape):
        # build_ring's refresh decides convexity and empties the cache; only
        # earclip._ear_key fills it
        if shape == "star":
            ring = build_ring(generate_corpus(seed=909, count=1, vertex_range=(200, 200))[0].outer)
        elif shape == "comb":
            ring = build_ring(parse_polygon((FIXTURES / "comb.poly").read_text()).outer)
        else:
            ring = bridged_ring(normalize(parse_polygon((FIXTURES / "square_hole.poly").read_text())))
        assert ring.count > 3
        assert any(n.is_convex for n in ring) and any(not n.is_convex for n in ring)
        assert all(n._angle is None for n in ring)

    def test_polygon_computes_no_angle(self):
        # the vertex angle is earclip._ear_key's alone: polygon.py calls no
        # atan2 and imports no _DEG
        tree = ast.parse(pathlib.Path(polygon_module.__file__).read_text())
        called = {
            n.func.attr if isinstance(n.func, ast.Attribute) else getattr(n.func, "id", None)
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
        }
        imported = {
            a.asname or a.name
            for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom))
            for a in n.names
        }
        assert "atan2" not in called
        assert "_DEG" not in imported


class TestRemoveVertex:
    # conftest.remove_vertex is the cut that tests which drive a ring by hand
    # make; the last test holds _clip's own unlink to the same contract

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

    @pytest.mark.parametrize("smallest_angle", [False, True])
    def test_the_clip_unlinks_each_tip(self, smallest_angle):
        # after each cut the tip is out of the ring, which stays linked both
        # ways with a live head and the right count, and the tip keeps its
        # own prev and next for its triangle; the traditional scan cuts the
        # head first
        ring = build_ring(Ring([(0, 0), (4, 0), (5, 3), (3, 2), (2, 5), (-1, 3)]))
        n = ring.count
        head = ring.head

        def check(tri, tid):
            live = list(ring)
            assert len(live) == ring.count == max(n - 1 - tid, 3)
            assert ring.head in live
            for node in live:
                assert node.prev.next is node and node.next.prev is node
            if tid < n - 3:
                left, tip, right = tri.triangles[tid].nodes
                assert tip not in live
                assert tip.prev is left and tip.next is right
                assert left.next is right and right.prev is left

        tri = _clip(ring, smallest_angle, post_emit=check)
        assert len(tri) == n - 2
        if not smallest_angle:
            assert tri.triangles[0].nodes[1] is head and ring.head is not head


class TestRefreshNode:
    def test_unreflexing_cut(self):
        # clipping the ear at B turns its reflex neighbour C convex
        ring = build_ring(Ring([(0, 0), (2, 0), (1.2, 0.4), (2, 2), (0, 1)]))
        nodes = list(ring)
        b, c = nodes[1], nodes[2]
        assert not c.is_convex
        remove_vertex(ring, b)
        refresh_node(c)
        assert c.is_convex

    def test_collapsed_edge_marks_reflex_without_raising(self):
        ring = build_ring(Ring([(0, 0), (4, 0), (4, 4), (0, 4)]))
        nodes = list(ring)
        # forge a collapsed edge: drag a node onto its neighbour
        nodes[1].x, nodes[1].y = nodes[2].x, nodes[2].y
        _ear_key(nodes[1])
        refresh_node(nodes[1])
        assert not nodes[1].is_convex and nodes[1]._angle is None


def eager_refresh_node(node, strict=False):
    """``refresh_node`` as it was when it computed every node's angle,
    verbatim, as an oracle. It writes ``interior_angle`` and ``is_convex``,
    so ``node`` is a plain object with ``x``, ``y``, ``prev`` and ``next``.
    Its 180 and 360 degree angles at straight and collapsed corners are
    no longer computed: the clip keys convex nodes only."""
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
            node.interior_angle = (math.atan2(uy, ux) - math.atan2(wy, wx)) * _DEG % 360.0
        else:
            node.interior_angle = 180.0 if ux * wx + uy * wy < 0.0 else 360.0
        node.is_convex = z > EPS_AREA


def nudged(x, ulps):
    """``x`` moved by ``ulps`` units in the last place (down if negative)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


SIGN = st.sampled_from([-1.0, 1.0])
ULPS = st.integers(-4, 4)
# a leg coordinate: a few ulps from +-EPS_LEN, where the hypot skip and the
# coincidence bound meet, or zero, or anything
LEG_COORD = st.one_of(
    st.builds(lambda s, k: s * nudged(EPS_LEN, k), SIGN, ULPS),
    st.just(0.0),
    st.floats(-2.0, 2.0),
)


@st.composite
def near_flat_legs(draw):
    """Legs ``(ux, uy), (wx, wy)`` whose cross product ``wx * uy - wy * ux`` is
    exactly a few ulps from +-EPS_AREA, or exactly zero: one factor of the
    surviving product is a power of two, and one coordinate of the other
    product is zero."""
    z = draw(st.one_of(st.builds(lambda s, k: s * nudged(EPS_AREA, k), SIGN, ULPS), st.just(0.0)))
    a = draw(SIGN) * 2.0 ** draw(st.integers(-40, 2))
    b = z / a
    free = draw(LEG_COORD)
    a, b = draw(st.permutations([a, b]))
    case = draw(st.integers(0, 3))
    if case == 0:  # ux = 0: z = wx * uy
        return (0.0, a), (b, free)
    if case == 1:  # wy = 0: z = wx * uy
        return (free, a), (b, 0.0)
    if case == 2:  # uy = 0: z = -wy * ux
        return (a, 0.0), (free, -b)
    return (a, free), (0.0, -b)  # wx = 0: z = -wy * ux


@settings(max_examples=400, deadline=None)
@given(
    legs=st.one_of(
        near_flat_legs(),
        st.tuples(st.tuples(LEG_COORD, LEG_COORD), st.tuples(LEG_COORD, LEG_COORD)),
    ),
    center=st.one_of(st.just((0.0, 0.0)), st.tuples(st.floats(-100, 100), st.floats(-100, 100))),
    strict=st.booleans(),
)
# a leg exactly EPS_LEN long is coincident; one ulp longer, hypot is skipped
@example(legs=((EPS_LEN, 0.0), (0.0, 1.0)), center=(0.0, 0.0), strict=False)
@example(legs=((nudged(EPS_LEN, 1), 0.0), (0.0, 1.0)), center=(0.0, 0.0), strict=True)
# a cross product of exactly EPS_AREA is flat; one ulp more is convex
@example(legs=((0.0, 1.0), (EPS_AREA, 1.0)), center=(0.0, 0.0), strict=False)
@example(legs=((0.0, 1.0), (nudged(EPS_AREA, 1), 1.0)), center=(0.0, 0.0), strict=False)
@example(legs=((0.0, 1.0), (-nudged(EPS_AREA, 1), -1.0)), center=(0.0, 0.0), strict=False)
def test_refresh_node_matches_the_eager_oracle(legs, center, strict):
    (ux, uy), (wx, wy) = legs
    cx, cy = center
    points = [(cx + ux, cy + uy), (cx, cy), (cx + wx, cy + wy)]
    nodes = [VertexNode(x, y, i, i) for i, (x, y) in enumerate(points)]
    want = [SimpleNamespace(x=x, y=y) for x, y in points]
    for ring in (nodes, want):
        for i in range(3):
            ring[i].prev, ring[i].next = ring[i - 1], ring[(i + 1) % 3]
    node, ref = nodes[1], want[1]
    try:
        eager_refresh_node(ref, strict)
    except DegenerateVertex:
        with pytest.raises(DegenerateVertex):
            refresh_node(node, strict)
        return
    refresh_node(node, strict)
    assert node.is_convex == ref.is_convex
    assert node._angle is None
    # the oracle's legs, from the points as placed
    p, n = ref.prev, ref.next
    ux, uy = p.x - ref.x, p.y - ref.y
    wx, wy = n.x - ref.x, n.y - ref.y
    coincident = math.hypot(ux, uy) <= EPS_LEN or math.hypot(wx, wy) <= EPS_LEN
    if not coincident and abs(wx * uy - wy * ux) > EPS_AREA:
        # the heap key fills the empty cache with the oracle's float
        assert _ear_key(node)[0] == node._angle == ref.interior_angle
        # and the next refresh empties it again
        refresh_node(node, strict)
        assert node._angle is None


def clip_steps(ring):
    """Run a basic clip cut by cut over ``ring``, whose clip state is
    started (``start_clip``), yielding the ring after each cut."""
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


def member_node(x, y, index, seq):
    """A bare ``VertexNode(x, y, index, seq)``: not convex, so a member of
    an index built over it, and reflex since the clip started (``gone_at``
    inf, as ``earclip._start_flags`` sets it)."""
    node = VertexNode(x, y, index, seq)
    node.is_convex = False
    node.gone_at = math.inf
    return node


def single_member_index(grid, m):
    """``grid`` holding one member only: a stand-in node at member ``m``'s
    coordinates, in ``m``'s row. The frame, ``flat``, ``guard`` and row
    y-extents stay ``grid``'s, so ``is_ear``'s walk takes the rows and
    x-intervals that it takes over ``grid``. The stand-in is no tip's
    neighbour and never turned convex, so ``is_ear`` exempts it only by its
    box and closure tests, and no other member can block in its place."""
    single = copy.copy(grid)
    (row,) = [k for k, members in enumerate(grid.rows) if any(r is m for r in members)]
    stand_in = member_node(m.x, m.y, m.original_index, m.seq)
    single.rows = [[stand_in] if k == row else [] for k in range(len(grid.rows))]
    single.xs = [[m.x] if k == row else [] for k in range(len(grid.rows))]
    return single


class OneMemberIndexes(dict):
    """``single_member_index(grid, m)`` by member ``m``, built on first use."""

    def __init__(self, grid):
        super().__init__()
        self.grid = grid

    def __missing__(self, m):
        single = self[m] = single_member_index(self.grid, m)
        return single


def walk_verdicts(grid, v, singles):
    """Checks ``is_ear``'s walk over ``grid`` for the convex tip ``v``, one
    member at a time, each alone in its index (``singles``, the
    ``OneMemberIndexes`` of ``grid``). A member that passes ``is_ear``'s
    padded-box test and its three closure tests, recomputed here with the
    same float expressions, must make the tip no ear: the walk reaches it.
    One that fails only the box's x-range must leave the tip an ear: the
    walk does not reach it, since ``is_ear`` has no x test of its own.
    Every other member is exempt whether reached or not. Returns the
    blockers."""
    a, c = v.prev, v.next
    ax, ay, bx, by, cx, cy = a.x, a.y, v.x, v.y, c.x, c.y
    abx, aby, bcx, bcy, cax, cay = bx - ax, by - ay, cx - bx, cy - by, ax - cx, ay - cy
    minx, miny, maxx, maxy = tip_box(v)
    blockers = set()
    for m in reflex_members(grid):
        if not (
            miny <= m.y <= maxy
            and abx * (m.y - ay) - aby * (m.x - ax) >= -EPS_AREA
            and bcx * (m.y - by) - bcy * (m.x - bx) >= -EPS_AREA
            and cax * (m.y - cy) - cay * (m.x - cx) >= -EPS_AREA
        ):
            continue
        inside = minx <= m.x <= maxx
        assert is_ear(SimpleNamespace(reflex=singles[m]), v, stamp=0) is not inside, (m, inside)
        if inside:
            blockers.add(m)
    return blockers


@contextmanager
def walk_counter():
    """Counts the members that ``is_ear``'s row walks reach while active,
    in ``counts[0]``: the walk bisects row ``k`` of the index to its
    members ``i`` to ``j``, and ``earclip.bisect_right``, wrapped here,
    returns ``j`` given ``lo = i``; the count sums ``j - i``."""
    counts = [0]
    real = earclip.bisect_right

    def counted(a, x, lo):
        j = real(a, x, lo)
        counts[0] += j - lo
        return j

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(earclip, "bisect_right", counted)
        yield counts


class RecordedRow(list):
    """A row of the index that records, in ``log``, every member read from
    it."""

    __slots__ = ("log",)

    def __getitem__(self, key):
        part = super().__getitem__(key)
        if isinstance(key, slice):
            self.log.extend(part)
        else:
            self.log.append(part)
        return part


def recording_index(grid):
    """A copy of ``grid`` whose rows record the members that ``is_ear``'s
    walk reads, and the list they go to."""
    log = []
    recorder = copy.copy(grid)
    recorder.rows = []
    for members in grid.rows:
        row = RecordedRow(members)
        row.log = log
        recorder.rows.append(row)
    return recorder, log


def walked(recorder, v):
    """How many members ``is_ear``'s walk reaches for the convex tip ``v``
    over ``recorder``, a ``recording_index``. The test runs as of stamp inf,
    by which every member is dead, so the walk visits every row it spans
    and no member ends it. Checks that the walk reaches each member at most
    once, and only inside ``tip_box(v)``'s x-range: ``is_ear`` has no x test
    of its own and relies on that."""
    index, log = recorder
    log.clear()
    assert is_ear(SimpleNamespace(reflex=index), v, stamp=math.inf)
    minx, _, maxx, _ = tip_box(v)
    assert len(set(log)) == len(log)
    assert all(minx <= m.x <= maxx for m in log), v
    return len(log)


def in_box_rows(grid, v):
    """How many members the walk for tip ``v`` would reach without its row
    clip: the members in ``tip_box(v)``'s x-range, in the rows its y-range
    spans by the row function, ``floor((y - y0) * inv)`` clamped to the
    rows."""
    minx, miny, maxx, maxy = tip_box(v)
    last = len(grid.rows) - 1

    def row(y):
        return min(max(math.floor((y - grid.y0) * grid.inv), 0), last)

    return sum(
        minx <= m.x <= maxx for k in range(row(miny), row(maxy) + 1) for m in grid.rows[k]
    )


def box_tips(minx, miny, maxx, maxy):
    """The convex tips of the two CCW right triangles that split the box,
    of positive width and height, along its rising diagonal; each point of
    the box lies in the closure of one of them, and the box of each is the
    box."""
    lo, hi = VertexNode(minx, miny, 0, 0), VertexNode(maxx, maxy, 0, 0)
    tips = VertexNode(maxx, miny, 0, 0), VertexNode(minx, maxy, 0, 0)
    tips[0].prev, tips[0].next = lo, hi
    tips[1].prev, tips[1].next = hi, lo
    for tip in tips:
        tip.is_convex = True
    return tips


def check_box(grid, singles, recorder, minx, miny, maxx, maxy):
    """The box form of the walk's promise: every member inside the box
    blocks one of its two ``box_tips``, through ``walk_verdicts``, which
    also holds each tip's walk to its own box and closure, and neither
    tip's walk reaches a member outside its x-range (``walked``). Returns
    how many members the first tip's walk reaches."""
    tips = box_tips(minx, miny, maxx, maxy)
    blockers = walk_verdicts(grid, tips[0], singles) | walk_verdicts(grid, tips[1], singles)
    for m in reflex_members(grid):
        if minx <= m.x <= maxx and miny <= m.y <= maxy:
            assert m in blockers, (m, (minx, miny, maxx, maxy))
    walked(recorder, tips[1])
    return walked(recorder, tips[0])


class TestReflexGrid:
    def test_index_invariants_through_a_full_clip(self):
        # after every cut of a 2000-vertex star the grid's non-convex members
        # are exactly the live non-convex nodes, and the grid never shrinks;
        # and the walk over it reaches every member inside a box, for the
        # two tips that split the box: random boxes a few cells wide that
        # may reach past the ring's bounding box, boxes with edges exactly
        # on cell boundaries, and boxes one cell wide with a corner on a
        # member
        poly = generate_corpus(seed=909, count=1, vertex_range=(2000, 2000))[0]
        ring = start_clip(build_ring(poly.outer))
        grid = ring.reflex
        singles = OneMemberIndexes(grid)
        recorder = recording_index(grid)
        xs = [p.x for p in poly.outer]
        ys = [p.y for p in poly.outer]
        lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
        cell = 1.0 / grid.inv
        rng = random.Random(7)
        pruned = 0

        def check(minx, miny, maxx, maxy):
            nonlocal pruned
            pruned += check_box(grid, singles, recorder, minx, miny, maxx, maxy) < len(
                reflex_members(grid)
            )

        checked = 0
        size = len(reflex_members(grid))
        for ring in clip_steps(ring):
            members = reflex_members(grid)
            assert {m for m in members if not m.is_convex} == {n for n in ring if not n.is_convex}
            assert len(members) >= size
            size = len(members)
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
            m = rng.choice(list(reflex_members(grid)))
            check(m.x, m.y, m.x + cell, m.y + cell)
            check(m.x - cell, m.y - cell, m.x, m.y)
            checked += 1
        assert checked > 1000
        assert pruned > checked

    def test_is_ear_matches_brute_force_through_a_full_clip(self):
        # a 400-vertex star is large enough that the grid prunes most reflex
        # vertices; wide triangles of both rings, the comb's fans among them,
        # take the row clip, whose walk reaches fewer members than the box
        # alone; every convex node is tested after every cut
        star = generate_corpus(seed=404, count=1, vertex_range=(400, 400))[0]
        for poly, floor, clip_floor in ((star, 10000, 4000), (comb_polygon(60), 5000, 200)):
            compared = clipped = 0
            ring = start_clip(build_ring(poly.outer))
            grid = ring.reflex
            recorder = recording_index(grid)
            for ring in clip_steps(ring):
                for node in ring:
                    if node.is_convex:
                        assert is_ear(ring, node) == brute_force_is_ear(ring, node), node
                        compared += 1
                        clipped += walked(recorder, node) < in_box_rows(grid, node)
            assert compared > floor
            assert clipped > clip_floor, clipped

    def test_triangle_query_is_a_superset_for_random_triangles(self):
        # lattice members, many exactly on triangle edges, in a grid of two
        # rows whose member y-extents have height; wide, thin triangles take
        # the row clip
        rng = random.Random(11)
        nodes = [
            member_node(float(rng.randrange(201)), float(rng.randrange(11)), k, k)
            for k in range(600)
        ]
        grid = ReflexGrid(nodes)
        assert len(reflex_members(grid)) == 600 and len(grid.rows) == 2
        singles = OneMemberIndexes(grid)
        recorder = recording_index(grid)
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
            v.is_convex = True
            walk_verdicts(grid, v, singles)
            clipped += walked(recorder, v) < in_box_rows(grid, v)
        assert clipped > 1000

    @pytest.mark.parametrize("shape", ["comb", "bridged", "holed_comb"])
    def test_triangle_query_is_a_superset_through_a_full_clip(self, shape):
        # after every cut, for every convex node, the walk with its triangle
        # reaches every member that passes is_ear's box and closure tests;
        # bridged rings add coincident twins, and a comb with holes has
        # twins on a grid dense enough for the row clip
        if shape == "comb":
            ring = build_ring(comb_polygon(100).outer)
        elif shape == "bridged":
            ring = bridged_ring(generate_corpus(1, 1, (60, 60), (2, 2))[0])
        else:
            ring = bridged_ring(comb_polygon(60, holes=True))
        grid = start_clip(ring).reflex
        singles = OneMemberIndexes(grid)
        recorder = recording_index(grid)
        checked = clipped = 0
        fan_found = fan_members = 0
        for ring in clip_steps(ring):
            fan = shape == "comb" and all(n.y <= 0.0 for n in ring)
            tip = _select_smallest_angle(ring) if fan else None
            for node in ring:
                if not node.is_convex:
                    continue
                walk_verdicts(grid, node, singles)
                checked += 1
                found = walked(recorder, node)
                clipped += found < in_box_rows(grid, node)
                if node is tip:
                    fan_found += found
                    fan_members += len(reflex_members(grid))
        assert checked > 1000
        # the star-shaped bridged ring has few boxes wider than tall
        assert clipped > (10 if shape == "bridged" else 100), clipped
        if shape == "comb":
            # the fan tips' slivers span the spine, yet their walks reach
            # under a quarter of the members
            assert 0 < 4 * fan_found < fan_members, (fan_found, fan_members)

    def test_fewer_members_per_ear_test_than_the_column_grid(self, monkeypatch):
        # members reached per ear test over a full basic clip, exactly; the
        # column grid that the rows replaced returned 45413 members over 1997
        # ear tests on the star (22.7 each) and 6477 over 402 on the comb
        # (16.1), and the rows with a guard of one row height 26990 and 2989
        tests = [0]
        real = earclip.is_ear

        def counted(ring, v, *args, **kwargs):
            tests[0] += v.is_convex
            return real(ring, v, *args, **kwargs)

        monkeypatch.setattr(earclip, "is_ear", counted)
        star = generate_corpus(seed=909, count=1, vertex_range=(2000, 2000))[0]
        for poly, column_grid, rows in (
            (star, (1997, 45413), (1997, 23974)),
            (comb_polygon(100), (402, 6477), (402, 1351)),
        ):
            tests[0] = 0
            with walk_counter() as counts:
                triangulate_polygon(poly, "basic")
            assert (tests[0], counts[0]) == rows
            assert counts[0] / tests[0] < column_grid[1] / column_grid[0]


LATTICE = st.tuples(st.integers(0, 40), st.integers(0, 12))


@settings(max_examples=200, deadline=None)
@given(
    points=st.lists(LATTICE, min_size=1, max_size=60),
    twins=st.lists(st.integers(0, 59), max_size=10),
    convex=st.lists(st.integers(0, 69), max_size=20),
    frame=st.sampled_from(
        [(1.0, 0.0), (1e-6, 0.0), (1.0, 1e8), (1e-6, 1e8), (1e-5, 1e8), (1.0, 1e14)]
    ),
    boxes=st.lists(st.tuples(LATTICE, LATTICE), max_size=10),
    triangles=st.lists(st.tuples(LATTICE, LATTICE, LATTICE), max_size=10),
)
# a row whose nodes are all convex, so it has no member, inside a wide triangle
@example(
    points=[(0, 0), (10, 0), (20, 0), (30, 0), (40, 0), (0, 5), (10, 5), (20, 5), (30, 5), (20, 11)],
    twins=[], convex=[9], frame=(1.0, 0.0), boxes=[], triangles=[((0, 9), (40, 9), (20, 12))],
)
# members on the edges of a wide triangle, and two in its box but outside it,
# a shift of 1e8 from the origin: the rows are as short as the row clip allows
@example(
    points=[(5, 3), (10, 6), (15, 9), (25, 9), (30, 6), (35, 3), (20, 0), (2, 11), (38, 11),
            (0, 0), (40, 0), (20, 12)],
    twins=[], convex=[9, 10, 11], frame=(1e-5, 1e8), boxes=[],
    triangles=[((0, 0), (40, 0), (20, 12))],
)
# a member one lattice unit outside an edge, which at scale 1e-6 is EPS_AREA:
# on the relaxed boundary, where only the rounding guard keeps it in the clip
@example(
    points=[(26, 8), (9, 0), (39, 5), (9, 12), (35, 7)],
    twins=[], convex=[2, 3, 4], frame=(1e-6, 0.0), boxes=[],
    triangles=[((39, 5), (9, 12), (35, 7))],
)
def test_reflex_index_property(points, twins, convex, frame, boxes, triangles):
    # Members on a small lattice repeat x values and sit on triangle edges;
    # twins repeat a member's coordinates; the frame scales by 1e-6 or shifts
    # by 1e8, or both, or scales by 1e-5 at a shift of 1e8, or shifts by
    # 1e14, where the lattice is exact and a row is under 2**-40 of the
    # largest coordinate, so the rounding guard spans several rows. The
    # index is built over all the nodes; the ones at positions in ``convex``
    # are convex, so not members, but still set the bounds.
    scale, shift = frame
    pts = points + [points[i % len(points)] for i in twins]

    def at(p):
        return shift + scale * p[0], shift + scale * p[1]

    nodes = [member_node(*at(p), k, k) for k, p in enumerate(pts)]
    for k in convex:
        if k < len(nodes):
            nodes[k].is_convex = True
    grid = ReflexGrid(nodes)

    members = {m for m in nodes if not m.is_convex}
    assert reflex_members(grid) == members
    assert sum(map(len, grid.rows)) == len(members)
    for xs, row in zip(grid.xs, grid.rows, strict=True):
        assert xs == sorted(xs) == [m.x for m in row]

    # boxes one lattice unit wide with a corner on a node, and the lattice
    # boxes, a flat one made one unit wide or tall so that its tips have area
    singles = OneMemberIndexes(grid)
    recorder = recording_index(grid)
    corner_boxes = [
        (*at((x + lo, y + lo)), *at((x + hi, y + hi)))
        for x, y in pts[:5]
        for lo, hi in ((0, 1), (-1, 0))
    ]
    lattice_boxes = []
    for p, q in boxes:
        (x0, x1), (y0, y1) = sorted((p[0], q[0])), sorted((p[1], q[1]))
        lattice_boxes.append((*at((x0, y0)), *at((x1 + (x1 == x0), y1 + (y1 == y0)))))
    for box in corner_boxes + lattice_boxes:
        check_box(grid, singles, recorder, *box)
    for corners in triangles:
        a, v, c = (VertexNode(*at(p), 0, 0) for p in corners)
        z = (v.x - a.x) * (c.y - a.y) - (v.y - a.y) * (c.x - a.x)
        if z == 0.0:
            continue
        if z < 0.0:
            a, c = c, a
        v.prev, v.next = a, c
        v.is_convex = True
        walk_verdicts(grid, v, singles)
        walked(recorder, v)


def test_row_clip_prunes_far_from_the_origin():
    # Shifted by 1e14 a row of this lattice is under 2**-40 of the largest
    # coordinate, and the clip still holds back the members in the wide
    # triangle's box that lie outside it by more than the rounding guard.
    shift = 1e14
    points = [(5, 3), (10, 6), (15, 9), (25, 9), (30, 6), (35, 3), (20, 0), (2, 11), (38, 11),
              (0, 0), (40, 0), (20, 12)]
    nodes = [member_node(shift + x, shift + y, k, k) for k, (x, y) in enumerate(points)]
    for node in nodes[-3:]:
        node.is_convex = True
    grid = ReflexGrid(nodes)
    a, v, c = nodes[-3:]
    v.prev, v.next = a, c
    assert 2.0**40 / grid.inv < shift  # a row height, under 2**-40 of the shift
    walk_verdicts(grid, v, OneMemberIndexes(grid))
    assert walked(recording_index(grid), v) < in_box_rows(grid, v)


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

    @pytest.mark.parametrize(
        "outer, hole",
        [
            # the hole hangs from the outer ring's reflex vertex (5, 6)
            ([(0, 0), (10, 0), (10, 10), (5, 6), (0, 10)], [(5, 6), (4, 3), (6, 3)]),
            # the hole sits in the square's corner (0, 0)
            ([(0, 0), (10, 0), (10, 10), (0, 10)], [(0, 0), (3, 1), (1, 3)]),
        ],
    )
    def test_hole_sharing_a_vertex_with_the_outer_ring_touches(self, outer, hole):
        # a shared endpoint is not a crossing and ray casting counts the
        # shared vertex inside, so only the vertex test catches it; without
        # it every algorithm emits a clockwise triangle
        poly = normalize(PolygonWithHoles(Ring(outer), [Ring(hole)]))
        assert validate_polygon(poly) == ["hole 0 touches the outer ring at a vertex"]

    @pytest.mark.parametrize(
        "outer, holes, problems",
        [
            # (2, 2) twice, not consecutively: normalize keeps both, and every
            # algorithm raises EarSearchFailed on it
            ([(0, 0), (4, 0), (2, 2), (4, 4), (0, 4), (2, 2)], [],
             ["outer ring revisits a vertex"]),
            # the second copy within EPS_LEN of the first, then just beyond it,
            # where edges (4, 0)-(2, 2) and (2 + 2 EPS_LEN, 2)-(0, 0) cross
            ([(0, 0), (4, 0), (2, 2), (4, 4), (0, 4), (2 + EPS_LEN / 2, 2)], [],
             ["outer ring revisits a vertex"]),
            ([(0, 0), (4, 0), (2, 2), (4, 4), (0, 4), (2 + 2 * EPS_LEN, 2)], [],
             ["outer ring crosses itself"]),
            # two triangles of one hole meet at (5, 5)
            ([(0, 0), (10, 0), (10, 10), (0, 10)],
             [[(2, 2), (5, 5), (8, 2), (8, 8), (5, 5), (2, 8)]],
             ["hole 0 revisits a vertex"]),
        ],
    )
    def test_ring_revisiting_a_vertex(self, outer, holes, problems):
        poly = normalize(PolygonWithHoles(Ring(outer), [Ring(h) for h in holes]))
        assert validate_polygon(poly) == problems

    @pytest.mark.parametrize(
        "outer, holes, problems",
        [
            # a figure-8: edges (4, 0)-(4, 4) and (2, -1)-(0, 4) cross
            ([(0, 0), (4, 0), (4, 4), (2, -1), (0, 4)], [], ["outer ring crosses itself"]),
            # a bow tie inside the square: its edges (2, 2)-(8, 8) and
            # (8, 2)-(2, 6) cross
            ([(0, 0), (10, 0), (10, 10), (0, 10)], [[(2, 2), (8, 8), (8, 2), (2, 6)]],
             ["hole 0 crosses itself"]),
            # a vertex on the interior of a non-adjacent edge of its ring
            ([(0, 0), (4, 0), (4, 4), (2, 0), (0, 4)], [], ["outer ring crosses itself"]),
        ],
    )
    def test_ring_crossing_itself(self, outer, holes, problems):
        poly = normalize(PolygonWithHoles(Ring(outer), [Ring(h) for h in holes]))
        assert validate_polygon(poly) == problems

    def test_snapped_corpus_ring_revisits_a_vertex(self):
        # rounded to integers, this ring repeats a point non-consecutively;
        # every algorithm then emits a clockwise triangle
        outer = generate_corpus(12, 1, (4, 40), (0, 0))[0].outer
        poly = normalize(PolygonWithHoles(Ring([(round(x), round(y)) for x, y in outer])))
        assert validate_polygon(poly) == ["outer ring revisits a vertex"]

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


def snapped_rings(seed, grid, shift, twins):
    """The rings of a corpus polygon snapped to multiples of ``grid`` (0 keeps
    them as they are), which makes revisits, touches and crossings, shifted
    by ``shift`` in x and y. Each ``(ring, vertex, dx, dy)`` of ``twins``
    appends to ring ``ring`` a copy of vertex ``vertex`` of ring 0 moved by
    ``(dx, dy)`` EPS_LEN, which lands on either side of the contact bound."""
    poly = generate_corpus(seed, 1, (4, 40), (0, 3))[0]
    rings = []
    for ring in (poly.outer, *poly.holes):
        pts = ring.points
        if grid:
            pts = [P(round(x / grid) * grid, round(y / grid) * grid) for x, y in pts]
        rings.append([P(x + shift, y + shift) for x, y in pts])
    for k, v, dx, dy in twins:
        x, y = rings[0][v % len(rings[0])]
        rings[k % len(rings)].append(P(x + dx * EPS_LEN, y + dy * EPS_LEN))
    return rings


SNAPPED = dict(
    seed=st.integers(0, 10_000),
    grid=st.sampled_from([0, 0.5, 1.0, 2.0]),
    shift=st.sampled_from([0.0, 3.7, 1e3, 1e6]),
    twins=st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 39),
            st.sampled_from([0.0, 0.5, 0.7, 1.0, 1.5, -0.5, -0.7]),
            st.sampled_from([0.0, 0.5, 0.7, -0.7]),
        ),
        max_size=3,
    ),
)


@settings(max_examples=150, deadline=None)
@given(**SNAPPED)
def test_vertex_contacts_equal_the_all_pairs_scan(seed, grid, shift, twins):
    rings = snapped_rings(seed, grid, shift, twins)
    want = {
        (i, j)
        for i in range(len(rings))
        for j in range(i, len(rings))
        if any(
            points_close(p, q)
            for s, p in enumerate(rings[i])
            for t, q in enumerate(rings[j])
            if i != j or s < t
        )
    }
    assert _vertex_contacts(rings) == want


@settings(max_examples=100, deadline=None)
@given(**SNAPPED)
def test_edge_contacts_equal_the_all_pairs_scan(seed, grid, shift, twins):
    polys = [Ring(pts) for pts in snapped_rings(seed, grid, shift, twins)]
    rings = [_boxed_edges(r) for r in polys]

    def meet(i, s, j, t):
        n = len(rings[i])
        if i == j and (s == t or (s - t) % n in (1, n - 1)):
            return False
        return segments_properly_cross(*rings[i][s][4:], *rings[j][t][4:])

    want = {
        (i, j)
        for i in range(len(rings))
        for j in range(i, len(rings))
        if any(
            meet(i, s, j, t) for s in range(len(rings[i])) for t in range(len(rings[j]))
        )
    }
    assert _edge_contacts(rings, _vertex_contacts([r.points for r in polys])) == want
