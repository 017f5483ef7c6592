import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytri.geom import (
    _DEG,
    EPS_AREA,
    EPS_LEN,
    DegenerateTriangle,
    DegenerateVertex,
    InvalidRing,
    Point2,
    orientation,
    point_in_ring,
    point_on_segment,
    segments_properly_cross,
    signed_area,
    triangle_angles_xy,
    triangle_min_angle_xy,
)
from polytri.pipeline import triangulate_polygon
from polytri.polygon import VertexNode, refresh_node
from conftest import (
    oracle_segments_share_beyond_endpoint,
    point_in_triangle_closure,
    tri_angles_oracle,
    triangle_angles,
)

P = Point2

finite_coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
points = st.builds(P, finite_coord, finite_coord)


class TestOrientation:
    def test_left(self):
        assert orientation(P(0, 0), P(1, 0), P(0, 1)) == 1

    def test_collinear(self):
        assert orientation(P(0, 0), P(1, 0), P(2, 0)) == 0

    def test_right(self):
        assert orientation(P(0, 0), P(0, 1), P(1, 1)) == -1

    @given(points, points, points)
    def test_antisymmetry(self, a, b, c):
        o1 = orientation(a, b, c)
        o2 = orientation(a, c, b)
        if o1 == 0:
            assert o2 == 0
        else:
            assert o1 == -o2


class TestSignedArea:
    def test_unit_square_ccw(self):
        assert signed_area([P(0, 0), P(1, 0), P(1, 1), P(0, 1)]) == pytest.approx(1.0)

    def test_reversed_flips_sign(self):
        assert signed_area([P(0, 1), P(1, 1), P(1, 0), P(0, 0)]) == pytest.approx(-1.0)

    def test_right_triangle(self):
        assert signed_area([P(0, 0), P(4, 0), P(0, 3)]) == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "pts",
        [
            # finite terms whose sum overflows: OverflowError in fsum
            [(-9e153, -9e153), (9e153, -9e153), (9e153, 9e153), (-9e153, 9e153)],
            # every term overflows to inf
            [(-8e307, -8e307), (8e307, -8e307), (8e307, 8e307), (-8e307, 8e307)],
            # terms inf and -inf: ValueError in fsum
            [(1e200, 0), (0, 1e200), (0, -1e200), (-1e200, 0)],
            # a term inf - inf is nan
            [(1e200, 1e200), (-1e200, -1e200), (-1e200, 1e200)],
        ],
        ids=["sum", "inf", "inf-inf", "nan"],
    )
    def test_area_outside_the_float_range_raises(self, pts):
        with pytest.raises(InvalidRing, match="overflows the float range"):
            signed_area([P(*p) for p in pts])

    def test_too_few_points(self):
        with pytest.raises(InvalidRing):
            signed_area([P(0, 0), P(1, 1)])

    @given(st.lists(points, min_size=3, max_size=12))
    def test_reversal_negates(self, pts):
        assert signed_area(list(reversed(pts))) == pytest.approx(-signed_area(pts), abs=1e-6)


def corner_angle(prev, v, nxt):
    """Interior angle at ``v`` of the CCW corner prev -> v -> nxt."""
    nodes = [VertexNode(p.x, p.y, i, i) for i, p in enumerate((prev, v, nxt))]
    for i, node in enumerate(nodes):
        node.prev = nodes[i - 1]
        node.next = nodes[(i + 1) % 3]
    refresh_node(nodes[1], strict=True)
    return nodes[1].interior_angle


class TestInteriorAngle:
    def test_square_corner(self):
        assert corner_angle(P(0, 1), P(0, 0), P(1, 0)) == pytest.approx(90.0)

    def test_l_shape_notch_is_reflex(self):
        # notch vertex of the CCW L-shape; cross-checked against an
        # unsigned-angle oracle plus the orientation sign
        prev, v, nxt = P(2, 1), P(1, 1), P(1, 2)
        got = corner_angle(prev, v, nxt)
        assert got == pytest.approx(270.0)
        raw = tri_angles_oracle(v, prev, nxt)[0]
        assert orientation(prev, v, nxt) == -1
        assert got == pytest.approx(360.0 - raw)

    def test_coincident_neighbour_raises(self):
        with pytest.raises(DegenerateVertex):
            corner_angle(P(0, 0), P(0, 0), P(1, 0))


class TestPointInTriangleClosure:
    A, B, C = P(0, 0), P(1, 0), P(0, 1)

    def test_centroid_inside(self):
        assert point_in_triangle_closure(P(1 / 3, 1 / 3), self.A, self.B, self.C)

    def test_vertex_on_closure(self):
        assert point_in_triangle_closure(self.A, self.A, self.B, self.C)

    def test_far_point_outside(self):
        assert not point_in_triangle_closure(P(5, 5), self.A, self.B, self.C)

    def test_edge_midpoint_inside(self):
        assert point_in_triangle_closure(P(0.5, 0.5), self.A, self.B, self.C)

    @given(points, points, points, points)
    def test_cyclic_permutation_invariant(self, p, a, b, c):
        r1 = point_in_triangle_closure(p, a, b, c)
        assert point_in_triangle_closure(p, b, c, a) == r1
        assert point_in_triangle_closure(p, c, a, b) == r1


def endpoint_pairings(a, b, c, d):
    """Segments ab and cd with neither, either or both reversed: a shared
    endpoint then meets in each of the four pairings p1/p2 with q1/q2."""
    return [(a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c)]


class TestSegmentsProperlyCross:
    def test_x_crossing(self):
        assert segments_properly_cross(P(0, 0), P(2, 2), P(0, 2), P(2, 0))

    def test_shared_endpoint_only(self):
        for segs in endpoint_pairings(P(0, 0), P(1, 0), P(1, 0), P(2, 1)):
            assert not segments_properly_cross(*segs), segs

    def test_endpoint_in_interior(self):
        # (2,0) sits in the interior of the first segment
        a, b, c, d = P(0, 0), P(4, 0), P(2, 0), P(2, -1)
        assert segments_properly_cross(a, b, c, d)
        assert oracle_segments_share_beyond_endpoint(a, b, c, d)

    def test_disjoint(self):
        assert not segments_properly_cross(P(0, 0), P(1, 0), P(0, 1), P(1, 1))

    def test_collinear_overlap(self):
        assert segments_properly_cross(P(0, 0), P(2, 0), P(1, 0), P(3, 0))

    def test_collinear_shared_endpoint_no_overlap(self):
        for segs in endpoint_pairings(P(0, 0), P(1, 0), P(1, 0), P(2, 0)):
            assert not segments_properly_cross(*segs), segs

    def test_collinear_shared_endpoint_with_overlap(self):
        # either segment can be the one that overlaps the other
        for a, b, c, d in [(P(0, 0), P(2, 0), P(2, 0), P(1, 0)),
                           (P(0, 0), P(1, 0), P(1, 0), P(-1, 0))]:
            for segs in endpoint_pairings(a, b, c, d):
                assert segments_properly_cross(*segs), segs

    def test_identical_segments(self):
        assert segments_properly_cross(P(0, 0), P(1, 1), P(0, 0), P(1, 1))

    @given(points, points, points, points)
    def test_symmetric_in_segments(self, a, b, c, d):
        assert segments_properly_cross(a, b, c, d) == segments_properly_cross(c, d, a, b)

    @settings(max_examples=300)
    @given(points, points, points, points)
    def test_matches_parametric_oracle(self, a, b, c, d):
        from conftest import segment_separation

        # degenerate segments are out of contract
        if math.hypot(b.x - a.x, b.y - a.y) < 1e-3 or math.hypot(d.x - c.x, d.y - c.y) < 1e-3:
            return
        got = segments_properly_cross(a, b, c, d)
        want = oracle_segments_share_beyond_endpoint(a, b, c, d)
        if got != want:
            # the two formulations may disagree only within tolerance noise
            # of grazing contact
            assert segment_separation(a, b, c, d) <= 1e-6, (a, b, c, d)


class TestTriangleAngles:
    def test_equilateral(self):
        a, b, c = P(0, 0), P(1, 0), P(0.5, math.sqrt(3) / 2)
        angles = triangle_angles(a, b, c)
        assert angles == pytest.approx((60, 60, 60), abs=1e-9)

    def test_right_isoceles(self):
        angles = triangle_angles(P(0, 0), P(1, 0), P(0, 1))
        assert sorted(angles) == pytest.approx([45, 45, 90], abs=1e-9)

    def test_sliver(self):
        angles = triangle_angles(P(0, 0), P(10, 0), P(5, 0.1))
        assert min(angles) == pytest.approx(math.degrees(math.atan2(0.1, 5.0)), abs=1e-9)
        assert min(angles) == pytest.approx(1.1457628, abs=1e-6)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateTriangle):
            triangle_angles(P(0, 0), P(1, 0), P(2, 0))

    @given(points, points, points)
    def test_sum_and_min_bound(self, a, b, c):
        z = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        if abs(z) < 1e-6:
            return
        angles = triangle_angles(a, b, c)
        assert math.fsum(angles) == pytest.approx(180.0, abs=1e-9)
        assert min(angles) <= 60.0 + 1e-9
        # the law-of-cosines oracle loses digits to cancellation on needle
        # triangles, so the formula cross-check stays off the needles and
        # uses a tolerance far above that noise yet far below a real bug
        sides = (
            math.dist(a, b),
            math.dist(b, c),
            math.dist(c, a),
        )
        if min(sides) < 1e-2:
            return
        oracle = tri_angles_oracle(a, b, c)
        for got, want in zip(angles, oracle):
            assert got == pytest.approx(want, abs=1e-2)


def min_or_degenerate(kernel, *xy):
    try:
        return kernel(*xy)
    except DegenerateTriangle:
        return "degenerate"


def min_of_all_three(*xy):
    return min(triangle_angles_xy(*xy))


# small integers make coincident and collinear corners common
grid_coord = st.integers(min_value=-3, max_value=3).map(float)


class TestExactKernels:
    """The kernels that skip builtin calls give the same floats (``==``)."""

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(2.2250738585072014e-308)
    @example(1.7976931348623157e308)
    @example(-1.7976931348623157e308)
    @example(math.pi)
    def test_one_multiply_is_math_degrees(self, x):
        got, want = x * _DEG, math.degrees(x)
        assert got == want
        assert math.copysign(1.0, got) == math.copysign(1.0, want)

    @given(st.tuples(*[st.one_of(grid_coord, finite_coord)] * 6))
    @example((0.0, 0.0, 1.0, 0.0, 2.0, 0.0))
    @example((0.0, 0.0, 0.0, 0.0, 1.0, 1.0))
    def test_min_kernel_on_random_triangles(self, xy):
        # equal minima, and DegenerateTriangle on exactly the same inputs
        assert min_or_degenerate(triangle_min_angle_xy, *xy) == min_or_degenerate(
            min_of_all_three, *xy
        )

    @pytest.mark.parametrize("algorithm", ["traditional", "basic", "improved"])
    def test_min_kernel_on_every_corpus_triangle(self, small_corpus, quality_corpus, algorithm):
        for poly in (*small_corpus, *quality_corpus):
            tri, _ = triangulate_polygon(poly, algorithm)
            for t in tri.triangles:
                a, b, c = t.nodes
                xy = (a.x, a.y, b.x, b.y, c.x, c.y)
                assert min_or_degenerate(triangle_min_angle_xy, *xy) == min_or_degenerate(
                    min_of_all_three, *xy
                )


def middle_corner_convex(ax, ay, bx, by, cx, cy):
    """``refresh_node``'s verdict on b between neighbours a and c."""
    a, b, c = VertexNode(ax, ay, 0, 0), VertexNode(bx, by, 1, 1), VertexNode(cx, cy, 2, 2)
    b.prev, b.next = a, c
    refresh_node(b)
    return b.is_convex


@settings(max_examples=500)
@given(st.tuples(*[st.one_of(grid_coord, finite_coord)] * 4), st.integers(-3, 3))
@example((0.0, 0.0, 1.0, 0.0), 1)
@example((0.0, 0.0, 1.0, 0.0), 2)
@example((0.0, 0.0, 1.0, 0.0), -2)
def test_degenerate_exactly_where_the_middle_corner_is_not_convex(xy, k):
    # b is the midpoint of a and c moved by k * EPS_AREA in y, so the middle
    # corner's cross product often lands on the tolerance itself
    ax, ay, cx, cy = xy
    bx, by = (ax + cx) / 2, (ay + cy) / 2 - k * EPS_AREA
    if math.hypot(ax - bx, ay - by) <= EPS_LEN or math.hypot(cx - bx, cy - by) <= EPS_LEN:
        return  # refresh_node calls a coincident neighbour reflex either way
    abc, cba = (ax, ay, bx, by, cx, cy), (cx, cy, bx, by, ax, ay)
    flat = not middle_corner_convex(*abc) and not middle_corner_convex(*cba)
    ux, uy, wx, wy = cx - bx, cy - by, ax - bx, ay - by
    assert flat == (abs(ux * wy - uy * wx) <= EPS_AREA)
    for corners in (abc, cba):
        for kernel in (triangle_angles_xy, triangle_min_angle_xy):
            assert (min_or_degenerate(kernel, *corners) == "degenerate") == flat


class TestTolerances:
    def test_defaults(self):
        assert EPS_AREA == 1e-12
        assert EPS_LEN == 1e-9


class TestPointInRing:
    def test_square(self):
        sq = [P(0, 0), P(4, 0), P(4, 4), P(0, 4)]
        assert point_in_ring(P(2, 2), sq)
        assert not point_in_ring(P(5, 2), sq)

    def test_on_segment_helper(self):
        assert point_on_segment(P(0, 0), P(4, 0), P(2, 0))
        assert not point_on_segment(P(0, 0), P(4, 0), P(2, 1))
