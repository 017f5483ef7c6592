"""Hole placement in the random corpus: one case per verdict of
``corpus._hole_fits``, and a property over generated polygons."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import Ring, generate_polygon
from polytri.corpus import _hole_fits
from polytri.geom import EPS_LEN, _box, point_in_ring
from polytri.polygon import _boxed_edges, validate_polygon

OUTER = Ring([(0, 0), (10, 0), (10, 10), (0, 10)])


def square(x, y, side=1.0):
    return Ring([(x, y), (x + side, y), (x + side, y + side), (x, y + side)])


def fits(hole, placed=()):
    return _hole_fits(hole, OUTER, _boxed_edges(OUTER), list(placed))


def rotated(points, quarter_turns):
    """``points`` turned by quarter_turns * 90 degrees about the origin,
    exactly: each turn swaps the coordinates and negates one."""
    for _ in range(quarter_turns):
        points = [(-y, x) for x, y in points]
    return Ring(points)


# An L-shaped outer ring whose edge (6, 10)-(6, 5) points down into the
# interior, for a hole below it whose tip is on that edge's line.
L_OUTER = [(0, 0), (10, 0), (10, 10), (6, 10), (6, 5), (0, 5)]


class TestHoleFits:
    def test_hole_inside_fits(self):
        assert fits(square(4, 4))

    def test_hole_straddling_the_outer_boundary_is_refused(self):
        # clear of placed holes and its first vertex inside: only the
        # crossing test refuses it
        hole = square(9.5, 4)
        assert point_in_ring(hole.points[0], OUTER.points)
        assert not fits(hole)

    def test_hole_wholly_outside_is_refused(self):
        # no edge meets the outer ring: only the containment test refuses it
        assert not fits(square(12, 4))

    @pytest.mark.parametrize("gap, ok", [(0.03, False), (0.1, True)])
    def test_hole_within_the_pad_of_a_placed_hole_is_refused(self, gap, ok):
        # inside and clear of the outer ring either way; the boxes are
        # disjoint, so only the 0.05 pad around a placed hole refuses it
        placed = square(4, 4).reversed()
        assert fits(square(5 + gap, 4), [placed]) is ok

    @pytest.mark.parametrize("hole_side", ["left", "right", "below", "above"])
    def test_gap_equal_to_the_pad_is_refused(self, hole_side):
        # The lower square ends at 5.0 and the upper one starts at the float
        # sum 5.0 + 0.05 that the pad test computes: the comparison for that
        # side sees equal values and refuses; one ulp further apart, it fits.
        for start, ok in [(5.0 + 0.05, False), (math.nextafter(5.0 + 0.05, 6.0), True)]:
            low = square(4.0, 4.0)
            high = square(start, 4.0) if hole_side in ("left", "right") else square(4.0, start)
            hole, placed = (low, high) if hole_side in ("left", "below") else (high, low)
            assert fits(hole, [placed.reversed()]) is ok

    @pytest.mark.parametrize("quarter_turns", range(4))
    def test_outer_edge_whose_padded_box_touches_the_hole_box_is_tested(self, quarter_turns):
        # The tip at 5 - EPS_LEN lies on the edge by point_on_segment's
        # padded test, and the hole's box side equals the edge's padded box
        # side: the near-edge filter must keep the edge for the crossing
        # test to refuse the hole. One ulp further down, the edge misses and
        # the hole fits. Each quarter turn puts the touching sides on
        # another comparison of the filter.
        outer = rotated(L_OUTER, quarter_turns)
        edges = _boxed_edges(outer)
        for tip, ok in [(5 - EPS_LEN, False), (math.nextafter(5 - EPS_LEN, 0.0), True)]:
            hole = rotated([(6, 3), (7, 4), (6, tip), (5, 4)], quarter_turns)
            if not ok:
                hx0, hy0, hx1, hy1 = _box(hole.points)
                ex0, ey0, ex1, ey1 = edges[3][:4]  # the edge (6, 10)-(6, 5), turned
                assert [ex0 == hx1, hx0 == ex1, ey0 == hy1, hy0 == ey1].count(True) == 1
            assert _hole_fits(hole, outer, edges, []) is ok


def all_vertices_inside(hole, outer):
    """The containment rule that hole placement used before one vertex
    sufficed: every hole vertex inside the outer ring."""
    hpts = hole.points
    return all(point_in_ring(p, outer.points) for p in hpts)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 120),
    holes=st.integers(0, 4),
    hole_size=st.integers(3, 12),
)
def test_placed_holes_lie_inside_the_outer_ring(seed, n, holes, hole_size):
    poly = generate_polygon(random.Random(seed), n, holes, (3, hole_size))
    assert len(poly.holes) == holes
    for hole in poly.holes:
        assert all_vertices_inside(hole, poly.outer)
    assert validate_polygon(poly) == []
