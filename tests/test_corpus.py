"""Hole placement in the random corpus: one case per verdict of
``corpus._hole_fits``, and a property over generated polygons."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import Ring, generate_polygon
from polytri.corpus import _hole_fits
from polytri.geom import point_in_ring
from polytri.polygon import _boxed_edges, validate_polygon

OUTER = Ring([(0, 0), (10, 0), (10, 10), (0, 10)])


def square(x, y, side=1.0):
    return Ring([(x, y), (x + side, y), (x + side, y + side), (x, y + side)])


def fits(hole, placed=()):
    return _hole_fits(hole, OUTER, _boxed_edges(OUTER), list(placed))


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
