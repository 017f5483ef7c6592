"""Hole placement in the random corpus: one case per verdict of
``corpus._hole_fits``, the argument checks of ``generate_polygon``, a
property over generated polygons, a digest of a wide generated sweep, and
the number of rings that generation builds."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polytri import Ring, generate_corpus, generate_polygon, serialize_polygon
from polytri.corpus import _hole_fits
from polytri.geom import EPS_LEN, _box, point_in_ring
from polytri.polygon import _boxed_edges, validate_polygon

OUTER = Ring([(0, 0), (10, 0), (10, 10), (0, 10)])


def square(x, y, side=1.0):
    return Ring([(x, y), (x + side, y), (x + side, y + side), (x, y + side)])


def xy(ring):
    """The coordinate lists that ``_hole_fits`` takes for ``ring``."""
    return [p.x for p in ring.points], [p.y for p in ring.points]


def fits(hole, placed=()):
    return _hole_fits(*xy(hole), OUTER, _boxed_edges(OUTER), [_box(h.points) for h in placed])


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
        assert fits(square(5 + gap, 4), [square(4, 4)]) is ok

    @pytest.mark.parametrize("hole_side", ["left", "right", "below", "above"])
    def test_gap_equal_to_the_pad_is_refused(self, hole_side):
        # The lower square ends at 5.0 and the upper one starts at the float
        # sum 5.0 + 0.05 that the pad test computes: the comparison for that
        # side sees equal values and refuses; one ulp further apart, it fits.
        for start, ok in [(5.0 + 0.05, False), (math.nextafter(5.0 + 0.05, 6.0), True)]:
            low = square(4.0, 4.0)
            high = square(start, 4.0) if hole_side in ("left", "right") else square(4.0, start)
            hole, placed = (low, high) if hole_side in ("left", "below") else (high, low)
            assert fits(hole, [placed]) is ok

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
            assert _hole_fits(*xy(hole), outer, edges, []) is ok


@pytest.mark.parametrize(
    "args, name",
    [
        ((0,), "n_vertices"),
        ((2,), "n_vertices"),
        ((8, -1), "n_holes"),
        ((8, 1, (0, 0)), "hole_vertex_range"),
        ((8, 1, (1, 2)), "hole_vertex_range"),
        ((8, 1, (5, 3)), "hole_vertex_range"),
        ((8, 0, (2, 2)), "hole_vertex_range"),
    ],
)
def test_generate_polygon_refuses_bad_arguments_by_name(args, name):
    with pytest.raises(ValueError, match=name):
        generate_polygon(random.Random(1), *args)


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


# sha256 of the serialized polygons below. Polygon sizes, hole counts and
# hole sizes reach well beyond the benchmark families, so a change to the
# RNG draw order or to any float of star drawing or hole placement moves it.
SWEEP_SHA256 = "f56e95a92da44918e66121ac62dd530d0555395e042b9f4a52e9f9f5d9be64d9"


def test_generated_sweep_is_byte_identical():
    h = hashlib.sha256()
    for seed in range(60):
        for poly in generate_corpus(seed, 5, (4, 400), (0, 6), (3, 40)):
            h.update(serialize_polygon(poly).encode())
    assert h.hexdigest() == SWEEP_SHA256


def test_only_kept_holes_become_rings(monkeypatch):
    # The three holes_bridge inputs of benchmark seed 1 (holes/6, holes/19
    # and holes/14 in benchmarks/workloads.py) draw 644 hole candidates and
    # keep 18 of them. Candidates are tested as coordinates, so the rings
    # built are the 3 outer rings and the 18 kept holes.
    built = 0
    init = Ring.__init__

    def counting_init(self, points):
        nonlocal built
        built += 1
        init(self, points)

    monkeypatch.setattr(Ring, "__init__", counting_init)
    for seed, size in [(3006, 44), (3019, 60), (3014, 76)]:
        generate_corpus(seed, 1, (800, 800), (6, 6), (size, size))
    assert built == 3 + 3 * 6
