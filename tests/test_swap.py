import logging
import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import polytri.earclip as earclip_mod
import polytri.quality as quality_mod
import polytri.swap as swap_mod
from polytri import (
    build_ring,
    eliminate_holes,
    generate_corpus,
    report,
    triangulate_polygon,
    triangulate_ring,
)
from polytri.earclip import Triangulation, _clip
from polytri.polygon import Ring, VertexNode, remove_vertex
from polytri.geom import (
    EPS_AREA,
    DegenerateTriangle,
    Point2,
    triangle_angles_xy,
    triangle_min_angle_xy,
)
from polytri.quality import min_angles
from polytri.swap import sharp_swapper, try_swap
from conftest import (
    TOUCHING_HOLES,
    bridged_ring,
    cross2,
    edge_counts,
    quad_pair_min6,
    ring_adjacent_edges,
    triangulation_area,
)

P = Point2


def quad_triangulation(p0, p1, p2, p3):
    """Two triangles (p0,p1,p2) and (p0,p2,p3) over the diagonal p0-p2."""
    nodes = [VertexNode(p.x, p.y, i, i) for i, p in enumerate((p0, p1, p2, p3))]
    tri = Triangulation((p0, p1, p2, p3))
    tri.add_triangle(nodes[0], nodes[1], nodes[2])
    tri.add_triangle(nodes[0], nodes[2], nodes[3])
    return tri, nodes


@pytest.fixture()
def swap_calls(monkeypatch):
    """The ``(t1, t2)`` pair of every ``try_swap`` call the hook makes."""
    calls = []
    original = swap_mod.try_swap

    def recording(t1, t2, tri, *measured):
        calls.append((t1, t2))
        return original(t1, t2, tri, *measured)

    monkeypatch.setattr(swap_mod, "try_swap", recording)
    return calls


def emit(tri, hook, *nodes):
    """Add one triangle and hand it to ``hook`` as the clipping engine does."""
    tid = tri.add_triangle(*nodes)
    hook(tri, tid)
    return tri.triangles[tid]


class TestAngleBound:
    """The ``bound`` of ``triangulate_ring(ring, "improved", bound)``."""

    def test_clamps_above_60(self, small_corpus, caplog):
        for poly in small_corpus[:12]:
            with caplog.at_level(logging.WARNING, logger="polytri"):
                t75 = triangulate_ring(build_ring(poly.outer), "improved", bound=75.0)
            t60 = triangulate_ring(build_ring(poly.outer), "improved", bound=60.0)
            assert [t.indices() for t in t75.triangles] == [t.indices() for t in t60.triangles]
        assert any("clamped to 60" in r.message for r in caplog.records)

    def test_rejects_negative(self, unit_square):
        for bound in (-1.0, math.nan):
            with pytest.raises(ValueError):
                triangulate_ring(build_ring(unit_square), "improved", bound=bound)

    def test_ignored_by_other_algorithms(self, unit_square):
        for algorithm in ("basic", "traditional"):
            tri = triangulate_ring(build_ring(unit_square), algorithm, bound=-1.0)
            assert len(tri.triangles) == 2


def clip_checking_neighbors(ring, bound, swap_calls, smallest_angle=True):
    """Clip ``ring`` with the improved hook, and around each emit re-derive
    the neighbour across the fresh triangle's longest edge by scanning every
    stored triangle for both of its endpoints: the hook must pair the fresh
    triangle with exactly that one. Returns the triangulation and, for each
    triangle the hook looks a neighbour up for, ``(t, (u, w), i, owner)``:
    ``u -> w`` is the longest edge as emitted, ``i`` the position of ``u``
    in the emitted triangle, and ``owner`` None where there is none."""
    hook = sharp_swapper(bound)
    looked_up = []

    def checked(tri, tid):
        t = tri.triangles[tid]
        owners = []
        if not t.degenerate:
            a, b, c = t.nodes
            angles = triangle_angles_xy(a.x, a.y, b.x, b.y, c.x, c.y)
            if min(angles) < bound:
                k = max(range(3), key=lambda i: (angles[i], -i))
                i = (k + 1) % 3
                u, w = t.nodes[i], t.nodes[(k + 2) % 3]
                owners = [o for o in tri.triangles if o is not t and u in o.nodes and w in o.nodes]
                assert len(owners) <= 1
                looked_up.append((t, (u, w), i, owners[0] if owners else None))
        swap_calls.clear()
        hook(tri, tid)
        assert swap_calls == [(t, o) for o in owners]

    return _clip(ring, smallest_angle=smallest_angle, post_emit=checked), looked_up


class TestFindNeighbor:
    """The hook pairs a sharp fresh triangle with the one across its longest edge."""

    def test_across_square_diagonal(self, unit_square, swap_calls):
        # Both right triangles of a unit square are sharp (45 degrees) and
        # their longest edge is the diagonal. Cut by hand as the engine
        # does: the first cut finds no neighbour across the new ring edge,
        # and the last triangle is paired with it across whichever of its
        # three ring edges is the diagonal (first cutting tip 0, 1, 2 or 3
        # puts it at the last triangle's third, first, second and third edge).
        for first_tip in range(4):
            ring = build_ring(unit_square)
            tri, hook = Triangulation(ring.table), sharp_swapper(60.0)
            v = list(ring)[first_tip]
            left, right = v.prev, v.next
            tid = tri.add_triangle(left, v, right)
            remove_vertex(ring, v)
            hook(tri, tid)
            assert swap_calls == []  # nothing across the diagonal yet
            h = ring.head
            last = emit(tri, hook, h, h.next, h.next.next)
            assert swap_calls == [(last, tri.triangles[tid])]
            assert {left, right} <= set(last.nodes)
            swap_calls.clear()

    def test_first_clipped_ear_has_no_neighbor(self, unit_square, swap_calls):
        # replicate the engine's very first cut by hand: a sharp (45 degree)
        # triangle with nothing emitted before it
        ring = build_ring(unit_square)
        tri = Triangulation(ring.table)
        v = ring.head
        emit(tri, sharp_swapper(60.0), v.prev, v, v.next)
        assert swap_calls == []

    def test_longest_edge_on_boundary_gives_none(self, swap_calls):
        # an obtuse sliver (a, b, c) whose longest edge a-b is a boundary
        # edge; its neighbour across the shorter edge b-c is cut first, at
        # the tip d of the ring a -> b -> d -> c
        ring = build_ring(Ring([(0, 0), (10, 0), (10, 5), (5, 1)]))
        a, b, d, c = list(ring)
        tri, hook = Triangulation(ring.table), sharp_swapper(60.0)
        tid = tri.add_triangle(b, d, c)
        remove_vertex(ring, d)
        hook(tri, tid)
        assert ring.head is a
        emit(tri, hook, a, b, c)
        assert swap_calls == []

    def test_matches_brute_force_on_bridged_rings(self, swap_calls):
        # Bridged rings hold twin nodes with equal coordinates and index, and
        # earlier swaps have rewritten stored triangles.
        sharp = twins = swaps = 0
        for poly in generate_corpus(31, 12, (16, 48), (1, 3)):
            degen = eliminate_holes(poly)
            ring = build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())
            twinned = {i for i in degen.indices if degen.indices.count(i) > 1}
            tri, looked_up = clip_checking_neighbors(ring, 30.0, swap_calls)
            sharp += len(looked_up)
            twins += sum(
                not twinned.isdisjoint((u.original_index, w.original_index))
                for _, (u, w), _, _ in looked_up
            )
            swaps += tri.swap_count
        assert sharp > 0 and twins > 0 and swaps > 0

    @pytest.mark.parametrize("smallest_angle", [True, False], ids=["basic", "traditional"])
    def test_matches_brute_force_on_hole_free_rings(self, swap_calls, smallest_angle):
        # At bound 60 every triangle that is not equilateral is looked up,
        # in either clip order. Only the last triangle may find a neighbour
        # across its third edge, and over these rings every edge finds one.
        found = Counter()
        for poly in generate_corpus(17, 30, (4, 60), (0, 0)):
            tri, looked_up = clip_checking_neighbors(
                build_ring(poly.outer), 60.0, swap_calls, smallest_angle
            )
            assert len(looked_up) == len(tri.triangles)
            last = tri.triangles[-1]
            for t, _, i, owner in looked_up:
                if owner is not None:
                    assert i < 2 or t is last
                    found[i] += 1
        assert set(found) == {0, 1, 2}

    @pytest.mark.parametrize("bound", [30.0, 60.0])
    @pytest.mark.parametrize("smallest_angle", [True, False], ids=["basic", "traditional"])
    def test_matches_brute_force_through_a_restart(self, swap_calls, smallest_angle, bound):
        # the two-hole octagon's ring grows mid-clip in either clip order,
        # which rebuilds the ear flags but leaves the hook's ring edges be
        ring = bridged_ring(TOUCHING_HOLES)
        grid = ring.reflex
        tri, looked_up = clip_checking_neighbors(ring, bound, swap_calls, smallest_angle)
        assert ring.reflex is not grid
        assert any(owner is not None for *_, owner in looked_up)
        if bound == 60.0:
            assert len(looked_up) == len(tri.triangles) - tri.degenerate_count


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

    @pytest.mark.parametrize(
        "second",
        [(4, 5, 6), (2, 4, 5), None],
        ids=["disjoint", "one_shared_vertex", "itself"],
    )
    def test_rejects_a_pair_without_exactly_one_shared_edge(self, second):
        p = (P(0, 0), P(1, 0), P(0, 1), P(3, 0), P(5, 0), P(6, 0), P(5, 1))
        nodes = [VertexNode(q.x, q.y, i, i) for i, q in enumerate(p)]
        tri = Triangulation(p)
        t0 = tri.triangles[tri.add_triangle(nodes[0], nodes[1], nodes[2])]
        t1 = t0 if second is None else tri.triangles[tri.add_triangle(*(nodes[i] for i in second))]
        before = (t0.indices(), t1.indices())
        with pytest.raises(ValueError, match="share exactly one edge"):
            try_swap(t0, t1, tri)
        with pytest.raises(ValueError, match="share exactly one edge"):
            try_swap(t1, t0, tri)
        assert (t0.indices(), t1.indices()) == before
        assert tri.swap_count == 0

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

    @settings(max_examples=300, deadline=None)
    @given(
        corners=st.lists(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=4, max_size=4, unique=True
        ),
        ulps=st.integers(-4, 4),
        shift=st.sampled_from([0.0, 1.0, -3.0]),
    )
    # the apex cross product of (p1, p2, p3) exceeds EPS_AREA, but not the
    # one at its middle corner, where the kernel tests it
    @example(corners=[(2, 2), (2, 5), (-3, 2), (-5, -3)], ulps=0, shift=0.0)
    def test_kernels_measure_every_new_half_the_convexity_test_admits(
        self, corners, ulps, shift
    ):
        # A lattice quad scaled so that twice the area of the new half
        # (p1, p2, p3) is EPS_AREA within a few ulps, where the convexity
        # test and the kernels' degeneracy test are closest to disagreeing.
        # The old pair's stored minimum is 0, so a quad the test admits has
        # both new halves measured, and none may be rejected by the kernel.
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = corners
        doubled = (x3 - x2) * (y1 - y2) - (y3 - y2) * (x1 - x2)
        assume(doubled > 0)
        scale = math.sqrt(EPS_AREA / doubled) * (1.0 + ulps * 2.0**-52)
        tri, _ = quad_triangulation(*(P(shift + scale * x, shift + scale * y) for x, y in corners))
        t0, t1 = tri.triangles
        t0.min_angle = t1.min_angle = 0.0
        measured, rejected = [], []

        def kernel(*xy):
            measured.append(xy)
            try:
                return triangle_min_angle_xy(*xy)
            except DegenerateTriangle:
                rejected.append(xy)
                raise

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(swap_mod, "triangle_min_angle_xy", kernel)
            out = try_swap(t0, t1, tri)
        assert rejected == []
        assert len(measured) == (0 if out is None else 2)


class TestTriangulateImproved:
    def test_bound_zero_identical_to_basic(self, small_corpus):
        for poly in small_corpus[:12]:
            t_basic = triangulate_ring(build_ring(poly.outer), "basic")
            t_imp = triangulate_ring(build_ring(poly.outer), "improved", bound=0.0)
            assert [(t.a, t.b, t.c) for t in t_basic.triangles] == [
                (t.a, t.b, t.c) for t in t_imp.triangles
            ]
            assert t_imp.swap_count == 0

    def test_square_any_bound(self, unit_square):
        for bound in (0.0, 30.0, 60.0):
            tri = triangulate_ring(build_ring(unit_square), "improved", bound=bound)
            assert len(tri.triangles) == 2
            assert triangulation_area(tri) == pytest.approx(1.0)

    def test_count_and_area_preserved_under_swaps(self, small_corpus):
        for poly in small_corpus:
            n = len(poly.outer)
            tri = triangulate_ring(build_ring(poly.outer), "improved", bound=30.0)
            assert len(tri.triangles) == n - 2
            want = poly.outer.signed_area()
            assert abs(triangulation_area(tri) - want) <= 1e-9 * abs(want)
            for t in tri.triangles:
                if not t.degenerate:
                    assert cross2(*t.points()) > 0

    def test_edge_balance_after_swaps(self, small_corpus):
        swaps_seen = 0
        for poly in small_corpus:
            tri = triangulate_ring(build_ring(poly.outer), "improved", bound=30.0)
            swaps_seen += tri.swap_count
            boundary = ring_adjacent_edges(tri)
            counts = edge_counts(tri)
            for key, count in counts.items():
                assert count in (1, 2)
                if key in boundary:
                    assert count == 1
            singles = {k for k, v in counts.items() if v == 1}
            assert singles == boundary
        assert swaps_seen > 0  # the corpus must actually exercise swapping

    def test_accepts_plain_float_bound(self, unit_square):
        tri = triangulate_ring(build_ring(unit_square), "improved", bound=30)
        assert len(tri.triangles) == 2


class TestMeasureOnce:
    """Each triangle of an improved run is measured once; the report reuses it."""

    @pytest.fixture()
    def measured(self, monkeypatch):
        """Count the angle measurements of ``swap``, ``quality`` and
        ``earclip`` (whose ``smallest_angle`` both read through), by either
        kernel: all three angles or only the smallest."""
        counts = Counter()
        for module in (swap_mod, quality_mod, earclip_mod):
            for kernel in ("triangle_angles_xy", "triangle_min_angle_xy"):
                real = getattr(module, kernel, None)
                if real is None:
                    continue

                def counting(*xy, name=module.__name__, real=real):
                    counts[name] += 1
                    return real(*xy)

                monkeypatch.setattr(module, kernel, counting)
        return counts

    def test_improved_run_and_report(self, measured, swap_calls):
        poly = generate_corpus(3, 1, (200, 200), (3, 3))[0]
        assert len(poly.holes) == 3
        tri, _ = triangulate_polygon(poly, "improved", 30.0)
        rep = report(tri)
        kept = [t for t in tri.triangles if not t.degenerate]
        assert rep.triangle_count == len(kept)
        assert tri.swap_count > 0 and swap_calls
        assert measured["polytri.swap"] <= len(tri.triangles) + 2 * len(swap_calls)
        assert all(t.min_angle is not None for t in kept)
        assert measured["polytri.quality"] == measured["polytri.earclip"] == 0

    def test_nodes_rewritten_from_outside_are_measured_afresh(self, measured):
        # code that assigns ``nodes`` from outside clears ``min_angle``, and
        # the report then measures that triangle, and only that one
        poly = generate_corpus(3, 1, (60, 60), (1, 1))[0]
        tri, _ = triangulate_polygon(poly, "improved", 30.0)
        t1, t2 = tri.triangles[0], tri.triangles[-1]
        stale = t1.min_angle
        t1.nodes = (t1.nodes[0], t1.nodes[1], t2.nodes[2])
        t1.min_angle = None
        a, b, c = t1.nodes
        fresh = min(triangle_angles_xy(a.x, a.y, b.x, b.y, c.x, c.y))
        assert fresh != stale
        assert min_angles(tri)[0] == fresh
        assert measured["polytri.earclip"] == 1
