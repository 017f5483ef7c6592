import logging
import math
import random

import pytest

import polytri.swap as swap_mod
from polytri import build_ring, eliminate_holes, generate_corpus, triangulate_ring
from polytri.earclip import Triangulation, _clip
from polytri.polygon import VertexNode
from polytri.geom import DegenerateTriangle, Point2, cross2
from polytri.swap import sharp_swapper, try_swap
from conftest import edge_counts, quad_pair_min6, ring_adjacent_edges, triangulation_area

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

    def recording(t1, t2, tri):
        calls.append((t1, t2))
        return original(t1, t2, tri)

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


class TestFindNeighbor:
    """The hook pairs a sharp fresh triangle with the one across its longest edge."""

    def test_across_square_diagonal(self, swap_calls):
        p = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
        for first, second in (((0, 1, 2), (0, 2, 3)), ((0, 2, 3), (0, 1, 2))):
            nodes = [VertexNode(q.x, q.y, i, i) for i, q in enumerate(p)]
            tri, hook = Triangulation(p), sharp_swapper(60.0)
            t0 = emit(tri, hook, *(nodes[i] for i in first))
            assert swap_calls == []  # nothing across the diagonal yet
            t1 = emit(tri, hook, *(nodes[i] for i in second))
            assert swap_calls == [(t1, t0)]
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
        # an obtuse sliver whose longest edge a-b is a boundary edge; its
        # neighbour across the shorter edge b-c is emitted first
        a, b, c, d = P(0, 0), P(10, 0), P(5, 1), P(10, 5)
        nodes = [VertexNode(q.x, q.y, i, i) for i, q in enumerate((a, b, c, d))]
        tri, hook = Triangulation((a, b, c, d)), sharp_swapper(60.0)
        emit(tri, hook, nodes[2], nodes[1], nodes[3])
        emit(tri, hook, nodes[0], nodes[1], nodes[2])
        assert swap_calls == []

    def test_matches_brute_force_on_bridged_rings(self, swap_calls):
        # Around each emit, re-derive the neighbour by scanning every stored
        # triangle for both endpoints of the fresh triangle's longest edge.
        # Bridged rings hold twin nodes with equal coordinates and index, and
        # earlier swaps have rewritten stored triangles.
        def longest_edge(t):
            if t.degenerate:
                return None
            try:
                angles = swap_mod._node_angles(t)
            except DegenerateTriangle:
                return None
            if not min(angles) < 30.0:
                return None
            k = max(range(3), key=lambda i: (angles[i], -i))
            return t.nodes[(k + 1) % 3], t.nodes[(k + 2) % 3]

        sharp = twins = swaps = 0
        for poly in generate_corpus(31, 12, (16, 48), (1, 3)):
            degen = eliminate_holes(poly)
            ring = build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())
            hook = sharp_swapper(30.0)
            twinned = {i for i in degen.indices if degen.indices.count(i) > 1}

            def checked(tri, tid):
                nonlocal sharp, twins
                t = tri.triangles[tid]
                edge = longest_edge(t)
                owners = []
                if edge is not None:
                    u, w = edge
                    owners = [o for o in tri.triangles if o is not t and u in o.nodes and w in o.nodes]
                    assert len(owners) <= 1
                    sharp += 1
                    twins += not twinned.isdisjoint((u.original_index, w.original_index))
                swap_calls.clear()
                hook(tri, tid)
                assert swap_calls == [(t, o) for o in owners]

            tri = _clip(ring, smallest_angle=True, post_emit=checked)
            swaps += tri.swap_count
        assert sharp > 0 and twins > 0 and swaps > 0


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
