import ast
import functools
import hashlib
import heapq
import logging
import math
import pathlib
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polytri import (
    EarSearchFailed,
    PolygonWithHoles,
    Ring,
    build_ring,
    eliminate_holes,
    generate_corpus,
    normalize,
    parse_polygon,
    report,
    triangulate_polygon,
    triangulate_ring,
    triangulation_to_json,
)
from polytri import earclip, pipeline
from polytri.earclip import (
    _ear_key,
    _select_fallback,
    _select_next_sequential,
    _select_smallest_angle,
    is_ear,
    update_after_cut,
)
from polytri.geom import GeometryError, Point2
from polytri.pipeline import ALGORITHMS
from conftest import (
    TOUCHING_HOLES,
    bridged_ring,
    brute_force_is_ear,
    cross2,
    edge_counts,
    inside_with_tolerance,
    oracle_inside,
    point_in_triangle_closure,
    reflex_members,
    remove_vertex,
    ring_adjacent_edges,
    triangulation_area,
)

P = Point2
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def centroid(a, b, c):
    return P((a.x + b.x + c.x) / 3.0, (a.y + b.y + c.y) / 3.0)


@functools.cache
def large_polygon(name):
    """The 2000-vertex star, or a fixture by name, for the selection tests."""
    if name == "star2000":
        return generate_corpus(seed=909, count=1, vertex_range=(2000, 2000))[0]
    return parse_polygon((FIXTURES / f"{name}.poly").read_text())


class TestIsEar:
    def test_convex_polygon_every_vertex_is_ear(self):
        hexagon = Ring(
            [P(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
        )
        ring = build_ring(hexagon)
        for node in ring:
            assert is_ear(ring, node)

    def test_reflex_vertex_is_not_ear(self, l_shape):
        ring = build_ring(l_shape)
        reflex = next(n for n in ring if not n.is_convex)
        assert not is_ear(ring, reflex)

    def test_dart_blocked_by_contained_reflex(self):
        # tip (4,0) forms triangle (0,0),(4,0),(4,4) whose closure holds the
        # reflex vertex (1,1); the closure oracle confirms both facts
        dart = Ring([(0, 0), (4, 0), (4, 4), (1, 1)])
        ring = build_ring(dart)
        nodes = list(ring)
        tip = nodes[1]
        blocker = nodes[3]
        assert not blocker.is_convex
        assert point_in_triangle_closure(blocker.point, P(0, 0), P(4, 0), P(4, 4))
        assert not is_ear(ring, tip)

    def test_matches_brute_force_on_corpus(self, small_corpus):
        for poly in small_corpus:
            ring = build_ring(poly.outer)
            for node in ring:
                assert is_ear(ring, node) == brute_force_is_ear(ring, node)


class TestTriangulateBasic:
    def test_unit_square(self, unit_square):
        tri = triangulate_ring(build_ring(unit_square), "basic")
        assert [(t.a, t.b, t.c) for t in tri.triangles] == [(3, 0, 1), (1, 2, 3)]
        areas = [0.5 * cross2(*t.points()) for t in tri.triangles]
        assert areas == pytest.approx([0.5, 0.5])
        assert triangulation_area(tri) == pytest.approx(1.0)

    def test_triangle_count_law(self, small_corpus):
        for poly in small_corpus:
            ring = build_ring(poly.outer)
            tri = triangulate_ring(ring, "basic")
            assert len(tri.triangles) == len(poly.outer) - 2

    def test_area_conservation_random_20gon(self):
        from polytri import generate_corpus

        poly = generate_corpus(seed=3, count=1, vertex_range=(20, 20))[0]
        tri = triangulate_ring(build_ring(poly.outer), "basic")
        want = poly.outer.signed_area()
        assert abs(triangulation_area(tri) - want) <= 1e-9 * abs(want)

    def test_all_triangles_ccw(self, small_corpus):
        for poly in small_corpus[:10]:
            tri = triangulate_ring(build_ring(poly.outer), "basic")
            for t in tri.triangles:
                assert cross2(*t.points()) > 0

    def test_centroids_inside(self, small_corpus):
        for poly in small_corpus[:10]:
            tri = triangulate_ring(build_ring(poly.outer), "basic")
            for t in tri.triangles:
                assert inside_with_tolerance(centroid(*t.points()), poly.outer.points)

    def test_edge_balance(self, small_corpus):
        for poly in small_corpus[:10]:
            tri = triangulate_ring(build_ring(poly.outer), "basic")
            boundary = ring_adjacent_edges(tri)
            counts = edge_counts(tri)
            for key, count in counts.items():
                if key in boundary:
                    assert count == 1
                else:
                    assert count == 2
            singles = {k for k, v in counts.items() if v == 1}
            assert singles == boundary

    def test_selection_rule(self, small_corpus):
        # the engine never clips a tip when a verified ear with a strictly
        # smaller interior angle exists
        poly = small_corpus[0]
        ring = build_ring(poly.outer)
        for node in ring:
            node.is_ear = is_ear(ring, node) if node.is_convex else False
        steps = 0
        while ring.count > 3 and steps < 12:
            chosen = _select_smallest_angle(ring)
            assert chosen is not None
            for node in ring:
                if node is chosen:
                    continue
                if is_ear(ring, node):
                    assert node.interior_angle >= chosen.interior_angle - 1e-12
            left, right = chosen.prev, chosen.next
            remove_vertex(ring, chosen)
            update_after_cut(ring, left, right)
            steps += 1

    def test_duplicate_heap_entry_compares_no_nodes(self, small_corpus):
        # heap entries end in the node itself, and VertexNode has no
        # ordering: two equal entries of one node must tie without the heap
        # ever asking which node is smaller, or it raises TypeError
        ring = build_ring(small_corpus[0].outer)
        for node in ring:
            node.is_ear = is_ear(ring, node) if node.is_convex else False
        first = _select_smallest_angle(ring)
        entry = ring.ears[0]
        copy = (*entry,)
        assert copy == entry and copy is not entry
        heapq.heappush(ring.ears, copy)
        assert _select_smallest_angle(ring) is first
        left, right = first.prev, first.next
        remove_vertex(ring, first)
        update_after_cut(ring, left, right)
        assert _select_smallest_angle(ring) not in (None, first)

    @pytest.mark.parametrize("name", ["spiral", "comb", "star2000", "two_holes"])
    def test_selection_matches_brute_force_oracle(self, name):
        # a full basic clip, cut by cut: every selected tip is the live node
        # with the smallest selection key among those the from-scratch ear
        # oracle accepts, and the fallback fires only when it accepts none.
        # On a bridged ring a cut can turn convex the bridge twin of another
        # tip's neighbour and so unblock that tip, whose cached ear flag
        # stays false; there the oracle ranks only nodes whose flag, resolved
        # as of its stamp when pending, is true.
        if name != "two_holes":
            poly = large_polygon(name)
        else:
            # the bridged ring of this seed needs the fallback twice
            poly = generate_corpus(
                seed=1, count=1, vertex_range=(60, 60), holes_range=(2, 2)
            )[0]
        poly = normalize(poly)
        degen = eliminate_holes(poly)
        ring = build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())
        for node in ring:
            node.is_ear = None if node.is_convex else False

        def flagged(v):
            if v.is_ear is None:
                return is_ear(ring, v, stamp=v.stamp)
            return v.is_ear

        cuts = fallbacks = 0
        while ring.count > 3:
            ears = (v for v in sorted(ring, key=_ear_key) if brute_force_is_ear(ring, v))
            best = next(ears, None)
            while poly.holes and best is not None and not flagged(best):
                best = next(ears, None)
            chosen = _select_smallest_angle(ring)
            if chosen is None:
                assert best is None, best
                chosen = _select_fallback(ring)
                fallbacks += 1
            else:
                assert chosen is best, (chosen, best)
            left, right = chosen.prev, chosen.next
            remove_vertex(ring, chosen)
            update_after_cut(ring, left, right)
            cuts += 1
        assert cuts == len(degen.ring) - 3
        assert (fallbacks > 0) == (name == "two_holes")

    def test_unnormalized_cw_ring_fails(self):
        # bypassing normalize: a clockwise ring reads as all-reflex, so no
        # ear or fallback ever applies
        cw_square = Ring([(0, 0), (0, 1), (1, 1), (1, 0)])
        with pytest.raises(EarSearchFailed) as exc:
            triangulate_ring(build_ring(cw_square), "basic")
        assert len(exc.value.points) >= 3

    def test_tiny_simple_polygon_blames_tolerance(self):
        # a simple star scaled by 1e-7: every cross product falls below the
        # absolute EPS_AREA, so the message must name scale as a cause and
        # not only self-intersection
        poly = generate_corpus(5, 20, (4, 200), (0, 2))[11]
        assert not poly.holes
        triangulate_polygon(poly, "basic")
        tiny = PolygonWithHoles(Ring([(x * 1e-7, y * 1e-7) for x, y in poly.outer]))
        with pytest.raises(EarSearchFailed, match="tolerance"):
            triangulate_polygon(tiny, "basic")


class TestTriangulateTraditional:
    def test_unit_square(self, unit_square):
        tri = triangulate_ring(build_ring(unit_square), "traditional")
        assert len(tri.triangles) == 2
        assert triangulation_area(tri) == pytest.approx(1.0)

    def test_convex_hexagon_scan_order(self):
        # hand-traced: clip 0, resume at 1, clip 1, 2, then the remainder
        hexagon = Ring(
            [P(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
        )
        tri = triangulate_ring(build_ring(hexagon), "traditional")
        assert [(t.a, t.b, t.c) for t in tri.triangles] == [
            (5, 0, 1),
            (5, 1, 2),
            (5, 2, 3),
            (3, 4, 5),
        ]

    def test_same_count_and_area_as_basic(self, small_corpus):
        for poly in small_corpus:
            t1 = triangulate_ring(build_ring(poly.outer), "basic")
            t2 = triangulate_ring(build_ring(poly.outer), "traditional")
            assert len(t1.triangles) == len(t2.triangles)
            assert triangulation_area(t1) == pytest.approx(
                triangulation_area(t2), rel=1e-9
            )

    def test_spiral_and_comb_fixtures(self):
        import pathlib

        from polytri import parse_polygon

        here = pathlib.Path(__file__).parent / "fixtures"
        for name in ("spiral.poly", "comb.poly"):
            poly = parse_polygon((here / name).read_text())
            n = len(poly.outer)
            for algorithm in ("basic", "traditional", "improved"):
                tri = triangulate_ring(build_ring(poly.outer), algorithm)
                assert len(tri.triangles) == n - 2
                for t in tri.triangles:
                    assert oracle_inside(centroid(*t.points()), poly.outer.points)
                want = poly.outer.signed_area()
                assert abs(triangulation_area(tri) - want) <= 1e-9 * abs(want)


class TestMeshDisjointness:
    @staticmethod
    def _strictly_inside(p, a, b, c):
        for u, w in ((a, b), (b, c), (c, a)):
            if (w.x - u.x) * (p.y - u.y) - (w.y - u.y) * (p.x - u.x) <= 1e-9:
                return False
        return True

    def _assert_disjoint_interiors(self, tri):
        from conftest import oracle_segments_share_beyond_endpoint

        tris = [t.points() for t in tri.triangles if not t.degenerate]
        edges = [
            [tuple(sorted(((pts[i].x, pts[i].y), (pts[(i + 1) % 3].x, pts[(i + 1) % 3].y))))
             for i in range(3)]
            for pts in tris
        ]
        for i in range(len(tris)):
            for j in range(i + 1, len(tris)):
                for ei, (p1, p2) in enumerate(edges[i]):
                    for ej, (q1, q2) in enumerate(edges[j]):
                        if (p1, p2) == (q1, q2):
                            continue  # shared diagonals and doubled slit edges
                        assert not oracle_segments_share_beyond_endpoint(
                            p1, p2, q1, q2
                        ), (i, j, p1, p2, q1, q2)
                for p in tris[i]:
                    assert not self._strictly_inside(p, *tris[j])
                for p in tris[j]:
                    assert not self._strictly_inside(p, *tris[i])

    def test_interiors_pairwise_disjoint(self, small_corpus):
        # exact cover evidence beyond area conservation: no two triangle
        # interiors may overlap, including across bridge slits
        from polytri import PolygonWithHoles, triangulate_polygon

        simple = next(p for p in small_corpus if not p.holes and len(p.outer) <= 40)
        holed = next(p for p in small_corpus if len(p.holes) == 2)
        for poly, alg in ((simple, "basic"), (simple, "traditional"), (holed, "improved")):
            tri, _ = triangulate_polygon(poly, alg, bound=30.0)
            self._assert_disjoint_interiors(tri)


def test_reclipping_a_consumed_ring_raises():
    ring = build_ring(Ring([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)]))
    assert len(triangulate_ring(ring, "basic")) == 3
    with pytest.raises(ValueError, match="already clipped"):
        triangulate_ring(ring, "basic")
    # a triangle makes no cut, so clipping it again gives it again
    triangle = build_ring(Ring([(0, 0), (1, 0), (0, 1)]))
    for _ in range(2):
        assert [t.indices() for t in triangulate_ring(triangle, "basic").triangles] == [(0, 1, 2)]


EAR_STATE = {"stamp", "gone_at", "clock", "is_ear", "ears", "reflex"}


def test_only_earclip_writes_the_ear_flag_state():
    # polygon.refresh_node is geometry only; the flags, stamps, gone_at, the
    # heap and the reflex index have one owner, apart from the constructors'
    # defaults and the first index, which build_ring makes
    src = pathlib.Path(earclip.__file__).parent
    writers = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        defaults = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name in ("VertexNode", "VertexRing")
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
            for node in ast.walk(fn)
        } | {
            id(node)
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "build_ring"
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and node.attr == "reflex"
        }
        writers += [
            f"{path.name}:{node.lineno} .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr in EAR_STATE
            and path.name != "earclip.py"
            and id(node) not in defaults
        ]
    assert writers == []


# The per-cut kernels spell min and max as comparison chains and degrees as
# one multiply by geom._DEG; the swap hook is nested in sharp_swapper.
HOT_KERNELS = {
    "earclip.py": {"is_ear", "smallest_angle", "_ear_key"},
    "polygon.py": {"refresh_node"},
    "geom.py": {"triangle_angles_xy", "triangle_min_angle_xy"},
    "swap.py": {"try_swap", "sharp_swapper"},
    "quality.py": {"min_angles"},
}


def test_hot_kernels_call_no_min_max_or_degrees():
    src = pathlib.Path(earclip.__file__).parent
    found, calls = set(), []
    for name, kernels in HOT_KERNELS.items():
        tree = ast.parse((src / name).read_text())
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in kernels):
                continue
            found.add((name, fn.name))
            calls += [
                f"{name}:{node.lineno} {fn.name}"
                for node in ast.walk(fn)
                if (isinstance(node, ast.Name) and node.id in ("min", "max", "degrees"))
                or (isinstance(node, ast.Attribute) and node.attr == "degrees")
            ]
    assert calls == []
    assert found == {(name, fn) for name, fns in HOT_KERNELS.items() for fn in fns}


def count_angle_work(monkeypatch, poly, algorithm):
    """``atan2`` calls made by :mod:`polytri.polygon` and
    :mod:`polytri.earclip` while triangulating ``poly``, and the heap keys
    built for a node whose cached angle was empty."""
    counts = Counter()

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def atan2(self, y, x):
            counts["atan2"] += 1
            return math.atan2(y, x)

    def ear_key(node):
        counts["empty_keys"] += node._angle is None
        return _ear_key(node)

    monkeypatch.setattr(earclip, "_ear_key", ear_key)
    for module in (earclip, sys.modules["polytri.polygon"]):
        monkeypatch.setattr(module, "math", CountingMath())
    triangulate_polygon(poly, algorithm)
    return counts["atan2"], counts["empty_keys"]


class TestAngleWork:
    """A node's angle is computed only when the selection keys it."""

    @pytest.fixture
    def star(self):
        return generate_corpus(seed=11, count=1, vertex_range=(300, 300))[0]

    def test_traditional_computes_no_node_angle(self, monkeypatch, star):
        assert not star.holes
        assert count_angle_work(monkeypatch, star, "traditional") == (0, 0)

    def test_basic_computes_one_angle_per_key_built_on_an_empty_cache(self, monkeypatch, star):
        atan2, empty_keys = count_angle_work(monkeypatch, star, "basic")
        assert atan2 == 2 * empty_keys
        assert (atan2, empty_keys) == (1028, 514)
        # the same work every run
        assert count_angle_work(monkeypatch, star, "basic") == (atan2, empty_keys)


class TestUpdateAfterCut:
    def test_square_corner_cut_makes_45_degree_ears(self, unit_square):
        ring = build_ring(unit_square)
        v = ring.head  # (0,0)
        left, right = v.prev, v.next
        remove_vertex(ring, v)
        update_after_cut(ring, left, right)
        assert left.interior_angle == pytest.approx(45.0)
        assert right.interior_angle == pytest.approx(45.0)
        assert left.is_convex and right.is_convex
        # both flags are pending, stamped with the cut; resolved, both hold
        assert ring.clock == left.stamp == right.stamp == 1
        assert left.is_ear is None and right.is_ear is None
        assert is_ear(ring, left, stamp=left.stamp)
        assert is_ear(ring, right, stamp=right.stamp)

    def test_cut_unreflexes_neighbour(self):
        ring = build_ring(Ring([(0, 0), (2, 0), (1.2, 0.4), (2, 2), (0, 1)]))
        nodes = list(ring)
        b, c = nodes[1], nodes[2]
        assert not c.is_convex
        assert is_ear(ring, b)
        left, right = b.prev, b.next
        remove_vertex(ring, b)
        update_after_cut(ring, left, right)
        assert c.is_convex
        assert c.interior_angle < 180.0

    def test_far_vertex_untouched(self):
        ring = build_ring(Ring([(0, 0), (2, 0), (1.2, 0.4), (2, 2), (0, 1)]))
        nodes = list(ring)
        far = nodes[4]
        before = (far.interior_angle, far.is_convex, far.is_ear)
        b = nodes[1]
        left, right = b.prev, b.next
        remove_vertex(ring, b)
        update_after_cut(ring, left, right)
        assert (far.interior_angle, far.is_convex, far.is_ear) == before

    def test_unreflexing_cut_stays_in_the_index_gone_at_the_cut(self):
        # clipping the ear at B turns its reflex neighbour C convex; C stays
        # in the index, marked as gone at this cut
        ring = build_ring(Ring([(0, 0), (2, 0), (1.2, 0.4), (2, 2), (0, 1)]))
        nodes = list(ring)
        b, c = nodes[1], nodes[2]
        assert not c.is_convex and c.gone_at == math.inf
        left, right = b.prev, b.next
        remove_vertex(ring, b)
        update_after_cut(ring, left, right)
        assert c.is_convex
        assert c in reflex_members(ring.reflex)
        assert c.gone_at == ring.clock == 1

    def test_collapsed_edge_joins_the_index_without_raising(self):
        # the neighbour that turns reflex restarts the books: a new index of
        # exactly the live reflex nodes, and every live node stamped with
        # the cut, pending if convex
        ring = build_ring(Ring([(0, 0), (4, 0), (4, 4), (0, 4), (-1, 2)]))
        nodes = list(ring)
        grid = ring.reflex
        # forge a collapsed edge: drag a convex node onto its neighbour
        nodes[1].x, nodes[1].y = nodes[2].x, nodes[2].y
        assert nodes[1].is_convex and nodes[1] not in reflex_members(ring.reflex)
        remove_vertex(ring, nodes[0])
        update_after_cut(ring, nodes[4], nodes[1])
        assert not nodes[1].is_convex
        assert nodes[1].interior_angle == 360.0
        assert ring.reflex is not grid
        assert reflex_members(ring.reflex) == {n for n in ring if not n.is_convex} >= {nodes[1]}
        assert nodes[1].gone_at == math.inf and nodes[1].is_ear is False
        assert ring.ears is None
        for n in ring:
            assert n.stamp == ring.clock == 1
            assert n.is_ear is (None if n.is_convex else False)


    def test_member_that_turns_reflex_again_is_reflex_in_the_new_index(self):
        # C leaves the reflex set at the first cut; forged onto a coincident
        # neighbour it turns reflex again at the second, and the rebuilt
        # index must not keep its old departure, or every test would skip it
        ring = build_ring(Ring([(0, 0), (2, 0), (1.2, 0.4), (2, 2), (0, 1)]))
        a, b, c, d, e = list(ring)
        remove_vertex(ring, b)
        update_after_cut(ring, a, c)
        assert c.is_convex and c.gone_at == 1
        e.x, e.y = c.x, c.y
        remove_vertex(ring, a)
        update_after_cut(ring, e, c)
        assert not c.is_convex and c in reflex_members(ring.reflex)
        assert c.gone_at == math.inf


SELECTION = ("_select_smallest_angle", "_select_next_sequential")


def as_of(ring, grid, v, stamp):
    """``is_ear`` of ``v`` as of ``stamp`` against the index ``grid``, which
    a growing cut has since replaced."""
    live = ring.reflex
    ring.reflex = grid
    try:
        return is_ear(ring, v, stamp=stamp)
    finally:
        ring.reflex = live


class TestTrustedEarFlags:
    """Ear flags are tested on demand and trusted until the reflex set grows.

    A flag starts pending, stamped with the cut that refreshed its node, and
    only the selection resolves it, by one test as of that stamp. A cut
    changes the ear status of its two neighbours only (Eberly), which get
    new stamps. While the reflex set only loses members, a resolved flag
    stays true, so the selection does not test it again; a cut that turns a
    neighbour reflex restarts the books as the clip starts them: a new
    index, and every live node stamped with that cut and pending if convex.
    """

    def test_fresh_ring_has_not_grown(self, l_shape):
        # a fresh ring's index holds exactly its reflex nodes
        for ring in (build_ring(l_shape), bridged_ring(TOUCHING_HOLES)):
            assert reflex_members(ring.reflex) == {n for n in ring if not n.is_convex}
            assert all(n.gone_at == math.inf for n in ring)
        assert len(reflex_members(build_ring(l_shape).reflex)) == 1

    def test_growth_restarts_the_ear_flags(self, monkeypatch):
        # a traditional clip, cut by cut: every ear test is the selection
        # resolving a pending flag as of its stamp, and no cut tests. At a
        # growing cut the index is rebuilt from the live reflex nodes and
        # every live node is stamped with that cut, pending if convex. A tip
        # pending before it that its old stamp would pass, with the old
        # index, but the new reflex vertex blocks, resolves false as of the
        # restart. Every tip returned passes the from-scratch oracle, and no
        # resolution says ear where the oracle says not.
        ring = bridged_ring(TOUCHING_HOLES)
        calls = []  # (node, stamp, verdict, oracle on the ring as it is)

        def recording(ring, v, corner_twins=False, stamp=None):
            ok = is_ear(ring, v, corner_twins, stamp)
            if not corner_twins:  # the fallback's tests are its own
                assert sys._getframe(1).f_code.co_name in SELECTION
                assert stamp is not None and stamp == v.stamp, v
                calls.append((v, stamp, ok, brute_force_is_ear(ring, v)))
            return ok

        monkeypatch.setattr(earclip, "is_ear", recording)
        earclip._start_flags(ring)
        cursor = ring.head
        restarts = []
        stale = set()  # (node, restart cut)
        cuts = 0
        while ring.count > 3:
            v = _select_next_sequential(ring, cursor)
            if v is None:
                v = _select_fallback(ring)
            else:
                assert brute_force_is_ear(ring, v), (cuts, v)
            left, right = v.prev, v.next
            remove_vertex(ring, v)
            grid = ring.reflex
            pending = {n: n.stamp for n in ring if n.is_ear is None and n not in (left, right)}
            mark = len(calls)
            update_after_cut(ring, left, right)
            cuts += 1
            assert len(calls) == mark
            if ring.reflex is not grid:
                restarts.append(cuts)
                assert reflex_members(ring.reflex) == {n for n in ring if not n.is_convex}
                for n in ring:
                    assert n.stamp == cuts and n.is_ear is (None if n.is_convex else False)
                stale |= {(n, cuts) for n, t in pending.items() if as_of(ring, grid, n, t)}
            cursor = right
        assert restarts and 0 < restarts[0] < cuts
        assert calls and all(oracle or not ok for _, _, ok, oracle in calls)
        assert any((v, stamp) in stale and not ok for v, stamp, ok, _ in calls)

    def test_one_grid_filtered_by_stamp(self):
        # a traditional clip up to the growing cut: the reflex grid never
        # loses a member, and a test as of a stamp skips the members gone
        # by then; the growing cut rebuilds it from the live reflex nodes
        ring = bridged_ring(TOUCHING_HOLES)
        grid = ring.reflex
        members = reflex_members(grid)
        earclip._start_flags(ring)
        cursor = ring.head
        departures = 0
        while ring.reflex is grid:
            v = _select_next_sequential(ring, cursor) or _select_fallback(ring)
            left, right = v.prev, v.next
            pending = {n: n.stamp for n in ring if n.is_ear is None and n not in (v, left, right)}
            convex = {n for n in (left, right) if n.is_convex}
            remove_vertex(ring, v)
            update_after_cut(ring, left, right)
            cursor = right
            assert reflex_members(grid) == members
            for node in (left, right):
                if node.is_convex and node.gone_at == ring.clock:
                    # it left the reflex set at this cut; as of the cut
                    # before, it was reflex and blocks its own triangle
                    assert node in reflex_members(grid)
                    assert not is_ear(ring, node, stamp=ring.clock - 1)
                    assert is_ear(ring, node) == brute_force_is_ear(ring, node)
                    departures += 1
        assert departures > 0
        assert reflex_members(ring.reflex) == {n for n in ring if not n.is_convex}
        (joined,) = {n for n in convex if not n.is_convex}
        assert joined not in members
        assert joined in reflex_members(ring.reflex) and joined.gone_at == math.inf
        # the old grid passes, as of their stamps, tips that the new one
        # blocks; they are pending again, stamped with the growing cut
        blocked = [
            v for v, t in pending.items() if as_of(ring, grid, v, t) and not is_ear(ring, v)
        ]
        assert blocked
        for v in blocked:
            assert v.is_ear is None and v.stamp == ring.clock
            assert not brute_force_is_ear(ring, v), v

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("name", ["star2000", "comb"])
    def test_no_selection_ear_test_while_the_ring_never_grew(
        self, monkeypatch, name, algorithm
    ):
        # every ear test is the selection resolving a pending flag as of the
        # stamp its node carries, the first test for that (node, stamp); a
        # resolved flag is never tested again
        callers = Counter()
        resolved = set()
        real = earclip.is_ear

        def counting(ring, v, corner_twins=False, stamp=None):
            callers[sys._getframe(1).f_code.co_name] += 1
            assert stamp is not None and stamp == v.stamp and v.is_ear is None, v
            assert (v, stamp) not in resolved, v
            resolved.add((v, stamp))
            return real(ring, v, corner_twins, stamp)

        monkeypatch.setattr(earclip, "is_ear", counting)
        poly = large_polygon(name)
        ring = build_ring(poly.outer)
        grid = ring.reflex
        triangulate_ring(ring, algorithm)
        assert ring.reflex is grid
        select = SELECTION[algorithm == "traditional"]
        assert set(callers) == {select}
        assert callers[select] == len(resolved) > 0


def clip_against_the_eager_engine(poly, algorithm):
    """Clip ``poly`` with ``algorithm`` beside a shadow of the eager engine.

    The shadow runs the ear test against ``ring.reflex`` wherever the eager
    engine did: for every convex node when the clip starts or restarts, and
    for each convex neighbour right after any other cut. Checks that every
    flag the selection resolves equals the shadow's verdict for that node
    and stamp, that no (node, stamp) is tested twice, that a restart's index
    holds exactly the live reflex nodes, and that every tip the selection
    returns passes the from-scratch oracle on the ring as it is then, right
    before its cut; the fallback's tips are exempt. Returns the ring, the
    number of resolutions and the number of restarts.
    """
    real_is_ear = earclip.is_ear
    real_clip = pipeline._clip
    real_update = earclip.update_after_cut
    real_smallest = earclip._select_smallest_angle
    real_sequential = earclip._select_next_sequential
    real_fallback = earclip._select_fallback
    shadow = {}
    resolved = set()
    rings = []
    cut = []
    restarts = []

    def shadow_flags(ring, nodes):
        for node in nodes:
            if node.is_convex:
                assert node.stamp == ring.clock
                shadow[node, ring.clock] = real_is_ear(ring, node)

    def shadowed_clip(ring, smallest_angle, *, post_emit=None):
        rings.append(ring)
        shadow_flags(ring, ring)
        return real_clip(ring, smallest_angle, post_emit=post_emit)

    def shadowed_update(ring, left, right):
        grid = ring.reflex
        real_update(ring, left, right)
        if ring.reflex is grid:
            shadow_flags(ring, (left, right))
        else:
            restarts.append(ring.clock)
            assert reflex_members(ring.reflex) == {n for n in ring if not n.is_convex}
            shadow_flags(ring, ring)

    def resolving(ring, v, corner_twins=False, stamp=None):
        ok = real_is_ear(ring, v, corner_twins, stamp)
        if stamp is not None:
            assert sys._getframe(1).f_code.co_name in SELECTION
            assert v.is_ear is None and stamp == v.stamp, v
            assert (v, stamp) not in resolved, (v, stamp)
            resolved.add((v, stamp))
            assert ok == shadow[v, stamp], (v, stamp)
        return ok

    def checked(v, ring):
        if v is not None:
            assert brute_force_is_ear(ring, v), (len(cut), v)
            cut.append(v)
        return v

    def checked_smallest(ring):
        return checked(real_smallest(ring), ring)

    def checked_sequential(ring, start):
        return checked(real_sequential(ring, start), ring)

    def recording_fallback(ring):
        v = real_fallback(ring)
        cut.append(v)
        return v

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_clip", shadowed_clip)
        mp.setattr(earclip, "update_after_cut", shadowed_update)
        mp.setattr(earclip, "is_ear", resolving)
        mp.setattr(earclip, "_select_smallest_angle", checked_smallest)
        mp.setattr(earclip, "_select_next_sequential", checked_sequential)
        mp.setattr(earclip, "_select_fallback", recording_fallback)
        tri, degen = triangulate_polygon(poly, algorithm)
    assert len(tri.triangles) == len(degen.ring) - 2
    assert len(cut) == len(degen.ring) - 3
    return rings[0], len(resolved), len(restarts)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=3),
)
def test_resolved_flags_equal_the_eager_engine(seed, holes):
    # the exactness gate of on-demand ear tests: each resolution as of a
    # stamp gives the flag an eager test at that cut gave, so the clip, and
    # every output, is the eager engine's; and the test-time form of the
    # selection's skipped re-test: every tip clipped on the normal path is
    # an ear when cut
    poly = generate_corpus(seed, 1, (4, 60), (holes, holes))[0]
    for algorithm in ALGORITHMS:
        clip_against_the_eager_engine(poly, algorithm)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    vertex=st.integers(0, 59),
    t=st.floats(0.1, 0.9),
    k=st.integers(-40, 40),
    algorithm=st.sampled_from(ALGORITHMS),
)
# the tip's cross product is about 1.09e-12, above EPS_AREA but not above
# 2 EPS_AREA: a convex tip whose triangle the kernels must still measure
@example(seed=0, vertex=0, t=0.5, k=-6, algorithm="traditional")
def test_near_collinear_vertex_never_fails_the_report(seed, vertex, t, k, algorithm):
    # One vertex of a corpus ring moved onto the segment joining its two
    # neighbours, then k * 1e-13 off it along the normal, so the cross product
    # there lands within a few EPS_AREA of zero on either side. Every
    # triangle the clip leaves unflagged is measured by report.
    pts = list(generate_corpus(seed, 1, (5, 60))[0].outer.points)
    i = vertex % len(pts)
    a, c = pts[i - 1], pts[(i + 1) % len(pts)]
    dx, dy = c.x - a.x, c.y - a.y
    off = k * 1e-13 / math.hypot(dx, dy)
    pts[i] = P(a.x + t * dx - dy * off, a.y + t * dy + dx * off)
    try:
        tri, _ = triangulate_polygon(PolygonWithHoles(Ring(pts)), algorithm)
    except GeometryError:
        return
    report(tri)


@pytest.mark.parametrize("name", ["spiral", "comb", "square_hole", "touching_holes"])
def test_resolved_flags_equal_the_eager_engine_on_fixtures(name):
    # the fixtures, and the two-hole octagon whose ring grows mid-clip under
    # every algorithm: flags set at a restart resolve exactly
    poly = TOUCHING_HOLES if name == "touching_holes" else large_polygon(name)
    for algorithm in ALGORITHMS:
        ring, resolutions, restarts = clip_against_the_eager_engine(poly, algorithm)
        assert resolutions > 0
        assert (restarts > 0) == (name == "touching_holes")


@pytest.mark.parametrize(
    "algorithm, digest",
    [("traditional", "02aa0a8d78c54632"), ("basic", "990e29426dc3d0a7"),
     ("improved", "c8f9b6042b4717b0")],
)
def test_touching_holes_output_is_pinned(algorithm, digest):
    # the growing ring's JSON at bound 30, pinned from the engine that
    # re-tested every pick after growth instead of restarting its flags
    tri, _ = triangulate_polygon(TOUCHING_HOLES, algorithm, 30.0)
    doc = triangulation_to_json(tri, report(tri))
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest


def test_fallback_logs_one_debug_line(caplog, monkeypatch):
    # the bridged ring of this seed needs the fallback twice under basic
    poly = generate_corpus(seed=1, count=1, vertex_range=(60, 60), holes_range=(2, 2))[0]
    real = earclip._select_fallback
    picks = []

    def recording(ring):
        count = ring.count
        tip = real(ring)
        picks.append((tip.original_index, count))
        return tip

    monkeypatch.setattr(earclip, "_select_fallback", recording)
    with caplog.at_level(logging.DEBUG, logger="polytri"):
        triangulate_polygon(poly, "basic")
    lines = [
        r for r in caplog.records if r.name == "polytri" and r.funcName == "_select_fallback"
    ]
    assert len(picks) == 2 and len(lines) == len(picks)
    for record, (index, count) in zip(lines, picks):
        assert record.levelno == logging.DEBUG
        assert f"tip {index} with {count} vertices left" in record.getMessage()
    caplog.clear()
    triangulate_polygon(poly, "basic")  # the default level: no record
    assert caplog.records == []


def test_fallback_tests_tips_in_key_order_up_to_its_pick(monkeypatch):
    # the bridged ring of this seed needs the fallback twice under basic;
    # each fallback runs the ear test on the convex tips in selection-key
    # order and on none past the one it picks
    poly = generate_corpus(seed=1, count=1, vertex_range=(60, 60), holes_range=(2, 2))[0]
    real_fallback, real_is_ear = earclip._select_fallback, earclip.is_ear
    tested, runs = [], []

    def recording_is_ear(ring, v, *args, **kwargs):
        tested.append(v)
        return real_is_ear(ring, v, *args, **kwargs)

    def recording_fallback(ring):
        tips = sorted((v for v in ring if v.is_convex), key=_ear_key)
        tested.clear()
        monkeypatch.setattr(earclip, "is_ear", recording_is_ear)
        tip = real_fallback(ring)
        monkeypatch.setattr(earclip, "is_ear", real_is_ear)
        runs.append((tips, list(tested), tip))
        return tip

    monkeypatch.setattr(earclip, "_select_fallback", recording_fallback)
    triangulate_polygon(poly, "basic")
    assert len(runs) == 2
    for tips, calls, tip in runs:
        assert calls == tips[: tips.index(tip) + 1]
    assert sum(len(calls) for _, calls, _ in runs) < sum(len(tips) for tips, _, _ in runs)
