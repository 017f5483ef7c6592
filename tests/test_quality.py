import math

import pytest

from polytri import (
    DegenerateTriangle,
    EmptyInput,
    build_ring,
    compare,
    pooled,
    report,
    triangulate_polygon,
    triangulate_ring,
)
from polytri.earclip import Triangulation
from polytri.geom import EPS_AREA, Point2, triangle_angles_xy
from polytri.polygon import VertexNode
from polytri.quality import QualityReport, min_angles
from polytri.swap import try_swap
from conftest import triangle_angles

P = Point2


def single_triangle(a, b, c):
    nodes = [VertexNode(p.x, p.y, i, i) for i, p in enumerate((a, b, c))]
    tri = Triangulation((a, b, c))
    tri.add_triangle(*nodes)
    return tri


def triangles(*pts_triples):
    table = tuple(p for triple in pts_triples for p in triple)
    tri = Triangulation(table)
    i = 0
    for a, b, c in pts_triples:
        nodes = [VertexNode(p.x, p.y, i + k, i + k) for k, p in enumerate((a, b, c))]
        tri.add_triangle(*nodes)
        i += 3
    return tri


class TestReport:
    def test_equilateral(self):
        tri = single_triangle(P(0, 0), P(1, 0), P(0.5, math.sqrt(3) / 2))
        rep = report(tri)
        assert rep.bin_fractions == pytest.approx((0, 0, 0, 1))
        assert rep.average_min_angle == pytest.approx(60.0)
        assert rep.triangle_count == 1

    def test_right_isoceles_boundary_bin(self):
        # a 45 degree minimum falls in the closed top bin [45,60]
        rep = report(single_triangle(P(0, 0), P(1, 0), P(0, 1)))
        assert rep.bin_fractions == pytest.approx((0, 0, 0, 1))
        assert rep.average_min_angle == pytest.approx(45.0)

    def test_two_triangle_average(self):
        def sliver(min_deg):
            # isoceles with apex angle min_deg at origin
            half = math.radians(min_deg) / 2
            return (
                P(0, 0),
                P(math.cos(half), -math.sin(half)),
                P(math.cos(half), math.sin(half)),
            )

        tri = triangles(sliver(10.0), sliver(50.0))
        rep = report(tri)
        assert rep.bin_fractions == pytest.approx((0.5, 0, 0, 0.5))
        assert rep.average_min_angle == pytest.approx(30.0)

    def test_degenerate_excluded_but_counted(self):
        a, b, c = P(0, 0), P(1, 0), P(0.5, math.sqrt(3) / 2)
        tri = single_triangle(a, b, c)
        nodes = [VertexNode(p.x, p.y, i, i) for i, p in enumerate((P(0, 0), P(1, 0), P(2, 0)))]
        tri.add_triangle(*nodes, degenerate=True)
        rep = report(tri)
        assert rep.triangle_count == 1
        assert rep.excluded_degenerate == 1
        assert rep.average_min_angle == pytest.approx(60.0)

    def test_empty_raises(self):
        tri = Triangulation(())
        with pytest.raises(EmptyInput):
            report(tri)

    def test_average_matches_independent_mean(self, small_corpus):
        for poly in small_corpus[:10]:
            tri = triangulate_ring(build_ring(poly.outer), "basic")
            rep = report(tri)
            angles = min_angles(tri)
            assert all(0.0 < a <= 60.0 + 1e-9 for a in angles)
            assert rep.average_min_angle == pytest.approx(
                sum(angles) / len(angles), abs=1e-9
            )
            assert math.fsum(rep.bin_fractions) == pytest.approx(1.0, abs=1e-12)


def corner_angles_reference(a, b, c):
    """The angle formula as written before the six-float form: one corner
    closure over points, applied at a, b and c."""

    def corner(v, p, q):
        ux, uy = p[0] - v[0], p[1] - v[1]
        wx, wy = q[0] - v[0], q[1] - v[1]
        return math.degrees(math.atan2(abs(ux * wy - uy * wx), ux * wx + uy * wy))

    return corner(a, b, c), corner(b, c, a), corner(c, a, b)


class TestExactAngles:
    """Node coordinates and points give bit-identical angles (``==``, not approx)."""

    @pytest.mark.parametrize("algorithm", ["traditional", "basic", "improved"])
    def test_every_corpus_triangle(self, small_corpus, algorithm):
        for poly in small_corpus:
            tri, _ = triangulate_polygon(poly, algorithm)
            want = []
            for t in tri.triangles:
                if t.degenerate:
                    continue
                pts = t.points()
                a, b, c = t.nodes
                angles = triangle_angles_xy(a.x, a.y, b.x, b.y, c.x, c.y)
                assert angles == triangle_angles(*pts) == corner_angles_reference(*pts)
                want.append(min(angles))
            assert min_angles(tri) == want

    def test_sliver_at_the_area_tolerance_is_still_degenerate(self):
        # twice the area is exactly EPS_AREA: not flagged degenerate, but
        # not above the tolerance either
        p0, p1, p2, p3 = P(0, 0), P(0.5, -EPS_AREA), P(1, 0), P(0.5, 1)
        nodes = [VertexNode(p.x, p.y, i, i) for i, p in enumerate((p0, p1, p2, p3))]
        tri = Triangulation((p0, p1, p2, p3))
        tri.add_triangle(nodes[0], nodes[1], nodes[2])
        tri.add_triangle(nodes[0], nodes[2], nodes[3])
        sliver, other = tri.triangles
        assert not sliver.degenerate
        with pytest.raises(DegenerateTriangle):
            report(tri)
        # the quad is strictly convex, so only the angle test can refuse
        assert try_swap(sliver, other, tri) is None
        assert (sliver.indices(), other.indices()) == ((0, 1, 2), (0, 2, 3))


class TestPooled:
    def test_matches_concatenation(self):
        t1 = single_triangle(P(0, 0), P(1, 0), P(0.5, math.sqrt(3) / 2))
        t2 = single_triangle(P(0, 0), P(1, 0), P(0, 1))
        r1, r2 = report(t1), report(t2)
        both = pooled([r1, r2])
        assert both.triangle_count == 2
        assert both.average_min_angle == pytest.approx((60.0 + 45.0) / 2)
        assert both.bin_fractions == pytest.approx((0, 0, 0, 1))

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            pooled([])


class TestCompare:
    def test_single_equilateral_row(self):
        rep = report(single_triangle(P(0, 0), P(1, 0), P(0.5, math.sqrt(3) / 2)))
        text = compare([("equilateral", rep)])
        squashed = " ".join(text.split())
        assert "0.00% 0.00% 0.00% 100.00% 60.00" in squashed

    def test_two_rows_render_both_labels(self):
        rep = report(single_triangle(P(0, 0), P(1, 0), P(0, 1)))
        text = compare([("first", rep), ("second", rep)])
        assert "first" in text and "second" in text

    def test_percentages_sum_to_100(self, small_corpus):
        tri = triangulate_ring(build_ring(small_corpus[0].outer), "basic")
        rep = report(tri)
        text = compare([("x", rep)])
        row = text.splitlines()[1]
        pcts = [float(tok.rstrip("%")) for tok in row.split() if tok.endswith("%")]
        assert sum(pcts) == pytest.approx(100.0, abs=0.03)

    def test_csv_and_md(self):
        rep = QualityReport((0.25, 0.25, 0.25, 0.25), 30.0, 4)
        csv = compare([("algo", rep)], fmt="csv")
        assert csv.splitlines()[0].startswith("algorithm,")
        assert "25.00,25.00,25.00,25.00,30.00,4" in csv
        md = compare([("algo", rep)], fmt="md")
        assert md.startswith("| algorithm")
        with pytest.raises(ValueError):
            compare([("algo", rep)], fmt="html")
