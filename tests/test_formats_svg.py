import json

import pytest

from polytri import (
    ParseError,
    PolygonWithHoles,
    Ring,
    eliminate_holes,
    normalize,
    parse_polygon,
    render_svg,
    report,
    serialize_polygon,
    triangulate_polygon,
    triangulation_to_json,
)
from polytri.formats import triangulation_to_obj
from conftest import inside_with_tolerance, outside_with_tolerance


class TestParseText:
    def test_unit_square(self):
        poly = parse_polygon("ring 0,0 1,0 1,1 0,1\n")
        assert len(poly.outer) == 4
        assert poly.holes == ()
        assert poly.outer.signed_area() == pytest.approx(1.0)

    def test_two_rings_hole_reoriented(self):
        text = "ring 0,0 4,0 4,4 0,4\nring 1,1 3,1 3,3 1,3\n"  # hole given CCW
        poly = parse_polygon(text)
        assert len(poly.holes) == 1
        assert poly.holes[0].signed_area() < 0

    def test_short_ring_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_polygon("ring 0,0 1,0 1,1 0,1\nring 0,0 1,0\n")
        assert exc.value.line == 2

    def test_bad_token_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_polygon("ring 0,0 1,zap 1,1\n")
        assert exc.value.line == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_polygon("ring 0,0 1,0 nan,1\n")
        assert exc.value.line == 1

    def test_comments_and_blank_lines(self):
        poly = parse_polygon("# fixture\n\nring 0,0 1,0 1,1 0,1\n")
        assert len(poly.outer) == 4

    def test_missing_ring_keyword(self):
        with pytest.raises(ParseError):
            parse_polygon("poly 0,0 1,0 1,1\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_polygon("\n# nothing\n")

    def test_zero_area_ring_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_polygon("ring 0,0 1,0 2,0\n")


class TestParseGeoJSON:
    def test_polygon_with_hole(self):
        doc = {
            "type": "Polygon",
            "coordinates": [
                [[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]],
                [[1, 1], [3, 1], [3, 3], [1, 3], [1, 1]],
            ],
        }
        poly = parse_polygon(json.dumps(doc), fmt="geojson")
        assert len(poly.outer) == 4
        assert len(poly.holes) == 1
        assert poly.holes[0].signed_area() < 0

    def test_feature_wrapper(self):
        doc = {
            "type": "Feature",
            "properties": {},
            "geometry": {
                "type": "Polygon",
                "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
            },
        }
        poly = parse_polygon(json.dumps(doc), fmt="geojson")
        assert len(poly.outer) == 4

    def test_wrong_type(self):
        with pytest.raises(ParseError):
            parse_polygon('{"type": "LineString", "coordinates": []}', fmt="geojson")

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            parse_polygon("{nope", fmt="geojson")

    def test_non_finite_rejected(self):
        # Python's json module reads the non-standard Infinity and NaN tokens
        for bad in ("Infinity", "NaN"):
            text = (
                '{"type": "Polygon", "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 4]],'
                f" [[1, 1], [3, 1], [3, {bad}], [1, 3]]]}}"
            )
            with pytest.raises(ParseError, match="ring 1: non-finite"):
                parse_polygon(text, fmt="geojson")

    @pytest.mark.parametrize(
        "ring",
        [
            [{"a": 1}, {"a": 2}, {"a": 3}],  # objects, not arrays
            ["00", "40", "44", "04"],  # strings would be indexed by character
            [[0, 0], [4, 0], [True, True], [0, 4]],  # json true is not the number 1
        ],
    )
    def test_positions_must_be_arrays_of_numbers(self, ring):
        doc = {"type": "Polygon", "coordinates": [ring]}
        with pytest.raises(ParseError, match="^ring 0: malformed coordinates$"):
            parse_polygon(json.dumps(doc), fmt="geojson")

    def test_integer_too_large_for_a_float_rejected(self):
        text = '{"type": "Polygon", "coordinates": [[[0, 0], [1%s, 0], [0, 4]]]}' % ("0" * 400)
        with pytest.raises(ParseError, match="^ring 0: "):
            parse_polygon(text, fmt="geojson")

    def test_short_ring_reports_ring(self):
        # three positions, of which the last only closes the ring
        doc = {"type": "Polygon", "coordinates": [[[0, 0], [1, 1], [0, 0]]]}
        with pytest.raises(ParseError) as exc:
            parse_polygon(json.dumps(doc), fmt="geojson")
        assert str(exc.value).startswith("ring 0:")


class TestRoundTrip:
    def test_corpus_round_trip(self, small_corpus):
        for poly in small_corpus:
            again = parse_polygon(serialize_polygon(poly))
            assert again == poly

    def test_bytes_input(self):
        poly = parse_polygon(b"ring 0,0 1,0 1,1 0,1\n")
        assert len(poly.outer) == 4

    @pytest.mark.parametrize(
        "fmt, doc",
        [
            ("text", "ring 0,0 4,0 4,4 0,4\nring 1,1 1,3 3,3 3,1\n"),
            ("geojson", '{"type": "Polygon", "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 4]]]}'),
        ],
        ids=["text", "geojson"],
    )
    def test_leading_byte_order_mark_dropped(self, fmt, doc):
        want = parse_polygon(doc, fmt=fmt)
        assert parse_polygon("\ufeff" + doc, fmt=fmt) == want
        assert parse_polygon(b"\xef\xbb\xbf" + doc.encode(), fmt=fmt) == want
        # only one mark is a byte-order mark; a second is content
        with pytest.raises(ParseError):
            parse_polygon("\ufeff\ufeff" + doc, fmt=fmt)


class TestJsonOutput:
    def test_schema_and_indices(self, small_corpus):
        poly = small_corpus[0]
        tri, _ = triangulate_polygon(poly, "basic")
        doc = json.loads(triangulation_to_json(tri, report(tri)))
        assert set(doc) == {"vertices", "triangles", "stats", "degenerate_count"}
        assert set(doc["stats"]) == {"bins", "average", "count"}
        nv = len(doc["vertices"])
        used = set()
        for t in doc["triangles"]:
            assert len(t) == 3
            for i in t:
                assert 0 <= i < nv
                used.add(i)
        if not poly.holes:
            assert used == set(range(nv))

    def test_deterministic_bytes(self, small_corpus):
        poly = small_corpus[1]
        tri1, _ = triangulate_polygon(poly, "improved", bound=30.0)
        tri2, _ = triangulate_polygon(poly, "improved", bound=30.0)
        assert triangulation_to_json(tri1, report(tri1)) == triangulation_to_json(
            tri2, report(tri2)
        )

    def test_obj_output(self, unit_square):
        tri, _ = triangulate_polygon(PolygonWithHoles(unit_square), "basic")
        obj = triangulation_to_obj(tri)
        lines = obj.splitlines()
        assert sum(1 for l in lines if l.startswith("v ")) == 4
        faces = [l for l in lines if l.startswith("f ")]
        assert len(faces) == 2
        assert all(all(int(i) >= 1 for i in f.split()[1:]) for f in faces)

    def test_degenerate_ring_dump(self):
        poly = normalize(
            PolygonWithHoles(
                Ring([(0, 0), (4, 0), (4, 4), (0, 4)]),
                [Ring([(1, 1), (1, 3), (3, 3), (3, 1)])],
            )
        )
        degen = eliminate_holes(poly)
        dump = serialize_polygon(PolygonWithHoles(degen.ring))
        assert parse_polygon(dump).outer == degen.ring


class TestRenderSvg:
    def test_square_path_count(self, unit_square):
        poly = PolygonWithHoles(unit_square)
        tri, _ = triangulate_polygon(poly, "basic")
        svg = render_svg(normalize(poly), tri).decode()
        assert svg.count("<path") == 3  # 1 outline + 2 triangles
        assert 'viewBox="' in svg
        assert "evenodd" in svg

    def test_hole_rendered_and_respected(self):
        poly = normalize(
            PolygonWithHoles(
                Ring([(0, 0), (4, 0), (4, 4), (0, 4)]),
                [Ring([(1, 1), (1, 3), (3, 3), (3, 1)])],
            )
        )
        tri, _ = triangulate_polygon(poly, "basic")
        svg = render_svg(poly, tri).decode()
        assert svg.count("<path") == 1 + len(tri.triangles)
        # no triangle centroid may fall strictly inside the hole
        for t in tri.triangles:
            a, b, c = t.points()
            cen = ((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3)
            assert outside_with_tolerance(cen, poly.holes[0].points)
            assert inside_with_tolerance(cen, poly.outer.points)

    def test_deterministic_bytes(self, small_corpus):
        poly = small_corpus[2]
        tri1, _ = triangulate_polygon(poly, "basic")
        tri2, _ = triangulate_polygon(poly, "basic")
        assert render_svg(poly, tri1) == render_svg(poly, tri2)

    def test_viewbox_has_margin(self, unit_square):
        poly = PolygonWithHoles(unit_square)
        tri, _ = triangulate_polygon(poly, "basic")
        svg = render_svg(normalize(poly), tri).decode()
        vb = svg.split('viewBox="')[1].split('"')[0]
        x, y, w, h = (float(v) for v in vb.split())
        assert x == pytest.approx(-0.05)
        assert w == pytest.approx(1.1)
        assert h == pytest.approx(1.1)
