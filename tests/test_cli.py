import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from polytri import (
    GenerationFailed,
    PolygonWithHoles,
    Ring,
    generate_corpus,
    parse_polygon,
    render_svg,
    report,
    serialize_polygon,
    triangulation_to_json,
)
from polytri.pipeline import triangulate_polygon

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"
sys.path.insert(0, str(REPO / "benchmarks"))

from meshcheck import check_mesh  # noqa: E402
from conftest import FAR_SQUARE, FAR_STAR  # noqa: E402


def cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "polytri", *args],
        capture_output=True,
        cwd=cwd,
        env=env,
    )


class TestRun:
    def test_square_basic(self):
        poly = PolygonWithHoles(Ring([(0, 0), (1, 0), (1, 1), (0, 1)]))
        tri, _ = triangulate_polygon(poly, "basic")
        rep = report(tri)
        assert len(tri.triangles) == 2
        assert rep.average_min_angle == pytest.approx(45.0)

    def test_square_with_hole_any_algorithm(self):
        poly = PolygonWithHoles(
            Ring([(0, 0), (4, 0), (4, 4), (0, 4)]),
            [Ring([(1, 1), (1, 3), (3, 3), (3, 1)])],
        )
        for algorithm in ("basic", "traditional", "improved"):
            tri, _ = triangulate_polygon(poly, algorithm)
            report(tri)  # measuring the result must not fail either
            assert len(tri.triangles) == 8

    def test_unknown_algorithm(self):
        poly = PolygonWithHoles(Ring([(0, 0), (1, 0), (1, 1), (0, 1)]))
        with pytest.raises(ValueError):
            triangulate_polygon(poly, "delaunay")


class TestGenerateCorpus:
    def test_deterministic(self):
        a = generate_corpus(seed=42, count=3, vertex_range=(8, 8))
        b = generate_corpus(seed=42, count=3, vertex_range=(8, 8))
        assert [serialize_polygon(p) for p in a] == [serialize_polygon(p) for p in b]

    def test_different_seeds_differ(self):
        a = generate_corpus(seed=1, count=1, vertex_range=(8, 8))
        b = generate_corpus(seed=2, count=1, vertex_range=(8, 8))
        assert serialize_polygon(a[0]) != serialize_polygon(b[0])

    def test_generated_polygons_validate(self, small_corpus):
        from polytri.polygon import validate_polygon

        for poly in small_corpus:
            assert validate_polygon(poly) == []

    def test_vertex_range_enforced(self):
        with pytest.raises(ValueError):
            generate_corpus(seed=1, count=1, vertex_range=(2, 5))
        with pytest.raises(ValueError):
            generate_corpus(seed=1, count=0)
        # hole vertex counts below 3, or a reversed range, are refused by
        # name instead of failing inside star_ring, Ring or randint
        for bad in ((0, 0), (2, 2), (5, 3)):
            with pytest.raises(ValueError, match="hole_vertex_range"):
                generate_corpus(1, 2, (10, 10), (1, 1), bad)

    def test_generation_failed_when_hole_cannot_fit(self, monkeypatch):
        import polytri.corpus as corpus_mod

        monkeypatch.setattr(corpus_mod, "_MAX_HOLE_ATTEMPTS", 3)
        monkeypatch.setattr(corpus_mod, "_hole_fits", lambda *a, **k: False)
        with pytest.raises(GenerationFailed):
            corpus_mod.generate_corpus(seed=1, count=1, vertex_range=(8, 8), holes_range=(1, 1))


class TestCliTriangulate:
    def test_json_emit_and_exit_zero(self, tmp_path):
        out = tmp_path / "out.json"
        r = cli(
            "triangulate", "--algorithm", "basic",
            "--input", str(FIXTURES / "square_hole.poly"),
            "--output", str(out),
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads(out.read_text())
        assert len(doc["triangles"]) == 8
        assert doc["degenerate_count"] == 0

    def test_fallback_prints_nothing_at_the_default_log_level(self, tmp_path):
        # this bridged ring needs the fallback, which logs at debug level only
        poly = generate_corpus(1, 1, (60, 60), (2, 2))[0]
        src = tmp_path / "p.poly"
        src.write_text(serialize_polygon(poly))
        r = cli("triangulate", "--algorithm", "basic", "--input", str(src))
        assert r.returncode == 0
        assert r.stderr == b""
        tri, _ = triangulate_polygon(parse_polygon(src.read_text()), "basic")
        assert r.stdout.decode() == triangulation_to_json(tri, report(tri))

    def test_stats_emit(self):
        r = cli(
            "triangulate", "--algorithm", "improved", "--bound", "30",
            "--input", str(FIXTURES / "comb.poly"), "--emit", "stats",
        )
        assert r.returncode == 0
        assert b"improved(30)" in r.stdout
        assert b"average" in r.stdout

    def test_svg_emit(self, tmp_path):
        out = tmp_path / "out.svg"
        r = cli(
            "triangulate", "--algorithm", "basic",
            "--input", str(FIXTURES / "spiral.poly"),
            "--emit", "svg", "--output", str(out),
        )
        assert r.returncode == 0
        data = out.read_bytes()
        assert data.startswith(b"<svg")
        assert data.count(b"<path") == 1 + 8

    def test_emit_degenerate(self, tmp_path):
        dump = tmp_path / "degen.poly"
        r = cli(
            "triangulate", "--algorithm", "basic",
            "--input", str(FIXTURES / "square_hole.poly"),
            "--emit-degenerate", str(dump),
            "--output", str(tmp_path / "o.json"),
        )
        assert r.returncode == 0
        assert dump.read_text().startswith("ring ")
        assert len(dump.read_text().split()) == 11

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("ring 0,0 1,0\n")
        r = cli("triangulate", "--algorithm", "basic", "--input", str(bad))
        assert r.returncode == 2
        assert b"line 1" in r.stderr

    def test_non_finite_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_text("# header\nring 0,0 1,0 inf,1\n")
        r = cli("triangulate", "--algorithm", "basic", "--input", str(bad))
        assert r.returncode == 2
        assert b"line 2: non-finite" in r.stderr

    @pytest.mark.parametrize(
        "fmt, doc",
        [
            ("text", (FIXTURES / "square_hole.poly").read_bytes()),
            ("geojson", b'{"type": "Polygon", "coordinates": [[[0, 0], [4, 0], [4, 4], [0, 4]]]}'),
        ],
        ids=["text", "geojson"],
    )
    def test_byte_order_mark_input(self, tmp_path, fmt, doc):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(doc)
        marked.write_bytes(b"\xef\xbb\xbf" + doc)
        runs = [
            cli("triangulate", "--algorithm", "basic", "--format", fmt, "--input", str(f))
            for f in (plain, marked)
        ]
        assert [r.returncode for r in runs] == [0, 0], runs[1].stderr
        assert runs[1].stdout == runs[0].stdout
        assert json.loads(runs[1].stdout)["triangles"]

    def test_non_utf8_input_exit_2(self, tmp_path):
        bad = tmp_path / "bad.poly"
        bad.write_bytes(b"ring 0,0 1,0 \xff\xfe\n")
        r = cli("triangulate", "--algorithm", "basic", "--input", str(bad))
        assert r.returncode == 2
        assert r.stderr.startswith(b"polytri: parse error: ")

    def test_missing_file_exit_2(self):
        r = cli("triangulate", "--algorithm", "basic", "--input", "no-such-file.poly")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "args",
        [
            ("triangulate", "--algorithm", "basic", "--input", "{poly}", "--output", "{bad}"),
            ("triangulate", "--algorithm", "basic", "--input", "{poly}",
             "--emit-degenerate", "{bad}", "--output", "{tmp}/o.json"),
            ("gen-corpus", "--count", "1", "--out-dir", "{bad}"),
        ],
    )
    def test_unwritable_output_exit_2(self, args, tmp_path):
        # a path below a regular file can be neither created nor written
        (tmp_path / "file").write_text("")
        paths = {"poly": FIXTURES / "square_hole.poly", "tmp": tmp_path,
                 "bad": tmp_path / "file" / "out"}
        r = cli(*(a.format(**paths) for a in args))
        err = r.stderr.decode()
        assert r.returncode == 2, err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1
        assert err.startswith("polytri: ") and str(paths["bad"]) in err

    def test_geometry_error_exit_3(self, tmp_path):
        bad = tmp_path / "badgeom.poly"
        # valid syntax, invalid geometry: hole sticking out of the outer ring
        bad.write_text("ring 0,0 4,0 4,4 0,4\nring 3,3 3,5 5,5 5,3\n")
        r = cli("triangulate", "--algorithm", "basic", "--validate", "--input", str(bad))
        assert r.returncode == 3
        assert b"invalid polygon" in r.stderr

    @pytest.mark.parametrize(
        "text",
        ["ring 0,0 10,0 10,10 5,6 0,10\nring 5,6 4,3 6,3\n",
         "ring 0,0 10,0 10,10 0,10\nring 0,0 3,1 1,3\n"],
    )
    def test_hole_touching_the_outer_ring_exit_3(self, tmp_path, capsys, text):
        # a hole sharing a vertex with the outer ring; meshed anyway, it gets
        # a clockwise triangle from every algorithm
        import polytri.cli

        src = tmp_path / "touch.poly"
        src.write_text(text)
        out = tmp_path / "o.json"
        args = ["triangulate", "--algorithm", "basic", "--validate", "--input", str(src),
                "--output", str(out)]
        assert polytri.cli.main(args) == 3
        err = capsys.readouterr().err
        assert err == "polytri: invalid polygon: hole 0 touches the outer ring at a vertex\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, problem",
        [("ring 0,0 4,0 2,2 4,4 0,4 2,2\n", "outer ring revisits a vertex"),
         ("ring 0,0 10,0 10,10 0,10\nring 2,2 5,5 8,2 8,8 5,5 2,8\n", "hole 0 revisits a vertex")],
    )
    def test_ring_revisiting_a_vertex_exit_3(self, tmp_path, capsys, text, problem):
        import polytri.cli

        src = tmp_path / "pinched.poly"
        src.write_text(text)
        out = tmp_path / "o.json"
        args = ["triangulate", "--algorithm", "basic", "--validate", "--input", str(src),
                "--output", str(out)]
        assert polytri.cli.main(args) == 3
        assert capsys.readouterr().err == f"polytri: invalid polygon: {problem}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        # a figure-8, which basic clips down to the clockwise triangle
        # (0, 1, 3) when not validated; and a ring whose sixth vertex lies 2 EPS_LEN
        # right of its third, so two pairs of its edges cross
        ["ring 0,0 4,0 4,4 2,-1 0,4\n", "ring 0,0 4,0 2,2 4,4 0,4 2.000000002,2\n"],
    )
    def test_ring_crossing_itself_exit_3(self, tmp_path, capsys, text):
        import polytri.cli

        src = tmp_path / "crossed.poly"
        src.write_text(text)
        out = tmp_path / "o.json"
        args = ["triangulate", "--algorithm", "basic", "--validate", "--input", str(src),
                "--output", str(out)]
        assert polytri.cli.main(args) == 3
        assert capsys.readouterr().err == "polytri: invalid polygon: outer ring crosses itself\n"
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["traditional", "basic", "improved"])
    @pytest.mark.parametrize(
        "text",
        ["ring 0,0 10,10 10,0 0,4\n", "ring 0,0 10,0 10,10 5,-2 0,10 2,5\n",
         "ring 0,10 6,-8 -9.5,3 9.5,3 -6,-8\n"],
    )
    def test_clockwise_last_triangle_exit_3(self, tmp_path, capsys, text, algorithm):
        # self-crossing rings, not validated: each clip ends in a clockwise
        # triangle, which is refused rather than written as part of a mesh
        import polytri.cli

        src = tmp_path / "crossed.poly"
        src.write_text(text)
        out = tmp_path / "o.json"
        args = ["triangulate", "--algorithm", algorithm, "--input", str(src),
                "--output", str(out)]
        assert polytri.cli.main(args) == 3
        assert capsys.readouterr().err.startswith("polytri: geometry error: no ear found")
        assert not out.exists()

    @pytest.mark.parametrize("poly", [FAR_SQUARE, FAR_STAR], ids=["square", "star"])
    def test_area_outside_the_float_range_exit_2(self, tmp_path, poly):
        # rejected by normalize at parse time, like every other ring it
        # refuses, instead of an uncaught OverflowError
        src = tmp_path / "far.poly"
        src.write_text(serialize_polygon(poly))
        r = cli("triangulate", "--algorithm", "basic", "--input", str(src))
        err = r.stderr.decode()
        assert r.returncode == 2, err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert err.startswith("polytri: parse error: ") and "overflows the float range" in err

    @pytest.mark.parametrize("algorithm", ["traditional", "basic", "improved"])
    def test_sliver_ear_exit_0(self, tmp_path, algorithm):
        # the ear at (0.5, -1.5e-12) has a cross product of 1.5e-12 at its
        # tip, above EPS_AREA, so it is clipped and measured as a proper
        # triangle; the whole mesh passes the benchmark's mesh check
        import polytri.cli

        text = "ring 0.5,-1.5e-12 1,0 1,1 0.5,3 0,1 0,0\n"
        src = tmp_path / "sliver.poly"
        src.write_text(text)
        out = tmp_path / "o.json"
        args = ["triangulate", "--algorithm", algorithm, "--input", str(src),
                "--output", str(out)]
        assert polytri.cli.main(args) == 0
        doc = json.loads(out.read_text())
        assert len(doc["triangles"]) == 4 and doc["degenerate_count"] == 0
        poly = parse_polygon(text)
        tri, _ = triangulate_polygon(poly, algorithm)
        assert check_mesh(tri, poly) == []
        assert report(tri).triangle_count == 4

    def test_usage_error_exit_4(self):
        r = cli("triangulate", "--algorithm", "nonsense", "--input", "x.poly")
        assert r.returncode == 4

    @pytest.mark.parametrize(
        "args",
        [
            ("triangulate", "--algorithm", "improved", "--bound", "-5", "--input", "{poly}"),
            ("triangulate", "--algorithm", "improved", "--bound", "nan", "--input", "{poly}"),
            ("triangulate", "--algorithm", "improved", "--bound", "abc", "--input", "{poly}"),
            ("triangulate", "--algorithm", "basic", "--bound", "-1", "--input", "{poly}"),
            ("bench", "--corpus", "{corpus}", "--bounds", "abc"),
            ("bench", "--corpus", "{corpus}", "--bounds", "-1"),
            ("bench", "--corpus", "{corpus}", "--bounds", "30,nan"),
            ("bench", "--corpus", "{corpus}", "--algorithms", ","),
            ("bench", "--corpus", "{corpus}", "--algorithms", "improved", "--bounds", ","),
            ("gen-corpus", "--count", "0", "--out-dir", "{tmp}/out/sub"),
            ("gen-corpus", "--count", "1", "--vertices", "2..3", "--out-dir", "{tmp}/out/sub"),
            ("gen-corpus", "--count", "1", "--vertices", "10..5", "--out-dir", "{tmp}/out/sub"),
            ("gen-corpus", "--count", "2", "--holes=-2..-1", "--out-dir", "{tmp}/out/sub"),
            ("gen-corpus", "--count", "2", "--holes", "2..1", "--out-dir", "{tmp}/out/sub"),
        ],
    )
    def test_out_of_range_value_exit_4(self, args, tmp_path):
        paths = {"poly": FIXTURES / "square_hole.poly", "corpus": FIXTURES, "tmp": tmp_path}
        r = cli(*(a.format(**paths) for a in args))
        err = r.stderr.decode()
        assert r.returncode == 4, err
        assert "Traceback" not in err
        assert err.startswith("polytri: error: ")
        assert len(err.splitlines()) == 1
        if "," in args:  # an empty list: the message names its option
            assert err.startswith(f"polytri: error: {args[args.index(',') - 1]} ")
        for option in ("--bound", "--bounds"):
            if option in args:  # a bad bound: the message names its option
                assert err.startswith(f"polytri: error: {option} "), err
        if any(a.startswith("--holes") for a in args):
            assert "holes_range" in err
        assert not (tmp_path / "out").exists()  # a rejected gen-corpus creates no directory

    def test_validate_and_svg_do_not_renormalize(self, monkeypatch, tmp_path):
        import polytri.cli
        import polytri.polygon

        calls = []
        original = polytri.polygon.normalize

        def counting(poly):
            calls.append(poly)
            return original(poly)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("polytri") and getattr(module, "normalize", None) is original:
                monkeypatch.setattr(module, "normalize", counting)
        src = FIXTURES / "square_hole.poly"
        base = ["triangulate", "--algorithm", "basic", "--input", str(src)]
        assert polytri.cli.main([*base, "--output", str(tmp_path / "o.json")]) == 0
        plain = len(calls)
        calls.clear()
        svg = tmp_path / "o.svg"
        assert polytri.cli.main([*base, "--validate", "--emit", "svg", "--output", str(svg)]) == 0
        assert len(calls) <= plain
        poly = parse_polygon(src.read_text())
        tri, _ = triangulate_polygon(poly, "basic")
        assert svg.read_bytes() == render_svg(original(poly), tri)

    def test_triangulate_normalizes_once(self, monkeypatch, tmp_path):
        # parse_polygon normalizes, and triangulate_polygon's normalize
        # returns the parsed polygon as it is: each of the two rings is
        # deduplicated once
        import polytri.cli
        import polytri.polygon

        deduped = []
        dedupe = polytri.polygon._dedupe

        def counting(points):
            deduped.append(points)
            return dedupe(points)

        monkeypatch.setattr(polytri.polygon, "_dedupe", counting)
        src = FIXTURES / "square_hole.poly"
        out = tmp_path / "o.json"
        args = ["triangulate", "--algorithm", "improved", "--input", str(src), "--output", str(out)]
        assert polytri.cli.main(args) == 0
        assert len(deduped) == 2
        # the same mesh as from the file's rings normalized afresh
        poly = PolygonWithHoles(
            Ring([(0, 0), (4, 0), (4, 4), (0, 4)]), [Ring([(1, 1), (1, 3), (3, 3), (3, 1)])]
        )
        tri, _ = triangulate_polygon(poly, "improved")
        assert len(deduped) == 4
        assert out.read_text() == triangulation_to_json(tri, report(tri))

    def test_repeated_in_process_calls_share_no_state(self, tmp_path):
        import polytri.cli

        src = str(FIXTURES / "comb.poly")
        with pytest.raises(SystemExit) as exc:
            polytri.cli.main(
                ["triangulate", "--algorithm", "nonsense", "--bound", "5", "--input", src]
            )
        assert exc.value.code == 4
        runs = [
            ("triangulate", "--algorithm", "improved", "--bound", "10", "--input", src),
            ("triangulate", "--algorithm", "improved", "--input", src),
        ]
        outputs = []
        for k, args in enumerate(runs):
            out = tmp_path / f"{k}.json"
            assert polytri.cli.main([*args, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] != outputs[1]  # the bound changes this mesh, so a leaked --bound shows
        assert outputs == [cli(*args).stdout for args in runs]

    def test_geojson_input(self, tmp_path):
        doc = {
            "type": "Polygon",
            "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
        }
        f = tmp_path / "p.geojson"
        f.write_text(json.dumps(doc))
        r = cli(
            "triangulate", "--algorithm", "basic", "--format", "geojson",
            "--input", str(f),
        )
        assert r.returncode == 0
        assert len(json.loads(r.stdout)["triangles"]) == 2

    def test_geojson_object_positions_exit_2(self, tmp_path):
        f = tmp_path / "p.geojson"
        f.write_text('{"type": "Polygon", "coordinates": [[{"a":1},{"a":2},{"a":3}]]}')
        r = cli("triangulate", "--algorithm", "basic", "--format", "geojson", "--input", str(f))
        assert r.returncode == 2
        assert r.stderr.decode() == "polytri: parse error: ring 0: malformed coordinates\n"

    def test_determinism_byte_identical(self, tmp_path):
        args = (
            "triangulate", "--algorithm", "improved", "--bound", "30",
            "--input", str(FIXTURES / "square_hole.poly"),
        )
        r1, r2 = cli(*args), cli(*args)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout


class TestCliCorpusAndBench:
    def test_gen_corpus_and_bench(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        r = cli(
            "gen-corpus", "--seed", "5", "--count", "6",
            "--vertices", "8..24", "--holes", "0..1",
            "--out-dir", str(corpus_dir),
        )
        assert r.returncode == 0, r.stderr
        files = sorted(corpus_dir.glob("*.poly"))
        assert len(files) == 6
        r = cli(
            "bench", "--corpus", str(corpus_dir),
            "--algorithms", "basic,traditional,improved",
            "--bounds", "0,30", "--report", "csv",
        )
        assert r.returncode == 0, r.stderr
        lines = r.stdout.decode().splitlines()
        assert lines[0].startswith("algorithm,")
        labels = [l.split(",")[0] for l in lines[1:]]
        assert labels == ["basic", "traditional", "improved(0)", "improved(30)"]

    def test_gen_corpus_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            r = cli("gen-corpus", "--seed", "11", "--count", "3",
                    "--vertices", "10..10", "--out-dir", str(d))
            assert r.returncode == 0
        for f1, f2 in zip(sorted(d1.glob("*.poly")), sorted(d2.glob("*.poly"))):
            assert f1.read_bytes() == f2.read_bytes()

    def test_bench_md_report(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        cli("gen-corpus", "--seed", "5", "--count", "2", "--vertices", "8..10",
            "--out-dir", str(corpus_dir))
        r = cli("bench", "--corpus", str(corpus_dir), "--algorithms", "basic",
                "--report", "md")
        assert r.returncode == 0
        assert r.stdout.decode().startswith("| algorithm")

    def test_bench_empty_dir_exit_2(self, tmp_path):
        r = cli("bench", "--corpus", str(tmp_path))
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("ring 0,0 4,0 1,zap\n", 2, "parse error: {f}: line 1: bad coordinate in '1,zap'"),
            # two identical holes leave no ear: a geometry error
            ("ring 0,0 4,0 4,4 0,4\n" + "ring 1,1 1,3 3,3 3,1\n" * 2, 3,
             "geometry error: {f}: no ear found"),
        ],
        ids=["parse", "geometry"],
    )
    def test_bench_names_the_failing_file(self, tmp_path, text, code, message):
        (tmp_path / "a.poly").write_text("ring 0,0 4,0 4,4 0,4\n")
        bad = tmp_path / "b.poly"
        bad.write_text(text)
        r = cli("bench", "--corpus", str(tmp_path))
        assert r.returncode == code
        assert r.stderr.decode().startswith("polytri: " + message.format(f=bad))

    def test_bench_names_a_file_that_is_not_utf8(self, tmp_path):
        (tmp_path / "a.poly").write_text("ring 0,0 4,0 4,4 0,4\n")
        bad = tmp_path / "b.poly"
        bad.write_bytes(b"ring 0,0 4,0 \xff,4 0,4\n")
        r = cli("bench", "--corpus", str(tmp_path))
        assert r.returncode == 2
        assert r.stderr.decode().startswith(f"polytri: parse error: {bad}: 'utf-8' codec")

    def test_bench_unknown_algorithm_exit_4(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        cli("gen-corpus", "--seed", "5", "--count", "1", "--vertices", "8..8",
            "--out-dir", str(corpus_dir))
        r = cli("bench", "--corpus", str(corpus_dir), "--algorithms", "voronoi")
        assert r.returncode == 4
        assert r.stderr.decode().startswith("polytri: error:")
