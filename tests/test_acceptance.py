"""Acceptance suite.

Each test checks one release criterion end to end at its stated tolerance
and prints a single PASS line with the measured numbers (run pytest with
``-s`` to see them inline). The shared 200-polygon corpus is deterministic,
so all figures are reproducible.
"""

import gc
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import polytri.swap as swap_mod
from polytri import (
    Ring,
    build_ring,
    eliminate_holes,
    generate_corpus,
    report,
    triangulate_polygon,
    triangulate_ring,
)
from polytri.earclip import is_ear
from polytri.geom import Point2, triangle_angles_xy
from polytri.swap import try_swap
from polytri.formats import serialize_polygon, triangulation_to_json
from conftest import (
    brute_force_is_ear,
    edge_counts,
    inside_with_tolerance,
    oracle_find_bridge,
    recorded_bridge_calls,
    outside_with_tolerance,
    polygon_area,
    quad_pair_min6,
    random_convex_quad,
    ring_adjacent_edges,
    total_vertex_count,
    triangulation_area,
)

ALGORITHMS = ("basic", "traditional", "improved")


@pytest.fixture(scope="module")
def corpus_results(corpus200):
    """Triangulate the whole corpus once per algorithm; reused by 1-3 and 8."""
    t0 = time.perf_counter()
    results = {
        alg: [triangulate_polygon(p, alg, bound=30.0) for p in corpus200]
        for alg in ALGORITHMS
    }
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_c01_triangle_count_law(corpus200, corpus_results):
    results, elapsed = corpus_results
    for alg in ALGORITHMS:
        for poly, (tri, _) in zip(corpus200, results[alg]):
            expect = total_vertex_count(poly) + 2 * len(poly.holes) - 2
            assert len(tri.triangles) == expect, (alg, expect, len(tri.triangles))
    assert elapsed < 30.0, f"triangulating 200x3 took {elapsed:.1f}s"
    print(
        f"\n[PASS] criterion 1: triangle count = vertices + 2*holes - 2 on "
        f"200 polygons x 3 algorithms ({elapsed:.1f}s)"
    )


def test_c02_area_conservation(corpus200, corpus_results):
    results, _ = corpus_results
    worst = 0.0
    for alg in ALGORITHMS:
        for poly, (tri, _) in zip(corpus200, results[alg]):
            want = polygon_area(poly)
            got = triangulation_area(tri)
            rel = abs(got - want) / abs(want)
            worst = max(worst, rel)
            assert rel <= 1e-9, (alg, want, got)
    print(f"\n[PASS] criterion 2: area conserved, worst relative error {worst:.2e}")


def test_c03_mesh_validity(corpus200, corpus_results):
    results, _ = corpus_results
    checked_simple = checked_holed = 0
    for alg in ALGORITHMS:
        for poly, (tri, _) in zip(corpus200, results[alg]):
            # edge balance by node identity, on every polygon
            counts = edge_counts(tri)
            singles = {k for k, v in counts.items() if v == 1}
            doubles = {k for k, v in counts.items() if v == 2}
            assert singles == ring_adjacent_edges(tri)
            assert len(singles) + len(doubles) == len(counts)
            # centroid containment
            outer_pts = poly.outer.points
            for t in tri.triangles:
                a, b, c = t.points()
                cen = Point2((a.x + b.x + c.x) / 3, (a.y + b.y + c.y) / 3)
                assert inside_with_tolerance(cen, outer_pts), (alg, cen)
                for hole in poly.holes:
                    assert outside_with_tolerance(cen, hole.points), (alg, cen)
            if poly.holes:
                checked_holed += 1
            else:
                checked_simple += 1
    print(
        f"\n[PASS] criterion 3: edge balance + centroid containment on "
        f"{checked_simple} simple and {checked_holed} holed runs"
    )


def test_c04_ear_test_oracle_equivalence(corpus200):
    rng = random.Random(4242)
    pool = []
    for poly in corpus200[:80]:
        degen = eliminate_holes(poly)
        ring = build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())
        pool.append(ring)
    compared = exempted = 0
    while compared < 1000:
        ring = pool[rng.randrange(len(pool))]
        nodes = list(ring)
        v = nodes[rng.randrange(len(nodes))]
        strict = is_ear(ring, v)
        relaxed = is_ear(ring, v, corner_twins=True)
        assert strict == brute_force_is_ear(ring, v), v
        assert relaxed == brute_force_is_ear(ring, v, corner_twins=True), v
        exempted += strict != relaxed
        compared += 1
    # the corner-twin exemption must actually change some verdicts here
    assert exempted > 0
    print(
        f"\n[PASS] criterion 4: is_ear equals brute-force oracle on {compared}/1000 "
        f"samples in both modes; {exempted} verdicts differ between them"
    )


def test_c05_swap_verdict_oracle(quality_corpus, monkeypatch):
    # part 1: verdict equivalence on random convex quadrilaterals
    from test_swap import quad_triangulation

    rng = random.Random(505)
    for _ in range(1000):
        p0, p1, p2, p3 = random_convex_quad(rng)
        tri, _ = quad_triangulation(p0, p1, p2, p3)
        t0, t1 = tri.triangles
        old_min = quad_pair_min6(p0, p1, p2, p3)
        alt_min = quad_pair_min6(p1, p2, p3, p0)
        swapped = try_swap(t0, t1, tri) is not None
        assert swapped == (alt_min > old_min), (p0, p1, p2, p3)

    # part 2: every swap executed during corpus runs strictly improves the
    # six-angle pair minimum (observed via a recording wrapper)
    observed = []
    original = swap_mod.try_swap

    def pair_min(t1, t2):
        return min(
            min(triangle_angles_xy(a.x, a.y, b.x, b.y, c.x, c.y))
            for a, b, c in (t1.nodes, t2.nodes)
        )

    def recording(t1, t2, tri, *measured):
        before = pair_min(t1, t2)
        out = original(t1, t2, tri, *measured)
        if out is not None:
            observed.append((before, pair_min(*out)))
        return out

    monkeypatch.setattr(swap_mod, "try_swap", recording)
    for poly in quality_corpus:
        triangulate_ring(build_ring(poly.outer), "improved", bound=30.0)
    assert observed, "corpus runs executed no swaps"
    violations = [pair for pair in observed if not pair[1] > pair[0]]
    assert not violations
    print(
        f"\n[PASS] criterion 5: 1000/1000 quad verdicts match the 12-angle "
        f"oracle; {len(observed)} corpus swaps all strictly improved the pair"
    )


def test_c06_quality_direction_basic_vs_traditional(quality_corpus):
    t0 = time.perf_counter()
    basic, traditional = [], []
    for poly in quality_corpus:
        basic.append(report(triangulate_ring(build_ring(poly.outer), "basic")).average_min_angle)
        traditional.append(
            report(triangulate_ring(build_ring(poly.outer), "traditional")).average_min_angle
        )
    elapsed = time.perf_counter() - t0
    mean_b = sum(basic) / len(basic)
    mean_t = sum(traditional) / len(traditional)
    wins = sum(1 for b, t in zip(basic, traditional) if b > t)
    assert mean_b > mean_t
    assert wins >= 0.8 * len(quality_corpus)
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 6: mean min-angle basic {mean_b:.2f} > traditional "
        f"{mean_t:.2f}, basic wins {wins}/{len(quality_corpus)} ({elapsed:.1f}s)"
    )


def test_c07_quality_direction_swapping(quality_corpus):
    avg0, avg30 = [], []
    byte_equal = 0
    for poly in quality_corpus:
        t_basic = triangulate_ring(build_ring(poly.outer), "basic")
        t0 = triangulate_ring(build_ring(poly.outer), "improved", bound=0.0)
        t30 = triangulate_ring(build_ring(poly.outer), "improved", bound=30.0)
        r_basic, r0, r30 = report(t_basic), report(t0), report(t30)
        if triangulation_to_json(t0, r0) == triangulation_to_json(t_basic, r_basic):
            byte_equal += 1
        avg0.append(r0.average_min_angle)
        avg30.append(r30.average_min_angle)
    assert byte_equal == len(quality_corpus), "bound 0 must reproduce basic exactly"
    mean0 = sum(avg0) / len(avg0)
    mean30 = sum(avg30) / len(avg30)
    improved = sum(1 for a, b in zip(avg30, avg0) if a >= b - 1e-12)
    strict = sum(1 for a, b in zip(avg30, avg0) if a > b)
    assert mean30 >= mean0
    assert improved >= 0.8 * len(quality_corpus)
    print(
        f"\n[PASS] criterion 7: mean min-angle improved(30) {mean30:.2f} >= "
        f"improved(0) {mean0:.2f}; no regression on {improved}/50 (strict gain "
        f"on {strict}); improved(0) byte-equal to basic on 50/50"
    )


def test_c08_bridge_laws(corpus200, corpus_results):
    results, _ = corpus_results
    holed = [(p, r) for p, r in zip(corpus200, results["basic"]) if p.holes]
    assert holed, "corpus contains no holed polygons"
    matched = skipped_large = 0
    for poly, (tri, degen) in holed:
        # vertex-count and area laws on the merged ring
        expect = total_vertex_count(poly) + 2 * len(poly.holes)
        assert len(degen.ring) == expect
        want_area = polygon_area(poly)
        got_area = degen.ring.signed_area()
        assert abs(got_area - want_area) <= 1e-9 * abs(want_area)
        # selection minimality against the exhaustive oracle at every merge
        _, calls = recorded_bridge_calls(poly)
        assert len(calls) == len(poly.holes)
        for h, (cpts, hpts, _, got) in enumerate(calls):
            if len(cpts) * len(hpts) > 900:
                skipped_large += 1
            else:
                want = oracle_find_bridge(Ring(cpts), Ring(hpts), poly.holes[h + 1 :])
                assert want is not None
                assert got == want
                matched += 1
    print(
        f"\n[PASS] criterion 8: vertex/area laws on {len(holed)} holed polygons; "
        f"{matched} bridge selections match the exhaustive oracle "
        f"({skipped_large} instances above 900 pairs checked for laws only)"
    )


def test_c09_quadratic_scaling():
    times = {}
    for n in (500, 1000, 2000):
        poly = generate_corpus(seed=909, count=1, vertex_range=(n, n))[0]
        best = math.inf
        for _ in range(2 if n <= 1000 else 1):
            ring = build_ring(poly.outer)
            # timed with the cyclic collector off, as timeit does: otherwise a
            # full collection of what earlier tests left alive can land in one
            # run and be timed as triangulation
            gc.disable()
            try:
                t0 = time.perf_counter()
                tri = triangulate_ring(ring, "basic")
                best = min(best, time.perf_counter() - t0)
            finally:
                gc.enable()
            assert len(tri.triangles) == n - 2
        times[n] = best
    ratio = times[2000] / times[500]
    assert times[1000] < 1.0, f"n=1000 took {times[1000]:.2f}s"
    assert ratio <= 25.0, f"time(2000)/time(500) = {ratio:.1f}"
    print(
        f"\n[PASS] criterion 9: t(500)={times[500]*1e3:.0f}ms "
        f"t(1000)={times[1000]*1e3:.0f}ms t(2000)={times[2000]*1e3:.0f}ms, "
        f"ratio {ratio:.1f} <= 25, t(1000) < 1s"
    )


def test_c10_determinism(tmp_path):
    # two cold CLI processes must emit byte-identical JSON and SVG
    poly = generate_corpus(seed=10, count=1, vertex_range=(40, 40), holes_range=(2, 2))[0]
    src = tmp_path / "p.poly"
    src.write_text(serialize_polygon(poly))
    env = dict(os.environ)
    repo = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(repo / "src") + os.pathsep + env.get("PYTHONPATH", "")

    def emit(kind):
        out = subprocess.run(
            [
                sys.executable, "-m", "polytri", "triangulate",
                "--algorithm", "improved", "--bound", "30",
                "--input", str(src), "--emit", kind,
            ],
            capture_output=True,
            env=env,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    json1, json2 = emit("json"), emit("json")
    svg1, svg2 = emit("svg"), emit("svg")
    assert json1 == json2
    assert svg1 == svg2
    doc = json.loads(json1)
    assert len(doc["triangles"]) == total_vertex_count(poly) + 2 * len(poly.holes) - 2
    print("\n[PASS] criterion 10: repeated runs emit byte-identical JSON and SVG")
