"""Corpus-level quality comparison and scaling check.

Pools per-triangle minimum angles over a 50-polygon random corpus for each
algorithm configuration and prints the four-bin histogram table. The
directional story is stable across seeds: smallest-angle selection beats
the traditional scan order by a wide margin, and edge swapping with a 30
degree bound adds a further improvement that barely moves when the bound
is raised to 60.

The second half times the basic algorithm at growing sizes; the measured
growth stays comfortably inside the expected quadratic envelope.

    python demos/04_quality_benchmark.py
"""

import time

from polytri import (
    build_ring,
    compare,
    generate_corpus,
    pooled,
    report,
    triangulate_ring,
)


def main() -> None:
    corpus = generate_corpus(seed=1234, count=50, vertex_range=(20, 100))
    print(f"corpus: 50 star polygons, 20..100 vertices, seed 1234\n")

    configs = [
        ("traditional", "traditional", 30.0),
        ("basic", "basic", 30.0),
        ("improved(30)", "improved", 30.0),
        ("improved(60)", "improved", 60.0),
    ]
    rows = []
    for label, algorithm, bound in configs:
        reports = [report(triangulate_ring(build_ring(p.outer), algorithm, bound)) for p in corpus]
        rows.append((label, pooled(reports)))
    print(compare(rows))

    print("scaling of the basic algorithm on random simple polygons:")
    prev = None
    for n in (250, 500, 1000, 2000):
        poly = generate_corpus(seed=909, count=1, vertex_range=(n, n))[0]
        ring = build_ring(poly.outer)
        t0 = time.perf_counter()
        triangulate_ring(ring, "basic")
        dt = time.perf_counter() - t0
        growth = f"  ({dt / prev:.1f}x over previous)" if prev else ""
        print(f"  n={n:5d}: {dt * 1e3:7.1f} ms{growth}")
        prev = dt


if __name__ == "__main__":
    main()
