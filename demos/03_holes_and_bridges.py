"""Turning a polygon with holes into one clippable ring.

Ear clipping needs a single boundary, so each hole is joined to it with a
bridge: the shortest segment between a boundary vertex and a hole vertex
that does not touch anything else. The bridge is walked down and back up,
so its two endpoints appear twice and the result is a single
counter-clockwise ring with zero-width slits, ready for any of the
clipping algorithms.

The script prints each chosen bridge and verifies the two bookkeeping laws
on the way: merging a hole with n vertices adds n + 2 ring positions, and
the enclosed area drops by exactly the hole area.

    python demos/03_holes_and_bridges.py
"""

from pathlib import Path

from polytri import (
    PolygonWithHoles,
    Ring,
    build_ring,
    eliminate_holes,
    normalize,
    render_svg,
    report,
    triangulate_ring,
)

OUT = Path(__file__).parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    poly = normalize(
        PolygonWithHoles(
            Ring([(0, 0), (12, 0), (12, 9), (0, 9)]),
            [
                Ring([(2, 2), (2, 4), (4, 4), (4, 2)]),
                Ring([(7, 5), (7, 7.5), (10, 7.5), (10, 5)]),
                Ring([(6, 1.5), (6, 3.5), (9, 3.5), (9, 1.5)]),
            ],
        )
    )
    m = len(poly.outer)
    hole_sizes = [len(h) for h in poly.holes]
    print(f"outer ring: {m} vertices; holes: {hole_sizes}")

    degen = eliminate_holes(poly)
    table = poly.vertex_table()
    for k, b in enumerate(degen.bridges):
        print(
            f"bridge {k}: ring position {b.outer_vertex[1]} <-> "
            f"hole {b.hole_vertex[0] - 1} vertex {b.hole_vertex[1]}, "
            f"length {b.length:.3f}"
        )

    expected = m + sum(n + 2 for n in hole_sizes)
    print(f"\nmerged ring: {len(degen.ring)} vertices (expected {expected})")
    outer_area = poly.outer.signed_area()
    holes_area = sum(abs(h.signed_area()) for h in poly.holes)
    print(
        f"merged area: {degen.ring.signed_area():.6f} "
        f"(outer {outer_area:.0f} - holes {holes_area:.0f})"
    )

    ring = build_ring(degen.ring, indices=degen.indices, table=table)
    tri = triangulate_ring(ring, "improved", bound=30.0)
    print(f"\ntriangulated: {len(tri.triangles)} triangles "
          f"(= {len(degen.ring)} - 2), {tri.swap_count} swaps")
    print(compare_line(report(tri)))

    path = OUT / "three_holes.svg"
    path.write_bytes(render_svg(poly, tri))
    print(f"-> {path}  (holes render as voids; no triangle crosses them)")


def compare_line(rep) -> str:
    bins = "  ".join(f"{100 * f:6.2f}%" for f in rep.bin_fractions)
    return f"min-angle bins {bins}   average {rep.average_min_angle:.2f}"


if __name__ == "__main__":
    main()
