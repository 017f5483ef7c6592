"""Inline edge swapping and the sharpness bound.

Even with smallest-angle ear selection some slivers survive. The improved
triangulator re-checks every freshly cut triangle against a bound: if its
minimum angle is below the bound, the diagonal it shares with the
neighbour across its longest edge is swapped whenever that strictly
raises the pair's minimum angle.

This script sweeps the bound over 0, 15, 30, 45, 60 degrees on one
reflex-rich random polygon. Two things to notice: bound 0 reproduces the
plain smallest-angle result exactly (the sharpness test is strict), and
quality saturates somewhere around 30, which is why 30 is the default.

    python demos/02_edge_swapping.py
"""

from pathlib import Path

from polytri import (
    build_ring,
    compare,
    generate_corpus,
    normalize,
    render_svg,
    report,
    triangulate_ring,
)

OUT = Path(__file__).parent / "out"


def main() -> None:
    OUT.mkdir(exist_ok=True)
    poly = generate_corpus(seed=2024, count=1, vertex_range=(60, 60))[0]
    print(f"random 60-gon (seed 2024)\n")

    rows = []
    for bound in (0.0, 15.0, 30.0, 45.0, 60.0):
        tri = triangulate_ring(build_ring(poly.outer), "improved", bound=bound)
        rows.append((f"bound {bound:g}", report(tri)))
        print(f"bound {bound:5.1f}: {tri.swap_count:3d} swaps executed")
        if bound in (0.0, 30.0):
            path = OUT / f"sixty_gon_bound_{bound:g}.svg"
            path.write_bytes(render_svg(normalize(poly), tri))
            print(f"             -> {path}")

    print()
    print(compare(rows))
    print("Swapping never changes the triangle count or the covered area; it")
    print("only re-diagonalizes quadrilaterals formed by neighbouring pairs.")


if __name__ == "__main__":
    main()
