"""Why ear-selection order matters.

Triangulates the same reflex-rich random polygon twice: once clipping the
first ear found while walking the ring (the traditional order), once
always clipping the ear with the smallest interior angle. The histogram
of per-triangle minimum angles shifts visibly to the right with the
smallest-angle rule, because clipping a sharp corner early prevents it
from being split into even sharper slivers later.

A counterpoint is included: on the comb fixture, whose narrow teeth force
slivers no matter what, the two orders tie. Selection order helps exactly
where the polygon leaves the algorithm room to choose.

Run from the repository root:

    python demos/01_clipping_order.py

SVGs land in demos/out/.
"""

from pathlib import Path

from polytri import (
    build_ring,
    compare,
    generate_corpus,
    normalize,
    parse_polygon,
    render_svg,
    report,
    triangulate_ring,
)

HERE = Path(__file__).parent
OUT = HERE / "out"


def quality_rows(poly, tag, svg=False):
    rows = []
    for label, algorithm in (("traditional", "traditional"), ("smallest-angle", "basic")):
        tri = triangulate_ring(build_ring(poly.outer), algorithm)
        rows.append((label, report(tri)))
        if svg:
            path = OUT / f"{tag}_{label.replace('-', '_')}.svg"
            path.write_bytes(render_svg(normalize(poly), tri))
            print(f"{label}: {len(tri.triangles)} triangles -> {path}")
    return rows


def main() -> None:
    OUT.mkdir(exist_ok=True)

    star = generate_corpus(seed=77, count=1, vertex_range=(48, 48))[0]
    print(f"random 48-gon (seed 77), {sum(1 for _ in star.outer)} vertices\n")
    rows = quality_rows(star, "star", svg=True)
    print()
    print(compare(rows))
    gap = rows[1][1].average_min_angle - rows[0][1].average_min_angle
    print(f"smallest-angle selection gains {gap:.2f} degrees of average minimum angle.")
    print("Open the two SVGs side by side: the traditional order leaves fans of")
    print("slivers radiating from early scan positions.\n")

    comb = parse_polygon((HERE.parent / "tests/fixtures/comb.poly").read_text())
    print("counterpoint: the comb fixture forces slivers in its narrow teeth,")
    print("so selection order cannot help:\n")
    print(compare(quality_rows(comb, "comb")))


if __name__ == "__main__":
    main()
