"""High-level triangulation pipeline.

Two stages: eliminate holes by bridging them into the outer ring, then run
the selected clipping algorithm over the resulting single ring. Output
triangles index the flattened vertex table (outer vertices first, then each
hole's, in normalized order).
"""

from __future__ import annotations

from .polygon import PolygonWithHoles, build_ring, normalize
from .bridge import DegenerateRing, eliminate_holes
from .earclip import Triangulation, triangulate_basic, triangulate_traditional
from .swap import AngleBound, triangulate_improved

__all__ = ["ALGORITHMS", "triangulate_polygon"]

ALGORITHMS = ("traditional", "basic", "improved")


def triangulate_polygon(
    poly: PolygonWithHoles,
    algorithm: str = "basic",
    bound: float | AngleBound = 30.0,
) -> tuple[Triangulation, DegenerateRing]:
    """Normalize, bridge out the holes, and triangulate.

    Returns the triangulation together with the intermediate single ring
    (which is just the outer ring when there are no holes).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    poly = normalize(poly)
    degen = eliminate_holes(poly)
    ring = build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())
    if algorithm == "basic":
        tri = triangulate_basic(ring)
    elif algorithm == "traditional":
        tri = triangulate_traditional(ring)
    else:
        tri = triangulate_improved(ring, bound)
    return tri, degen

