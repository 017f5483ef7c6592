"""High-level triangulation pipeline.

Two stages: eliminate holes by bridging them into the outer ring, then run
the selected clipping algorithm over the resulting single ring. Output
triangles index the flattened vertex table (outer vertices first, then each
hole's, in normalized order).
"""

from __future__ import annotations

from .geom import DEFAULT_EPS, Epsilon
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
    eps: Epsilon = DEFAULT_EPS,
) -> tuple[Triangulation, DegenerateRing]:
    """Normalize, bridge out the holes, and triangulate.

    Returns the triangulation together with the intermediate single ring
    (which is just the outer ring when there are no holes).
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    poly = normalize(poly, eps)
    degen = eliminate_holes(poly, eps)
    ring = build_ring(degen.ring, eps, indices=degen.indices, table=poly.vertex_table())
    if algorithm == "basic":
        tri = triangulate_basic(ring, eps)
    elif algorithm == "traditional":
        tri = triangulate_traditional(ring, eps)
    else:
        tri = triangulate_improved(ring, bound, eps)
    return tri, degen

