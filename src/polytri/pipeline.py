"""High-level triangulation pipeline.

Two stages: eliminate holes by bridging them into the outer ring, then run
the selected clipping algorithm over the resulting single ring. Output
triangles index the flattened vertex table (outer vertices first, then each
hole's, in normalized order).
"""

from __future__ import annotations

from .polygon import PolygonWithHoles, VertexRing, build_ring, normalize
from .bridge import DegenerateRing, eliminate_holes
from .earclip import Triangulation, _clip
from .swap import sharp_swapper

__all__ = ["ALGORITHMS", "triangulate_polygon", "triangulate_ring"]

ALGORITHMS = ("traditional", "basic", "improved")


def _check_algorithm(algorithm: str) -> None:
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")


def triangulate_ring(
    ring: VertexRing, algorithm: str = "basic", bound: float = 30.0
) -> Triangulation:
    """Clip one ring into n-2 triangles with the named algorithm.

    ``traditional`` clips the first ear found in ring order, resuming at the
    successor of the last clipped tip. ``basic`` always clips the ear with
    the smallest interior angle. ``improved`` is ``basic`` plus one swap
    attempt per triangle sharper than ``bound`` degrees (see
    :func:`polytri.swap.sharp_swapper`); with bound 0 its output equals
    ``basic``'s. ``bound`` is ignored by the other two.
    """
    _check_algorithm(algorithm)
    post_emit = sharp_swapper(bound) if algorithm == "improved" else None
    return _clip(ring, smallest_angle=algorithm != "traditional", post_emit=post_emit)


def triangulate_polygon(
    poly: PolygonWithHoles, algorithm: str = "basic", bound: float = 30.0
) -> tuple[Triangulation, DegenerateRing]:
    """Normalize, bridge out the holes, and triangulate.

    Returns the triangulation together with the intermediate single ring
    (which is just the outer ring when there are no holes).
    """
    _check_algorithm(algorithm)
    poly = normalize(poly)
    degen = eliminate_holes(poly)
    ring = build_ring(degen.ring, indices=degen.indices, table=poly.vertex_table())
    return triangulate_ring(ring, algorithm, bound), degen
