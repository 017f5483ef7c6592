"""polytri: polygon triangulation by ear clipping.

Clips ears smallest-interior-angle first to avoid sliver triangles, with an
optional inline diagonal swap whenever a freshly cut triangle is sharper
than a configurable bound. Polygons with holes are first reduced to a
single ring by bridging each hole to the boundary along the shortest
unobstructed segment. Quality of a result is summarized as a four-bin
histogram of per-triangle minimum angles plus their mean.
"""

from .geom import (
    DegenerateTriangle,
    DegenerateVertex,
    GeometryError,
    InvalidRing,
    Orientation,
    Point2,
    orientation,
    point_in_ring,
    point_in_triangle_closure,
    segments_properly_cross,
    signed_area,
    triangle_angles,
)
from .polygon import (
    PolygonWithHoles,
    Ring,
    VertexNode,
    VertexRing,
    build_ring,
    normalize,
    remove_vertex,
    validate_polygon,
)
from .earclip import (
    EarSearchFailed,
    Triangle,
    Triangulation,
    is_ear,
    triangulate_basic,
    triangulate_traditional,
    update_after_cut,
)
from .swap import AngleBound, find_neighbor_across_longest_edge, triangulate_improved, try_swap
from .bridge import BridgeEdge, DegenerateRing, NoValidBridge, eliminate_holes, find_bridge, merge_hole
from .quality import EmptyInput, QualityReport, compare, min_angles, pooled, report
from .corpus import GenerationFailed, generate_corpus, generate_polygon, star_ring
from .formats import ParseError, parse_polygon, serialize_polygon, triangulation_to_json
from .svg import render_svg
from .pipeline import ALGORITHMS, triangulate_polygon

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AngleBound",
    "BridgeEdge",
    "DegenerateRing",
    "DegenerateTriangle",
    "DegenerateVertex",
    "EarSearchFailed",
    "EmptyInput",
    "GenerationFailed",
    "GeometryError",
    "InvalidRing",
    "NoValidBridge",
    "Orientation",
    "ParseError",
    "Point2",
    "PolygonWithHoles",
    "QualityReport",
    "Ring",
    "Triangle",
    "Triangulation",
    "VertexNode",
    "VertexRing",
    "build_ring",
    "compare",
    "eliminate_holes",
    "find_bridge",
    "find_neighbor_across_longest_edge",
    "generate_corpus",
    "generate_polygon",
    "is_ear",
    "merge_hole",
    "min_angles",
    "normalize",
    "orientation",
    "parse_polygon",
    "point_in_ring",
    "point_in_triangle_closure",
    "pooled",
    "remove_vertex",
    "render_svg",
    "report",
    "segments_properly_cross",
    "serialize_polygon",
    "signed_area",
    "star_ring",
    "triangle_angles",
    "triangulate_basic",
    "triangulate_improved",
    "triangulate_polygon",
    "triangulate_traditional",
    "triangulation_to_json",
    "try_swap",
    "update_after_cut",
    "validate_polygon",
]
