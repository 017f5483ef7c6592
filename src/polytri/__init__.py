"""polytri: polygon triangulation by ear clipping.

Clips ears smallest-interior-angle first to avoid sliver triangles, with an
optional inline diagonal swap whenever a freshly cut triangle is sharper
than a configurable bound. Polygons with holes are first reduced to a
single ring by bridging each hole to the boundary along the shortest
unobstructed segment. Quality of a result is summarized as a four-bin
histogram of per-triangle minimum angles plus their mean.
"""

from .geom import DegenerateTriangle, DegenerateVertex, GeometryError, InvalidRing
from .polygon import PolygonWithHoles, Ring, build_ring, normalize
from .earclip import EarSearchFailed
from .bridge import NoValidBridge, eliminate_holes
from .quality import EmptyInput, compare, pooled, report
from .corpus import GenerationFailed, generate_corpus, generate_polygon
from .formats import ParseError, parse_polygon, serialize_polygon, triangulation_to_json
from .svg import render_svg
from .pipeline import triangulate_polygon, triangulate_ring

__version__ = "0.1.0"

# The documented surface: what the README, demos/ and benchmarks/ use, plus
# every exception type. Lower-level pieces live in their submodules.
__all__ = [
    "DegenerateTriangle",
    "DegenerateVertex",
    "EarSearchFailed",
    "EmptyInput",
    "GenerationFailed",
    "GeometryError",
    "InvalidRing",
    "NoValidBridge",
    "ParseError",
    "PolygonWithHoles",
    "Ring",
    "build_ring",
    "compare",
    "eliminate_holes",
    "generate_corpus",
    "generate_polygon",
    "normalize",
    "parse_polygon",
    "pooled",
    "render_svg",
    "report",
    "serialize_polygon",
    "triangulate_polygon",
    "triangulate_ring",
    "triangulation_to_json",
]
