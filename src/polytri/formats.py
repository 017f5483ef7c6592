"""Polygon file formats and triangulation serialization.

The native text format is line oriented and hand writable: one ring per
line, the first line being the outer boundary and every further line a
hole::

    ring 0,0 10,0 10,10 0,10
    ring 2,2 2,8 8,8 8,2

Blank lines and ``#`` comments are ignored. GeoJSON ``Polygon`` geometries
(optionally wrapped in a ``Feature``) are accepted as an alternative input.
Parsing always returns a normalized polygon; a flipped ring orientation is
fixed silently apart from a log notice.

Triangulations serialize to a single stable JSON document::

    {"vertices": [[x,y],...], "triangles": [[i,j,k],...],
     "stats": {"bins": [...], "average": a, "count": n},
     "degenerate_count": d}

so repeated runs over identical input produce byte-identical output.
"""

from __future__ import annotations

import json
import logging

from .geom import InvalidRing
from .polygon import PolygonWithHoles, Ring, normalize
from .earclip import Triangulation
from .quality import QualityReport

__all__ = [
    "ParseError",
    "parse_polygon",
    "serialize_polygon",
    "triangulation_to_json",
    "triangulation_to_obj",
]

log = logging.getLogger("polytri")


class ParseError(Exception):
    """Input file could not be understood; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _parse_point(token: str, lineno: int) -> tuple[float, float]:
    parts = token.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'x,y', got {token!r}", lineno)
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"bad coordinate in {token!r}", lineno) from None


def _parse_text(text: str) -> PolygonWithHoles:
    rings: list[Ring] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] != "ring":
            raise ParseError(f"expected 'ring', got {tokens[0]!r}", lineno)
        pts = [_parse_point(tok, lineno) for tok in tokens[1:]]
        if len(pts) < 3:
            raise ParseError(f"ring needs at least 3 vertices, got {len(pts)}", lineno)
        try:
            rings.append(Ring(pts))
        except InvalidRing as e:
            raise ParseError(str(e), lineno) from None
    if not rings:
        raise ParseError("no rings found")
    return PolygonWithHoles(rings[0], rings[1:])


def _parse_geojson(text: str) -> PolygonWithHoles:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if isinstance(obj, dict) and obj.get("type") == "Feature":
        obj = obj.get("geometry") or {}
    if not isinstance(obj, dict) or obj.get("type") != "Polygon":
        raise ParseError("expected a GeoJSON Polygon (or a Feature wrapping one)")
    coords = obj.get("coordinates")
    if not isinstance(coords, list) or not coords:
        raise ParseError("Polygon has no coordinate rings")
    rings = []
    for k, ring in enumerate(coords):
        try:
            pts = [(float(p[0]), float(p[1])) for p in ring]
        except (TypeError, ValueError, IndexError):
            raise ParseError(f"ring {k}: malformed coordinates") from None
        if len(pts) > 1 and pts[0] == pts[-1]:
            pts = pts[:-1]  # GeoJSON rings close explicitly
        if len(pts) < 3:
            raise ParseError(f"ring {k}: needs at least 3 distinct vertices")
        try:
            rings.append(Ring(pts))
        except InvalidRing as e:
            raise ParseError(f"ring {k}: {e}") from None
    return PolygonWithHoles(rings[0], rings[1:])


def parse_polygon(data: str | bytes, fmt: str = "text") -> PolygonWithHoles:
    """Parse and normalize a polygon from ``text`` or ``geojson`` input."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    if fmt == "text":
        poly = _parse_text(data)
    elif fmt == "geojson":
        poly = _parse_geojson(data)
    else:
        raise ValueError(f"unknown input format {fmt!r}")
    try:
        return normalize(poly)
    except InvalidRing as e:
        raise ParseError(str(e)) from None


def serialize_polygon(poly: PolygonWithHoles) -> str:
    """Native text form; float repr keeps the round trip exact."""
    lines = []
    for ring in (poly.outer, *poly.holes):
        lines.append("ring " + " ".join(f"{p.x!r},{p.y!r}" for p in ring.points))
    return "\n".join(lines) + "\n"


def triangulation_to_json(tri: Triangulation, stats: QualityReport) -> str:
    doc = {
        "vertices": [[p.x, p.y] for p in tri.vertex_table],
        "triangles": [[t.a, t.b, t.c] for t in tri.triangles],
        "stats": {
            "bins": list(stats.bin_fractions),
            "average": stats.average_min_angle,
            "count": stats.triangle_count,
        },
        "degenerate_count": tri.degenerate_count,
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def triangulation_to_obj(tri: Triangulation) -> str:
    """Wavefront OBJ with vertices on the z=0 plane (1-based face indices)."""
    lines = [f"v {p.x!r} {p.y!r} 0.0" for p in tri.vertex_table]
    lines.extend(f"f {t.a + 1} {t.b + 1} {t.c + 1}" for t in tri.triangles)
    return "\n".join(lines) + "\n"
