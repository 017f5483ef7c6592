"""Standalone SVG rendering of a triangulated polygon.

One path outlines the polygon (outer ring plus holes as even-odd subpaths,
so holes read as voids) and each triangle is stroked as its own lighter
path on top. The view box fits the bounding box with a 5% margin and the
y axis is flipped so geometry renders in the usual orientation. Output is
deterministic for identical input.
"""

from __future__ import annotations

from .earclip import Triangulation
from .geom import _box
from .polygon import PolygonWithHoles

__all__ = ["render_svg"]

_OUTLINE_FILL = "#dce8f5"
_OUTLINE_STROKE = "#1b3a5f"
_TRI_STROKE = "#7aa3cc"
_DEGENERATE_STROKE = "#cc5555"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _path(points) -> str:
    cmds = [f"M {_fmt(points[0].x)} {_fmt(points[0].y)}"]
    cmds.extend(f"L {_fmt(p.x)} {_fmt(p.y)}" for p in points[1:])
    cmds.append("Z")
    return " ".join(cmds)


def render_svg(poly: PolygonWithHoles, tri: Triangulation) -> bytes:
    """Render the polygon outline and its triangulation as SVG bytes."""
    minx, miny, maxx, maxy = _box(tri.vertex_table)
    span = max(maxx - minx, maxy - miny) or 1.0
    margin = 0.05 * span
    vb = (
        _fmt(minx - margin),
        _fmt(-(maxy + margin)),
        _fmt((maxx - minx) + 2 * margin),
        _fmt((maxy - miny) + 2 * margin),
    )
    sw = _fmt(0.004 * span)
    sw_tri = _fmt(0.002 * span)
    body = []
    outline = " ".join(_path(r.points) for r in (poly.outer, *poly.holes))
    body.append(
        f'<path d="{outline}" fill="{_OUTLINE_FILL}" fill-rule="evenodd" '
        f'stroke="{_OUTLINE_STROKE}" stroke-width="{sw}"/>'
    )
    for t in tri.triangles:
        color = _DEGENERATE_STROKE if t.degenerate else _TRI_STROKE
        body.append(
            f'<path d="{_path(t.points())}" fill="none" '
            f'stroke="{color}" stroke-width="{sw_tri}"/>'
        )
    doc = (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{" ".join(vb)}">\n'
        '<g transform="scale(1 -1)" stroke-linejoin="round">\n'
        + "\n".join(body)
        + "\n</g>\n</svg>\n"
    )
    return doc.encode("utf-8")
