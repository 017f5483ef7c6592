"""Deterministic random polygon corpus.

Polygons are star shaped: vertex angles are jittered around an even spacing
and sorted radii pull each vertex between an inner and outer radius, which
makes the boundary simple by construction while still producing plenty of
reflex vertices. Holes are shrunken star polygons dropped inside the outer
ring by rejection sampling. Star polygons cannot reproduce every
pathological simple polygon (spirals, combs); hand-written fixture files
cover those in the test suite.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

from .geom import GeometryError, Point2, point_in_ring, segments_properly_cross
from .polygon import PolygonWithHoles, Ring, normalize

__all__ = ["GenerationFailed", "star_ring", "generate_polygon", "generate_corpus"]

_MAX_HOLE_ATTEMPTS = 10000


class GenerationFailed(GeometryError):
    """Rejection sampling could not place a hole."""


def star_ring(
    rng: random.Random,
    n: int,
    center: tuple[float, float] = (0.0, 0.0),
    r_min: float = 2.5,
    r_max: float = 10.0,
) -> Ring:
    """Simple CCW polygon with ``n`` vertices around ``center``.

    Angles are evenly spaced with up to 35% jitter, so consecutive vertices
    stay separated; radii are drawn uniformly from [r_min, r_max].
    """
    cx, cy = center
    step = 2.0 * math.pi / n
    pts = []
    for k in range(n):
        theta = (k + rng.uniform(-0.35, 0.35)) * step
        r = rng.uniform(r_min, r_max)
        pts.append(Point2(cx + r * math.cos(theta), cy + r * math.sin(theta)))
    return Ring(pts)


def _bbox(pts: Sequence[Point2]) -> tuple[float, float, float, float]:
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    return min(xs), min(ys), max(xs), max(ys)


def _bboxes_disjoint(a, b, pad: float = 0.0) -> bool:
    return a[2] + pad < b[0] or b[2] + pad < a[0] or a[3] + pad < b[1] or b[3] + pad < a[1]


def _hole_fits(hole: Ring, outer: Ring, placed: list[Ring]) -> bool:
    if not all(point_in_ring(p, outer.points) for p in hole.points):
        return False
    hb = _bbox(hole.points)
    for other in placed:
        if not _bboxes_disjoint(hb, _bbox(other.points), pad=0.05):
            return False
    opts = outer.points
    m = len(opts)
    hpts = hole.points
    k = len(hpts)
    for i in range(k):
        a, b = hpts[i], hpts[(i + 1) % k]
        for j in range(m):
            if segments_properly_cross(a, b, opts[j], opts[(j + 1) % m]):
                return False
    return True


def generate_polygon(
    rng: random.Random,
    n_vertices: int,
    n_holes: int = 0,
    hole_vertex_range: tuple[int, int] = (4, 10),
) -> PolygonWithHoles:
    """One random star polygon with ``n_holes`` star-shaped holes inside."""
    outer = star_ring(rng, n_vertices)
    holes: list[Ring] = []
    for _ in range(n_holes):
        placed = False
        for _attempt in range(_MAX_HOLE_ATTEMPTS):
            hn = rng.randint(*hole_vertex_range)
            rad = rng.uniform(0.4, 1.1)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            dist = rng.uniform(0.0, 5.5)
            center = (dist * math.cos(theta), dist * math.sin(theta))
            hole = star_ring(rng, hn, center, r_min=0.35 * rad, r_max=rad)
            if _hole_fits(hole, outer, holes):
                holes.append(hole.reversed())  # holes are stored clockwise
                placed = True
                break
        if not placed:
            raise GenerationFailed(
                f"could not place hole {len(holes)} after {_MAX_HOLE_ATTEMPTS} attempts"
            )
    return normalize(PolygonWithHoles(outer, holes))


def generate_corpus(
    seed: int,
    count: int,
    vertex_range: tuple[int, int] = (4, 200),
    holes_range: tuple[int, int] = (0, 0),
    hole_vertex_range: tuple[int, int] = (4, 10),
) -> list[PolygonWithHoles]:
    """A reproducible list of random polygons.

    The same seed and parameters always give the same polygons. Vertex
    counts are drawn uniformly from ``vertex_range`` (bounded to [4, 10000])
    and hole counts from ``holes_range``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    lo, hi = vertex_range
    if lo < 4 or hi > 10000 or lo > hi:
        raise ValueError(f"vertex_range must lie within [4, 10000], got {vertex_range}")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(lo, hi)
        k = rng.randint(*holes_range)
        out.append(generate_polygon(rng, n, k, hole_vertex_range))
    return out
