"""Deterministic random polygon corpus.

Polygons are star shaped: vertex angles are jittered around an even spacing
and sorted radii pull each vertex between an inner and outer radius, which
makes the boundary simple by construction while still producing plenty of
reflex vertices. Holes are shrunken star polygons dropped inside the outer
ring by rejection sampling: a candidate is kept when its box, padded by
0.05, is clear of every placed hole's box, no edge of it meets an outer
edge, and its first vertex lies inside the outer ring. That is the rule of
``validate_polygon``: a hole that meets the outer ring nowhere lies wholly
inside or wholly outside it, so one vertex decides. It cannot see a hole
vertex touching an outer vertex; see ``_hole_fits``. Candidates are drawn
and tested as coordinate lists, against a box kept for each placed hole;
only a kept hole becomes a ``Ring``.
Star polygons cannot reproduce every pathological simple polygon (spirals,
combs); hand-written fixture files cover those in the test suite.
"""

from __future__ import annotations

import math
import random

from .geom import GeometryError, Point2, _box, point_in_ring
from .polygon import PolygonWithHoles, Ring, _boxed_edges, _crosses_any, normalize

__all__ = ["GenerationFailed", "star_ring", "generate_polygon", "generate_corpus"]

_MAX_HOLE_ATTEMPTS = 10000


class GenerationFailed(GeometryError):
    """Rejection sampling could not place a hole."""


def _star(
    rng: random.Random, n: int, cx: float, cy: float, r_min: float, r_max: float
) -> tuple[list[float], list[float]]:
    """The x and y coordinates of :func:`star_ring`'s vertices."""
    uniform, cos, sin = rng.uniform, math.cos, math.sin
    step = 2.0 * math.pi / n
    xs, ys = [], []
    for k in range(n):
        theta = (k + uniform(-0.35, 0.35)) * step
        r = uniform(r_min, r_max)
        xs.append(cx + r * cos(theta))
        ys.append(cy + r * sin(theta))
    return xs, ys


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
    xs, ys = _star(rng, n, *center, r_min, r_max)
    return Ring(zip(xs, ys))


def _hole_fits(
    xs: list[float], ys: list[float], outer: Ring, outer_edges: list, boxes: list
) -> bool:
    # The rule of the module docstring, for the hole with vertices
    # zip(xs, ys); ``boxes`` holds the placed holes' boxes. A hole vertex
    # within EPS_LEN of an outer vertex, with no collinear overlap, passes
    # the crossing test (one shared endpoint does not count), and ray
    # casting is unreliable there: only validate_polygon's vertex-contact
    # sweep rejects such a contact.
    hx0, hy0, hx1, hy1 = min(xs), min(ys), max(xs), max(ys)
    for ox0, oy0, ox1, oy1 in boxes:
        if ox0 <= hx1 + 0.05 and hx0 <= ox1 + 0.05 and oy0 <= hy1 + 0.05 and hy0 <= oy1 + 0.05:
            return False
    # Outer edges whose padded box misses the hole's box cannot meet it.
    near = [e for e in outer_edges if e[0] <= hx1 and hx0 <= e[2] and e[1] <= hy1 and hy0 <= e[3]]
    hpts = list(map(Point2, xs, ys))
    if any(_crosses_any(a, b, near) for a, b in zip(hpts, hpts[1:] + hpts[:1])):
        return False
    return point_in_ring(hpts[0], outer.points)


def generate_polygon(
    rng: random.Random,
    n_vertices: int,
    n_holes: int = 0,
    hole_vertex_range: tuple[int, int] = (4, 10),
) -> PolygonWithHoles:
    """One random star polygon with ``n_holes`` star-shaped holes inside.

    Raises ValueError unless ``n_vertices`` is at least 3, ``n_holes`` is
    non-negative and ``hole_vertex_range`` satisfies 3 <= min <= max.
    """
    if n_vertices < 3:
        raise ValueError(f"n_vertices must be at least 3, got {n_vertices}")
    if n_holes < 0:
        raise ValueError(f"n_holes must be non-negative, got {n_holes}")
    if not 3 <= hole_vertex_range[0] <= hole_vertex_range[1]:
        raise ValueError(
            f"hole_vertex_range must satisfy 3 <= min <= max, got {hole_vertex_range}"
        )
    outer = star_ring(rng, n_vertices)
    outer_edges = _boxed_edges(outer) if n_holes else []
    holes: list[Ring] = []
    boxes: list[tuple[float, float, float, float]] = []
    for _ in range(n_holes):
        placed = False
        for _attempt in range(_MAX_HOLE_ATTEMPTS):
            hn = rng.randint(*hole_vertex_range)
            rad = rng.uniform(0.4, 1.1)
            theta = rng.uniform(0.0, 2.0 * math.pi)
            dist = rng.uniform(0.0, 5.5)
            cx, cy = dist * math.cos(theta), dist * math.sin(theta)
            xs, ys = _star(rng, hn, cx, cy, 0.35 * rad, rad)
            if _hole_fits(xs, ys, outer, outer_edges, boxes):
                hole = Ring(zip(xs, ys))
                boxes.append(_box(hole.points))
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
    counts are drawn uniformly from ``vertex_range`` (bounded to [4, 10000]),
    hole counts from ``holes_range`` (non-negative) and hole vertex counts
    from ``hole_vertex_range`` (at least 3).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    lo, hi = vertex_range
    if lo < 4 or hi > 10000 or lo > hi:
        raise ValueError(f"vertex_range must lie within [4, 10000], got {vertex_range}")
    if not 0 <= holes_range[0] <= holes_range[1]:
        raise ValueError(f"holes_range must satisfy 0 <= min <= max, got {holes_range}")
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(lo, hi)
        k = rng.randint(*holes_range)
        out.append(generate_polygon(rng, n, k, hole_vertex_range))
    return out
