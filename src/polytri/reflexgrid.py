"""An index of the reflex vertices of a ring, for the ear test.

:class:`ReflexGrid` keeps its members in horizontal rows, each sorted by x,
so the ear test bisects every row its box spans to the box's x-range; a
wide ear triangle is also clipped row by row. See
:func:`polytri.polygon.build_ring` and
:func:`polytri.earclip.update_after_cut`, which build it, and
:func:`polytri.earclip.is_ear`, which walks its rows.
"""

from __future__ import annotations

import math
from operator import attrgetter
from typing import TYPE_CHECKING, Sequence

from .geom import EPS_AREA, _box

if TYPE_CHECKING:
    from .polygon import VertexNode

__all__ = ["ReflexGrid"]


class ReflexGrid:
    """The reflex nodes of a ring when it was built, in rows sorted by x.

    Built from ``nodes``, the ring's nodes at that moment, it keeps the
    nodes that are not convex. The rows split the bounding box of ``nodes``
    into strips as tall as the cells of a uniform grid with about sqrt(n)
    cells along the longer side (the uniform grid of Held's FIST, without
    its columns). Row ``k`` keeps two parallel lists: ``xs[k]``, its
    members' x-coordinates in ascending order, and ``rows[k]``, the members
    in the same order. The index never changes once built: the ear test
    filters the members it reads (see :func:`polytri.earclip.is_ear`), and
    a ring whose reflex set grows gets a new index. The ear test places a
    coordinate ``y`` by the row function ``floor((y - y0) * inv)`` clamped
    to the rows; it is monotone in ``y``, so the walk never misses a member
    inside its box. Each row also keeps its members' y-extent, and the
    index a rounding ``guard``, for the ear test's triangle clip, whose
    superset proof sits beside the walk in ``is_ear``.
    """

    __slots__ = ("xs", "rows", "ylo", "yhi", "x0", "y0", "inv", "flat", "guard")

    def __init__(self, nodes: Sequence[VertexNode]):
        members = [node for node in nodes if not node.is_convex]
        x0, y0, x1, y1 = _box(nodes)
        self.x0, self.y0 = x0, y0
        span = max(x1 - x0, y1 - y0)
        k = math.ceil(math.sqrt(len(nodes)))
        self.inv = inv = k / span if span > 0.0 else 0.0
        last = int((y1 - y0) * inv)
        # A row clip uses an edge only if its rise |dy| exceeds ``flat``: its
        # relaxation EPS_AREA / |dy| is then under a row height, which is
        # all the rounding bound of the ear test's clip asks of it.
        self.flat = EPS_AREA * inv
        # 32 times the clip's rounding bound, derived in is_ear
        big = max(abs(x0), abs(y0), abs(x1), abs(y1))
        self.guard = 2.0**-44 * (big + 21.0 * span)
        self.rows = rows = [[] for _ in range(last + 1)]
        self.ylo = ylo = [math.inf] * (last + 1)
        self.yhi = yhi = [-math.inf] * (last + 1)
        # one sort, stable, fills every row in x order; a member lies in the
        # box of ``nodes``, so its row needs no clamp
        for node in sorted(members, key=attrgetter("x")):
            y = node.y
            row = int((y - y0) * inv)
            rows[row].append(node)
            if y < ylo[row]:
                ylo[row] = y
            if y > yhi[row]:
                yhi[row] = y
        self.xs = [[node.x for node in row] for row in rows]
