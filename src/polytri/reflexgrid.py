"""An index of the reflex vertices of a ring, for the ear test.

:class:`ReflexGrid` keeps its members in horizontal rows, each sorted by x,
so a box query bisects every row it spans to the box's x-range; a wide ear
triangle is also clipped row by row. See :func:`polytri.polygon.build_ring`
and :func:`polytri.earclip.update_after_cut`, which build it, and
:func:`polytri.earclip.is_ear`, which queries it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

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
    a ring whose reflex set grows gets a new index. :meth:`query` places a
    coordinate ``y`` by the row function ``floor((y - y0) * inv)`` clamped
    to the rows; it is monotone in ``y``, so a query never misses a member
    inside its box. It is written out inline because it runs once per ear
    test. Each row also keeps its members' y-extent, and the index a
    rounding ``guard``, for the triangle clip of :meth:`query`.
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
        # all the rounding bound of query asks of it.
        self.flat = EPS_AREA * inv
        # 32 times the clip's rounding bound, derived in query
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

    def query(
        self,
        minx: float,
        miny: float,
        maxx: float,
        maxy: float,
        tip: Optional[VertexNode] = None,
    ) -> list[VertexNode]:
        """Every member inside the box, and possibly others from its rows.

        Every member returned has ``minx <= x <= maxx`` and lies in a row
        that the box spans. Given also the ear ``tip``, whose CCW triangle
        ``tip.prev, tip, tip.next`` the box holds, it promises only a
        superset of the members inside the box that pass the three relaxed
        closure tests of :func:`polytri.earclip.is_ear`.

        Each row is bisected to its members in the x-range. A triangle whose
        box spans more columns (as tall as a row) than rows, and more than
        two, is clipped row by row first: each row keeps only the x-interval
        where the relaxed tests can hold for y in the row's member y-extent
        within the box, widened each side by ``guard``, a bound on rounding
        that the index computes once from its nodes. A box at least as tall
        as wide is not clipped, so a comb on a vertical spine gains nothing
        from the clip.

        Why the clip is a superset, for a triangle of the index's nodes, as
        ``is_ear`` asks: take a rising edge (``ey > flat``; a falling one is
        the mirror image, and one within ``flat`` of horizontal limits
        nothing), its exact limit ``L(y) = ox + (ex * (y - oy) + EPS_AREA) / ey``
        and ``c = EPS_AREA / ey``, under a row height by the choice of
        ``flat``. Let ``u = 2**-53``, ``W`` the box width, ``big`` the
        largest |coordinate| of the nodes and ``span`` the longer side of
        their bounding box.

        - ``is_ear``'s test ``ex * (py - oy) - ey * (px - ox) >= -EPS_AREA``
          rounds by at most 3.01 u (|ex (py - oy)| + |ey (px - ox)|), so a
          member that passes it has ``px <= L(py) + 3.01 u (2 W + c)``.
        - ``L`` is linear, so ``L(py) <= L(Y)`` at the end ``Y`` of the
          extent that the solve takes.
        - The solve ``ox + (ex * (Y - oy) + EPS_AREA) / ey`` rounds by at
          most 6.01 u (|ox| + |L(Y) - ox| + 2 c). A passing member puts
          ``L(Y)`` above ``ox - W`` less the first bound, and where
          ``L(Y) - ox`` exceeds 2 (W + c) the rounded solve still lands
          past ``maxx``, within 6.01 u (big + 2 c).
        - So a member passing the test lies within 10 u (big + 4 W + 5 c)
          of the clipped interval. A convex tip's shortest edge exceeds
          EPS_AREA over its longest, so the padding margin is under the
          longest edge, at most sqrt(2) span, and ``W`` is at most
          (1 + 2 sqrt(2)) span, under ``4 span``; ``c`` is under a row
          height, at most ``span``. The rounding is thus under 2**-49 (big +
          21 span), and ``guard`` is 32 times that, which also covers the
          rounding of adding it.
        """
        y0, inv = self.y0, self.inv
        last = len(self.rows) - 1
        # the row function; int() truncates toward zero, which agrees with
        # floor() once clamped
        r0 = int((miny - y0) * inv)
        r0 = 0 if r0 < 0 else last if r0 > last else r0
        r1 = int((maxy - y0) * inv)
        r1 = 0 if r1 < 0 else last if r1 > last else r1
        xs, rows = self.xs, self.rows
        found: list[VertexNode] = []
        x0 = self.x0
        cols = int((maxx - x0) * inv) - int((minx - x0) * inv)
        if tip is None or cols <= r1 - r0 or cols <= 2:
            for row in range(r0, r1 + 1):
                row_xs = xs[row]
                i = bisect_left(row_xs, minx)
                j = bisect_right(row_xs, maxx, i)
                if i < j:
                    found += rows[row][i:j]
            return found
        # Each edge (ox, oy) + t (ex, ey) of the triangle keeps the points
        # with ex * (y - oy) - ey * (x - ox) >= -EPS_AREA: an upper x bound
        # when it rises, a lower one when it falls.
        a, c = tip.prev, tip.next
        ax, ay, bx, by, cx, cy = a.x, a.y, tip.x, tip.y, c.x, c.y
        edges = (
            (ax, ay, bx - ax, by - ay), (bx, by, cx - bx, cy - by), (cx, cy, ax - cx, ay - cy)
        )
        flat, ylo, yhi, guard = self.flat, self.ylo, self.yhi, self.guard
        for row in range(r0, r1 + 1):
            lo_y = ylo[row] if ylo[row] > miny else miny
            hi_y = yhi[row] if yhi[row] < maxy else maxy
            if lo_y > hi_y:
                continue
            lo, hi = minx, maxx
            for ox, oy, ex, ey in edges:
                if ey > flat:
                    t = ox + (ex * ((hi_y if ex > 0.0 else lo_y) - oy) + EPS_AREA) / ey
                    if t < hi:
                        hi = t
                elif ey < -flat:
                    t = ox + (ex * ((lo_y if ex < 0.0 else hi_y) - oy) + EPS_AREA) / ey
                    if t > lo:
                        lo = t
            lo -= guard
            hi += guard
            row_xs = xs[row]
            i = bisect_left(row_xs, lo if lo > minx else minx)
            j = bisect_right(row_xs, hi if hi < maxx else maxx, i)
            if i < j:
                found += rows[row][i:j]
        return found
