"""An index of the reflex vertices of a ring, for the ear test.

:class:`ReflexGrid` keeps its members in horizontal rows, each sorted by x,
so a box query bisects every row it spans to the box's x-range; a wide ear
triangle is also clipped row by row. See :func:`polytri.polygon.build_ring`,
which builds it, and :func:`polytri.earclip.is_ear`, which queries it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import TYPE_CHECKING, Optional, Sequence

from .geom import EPS_AREA

if TYPE_CHECKING:
    from .polygon import VertexNode

__all__ = ["ReflexGrid"]


class ReflexGrid(set):
    """The nodes of a ring that were ever reflex, in rows sorted by x.

    The rows split the bounding box of ``nodes`` into strips as tall as the
    cells of a uniform grid with about sqrt(n) cells along the longer side
    (the uniform grid of Held's FIST, without its columns). Row ``k`` keeps
    two parallel lists: ``xs[k]``, its members' x-coordinates in ascending
    order, and ``rows[k]``, the members in the same order. Membership,
    iteration and ``len`` are the set's; add members only through
    :meth:`add`, which keeps the rows in sync. No member is ever removed:
    the ear test filters the members it reads (see
    :func:`polytri.earclip.is_ear`). :meth:`add` and :meth:`query` place a
    coordinate ``y`` by one row function, ``floor((y - y0) * inv)`` clamped
    to the rows; it is monotone in ``y``, so a query never misses a member
    inside its box. Both write it out inline because it runs once per ear
    test. Each row also keeps its members' y-extent, grow-only, for the
    triangle clip of :meth:`query`.
    """

    __slots__ = ("xs", "rows", "ylo", "yhi", "x0", "y0", "inv", "cell", "flat")

    def __init__(self, nodes: Sequence[VertexNode], members: Sequence[VertexNode]):
        super().__init__(members)
        xs = [node.x for node in nodes]
        ys = [node.y for node in nodes]
        self.x0 = x0 = min(xs)
        self.y0 = y0 = min(ys)
        span = max(max(xs) - x0, max(ys) - y0)
        k = math.ceil(math.sqrt(len(xs)))
        self.inv = inv = k / span if span > 0.0 else 0.0
        self.cell = span / k
        last = int((max(ys) - y0) * inv)
        # A row clip uses an edge only if its rise |dy| exceeds ``flat``: its
        # relaxation EPS_AREA / |dy| is then under a row height. No edge
        # qualifies unless a row is over 2**-40 of the largest coordinate
        # (see query), which ``reach`` measures in rows.
        reach = max(abs(x0), abs(y0)) * inv + k + 1
        self.flat = EPS_AREA * inv if reach < 2.0**40 else math.inf
        self.rows = rows = [[] for _ in range(last + 1)]
        self.ylo = ylo = [math.inf] * (last + 1)
        self.yhi = yhi = [-math.inf] * (last + 1)
        # one sort, stable, fills every row in x order
        for node in sorted(members, key=attrgetter("x")):
            y = node.y
            row = int((y - y0) * inv)
            row = 0 if row < 0 else last if row > last else row
            rows[row].append(node)
            if y < ylo[row]:
                ylo[row] = y
            if y > yhi[row]:
                yhi[row] = y
        self.xs = [[node.x for node in row] for row in rows]

    def add(self, node: VertexNode) -> None:
        """Insert ``node``, which must not be a member yet, in x order."""
        super().add(node)
        last = len(self.rows) - 1
        # int() truncates toward zero, which agrees with floor() once clamped
        row = int((node.y - self.y0) * self.inv)
        row = 0 if row < 0 else last if row > last else row
        xs = self.xs[row]
        i = bisect_right(xs, node.x)
        xs.insert(i, node.x)
        self.rows[row].insert(i, node)
        if node.y < self.ylo[row]:
            self.ylo[row] = node.y
        if node.y > self.yhi[row]:
            self.yhi[row] = node.y

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
        within the box, widened by a row height each side. A box at least as
        tall as wide is not clipped, so a comb on a vertical spine gains
        nothing from the clip.

        Why the guard of one row height makes the clip a superset: each edge
        line is linear in y, so its x-limit is taken at an end of that
        extent; edges within ``flat`` of horizontal limit nothing. Solving
        for the limit, and ``is_ear``'s evaluation of the same test, each
        round by a few units in the last place of the largest coordinate,
        box width or relaxation ``EPS_AREA / |dy|``: the last is under a row
        height by the choice of ``flat``, and the index clips only where a
        row is over 2**-40 of the largest coordinate. So the rounding stays
        far below the guard.
        """
        y0, inv = self.y0, self.inv
        last = len(self.rows) - 1
        # the row function of add()
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
        flat, ylo, yhi, cell = self.flat, self.ylo, self.yhi, self.cell
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
            lo -= cell
            hi += cell
            row_xs = xs[row]
            i = bisect_left(row_xs, lo if lo > minx else minx)
            j = bisect_right(row_xs, hi if hi < maxx else maxx, i)
            if i < j:
                found += rows[row][i:j]
        return found
