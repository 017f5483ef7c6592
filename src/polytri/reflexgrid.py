"""Uniform grids over the reflex vertices of a ring, for the ear test.

:class:`ReflexGrid` answers box queries by walking the cells; a ring that
starts with more reflex vertices than cells gets a :class:`DenseReflexGrid`,
which also clips wide ear triangles row by row. See
:func:`polytri.polygon.build_ring`, which picks one, and
:func:`polytri.earclip.is_ear`, which queries it.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Optional

from .geom import EPS_AREA

if TYPE_CHECKING:
    from .polygon import VertexNode

__all__ = ["ReflexGrid", "DenseReflexGrid"]


class ReflexGrid(set):
    """The nodes of a ring that were ever reflex, each in a cell of a uniform grid.

    The grid covers the bounding box of the nodes it is built from, with
    about sqrt(n) cells along the longer side (the uniform-grid acceleration
    of Held's FIST). Membership, iteration and ``len`` are the set's; add
    members only through :meth:`add`, which keeps the cells in sync. No
    member is ever removed: the ear test filters the members it reads (see
    :func:`polytri.earclip.is_ear`). :meth:`add` and :meth:`query` place a
    coordinate ``v`` by one cell function, ``floor((v - v0) * inv)``
    clamped to the grid; it is monotone in ``v``, so a query never misses a
    member inside its box. Both write it out inline because it runs once
    per ear test.
    """

    __slots__ = ("cells", "x0", "y0", "inv", "last_col", "last_row")

    def __init__(self, nodes: Iterable[VertexNode]):
        super().__init__()
        xs: list[float] = []
        ys: list[float] = []
        for node in nodes:
            xs.append(node.x)
            ys.append(node.y)
        self.x0 = min(xs)
        self.y0 = min(ys)
        spanx = max(xs) - self.x0
        spany = max(ys) - self.y0
        span = max(spanx, spany)
        self.inv = math.ceil(math.sqrt(len(xs))) / span if span > 0.0 else 0.0
        self.last_col = int(spanx * self.inv)
        self.last_row = int(spany * self.inv)
        self.cells: list[Optional[set[VertexNode]]] = [None] * (
            (self.last_col + 1) * (self.last_row + 1)
        )

    def add(self, node: VertexNode) -> int:
        """Insert ``node``, which must not be a member yet; return its cell."""
        inv, last_col, last_row = self.inv, self.last_col, self.last_row
        # int() truncates toward zero, which agrees with floor() once clamped
        col = int((node.x - self.x0) * inv)
        col = 0 if col < 0 else last_col if col > last_col else col
        row = int((node.y - self.y0) * inv)
        row = 0 if row < 0 else last_row if row > last_row else row
        cell = row * (last_col + 1) + col
        super().add(node)
        bucket = self.cells[cell]
        if bucket is None:
            self.cells[cell] = {node}
        else:
            bucket.add(node)
        return cell

    def query(
        self,
        minx: float,
        miny: float,
        maxx: float,
        maxy: float,
        tip: Optional[VertexNode] = None,
    ) -> Iterable[VertexNode]:
        """Every member with coordinates inside the box, and possibly others.

        A box covering at least as many cells as there are members returns
        the members themselves: visiting the cells would cost more. ``tip``,
        the ear tip whose triangle the box holds, is used only by
        :class:`DenseReflexGrid`.
        """
        x0, y0, inv = self.x0, self.y0, self.inv
        last_col, last_row = self.last_col, self.last_row
        # the cell function of add()
        c0 = int((minx - x0) * inv)
        c0 = 0 if c0 < 0 else last_col if c0 > last_col else c0
        c1 = int((maxx - x0) * inv)
        c1 = 0 if c1 < 0 else last_col if c1 > last_col else c1
        r0 = int((miny - y0) * inv)
        r0 = 0 if r0 < 0 else last_row if r0 > last_row else r0
        r1 = int((maxy - y0) * inv)
        r1 = 0 if r1 < 0 else last_row if r1 > last_row else r1
        if (c1 - c0 + 1) * (r1 - r0 + 1) >= len(self):
            return self
        cols = last_col + 1
        cells = self.cells
        found: list[VertexNode] = []
        for base in range(r0 * cols, r1 * cols + 1, cols):
            for bucket in cells[base + c0 : base + c1 + 1]:
                if bucket:
                    found.extend(bucket)
        return found


class DenseReflexGrid(ReflexGrid):
    """A :class:`ReflexGrid` holding more members than cells, which clips
    wide ear triangles row by row.

    :func:`polytri.polygon.build_ring` picks it when the ring starts with
    more reflex vertices than grid cells: a ring much wider than tall, such
    as a comb on a long horizontal spine, whose grid has a few rows of
    sqrt(n) square cells. Each row keeps its members' y-extent, grow-only,
    updated by :meth:`add`.
    """

    __slots__ = ("ylo", "yhi", "flat")

    def __init__(self, nodes: Iterable[VertexNode]):
        super().__init__(nodes)
        rows = self.last_row + 1
        self.ylo = [math.inf] * rows
        self.yhi = [-math.inf] * rows
        # A row clip uses an edge only if its rise |dy| exceeds ``flat``: its
        # relaxation EPS_AREA / |dy| is then under a cell. No edge qualifies
        # unless a cell is over 2**-40 of the largest coordinate (see query),
        # which ``reach`` measures in cells.
        reach = max(abs(self.x0), abs(self.y0)) * self.inv + max(rows, self.last_col + 1)
        self.flat = EPS_AREA * self.inv if reach < 2.0**40 else math.inf

    def add(self, node: VertexNode) -> int:
        """Insert ``node``, which must not be a member yet; return its cell."""
        cell = super().add(node)
        row = cell // (self.last_col + 1)
        if node.y < self.ylo[row]:
            self.ylo[row] = node.y
        if node.y > self.yhi[row]:
            self.yhi[row] = node.y
        return cell

    def query(
        self,
        minx: float,
        miny: float,
        maxx: float,
        maxy: float,
        tip: Optional[VertexNode] = None,
    ) -> Iterable[VertexNode]:
        """Every member inside the box, and possibly others; iterate it once.

        Given also the ear ``tip``, whose CCW triangle ``tip.prev, tip,
        tip.next`` the box holds, it promises only a superset of the members
        inside the box that pass the three relaxed closure tests of
        :func:`polytri.earclip.is_ear`. A box covering at least as many cells
        as there are members returns the members themselves.

        The cells' sets are chained lazily instead of copied, as the ear test
        stops at its first blocker. A triangle whose box spans more columns
        than rows, and more than the two guard columns, is clipped row by
        row: each row visits only the columns of the x-interval where the
        relaxed tests can hold for y in the row's member y-extent within the
        box, widened by a guard column each side. A box at least as tall as
        wide is not clipped, so a comb on a vertical spine gains nothing.

        Why the guard column makes the clip a superset: each edge line is
        linear in y, so its x-limit is taken at an end of that extent; edges
        within ``flat`` of horizontal limit nothing. Solving for the limit,
        and ``is_ear``'s evaluation of the same test, each round by a few
        units in the last place of the largest coordinate, box width or
        relaxation ``EPS_AREA / |dy|``: the last is under a cell by the
        choice of ``flat``, and the grid clips only where a cell is over
        2**-40 of the largest coordinate. So the rounding stays far below the
        one cell that the guard column absorbs.
        """
        x0, y0, inv = self.x0, self.y0, self.inv
        last_col, last_row = self.last_col, self.last_row
        # the cell function of add()
        c0 = int((minx - x0) * inv)
        c0 = 0 if c0 < 0 else last_col if c0 > last_col else c0
        c1 = int((maxx - x0) * inv)
        c1 = 0 if c1 < 0 else last_col if c1 > last_col else c1
        r0 = int((miny - y0) * inv)
        r0 = 0 if r0 < 0 else last_row if r0 > last_row else r0
        r1 = int((maxy - y0) * inv)
        r1 = 0 if r1 < 0 else last_row if r1 > last_row else r1
        if (c1 - c0 + 1) * (r1 - r0 + 1) >= len(self):
            return self
        cols = last_col + 1
        cells = self.cells
        buckets: list[set[VertexNode]] = []
        if tip is None or c1 - c0 <= r1 - r0 or c1 - c0 <= 2:
            for base in range(r0 * cols, r1 * cols + 1, cols):
                buckets.extend(filter(None, cells[base + c0 : base + c1 + 1]))
            return chain.from_iterable(buckets)
        # Each edge (ox, oy) + t (ex, ey) of the triangle keeps the points
        # with ex * (y - oy) - ey * (x - ox) >= -EPS_AREA: an upper x bound
        # when it rises, a lower one when it falls.
        a, c = tip.prev, tip.next
        ax, ay, bx, by, cx, cy = a.x, a.y, tip.x, tip.y, c.x, c.y
        edges = (
            (ax, ay, bx - ax, by - ay), (bx, by, cx - bx, cy - by), (cx, cy, ax - cx, ay - cy)
        )
        flat, ylo, yhi = self.flat, self.ylo, self.yhi
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
            k0 = int((lo - x0) * inv) - 1
            k0 = c0 if k0 < c0 else k0
            k1 = int((hi - x0) * inv) + 1
            k1 = c1 if k1 > c1 else k1
            if k0 <= k1:
                base = row * cols
                buckets.extend(filter(None, cells[base + k0 : base + k1 + 1]))
        return chain.from_iterable(buckets)
