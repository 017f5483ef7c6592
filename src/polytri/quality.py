"""Minimum-angle quality metrics.

A triangle's minimum interior angle lies in (0, 60]; the histogram splits
that range into four equal bins, [0,15), [15,30), [30,45) and [45,60], with
each boundary value falling into the upper bin except 60, which closes the
last one. Zero-area triangles flagged degenerate are slit artifacts, not
mesh quality, so they are excluded from the statistics and counted
separately.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .geom import GeometryError
from .earclip import Triangulation, smallest_angle

__all__ = ["EmptyInput", "QualityReport", "BIN_LABELS", "min_angles", "report", "pooled", "compare"]

BIN_LABELS = ("[0,15)", "[15,30)", "[30,45)", "[45,60]")


class EmptyInput(GeometryError):
    """No measurable triangles to report on."""


class QualityReport(NamedTuple):
    """Four-bin minimum-angle histogram plus the mean minimum angle.

    A NamedTuple, so also a tuple: it equals the plain tuple of its fields.
    """

    bin_fractions: tuple[float, float, float, float]
    average_min_angle: float
    triangle_count: int
    excluded_degenerate: int = 0


def min_angles(tri: Triangulation) -> list[float]:
    """Minimum interior angle of every non-degenerate triangle, in degrees.

    Read by :func:`~polytri.earclip.smallest_angle`: the improved pass
    leaves a stored ``min_angle`` on every triangle, and only the others
    are measured here.
    """
    return [smallest_angle(t) for t in tri.triangles if not t.degenerate]


def report(tri: Triangulation) -> QualityReport:
    """Histogram and average of per-triangle minimum angles.

    Raises EmptyInput when the triangulation has no measurable triangles.
    """
    angles = min_angles(tri)
    if not angles:
        raise EmptyInput("triangulation has no non-degenerate triangles")
    counts = [0, 0, 0, 0]
    for a in angles:
        counts[min(int(a // 15.0), 3)] += 1
    n = len(angles)
    fractions = tuple(c / n for c in counts)
    return QualityReport(
        bin_fractions=fractions,
        average_min_angle=math.fsum(angles) / n,
        triangle_count=n,
        excluded_degenerate=tri.degenerate_count,
    )


def pooled(reports: Sequence[QualityReport]) -> QualityReport:
    """Combine reports as if their triangles were one population.

    Bins and the average are re-weighted by triangle count, which matches
    recomputing the report over the concatenated triangulations.
    """
    if not reports:
        raise EmptyInput("nothing to pool")
    total = sum(r.triangle_count for r in reports)
    if total == 0:
        raise EmptyInput("pooled reports contain no triangles")
    bins = tuple(
        sum(r.bin_fractions[k] * r.triangle_count for r in reports) / total
        for k in range(4)
    )
    avg = sum(r.average_min_angle * r.triangle_count for r in reports) / total
    return QualityReport(
        bin_fractions=bins,
        average_min_angle=avg,
        triangle_count=total,
        excluded_degenerate=sum(r.excluded_degenerate for r in reports),
    )


def compare(rows: Sequence[tuple[str, QualityReport]], fmt: str = "text") -> str:
    """Side-by-side table of quality reports.

    Bin fractions print as percentages with two decimals and the average
    with two decimals. ``fmt`` selects aligned text, markdown, or csv.
    """
    if not rows:
        raise ValueError("need at least one row")
    header = ["algorithm", *BIN_LABELS, "average", "triangles"]
    body = []
    for label, r in rows:
        body.append(
            [
                label,
                *(f"{100.0 * f:.2f}%" for f in r.bin_fractions),
                f"{r.average_min_angle:.2f}",
                str(r.triangle_count),
            ]
        )
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) for i in range(len(header))]
    if fmt == "csv":
        lines = [",".join(header)]
        for row in body:
            lines.append(",".join(cell.rstrip("%") for cell in row))
        return "\n".join(lines) + "\n"
    if fmt == "md":
        out = [
            "| " + " | ".join(h.ljust(w) for h, w in zip(header, widths)) + " |",
            "|" + "|".join("-" * (w + 2) for w in widths) + "|",
        ]
        for row in body:
            out.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
        return "\n".join(out) + "\n"
    if fmt == "text":
        out = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
        for row in body:
            out.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(out) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
