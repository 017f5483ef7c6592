"""Per-layer timing of polytri without touching its source.

A ``Tracer`` rebinds every module global of the loaded ``polytri`` package
that refers to one of the traced functions (so calls between modules, which
go through names imported with ``from .x import y``, are caught too) to a
timing wrapper, and restores the originals on exit. Each wrapped call is a
span; a span's self time is its duration minus the time of the spans it
called. A module's self time is the sum over its spans, so the module self
times of a job add up to the job's traced time.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, defining module, function). The module before the dot in the
# span name is the layer its self time is charged to.
SPANS = (
    ("cli.main", "cli", "main"),
    ("formats.parse", "formats", "parse_polygon"),
    ("formats.to_json", "formats", "triangulation_to_json"),
    ("pipeline.triangulate_polygon", "pipeline", "triangulate_polygon"),
    ("polygon.normalize", "polygon", "normalize"),
    ("polygon.build_ring", "polygon", "build_ring"),
    ("polygon.refresh_node", "polygon", "refresh_node"),
    ("bridge.eliminate_holes", "bridge", "eliminate_holes"),
    ("bridge.find_bridge", "bridge", "find_bridge"),
    ("bridge.crossing", "geom", "segments_properly_cross"),
    ("earclip.clip", "earclip", "_clip"),
    ("earclip.is_ear", "earclip", "is_ear"),
    ("earclip.select", "earclip", "_select_smallest_angle"),
    ("earclip.select", "earclip", "_select_next_sequential"),
    ("earclip.fallback", "earclip", "_select_fallback"),
    ("swap.try_swap", "swap", "try_swap"),
    ("quality.report", "quality", "report"),
)
POST_EMIT = "swap.post_emit"  # the callback triangulate_improved hands to _clip

MODULES = ("cli", "formats", "pipeline", "polygon", "bridge", "earclip", "swap", "quality")


def polytri_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "polytri" or name.startswith("polytri.")]


class Tracer:
    """Context manager collecting call counts and times per span."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # outcomes: ear hits, swaps kept, JSON bytes
        self._children: list[float] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        calls, total, self_time, counts, children = (
            self.calls, self.total, self.self_time, self.counts, self._children,
        )

        def traced(*args, **kwargs):
            if name == "earclip.clip":
                if kwargs.get("post_emit") is not None:
                    kwargs["post_emit"] = self.wrap(POST_EMIT, kwargs["post_emit"])
                elif len(args) > 3 and args[3] is not None:
                    args = (*args[:3], self.wrap(POST_EMIT, args[3]), *args[4:])
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if name == "earclip.is_ear":
                counts["ear_hits"] += result is True
            elif name == "swap.try_swap":
                counts["swaps_accepted"] += result is not None
            elif name == "formats.to_json":
                counts["json_bytes"] += len(result.encode("utf-8"))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        modules = polytri_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for span, module, attr in SPANS:
            # A function that a refactor removed is skipped; its metrics read 0.
            fn = getattr(by_name.get(module), attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(span, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._saved.append((m, key, fn))
                        setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, key, fn in reversed(self._saved):
            setattr(m, key, fn)
        self._saved.clear()

    def module_self(self) -> dict[str, float]:
        out = dict.fromkeys(MODULES, 0.0)
        for span, seconds in self.self_time.items():
            out[span.partition(".")[0]] += seconds
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (names without units)."""
        c, t, s = self.calls, self.total, self.self_time
        ear_calls = c["earclip.is_ear"]
        bridges = c["bridge.find_bridge"]
        swaps = c["swap.try_swap"]
        out = {
            "earclip.is_ear_calls": ear_calls,
            "earclip.is_ear_s": t["earclip.is_ear"],
            "earclip.ear_hit_ratio": self.counts["ear_hits"] / ear_calls if ear_calls else 0.0,
            "earclip.select_calls": c["earclip.select"],
            "earclip.select_self_s": s["earclip.select"],
            "earclip.clip_self_s": s["earclip.clip"],
            "earclip.fallbacks": c["earclip.fallback"],
            "bridge.eliminate_holes_s": t["bridge.eliminate_holes"],
            "bridge.find_bridge_self_s": s["bridge.find_bridge"],
            "bridge.crossing_tests": c["bridge.crossing"],
            "bridge.crossing_s": t["bridge.crossing"],
            "bridge.crossing_tests_per_bridge": c["bridge.crossing"] / bridges if bridges else 0.0,
            "swap.post_emit_s": t[POST_EMIT],
            "swap.try_swap_calls": swaps,
            "swap.swaps_accepted": self.counts["swaps_accepted"],
            "swap.accept_ratio": self.counts["swaps_accepted"] / swaps if swaps else 0.0,
            "polygon.normalize_s": t["polygon.normalize"],
            "polygon.build_ring_s": t["polygon.build_ring"],
            "polygon.refresh_node_calls": c["polygon.refresh_node"],
            "quality.report_s": t["quality.report"],
            "formats.parse_s": t["formats.parse"],
            "formats.to_json_s": t["formats.to_json"],
            "formats.json_bytes": self.counts["json_bytes"],
        }
        for module, seconds in self.module_self().items():
            out[f"{module}.self_s"] = seconds
        return out
