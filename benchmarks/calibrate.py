"""Machine-speed probe used to normalize benchmark times.

On a shared virtual machine the speed of one core drifts by up to 2x over
seconds (other tenants on the same physical cores), which swamps any
difference between two versions of polytri. The benchmark therefore times a
fixed pure-Python kernel (linked-node walks with float math, a set, a sort
and string formatting: the same kinds of work polytri does) between jobs and
reports every time scaled to a machine on which one kernel call takes
``REFERENCE_S``:

    normalized = measured * REFERENCE_S / kernel_time_around_the_measurement

The kernel never calls polytri, so a change to polytri cannot move it.
"""

from __future__ import annotations

import math
from time import perf_counter

REFERENCE_S = 1e-3


class _Node:
    __slots__ = ("x", "y", "next")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y
        self.next = self


def _ring(n: int = 1400) -> list[_Node]:
    nodes = []
    for k in range(n):
        theta = 2.0 * math.pi * k / n
        r = 1.0 + 0.5 * ((k * 7919) % 13) / 13.0
        nodes.append(_Node(r * math.cos(theta), r * math.sin(theta)))
    for a, b in zip(nodes, nodes[1:] + nodes[:1]):
        a.next = b
    return nodes


_NODES = _ring()


def kernel() -> tuple:
    """Fixed work of roughly a millisecond; returns a checksum."""
    acc = 0.0
    reflex = set()
    for p in _NODES:
        q = p.next
        r = q.next
        z = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
        if z > 0.0:
            acc += math.atan2(z, q.x * r.x + q.y * r.y)
        else:
            reflex.add(p)
    keys = sorted((n.x * n.x + n.y * n.y, i) for i, n in enumerate(_NODES))
    text = ",".join(f"{n.x!r}" for n in _NODES[::4])
    return acc, len(reflex), keys[0], len(text)


def probe(reps: int = 3) -> float:
    """Current kernel time in seconds: the fastest of ``reps`` calls."""
    best = math.inf
    for _ in range(reps):
        start = perf_counter()
        kernel()
        best = min(best, perf_counter() - start)
    return best
