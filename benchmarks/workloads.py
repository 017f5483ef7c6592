"""Benchmark inputs: pinned input families and the three workloads.

Every input belongs to a finite family whose members are generated from
fixed per-member seeds, so the golden digest of every (input, algorithm)
job can be stored once in ``golden.json`` and checked for any run seed.
The run seed only chooses which members a workload uses:

* ``large_rings``: one 2000-vertex star (family ``star``, 32 members, from
  ``generate_corpus``) and one 400-tooth comb of 1603 vertices with seeded
  tooth heights (family ``comb``, 32 members, built here).
* ``holes_bridge``: three polygons with an 800-vertex outer ring and six
  holes each (family ``holes``, 24 members), one polygon per hole size
  of 44, 60 and 76 vertices.
* ``corpus_cli``: 300 small polygons, one per size slot (family ``small``,
  two members per slot; 4-120 vertices, 0-2 holes of 4-10 vertices), plus
  the three ``tests/fixtures`` polygons (family ``fixture``).

The slot layout of ``small`` and the hole sizes of ``holes`` fix the size
profile of a pass, so seeds change polygon shapes but not how many vertices
and bridge candidates a pass holds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ALGORITHMS = ("traditional", "basic", "improved")
BOUND = 30.0

STAR_MEMBERS = 32
COMB_MEMBERS = 32
HOLES_MEMBERS = 24
HOLE_SIZES = (44, 60, 76)  # holes member k has six holes of HOLE_SIZES[k % 3] vertices
SMALL_SLOTS = 300
SMALL_PER_SLOT = 2
FIXTURES = ("comb", "spiral", "square_hole")

STAR_VERTICES = 2000
COMB_TEETH = 400

_STAR_SEED = 1000
_COMB_SEED = 2000
_HOLES_SEED = 3000
_SMALL_SEED = 10000


@dataclass
class Input:
    """One polygon a workload triangulates with every algorithm.

    ``path`` is set for CLI workloads: the ``.poly`` file the CLI reads.
    """

    id: str
    poly: object
    vertices: int
    path: Optional[Path] = None


def vertex_count(poly) -> int:
    return len(poly.outer) + sum(len(h) for h in poly.holes)


def comb_polygon(pt, rng: random.Random, teeth: int = COMB_TEETH):
    """Comb with ``teeth`` unit-wide teeth of seeded height on a spine.

    All reflex vertices sit on the line y = 0, at the tooth roots, unlike a
    star whose reflex vertices spread around the centre. 4 * teeth + 3
    vertices, counter-clockwise.
    """
    width = 2.0 * teeth + 1.0
    pts = [(0.0, -1.0), (width, -1.0), (width, 0.0)]
    for t in reversed(range(teeth)):
        x0 = 1.0 + 2.0 * t
        x1 = x0 + 1.0
        h = rng.uniform(2.0, 10.0)
        pts += [(x1, 0.0), (x1, h), (x0, h), (x0, 0.0)]
    return pt.normalize(pt.PolygonWithHoles(pt.Ring(pts)))


def _small_shape(k: int) -> tuple[int, int]:
    """(vertex count, hole count) of ``small`` member ``k``."""
    slot = k // SMALL_PER_SLOT
    return 4 + slot * 116 // (SMALL_SLOTS - 1), slot % 3


def family_members() -> dict[str, list[str]]:
    """Every pinned input id, by family."""
    return {
        "star": [f"star/{k}" for k in range(STAR_MEMBERS)],
        "comb": [f"comb/{k}" for k in range(COMB_MEMBERS)],
        "holes": [f"holes/{k}" for k in range(HOLES_MEMBERS)],
        "small": [f"small/{k}" for k in range(SMALL_SLOTS * SMALL_PER_SLOT)],
        "fixture": [f"fixture/{name}" for name in FIXTURES],
    }


def fixture_path(root: Path, name: str) -> Path:
    return root / "tests" / "fixtures" / f"{name}.poly"


def make_polygon(pt, root: Path, input_id: str):
    """Generate (or, for fixtures, parse) the polygon behind ``input_id``."""
    family, _, key = input_id.partition("/")
    if family == "star":
        n = STAR_VERTICES
        return pt.generate_corpus(_STAR_SEED + int(key), 1, (n, n))[0]
    if family == "comb":
        return comb_polygon(pt, random.Random(_COMB_SEED + int(key)))
    if family == "holes":
        k = int(key)
        size = HOLE_SIZES[k % len(HOLE_SIZES)]
        return pt.generate_corpus(_HOLES_SEED + k, 1, (800, 800), (6, 6), (size, size))[0]
    if family == "small":
        k = int(key)
        n, holes = _small_shape(k)
        return pt.generate_polygon(random.Random(_SMALL_SEED + k), n, holes, (4, 10))
    if family == "fixture":
        return pt.parse_polygon(fixture_path(root, key).read_text(encoding="utf-8"))
    raise ValueError(f"unknown input family in {input_id!r}")


def select(workload: str, seed: int) -> list[str]:
    """Input ids the run seed picks for ``workload``, in job order."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "large_rings":
        return [f"star/{rng.randrange(STAR_MEMBERS)}", f"comb/{rng.randrange(COMB_MEMBERS)}"]
    if workload == "holes_bridge":
        per_size = HOLES_MEMBERS // len(HOLE_SIZES)
        return [
            f"holes/{rng.randrange(per_size) * len(HOLE_SIZES) + size}"
            for size in range(len(HOLE_SIZES))
        ]
    if workload == "corpus_cli":
        ids = [
            f"small/{slot * SMALL_PER_SLOT + rng.randrange(SMALL_PER_SLOT)}"
            for slot in range(SMALL_SLOTS)
        ]
        return ids + [f"fixture/{name}" for name in FIXTURES]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("large_rings", "holes_bridge", "corpus_cli")
# Workloads whose jobs are in-process CLI calls rather than library calls.
CLI_WORKLOADS = frozenset({"corpus_cli"})


def setup(pt, root: Path, workload: str, seed: int, workdir: Path) -> list[Input]:
    """Generate the workload's inputs.

    CLI workloads write each generated polygon to a ``.poly`` file in
    ``workdir`` and read the fixtures from ``tests/fixtures`` as they are.
    """
    inputs = []
    for input_id in select(workload, seed):
        poly = make_polygon(pt, root, input_id)
        inp = Input(input_id, poly, vertex_count(poly))
        if workload in CLI_WORKLOADS:
            family, _, key = input_id.partition("/")
            if family == "fixture":
                inp.path = fixture_path(root, key)
            else:
                inp.path = workdir / f"{family}_{key}.poly"
                inp.path.write_text(pt.serialize_polygon(poly), encoding="utf-8")
        inputs.append(inp)
    return inputs
