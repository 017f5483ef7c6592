"""Regenerate ``golden.json``: the pinned output digest of every benchmark job.

    python3 benchmarks/pin.py

For every member of every input family (``workloads.family_members``) and
every algorithm, triangulates the polygon, checks the mesh, and stores the
first 16 hex digits of the sha256 of its ``--emit json`` output. Refuses to
pin a result that fails the mesh check, or whose digest changes when the
polygon goes through the ``.poly`` text format first (as the CLI reads it).

The digests are the output contract later changes are held to: re-pin only
for a change that alters output on purpose, and say so.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from meshcheck import check_mesh
from workloads import ALGORITHMS, BOUND


def job_digest(pt, poly, algorithm: str) -> tuple[str, list[str]]:
    tri, _ = pt.triangulate_polygon(poly, algorithm, BOUND)
    text = pt.triangulation_to_json(tri, pt.report(tri))
    return run.digest(text.encode("utf-8")), check_mesh(tri, poly)


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    pt = run.load_polytri()
    jobs = {}
    failures = 0
    for family, ids in workloads.family_members().items():
        for input_id in ids:
            poly = workloads.make_polygon(pt, run.ROOT, input_id)
            reparsed = pt.parse_polygon(pt.serialize_polygon(poly))
            row = []
            for algorithm in ALGORITHMS:
                d, problems = job_digest(pt, poly, algorithm)
                if job_digest(pt, reparsed, algorithm)[0] != d:
                    problems.append("digest changes after a .poly round trip")
                if problems:
                    print(f"{input_id} {algorithm}: {'; '.join(problems[:3])}", file=sys.stderr)
                    failures += 1
                row.append(d)
            jobs[input_id] = row
        print(f"pinned {family}: {len(ids)} inputs", file=sys.stderr)
    if failures:
        print(f"{failures} jobs failed; golden.json left unchanged", file=sys.stderr)
        return 1
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in jobs.items()]
    header = {
        "about": "sha256 (first 16 hex digits) of the --emit json output per input and algorithm",
        "algorithms": list(ALGORITHMS),
        "bound": BOUND,
    }
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in header.items())
    run.GOLDEN.write_text(
        "{\n" + body + ',\n"jobs": {\n' + ",\n".join(lines) + "\n}\n}\n", encoding="utf-8"
    )
    print(f"wrote {run.GOLDEN} ({len(jobs)} inputs)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
