"""Output gate: the small benchmark inputs still give their pinned output.

``benchmarks/golden.json`` pins the sha256 prefix of the ``--emit json``
output of every benchmark input and algorithm. This test recomputes it with
the benchmark's own ``job_digest`` for the ``small`` and ``fixture``
families and the first two members of the ``star``, ``comb`` and ``holes``
families (609 inputs x 3 algorithms), so any change to the triangle lists,
the quality numbers or the JSON bytes fails here, as does a mesh that
fails the benchmark's mesh check. The large families reach the dense
grid's row clip (``comb``) and the fallback's ear tests of the current ring
(``holes``). It only reads ``benchmarks/``.
"""

import sys
from pathlib import Path

import pytest

import polytri

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import pin  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# members checked per family, from the first; None checks them all
MEMBERS = {"small": None, "fixture": None, "star": 2, "comb": 2, "holes": 2}


@pytest.mark.parametrize("family", list(MEMBERS))
def test_output_matches_golden_digest(family):
    golden = run.load_golden()
    ids = workloads.family_members()[family][: MEMBERS[family]]
    mismatches = []
    for input_id in ids:
        poly = workloads.make_polygon(polytri, run.ROOT, input_id)
        for algorithm, want in zip(workloads.ALGORITHMS, golden[input_id], strict=True):
            got, problems = pin.job_digest(polytri, poly, algorithm)
            if got != want or problems:
                mismatches.append((input_id, algorithm, got, want, problems[:3]))
    jobs = len(ids) * len(workloads.ALGORITHMS)
    assert not mismatches, f"{len(mismatches)} of {jobs} jobs differ: {mismatches[:5]}"
