"""Self-tests of the benchmark's own code.

    python3 -m pytest benchmarks -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from meshcheck import check_mesh  # noqa: E402
from tracer import MODULES, Tracer, polytri_modules  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture()
def pt():
    # a fresh import per test: run.main() re-imports polytri as part of set-up
    return run.load_polytri()


@pytest.fixture()
def holed(pt):
    return pt.generate_corpus(5, 1, (40, 40), (2, 2))[0]


def _globals_snapshot():
    return {(m.__name__, k): id(v) for m in polytri_modules() for k, v in vars(m).items()}


def test_tracer_restores_every_wrapped_global(pt, holed):
    before = _globals_snapshot()
    original = pt.earclip.is_ear
    build_ring = pt.polygon.build_ring
    with Tracer() as tracer:
        assert pt.earclip.is_ear is not original
        # names imported into other modules are rebound to the same wrapper
        assert pt.pipeline.build_ring is pt.polygon.build_ring is not build_ring
        pt.triangulate_polygon(holed, "improved", 30.0)
    assert _globals_snapshot() == before
    assert pt.earclip.is_ear is original
    assert tracer.calls["earclip.is_ear"] > 0


def test_tracer_restores_globals_after_an_exception(pt):
    before = _globals_snapshot()
    with pytest.raises(ValueError):
        with Tracer():
            pt.triangulate_polygon(pt.generate_corpus(1, 1, (10, 10))[0], "no-such-algorithm")
    assert _globals_snapshot() == before


def test_tracer_module_self_times_cover_the_job(pt, holed):
    with Tracer() as tracer:
        start = run.perf_counter()
        tri, _ = pt.triangulate_polygon(holed, "improved", 30.0)
        pt.triangulation_to_json(tri, pt.report(tri))
        wall = run.perf_counter() - start
    m = tracer.metrics()
    covered = sum(m[f"{mod}.self_s"] for mod in MODULES)
    assert 0.9 * wall <= covered <= wall
    assert m["bridge.crossing_tests"] > 0 and m["swap.try_swap_calls"] > 0
    assert m["swap.post_emit_s"] > 0.0
    assert 0.0 < m["earclip.ear_hit_ratio"] <= 1.0


@pytest.mark.parametrize("algorithm", workloads.ALGORITHMS)
def test_mesh_check_accepts_library_output(pt, holed, algorithm):
    tri, _ = pt.triangulate_polygon(holed, algorithm, 30.0)
    assert check_mesh(tri, holed) == []


def test_mesh_check_rejects_a_dropped_triangle(pt, holed):
    tri, _ = pt.triangulate_polygon(holed, "basic", 30.0)
    tri.triangles.pop(len(tri.triangles) // 2)
    assert check_mesh(tri, holed)


def test_mesh_check_rejects_two_swapped_indices(pt, holed):
    tri, _ = pt.triangulate_polygon(holed, "basic", 30.0)
    t = next(t for t in tri.triangles if not t.degenerate)
    t.a, t.b = t.b, t.a
    assert check_mesh(tri, holed)


def test_mesh_check_rejects_an_index_outside_the_table(pt, holed):
    tri, _ = pt.triangulate_polygon(holed, "basic", 30.0)
    tri.triangles[0].c = len(tri.vertex_table)
    assert check_mesh(tri, holed)


def test_mesh_check_rejects_a_triangle_moved_across_the_ring(pt):
    # Swap one vertex of two triangles: counts stay right, balance breaks.
    poly = pt.generate_corpus(9, 1, (30, 30))[0]
    tri, _ = pt.triangulate_polygon(poly, "traditional", 30.0)
    t1, t2 = tri.triangles[0], tri.triangles[-1]
    t1.nodes, t2.nodes = (t1.nodes[0], t1.nodes[1], t2.nodes[2]), (t2.nodes[0], t2.nodes[1], t1.nodes[2])
    t1.c, t2.c = t2.c, t1.c
    assert check_mesh(tri, poly)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(pt, workload, tmp_path):
    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        out = []
        for inp in workloads.setup(pt, run.ROOT, workload, seed, d):
            data = inp.path.read_bytes() if inp.path else pt.serialize_polygon(inp.poly).encode()
            out.append((inp.id, data))
        return out

    first = inputs(7, "a")
    assert first == inputs(7, "b")
    assert first != inputs(8, "c")


def test_golden_pins_every_input_and_algorithm():
    golden = run.load_golden()
    ids = [i for family in workloads.family_members().values() for i in family]
    assert sorted(golden) == sorted(ids)
    assert all(len(row) == len(workloads.ALGORITHMS) for row in golden.values())


def test_selection_only_uses_pinned_inputs():
    golden = run.load_golden()
    rng = random.Random(0)
    for workload in workloads.WORKLOADS:
        for seed in [rng.randrange(10**9) for _ in range(20)]:
            assert set(workloads.select(workload, seed)) <= golden.keys()


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_matches_the_spec(trace, capsys):
    assert run.main(["--workload", "large_rings", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[-2].startswith("run-record ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "large_rings", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
