"""polytri benchmark: end-to-end and per-layer metrics for one workload.

    python3 benchmarks/run.py --workload large_rings --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/``, nothing is installed. Workloads (see ``workloads.py``):

* ``large_rings``: a 2000-vertex star and a 1603-vertex comb through
  ``triangulate_polygon`` with every algorithm (the clip loop dominates);
* ``holes_bridge``: three 800-vertex polygons with six holes each (hole
  bridging dominates);
* ``corpus_cli``: 303 small polygons, one in-process ``polytri.cli.main``
  call per file and algorithm (per-call fixed costs dominate).

Load is a closed loop in one process and one thread: each job starts when
the previous one returns. A job is one (input, algorithm) pair: for the
library workloads ``triangulate_polygon``, ``report`` and
``triangulation_to_json``; for ``corpus_cli`` one ``polytri triangulate``
call writing JSON to a file.

A run sets up (import plus input generation) three times, then triangulates
every job once untimed and checks it: the mesh check of ``meshcheck.py``,
and the sha256 of its JSON output against ``golden.json``. It then repeats
timed passes over all jobs for ``--seconds``; a job fails if it raises,
exits non-zero, belongs to a pair that failed the check, or its output
digest differs from the pinned one. ``wall_s`` and the ``kvps`` sum each
job's median time over the passes; ``job_p50_ms`` and ``job_p95_ms`` are
percentiles over those per-job medians. With ``--trace 1`` the passes alternate
between untraced and traced (``tracer.py``) and the per-layer metrics are
reported instead of the end-to-end ones.

Times are normalized for the drifting speed of a shared machine: every
job, set-up and span time is scaled by a speed probe taken around it (see
``calibrate.py``), so "s" and "ms" mean seconds on a machine where the probe
kernel takes 1 ms. The run record also gives the raw wall time of a pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json`` at the checkout root. The line before
it, starting ``run-record``, holds the run's context: Python version, git
sha, source digest, processor count, seed and the sample count behind each
median and percentile.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from meshcheck import check_mesh
from tracer import MODULES, Tracer
from workloads import ALGORITHMS, BOUND, CLI_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
DIGEST_HEX = 16  # golden.json stores the first 16 hex digits of each sha256
SETUP_REPS = 3
PROBE_EVERY_S = 0.05
PROBE_WINDOW = 5
# ROADMAP north-star aim 1: star polygon, n = 2000, best of 3 (+-10-20% noise).
ROADMAP_STAR_S = {"traditional": 0.29, "basic": 0.54, "improved": 0.40}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]


def load_golden() -> dict[str, list[str]]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["jobs"]


def pinned(golden, input_id: str, algorithm: str):
    row = golden.get(input_id)
    return row[ALGORITHMS.index(algorithm)] if row else None


def load_polytri():
    """Import polytri afresh from ``src/`` (set-up time includes the import)."""
    for name in [n for n in sys.modules if n == "polytri" or n.startswith("polytri.")]:
        del sys.modules[name]
    pt = importlib.import_module("polytri")
    importlib.import_module("polytri.cli")
    return pt


def library_job(pt, inp, algorithm: str, out: Path):
    """(job seconds, triangulate_polygon seconds, JSON bytes) of one job."""
    start = perf_counter()
    tri, _ = pt.triangulate_polygon(inp.poly, algorithm, BOUND)
    mid = perf_counter()
    text = pt.triangulation_to_json(tri, pt.report(tri))
    end = perf_counter()
    return end - start, mid - start, text.encode("utf-8")


def cli_job(pt, inp, algorithm: str, out: Path):
    """(job seconds, job seconds, output bytes or None) of one CLI call."""
    argv = ["triangulate", "--algorithm", algorithm, "--input", str(inp.path), "--output", str(out)]
    out.unlink(missing_ok=True)
    start = perf_counter()
    code = pt.cli.main(argv)
    elapsed = perf_counter() - start
    return elapsed, elapsed, out.read_bytes() if code == 0 else None


def verify(pt, jobs, golden) -> tuple[set, dict]:
    """Triangulate every job once through the library and check it.

    Returns the (input id, algorithm) pairs that failed, and the quality
    report of every passing job by algorithm. CLI inputs are parsed from
    their files, as the CLI sees them.
    """
    bad = set()
    reports = defaultdict(list)
    for inp, algorithm in jobs:
        poly = inp.poly
        try:
            if inp.path is not None:
                poly = pt.parse_polygon(inp.path.read_text(encoding="utf-8"))
            tri, _ = pt.triangulate_polygon(poly, algorithm, BOUND)
            rep = pt.report(tri)
            text = pt.triangulation_to_json(tri, rep)
        except Exception:
            print(f"{inp.id} {algorithm}: raised\n{traceback.format_exc()}", file=sys.stderr)
            bad.add((inp.id, algorithm))
            continue
        problems = check_mesh(tri, poly)
        if digest(text.encode("utf-8")) != pinned(golden, inp.id, algorithm):
            problems.append("output digest differs from golden.json")
        if problems:
            print(f"{inp.id} {algorithm}: " + "; ".join(problems[:3]), file=sys.stderr)
            bad.add((inp.id, algorithm))
        else:
            reports[algorithm].append(rep)
    return bad, reports


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_sha(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "polytri").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:DIGEST_HEX]


class Pass:
    """One pass over every job, timed and scaled by the speed probe.

    The probe runs before the first job and again whenever
    ``PROBE_EVERY_S`` has passed since the last one. A job's time is scaled
    by the median of the ``PROBE_WINDOW`` probes nearest to it, which
    follows drift over a few seconds without passing on the noise of a
    single probe.
    """

    def __init__(self):
        self.raw: list[tuple[int, float, float, int]] = []  # job, job s, triangulate s, probe
        self.probes = [calibrate.probe()]
        self._last = perf_counter()

    def add(self, i: int, elapsed: float, tri_elapsed: float) -> None:
        self.raw.append((i, elapsed, tri_elapsed, len(self.probes) - 1))
        if perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def probe(self) -> None:
        self.probes.append(calibrate.probe())
        self._last = perf_counter()

    def finish(self) -> None:
        """Take the closing probe and scale every job time."""
        self.probe()
        half = PROBE_WINDOW // 2
        self.times = []  # job index, scaled job s, scaled triangulate s
        for i, elapsed, tri_elapsed, k in self.raw:
            lo = max(0, min(k + 1 - half, len(self.probes) - PROBE_WINDOW))
            scale = calibrate.REFERENCE_S / statistics.median(self.probes[lo : lo + PROBE_WINDOW])
            self.times.append((i, elapsed * scale, tri_elapsed * scale))
        self.raw_wall = sum(e for _, e, _, _ in self.raw)
        self.wall = sum(e for _, e, _ in self.times)


def measure(pt, jobs, runner, out, golden, bad, seconds, trace):
    """Timed passes over ``jobs`` for ``seconds``; see the module docstring.

    Returns the untraced and the traced passes, the per-layer metrics of
    each traced pass, and the attempted and failed job counts.
    """
    passes = {False: [], True: []}
    traced_metrics = []
    attempted = failed = 0
    traced = False
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        tracer = Tracer() if traced else None
        p = Pass()
        with tracer or nullcontext():
            for i, (inp, algorithm) in enumerate(jobs):
                attempted += 1
                try:
                    elapsed, tri_elapsed, data = runner(pt, inp, algorithm, out)
                except Exception:
                    print(f"{inp.id} {algorithm}: raised\n{traceback.format_exc()}", file=sys.stderr)
                    failed += 1
                    continue
                p.add(i, elapsed, tri_elapsed)
                if (
                    data is None
                    or (inp.id, algorithm) in bad
                    or digest(data) != pinned(golden, inp.id, algorithm)
                ):
                    failed += 1
        p.finish()
        passes[traced].append(p)
        if traced:
            m = tracer.metrics()
            # span times are raw seconds: scale them like the pass's job times
            scale = p.wall / p.raw_wall
            m = {k: v * scale if k.endswith("_s") else v for k, v in m.items()}
            m["trace.wall_s"] = p.wall
            m["trace.coverage"] = sum(m[f"{mod}.self_s"] for mod in MODULES) / p.wall
            traced_metrics.append(m)
        if perf_counter() >= deadline and (not trace or traced):
            break
        traced = trace and not traced
    return passes, traced_metrics, attempted, failed


def run(args, workdir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup_times = []
    for _ in range(SETUP_REPS):
        gc.collect()
        probes = [calibrate.probe() for _ in range(3)]
        start = perf_counter()
        pt = load_polytri()
        inputs = workloads.setup(pt, ROOT, args.workload, args.seed, workdir)
        elapsed = perf_counter() - start
        probes += [calibrate.probe() for _ in range(3)]
        setup_times.append(elapsed * calibrate.REFERENCE_S / statistics.median(probes))
    golden = load_golden()
    jobs = [(inp, algorithm) for inp in inputs for algorithm in ALGORITHMS]
    runner = cli_job if args.workload in CLI_WORKLOADS else library_job
    bad, reports = verify(pt, jobs, golden)
    out = workdir / "out.json"
    passes, traced_metrics, attempted, failed = measure(
        pt, jobs, runner, out, golden, bad, args.seconds, args.trace
    )

    job_s = defaultdict(list)
    tri_s = defaultdict(list)
    for p in passes[False]:
        for i, elapsed, tri_elapsed in p.times:
            job_s[i].append(elapsed)
            tri_s[i].append(tri_elapsed)
    medians = {i: statistics.median(v) for i, v in job_s.items()}
    tri_medians = {i: statistics.median(v) for i, v in tri_s.items()}
    latencies = sorted(medians.values())  # each job's median over the passes
    e2e = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(latencies),
        "job_p50_ms": 1e3 * statistics.median(latencies),
        "job_p95_ms": 1e3 * quantile(latencies, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for algorithm in ALGORITHMS:
        idx = [i for i, (_, a) in enumerate(jobs) if a == algorithm and i in tri_medians]
        vertices = sum(jobs[i][0].vertices for i in idx)
        seconds = sum(tri_medians[i] for i in idx)
        e2e[f"{algorithm}.kvps"] = vertices / seconds / 1e3 if seconds else 0.0
        rs = reports.get(algorithm)
        e2e[f"{algorithm}.mean_min_angle_deg"] = (
            pt.pooled(rs).average_min_angle if rs else 0.0
        )

    n_passes = len(passes[False])
    probes = [x for p in passes[False] + passes[True] for x in p.probes]
    ids = [inp.id for inp in inputs]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": ids if len(ids) <= 10 else f"{len(ids)} ids, sha256 {digest(' '.join(ids).encode())}",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(ROOT),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "jobs_per_pass": len(jobs),
        "untraced_passes": n_passes,
        "samples": {
            "setup_s": SETUP_REPS,
            "job_p50_ms and job_p95_ms (jobs)": len(latencies),
            "per-job medians (passes)": n_passes,
            "traced passes": len(traced_metrics),
            "speed probes": len(probes),
        },
        "probe_ms": {
            "reference": 1e3 * calibrate.REFERENCE_S,
            "median": 1e3 * statistics.median(probes),
            "min": 1e3 * min(probes),
            "max": 1e3 * max(probes),
        },
        "raw_wall_s_median": statistics.median(p.raw_wall for p in passes[False]),
        "failed_frac": failed / attempted,
        "verify_failures": sorted(f"{i} {a}" for i, a in bad),
    }
    if args.workload == "large_rings":
        # Raw seconds of the star jobs: ROADMAP's numbers are raw wall time.
        scale = statistics.median(p.raw_wall / p.wall for p in passes[False])
        star = {a: medians[i] * scale for i, (inp, a) in enumerate(jobs) if inp.id.startswith("star/")}
        record["roadmap_star_baseline"] = {
            a: {
                "measured_s": round(star[a], 4),
                "roadmap_s": ROADMAP_STAR_S[a],
                "ratio": round(star[a] / ROADMAP_STAR_S[a], 3),
                "within_20pct": abs(star[a] / ROADMAP_STAR_S[a] - 1.0) <= 0.2,
            }
            for a in ALGORITHMS
        }

    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = {
            name: statistics.median(m[name] for m in traced_metrics)
            for name in traced_metrics[0]
        }
        values["trace.overhead_ratio"] = statistics.median(
            p.wall for p in passes[True]
        ) / statistics.median(p.wall for p in passes[False])
        ranking = sorted(MODULES, key=lambda mod: -values[f"{mod}.self_s"])
        record["module_ranking"] = [f"{mod} {values[f'{mod}.self_s']:.4f}s" for mod in ranking]
    else:
        values = e2e

    print(f"polytri benchmark: workload {args.workload}, seed {args.seed}, "
          f"{n_passes} untraced passes of {len(jobs)} jobs, failed {failed}/{attempted}")
    units = {s["name"]: s["unit"] for s in spec["end_to_end"] + spec["per_layer"]}
    for name, value in {**e2e, **values}.items():
        print(f"  {name:34s} {value:14.6f} {units[name]}")
    print("run-record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    missing = [
        str(path.relative_to(ROOT))
        for path in (ROOT / "src" / "polytri" / "__init__.py", ROOT / "tests" / "fixtures", ROOT / "BENCHMARK.json")
        if not path.exists()
    ]
    if missing:
        print(f"benchmark: not a polytri source checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="polytri-", dir=build_dir) as tmp:
        return run(args, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
