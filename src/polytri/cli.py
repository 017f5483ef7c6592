"""Command line interface.

Three subcommands: ``triangulate`` runs one polygon through the pipeline
and emits JSON, OBJ, SVG, or a quality table; ``gen-corpus`` writes a
reproducible set of random polygon files; ``bench`` triangulates a corpus
directory with several algorithm configurations and prints a comparison
table.

Exit codes are stable for scripting: 0 success, 2 input/parse problem
or unwritable output, 3 geometry failure, 4 usage error.

``main`` may be called repeatedly in one process; every call reuses one
parser, built on the first call (each ``parse_args`` returns a fresh
namespace, so nothing carries over from one call to the next).
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import sys
from pathlib import Path

from .geom import GeometryError
from .polygon import PolygonWithHoles, validate_polygon
from .earclip import EarSearchFailed
from .pipeline import ALGORITHMS, _check_algorithm, triangulate_polygon
from .quality import compare, pooled, report
from .corpus import generate_corpus
from .formats import (
    ParseError,
    parse_polygon,
    serialize_polygon,
    triangulation_to_json,
    triangulation_to_obj,
)
from .svg import render_svg

__all__ = ["main"]

log = logging.getLogger("polytri")

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GEOMETRY = 3
EXIT_USAGE = 4


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 4."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        lo = hi = text
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected MIN..MAX, got {text!r}") from None


def _bound(option: str, text: str) -> float:
    """One angle bound given to ``option``; ValueError, naming the option,
    unless it is a non-negative number of degrees."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value >= 0.0:  # also rejects NaN
        raise ValueError(f"{option} takes non-negative numbers of degrees, got {text.strip()!r}")
    return value


@functools.cache
def _build_parser() -> _Parser:
    p = _Parser(prog="polytri", description="Polygon triangulation by ear clipping.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("triangulate", help="triangulate one polygon file")
    t.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    t.add_argument("--bound", default="30",
                   help="sharpness threshold in degrees for 'improved' (default 30)")
    t.add_argument("--validate", action="store_true",
                   help="check hole containment/disjointness before triangulating")
    t.add_argument("--input", required=True, metavar="F")
    t.add_argument("--output", metavar="F", help="write here instead of stdout")
    t.add_argument("--format", choices=("text", "geojson"), default="text",
                   help="input format (default text)")
    t.add_argument("--emit", choices=("json", "obj", "svg", "stats"), default="json")
    t.add_argument("--emit-degenerate", metavar="F",
                   help="also dump the hole-eliminated ring to this file")

    g = sub.add_parser("gen-corpus", help="generate random polygon files")
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--count", type=int, required=True)
    g.add_argument("--vertices", type=_parse_range, default=(4, 200), metavar="MIN..MAX")
    g.add_argument("--holes", type=_parse_range, default=(0, 0), metavar="MIN..MAX")
    g.add_argument("--out-dir", required=True, metavar="D")

    b = sub.add_parser("bench", help="compare algorithms over a corpus directory")
    b.add_argument("--corpus", required=True, metavar="D")
    b.add_argument("--algorithms", default="basic,traditional,improved",
                   help="comma-separated subset of basic,traditional,improved")
    b.add_argument("--bounds", default="30",
                   help="comma-separated bounds for 'improved' (default 30)")
    b.add_argument("--report", choices=("csv", "md"), default="md")
    return p


def _write_output(data: str | bytes, path: str | None) -> None:
    if path is None:
        if isinstance(data, bytes):
            sys.stdout.buffer.write(data)
        else:
            sys.stdout.write(data)
    else:
        mode = "wb" if isinstance(data, bytes) else "w"
        with open(path, mode) as f:
            f.write(data)


def _cmd_triangulate(args) -> int:
    bound = _bound("--bound", args.bound)
    text = Path(args.input).read_text(encoding="utf-8")
    poly = parse_polygon(text, fmt=args.format)  # already normalized
    if args.validate:
        problems = validate_polygon(poly)
        if problems:
            for problem in problems:
                print(f"polytri: invalid polygon: {problem}", file=sys.stderr)
            return EXIT_GEOMETRY
    if bound != 30.0 and args.algorithm != "improved":
        log.warning("--bound has no effect with --algorithm %s", args.algorithm)
    tri, degen = triangulate_polygon(poly, args.algorithm, bound)
    if args.emit_degenerate:
        dump = serialize_polygon(PolygonWithHoles(degen.ring))
        Path(args.emit_degenerate).write_text(dump, encoding="utf-8")
    if args.emit == "json":
        _write_output(triangulation_to_json(tri, report(tri)), args.output)
    elif args.emit == "obj":
        _write_output(triangulation_to_obj(tri), args.output)
    elif args.emit == "svg":
        _write_output(render_svg(poly, tri), args.output)
    else:
        label = args.algorithm if args.algorithm != "improved" else f"improved({bound:g})"
        _write_output(compare([(label, report(tri))], fmt="text"), args.output)
    return EXIT_OK


def _cmd_gen_corpus(args) -> int:
    polys = generate_corpus(args.seed, args.count, args.vertices, args.holes)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, poly in enumerate(polys):
        (out_dir / f"poly_{i:04d}.poly").write_text(serialize_polygon(poly), encoding="utf-8")
    print(f"wrote {len(polys)} polygons to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _in_file(path: Path, fn, *args):
    """``fn(*args)``, with ``path`` put in front of a parse or geometry error's
    message; text that is not UTF-8 becomes a ParseError naming ``path``."""
    try:
        return fn(*args)
    except (ParseError, GeometryError) as e:
        e.args = (f"{path}: {e}",)
        raise
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: {e}") from e


def _cmd_bench(args) -> int:
    corpus_dir = Path(args.corpus)
    files = sorted(corpus_dir.glob("*.poly"))
    if not files:
        print(f"polytri: no .poly files in {corpus_dir}", file=sys.stderr)
        return EXIT_PARSE
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ValueError(f"--algorithms lists no algorithm: {args.algorithms!r}")
    for a in algorithms:
        _check_algorithm(a)
    bounds = [_bound("--bounds", b) for b in args.bounds.split(",") if b.strip()]
    if not bounds and "improved" in algorithms:
        raise ValueError(f"--bounds lists no bound for 'improved': {args.bounds!r}")
    polys = [_in_file(f, parse_polygon, _in_file(f, f.read_text, "utf-8")) for f in files]
    configs: list[tuple[str, str, float]] = []
    for a in algorithms:
        if a == "improved":
            configs.extend((f"improved({b:g})", a, b) for b in bounds)
        else:
            configs.append((a, a, 0.0))
    rows = []
    for label, algorithm, bound in configs:
        reports = []
        for f, poly in zip(files, polys):
            tri, _ = _in_file(f, triangulate_polygon, poly, algorithm, bound)
            reports.append(report(tri))
        rows.append((label, pooled(reports)))
    sys.stdout.write(compare(rows, fmt=args.report))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, format="polytri: %(levelname)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "triangulate":
            return _cmd_triangulate(args)
        if args.command == "gen-corpus":
            return _cmd_gen_corpus(args)
        return _cmd_bench(args)
    except (ParseError, UnicodeDecodeError) as e:
        print(f"polytri: parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as e:  # an unreadable input or an unwritable output path
        print(f"polytri: file error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except EarSearchFailed as e:
        print(f"polytri: geometry error: {e}", file=sys.stderr)
        print("surviving ring: " + " ".join(f"{p.x!r},{p.y!r}" for p in e.points),
              file=sys.stderr)
        return EXIT_GEOMETRY
    except GeometryError as e:
        print(f"polytri: geometry error: {e}", file=sys.stderr)
        return EXIT_GEOMETRY
    except ValueError as e:
        print(f"polytri: error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
