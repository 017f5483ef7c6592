"""The benchmark tracer's span table still names functions of polytri.

``benchmarks/tracer.SPANS`` lists every traced function by module and
attribute name, and the tracer wraps only the names it finds: after a rename
the span is simply never wrapped and its per-layer metrics read 0 without
an error. These tests fail instead, as does a span that resolves but is no
longer called through its module global. They only read ``benchmarks/``.
"""

import importlib
import inspect
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import tracer  # noqa: E402

from polytri import cli, generate_corpus, serialize_polygon  # noqa: E402


def test_every_span_resolves_to_a_callable():
    missing = [
        (span, module, attr)
        for span, module, attr in tracer.SPANS
        if not callable(getattr(importlib.import_module(f"polytri.{module}"), attr, None))
    ]
    assert missing == []


def test_every_span_is_reached(tmp_path):
    # a span that still resolves but is no longer called through its module
    # global reads 0; this input (two holes) reaches every span
    src = tmp_path / "p.poly"
    src.write_text(serialize_polygon(generate_corpus(1, 1, (60, 60), (2, 2))[0]))
    out = tmp_path / "out.json"
    with tracer.Tracer() as t:
        for algorithm in ("traditional", "basic", "improved"):
            args = ["triangulate", "--algorithm", algorithm, "--input", str(src)]
            assert cli.main([*args, "--output", str(out)]) == 0
    unreached = [name for name in (*(s[0] for s in tracer.SPANS), tracer.POST_EMIT)
                 if t.calls[name] == 0]
    assert unreached == []


def test_post_emit_is_keyword_only_in_clip():
    # the tracer wraps the swap hook where _clip receives it by keyword
    from polytri import earclip

    param = inspect.signature(earclip._clip).parameters.get("post_emit")
    assert param is not None
    assert param.kind is inspect.Parameter.KEYWORD_ONLY
