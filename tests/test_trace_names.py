"""The benchmark tracer's span table still names functions of polytri.

``benchmarks/tracer.SPANS`` lists every traced function by module and
attribute name, and the tracer wraps only the names it finds: after a rename
the span is simply never wrapped and its per-layer metrics read 0 without
an error. These tests fail instead. They only read ``benchmarks/``.
"""

import importlib
import inspect
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import tracer  # noqa: E402


def test_every_span_resolves_to_a_callable():
    missing = [
        (span, module, attr)
        for span, module, attr in tracer.SPANS
        if not callable(getattr(importlib.import_module(f"polytri.{module}"), attr, None))
    ]
    assert missing == []


def test_post_emit_is_keyword_only_in_clip():
    # the tracer wraps the swap hook where _clip receives it by keyword
    from polytri import earclip

    param = inspect.signature(earclip._clip).parameters.get("post_emit")
    assert param is not None
    assert param.kind is inspect.Parameter.KEYWORD_ONLY
