"""The documented surface: the README quick start runs and ``__all__`` resolves."""

import contextlib
import io
import re
from pathlib import Path

import polytri

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_all_names_resolve():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block.group(1), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "8" and lines[-1] == "2"

    assert len(set(polytri.__all__)) == len(polytri.__all__)
    missing = [name for name in polytri.__all__ if not hasattr(polytri, name)]
    assert missing == []
