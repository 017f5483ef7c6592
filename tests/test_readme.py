"""The documented surface: the README quick start runs and every ``__all__`` resolves."""

import contextlib
import importlib
import io
import pkgutil
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


def test_every_module_all_resolves_without_duplicates():
    names = [m.name for m in pkgutil.iter_modules(polytri.__path__) if not m.name.startswith("_")]
    assert "swap" in names and "earclip" in names
    for name in names:
        module = importlib.import_module(f"polytri.{name}")
        exported = module.__all__
        assert len(set(exported)) == len(exported), name
        missing = [attr for attr in exported if not hasattr(module, attr)]
        assert missing == [], name
