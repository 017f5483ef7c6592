"""Every script in ``demos/`` runs to the end and prints.

Each runs from a copy under ``tmp_path``, next to a copy of the test
fixtures it may read, so the SVGs it writes never land in the checkout's
``demos/out/``.
"""

import contextlib
import io
import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def snapshot(directory: Path) -> dict:
    return {p.name: p.stat().st_mtime_ns for p in directory.iterdir()} if directory.exists() else {}


def test_there_are_four_demos():
    assert [p.name[:3] for p in DEMOS] == ["01_", "02_", "03_", "04_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_and_prints(demo, tmp_path):
    before = snapshot(ROOT / "demos" / "out")
    copy = tmp_path / "demos" / demo.name
    copy.parent.mkdir()
    shutil.copy(demo, copy)
    shutil.copytree(ROOT / "tests" / "fixtures", tmp_path / "tests" / "fixtures")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(copy), run_name="__main__")
    assert out.getvalue().strip()
    assert snapshot(ROOT / "demos" / "out") == before
