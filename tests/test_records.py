"""The library's result records: fields, defaults, immutability, text, and
what importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from polytri import Ring
from polytri.bridge import BridgeEdge, DegenerateRing
from polytri.quality import QualityReport

REPO = Path(__file__).resolve().parent.parent


def records():
    ring = Ring([(0, 0), (1, 0), (0, 1)])
    return [
        (BridgeEdge, ("outer_vertex", "hole_vertex", "length"), ((0, 2), (1, 0), 1.5)),
        (DegenerateRing, ("ring", "indices", "bridges"), (ring, (0, 1, 2), ())),
        (
            QualityReport,
            ("bin_fractions", "average_min_angle", "triangle_count", "excluded_degenerate"),
            ((0.5, 0.5, 0.0, 0.0), 20.0, 2, 1),
        ),
    ]


@pytest.mark.parametrize(
    "cls, names, values", [pytest.param(*r, id=r[0].__name__) for r in records()]
)
def test_record_fields_immutability_repr_and_hash(cls, names, values):
    rec = cls(*values)
    assert [getattr(rec, name) for name in names] == list(values)
    assert rec == cls(**dict(zip(names, values)))
    assert rec == values  # a NamedTuple is also a tuple
    assert hash(rec) == hash(values)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(rec) == f"{cls.__name__}({fields})"
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)


def test_quality_report_counts_no_degenerate_triangles_by_default():
    rep = QualityReport((0.25, 0.25, 0.25, 0.25), 30.0, 4)
    assert rep.excluded_degenerate == 0


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # both are slow to import, and no record needs them
    code = (
        "import sys; before = set(sys.modules); import polytri.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
