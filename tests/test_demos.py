"""The narrative demos run to completion; demo 03's result table is pinned."""

import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-3]_*.py"))


@functools.cache
def _run(demo: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    return subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


def test_darp_demo_table():
    proc = _run(ROOT / "demos" / "03_darp_pipeline.py")
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^\s*(ih|proposed|single-batch)\s+(\S+)\s+(\d+)\s+(\d+)\s+\d+$", proc.stdout, re.M)
    assert [(method, int(cost), int(vehicles)) for method, _, cost, vehicles in rows] == [
        ("ih", 81, 4),
        ("proposed", 63, 7),
        ("proposed", 57, 5),
        ("proposed", 57, 5),
        ("single-batch", 57, 5),
    ]
