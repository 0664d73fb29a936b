"""The narrative demos run to completion; their printed networks, objectives and tables are pinned."""

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


def test_chaining_demo_network_and_objective():
    proc = _run(ROOT / "demos" / "01_plan_chaining.py")
    assert proc.returncode == 0, proc.stderr
    network = proc.stdout.split("== flow network ==\n", 1)[1].split("\n\n", 1)[0]
    assert network.splitlines() == [
        "11 nodes, 12 edges",
        "0 1 0 1 0", "0 2 0 1 0", "0 5 0 1 0", "2 3 0 1 0", "2 4 0 1 0", "1 7 0 1 2",
        "5 8 0 1 0", "5 6 0 1 4", "6 9 0 1 0", "7 9 0 1 0", "8 10 0 1 0", "9 10 0 1 0",
    ]
    assert re.findall(r"^objective: (\d+)$", proc.stdout, re.M) == ["2"]


def test_fleet_sizing_demo_budget_table():
    proc = _run(ROOT / "demos" / "02_fleet_sizing.py")
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^\s*(\d+)\s+(\d+)$", proc.stdout, re.M)
    assert [(int(budget), int(used)) for budget, used in rows] == [(0, 3), (2, 3), (4, 3), (8, 3), (16, 2)]
