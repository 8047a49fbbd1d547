"""Acceptance battery: one line and one assertion per criterion.

Run with -s to see the per-criterion timing lines.
"""

import json
import subprocess
import sys

import pytest

from infker.verify import run_all


REPORT = run_all("small")
ROWS = {row["criterion"]: row for row in REPORT["criteria"]}


def announce(row):
    verdict = "PASS" if row["ok"] else "FAIL"
    print(f"[ACCEPTANCE] criterion {row['criterion']} {verdict} "
          f"({row['seconds']:.2f}s) {row['description']}")


@pytest.mark.parametrize("cid", sorted(ROWS))
def test_criterion(cid):
    row = ROWS[cid]
    announce(row)
    assert row["ok"], row["details"]
    assert row["in_budget"], (
        f"criterion {cid} took {row['seconds']}s over budget {row['budget']}s")


def test_battery_overall():
    assert REPORT["ok"] is True
    assert REPORT["in_budget"] is True
    assert len(REPORT["criteria"]) == 12


@pytest.mark.parametrize("grid", ["small", "full"])
def test_cli_battery_agrees(grid):
    proc = subprocess.run(
        [sys.executable, "-m", "infker", "verify-all", "--grid", grid],
        capture_output=True, text=True)
    print(f"[ACCEPTANCE] verify-all --grid {grid} exit {proc.returncode}")
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["ok"] is True
    assert [row["criterion"] for row in blob["criteria"]] == list(range(1, 13))
