"""Run every demo script end to end as a user would."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# lines a demo must print, by script name
EXPECTED = {
    "01_intersection_model": (
        "Of the 4095 nonempty path subsets, 335 are feasible",
        "phases (no internal conflict), and 12 of those are",
    ),
}


def test_all_five_demos_present():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for expected in EXPECTED.get(demo.stem, ()):
        assert expected in lines
