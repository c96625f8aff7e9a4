"""Every demo runs to completion in a fresh interpreter.

Each demo imports public kpokit names and prints a worked example; a
deleted or renamed name, or a NumPy RuntimeWarning (an error here, as in
the test suite), fails its run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src") + (os.pathsep + path if path else "")}
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                         cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout
