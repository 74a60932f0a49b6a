"""Every script in ``demos/`` runs to the end against the package in ``src``,
under ``-O`` when the tests run under it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_zero(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    optimize = ["-O"] if sys.flags.optimize else []
    run = subprocess.run([sys.executable, *optimize, str(demo)], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
