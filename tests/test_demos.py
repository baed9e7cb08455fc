"""The narrative scripts under demos/ run to the end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import octaq

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    env = {**os.environ,
           "PYTHONPATH": str(Path(octaq.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, timeout=300,
                          env=env)
    assert proc.returncode == 0, proc.stderr
