"""Smoke test: the demos that drive the simulation loop run to completion.

Each demo runs as its own process with the non-interactive matplotlib
backend, from a scratch directory, and must exit with code 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["rate_distortion", "learning_curves",
                                  "mixing_stability"])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "MPLBACKEND": "Agg", "PYTHONPATH": path}
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
