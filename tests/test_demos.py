"""The demo scripts run to completion.

Each demo runs as its own process with ``PYTHONPATH=src`` and must exit 0
with nothing on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["custom_model", "distribution_and_density",
                                  "gamma_matching", "quantile_reference_table",
                                  "symbolic_tables"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
