"""The runnable experiments in scripts/ still run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,expected", [
    (["resolve_demo.py"], "agree"),
    (["hexagon_scan.py", "--budget", "1"], "no rigid deformation within budget"),
    (["random_rigid_survey.py", "--samples", "5"], "0 failures"),
])
def test_script_runs(argv, expected):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout
