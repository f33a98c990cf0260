"""The runnable experiments in scripts/ still run end to end."""

import hashlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv,expected", [
    (["resolve_demo.py"], "agree"),
    (["hexagon_scan.py", "--budget", "1"], "no rigid deformation within budget"),
    (["random_rigid_survey.py", "--samples", "5"], "0 failures"),
    (["hexagon_scan.py", "--ideal", "x0*x1*x3; x0*x2; x2*x3"],
     "found: added {1,2}, route join-preserving"),
])
def test_script_runs(argv, expected):
    assert expected in run_script(argv)


def run_script(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]),
                           *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_survey_runs_outside_the_repository(tmp_path):
    # the script finds the suite's sampler from its own location
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "random_rigid_survey.py"),
                           "--samples", "2"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "0 failures" in done.stdout


def test_hexagon_budget_two_scan_is_frozen():
    # the full augmentation table (630 rows), timing field stripped;
    # characteristic 0 prints the same table
    out = run_script(["hexagon_scan.py", "--budget", "2", "--char", "2"])
    out = re.sub(r"; [0-9.]+s\n", "\n", out, count=1)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "94f6bdec8ee75807427d85fcde74869571d944da41a2f2053d22c9cb0b7f834f")


def test_hexagon_budget_two_scan_is_frozen_in_char_zero():
    # the same table as in characteristic 2, read on rational ranks
    out = run_script(["hexagon_scan.py", "--budget", "2", "--char", "0"])
    out = re.sub(r"; [0-9.]+s\n", "\n", out, count=1)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "94f6bdec8ee75807427d85fcde74869571d944da41a2f2053d22c9cb0b7f834f")


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "scripts" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = '''"""A module docstring,
on two lines."""

# a comment
import os


def f():
    """A function docstring."""
    return os.sep  # a comment after code
'''
    assert code_lines.code_lines(source) == 3
