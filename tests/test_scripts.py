"""Smoke tests: the scripts under scripts/ run against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_stillman_scan():
    result = run_script("stillman_scan.py", "--p-max", "2")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("e\tr\tp\tcodim\tobstruction\tdegrees\tvalues\n")


def test_triangle_polytope():
    result = run_script("triangle_polytope.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-3:] == [
        "vertex\t0,0,0", "vertex\t5,5,5", "vertex\t5,10,5"]
