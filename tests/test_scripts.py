"""Smoke tests: the scripts under scripts/ run against the library."""

import hashlib
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
    # The whole stdout is pinned: every feasible point with its oracle
    # multiplicities, then the vertices, for the defaults and for k = 3, m = 4.
    result = run_script("triangle_polytope.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-3:] == [
        "vertex\t0,0,0", "vertex\t5,5,5", "vertex\t5,10,5"]
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "260ec041783b39754f1d0e7127bb233e49a09c5442f6ffca839ce4ee1611e4a3")
    result = run_script("triangle_polytope.py", "-k", "3", "-m", "4")
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "a9dc59643dde762141b7050da02b39bff26db16a408ec01c90390febebf6ef4b")
