"""Smoke tests: both scripts run end to end on small settings."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import TREE_FIXTURES

REPO = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_random_tree_sweep():
    proc = run_script("random_tree_sweep.py", "--count", "40", "--seed", "1", "--trials", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "failures: 0"


def test_run_fixture_suite(tmp_path):
    proc = run_script("run_fixture_suite.py", "--out", str(tmp_path), "--trials", "2")
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.glob("*.analyze.json"))
    assert written == sorted(f"{name}.analyze.json" for name in TREE_FIXTURES)
