"""Smoke tests: both scripts run end to end on small settings, without
the test framework and with no PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TREE_FIXTURES

REPO = Path(__file__).resolve().parent.parent
# Runs the script named by argv[1] with pytest unimportable.
WITHOUT_PYTEST = (
    "import runpy, sys; sys.modules['pytest'] = None; "
    "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')"
)


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    # no PYTHONPATH: each script finds the package in the checkout itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-c", WITHOUT_PYTEST, str(REPO / "scripts" / name), *args],
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


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("random_tree_sweep.py", ["--n-max", "1"], "--n-max must be at least 2"),
        ("random_tree_sweep.py", ["--trials", "0"], "trials must be at least 1"),
        ("random_tree_sweep.py", ["--seed", "-1"], "seed must be non-negative"),
        ("run_fixture_suite.py", ["--trials", "0"], "trials must be at least 1"),
        ("run_fixture_suite.py", ["--seed", "-1"], "seed must be non-negative"),
        ("random_tree_sweep.py", ["--count", "-3"], "--count must be non-negative"),
    ],
)
def test_bad_arguments_exit_2_before_any_work(tmp_path, name, args, message):
    out = tmp_path / "out"
    extra = ["--out", str(out)] if name == "run_fixture_suite.py" else []
    proc = run_script(name, *extra, *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(f"error: {message}")
    assert not out.exists()
