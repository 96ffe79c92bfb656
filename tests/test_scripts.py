"""The example scripts refuse a bad argument with one line, never a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, field", [
    (["warehouse_sweep.py", "XX", "2000"], "rating: unknown 'XX'"),
    (["warehouse_sweep.py", "2000"], "rating: unknown '2000'"),
    (["warehouse_sweep.py", "BB", "2k"], "paths: must be an even integer >= 6, got '2k'"),
    (["run_presets.py", "7"], "paths: must be an even integer >= 6, got '7'"),
    (["run_presets.py", "4"], "paths: must be an even integer >= 6, got '4'"),
])
def test_bad_argument_is_one_line_and_exit_1(argv, field):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.splitlines() == [done.stderr.strip()]
    assert done.stderr.startswith(field)
