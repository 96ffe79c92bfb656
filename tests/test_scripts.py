"""The example scripts refuse a bad argument with one line, never a traceback: the
config's own diagnostic, since they build their runs through ``load_config``, or their
usage for an argument they do not take."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, field", [
    (["warehouse_sweep.py", "XX"], "ratings: unknown rating 'XX' (known: AAA, "),
    (["warehouse_sweep.py", "2000"], "ratings: unknown rating '2000' (known: AAA, "),
    (["warehouse_sweep.py", "BB", "2000"], "usage: python scripts/warehouse_sweep.py [rating]"),
    (["warehouse_sweep.py", "--paths", "2000"],
     "usage: python scripts/warehouse_sweep.py [rating]"),
    (["run_presets.py", "2000"], "usage: python scripts/run_presets.py"),
])
def test_bad_argument_is_one_line_and_exit_1(argv, field):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.splitlines() == [done.stderr.strip()]
    assert done.stderr.startswith(field)
