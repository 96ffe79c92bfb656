"""The example scripts refuse a bad argument with one line, never a traceback: the
config's own diagnostic, since they build their runs through ``load_config``, or their
usage for an argument they do not take.  And ``scripts/ab.py``'s report comparer names
each moved ``*_bp`` column."""

import importlib.util
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


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = ("source,psi,rating,cva_bp,colva_bp,total_bp,warn\n"
          "A,1.0,AAA,-3.5,0.0,25.75,false\n"
          "A,1.0,BB,-8.25,0.0,17.5,false\n")


class TestAbComparer:
    """``scripts/ab.py``'s comparer of two CSV reports, on hand-written ones."""

    bp_moves = staticmethod(load_ab().bp_moves)

    def test_identical_reports_have_no_moves(self):
        assert self.bp_moves(REPORT, REPORT) == {}

    def test_one_moved_cell_is_named_with_its_row(self):
        moved = REPORT.replace("-8.25,", "-8.250000000000002,")
        assert self.bp_moves(REPORT, moved) == {"cva_bp": (pytest.approx(1.8e-15), 1)}

    def test_a_zero_of_the_other_sign_is_a_move_of_zero(self):
        assert self.bp_moves(REPORT, REPORT.replace("AAA,-3.5,0.0", "AAA,-3.5,-0.0")) == {
            "colva_bp": (0.0, 0)}

    def test_a_changed_header_is_refused(self):
        with pytest.raises(ValueError, match="header"):
            self.bp_moves(REPORT, REPORT.replace("colva_bp,", "kva_bp,"))
