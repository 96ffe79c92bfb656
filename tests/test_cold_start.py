"""``run`` and ``validate`` start without scipy; ``pde-verify`` still loads it.

The checks run in fresh interpreters, since this test process has scipy
loaded already.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_RUN_AND_VALIDATE = """
import sys
from xvakit.cli import main
from xvakit.config import PRESETS, load_config
for name in (*PRESETS, "configs/pde_verify.json"):
    load_config(name)
assert main(["run", "base-case", "--paths", "2000", "--out", sys.argv[1]]) == 0
assert main(["validate", "base-case"]) == 0
assert main(["validate", "configs/base_case.json"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def _python(*args, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300, **kwargs)


def test_run_and_validate_never_import_scipy(tmp_path):
    out = tmp_path / "report.txt"
    proc = _python("-c", _RUN_AND_VALIDATE, str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert "Rating" in out.read_text()


def test_pde_verify_loads_scipy_when_it_solves():
    proc = _python("-m", "xvakit.cli", "pde-verify", "configs/pde_verify.json")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "PASS"
