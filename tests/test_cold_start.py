"""``run`` and ``validate`` start without scipy or a thread pool; ``pde-verify`` loads only
``scipy.linalg``, for its tridiagonal solve, and no ``scipy.special``.

The checks run in fresh interpreters, since this test process has scipy
loaded already.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_RUN_AND_VALIDATE = """
import sys
from xvakit.cli import main
from xvakit.config import PRESETS, load_config
for name in (*PRESETS, "configs/pde_verify.json"):
    load_config(name)
assert main(["run", "base-case", "--out", sys.argv[1]]) == 0
assert main(["validate", "base-case"]) == 0
assert main(["validate", "configs/base_case.json"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(sorted(m for m in sys.modules if m.split(".")[0] == "concurrent"))
"""


def _python(*args, **kwargs):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300, **kwargs)


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """The modules loaded by ``_RUN_AND_VALIDATE`` in a fresh interpreter: ``(scipy's,
    concurrent's)``, each as printed."""
    out = tmp_path_factory.mktemp("cold") / "report.txt"
    proc = _python("-c", _RUN_AND_VALIDATE, str(out))
    assert proc.returncode == 0, proc.stderr
    assert "Rating" in out.read_text()
    return proc.stdout.splitlines()[-2:]


def test_run_and_validate_never_import_scipy(cold_run):
    assert cold_run[0] == "[]"


def test_run_and_validate_start_no_thread_pool(cold_run):
    """The exposure is a closed form with no worker threads, and importing
    ``concurrent.futures`` alone would add to every run's set-up time."""
    assert cold_run[1] == "[]"


_PDE_VERIFY = """
import sys
from xvakit.cli import main
assert main(["pde-verify", "configs/pde_verify.json"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_pde_verify_loads_scipy_when_it_solves():
    proc = _python("-c", _PDE_VERIFY)
    assert proc.returncode == 0, proc.stderr
    *_, verdict, loaded = proc.stdout.splitlines()
    assert verdict == "PASS"
    loaded = ast.literal_eval(loaded)
    assert "scipy.linalg" in loaded
    assert not [m for m in loaded if m.startswith("scipy.special")], loaded
