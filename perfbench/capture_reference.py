#!/usr/bin/env python3
"""Write the reference outputs the benchmark checks against.

    python3 perfbench/capture_reference.py [workload ...]

Run from the repository root at the commit whose outputs are the reference.
Each workload's op runs once at the default workload seed; its CSV report,
or for ``verify`` the printed figures and the verifier's tolerance, goes to
``perfbench/reference/<workload>.csv`` (``.json``).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from xvakit.cli import main  # noqa: E402


def capture(name: str) -> None:
    work = HERE / "work" / "capture" / name
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(name, workloads.DEFAULT_SEED, work)
    target = HERE / "reference"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(workload.op.argv)
    if code != 0:
        raise SystemExit(f"{name}: {workload.op.argv} exited {code}")
    if workload.kind == "verify":
        figures = checks.parse_verify(stdout.getvalue())
        figures["tolerance"] = workloads.PDE_VERIFY["pde"]["tolerance"]
        (target / f"{name}.json").write_text(json.dumps(figures, indent=1) + "\n")
    else:
        shutil.copyfile(workload.op.out, target / f"{name}.csv")
    shutil.rmtree(work)


if __name__ == "__main__":
    for name in sys.argv[1:] or workloads.NAMES:
        capture(name)
        print(f"captured {name}")
