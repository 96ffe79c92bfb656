#!/usr/bin/env python3
"""xvakit benchmark: one workload, closed loop, one op in flight.

    python3 perfbench/run.py --workload long-book --seed 0 --seconds 45 --trace 0

Run from the repository root.  The package is imported from ``src/`` and
driven in-process through ``xvakit.cli.main([...])``; each op is the
workload's CLI call (see ``workloads.py``), checked against the references
in ``reference/`` (see ``checks.py``).  Metric names and units are those
listed in ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends half of ``--seconds`` untraced and half with spans
recorded around each layer boundary (see ``tracing.py``), and prints the
per-layer metrics; on ``long-book`` it also runs the op once at one worker,
whose CSV must be byte-identical to the two-worker output.

The environment (cores, versions, BLAS pools, source digest) and the
samples are printed as one JSON line before the result, which is always the
last line of stdout.  Exit status is 0 whenever a result was printed, even
with failed ops; it is non-zero when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_OPS = 3

_SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from xvakit.cli import load_config\n"
    "load_config(sys.argv[2])"
)


def measure_setup(src: Path, config: str) -> float:
    """Median wall time of a fresh interpreter importing xvakit.cli and
    loading the workload's config."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(src), config],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
    return statistics.median(times)


def _invoke(main, argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed op, not a failed benchmark
        traceback.print_exc()
        return -1


class OpRunner:
    """Runs and checks the ops of one workload run."""

    def __init__(self, main, workload: workloads.Workload, checker: checks.Checker):
        self.main = main
        self.workload = workload
        self.checker = checker
        self.attempted = 0
        self.failed = 0
        self.max_diff_bp = 0.0
        self.max_se_bp = 0.0
        self.rel_err = 0.0
        self.first_text: str | None = None

    def run(self, op: workloads.Op) -> tuple[checks.OpOutput, float, float, str]:
        """One CLI call: its output, wall and CPU seconds, and its stderr."""
        op.out.unlink(missing_ok=True)
        stdout, stderr = io.StringIO(), io.StringIO()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = _invoke(self.main, op.argv)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        out = checks.OpOutput(code=code, stdout=stdout.getvalue())
        if self.workload.kind == "verify":
            out.surface = op.out
        elif op.out.exists():
            out.text = op.out.read_text()
        return out, wall, cpu, stderr.getvalue()

    def record(self, errors: list[str], stderr: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"op {self.attempted} failed: " + "; ".join(errors[:5]), file=sys.stderr)
            if stderr:
                print(stderr[-2000:], file=sys.stderr)

    def op(self) -> tuple[float, float]:
        out, wall, cpu, stderr = self.run(self.workload.op)
        verdict = self.checker.check(out)
        if self.first_text is None:
            self.first_text = out.text
        self.max_diff_bp = max(self.max_diff_bp, verdict.max_diff_bp)
        self.max_se_bp = max(self.max_se_bp, verdict.max_se_bp)
        self.rel_err = max(self.rel_err, verdict.rel_err)
        self.record(verdict.errors, stderr)
        return wall, cpu

    def loop(self, seconds: float) -> tuple[list[float], list[float]]:
        """Ops back to back until ``seconds`` have passed (at least MIN_OPS)."""
        walls, cpus = [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_OPS or time.perf_counter() < deadline:
            wall, cpu = self.op()
            walls.append(wall)
            cpus.append(cpu)
        return walls, cpus

    def single_worker(self) -> float:
        """The op at one worker; its CSV must equal the multi-worker one."""
        out, wall, _, stderr = self.run(self.workload.single_worker)
        errors = [f"exit code {out.code}"] if out.code else []
        if out.text != self.first_text:
            errors.append("CSV at one worker differs from the multi-worker CSV")
        self.record(errors, stderr)
        return wall


def _blas_threads() -> dict[str, int]:
    """Thread-pool size of each OpenBLAS that numpy and scipy ship."""
    pools = {}
    for package in ("numpy", "scipy"):
        spec = importlib.util.find_spec(package)
        libs = Path(spec.origin).parent.parent / f"{package}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    pools[package] = fn()
                    break
    return pools


def environment(src: Path) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        # Names the code measured, also where the sources are not a git work tree.
        "src_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "xvakit" / "cli.py").is_file():
        print(f"no xvakit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((root / "BENCHMARK.json").read_text())

    work = HERE / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build(args.workload, args.seed, work)
    setup_s = measure_setup(src, workload.config)

    import xvakit.cli

    reference = checks.load_reference(HERE / "reference", args.workload, workload.kind)
    checker = checks.Checker(workload.kind, reference, spot=workloads.VERIFY_SPOT,
                             grid=workloads.VERIFY_GRID)
    runner = OpRunner(xvakit.cli.main, workload, checker)
    runner.op()  # warm-up: lazy imports and caches; checked, not timed

    if not args.trace:
        walls, cpus = runner.loop(args.seconds)
        op_s = statistics.median(walls)
        samples = {"ops": len(walls), "op_walls": walls}
        values = {
            "setup_s": setup_s,
            "op_s_p50": op_s,
            "cpu_s_per_op": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_frac": 1.0 - runner.failed / runner.attempted,
            "max_se_bp": runner.max_se_bp,
            "time_to_1bp_s": op_s * runner.max_se_bp ** 2,
            "verify_rel_err": runner.rel_err,
        }
        section = "end_to_end"
    else:
        walls, _ = runner.loop(args.seconds / 2)
        tracer = tracing.Tracer()
        untraced_main = runner.main

        def traced_main(argv):
            tracer.op += 1
            return tracer.call("cli.main", untraced_main, argv)

        runner.main = traced_main
        with tracer.installed():
            traced_walls, _ = runner.loop(args.seconds / 2)
        runner.main = untraced_main
        values = tracing.layer_medians(tracer)
        values["exposure.speedup_2w"] = 0.0  # 0: the workload has no multi-worker op
        if workload.single_worker is not None:
            values["exposure.speedup_2w"] = runner.single_worker() / statistics.median(walls)
        values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(walls) - 1
        values["check.max_ref_diff_bp"] = runner.max_diff_bp
        spans_file = work / "spans.json"
        spans_file.write_text(json.dumps({"missing": tracer.missing, "spans": tracer.spans}))
        samples = {"untraced_ops": len(walls), "traced_ops": len(traced_walls),
                   "spans": len(tracer.spans), "spans_file": os.path.relpath(spans_file, root),
                   "unwrapped_boundaries": tracer.missing}
        section = "per_layer"

    print(json.dumps({"env": environment(src), "workload": args.workload, "seed": args.seed,
                      "mc_seed": workloads.mc_seed(args.seed), "samples": samples}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in spec[section]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
