"""Batch command-line front end.

    xva run <config|preset>       price the configured sweep and emit a report
    xva validate <config|preset>  schema/range check only
    xva pde-verify <config|preset> cross-check the PDE solver against quadrature

``<config>`` is a JSON file or one of the built-in presets (base-case,
warehouse-pos, warehouse-neg).  Exit codes: 0 success, 1 validation failure
(a usage error too), 2 numerical tolerance breach, 3 I/O failure, 4 internal
error (any other exception, reported as one stderr line, such as a grid row
whose roots the exact exposure engine cannot certify).

``run`` and ``validate`` import only numpy; scipy is loaded by the PDE solver
on the first ``pde-verify`` solve.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .config import PRESETS, ConfigError, load_config
from .pde import GridResolutionWarning, PdeSolution, verify_decomposition
from .report import RENDERERS
from .runner import run_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class _Failure(Exception):
    """An expected failure: its message goes to stderr and ``main`` returns its code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like any other bad input, not argparse's 2 (a tolerance breach)."""

    def error(self, message):
        raise _Failure(EXIT_VALIDATION, f"{self.prog}: error: {' '.join(message.split())}")


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xva", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a run configuration")
    run.add_argument("config", help="configuration file or preset name")
    run.add_argument("--format", choices=RENDERERS, default="table")
    run.add_argument("--out", type=Path, default=None, help="write the report to a file")

    val = sub.add_parser("validate", help="validate a configuration without running")
    val.add_argument("config", help="configuration file or preset name")

    pde = sub.add_parser("pde-verify", help="finite-difference vs quadrature cross-check")
    pde.add_argument("config", help="configuration file or preset name")
    pde.add_argument("--out", type=Path, default=None,
                     help="write the solved surfaces as CSV (t, S, economic, adjustment)")
    return parser


def _load(path: str):
    try:
        return load_config(path)
    except OSError as exc:  # the configuration file's own; a market file's is a ConfigError
        raise _Failure(EXIT_IO, f"cannot read {exc.filename}: {exc.strerror}") from None


def _cmd_run(args) -> int:
    cfg = _load(args.config)
    with warnings.catch_warnings():  # an overflow is refused as a ConfigError instead
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_config(cfg)
    text = RENDERERS[args.format](result)
    if args.out is not None:
        try:
            args.out.write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _Failure(EXIT_IO, f"cannot write {args.out}: {exc}") from None
    else:
        try:  # a text stream encodes all of the text before it writes any of it
            sys.stdout.write(text)
        except UnicodeEncodeError as exc:
            raise _Failure(EXIT_IO, f"cannot write to stdout: {exc}") from None
    return EXIT_OK


def _cmd_validate(args) -> int:
    _load(args.config)
    if args.config in PRESETS:
        print(f"ok: built-in preset {args.config}")
    else:
        print(f"ok: {Path(args.config)}")
    return EXIT_OK


def _cmd_pde_verify(args) -> int:
    cfg = _load(args.config)
    with warnings.catch_warnings(record=True) as caught:
        report = verify_decomposition(cfg.pde.problem, cfg.pde.grid, tolerance=cfg.pde.tolerance)
    for w in caught:  # one line each; the coarse-grid warning names its field
        field = "pde.nSpace: " if issubclass(w.category, GridResolutionWarning) else ""
        print(f"warning: {field}{w.message}", file=sys.stderr)
    oracle = report.oracle  # a one-row breakdown
    print(f"adjustment  pde {report.pde_adjustment:+.6f}   quadrature {oracle.total[0]:+.6f}   "
          f"rel error {report.rel_error:.3e} (tolerance {report.tolerance:.3e})")
    print(f"components  cva {oracle.cva[0]:+.6f}  dva {oracle.dva[0]:+.6f}  "
          f"fca {oracle.fca[0]:+.6f}  colva {oracle.colva[0]:+.6f}  kva {oracle.kva[0]:+.6f}  "
          f"tva {oracle.tva[0]:+.6f}")
    print(f"tax effect  pde {report.tax_pde:+.6f}   quadrature {oracle.tva[0]:+.6f}   "
          f"rel error {report.tax_rel_error:.3e}")
    if args.out is not None:
        try:
            _write_surfaces(args.out, report.solution)
        except OSError as exc:
            raise _Failure(EXIT_IO, f"cannot write {args.out}: {exc}") from None
    if not report.passed:
        print("FAIL: discrepancy above tolerance", file=sys.stderr)
        return EXIT_NUMERICAL
    print("PASS")
    return EXIT_OK


def _write_surfaces(path: Path, solution: PdeSolution) -> None:
    # One chunk per time level; plain floats, since repr of a numpy scalar
    # would write "np.float64(...)".
    s_text = [repr(s) for s in solution.s_nodes.tolist()]
    with path.open("w") as out:
        out.write("t,S,economic,adjustment\n")
        for t, economic, adjustment in zip(solution.t_nodes.tolist(), solution.economic.tolist(),
                                           solution.adjustment.tolist()):
            t_text = repr(t)
            out.write("".join([f"{t_text},{s},{e!r},{a!r}\n"
                               for s, e, a in zip(s_text, economic, adjustment)]))


_COMMANDS = {"run": _cmd_run, "validate": _cmd_validate, "pde-verify": _cmd_pde_verify}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except _Failure as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except ConfigError as exc:  # from loading, or a run the configuration makes overflow
        print("\n".join(exc.diagnostics), file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
