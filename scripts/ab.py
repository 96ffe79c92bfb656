#!/usr/bin/env python3
"""Compare the CLI's output at a git revision with the working tree's, byte for byte.

REV is exported with ``git archive`` into a temporary directory.  Every command
of ``commands()`` then runs twice, once on REV's ``src`` and once on the working
tree's, each in its own interpreter with its own ``PYTHONPATH``, on the same
input files (written from the working tree's ``configs``).  Per command it
prints both exit codes and whether stdout, stderr and the output file are
identical.  Where a report differs it prints, for each ``*_bp`` column that
moved, the largest |delta| and its row; where the verifier's surface differs,
each side's sha256.  It exits 1 if any command differs.  Timing is left to
``perfbench``.

Usage: python scripts/ab.py REV
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The 30y five-swap book of the benchmark's long-book workload, whose last leg is posted.
LONG_BOOK = [
    dict(notional=100.0, fixedRate=rate, maturity=maturity, frequency=frequency, payer=payer,
         collateralized=collateralized)
    for rate, maturity, frequency, payer, collateralized in (
        (0.022, 5.0, 4, True, False), (0.019, 10.0, 2, False, False),
        (0.024, 20.0, 4, True, False), (0.018, 30.0, 4, False, False),
        (0.021, 30.0, 4, False, True))]
LONG = dict(swaps=LONG_BOOK, psi=[0.0, 0.5, 1.0], priceOfRiskXi=[-0.5, 0.5], workers=2)
SPREAD = dict(collateralSpread=0.002)
TAXED = dict(SPREAD, accrualsTaxed=True, compensatorTaxed=True)
FORMATS = ("table", "csv", "json")


def configs() -> dict[str, dict]:
    """The compared configurations by name, each a shipped config with its changes."""
    market = json.loads((ROOT / "configs" / "market_gbp_flat.json").read_text())

    def shipped(name, *changes):
        raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
        for change in changes:
            raw.update(change)
        return dict(raw, market=market)

    out = {}
    for preset in ("base_case", "warehouse_pos", "warehouse_neg"):
        out[preset] = shipped(preset)
        out[f"{preset}-spread"] = shipped(preset, SPREAD)
        out[f"{preset}-spread-taxed"] = shipped(preset, TAXED)
    out["long_book"] = shipped("base_case", LONG)
    out["long_book-spread"] = shipped("base_case", LONG, SPREAD)
    out["pde_verify"] = shipped("pde_verify")
    return out


def commands(inputs: Path) -> list[tuple[str, list[str]]]:
    """``(output file name, CLI arguments)`` of each command, its inputs written to ``inputs``."""
    out = []
    for name, raw in configs().items():
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(raw))
        if name == "pde_verify":
            out.append(("pde_verify.csv", ["pde-verify", str(path)]))
        else:
            out += [(f"{name}.{fmt}", ["run", str(path), "--format", fmt]) for fmt in FORMATS]
    return out


def _rows(text: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    """A CSV or JSON report as its header and its rows of cells, as text."""
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(text))
        return header, rows
    records = json.loads(text)["rows"]
    header = [key for key in records[0] if key.endswith("_bp")] if records else []
    return header, [[repr(record[key]) for key in header] for record in records]


def bp_moves(old: str, new: str, fmt: str = "csv") -> dict[str, tuple[float, int]]:
    """Each ``*_bp`` column whose cells differ between two reports: its largest |delta|
    and the row (from 0) where it is.  A header or row count that differs is a
    ``ValueError``, since the cells then do not line up."""
    (old_header, old_rows), (new_header, new_rows) = _rows(old, fmt), _rows(new, fmt)
    if old_header != new_header:
        raise ValueError(f"header {','.join(old_header)} -> {','.join(new_header)}")
    if len(old_rows) != len(new_rows):
        raise ValueError(f"{len(old_rows)} rows -> {len(new_rows)}")
    moves = {}
    for j, name in enumerate(old_header):
        pairs = [(a[j], b[j]) for a, b in zip(old_rows, new_rows)]
        if name.endswith("_bp") and any(a != b for a, b in pairs):
            deltas = [abs(float(b) - float(a)) for a, b in pairs]
            row = max(range(len(deltas)), key=deltas.__getitem__)
            moves[name] = (deltas[row], row)
    return moves


def _run(tree: Path, args: list[str], out_name: str, cwd: Path):
    """One command on ``tree``'s sources: (exit code, stdout, stderr, output bytes or None)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "xvakit.cli", *args, "--out", out_name],
                          cwd=cwd, env=env, capture_output=True, timeout=600)
    out = cwd / out_name
    return done.returncode, done.stdout, done.stderr, out.read_bytes() if out.exists() else None


def _describe(name: str, old: bytes | None, new: bytes | None) -> list[str]:
    """What differs between two output files, beyond that they do."""
    if old is None or new is None:
        return ["    output file missing on " + ("REV" if old is None else "the working tree")]
    fmt = name.rpartition(".")[2]
    if name == "pde_verify.csv":
        return [f"    surface sha256 {hashlib.sha256(old).hexdigest()} -> "
                f"{hashlib.sha256(new).hexdigest()}"]
    if fmt not in ("csv", "json"):
        return []
    try:
        moves = bp_moves(old.decode(), new.decode(), fmt)
    except ValueError as exc:
        return [f"    {exc}"]
    return [f"    {column}: largest |delta| {delta:.3g} at row {row}"
            for column, (delta, row) in moves.items()]


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python scripts/ab.py REV", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="xvakit-ab-") as tmp:
        tmp = Path(tmp)
        rev, inputs, old_out, new_out = (tmp / name for name in ("rev", "in", "rev-out", "out"))
        for path in (rev, inputs, old_out, new_out):
            path.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", argv[0]],
                                 capture_output=True)
        if archive.returncode:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", str(rev)], input=archive.stdout, check=True)
        todo, differ = commands(inputs), 0
        for out_name, args in todo:
            old = _run(rev, args, out_name, old_out)
            new = _run(ROOT, args, out_name, new_out)
            same = [a == b for a, b in zip(old, new)]
            differ += not all(same)
            flags = ", ".join(f"{part} {'identical' if ok else 'DIFFERS'}"
                              for part, ok in zip(("stdout", "stderr", "output"), same[1:]))
            print(f"{out_name}: exit {old[0]} -> {new[0]}, {flags}")
            for line in [] if same[3] else _describe(out_name, old[3], new[3]):
                print(line)
        print(f"{differ} of {len(todo)} commands differ from {argv[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
