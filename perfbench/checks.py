"""Per-op correctness checks against reference outputs.

A ``Checker`` judges every op of one workload run.  An op fails when any of
these does not hold:

* the CLI call exits 0;
* (CSV reports) the header and the row keys (source, psi, mLambdaC, phi,
  rating) equal the reference's, every value is finite, and every ``*_bp``
  value lies within ``4 * sqrt(se_bp**2 + se_ref_bp**2) + 1e-6`` bp of the
  reference row;
* (pde-verify) the run prints ``PASS``, its printed figures are finite and
  agree with the reference to the verifier's own tolerance, and the surface
  file holds a complete, finite (t, S) grid;
* the op's output is byte-identical to the first op of the run.

The references were captured at the default workload seed, where outputs
match them up to float reordering; other seeds pass at statistical tolerance.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

KEY_COLUMNS = ("source", "psi", "mLambdaC", "phi", "rating")
SE_COLUMN = "se_bp"
TOTAL_COLUMN = "total_bp"


@dataclass
class OpOutput:
    """What one op produced: exit code, the CSV report (``run``) or stdout and
    the surface file (``pde-verify``)."""

    code: int
    text: str | None = None
    stdout: str = ""
    surface: Path | None = None


@dataclass
class Verdict:
    errors: list[str] = field(default_factory=list)
    max_diff_bp: float = 0.0
    max_se_bp: float = 0.0
    rel_err: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.errors


def parse_csv(text: str) -> tuple[list[str], list[dict[str, str]]]:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def _number(cell: str) -> float:
    # pde-verify writes numpy scalars through repr(), e.g. "np.float64(0.5)".
    m = re.fullmatch(r"np\.float64\((.*)\)", cell)
    return float(m.group(1) if m else cell)


def check_csv(text: str, ref_text: str, verdict: Verdict) -> float:
    """Compare a CSV report with its reference; returns the largest |total_bp|."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref_text)
    if header != ref_header:
        verdict.errors.append(f"header {header} != reference {ref_header}")
        return 0.0
    keys = [tuple(r.get(k) for k in KEY_COLUMNS) for r in rows]
    ref_keys = [tuple(r[k] for k in KEY_COLUMNS) for r in ref_rows]
    if keys != ref_keys:
        verdict.errors.append(f"{len(rows)} rows with keys differing from the "
                              f"reference's {len(ref_rows)}")
        return 0.0
    largest_total = 0.0
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        try:
            values = {k: float(v) for k, v in row.items()
                      if k not in KEY_COLUMNS and k != "warn"}
        except (TypeError, ValueError):
            verdict.errors.append(f"row {i}: non-numeric value")
            continue
        if row.get("warn") not in ("true", "false"):
            verdict.errors.append(f"row {i}: warn is {row.get('warn')!r}")
        bad = [k for k, v in values.items() if not math.isfinite(v)]
        if bad:
            verdict.errors.append(f"row {i}: non-finite {', '.join(bad)}")
            continue
        se, se_ref = values[SE_COLUMN], float(ref[SE_COLUMN])
        tol = 4.0 * math.sqrt(se * se + se_ref * se_ref) + 1e-6
        for k, v in values.items():
            if not k.endswith("_bp") or k == SE_COLUMN:
                continue
            diff = abs(v - float(ref[k]))
            verdict.max_diff_bp = max(verdict.max_diff_bp, diff)
            if diff > tol:
                verdict.errors.append(
                    f"row {i}: {k}={v!r} is {diff:.4g} bp from the reference "
                    f"{ref[k]} (tolerance {tol:.4g} bp)")
        verdict.max_se_bp = max(verdict.max_se_bp, se)
        largest_total = max(largest_total, abs(values[TOTAL_COLUMN]))
    return largest_total


_FIGURES = {
    "pde": r"adjustment\s+pde\s+(\S+)\s+quadrature\s+(\S+)\s+rel error\s+(\S+)",
    "tax": r"tax effect\s+pde\s+(\S+)\s+quadrature\s+(\S+)\s+rel error\s+(\S+)",
}


def parse_verify(stdout: str) -> dict[str, float] | None:
    """The figures pde-verify prints: {pde, quadrature, rel, tax_pde, tax_quadrature,
    tax_rel}, or None when a line is missing."""
    out = {}
    for prefix, pattern in _FIGURES.items():
        m = re.search(pattern, stdout)
        if m is None:
            return None
        label = "" if prefix == "pde" else "tax_"
        for key, text in zip(("pde", "quadrature", "rel"), m.groups()):
            out[label + key] = float(text)
    return out


def check_surface(path: Path, grid: tuple[int, int], verdict: Verdict, digest) -> None:
    """The pde-verify surface file: header plus one finite row per (t, S) node."""
    n_t, n_s = grid
    rows_per_t: dict[str, int] = {}
    try:
        with open(path, "rb") as fh:
            header = fh.readline()
            digest.update(header)
            if header.decode().strip() != "t,S,economic,adjustment":
                verdict.errors.append(f"surface: header {header!r}")
                return
            for raw in fh:
                digest.update(raw)
                cells = raw.decode().rstrip("\n").split(",")
                try:
                    values = [_number(c) for c in cells]
                except ValueError:
                    values = []
                if len(values) != 4 or not all(math.isfinite(v) for v in values):
                    verdict.errors.append(f"surface: bad row {raw[:80]!r}")
                    return
                rows_per_t[cells[0]] = rows_per_t.get(cells[0], 0) + 1
    except OSError as exc:
        verdict.errors.append(f"surface: {exc}")
        return
    if len(rows_per_t) != n_t or any(n != n_s for n in rows_per_t.values()):
        verdict.errors.append(
            f"surface: {len(rows_per_t)} time levels with "
            f"{sorted(set(rows_per_t.values()))} nodes each, expected {n_t} x {n_s}")


class Checker:
    """Judges the ops of one run against a reference and against its first op.

    ``reference`` is the reference CSV text for ``run`` workloads and the
    reference figures (``verify.json``) for ``verify``."""

    def __init__(self, kind: str, reference, spot: float = 100.0,
                 grid: tuple[int, int] = (401, 401)):
        self.kind = kind
        self.reference = reference
        self.spot = spot
        self.grid = grid
        self.first_digest: str | None = None

    def check(self, out: OpOutput) -> Verdict:
        verdict = Verdict()
        if out.code != 0:
            verdict.errors.append(f"exit code {out.code}")
        digest = hashlib.sha256()
        if self.kind == "verify":
            self._check_verify(out, verdict, digest)
        elif out.text is None:
            verdict.errors.append("no report written")
        else:
            digest.update(out.text.encode())
            largest_total = check_csv(out.text, self.reference, verdict)
            if largest_total > 0:
                verdict.rel_err = verdict.max_se_bp / largest_total
        value = digest.hexdigest()
        if self.first_digest is None:
            self.first_digest = value
        elif value != self.first_digest:
            verdict.errors.append("output differs from the run's first op")
        return verdict

    def _check_verify(self, out: OpOutput, verdict: Verdict, digest) -> None:
        digest.update(out.stdout.encode())
        if "PASS" not in out.stdout.split():
            verdict.errors.append("pde-verify did not print PASS")
        figures = parse_verify(out.stdout)
        if figures is None:
            verdict.errors.append("pde-verify figures missing from stdout")
        elif not all(math.isfinite(v) for v in figures.values()):
            verdict.errors.append(f"pde-verify figures not finite: {figures}")
        else:
            ref = self.reference
            for key in ("pde", "quadrature", "tax_pde", "tax_quadrature"):
                diff = abs(figures[key] - ref[key])
                verdict.max_diff_bp = max(verdict.max_diff_bp, diff / self.spot * 1e4)
                scale = ref["quadrature"] if key in ("pde", "quadrature") else ref["tax_quadrature"]
                if diff > ref["tolerance"] * abs(scale):
                    verdict.errors.append(f"pde-verify {key} {figures[key]} vs reference {ref[key]}")
            verdict.rel_err = max(figures["rel"], figures["tax_rel"])
            # The verifier's absolute discrepancy, in bp of the spot.
            verdict.max_se_bp = figures["rel"] * abs(figures["quadrature"]) / self.spot * 1e4
        if out.surface is None:
            verdict.errors.append("no surface file")
        else:
            check_surface(out.surface, self.grid, verdict, digest)


def load_reference(directory: Path, workload: str, kind: str):
    """The reference CSV text, or for ``verify`` the reference figures."""
    if kind == "verify":
        return json.loads((directory / f"{workload}.json").read_text())
    return (directory / f"{workload}.csv").read_text()
