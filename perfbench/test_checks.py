"""Every correctness check of the benchmark must be able to fail.

    python3 -m unittest discover -s perfbench -p "test_*.py"

Feeds the checker the reference outputs, which must pass, and corrupted
copies of them, each of which must count as a failed op.  Uses only the
stdlib and the committed references; the program itself is not run.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402

REFERENCE = HERE / "reference"
GRID = (3, 4)


def _replace_column(text: str, column: str, fn) -> str:
    header, rows = checks.parse_csv(text)
    lines = [",".join(header)]
    for row in rows:
        row[column] = fn(row[column])
        lines.append(",".join(row[h] for h in header))
    return "\n".join(lines) + "\n"


VERIFY_STDOUT = """\
adjustment  pde -5.927540   quadrature -5.927468   rel error 1.210e-05 (tolerance 5.000e-03)
components  cva -1.724381  dva -0.000000  fca -0.928941  colva -0.046354  kva -2.816026  tva -0.411766
tax effect  pde -0.411771   quadrature -0.411766   rel error 1.210e-05
funding-condition residual (max over nodes): 2.274e-13
PASS
"""


def _surface(path: Path, rows=None, cell=lambda v: f"np.float64({v!r})") -> Path:
    lines = ["t,S,economic,adjustment"]
    for i in range(GRID[0]):
        for j in range(GRID[1]):
            lines.append(",".join(cell(float(v)) for v in (i, j + 1, 0.5, -0.25)))
    if rows is not None:
        lines = lines[: rows + 1]
    path.write_text("\n".join(lines) + "\n")
    return path


class RunChecks(unittest.TestCase):
    def setUp(self):
        self.text = checks.load_reference(REFERENCE, "long-book", "run")

    def check(self, *texts):
        checker = checks.Checker("run", self.text)
        return [checker.check(checks.OpOutput(code=0, text=t)) for t in texts]

    def test_reference_passes(self):
        verdicts = self.check(self.text, self.text)
        self.assertTrue(all(v.ok for v in verdicts), [v.errors for v in verdicts])
        self.assertEqual(verdicts[0].max_diff_bp, 0.0)
        self.assertGreater(verdicts[0].max_se_bp, 0.0)

    def test_sign_flipped_cva_fails(self):
        flipped = _replace_column(self.text, "cva_bp", lambda v: repr(-float(v)))
        (verdict,) = self.check(flipped)
        self.assertFalse(verdict.ok)
        self.assertIn("cva_bp", " ".join(verdict.errors))

    def test_nan_fails(self):
        header, rows = checks.parse_csv(self.text)
        lines = self.text.split("\n")
        lines[3] = lines[3].replace(rows[2]["tva_bp"], "nan")
        (verdict,) = self.check("\n".join(lines))
        self.assertFalse(verdict.ok)
        self.assertIn("non-finite", " ".join(verdict.errors))

    def test_dropped_row_fails(self):
        lines = self.text.split("\n")
        (verdict,) = self.check("\n".join(lines[:5] + lines[6:]))
        self.assertFalse(verdict.ok)

    def test_non_identical_repeat_fails(self):
        # Within tolerance of the reference, but not byte-identical to the first op.
        nudged = _replace_column(self.text, "se_bp", lambda v: repr(float(v) * (1 + 1e-12)))
        first, repeat = self.check(self.text, nudged)
        self.assertTrue(first.ok)
        self.assertEqual(repeat.errors, ["output differs from the run's first op"])

    def test_nonzero_exit_fails(self):
        checker = checks.Checker("run", self.text)
        verdict = checker.check(checks.OpOutput(code=1, text=self.text))
        self.assertFalse(verdict.ok)

    def test_missing_report_fails(self):
        checker = checks.Checker("run", self.text)
        self.assertFalse(checker.check(checks.OpOutput(code=0)).ok)

    def test_other_seed_within_statistical_tolerance(self):
        shifted = _replace_column(self.text, "total_bp", lambda v: repr(float(v) + 0.5))
        (verdict,) = self.check(shifted)
        self.assertTrue(verdict.ok, verdict.errors)
        self.assertAlmostEqual(verdict.max_diff_bp, 0.5, places=9)


class VerifyChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self.tmp.name)
        self.reference = checks.load_reference(REFERENCE, "verify", "verify")

    def tearDown(self):
        self.tmp.cleanup()

    def check(self, stdout=VERIFY_STDOUT, code=0, surface=None):
        checker = checks.Checker("verify", self.reference, grid=GRID)
        if surface is None:
            surface = _surface(self.dir / "surface.csv")
        return checker.check(checks.OpOutput(code=code, stdout=stdout, surface=surface))

    def test_reference_passes(self):
        verdict = self.check()
        self.assertTrue(verdict.ok, verdict.errors)
        self.assertAlmostEqual(verdict.rel_err, 1.21e-5)

    def test_plain_float_surface_passes(self):
        verdict = self.check(surface=_surface(self.dir / "plain.csv", cell=repr))
        self.assertTrue(verdict.ok, verdict.errors)

    def test_fail_verdict_fails(self):
        stdout = VERIFY_STDOUT.replace("PASS\n", "")
        verdict = self.check(stdout=stdout, code=2)
        self.assertFalse(verdict.ok)
        self.assertIn("PASS", " ".join(verdict.errors))

    def test_discrepant_figures_fail(self):
        verdict = self.check(stdout=VERIFY_STDOUT.replace("pde -5.927540", "pde -6.927540"))
        self.assertFalse(verdict.ok)

    def test_incomplete_surface_fails(self):
        verdict = self.check(surface=_surface(self.dir / "short.csv", rows=GRID[0] * GRID[1] - 1))
        self.assertFalse(verdict.ok)

    def test_non_finite_surface_fails(self):
        verdict = self.check(surface=_surface(self.dir / "nan.csv", cell=lambda v: "nan"))
        self.assertFalse(verdict.ok)


if __name__ == "__main__":
    unittest.main()
