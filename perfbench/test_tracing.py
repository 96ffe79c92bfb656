"""Self time and worker utilisation from synthetic spans, and the tracer's
attribute swapping on the real package.

    python3 -m unittest discover -s perfbench -p "test_*.py"   # from the repository root
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import tracing  # noqa: E402


def span(span_id, name, start, end, parent=None, thread=1, attrs=None):
    return (span_id, name, start, end, parent, 1, thread, attrs)


class LayerFigures(unittest.TestCase):
    def test_union_of_overlapping_intervals(self):
        self.assertEqual(tracing._union_length([(0, 2), (1, 3), (5, 6)]), 4)
        self.assertEqual(tracing._union_length([]), 0)

    def test_self_time_subtracts_overlapping_worker_children_once(self):
        # A 10 s run_config whose 8 s profile has two workers busy 0-4 s and 1-8 s.
        spans = [
            span(1, "cli.main", 0, 11),
            span(2, "runner.run_config", 0.5, 10.5, parent=1, attrs={"rows": 48}),
            span(3, "exposure.profile", 1, 9, parent=2, attrs={"workers": 2}),
            span(4, "ratemodel.simulate", 1, 2, parent=3, thread=2),
            span(5, "exposure.reduce", 4, 5, parent=3, thread=2),
            span(6, "ratemodel.simulate", 2, 3, parent=3, thread=3),
            span(7, "exposure.reduce", 8, 9, parent=3, thread=3),
        ]
        layers = tracing.op_layers(spans, {"xva.quadrature": 6})
        self.assertAlmostEqual(layers["runner.self_s"], 10 - 8)
        self.assertAlmostEqual(layers["cli.self_s"], 11 - 10)
        self.assertEqual(layers["runner.rows"], 48)
        self.assertEqual(layers["ratemodel.blocks"], 2)
        self.assertEqual(layers["xva.quadratures"], 6)
        # Blocks busy 1-5 s and 2-9 s of 2 workers x 8 s.
        self.assertAlmostEqual(layers["exposure.worker_util"], (4 + 7) / 16)

    def test_tracer_restores_every_wrapped_attribute(self):
        try:
            import xvakit.cli  # noqa: F401
        except ImportError:
            self.skipTest("xvakit is not importable; run from the repository root")
        before = {(t, a): tracing._resolve(t).__dict__[a]
                  for t, a, _ in tracing.SPANS + tracing.COUNTERS}
        with tracing.Tracer().installed() as tracer:
            self.assertEqual(tracer.missing, [])
            self.assertIsNot(tracing._resolve("xvakit.cli").run_config, before[
                ("xvakit.cli", "run_config")])
        after = {(t, a): tracing._resolve(t).__dict__[a]
                 for t, a, _ in tracing.SPANS + tracing.COUNTERS}
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
