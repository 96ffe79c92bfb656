#!/usr/bin/env python3
"""Run the three shipped presets and print their breakdown tables.

The base case is a back-to-back 10y swap pair with a fully eligible credit
hedge on the uncollateralized side; the two warehouse runs drop the hedge and
flip the sign of the market price of default risk.

Usage: python scripts/run_presets.py [paths]
"""

import sys
import time

from xvakit.config import PRESETS
from xvakit.report import render_table
from xvakit.runner import run_config


def positive_even(text: str) -> int:
    """The path count in ``text``; exit 1 naming it unless a positive even integer."""
    try:
        paths = int(text)
    except ValueError:
        paths = 0
    if paths < 2 or paths % 2:
        sys.exit(f"paths: must be a positive even integer, got {text!r}")
    return paths


def main() -> None:
    paths = positive_even(sys.argv[1]) if len(sys.argv) > 1 else 50_000
    for name in ("base-case", "warehouse-pos", "warehouse-neg"):
        cfg = PRESETS[name]()
        if paths != cfg.paths:
            from dataclasses import replace

            cfg = replace(cfg, paths=paths)
        start = time.perf_counter()
        result = run_config(cfg)
        elapsed = time.perf_counter() - start
        print(f"== {name} ({elapsed:.2f}s) ==")
        print(render_table(result))


if __name__ == "__main__":
    main()
