#!/usr/bin/env python3
"""Run the three shipped presets and print their breakdown tables.

The base case is a back-to-back 10y swap pair with a fully eligible credit
hedge on the uncollateralized side; the two warehouse runs drop the hedge and
flip the sign of the market price of default risk.

Usage: python scripts/run_presets.py
"""

import sys
import time

from xvakit.config import load_config
from xvakit.report import render_table
from xvakit.runner import run_config


def main() -> None:
    if len(sys.argv) > 1:
        sys.exit("usage: python scripts/run_presets.py")
    for name in ("base-case", "warehouse-pos", "warehouse-neg"):
        cfg = load_config(name)
        start = time.perf_counter()
        result = run_config(cfg)
        elapsed = time.perf_counter() - start
        print(f"== {name} ({elapsed:.2f}s) ==")
        print(render_table(result))


if __name__ == "__main__":
    main()
