#!/usr/bin/env python3
"""Sweep the market price of default risk and report how the adjustments move.

One Monte Carlo run is reused across the whole sweep: only the quadrature
weights change with the price of risk.  Shows the tax adjustment crossing
zero as the warehoused tax credit overtakes the tax on the capital return.

Usage: python scripts/warehouse_sweep.py [rating] [paths]
"""

import sys
from dataclasses import replace

import numpy as np

from run_presets import path_count
from xvakit.config import PRESETS
from xvakit.runner import run_config


def main() -> None:
    preset = PRESETS["warehouse-neg"]()
    rating = sys.argv[1] if len(sys.argv) > 1 else "BB"
    if rating not in preset.rating_table:
        sys.exit(f"rating: unknown {rating!r}, expected one of {', '.join(preset.rating_table)}")
    paths = path_count(sys.argv[2]) if len(sys.argv) > 2 else 50_000
    xis = tuple(np.round(np.linspace(-0.75, 0.75, 13), 4))
    cfg = replace(
        preset,
        ratings=(rating,),
        price_of_risk_xi=xis,
        phi=(0.0,),
        paths=paths,
    )
    result = run_config(cfg)
    print(f"rating {rating}, psi=0, phi=0, {paths} paths")
    print(f"{'xi':>7}  {'CVA':>8}  {'DVA':>8}  {'FCA':>8}  {'KVA':>8}  {'TVA':>8}  {'Total':>8}")
    b = result.breakdown.as_bps()
    kva = b["kva_mr"] + b["kva_ccr"] + b["kva_cva"]
    for i, (_, xi, *_) in enumerate(result.rows):
        print(
            f"{xi:>+7.3f}  {b['cva'][i]:>8.2f}  {b['dva'][i]:>8.2f}  "
            f"{b['fca'][i]:>8.2f}  {kva[i]:>8.2f}  {b['tva'][i]:>8.2f}  {b['total'][i]:>8.2f}"
        )


if __name__ == "__main__":
    main()
