#!/usr/bin/env python3
"""Sweep the market price of default risk and report how the adjustments move.

One exposure profile is reused across the whole sweep: only the quadrature
weights change with the price of risk.  Shows the tax adjustment crossing
zero as the warehoused tax credit overtakes the tax on the capital return.

Usage: python scripts/warehouse_sweep.py [rating]
"""

import sys

import numpy as np

from xvakit.config import ConfigError, load_config
from xvakit.runner import run_config


def main() -> None:
    if len(sys.argv) > 2:
        sys.exit("usage: python scripts/warehouse_sweep.py [rating]")
    rating = sys.argv[1] if len(sys.argv) > 1 else "BB"
    xis = np.round(np.linspace(-0.75, 0.75, 13), 4).tolist()
    overrides = {"ratings": [rating], "priceOfRiskXi": xis, "phi": [0.0]}
    try:
        cfg = load_config("warehouse-neg", overrides)
    except ConfigError as exc:
        sys.exit("\n".join(exc.diagnostics))
    result = run_config(cfg)
    print(f"rating {rating}, psi=0, phi=0")
    print(f"{'xi':>7}  {'CVA':>8}  {'DVA':>8}  {'FCA':>8}  {'KVA':>8}  {'TVA':>8}  {'Total':>8}")
    b = result.breakdown
    bp = b.as_bps()
    kva = b.bps(b.kva)
    for i, (_, xi, *_) in enumerate(result.rows):
        print(
            f"{xi:>+7.3f}  {bp['cva'][i]:>8.2f}  {bp['dva'][i]:>8.2f}  "
            f"{bp['fca'][i]:>8.2f}  {kva[i]:>8.2f}  {bp['tva'][i]:>8.2f}  {bp['total'][i]:>8.2f}"
        )


if __name__ == "__main__":
    main()
