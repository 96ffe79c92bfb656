#!/usr/bin/env python3
"""Grid-refinement study of the finite-difference verifier.

Solves the toy equity problem on a ladder of grids and reports the error of
the adjustment at the spot against the quadrature decomposition, plus the
observed convergence order between consecutive grids.

Usage: python scripts/pde_convergence.py
"""

import math
import time

from xvakit.config import PdeVerifyConfig
from xvakit.pde import Grid, quadrature_oracle, solve_vhat

PROBLEM = PdeVerifyConfig().problem  # the problem `xva pde-verify` checks by default


def main() -> None:
    oracle = quadrature_oracle(PROBLEM).total[0]  # xva.breakdown on the exact profiles
    print(f"quadrature adjustment: {oracle:+.8f}")
    print(f"{'grid':>10}  {'adjustment':>14}  {'abs error':>12}  {'order':>6}  {'time':>7}")
    previous = None
    for n in (50, 100, 200, 400, 800):
        start = time.perf_counter()
        value = solve_vhat(PROBLEM, Grid(n, n)).value_at_spot()
        elapsed = time.perf_counter() - start
        error = abs(value - oracle)
        order = f"{math.log2(previous / error):.2f}" if previous else "    -"
        print(f"{n:>6}x{n:<4} {value:>+14.8f}  {error:>12.3e}  {order:>6}  {elapsed:>6.2f}s")
        previous = error


if __name__ == "__main__":
    main()
