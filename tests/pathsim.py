"""Whole-path simulation for tests, built on the production block functions.

``exposure_profile`` streams blocks and never steps antithetic twins; the
tests that need whole paths get them here.  Each block is stepped by
``_simulate_block`` from its ``_draw_block`` normals, and with antithetic
sampling the twin half is stepped as well, from the negated draws, so a test
can check the identity ``exposure_profile`` relies on: twin == -drawn.
"""

from dataclasses import dataclass

import numpy as np

from xvakit.ratemodel import _draw_block, _simulate_block, _step_table, _validate_grid, map_blocks


@dataclass
class PathSet:
    """Path-major ``(paths, grid)`` arrays; each block is its drawn paths, then its twins.

    ``integrated`` is the integral of the factor over ``[0, t]``,
    ``short_rate`` is ``x + alpha(t)`` and ``discount`` is
    ``exp(-integral of r over [0, t])`` along the path.
    """

    grid: np.ndarray
    factor: np.ndarray
    integrated: np.ndarray
    short_rate: np.ndarray
    discount: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.factor.shape[0]


def shift(model, curve, t):
    """alpha(t): the short-rate level around which the factor fluctuates."""
    a, s = model.mean_reversion, model.sigma
    one_m = 1.0 - np.exp(-a * np.asarray(t, dtype=float))
    return curve.forward(t) + s * s * one_m * one_m / (2.0 * a * a)


def simulate_paths(model, curve, grid, n_paths, seed, antithetic=True, n_workers=1) -> PathSet:
    """Every path of ``exposure_profile``'s blocks, twins stepped from negated draws."""
    g = _validate_grid(grid)
    steps = _step_table(model, g)

    def run_block(idx, size):
        draws = _draw_block(len(steps), size, seed, idx, antithetic)
        halves = []
        for half in ([draws, -draws] if antithetic else [draws]):
            x, y = np.zeros((2, len(g), len(half)))
            _simulate_block(steps, half, 0, x, y, np.empty((len(steps), 3, len(half))))
            halves.append((x, y))
        return np.hstack([x for x, _ in halves]), np.hstack([y for _, y in halves])

    parts = map_blocks(run_block, n_paths, antithetic, n_workers)
    x = np.concatenate([p[0] for p in parts], axis=1).T
    y = np.concatenate([p[1] for p in parts], axis=1).T
    int_shift = np.asarray(model._integrated_shift(curve, g))
    return PathSet(grid=g, factor=x, integrated=y,
                   short_rate=x + np.asarray(shift(model, curve, g))[None, :],
                   discount=np.exp(-(int_shift[None, :] + y)))
