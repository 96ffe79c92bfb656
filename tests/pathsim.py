"""Whole-path simulation for tests, built on the production block functions.

``exposure_profile`` streams blocks and never steps antithetic twins; the
tests that need whole paths get them here.  Each block is stepped by one
``_simulate_block`` call, which draws all of the block's normals at once,
and with antithetic sampling the twin half is stepped as well, from the
negated draws, so a test can check the identity ``exposure_profile`` relies
on: twin == -drawn.
"""

from dataclasses import dataclass

import numpy as np

from xvakit.ratemodel import (_discount_shift, _simulate_block, _step_table, _validate_grid,
                              map_blocks)


@dataclass
class PathSet:
    """Path-major ``(paths, grid)`` arrays; each block is its drawn paths, then its twins.

    ``integrated`` is the conditional mean of the integral of the factor
    over ``[0, t]`` given the factor on the grid, ``short_rate`` is
    ``x + alpha(t)`` and ``discount`` is the conditional mean of
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


class Negated:
    """A generator's normals, negated: the draws of the antithetic twins."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, out):
        self.rng.standard_normal(out=out)
        np.negative(out, out=out)


def block_rng(seed, block_index):
    """Block ``block_index``'s generator, seeded as ``exposure_profile`` seeds it."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block_index,)))


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
        n_draw = size // 2 if antithetic else size
        rngs = [block_rng(seed, idx)]
        if antithetic:
            rngs.append(Negated(block_rng(seed, idx)))
        halves = []
        for rng in rngs:
            x, y = np.zeros((2, len(g), n_draw))
            _simulate_block(steps, rng, 0, x, y, np.empty((len(steps), n_draw)))
            halves.append((x, y))
        return np.hstack([x for x, _ in halves]), np.hstack([y for _, y in halves])

    parts = list(map_blocks(run_block, n_paths, antithetic, n_workers))
    x = np.concatenate([p[0] for p in parts], axis=1).T
    y = np.concatenate([p[1] for p in parts], axis=1).T
    int_shift = _discount_shift(model, curve, g, steps)
    return PathSet(grid=g, factor=x, integrated=y,
                   short_rate=x + np.asarray(shift(model, curve, g))[None, :],
                   discount=np.exp(-(int_shift[None, :] + y)))
