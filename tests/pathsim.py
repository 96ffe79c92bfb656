"""Whole-block sampling for tests, built on the production block functions.

``exposure_profile`` streams blocks and never samples antithetic twins; the
tests that need every grid row of every path get them here.  Each block is
sampled by one ``_simulate_block`` call, which draws all of the block's
normals at once, and its twin half is sampled as well, from the negated
draws, so a test can check the identity ``exposure_profile`` relies on:
twin == -drawn.  A "path" is one column: its grid rows are independent
draws from each time's marginal law.

No path carries a discount factor.  A discounted mean at ``t`` is priced
under the t-forward measure: ``E[D_t g(x_t)] = P(0, t) E[g(x_t + m_t)]``
over these Q paths, with ``m_t`` from ``forward_mean``.
"""

from dataclasses import dataclass

import numpy as np

from xvakit.ratemodel import _simulate_block, _validate_grid, map_blocks


@dataclass
class PathSet:
    """Path-major ``(paths, grid)`` arrays; each block is its drawn paths, then its twins.

    ``short_rate`` is ``x + alpha(t)``.
    """

    grid: np.ndarray
    factor: np.ndarray
    short_rate: np.ndarray

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


def forward_mean(model, t):
    """The factor's mean at ``t`` under the t-forward measure, ``-(sigma (1 - e^{-a t}) / a)^2 / 2``.

    The forward measure adds the drift ``-sigma^2 B(t - s)`` to ``dx`` at
    ``s``, and ``sigma^2 int_0^t e^{-a (t - s)} B(t - s) ds`` is that square.
    """
    a = model.mean_reversion
    b = -np.expm1(-a * np.asarray(t, dtype=float)) / a
    return -0.5 * (model.sigma * b) ** 2


def shared_normal(sd, rng, k0, x):
    """A planted defect: ``_simulate_block`` with one normal per path shared by every row of
    a chunk, so the rows are perfectly correlated as along a path."""
    n = min(len(x), len(sd) - k0)
    rng.standard_normal(out=x[:1])
    x[1:n] = x[0]
    x[:n] *= sd[k0:k0 + n, None]


def simulate_paths(model, curve, grid, n_paths, seed, n_workers=1) -> PathSet:
    """Every path of ``exposure_profile``'s blocks, twins sampled from negated draws."""
    g = _validate_grid(grid)
    sd = np.sqrt(model.variance(g))

    def run_block(idx, size):
        halves = []
        for rng in (block_rng(seed, idx), Negated(block_rng(seed, idx))):
            x = np.empty((len(g), size // 2))
            _simulate_block(sd, rng, 0, x)
            halves.append(x)
        return np.hstack(halves)

    x = np.concatenate(list(map_blocks(run_block, n_paths, n_workers)), axis=1).T
    return PathSet(grid=g, factor=x, short_rate=x + np.asarray(shift(model, curve, g))[None, :])
