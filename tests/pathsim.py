"""Whole-path sampling for tests, built on the sampler's row draws.

``simulate_paths`` draws every grid row of every path through
``exposure._simulate_block``, one row after another from one generator, as
``exposure._sampled_epe`` draws them.  A "path" is one column: its grid rows
are independent draws from each time's marginal law.

No path carries a discount factor.  A discounted mean at ``t`` is priced
under the t-forward measure: ``E[D_t g(x_t)] = P(0, t) E[g(x_t + m_t)]``
over these Q paths, with ``m_t`` from ``forward_mean``.
"""

from dataclasses import dataclass

import numpy as np

from xvakit.exposure import _simulate_block
from xvakit.ratemodel import _validate_grid


@dataclass
class PathSet:
    """Path-major ``(paths, grid)`` arrays.  ``short_rate`` is ``x + alpha(t)``."""

    grid: np.ndarray
    factor: np.ndarray
    short_rate: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.factor.shape[0]


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


def simulate_paths(model, curve, grid, n_paths, seed) -> PathSet:
    """``n_paths`` paths of ``seed``: row ``k`` is the sampler's ``k``-th draw."""
    g = _validate_grid(grid)
    sd, rng = np.sqrt(model.variance(g)), np.random.default_rng(seed)
    x = np.vstack([_simulate_block(sd, rng, k, n_paths) for k in range(len(g))]).T
    return PathSet(grid=g, factor=x, short_rate=x + np.asarray(shift(model, curve, g))[None, :])
