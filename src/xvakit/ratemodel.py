"""One-factor mean-reverting Gaussian short-rate model.

The short rate is ``r(t) = x(t) + alpha(t)`` where ``x`` is an
Ornstein-Uhlenbeck factor, ``dx = -a x dt + sigma dW``, ``x(0) = 0``, and
``alpha`` is the deterministic shift that fits the initial discount curve
exactly.  This is the minimal model with closed-form zero-coupon bonds,

    P(t, T) = P(0, T) / P(0, t) * exp(-x(t) B(t, T) - c(t, T)),

with ``B(t, T) = (1 - exp(-a (T-t))) / a`` and a deterministic convexity
term ``c``; see ``bond_price``.  Simulation is exact and needs no path:
exposure reads only ``E[D_t g(x_t)]``, one grid time at a time, so each grid
row draws its own normals and takes ``x_t = sqrt(v_t) z`` from the factor's
law under Q, ``x_t ~ N(0, v_t)`` with ``v_t = sigma^2 B(2t) / 2``
(``ShortRateModel.variance``).  Rows are independent of one another, so a
time integral's Monte Carlo error is the root sum of squares of its rows'
errors.  No discount factor is carried either: under the t-forward measure
(Geman, El Karoui & Rochet, *J. Appl. Prob.* 32, 1995) ``E[D_t g(x_t)]`` is
``P(0, t) E[g(x_t + m_t)]`` with ``m_t = -sigma^2 B(t)^2 / 2``
(``ShortRateModel.forward_drift``) and ``x_t`` the factor sampled here, so
the discount is folded into each grid time's kernel instead.  The moments
are written in ``B``, so they stay exact to rounding however small ``a`` is.

Determinism: paths are generated in fixed-size blocks, block ``b`` seeded
from ``SeedSequence(seed, spawn_key=(b,))``, and ``map_blocks`` yields the
blocks' results in block order.  Results are therefore bit-identical for a
given (seed, n_paths) regardless of how many workers execute the blocks.
``_simulate_block`` draws a run of grid rows' normals grid-major,
``(rows, paths)``, and scales each row by its standard deviation, so chunks
drawn in turn read the stream as one whole-block draw would.  The sampling
unit is an antithetic pair: only half of a block's paths are drawn, and each
twin is the exact IEEE negation of its drawn path, which
``exposure_profile`` never draws.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve

BLOCK_SIZE = 8192  # paths per deterministic substream; even, so antithetic pairs fit


@dataclass(frozen=True)
class ShortRateModel:
    """Model parameters: mean-reversion speed (1/years) and absolute volatility.

    The drift reproduces today's discount curve.
    """

    mean_reversion: float
    sigma: float

    def __post_init__(self):
        if not self.mean_reversion > 0:
            raise ValueError("mean_reversion must be > 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    # -- deterministic helpers -------------------------------------------------

    def b_factor(self, dt):
        """``B(dt) = (1 - exp(-a dt)) / a``, to rounding however small ``a dt``."""
        a = self.mean_reversion
        return -np.expm1(-a * np.asarray(dt, dtype=float)) / a

    def _convexity(self, t, dt):
        """Deterministic part of the bond-price exponent at time t, tenor dt."""
        s = self.sigma
        b, b_t = self.b_factor(dt), self.b_factor(t)
        return s * s * (b * b * self.b_factor(2.0 * np.asarray(t, dtype=float)) / 4.0
                        + b * b_t * b_t / 2.0)

    def affine(self, curve: DiscountCurve, t, maturity):
        """``(log A, B)`` with P(t, T) = A(t, T) exp(-x B(t, T)); t and T broadcast."""
        dt = np.maximum(np.asarray(maturity, dtype=float) - t, 0.0)
        log_a = curve.log_df(maturity) - curve.log_df(t) - self._convexity(t, dt)
        return log_a, self.b_factor(dt)

    def bond_price(self, curve: DiscountCurve, t, maturity, x):
        """Zero-coupon bond P(t, maturity) given the factor value(s) x at t."""
        if np.any(np.asarray(maturity, dtype=float) - t < -1e-12):
            raise ValueError("bond maturity before observation time")
        log_a, b = self.affine(curve, t, maturity)
        return np.exp(log_a - np.multiply.outer(np.asarray(x, dtype=float), b))

    def forward_drift(self, t):
        """``m_t = -sigma^2 B(t)^2 / 2``: the mean of ``x_t`` under the t-forward measure,
        whose law there is that of ``x_t + m_t`` under Q."""
        s, b = self.sigma, self.b_factor(t)
        return -0.5 * s * s * b * b

    def variance(self, t):
        """``v_t = sigma^2 B(2t) / 2``: the variance of ``x_t`` under Q, where ``x_0 = 0``."""
        s = self.sigma  # s * s is inf where a float's s ** 2 raises OverflowError
        return s * s * self.b_factor(2.0 * np.asarray(t, dtype=float)) / 2.0


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
    if not np.isfinite(g).all():
        raise ValueError("grid must be finite")
    if g[0] != 0.0:
        raise ValueError("grid must start at 0")
    if np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing")
    return g


def _block_sizes(n_paths: int) -> list[int]:
    sizes = [BLOCK_SIZE] * (n_paths // BLOCK_SIZE)
    if n_paths % BLOCK_SIZE:
        sizes.append(n_paths % BLOCK_SIZE)
    return sizes


def map_blocks(fn, n_paths: int, n_workers: int = 1) -> Iterator:
    """``fn(block_index, block_size)`` over the deterministic path blocks.

    ``n_paths`` must be even and at least 6: three antithetic pairs, as the
    control variate's residual has ``n - 2`` degrees of freedom.  The
    arguments are checked at once; the results come lazily, in block
    order, so any reduction over them is independent of the worker count.
    On ``n_workers`` threads at most ``2 n_workers`` blocks run ahead of the
    consumer, so a fold over the results holds only a few at a time.
    """
    if n_paths < 6 or n_paths % 2:
        raise ValueError(f"n_paths must be even and >= 6, got {n_paths}")
    jobs = list(enumerate(_block_sizes(n_paths)))
    if n_workers > 1 and len(jobs) > 1:
        return _map_threaded(fn, jobs, n_workers)
    return (fn(*job) for job in jobs)


def _map_threaded(fn, jobs, n_workers: int) -> Iterator:
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        ahead = deque()
        for job in jobs:
            ahead.append(pool.submit(fn, *job))
            if len(ahead) == 2 * n_workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _simulate_block(sd: np.ndarray, rng: np.random.Generator, k0: int, x: np.ndarray) -> None:
    """Draw one grid-major row chunk of a block's drawn paths into ``x``.

    Grid rows ``k0 .. k0 + n - 1`` fill ``x[:n]``, with ``n = min(len(x),
    len(sd) - k0)``: each row its own normals from the block's ``rng``, times
    that row's ``sd``.  Antithetic twins are never drawn: a twin's ``x`` is
    exactly ``-x``.
    """
    n = min(len(x), len(sd) - k0)
    rng.standard_normal(out=x[:n])
    x[:n] *= sd[k0:k0 + n, None]
