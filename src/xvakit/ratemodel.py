"""One-factor mean-reverting Gaussian short-rate model.

The short rate is ``r(t) = x(t) + alpha(t)`` where ``x`` is an
Ornstein-Uhlenbeck factor, ``dx = -a x dt + sigma dW``, ``x(0) = 0``, and
``alpha`` is the deterministic shift that fits the initial discount curve
exactly.  This is the minimal model with closed-form zero-coupon bonds,

    P(t, T) = P(0, T) / P(0, t) * exp(-x(t) B(t, T) - c(t, T)),

with ``B(t, T) = (1 - exp(-a (T-t))) / a`` and a deterministic convexity
term ``c``; see ``bond_price``.  Simulation is exact: per step the pair
(factor increment, integrated factor) is drawn from its joint Gaussian law,
so pathwise discount factors are unbiased at any step size and their mean
reproduces the input curve in expectation.  The moments are written in
``B``, and as a series where their closed form cancels, so they stay exact
to rounding however small ``a`` is.

Determinism: paths are generated in fixed-size blocks, block ``b`` seeded
from ``SeedSequence(seed, spawn_key=(b,))``, and ``map_blocks`` yields the
blocks' results in block order.  Results are therefore bit-identical for a
given (seed, n_paths, antithetic) regardless of how many workers execute the
blocks.  A block's normals are drawn at once, path-major; ``_simulate_block``
advances a run of grid rows from them in place, grid-major ``(rows, paths)``,
so each time step reads and writes one contiguous row.  With antithetic
sampling only the drawn half of a block is stepped: negation commutes with
every multiply and add of the recursion, so each twin path is the exact
IEEE negation of its drawn path and ``exposure_profile`` derives it from
the drawn half.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve

BLOCK_SIZE = 8192  # paths per deterministic substream; even, so antithetic pairs fit

# The series of ``_variance_bracket`` in u, highest power first: below u = 1,
# its 24 terms leave a remainder under 1e-17 of the sum.
_BRACKET_SERIES = np.array([(-1) ** (k + 1) * (2.0 ** (k - 1) - 2.0) / math.factorial(k)
                            for k in range(26, 2, -1)])


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

    def _variance_bracket(self, t):
        """``(t - 2 B(t) + B(2t) / 2) / a^2``: the variance of the integrated
        factor over ``[0, t]``, per ``sigma^2``.

        Its terms cancel for small ``u = a t``, so below ``u = 1`` it is
        summed as its series ``t^3 sum_{k>=3} (-1)^(k+1) (2^(k-1) - 2) u^(k-3) / k!``.
        """
        a = self.mean_reversion
        t = np.asarray(t, dtype=float)
        out = np.array(np.polyval(_BRACKET_SERIES, a * t) * t ** 3)
        closed = t - 2.0 * self.b_factor(t) + 0.5 * self.b_factor(2.0 * t)
        return np.divide(closed, a * a, out=out, where=a * t >= 1.0)

    def _convexity(self, t, dt):
        """Deterministic part of the bond-price exponent at time t, tenor dt."""
        s = self.sigma
        b, b_t = self.b_factor(dt), self.b_factor(t)
        return s * s * (b * b * self.b_factor(2.0 * np.asarray(t, dtype=float)) / 4.0
                        + b * b_t * b_t / 2.0)

    def _integrated_shift(self, curve: DiscountCurve, t):
        """Integral of alpha over [0, t]; makes E[pathwise df] match the curve."""
        t_arr = np.asarray(t, dtype=float)
        s = self.sigma
        return -curve.log_df(t_arr) + 0.5 * s * s * self._variance_bracket(t_arr)

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

    def step_moments(self, dt: float) -> tuple[float, float, float, float]:
        """(decay, var_x, cov_xy, var_y) of (x(t+dt), int_t^{t+dt} x ds) given x(t)."""
        s = self.sigma
        b = self.b_factor(dt)
        var_x = s * s * self.b_factor(2.0 * dt) / 2.0
        cov = s * s * b * b / 2.0
        var_y = s * s * self._variance_bracket(dt)
        return float(np.exp(-self.mean_reversion * dt)), float(var_x), float(cov), float(var_y)


def _validate_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or len(g) < 2:
        raise ValueError("grid must be a 1-d array with at least two points")
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


def map_blocks(fn, n_paths: int, antithetic: bool, n_workers: int = 1) -> Iterator:
    """``fn(block_index, block_size)`` over the deterministic path blocks.

    The arguments are checked at once; the results come lazily, in block
    order, so any reduction over them is independent of the worker count.
    On ``n_workers`` threads at most ``2 n_workers`` blocks run ahead of the
    consumer, so a fold over the results holds only a few at a time.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if antithetic and n_paths % 2:
        raise ValueError("antithetic sampling needs an even path count")
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


def _step_table(model: ShortRateModel, grid: np.ndarray) -> np.ndarray:
    """Per step, ``(decay, l11, l21, l22, B(dt))``: the Cholesky factors of its exact law."""
    rows = []
    for dt in np.diff(grid):
        decay, var_x, cov, var_y = model.step_moments(dt)
        l11 = np.sqrt(var_x)
        l21 = cov / l11 if l11 > 0 else 0.0
        rows.append((decay, l11, l21, np.sqrt(max(var_y - l21 * l21, 0.0)), model.b_factor(dt)))
    return np.array(rows)


def _draw_block(n_steps: int, n_block: int, seed: int, block_index: int,
                antithetic: bool) -> np.ndarray:
    """Block ``block_index``'s normals, path-major ``(paths drawn, n_steps, 2)``.

    With antithetic sampling only the first half of the block is drawn.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block_index,)))
    return rng.standard_normal((n_block // 2 if antithetic else n_block, n_steps, 2))


def _simulate_block(steps: np.ndarray, draws: np.ndarray, k0: int, x: np.ndarray,
                    y: np.ndarray, z: np.ndarray) -> None:
    """Advance one grid-major row chunk of a block's drawn paths in place by its ``n`` steps.

    ``x[0]`` and ``y[0]`` hold the factor and the integrated factor at grid
    row ``k0`` of the ``len(draws)`` drawn paths; steps ``k0 .. k0 + n - 1``
    fill rows ``1 .. n``, with ``n = min(len(x) - 1, len(steps) - k0)``.
    ``z`` is scratch shaped ``(len(x) - 1, 3, len(draws))`` for the chunk's
    normals times their Cholesky factors, ``(z0 l11, z0 l21, z1 l22)``,
    scaled once per chunk, so each step only adds.  Antithetic twins are
    never stepped: each step only multiplies and adds, so a twin's ``x`` and
    ``y`` are exactly ``-x`` and ``-y``.
    """
    n = min(len(x) - 1, len(steps) - k0)
    chunk, z = steps[k0:k0 + n], z[:n]
    normals = draws[:, k0:k0 + n].transpose(1, 2, 0)
    np.multiply(normals[:, :1], chunk[:, 1:3, None], out=z[:, :2])
    np.multiply(normals[:, 1], chunk[:, 3, None], out=z[:, 2])
    for i, (decay, b) in enumerate(chunk[:, [0, 4]]):
        np.multiply(x[i], b, out=y[i + 1])  # ((y + x b) + l21 z0) + l22 z1
        y[i + 1] += y[i]
        y[i + 1] += z[i, 1]
        y[i + 1] += z[i, 2]
        np.multiply(x[i], decay, out=x[i + 1])  # x decay + l11 z0
        x[i + 1] += z[i, 0]
