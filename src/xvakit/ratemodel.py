"""One-factor mean-reverting Gaussian short-rate model.

The short rate is ``r(t) = x(t) + alpha(t)`` where ``x`` is an
Ornstein-Uhlenbeck factor, ``dx = -a x dt + sigma dW``, ``x(0) = 0``, and
``alpha`` is the deterministic shift that fits the initial discount curve
exactly.  This is the minimal model with closed-form zero-coupon bonds,

    P(t, T) = P(0, T) / P(0, t) * exp(-x(t) B(t, T) - c(t, T)),

with ``B(t, T) = (1 - exp(-a (T-t))) / a`` and a deterministic convexity
term ``c``; see ``bond_price``.  Exposure needs no path: it reads only
``E[D_t g(x_t)]``, one grid time at a time, over the factor's law under Q,
``x_t ~ N(0, v_t)`` with ``v_t = sigma^2 B(2t) / 2``
(``ShortRateModel.variance``).  No discount factor is carried either: under
the t-forward measure (Geman, El Karoui & Rochet, *J. Appl. Prob.* 32, 1995)
``E[D_t g(x_t)]`` is ``P(0, t) E[g(x_t + m_t)]`` with ``m_t = -sigma^2 B(t)^2
/ 2`` (``ShortRateModel.forward_drift``) and ``x_t`` under Q, so the discount
is folded into each grid time's kernel instead.  The moments are written in
``B``, so they stay exact to rounding however small ``a`` is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve


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
