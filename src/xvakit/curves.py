"""Discount-curve primitives.

Conventions used throughout the package:

- times are year fractions measured from the valuation date (t = 0),
- zero rates are continuously compounded,
- the log discount factor is interpolated linearly between pillars
  (equivalently: instantaneous forwards are piecewise constant), so the
  curve reproduces its pillar quotes exactly and df(0) == 1,
- beyond the last pillar the zero rate is extrapolated flat.

Curves are plain dataclasses; treat them as immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class DiscountCurve:
    """Zero curve with log-linear discount-factor interpolation.

    ``pillars[i]`` is a year fraction (> 0, strictly increasing) and
    ``zero_rates[i]`` the continuously compounded zero rate quoted there.
    """

    pillars: tuple[float, ...]
    zero_rates: tuple[float, ...]
    _knots: np.ndarray = field(init=False, repr=False, compare=False)
    _log_dfs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.pillars = tuple(float(p) for p in self.pillars)
        self.zero_rates = tuple(float(r) for r in self.zero_rates)
        # Each message starts with the offending field, for the config to name.
        if len(self.pillars) != len(self.zero_rates):
            raise ValueError("zero_rates: must have one rate per pillar")
        if not self.pillars or self.pillars[0] <= 0 or any(
                b <= a for a, b in zip(self.pillars, self.pillars[1:])):
            raise ValueError("pillars: must be strictly increasing and start > 0")
        if not all(np.isfinite(self.zero_rates)):
            raise ValueError("zero_rates: must be finite")
        # Interpolation knots include t=0 with log df 0, so df(0) == 1 exactly.
        self._knots = np.concatenate([[0.0], np.asarray(self.pillars)])
        self._log_dfs = np.concatenate(
            [[0.0], -np.asarray(self.zero_rates) * np.asarray(self.pillars)]
        )

    def log_df(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("time must be >= 0")
        inside = np.interp(t_arr, self._knots, self._log_dfs)
        # Flat zero-rate extrapolation beyond the last pillar.
        return np.where(t_arr > self.pillars[-1], -self.zero_rates[-1] * t_arr, inside)

    def df(self, t):
        """Discount factor exp(-r(t) * t)."""
        return np.exp(self.log_df(t))

    def forward(self, t):
        """Instantaneous forward rate; piecewise constant between pillars.

        On each segment (knot[i-1], knot[i]] the forward is the slope of the
        log discount factor; the value is flat beyond the last pillar.
        """
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("time must be >= 0")
        seg_fwd = -np.diff(self._log_dfs) / np.diff(self._knots)
        idx = np.searchsorted(self._knots, t_arr, side="left")
        idx = np.clip(idx - 1, 0, len(seg_fwd) - 1)
        return np.where(t_arr > self.pillars[-1], self.zero_rates[-1], seg_fwd[idx])
