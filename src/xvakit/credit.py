"""Credit, close-out and tax building blocks.

Everything in this module is a pure function of scalar (or numpy-broadcast)
inputs: hazard-rate relations, the hedging error and its compensating accrual
when counterparty default risk is only partially hedged, and the tax policy.
The close-out values on default are ``pde.closeout``.

Sign convention: cash received by the issuer is positive.  Default losses
therefore show up as negative hedge errors, and the compensator that offsets
their physical-measure expectation is positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CreditCurve:
    """Piecewise-constant hazard-rate curve with a flat recovery assumption.

    ``hazard_rates[i]`` applies on the interval (pillars[i-1], pillars[i]]
    (with an implicit left endpoint at 0); the last rate extends flat beyond
    the final pillar.  Survival is exp(-integrated hazard).
    """

    pillars: tuple[float, ...]
    hazard_rates: tuple[float, ...]
    recovery: float
    _knots: np.ndarray = field(init=False, repr=False)
    _cum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.pillars = tuple(float(p) for p in self.pillars)
        self.hazard_rates = tuple(float(h) for h in self.hazard_rates)
        self.recovery = float(self.recovery)
        if len(self.pillars) != len(self.hazard_rates):
            raise ValueError("pillars and hazard_rates must have the same length")
        if not self.pillars:
            raise ValueError("curve needs at least one pillar")
        if self.pillars[0] <= 0.0:
            raise ValueError("first pillar must be > 0")
        for a, b in zip(self.pillars, self.pillars[1:]):
            if b <= a:
                raise ValueError("pillars must be strictly increasing")
        if any(h < 0 for h in self.hazard_rates):
            raise ValueError("hazard rates must be >= 0")
        if not 0.0 <= self.recovery < 1.0:
            raise ValueError("recovery must lie in [0, 1)")
        self._knots = np.concatenate([[0.0], np.asarray(self.pillars)])
        self._cum = np.concatenate(
            [[0.0], np.cumsum(np.asarray(self.hazard_rates) * np.diff(self._knots))]
        )

    @classmethod
    def flat(cls, hazard: float, recovery: float, horizon: float = 50.0) -> "CreditCurve":
        return cls((horizon,), (hazard,), recovery)

    def hazard(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("time must be >= 0")
        rates = np.asarray(self.hazard_rates)
        idx = np.clip(np.searchsorted(self._knots, t_arr, side="left") - 1, 0, len(rates) - 1)
        out = rates[idx]
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(out)
        return out

    def cumulative_hazard(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("time must be >= 0")
        inside = np.interp(t_arr, self._knots, self._cum)
        beyond = self._cum[-1] + self.hazard_rates[-1] * (t_arr - self.pillars[-1])
        out = np.where(t_arr > self.pillars[-1], beyond, inside)
        if np.isscalar(t) or np.ndim(t) == 0:
            return float(out)
        return out

    def survival(self, t):
        return np.exp(-self.cumulative_hazard(t))


@dataclass(frozen=True)
class TaxPolicy:
    """Effective tax treatment applied to profits and losses as they occur.

    ``accruals_taxed`` states whether the tax authority also taxes the
    accrual stream that offsets own-credit P&L bleed (it does not when the
    bank is viewed as a going concern).  ``compensator_taxed`` optionally
    adds the default-risk compensator income to the taxable flow; off by
    default.
    """

    rate: float
    accruals_taxed: bool = False
    compensator_taxed: bool = False

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("tax rate must lie in [0, 1)")


def hazard_from_spread(spread: float, recovery: float) -> float:
    """Flat hazard rate implied by a flat credit spread: spread / (1 - R)."""
    if not 0.0 <= recovery < 1.0:
        raise ValueError("recovery must lie in [0, 1) for a positive loss given default")
    if spread < 0:
        raise ValueError("spread must be >= 0")
    return spread / (1.0 - recovery)


def effective_hazard(hazard: float, hedge_fraction: float, price_of_risk: float):
    """Hazard rate blending the hedged (risk-neutral) and warehoused (physical) parts.

    Returns ``psi * lam + (1 - psi) * (1 - xi) * lam``: the risk-neutral rate
    at full hedging, the physical rate at none, linear in between.
    """
    psi = hedge_fraction
    if not 0.0 <= psi <= 1.0:
        raise ValueError("hedge_fraction must lie in [0, 1]")
    if np.any(np.asarray(hazard) < 0):
        raise ValueError("hazard must be >= 0")
    if np.any(np.asarray(hazard) * (1.0 - price_of_risk) < 0):
        raise ValueError("physical hazard (1 - xi) * lam must be >= 0")
    return psi * hazard + (1.0 - psi) * (1.0 - price_of_risk) * hazard


def counterparty_hedge_error(
    closeout: float, economic_value: float, hedge_fraction: float, default_tax_jump: float = 0.0
):
    """Jump in the hedged position's value when the counterparty defaults.

    Zero under a full hedge; otherwise the unhedged share of the gap between
    the close-out value (plus the tax effect of the default) and the carried
    economic value.
    """
    if not 0.0 <= hedge_fraction <= 1.0:
        raise ValueError("hedge_fraction must lie in [0, 1]")
    return (1.0 - hedge_fraction) * (closeout - economic_value + default_tax_jump)


def compensator_rate(
    closeout: float,
    economic_value: float,
    hedge_fraction: float,
    price_of_risk: float,
    hazard: float,
    default_tax_jump: float = 0.0,
):
    """Accrual rate compensating the expected warehoused default loss.

    Chosen so that the physical-measure expectation of the default jump plus
    this accrual is zero: minus the hedge error times the physical hazard.
    """
    eps = counterparty_hedge_error(closeout, economic_value, hedge_fraction, default_tax_jump)
    return -eps * hazard * (1.0 - price_of_risk)
