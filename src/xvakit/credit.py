"""Credit, close-out and tax building blocks.

Credit curves are flat, as in the paper: one hazard rate and one recovery.
Everything else here is a pure function of scalar (or numpy-broadcast)
inputs: hazard-rate relations, the hedging error and its compensating accrual
when counterparty default risk is only partially hedged, and the tax policy.
The close-out values on default are ``pde.closeout``.

Sign convention: cash received by the issuer is positive.  Default losses
therefore show up as negative hedge errors, and the compensator that offsets
their physical-measure expectation is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CreditCurve:
    """A constant hazard rate with a flat recovery: survival to ``t`` is ``exp(-hazard t)``."""

    hazard: float
    recovery: float

    def __post_init__(self):
        if not self.hazard >= 0:
            raise ValueError("hazard rate must be >= 0")
        if not 0.0 <= self.recovery <= 1.0:
            raise ValueError("recovery must lie in [0, 1]")


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


def _check_hedge_fraction(psi) -> None:
    """Refuse a hedge fraction, or any element of an array of them, outside [0, 1]."""
    if not np.all((0.0 <= np.asarray(psi)) & (np.asarray(psi) <= 1.0)):
        raise ValueError("hedge_fraction must lie in [0, 1]")


def effective_hazard(hazard, hedge_fraction, price_of_risk):
    """Hazard rate blending the hedged (risk-neutral) and warehoused (physical) parts.

    Returns ``psi * lam + (1 - psi) * (1 - xi) * lam``: the risk-neutral rate
    at full hedging, the physical rate at none, linear in between.  Floats or
    numpy-broadcast arrays; every element must have psi in [0, 1] and a
    non-negative physical hazard ``(1 - xi) * lam``.
    """
    _check_hedge_fraction(hedge_fraction)
    if np.any(np.asarray(hazard) < 0):
        raise ValueError("hazard must be >= 0")
    if np.any(np.asarray(hazard) * (1.0 - np.asarray(price_of_risk)) < 0):
        raise ValueError("physical hazard (1 - xi) * lam must be >= 0")
    return hedge_fraction * hazard + (1.0 - hedge_fraction) * (1.0 - price_of_risk) * hazard


def counterparty_hedge_error(
    closeout: float, economic_value: float, hedge_fraction: float, default_tax_jump: float
):
    """Jump in the hedged position's value when the counterparty defaults.

    Zero under a full hedge; otherwise the unhedged share of the gap between
    the close-out value (plus the tax effect of the default) and the carried
    economic value.
    """
    _check_hedge_fraction(hedge_fraction)
    return (1.0 - hedge_fraction) * (closeout - economic_value + default_tax_jump)


def compensator_rate(
    closeout: float,
    economic_value: float,
    hedge_fraction: float,
    price_of_risk: float,
    hazard: float,
    default_tax_jump: float,
):
    """Accrual rate compensating the expected warehoused default loss.

    Chosen so that the physical-measure expectation of the default jump plus
    this accrual is zero: minus the hedge error times the physical hazard.
    """
    eps = counterparty_hedge_error(closeout, economic_value, hedge_fraction, default_tax_jump)
    return -eps * hazard * (1.0 - price_of_risk)
