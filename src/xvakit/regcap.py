"""Regulatory capital: market risk, counterparty credit risk, CVA volatility.

Methodology (standardized approaches throughout):

- Exposure at default by the current exposure method: positive mark-to-market
  plus a notional add-on banded by residual maturity (interest-rate class:
  0% below 1y, 0.5% from 1y to 5y, 1.5% above).
- CCR capital = EAD x standardized risk weight x minimum capital ratio.
- CVA volatility capital: standardized charge in the large-portfolio limit,
  where the idiosyncratic term is dropped and the single-counterparty charge
  over a one-year horizon reduces to the unhedged

      K = 2.33 * | w * M * EAD |

  from the general portfolio form
  K = 2.33 sqrt(h) sqrt( (0.5 sum_i w_i (M_i EAD_i - M_i^h B_i))^2 + 0.75 sum_i w_i^2 (...)^2 ).
  The effective maturity M is duration-weighted over the remaining schedule.
  A credit hedge enters as the relief ``(1 - psi) K``, not as ``M^h B``.
- Market risk: general interest-rate charge by the maturity-ladder method;
  net signed notionals are bucketed by residual maturity and charged with the
  published band weights (no vertical/horizontal disallowances, which is
  exact for the single netted book priced here).

Buying eligible credit protection removes the CVA volatility charge but does
not extinguish CCR capital: the exposure calculation switches to the
protection provider's risk weight when, and only when, that weight is better.

Every rating's capital is linear in three rating-free profiles, built once
per run by ``capital_base``: the market-risk charge, EAD and duration x EAD.
A rating only sets its charges per unit of them (``capital_profile``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve
from .exposure import ExposureProfile, SwapSpec, is_live

CVA_VAR_QUANTILE = 2.33

# Interest-rate add-on factors (current exposure method): below one year,
# one to five years inclusive, beyond five years.
CEM_ADDON_FACTORS = (0.000, 0.005, 0.015)

# General market-risk maturity-ladder weights (coupon >= 3% column):
# (upper bound of residual maturity band in years, charge weight).
MR_BAND_WEIGHTS = (
    (1.0 / 12.0, 0.0000),
    (3.0 / 12.0, 0.0020),
    (6.0 / 12.0, 0.0040),
    (1.0, 0.0070),
    (2.0, 0.0125),
    (3.0, 0.0175),
    (4.0, 0.0225),
    (5.0, 0.0275),
    (7.0, 0.0325),
    (10.0, 0.0375),
    (15.0, 0.0450),
    (20.0, 0.0525),
    (float("inf"), 0.0600),
)


@dataclass(frozen=True)
class CounterpartyProfile:
    """Rating-level counterparty data: spread, weights and assumed recovery."""

    rating: str
    cds_spread_bp: float
    risk_weight: float
    cva_weight: float
    recovery: float = 0.4

    def __post_init__(self):
        if self.cds_spread_bp < 0:
            raise ValueError("spread must be >= 0")
        if self.risk_weight <= 0 or self.cva_weight <= 0:
            raise ValueError("risk weights must be > 0")

    @property
    def cds_spread(self) -> float:
        return self.cds_spread_bp / 1e4


RATING_TABLE: dict[str, CounterpartyProfile] = {
    "AAA": CounterpartyProfile("AAA", 30.0, 0.20, 0.007),
    "A": CounterpartyProfile("A", 75.0, 0.50, 0.008),
    "BB": CounterpartyProfile("BB", 250.0, 1.00, 0.020),
    "CCC": CounterpartyProfile("CCC", 750.0, 1.50, 0.100),
}


_MR_UPPERS = np.array([u for u, _ in MR_BAND_WEIGHTS])
_MR_WEIGHTS = np.array([w for _, w in MR_BAND_WEIGHTS])


def _addon_factor(residual_maturity):
    """CEM add-on factor of each residual maturity."""
    return np.where(residual_maturity < 1.0, CEM_ADDON_FACTORS[0],
                    np.where(residual_maturity <= 5.0, CEM_ADDON_FACTORS[1], CEM_ADDON_FACTORS[2]))


def _mr_band(residual_maturity):
    """Index of the maturity-ladder band: the first whose upper bound exceeds the maturity."""
    return np.searchsorted(_MR_UPPERS, residual_maturity, side="right")


def remaining_duration(curve: DiscountCurve, spec: SwapSpec, t):
    """Discount-weighted average time to the swap's remaining payments at each
    time of ``t``; 0 where no payment remains."""
    times = spec.payment_times()
    t_col = np.asarray(t, dtype=float)[..., None]
    dfs = np.where(is_live(times, t_col), curve.df(times), 0.0)
    total = dfs.sum(axis=-1)
    return np.divide(((times - t_col) * dfs).sum(axis=-1), total,
                     out=np.zeros_like(total), where=total > 0)


@dataclass(frozen=True)
class CapitalBase:
    """The rating-free capital profiles along the exposure grid.

    ``ead`` is the CEM exposure at default, ``duration`` the notional-weighted
    remaining duration (the CVA charge's effective maturity) and ``k_mr`` the
    market-risk charge.  A rating only scales these (``CapitalProfile``), so
    a run builds this once for every rating.
    """

    grid: np.ndarray
    ead: np.ndarray
    duration: np.ndarray
    k_mr: np.ndarray


def capital_base(profile: ExposureProfile, book, curve: DiscountCurve) -> CapitalBase:
    """EAD, effective maturity and market-risk charge at every grid point.

    The CEM mark-to-market at each grid point is the netting set's
    undiscounted expected value, floored at zero inside the EAD as the current
    exposure method prescribes; it is a closed form.  The add-ons and
    durations read the book's uncollateralized swaps, which carry the
    exposure, one add-on per live trade; the market-risk ladder nets every
    swap of the book.
    """
    grid = profile.grid
    addons = np.zeros_like(grid)
    weighted_duration = np.zeros_like(grid)
    total_notional = np.zeros_like(grid)
    for spec in (s for s in book if not s.collateralized):
        residual = spec.maturity - grid
        live = is_live(spec.maturity, grid)
        addons += np.where(live, spec.notional * _addon_factor(residual), 0.0)
        weighted_duration += np.where(live, spec.notional * remaining_duration(curve, spec, grid),
                                      0.0)
        total_notional += np.where(live, spec.notional, 0.0)
    # One add-on per trade; the netted MtM enters once.
    ead = addons + np.maximum(profile.mean_value_undiscounted, 0.0)
    duration = np.divide(weighted_duration, total_notional, out=np.zeros_like(grid),
                         where=total_notional > 0)

    nets = np.zeros((len(grid), len(MR_BAND_WEIGHTS)))
    for spec in book:
        residual = spec.maturity - grid
        live = np.flatnonzero(is_live(spec.maturity, grid))
        nets[live, _mr_band(residual[live])] += spec.sign * spec.notional
    return CapitalBase(grid=grid, ead=ead, duration=duration, k_mr=np.abs(nets) @ _MR_WEIGHTS)


@dataclass(frozen=True)
class CapitalProfile:
    """One rating's charges per unit of the base: CCR per unit of EAD at its
    own and at the hedged risk weight, and the unhedged CVA-volatility charge
    per unit of duration x EAD.  At hedge fraction psi they net to
    ``ccr - psi (ccr - ccr_hedged)`` and ``(1 - psi) cva``."""

    ccr: float
    ccr_hedged: float
    cva: float


def capital_profile(counterparty: CounterpartyProfile, min_ratio: float,
                    provider: CounterpartyProfile) -> CapitalProfile:
    """One rating's charges; ``provider`` is the credit-protection seller
    whose risk weight caps the hedged CCR weight."""
    if min_ratio < 0:
        raise ValueError("min_ratio must be >= 0")
    hedged_weight = min(counterparty.risk_weight, provider.risk_weight)
    return CapitalProfile(counterparty.risk_weight * min_ratio, hedged_weight * min_ratio,
                          CVA_VAR_QUANTILE * counterparty.cva_weight)
