"""Regulatory-capital profiles: market risk, counterparty credit risk, CVA volatility.

Methodology (standardized approaches throughout):

- Exposure at default by the current exposure method: positive mark-to-market
  plus a notional add-on banded by residual maturity (interest-rate class:
  0% below 1y, 0.5% from 1y to 5y, 1.5% above).
- CCR capital = EAD x standardized risk weight x minimum capital ratio.
- CVA volatility capital: standardized charge in the large-portfolio limit,
  where the idiosyncratic term is dropped and the single-counterparty charge
  reduces to

      K = 2.33 * sqrt(h) * | w * (M * EAD - M_hedge * B_hedge) |

  from the general portfolio form
  K = 2.33 sqrt(h) sqrt( (0.5 sum_i w_i (M_i EAD_i - M_i^h B_i))^2 + 0.75 sum_i w_i^2 (...)^2 ).
  The effective maturity M is duration-weighted over the remaining schedule.
- Market risk: general interest-rate charge by the maturity-ladder method;
  net signed notionals are bucketed by residual maturity and charged with the
  published band weights (no vertical/horizontal disallowances, which is
  exact for the single netted book priced here).

Buying eligible credit protection removes the CVA volatility charge but does
not extinguish CCR capital: the exposure calculation switches to the
protection provider's risk weight when, and only when, that weight is better.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve
from .exposure import ExposureProfile, SwapSpec

CVA_VAR_QUANTILE = 2.33
CVA_VAR_HORIZON = 1.0  # years

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


def ccr_capital(ead, risk_weight: float, min_ratio: float):
    """Counterparty-credit-risk capital: EAD x weight x minimum ratio; ``ead`` may be an array."""
    if np.any(np.asarray(ead) < 0) or risk_weight < 0 or min_ratio < 0:
        raise ValueError("inputs must be >= 0")
    return ead * risk_weight * min_ratio


def cva_var_capital(
    ead,
    cva_weight: float,
    maturity,
    hedge_notional: float = 0.0,
    hedge_maturity: float = 0.0,
    horizon: float = CVA_VAR_HORIZON,
):
    """Standardized CVA volatility charge, large-portfolio approximation.

    ``ead`` and ``maturity`` may be arrays over a grid.
    """
    if min(np.min(ead), cva_weight, np.min(maturity), hedge_notional, hedge_maturity,
           horizon) < 0:
        raise ValueError("inputs must be >= 0")
    net = maturity * ead - hedge_maturity * hedge_notional
    return CVA_VAR_QUANTILE * np.sqrt(horizon) * abs(cva_weight * net)


def remaining_duration(curve: DiscountCurve, spec: SwapSpec, t):
    """Discount-weighted average time to the swap's remaining payments.

    Vectorized over ``t``: a float for a scalar, an array for an array; 0
    where no payment remains.
    """
    times = spec.payment_times()
    t_col = np.asarray(t, dtype=float)[..., None]
    dfs = np.where(times > t_col + 1e-12, curve.df(times), 0.0)
    total = dfs.sum(axis=-1)
    out = np.divide(((times - t_col) * dfs).sum(axis=-1), total,
                    out=np.zeros_like(total), where=total > 0)
    return float(out) if np.ndim(t) == 0 else out


@dataclass
class CapitalProfile:
    """Capital requirement components along the exposure grid.

    ``k_mr``, ``k_ccr`` and ``k_cva`` are the unhedged requirements; the
    relief from a fully eligible credit hedge is the whole CVA charge plus
    the CCR saving from substituting the protection provider's risk weight
    (``k_ccr - k_ccr_hedged``).  The net requirement interpolates linearly in
    the hedge fraction.  Components may be stacked ``(rows, grid)``.
    """

    grid: np.ndarray
    k_mr: np.ndarray
    k_ccr: np.ndarray
    k_ccr_hedged: np.ndarray
    k_cva: np.ndarray

    def __post_init__(self):
        n = len(self.grid)
        for name in ("k_mr", "k_ccr", "k_ccr_hedged", "k_cva"):
            if np.shape(getattr(self, name))[-1:] != (n,):
                raise ValueError(f"{name} must match the grid length")

    @property
    def k_unhedged(self) -> np.ndarray:
        return self.k_mr + self.k_ccr + self.k_cva

    @property
    def k_relief(self) -> np.ndarray:
        return self.k_cva + (self.k_ccr - self.k_ccr_hedged)

    def net_components(self, hedge_fraction: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(MR, CCR, CVA-vol) parts of the net requirement at a hedge fraction."""
        psi = hedge_fraction
        ccr = self.k_ccr - psi * (self.k_ccr - self.k_ccr_hedged)
        cva = (1.0 - psi) * self.k_cva
        return self.k_mr, ccr, cva

    def net_total(self, hedge_fraction: float) -> np.ndarray:
        mr, ccr, cva = self.net_components(hedge_fraction)
        return mr + ccr + cva


@dataclass(frozen=True)
class CapitalBase:
    """The rating-free part of a capital profile along the exposure grid.

    ``ead`` is the CEM exposure at default, ``duration`` the notional-weighted
    remaining duration (the CVA charge's effective maturity) and ``k_mr`` the
    market-risk charge.  A rating only scales these by its weights, so a run
    builds this once and passes it to ``capital_profile`` for each rating.
    """

    grid: np.ndarray
    ead: np.ndarray
    duration: np.ndarray
    k_mr: np.ndarray

    def for_rating(self, counterparty: CounterpartyProfile, min_ratio: float = 0.08,
                   provider: CounterpartyProfile | None = None) -> CapitalProfile:
        """CCR capital from the risk weights and CVA capital from the CVA weight."""
        hedged_weight = counterparty.risk_weight
        if provider is not None:
            hedged_weight = min(hedged_weight, provider.risk_weight)
        return CapitalProfile(
            grid=self.grid,
            k_mr=self.k_mr,
            k_ccr=ccr_capital(self.ead, counterparty.risk_weight, min_ratio),
            k_ccr_hedged=ccr_capital(self.ead, hedged_weight, min_ratio),
            k_cva=cva_var_capital(self.ead, counterparty.cva_weight, self.duration),
        )


def capital_base(profile: ExposureProfile, swaps, curve: DiscountCurve,
                 mr_swaps=None) -> CapitalBase:
    """EAD, effective maturity and market-risk charge at every grid point.

    The CEM mark-to-market at each grid point is the undiscounted expected
    value of the netting set (floored at zero inside the EAD, as the current
    exposure method prescribes).  ``swaps`` are the uncollateralized trades
    backing the exposure (add-ons, durations), one add-on per live trade;
    ``mr_swaps`` is the full book for market-risk netting and defaults to
    ``swaps``.
    """
    if isinstance(swaps, SwapSpec):
        swaps = (swaps,)
    swaps = tuple(swaps)
    mr_swaps = swaps if mr_swaps is None else tuple(mr_swaps)
    grid = profile.grid
    addons = np.zeros_like(grid)
    weighted_duration = np.zeros_like(grid)
    total_notional = np.zeros_like(grid)
    for spec in swaps:
        residual = spec.maturity - grid
        live = residual > 1e-12
        addons += np.where(live, spec.notional * _addon_factor(residual), 0.0)
        weighted_duration += np.where(live, spec.notional * remaining_duration(curve, spec, grid),
                                      0.0)
        total_notional += np.where(live, spec.notional, 0.0)
    # One add-on per trade; the netted MtM enters once.
    ead = addons + np.maximum(profile.mean_value_undiscounted, 0.0)
    duration = np.divide(weighted_duration, total_notional, out=np.zeros_like(grid),
                         where=total_notional > 0)

    nets = np.zeros((len(grid), len(MR_BAND_WEIGHTS)))
    for spec in mr_swaps:
        residual = spec.maturity - grid
        live = np.flatnonzero(residual > 1e-12)
        nets[live, _mr_band(residual[live])] += spec.sign * spec.notional
    return CapitalBase(grid=grid, ead=ead, duration=duration, k_mr=np.abs(nets) @ _MR_WEIGHTS)


def capital_profile(
    profile: ExposureProfile | CapitalBase,
    counterparty: CounterpartyProfile,
    swaps=(),
    curve: DiscountCurve | None = None,
    min_ratio: float = 0.08,
    provider: CounterpartyProfile | None = None,
    mr_swaps=None,
) -> CapitalProfile:
    """Deterministic capital profile of one counterparty rating.

    ``profile``, ``swaps``, ``curve`` and ``mr_swaps`` are as in
    ``capital_base``; ``profile`` may instead be a ``CapitalBase`` already
    built from them, which a run shares across its ratings.  ``provider`` is
    the credit-protection seller whose risk weight caps the hedged CCR weight.
    """
    if not isinstance(profile, CapitalBase):
        profile = capital_base(profile, swaps, curve, mr_swaps)
    return profile.for_rating(counterparty, min_ratio, provider)
