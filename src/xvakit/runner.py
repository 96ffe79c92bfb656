"""Pipeline orchestration: config -> exposure -> capital -> breakdown columns.

One Monte Carlo run per configuration: the exposure profile of the netted
uncollateralized swaps is simulated once and reused across every
(psi, xi, phi, rating) combination, since the adjustment integrals are
deterministic quadratures over it.  Rows come out ordered by that tuple, in
configuration order, regardless of any parallelism in the path simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RunConfig
from .credit import CreditCurve, TaxPolicy, hazard_from_spread
from .curves import DiscountCurve
from .exposure import ExposureProfile, exposure_profile, make_exposure_grid
from .ratemodel import ShortRateModel
from .regcap import capital_base, capital_profile
from .xva import XvaBreakdown, XvaInputs, breakdown


@dataclass
class RunResult:
    """The priced sweep: one key ``(psi, xi, m_lambda, phi, rating)`` per row,
    in sweep order, beside the columns of that row's breakdown, its summed
    standard error in bps and whether that error exceeds ``warnSeBp``."""

    rows: list[tuple[float, float, float | None, float, str]]
    breakdown: XvaBreakdown
    se_bp: np.ndarray
    warn: np.ndarray
    profile: ExposureProfile
    config: RunConfig


def build_market(config: RunConfig) -> tuple[DiscountCurve, ShortRateModel, CreditCurve]:
    market = config.market
    curve = DiscountCurve(market.curve_pillars, market.curve_zero_rates)
    model = ShortRateModel(market.mean_reversion, market.sigma)
    issuer = CreditCurve.flat(
        hazard_from_spread(market.issuer_spread_bp / 1e4, market.issuer_recovery),
        market.issuer_recovery,
    )
    return curve, model, issuer


def run_config(config: RunConfig) -> RunResult:
    """Execute the full pipeline for one configuration."""
    curve, model, issuer = build_market(config)
    uncollateralized = tuple(s for s in config.swaps if not s.collateralized)
    horizon = max(s.maturity for s in config.swaps)
    frequency = max(s.frequency for s in config.swaps)
    grid = make_exposure_grid(horizon, frequency)
    # Collateral held equals the collateralized legs' value; its expected
    # discounted profile, priced on the same paths, feeds the collateral-spread carry.
    posted = tuple(s for s in config.swaps if s.collateralized) if config.collateral_spread else ()
    profile = exposure_profile(
        config.swaps, model, curve, grid,
        n_paths=config.paths, seed=config.seed,
        antithetic=config.antithetic, n_workers=config.workers,
        collateral_book=posted,
    )
    if not np.isfinite(np.concatenate(
            [v for v in vars(profile).values() if isinstance(v, np.ndarray)])).all():
        raise ConfigError([f"market.model.sigma: {model.sigma} (meanReversion "
                           f"{model.mean_reversion}) makes the exposure profile overflow"])
    notional = sum(s.notional for s in uncollateralized)
    table = config.rating_table
    provider = table.get(config.provider_rating) if config.provider_rating else None

    base = capital_base(profile, uncollateralized, curve, mr_swaps=config.swaps)
    parties = []  # per rating, its (counterparty curve, capital profile)
    for rating in config.ratings:
        cpty = table[rating]
        parties.append((
            CreditCurve.flat(hazard_from_spread(cpty.cds_spread, cpty.recovery), cpty.recovery),
            capital_profile(base, cpty, min_ratio=config.min_capital_ratio, provider=provider),
        ))
    # With an absolute market price of risk, xi varies per rating.
    xi_pairs = [config.price_of_risk_grid(cpty.hazard_rates[0]) for cpty, _ in parties]
    cells = [(psi, *xi_pairs[j][xi_index], phi, j)
             for psi in config.psi_values for xi_index in range(len(xi_pairs[0]))
             for phi in config.phi_values for j in range(len(parties))]
    psis, xis, _, phis, party = (np.array(column) for column in zip(*cells))
    result = breakdown(XvaInputs(
        exposure=profile, issuer=issuer, parties=tuple(parties), party=party,
        psi=psis, xi=xis, phi=phis,
        tax=TaxPolicy(config.tax_rate, config.accruals_taxed, config.compensator_taxed),
        discount=curve, cost_of_capital=config.cost_of_capital, notional=notional,
        collateral_spread=config.collateral_spread, collateral=profile.collateral,
    ))
    se_bp = result.bps(sum(result.se))
    rows = [(psi, xi, m_lambda, phi, config.ratings[j]) for psi, xi, m_lambda, phi, j in cells]
    return RunResult(rows, result, se_bp, se_bp > config.warn_se_bp, profile, config)
