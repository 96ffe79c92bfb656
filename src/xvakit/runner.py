"""Pipeline orchestration: config -> exposure -> capital -> breakdown columns.

The book goes whole to each stage, which splits it where it must: one
exposure profile per configuration, taken once in closed form over the
netted uncollateralized swaps, and reused across every (psi, xi, phi,
rating) combination, since the adjustment integrals are deterministic
quadratures over it.  Rows come out ordered by that tuple, in configuration
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, RunConfig
from .credit import CreditCurve, TaxPolicy, hazard_from_spread
from .exposure import ExposureProfile, exposure_profile, make_exposure_grid
from .regcap import capital_base, capital_profile
from .xva import XvaBreakdown, XvaInputs, breakdown


@dataclass
class RunResult:
    """The priced sweep: one key ``(psi, xi, m_lambda, phi, rating)`` per row,
    in sweep order, beside the columns of that row's breakdown."""

    rows: list[tuple[float, float, float | None, float, str]]
    breakdown: XvaBreakdown
    profile: ExposureProfile
    config: RunConfig


def run_config(config: RunConfig) -> RunResult:
    """Execute the full pipeline for one configuration."""
    curve, model, issuer = config.market
    grid = make_exposure_grid(max(s.maturity for s in config.swaps))
    profile = exposure_profile(config.swaps, model, curve, grid)
    if not np.isfinite(np.concatenate(
            [v for v in vars(profile).values() if isinstance(v, np.ndarray)])).all():
        raise ConfigError([f"market.model.sigma: {model.sigma} (meanReversion "
                           f"{model.mean_reversion}) makes the exposure profile overflow"])
    notional = sum(s.notional for s in config.swaps if not s.collateralized)
    table = config.rating_table
    provider = table[config.provider_rating]

    base = capital_base(profile, config.swaps, curve)
    parties = []  # per rating, its (counterparty curve, capital per unit of the base)
    for rating in config.ratings:
        cpty = table[rating]
        parties.append((
            CreditCurve(hazard_from_spread(cpty.cds_spread, cpty.recovery), cpty.recovery),
            capital_profile(cpty, min_ratio=config.min_capital_ratio, provider=provider),
        ))
    # With an absolute market price of risk, xi varies per rating.
    xi_pairs = [config.price_of_risk_grid(cpty.hazard) for cpty, _ in parties]
    cells = [(psi, *xi_pairs[j][xi_index], phi, j)
             for psi in config.psi for xi_index in range(len(xi_pairs[0]))
             for phi in config.phi for j in range(len(parties))]
    psis, xis, _, phis, party = (np.array(column) for column in zip(*cells))
    result = breakdown(XvaInputs(
        exposure=profile, capital=base, issuer=issuer, parties=tuple(parties), party=party,
        psi=psis, xi=xis, phi=phis,
        tax=TaxPolicy(config.tax_rate, config.accruals_taxed, config.compensator_taxed),
        discount=curve, cost_of_capital=config.cost_of_capital, notional=notional,
        collateral_spread=config.collateral_spread,
    ))
    rows = [(psi, xi, m_lambda, phi, config.ratings[j]) for psi, xi, m_lambda, phi, j in cells]
    return RunResult(rows, result, profile, config)
