"""Pipeline orchestration: config -> exposure -> capital -> breakdown rows.

One Monte Carlo run per configuration: the exposure profile of the netted
uncollateralized swaps is simulated once and reused across every
(psi, xi, phi, rating) combination, since the adjustment integrals are
deterministic quadratures over it.  Rows come out ordered by that tuple, in
configuration order, regardless of any parallelism in the path simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import RunConfig
from .credit import CreditCurve, HedgePolicy, TaxPolicy, hazard_from_spread
from .curves import DiscountCurve
from .exposure import ExposureProfile, exposure_profile, make_exposure_grid
from .ratemodel import ShortRateModel
from .regcap import capital_base, capital_profile
from .xva import XvaBreakdown, XvaInputs, breakdown


@dataclass(frozen=True)
class ReportRow:
    """One sweep combination with its adjustment breakdown."""

    source: str
    hedge_fraction: float
    price_of_risk: float
    m_lambda: float | None
    capital_funding_fraction: float
    rating: str
    result: XvaBreakdown
    se_bp: float
    warn: bool

    @property
    def price_of_risk_label(self) -> str:
        if self.hedge_fraction == 1.0:
            return "na"
        if self.m_lambda is not None:
            return f"{self.m_lambda:+.4g}"
        return f"{self.price_of_risk:+.3g}"


@dataclass
class RunResult:
    rows: list[ReportRow]
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
    notional = sum(s.notional for s in uncollateralized)
    table = config.rating_table
    provider = table.get(config.provider_rating) if config.provider_rating else None

    base = capital_base(profile, uncollateralized, curve, mr_swaps=config.swaps)
    capitals = {}
    counterparties = {}
    for rating in config.ratings:
        cpty = table[rating]
        counterparties[rating] = CreditCurve.flat(
            hazard_from_spread(cpty.cds_spread, cpty.recovery), cpty.recovery
        )
        capitals[rating] = capital_profile(
            base, cpty, min_ratio=config.min_capital_ratio, provider=provider
        )

    tax = TaxPolicy(
        rate=config.tax_rate,
        accruals_taxed=config.accruals_taxed,
        compensator_taxed=config.compensator_taxed,
    )

    # With an absolute market price of risk, xi varies per rating.
    xi_pairs_by_rating = {
        rating: config.price_of_risk_grid(counterparties[rating].hazard_rates[0])
        for rating in config.ratings
    }
    n_xi = len(next(iter(xi_pairs_by_rating.values())))

    rows: list[ReportRow] = []
    for psi in config.psi_values:
        for xi_index in range(n_xi):
            for phi in config.phi_values:
                for rating in config.ratings:
                    xi, m_lambda = xi_pairs_by_rating[rating][xi_index]
                    hedge = HedgePolicy(
                        hedge_fraction=psi,
                        price_of_risk=xi,
                        capital_funding_fraction=phi,
                    )
                    inputs = XvaInputs(
                        exposure=profile,
                        issuer=issuer,
                        counterparty=counterparties[rating],
                        hedge=hedge,
                        tax=tax,
                        discount=curve,
                        cost_of_capital=config.cost_of_capital,
                        notional=notional,
                        capital=capitals[rating],
                        collateral_spread=config.collateral_spread,
                        collateral=profile.collateral,
                    )
                    result = breakdown(inputs)
                    se_bp = result.bps(result.se.total) if result.se else 0.0
                    rows.append(
                        ReportRow(
                            source=config.hedge_source_label,
                            hedge_fraction=psi,
                            price_of_risk=xi,
                            m_lambda=m_lambda,
                            capital_funding_fraction=phi,
                            rating=rating,
                            result=result,
                            se_bp=se_bp,
                            warn=se_bp > config.warn_se_bp,
                        )
                    )
    return RunResult(rows=rows, profile=profile, config=config)
