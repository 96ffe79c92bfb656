"""Valuation adjustments under partial credit hedging, with capital and tax.

Public surface: market/credit primitives, the exposure profile,
standardized-capital profiles, the adjustment integrals, and a
finite-difference verifier that recomputes the same economics independently.
"""

from .credit import (
    CreditCurve,
    TaxPolicy,
    compensator_rate,
    counterparty_hedge_error,
    effective_hazard,
    hazard_from_spread,
)
from .curves import DiscountCurve
from .exposure import (
    ExposureProfile,
    SwapSpec,
    exposure_profile,
    make_exposure_grid,
    portfolio_value,
)
from .pde import (
    Grid,
    GridResolutionWarning,
    PdeProblem,
    PdeSolution,
    ReplicationState,
    VerificationReport,
    black_scholes_value,
    density_expectations,
    quadrature_oracle,
    replication_state,
    solve_vhat,
    verify_decomposition,
)
from .ratemodel import ShortRateModel
from .regcap import (
    RATING_TABLE,
    CapitalProfile,
    CounterpartyProfile,
    capital_profile,
    remaining_duration,
)
from .xva import COMPONENTS, XvaBreakdown, XvaInputs, breakdown

__version__ = "0.1.0"
