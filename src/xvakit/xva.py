"""Valuation-adjustment integrals over exposure and capital profiles.

Each adjustment is a deterministic time integral of profile quantities
weighted by the joint survival of issuer and counterparty,

    W(u) = exp( -(lambda_B + lambda_eff) u ),

where ``lambda_eff`` is the effective counterparty hazard under partial
hedging; every hazard is flat.  The exposure expectations (EPE/ENE) are
already discounted; deterministic quantities such as the capital base are
discounted explicitly with the curve.

Quadrature: trapezoid on the profile grid, with ``W`` at interval
midpoints; exact for constant integrands and second order on smooth
profiles, but first order across a swap's jumps at its payment dates.
Every integral is one ``(rows, grid)`` weight array times a profile, summed
along the grid: one value per row of a sweep, times a per-row coefficient.
KVA's are the rating's capital charges, netted in psi, on the capital base.

Components and signs (received cash positive):

    CVA    <= 0   expected loss on counterparty default
    DVA    >= 0   own-default windfall on negative exposure
    FCA    <= 0   funding cost of the positive exposure via own bonds
    COLVA         collateral-spread carry on the posted collateral
    KVA    <= 0   cost of holding capital net of any funding use (gamma_K >= r*phi)
    TVA           tax on the capital return minus the tax credit expected
                  from warehoused default losses; either sign

The exposure profile's collateral is the discounted expected collateral,
consistent with the discounted exposure profiles; COLVA is its carry at the
collateral spread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .credit import CreditCurve, TaxPolicy, effective_hazard
from .curves import DiscountCurve
from .exposure import ExposureProfile
from .regcap import CapitalBase, CapitalProfile

COMPONENTS = ("cva", "dva", "fca", "colva", "kva_mr", "kva_ccr", "kva_cva", "tva")


@dataclass(frozen=True)
class XvaInputs:
    """Everything the adjustment integrals consume, for every row of a sweep.

    Row ``i`` prices the counterparty curve and capital charges
    ``parties[party[i]]`` on the one ``capital`` base at hedge fraction
    ``psi[i]``, price of default risk ``xi[i]`` (the physical hazard is
    ``1 - xi`` times the risk-neutral one) and capital-funding share
    ``phi[i]``; a single row is a sweep of length 1.
    """

    exposure: ExposureProfile
    capital: CapitalBase
    issuer: CreditCurve
    parties: tuple[tuple[CreditCurve, CapitalProfile], ...]
    party: np.ndarray
    psi: np.ndarray
    xi: np.ndarray
    phi: np.ndarray
    tax: TaxPolicy
    discount: DiscountCurve
    cost_of_capital: float
    notional: float
    collateral_spread: float = 0.0

    def __post_init__(self):
        if len({len(self.party), len(self.psi), len(self.xi), len(self.phi)}) != 1:
            raise ValueError("party, psi, xi and phi must have one entry per row")
        if not (np.all((self.psi >= 0) & (self.psi <= 1)) and np.all(self.xi <= 1)
                and np.all((self.phi >= 0) & (self.phi <= 1))):
            raise ValueError("each row needs psi and phi in [0, 1] and xi <= 1")
        grid = self.exposure.grid
        if self.capital.grid is not grid and not np.array_equal(self.capital.grid, grid):
            raise ValueError("capital base grid does not match the exposure grid")
        if self.notional <= 0:
            raise ValueError("notional must be > 0")


@dataclass(frozen=True, eq=False)
class XvaBreakdown:
    """All adjustments in currency, one value per row, with the notional for bps conversion."""

    cva: np.ndarray
    dva: np.ndarray
    fca: np.ndarray
    colva: np.ndarray
    kva_mr: np.ndarray
    kva_ccr: np.ndarray
    kva_cva: np.ndarray
    tva: np.ndarray
    notional: float

    @property
    def kva(self) -> np.ndarray:
        return self.kva_mr + self.kva_ccr + self.kva_cva

    @property
    def total(self) -> np.ndarray:
        """The components summed left to right in ``COMPONENTS`` order."""
        total = self.cva
        for name in COMPONENTS[1:]:
            total = total + getattr(self, name)
        return total

    def bps(self, value):
        return value / self.notional * 1e4

    def as_bps(self) -> dict[str, np.ndarray]:
        """Each component and the total in bps of the notional, keyed by field name."""
        return {name: self.bps(getattr(self, name)) for name in (*COMPONENTS, "total")}


class _Quadrature:
    """The trapezoid of every row of a sweep, one per run (perfbench counts them).

    Each interval's ``W(mid) dt / 2`` goes to both of its ends, so row r
    integrates a profile p as ``sum(weights[r] * p)``: element-wise, so a
    row's bits do not depend on the other rows of the sweep.
    """

    def __init__(self, grid: np.ndarray, hazard: np.ndarray):
        half = np.exp(-np.multiply.outer(hazard, 0.5 * (grid[:-1] + grid[1:])))
        half *= 0.5 * np.diff(grid)
        self.weights = np.zeros((len(hazard), len(grid)))
        self.weights[:, :-1] = half
        self.weights[:, 1:] += half


def breakdown(inputs: XvaInputs) -> XvaBreakdown:
    """Price every row of a sweep at once; each total is the exact float sum of its parts."""
    exposure, tax, grid = inputs.exposure, inputs.tax, inputs.exposure.grid
    lambda_cpty, lgd_c, k_ccr, k_ccr_hedged, k_cva = np.array([
        (c.hazard, 1.0 - c.recovery, k.ccr, k.ccr_hedged, k.cva) for c, k in inputs.parties
    ]).T[:, inputs.party]
    lambda_eff = effective_hazard(lambda_cpty, inputs.psi, inputs.xi)
    issuer_loss = (1.0 - inputs.issuer.recovery) * inputs.issuer.hazard  # LGD_B lambda_B

    weights = _Quadrature(grid, inputs.issuer.hazard + lambda_eff).weights

    # CVA, FCA and TVA's tax credit on warehoused losses are coefficients on
    # int(epe); DVA's is on int(ene) = int(forward) - int(epe).
    c_cva = -lgd_c * lambda_eff
    credit = tax.rate * (1.0 - inputs.psi) * (1.0 - inputs.xi) * lgd_c * lambda_cpty
    if tax.compensator_taxed:
        # The compensator accrual offsets the expected default loss grossed
        # up by its own tax effect, hence the (1 + rate) factor.
        credit = credit - (1.0 + tax.rate) * credit
    if tax.accruals_taxed:
        credit = credit - tax.rate * issuer_loss
    epe = (weights * exposure.epe).sum(axis=-1)
    cva, fca, tva = c_cva * epe, -issuer_loss * epe, credit * epe
    dva = -issuer_loss * ((weights * exposure.forward).sum(axis=-1) - epe)

    # 0.0 less the carry, so that a zero spread gives 0.0, never -0.0.
    colva = 0.0 - inputs.collateral_spread * (weights * exposure.collateral).sum(axis=-1)

    # The capital base is deterministic, so it is discounted by the curve.
    # Each of its profiles is integrated with and without the forward rate,
    # times each row's charge on it netted in psi: the carry is affine in phi.
    d, rate = inputs.discount.df(grid), inputs.discount.forward(grid)
    base = inputs.capital
    charges = (1.0, k_ccr - inputs.psi * (k_ccr - k_ccr_hedged), (1.0 - inputs.psi) * k_cva)
    kva, held = [], 0.0
    for charge, profile in zip(charges, (base.k_mr, base.ead, base.duration * base.ead)):
        discounted = d * profile
        capital = charge * (weights * discounted).sum(axis=-1)
        carry = charge * (weights * (rate * discounted)).sum(axis=-1)
        kva.append(inputs.phi * carry - inputs.cost_of_capital * capital)
        held = held + capital
    tva -= tax.rate * inputs.cost_of_capital * held
    return XvaBreakdown(cva, dva, fca, colva, *kva, tva, inputs.notional)
