"""Valuation-adjustment integrals over exposure and capital profiles.

Each adjustment is a deterministic time integral of profile quantities
weighted by the joint survival of issuer and counterparty,

    W(u) = exp( -(lambda_B + lambda_eff) u ),

where ``lambda_eff`` is the effective counterparty hazard under partial
hedging; every hazard is flat.  Pathwise discounting already sits inside the exposure expectations
(EPE/ENE are discounted); deterministic quantities such as the capital
profile are discounted explicitly with the curve.

Quadrature: trapezoid on the profile grid, with the survival factor
evaluated at interval midpoints.  This is second-order accurate and
exact for constant integrands.  All rows of a sweep share one quadrature:
their survival weights form one ``(rows, intervals)`` array and each
component is one integral over it, one value per row.

Components and signs (received cash positive):

    CVA    <= 0   expected loss on counterparty default
    DVA    >= 0   own-default windfall on negative exposure
    FCA    <= 0   funding cost of the positive exposure via own bonds
    COLVA         collateral-spread carry on the posted collateral
    KVA    <= 0   cost of holding capital net of any funding use (gamma_K >= r*phi)
    TVA           tax on the capital return minus the tax credit expected
                  from warehoused default losses; either sign

The collateral profile, when given, is the discounted expected collateral,
consistent with the discounted exposure profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .credit import CreditCurve, TaxPolicy, effective_hazard
from .curves import DiscountCurve
from .exposure import ExposureProfile
from .regcap import CapitalProfile


@dataclass(frozen=True)
class XvaInputs:
    """Everything the adjustment integrals consume, for every row of a sweep.

    Row ``i`` prices the counterparty curve and capital profile
    ``parties[party[i]]`` at hedge fraction ``psi[i]``, price of default risk
    ``xi[i]`` (the physical hazard is ``1 - xi`` times the risk-neutral one)
    and capital-funding share ``phi[i]``; a single row is a sweep of length 1.
    """

    exposure: ExposureProfile
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
    collateral: np.ndarray | None = None

    def __post_init__(self):
        if len({len(self.party), len(self.psi), len(self.xi), len(self.phi)}) != 1:
            raise ValueError("party, psi, xi and phi must have one entry per row")
        if not (np.all((self.psi >= 0) & (self.psi <= 1)) and np.all(self.xi <= 1)
                and np.all((self.phi >= 0) & (self.phi <= 1))):
            raise ValueError("each row needs psi and phi in [0, 1] and xi <= 1")
        grid = self.exposure.grid
        for _, capital in self.parties:
            if capital.grid is not grid and not np.array_equal(capital.grid, grid):
                raise ValueError("capital profile grid does not match the exposure grid")
        if self.collateral is not None and len(self.collateral) != len(grid):
            raise ValueError("collateral profile does not match the exposure grid")
        if self.notional <= 0:
            raise ValueError("notional must be > 0")


@dataclass(frozen=True, eq=False)
class XvaBreakdown:
    """All adjustments in currency, one value per row, with the notional for bps conversion.

    ``se`` holds the Monte Carlo standard errors of (CVA, DVA, FCA, TVA),
    shaped ``(4, rows)``.  They are conservative: profile errors are
    integrated as if perfectly correlated across grid points, which
    upper-bounds the true error of each component.
    """

    cva: np.ndarray
    dva: np.ndarray
    fca: np.ndarray
    colva: np.ndarray
    kva_mr: np.ndarray
    kva_ccr: np.ndarray
    kva_cva: np.ndarray
    tva: np.ndarray
    notional: float
    se: np.ndarray

    @property
    def kva(self) -> np.ndarray:
        return self.kva_mr + self.kva_ccr + self.kva_cva

    @property
    def total(self) -> np.ndarray:
        return (
            self.cva + self.dva + self.fca + self.colva
            + self.kva_mr + self.kva_ccr + self.kva_cva + self.tva
        )

    def bps(self, value):
        return value / self.notional * 1e4

    def as_bps(self) -> dict[str, np.ndarray]:
        out = {
            name: self.bps(getattr(self, name))
            for name in ("cva", "dva", "fca", "colva", "kva_mr", "kva_ccr", "kva_cva", "tva")
        }
        out["total"] = self.bps(self.total)
        return out


class _Quadrature:
    """Midpoint survival weights of every row of a sweep as one ``(rows, intervals)`` array.

    Hazards are flat, so each default rate leaves the integral as a per-row
    factor.  Psi and xi reach it only through ``credit.effective_hazard`` and
    the warehoused factor ``(1-psi)(1-xi)``, and
    capital is affine in psi and its carry in phi, so each component is one
    ``integrate`` over all rows, returning one value per row.
    """

    def __init__(self, inputs: XvaInputs):
        self.inputs = inputs
        grid = inputs.exposure.grid
        self.dt = np.diff(grid)
        mids = 0.5 * (grid[:-1] + grid[1:])
        self.psi, self.phi = inputs.psi, inputs.phi
        self.warehoused = (1.0 - inputs.psi) * (1.0 - inputs.xi)
        curves = [curve for curve, _ in inputs.parties]
        self.lambda_cpty = np.array([c.hazard for c in curves])[inputs.party]
        self.lgd_c = np.array([1.0 - c.recovery for c in curves])[inputs.party]
        self.lambda_eff = effective_hazard(self.lambda_cpty, inputs.psi, inputs.xi)
        self.lambda_issuer = inputs.issuer.hazard
        self.lgd_b = 1.0 - inputs.issuer.recovery
        w = np.multiply.outer(self.lambda_issuer + self.lambda_eff, mids)
        self.survival_mid = np.exp(np.negative(w, out=w), out=w)
        capital = CapitalProfile(grid, *(
            np.array([getattr(k, name) for _, k in inputs.parties])[inputs.party]
            for name in ("k_mr", "k_ccr", "k_ccr_hedged", "k_cva")))
        self.capital_parts = capital.net_components(self.psi[:, None])  # (MR, CCR, CVA-vol)

    def integrate(self, profile_endpoint) -> np.ndarray:
        """Per row, the sum over intervals of W(mid) * avg(profile) * dt."""
        avg = np.add(profile_endpoint[..., :-1], profile_endpoint[..., 1:])
        avg *= 0.5
        avg *= self.dt
        return (self.survival_mid * avg).sum(axis=-1)

    def cva(self) -> np.ndarray:
        return -self.lgd_c * self.lambda_eff * self.integrate(self.inputs.exposure.epe)

    def dva(self) -> np.ndarray:
        return -self.lgd_b * self.lambda_issuer * self.integrate(self.inputs.exposure.ene)

    def fca(self) -> np.ndarray:
        return -self.lgd_b * self.lambda_issuer * self.integrate(self.inputs.exposure.epe)

    def colva(self) -> np.ndarray:
        inputs = self.inputs
        if inputs.collateral is None:
            return np.zeros_like(self.psi)
        return -inputs.collateral_spread * self.integrate(np.asarray(inputs.collateral))

    def kva(self) -> np.ndarray:
        """``(3, rows)``; the capital profile is deterministic, so it is discounted by the curve."""
        inputs, grid = self.inputs, self.inputs.exposure.grid
        d = np.asarray(inputs.discount.df(grid))
        forward = np.asarray(inputs.discount.forward(grid))
        carry = inputs.cost_of_capital - forward * self.phi[:, None]
        carry *= d
        return np.array([-self.integrate(carry * part) for part in self.capital_parts])

    def tva(self) -> np.ndarray:
        inputs, grid = self.inputs, self.inputs.exposure.grid
        rate, epe = inputs.tax.rate, inputs.exposure.epe
        d = np.asarray(inputs.discount.df(grid))
        taxed_flow = rate * inputs.cost_of_capital * d * sum(self.capital_parts)
        if inputs.tax.accruals_taxed:
            taxed_flow = taxed_flow + rate * self.lambda_issuer * self.lgd_b * epe
        credit = rate * self.warehoused * self.lgd_c
        if inputs.tax.compensator_taxed:
            # The compensator accrual offsets the expected default loss grossed
            # up by its own tax effect, hence the (1 + rate) factor.
            credit -= rate * self.warehoused * (1.0 + rate) * self.lgd_c
        return credit * self.lambda_cpty * self.integrate(epe) - self.integrate(taxed_flow)

    def errors(self) -> np.ndarray:
        """Upper-bound errors of (CVA, DVA, FCA, TVA), shaped ``(4, rows)``."""
        exposure = self.inputs.exposure
        w_se_epe = self.integrate(exposure.se_epe)
        return np.array([
            self.lgd_c * self.lambda_eff * w_se_epe,
            self.lgd_b * self.lambda_issuer * self.integrate(exposure.se_ene),
            self.lgd_b * self.lambda_issuer * w_se_epe,
            self.inputs.tax.rate * np.abs(self.warehoused) * self.lgd_c * self.lambda_cpty
            * w_se_epe,
        ])


def breakdown(inputs: XvaInputs) -> XvaBreakdown:
    """Price every row in one quadrature; each total is the exact float sum of its parts."""
    q = _Quadrature(inputs)
    return XvaBreakdown(q.cva(), q.dva(), q.fca(), q.colva(), *q.kva(), q.tva(), inputs.notional,
                        q.errors())
