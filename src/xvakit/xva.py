"""Valuation-adjustment integrals over exposure and capital profiles.

Each adjustment is a deterministic time integral of profile quantities
weighted by the joint survival of issuer and counterparty,

    W(u) = exp( -integral_0^u [ lambda_B(s) + lambda_eff(s) ] ds ),

where ``lambda_eff`` is the effective counterparty hazard under partial
hedging.  Pathwise discounting already sits inside the exposure expectations
(EPE/ENE are discounted); deterministic quantities such as the capital
profile are discounted explicitly with the curve.

Quadrature: trapezoid on the profile grid, with the hazard and survival
factors evaluated at interval midpoints.  This is second-order accurate and
exact for constant integrands.  A sweep's rows (``XvaSweep``) share one
quadrature: their survival weights form one ``(rows, intervals)`` array and
each component is one integral over it, one value per row.

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

from dataclasses import dataclass, replace

import numpy as np

from .credit import CreditCurve, HedgePolicy, TaxPolicy
from .curves import DiscountCurve
from .exposure import ExposureProfile
from .regcap import CapitalProfile


@dataclass(frozen=True)
class XvaInputs:
    """Everything the adjustment integrals consume."""

    exposure: ExposureProfile
    issuer: CreditCurve
    counterparty: CreditCurve
    hedge: HedgePolicy
    tax: TaxPolicy
    discount: DiscountCurve
    cost_of_capital: float
    notional: float
    capital: CapitalProfile | None = None
    collateral_spread: float = 0.0
    collateral: np.ndarray | None = None

    def __post_init__(self):
        if self.capital is not None and self.capital.grid is not self.exposure.grid and not (
            np.array_equal(self.capital.grid, self.exposure.grid)
        ):
            raise ValueError("capital profile grid does not match the exposure grid")
        if self.collateral is not None and len(self.collateral) != len(self.exposure.grid):
            raise ValueError("collateral profile does not match the exposure grid")
        if self.notional <= 0:
            raise ValueError("notional must be > 0")


@dataclass(frozen=True)
class XvaSweep:
    """Rows of a (psi, xi, phi, counterparty) sweep over the inputs of ``base``.

    Row ``i`` prices ``base`` with its counterparty curve and capital profile
    replaced by the pair ``parties[party[i]]`` and its hedge by the hedge
    fraction ``psi[i]``, price of risk ``xi[i]`` and capital-funding share
    ``phi[i]``.
    """

    base: XvaInputs
    parties: tuple[tuple[CreditCurve, CapitalProfile | None], ...]
    party: np.ndarray
    psi: np.ndarray
    xi: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        if len({len(self.party), len(self.psi), len(self.xi), len(self.phi)}) != 1:
            raise ValueError("party, psi, xi and phi must have one entry per row")
        if not (np.all((self.psi >= 0) & (self.psi <= 1)) and np.all(self.xi <= 1)
                and np.all((self.phi >= 0) & (self.phi <= 1))):
            raise ValueError("each row needs psi and phi in [0, 1] and xi <= 1")
        for counterparty, capital in self.parties:
            replace(self.base, counterparty=counterparty, capital=capital)  # re-validated

    @classmethod
    def of(cls, inputs: XvaInputs) -> "XvaSweep":
        """``inputs`` as a sweep of its one row."""
        h = inputs.hedge
        return cls(inputs, ((inputs.counterparty, inputs.capital),), np.zeros(1, dtype=int),
                   *np.array([[h.hedge_fraction], [h.price_of_risk], [h.capital_funding_fraction]]))


@dataclass(frozen=True)
class XvaErrors:
    """Monte Carlo standard errors propagated through the integrals.

    Conservative: profile errors are integrated as if perfectly correlated
    across grid points, which upper-bounds the true error of each component.
    """

    cva: float
    dva: float
    fca: float
    tva: float

    @property
    def total(self) -> float:
        return self.cva + self.dva + self.fca + self.tva


@dataclass(frozen=True)
class XvaBreakdown:
    """All adjustments in currency, with the notional for bps conversion."""

    cva: float
    dva: float
    fca: float
    colva: float
    kva_mr: float
    kva_ccr: float
    kva_cva: float
    tva: float
    notional: float
    se: XvaErrors | None = None

    @property
    def kva(self) -> float:
        return self.kva_mr + self.kva_ccr + self.kva_cva

    @property
    def total(self) -> float:
        return (
            self.cva + self.dva + self.fca + self.colva
            + self.kva_mr + self.kva_ccr + self.kva_cva + self.tva
        )

    def bps(self, value: float) -> float:
        return value / self.notional * 1e4

    def as_bps(self) -> dict[str, float]:
        out = {
            name: self.bps(getattr(self, name))
            for name in ("cva", "dva", "fca", "colva", "kva_mr", "kva_ccr", "kva_cva", "tva")
        }
        out["total"] = self.bps(self.total)
        return out


class _Quadrature:
    """Midpoint survival weights of every row of a sweep as one ``(rows, intervals)`` array.

    Psi and xi reach the integrals only through the effective-hazard scale
    ``psi + (1-psi)(1-xi)`` and the warehoused factor ``(1-psi)(1-xi)``, and
    capital is affine in psi and its carry in phi, so each component is one
    ``integrate`` over all rows, returning one value per row.
    """

    def __init__(self, sweep: XvaSweep):
        base = self.base = sweep.base
        grid = base.exposure.grid
        self.dt = np.diff(grid)
        mids = 0.5 * (grid[:-1] + grid[1:])
        self.psi, self.phi = sweep.psi, sweep.phi
        self.scale = sweep.psi + (1.0 - sweep.psi) * (1.0 - sweep.xi)
        self.warehoused = (1.0 - sweep.psi) * (1.0 - sweep.xi)
        curves = [curve for curve, _ in sweep.parties]
        self.lambda_cpty_mid = np.array([c.hazard(mids) for c in curves])[sweep.party]
        cum_cpty = np.array([c.cumulative_hazard(mids) for c in curves])[sweep.party]
        self.lgd_c = np.array([1.0 - c.recovery for c in curves])[sweep.party]
        cum = self.scale[:, None] * cum_cpty
        cum += base.issuer.cumulative_hazard(mids)
        self.survival_mid = np.exp(np.negative(cum, out=cum), out=cum)
        self.lambda_issuer_mid = base.issuer.hazard(mids)
        self.lambda_eff_mid = self.scale[:, None] * self.lambda_cpty_mid
        self.lgd_b = 1.0 - base.issuer.recovery
        capitals = [CapitalProfile(grid, *[np.zeros_like(grid)] * 4) if k is None else k
                    for _, k in sweep.parties]
        capital = CapitalProfile(grid, *(
            np.array([getattr(k, name) for k in capitals])[sweep.party]
            for name in ("k_mr", "k_ccr", "k_ccr_hedged", "k_cva")))
        self.capital_parts = capital.net_components(self.psi[:, None])  # (MR, CCR, CVA-vol)

    def integrate(self, rate_mid, profile_endpoint) -> np.ndarray:
        """Per row, the sum over intervals of rate(mid) * W(mid) * avg(profile) * dt."""
        avg = np.add(profile_endpoint[..., :-1], profile_endpoint[..., 1:])
        avg *= 0.5
        terms = rate_mid * self.survival_mid  # then in place: a sweep's arrays are large
        terms *= avg
        terms *= self.dt
        return terms.sum(axis=-1)

    def cva(self) -> np.ndarray:
        return -self.lgd_c * self.integrate(self.lambda_eff_mid, self.base.exposure.epe)

    def dva(self) -> np.ndarray:
        return -self.lgd_b * self.integrate(self.lambda_issuer_mid, self.base.exposure.ene)

    def fca(self) -> np.ndarray:
        return -self.lgd_b * self.integrate(self.lambda_issuer_mid, self.base.exposure.epe)

    def colva(self) -> np.ndarray:
        if self.base.collateral is None:
            return np.zeros_like(self.psi)
        return -self.base.collateral_spread * self.integrate(1.0, np.asarray(self.base.collateral))

    def kva(self) -> np.ndarray:
        """``(3, rows)``; the capital profile is deterministic, so it is discounted by the curve."""
        base, grid = self.base, self.base.exposure.grid
        d = np.asarray(base.discount.df(grid))
        carry = base.cost_of_capital - np.asarray(base.discount.forward(grid)) * self.phi[:, None]
        carry *= d
        return np.array([-self.integrate(1.0, carry * part) for part in self.capital_parts])

    def tva(self) -> np.ndarray:
        base, grid = self.base, self.base.exposure.grid
        rate, epe = base.tax.rate, base.exposure.epe
        d = np.asarray(base.discount.df(grid))
        taxed_flow = rate * base.cost_of_capital * d * sum(self.capital_parts)
        if base.tax.accruals_taxed:
            taxed_flow = taxed_flow + rate * np.asarray(base.issuer.hazard(grid)) * self.lgd_b * epe
        total = np.zeros_like(self.psi)
        total -= self.integrate(1.0, taxed_flow)
        credit = rate * self.warehoused * self.lgd_c
        total += self.integrate(self.lambda_cpty_mid, credit[:, None] * epe)
        if base.tax.compensator_taxed:
            # The compensator accrual offsets the expected default loss grossed
            # up by its own tax effect, hence the (1 + rate) factor.
            compensator = rate * self.warehoused * (1.0 + rate) * self.lgd_c
            total -= self.integrate(self.lambda_cpty_mid, compensator[:, None] * epe)
        return total

    def errors(self) -> np.ndarray:
        """Upper-bound errors of (CVA, DVA, FCA, TVA), shaped ``(4, rows)``."""
        exposure = self.base.exposure
        return np.array([
            self.lgd_c * self.integrate(self.lambda_eff_mid, exposure.se_epe),
            self.lgd_b * self.integrate(self.lambda_issuer_mid, exposure.se_ene),
            self.lgd_b * self.integrate(self.lambda_issuer_mid, exposure.se_epe),
            self.base.tax.rate * np.abs(self.warehoused) * self.lgd_c
            * self.integrate(self.lambda_cpty_mid, exposure.se_epe),
        ])


def cva(inputs: XvaInputs) -> float:
    """Counterparty-default loss on positive exposure; <= 0."""
    return float(_Quadrature(XvaSweep.of(inputs)).cva()[0])


def dva(inputs: XvaInputs) -> float:
    """Own-default gain on negative exposure; >= 0."""
    return float(_Quadrature(XvaSweep.of(inputs)).dva()[0])


def fca(inputs: XvaInputs) -> float:
    """Funding cost of the positive exposure through own bonds; <= 0."""
    return float(_Quadrature(XvaSweep.of(inputs)).fca()[0])


def colva(inputs: XvaInputs) -> float:
    """Carry on posted collateral at the collateral spread."""
    return float(_Quadrature(XvaSweep.of(inputs)).colva()[0])


def kva(inputs: XvaInputs) -> tuple[float, tuple[float, float, float]]:
    """Cost of capital, total and split (MR, CCR, CVA-vol), net of the funding
    use of capital (the forward rate times the usable fraction)."""
    parts = tuple(_Quadrature(XvaSweep.of(inputs)).kva()[:, 0].tolist())
    return sum(parts), parts


def tva(inputs: XvaInputs) -> float:
    """Tax adjustment: capital-return profits are taxed, warehoused default
    losses earn an expected tax credit (and the offsetting compensator
    income is itself taxable only when the policy says so)."""
    return float(_Quadrature(XvaSweep.of(inputs)).tva()[0])


def standard_errors(inputs: XvaInputs) -> XvaErrors:
    """Upper-bound Monte Carlo errors for the exposure-driven components."""
    return XvaErrors(*_Quadrature(XvaSweep.of(inputs)).errors()[:, 0].tolist())


def breakdown(inputs: XvaInputs | XvaSweep) -> XvaBreakdown | list[XvaBreakdown]:
    """Assemble every adjustment; the total is the exact float sum of the parts.

    A sweep is priced in one quadrature, one breakdown per row.
    """
    q = _Quadrature(XvaSweep.of(inputs) if isinstance(inputs, XvaInputs) else inputs)
    notional = q.base.notional
    columns = zip(q.cva().tolist(), q.dva().tolist(), q.fca().tolist(), q.colva().tolist(),
                  *q.kva().tolist(), q.tva().tolist(), *q.errors().tolist())
    out = [XvaBreakdown(c, d, f, col, mr, ccr, kv, t, notional, XvaErrors(*se))
           for c, d, f, col, mr, ccr, kv, t, *se in columns]
    return out[0] if isinstance(inputs, XvaInputs) else out
