"""Independent finite-difference verifier on a single lognormal asset.

The production pipeline computes the adjustments as quadratures over the
exposure profiles of a swap book.  This module solves the same economics a
second, unrelated way: a Crank-Nicolson finite-difference solution of the
economic-value PDE for a derivative on one lognormal asset with flat
parameters,

    0 = dVh/dt + 1/2 s^2 S^2 Vh_SS - (div - repo) S Vh_S
        - (r + lam_B + lam_eff) Vh
        + lam_eff g_C + lam_B g_B - lam_B eps_B - s_X X
        - (gamma_K - r phi) K_net - gamma_E E - lam_C (1-xi)(1-psi) dE,

with terminal condition the payoff, alongside the risk-free Black-Scholes
value V.  Each payoff is a sign omega on S - K (``_PAYOFFS``): a call (1) or
a put (-1) pays max(omega (S - K), 0), a forward (0) pays S - K.  The
adjustment is U = Vh - V.  ``verify_decomposition`` compares it with the
production integrals, ``xva.breakdown`` (trapezoid, 401 points), on the
problem's exact lognormal profiles, closed forms priced through one Black
formula (``density_expectations``).  The source terms depend on V alone,
so V is marched once and the economic values with and without tax, whose
difference is the PDE's TVA, are marched as the two columns of one banded
solve per step.

Funding convention, an assumption of the source terms and not a checked
figure: the funding condition sets the own-bond position, held so that there
is no shortfall on own default, i.e. the issuer-default hedge error is the
non-capital windfall eps_B = (1 - R_B) (V - X)+ and its capital-dependent
part vanishes.  The close-out mark and all source terms are driven by the
risk-free value V, which keeps the PDE linear.

The toy capital rule is CEM-like: requirements proportional to the positive
exposure (V - X)+, with separate factors for the unhedged requirement and
the relief from a full credit hedge.  Collateral is a fixed fraction of V.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .credit import (CreditCurve, TaxPolicy, compensator_rate, counterparty_hedge_error,
                     effective_hazard)
from .curves import DiscountCurve
from .exposure import ExposureProfile, normal_cdf, positive_mean
from .regcap import CapitalBase, CapitalProfile
from .xva import XvaBreakdown, XvaInputs, breakdown


class GridResolutionWarning(UserWarning):
    """Raised when the space grid is too coarse for the payoff kink."""


# Each input's range, per year where it is a rate.  The log-price grid spans
# ln spot +- (HALF_WIDTH sigma sqrt(T) + |carry - sigma^2/2| T + ln 2); at
# spot 1e15, sigma 1, maturity 100 and a carry of -2 its top node is e^345,
# far enough inside the float range (e^709) for 100 years' growth at rate -1.
_BOUNDS = (  # (fields, test, message)
    (("spot", "strike"), lambda v: 1e-15 <= v <= 1e15, "must lie in [1e-15, 1e15]"),
    (("maturity",), lambda v: 0 < v <= 100, "must lie in (0, 100]"),
    (("sigma",), lambda v: 1e-4 <= v <= 1, "must lie in [1e-4, 1]"),
    (("rate", "dividend_yield", "repo_rate", "collateral_spread", "price_of_risk"),
     lambda v: -1 <= v <= 1, "must lie in [-1, 1]"),
    (("issuer_hazard", "counterparty_hazard", "cost_of_capital", "hedge_fraction",
      "collateral_fraction", "capital_funding_fraction", "issuer_recovery",
      "counterparty_recovery"),
     lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    (("tax_rate",), lambda v: 0 <= v < 1, "must lie in [0, 1)"),
    (("capital_factor",), lambda v: 0 <= v <= 12.5, "must lie in [0, 12.5] (the 1250% ceiling)"),
)
HALF_WIDTH = 6.0  # the log-price grid's half-width, in units of sigma sqrt(T), before drift
RANNACHER_STEPS = 2  # fully implicit steps that start the march and damp the payoff kink
MAX_NODES = 2000  # per grid axis: the verifier's memory grows as n_space n_time
ORACLE_POINTS = 401  # uniform points of [0, maturity] that the oracle's trapezoid sums over
TOLERANCE = 0.005  # the default bound on the relative error between the PDE and the oracle
_PAYOFFS = {"call": 1.0, "put": -1.0, "forward": 0.0}  # sign omega on S - K; 0 has no kink


@dataclass(frozen=True)
class PdeProblem:
    """Flat-parameter problem definition on one lognormal asset."""

    spot: float
    strike: float
    maturity: float
    sigma: float
    rate: float
    payoff: str = "call"  # call | put | forward
    dividend_yield: float = 0.0
    repo_rate: float | None = None  # defaults to the risk-free rate
    issuer_hazard: float = 0.0
    counterparty_hazard: float = 0.0
    issuer_recovery: float = 0.4
    counterparty_recovery: float = 0.4
    hedge_fraction: float = 1.0
    price_of_risk: float = 0.0
    capital_funding_fraction: float = 0.0
    cost_of_capital: float = 0.0
    tax_rate: float = 0.0
    collateral_spread: float = 0.0
    collateral_fraction: float = 0.0
    capital_factor: float = 0.0  # unhedged requirement per unit positive exposure
    capital_relief_factor: float = 0.0  # relief from a full credit hedge
    accruals_taxed: bool = False
    compensator_taxed: bool = False

    def __post_init__(self):
        # Each message starts with the offending field, for the config to name.
        for names, test, message in _BOUNDS:
            for name in names:
                if getattr(self, name) is not None and not test(getattr(self, name)):
                    raise ValueError(f"{name}: {message}")
        if self.payoff not in _PAYOFFS:
            raise ValueError(f"payoff: must be one of {', '.join(_PAYOFFS)}")
        if not 0 <= self.capital_relief_factor <= self.capital_factor:
            raise ValueError("capital_relief_factor: must lie in [0, capital_factor]")

    @property
    def carry(self) -> float:
        repo = self.rate if self.repo_rate is None else self.repo_rate
        return repo - self.dividend_yield

    @property
    def effective_counterparty_hazard(self) -> float:
        return effective_hazard(self.counterparty_hazard, self.hedge_fraction, self.price_of_risk)

    @property
    def omega(self) -> float:
        return _PAYOFFS[self.payoff]

    def terminal_payoff(self, s):
        gain = np.asarray(s, dtype=float) - self.strike
        return np.maximum(self.omega * gain, 0.0) if self.omega else gain


@dataclass(frozen=True)
class Grid:
    """Log-spaced asset nodes and uniform time steps; the spot sits exactly on
    the middle node."""

    n_space: int = 400
    n_time: int = 400

    def __post_init__(self):
        for name, least in (("n_space", 8), ("n_time", 4)):
            if not least <= getattr(self, name) <= MAX_NODES:
                raise ValueError(f"{name}: must lie in [{least}, {MAX_NODES}]")
        if self.n_space % 2:
            raise ValueError("n_space: must be even so the spot lies on a node")


def log_half_width(p: PdeProblem) -> float:
    """Half-width of the log-price grid about the spot: ``HALF_WIDTH`` standard
    deviations plus the drift over the life, plus log 2."""
    return (HALF_WIDTH * p.sigma * np.sqrt(p.maturity)
            + abs(p.carry - 0.5 * p.sigma**2) * p.maturity + np.log(2.0))


def check_verifiable(problem: PdeProblem, grid: Grid) -> None:
    """Refuse what the verifier cannot price in floats, naming the field.

    A time step over which a negative rate grows the value by more than half:
    at ``-rate dt = 1`` the implicit start-up step is singular.  A cell Peclet
    number ``|carry - sigma^2/2| dx / sigma^2`` above 1: central convection
    then outweighs diffusion and the march oscillates.
    """
    if grid.n_time < (least := 2.0 * problem.maturity * -problem.rate):
        raise ValueError(f"n_time: must be >= 2 maturity (-rate) = {least:g}")
    # dx = 2 log_half_width / n_space, so the Peclet number is 2 half / n_space
    half = abs(problem.carry - 0.5 * problem.sigma**2) * log_half_width(problem) / problem.sigma**2
    if grid.n_space < (least := 2 * int(np.ceil(half))):
        raise ValueError(f"n_space: cell Peclet number {2 * half / grid.n_space:.3g} > 1; " + (
            f"needs >= {least}" if least <= MAX_NODES else f"none up to {MAX_NODES} is enough"))


class CloseOut(NamedTuple):
    """The close-out quantities at each node; see ``closeout``."""

    collateral: np.ndarray
    g_issuer: np.ndarray
    g_cpty: np.ndarray
    eps_b: np.ndarray
    k_net: np.ndarray
    jump_tax: np.ndarray
    taxable: np.ndarray


def closeout(problem: PdeProblem, v: np.ndarray) -> CloseOut:
    """Close-out values, hedge errors, capital and tax at risk-free value ``v``.

    With collateral ``X`` a fixed fraction of ``V``, the surviving party keeps
    it and recovers only a fraction of what the defaulted party owes:

        on issuer default (g_B):        (V-X)+ + R_B (V-X)- + X
        on counterparty default (g_C):  R_C (V-X)+ + (V-X)- + X

    The issuer-default hedge error is the windfall ``eps_B = (1-R_B) (V-X)+``
    and the capital held is ``K_net = (capital - psi relief) (V-X)+``.  The
    counterparty-default loss ``(1-R_C) (V-X)+`` is tax deductible, a jump of
    ``-tax_rate`` times it.  Taxed at non-default times are the return paid
    on held capital, the accruals offsetting own-credit bleed when
    ``accruals_taxed`` and the default-risk compensator when
    ``compensator_taxed``; the income earned on the capital itself is not
    netted off.
    """
    p = problem
    vx = (1.0 - p.collateral_fraction) * v  # V - X
    collateral = p.collateral_fraction * v
    pos = np.maximum(vx, 0.0)
    neg = np.minimum(vx, 0.0)
    g_cpty = p.counterparty_recovery * pos + neg + collateral
    eps_b = (1.0 - p.issuer_recovery) * pos
    k_net = (p.capital_factor - p.hedge_fraction * p.capital_relief_factor) * pos
    jump_tax = -p.tax_rate * (1.0 - p.counterparty_recovery) * pos
    taxable = p.cost_of_capital * k_net
    if p.accruals_taxed:
        taxable = taxable + p.issuer_hazard * eps_b
    if p.compensator_taxed:
        taxable = taxable + compensator_rate(
            g_cpty, v, p.hedge_fraction, p.price_of_risk, p.counterparty_hazard, jump_tax
        )
    return CloseOut(collateral, pos + p.issuer_recovery * neg + collateral, g_cpty, eps_b,
                    k_net, jump_tax, taxable)


def _source_terms(problem: PdeProblem, v: np.ndarray) -> np.ndarray:
    """PDE source at one time level, as a function of the risk-free value."""
    p = problem
    c = closeout(p, v)
    lam_eff = p.effective_counterparty_hazard
    warehoused_hazard = p.counterparty_hazard * (1.0 - p.price_of_risk) * (1.0 - p.hedge_fraction)
    return (
        lam_eff * c.g_cpty
        + p.issuer_hazard * c.g_issuer
        - p.issuer_hazard * c.eps_b
        - p.collateral_spread * c.collateral
        - (p.cost_of_capital - p.rate * p.capital_funding_fraction) * c.k_net
        - p.tax_rate * c.taxable
        - warehoused_hazard * c.jump_tax
    )


def _march(operator, terminal: np.ndarray, source: np.ndarray, dt: float, grid: Grid, fold):
    """Theta-scheme march of v_t + M v + src = 0 back from ``terminal``.

    ``terminal`` is ``(columns, nodes)``, ``source`` ``(columns, levels, interior
    nodes)``; one tridiagonal solve per step serves every column.  The matrix
    depends on the step only through theta, so it is factored once per theta
    (LAPACK ``dgttrf``, the elimination ``dgtsv`` repeats on every call) and
    each step back-substitutes (``dgttrs``).  Returns ``(columns, levels, nodes)``.
    """
    # Imported here so that ``run`` and ``validate`` never load scipy.
    from scipy.linalg.lapack import dgttrf, dgttrs

    lower, diag, upper = operator
    factors = {}
    out = np.empty((terminal.shape[0], grid.n_time + 1, terminal.shape[1]))
    out[:, -1] = terminal
    for step in range(grid.n_time - 1, -1, -1):
        theta = 1.0 if (grid.n_time - 1 - step) < RANNACHER_STEPS else 0.5
        if theta not in factors:
            factors[theta] = _lapack_checked(dgttrf(
                -theta * dt * lower[1:], 1.0 - theta * dt * diag, -theta * dt * upper[:-1]))
        v = out[:, step + 1, 1:-1]
        applied = diag * v
        applied[:, 1:] += lower[1:] * v[:, :-1]
        applied[:, :-1] += upper[:-1] * v[:, 1:]
        rhs = v + (1.0 - theta) * dt * applied + dt * (
            theta * source[:, step] + (1.0 - theta) * source[:, step + 1])
        out[:, step, 1:-1] = _lapack_checked(dgttrs(*factors[theta], rhs.T))[0].T
        fold(out[:, step])
    if not np.isfinite(out).all():  # a non-finite matrix or right-hand side
        raise ValueError("array must not contain infs or NaNs")
    return out


def _lapack_checked(result):
    """A LAPACK routine's outputs but its ``info``, raised on as ``solve_banded`` raises."""
    *outputs, info = result
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal dgttrf/dgttrs")
    return outputs


@dataclass
class PdeSolution:
    """Surfaces on the (time, asset) grid; U = economic minus risk-free value.

    ``untaxed`` is the economic value of the same problem with the tax rate
    switched off, so ``economic - untaxed`` is the PDE's TVA.
    """

    t_nodes: np.ndarray
    s_nodes: np.ndarray
    risk_free: np.ndarray
    economic: np.ndarray
    untaxed: np.ndarray
    spot_index: int

    @property
    def adjustment(self) -> np.ndarray:
        return self.economic - self.risk_free

    def value_at_spot(self, surface: str = "adjustment") -> float:
        return float(getattr(self, surface)[0, self.spot_index])


def solve_vhat(problem: PdeProblem, grid: Grid = Grid()) -> PdeSolution:
    """Crank-Nicolson solution of the economic-value PDE and its Black-Scholes twin.

    Central differences in log-price, theta time stepping with a few initial
    fully implicit (Rannacher) steps to damp the payoff kink, and linearity
    boundary conditions (vanishing second derivative in S) at both ends.
    """
    check_verifiable(problem, grid)
    p = problem
    half_width = log_half_width(p)
    x0 = np.log(p.spot)
    x = np.linspace(x0 - half_width, x0 + half_width, grid.n_space + 1)
    dx = x[1] - x[0]
    s = np.exp(x)
    kink_scale = p.sigma * np.sqrt(p.maturity)
    if dx > 0.25 * kink_scale:
        warnings.warn(
            f"space step {dx:.4f} coarse relative to sigma*sqrt(T) = {kink_scale:.4f}; "
            "the payoff kink may be under-resolved",
            GridResolutionWarning,
            stacklevel=2,
        )

    t_nodes = np.linspace(0.0, p.maturity, grid.n_time + 1)
    dt = t_nodes[1] - t_nodes[0]

    payoff = _cell_average_kink(p, x, p.terminal_payoff(s))

    # Constant-coefficient operator in log price.
    diff = 0.5 * p.sigma**2 / dx**2
    conv = (p.carry - 0.5 * p.sigma**2) / (2.0 * dx)
    lower_c = diff - conv
    upper_c = diff + conv

    # Linearity in S at the boundary: V_0 and V_N follow from the two
    # neighbouring nodes, folded into the first and last interior rows.
    w_lo = np.exp(-dx)  # V_0 = (1 + w_lo) V_1 - w_lo V_2
    w_hi = np.exp(dx)   # V_N = (1 + w_hi) V_{N-1} - w_hi V_{N-2}

    def build_operator(reaction: float):
        n = grid.n_space - 1
        lower = np.full(n, lower_c)
        diag = np.full(n, -2.0 * diff - reaction)
        upper = np.full(n, upper_c)
        diag[0] += lower_c * (1.0 + w_lo)
        upper[0] -= lower_c * w_lo
        diag[-1] += upper_c * (1.0 + w_hi)
        lower[-1] -= upper_c * w_hi
        return lower, diag, upper

    def apply_boundary(v: np.ndarray):
        v[:, 0] = (1.0 + w_lo) * v[:, 1] - w_lo * v[:, 2]
        v[:, -1] = (1.0 + w_hi) * v[:, -2] - w_hi * v[:, -3]

    zero_src = np.zeros((1, grid.n_time + 1, grid.n_space - 1))
    (risk_free,) = _march(build_operator(p.rate), payoff[None], zero_src, dt, grid,
                          apply_boundary)
    source = np.stack([_source_terms(q, risk_free[:, 1:-1])
                       for q in (p, replace(p, tax_rate=0.0))])
    reaction = p.rate + p.issuer_hazard + p.effective_counterparty_hazard
    economic, untaxed = _march(build_operator(reaction), np.stack([payoff, payoff]), source, dt,
                               grid, apply_boundary)
    return PdeSolution(t_nodes=t_nodes, s_nodes=s, risk_free=risk_free, economic=economic,
                       untaxed=untaxed, spot_index=grid.n_space // 2)


def _cell_average_kink(problem: PdeProblem, x: np.ndarray, payoff: np.ndarray) -> np.ndarray:
    """Replace the node value in the cell containing the strike by the payoff's mean
    over the cell, integrated where ``omega (e^x - K) > 0``; a forward has no kink."""
    omega, strike, k = problem.omega, problem.strike, np.log(problem.strike)
    if not omega or not (x[0] < k < x[-1]):
        return payoff
    dx = x[1] - x[0]
    idx = int(np.argmin(np.abs(x - k)))
    a, b = x[idx] - 0.5 * dx, x[idx] + 0.5 * dx
    lo, hi = (max(a, k), b) if omega > 0 else (a, min(b, k))
    out = payoff.copy()
    out[idx] = omega * ((np.exp(hi) - np.exp(lo)) - strike * (hi - lo)) / dx if hi > lo else 0.0
    return out


def _black(omega: float, fwd, strike, vol):
    """Black's (1976) ``omega (F N(omega d1) - K N(omega d2))``, the discount folded
    into ``fwd`` and ``strike`` and ``vol`` the total volatility: ``F - K`` where
    omega is 0, and the intrinsic value where ``vol`` is 0 (a scalar for scalars).
    ``N`` is the engine's ``exposure.normal_cdf``."""
    if not omega:
        return fwd - strike
    with np.errstate(divide="ignore", invalid="ignore"):  # d1 is undefined at vol 0
        d1 = np.log(fwd / strike) / vol + 0.5 * vol
        value = omega * (fwd * normal_cdf(omega * d1) - strike * normal_cdf(omega * (d1 - vol)))
    return np.where(vol > 0, value, np.maximum(omega * (fwd - strike), 0.0))[()]


def black_scholes_value(problem: PdeProblem, s, remaining: float):
    """Closed-form risk-free value with carry ``repo - dividend_yield``; the payoff at expiry."""
    p, tau = problem, max(remaining, 0.0)
    s = np.asarray(s, dtype=float)
    return _black(p.omega, s * np.exp((p.carry - p.rate) * tau), p.strike * np.exp(-p.rate * tau),
                  p.sigma * np.sqrt(tau))


def density_expectations(problem: PdeProblem, times):
    """(E[(V-X)+], E[V]) under the lognormal law at each horizon.

    Closed forms at every horizon ``u`` at once; these are the exact profiles
    of ``quadrature_oracle``.  ``e^{-ru} V(u, S_u)`` is a martingale, so the
    mean is ``V_0 e^{ru}`` for every payoff, and a call or a put, never
    negative, keeps ``1 - collateral_fraction`` of it.  A forward is ``A - K'``
    in a lognormal ``A`` of total volatility ``sigma sqrt(u)``, so its positive
    part is Black's call, which the exposure engine's ``positive_mean`` takes
    as a one-term kernel: ``-K' + F e^{-v/2} e^{-X}``, ``X ~ N(0, v)``, ``v =
    sigma^2 u``, is ``A - K'``, as ``-X`` has the law of ``X``.
    """
    p = problem
    u = np.asarray(times, dtype=float)
    if np.any(u < 0) or np.any(u > p.maturity):
        raise ValueError("times must lie within [0, maturity]")
    keep = 1.0 - p.collateral_fraction  # (V - X) = keep * V
    e_val = black_scholes_value(p, p.spot, p.maturity) * np.exp(p.rate * u)
    if p.omega:
        return keep * e_val, e_val
    tau, v = p.maturity - u, p.sigma * p.sigma * u
    fwd = p.spot * np.exp(p.carry * u + (p.carry - p.rate) * tau)
    call = positive_mean(-p.strike * np.exp(-p.rate * tau), (fwd * np.exp(-0.5 * v))[:, None],
                         np.full((len(u), 1), -1.0), v)
    return keep * call, e_val


def quadrature_oracle(problem: PdeProblem) -> XvaBreakdown:
    """The production integrals, ``xva.breakdown``, on the problem's exact profiles.

    The profiles are the closed forms of ``density_expectations`` on
    ``ORACLE_POINTS`` uniform points of [0, maturity]: the discounted ``(V-X)+`` and
    ``V-X`` as EPE and forward (rounded alike for a call or a put, so that its
    ENE is exactly 0), the CEM-like capital on ``(V-X)+`` and the discounted
    collateral ``X``.  Returns the one-row breakdown, with the spot as its notional.
    """
    p = problem
    grid = np.linspace(0.0, p.maturity, ORACLE_POINTS)
    e_pos, e_val = density_expectations(p, grid)
    keep = 1.0 - p.collateral_fraction
    df = np.exp(-p.rate * grid)
    z = np.zeros_like(grid)
    return breakdown(XvaInputs(
        exposure=ExposureProfile(grid=grid, epe=df * e_pos, forward=df * (keep * e_val),
                                 mean_value_undiscounted=e_val,
                                 collateral=df * p.collateral_fraction * e_val),
        capital=CapitalBase(grid, ead=e_pos, duration=z, k_mr=z),
        issuer=CreditCurve(p.issuer_hazard, p.issuer_recovery),
        parties=((CreditCurve(p.counterparty_hazard, p.counterparty_recovery), CapitalProfile(
            p.capital_factor, p.capital_factor - p.capital_relief_factor, 0.0)),),
        party=np.zeros(1, dtype=int),
        psi=np.array([p.hedge_fraction]),
        xi=np.array([p.price_of_risk]),
        phi=np.array([p.capital_funding_fraction]),
        tax=TaxPolicy(p.tax_rate, p.accruals_taxed, p.compensator_taxed),
        discount=DiscountCurve((p.maturity,), (p.rate,)),
        cost_of_capital=p.cost_of_capital,
        notional=p.spot,
        collateral_spread=p.collateral_spread,
    ))


@dataclass
class ReplicationState:
    """The stock hedge and the counterparty-default hedge error and compensator, per node."""

    stock_delta: np.ndarray
    counterparty_error: np.ndarray
    compensator: np.ndarray


def replication_state(problem: PdeProblem, solution: PdeSolution) -> ReplicationState:
    """The stock hedge of ``solution``'s economic value and its counterparty-default terms.

    No op calls this.  The benchmark's tracer wraps it by name, so its deletion
    waits on ROADMAP item 13, next to ``portfolio_value``, ``bond_price`` and
    ``xva._Quadrature``.
    """
    p = problem
    vh = solution.economic
    s = solution.s_nodes
    c = closeout(p, solution.risk_free)

    delta = np.empty_like(vh)
    delta[:, 1:-1] = -(vh[:, 2:] - vh[:, :-2]) / (s[2:] - s[:-2])
    delta[:, 0] = -(vh[:, 1] - vh[:, 0]) / (s[1] - s[0])
    delta[:, -1] = -(vh[:, -1] - vh[:, -2]) / (s[-1] - s[-2])

    return ReplicationState(
        stock_delta=delta,
        counterparty_error=counterparty_hedge_error(c.g_cpty, vh, p.hedge_fraction, c.jump_tax),
        compensator=compensator_rate(
            c.g_cpty, vh, p.hedge_fraction, p.price_of_risk, p.counterparty_hazard, c.jump_tax),
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the PDE-versus-quadrature cross-check."""

    pde_adjustment: float
    oracle: XvaBreakdown  # one row
    rel_error: float
    tax_pde: float
    tax_rel_error: float
    tolerance: float
    solution: PdeSolution

    @property
    def passed(self) -> bool:
        return self.rel_error <= self.tolerance and self.tax_rel_error <= self.tolerance


def verify_decomposition(
    problem: PdeProblem, grid: Grid = Grid(), tolerance: float = TOLERANCE
) -> VerificationReport:
    """Solve the PDE, evaluate the oracle, and compare.

    Also isolates the tax component on the PDE side from the solution's
    untaxed surface.  The funding convention is an assumption of the source
    terms, not a figure checked here.
    """
    solution = solve_vhat(problem, grid)
    oracle = quadrature_oracle(problem)
    total, tva = float(oracle.total[0]), float(oracle.tva[0])
    u_pde = solution.value_at_spot()
    denom = max(abs(total), 1e-8 * problem.spot)
    rel = abs(u_pde - total) / denom

    u_no_tax = solution.value_at_spot("untaxed") - solution.value_at_spot("risk_free")
    tax_pde = u_pde - u_no_tax
    tax_denom = max(abs(tva), 1e-8 * problem.spot)
    tax_rel = abs(tax_pde - tva) / tax_denom

    return VerificationReport(
        pde_adjustment=u_pde,
        oracle=oracle,
        rel_error=rel,
        tax_pde=tax_pde,
        tax_rel_error=tax_rel,
        tolerance=tolerance,
        solution=solution,
    )
