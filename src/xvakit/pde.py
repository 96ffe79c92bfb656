"""Independent finite-difference verifier on a single lognormal asset.

The production pipeline computes the adjustments as quadratures over Monte
Carlo profiles.  This module solves the same economics a second, unrelated
way: a Crank-Nicolson finite-difference solution of the economic-value PDE
for a derivative on one lognormal asset with flat parameters,

    0 = dVh/dt + 1/2 s^2 S^2 Vh_SS - (div - repo) S Vh_S
        - (r + lam_B + lam_eff) Vh
        + lam_eff g_C + lam_B g_B - lam_B eps_B - s_X X
        - (gamma_K - r phi) K_net - gamma_E E - lam_C (1-xi)(1-psi) dE,

with terminal condition the payoff, alongside the risk-free Black-Scholes
value V.  The adjustment is U = Vh - V.  A deterministic Feynman-Kac
quadrature (time integral of lognormal-density expectations) evaluates the
same adjustment component by component; ``verify_decomposition`` compares the
two routes.  The source terms depend on V alone, so V is marched once and the
economic values with and without tax, whose difference is the PDE's TVA, are
marched as the two columns of one banded solve per step.  The oracle builds
its Gauss-Legendre rule once per call.

Funding convention: own bonds are held so that there is no shortfall on own
default, i.e. the issuer-default hedge error is the non-capital windfall
eps_B = (1 - R_B) (V - X)+ and its capital-dependent part vanishes.  The
close-out mark and all source terms are driven by the risk-free value V,
which keeps the PDE linear.

The toy capital rule is CEM-like: requirements proportional to the positive
exposure (V - X)+, with separate factors for the unhedged requirement and
the relief from a full credit hedge.  Collateral is a fixed fraction of V.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .credit import compensator_rate, counterparty_hedge_error, effective_hazard


class GridResolutionWarning(UserWarning):
    """Raised when the space grid is too coarse for the payoff kink."""


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
        for name in ("spot", "strike", "sigma", "maturity"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name}: must be > 0")
        if self.payoff not in ("call", "put", "forward"):
            raise ValueError("payoff: must be one of call, put, forward")
        for name in ("hedge_fraction", "collateral_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name}: must lie in [0, 1]")
        if self.capital_relief_factor > self.capital_factor:
            raise ValueError("capital_relief_factor: must not exceed capital_factor")
        for name in ("issuer_hazard", "counterparty_hazard"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name}: must be >= 0")
        if not 0.0 <= self.tax_rate < 1.0:
            raise ValueError("tax_rate: must lie in [0, 1)")

    @property
    def carry(self) -> float:
        repo = self.rate if self.repo_rate is None else self.repo_rate
        return repo - self.dividend_yield

    @property
    def effective_counterparty_hazard(self) -> float:
        return effective_hazard(self.counterparty_hazard, self.hedge_fraction, self.price_of_risk)

    def terminal_payoff(self, s):
        s = np.asarray(s, dtype=float)
        if self.payoff == "call":
            return np.maximum(s - self.strike, 0.0)
        if self.payoff == "put":
            return np.maximum(self.strike - s, 0.0)
        return s - self.strike


@dataclass(frozen=True)
class Grid:
    """Log-spaced asset nodes and uniform time steps.

    The spot sits exactly on the middle node.  ``width`` is the half-width of
    the log-price range in units of sigma*sqrt(T) plus a drift allowance.
    """

    n_space: int = 400
    n_time: int = 400
    width: float = 6.0
    rannacher_steps: int = 2

    def __post_init__(self):
        if self.n_space < 8:
            raise ValueError("n_space: must be >= 8")
        if self.n_time < 4:
            raise ValueError("n_time: must be >= 4")
        if self.n_space % 2:
            raise ValueError("n_space: must be even so the spot lies on a node")


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
    nodes)``; one banded solve per step serves every column.  Returns
    ``(columns, levels, nodes)``.
    """
    # Imported here so that ``run`` and ``validate`` never load scipy.
    from scipy.linalg import solve_banded

    lower, diag, upper = operator
    out = np.empty((terminal.shape[0], grid.n_time + 1, terminal.shape[1]))
    out[:, -1] = terminal
    for step in range(grid.n_time - 1, -1, -1):
        theta = 1.0 if (grid.n_time - 1 - step) < grid.rannacher_steps else 0.5
        v = out[:, step + 1, 1:-1]
        applied = diag * v
        applied[:, 1:] += lower[1:] * v[:, :-1]
        applied[:, :-1] += upper[:-1] * v[:, 1:]
        rhs = v + (1.0 - theta) * dt * applied + dt * (
            theta * source[:, step] + (1.0 - theta) * source[:, step + 1])
        banded = np.zeros((3, len(diag)))
        banded[0, 1:] = -theta * dt * upper[:-1]
        banded[1, :] = 1.0 - theta * dt * diag
        banded[2, :-1] = -theta * dt * lower[1:]
        out[:, step, 1:-1] = solve_banded((1, 1), banded, rhs.T).T
        fold(out[:, step])
    return out


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
    p = problem
    half_width = grid.width * p.sigma * np.sqrt(p.maturity) + abs(
        p.carry - 0.5 * p.sigma**2
    ) * p.maturity + np.log(2.0)
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

    payoff = p.terminal_payoff(s)
    if p.payoff in ("call", "put"):
        payoff = _cell_average_kink(p, x, payoff)

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
    """Replace the node value in the cell containing the strike by the cell mean."""
    k = np.log(problem.strike)
    dx = x[1] - x[0]
    idx = int(np.argmin(np.abs(x - k)))
    if not (x[0] < k < x[-1]):
        return payoff
    a, b = x[idx] - 0.5 * dx, x[idx] + 0.5 * dx
    strike = problem.strike
    # integral of (e^x - K)+ over the cell, analytic around the kink
    lo, hi = max(a, k), b
    call_avg = (np.exp(hi) - np.exp(lo) - strike * (hi - lo)) / dx if hi > lo else 0.0
    out = payoff.copy()
    if problem.payoff == "call":
        out[idx] = call_avg
    elif problem.payoff == "put":
        # put = call - forward; the forward part is smooth, average only the kink
        lo, hi = a, min(b, k)
        put_avg = (strike * (hi - lo) - (np.exp(hi) - np.exp(lo))) / dx if hi > lo else 0.0
        out[idx] = put_avg
    return out


def black_scholes_value(problem: PdeProblem, s, remaining: float):
    """Closed-form risk-free value with carry ``repo - dividend_yield``."""
    # Imported here so that ``run`` and ``validate`` never load scipy.
    from scipy.special import ndtr

    p = problem
    s = np.asarray(s, dtype=float)
    if remaining <= 0:
        return p.terminal_payoff(s)
    b, r, vol = p.carry, p.rate, p.sigma
    if p.payoff == "forward":
        return s * np.exp((b - r) * remaining) - p.strike * np.exp(-r * remaining)
    sq = vol * np.sqrt(remaining)
    d1 = (np.log(s / p.strike) + (b + 0.5 * vol**2) * remaining) / sq
    d2 = d1 - sq
    df_s = np.exp((b - r) * remaining)
    df_k = np.exp(-r * remaining)
    if p.payoff == "call":
        return s * df_s * ndtr(d1) - p.strike * df_k * ndtr(d2)
    return p.strike * df_k * ndtr(-d2) - s * df_s * ndtr(-d1)


@dataclass(frozen=True)
class OracleDecomposition:
    """Adjustment components from the Feynman-Kac quadrature."""

    cva: float
    dva: float
    fca: float
    colva: float
    kva: float
    tva: float

    @property
    def total(self) -> float:
        return self.cva + self.dva + self.fca + self.colva + self.kva + self.tva


_DENSITY_RANGE = 8.5  # standard deviations covered by the inner integral


def _inner_quadrature(problem: PdeProblem, u: float, gl_x: np.ndarray, gl_w: np.ndarray):
    """Nodes/weights in the standard-normal variable, split at the kink.

    The asset at horizon u is lognormal; the relevant integrands kink where
    the remaining value crosses zero (forward payoff) or steepen around the
    strike (call/put near maturity), so the density integral is done with
    Gauss-Legendre pieces split there; ``(gl_x, gl_w)`` is the rule on
    [-1, 1] used for every piece.
    """
    p = problem
    drift = p.carry - 0.5 * p.sigma**2
    vol = p.sigma * np.sqrt(u)
    tau = p.maturity - u
    if p.payoff == "forward":
        s_kink = p.strike * np.exp(-p.carry * tau)
    else:
        s_kink = p.strike
    z_kink = (np.log(s_kink / p.spot) - drift * u) / vol
    breaks = [-_DENSITY_RANGE]
    if -_DENSITY_RANGE < z_kink < _DENSITY_RANGE:
        breaks.append(float(z_kink))
    breaks.append(_DENSITY_RANGE)
    zs, ws = [], []
    for a, b in zip(breaks, breaks[1:]):
        zs.append(0.5 * (b - a) * gl_x + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * gl_w)
    z = np.concatenate(zs)
    w = np.concatenate(ws) * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    s_u = p.spot * np.exp(drift * u + vol * z)
    return s_u, w


def density_expectations(problem: PdeProblem, times, n_density: int = 96):
    """(E[(V-X)+], E[(V-X)-], E[V]) under the lognormal law at each horizon.

    The building blocks of the quadrature decomposition; also useful to turn
    the toy problem into synthetic exposure profiles.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times < 0) or np.any(times > problem.maturity):
        raise ValueError("times must lie within [0, maturity]")
    coll = problem.collateral_fraction
    gl_x, gl_w = np.polynomial.legendre.leggauss(n_density)
    e_pos = np.empty_like(times)
    e_neg = np.empty_like(times)
    e_val = np.empty_like(times)
    for i, ui in enumerate(times):
        if ui <= 0.0:  # degenerate density: the asset is still at the spot
            value = black_scholes_value(problem, problem.spot, problem.maturity)
            v = np.atleast_1d(np.asarray(value, dtype=float))
            weights = np.ones(1)
        else:
            s_u, weights = _inner_quadrature(problem, float(ui), gl_x, gl_w)
            v = black_scholes_value(problem, s_u, problem.maturity - ui)
        vx = (1.0 - coll) * v
        e_pos[i] = np.dot(weights, np.maximum(vx, 0.0))
        e_neg[i] = np.dot(weights, np.minimum(vx, 0.0))
        e_val[i] = np.dot(weights, v)
    return e_pos, e_neg, e_val


def quadrature_oracle(
    problem: PdeProblem, n_time: int = 200, n_density: int = 96
) -> OracleDecomposition:
    """Evaluate the adjustment integrals by nested deterministic quadrature.

    Outer integral: Gauss-Legendre in time.  Inner expectations: piecewise
    Gauss-Legendre over the lognormal transition density (``n_density`` nodes
    per smooth piece), applied to the closed-form risk-free value.  Flat
    parameters let the survival-and-discount weight come out of the
    expectation as exp(-(r + lam_B + lam_eff) u).
    """
    p = problem
    nodes, weights = np.polynomial.legendre.leggauss(n_time)
    u = 0.5 * p.maturity * (nodes + 1.0)
    w_time = 0.5 * p.maturity * weights

    lam_eff = p.effective_counterparty_hazard
    lam_b = p.issuer_hazard
    decay = np.exp(-(p.rate + lam_b + lam_eff) * u)

    coll = p.collateral_fraction
    lgd_c = 1.0 - p.counterparty_recovery
    lgd_b = 1.0 - p.issuer_recovery
    k_net_factor = p.capital_factor - p.hedge_fraction * p.capital_relief_factor
    warehoused_hazard = p.counterparty_hazard * (1.0 - p.price_of_risk) * (1.0 - p.hedge_fraction)

    e_pos, e_neg, e_val = density_expectations(p, u, n_density)

    def integrate(values) -> float:
        return float(np.dot(w_time, decay * values))

    cva = -lgd_c * integrate(lam_eff * e_pos)
    dva = -lgd_b * integrate(lam_b * e_neg)
    fca = -lgd_b * integrate(lam_b * e_pos)
    colva = -p.collateral_spread * integrate(coll * e_val)
    kva = -(p.cost_of_capital - p.rate * p.capital_funding_fraction) * integrate(
        k_net_factor * e_pos
    )
    taxable = p.cost_of_capital * k_net_factor * e_pos
    if p.accruals_taxed:
        taxable = taxable + lam_b * lgd_b * e_pos
    if p.compensator_taxed:
        taxable = taxable + warehoused_hazard * (1.0 + p.tax_rate) * lgd_c * e_pos
    tva = -p.tax_rate * integrate(taxable) + p.tax_rate * warehoused_hazard * lgd_c * integrate(
        e_pos
    )
    return OracleDecomposition(cva=cva, dva=dva, fca=fca, colva=colva, kva=kva, tva=tva)


@dataclass
class ReplicationState:
    """Holdings and default errors backing the funding condition, per node.

    The own-bond portfolio is split across a recovery bond (recovery = issuer
    recovery) and a zero-recovery bond; the funding condition pins the total,
    the no-shortfall convention pins the after-default value.
    """

    stock_delta: np.ndarray
    bond_recovery_position: np.ndarray  # alpha_1 P_1
    bond_zero_position: np.ndarray  # alpha_2 P_2
    own_portfolio: np.ndarray  # P, pre-default
    own_portfolio_default: np.ndarray  # P_D, post-default
    issuer_error: np.ndarray
    counterparty_error: np.ndarray
    compensator: np.ndarray
    funding_residual: np.ndarray


def replication_state(problem: PdeProblem, solution: PdeSolution) -> ReplicationState:
    """Reconstruct the replication portfolio and check the funding condition."""
    p = problem
    v = solution.risk_free
    vh = solution.economic
    s = solution.s_nodes

    c = closeout(p, v)
    collateral, k_net = c.collateral, c.k_net

    own = -(vh - collateral - p.capital_funding_fraction * k_net)
    own_default = c.eps_b - c.g_issuer + collateral + p.capital_funding_fraction * k_net
    if p.issuer_recovery > 0:
        bond_recovery = own_default / p.issuer_recovery
    else:
        bond_recovery = np.zeros_like(own_default)
    bond_zero = own - bond_recovery

    delta = np.empty_like(vh)
    delta[:, 1:-1] = -(vh[:, 2:] - vh[:, :-2]) / (s[2:] - s[:-2])
    delta[:, 0] = -(vh[:, 1] - vh[:, 0]) / (s[1] - s[0])
    delta[:, -1] = -(vh[:, -1] - vh[:, -2]) / (s[-1] - s[-2])

    eps_c = counterparty_hedge_error(c.g_cpty, vh, p.hedge_fraction, c.jump_tax)
    gamma_c = compensator_rate(
        c.g_cpty, vh, p.hedge_fraction, p.price_of_risk, p.counterparty_hazard, c.jump_tax
    )
    residual = vh - collateral + (bond_recovery + bond_zero) - p.capital_funding_fraction * k_net
    return ReplicationState(
        stock_delta=delta,
        bond_recovery_position=bond_recovery,
        bond_zero_position=bond_zero,
        own_portfolio=own,
        own_portfolio_default=own_default,
        issuer_error=c.eps_b,
        counterparty_error=eps_c,
        compensator=gamma_c,
        funding_residual=residual,
    )


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the PDE-versus-quadrature cross-check."""

    pde_adjustment: float
    oracle: OracleDecomposition
    abs_error: float
    rel_error: float
    tax_pde: float
    tax_rel_error: float
    max_funding_residual: float
    tolerance: float
    solution: PdeSolution

    @property
    def passed(self) -> bool:
        return self.rel_error <= self.tolerance and self.tax_rel_error <= self.tolerance


def verify_decomposition(
    problem: PdeProblem, grid: Grid = Grid(), tolerance: float = 0.005
) -> VerificationReport:
    """Solve the PDE, evaluate the oracle, and compare.

    Also isolates the tax component on the PDE side from the solution's
    untaxed surface, and checks the funding-condition residual of the
    reconstructed replication portfolio.
    """
    solution = solve_vhat(problem, grid)
    oracle = quadrature_oracle(problem)
    u_pde = solution.value_at_spot()
    denom = max(abs(oracle.total), 1e-8 * problem.spot)
    rel = abs(u_pde - oracle.total) / denom

    u_no_tax = solution.value_at_spot("untaxed") - solution.value_at_spot("risk_free")
    tax_pde = u_pde - u_no_tax
    tax_denom = max(abs(oracle.tva), 1e-8 * problem.spot)
    tax_rel = abs(tax_pde - oracle.tva) / tax_denom if oracle.tva != 0 or tax_pde != 0 else 0.0

    state = replication_state(problem, solution)
    residual = float(np.max(np.abs(state.funding_residual)))

    return VerificationReport(
        pde_adjustment=u_pde,
        oracle=oracle,
        abs_error=abs(u_pde - oracle.total),
        rel_error=rel,
        tax_pde=tax_pde,
        tax_rel_error=tax_rel,
        max_funding_residual=residual,
        tolerance=tolerance,
        solution=solution,
    )
