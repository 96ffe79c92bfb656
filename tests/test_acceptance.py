"""End-to-end acceptance checks for the whole engine.

Each test exercises one exit criterion at its stated tolerance and prints a
single pass/fail line (run with ``pytest tests/test_acceptance.py -v -s`` to
see them all).  The preset runs reuse one run per preset.
"""

import math
import time
import numpy as np
import pytest

from pathsim import forward_mean, simulate_paths
from xvakit import (
    CreditCurve,
    DiscountCurve,
    ExposureProfile,
    Grid,
    PdeProblem,
    ShortRateModel,
    SwapSpec,
    TaxPolicy,
    XvaInputs,
    breakdown,
    effective_hazard,
    exposure_profile,
    make_exposure_grid,
    portfolio_value,
    quadrature_oracle,
    solve_vhat,
    verify_decomposition,
)
from xvakit.config import load_config
from xvakit.regcap import CapitalBase, CapitalProfile
from xvakit.runner import run_config

VERIFY_PROBLEM = PdeProblem(
    spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
    issuer_hazard=0.0167, counterparty_hazard=0.04,
    hedge_fraction=0.25, price_of_risk=0.3,
    capital_funding_fraction=0.5, cost_of_capital=0.10,
    tax_rate=0.21, collateral_spread=0.002, collateral_fraction=0.2,
    capital_factor=0.4, capital_relief_factor=0.25,
)


def report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number}] {status}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def preset_runs():
    results = {}
    elapsed = {}
    for name in ("base-case", "warehouse-pos", "warehouse-neg"):
        start = time.perf_counter()
        results[name] = run_config(load_config(name))
        elapsed[name] = time.perf_counter() - start
    return results, elapsed


def test_criterion_1_effective_hazard_limits():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    lam = rng.uniform(0.0, 0.5, 10_000)
    xi = rng.uniform(-1.0, 1.0, 10_000)
    full = effective_hazard(lam, 1.0, xi)
    none = effective_hazard(lam, 0.0, xi)
    ok = bool(np.array_equal(full, lam) and np.array_equal(none, lam * (1.0 - xi)))
    elapsed = time.perf_counter() - start
    report(1, "effective-hazard limits bit-exact on 10^4 random pairs", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")


def test_criterion_2_tax_capital_ratio_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    grid = np.linspace(0.0, 10.0, 41)
    worst = 0.0
    for _ in range(100):
        z = np.zeros_like(grid)
        epe = rng.uniform(0.0, 5.0, grid.shape)
        ene = -rng.uniform(0.0, 5.0, grid.shape)
        profile = ExposureProfile(grid=grid, epe=epe, forward=epe + ene,
                                  mean_value_undiscounted=epe + ene, collateral=z)
        base = CapitalBase(
            grid,
            ead=rng.uniform(0.0, 30.0, grid.shape),
            duration=rng.uniform(0.0, 10.0, grid.shape),
            k_mr=rng.uniform(0.0, 1.0, grid.shape),
        )
        charges = CapitalProfile(*rng.uniform(0.0, 0.1, 3))
        gamma_e = rng.uniform(0.05, 0.5)
        inputs = XvaInputs(
            exposure=profile,
            capital=base,
            issuer=CreditCurve(rng.uniform(0.0, 0.05), 0.4),
            parties=((CreditCurve(rng.uniform(0.0, 0.2), 0.4), charges),),
            party=np.zeros(1, dtype=int),
            psi=np.ones(1),
            xi=np.array([rng.uniform(-1.0, 1.0)]),
            phi=np.zeros(1),
            tax=TaxPolicy(gamma_e),
            discount=DiscountCurve((50.0,), (rng.uniform(0.0, 0.05),)),
            cost_of_capital=rng.uniform(0.05, 0.2),
            notional=100.0,
        )
        result = breakdown(inputs)
        kva_total, tax = result.kva[0], result.tva[0]
        if kva_total != 0.0:
            worst = max(worst, abs(tax - gamma_e * kva_total) / abs(gamma_e * kva_total))
    elapsed = time.perf_counter() - start
    report(2, "tax equals tax-rate times capital cost under a full hedge",
           worst <= 1e-12 and elapsed < 5.0,
           f"max rel dev {worst:.2e}, {elapsed:.2f}s")


def by_phi(result, phi=0.0):
    """Rating -> the run's bp columns at capital-funding share ``phi``."""
    bps = result.breakdown.as_bps()
    return {key[4]: {name: column[i] for name, column in bps.items()}
            for i, key in enumerate(result.rows) if key[3] == phi}


def test_criterion_3_base_case_structure(preset_runs):
    preset_results, elapsed_by_preset = preset_runs
    result = preset_results["base-case"]
    xva = result.breakdown
    checks = [len(result.rows) == 8]
    checks.append(bool(np.all(xva.kva_mr == 0.0)))
    checks.append(bool(np.all(xva.kva_cva == 0.0)))
    checks.append(bool(np.all(np.abs(xva.bps(xva.tva)) <= 2.0)))
    for phi in (0.0, 1.0):
        rows = by_phi(result, phi)
        cva_by_rating = [abs(row["cva"]) for row in rows.values()]
        checks.append(all(a < b for a, b in zip(cva_by_rating, cva_by_rating[1:])))
        checks.append(rows["AAA"]["total"] > 0.0)
        checks.append(rows["CCC"]["total"] < 0.0)
    elapsed = elapsed_by_preset["base-case"]
    report(3, "base-case: no MR or CVA-vol capital cost, small tax, CVA ordering, "
              "total flips sign with riskiness",
           all(checks) and elapsed < 60.0, f"run took {elapsed:.2f}s")


def test_criterion_4_warehousing_direction(preset_runs):
    preset_results, elapsed_by_preset = preset_runs

    def cva_map(result):
        return {rating: abs(row["cva"]) for rating, row in by_phi(result).items()}

    base = cva_map(preset_results["base-case"])
    pos = cva_map(preset_results["warehouse-pos"])
    neg = cva_map(preset_results["warehouse-neg"])
    checks = [all(pos[k] < base[k] for k in base)]
    checks.append(all(neg[k] > base[k] for k in base))
    for name in ("warehouse-pos", "warehouse-neg"):
        checks.append(bool(np.all(preset_results[name].breakdown.kva_cva < 0.0)))
    elapsed = elapsed_by_preset["warehouse-pos"] + elapsed_by_preset["warehouse-neg"]
    report(4, "positive price of risk shrinks CVA, negative grows it, and "
              "warehousing re-awakens CVA-vol capital",
           all(checks) and elapsed < 120.0, f"runs took {elapsed:.2f}s")


def test_criterion_5_positive_tax_adjustment_exists(preset_runs):
    result = preset_runs[0]["warehouse-neg"]
    xva = result.breakdown
    found = int(np.count_nonzero((xva.tva > 0.0) & (xva.kva < 0.0)))
    report(5, "warehoused negative price of risk can make the tax adjustment "
              "positive while capital cost stays negative",
           found > 0,
           f"{found} of {len(result.rows)} rows")


def test_criterion_6_constant_intensity_closed_forms():
    start = time.perf_counter()

    def run_case(grid):
        lam_b, lam_c = 0.0167, 0.03
        psi, xi, phi = 0.25, -0.4, 0.5
        rate, gamma_k, gamma_e, s_x = 0.02, 0.10, 0.21, 0.001
        epe, ene, coll, k_flat = 60.0, -90.0, 40.0, 80.0
        scale = psi + (1 - psi) * (1 - xi)
        lam_eff = scale * lam_c
        decay = lam_b + lam_eff

        def integral(a):
            return (1.0 - math.exp(-a * 10.0)) / a

        z = np.zeros_like(grid)
        profile = ExposureProfile(
            grid=grid, epe=np.full_like(grid, epe), forward=np.full_like(grid, epe + ene),
            mean_value_undiscounted=np.full_like(grid, epe + ene),
            collateral=np.full_like(grid, coll),
        )
        inputs = XvaInputs(
            exposure=profile,
            # unit EAD and duration: the charges are the flat capital profiles
            capital=CapitalBase(grid, ead=np.ones_like(grid), duration=np.ones_like(grid), k_mr=z),
            issuer=CreditCurve(lam_b, 0.4),
            parties=((CreditCurve(lam_c, 0.4),
                      CapitalProfile(k_flat, 0.25 * k_flat, 0.5 * k_flat)),),
            party=np.zeros(1, dtype=int),
            psi=np.array([psi]),
            xi=np.array([xi]),
            phi=np.array([phi]),
            tax=TaxPolicy(gamma_e),
            discount=DiscountCurve((50.0,), (rate,)),
            cost_of_capital=gamma_k,
            notional=100.0,
            collateral_spread=s_x,
        )
        result = breakdown(inputs)
        ccr_net = k_flat - psi * (k_flat - 0.25 * k_flat)
        cva_net = (1 - psi) * 0.5 * k_flat
        expected = {
            "cva": -0.6 * lam_eff * epe * integral(decay),
            "dva": -0.6 * lam_b * ene * integral(decay),
            "fca": -0.6 * lam_b * epe * integral(decay),
            "colva": -s_x * coll * integral(decay),
            "kva": -(gamma_k - rate * phi) * (ccr_net + cva_net) * integral(decay + rate),
            "tva": (
                -gamma_e * gamma_k * (ccr_net + cva_net) * integral(decay + rate)
                + gamma_e * lam_c * 0.6 * (1 - xi) * (1 - psi) * epe * integral(decay)
            ),
        }
        actual = {
            "cva": result.cva[0], "dva": result.dva[0], "fca": result.fca[0],
            "colva": result.colva[0], "kva": result.kva[0], "tva": result.tva[0],
        }
        return {
            name: abs(actual[name] - expected[name]) / abs(expected[name])
            for name in expected
        }

    quarterly = run_case(np.linspace(0.0, 10.0, 41))
    weekly = run_case(np.linspace(0.0, 10.0, 521))
    worst_q = max(quarterly.values())
    worst_w = max(weekly.values())
    elapsed = time.perf_counter() - start
    report(6, "flat-profile adjustments match constant-intensity closed forms",
           worst_q <= 1e-3 and worst_w <= 1e-4 and elapsed < 10.0,
           f"quarterly {worst_q:.2e} (tol 1e-3), weekly {worst_w:.2e} (tol 1e-4), {elapsed:.1f}s")


def test_criterion_7_pde_against_quadrature():
    start = time.perf_counter()
    verification = verify_decomposition(VERIFY_PROBLEM, Grid(400, 400), tolerance=5e-3)
    oracle = quadrature_oracle(VERIFY_PROBLEM).total[0]
    errors = [
        abs(solve_vhat(VERIFY_PROBLEM, Grid(n, n)).value_at_spot() - oracle)
        for n in (100, 200, 400)
    ]
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    ok = (
        verification.passed
        and verification.rel_error <= 5e-3
        and verification.tax_rel_error <= 5e-3
        and min(orders) >= 1.8
    )
    elapsed = time.perf_counter() - start
    report(7, "finite-difference adjustment matches the quadrature decomposition",
           ok and elapsed < 120.0,
           f"rel {verification.rel_error:.2e}, tax rel {verification.tax_rel_error:.2e}, "
           f"orders {orders[0]:.2f}/{orders[1]:.2f}, {elapsed:.1f}s")


def test_criterion_8_monte_carlo_integrity():
    start = time.perf_counter()
    curve = DiscountCurve((50.0,), (0.02,))
    model = ShortRateModel(0.05, 0.011)
    template = SwapSpec(notional=100.0, fixed_rate=0.02, maturity=10.0)
    par_rate = (1.0 - curve.df(10.0)) / (np.sum(curve.df(template.payment_times())) / 2)
    swap = SwapSpec(notional=100.0, fixed_rate=float(par_rate), maturity=10.0)
    grid = make_exposure_grid(10.0)

    profile = exposure_profile((swap,), model, curve, grid)
    # The reset-at-valuation float-leg convention is exact at t=0 and on
    # payment dates; the discounted mean, EPE plus ENE, must vanish there.
    on_schedule = np.isin(np.round(grid, 9), np.round(swap.payment_times(), 9))
    on_schedule[0] = True
    par_ok = bool(np.all(np.abs(profile.forward)[on_schedule] <= 1e-9 * swap.notional))

    paths = simulate_paths(model, curve, grid[:9], 2000, seed=42)
    k = 5
    # The discounted value, priced under the t-forward measure: P(0, t) f(x_t + m_t).
    dv = curve.df(grid[k]) * portfolio_value((swap,), model, curve, float(grid[k]),
                                             paths.factor[:, k] + forward_mean(model, grid[k]))
    identity_ok = bool(np.array_equal(np.maximum(dv, 0.0) + np.minimum(dv, 0.0), dv))
    elapsed = time.perf_counter() - start
    report(8, "par swap discounted mean zero on its schedule, exact sign-split identity",
           par_ok and identity_ok and elapsed < 120.0, f"{elapsed:.1f}s")
