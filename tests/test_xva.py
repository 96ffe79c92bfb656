"""Adjustment integrals against closed-form constant-intensity oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from xvakit import (
    CreditCurve,
    DiscountCurve,
    ExposureProfile,
    HedgePolicy,
    TaxPolicy,
    XvaInputs,
    breakdown,
    colva,
    cva,
    dva,
    fca,
    kva,
    tva,
)
from xvakit.config import PRESETS
from xvakit.regcap import CapitalProfile
from xvakit.runner import run_config
from xvakit.xva import XvaSweep, _Quadrature, standard_errors

finite = dict(allow_nan=False, allow_infinity=False)


def flat_profile(grid, epe=0.0, ene=0.0):
    g = np.asarray(grid, dtype=float)
    z = np.zeros_like(g)
    e = np.full_like(g, float(epe))
    n = np.full_like(g, float(ene))
    return ExposureProfile(
        grid=g, epe=e, ene=n, mean_value=e + n,
        epe_undiscounted=e, mean_value_undiscounted=e + n,
        se_epe=z, se_ene=z, n_paths=0, seed=0,
    )


def flat_capital(grid, mr=0.0, ccr=0.0, ccr_hedged=None, cva_vol=0.0):
    g = np.asarray(grid, dtype=float)
    hedged = ccr if ccr_hedged is None else ccr_hedged
    return CapitalProfile(
        grid=g,
        k_mr=np.full_like(g, float(mr)),
        k_ccr=np.full_like(g, float(ccr)),
        k_ccr_hedged=np.full_like(g, float(hedged)),
        k_cva=np.full_like(g, float(cva_vol)),
    )


def make_inputs(
    grid,
    epe=0.0,
    ene=0.0,
    lambda_b=0.0,
    lambda_c=0.0,
    r_b=0.4,
    r_c=0.4,
    psi=1.0,
    xi=0.0,
    phi=0.0,
    gamma_e=0.0,
    gamma_k=0.10,
    rate=0.0,
    capital=None,
    collateral_spread=0.0,
    collateral=None,
    accruals_taxed=False,
    compensator_taxed=False,
):
    return XvaInputs(
        exposure=flat_profile(grid, epe, ene),
        issuer=CreditCurve.flat(lambda_b, r_b),
        counterparty=CreditCurve.flat(lambda_c, r_c),
        hedge=HedgePolicy(psi, xi, phi),
        tax=TaxPolicy(gamma_e, accruals_taxed, compensator_taxed),
        discount=DiscountCurve.flat(rate),
        cost_of_capital=gamma_k,
        notional=100.0,
        capital=capital,
        collateral_spread=collateral_spread,
        collateral=collateral,
    )


def decayed_integral(rate_factor, level, decay, horizon):
    """closed form of rate * level * integral exp(-decay u) du on [0, T]"""
    if decay == 0.0:
        return rate_factor * level * horizon
    return rate_factor * level * (1.0 - math.exp(-decay * horizon)) / decay


GRID_Q = np.linspace(0.0, 10.0, 41)
GRID_W = np.linspace(0.0, 10.0, 521)


class TestCva:
    def test_zero_exposure(self):
        assert cva(make_inputs(GRID_Q, epe=0.0, lambda_c=0.02)) == 0.0

    def test_flat_profile_closed_form(self):
        inputs = make_inputs(GRID_Q, epe=100.0, lambda_c=0.02)
        expected = -decayed_integral(0.6 * 0.02, 100.0, 0.02, 10.0)
        assert expected == pytest.approx(-10.876, abs=5e-3)
        assert cva(inputs) == pytest.approx(expected, rel=1e-3)

    def test_flat_profile_vs_adaptive_quadrature(self):
        inputs = make_inputs(GRID_Q, epe=100.0, lambda_c=0.03, lambda_b=0.0167, psi=0.4, xi=0.3)
        scale = 0.4 + 0.6 * 0.7
        lam_eff = scale * 0.03
        integrand = lambda u: lam_eff * math.exp(-(0.0167 + lam_eff) * u) * 100.0
        expected = -0.6 * quad(integrand, 0.0, 10.0)[0]
        assert cva(inputs) == pytest.approx(expected, rel=1e-3)

    def test_full_hedge_independent_of_price_of_risk(self):
        a = cva(make_inputs(GRID_Q, epe=50.0, lambda_c=0.04, psi=1.0, xi=0.9))
        b = cva(make_inputs(GRID_Q, epe=50.0, lambda_c=0.04, psi=1.0, xi=-0.9))
        assert a == b

    def test_positive_price_of_risk_shrinks_cva(self):
        hedged = cva(make_inputs(GRID_Q, epe=50.0, lambda_c=0.04, psi=1.0, xi=0.5))
        warehoused = cva(make_inputs(GRID_Q, epe=50.0, lambda_c=0.04, psi=0.0, xi=0.5))
        assert abs(warehoused) < abs(hedged)

    def test_increasing_with_counterparty_risk(self):
        spreads = (0.003, 0.0075, 0.025, 0.075)
        values = [
            abs(cva(make_inputs(GRID_Q, epe=50.0, lambda_c=s / 0.6, lambda_b=0.0167)))
            for s in spreads
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_grid_mismatch_rejected(self):
        capital = flat_capital(np.linspace(0.0, 10.0, 11), ccr=1.0)
        with pytest.raises(ValueError):
            make_inputs(GRID_Q, epe=1.0, capital=capital)


class TestDvaFca:
    def test_zero_profile(self):
        assert dva(make_inputs(GRID_Q, ene=0.0, lambda_b=0.0167)) == 0.0
        assert fca(make_inputs(GRID_Q, epe=0.0, lambda_b=0.0167)) == 0.0

    def test_flat_closed_forms(self):
        inputs = make_inputs(GRID_Q, epe=40.0, ene=-100.0, lambda_b=0.0167)
        expected_dva = decayed_integral(0.6 * 0.0167, 100.0, 0.0167, 10.0)
        expected_fca = -decayed_integral(0.6 * 0.0167, 40.0, 0.0167, 10.0)
        assert expected_dva == pytest.approx(9.228, abs=5e-3)
        assert dva(inputs) == pytest.approx(expected_dva, rel=1e-3)
        assert fca(inputs) == pytest.approx(expected_fca, rel=1e-3)

    def test_warehousing_price_of_risk_raises_dva_and_fca(self):
        base = make_inputs(GRID_Q, epe=40.0, ene=-100.0, lambda_b=0.0167, lambda_c=0.04, psi=0.0)
        bumped = make_inputs(
            GRID_Q, epe=40.0, ene=-100.0, lambda_b=0.0167, lambda_c=0.04, psi=0.0, xi=0.5
        )
        assert dva(bumped) > dva(base)
        assert abs(fca(bumped)) > abs(fca(base))


class TestColva:
    def test_no_collateral(self):
        assert colva(make_inputs(GRID_Q)) == 0.0

    def test_flat_spread_closed_form(self):
        collateral = np.full_like(GRID_Q, 100.0)
        inputs = make_inputs(GRID_Q, collateral_spread=0.001, collateral=collateral)
        assert colva(inputs) == pytest.approx(-1.0, rel=1e-12)

    def test_zero_spread(self):
        collateral = np.full_like(GRID_Q, 100.0)
        inputs = make_inputs(GRID_Q, collateral_spread=0.0, collateral=collateral)
        assert colva(inputs) == 0.0


class TestKva:
    def test_no_capital(self):
        total, parts = kva(make_inputs(GRID_Q))
        assert total == 0.0 and parts == (0.0, 0.0, 0.0)

    def test_fully_relieved_capital(self):
        capital = flat_capital(GRID_Q, ccr=0.0, cva_vol=50.0)
        total, _ = kva(make_inputs(GRID_Q, psi=1.0, capital=capital))
        assert total == 0.0

    def test_flat_capital_closed_form_no_discounting(self):
        capital = flat_capital(GRID_Q, ccr=100.0)
        total, parts = kva(make_inputs(GRID_Q, psi=0.0, capital=capital, rate=0.0))
        assert total == pytest.approx(-100.0, rel=1e-12)
        assert parts[1] == pytest.approx(-100.0, rel=1e-12)

    def test_flat_capital_with_hazards_and_rate(self):
        capital = flat_capital(GRID_Q, ccr=100.0)
        inputs = make_inputs(
            GRID_Q, psi=0.0, capital=capital, rate=0.02, lambda_b=0.0167, lambda_c=0.03
        )
        decay = 0.02 + 0.0167 + 0.03
        expected = -decayed_integral(0.10, 100.0, decay, 10.0)
        total, _ = kva(inputs)
        assert total == pytest.approx(expected, rel=1e-3)

    def test_capital_funding_reduces_cost(self):
        capital = flat_capital(GRID_Q, ccr=100.0)
        no_use = kva(make_inputs(GRID_Q, psi=0.0, phi=0.0, capital=capital, rate=0.02))[0]
        full_use = kva(make_inputs(GRID_Q, psi=0.0, phi=1.0, capital=capital, rate=0.02))[0]
        assert abs(full_use) < abs(no_use)

    def test_component_split(self):
        capital = flat_capital(GRID_Q, mr=10.0, ccr=20.0, ccr_hedged=12.0, cva_vol=30.0)
        total, (mr, ccr, cvav) = kva(make_inputs(GRID_Q, psi=0.5, capital=capital))
        assert total == mr + ccr + cvav
        assert mr < 0 and ccr < 0 and cvav < 0


class TestTva:
    def test_zero_tax_rate(self):
        capital = flat_capital(GRID_Q, ccr=100.0)
        assert tva(make_inputs(GRID_Q, capital=capital, gamma_e=0.0)) == 0.0

    def test_ratio_identity_full_hedge(self):
        capital = flat_capital(GRID_Q, mr=5.0, ccr=40.0, cva_vol=25.0)
        inputs = make_inputs(
            GRID_Q, epe=30.0, ene=-50.0, lambda_b=0.0167, lambda_c=0.03,
            psi=1.0, phi=0.0, gamma_e=0.21, capital=capital, rate=0.02,
        )
        kva_total, _ = kva(inputs)
        assert tva(inputs) == pytest.approx(0.21 * kva_total, rel=1e-13)

    def test_warehoused_credit_can_turn_positive(self):
        inputs = make_inputs(
            GRID_Q, epe=100.0, lambda_c=0.04, psi=0.0, xi=-0.5, gamma_e=0.21,
            capital=flat_capital(GRID_Q, ccr=1.0), rate=0.0,
        )
        assert tva(inputs) > 0.0

    def test_flat_closed_form_with_warehousing(self):
        capital = flat_capital(GRID_Q, ccr=80.0)
        inputs = make_inputs(
            GRID_Q, epe=60.0, lambda_b=0.0167, lambda_c=0.03, psi=0.0, xi=-0.5,
            gamma_e=0.21, capital=capital, rate=0.02,
        )
        lam_eff = 0.03 * 1.5
        decay = 0.0167 + lam_eff
        capital_term = -decayed_integral(0.21 * 0.10, 80.0, decay + 0.02, 10.0)
        credit_term = decayed_integral(0.21 * 0.03 * 0.6 * 1.5, 60.0, decay, 10.0)
        assert tva(inputs) == pytest.approx(capital_term + credit_term, rel=1e-3)

    def test_accrual_taxation_adds_cost(self):
        capital = flat_capital(GRID_Q, ccr=10.0)
        base = make_inputs(GRID_Q, epe=50.0, lambda_b=0.0167, gamma_e=0.21, capital=capital)
        taxed = make_inputs(
            GRID_Q, epe=50.0, lambda_b=0.0167, gamma_e=0.21, capital=capital,
            accruals_taxed=True,
        )
        assert tva(taxed) < tva(base)

    def test_compensator_taxation_reverses_credit(self):
        plain = make_inputs(
            GRID_Q, epe=100.0, lambda_c=0.04, psi=0.0, xi=-0.5, gamma_e=0.21,
        )
        taxed = make_inputs(
            GRID_Q, epe=100.0, lambda_c=0.04, psi=0.0, xi=-0.5, gamma_e=0.21,
            compensator_taxed=True,
        )
        assert tva(taxed) < tva(plain)


class TestBreakdown:
    def test_all_zero(self):
        result = breakdown(make_inputs(GRID_Q))
        assert result.total == 0.0
        assert result.as_bps()["total"] == 0.0

    def test_components_match_individual_calls(self):
        capital = flat_capital(GRID_Q, mr=2.0, ccr=30.0, ccr_hedged=18.0, cva_vol=20.0)
        inputs = make_inputs(
            GRID_Q, epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417,
            psi=0.4, xi=0.3, phi=0.6, gamma_e=0.21, capital=capital, rate=0.02,
        )
        result = breakdown(inputs)
        assert result.cva == cva(inputs)
        assert result.dva == dva(inputs)
        assert result.fca == fca(inputs)
        assert result.colva == colva(inputs)
        kva_total, parts = kva(inputs)
        assert (result.kva_mr, result.kva_ccr, result.kva_cva) == parts
        assert result.kva == kva_total
        assert result.tva == tva(inputs)

    def test_total_is_exact_sum(self):
        capital = flat_capital(GRID_Q, ccr=25.0, cva_vol=10.0)
        inputs = make_inputs(
            GRID_Q, epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417,
            psi=0.3, xi=-0.2, gamma_e=0.21, capital=capital, rate=0.02,
        )
        r = breakdown(inputs)
        assert r.total == (
            r.cva + r.dva + r.fca + r.colva + r.kva_mr + r.kva_ccr + r.kva_cva + r.tva
        )

    def test_full_hedge_breakdown_independent_of_price_of_risk(self):
        capital = flat_capital(GRID_Q, ccr=25.0, cva_vol=10.0)
        kwargs = dict(
            epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417,
            psi=1.0, gamma_e=0.21, capital=capital, rate=0.02,
        )
        a = breakdown(make_inputs(GRID_Q, xi=0.8, **kwargs))
        b = breakdown(make_inputs(GRID_Q, xi=-0.8, **kwargs))
        assert a == b

    def test_zero_price_of_risk_decouples_credit_terms_from_hedge(self):
        kwargs = dict(epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417, xi=0.0,
                      gamma_e=0.21, rate=0.02,
                      capital=flat_capital(GRID_Q, ccr=25.0, ccr_hedged=10.0, cva_vol=10.0))
        a = breakdown(make_inputs(GRID_Q, psi=0.0, **kwargs))
        b = breakdown(make_inputs(GRID_Q, psi=1.0, **kwargs))
        assert a.cva == b.cva and a.dva == b.dva and a.fca == b.fca
        assert a.kva != b.kva  # capital relief still depends on the hedge

    def test_bps_conversion(self):
        inputs = make_inputs(GRID_Q, epe=100.0, lambda_c=0.02)
        result = breakdown(inputs)
        assert result.as_bps()["cva"] == pytest.approx(result.cva / 100.0 * 1e4)

    @given(
        epe=st.floats(0, 500, **finite),
        ene=st.floats(-500, 0, **finite),
        lam_b=st.floats(0, 0.1, **finite),
        lam_c=st.floats(0, 0.3, **finite),
        psi=st.floats(0, 1, **finite),
        xi=st.floats(-1, 1, **finite),
        phi=st.floats(0, 1, **finite),
    )
    @settings(max_examples=60, deadline=None)
    def test_sign_invariants(self, epe, ene, lam_b, lam_c, psi, xi, phi):
        grid = np.linspace(0.0, 5.0, 11)
        capital = flat_capital(grid, ccr=30.0, cva_vol=10.0)
        inputs = make_inputs(
            grid, epe=epe, ene=ene, lambda_b=lam_b, lambda_c=lam_c,
            psi=psi, xi=xi, phi=phi, gamma_e=0.21, capital=capital, rate=0.0,
        )
        result = breakdown(inputs)
        assert result.cva <= 0.0
        assert result.dva >= 0.0
        assert result.fca <= 0.0
        # cost of capital exceeds the funding benefit (rate is zero here)
        assert result.kva <= 0.0
        assert result.total == pytest.approx(
            result.cva + result.dva + result.fca + result.colva + result.kva + result.tva,
            rel=1e-12, abs=1e-12,
        )


class TestGeneralFormReduction:
    """The profile integrals are the no-shortfall reduction of the general
    decomposition; both routes must price the same toy problem alike."""

    def test_profiles_built_from_the_density_match_the_oracle(self):
        from xvakit import PdeProblem, density_expectations, quadrature_oracle

        problem = PdeProblem(
            spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
            issuer_hazard=0.0167, counterparty_hazard=0.04,
            issuer_recovery=0.4, counterparty_recovery=0.4,
            hedge_fraction=0.25, price_of_risk=0.3,
            capital_funding_fraction=0.5, cost_of_capital=0.10,
            tax_rate=0.21, collateral_spread=0.002, collateral_fraction=0.2,
            capital_factor=0.4, capital_relief_factor=0.25,
        )
        grid = np.linspace(0.0, problem.maturity, 1001)
        e_pos, e_neg, e_val = density_expectations(problem, grid)
        df = np.exp(-problem.rate * grid)

        z = np.zeros_like(grid)
        profile = ExposureProfile(
            grid, df * e_pos, df * e_neg, df * (e_pos + e_neg),
            e_pos, e_val, z, z, n_paths=0, seed=0,
        )
        capital = CapitalProfile(
            grid,
            k_mr=z,
            k_ccr=problem.capital_factor * e_pos,
            k_ccr_hedged=(problem.capital_factor - problem.capital_relief_factor) * e_pos,
            k_cva=z,
        )
        inputs = XvaInputs(
            exposure=profile,
            issuer=CreditCurve.flat(problem.issuer_hazard, problem.issuer_recovery),
            counterparty=CreditCurve.flat(
                problem.counterparty_hazard, problem.counterparty_recovery
            ),
            hedge=HedgePolicy(problem.hedge_fraction, problem.price_of_risk,
                              problem.capital_funding_fraction),
            tax=TaxPolicy(problem.tax_rate),
            discount=DiscountCurve.flat(problem.rate),
            cost_of_capital=problem.cost_of_capital,
            notional=100.0,
            capital=capital,
            collateral_spread=problem.collateral_spread,
            collateral=df * problem.collateral_fraction * e_val,
        )
        oracle = quadrature_oracle(problem)
        assert cva(inputs) == pytest.approx(oracle.cva, rel=1e-5)
        assert dva(inputs) == pytest.approx(oracle.dva, rel=1e-5, abs=1e-12)
        assert fca(inputs) == pytest.approx(oracle.fca, rel=1e-5)
        assert colva(inputs) == pytest.approx(oracle.colva, rel=1e-5)
        assert kva(inputs)[0] == pytest.approx(oracle.kva, rel=1e-5)
        assert tva(inputs) == pytest.approx(oracle.tva, rel=1e-5)


class TestQuadratureAccuracy:
    def test_halving_step_improves_by_order_two(self):
        exact = -decayed_integral(0.6 * 0.03, 100.0, 0.03 + 0.0167, 10.0)
        errors = []
        for n in (21, 41, 81):
            grid = np.linspace(0.0, 10.0, n)
            value = cva(make_inputs(grid, epe=100.0, lambda_c=0.03, lambda_b=0.0167))
            errors.append(abs(value - exact))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.25)

    def test_weekly_grid_tightens_tolerance(self):
        exact = -decayed_integral(0.6 * 0.03, 100.0, 0.03 + 0.0167, 10.0)
        quarterly = cva(make_inputs(GRID_Q, epe=100.0, lambda_c=0.03, lambda_b=0.0167))
        weekly = cva(make_inputs(GRID_W, epe=100.0, lambda_c=0.03, lambda_b=0.0167))
        assert quarterly == pytest.approx(exact, rel=1e-3)
        assert weekly == pytest.approx(exact, rel=1e-4)


# Fixtures of the tests above, each a row of a sweep in the next class.
SWEEP_FIXTURES = {
    "breakdown": make_inputs(
        GRID_Q, epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417, psi=0.4, xi=0.3, phi=0.6,
        gamma_e=0.21, rate=0.02,
        capital=flat_capital(GRID_Q, mr=2.0, ccr=30.0, ccr_hedged=18.0, cva_vol=20.0)),
    "tva-warehoused": make_inputs(
        GRID_Q, epe=60.0, lambda_b=0.0167, lambda_c=0.03, psi=0.0, xi=-0.5, gamma_e=0.21,
        capital=flat_capital(GRID_Q, ccr=80.0), rate=0.02),
    "accruals-taxed": make_inputs(
        GRID_Q, epe=50.0, lambda_b=0.0167, gamma_e=0.21, capital=flat_capital(GRID_Q, ccr=10.0),
        accruals_taxed=True),
    "compensator-taxed": make_inputs(
        GRID_Q, epe=100.0, lambda_c=0.04, psi=0.0, xi=-0.5, gamma_e=0.21, compensator_taxed=True),
    "collateral": make_inputs(GRID_Q, epe=30.0, lambda_c=0.02, collateral_spread=0.001,
                              collateral=np.full_like(GRID_Q, 100.0)),
}


class TestSweep:
    @pytest.mark.parametrize("name", sorted(SWEEP_FIXTURES))
    def test_one_row_views_equal_their_row_of_the_sweep(self, name):
        inputs = SWEEP_FIXTURES[name]
        other = (CreditCurve.flat(0.05, 0.25),
                 flat_capital(GRID_Q, mr=1.0, ccr=12.0, ccr_hedged=4.0, cva_vol=9.0))
        h = inputs.hedge
        psi = [h.hedge_fraction, 0.0, 1.0, 0.5, 0.25]
        xi = [h.price_of_risk, -0.5, 0.9, 0.5, 1.0]
        phi = [h.capital_funding_fraction, 1.0, 0.0, 0.3, 0.7]
        party = [0, 1, 0, 1, 1]
        parties = ((inputs.counterparty, inputs.capital), other)
        sweep = breakdown(XvaSweep(inputs, parties, np.array(party), np.array(psi),
                                   np.array(xi), np.array(phi)))
        assert len(sweep) == len(party)
        for i, row in enumerate(sweep):
            counterparty, capital = parties[party[i]]
            one = replace(inputs, counterparty=counterparty, capital=capital,
                          hedge=HedgePolicy(psi[i], xi[i], phi[i]))
            assert row == breakdown(one)
            assert (row.cva, row.dva, row.fca, row.colva, row.tva) == (
                cva(one), dva(one), fca(one), colva(one), tva(one))
            assert (row.kva, (row.kva_mr, row.kva_ccr, row.kva_cva)) == kva(one)
            assert row.se == standard_errors(one)

    def test_sweep_rejects_out_of_range_dials(self):
        inputs = SWEEP_FIXTURES["breakdown"]
        parties = ((inputs.counterparty, inputs.capital),)
        one = np.zeros(1, dtype=int)
        for psi, xi, phi in ((1.5, 0.0, 0.0), (0.5, 1.5, 0.0), (0.5, 0.0, -0.1)):
            with pytest.raises(ValueError):
                XvaSweep(inputs, parties, one, np.array([psi]), np.array([xi]), np.array([phi]))
        with pytest.raises(ValueError):
            XvaSweep(inputs, parties, one, np.zeros(2), np.zeros(1), np.zeros(1))

    def test_one_quadrature_per_run_whatever_the_row_count(self, monkeypatch):
        built = []
        init = _Quadrature.__init__

        def counted(self, sweep):
            built.append(len(sweep.psi))
            init(self, sweep)

        monkeypatch.setattr(_Quadrature, "__init__", counted)
        one = replace(PRESETS["warehouse-neg"](), ratings=("BB",), phi_values=(0.0,), paths=1000)
        many = replace(one, ratings=("AAA", "A", "BB", "CCC"), psi_values=(0.0, 0.5, 1.0),
                       xi_values=(-0.5, 0.5), phi_values=(0.0, 1.0))
        assert len(run_config(one).rows) == 1 and built == [1]
        assert len(run_config(many).rows) == 48 and built == [1, 48]
