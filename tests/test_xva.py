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
    TaxPolicy,
    XvaInputs,
    breakdown,
)
from xvakit.config import PRESETS
from xvakit.regcap import CapitalProfile
from xvakit.runner import run_config
from xvakit.xva import _Quadrature

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
    """A one-row sweep."""
    return XvaInputs(
        exposure=flat_profile(grid, epe, ene),
        issuer=CreditCurve.flat(lambda_b, r_b),
        parties=((CreditCurve.flat(lambda_c, r_c), capital),),
        party=np.zeros(1, dtype=int),
        psi=np.array([psi]),
        xi=np.array([xi]),
        phi=np.array([phi]),
        tax=TaxPolicy(gamma_e, accruals_taxed, compensator_taxed),
        discount=DiscountCurve.flat(rate),
        cost_of_capital=gamma_k,
        notional=100.0,
        collateral_spread=collateral_spread,
        collateral=collateral,
    )


def kva_split(inputs):
    """Total KVA of a one-row sweep and its (MR, CCR, CVA-vol) parts."""
    b = breakdown(inputs)
    return b.kva[0], (b.kva_mr[0], b.kva_ccr[0], b.kva_cva[0])


def columns(result):
    """A breakdown's eight components and four standard errors, ``(12, rows)``."""
    return np.vstack([result.cva, result.dva, result.fca, result.colva, result.kva_mr,
                      result.kva_ccr, result.kva_cva, result.tva, result.se])


def decayed_integral(rate_factor, level, decay, horizon):
    """closed form of rate * level * integral exp(-decay u) du on [0, T]"""
    if decay == 0.0:
        return rate_factor * level * horizon
    return rate_factor * level * (1.0 - math.exp(-decay * horizon)) / decay


GRID_Q = np.linspace(0.0, 10.0, 41)
GRID_W = np.linspace(0.0, 10.0, 521)


class TestCva:
    def test_zero_exposure(self):
        assert breakdown(make_inputs(GRID_Q, epe=0.0, lambda_c=0.02)).cva[0] == 0.0

    def test_flat_profile_closed_form(self):
        inputs = make_inputs(GRID_Q, epe=100.0, lambda_c=0.02)
        expected = -decayed_integral(0.6 * 0.02, 100.0, 0.02, 10.0)
        assert expected == pytest.approx(-10.876, abs=5e-3)
        assert breakdown(inputs).cva[0] == pytest.approx(expected, rel=1e-3)

    def test_flat_profile_vs_adaptive_quadrature(self):
        inputs = make_inputs(GRID_Q, epe=100.0, lambda_c=0.03, lambda_b=0.0167, psi=0.4, xi=0.3)
        scale = 0.4 + 0.6 * 0.7
        lam_eff = scale * 0.03
        integrand = lambda u: lam_eff * math.exp(-(0.0167 + lam_eff) * u) * 100.0
        expected = -0.6 * quad(integrand, 0.0, 10.0)[0]
        assert breakdown(inputs).cva[0] == pytest.approx(expected, rel=1e-3)

    def test_full_hedge_independent_of_price_of_risk(self):
        a = breakdown(make_inputs(GRID_Q, epe=50.0, lambda_c=0.04, psi=1.0, xi=0.9)).cva[0]
        b = breakdown(make_inputs(GRID_Q, epe=50.0, lambda_c=0.04, psi=1.0, xi=-0.9)).cva[0]
        assert a == b

    def test_positive_price_of_risk_shrinks_cva(self):
        hedged = breakdown(make_inputs(GRID_Q, epe=50.0, lambda_c=0.04, psi=1.0, xi=0.5)).cva[0]
        warehoused = breakdown(
            make_inputs(GRID_Q, epe=50.0, lambda_c=0.04, psi=0.0, xi=0.5)).cva[0]
        assert abs(warehoused) < abs(hedged)

    def test_increasing_with_counterparty_risk(self):
        spreads = (0.003, 0.0075, 0.025, 0.075)
        values = [
            abs(breakdown(make_inputs(GRID_Q, epe=50.0, lambda_c=s / 0.6, lambda_b=0.0167)).cva[0])
            for s in spreads
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_grid_mismatch_rejected(self):
        capital = flat_capital(np.linspace(0.0, 10.0, 11), ccr=1.0)
        with pytest.raises(ValueError):
            make_inputs(GRID_Q, epe=1.0, capital=capital)


class TestDvaFca:
    def test_zero_profile(self):
        assert breakdown(make_inputs(GRID_Q, ene=0.0, lambda_b=0.0167)).dva[0] == 0.0
        assert breakdown(make_inputs(GRID_Q, epe=0.0, lambda_b=0.0167)).fca[0] == 0.0

    def test_flat_closed_forms(self):
        inputs = make_inputs(GRID_Q, epe=40.0, ene=-100.0, lambda_b=0.0167)
        expected_dva = decayed_integral(0.6 * 0.0167, 100.0, 0.0167, 10.0)
        expected_fca = -decayed_integral(0.6 * 0.0167, 40.0, 0.0167, 10.0)
        assert expected_dva == pytest.approx(9.228, abs=5e-3)
        assert breakdown(inputs).dva[0] == pytest.approx(expected_dva, rel=1e-3)
        assert breakdown(inputs).fca[0] == pytest.approx(expected_fca, rel=1e-3)

    def test_warehousing_price_of_risk_raises_dva_and_fca(self):
        base = make_inputs(GRID_Q, epe=40.0, ene=-100.0, lambda_b=0.0167, lambda_c=0.04, psi=0.0)
        bumped = make_inputs(
            GRID_Q, epe=40.0, ene=-100.0, lambda_b=0.0167, lambda_c=0.04, psi=0.0, xi=0.5
        )
        assert breakdown(bumped).dva[0] > breakdown(base).dva[0]
        assert abs(breakdown(bumped).fca[0]) > abs(breakdown(base).fca[0])


class TestColva:
    def test_no_collateral(self):
        assert breakdown(make_inputs(GRID_Q)).colva[0] == 0.0

    def test_flat_spread_closed_form(self):
        collateral = np.full_like(GRID_Q, 100.0)
        inputs = make_inputs(GRID_Q, collateral_spread=0.001, collateral=collateral)
        assert breakdown(inputs).colva[0] == pytest.approx(-1.0, rel=1e-12)

    def test_zero_spread(self):
        collateral = np.full_like(GRID_Q, 100.0)
        inputs = make_inputs(GRID_Q, collateral_spread=0.0, collateral=collateral)
        assert breakdown(inputs).colva[0] == 0.0


class TestKva:
    def test_no_capital(self):
        total, parts = kva_split(make_inputs(GRID_Q))
        assert total == 0.0 and parts == (0.0, 0.0, 0.0)

    def test_fully_relieved_capital(self):
        capital = flat_capital(GRID_Q, ccr=0.0, cva_vol=50.0)
        total, _ = kva_split(make_inputs(GRID_Q, psi=1.0, capital=capital))
        assert total == 0.0

    def test_flat_capital_closed_form_no_discounting(self):
        capital = flat_capital(GRID_Q, ccr=100.0)
        total, parts = kva_split(make_inputs(GRID_Q, psi=0.0, capital=capital, rate=0.0))
        assert total == pytest.approx(-100.0, rel=1e-12)
        assert parts[1] == pytest.approx(-100.0, rel=1e-12)

    def test_flat_capital_with_hazards_and_rate(self):
        capital = flat_capital(GRID_Q, ccr=100.0)
        inputs = make_inputs(
            GRID_Q, psi=0.0, capital=capital, rate=0.02, lambda_b=0.0167, lambda_c=0.03
        )
        decay = 0.02 + 0.0167 + 0.03
        expected = -decayed_integral(0.10, 100.0, decay, 10.0)
        total, _ = kva_split(inputs)
        assert total == pytest.approx(expected, rel=1e-3)

    def test_capital_funding_reduces_cost(self):
        capital = flat_capital(GRID_Q, ccr=100.0)
        no_use = kva_split(make_inputs(GRID_Q, psi=0.0, phi=0.0, capital=capital, rate=0.02))[0]
        full_use = kva_split(make_inputs(GRID_Q, psi=0.0, phi=1.0, capital=capital, rate=0.02))[0]
        assert abs(full_use) < abs(no_use)

    def test_component_split(self):
        capital = flat_capital(GRID_Q, mr=10.0, ccr=20.0, ccr_hedged=12.0, cva_vol=30.0)
        total, (mr, ccr, cvav) = kva_split(make_inputs(GRID_Q, psi=0.5, capital=capital))
        assert total == mr + ccr + cvav
        assert mr < 0 and ccr < 0 and cvav < 0


class TestTva:
    def test_zero_tax_rate(self):
        capital = flat_capital(GRID_Q, ccr=100.0)
        assert breakdown(make_inputs(GRID_Q, capital=capital, gamma_e=0.0)).tva[0] == 0.0

    def test_ratio_identity_full_hedge(self):
        capital = flat_capital(GRID_Q, mr=5.0, ccr=40.0, cva_vol=25.0)
        inputs = make_inputs(
            GRID_Q, epe=30.0, ene=-50.0, lambda_b=0.0167, lambda_c=0.03,
            psi=1.0, phi=0.0, gamma_e=0.21, capital=capital, rate=0.02,
        )
        kva_total, _ = kva_split(inputs)
        assert breakdown(inputs).tva[0] == pytest.approx(0.21 * kva_total, rel=1e-13)

    def test_warehoused_credit_can_turn_positive(self):
        inputs = make_inputs(
            GRID_Q, epe=100.0, lambda_c=0.04, psi=0.0, xi=-0.5, gamma_e=0.21,
            capital=flat_capital(GRID_Q, ccr=1.0), rate=0.0,
        )
        assert breakdown(inputs).tva[0] > 0.0

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
        assert breakdown(inputs).tva[0] == pytest.approx(capital_term + credit_term, rel=1e-3)

    def test_accrual_taxation_adds_cost(self):
        capital = flat_capital(GRID_Q, ccr=10.0)
        base = make_inputs(GRID_Q, epe=50.0, lambda_b=0.0167, gamma_e=0.21, capital=capital)
        taxed = make_inputs(
            GRID_Q, epe=50.0, lambda_b=0.0167, gamma_e=0.21, capital=capital,
            accruals_taxed=True,
        )
        assert breakdown(taxed).tva[0] < breakdown(base).tva[0]

    def test_compensator_taxation_reverses_credit(self):
        plain = make_inputs(
            GRID_Q, epe=100.0, lambda_c=0.04, psi=0.0, xi=-0.5, gamma_e=0.21,
        )
        taxed = make_inputs(
            GRID_Q, epe=100.0, lambda_c=0.04, psi=0.0, xi=-0.5, gamma_e=0.21,
            compensator_taxed=True,
        )
        assert breakdown(taxed).tva[0] < breakdown(plain).tva[0]


class TestBreakdown:
    def test_all_zero(self):
        result = breakdown(make_inputs(GRID_Q))
        assert result.total[0] == 0.0
        assert result.as_bps()["total"][0] == 0.0

    def test_components_match_individual_calls(self):
        """Each field of the breakdown is its own component of the quadrature."""
        capital = flat_capital(GRID_Q, mr=2.0, ccr=30.0, ccr_hedged=18.0, cva_vol=20.0)
        inputs = make_inputs(
            GRID_Q, epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417,
            psi=0.4, xi=0.3, phi=0.6, gamma_e=0.21, capital=capital, rate=0.02,
        )
        result = breakdown(inputs)
        q = _Quadrature(inputs)
        for name in ("cva", "dva", "fca", "colva", "tva"):
            assert np.array_equal(getattr(result, name), getattr(q, name)()), name
        assert np.array_equal([result.kva_mr, result.kva_ccr, result.kva_cva], q.kva())
        assert np.array_equal(result.se, q.errors())
        assert result.se.shape == (4, 1)
        assert len({result.cva[0], result.dva[0], result.fca[0], result.tva[0]}) == 4

    def test_total_is_exact_sum(self):
        capital = flat_capital(GRID_Q, ccr=25.0, cva_vol=10.0)
        inputs = make_inputs(
            GRID_Q, epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417,
            psi=0.3, xi=-0.2, gamma_e=0.21, capital=capital, rate=0.02,
        )
        r = breakdown(inputs)
        assert r.total[0] == (
            r.cva[0] + r.dva[0] + r.fca[0] + r.colva[0]
            + r.kva_mr[0] + r.kva_ccr[0] + r.kva_cva[0] + r.tva[0]
        )

    def test_full_hedge_breakdown_independent_of_price_of_risk(self):
        capital = flat_capital(GRID_Q, ccr=25.0, cva_vol=10.0)
        kwargs = dict(
            epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417,
            psi=1.0, gamma_e=0.21, capital=capital, rate=0.02,
        )
        a = breakdown(make_inputs(GRID_Q, xi=0.8, **kwargs))
        b = breakdown(make_inputs(GRID_Q, xi=-0.8, **kwargs))
        assert np.array_equal(columns(a), columns(b))

    def test_zero_price_of_risk_decouples_credit_terms_from_hedge(self):
        kwargs = dict(epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417, xi=0.0,
                      gamma_e=0.21, rate=0.02,
                      capital=flat_capital(GRID_Q, ccr=25.0, ccr_hedged=10.0, cva_vol=10.0))
        a = breakdown(make_inputs(GRID_Q, psi=0.0, **kwargs))
        b = breakdown(make_inputs(GRID_Q, psi=1.0, **kwargs))
        assert (a.cva[0], a.dva[0], a.fca[0]) == (b.cva[0], b.dva[0], b.fca[0])
        assert a.kva[0] != b.kva[0]  # capital relief still depends on the hedge

    def test_bps_conversion(self):
        inputs = make_inputs(GRID_Q, epe=100.0, lambda_c=0.02)
        result = breakdown(inputs)
        assert result.as_bps()["cva"][0] == pytest.approx(result.cva[0] / 100.0 * 1e4)

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
        assert result.cva[0] <= 0.0
        assert result.dva[0] >= 0.0
        assert result.fca[0] <= 0.0
        # cost of capital exceeds the funding benefit (rate is zero here)
        assert result.kva[0] <= 0.0
        assert result.total[0] == pytest.approx(
            (result.cva + result.dva + result.fca + result.colva + result.kva + result.tva)[0],
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
            parties=((CreditCurve.flat(problem.counterparty_hazard,
                                       problem.counterparty_recovery), capital),),
            party=np.zeros(1, dtype=int),
            psi=np.array([problem.hedge_fraction]),
            xi=np.array([problem.price_of_risk]),
            phi=np.array([problem.capital_funding_fraction]),
            tax=TaxPolicy(problem.tax_rate),
            discount=DiscountCurve.flat(problem.rate),
            cost_of_capital=problem.cost_of_capital,
            notional=100.0,
            collateral_spread=problem.collateral_spread,
            collateral=df * problem.collateral_fraction * e_val,
        )
        oracle = quadrature_oracle(problem)
        result = breakdown(inputs)
        assert result.cva[0] == pytest.approx(oracle.cva, rel=1e-5)
        assert result.dva[0] == pytest.approx(oracle.dva, rel=1e-5, abs=1e-12)
        assert result.fca[0] == pytest.approx(oracle.fca, rel=1e-5)
        assert result.colva[0] == pytest.approx(oracle.colva, rel=1e-5)
        assert result.kva[0] == pytest.approx(oracle.kva, rel=1e-5)
        assert result.tva[0] == pytest.approx(oracle.tva, rel=1e-5)


class TestQuadratureAccuracy:
    def test_halving_step_improves_by_order_two(self):
        exact = -decayed_integral(0.6 * 0.03, 100.0, 0.03 + 0.0167, 10.0)
        errors = []
        for n in (21, 41, 81):
            grid = np.linspace(0.0, 10.0, n)
            value = breakdown(make_inputs(grid, epe=100.0, lambda_c=0.03, lambda_b=0.0167)).cva[0]
            errors.append(abs(value - exact))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.25)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.25)

    def test_weekly_grid_tightens_tolerance(self):
        exact = -decayed_integral(0.6 * 0.03, 100.0, 0.03 + 0.0167, 10.0)
        quarterly, weekly = (
            breakdown(make_inputs(grid, epe=100.0, lambda_c=0.03, lambda_b=0.0167)).cva[0]
            for grid in (GRID_Q, GRID_W))
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
        """Row i of a 5-row sweep equals row i priced alone, as a sweep of one, bit for bit."""
        inputs = SWEEP_FIXTURES[name]
        other = (CreditCurve.flat(0.05, 0.25),
                 flat_capital(GRID_Q, mr=1.0, ccr=12.0, ccr_hedged=4.0, cva_vol=9.0))
        psi = np.array([inputs.psi[0], 0.0, 1.0, 0.5, 0.25])
        xi = np.array([inputs.xi[0], -0.5, 0.9, 0.5, 1.0])
        phi = np.array([inputs.phi[0], 1.0, 0.0, 0.3, 0.7])
        party = np.array([0, 1, 0, 1, 1])
        parties = inputs.parties + (other,)
        sweep = columns(breakdown(replace(inputs, parties=parties, party=party,
                                          psi=psi, xi=xi, phi=phi)))
        assert sweep.shape == (12, len(party))
        for i, j in enumerate(party):
            alone = replace(inputs, parties=(parties[j],), party=np.zeros(1, dtype=int),
                            psi=psi[i:i + 1], xi=xi[i:i + 1], phi=phi[i:i + 1])
            assert np.array_equal(sweep[:, i], columns(breakdown(alone))[:, 0]), i

    def test_sweep_rejects_out_of_range_dials(self):
        inputs = SWEEP_FIXTURES["breakdown"]
        for psi, xi, phi in ((1.5, 0.0, 0.0), (-0.1, 0.0, 0.0), (0.5, 1.5, 0.0),
                             (0.5, 0.0, -0.1), (0.5, 0.0, 1.1)):
            with pytest.raises(ValueError):
                replace(inputs, psi=np.array([psi]), xi=np.array([xi]), phi=np.array([phi]))
        with pytest.raises(ValueError):
            replace(inputs, psi=np.zeros(2))
        with pytest.raises(ValueError):
            replace(inputs, parties=inputs.parties + (
                (CreditCurve.flat(0.05, 0.25), flat_capital(np.linspace(0.0, 10.0, 11))),))

    def test_one_quadrature_per_run_whatever_the_row_count(self, monkeypatch):
        built = []
        init = _Quadrature.__init__

        def counted(self, inputs):
            built.append(len(inputs.psi))
            init(self, inputs)

        monkeypatch.setattr(_Quadrature, "__init__", counted)
        one = replace(PRESETS["warehouse-neg"](), ratings=("BB",), phi_values=(0.0,), paths=1000)
        many = replace(one, ratings=("AAA", "A", "BB", "CCC"), psi_values=(0.0, 0.5, 1.0),
                       xi_values=(-0.5, 0.5), phi_values=(0.0, 1.0))
        assert len(run_config(one).rows) == 1 and built == [1]
        assert len(run_config(many).rows) == 48 and built == [1, 48]
