"""Adjustment integrals against closed-form constant-intensity oracles."""

import inspect
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
    Grid,
    TaxPolicy,
    XvaInputs,
    breakdown,
    verify_decomposition,
)
from xvakit import pde, runner, xva
from xvakit.config import PdeVerifyConfig, load_config
from xvakit.regcap import CapitalBase, CapitalProfile
from xvakit.runner import run_config

finite = dict(allow_nan=False, allow_infinity=False)


def flat_profile(grid, epe=0.0, ene=0.0, collateral=None):
    """A profile whose ENE, the forward less the EPE, is ``ene``; no collateral by default."""
    g = np.asarray(grid, dtype=float)
    e = np.full_like(g, float(epe))
    forward = e + float(ene)
    return ExposureProfile(grid=g, epe=e, forward=forward, mean_value_undiscounted=forward,
                           collateral=np.zeros_like(g) if collateral is None else collateral)


def flat_base(grid, mr=0.0):
    """A capital base of unit EAD and duration, whose market-risk charge is ``mr``."""
    g = np.asarray(grid, dtype=float)
    return CapitalBase(g, ead=np.ones_like(g), duration=np.ones_like(g), k_mr=np.full_like(g, mr))


def flat_capital(grid, mr=0.0, ccr=0.0, ccr_hedged=None, cva_vol=0.0):
    """A ``(base, charges)`` pair whose four capital profiles are flat at the given levels."""
    hedged = ccr if ccr_hedged is None else ccr_hedged
    return flat_base(grid, mr), CapitalProfile(float(ccr), float(hedged), float(cva_vol))


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
    """A one-row sweep; ``capital`` is a ``(base, charges)`` pair."""
    base, charges = capital or flat_capital(grid)
    return XvaInputs(
        exposure=flat_profile(grid, epe, ene, collateral),
        capital=base,
        issuer=CreditCurve(lambda_b, r_b),
        parties=((CreditCurve(lambda_c, r_c), charges),),
        party=np.zeros(1, dtype=int),
        psi=np.array([psi]),
        xi=np.array([xi]),
        phi=np.array([phi]),
        tax=TaxPolicy(gamma_e, accruals_taxed, compensator_taxed),
        discount=DiscountCurve((50.0,), (rate,)),
        cost_of_capital=gamma_k,
        notional=100.0,
        collateral_spread=collateral_spread,
    )


def kva_split(inputs):
    """Total KVA of a one-row sweep and its (MR, CCR, CVA-vol) parts."""
    b = breakdown(inputs)
    return b.kva[0], (b.kva_mr[0], b.kva_ccr[0], b.kva_cva[0])


def columns(result):
    """A breakdown's eight components, ``(8, rows)``."""
    return np.vstack([getattr(result, name) for name in xva.COMPONENTS])


def decayed_integral(rate_factor, level, decay, horizon):
    """closed form of rate * level * integral exp(-decay u) du on [0, T]"""
    if decay == 0.0:
        return rate_factor * level * horizon
    return rate_factor * level * (1.0 - math.exp(-decay * horizon)) / decay


def survival_trapezoid(grid, hazard, profile):
    """Reference rule, interval by interval: sum of W(mid) * avg(profile) * dt
    with W(u) = exp(-hazard u)."""
    return math.fsum(math.exp(-hazard * 0.5 * (a + b)) * 0.5 * (pa + pb) * (b - a)
                     for a, b, pa, pb in zip(grid[:-1], grid[1:], profile[:-1], profile[1:]))


def survival_weights(grid, hazard):
    """Each grid point's weight in ``survival_trapezoid``: half of ``W(mid) dt`` from each
    interval it ends."""
    halves = [0.5 * math.exp(-hazard * 0.5 * (a + b)) * (b - a) for a, b in zip(grid[:-1], grid[1:])]
    return np.array([0.0, *halves]) + np.array([*halves, 0.0])


def tva_credit(rate, lam_b, lam_c, psi, xi, accruals_taxed, compensator_taxed, lgd=0.6):
    """TVA's coefficient on the EPE's integral, the tax credit on warehoused losses."""
    warehoused = rate * (1.0 - psi) * (1.0 - xi) * lgd * lam_c
    coefficient = warehoused * ((1.0 - (1.0 + rate)) if compensator_taxed else 1.0)
    return coefficient - accruals_taxed * rate * lgd * lam_b


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

    def test_collateral_off_the_grid_is_refused(self):
        with pytest.raises(ValueError, match="collateral must match the grid length"):
            flat_profile(GRID_Q, collateral=np.full(len(GRID_Q) - 1, 100.0))


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

    @staticmethod
    def assert_rows_net_their_own_partys_charges(price):
        """Two parties interleaved on a sloped base: each row's KVA components are
        its own party's charges, netted at its psi, times the base's integrals."""
        base = CapitalBase(GRID_Q, ead=5.0 + GRID_Q, duration=10.0 - GRID_Q,
                           k_mr=0.5 + 0.1 * GRID_Q)
        charges = (CapitalProfile(0.04, 0.016, 0.0163), CapitalProfile(0.12, 0.04, 0.233))
        hazards = (0.0125, 0.125)
        party = np.array([1, 0, 1, 0])
        psi, xi, phi = (np.array([0.2, 0.7, 0.9, 0.0]), np.array([0.3, -0.5, 0.0, 0.6]),
                        np.array([0.5, 1.0, 0.0, 0.25]))
        inputs = replace(
            make_inputs(GRID_Q, lambda_b=0.0167, gamma_e=0.21, rate=0.02), capital=base,
            parties=tuple((CreditCurve(h, 0.4), k) for h, k in zip(hazards, charges)),
            party=party, psi=psi, xi=xi, phi=phi)
        result = price(inputs)
        d = np.exp(-0.02 * GRID_Q)
        for i, j in enumerate(party):
            k = charges[j]
            lam_eff = hazards[j] * (psi[i] + (1.0 - psi[i]) * (1.0 - xi[i]))
            w = survival_weights(GRID_Q, 0.0167 + lam_eff)
            cost = 0.10 - 0.02 * phi[i]  # cost of capital less its funding use
            netted = {
                "kva_mr": base.k_mr,
                "kva_ccr": (k.ccr - psi[i] * (k.ccr - k.ccr_hedged)) * base.ead,
                "kva_cva": (1.0 - psi[i]) * k.cva * base.duration * base.ead,
            }
            for name, profile in netted.items():
                assert getattr(result, name)[i] == pytest.approx(
                    -cost * math.fsum(w * d * profile), rel=1e-13), (name, i)

    def test_each_row_nets_its_own_partys_charges(self):
        self.assert_rows_net_their_own_partys_charges(breakdown)

    def test_party_0s_charges_on_every_row_fail_it(self):
        # A planted defect: every row reads party 0's capital charges.
        defective = mutant_breakdown("for c, k in inputs.parties",
                                     "for c, k in [(c, inputs.parties[0][1]) for c, _ in "
                                     "inputs.parties]")
        with pytest.raises(AssertionError):
            self.assert_rows_net_their_own_partys_charges(defective)


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


class TestTvaCreditCoefficient:
    """TVA loads on the EPE through one coefficient: the tax credit on warehoused
    losses, (1 + rate)-grossed when the compensator is taxed, less the tax on
    the issuer's default accrual when accruals are taxed."""

    @pytest.mark.parametrize("accruals_taxed", (False, True))
    @pytest.mark.parametrize("compensator_taxed", (False, True))
    @pytest.mark.parametrize("psi, xi", ((1.0, 0.0), (0.4, 0.3), (0.0, -0.5)))
    def test_value_is_the_coefficient_times_the_epe_integral(self, accruals_taxed,
                                                             compensator_taxed, psi, xi):
        rate, lam_b, lam_c = 0.21, 0.0167, 0.0417
        kwargs = dict(lambda_b=lam_b, lambda_c=lam_c, psi=psi, xi=xi, gamma_e=rate, rate=0.02,
                      capital=flat_capital(GRID_Q, ccr=30.0, cva_vol=20.0),
                      accruals_taxed=accruals_taxed, compensator_taxed=compensator_taxed)
        inputs = make_inputs(GRID_Q, epe=40.0, ene=-80.0, **kwargs)
        coefficient = tva_credit(rate, lam_b, lam_c, psi, xi, accruals_taxed, compensator_taxed)
        hazard = lam_b + lam_c * (psi + (1.0 - psi) * (1.0 - xi))
        # TVA moves by the coefficient times the EPE's integral
        no_exposure = breakdown(make_inputs(GRID_Q, epe=0.0, ene=-80.0, **kwargs))
        assert breakdown(inputs).tva[0] - no_exposure.tva[0] == pytest.approx(
            coefficient * survival_trapezoid(GRID_Q, hazard, inputs.exposure.epe), rel=1e-12,
            abs=1e-13)


class TestBreakdown:
    def test_all_zero(self):
        result = breakdown(make_inputs(GRID_Q))
        assert result.total[0] == 0.0
        assert result.as_bps()["total"][0] == 0.0

    def test_total_is_the_left_fold_in_components_order(self):
        """1e16 + 1 rounds back to 1e16, so the left fold cva, dva, fca, colva, ...
        loses both ones, where an exact sum or another order keeps them."""
        values = dict.fromkeys(xva.COMPONENTS, np.zeros(1))
        values.update(cva=np.array([1e16]), dva=np.ones(1), fca=np.ones(1),
                      colva=np.array([-1e16]))
        result = xva.XvaBreakdown(**values, notional=100.0)
        assert math.fsum(v[0] for v in values.values()) == 2.0
        assert result.total[0] == 0.0
        rng = np.random.default_rng(5)
        values = {name: rng.normal(size=64) * 10.0 ** rng.integers(-3, 4, 64)
                  for name in xva.COMPONENTS}
        result = xva.XvaBreakdown(**values, notional=1.0)
        folded = result.cva
        for name in xva.COMPONENTS[1:]:
            folded = folded + getattr(result, name)
        assert result.total.tobytes() == folded.tobytes()

    def test_components_match_individual_calls(self):
        """Each field of the breakdown is its own integral: a coefficient times
        the reference rule on its profile, DVA's on the forward less the EPE."""
        capital = flat_capital(GRID_Q, mr=2.0, ccr=30.0, ccr_hedged=18.0, cva_vol=20.0)
        inputs = make_inputs(
            GRID_Q, epe=40.0, ene=-80.0, lambda_b=0.0167, lambda_c=0.0417,
            psi=0.4, xi=0.3, phi=0.6, gamma_e=0.21, capital=capital, rate=0.02,
        )
        result = breakdown(inputs)
        lam_eff = 0.0417 * (0.4 + 0.6 * 0.7)
        hazard = 0.0167 + lam_eff
        exposure = inputs.exposure

        def rule(profile):
            return survival_trapezoid(GRID_Q, hazard, profile)

        credit = 0.21 * 0.6 * 0.7 * 0.6 * 0.0417
        d = np.exp(-0.02 * GRID_Q)
        net = {"kva_mr": 2.0, "kva_ccr": 30.0 - 0.4 * 12.0, "kva_cva": 0.6 * 20.0}
        expected = {
            "cva": -0.6 * lam_eff * rule(exposure.epe),
            "dva": -0.6 * 0.0167 * rule(exposure.forward - exposure.epe),
            "fca": -0.6 * 0.0167 * rule(exposure.epe),
            "colva": 0.0,
            **{name: -rule((0.10 - 0.02 * 0.6) * d * k) for name, k in net.items()},
            "tva": credit * rule(exposure.epe) - 0.21 * 0.10 * rule(d * sum(net.values())),
        }
        for name, value in expected.items():
            assert getattr(result, name)[0] == pytest.approx(value, rel=1e-13, abs=1e-15), name
        assert len({result.cva[0], result.dva[0], result.fca[0], result.tva[0]}) == 4

    @staticmethod
    def assert_total_loads_on_the_epe_through_cva_and_tva(price, psi, xi, accruals_taxed,
                                                          compensator_taxed):
        """ENE is the known forward less EPE, so a change in the EPE at a fixed forward
        moves the total by ``(c_CVA + c_FCA + c_TVA - c_DVA)`` times its integral, in which
        DVA's and FCA's coefficients cancel: by ``c_CVA + c_TVA`` times it."""
        rate, lam_b, lam_c = 0.21, 0.0167, 0.0417
        inputs = make_inputs(
            GRID_Q, epe=40.0, ene=-80.0, lambda_b=lam_b, lambda_c=lam_c, psi=psi, xi=xi,
            gamma_e=rate, rate=0.02, capital=flat_capital(GRID_Q, ccr=30.0, cva_vol=20.0),
            accruals_taxed=accruals_taxed, compensator_taxed=compensator_taxed,
        )
        change = 0.5 + 0.1 * GRID_Q
        moved = replace(inputs, exposure=replace(inputs.exposure,
                                                 epe=inputs.exposure.epe + change))
        lam_eff = lam_c * (psi + (1.0 - psi) * (1.0 - xi))
        c_cva = -0.6 * lam_eff
        c_tva = tva_credit(rate, lam_b, lam_c, psi, xi, accruals_taxed, compensator_taxed)
        before, after = price(inputs), price(moved)
        assert after.total[0] - before.total[0] == pytest.approx(
            (c_cva + c_tva) * survival_trapezoid(GRID_Q, lam_b + lam_eff, change),
            rel=1e-12, abs=1e-13)
        assert after.dva[0] != before.dva[0]  # DVA moves, by FCA's move turned round

    @pytest.mark.parametrize("accruals_taxed", (False, True))
    @pytest.mark.parametrize("compensator_taxed", (False, True))
    @pytest.mark.parametrize("psi, xi", ((1.0, 0.0), (0.4, 0.3), (0.0, -0.5)))
    def test_total_loads_on_the_epe_through_cva_and_tva(self, psi, xi, accruals_taxed,
                                                        compensator_taxed):
        self.assert_total_loads_on_the_epe_through_cva_and_tva(
            breakdown, psi, xi, accruals_taxed, compensator_taxed)

    @pytest.mark.parametrize("defect", ("tva without its credit", "dva on the forward"))
    @pytest.mark.parametrize("psi, xi, accruals_taxed, compensator_taxed",
                             ((1.0, 0.0, True, False), (0.0, -0.5, False, True)))
    def test_a_planted_defect_fails_the_loading(self, defect, psi, xi, accruals_taxed,
                                               compensator_taxed):
        old, new = {
            "tva without its credit": ("credit * epe", "0.0 * epe"),
            "dva on the forward": ("(weights * exposure.forward).sum(axis=-1) - epe)",
                                   "(weights * exposure.forward).sum(axis=-1))"),
        }[defect]
        defective = mutant_breakdown(old, new)
        with pytest.raises(AssertionError):
            self.assert_total_loads_on_the_epe_through_cva_and_tva(
                defective, psi, xi, accruals_taxed, compensator_taxed)

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


def mutant_breakdown(old, new):
    """``xva.breakdown`` with the one occurrence of ``old`` in its source made ``new``.

    Each coefficient is written once, so one edit reaches every use of it."""
    source = inspect.getsource(xva.breakdown)
    assert source.count(old) == 1, old
    namespace = dict(vars(xva))
    exec(compile(source.replace(old, new), xva.__file__, "exec"), namespace)
    return namespace["breakdown"]


class TestPlantedDefectsFailTheVerifier:
    """``pde.verify_decomposition`` prices its problem with ``breakdown``, so a defect
    planted in these integrals must fail it; the problem passes without one."""

    PROBLEM = PdeVerifyConfig().problem  # psi 0.25, xi 0.3, tax 0.21: every term is on

    def assert_defect_fails(self, monkeypatch, problem, old, new):
        assert verify_decomposition(problem, Grid(200, 200)).passed
        monkeypatch.setattr(pde, "breakdown", mutant_breakdown(old, new))
        report = verify_decomposition(problem, Grid(200, 200))
        assert not report.passed
        return report

    def test_counterparty_hazard_in_place_of_the_effective_one_in_cva(self, monkeypatch):
        self.assert_defect_fails(monkeypatch, self.PROBLEM,
                                 "-lgd_c * lambda_eff", "-lgd_c * lambda_cpty")

    def test_taxed_compensator_without_its_gross_up(self, monkeypatch):
        # without (1 + rate), the credit is rate^2 w LGD_C lam_C int(EPE) higher
        problem = replace(self.PROBLEM, compensator_taxed=True)
        self.assert_defect_fails(monkeypatch, problem, "(1.0 + tax.rate) * credit", "credit")

    def test_tax_on_held_capital_one_percent_high_fails_the_tax_criterion_alone(self, monkeypatch):
        # The total moves by about 1.1e-3 of itself, inside the tolerance, and
        # the TVA by about 1.6e-2: only the tax criterion can see it.
        report = self.assert_defect_fails(
            monkeypatch, self.PROBLEM, "tva -= tax.rate * inputs.cost_of_capital * held",
            "tva -= 1.01 * tax.rate * inputs.cost_of_capital * held")
        assert report.rel_error <= report.tolerance < report.tax_rel_error


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
        other = (CreditCurve(0.05, 0.25), CapitalProfile(12.0, 4.0, 9.0))
        psi = np.array([inputs.psi[0], 0.0, 1.0, 0.5, 0.25])
        xi = np.array([inputs.xi[0], -0.5, 0.9, 0.5, 1.0])
        phi = np.array([inputs.phi[0], 1.0, 0.0, 0.3, 0.7])
        party = np.array([0, 1, 0, 1, 1])
        parties = inputs.parties + (other,)
        sweep = columns(breakdown(replace(inputs, parties=parties, party=party,
                                          psi=psi, xi=xi, phi=phi)))
        assert sweep.shape == (8, len(party))
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
        with pytest.raises(ValueError, match="capital base grid"):
            replace(inputs, capital=flat_base(np.linspace(0.0, 10.0, 11)))

    def test_one_quadrature_per_run_whatever_the_row_count(self, monkeypatch):
        # One breakdown per run, and inside it one weight build for every row
        # and party: none per party, per component or per row.
        calls, built = [], []
        init = xva._Quadrature.__init__

        def counted(inputs):
            calls.append(len(inputs.psi))
            return breakdown(inputs)

        def counted_init(self, grid, hazard):
            built.append(len(hazard))
            init(self, grid, hazard)

        monkeypatch.setattr(runner, "breakdown", counted)
        monkeypatch.setattr(xva._Quadrature, "__init__", counted_init)
        one = replace(load_config("warehouse-neg"), ratings=("BB",), phi=(0.0,))
        many = replace(one, ratings=("AAA", "A", "BB", "CCC"), psi=(0.0, 0.5, 1.0),
                       price_of_risk_xi=(-0.5, 0.5), phi=(0.0, 1.0))
        assert len(run_config(one).rows) == 1 and calls == built == [1]
        assert len(run_config(many).rows) == 48 and calls == built == [1, 48]
