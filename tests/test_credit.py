"""Hazard relations, close-outs, hedge errors and tax flows."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xvakit import (
    CreditCurve,
    PdeProblem,
    TaxPolicy,
    compensator_rate,
    counterparty_hedge_error,
    effective_hazard,
    hazard_from_spread,
)
from xvakit.pde import closeout

finite = dict(allow_nan=False, allow_infinity=False)


def closeout_at(v, collateral_fraction=0.0, **terms):
    """``pde.closeout`` at value ``v``; ``terms`` are the problem's recoveries, rates, ..."""
    problem = PdeProblem(spot=100.0, strike=100.0, maturity=1.0, sigma=0.2, rate=0.0,
                         collateral_fraction=collateral_fraction, **terms)
    return closeout(problem, np.asarray(v, dtype=float))


class TestHazardFromSpread:
    def test_zero_spread(self):
        assert hazard_from_spread(0.0, 0.4) == 0.0

    def test_examples(self):
        assert hazard_from_spread(0.0100, 0.40) == pytest.approx(0.016667, abs=5e-7)
        assert hazard_from_spread(0.0250, 0.40) == pytest.approx(0.041667, abs=5e-7)

    def test_full_recovery_rejected(self):
        with pytest.raises(ValueError):
            hazard_from_spread(0.01, 1.0)
        with pytest.raises(ValueError):
            hazard_from_spread(0.01, 1.2)

    def test_negative_spread_rejected(self):
        with pytest.raises(ValueError):
            hazard_from_spread(-0.001, 0.4)

    @given(spread=st.floats(0, 0.5, **finite), recovery=st.floats(0, 0.99, **finite))
    def test_inverts_to_spread(self, spread, recovery):
        lam = hazard_from_spread(spread, recovery)
        assert math.isclose(lam * (1 - recovery), spread, rel_tol=1e-12, abs_tol=1e-300)


class TestEffectiveHazard:
    def test_full_hedge_returns_risk_neutral(self):
        assert effective_hazard(0.02, 1.0, 0.5) == 0.02

    def test_no_hedge_returns_physical(self):
        assert effective_hazard(0.02, 0.0, 0.5) == 0.01

    def test_midpoint(self):
        assert effective_hazard(0.04, 0.5, 0.5) == pytest.approx(0.03, rel=1e-15)

    def test_psi_out_of_range(self):
        with pytest.raises(ValueError):
            effective_hazard(0.02, 1.2, 0.0)
        with pytest.raises(ValueError):
            effective_hazard(0.02, -0.1, 0.0)

    def test_negative_physical_hazard_rejected(self):
        with pytest.raises(ValueError):
            effective_hazard(0.02, 0.5, 1.5)

    @given(
        lam=st.floats(0, 1, **finite),
        psi=st.floats(0, 1, **finite),
        xi=st.floats(-2, 1, **finite),
    )
    def test_affine_in_psi_and_bounded(self, lam, psi, xi):
        lo = effective_hazard(lam, 0.0, xi)
        hi = effective_hazard(lam, 1.0, xi)
        mid = effective_hazard(lam, psi, xi)
        assert min(lo, hi) - 1e-15 <= mid <= max(lo, hi) + 1e-15
        # affine: value at psi equals the chord
        chord = hi * psi + lo * (1 - psi)
        assert math.isclose(mid, chord, rel_tol=1e-12, abs_tol=1e-15)

    @given(lam=st.floats(0, 1, **finite), psi=st.floats(0, 0.999, **finite))
    def test_monotone_decreasing_in_price_of_risk(self, lam, psi):
        a = effective_hazard(lam, psi, 0.2)
        b = effective_hazard(lam, psi, 0.6)
        assert b <= a + 1e-18


class TestCloseOut:
    def test_positive_exposure(self):
        assert closeout_at(10.0, counterparty_recovery=0.4).g_cpty == 4.0

    def test_negative_exposure(self):
        c = closeout_at(-10.0, issuer_recovery=0.4)
        assert c.g_issuer == -4.0
        assert c.g_cpty == -10.0

    def test_fully_collateralized(self):
        c = closeout_at(7.0, collateral_fraction=1.0)
        assert c.g_issuer == 7.0 and c.g_cpty == 7.0

    @given(
        v=st.floats(-1e6, 1e6, **finite),
        f=st.floats(0, 1, **finite),
        rb=st.floats(0, 1, **finite),
        rc=st.floats(0, 1, **finite),
    )
    def test_sum_identity(self, v, f, rb, rc):
        c = closeout_at(v, f, issuer_recovery=rb, counterparty_recovery=rc)
        x = f * v
        gap = v - x
        expected = v + x + rb * min(gap, 0.0) + rc * max(gap, 0.0)
        assert math.isclose(c.g_issuer + c.g_cpty, expected, rel_tol=1e-12, abs_tol=1e-6)

    @given(v=st.floats(-1e6, 1e6, **finite), f=st.floats(0, 1, **finite))
    def test_full_recovery_recovers_value(self, v, f):
        g_b = closeout_at(v, f, issuer_recovery=1.0).g_issuer
        g_c = closeout_at(v, f, counterparty_recovery=1.0).g_cpty
        assert math.isclose(g_b, v, rel_tol=1e-12, abs_tol=1e-9)
        assert math.isclose(g_c, v, rel_tol=1e-12, abs_tol=1e-9)

    @given(
        v=st.floats(-1e6, 1e6, **finite),
        f=st.floats(0, 1, **finite),
        rc=st.floats(0, 1, **finite),
        bump=st.floats(0, 1, **finite),
    )
    def test_issuer_closeout_dominates_when_senior(self, v, f, rc, bump):
        rb = min(rc + bump * (1 - rc), 1.0)
        c = closeout_at(v, f, issuer_recovery=rb, counterparty_recovery=rc)
        assert c.g_issuer >= c.g_cpty - 1e-9

    def test_one_array_of_values_at_once(self):
        v = np.array([-10.0, 0.0, 10.0])
        c = closeout_at(v, 0.2, issuer_recovery=0.4, counterparty_recovery=0.25)
        for i, value in enumerate(v):
            one = closeout_at(value, 0.2, issuer_recovery=0.4, counterparty_recovery=0.25)
            assert all(np.array_equal(field[i], scalar) for field, scalar in zip(c, one))


class TestHedgeError:
    def test_full_hedge_is_zero(self):
        assert counterparty_hedge_error(4.0, 10.0, 1.0, 1.26) == 0.0

    def test_unhedged(self):
        assert counterparty_hedge_error(4.0, 10.0, 0.0, 0.0) == -6.0

    def test_partial_with_tax_jump(self):
        assert counterparty_hedge_error(4.0, 10.0, 0.25, 1.26) == pytest.approx(-3.555, rel=1e-12)

    def test_compensator_full_hedge_zero(self):
        assert compensator_rate(4.0, 10.0, 1.0, 0.5, 0.02) == 0.0

    def test_compensator_example(self):
        assert compensator_rate(4.0, 10.0, 0.0, 0.5, 0.02) == pytest.approx(0.06, rel=1e-12)

    def test_compensator_no_default_risk(self):
        assert compensator_rate(4.0, 10.0, 0.3, 0.2, 0.0) == 0.0

    @given(
        g_c=st.floats(-1e5, 1e5, **finite),
        vhat=st.floats(-1e5, 1e5, **finite),
        jump=st.floats(-1e4, 1e4, **finite),
        lam=st.floats(0, 1, **finite),
        xi=st.floats(-1, 0.999, **finite),
        psi=st.floats(0, 1, **finite),
    )
    def test_compensator_sign_offsets_expected_loss(self, g_c, vhat, jump, lam, xi, psi):
        gamma = compensator_rate(g_c, vhat, psi, xi, lam, jump)
        if g_c + jump <= vhat:
            assert gamma >= -1e-9


class TestTaxTerms:
    def test_jump_example(self):
        jump = closeout_at(10.0, counterparty_recovery=0.4, tax_rate=0.21).jump_tax
        assert jump == pytest.approx(-1.26, rel=1e-12)

    def test_jump_no_tax(self):
        assert closeout_at(10.0, counterparty_recovery=0.4, tax_rate=0.0).jump_tax == 0.0

    def test_jump_fully_collateralized(self):
        assert closeout_at(7.0, 1.0, counterparty_recovery=0.4, tax_rate=0.21).jump_tax == 0.0

    @given(
        v=st.floats(-1e5, 1e5, **finite),
        f=st.floats(0, 1, **finite),
        scale=st.floats(0, 100, **finite),
    )
    def test_jump_positively_homogeneous(self, v, f, scale):
        base = closeout_at(v, f, tax_rate=0.21).jump_tax
        scaled = closeout_at(scale * v, f, tax_rate=0.21).jump_tax
        assert math.isclose(scaled, scale * base, rel_tol=1e-12, abs_tol=1e-6)

    def test_taxable_flow_capital_only(self):
        # capital 100 less the full hedge's relief of 40, at 10%
        flow = closeout_at(100.0, cost_of_capital=0.10, capital_factor=1.0,
                           capital_relief_factor=0.4, hedge_fraction=1.0).taxable
        assert flow == pytest.approx(6.0)

    def test_taxable_flow_zero(self):
        flow = closeout_at(0.0, cost_of_capital=0.10, capital_factor=1.0, issuer_hazard=0.0167,
                           hedge_fraction=1.0).taxable
        assert flow == 0.0

    def test_taxable_flow_with_accrual_tax(self):
        # 10% on capital 100, plus the accrual 0.0167 * (1 - 0.4) * 100
        flow = closeout_at(100.0, cost_of_capital=0.10, capital_factor=1.0,
                           capital_relief_factor=0.4, hedge_fraction=0.0, issuer_hazard=0.0167,
                           issuer_recovery=0.4, accruals_taxed=True).taxable
        assert flow == pytest.approx(11.002, rel=1e-12)


class TestPolicies:
    def test_tax_policy_ranges(self):
        with pytest.raises(ValueError):
            TaxPolicy(rate=1.0)
        assert TaxPolicy(rate=0.21).accruals_taxed is False


class TestCreditCurve:
    def test_flat_survival(self):
        curve = CreditCurve.flat(0.02, 0.4)
        assert curve.survival(5.0) == pytest.approx(math.exp(-0.1), rel=1e-14)

    def test_piecewise_cumulative(self):
        curve = CreditCurve((1.0, 3.0), (0.01, 0.05), 0.4)
        assert curve.cumulative_hazard(0.5) == pytest.approx(0.005)
        assert curve.cumulative_hazard(2.0) == pytest.approx(0.01 + 0.05)
        # beyond the last pillar the final rate extends flat
        assert curve.cumulative_hazard(4.0) == pytest.approx(0.01 + 0.1 + 0.05)

    def test_hazard_lookup(self):
        curve = CreditCurve((1.0, 3.0), (0.01, 0.05), 0.4)
        assert curve.hazard(0.2) == 0.01
        assert curve.hazard(1.0) == 0.01
        assert curve.hazard(1.7) == 0.05
        assert curve.hazard(9.0) == 0.05

    def test_survival_non_increasing(self):
        curve = CreditCurve((1.0, 2.0, 6.0), (0.0, 0.02, 0.07), 0.4)
        ts = np.linspace(0, 12, 200)
        s = curve.survival(ts)
        assert np.all(np.diff(s) <= 1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            CreditCurve((1.0,), (-0.01,), 0.4)
        with pytest.raises(ValueError):
            CreditCurve((1.0,), (0.01,), 1.0)
        with pytest.raises(ValueError):
            CreditCurve((2.0, 1.0), (0.01, 0.01), 0.4)
