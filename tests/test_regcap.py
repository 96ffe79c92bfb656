"""Standardized capital: EAD, CCR, CVA-vol, market risk and profiles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xvakit import (
    RATING_TABLE,
    DiscountCurve,
    ExposureProfile,
    SwapSpec,
    capital_profile,
    ccr_capital,
    cva_var_capital,
    make_exposure_grid,
    remaining_duration,
)
from xvakit.regcap import CEM_ADDON_FACTORS, MR_BAND_WEIGHTS, capital_base

finite = dict(allow_nan=False, allow_infinity=False)


def ead_cem(mtm, notional, residual_maturity):
    """Scalar CEM exposure at default: the reference for ``capital_base``'s EAD."""
    if notional < 0 or residual_maturity < 0:
        raise ValueError("notional and residual maturity must be >= 0")
    band = 0 if residual_maturity < 1.0 else 1 if residual_maturity <= 5.0 else 2
    return max(mtm, 0.0) + notional * CEM_ADDON_FACTORS[band]


def market_risk_capital(positions):
    """Scalar market-risk charge of (residual maturity, signed notional) positions.

    The reference for ``capital_base``'s charge: positions net within each
    maturity band, the first whose upper bound exceeds the maturity.
    """
    nets = np.zeros(len(MR_BAND_WEIGHTS))
    for maturity, amount in positions:
        nets[next(j for j, (upper, _) in enumerate(MR_BAND_WEIGHTS) if maturity < upper)] += amount
    return float(np.abs(nets) @ [w for _, w in MR_BAND_WEIGHTS])


class TestEadCem:
    def test_negative_mtm_floored(self):
        assert ead_cem(-5.0, 100.0, 10.0) == pytest.approx(1.5)

    def test_mid_band(self):
        assert ead_cem(2.0, 100.0, 3.0) == pytest.approx(2.5)

    def test_short_band_zero_addon(self):
        assert ead_cem(0.0, 100.0, 0.5) == 0.0

    def test_band_edges(self):
        assert ead_cem(0.0, 100.0, 1.0) == pytest.approx(0.5)
        assert ead_cem(0.0, 100.0, 5.0) == pytest.approx(0.5)
        assert ead_cem(0.0, 100.0, 5.0001) == pytest.approx(1.5)

    def test_negative_notional_rejected(self):
        with pytest.raises(ValueError):
            ead_cem(1.0, -100.0, 5.0)


class TestCcrCapital:
    def test_examples(self):
        assert ccr_capital(100.0, 0.20, 0.08) == pytest.approx(1.6)
        assert ccr_capital(0.0, 0.20, 0.08) == 0.0
        assert ccr_capital(100.0, 1.50, 0.08) == pytest.approx(12.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ccr_capital(-1.0, 0.2, 0.08)


class TestCvaVarCapital:
    def test_matched_hedge_removes_charge(self):
        assert cva_var_capital(100.0, 0.008, 5.0, hedge_notional=100.0, hedge_maturity=5.0) == 0.0

    def test_unhedged_example(self):
        assert cva_var_capital(100.0, 0.008, 5.0) == pytest.approx(9.32)

    def test_zero_weight(self):
        assert cva_var_capital(100.0, 0.0, 5.0) == 0.0


class TestMarketRisk:
    def test_back_to_back_nets_to_zero(self):
        charge = market_risk_capital([(10.0, 100.0), (10.0, -100.0)])
        assert charge == 0.0

    def test_single_position_charged(self):
        assert market_risk_capital([(10.0, 100.0)]) > 0.0

    @given(scale=st.floats(0, 50, **finite))
    def test_positively_homogeneous(self, scale):
        base = market_risk_capital([(10.0, 100.0), (3.0, -40.0)])
        scaled = market_risk_capital([(10.0, scale * 100.0), (3.0, scale * -40.0)])
        assert scaled == pytest.approx(scale * base, rel=1e-12, abs=1e-12)

    def test_different_bands_do_not_net(self):
        assert market_risk_capital([(10.0, 100.0), (1.5, -100.0)]) > 0.0


def _flat_profile(grid, epe, mean=None):
    g = np.asarray(grid, dtype=float)
    e = np.full_like(g, float(epe))
    m = e if mean is None else np.full_like(g, float(mean))
    z = np.zeros_like(g)
    return ExposureProfile(
        grid=g, epe=e, ene=np.minimum(m - e, 0.0), mean_value=m,
        epe_undiscounted=e, mean_value_undiscounted=m,
        se_epe=z, se_ene=z, n_paths=0, seed=0,
    )


class TestCapitalProfile:
    curve = DiscountCurve.flat(0.02)
    swap = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0)
    grid = np.linspace(0.0, 10.0, 41)

    def profile(self, mean=2.0):
        return _flat_profile(self.grid, epe=max(mean, 0.0) + 1.0, mean=mean)

    def test_components_nonnegative_and_relief_bounded(self):
        cap = capital_profile(self.profile(), RATING_TABLE["BB"], self.swap, self.curve,
                              provider=RATING_TABLE["A"])
        assert np.all(cap.k_mr >= 0) and np.all(cap.k_ccr >= 0) and np.all(cap.k_cva >= 0)
        assert np.all(cap.k_relief <= cap.k_unhedged + 1e-15)
        assert np.all(cap.k_relief >= 0)

    def test_full_hedge_removes_cva_component(self):
        cap = capital_profile(self.profile(), RATING_TABLE["BB"], self.swap, self.curve)
        _, _, cva_component = cap.net_components(1.0)
        assert np.all(cva_component == 0.0)

    def test_no_hedge_keeps_everything(self):
        cap = capital_profile(self.profile(), RATING_TABLE["BB"], self.swap, self.curve,
                              provider=RATING_TABLE["A"])
        assert np.array_equal(cap.net_total(0.0), cap.k_unhedged)

    def test_net_total_affine_in_hedge_fraction(self):
        cap = capital_profile(self.profile(), RATING_TABLE["CCC"], self.swap, self.curve,
                              provider=RATING_TABLE["A"])
        mid = cap.net_total(0.5)
        chord = 0.5 * (cap.net_total(0.0) + cap.net_total(1.0))
        assert np.allclose(mid, chord, rtol=1e-14)

    def test_provider_substitution_only_when_better(self):
        prof = self.profile()
        for rating, cpty in RATING_TABLE.items():
            cap = capital_profile(prof, cpty, self.swap, self.curve,
                                  provider=RATING_TABLE["A"])
            _, ccr_unhedged, _ = cap.net_components(0.0)
            _, ccr_hedged, _ = cap.net_components(1.0)
            assert np.all(ccr_unhedged >= ccr_hedged - 1e-15), rating
            expected_weight = min(cpty.risk_weight, RATING_TABLE["A"].risk_weight)
            ratio = expected_weight / cpty.risk_weight
            assert np.allclose(ccr_hedged, ccr_unhedged * ratio, rtol=1e-12)

    def test_zero_book_gives_zero_capital(self):
        prof = _flat_profile(self.grid, epe=0.0, mean=0.0)
        cap = capital_profile(prof, RATING_TABLE["A"], (), self.curve)
        assert np.all(cap.k_unhedged == 0.0)

    def test_capital_vanishes_at_maturity(self):
        cap = capital_profile(self.profile(mean=-3.0), RATING_TABLE["A"], self.swap, self.curve)
        assert cap.k_unhedged[-1] == 0.0

    def test_homogeneous_in_notional(self):
        small = capital_profile(self.profile(), RATING_TABLE["A"], self.swap, self.curve)
        doubled_swap = SwapSpec(notional=200.0, fixed_rate=0.027, maturity=10.0)
        doubled_prof = _flat_profile(self.grid, epe=2 * 3.0, mean=4.0)
        big = capital_profile(doubled_prof, RATING_TABLE["A"], doubled_swap, self.curve)
        assert np.allclose(big.k_unhedged, 2.0 * small.k_unhedged, rtol=1e-12)

    def test_negative_expected_value_leaves_addon_only(self):
        cap_neg = capital_profile(self.profile(mean=-5.0), RATING_TABLE["A"], self.swap, self.curve)
        cap_zero = capital_profile(self.profile(mean=0.0), RATING_TABLE["A"], self.swap, self.curve)
        assert np.array_equal(cap_neg.k_ccr, cap_zero.k_ccr)

    def test_back_to_back_book_has_zero_market_risk(self):
        legs = (
            self.swap,
            SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False,
                     collateralized=True),
        )
        cap = capital_profile(self.profile(), RATING_TABLE["A"], self.swap, self.curve,
                              mr_swaps=legs)
        assert np.all(cap.k_mr == 0.0)

    def test_unhedged_single_swap_attracts_market_risk(self):
        cap = capital_profile(self.profile(), RATING_TABLE["A"], self.swap, self.curve)
        assert np.all(cap.k_mr[:-1] > 0.0)


def test_remaining_duration_decreases():
    curve = DiscountCurve.flat(0.02)
    swap = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0)
    durations = [remaining_duration(curve, swap, t) for t in (0.0, 3.0, 7.0, 9.8, 10.0)]
    assert durations[0] > durations[1] > durations[2] > durations[3]
    assert durations[-1] == 0.0
    assert durations[0] == pytest.approx(5.2, abs=0.2)


def test_rating_table_contents():
    assert set(RATING_TABLE) == {"AAA", "A", "BB", "CCC"}
    assert RATING_TABLE["BB"].cds_spread == pytest.approx(0.025)
    assert RATING_TABLE["CCC"].risk_weight == pytest.approx(1.5)
    assert RATING_TABLE["AAA"].cva_weight == pytest.approx(0.007)


def loop_capital(profile, counterparty, swaps, curve, min_ratio, provider, mr_swaps):
    """Reference: the scalar rules at one grid point and one swap at a time."""
    hedged = min(counterparty.risk_weight, provider.risk_weight)
    rows = []
    for i, u in enumerate(profile.grid):
        live = [s for s in swaps if s.maturity - u > 1e-12]
        ead = sum(ead_cem(0.0, s.notional, s.maturity - u) for s in live)
        ead += max(float(profile.mean_value_undiscounted[i]), 0.0)
        weighted = 0.0
        for s in live:
            times = s.payment_times()
            dfs = curve.df(times[times > u + 1e-12])
            weighted += s.notional * np.sum((times[times > u + 1e-12] - u) * dfs) / np.sum(dfs)
        notional = sum(s.notional for s in live)
        duration = weighted / notional if notional else 0.0
        nets = np.zeros(len(MR_BAND_WEIGHTS))
        for s in mr_swaps:
            if s.maturity - u > 1e-12:
                band = next(j for j, (upper, _) in enumerate(MR_BAND_WEIGHTS)
                            if s.maturity - u < upper)
                nets[band] += s.sign * s.notional
        k_mr = float(np.abs(nets) @ [w for _, w in MR_BAND_WEIGHTS])
        rows.append((k_mr, ccr_capital(ead, counterparty.risk_weight, min_ratio),
                     ccr_capital(ead, hedged, min_ratio),
                     cva_var_capital(ead, counterparty.cva_weight, duration)))
    return np.array(rows).T


class TestCapitalBase:
    curve = DiscountCurve((1.0, 10.0, 30.0), (0.015, 0.02, 0.025))
    # Maturities land on the 1y and 5y add-on edges and on ladder band edges.
    swaps = (
        SwapSpec(notional=100.0, fixed_rate=0.022, maturity=5.0, frequency=4, payer=True),
        SwapSpec(notional=60.0, fixed_rate=0.019, maturity=10.0, frequency=2, payer=False),
        SwapSpec(notional=80.0, fixed_rate=0.024, maturity=20.0, frequency=1, payer=True),
        SwapSpec(notional=40.0, fixed_rate=0.018, maturity=0.75, frequency=4, payer=False),
    )
    book = swaps + (SwapSpec(notional=100.0, fixed_rate=0.021, maturity=20.0, frequency=4,
                             payer=False, collateralized=True),)
    grid = make_exposure_grid(20.0, 4)

    def profile(self):
        mean = np.random.default_rng(3).normal(0.0, 4.0, len(self.grid))
        z = np.zeros_like(mean)
        return ExposureProfile(grid=self.grid, epe=np.maximum(mean, 0.0),
                               ene=np.minimum(mean, 0.0), mean_value=mean,
                               epe_undiscounted=np.maximum(mean, 0.0),
                               mean_value_undiscounted=mean, se_epe=z, se_ene=z,
                               n_paths=0, seed=0)

    def test_matches_the_per_point_loop(self):
        prof = self.profile()
        for cpty in RATING_TABLE.values():
            cap = capital_profile(prof, cpty, self.swaps, self.curve, min_ratio=0.08,
                                  provider=RATING_TABLE["A"], mr_swaps=self.book)
            reference = loop_capital(prof, cpty, self.swaps, self.curve, 0.08,
                                     RATING_TABLE["A"], self.book)
            computed = np.array([cap.k_mr, cap.k_ccr, cap.k_ccr_hedged, cap.k_cva])
            np.testing.assert_allclose(computed, reference, rtol=1e-14, atol=0.0)

    def test_shared_base_gives_each_ratings_profile(self):
        prof = self.profile()
        base = capital_base(prof, self.swaps, self.curve, mr_swaps=self.book)
        for cpty in RATING_TABLE.values():
            shared = capital_profile(base, cpty, min_ratio=0.08, provider=RATING_TABLE["A"])
            alone = capital_profile(prof, cpty, self.swaps, self.curve, min_ratio=0.08,
                                    provider=RATING_TABLE["A"], mr_swaps=self.book)
            for name in ("k_mr", "k_ccr", "k_ccr_hedged", "k_cva"):
                assert np.array_equal(getattr(shared, name), getattr(alone, name))

    def test_negative_min_ratio_rejected(self):
        base = capital_base(self.profile(), self.swaps, self.curve)
        with pytest.raises(ValueError, match="must be >= 0"):
            base.for_rating(RATING_TABLE["A"], min_ratio=-0.1)
