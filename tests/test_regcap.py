"""Standardized capital: EAD, CCR, CVA-vol, market risk and profiles."""

from collections import namedtuple
from dataclasses import replace

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
    exposure,
    make_exposure_grid,
    remaining_duration,
)
from xvakit.config import load_config
from xvakit.regcap import CEM_ADDON_FACTORS, MR_BAND_WEIGHTS, capital_base
from xvakit.runner import run_config

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


def charges(rating, min_ratio=0.08, provider="A"):
    """``capital_profile`` of a rating at the Basel minimum ratio, hedged with an A seller."""
    return capital_profile(RATING_TABLE[rating], min_ratio, RATING_TABLE[provider])


class TestCcrCapital:
    """CCR capital is EAD x risk weight x minimum ratio: the charge is per unit of EAD."""

    def test_examples(self):
        assert charges("AAA").ccr == pytest.approx(0.016)
        assert 100.0 * charges("AAA").ccr == pytest.approx(1.6)
        assert 100.0 * charges("CCC").ccr == pytest.approx(12.0)
        assert charges("CCC", min_ratio=0.0).ccr == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            charges("A", min_ratio=-0.1)


class TestCvaVarCapital:
    """The unhedged charge 2.33 |w M EAD| is per unit of duration x EAD."""

    def test_unhedged_example(self):
        assert charges("A").cva == pytest.approx(0.01864)
        assert 5.0 * 100.0 * charges("A").cva == pytest.approx(9.32)

    def test_independent_of_ratio_and_provider(self):
        assert charges("A", 0.0, "AAA").cva == charges("A", 0.08, "CCC").cva


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
    return ExposureProfile(grid=g, epe=e, forward=m, mean_value_undiscounted=m,
                           collateral=np.zeros_like(g))


Components = namedtuple("Components", "k_mr k_ccr k_ccr_hedged k_cva")


def components(base, charges):
    """A rating's four capital profiles along the grid: its charges on the base."""
    return Components(base.k_mr, charges.ccr * base.ead, charges.ccr_hedged * base.ead,
                      charges.cva * base.duration * base.ead)


def unhedged(cap):
    return cap.k_mr + cap.k_ccr + cap.k_cva


def net(cap, psi):
    """(MR, CCR, CVA-vol) parts of the requirement at hedge fraction ``psi``."""
    return cap.k_mr, cap.k_ccr - psi * (cap.k_ccr - cap.k_ccr_hedged), (1.0 - psi) * cap.k_cva


def net_total(cap, psi):
    mr, ccr, cva = net(cap, psi)
    return mr + ccr + cva


class TestCapitalProfile:
    curve = DiscountCurve((50.0,), (0.02,))
    swap = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0)
    grid = np.linspace(0.0, 10.0, 41)

    def profile(self, mean=2.0):
        return _flat_profile(self.grid, epe=max(mean, 0.0) + 1.0, mean=mean)

    def capital(self, rating, profile=None, book=None):
        """One rating's profiles, hedged with an A seller, on a base of ``book`` (the single
        swap by default)."""
        book = (self.swap,) if book is None else book
        base = capital_base(self.profile() if profile is None else profile, book, self.curve)
        return components(base, charges(rating))

    def test_components_nonnegative_and_relief_bounded(self):
        cap = self.capital("BB")
        assert np.all(cap.k_mr >= 0) and np.all(cap.k_ccr >= 0) and np.all(cap.k_cva >= 0)
        relief = cap.k_cva + (cap.k_ccr - cap.k_ccr_hedged)
        assert np.all(relief <= unhedged(cap) + 1e-15)
        assert np.all(relief >= 0)

    def test_full_hedge_removes_cva_component(self):
        _, _, cva_component = net(self.capital("BB"), 1.0)
        assert np.all(cva_component == 0.0)

    def test_no_hedge_keeps_everything(self):
        cap = self.capital("BB")
        assert np.array_equal(net_total(cap, 0.0), unhedged(cap))

    def test_net_total_affine_in_hedge_fraction(self):
        cap = self.capital("CCC")
        mid = net_total(cap, 0.5)
        chord = 0.5 * (net_total(cap, 0.0) + net_total(cap, 1.0))
        assert np.allclose(mid, chord, rtol=1e-14)

    def test_netting_commutes_with_integration(self):
        """Netting is affine in psi, so a weighted sum of the netted profile
        equals the netting of the components' weighted sums, row by row."""
        cap = self.capital("CCC")
        psi = np.array([0.0, 0.3, 1.0])
        weights = np.exp(-np.multiply.outer([0.01, 0.05, 0.2], self.grid))  # (rows, grid)
        integrals = Components(*((weights * k).sum(axis=-1) for k in cap))
        profiles = [net(cap, p) for p in psi]  # per row: its (MR, CCR, CVA) profiles
        for part, integral in enumerate(net(integrals, psi)):
            expected = [(weights[r] * profiles[r][part]).sum() for r in range(len(psi))]
            np.testing.assert_allclose(integral, expected, rtol=1e-14)

    def test_provider_substitution_only_when_better(self):
        prof = self.profile()
        for rating, cpty in RATING_TABLE.items():
            cap = self.capital(rating, prof)
            _, ccr_unhedged, _ = net(cap, 0.0)
            _, ccr_hedged, _ = net(cap, 1.0)
            assert np.all(ccr_unhedged >= ccr_hedged - 1e-15), rating
            expected_weight = min(cpty.risk_weight, RATING_TABLE["A"].risk_weight)
            ratio = expected_weight / cpty.risk_weight
            assert np.allclose(ccr_hedged, ccr_unhedged * ratio, rtol=1e-12)

    def test_zero_book_gives_zero_capital(self):
        cap = self.capital("A", _flat_profile(self.grid, epe=0.0, mean=0.0), book=())
        assert np.all(unhedged(cap) == 0.0)

    def test_capital_vanishes_at_maturity(self):
        assert unhedged(self.capital("A", self.profile(mean=-3.0)))[-1] == 0.0

    def test_homogeneous_in_notional(self):
        small = self.capital("A")
        doubled_swap = SwapSpec(notional=200.0, fixed_rate=0.027, maturity=10.0)
        doubled_prof = _flat_profile(self.grid, epe=2 * 3.0, mean=4.0)
        big = self.capital("A", doubled_prof, book=(doubled_swap,))
        assert np.allclose(unhedged(big), 2.0 * unhedged(small), rtol=1e-12)

    def test_negative_expected_value_leaves_addon_only(self):
        cap_neg = self.capital("A", self.profile(mean=-5.0))
        cap_zero = self.capital("A", self.profile(mean=0.0))
        assert np.array_equal(cap_neg.k_ccr, cap_zero.k_ccr)

    def test_back_to_back_book_has_zero_market_risk(self):
        """The posted leg nets the live one on the ladder, and adds nothing to its EAD."""
        legs = (
            self.swap,
            SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False,
                     collateralized=True),
        )
        cap = self.capital("A", book=legs)
        assert np.all(cap.k_mr == 0.0)
        assert np.array_equal(cap.k_ccr, self.capital("A").k_ccr)

    def test_unhedged_single_swap_attracts_market_risk(self):
        assert np.all(self.capital("A").k_mr[:-1] > 0.0)


def test_remaining_duration_decreases():
    curve = DiscountCurve((50.0,), (0.02,))
    swap = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0)
    durations = remaining_duration(curve, swap, np.array([0.0, 3.0, 7.0, 9.8, 10.0]))
    assert np.all(np.diff(durations[:-1]) < 0)
    assert durations[-1] == 0.0
    assert durations[0] == pytest.approx(5.2, abs=0.2)


def test_rating_table_contents():
    assert set(RATING_TABLE) == {"AAA", "A", "BB", "CCC"}
    assert RATING_TABLE["BB"].cds_spread == pytest.approx(0.025)
    assert RATING_TABLE["CCC"].risk_weight == pytest.approx(1.5)
    assert RATING_TABLE["AAA"].cva_weight == pytest.approx(0.007)


def loop_capital(profile, counterparty, book, curve, min_ratio, provider):
    """Reference: the scalar rules at one grid point and one swap at a time, the add-ons
    and durations over the uncollateralized swaps and the ladder over the whole book."""
    hedged = min(counterparty.risk_weight, provider.risk_weight)
    rows = []
    for i, u in enumerate(profile.grid):
        live = [s for s in book if not s.collateralized and s.maturity - u > 1e-12]
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
        for s in book:
            if s.maturity - u > 1e-12:
                band = next(j for j, (upper, _) in enumerate(MR_BAND_WEIGHTS)
                            if s.maturity - u < upper)
                nets[band] += s.sign * s.notional
        k_mr = float(np.abs(nets) @ [w for _, w in MR_BAND_WEIGHTS])
        rows.append((k_mr, ead * counterparty.risk_weight * min_ratio, ead * hedged * min_ratio,
                     2.33 * abs(counterparty.cva_weight * (duration * ead))))
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
    grid = make_exposure_grid(20.0)

    def profile(self):
        mean = np.random.default_rng(3).normal(0.0, 4.0, len(self.grid))
        return ExposureProfile(grid=self.grid, epe=np.maximum(mean, 0.0), forward=mean,
                               mean_value_undiscounted=mean, collateral=np.zeros_like(mean))

    def test_matches_the_per_point_loop(self):
        prof = self.profile()
        base = capital_base(prof, self.book, self.curve)
        for rating, cpty in RATING_TABLE.items():
            reference = loop_capital(prof, cpty, self.book, self.curve, 0.08, RATING_TABLE["A"])
            computed = np.array(components(base, charges(rating)))
            np.testing.assert_allclose(computed, reference, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("payer", [True, False], ids=["payer", "receiver"])
def test_kva_reads_the_mean_mtm_and_never_the_epe(monkeypatch, payer):
    """The EAD reads the book's undiscounted mean MtM, a closed form, so a run whose EPE
    is doubled keeps every KVA cell bit for bit while its CVA moves.  The base case's
    exposed payer turned receiver has a positive mean MtM, which its EAD then reads."""
    base = load_config("base-case")
    swaps = tuple(s if payer or s.collateralized else replace(s, payer=False)
                  for s in base.swaps)
    config = replace(base, swaps=swaps)
    plain = run_config(config)
    positive_mean = exposure.positive_mean
    monkeypatch.setattr(exposure, "positive_mean", lambda *row: 2.0 * positive_mean(*row))
    doubled = run_config(config)
    assert np.all(doubled.profile.epe == 2.0 * plain.profile.epe)
    assert np.any(doubled.breakdown.cva != plain.breakdown.cva)
    for name in ("kva_mr", "kva_ccr", "kva_cva"):
        assert np.array_equal(getattr(doubled.breakdown, name),
                              getattr(plain.breakdown, name)), name
    assert np.any(plain.profile.mean_value_undiscounted > 0) != payer
    assert np.all(plain.breakdown.kva_ccr != 0)
