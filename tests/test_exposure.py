"""Swap valuation, the netted kernel and exposure profiles."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr

from pathsim import forward_mean, simulate_paths
from xvakit import (
    DiscountCurve,
    ShortRateModel,
    SwapSpec,
    exposure,
    exposure_profile,
    make_exposure_grid,
    portfolio_value,
)
from xvakit.exposure import _forward_kernel, _netted_plan, _revalue, normal_cdf


def annuity(curve, spec, t=0.0):
    """Discounted accrual factor of the remaining fixed leg, seen from time 0."""
    times = spec.payment_times()
    alive = times > t + 1e-12
    return float(np.sum(curve.df(times[alive])) / spec.frequency) if alive.any() else 0.0


def swap_value(spec, model, curve, t, x):
    """Reference value of one swap at time ``t`` and factor(s) ``x``, from its own bonds.

    ``sign * notional * [(1 - P(t, T_end)) - fixed * annuity(t)]``: scalar
    in, scalar out; zero at and only from the final payment date onward.
    """
    if t < 0 or t > spec.maturity + 1e-12:
        raise ValueError("valuation time outside the swap's life")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    times = spec.payment_times()
    alive = times > t + 1e-12
    out = np.zeros_like(x_arr)
    if alive.any():
        p = model.bond_price(curve, t, times[alive], x_arr)
        out = spec.sign * spec.notional * (1.0 - p[..., -1] - spec.fixed_rate * p.sum(axis=-1)
                                           / spec.frequency)
    return float(out[0]) if np.ndim(x) == 0 else out


# independent oracle for the 10y 2.7% payer on a flat 2% curve, plain discounting
_ANNUITY = sum(0.5 * math.exp(-0.02 * 0.5 * j) for j in range(1, 21))
_FLOAT_LEG = 1.0 - math.exp(-0.02 * 10.0)
_PAYER_VALUE = _FLOAT_LEG - 0.027 * _ANNUITY  # per unit notional


# Payer and receiver legs at frequencies 1, 2 and 4 on a 7y quarterly grid:
# the 3y swap matures exactly on a grid point and the 1.5y swap has expired
# for most of the grid.
MIXED_BOOK = (
    SwapSpec(notional=100.0, fixed_rate=0.022, maturity=5.0, frequency=4, payer=True),
    SwapSpec(notional=60.0, fixed_rate=0.019, maturity=3.0, frequency=1, payer=False),
    SwapSpec(notional=80.0, fixed_rate=0.025, maturity=7.0, frequency=2, payer=True),
    SwapSpec(notional=50.0, fixed_rate=0.018, maturity=1.5, frequency=2, payer=False),
)
MIXED_GRID = make_exposure_grid(7.0)
GROSS = sum(s.notional for s in MIXED_BOOK)
SLOPED = DiscountCurve((1.0, 5.0, 10.0), (0.01, 0.02, 0.03))

# The benchmark's 30y book, and a stressed one: 3% absolute volatility with
# slow mean reversion moves rates by tens of percent, and a 50y swap carries
# B up to 39.
LONG_BOOK = (
    SwapSpec(notional=100.0, fixed_rate=0.022, maturity=5.0, frequency=4, payer=True),
    SwapSpec(notional=100.0, fixed_rate=0.019, maturity=10.0, frequency=2, payer=False),
    SwapSpec(notional=100.0, fixed_rate=0.024, maturity=20.0, frequency=4, payer=True),
    SwapSpec(notional=100.0, fixed_rate=0.018, maturity=30.0, frequency=4, payer=False),
)
POSTED = (SwapSpec(notional=100.0, fixed_rate=0.021, maturity=30.0, frequency=4, payer=False,
                   collateralized=True),)
BOOK_CASES = {
    "long-book": (LONG_BOOK, ShortRateModel(0.05, 0.011), make_exposure_grid(30.0)),
    "stressed": (LONG_BOOK + (SwapSpec(notional=100.0, fixed_rate=0.025, maturity=50.0),),
                 ShortRateModel(0.01, 0.03), make_exposure_grid(50.0)),
}
FLAT = DiscountCurve((50.0,), (0.02,))


def assert_identical(a, b):
    """Every field of two profiles equal bit for bit, collateral mean included."""
    for field in fields(a):
        assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


def payer_epe(swap, model, curve, grid):
    """Closed-form EPE of one payer swap at each grid time, sharing no code with the sampler.

    Its value ``f_t(x) = c + sum_j w_j A_j exp(-B_j x)`` rises with ``x`` (every
    ``w_j`` is negative), so it is positive above its one root ``x*``.  Under the
    t-forward measure ``x_t ~ N(m, v)`` with ``m = -sigma^2 B(t)^2 / 2`` and
    ``v = sigma^2 B(2t) / 2``, so with ``z* = (x* - m) / sqrt(v)``

        epe = P(0, t) [c Phi-bar(z*)
                       + sum_j w_j A_j e^{-B_j m + B_j^2 v / 2} Phi-bar(z* + B_j sqrt(v))].
    """
    assert swap.payer and not swap.collateralized
    s, times, out = model.sigma, swap.payment_times(), []
    for t in grid:
        live = times[times > t + 1e-12]
        if not len(live):
            out.append(0.0)
            continue
        wa = np.full(len(live), -swap.notional * swap.fixed_rate / swap.frequency)
        wa[-1] -= swap.notional
        wa *= model.bond_price(curve, t, live, 0.0)
        b = model.b_factor(live - t)

        def value(x):
            return swap.notional + wa @ np.exp(-b * x)

        b_t = float(model.b_factor(t))
        m, v = -s * s * b_t * b_t / 2, s * s * float(model.b_factor(2 * t)) / 2
        if v == 0.0:
            out.append(float(curve.df(t)) * max(value(0.0), 0.0))
            continue
        root = brentq(value, -5.0, 5.0, xtol=1e-16, rtol=4 * np.finfo(float).eps)
        z = (root - m) / math.sqrt(v)
        out.append(float(curve.df(t)) * (swap.notional * ndtr(-z) + wa @ (
            np.exp(-b * m + b * b * v / 2) * ndtr(-(z + b * math.sqrt(v))))))
    return np.array(out)


def per_swap_sum(book, model, curve, t, x):
    """Reference revaluation: one swap_value per live swap."""
    return sum((swap_value(s, model, curve, t, x) for s in book
                if t <= s.maturity + 1e-12), np.zeros_like(x))


def forward_value(book, curve, t):
    """Today's value of the live swaps' remaining flows: the book's discounted mean at ``t``.

    ``sign * notional * [P(0, t) - P(0, T_end) - fixed * sum P(0, T_j) / frequency]``
    per swap, from the curve alone.
    """
    total = 0.0
    for s in book:
        times = s.payment_times()
        alive = times[times > t + 1e-12]
        if len(alive):
            total += s.sign * s.notional * (float(curve.df(t)) - float(curve.df(alive[-1]))
                                             - s.fixed_rate * float(curve.df(alive).sum())
                                             / s.frequency)
    return total


def book_dv(book, model, curve, grid, paths, value=None):
    """Whole-path discounted values ``(grid, paths)`` of the netted book under each grid
    time's t-forward measure: ``P(0, t) f_t(x_t + m_t)``, ``f_t`` from ``value``
    (``portfolio_value`` by default)."""
    value = value or portfolio_value
    m = forward_mean(model, grid)
    return np.array([curve.df(t) * value(book, model, curve, float(t), paths.factor[:, k] + m[k])
                     for k, t in enumerate(grid)])


class TestSwapSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SwapSpec(notional=0.0, fixed_rate=0.02, maturity=10.0)
        with pytest.raises(ValueError):
            SwapSpec(notional=1.0, fixed_rate=0.02, maturity=-1.0)
        with pytest.raises(ValueError):
            SwapSpec(notional=1.0, fixed_rate=0.02, maturity=10.0, frequency=3)
        for maturity in (10.1, 10.3, math.inf):  # off the semiannual schedule
            with pytest.raises(ValueError, match="whole number of 1/frequency periods"):
                SwapSpec(notional=1.0, fixed_rate=0.02, maturity=maturity, frequency=2)
        spec = SwapSpec(notional=1.0, fixed_rate=0.02, maturity=10.0 + 1e-10, frequency=2)
        assert spec.maturity == 10.0 and spec.payment_times()[-1] == 10.0  # snapped

    def test_payment_times(self):
        spec = SwapSpec(notional=1.0, fixed_rate=0.02, maturity=2.0, frequency=4)
        assert np.allclose(spec.payment_times(), np.arange(1, 9) / 4)


class TestSwapValue:
    def test_par_swap_is_worth_zero(self, flat_curve, model):
        spec = SwapSpec(notional=100.0, fixed_rate=0.02, maturity=10.0)
        fair = float((1.0 - flat_curve.df(10.0)) / annuity(flat_curve, spec))
        par_spec = SwapSpec(notional=100.0, fixed_rate=fair, maturity=10.0)
        assert abs(swap_value(par_spec, model, flat_curve, 0.0, 0.0)) < 1e-12

    def test_zero_vol_value_matches_plain_discounting(self, flat_curve, payer_swap):
        frozen = ShortRateModel(mean_reversion=0.05, sigma=0.0)
        value = swap_value(payer_swap, frozen, flat_curve, 0.0, 0.0)
        assert value == pytest.approx(100.0 * _PAYER_VALUE, rel=1e-12)

    def test_expired_swap_is_zero(self, flat_curve, model, payer_swap):
        assert swap_value(payer_swap, model, flat_curve, 10.0, 0.37) == 0.0

    def test_beyond_maturity_rejected(self, flat_curve, model, payer_swap):
        with pytest.raises(ValueError):
            swap_value(payer_swap, model, flat_curve, 10.5, 0.0)

    def test_payer_receiver_antisymmetry(self, flat_curve, model):
        payer = SwapSpec(notional=50.0, fixed_rate=0.025, maturity=7.0, payer=True)
        receiver = SwapSpec(notional=50.0, fixed_rate=0.025, maturity=7.0, payer=False)
        x = np.linspace(-0.03, 0.03, 11)
        vp = swap_value(payer, model, flat_curve, 3.2, x)
        vr = swap_value(receiver, model, flat_curve, 3.2, x)
        assert np.array_equal(vp, -vr)

    def test_annuity_decreases_with_time(self, flat_curve, payer_swap):
        values = [annuity(flat_curve, payer_swap, t) for t in (0.0, 2.0, 5.0, 9.9, 10.0)]
        assert all(a > b for a, b in zip(values, values[1:]) if b != 0.0)
        assert values[-1] == 0.0


class TestExposureGrid:
    def test_contains_payment_dates_and_quarters(self):
        grid = make_exposure_grid(10.0)
        assert grid[0] == 0.0 and grid[-1] == 10.0
        for j in range(1, 21):
            assert np.any(np.isclose(grid, j / 2))
        assert np.any(np.isclose(grid, 0.25))

    @pytest.mark.parametrize("frequency", (1, 2, 4))
    def test_holds_every_payment_date_bit_for_bit(self, frequency):
        # Of a swap that ends with the grid, and of one that ends before it.
        longest = make_exposure_grid(100.0)
        for periods in range(1, 100 * frequency + 1):
            spec = SwapSpec(notional=1.0, fixed_rate=0.02, maturity=periods / frequency,
                            frequency=frequency)
            grid = make_exposure_grid(spec.maturity)
            assert len(grid) == 4 * spec.maturity + 1 and grid[-1] == spec.maturity
            assert np.isin(spec.payment_times(), grid).all(), spec.maturity
            assert np.isin(spec.payment_times(), longest).all(), spec.maturity

    def test_near_schedule_maturity_adds_no_points(self):
        near = SwapSpec(notional=1.0, fixed_rate=0.02, maturity=10.0000000001)
        assert np.array_equal(make_exposure_grid(near.maturity), make_exposure_grid(10.0))


class TestExposureProfile:
    def test_sign_split_and_endpoints(self, small_profile):
        ene = small_profile.forward - small_profile.epe
        assert np.all(small_profile.epe >= 0.0)
        assert np.all(ene <= 0.0)
        assert small_profile.epe[0] == 0.0  # payer swap starts out of the money
        assert small_profile.epe[-1] == 0.0
        assert ene[-1] == 0.0

    def test_collateralized_swap_has_zero_profile(self, flat_curve, model, quarterly_grid):
        spec = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, collateralized=True)
        profile = exposure_profile((spec,), model, flat_curve, quarterly_grid)
        assert np.all(profile.epe == 0.0) and np.all(profile.forward == 0.0)

    def test_collateralized_book_is_exactly_zero_through_the_general_path(
            self, monkeypatch, model):
        """No uncollateralized swap: the empty kernel goes through ``positive_mean`` like
        any other book, and every exposure field comes out exactly zero; the collateral is
        the book's discounted mean."""
        book = tuple(replace(s, collateralized=True) for s in MIXED_BOOK)
        priced, positive_mean = [], exposure.positive_mean
        monkeypatch.setattr(exposure, "positive_mean",
                            lambda *args: priced.append(1) or positive_mean(*args))
        profile = exposure_profile(book, model, SLOPED, MIXED_GRID)
        assert priced
        for name in ("epe", "forward", "mean_value_undiscounted"):
            assert np.array_equal(getattr(profile, name), np.zeros(len(MIXED_GRID))), name
        assert np.array_equal(profile.collateral,
                              _netted_plan(book, model, SLOPED, MIXED_GRID).forward)

    def test_zero_vol_in_the_money_receiver(self, flat_curve, quarterly_grid):
        frozen = ShortRateModel(mean_reversion=0.05, sigma=0.0)
        receiver = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False)
        profile = exposure_profile((receiver,), frozen, flat_curve, quarterly_grid)
        expected = np.array(
            [flat_curve.df(t) * swap_value(receiver, frozen, flat_curve, float(t), 0.0)
             for t in quarterly_grid]
        )
        # no spread, so epe is the value itself and the forward less it is 0
        np.testing.assert_allclose(profile.forward - profile.epe, 0.0, atol=1e-13 * 100.0)
        assert np.allclose(profile.epe, expected, rtol=1e-12, atol=1e-12)

    def test_payer_epe_mirrors_receiver_ene(self, flat_curve, model, quarterly_grid):
        payer = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=True)
        receiver = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False)
        a = exposure_profile((payer,), model, flat_curve, quarterly_grid)
        b = exposure_profile((receiver,), model, flat_curve, quarterly_grid)
        assert np.array_equal(a.forward, -b.forward)
        np.testing.assert_allclose(a.epe, b.epe - b.forward, rtol=1e-12, atol=1e-12 * 100.0)

    def test_netted_portfolio_profile(self, flat_curve, model, quarterly_grid):
        # equal and opposite uncollateralized swaps net to nothing
        legs = (
            SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=True),
            SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False),
        )
        profile = exposure_profile(legs, model, flat_curve, quarterly_grid)
        assert np.all(profile.epe == 0.0) and np.all(profile.forward == 0.0)


PROFILE_CASES = {
    "mixed": (MIXED_BOOK, ShortRateModel(0.05, 0.011), SLOPED, MIXED_GRID),
    **{case: (book, model, FLAT, grid) for case, (book, model, grid) in BOOK_CASES.items()},
    "volatile": (LONG_BOOK, ShortRateModel(0.05, 0.3), FLAT, make_exposure_grid(30.0)),
}


def mirrored(book):
    """Each swap of ``book`` with its legs turned round."""
    return tuple(replace(s, payer=not s.payer) for s in book)


class TestProfileProperties:
    """What any book's profile owes to the positive part alone, on books with several
    roots per row: the mixed book, and the long book in its market, at sigma 0.3 and
    stressed."""

    @staticmethod
    def profiles(case, transform=lambda book: book):
        book, model, curve, grid = PROFILE_CASES[case]
        return exposure_profile(transform(book), model, curve, grid), book

    @pytest.mark.parametrize("case", sorted(PROFILE_CASES))
    def test_epe_is_at_least_the_forward_and_nothing_at_the_end(self, case):
        """``E[k+] >= max(E[k], 0)``, with room to spare once the factor spreads, and no
        exposure once the last swap has paid."""
        profile, book = self.profiles(case)
        tol = 1e-12 * sum(s.notional for s in book)
        assert np.all(profile.epe >= np.maximum(profile.forward, 0.0) - tol)
        assert profile.epe[-1] == 0.0 and profile.forward[-1] == 0.0
        assert np.all(profile.epe[1:-1] > np.maximum(profile.forward[1:-1], 0.0) + tol)

    @pytest.mark.parametrize("case", sorted(PROFILE_CASES))
    def test_the_mirrored_book_trades_epe_for_ene(self, case):
        """Turning every swap round negates the kernel: its EPE is the book's ENE turned
        round, so the two EPEs differ by the book's forward."""
        profile, book = self.profiles(case)
        mirror, _ = self.profiles(case, mirrored)
        assert np.array_equal(mirror.forward, -profile.forward)
        np.testing.assert_allclose(profile.epe - mirror.epe, profile.forward, rtol=1e-12,
                                   atol=1e-12 * sum(s.notional for s in book))

    @pytest.mark.parametrize("case", sorted(PROFILE_CASES))
    def test_netting_never_adds_exposure(self, case):
        """``(a + b)+ <= a+ + b+``: the netted EPE is at most the sum of the swaps' own,
        and below it where a payer and a receiver offset."""
        profile, book = self.profiles(case)
        _, model, curve, grid = PROFILE_CASES[case]
        alone = sum(exposure_profile((s,), model, curve, grid).epe for s in book)
        tol = 1e-12 * sum(s.notional for s in book)
        assert np.all(profile.epe <= alone + tol)
        assert np.any(profile.epe < 0.9 * alone)

    def test_a_scaled_book_scales_its_profile(self):
        profile, book = self.profiles("long-book")
        scaled, _ = self.profiles("long-book",
                                  lambda b: tuple(replace(s, notional=2.5 * s.notional)
                                                  for s in b))
        for name in ("epe", "forward", "mean_value_undiscounted"):
            np.testing.assert_allclose(getattr(scaled, name), 2.5 * getattr(profile, name),
                                       rtol=1e-12, atol=1e-12 * 1000.0, err_msg=name)

    def test_the_order_of_the_book_does_not_matter(self):
        profile, book = self.profiles("mixed")
        reordered, _ = self.profiles("mixed", lambda b: b[::-1])
        for name in ("epe", "forward", "mean_value_undiscounted"):
            np.testing.assert_allclose(getattr(reordered, name), getattr(profile, name),
                                       rtol=1e-12, atol=1e-12 * GROSS, err_msg=name)

    def test_a_payers_epe_falls_as_its_fixed_rate_rises(self, model, quarterly_grid):
        epe = [exposure_profile((SwapSpec(notional=100.0, fixed_rate=rate, maturity=10.0),),
                                model, FLAT, quarterly_grid).epe
               for rate in (0.015, 0.02, 0.027)]
        live = slice(1, -1)
        assert np.all(epe[0][live] > epe[1][live]) and np.all(epe[1][live] > epe[2][live])


KERNEL_CASES = {
    "long-book": (LONG_BOOK, make_exposure_grid(30.0)),
    "mixed": (MIXED_BOOK, MIXED_GRID),
}
N_PATHS = 17_384  # of the whole-path means


class TestNettedKernel:
    def test_portfolio_value_matches_per_swap_sum(self, model):
        x = np.random.default_rng(5).normal(0.0, 0.02, 257)
        for t in MIXED_GRID:
            netted = portfolio_value(MIXED_BOOK, model, SLOPED, float(t), x)
            reference = per_swap_sum(MIXED_BOOK, model, SLOPED, float(t), x)
            np.testing.assert_allclose(netted, reference, rtol=1e-12, atol=1e-12 * GROSS)

    def test_kernel_matches_per_swap_revaluation(self, model):
        """The t-forward kernel whose positive part ``exposure_profile`` integrates, at
        sampled factors, against one ``swap_value`` per live swap at the factor shifted by
        ``m_t``, discounted."""
        paths = simulate_paths(model, SLOPED, MIXED_GRID, 257, seed=13)
        kernel = _forward_kernel(_netted_plan(MIXED_BOOK, model, SLOPED, MIXED_GRID), model,
                                 SLOPED, MIXED_GRID)
        dv = book_dv(MIXED_BOOK, model, SLOPED, MIXED_GRID, paths, value=per_swap_sum)
        np.testing.assert_allclose(_revalue(paths.factor.T, kernel), dv, rtol=1e-12,
                                   atol=1e-12 * GROSS)
        assert np.ptp(dv) > 1e-3 * GROSS  # the check has something to find

    @pytest.mark.parametrize("sigma", [0.011, 0.03])
    @pytest.mark.parametrize("case", ["mixed", "long-book"])
    def test_expected_is_the_gaussian_integral_of_the_book(self, case, sigma):
        """``expected`` against Gauss-Hermite quadrature of the per-swap values over
        ``x_t ~ N(0, sigma^2 (1 - exp(-2 a t)) / 2a)``, at every grid row."""
        book, grid = KERNEL_CASES[case]
        model = ShortRateModel(0.05, sigma)
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        weights = weights / math.sqrt(2.0 * math.pi)
        sd = sigma * np.sqrt(-np.expm1(-0.1 * grid) / 0.1)
        reference = [weights @ per_swap_sum(book, model, SLOPED, float(t), s * nodes)
                     for t, s in zip(grid, sd)]
        gross = sum(s.notional for s in book)
        expected = _netted_plan(book, model, SLOPED, grid).expected
        np.testing.assert_allclose(expected, reference, rtol=1e-12, atol=1e-12 * gross)
        assert np.ptp(expected) > 1e-3 * gross  # the check has something to find

    @staticmethod
    def assert_forward_kernel_integrates_to_forward(case, sigma):
        """The t-forward kernel's mean over ``x_t ~ N(0, sigma^2 (1 - exp(-2 a t)) / 2a)``,
        the factor's law under Q, by Gauss-Hermite quadrature: ``forward`` at every row."""
        book, grid = KERNEL_CASES[case]
        model = ShortRateModel(0.05, sigma)
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        weights = weights / math.sqrt(2.0 * math.pi)
        sd = sigma * np.sqrt(-np.expm1(-0.1 * grid) / 0.1)
        plan = _netted_plan(book, model, SLOPED, grid)
        kernel = _forward_kernel(plan, model, SLOPED, grid)
        mean = _revalue(sd[:, None] * nodes, kernel) @ weights
        gross = sum(s.notional for s in book)
        np.testing.assert_allclose(mean, plan.forward, rtol=1e-12, atol=1e-12 * gross)
        assert np.ptp(plan.forward) > 1e-3 * gross

    @pytest.mark.parametrize("sigma", [0.011, 0.03])
    @pytest.mark.parametrize("case", ["mixed", "long-book"])
    def test_forward_kernel_integrates_to_the_forward(self, case, sigma):
        self.assert_forward_kernel_integrates_to_forward(case, sigma)

    @pytest.mark.parametrize("sigma", [0.011, 0.03])
    @pytest.mark.parametrize("case", ["mixed", "long-book"])
    @pytest.mark.parametrize("defect", ["flipped sign", "B(2t)/2 for B(t)^2"])
    def test_forward_kernel_check_fails_on_a_planted_defect(self, monkeypatch, defect, case,
                                                            sigma):
        drift = ShortRateModel.forward_drift
        defective = {
            "flipped sign": lambda model, t: -drift(model, t),
            "B(2t)/2 for B(t)^2": lambda model, t: (
                -0.5 * model.sigma**2 * model.b_factor(2.0 * np.asarray(t, dtype=float)) / 2.0),
        }[defect]
        monkeypatch.setattr(ShortRateModel, "forward_drift", defective)
        with pytest.raises(AssertionError):
            self.assert_forward_kernel_integrates_to_forward(case, sigma)

    @pytest.mark.parametrize("sigma", [0.011, 0.03])
    @pytest.mark.parametrize("case", ["mixed", "long-book"])
    def test_whole_path_undiscounted_mean_matches_expected(self, case, sigma):
        """The capital rules read ``expected`` as the book's mean MtM: the mean
        undiscounted value of whole paths must lie within 4 s.e. of it at every row."""
        book, grid = KERNEL_CASES[case]
        model = ShortRateModel(0.05, sigma)
        paths = simulate_paths(model, SLOPED, grid, N_PATHS, seed=67)
        values = np.array([portfolio_value(book, model, SLOPED, float(t), paths.factor[:, k])
                           for k, t in enumerate(grid)])
        se = values.std(axis=1, ddof=1) / math.sqrt(N_PATHS)
        error = np.abs(values.mean(axis=1) - _netted_plan(book, model, SLOPED, grid).expected)
        gross = sum(s.notional for s in book)
        assert np.all(error <= 4 * se + 1e-12 * gross), np.max(error / (se + 1e-300))

    def test_collateral_is_the_posted_books_discounted_mean(self, model):
        posted = (SwapSpec(notional=90.0, fixed_rate=0.021, maturity=7.0, frequency=4,
                           payer=False, collateralized=True),)
        book = MIXED_BOOK + posted
        joint = exposure_profile(book, model, SLOPED, MIXED_GRID)
        alone = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID)
        assert np.array_equal(alone.collateral, np.zeros(len(MIXED_GRID)))
        expected = [forward_value(posted, SLOPED, t) for t in MIXED_GRID]
        np.testing.assert_allclose(joint.collateral, expected, rtol=1e-12, atol=1e-12 * 90.0)
        joint.collateral = alone.collateral  # the posted book is never revalued
        assert_identical(joint, alone)

    @pytest.mark.parametrize("case", ["mixed", "long-book"])
    def test_whole_path_mean_matches_the_forward(self, model, case):
        """A wrong ``forward`` would bias the ENE silently: the mean discounted value of
        whole paths must lie within 4 s.e. of it at every row."""
        book, grid = KERNEL_CASES[case]
        paths = simulate_paths(model, SLOPED, grid, N_PATHS, seed=59)
        dv = book_dv(book, model, SLOPED, grid, paths)
        se = dv.std(axis=1, ddof=1) / math.sqrt(N_PATHS)
        error = np.abs(dv.mean(axis=1) - _netted_plan(book, model, SLOPED, grid).forward)
        gross = sum(s.notional for s in book)
        assert np.all(error <= 4 * se + 1e-12 * gross), np.max(error / (se + 1e-300))

    def test_row_positive_on_every_path_is_the_forward(self, model, quarterly_grid):
        # A deep in-the-money receiver: its value is positive on every path until
        # maturity, so its EPE is its discounted mean, to the 1e-11 of a sum of term means.
        receiver = SwapSpec(notional=100.0, fixed_rate=0.2, maturity=10.0, payer=False)
        profile = exposure_profile((receiver,), model, FLAT, quarterly_grid)
        forward = _netted_plan((receiver,), model, FLAT, quarterly_grid).forward
        assert np.array_equal(profile.forward, forward) and np.all(forward >= 0.0)
        np.testing.assert_allclose(profile.epe, forward, rtol=1e-11, atol=0)


def exact_epe(book, model, grid):
    """``(epe, in_money)``: ``E[k_t(X)+]`` and ``P(k_t(X) > 0)`` per row, ``X ~ N(0, v_t)``, by
    16-node Gauss-Legendre on panels of a quarter s.d. over ``12 + max B sd`` s.d. either
    side, with every root of the exact t-forward kernel ``k_t`` (bracketed on a 4001-point
    scan, then ``brentq``) a panel edge, so no panel holds a kink."""
    kernel = _forward_kernel(_netted_plan(book, model, FLAT, grid), model, FLAT, grid)
    sd = np.sqrt(model.variance(grid))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    epe, in_money = np.zeros(len(grid)), np.zeros(len(grid))
    for k in range(len(grid)):
        row = kernel[k:k + 1]

        def value(z):
            return _revalue(sd[k] * np.atleast_1d(z)[None], row)[0]

        if sd[k] == 0.0:
            epe[k], in_money[k] = max(value(0.0)[0], 0.0), float(value(0.0)[0] > 0)
            continue
        reach = 12.0 - row.neg_b.min() * sd[k]
        scan = np.linspace(-reach, reach, 4001)
        signs = np.sign(value(scan))
        roots = [brentq(lambda z: value(z)[0], lo, hi, xtol=1e-15)
                 for lo, hi in zip(scan[:-1][signs[:-1] * signs[1:] < 0],
                                   scan[1:][signs[:-1] * signs[1:] < 0])]
        edges = np.unique(np.concatenate([np.linspace(-reach, reach, int(8 * reach) + 1),
                                          roots]))
        mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
        z = (mid[:, None] + half[:, None] * nodes).ravel()
        w = (half[:, None] * weights).ravel() * np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        values = value(z)
        epe[k], in_money[k] = w @ np.maximum(values, 0.0), w @ (values > 0)
    return epe, in_money


def erf_cdf(z):
    """A planted defect: ``Phi`` as ``(1 + erf(z / sqrt 2)) / 2``, whose sum cancels to 0
    below z of about -8.3, a relative error of 1."""
    return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(z) / math.sqrt(2.0)))


class TestNormalCdf:
    """``normal_cdf``, the one ``Phi`` of ``positive_mean`` and the verifier's Black formula,
    against ``mpmath.ncdf`` from the centre into the far lower tail."""

    POINTS = (-37.0, -20.0, -8.5, -1.0, 0.0, 1.0, 8.5)

    @classmethod
    def assert_matches_mpmath(cls, cdf):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        reference = np.array([float(mp.ncdf(z)) for z in cls.POINTS])
        scalars = [cdf(z) for z in cls.POINTS]
        assert all(np.ndim(v) == 0 for v in scalars)
        np.testing.assert_allclose(scalars, reference, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cdf(np.array(cls.POINTS)), reference, rtol=1e-12, atol=0)

    def test_matches_mpmath_for_floats_and_arrays(self):
        self.assert_matches_mpmath(normal_cdf)

    def test_a_planted_erf_form_fails_it(self):
        with pytest.raises(AssertionError):
            self.assert_matches_mpmath(erf_cdf)

