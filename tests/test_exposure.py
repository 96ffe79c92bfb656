"""Swap valuation and Monte Carlo exposure profiles."""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy.special import ive

from pathsim import simulate_paths
from xvakit import (
    DiscountCurve,
    ShortRateModel,
    SwapSpec,
    exposure_profile,
    make_exposure_grid,
    portfolio_value,
)
from xvakit.exposure import (
    CHUNK_ROWS,
    _block_stats,
    _chebyshev_basis,
    _chebyshev_fit,
    _chebyshev_revalue,
    _chebyshev_terms,
    _netted_plan,
    _reduce,
    _revalue,
)
from xvakit.ratemodel import BLOCK_SIZE, _block_sizes

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
MIXED_GRID = make_exposure_grid(7.0, 4)
GROSS = sum(s.notional for s in MIXED_BOOK)
SLOPED = DiscountCurve((1.0, 5.0, 10.0), (0.01, 0.02, 0.03))

# The benchmark's 30y book, and a stressed one: 3% absolute volatility with
# slow mean reversion moves rates by tens of percent, and a 50y swap carries
# B up to 39, so each block's Chebyshev radius reaches 13 and 40-odd terms.
LONG_BOOK = (
    SwapSpec(notional=100.0, fixed_rate=0.022, maturity=5.0, frequency=4, payer=True),
    SwapSpec(notional=100.0, fixed_rate=0.019, maturity=10.0, frequency=2, payer=False),
    SwapSpec(notional=100.0, fixed_rate=0.024, maturity=20.0, frequency=4, payer=True),
    SwapSpec(notional=100.0, fixed_rate=0.018, maturity=30.0, frequency=4, payer=False),
)
POSTED = (SwapSpec(notional=100.0, fixed_rate=0.021, maturity=30.0, frequency=4, payer=False,
                   collateralized=True),)
PROXY_CASES = {
    "long-book": (LONG_BOOK, ShortRateModel(0.05, 0.011), make_exposure_grid(30.0, 4)),
    "stressed": (LONG_BOOK + (SwapSpec(notional=100.0, fixed_rate=0.025, maturity=50.0),),
                 ShortRateModel(0.01, 0.03), make_exposure_grid(50.0, 2)),
}
FLAT = DiscountCurve.flat(0.02)


def reference_block(model, grid, n_block, seed, block_index, antithetic):
    """Whole-block recursion: grid-major ``(x, y)`` of one block, every row at once."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block_index,)))
    n_steps = len(grid) - 1
    n_draw = n_block // 2 if antithetic else n_block
    z = np.empty((n_steps, 2, n_block))
    z[:, :, :n_draw] = rng.standard_normal((n_draw, n_steps, 2)).transpose(1, 2, 0)
    if antithetic:
        np.negative(z[:, :, :n_draw], out=z[:, :, n_draw:])
    x = np.zeros((len(grid), n_block))
    y = np.zeros((len(grid), n_block))
    for k in range(n_steps):
        dt = grid[k + 1] - grid[k]
        decay, var_x, cov, var_y = model.step_moments(dt)
        l11 = np.sqrt(var_x)
        l21 = cov / l11 if l11 > 0 else 0.0
        l22 = np.sqrt(max(var_y - l21 * l21, 0.0))
        b = float(model.b_factor(dt))
        x[k + 1] = x[k] * decay + l11 * z[k, 0]
        y[k + 1] = y[k] + x[k] * b + l21 * z[k, 0] + l22 * z[k, 1]
    return x, y


def revalue_in_chunks(x, plan, out):
    """``_chebyshev_revalue`` over a whole block, one ``CHUNK_ROWS`` chunk at a time."""
    for k0 in range(0, len(plan), CHUNK_ROWS):
        rows = slice(k0, k0 + CHUNK_ROWS)
        _chebyshev_revalue(x[rows], plan[rows], out[:, rows])


def reference_fit(x, plan, twins):
    """Per-row loop of ``_chebyshev_fit``: each row's nodes valued over its live dates alone."""
    if twins:
        hi = np.maximum(x.max(axis=1), -x.min(axis=1))
        lo = -hi
    else:
        lo, hi = x.min(axis=1), x.max(axis=1)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fit = (half > 0) & (plan.b_max > 0)
    n = _chebyshev_terms(np.max(half * plan.b_max, where=fit, initial=0.0))
    nodes, cosines = _chebyshev_basis(n)
    coef = np.zeros((plan.const.shape[1], len(plan), n))
    for k in range(len(plan)):
        live = plan.neg_b[k] < 0
        const, neg_b, wa = plan.const[k][:, None], plan.neg_b[k][live], plan.wa[k][:, live]
        points = mid[k] + half[k] * nodes if fit[k] else mid[k:k + 1]
        values = const + wa @ np.exp(np.multiply.outer(neg_b, points))
        if fit[k]:
            coef[:, k] = values @ cosines
        else:
            coef[:, k, 0] = 2.0 * values[:, 0]
    return mid, half, coef


def reference_profile(book, model, curve, grid, n_paths, seed, antithetic, posted=()):
    """Whole blocks through simulate, revalue, discount, ``_block_stats`` and ``_reduce``."""
    books = [book, posted] if posted else [book]
    plan = _netted_plan(books, model, curve, grid)
    int_shift = np.asarray(model._integrated_shift(curve, grid))[:, None]
    parts = []
    for idx, size in enumerate(_block_sizes(n_paths)):
        x, y = reference_block(model, grid, size, seed, idx, antithetic)
        values = np.empty((len(books), len(grid), size))
        revalue_in_chunks(x, plan, values)
        discount = np.exp(-(y + int_shift))
        parts.append([_block_stats(v, discount, antithetic) for v in values])
    profile = _reduce([p[0] for p in parts], grid, seed, antithetic)
    if posted:
        profile.collateral = _reduce([p[1] for p in parts], grid, seed, antithetic).mean_value
    return profile


def assert_identical(a, b):
    """Every field of two profiles equal bit for bit, collateral mean included."""
    for field in fields(a):
        u, v = getattr(a, field.name), getattr(b, field.name)
        if field.name == "collateral":
            assert (u is None) == (v is None)
            assert u is None or np.array_equal(u, v)
        elif isinstance(u, np.ndarray):
            assert np.array_equal(u, v), field.name
        else:
            assert u == v, field.name


def per_swap_sum(book, model, curve, t, x):
    """Reference revaluation: one swap_value per live swap."""
    return sum((swap_value(s, model, curve, t, x) for s in book
                if t <= s.maturity + 1e-12), np.zeros_like(x))


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
        assert spec.payment_times()[-1] == 10.0

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
        grid = make_exposure_grid(10.0, 2)
        assert grid[0] == 0.0 and grid[-1] == 10.0
        for j in range(1, 21):
            assert np.any(np.isclose(grid, j / 2))
        assert np.any(np.isclose(grid, 0.25))


class TestExposureProfile:
    def test_sign_split_and_endpoints(self, small_profile):
        assert np.all(small_profile.epe >= 0.0)
        assert np.all(small_profile.ene <= 0.0)
        assert small_profile.epe[0] == 0.0  # payer swap starts out of the money
        assert small_profile.epe[-1] == 0.0
        assert small_profile.ene[-1] == 0.0

    def test_mean_is_sum_of_parts(self, small_profile):
        assert np.array_equal(
            small_profile.mean_value, small_profile.epe + small_profile.ene
        )

    def test_standard_errors_nonnegative(self, small_profile):
        assert np.all(small_profile.se_epe >= 0.0)
        assert np.all(small_profile.se_ene >= 0.0)

    def test_collateralized_swap_has_zero_profile(self, flat_curve, model, quarterly_grid):
        spec = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, collateralized=True)
        profile = exposure_profile(spec, model, flat_curve, quarterly_grid, 100, seed=1)
        assert np.all(profile.epe == 0.0) and np.all(profile.ene == 0.0)

    def test_zero_vol_in_the_money_receiver(self, flat_curve, quarterly_grid):
        frozen = ShortRateModel(mean_reversion=0.05, sigma=0.0)
        receiver = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False)
        profile = exposure_profile(receiver, frozen, flat_curve, quarterly_grid, 2, seed=1)
        expected = np.array(
            [flat_curve.df(t) * swap_value(receiver, frozen, flat_curve, float(t), 0.0)
             for t in quarterly_grid]
        )
        assert np.all(profile.ene == 0.0)
        assert np.allclose(profile.epe, expected, rtol=1e-12, atol=1e-12)

    def test_payer_epe_mirrors_receiver_ene(self, flat_curve, model, quarterly_grid):
        payer = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=True)
        receiver = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False)
        a = exposure_profile(payer, model, flat_curve, quarterly_grid, 2000, seed=7)
        b = exposure_profile(receiver, model, flat_curve, quarterly_grid, 2000, seed=7)
        assert np.array_equal(a.epe, -b.ene)
        assert np.array_equal(a.ene, -b.epe)

    def test_worker_count_invariance(self, model):
        # The tail block (1000 paths) is shorter than a tile and not a multiple of one.
        n_paths = 2 * BLOCK_SIZE + 1000
        a = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, n_paths, seed=3,
                             n_workers=1)
        for workers in (2, 3, 4):
            b = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, n_paths, seed=3,
                                 n_workers=workers)
            for name in ("epe", "ene", "mean_value", "epe_undiscounted",
                         "mean_value_undiscounted", "se_epe", "se_ene"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_odd_path_count_with_antithetic_rejected(self, flat_curve, model, payer_swap):
        with pytest.raises(ValueError):
            exposure_profile(payer_swap, model, flat_curve, [0.0, 1.0], 101, seed=1)

    def test_standard_error_scales_with_paths(self, flat_curve, model, payer_swap, quarterly_grid):
        ratios = []
        for seed in (101, 202, 303):
            small = exposure_profile(payer_swap, model, flat_curve, quarterly_grid,
                                     4000, seed=seed)
            big = exposure_profile(payer_swap, model, flat_curve, quarterly_grid,
                                   8000, seed=seed)
            mask = small.se_epe > 0
            ratios.append(np.median(big.se_epe[mask] / small.se_epe[mask]))
        ratio = float(np.mean(ratios))
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.20)

    def test_netted_portfolio_profile(self, flat_curve, model, quarterly_grid):
        # equal and opposite uncollateralized swaps net to nothing
        legs = (
            SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=True),
            SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False),
        )
        profile = exposure_profile(legs, model, flat_curve, quarterly_grid, 200, seed=2)
        assert np.all(profile.epe == 0.0) and np.all(profile.ene == 0.0)


# Grids of 1 more than a multiple of CHUNK_ROWS rows (a one-row last chunk that
# takes no step), of exactly CHUNK_ROWS rows, of fewer, and a ragged one.
STREAM_CASES = {
    "long-book": (LONG_BOOK, make_exposure_grid(30.0, 4)),
    "mixed": (MIXED_BOOK, MIXED_GRID),
    "mixed-2-chunks-and-1-row": (MIXED_BOOK, MIXED_GRID[:2 * CHUNK_ROWS + 1]),
    "mixed-1-chunk": (MIXED_BOOK, MIXED_GRID[:CHUNK_ROWS]),
    "mixed-short": (MIXED_BOOK, MIXED_GRID[:CHUNK_ROWS - 3]),
}


class TestStreamedBlocks:
    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_profile_matches_whole_block_pipeline(self, model, case, antithetic):
        book, grid = STREAM_CASES[case]
        n_paths = 2 * BLOCK_SIZE + 1000
        streamed = exposure_profile(book + POSTED, model, SLOPED, grid, n_paths, seed=37,
                                    antithetic=antithetic, collateral_book=POSTED)
        whole = reference_profile(book, model, SLOPED, grid, n_paths, 37, antithetic, POSTED)
        assert_identical(streamed, whole)

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_simulate_paths_matches_whole_block_recursion(self, model, antithetic):
        n_paths = BLOCK_SIZE + 1000
        paths = simulate_paths(model, SLOPED, MIXED_GRID, n_paths, seed=41,
                               antithetic=antithetic)
        blocks = [reference_block(model, MIXED_GRID, size, 41, idx, antithetic)
                  for idx, size in enumerate(_block_sizes(n_paths))]
        assert np.array_equal(paths.factor.T, np.hstack([x for x, _ in blocks]))
        int_shift = model._integrated_shift(SLOPED, MIXED_GRID)[:, None]
        discount = np.exp(-(int_shift + np.hstack([y for _, y in blocks])))
        assert np.array_equal(paths.discount.T, discount)

    def test_block_working_set_is_its_draws_and_a_few_chunks(self, model):
        book, grid = STREAM_CASES["long-book"]
        draws = BLOCK_SIZE // 2 * (len(grid) - 1) * 2 * 8  # antithetic: half the paths
        tracemalloc.start()
        try:
            exposure_profile(book + POSTED, model, FLAT, grid, BLOCK_SIZE, seed=43,
                             collateral_book=POSTED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= draws + 16 * CHUNK_ROWS * BLOCK_SIZE * 8, peak / 2**20


class TestNettedKernel:
    def test_portfolio_value_matches_per_swap_sum(self, model):
        x = np.random.default_rng(5).normal(0.0, 0.02, 257)
        for t in MIXED_GRID:
            netted = portfolio_value(MIXED_BOOK, model, SLOPED, float(t), x)
            reference = per_swap_sum(MIXED_BOOK, model, SLOPED, float(t), x)
            np.testing.assert_allclose(netted, reference, rtol=1e-12, atol=1e-12 * GROSS)

    def test_profile_matches_per_swap_revaluation(self, model):
        n_paths = 2 * BLOCK_SIZE + 1000
        profile = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, n_paths, seed=13)
        paths = simulate_paths(model, SLOPED, MIXED_GRID, n_paths, seed=13)
        values = np.array([per_swap_sum(MIXED_BOOK, model, SLOPED, float(t), paths.factor[:, k])
                           for k, t in enumerate(MIXED_GRID)])
        dv = values * paths.discount.T
        expected = {
            "epe": np.maximum(dv, 0.0).mean(axis=1),
            "ene": np.minimum(dv, 0.0).mean(axis=1),
            "epe_undiscounted": np.maximum(values, 0.0).mean(axis=1),
            "mean_value_undiscounted": values.mean(axis=1),
        }
        for name, reference in expected.items():
            np.testing.assert_allclose(getattr(profile, name), reference,
                                       rtol=1e-12, atol=1e-12 * GROSS)

    def test_collateral_book_priced_on_the_same_paths(self, model):
        posted = (SwapSpec(notional=90.0, fixed_rate=0.021, maturity=7.0, frequency=4,
                           payer=False, collateralized=True),)
        book = MIXED_BOOK + posted
        joint = exposure_profile(book, model, SLOPED, MIXED_GRID, 4000, seed=19, n_workers=2,
                                 collateral_book=posted)
        alone = exposure_profile(book, model, SLOPED, MIXED_GRID, 4000, seed=19, n_workers=2)
        # The two-call form: the posted legs re-simulated as an uncollateralized book.
        separate = exposure_profile(tuple(replace(s, collateralized=False) for s in posted),
                                    model, SLOPED, MIXED_GRID, 4000, seed=19)
        assert alone.collateral is None
        np.testing.assert_allclose(joint.collateral, separate.mean_value,
                                   rtol=1e-12, atol=1e-12 * 90.0)
        for name in ("epe", "ene", "mean_value", "se_epe", "se_ene"):
            np.testing.assert_allclose(getattr(joint, name), getattr(alone, name),
                                       rtol=1e-12, atol=1e-12 * GROSS)

    @pytest.mark.parametrize("antithetic", [True, False])
    def test_standard_errors_match_unit_sample_std(self, model, antithetic):
        n_paths = 2 * BLOCK_SIZE + 1000
        profile = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, n_paths, seed=23,
                                   antithetic=antithetic, n_workers=2)
        paths = simulate_paths(model, SLOPED, MIXED_GRID, n_paths, seed=23,
                               antithetic=antithetic)
        dv = np.array([portfolio_value(MIXED_BOOK, model, SLOPED, float(t), paths.factor[:, k])
                       for k, t in enumerate(MIXED_GRID)]) * paths.discount.T
        for name, part in (("se_epe", np.maximum(dv, 0.0)), ("se_ene", np.minimum(dv, 0.0))):
            units = part
            if antithetic:  # twins are the two halves of each block
                blocks = np.split(part, [BLOCK_SIZE, 2 * BLOCK_SIZE], axis=1)
                units = np.hstack([0.5 * (b[:, :b.shape[1] // 2] + b[:, b.shape[1] // 2:])
                                   for b in blocks])
            expected = units.std(axis=1, ddof=1) / math.sqrt(units.shape[1])
            np.testing.assert_allclose(getattr(profile, name), expected, rtol=1e-12, atol=1e-15)
            # Every path starts at the same value, so the error there is exactly 0.
            assert getattr(profile, name)[0] == 0.0

    @staticmethod
    def proxy_block(book, model, grid, antithetic, seed=29):
        """One block's paths, its netted plan (book and posted rows) and the proxy values."""
        x, _ = reference_block(model, grid, BLOCK_SIZE, seed, 0, antithetic)
        plan = _netted_plan([book, POSTED], model, FLAT, grid)
        proxy = np.empty((2, len(grid), BLOCK_SIZE))
        revalue_in_chunks(x, plan, proxy)
        return x, plan, proxy

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    def test_chebyshev_proxy_matches_exact_kernel(self, case, antithetic):
        x, plan, proxy = self.proxy_block(*PROXY_CASES[case], antithetic)
        for k in range(len(plan)):
            point = plan[k:k + 1]
            const, neg_b, wa = point.const[0], point.neg_b[0], point.wa[0]
            # The exact kernel's own rounding: each exp(-B x) holds about
            # (1 + B |x|) ulps of its value, and every term is largest at the
            # low end of the row's range.  In the long book that scale is
            # within 1.5x of the gross notional.
            scale = np.abs(const) + np.abs(wa) @ np.exp(neg_b * x[k].min())
            scale *= 1.0 + np.abs(neg_b).max(initial=0.0) * np.abs(x[k]).max()
            error = np.abs(proxy[:, k] - _revalue(x[k:k + 1], point)[:, 0]).max(axis=1)
            assert np.all(error <= 8 * 2.0**-52 * scale), (k, error / scale / 2.0**-52)

    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    def test_twins_written_from_the_drawn_half_are_its_negation(self, case):
        # Into an out twice as wide as x, the second half holds the paths at
        # -x: bit for bit what revaluing the explicit twins gives.
        book, model, grid = PROXY_CASES[case]
        x, _ = reference_block(model, grid, 2048, 31, 0, antithetic=False)
        assert not x[0].any()  # the first chunk holds a row with h = 0
        plan = _netted_plan([book, POSTED], model, FLAT, grid)
        for k0 in range(0, len(grid), CHUNK_ROWS):
            rows = slice(k0, k0 + CHUNK_ROWS)
            twins = np.empty((2, len(plan[rows]), 2 * x.shape[1]))
            _chebyshev_revalue(x[rows], plan[rows], twins)
            explicit = np.empty_like(twins)
            _chebyshev_revalue(np.hstack([x[rows], -x[rows]]), plan[rows], explicit)
            assert np.array_equal(twins, explicit), k0

    @pytest.mark.parametrize("antithetic", [True, False])
    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    def test_batched_fit_matches_the_per_row_loop(self, case, antithetic):
        book, model, grid = PROXY_CASES[case]
        x, _ = reference_block(model, grid, BLOCK_SIZE, 47, 0, antithetic)
        x = x[:, :BLOCK_SIZE // 2] if antithetic else x  # the drawn half; twins are -x
        plan = _netted_plan([book, POSTED], model, FLAT, grid)
        gross = sum(s.notional for s in book + POSTED)
        for k0 in range(0, len(grid), CHUNK_ROWS):
            rows = slice(k0, k0 + CHUNK_ROWS)
            mid, half, coef = _chebyshev_fit(x[rows], plan[rows], antithetic)
            ref_mid, ref_half, ref_coef = reference_fit(x[rows], plan[rows], antithetic)
            assert np.array_equal(mid, ref_mid) and np.array_equal(half, ref_half)
            assert coef.shape == ref_coef.shape
            # Only the summation order of the node values differs, so the
            # coefficients agree to a few ulps of the row's largest term,
            # which sits at the low end of its range.  In the long book that
            # is within 1.5x the gross notional.
            point = plan[rows]
            terms = np.abs(point.wa) @ np.exp(point.neg_b * (mid - half)[:, None])[..., None]
            scale = np.maximum(np.abs(point.const) + terms[..., 0], gross).T
            error = np.abs(coef - ref_coef).max(axis=2)
            assert np.all(error <= 4 * 2.0**-52 * scale), (k0, (error / scale).max() / 2.0**-52)
            if case == "long-book":
                assert error.max() <= 2 * 2.0**-52 * gross, (k0, error.max() / gross / 2.0**-52)

    def test_start_of_the_long_book_has_zero_standard_error(self, model):
        book, _, grid = PROXY_CASES["long-book"]
        profile = exposure_profile(book + POSTED, model, FLAT, grid, 4000, seed=53, n_workers=2,
                                   collateral_book=POSTED)
        assert profile.se_epe[0] == 0.0 and profile.se_ene[0] == 0.0

    def test_overflowing_range_is_not_fitted(self, model):
        # B h past log(largest float): the exact kernel overflows there too, so
        # no fit (of some 1300 terms here) is attempted and the values are NaN.
        plan = _netted_plan([LONG_BOOK], model, FLAT, [0.0, 1.0])
        x = np.array([[0.0, 0.0], [-60.0, 60.0]])
        assert _chebyshev_fit(x, plan, twins=False)[2] is None
        out = np.zeros((1, 2, 2))
        _chebyshev_revalue(x, plan, out)
        assert np.isnan(out).all()

    def test_rows_with_nothing_to_fit_are_exact(self, model):
        x, plan, proxy = self.proxy_block(*PROXY_CASES["long-book"], antithetic=True)
        # t = 0: every path sits at x = 0; at 30y no date is live.
        for k in (0, len(plan) - 1):
            assert np.all(proxy[:, k] == _revalue(x[k:k + 1, :1], plan[k:k + 1])[:, 0])
        frozen = ShortRateModel(mean_reversion=0.05, sigma=0.0)
        x, plan, proxy = self.proxy_block(LONG_BOOK, frozen, MIXED_GRID, antithetic=False)
        assert not x.any()
        for k in range(len(plan)):
            assert np.all(proxy[:, k] == _revalue(np.zeros((1, 1)), plan[k:k + 1])[:, 0])

    def test_term_count_is_the_smallest_meeting_the_bessel_bound(self):
        def bound(r, n):
            q = r / (2.0 * (n + 1))
            if q >= 1:
                return math.inf
            return (2.0 * (r / 2.0) ** n * math.exp(r * r / (4.0 * (n + 1)))
                    / (math.factorial(n) * (1.0 - q)))

        assert _chebyshev_terms(0.0) == 1
        for r in (1e-3, 0.3, 1.25, 4.0, 13.0, 40.0):
            n = _chebyshev_terms(r)
            assert bound(r, n) <= 2.0**-53 < bound(r, n - 1), r

    def test_term_count_never_below_the_exact_bessel_tail(self):
        # 2 sum_{m>=n} I_m(r) is the exact truncation error relative to the
        # centre value; the count must make it at most 2^-53.
        def exact_tail(r, n):
            return 2.0 * math.exp(r) * ive(np.arange(n, n + 200), r).sum()

        for r in np.linspace(0.1, 20.0, 400):
            n = _chebyshev_terms(r)
            assert exact_tail(r, n) <= 2.0**-53, r
        # at these radii the bound is tight: one term fewer breaks the tolerance
        for r, n in ((1, 15), (2, 19), (3, 22), (5, 27), (8, 33), (13, 42)):
            assert _chebyshev_terms(r) == n
            assert exact_tail(r, n - 1) > 2.0**-53, r

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_radius_raises(self, radius):
        with pytest.raises(ValueError, match="finite"):
            _chebyshev_terms(radius)

    def test_non_finite_path_gives_nan(self, model):
        # As an overflowing radius does: the run refuses the profile as a
        # diagnostic on sigma instead of failing inside the fit.
        plan = _netted_plan([LONG_BOOK], model, FLAT, [0.0, 1.0])
        x = np.array([[0.0, 0.0], [0.01, np.inf]])
        out = np.zeros((1, 2, 2))
        _chebyshev_revalue(x, plan, out)
        assert np.isnan(out).all()
