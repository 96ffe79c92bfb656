"""Swap valuation and Monte Carlo exposure profiles."""

import functools
import math
import threading
import tracemalloc
import weakref
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import factorial, gammainc, ndtr

from pathsim import block_rng, forward_mean, shared_normal, simulate_paths
from xvakit import (
    DiscountCurve,
    ExposureProfile,
    ShortRateModel,
    SwapSpec,
    exposure,
    exposure_profile,
    make_exposure_grid,
    portfolio_value,
    ratemodel,
    runner,
)
from xvakit.config import load_config
from xvakit.exposure import (
    CHUNK_ROWS,
    _bachelier,
    _block_stats,
    _forward_kernel,
    _merge_moments,
    _moments,
    _netted_plan,
    _NettedPlan,
    _pair_positive,
    _reduce,
    _revalue,
    _taylor_coefficients,
    _taylor_revalue,
    _taylor_terms,
    normal_cdf,
)
from xvakit.ratemodel import BLOCK_SIZE, _block_sizes, _simulate_block
from xvakit.xva import breakdown


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
# B up to 39, so each block's Taylor radius reaches 13 and 60-odd terms.
LONG_BOOK = (
    SwapSpec(notional=100.0, fixed_rate=0.022, maturity=5.0, frequency=4, payer=True),
    SwapSpec(notional=100.0, fixed_rate=0.019, maturity=10.0, frequency=2, payer=False),
    SwapSpec(notional=100.0, fixed_rate=0.024, maturity=20.0, frequency=4, payer=True),
    SwapSpec(notional=100.0, fixed_rate=0.018, maturity=30.0, frequency=4, payer=False),
)
POSTED = (SwapSpec(notional=100.0, fixed_rate=0.021, maturity=30.0, frequency=4, payer=False,
                   collateralized=True),)
PROXY_CASES = {
    "long-book": (LONG_BOOK, ShortRateModel(0.05, 0.011), make_exposure_grid(30.0)),
    "stressed": (LONG_BOOK + (SwapSpec(notional=100.0, fixed_rate=0.025, maturity=50.0),),
                 ShortRateModel(0.01, 0.03), make_exposure_grid(50.0)),
}
FLAT = DiscountCurve((50.0,), (0.02,))


def reference_block(model, grid, n_block, seed, block_index):
    """Whole-block draw: the grid-major factor of one block, every row at once.

    One ``(rows, paths / 2)`` draw, each row scaled by ``sqrt(v_t)``, the factor's
    standard deviation at its time, then the antithetic twins, its negation.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block_index,)))
    z = rng.standard_normal((len(grid), n_block // 2))
    return np.sqrt(model.variance(grid))[:, None] * np.hstack([z, -z])


def revalue_in_chunks(x, plan, out):
    """``_taylor_revalue`` of a block's drawn half ``x`` into ``out`` ``(2, rows, pairs)``,
    one ``CHUNK_ROWS`` chunk at a time."""
    for k0 in range(0, len(plan.const), CHUNK_ROWS):
        rows = slice(k0, k0 + CHUNK_ROWS)
        _taylor_revalue(x[rows], plan[rows], out[:, rows])


def pair_values(parts):
    """The values ``(rows, 2 pairs)`` at a block's drawn paths, then at their twins:
    ``E + O`` and ``E - O``."""
    odd, even = parts
    return np.hstack([even + odd, even - odd])


def twins_as_units(parts):
    """A planted defect: ``_block_stats`` reducing each pair's two values ``E ± O`` as
    independent units, each less the linear book's pair mean ``L``."""
    values, linear = pair_values(parts[:2]), np.hstack([parts[2], parts[2]])
    return _moments(np.stack([np.maximum(values, 0.0) - linear, values]))


def linear_book(kernel, model, grid):
    """``(a, b, sd)``: each row's delta-normal book ``a + b x``, the t-forward kernel and its
    slope at the factor's mean 0, and the factor's s.d.  ``a = b = 0`` on rows where ``|a|``
    passes ``_REACH`` s.d. of the book, or the largest ``B x`` spreads past ``_MAX_SPREAD``."""
    sd = np.sqrt(model.variance(grid))
    a = kernel.const + kernel.wa.sum(axis=1)
    b = np.sum(kernel.wa * kernel.neg_b, axis=1)
    off = ((np.abs(a) > exposure._REACH * np.abs(b) * sd)
           | (kernel.b_max * sd > exposure._MAX_SPREAD))
    a, b = np.where(off, 0.0, (a, b))
    return a, b, sd


def normal_call(a, b, sd, defect=None):
    """``E[(a + b X)+]``, ``X ~ N(0, sd^2)``, from scipy's normal law: the reference mean of
    the linear book's positive part.  ``defect`` plants one: ``"phi dropped"`` (the ``s
    phi(a/s)`` term), ``"Phi negated"`` (its argument) or ``"s signed"`` (``s = b sd``)."""
    s = b * sd if defect == "s signed" else np.abs(b) * sd
    z = np.divide(a, s, out=np.zeros_like(s), where=s > 0)
    density = 0.0 if defect == "phi dropped" else s * np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    cdf = ndtr(-z if defect == "Phi negated" else z)
    return np.where(s > 0, a * cdf + density, np.maximum(a, 0.0))


def reference_profile(book, model, curve, grid, n_paths, seed, posted=()):
    """Whole blocks of the uncollateralized ``book`` through simulate, revalue on the
    t-forward kernel, the linear book's pair means, ``_block_stats`` and ``_reduce``; the
    ``posted`` book's discounted mean from its plan alone."""
    kernel = _forward_kernel(_netted_plan(book, model, curve, grid), model, curve, grid)
    a, b, sd = linear_book(kernel, model, grid)
    moments = []
    for idx, size in enumerate(_block_sizes(n_paths)):
        x = reference_block(model, grid, size, seed, idx)[:, :size // 2]
        parts = np.empty((3, *x.shape))
        revalue_in_chunks(x, kernel, parts[:2])
        _pair_positive(np.multiply(b[:, None], x, out=parts[2]), a[:, None])
        moments.append(_block_stats(parts))
    epe, se_epe = _reduce(moments, kernel.forward, _bachelier(a, b, sd))
    return ExposureProfile(grid=grid, epe=epe, forward=kernel.forward,
                           mean_value_undiscounted=kernel.expected, se_epe=se_epe,
                           collateral=_netted_plan(posted, model, curve, grid).forward)


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


def pair_units(part, n_paths):
    """Sampling units of whole-path rows: the means of each block's two halves (a drawn
    path and its twin)."""
    blocks = np.split(part, np.cumsum(_block_sizes(n_paths))[:-1], axis=1)
    return np.hstack([0.5 * (b[:, :b.shape[1] // 2] + b[:, b.shape[1] // 2:]) for b in blocks])


def control_variate(dv, n_paths, forward, linear, linear_mean):
    """Whole-path reference of the profile's estimator, with ``l = linear`` the delta-normal
    book on the same paths and ``linear_mean`` the mean of ``l+``: ``epe = mean(dv+ - l+) -
    beta (mean(dv) - forward) + linear_mean`` with ``beta = C(dv+ - l+, dv) / M2(dv)`` over
    the ``m`` pairs (0 where ``M2(dv)`` is), and the residual's standard error
    ``sqrt((M2(dv+ - l+) - beta C) / ((m - 2) m))``."""
    pos = np.maximum(dv, 0.0) - np.maximum(linear, 0.0)
    cp, cv = (u - u.mean(axis=1, keepdims=True)
              for u in (pair_units(pos, n_paths), pair_units(dv, n_paths)))
    m2_v, cov, m = (cv * cv).sum(axis=1), (cp * cv).sum(axis=1), cp.shape[1]
    beta = np.divide(cov, m2_v, out=np.zeros_like(cov), where=m2_v > 0)
    residual = np.maximum((cp * cp).sum(axis=1) - beta * cov, 0.0)
    return (pos.mean(axis=1) - beta * (dv.mean(axis=1) - forward) + linear_mean,
            np.sqrt(residual / ((m - 2) * m)))


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

    def test_standard_errors_nonnegative(self, small_profile):
        assert np.all(small_profile.se_epe >= 0.0)

    def test_collateralized_swap_has_zero_profile(self, flat_curve, model, quarterly_grid):
        spec = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, collateralized=True)
        profile = exposure_profile((spec,), model, flat_curve, quarterly_grid, 100, seed=1,
                                   engine="mc")
        assert np.all(profile.epe == 0.0) and np.all(profile.forward == 0.0)

    def test_collateralized_book_is_exactly_zero_through_the_general_path(
            self, monkeypatch, model):
        """No uncollateralized swap: every path is simulated, revalued and reduced like any
        other book, and every exposure field comes out exactly zero; the collateral is the
        book's discounted mean."""
        book = tuple(replace(s, collateralized=True) for s in MIXED_BOOK)
        reduced = []
        monkeypatch.setattr(exposure, "_block_stats",
                            lambda *args: reduced.append(1) or _block_stats(*args))
        profile = exposure_profile(book, model, SLOPED, MIXED_GRID, 2 * BLOCK_SIZE + 1000,
                                   seed=29, n_workers=2, engine="mc")
        assert reduced
        for name in ("epe", "forward", "mean_value_undiscounted", "se_epe"):
            assert np.array_equal(getattr(profile, name), np.zeros(len(MIXED_GRID))), name
        assert np.array_equal(profile.collateral,
                              _netted_plan(book, model, SLOPED, MIXED_GRID).forward)

    def test_zero_vol_in_the_money_receiver(self, flat_curve, quarterly_grid):
        frozen = ShortRateModel(mean_reversion=0.05, sigma=0.0)
        receiver = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False)
        profile = exposure_profile((receiver,), frozen, flat_curve, quarterly_grid, 6, seed=1,
                                   engine="mc")
        expected = np.array(
            [flat_curve.df(t) * swap_value(receiver, frozen, flat_curve, float(t), 0.0)
             for t in quarterly_grid]
        )
        # every path agrees, so epe is the value itself and the forward less it is 0
        np.testing.assert_allclose(profile.forward - profile.epe, 0.0, atol=1e-13 * 100.0)
        assert np.allclose(profile.epe, expected, rtol=1e-12, atol=1e-12)

    def test_payer_epe_mirrors_receiver_ene(self, flat_curve, model, quarterly_grid):
        payer = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=True)
        receiver = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, payer=False)
        a = exposure_profile((payer,), model, flat_curve, quarterly_grid, 2000, seed=7,
                             engine="mc")
        b = exposure_profile((receiver,), model, flat_curve, quarterly_grid, 2000, seed=7,
                             engine="mc")
        assert np.array_equal(a.forward, -b.forward)
        np.testing.assert_allclose(a.epe, b.epe - b.forward, rtol=1e-12, atol=1e-12 * 100.0)

    def test_worker_count_invariance(self, model):
        # The tail block (1000 paths) is shorter than a tile and not a multiple of one.
        n_paths = 2 * BLOCK_SIZE + 1000
        a = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, n_paths, seed=3,
                             n_workers=1, engine="mc")
        for workers in (2, 3, 4):
            b = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, n_paths, seed=3,
                                 n_workers=workers, engine="mc")
            for name in ("epe", "forward", "mean_value_undiscounted", "se_epe"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("n_paths", [4, 101])
    def test_odd_or_too_few_paths_rejected(self, flat_curve, model, payer_swap, n_paths):
        with pytest.raises(ValueError, match="even and >= 6"):
            exposure_profile((payer_swap,), model, flat_curve, [0.0, 1.0], n_paths, seed=1,
                             engine="mc")

    def test_standard_error_scales_with_paths(self, flat_curve, model, payer_swap, quarterly_grid):
        ratios = []
        for seed in (101, 202, 303):
            small = exposure_profile((payer_swap,), model, flat_curve, quarterly_grid,
                                     4000, seed=seed, engine="mc")
            big = exposure_profile((payer_swap,), model, flat_curve, quarterly_grid,
                                   8000, seed=seed, engine="mc")
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
        profile = exposure_profile(legs, model, flat_curve, quarterly_grid, 200, seed=2,
                                   engine="mc")
        assert np.all(profile.epe == 0.0) and np.all(profile.forward == 0.0)


# Grids of 1 more than a multiple of CHUNK_ROWS rows (a one-row last chunk), of
# exactly CHUNK_ROWS rows, of fewer, and a ragged one.
STREAM_CASES = {
    "long-book": (LONG_BOOK, make_exposure_grid(30.0)),
    "mixed": (MIXED_BOOK, MIXED_GRID),
    "mixed-2-chunks-and-1-row": (MIXED_BOOK, MIXED_GRID[:2 * CHUNK_ROWS + 1]),
    "mixed-1-chunk": (MIXED_BOOK, MIXED_GRID[:CHUNK_ROWS]),
    "mixed-short": (MIXED_BOOK, MIXED_GRID[:CHUNK_ROWS - 3]),
}


class TestStreamedBlocks:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_profile_matches_whole_block_pipeline(self, model, case, workers):
        book, grid = STREAM_CASES[case]
        n_paths = 2 * BLOCK_SIZE + 1000
        streamed = exposure_profile(book + POSTED, model, SLOPED, grid, n_paths, seed=37,
                                    n_workers=workers, engine="mc")
        whole = reference_profile(book, model, SLOPED, grid, n_paths, 37, POSTED)
        assert_identical(streamed, whole)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_simulate_paths_matches_whole_block_draw(self, model, workers):
        n_paths = BLOCK_SIZE + 1000
        paths = simulate_paths(model, SLOPED, MIXED_GRID, n_paths, seed=41, n_workers=workers)
        blocks = [reference_block(model, MIXED_GRID, size, 41, idx)
                  for idx, size in enumerate(_block_sizes(n_paths))]
        assert np.array_equal(paths.factor.T, np.hstack(blocks))

    def test_block_working_set_is_its_draws_and_a_few_chunks(self, model):
        # Normals are drawn a chunk at a time, so no block-sized array is held.
        book, grid = STREAM_CASES["long-book"]
        tracemalloc.start()
        try:
            exposure_profile(book + POSTED, model, FLAT, grid, BLOCK_SIZE, seed=43, engine="mc")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * CHUNK_ROWS * BLOCK_SIZE * 8, peak / 2**20

    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_chunked_draws_equal_the_whole_block(self, model, case):
        """``exposure_profile`` draws ``CHUNK_ROWS`` rows at a time; the paths are bit for
        bit those of one whole-block call."""
        _, grid = STREAM_CASES[case]
        sd, n = np.sqrt(model.variance(grid)), 1000
        whole = np.empty((len(grid), n))
        _simulate_block(sd, block_rng(43, 1), 0, whole)
        rng = block_rng(43, 1)
        x = np.empty((CHUNK_ROWS, n))
        for k0 in range(0, len(grid), CHUNK_ROWS):
            rows = min(CHUNK_ROWS, len(grid) - k0)
            _simulate_block(sd, rng, k0, x)
            assert np.array_equal(x[:rows], whole[k0:k0 + rows]), k0
        assert whole[-1].any()  # the last row was drawn


    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_blocks_are_folded_as_they_finish(self, monkeypatch, model, workers):
        """Hundreds of blocks, yet only the few in flight hold their results at once."""
        monkeypatch.setattr(ratemodel, "BLOCK_SIZE", 64)
        live, peak, lock = set(), [0], threading.RLock()

        def tracked(fn):
            def run(idx, size):
                result = fn(idx, size)
                with lock:
                    live.add(idx)
                    peak[0] = max(peak[0], len(live))
                weakref.finalize(result[1], lambda: live.discard(idx))
                return result
            return run

        monkeypatch.setattr(exposure, "map_blocks",
                            lambda fn, *args: ratemodel.map_blocks(tracked(fn), *args))
        n_paths = 300 * 64
        profile = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, n_paths, seed=71,
                                   n_workers=workers, engine="mc")
        assert not live
        assert peak[0] <= 2 * workers + 2, peak[0]


class TestNettedKernel:
    def test_portfolio_value_matches_per_swap_sum(self, model):
        x = np.random.default_rng(5).normal(0.0, 0.02, 257)
        for t in MIXED_GRID:
            netted = portfolio_value(MIXED_BOOK, model, SLOPED, float(t), x)
            reference = per_swap_sum(MIXED_BOOK, model, SLOPED, float(t), x)
            np.testing.assert_allclose(netted, reference, rtol=1e-12, atol=1e-12 * GROSS)

    def test_profile_matches_per_swap_revaluation(self, model):
        n_paths = 2 * BLOCK_SIZE + 1000
        profile = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, n_paths, seed=13,
                                   engine="mc")
        paths = simulate_paths(model, SLOPED, MIXED_GRID, n_paths, seed=13)
        dv = book_dv(MIXED_BOOK, model, SLOPED, MIXED_GRID, paths, value=per_swap_sum)
        forward = np.array([forward_value(MIXED_BOOK, SLOPED, t) for t in MIXED_GRID])
        kernel = _forward_kernel(_netted_plan(MIXED_BOOK, model, SLOPED, MIXED_GRID), model,
                                 SLOPED, MIXED_GRID)
        a, b, sd = linear_book(kernel, model, MIXED_GRID)
        linear = a[:, None] + b[:, None] * paths.factor.T
        assert b.any() and not b.all()  # the control is on at some rows and off at others
        epe, _ = control_variate(dv, n_paths, forward, linear, normal_call(a, b, sd))
        np.testing.assert_allclose(profile.epe, epe, rtol=1e-12, atol=1e-12 * GROSS)

    @pytest.mark.parametrize("sigma", [0.011, 0.03])
    @pytest.mark.parametrize("case", ["mixed", "long-book"])
    def test_expected_is_the_gaussian_integral_of_the_book(self, case, sigma):
        """``expected`` against Gauss-Hermite quadrature of the per-swap values over
        ``x_t ~ N(0, sigma^2 (1 - exp(-2 a t)) / 2a)``, at every grid row."""
        book, grid = STREAM_CASES[case]
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
        book, grid = STREAM_CASES[case]
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
        book, grid = STREAM_CASES[case]
        model = ShortRateModel(0.05, sigma)
        n_paths = 2 * BLOCK_SIZE + 1000
        paths = simulate_paths(model, SLOPED, grid, n_paths, seed=67)
        values = np.array([portfolio_value(book, model, SLOPED, float(t), paths.factor[:, k])
                           for k, t in enumerate(grid)])
        units = pair_units(values, n_paths)
        se = units.std(axis=1, ddof=1) / math.sqrt(units.shape[1])
        error = np.abs(units.mean(axis=1) - _netted_plan(book, model, SLOPED, grid).expected)
        gross = sum(s.notional for s in book)
        assert np.all(error <= 4 * se + 1e-12 * gross), np.max(error / (se + 1e-300))

    def test_collateral_is_the_posted_books_discounted_mean(self, model):
        posted = (SwapSpec(notional=90.0, fixed_rate=0.021, maturity=7.0, frequency=4,
                           payer=False, collateralized=True),)
        book = MIXED_BOOK + posted
        joint = exposure_profile(book, model, SLOPED, MIXED_GRID, 4000, seed=19, n_workers=2,
                                 engine="mc")
        alone = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, 4000, seed=19,
                                 n_workers=2, engine="mc")
        assert np.array_equal(alone.collateral, np.zeros(len(MIXED_GRID)))
        expected = [forward_value(posted, SLOPED, t) for t in MIXED_GRID]
        np.testing.assert_allclose(joint.collateral, expected, rtol=1e-12, atol=1e-12 * 90.0)
        joint.collateral = alone.collateral  # the posted book is never revalued on a path
        assert_identical(joint, alone)

    @pytest.mark.parametrize("sigma", [0.011, 0.03])
    def test_single_payer_epe_matches_its_closed_form(self, sigma):
        """The one-root closed form (``payer_epe``) against the Monte Carlo ``epe``:
        within 4 s.e. at every grid row, so a biased forward kernel shows."""
        swap = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, frequency=2)
        model, grid = ShortRateModel(0.05, sigma), make_exposure_grid(10.0)
        profile = exposure_profile((swap,), model, SLOPED, grid, 2 * BLOCK_SIZE + 1000,
                                   seed=2024, engine="mc")
        exact = payer_epe(swap, model, SLOPED, grid)
        error = np.abs(profile.epe - exact)
        assert np.all(error <= 4 * profile.se_epe + 1e-12 * swap.notional), \
            np.max(error / (profile.se_epe + 1e-300))
        assert exact.max() > 1.0  # the swap has exposure to find

    def test_standard_errors_match_unit_sample_std(self, model):
        n_paths = 2 * BLOCK_SIZE + 1000
        profile = exposure_profile(MIXED_BOOK, model, SLOPED, MIXED_GRID, n_paths, seed=23,
                                   n_workers=2, engine="mc")
        paths = simulate_paths(model, SLOPED, MIXED_GRID, n_paths, seed=23)
        # The t-forward kernel's proxy, fitted per block as the profile fits it: on
        # antithetic pairs ``v`` is nearly constant, so ``beta`` and the residual move
        # by some 1e-12 of themselves when the values move by an ulp or so.
        kernel = _forward_kernel(_netted_plan(MIXED_BOOK, model, SLOPED, MIXED_GRID), model,
                                 SLOPED, MIXED_GRID)
        dv = np.empty((len(MIXED_GRID), n_paths))
        edges = np.cumsum([0, *_block_sizes(n_paths)])
        for lo, hi in zip(edges[:-1], edges[1:]):
            parts = np.empty((2, len(MIXED_GRID), (hi - lo) // 2))
            revalue_in_chunks(paths.factor.T[:, lo:lo + parts.shape[-1]], kernel, parts)
            dv[:, lo:hi] = pair_values(parts)
        a, b, sd = linear_book(kernel, model, MIXED_GRID)
        linear = a[:, None] + b[:, None] * paths.factor.T
        _, se_epe = control_variate(dv, n_paths, kernel.forward, linear, normal_call(a, b, sd))
        np.testing.assert_allclose(profile.se_epe, se_epe, rtol=1e-12, atol=1e-15)
        # Every path starts at the same value, so the error there is exactly 0.
        assert profile.se_epe[0] == 0.0

    @pytest.mark.parametrize("case", ["mixed", "long-book"])
    def test_whole_path_mean_matches_the_control_mean(self, model, case):
        """A wrong ``forward`` would bias ``epe`` silently: the mean
        discounted value of whole paths must lie within 4 s.e. of it at every row."""
        book, grid = STREAM_CASES[case]
        n_paths = 2 * BLOCK_SIZE + 1000
        paths = simulate_paths(model, SLOPED, grid, n_paths, seed=59)
        units = pair_units(book_dv(book, model, SLOPED, grid, paths), n_paths)
        se = units.std(axis=1, ddof=1) / math.sqrt(units.shape[1])
        error = np.abs(units.mean(axis=1) - _netted_plan(book, model, SLOPED, grid).forward)
        gross = sum(s.notional for s in book)
        assert np.all(error <= 4 * se + 1e-12 * gross), np.max(error / (se + 1e-300))

    def test_row_positive_on_every_path_is_the_forward(self, model, quarterly_grid):
        # A deep in-the-money receiver: its value is positive on every path until
        # maturity, so dv+ is v itself, beta is 1 and epe is the control mean, to
        # the rounding of beta.
        receiver = SwapSpec(notional=100.0, fixed_rate=0.2, maturity=10.0, payer=False)
        profile = exposure_profile((receiver,), model, FLAT, quarterly_grid, 4000, seed=61,
                                   engine="mc")
        forward = _netted_plan((receiver,), model, FLAT, quarterly_grid).forward
        assert np.array_equal(profile.forward, forward) and np.all(forward >= 0.0)
        assert np.all(np.abs(forward - profile.epe) <= 1e-13 * forward)
        assert np.all(profile.se_epe <= 1e-12 * forward[0])

    @staticmethod
    def proxy_block(book, model, grid, seed=29):
        """One block's drawn half, its netted plan and the proxy's parts ``(O, E)``."""
        x = reference_block(model, grid, BLOCK_SIZE, seed, 0)[:, :BLOCK_SIZE // 2]
        plan = _netted_plan(book, model, FLAT, grid)
        proxy = np.empty((2, *x.shape))
        revalue_in_chunks(x, plan, proxy)
        return x, plan, proxy

    def assert_twins_are_the_exact_kernel(self, case):
        """A pair's values ``E ± O`` are the exact kernel at the drawn path ``x`` and at its
        twin ``-x``, to the proxy's tolerance."""
        x, plan, proxy = self.proxy_block(*PROXY_CASES[case])
        assert not x[0].any()  # the first chunk holds a row with h = 0
        pairs, values = np.hstack([x, -x]), pair_values(proxy)
        for k in range(len(plan.const)):
            point = plan[k:k + 1]
            const, neg_b, wa = point.const[0], point.neg_b[0], point.wa[0]
            # The exact kernel's own rounding: each exp(-B x) holds about
            # (1 + B |x|) ulps of its value, and every term is largest at the
            # low end of the row's range.  In the long book that scale is
            # within 1.5x of the gross notional.
            scale = np.abs(const) + np.abs(wa) @ np.exp(neg_b * pairs[k].min())
            scale *= 1.0 + np.abs(neg_b).max(initial=0.0) * np.abs(x[k]).max()
            error = np.abs(values[k] - _revalue(pairs[k:k + 1], point)[0]).max()
            assert error <= 8 * 2.0**-52 * scale, (k, error / scale / 2.0**-52)

    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    def test_twins_written_from_the_drawn_half_are_its_negation(self, case):
        self.assert_twins_are_the_exact_kernel(case)

    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    @pytest.mark.parametrize("defect", ["/ m dropped", "E and G swapped"])
    def test_twins_check_fails_on_a_planted_defect(self, monkeypatch, defect, case):
        """``p_m`` without its ``1 / m!``, or each even coefficient traded with the odd one
        after it, so ``E`` is evaluated from ``G``'s coefficients and ``G`` from ``E``'s."""
        coefficients = exposure._taylor_coefficients

        def defective(plan, half, n):
            coef = coefficients(plan, half, n)
            if defect == "/ m dropped":
                return coef * factorial(np.arange(n))
            swapped = np.zeros((len(coef), n + n % 2))
            swapped[:, :n] = coef
            return swapped.reshape(len(coef), -1, 2)[..., ::-1].reshape(len(coef), -1)

        monkeypatch.setattr(exposure, "_taylor_coefficients", defective)
        with pytest.raises(AssertionError):
            self.assert_twins_are_the_exact_kernel(case)

    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    def test_coefficients_are_the_closed_form_per_row(self, case):
        """Each row's coefficients against ``sum_j wa_j (-B_j h)^m / m!`` over its live dates
        alone, each power and factorial formed whole, to the rounding of ``m`` products and
        a sum of ``sum_j |wa_j| (B_j h)^m / m!``; the constant is the exact kernel at 0, bit
        for bit."""
        x, plan, _ = self.proxy_block(*PROXY_CASES[case])
        half = np.abs(x).max(axis=1)
        m = np.arange(1, 80)
        coef = _taylor_coefficients(plan, half, len(m) + 1)
        assert np.array_equal(coef[:, 0], _revalue(np.zeros((len(half), 1)), plan)[:, 0])
        for k in range(len(half)):
            live = plan.neg_b[k] < 0
            powers = (plan.neg_b[k][live, None] * half[k]) ** m / factorial(m)
            scale = np.abs(plan.wa[k][live]) @ np.abs(powers)
            error = np.abs(coef[k, 1:] - plan.wa[k][live] @ powers)
            assert np.all(error <= (m + 8) * 2.0**-52 * scale), k
        assert not coef[0, 1:].any() and not coef[-1, 1:].any()  # h = 0; no live date

    def test_hundreds_of_factor_units_keep_their_digits(self):
        """A factor in the hundreds against a ``B`` of a quarter, ``r`` = 140: the terms
        near ``m = r`` are carried by ``B^m / m!``, which underflows there, so a series in
        ``x`` itself loses them all.  In ``s = x / h`` each pair is the exact kernel's to
        its own rounding, ``(1 + B |x|)`` ulps of the larger term."""
        plan = _NettedPlan(const=np.array([100.0]), neg_b=np.array([[-0.25]]),
                           wa=np.array([[-100.0]]), b_max=np.array([0.25]),
                           forward=np.zeros(1), expected=np.zeros(1))
        x = np.linspace(0.0, 560.0, 1001)[None]
        out = np.empty((2, *x.shape))
        _taylor_revalue(x, plan, out)
        pairs = np.hstack([x, -x])
        scale = 100.0 + 100.0 * np.exp(0.25 * np.abs(pairs))
        error = np.abs(pair_values(out) - _revalue(pairs, plan)) / scale
        assert error.max() <= 2 * (1.0 + 0.25 * 560.0) * 2.0**-52, error.max() / 2.0**-52

    def test_start_of_the_long_book_has_zero_standard_error(self, model):
        book, _, grid = PROXY_CASES["long-book"]
        profile = exposure_profile(book + POSTED, model, FLAT, grid, 4000, seed=53, n_workers=2,
                                   engine="mc")
        assert profile.se_epe[0] == 0.0

    @pytest.mark.parametrize("sigma", [0.011, 0.3, 0.5, 1.0])
    def test_high_sigma_matches_the_exact_kernel(self, monkeypatch, sigma):
        """Up to 157 terms at sigma 0.3 and more above, and no path valued another way: the
        profile matches a run whose every pair is valued by ``_revalue``."""
        book, grid, n_paths = LONG_BOOK, make_exposure_grid(30.0), 2048
        model = ShortRateModel(0.05, sigma)

        def all_exact(x, plan, out):
            at_x, at_twin = np.split(_revalue(np.hstack([x, -x]), plan), 2, axis=1)
            out[0], out[1] = (at_x - at_twin) / 2, (at_x + at_twin) / 2

        profile = exposure_profile(book, model, FLAT, grid, n_paths, seed=5, engine="mc")
        monkeypatch.setattr(exposure, "_taylor_revalue", all_exact)
        reference = exposure_profile(book, model, FLAT, grid, n_paths, seed=5, engine="mc")
        for name in ("epe", "se_epe"):
            ref = getattr(reference, name)
            np.testing.assert_allclose(getattr(profile, name), ref, rtol=1e-9,
                                       atol=1e-9 * np.max(np.abs(ref)), err_msg=name)

    def test_overflowing_range_is_not_expanded(self, monkeypatch, model):
        # B h past log(largest float): the exact kernel overflows there too, so
        # no series (of some 2500 terms here) is formed and the values are NaN.
        def forbidden(r):
            raise AssertionError(f"a series at radius {r}")

        monkeypatch.setattr(exposure, "_taylor_terms", forbidden)
        plan = _netted_plan(LONG_BOOK, model, FLAT, [0.0, 1.0])
        x = np.array([[0.0, 0.0], [-60.0, 60.0]])
        out = np.zeros((2, *x.shape))
        _taylor_revalue(x, plan, out)
        assert np.isnan(out).all()

    def test_rows_with_nothing_to_fit_are_exact(self, model):
        x, plan, proxy = self.proxy_block(*PROXY_CASES["long-book"])
        # t = 0: every path sits at x = 0; at 30y no date is live.  Either way
        # the odd part is 0 and the even part the exact value at 0.
        for k in (0, len(plan.const) - 1):
            assert not proxy[0, k].any()
            assert np.all(proxy[1, k] == _revalue(np.zeros((1, 1)), plan[k:k + 1])[0])
        frozen = ShortRateModel(mean_reversion=0.05, sigma=0.0)
        x, plan, proxy = self.proxy_block(LONG_BOOK, frozen, MIXED_GRID)
        assert not x.any() and not proxy[0].any()
        for k in range(len(plan.const)):
            assert np.all(proxy[1, k] == _revalue(np.zeros((1, 1)), plan[k:k + 1])[0])

    def test_term_count_is_the_smallest_meeting_the_tail_bound(self):
        """``r^n / (n! (1 - r / (n + 1))) <= 2^-53`` in exact rational arithmetic, against
        the count formed in logs, up to the overflow radius."""
        def meets(r, n):
            r = Fraction(r)
            return r < n + 1 and r**n / (math.factorial(n) * (1 - r / (n + 1))) <= Fraction(
                1, 2**53)

        assert _taylor_terms(0.0) == 1
        for r in (1e-3, 0.3, 1.25, 4.0, 13.0, 40.0, 300.0, exposure._LOG_MAX):
            n = _taylor_terms(r)
            assert meets(r, n) and not meets(r, n - 1), r
        assert _taylor_terms(exposure._LOG_MAX) == 1962

    @staticmethod
    def exact_tail(r, n):
        """``sum_{m>=n} r^m / m! = e^r P(n, r)``, ``P`` the regularized lower incomplete gamma
        function: the exact truncation error relative to each term at 0."""
        return math.exp(r) * gammainc(n, r)

    def test_term_count_never_below_the_exact_tail(self):
        # At every radius here the bound is tight: one term fewer breaks the tolerance.
        for r in np.linspace(0.01, 100.0, 500):
            n = _taylor_terms(r)
            assert self.exact_tail(r, n) <= 2.0**-53 < self.exact_tail(r, n - 1), r
        for r, n in ((0.3, 13), (1, 19), (2, 24), (5, 36), (13, 62), (40, 139), (100, 304)):
            assert _taylor_terms(r) == n, r

    def assert_chunks_cut_at_their_radius(self, case):
        """Each chunk's series has ``_taylor_terms`` of its radius ``max|x| max B``, whose
        exact tail is at most 2^-53."""
        x, plan, _ = self.proxy_block(*PROXY_CASES[case])
        counts = []
        spied = exposure._taylor_coefficients
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exposure, "_taylor_coefficients",
                          lambda part, half, n: counts.append(n) or spied(part, half, n))
            revalue_in_chunks(x, plan, np.empty((2, *x.shape)))
        assert len(counts) == -(-len(plan.const) // CHUNK_ROWS)
        for n, k0 in zip(counts, range(0, len(plan.const), CHUNK_ROWS)):
            rows = slice(k0, k0 + CHUNK_ROWS)
            r = float(np.max(np.abs(x[rows]).max(axis=1) * plan.b_max[rows]))
            assert n == _taylor_terms(r) and self.exact_tail(r, n) <= 2.0**-53, (k0, r, n)

    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    def test_each_chunk_is_cut_at_its_radius(self, case):
        self.assert_chunks_cut_at_their_radius(case)

    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    def test_chunk_check_fails_on_one_term_fewer(self, monkeypatch, case):
        terms = exposure._taylor_terms
        monkeypatch.setattr(exposure, "_taylor_terms", lambda r: max(terms(r) - 1, 1))
        with pytest.raises(AssertionError):
            self.assert_chunks_cut_at_their_radius(case)

    @pytest.mark.parametrize("radius", [math.inf, math.nan])
    def test_non_finite_radius_raises(self, radius):
        with pytest.raises(ValueError, match="finite"):
            _taylor_terms(radius)

    def test_non_finite_path_gives_nan(self, model):
        # As an overflowing radius does: the run refuses the profile as a
        # diagnostic on sigma instead of failing inside the series.
        plan = _netted_plan(LONG_BOOK, model, FLAT, [0.0, 1.0])
        x = np.array([[0.0, 0.0], [0.01, np.inf]])
        out = np.zeros((2, *x.shape))
        _taylor_revalue(x, plan, out)
        assert np.isnan(out).all()


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
        reach = 12.0 + row.b_max[0] * sd[k]
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


@functools.lru_cache(maxsize=None)
def proxy_case_exact(case):
    return exact_epe(*PROXY_CASES[case])


def erf_cdf(z):
    """A planted defect: ``Phi`` as ``(1 + erf(z / sqrt 2)) / 2``, whose sum cancels to 0
    below z of about -8.3, a relative error of 1."""
    return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(z) / math.sqrt(2.0)))


class TestNormalCdf:
    """``normal_cdf``, the one ``Phi`` of the delta-normal control and the verifier's Black
    formula, against ``mpmath.ncdf`` from the centre into the far lower tail."""

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


class TestDeltaNormalControl:
    """The kernel's tangent at the factor's mean, ``a + b x``, as a control with the
    closed-form mean of its positive part."""

    # (a, b, sd): in, out of and at the money; s = 0 by b and by sd; |a| / s = 8 both
    # ways; a negative slope.
    BACHELIER_CASES = ((0.3, 2.0, 0.25), (-0.3, 2.0, 0.25), (0.0, 2.0, 0.25), (0.7, 0.0, 0.25),
                       (-0.7, 1.0, 0.0), (4.0, 1.0, 0.5), (-4.0, 1.0, 0.5), (0.2, -3.0, 0.1),
                       (-0.1, -3.0, 0.1))

    @classmethod
    def assert_bachelier_matches_quadrature(cls, bachelier):
        """``E[(a + b X)+]`` against ``mpmath.quad`` of the payoff over the normal density,
        split at the kink ``x = -a / b``."""
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        a, b, sd = (np.array(column) for column in zip(*cls.BACHELIER_CASES))
        got = bachelier(a, b, sd)
        for k, (ak, bk, sdk) in enumerate(cls.BACHELIER_CASES):
            s = mp.mpf(bk) * sdk

            def payoff(z, ak=ak, s=s):
                return max(ak + s * z, 0) * mp.npdf(z)

            points = [-mp.inf, mp.inf] if s == 0 else [-mp.inf, -ak / s, mp.inf]
            reference = float(mp.quad(payoff, points))
            assert got[k] == pytest.approx(reference, rel=1e-13, abs=1e-16), (k, got[k])

    @pytest.mark.parametrize("bachelier", [_bachelier, normal_call])
    def test_bachelier_matches_quadrature(self, bachelier):
        self.assert_bachelier_matches_quadrature(bachelier)

    @pytest.mark.parametrize("defect", ["phi dropped", "Phi negated", "s signed"])
    def test_a_planted_bachelier_defect_fails_it(self, defect):
        with pytest.raises(AssertionError):
            self.assert_bachelier_matches_quadrature(functools.partial(normal_call, defect=defect))

    N_PATHS = 2 * BLOCK_SIZE + 1000

    @classmethod
    def assert_profile_matches_quadrature(cls, case):
        """``epe`` within 4 s.e. of ``exact_epe`` at every row where the book is in the money
        on at least 50 of the expected paths.  On the rest a handful of paths at most carries
        the row, so its s.e. says nothing: the long book's 3- and 6-month rows, with 0.05 and
        9 expected paths in the money at this count.  They are counted, so no more can hide."""
        book, model, grid = PROXY_CASES[case]
        exact, in_money = proxy_case_exact(case)
        profile = exposure_profile(book, model, FLAT, grid, cls.N_PATHS, seed=2029, engine="mc")
        sampled = in_money * cls.N_PATHS >= 50
        assert np.count_nonzero(~sampled & (exact > 0)) <= 2
        error = np.abs(profile.epe - exact)[sampled]
        bound = 4 * profile.se_epe[sampled] + 1e-12 * sum(s.notional for s in book)
        assert np.all(error <= bound), np.max(error / bound)

    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    def test_profile_matches_a_dense_quadrature_of_the_exact_kernel(self, case):
        self.assert_profile_matches_quadrature(case)

    @pytest.mark.parametrize("case", sorted(PROXY_CASES))
    @pytest.mark.parametrize("defect", ["H dropped", "H as max(a, 0)"])
    def test_a_planted_mean_defect_fails_it(self, monkeypatch, case, defect):
        planted = {"H dropped": lambda a, b, sd: np.zeros_like(a),
                   "H as max(a, 0)": lambda a, b, sd: np.maximum(a, 0.0)}[defect]
        monkeypatch.setattr(exposure, "_bachelier", planted)
        with pytest.raises(AssertionError):
            self.assert_profile_matches_quadrature(case)

    @pytest.mark.parametrize("case, most", [("base-case", 0.05), ("long-book", 0.4),
                                            ("stressed", 1.0)])
    def test_error_falls_against_the_forward_only_estimator(self, monkeypatch, case, most):
        """At a fixed seed the l2 norm of ``se_epe`` is at most ``most`` of the forward-only
        estimator's, every row off the control (``a = b = 0``) is that estimator's bit for
        bit, and both kinds of row occur.  On the stressed book most rows spread ``B x``
        past ``_MAX_SPREAD``, where the tangent would raise the error (1.11 in l2, and up
        to 2.8 on a row, with that gate lifted)."""
        book, model, grid = {
            "base-case": ((SwapSpec(100.0, 0.027, 10.0),), ShortRateModel(0.05, 0.011),
                          make_exposure_grid(10.0)), **PROXY_CASES}[case]
        both = exposure_profile(book, model, FLAT, grid, 2 * BLOCK_SIZE, seed=83, engine="mc")
        monkeypatch.setattr(exposure, "_REACH", -1.0)  # every row off the control
        alone = exposure_profile(book, model, FLAT, grid, 2 * BLOCK_SIZE, seed=83, engine="mc")
        assert np.linalg.norm(both.se_epe) <= most * np.linalg.norm(alone.se_epe)
        monkeypatch.undo()
        kernel = _forward_kernel(_netted_plan(book, model, FLAT, grid), model, FLAT, grid)
        a, b, _ = linear_book(kernel, model, grid)
        off = (a == 0) & (b == 0)
        assert off.any() and not off.all()
        for name in ("epe", "se_epe"):
            assert np.array_equal(getattr(both, name)[off], getattr(alone, name)[off]), name


class TestStandardErrorCalibration:
    """The reported ``se_epe`` against the spread of ``epe`` over independent runs."""

    @staticmethod
    def spread_over_reported():
        """Per grid row of the long book, the sd of ``epe`` over 40 seeds at 8192 paths
        over the mean reported ``se_epe``.  Rows where some run reports an s.e. of 0
        are left out: there every path agreed, or no path was in the money (the 3
        month row, where the book is positive on a handful of paths at most), and the
        s.e. of such a sample says nothing."""
        book, model, grid = PROXY_CASES["long-book"]
        profiles = [exposure_profile(book, model, FLAT, grid, BLOCK_SIZE, seed=seed, engine="mc")
                    for seed in range(40)]
        epe, se = (np.array([getattr(p, name) for p in profiles]) for name in ("epe", "se_epe"))
        sampled = np.all(se > 0, axis=0)
        assert sampled.sum() >= len(grid) - 4
        return epe[:, sampled].std(axis=0, ddof=1) / se[:, sampled].mean(axis=0)

    @staticmethod
    def calibrated(ratio):
        return 0.85 <= np.median(ratio) <= 1.15 and np.all((0.6 <= ratio) & (ratio <= 1.5))

    def test_reported_error_matches_the_spread_over_seeds(self):
        ratio = self.spread_over_reported()
        assert self.calibrated(ratio), (np.median(ratio), ratio.min(), ratio.max())

    def test_twins_taken_as_independent_units_fail_it(self, monkeypatch):
        monkeypatch.setattr(exposure, "_block_stats", twins_as_units)
        assert not self.calibrated(self.spread_over_reported())


def with_n_minus_1(blocks, *args):
    """A planted defect: ``_reduce`` dividing the residual by ``n - 1``, as if ``beta``
    had not been fitted from the same units."""
    blocks = list(blocks)
    n_units = sum(block[0] for block in blocks)
    epe, se_epe = _reduce(blocks, *args)
    return epe, se_epe * math.sqrt((n_units - 2) / (n_units - 1))


class TestReduceDegreesOfFreedom:
    @staticmethod
    def assert_residual_over_n_minus_2(reduce):
        """Three hand-built pairs ``(pos, v)``: ``se_epe`` is ``sqrt(residual / ((n - 2) n))``,
        ``residual = M2(pos) - beta C(pos, v)``, since ``beta`` is fitted from the same pairs;
        ``epe`` adds the linear book's mean to the controlled mean."""
        pos, v = np.array([0.75, 0.25, 2.0]), np.array([0.5, -1.0, 2.0])
        epe, se_epe = reduce([_moments(np.stack([pos, v])[:, None, :])], np.zeros(1),
                             np.array([0.125]))
        cp, cv = pos - pos.mean(), v - v.mean()
        beta = (cp @ cv) / (cv @ cv)
        residual = cp @ cp - beta * (cp @ cv)
        assert residual > 0.05  # three pairs off one line leave a residual
        np.testing.assert_allclose(se_epe, [math.sqrt(residual / ((3 - 2) * 3))], rtol=1e-14)
        np.testing.assert_allclose(epe, [pos.mean() - beta * v.mean() + 0.125], rtol=1e-14)

    def test_three_pairs_leave_one_degree_of_freedom(self):
        self.assert_residual_over_n_minus_2(_reduce)

    def test_n_minus_1_fails_it(self):
        with pytest.raises(AssertionError):
            self.assert_residual_over_n_minus_2(with_n_minus_1)


def pair_parts(regime):
    """Hand-built parts ``(O, E)`` ``(2, 3 rows, 24 pairs)`` of pairs whose two values
    ``a = E + O`` and ``b = E - O`` are of the named signs; ``"mixed"`` holds all of them."""
    if regime == "mixed":
        parts = [pair_parts(r) for r in PAIR_REGIMES if r != "mixed"]
        return np.concatenate(parts, axis=-1)
    rng = np.random.default_rng(sorted(PAIR_REGIMES).index(regime))
    a, b = rng.uniform(0.1, 2.0, (2, 3, 24))
    if regime == "both negative":
        a, b = -a, -b
    elif regime == "straddling":
        flip = rng.random(a.shape) < 0.5
        a, b = np.where(flip, -a, a), np.where(flip, b, -b)
    elif regime == "twin at zero":
        a, b = np.where(rng.random(a.shape) < 0.5, -a, a), np.zeros_like(b)
    elif regime == "equal twins":
        a = b = np.where(rng.random(a.shape) < 0.5, -a, a)
    return np.stack([(a - b) / 2, (a + b) / 2])


PAIR_REGIMES = ("both positive", "both negative", "straddling", "twin at zero",
                "equal twins", "mixed")


def no_floor(at):
    """A planted defect: ``_block_stats`` without its floor at ``E`` or at 0."""
    def planted(parts):
        pos, even, linear = parts
        np.abs(pos, out=pos)
        pos += even
        pos *= 0.5
        np.maximum(pos, 0.0 if at == "E" else even, out=pos)
        pos -= linear
        return exposure._moments(parts[:2])
    return planted


def pair_mean_positive(parts):
    """``(max(E + O, 0) + max(E - O, 0)) / 2`` of hand-built parts ``(O, E)``."""
    odd, even = parts
    return 0.5 * (np.maximum(even + odd, 0.0) + np.maximum(even - odd, 0.0))


class TestPairReduction:
    """``_block_stats`` reduces each pair from its parts ``(O, E, L)``: its mean value is
    ``E``, and its mean positive part ``(max(E + O, 0) + max(E - O, 0)) / 2`` less the
    linear book's ``L``."""

    @staticmethod
    def assert_pair_means(monkeypatch, parts):
        moments, seen = exposure._moments, []
        monkeypatch.setattr(exposure, "_moments",
                            lambda units: seen.append(units.copy()) or moments(units))
        odd, even, linear = parts
        reference = pair_mean_positive(parts[:2])
        n, _, _ = exposure._block_stats(parts.copy())
        (pos, value), = seen
        assert n == parts.shape[-1]
        assert np.array_equal(value, even)
        # E + O and E - O round by an ulp each of |E| + |O|; their half sum by one more,
        # and the difference with L by an ulp of the larger.
        scale = np.max(np.abs(odd) + np.abs(even)) + np.max(np.abs(linear))
        np.testing.assert_allclose(pos, reference - linear, rtol=0.0, atol=3 * 2.0**-52 * scale)
        both_positive = (even + odd > 0) & (even - odd > 0)
        assert np.array_equal(pos[both_positive], (even - linear)[both_positive])
        neither = (even + odd <= 0) & (even - odd <= 0)
        assert np.array_equal(pos[neither], -linear[neither])

    @staticmethod
    def with_linear(regime):
        """``pair_parts(regime)`` with ``L``, the pair mean positive part of another draw of
        the regime's pairs (its pairs in reverse order)."""
        parts = pair_parts(regime)
        return np.concatenate([parts, pair_mean_positive(parts[..., ::-1])[None]])

    @pytest.mark.parametrize("regime", PAIR_REGIMES)
    def test_pair_means_are_those_of_its_two_paths(self, monkeypatch, regime):
        self.assert_pair_means(monkeypatch, self.with_linear(regime))

    @pytest.mark.parametrize("regime", PAIR_REGIMES)
    def test_linear_pair_reduces_by_the_same_formula(self, regime):
        """``_pair_positive`` of the linear book's pairs ``a ± b x``: a per-row ``a`` against
        ``(rows, pairs)`` odd parts, as ``exposure_profile`` passes them."""
        odd, even = pair_parts(regime)
        a = even[:, :1].copy()  # one value per row
        parts = np.stack([odd, np.broadcast_to(a, odd.shape)])
        out = _pair_positive(odd.copy(), a)
        np.testing.assert_allclose(out, pair_mean_positive(parts), rtol=0.0,
                                   atol=2 * 2.0**-52 * np.max(np.abs(parts[0]) + np.abs(a)))
        assert not out[np.abs(odd) <= -a].any()  # neither value positive: exactly 0

    @pytest.mark.parametrize("at", ["E", "0"])
    def test_a_missing_floor_fails_it(self, monkeypatch, at):
        monkeypatch.setattr(exposure, "_block_stats", no_floor(at))
        with pytest.raises(AssertionError):
            self.assert_pair_means(monkeypatch, self.with_linear("mixed"))


def without_beta(blocks, forward, linear_mean):
    """A planted defect: ``_reduce`` with the forward control's ``beta`` dropped from the
    estimate but not from its standard error, so ``epe`` is the mean of ``v+ - l+`` plus the
    linear book's mean, reported with the residual's error.  (Zeroing ``C(pos, v)`` drops it
    from both: a weaker estimator but an honest one, which calibration passes.)"""
    n_units, mean, co = functools.reduce(_merge_moments, blocks)
    _, se_epe = _reduce([(n_units, mean, co)], forward, linear_mean)
    return mean[0] + linear_mean, se_epe


def four_bound_sum(inputs):
    """A planted defect: ``breakdown`` reporting the total's s.e. as the sum of four bounds,
    ``sum |c_i| ||w * se_epe||_2`` over CVA, DVA, FCA and TVA's credit term, not
    ``|c_CVA + c_TVA| ||w * se_epe||_2``.  Each ``c_i int(epe)`` is read off the breakdown:
    CVA's and FCA's values, TVA's change when the EPE is zeroed, and DVA's is FCA's."""
    result = breakdown(inputs)
    exposure = replace(inputs.exposure, epe=np.zeros_like(inputs.exposure.epe))
    credit = result.tva - breakdown(replace(inputs, exposure=exposure)).tva
    loads = np.abs(result.cva) + 2.0 * np.abs(result.fca) + np.abs(credit)
    return replace(result, se_total=result.se_total * loads / np.abs(result.cva + credit))


class TestTotalStandardErrorCalibration:
    """The reported ``se_bp`` against the spread of ``total_bp`` over independent runs.

    A 40-seed sd is itself uncertain by about 11% (1 / sqrt(78)), so a band of
    +-15% on it would fail calibrated code one time in five; over 200 seeds the
    uncertainty is about 5% and the band is 3 of it.  Seeds 0-199, fixed.
    """

    SEEDS = range(200)
    CASES = {
        "long-book": lambda: replace(load_config("base-case"), swaps=LONG_BOOK + POSTED,
                                     psi=(0.0, 0.5, 1.0), price_of_risk_xi=(-0.5, 0.5)),
        "warehouse-neg": lambda: load_config("warehouse-neg"),
    }

    @classmethod
    def spread_over_reported(cls, case):
        """Per row of the sweep, the sd of ``total_bp`` over the seeds at 8192 paths over
        the mean reported ``se_bp``."""
        config = replace(cls.CASES[case](), paths=BLOCK_SIZE, engine="mc")
        runs = [runner.run_config(replace(config, seed=seed)) for seed in cls.SEEDS]
        total = np.array([run.breakdown.as_bps()["total"] for run in runs])
        se_bp = np.array([run.breakdown.bps(run.breakdown.se_total) for run in runs])
        assert np.all(se_bp > 0)
        return total.std(axis=0, ddof=1) / se_bp.mean(axis=0)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reported_error_matches_the_spread_over_seeds(self, case):
        ratio = self.spread_over_reported(case)
        assert TestStandardErrorCalibration.calibrated(ratio), (
            np.median(ratio), ratio.min(), ratio.max())

    @pytest.mark.parametrize("defect", ["shared z", "twins as units", "beta dropped",
                                        "four-bound sum"])
    def test_a_planted_defect_fails_it(self, monkeypatch, defect):
        owner, name, planted = {
            "shared z": (exposure, "_simulate_block", shared_normal),
            "twins as units": (exposure, "_block_stats", twins_as_units),
            "beta dropped": (exposure, "_reduce", without_beta),
            "four-bound sum": (runner, "breakdown", four_bound_sum),
        }[defect]
        monkeypatch.setattr(owner, name, planted)
        ratio = self.spread_over_reported("warehouse-neg")
        assert not TestStandardErrorCalibration.calibrated(ratio), (
            np.median(ratio), ratio.min(), ratio.max())
