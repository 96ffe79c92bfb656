"""Short-rate model: exact simulation, curve fit, determinism."""

import numpy as np
import pytest

from pathsim import simulate_paths
from xvakit import DiscountCurve, ShortRateModel, exposure_profile
from xvakit.ratemodel import _discount_shift, _simulate_block, _step_table, map_blocks


def test_parameter_validation():
    with pytest.raises(ValueError):
        ShortRateModel(mean_reversion=0.0, sigma=0.01)
    with pytest.raises(ValueError):
        ShortRateModel(mean_reversion=0.1, sigma=-0.01)


def test_grid_validation(flat_curve, model, payer_swap):
    with pytest.raises(ValueError):
        exposure_profile((payer_swap,), model, flat_curve, [0.5, 1.0], 10, seed=1,
                         antithetic=False)
    with pytest.raises(ValueError):
        exposure_profile((payer_swap,), model, flat_curve, [0.0, 1.0, 1.0], 10, seed=1,
                         antithetic=False)
    with pytest.raises(ValueError):
        exposure_profile((payer_swap,), model, flat_curve, [0.0, 1.0], 0, seed=1)
    with pytest.raises(ValueError):
        exposure_profile((payer_swap,), model, flat_curve, [0.0, 1.0], 11, seed=1, antithetic=True)


def test_zero_volatility_reproduces_curve(flat_curve):
    frozen = ShortRateModel(mean_reversion=0.05, sigma=0.0)
    grid = np.linspace(0.0, 10.0, 41)
    paths = simulate_paths(frozen, flat_curve, grid, 4, seed=3)
    assert np.array_equal(paths.factor, np.zeros_like(paths.factor))
    expected_df = flat_curve.df(grid)
    for p in range(4):
        assert np.array_equal(paths.discount[p], expected_df)
        assert np.allclose(paths.short_rate[p], flat_curve.forward(grid), rtol=0, atol=0)


def test_same_seed_reproducible(flat_curve, model):
    grid = np.linspace(0.0, 5.0, 21)
    a = simulate_paths(model, flat_curve, grid, 256, seed=42)
    b = simulate_paths(model, flat_curve, grid, 256, seed=42)
    assert np.array_equal(a.factor, b.factor)
    assert np.array_equal(a.discount, b.discount)
    c = simulate_paths(model, flat_curve, grid, 256, seed=43)
    assert not np.array_equal(a.factor, c.factor)


def test_worker_count_invariance(flat_curve, model):
    grid = np.linspace(0.0, 5.0, 21)
    # more paths than one block so several substreams are exercised
    a = simulate_paths(model, flat_curve, grid, 20000, seed=9, n_workers=1)
    b = simulate_paths(model, flat_curve, grid, 20000, seed=9, n_workers=4)
    assert np.array_equal(a.factor, b.factor)
    assert np.array_equal(a.discount, b.discount)


def test_map_blocks_checks_its_arguments_before_any_block_runs():
    calls = []
    for n_paths, antithetic in ((0, False), (101, True)):
        with pytest.raises(ValueError):
            map_blocks(lambda *job: calls.append(job), n_paths, antithetic, n_workers=2)
    assert calls == []


def test_antithetic_pairs_mirror(flat_curve, model):
    grid = np.linspace(0.0, 5.0, 11)
    paths = simulate_paths(model, flat_curve, grid, 512, seed=5, antithetic=True)
    h = 256
    # Twins stepped from the negated draws are the exact negation of their
    # drawn paths, factor and integrated factor alike: exposure_profile never
    # steps them and takes -x and -y instead.
    assert np.array_equal(paths.factor[:h], -paths.factor[h:])
    assert np.array_equal(paths.integrated[:h], -paths.integrated[h:])
    assert paths.factor[:h, 1:].all()


def test_pathwise_discount_martingale(flat_curve, model):
    grid = np.linspace(0.0, 10.0, 21)
    paths = simulate_paths(model, flat_curve, grid, 20000, seed=17)
    mean_df = paths.discount.mean(axis=0)
    se = paths.discount.std(axis=0, ddof=1) / np.sqrt(paths.n_paths)
    target = flat_curve.df(grid)
    assert np.all(np.abs(mean_df - target) <= 3.0 * se + 1e-12)


def test_bond_price_at_time_zero_matches_curve(flat_curve, model):
    for maturity in (1.0, 5.0, 10.0):
        p = model.bond_price(flat_curve, 0.0, maturity, 0.0)
        assert p == pytest.approx(flat_curve.df(maturity), rel=1e-14)


def test_discounted_bond_price_is_martingale(flat_curve, model):
    grid = np.linspace(0.0, 5.0, 11)
    paths = simulate_paths(model, flat_curve, grid, 40000, seed=23)
    t_idx = 6  # t = 3.0
    p = model.bond_price(flat_curve, 3.0, 10.0, paths.factor[:, t_idx])
    product = paths.discount[:, t_idx] * p
    se = product.std(ddof=1) / np.sqrt(len(product))
    assert abs(product.mean() - flat_curve.df(10.0)) <= 3.0 * se


def test_bond_price_respects_maturity_ordering(flat_curve, model):
    with pytest.raises(ValueError):
        model.bond_price(flat_curve, 5.0, 4.0, 0.0)


def test_sloped_curve_still_fits(model):
    curve = DiscountCurve((1.0, 5.0, 10.0), (0.01, 0.02, 0.03))
    grid = np.linspace(0.0, 10.0, 41)
    paths = simulate_paths(model, curve, grid, 20000, seed=31)
    mean_df = paths.discount.mean(axis=0)
    se = paths.discount.std(axis=0, ddof=1) / np.sqrt(paths.n_paths)
    assert np.all(np.abs(mean_df - curve.df(grid)) <= 3.0 * se + 1e-12)


@pytest.mark.parametrize("dt", [1.0 / 12.0, 0.25, 1.0])
def test_moments_match_a_50_digit_reference_down_to_tiny_mean_reversion(dt):
    # For u = a dt from 1e-12 to 5; the closed forms cancel as u -> 0 (a
    # relative error of 0.44 in var_y at a = 1e-4 and monthly steps).
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    sigma = 0.011
    for u in np.geomspace(1e-12, 5.0, 60):
        model = ShortRateModel(u / dt, sigma)
        a, t, s = mp.mpf(model.mean_reversion), mp.mpf(dt), mp.mpf(sigma)

        def b(tau):
            return -mp.expm1(-a * tau) / a

        bracket = [(tau - 2 * b(tau) + b(2 * tau) / 2) / a**2 for tau in (t, 10 * t)]
        expected = (mp.exp(-a * t), s**2 * b(2 * t) / 2, s**2 * b(t) ** 2 / 2, s**2 * bracket[0],
                    b(t), *bracket)
        actual = (*model.step_moments(dt), model.b_factor(dt),
                  *model._variance_bracket(np.array([dt, 10 * dt])))
        for name, got, want in zip(("decay", "var_x", "cov", "var_y", "B", "bracket(t)",
                                    "bracket(10t)"), actual, expected):
            assert abs(mp.mpf(float(got)) / want - 1) <= 1e-15, (name, u)


def test_vanishing_mean_reversion_is_integrated_brownian_motion():
    # a = 1e-200: a * a underflows; the limits are sigma^2 dt, sigma^2 dt^2 / 2
    # and sigma^2 dt^3 / 3.
    dt, sigma = 0.25, 0.011
    decay, var_x, cov, var_y = ShortRateModel(1e-200, sigma).step_moments(dt)
    assert decay == 1.0
    assert var_x == pytest.approx(sigma**2 * dt, rel=1e-15)
    assert cov == pytest.approx(sigma**2 * dt**2 / 2, rel=1e-15)
    assert var_y == pytest.approx(sigma**2 * dt**3 / 3, rel=1e-15)


class UnitNormals:
    """Stands in for a block's generator: step ``i``'s normal is 1 on path ``i`` and 0
    elsewhere, so path ``j``'s ``x`` and ``y`` at a grid row are the coefficients of
    step ``j``'s normal in them, the linear map from the normals to the row."""

    def __init__(self, n_steps):
        self.eye, self.row = np.eye(n_steps), 0

    def standard_normal(self, out):
        out[...] = self.eye[self.row:self.row + len(out)]
        self.row += len(out)


@pytest.mark.parametrize("mean_reversion", [0.05, 1e-6])
@pytest.mark.parametrize("sigma", [0.011, 0.05])
def test_step_table_carries_the_exact_law(sigma, mean_reversion):
    """The stepped ``(x_t, y_t)`` against the exact law of ``(x_t, Y_t)``, ``Y_t`` the
    factor's integral: ``y_t`` is ``E[Y_t | x on the grid]``, so ``Cov(x_t, y_t) =
    Cov(x_t, Y_t)`` and ``Var(y_t)`` plus the steps' conditional variances is
    ``Var(Y_t)``; and the discount shift makes ``E[exp(-(shift + y_t))] = P(0, t)``."""
    model = ShortRateModel(mean_reversion, sigma)
    curve = DiscountCurve((1.0, 5.0, 10.0), (0.01, 0.02, 0.03))
    grid = np.union1d(np.linspace(0.0, 1.0, 13), np.linspace(1.0, 30.0, 117))  # uneven steps
    steps = _step_table(model, grid)
    n = len(steps)
    x, y = np.zeros((2, len(grid), n))
    _simulate_block(steps, UnitNormals(n), 0, x, y, np.empty((n, n)))
    residual = [0.0]  # the integral's variance given the factor at both ends of each step
    for dt in np.diff(grid):
        _, var_x, cov, var_y = model.step_moments(dt)
        residual.append(var_y - cov * cov / var_x)
    var_ybar = (y * y).sum(axis=1)
    b_t = model.b_factor(grid)
    np.testing.assert_allclose((x * x).sum(axis=1), sigma**2 * model.b_factor(2 * grid) / 2,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(var_ybar + np.cumsum(residual),
                               sigma**2 * model._variance_bracket(grid), rtol=1e-12, atol=0)
    np.testing.assert_allclose((x * y).sum(axis=1), sigma**2 * b_t * b_t / 2, rtol=1e-12, atol=0)
    shift = _discount_shift(model, curve, grid, steps)
    np.testing.assert_allclose(shift - var_ybar / 2, -curve.log_df(grid), rtol=1e-12, atol=0)
