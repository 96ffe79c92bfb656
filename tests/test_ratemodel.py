"""Short-rate model: exact simulation, curve fit, determinism."""

import numpy as np
import pytest

from pathsim import forward_mean, simulate_paths
from xvakit import DiscountCurve, ShortRateModel, exposure_profile
from xvakit.exposure import _simulate_block


def test_parameter_validation():
    with pytest.raises(ValueError):
        ShortRateModel(mean_reversion=0.0, sigma=0.01)
    with pytest.raises(ValueError):
        ShortRateModel(mean_reversion=0.1, sigma=-0.01)


def test_grid_validation(flat_curve, model, payer_swap):
    with pytest.raises(ValueError):
        exposure_profile((payer_swap,), model, flat_curve, [0.5, 1.0])
    with pytest.raises(ValueError):
        exposure_profile((payer_swap,), model, flat_curve, [0.0, 1.0, 1.0])


@pytest.mark.parametrize("point", [np.nan, np.inf])
def test_non_finite_grid_point_is_refused(flat_curve, model, payer_swap, point):
    # NaN passes "strictly increasing" (every comparison with it is False) and
    # prices a NaN profile; inf passes it as the last point and prices a row at
    # no time at all.
    for grid in ([0.0, point, 10.0], [0.0, 1.0, point]):
        with pytest.raises(ValueError, match="grid must be finite"):
            exposure_profile((payer_swap,), model, flat_curve, grid)


def assert_forward_bond_identity(model, curve, grid, maturity, n_paths, seed):
    """Over Q paths, the mean of ``P(0, t) P(t, T; x_t + m_t)`` is within 3 s.e. of
    ``P(0, T)`` at every grid time ``t``: the discounted bond's mean, priced under the
    t-forward measure."""
    paths = simulate_paths(model, curve, grid, n_paths, seed)
    m = forward_mean(model, grid)
    for k, t in enumerate(grid):
        values = curve.df(t) * model.bond_price(curve, t, maturity, paths.factor[:, k] + m[k])
        se = values.std(ddof=1) / np.sqrt(paths.n_paths)
        assert abs(values.mean() - curve.df(maturity)) <= 3.0 * se + 1e-15, t


def test_zero_volatility_reproduces_curve(flat_curve):
    frozen = ShortRateModel(mean_reversion=0.05, sigma=0.0)
    grid = np.linspace(0.0, 10.0, 41)
    paths = simulate_paths(frozen, flat_curve, grid, 6, seed=3)
    assert np.array_equal(paths.factor, np.zeros_like(paths.factor))
    for p in range(6):
        assert np.allclose(paths.short_rate[p], flat_curve.forward(grid), rtol=0, atol=0)
    assert_forward_bond_identity(frozen, flat_curve, grid, 12.0, 6, seed=3)


def test_same_seed_reproducible(flat_curve, model):
    grid = np.linspace(0.0, 5.0, 21)
    a = simulate_paths(model, flat_curve, grid, 256, seed=42)
    b = simulate_paths(model, flat_curve, grid, 256, seed=42)
    assert np.array_equal(a.factor, b.factor)
    c = simulate_paths(model, flat_curve, grid, 256, seed=43)
    assert not np.array_equal(a.factor, c.factor)


def test_forward_measure_prices_the_discounted_bond(flat_curve, model):
    assert_forward_bond_identity(model, flat_curve, np.linspace(0.0, 10.0, 21), 10.0, 20000,
                                 seed=17)


def test_bond_price_at_time_zero_matches_curve(flat_curve, model):
    for maturity in (1.0, 5.0, 10.0):
        p = model.bond_price(flat_curve, 0.0, maturity, 0.0)
        assert p == pytest.approx(flat_curve.df(maturity), rel=1e-14)


def test_forward_measure_prices_a_long_bond_from_mid_life(flat_curve, model):
    assert_forward_bond_identity(model, flat_curve, np.linspace(0.0, 5.0, 11), 10.0, 40000,
                                 seed=23)


def test_bond_price_respects_maturity_ordering(flat_curve, model):
    with pytest.raises(ValueError):
        model.bond_price(flat_curve, 5.0, 4.0, 0.0)


def test_sloped_curve_still_fits(model):
    curve = DiscountCurve((1.0, 5.0, 10.0), (0.01, 0.02, 0.03))
    assert_forward_bond_identity(model, curve, np.linspace(0.0, 10.0, 41), 12.0, 20000, seed=31)


@pytest.mark.parametrize("dt", [1.0 / 12.0, 0.25, 1.0])
def test_moments_match_a_50_digit_reference_down_to_tiny_mean_reversion(dt):
    # For u = a dt from 1e-12 to 5; the closed forms cancel as u -> 0.  The
    # forward drift's reference is sigma^2 int_0^t e^{-a u} B(u) du, which is
    # (B(t) - B(2t) / 2) / a: another spelling of the same square.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    sigma = 0.011
    for u in np.geomspace(1e-12, 5.0, 60):
        model = ShortRateModel(u / dt, sigma)
        a, t, s = mp.mpf(model.mean_reversion), mp.mpf(dt), mp.mpf(sigma)

        def b(tau):
            return -mp.expm1(-a * tau) / a

        drift = [-s**2 * (b(tau) - b(2 * tau) / 2) / a for tau in (t, 10 * t)]
        expected = (s**2 * b(2 * t) / 2, b(t), *drift)
        actual = (model.variance(dt), model.b_factor(dt),
                  *model.forward_drift(np.array([dt, 10 * dt])))
        for name, got, want in zip(("v(t)", "B", "m(t)", "m(10t)"), actual, expected):
            assert abs(mp.mpf(float(got)) / want - 1) <= 1e-15, (name, u)


def test_vanishing_mean_reversion_is_brownian_motion():
    # a = 1e-200: a * a underflows; the limits are sigma^2 dt and -sigma^2 dt^2 / 2.
    dt, sigma = 0.25, 0.011
    model = ShortRateModel(1e-200, sigma)
    assert model.variance(dt) == pytest.approx(sigma**2 * dt, rel=1e-15)
    assert model.forward_drift(dt) == pytest.approx(-sigma**2 * dt**2 / 2, rel=1e-15)


class UnitNormals:
    """Stands in for the sampler's generator: the normal of the ``i``-th row drawn is 1
    on path ``i`` and 0 elsewhere, so path ``j``'s ``x`` at a grid row is the coefficient
    of row ``j``'s normal in it, the linear map from the normals to the row."""

    def __init__(self, n_rows):
        self.eye, self.row = np.eye(n_rows), 0

    def standard_normal(self, size):
        rows, _ = size
        self.row += rows
        return self.eye[self.row - rows:self.row]


def shared_normal():
    """A planted defect: ``_simulate_block`` with every row taking the first row's normals,
    so the rows are perfectly correlated as along a path."""
    first = []

    def simulate(sd, rng, k, n_paths):
        if not first:
            first.append(rng.standard_normal((1, n_paths)))
        return sd[k] * first[0]
    return simulate


def assert_exact_marginal_law(model, grid, simulate):
    """The sampled rows against the factor's law under Q, row by row as ``_sampled_epe``
    draws them: ``Var(x_t) = sigma^2 B(2t) / 2``, an independent spelling of ``v_t``, and
    zero covariance between any two rows."""
    n, a = len(grid), model.mean_reversion
    rng, sd = UnitNormals(n), np.sqrt(model.variance(grid))
    x = np.vstack([simulate(sd, rng, k, n) for k in range(n)])
    cov = x @ x.T
    var = model.sigma**2 * -np.expm1(-2 * a * grid) / (2 * a)
    np.testing.assert_allclose(np.diag(cov), var, rtol=1e-12, atol=0)
    assert np.array_equal(cov, np.diag(np.diag(cov)))


@pytest.mark.parametrize("mean_reversion", [0.05, 1e-6])
@pytest.mark.parametrize("sigma", [0.011, 0.05])
def test_rows_carry_the_exact_marginal_law(sigma, mean_reversion):
    grid = np.union1d(np.linspace(0.0, 1.0, 13), np.linspace(1.0, 30.0, 117))  # uneven spacing
    assert_exact_marginal_law(ShortRateModel(mean_reversion, sigma), grid, _simulate_block)


def test_one_normal_shared_by_every_row_fails_the_law():
    grid = np.linspace(0.0, 10.0, 41)
    with pytest.raises(AssertionError):
        assert_exact_marginal_law(ShortRateModel(0.05, 0.011), grid, shared_normal())
