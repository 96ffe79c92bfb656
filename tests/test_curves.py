"""Discount-curve construction, interpolation and extrapolation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xvakit import DiscountCurve


def test_df_at_zero_is_one():
    curve = DiscountCurve((1.0, 5.0), (0.02, 0.03))
    assert curve.df(0.0) == 1.0


def test_pillars_reproduced_exactly():
    pillars = (0.5, 1.0, 3.0, 7.0)
    rates = (0.01, 0.015, 0.02, 0.025)
    curve = DiscountCurve(pillars, rates)
    for p, r in zip(pillars, rates):
        assert curve.df(p) == pytest.approx(math.exp(-r * p), rel=0, abs=0)
        assert -curve.log_df(p) / p == pytest.approx(r, rel=1e-15)


def test_single_pillar_zero_rate_gives_unit_df():
    curve = DiscountCurve((10.0,), (0.0,))
    for t in (0.0, 1.0, 5.0, 10.0, 25.0):
        assert curve.df(t) == 1.0


def test_flat_curve_midpoint():
    curve = DiscountCurve((1.0, 10.0), (0.02, 0.02))
    assert curve.df(5.0) == pytest.approx(math.exp(-0.10), rel=1e-14)


def test_log_linear_interpolation_between_pillars():
    # log df linear between (1y, 1%) and (2y, 3%): log df(1.5) = -0.035
    curve = DiscountCurve((1.0, 2.0), (0.01, 0.03))
    assert curve.df(1.5) == pytest.approx(math.exp(-0.035), rel=1e-14)


def test_flat_zero_extrapolation_beyond_last_pillar():
    curve = DiscountCurve((1.0, 2.0), (0.01, 0.03))
    assert curve.df(4.0) == pytest.approx(math.exp(-0.03 * 4.0), rel=1e-14)
    assert curve.forward(10.0) == pytest.approx(0.03)


def test_forward_is_segment_slope():
    curve = DiscountCurve((1.0, 2.0), (0.01, 0.03))
    assert curve.forward(0.5) == pytest.approx(0.01, rel=1e-12)
    # segment (1, 2]: (0.03*2 - 0.01*1) / 1 = 0.05
    assert curve.forward(1.5) == pytest.approx(0.05, rel=1e-12)
    assert curve.forward(2.0) == pytest.approx(0.05, rel=1e-12)


def test_df_consistent_with_forwards():
    curve = DiscountCurve((1.0, 3.0, 8.0), (0.012, 0.02, 0.028))
    # integrate the piecewise-constant forward by segment sums
    ts = np.linspace(0.0, 12.0, 97)
    fine = np.linspace(0.0, 12.0, 480001)
    fwd = curve.forward(fine)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (fwd[1:] + fwd[:-1]) * np.diff(fine))])
    interp = np.interp(ts, fine, integral)
    # trapezoid across the forward jumps limits attainable accuracy
    assert np.allclose(curve.df(ts), np.exp(-interp), rtol=1e-6)


def test_array_and_scalar_round_trip():
    curve = DiscountCurve((1.0, 2.0), (0.01, 0.03))
    ts = np.array([0.0, 0.5, 1.5, 3.0])
    out = curve.df(ts)
    assert isinstance(out, np.ndarray)
    assert out.shape == ts.shape
    assert isinstance(curve.df(1.0), float)


@pytest.mark.parametrize(
    "pillars, rates",
    [
        ((2.0, 1.0), (0.01, 0.01)),
        ((1.0, 1.0), (0.01, 0.01)),
        ((0.0, 1.0), (0.01, 0.01)),
        ((-1.0,), (0.01,)),
        ((1.0, 2.0), (0.01,)),
        ((), ()),
    ],
)
def test_validation_rejects_bad_pillars(pillars, rates):
    with pytest.raises(ValueError):
        DiscountCurve(pillars, rates)


def test_negative_time_rejected():
    curve = DiscountCurve((50.0,), (0.02,))
    with pytest.raises(ValueError):
        curve.df(-0.5)


@given(
    rates=st.lists(st.floats(-0.02, 0.12), min_size=1, max_size=6),
    t=st.floats(0.0, 40.0),
)
def test_df_positive_and_pillar_exact(rates, t):
    pillars = tuple(float(i + 1) for i in range(len(rates)))
    curve = DiscountCurve(pillars, tuple(rates))
    assert curve.df(t) > 0.0
    for p, r in zip(pillars, rates):
        assert math.isclose(curve.df(p), math.exp(-r * p), rel_tol=1e-12)
