import numpy as np
import pytest

from xvakit import (
    DiscountCurve,
    ShortRateModel,
    SwapSpec,
    exposure_profile,
    make_exposure_grid,
)


@pytest.fixture(scope="session")
def flat_curve():
    return DiscountCurve((50.0,), (0.02,))


@pytest.fixture(scope="session")
def model():
    return ShortRateModel(mean_reversion=0.05, sigma=0.011)


@pytest.fixture(scope="session")
def payer_swap():
    return SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, frequency=2, payer=True)


@pytest.fixture(scope="session")
def quarterly_grid():
    return make_exposure_grid(10.0)


@pytest.fixture(scope="session")
def small_profile(payer_swap, model, flat_curve, quarterly_grid):
    """The payer swap's exposure profile, shared by integral-level tests."""
    return exposure_profile((payer_swap,), model, flat_curve, quarterly_grid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20150106)
