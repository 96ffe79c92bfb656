"""One book through the pipeline: the collateralized legs carry no exposure and no CEM
add-on, but net on the market-risk ladder and are the collateral behind COLVA."""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from xvakit import SwapSpec, runner
from xvakit.config import load_config
from xvakit.regcap import capital_base
from xvakit.report import render_csv, render_table
from xvakit.runner import run_config
from xvakit.xva import COMPONENTS, breakdown

# A posted 7y payer: inside base-case's 10y horizon, so the grid does not change.
POSTED_LEG = SwapSpec(notional=50.0, fixed_rate=0.025, maturity=7.0, payer=True,
                      collateralized=True)


def negated_carry(inputs):
    """A planted defect: COLVA as ``-spread * int(W collateral)``, which is -0.0 at a zero
    spread wherever the integral is positive.  The integral is read off a breakdown at unit
    spread, whose COLVA is ``0.0 - int(W collateral)``."""
    integral = -breakdown(replace(inputs, collateral_spread=1.0)).colva
    return replace(breakdown(inputs), colva=-inputs.collateral_spread * integral)


def assert_zero_spread_prints_zero():
    """At collateralSpread 0 base-case, whose book holds a posted receiver, prints every
    COLVA cell of its CSV as ``0.0`` and leaves COLVA out of its table."""
    result = run_config(load_config("base-case"))
    assert result.config.collateral_spread == 0.0
    assert np.all(result.profile.collateral[:-1] > 0.0)  # so a negated carry is -0.0
    header, *rows = csv.reader(io.StringIO(render_csv(result)))
    column = header.index("colva_bp")
    assert [row[column] for row in rows] == ["0.0"] * len(rows)
    assert "COLVA" not in render_table(result)


def test_zero_spread_prints_colva_as_0_0():
    assert_zero_spread_prints_zero()


def test_a_negated_carry_fails_it(monkeypatch):
    monkeypatch.setattr(runner, "breakdown", negated_carry)
    with pytest.raises(AssertionError):
        assert_zero_spread_prints_zero()


def moved_by_a_posted_leg(spread):
    """The breakdown columns that change, at any row, when ``POSTED_LEG`` joins base-case's
    book, swept over psi 0 and 1 so that the CVA-volatility charge is live."""
    config = replace(load_config("base-case"), psi=(0.0, 1.0), collateral_spread=spread)
    before, after = (run_config(replace(config, swaps=swaps)).breakdown
                     for swaps in (config.swaps, config.swaps + (POSTED_LEG,)))
    return {name for name in COMPONENTS
            if not np.array_equal(getattr(before, name), getattr(after, name))}


def assert_the_split():
    """The leg nets on the ladder (KVA_MR, and TVA's tax on that capital) and is collateral
    (COLVA, at a nonzero spread); CVA, DVA, FCA, KVA_CCR and KVA_CVA stay bit for bit."""
    assert moved_by_a_posted_leg(0.0) == {"kva_mr", "tva"}
    assert moved_by_a_posted_leg(0.002) == {"colva", "kva_mr", "tva"}


def test_a_posted_leg_moves_only_market_risk_and_colva():
    assert_the_split()


@pytest.mark.parametrize("defect", ["ladder without the posted legs",
                                    "add-ons over the whole book"])
def test_a_planted_defect_fails_it(monkeypatch, defect):
    def planted(profile, book, curve):
        if defect == "ladder without the posted legs":
            return capital_base(profile, tuple(s for s in book if not s.collateralized), curve)
        return capital_base(profile, tuple(replace(s, collateralized=False) for s in book),
                            curve)

    monkeypatch.setattr(runner, "capital_base", planted)
    with pytest.raises(AssertionError):
        assert_the_split()
