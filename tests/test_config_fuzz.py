"""``xva run`` and ``xva pde-verify`` over random configurations.

``run``: each configuration is drawn inside the schema's ranges and then,
half the time, has one field set to an invalid value, so both the validator
and the pipeline are exercised.  Volatility reaches 6, far past the point
where the long book's exposure overflows, and up to 1e200, where its square
does.  Mean reversion reaches down to 1e-300, where its square underflows.
It exits 0 or 1, with no traceback and no NaN.

``pde-verify``: each ``pde`` block is drawn inside its bounds, up to their
corners, and then, half the time, has one field set just past a bound or to a
huge finite value.  It exits 0 or 2 with finite figures, or 1 naming a
``pde.`` field: the one set past its bound, if any.  A grid refused only as
too coarse for its drift is run again at the least ``nSpace`` the refusal
names, so that the march is still exercised there.
"""

import contextlib
import csv
import io
import json
import math
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xvakit.cli import main

RATINGS = ["AAA", "A", "BB", "CCC"]

# (path, invalid value): one of these may replace a drawn field.
INVALID = [
    (("psi",), [1.5]), (("priceOfRiskXi",), [1.5]), (("phi",), [-0.1]), (("taxRate",), 1.0),
    (("costOfCapital",), -0.1), (("paths",), 0), (("paths",), 4), (("paths",), 7),
    (("workers",), 0),
    (("market", "issuer", "recovery"), 1.0), (("market", "issuer", "spreadBp"), -5.0),
    (("market", "model", "sigma"), -0.01), (("market", "model", "meanReversion"), 0.0),
    (("swaps", 0, "maturity"), 10.1), (("swaps", 0, "frequency"), 3), (("ratings",), ["XX"]),
    (("accrualTaxed",), True), (("swaps", 0, "fixedrate"), 0.02),
    # Finite but past a bound: unbounded, each gave NaN cells, an internal error
    # or an overflow blamed on sigma.
    (("costOfCapital",), 1e308), (("minCapitalRatio",), 1e308), (("collateralSpread",), 1e308),
    (("collateralSpread",), -1e308), (("market", "curve", "zeroRates"), [0.02, 1e308]),
    (("swaps", 0, "notional"), 1e308), (("swaps", 0, "fixedRate"), 1e308),
    (("ratingTable",), {"BB": {"cdsSpreadBp": 250, "riskWeight": 1e308, "cvaWeight": 0.02}}),
    (("ratingTable",), {"BB": {"cdsSpreadBp": 250, "riskWeight": 1.0, "cvaWeight": 1e308}}),
    (("mLambda",), [-1e308]),  # in place of priceOfRiskXi
    (("workers",), 65), (("paths",), 100_000_002),  # read by nothing, yet still bounded
    (("hedgeSourceLabel",), "A,B\nC"),  # would split its CSV line and shift the columns
]


def fractions(lo=0.0, hi=1.0):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=3)


@st.composite
def swaps(draw):
    frequency = draw(st.sampled_from([1, 2, 4]))
    return {
        "notional": draw(st.one_of(st.floats(1.0, 1e3), st.floats(1.0, 1e15))),
        "fixedRate": draw(st.one_of(st.floats(-0.01, 0.08), st.floats(-1.0, 1.0))),
        "maturity": draw(st.integers(1, 30 * frequency)) / frequency,
        "frequency": frequency,
        "payer": draw(st.booleans()),
        "collateralized": draw(st.booleans()),
    }


@st.composite
def configs(draw):
    raw = {
        "schemaVersion": 1,
        "market": {
            "curve": {"pillars": [1.0, 30.0],
                      "zeroRates": draw(st.lists(st.one_of(st.floats(-0.01, 0.08),
                                                           st.floats(-1.0, 1.0)),
                                                 min_size=2, max_size=2))},
            "model": {"meanReversion": draw(st.floats(1e-300, 1.0)),
                      "sigma": draw(st.one_of(st.floats(0.0, 0.05), st.floats(0.0, 6.0),
                                              st.floats(0.0, 1e200)))},
            "issuer": {"spreadBp": draw(st.floats(0.0, 500.0)),
                       "recovery": draw(st.floats(0.0, 0.9))},
        },
        "swaps": draw(st.lists(swaps(), min_size=1, max_size=3)),
        "ratings": draw(st.lists(st.sampled_from(RATINGS), min_size=1, max_size=2, unique=True)),
        "psi": draw(fractions()),
        "priceOfRiskXi": draw(fractions(-1.0, 1.0)),
        "phi": draw(fractions()),
        "costOfCapital": draw(st.floats(0.0, 1.0)),
        "minCapitalRatio": draw(st.floats(0.0, 1.0)),
        "taxRate": draw(st.floats(0.0, 0.9)),
        "accrualsTaxed": draw(st.booleans()),
        "compensatorTaxed": draw(st.booleans()),
        "collateralSpread": draw(st.one_of(st.floats(0.0, 0.01), st.floats(-1.0, 1.0))),
        "paths": 2 * draw(st.integers(3, 1000)),
        "workers": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2**32)),
    }
    if draw(st.booleans()):  # the price of risk in hazard units
        raw["mLambda"] = draw(fractions(-1.0, 0.01))
    if draw(st.booleans()):
        path, value = draw(st.sampled_from(INVALID))
        owner = raw
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
    if "mLambda" in raw:
        del raw["priceOfRiskXi"]
    return raw


LONG_BOOK_AT_500_PERCENT = {
    "schemaVersion": 1,
    "market": {"curve": {"pillars": [1.0, 30.0], "zeroRates": [0.02, 0.02]},
               "model": {"meanReversion": 0.05, "sigma": 5.0},
               "issuer": {"spreadBp": 100, "recovery": 0.4}},
    "swaps": [{"notional": 100.0, "fixedRate": rate, "maturity": maturity, "frequency": 4,
               "payer": payer} for rate, maturity, payer in
              ((0.022, 5.0, True), (0.019, 10.0, False), (0.024, 20.0, True),
               (0.018, 30.0, False))],
    "ratings": ["BB"], "psi": [0.0], "priceOfRiskXi": [-0.5], "phi": [0.0], "paths": 2000,
}


def long_book(**model):
    """The long book with other model parameters."""
    raw = json.loads(json.dumps(LONG_BOOK_AT_500_PERCENT))
    raw["market"]["model"].update(model)
    return raw


@settings(max_examples=100, deadline=None, derandomize=True)
@example(LONG_BOOK_AT_500_PERCENT)
@example(long_book(sigma=1e200))
@example(long_book(sigma=0.011, meanReversion=1e-300))
@given(configs())
def test_run_exits_0_or_1_with_finite_output(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "run.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(path), "--format", "csv"])
    assert code in (0, 1), err.getvalue()
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code == 0:
        header, *rows = csv.reader(out.getvalue().splitlines())
        numeric = [name for name in header if name.endswith("_bp")]
        assert rows and numeric
        for row in rows:
            cells = dict(zip(header, row))
            assert all(math.isfinite(float(cells[name])) for name in numeric), row
    else:
        assert out.getvalue() == "" and err.getvalue().strip()


# (key, value) just past each bound of the pde block, and huge finite values.
PDE_PAST = [
    *[(key, value) for key in ("spot", "strike")
      for value in (0.0, 9e-16, 1.01e15, 1e300, -1e300)],
    ("maturity", 0.0), ("maturity", 100.5), ("maturity", 1e6),
    ("sigma", 0.0), ("sigma", 9e-5), ("sigma", 1.01), ("sigma", 1000.0),
    *[(key, value) for key in ("rate", "dividendYield", "repoRate", "collateralSpread",
                               "priceOfRisk") for value in (-1.01, 1.01, 1e300, -1e300)],
    *[(key, value) for key in ("issuerHazard", "counterpartyHazard", "costOfCapital",
                               "hedgeFraction", "collateralFraction", "capitalFundingFraction",
                               "issuerRecovery", "counterpartyRecovery")
      for value in (-0.01, 1.01, 1e300)],
    ("taxRate", 1.0), ("taxRate", -0.01), ("taxRate", 1e300),
    ("capitalFactor", -0.01), ("capitalFactor", 12.6), ("capitalFactor", 1e300),
    ("capitalReliefFactor", -0.01), ("capitalReliefFactor", 1e300),
    ("tolerance", 0.0), ("tolerance", 1.0), ("tolerance", 1e300),
    # just past the cap: a cap dropped runs these in milliseconds, not out of memory
    ("nSpace", 6), ("nSpace", 2002), ("nTime", 3), ("nTime", 2001),
]


@st.composite
def pde_blocks(draw):
    """A pde block inside every bound, on a grid of at most 40 x 200 nodes."""
    unit, signed = st.floats(0.0, 1.0), st.floats(-1.0, 1.0)
    capital_factor = draw(st.floats(0.0, 12.5))
    pde = {
        "spot": draw(st.one_of(st.floats(50.0, 150.0), st.floats(1e-15, 1e15))),
        "strike": draw(st.one_of(st.floats(50.0, 150.0), st.floats(1e-15, 1e15))),
        "maturity": draw(st.floats(0.0, 100.0, exclude_min=True)),
        "sigma": draw(st.floats(1e-4, 1.0)),
        "payoff": draw(st.sampled_from(["call", "put", "forward"])),
        **{key: draw(signed) for key in ("rate", "dividendYield", "collateralSpread",
                                         "priceOfRisk")},
        **{key: draw(unit) for key in ("issuerHazard", "counterpartyHazard", "costOfCapital",
                                       "hedgeFraction", "collateralFraction",
                                       "capitalFundingFraction", "issuerRecovery",
                                       "counterpartyRecovery")},
        "taxRate": draw(st.floats(0.0, 1.0, exclude_max=True)),
        "capitalFactor": capital_factor,
        "capitalReliefFactor": capital_factor * draw(unit),
        "accrualsTaxed": draw(st.booleans()),
        "compensatorTaxed": draw(st.booleans()),
        "nSpace": 2 * draw(st.integers(4, 20)),
        "nTime": draw(st.integers(4, 200)),
        "tolerance": draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    }
    if draw(st.booleans()):
        pde["repoRate"] = draw(signed)
    return pde


PECLET = re.compile(r"pde\.nSpace: cell Peclet number \S+ > 1; needs >= (\d+)")

PDE_CORNER = {"spot": 1e15, "strike": 1e15, "maturity": 100.0, "sigma": 1.0,
              "nSpace": 40, "nTime": 200}


def pde_verify(tmp_path, pde):
    """``(exit code, stdout, stderr)`` of pde-verify on a run config with ``pde``."""
    raw = {**LONG_BOOK_AT_500_PERCENT, "pde": pde}
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(raw))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["pde-verify", str(path)])
    return code, out.getvalue(), err.getvalue()


def check_pde_verify(tmp_path, pde, past=None):
    code, out, err = pde_verify(tmp_path, pde)
    assert code in (0, 1, 2), err
    if code == 1:
        lines = err.splitlines()
        assert lines and all(line.startswith("pde.") for line in lines), err
        if past is None and len(lines) == 1 and (least := PECLET.fullmatch(lines[0])):
            return check_pde_verify(tmp_path, {**pde, "nSpace": int(least[1])})
    else:
        assert past is None, f"pde.{past} not refused: {out}"
        numbers = [float(token) for token in out.replace("(", " ").replace(")", " ").split()
                   if token[-1].isdigit() or token.endswith(("inf", "nan"))]
        assert len(numbers) == 13 and all(map(math.isfinite, numbers)), out
    if past is not None:
        assert any(line.startswith(f"pde.{past}: ") for line in err.splitlines()), err


@settings(max_examples=150, deadline=None, derandomize=True)
@example({**PDE_CORNER, "rate": 1.0, "repoRate": 1.0, "dividendYield": 1.0}, None)
@example({**PDE_CORNER, "rate": -1.0, "repoRate": 1.0, "dividendYield": -1.0,
          "payoff": "forward", "capitalFactor": 12.5, "capitalReliefFactor": 0.0,
          "costOfCapital": 1.0, "issuerHazard": 1.0, "counterpartyHazard": 1.0,
          "priceOfRisk": -1.0, "hedgeFraction": 0.0, "collateralSpread": 1.0}, None)
@example({**PDE_CORNER, "rate": -1.0, "repoRate": -1.0, "dividendYield": 1.0,
          "payoff": "put", "spot": 1e-15, "issuerRecovery": 1e-6}, None)
@given(pde_blocks(), st.one_of(st.none(), st.sampled_from(PDE_PAST)))
def test_pde_verify_exits_0_1_or_2_with_finite_figures(tmp_path_factory, pde, past):
    if past is not None:
        pde = {**pde, past[0]: past[1]}
    check_pde_verify(tmp_path_factory.mktemp("pde"), pde, past and past[0])


@pytest.mark.parametrize("key, value", PDE_PAST, ids=[f"{k}={v:g}" for k, v in PDE_PAST])
def test_pde_value_past_a_bound_is_refused(tmp_path, key, value):
    check_pde_verify(tmp_path, {"nSpace": 40, "nTime": 40, key: value}, key)


def test_pde_time_step_past_its_bound_is_refused(tmp_path):
    # One step short of 2 maturity (-rate): a march that grows by more than half
    # a step, up to the singular start-up step at -rate dt = 1.
    pde = {"rate": -1.0, "maturity": 100.0, "nSpace": 40, "nTime": 199}
    check_pde_verify(tmp_path, pde, "nTime")
