"""``xva run`` over random configurations: exit 0 or 1, no traceback, no NaN.

Each configuration is drawn inside the schema's ranges and then, half the
time, has one field set to an invalid value, so both the validator and the
pipeline are exercised.  Volatility reaches 6, far past the point where the
long book's exposure overflows, and up to 1e200, where its square does.
Mean reversion reaches down to 1e-300, where its square underflows.
"""

import contextlib
import csv
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from xvakit.cli import main

RATINGS = ["AAA", "A", "BB", "CCC"]

# (path, invalid value): one of these may replace a drawn field.
INVALID = [
    (("psi",), [1.5]), (("priceOfRiskXi",), [1.5]), (("phi",), [-0.1]), (("taxRate",), 1.0),
    (("costOfCapital",), -0.1), (("paths",), 0), (("paths",), 7), (("workers",), 0),
    (("market", "issuer", "recovery"), 1.0), (("market", "issuer", "spreadBp"), -5.0),
    (("market", "model", "sigma"), -0.01), (("market", "model", "meanReversion"), 0.0),
    (("swaps", 0, "maturity"), 10.1), (("swaps", 0, "frequency"), 3), (("ratings",), ["XX"]),
]


def fractions(lo=0.0, hi=1.0):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=3)


@st.composite
def swaps(draw):
    frequency = draw(st.sampled_from([1, 2, 4]))
    return {
        "notional": draw(st.floats(1.0, 1e3)),
        "fixedRate": draw(st.floats(-0.01, 0.08)),
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
                      "zeroRates": draw(st.lists(st.floats(-0.01, 0.08), min_size=2, max_size=2))},
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
        "costOfCapital": draw(st.floats(0.0, 0.3)),
        "taxRate": draw(st.floats(0.0, 0.9)),
        "accrualsTaxed": draw(st.booleans()),
        "compensatorTaxed": draw(st.booleans()),
        "collateralSpread": draw(st.floats(0.0, 0.01)),
        "antithetic": draw(st.booleans()),
        "paths": 2 * draw(st.integers(1, 1000)),
        "workers": draw(st.integers(1, 2)),
        "seed": draw(st.integers(0, 2**32)),
    }
    if draw(st.booleans()):
        path, value = draw(st.sampled_from(INVALID))
        owner = raw
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
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
