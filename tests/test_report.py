"""The renderers against a reference copy, and the report's bytes under any locale."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import report_reference
from xvakit.config import validate_config
from xvakit.report import RENDERERS
from xvakit.runner import run_config

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
LABEL = "Q \\ ä"  # a space, a backslash and a non-ASCII letter


def base_case(drop=(), **fields):
    """configs/base_case.json with ``drop`` removed and ``fields`` set, validated."""
    raw = json.loads((CONFIGS / "base_case.json").read_text(encoding="utf-8"))
    for key in drop:
        del raw[key]
    raw.update(fields)
    cfg, diags = validate_config(raw, CONFIGS)
    assert cfg is not None, diags
    return cfg


def market(sigma):
    """configs/market_gbp_flat.json at volatility ``sigma``."""
    raw = json.loads((CONFIGS / "market_gbp_flat.json").read_text(encoding="utf-8"))
    raw["model"]["sigma"] = sigma
    return raw


def swap(notional, rate, maturity, frequency, payer, collateralized=False):
    return {"notional": notional, "fixedRate": rate, "maturity": maturity,
            "frequency": frequency, "payer": payer, "collateralized": collateralized}


# The benchmark's long book: four uncollateralized swaps and a posted one.
LONG_BOOK = [swap(100.0, 0.022, 5.0, 4, True), swap(100.0, 0.019, 10.0, 2, False),
             swap(100.0, 0.024, 20.0, 4, True), swap(100.0, 0.018, 30.0, 4, False),
             swap(100.0, 0.021, 30.0, 4, False, collateralized=True)]

CASES = {
    "m_lambda": lambda: base_case(drop=["priceOfRiskXi"], mLambda=[-0.004, 0.0, 0.002],
                                  psi=[0.0, 0.3, 1.0]),
    "colva": lambda: base_case(collateralSpread=0.002),
    "no_colva": lambda: base_case(collateralSpread=0.0),
    "labels": lambda: base_case(
        hedgeSourceLabel=LABEL, ratings=["A", LABEL],
        ratingTable={LABEL: {"cdsSpreadBp": 150, "riskWeight": 1.0, "cvaWeight": 0.01}}),
    "receiver": lambda: base_case(swaps=[swap(100.0, 0.027, 10.0, 2, False),
                                         swap(100.0, 0.027, 10.0, 2, True, True)]),
    "taxed": lambda: base_case(psi=[0.0, 0.5], accrualsTaxed=True, compensatorTaxed=True),
    "long_book": lambda: base_case(swaps=LONG_BOOK, psi=[0.0, 0.5, 1.0],
                                   priceOfRiskXi=[-0.5, 0.5]),
    "volatile": lambda: base_case(market=market(0.3)),
    "sloped": lambda: base_case(market=dict(market(0.011), curve={
        "pillars": [1.0, 10.0, 30.0], "zeroRates": [0.01, 0.02, 0.03]})),
}


@pytest.fixture(scope="module")
def results():
    return {name: run_config(make()) for name, make in CASES.items()}


def legacy(result):
    """``result`` as the reference reads it, with the total's error in bps, 0, as ``se_bp``."""
    return SimpleNamespace(**vars(result), se_bp=np.zeros(len(result.rows)))


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
@pytest.mark.parametrize("case", CASES)
def test_renderer_matches_the_reference_byte_for_byte(results, case, fmt):
    reference = getattr(report_reference, f"render_{fmt}")
    assert RENDERERS[fmt](results[case]) == reference(legacy(results[case]))


def test_the_cases_reach_what_they_cover(results):
    """Each case shows the feature it is there for, so a renderer that drops it
    cannot pass against the reference by accident."""
    table = {name: report_reference.render_table(legacy(r)) for name, r in results.items()}
    labels = {line.split()[2] for line in table["m_lambda"].splitlines()[2:-2]}
    assert labels == {"na", "-0.004", "+0", "+0.002"}
    assert "COLVA" in table["colva"] and "COLVA" not in table["no_colva"]
    assert table["labels"].count(LABEL) == 6  # the source of four rows, the rating of two
    assert table["no_colva"].endswith("; exact Gaussian exposure\n")
    assert len(table["long_book"].splitlines()) == 48 + 4  # header, rule, blank, footer
    assert table["volatile"].splitlines()[0] != table["no_colva"].splitlines()[0]  # wider
    assert table["sloped"] != table["no_colva"]


def run_cli(args, locale, cwd):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("LC_", "LANG", "PYTHON"))}
    env.update(LC_ALL=locale, PYTHONPATH=str(ROOT / "src"))
    if locale == "C":  # no coercion to a UTF-8 locale and no UTF-8 mode: stdout is ASCII
        env.update(PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    return subprocess.run([sys.executable, "-m", "xvakit.cli", "run", *args],
                          capture_output=True, cwd=cwd, env=env, timeout=120)


@pytest.mark.parametrize("fmt", sorted(RENDERERS))
def test_report_bytes_do_not_depend_on_the_locale(tmp_path, fmt):
    """A valid non-ASCII label: files are UTF-8 in any locale, and a stdout that
    cannot encode the report is an I/O failure, with nothing written to it."""
    raw = json.loads((CONFIGS / "base_case.json").read_text(encoding="utf-8"))
    raw.update(market=json.loads((CONFIGS / "market_gbp_flat.json").read_text(encoding="utf-8")),
               hedgeSourceLabel="Bänk")
    (tmp_path / "bank.json").write_text(json.dumps(raw), encoding="utf-8")
    for locale in ("C", "C.UTF-8"):
        done = run_cli(["bank.json", "--format", fmt, "--out", f"{locale}.out"], locale, tmp_path)
        assert (done.returncode, done.stderr) == (0, b"")
    text = (tmp_path / "C.out").read_bytes()
    assert text == (tmp_path / "C.UTF-8.out").read_bytes()
    assert (b"B\\u00e4nk" if fmt == "json" else "Bänk".encode()) in text
    done = run_cli(["bank.json", "--format", fmt], "C", tmp_path)
    if fmt == "json":  # pure ASCII, so any stdout takes it
        assert (done.returncode, done.stdout) == (0, text)
    else:
        assert (done.returncode, done.stdout) == (3, b"")
        assert done.stderr.startswith(b"cannot write to stdout: 'ascii' codec can't encode")
        assert done.stderr.count(b"\n") == 1
