"""Configuration schema, presets, report formats and the command line."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from xvakit.cli import main
from xvakit.config import PRESETS, ConfigError, load_config, validate_config
from xvakit.report import render_csv, render_json, render_table, round_half_away
from xvakit.runner import run_config

VALID_CONFIG = {
    "schemaVersion": 1,
    "market": {
        "curve": {"pillars": [1.0, 30.0], "zeroRates": [0.02, 0.02]},
        "model": {"meanReversion": 0.05, "sigma": 0.011},
        "issuer": {"spreadBp": 100, "recovery": 0.4},
    },
    "swaps": [
        {"notional": 100.0, "fixedRate": 0.027, "maturity": 10.0, "frequency": 2,
         "payer": True, "collateralized": False},
        {"notional": 100.0, "fixedRate": 0.027, "maturity": 10.0, "frequency": 2,
         "payer": False, "collateralized": True},
    ],
    "ratings": ["AAA", "A"],
    "psi": [1.0],
    "priceOfRiskXi": [0.0],
    "phi": [0.0],
    "seed": 7,
    "paths": 2000,
}


OFF_SCHEDULE = "swaps[0].maturity: must be a whole number of 1/frequency periods"


def small_config(**overrides):
    raw = json.loads(json.dumps(VALID_CONFIG))
    raw.update(overrides)
    return raw


def zero_hazard_config():
    """``mLambda`` against a rating whose CDS spread, and so hazard, is zero."""
    raw = small_config(
        ratings=["ZERO"],
        ratingTable={"ZERO": {"cdsSpreadBp": 0, "riskWeight": 0.2, "cvaWeight": 0.007}},
        mLambda=[0.001],
    )
    raw.pop("priceOfRiskXi")
    return raw


class TestValidation:
    def test_valid_config_has_no_diagnostics(self):
        cfg, diags = validate_config(small_config())
        assert diags == []
        assert cfg is not None
        assert cfg.ratings == ("AAA", "A")

    def test_book_with_only_collateralized_swaps_is_rejected(self):
        # Its bp figures would divide by an uncollateralized notional of 0.
        cfg, diags = validate_config(small_config(swaps=VALID_CONFIG["swaps"][1:]))
        assert cfg is None and diags == [
            "swaps: at least one must be uncollateralized (figures are bp of its notional)"]

    def test_psi_out_of_range_names_field(self):
        _, diags = validate_config(small_config(psi=[1.2]))
        assert any("psi" in d for d in diags)

    def test_both_price_of_risk_forms_rejected(self):
        _, diags = validate_config(small_config(mLambda=[0.01]))
        assert any("one or the other" in d for d in diags)

    def test_unknown_rating(self):
        _, diags = validate_config(small_config(ratings=["AA+"]))
        assert any("unknown rating" in d for d in diags)

    def test_missing_market_file_reports_path(self, tmp_path):
        raw = small_config(market="nowhere/market.json")
        _, diags = validate_config(raw, base_dir=tmp_path)
        assert any("market" in d and "not found" in d and "nowhere" in d for d in diags)

    def test_market_file_reference_resolved(self, tmp_path):
        market = VALID_CONFIG["market"]
        (tmp_path / "market.json").write_text(json.dumps(market))
        raw = small_config(market="market.json")
        cfg, diags = validate_config(raw, base_dir=tmp_path)
        assert diags == [] and cfg is not None
        assert cfg.market.sigma == 0.011

    def test_odd_paths_with_antithetic_rejected(self):
        _, diags = validate_config(small_config(paths=1001))
        assert any("even" in d for d in diags)

    def test_bad_schema_version(self):
        _, diags = validate_config(small_config(schemaVersion=99))
        assert any("schemaVersion" in d for d in diags)

    def test_validation_is_idempotent(self):
        raw = small_config(psi=[2.0], ratings=["ZZ"])
        _, first = validate_config(raw)
        _, second = validate_config(raw)
        assert first == second

    @pytest.mark.parametrize("key", ["psi", "priceOfRiskXi", "phi"])
    def test_rejected_element_reported_once(self, key):
        _, diags = validate_config(small_config(**{key: [math.nan]}))
        assert diags == [f"{key}[0]: must be finite"]
        _, diags = validate_config(small_config(**{key: ["0.5"]}))
        assert diags == [f"{key}[0]: expected number"]

    @pytest.mark.parametrize("key", ["psi", "priceOfRiskXi", "phi"])
    def test_empty_sweep_list_rejected(self, key):
        _, diags = validate_config(small_config(**{key: []}))
        assert diags == [f"{key}: list must not be empty"]

    def test_curve_lists_required(self):
        raw = small_config()
        del raw["market"]["curve"]["zeroRates"]
        _, diags = validate_config(raw)
        assert diags == ["market.curve.zeroRates: missing required field"]
        raw["market"]["curve"] = {"pillars": [], "zeroRates": [math.nan]}
        _, diags = validate_config(raw)
        assert diags == ["market.curve.pillars: list must not be empty",
                         "market.curve.zeroRates[0]: must be finite"]

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.json")

    def test_load_reports_json_error_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schemaVersion": 1,,}')
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert "line" in str(err.value)


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_build(self, name):
        cfg = PRESETS[name]()
        assert cfg.paths == 50000
        assert len(cfg.ratings) == 4

    @pytest.mark.parametrize(
        "filename, preset",
        [
            ("base_case.json", "base-case"),
            ("warehouse_pos.json", "warehouse-pos"),
            ("warehouse_neg.json", "warehouse-neg"),
        ],
    )
    def test_shipped_configs_mirror_presets(self, filename, preset):
        root = Path(__file__).resolve().parent.parent
        loaded = load_config(root / "configs" / filename)
        assert loaded == PRESETS[preset]()

    def test_shipped_pde_config_valid(self):
        root = Path(__file__).resolve().parent.parent
        cfg = load_config(root / "configs" / "pde_verify.json")
        assert cfg.pde.grid.n_space == 400
        assert cfg.pde.tolerance == 0.005

    def test_base_case_produces_eight_ordered_rows(self):
        cfg = replace(PRESETS["base-case"](), paths=1000)
        rows = run_config(cfg).rows
        assert len(rows) == 8
        assert [rating for *_, rating in rows] == ["AAA", "A", "BB", "CCC"] * 2
        assert [phi for _, _, _, phi, _ in rows] == [0.0] * 4 + [1.0] * 4

    def test_m_lambda_varies_xi_by_rating(self):
        cfg = replace(
            PRESETS["base-case"](),
            psi_values=(0.0,),
            xi_values=None,
            m_lambda_values=(0.0002,),
            paths=1000,
        )
        result = run_config(cfg)
        by_rating = {rating: xi for _, xi, _, phi, rating in result.rows if phi == 0.0}
        assert by_rating["AAA"] == pytest.approx(0.0002 / 0.005, rel=1e-12)
        assert by_rating["CCC"] == pytest.approx(0.0002 / 0.125, rel=1e-12)
        labels = {cells[4]: cells[2] for cells in map(str.split, render_table(result).splitlines())
                  if len(cells) > 4 and cells[3] == "0"}
        assert labels["AAA"] == "+0.0002"

    def test_m_lambda_beyond_hazard_rejected(self):
        raw = small_config(ratings=["AAA"], psi=[0.0])
        raw.pop("priceOfRiskXi")
        raw["mLambda"] = [0.01]
        _, diags = validate_config(raw)
        assert any("negative physical hazard" in d for d in diags)

    def test_rating_table_override_and_extension(self):
        raw = small_config(
            ratings=["AAA", "BBB"],
            ratingTable={
                "BBB": {"cdsSpreadBp": 150, "riskWeight": 0.75, "cvaWeight": 0.01},
                "AAA": {"cdsSpreadBp": 25, "riskWeight": 0.20, "cvaWeight": 0.007},
            },
        )
        cfg, diags = validate_config(raw)
        assert diags == []
        assert cfg.rating_table["BBB"].risk_weight == 0.75
        assert cfg.rating_table["AAA"].cds_spread_bp == 25
        # untouched built-ins survive the merge
        assert cfg.rating_table["CCC"].risk_weight == 1.5
        rows = run_config(cfg).rows
        assert {rating for *_, rating in rows} == {"AAA", "BBB"}

    def test_rating_table_bad_entry_reported(self):
        raw = small_config(ratingTable={"XX": {"cdsSpreadBp": 10, "riskWeight": 0.2}})
        _, diags = validate_config(raw)
        assert any("ratingTable.XX" in d and "cvaWeight" in d for d in diags)

    def test_rating_table_recovery_range_checked(self):
        raw = small_config(ratingTable={
            "XX": {"cdsSpreadBp": 10, "riskWeight": 0.2, "cvaWeight": 0.01, "recovery": 1.0}})
        _, diags = validate_config(raw)
        assert "ratingTable.XX.recovery: must lie in [0, 1)" in diags

    def test_rejected_rating_table_entry_is_one_diagnostic(self, tmp_path, capsys):
        # The rejected entry is not also an unknown rating where it is named.
        raw = small_config(ratings=["XX"], providerRating="XX", ratingTable={
            "XX": {"cdsSpreadBp": 10, "riskWeight": 0.2, "cvaWeight": 0.01, "recovery": 1.0}})
        config = tmp_path / "run.json"
        config.write_text(json.dumps(raw))
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "ratingTable.XX.recovery: must lie in [0, 1)"]

    def test_m_lambda_with_zero_hazard_rating_rejected(self):
        _, diags = validate_config(zero_hazard_config())
        assert diags == ["mLambda: rating ZERO has zero hazard; use priceOfRiskXi"]
        # the same rating is fine under priceOfRiskXi
        raw = zero_hazard_config()
        raw.pop("mLambda")
        raw["priceOfRiskXi"] = [0.0]
        assert validate_config(raw)[1] == []


class TestRowsAreSweepsOfOne:
    @pytest.mark.parametrize("dial, values", [("priceOfRiskXi", [-0.5, 0.3]),
                                              ("mLambda", [-0.002, 0.001])])
    def test_each_csv_line_equals_the_line_of_its_key_run_alone(self, dial, values):
        """A 2 psi x 2 xi x 2 phi x 2 rating run against its 16 one-row runs."""
        raw = small_config(psi=[0.0, 0.5], phi=[0.0, 1.0], ratings=["AAA", "BB"], paths=400,
                           collateralSpread=0.001, warnSeBp=3.0)
        raw.pop("priceOfRiskXi")
        cfg, diags = validate_config(dict(raw, **{dial: values}))
        assert not diags
        lines = render_csv(run_config(cfg)).splitlines()[1:]
        alone = []
        for psi in raw["psi"]:
            for value in values:
                for phi in raw["phi"]:
                    for rating in raw["ratings"]:
                        one, _ = validate_config(dict(raw, psi=[psi], phi=[phi], ratings=[rating],
                                                      **{dial: [value]}))
                        alone.append(render_csv(run_config(one)).splitlines()[1])
        assert len(lines) == 16
        assert lines == alone
        assert any(line.endswith("true") for line in lines)
        assert any(line.endswith("false") for line in lines)


@pytest.fixture(scope="module")
def result():
    cfg, diags = validate_config(small_config())
    assert not diags
    return run_config(cfg)


class TestReports:
    def test_rounding_half_away_from_zero(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(-2.5) == -3
        assert round_half_away(2.4) == 2
        assert round_half_away(-0.4) == 0

    def test_table_total_is_rounded_sum(self, result):
        text = render_table(result)
        lines = [l for l in text.splitlines() if l and l[0] != "-" and "Source" not in l
                 and "values" not in l]
        totals = result.breakdown.as_bps()["total"]
        assert len(lines) == len(totals)
        for total, line in zip(totals, lines):
            cells = line.split()
            total_cell = cells[-2] if cells[-1] == "!" else cells[-1]
            assert total_cell == str(round_half_away(total))

    def test_csv_columns_and_float_precision(self, result):
        text = render_csv(result)
        header, first = text.splitlines()[:2]
        assert header.startswith("source,psi,mLambdaC,phi,rating,cva_bp")
        assert "se_bp" in header and "warn" in header
        cva_field = first.split(",")[5]
        assert float(cva_field) == result.breakdown.as_bps()["cva"][0]

    def test_json_round_trip(self, result):
        payload = json.loads(render_json(result))
        assert payload["paths"] == 2000
        assert len(payload["rows"]) == len(result.rows)
        row = payload["rows"][0]
        assert row["currency"]["total"] == pytest.approx(result.breakdown.total[0])

    def test_machine_formats_are_deterministic(self):
        cfg, _ = validate_config(small_config())
        a = run_config(cfg)
        b = run_config(cfg)
        assert render_csv(a) == render_csv(b)
        assert render_json(a) == render_json(b)

    def test_different_seed_changes_output(self):
        cfg_a, _ = validate_config(small_config())
        cfg_b, _ = validate_config(small_config(seed=8))
        assert render_csv(run_config(cfg_a)) != render_csv(run_config(cfg_b))

    def test_collateral_spread_activates_colva(self, result):
        cfg, _ = validate_config(small_config(collateralSpread=0.001))
        res = run_config(cfg)
        # receiver collateral leg is in the money, so carrying it costs
        assert np.all(res.breakdown.colva < 0.0)
        assert "COLVA" in render_table(res)
        assert "COLVA" not in render_table(result)


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(small_config(**overrides)))
        return path

    def test_validate_preset(self, capsys):
        assert main(["validate", "base-case"]) == 0
        assert "ok" in capsys.readouterr().out

    def test_validate_good_file(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["validate", str(path)]) == 0

    def test_validate_bad_field(self, tmp_path, capsys):
        path = self.write_config(tmp_path, psi=[1.2])
        assert main(["validate", str(path)]) == 1
        assert "psi" in capsys.readouterr().err

    def test_validate_stdout(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["validate", "base-case"]) == 0
        assert main(["validate", str(path)]) == 0
        assert capsys.readouterr().out == f"ok: built-in preset base-case\nok: {path}\n"

    def test_validate_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "none.json")]) == 3

    def test_validate_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 1
        assert "line" in capsys.readouterr().err

    def test_run_table_to_stdout(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Rating" in out and "AAA" in out

    def test_run_csv_to_file(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["run", str(path), "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text().startswith("source,")

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == 3

    def test_run_invalid_config(self, tmp_path, capsys):
        path = self.write_config(tmp_path, ratings=["XX"])
        assert main(["run", str(path)]) == 1

    def test_run_seed_and_paths_overrides(self, tmp_path):
        path = self.write_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["run", str(path), "--format", "csv", "--seed", "1",
                     "--paths", "1000", "--out", str(out_a)]) == 0
        assert main(["run", str(path), "--format", "csv", "--seed", "2",
                     "--paths", "1000", "--out", str(out_b)]) == 0
        assert out_a.read_text() != out_b.read_text()

    def test_internal_error_is_exit_4_without_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(cfg):
            raise RuntimeError("kernel broke\non two lines")

        monkeypatch.setattr("xvakit.cli.run_config", broken)
        assert main(["run", str(self.write_config(tmp_path))]) == 4
        captured = capsys.readouterr()
        assert captured.err == "internal error: RuntimeError: kernel broke on two lines\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_validate_and_run_agree_on_zero_hazard_m_lambda(self, tmp_path, capsys, command):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(zero_hazard_config()))
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == (
            "mLambda: rating ZERO has zero hazard; use priceOfRiskXi\n")

    def test_run_rejects_odd_path_override(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert main(["run", str(path), "--paths", "999"]) == 1

    @pytest.mark.parametrize("paths", ["0", "-2"])
    def test_run_rejects_non_positive_path_override(self, tmp_path, capsys, paths):
        assert main(["run", str(self.write_config(tmp_path)), "--paths", paths]) == 1
        assert capsys.readouterr() == ("", "paths: must be >= 1\n")

    def test_run_refuses_an_overflowing_exposure(self, tmp_path, capsys):
        # The 30y long book at 500% volatility: its exposure overflows to NaN.
        raw = small_config(swaps=[
            {"notional": 100.0, "fixedRate": 0.022, "maturity": 5.0, "frequency": 4},
            {"notional": 100.0, "fixedRate": 0.019, "maturity": 10.0, "payer": False},
            {"notional": 100.0, "fixedRate": 0.024, "maturity": 20.0, "frequency": 4},
            {"notional": 100.0, "fixedRate": 0.018, "maturity": 30.0, "frequency": 4,
             "payer": False},
        ])
        raw["market"]["model"]["sigma"] = 5.0
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--format", "csv"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and caught == []
        assert err.startswith("market.model.sigma: 5.0 ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("sigma", [1e160, 1e200])
    def test_run_refuses_a_sigma_whose_square_overflows(self, tmp_path, capsys, sigma):
        # The simulated factor itself is infinite, and so is the fit's radius.
        path = self.write_config(tmp_path, paths=200)
        raw = json.loads(path.read_text())
        raw["market"]["model"]["sigma"] = sigma
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--format", "csv"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"market.model.sigma: {sigma} (meanReversion 0.05) makes the exposure "
                       "profile overflow\n")

    def test_run_with_vanishing_mean_reversion_is_finite(self, tmp_path, capsys):
        # a * a underflows to 0 at 1e-200; every moment has a finite limit.
        path = self.write_config(tmp_path, paths=200)
        raw = json.loads(path.read_text())
        raw["market"]["model"]["meanReversion"] = 1e-200
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--format", "csv"]) == 0
        out, err = capsys.readouterr()
        header, *rows = [line.split(",") for line in out.splitlines()]
        assert err == "" and len(rows) == 2
        numeric = [i for i, name in enumerate(header) if name.endswith("_bp")]
        assert all(math.isfinite(float(row[i])) for row in rows for i in numeric)

    def test_run_rejects_negative_seed_override(self, tmp_path, capsys):
        assert main(["run", str(self.write_config(tmp_path)), "--seed", "-5"]) == 1
        assert capsys.readouterr().err == "seed: must be >= 0\n"

    def test_pde_verify_passes(self, tmp_path, capsys):
        path = self.write_config(tmp_path, pde={"nSpace": 200, "nTime": 200})
        assert main(["pde-verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "funding-condition" in out

    def test_pde_verify_writes_surfaces(self, tmp_path):
        path = self.write_config(tmp_path, pde={"nSpace": 100, "nTime": 100})
        out = tmp_path / "surfaces.csv"
        assert main(["pde-verify", str(path), "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        assert header == "t,S,economic,adjustment"
        assert len(rows) == 101 * 101
        for row in rows:
            cells = row.split(",")
            assert len(cells) == 4 and "np." not in row
            assert all(math.isfinite(float(c)) for c in cells)

    @pytest.mark.parametrize(
        "pde, field",
        [
            ({"capitalFactor": 0.2, "capitalReliefFactor": 0.3}, "pde.capitalReliefFactor"),
            ({"nSpace": 101}, "pde.nSpace"),
            ({"nTime": "400"}, "pde.nTime"),
            ({"accruals_taxed": 1}, "pde.accruals_taxed"),
            ({"repoRate": "0.03"}, "pde.repoRate"),
            ({"rate": math.nan}, "pde.rate"),
        ],
    )
    def test_pde_verify_bad_field_is_a_diagnostic(self, tmp_path, capsys, pde, field):
        path = self.write_config(tmp_path, pde=pde)
        assert main(["pde-verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(field + ":") and "Traceback" not in err

    @pytest.mark.parametrize(
        "path, value, diagnostic",
        [
            (("market", "model", "sigma"), math.nan, "market.model.sigma: must be finite"),
            (("costOfCapital",), math.nan, "costOfCapital: must be finite"),
            (("costOfCapital",), math.inf, "costOfCapital: must be finite"),
            (("taxRate",), 10**400, "taxRate: must be finite"),
            (("swaps", 0, "fixedRate"), -math.inf, "swaps[0].fixedRate: must be finite"),
            (("market", "curve", "zeroRates"), [0.02, math.nan],
             "market.curve.zeroRates[1]: must be finite"),
            (("costOfCapital",), -5, "costOfCapital: must be >= 0"),
            (("minCapitalRatio",), -0.1, "minCapitalRatio: must be >= 0"),
            (("seed",), -5, "seed: must be >= 0"),
            (("workers",), 0, "workers: must be >= 1"),
            (("warnSeBp",), -1.0, "warnSeBp: must be >= 0"),
            (("ratings",), [["A"]], "ratings: unknown rating ['A'] (known: AAA, A, BB, CCC)"),
            # Off the semiannual schedule: the first would drop its stub, the
            # second would pay at 10.5.
            (("swaps", 0, "maturity"), 10.1, OFF_SCHEDULE),
            (("swaps", 0, "maturity"), 10.3, OFF_SCHEDULE),
            (("swaps", 0, "maturity"), 1e308, OFF_SCHEDULE),
        ],
        ids=["nan-sigma", "nan-cost", "inf-cost", "huge-int-tax", "inf-fixed-rate",
             "nan-zero-rate", "negative-cost", "negative-min-ratio", "negative-seed",
             "zero-workers", "negative-warn", "unhashable-rating", "maturity-stub-dropped",
             "maturity-paid-late", "maturity-periods-overflow"],
    )
    def test_run_bad_number_is_a_diagnostic(self, tmp_path, capsys, path, value, diagnostic):
        raw = small_config()
        owner = raw
        for key in path[:-1]:
            owner = owner[key]
        owner[path[-1]] = value
        config = tmp_path / "run.json"
        config.write_text(json.dumps(raw))  # NaN and Infinity as Python's json writes them
        assert main(["run", str(config)]) == 1
        err = capsys.readouterr().err
        assert diagnostic in err.splitlines() and "Traceback" not in err

    def test_pde_block_reaches_every_problem_field(self):
        _, diags = validate_config(small_config(pde={"foo": 1}))
        assert diags == ["pde.foo: unknown field"]
        cfg, diags = validate_config(small_config(pde={
            "compensatorTaxed": True, "dividendYield": 0.01, "repoRate": 0.03, "nTime": 60}))
        assert diags == []
        assert cfg.pde.problem.compensator_taxed
        assert (cfg.pde.problem.dividend_yield, cfg.pde.problem.repo_rate) == (0.01, 0.03)
        assert (cfg.pde.grid.n_space, cfg.pde.grid.n_time) == (400, 60)

    def test_pde_verify_tolerance_breach_fails(self, tmp_path, capsys):
        path = self.write_config(tmp_path, pde={"nSpace": 48, "nTime": 24,
                                                "tolerance": 1e-9})
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["pde-verify", str(path)]) == 2
