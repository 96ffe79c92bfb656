"""Configuration schema, presets, report formats and the command line."""

import json
import math
import shutil
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from xvakit.cli import main
from xvakit.config import (_RUN, PRESETS, ConfigError, RunConfig, _camel, load_config,
                           validate_config)
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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
OFF_SCHEDULE = "swaps[0].maturity: must be a whole number of 1/frequency periods"


def small_config(**overrides):
    raw = json.loads(json.dumps(VALID_CONFIG))
    raw.update(overrides)
    return raw


def config_with(path, value, raw=None):
    """``raw`` (by default ``small_config()``) with the field at ``path`` set to ``value``."""
    raw = small_config() if raw is None else raw
    owner = raw
    for key in path[:-1]:
        owner = owner[key]
    owner[path[-1]] = value
    return raw


def m_lambda_config(values, **overrides):
    """``small_config`` priced with ``mLambda`` in place of ``priceOfRiskXi``."""
    raw = small_config(mLambda=values, **overrides)
    raw.pop("priceOfRiskXi")
    return raw


def zero_hazard_config():
    """``mLambda`` against a rating whose CDS spread, and so hazard, is zero."""
    return m_lambda_config([0.001], ratings=["ZERO"], ratingTable={
        "ZERO": {"cdsSpreadBp": 0, "riskWeight": 0.2, "cvaWeight": 0.007}})


def warehoused_against(**entry):
    """``small_config`` unhedged (psi 0) against rating XX, its table entry given."""
    return small_config(psi=[0.0], ratings=["XX"], ratingTable={
        "XX": {"cdsSpreadBp": 10, "riskWeight": 0.2, "cvaWeight": 0.01, **entry}})


# Finite values past a field's bound.  Without the bound each ran: to NaN or
# -inf cells with exit 0 (an internal error as a table), or to an overflow
# blamed on sigma.
OUT_OF_RANGE = {
    "huge-cost": (config_with(("costOfCapital",), 1e308), "costOfCapital: must be <= 1"),
    "huge-min-ratio": (config_with(("minCapitalRatio",), 1e308),
                       "minCapitalRatio: must be <= 1"),
    "huge-collateral-spread": (config_with(("collateralSpread",), 1e308),
                               "collateralSpread: value 1e+308 outside [-1, 1]"),
    "huge-negative-collateral-spread": (config_with(("collateralSpread",), -1e308),
                                        "collateralSpread: value -1e+308 outside [-1, 1]"),
    "huge-risk-weight": (warehoused_against(riskWeight=1e308),
                         "ratingTable.XX.riskWeight: must be <= 12.5 (the 1250% ceiling)"),
    "huge-cva-weight": (warehoused_against(cvaWeight=1e308),
                        "ratingTable.XX.cvaWeight: must be <= 1"),
    "huge-negative-m-lambda": (m_lambda_config([-1e308]), "mLambda: value -1e+308 below -1"),
    "huge-zero-rate": (config_with(("market", "curve", "zeroRates"), [0.02, 1e308]),
                       "market.curve.zeroRates: value 1e+308 outside [-1, 1]"),
    "huge-notional": (config_with(("swaps", 0, "notional"), 1e155),
                      "swaps[0].notional: must be <= 1e15"),
    "huge-fixed-rate": (config_with(("swaps", 0, "fixedRate"), 1e155),
                        "swaps[0].fixedRate: value 1e+155 outside [-1, 1]"),
}


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
        assert cfg.market.model.sigma == 0.011

    def test_odd_paths_rejected(self):
        _, diags = validate_config(small_config(paths=1001))
        assert diags == ["paths: must be even"]

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
        assert diags == [f"{key}[0]: expected float, got str"]

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
        cfg = load_config(name)
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
        assert loaded == load_config(preset)

    @pytest.mark.parametrize("filename", [
        "base_case.json", "warehouse_pos.json", "warehouse_neg.json", "pde_verify.json"])
    def test_shipped_configs_set_no_monte_carlo_inputs(self, filename):
        # Nothing reads a seed, a path or a worker count, and engine is no key.
        raw = json.loads((CONFIGS / filename).read_text(encoding="utf-8"))
        assert not {"engine", "seed", "paths", "workers"} & raw.keys()

    def test_run_config_fields_are_the_run_keys(self):
        # One declaration per setting: validate_config builds RunConfig by name, and
        # drops the keys that nothing reads.
        assert [_camel(f.name) for f in fields(RunConfig)] == [
            key for key in _RUN if key not in ("schemaVersion", "seed", "paths", "workers")]

    def test_shipped_pde_config_valid(self):
        root = Path(__file__).resolve().parent.parent
        cfg = load_config(root / "configs" / "pde_verify.json")
        assert cfg.pde.grid.n_space == 400
        assert cfg.pde.tolerance == 0.005

    def test_base_case_produces_eight_ordered_rows(self):
        rows = run_config(load_config("base-case")).rows
        assert len(rows) == 8
        assert [rating for *_, rating in rows] == ["AAA", "A", "BB", "CCC"] * 2
        assert [phi for _, _, _, phi, _ in rows] == [0.0] * 4 + [1.0] * 4

    def test_m_lambda_varies_xi_by_rating(self):
        cfg = replace(
            load_config("base-case"),
            psi=(0.0,),
            price_of_risk_xi=None,
            m_lambda=(0.0002,),
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

    @pytest.mark.parametrize("raw, field", [
        *((small_config(hedgeSourceLabel=label), "hedgeSourceLabel")
          for label in ["A,B\nC", 'say "A"', "A\tB", "", "   "]),
        # Named by repr, so that a newline in a key cannot split the diagnostic;
        # the ratings and provider that name it are not also unknown.
        *((small_config(ratings=[key], providerRating=key, ratingTable={
            key: {"cdsSpreadBp": 10, "riskWeight": 0.2, "cvaWeight": 0.01}}),
           f"ratingTable.{key!r}") for key in ["X,Y", ""]),
    ], ids=["comma-newline", "quote", "tab", "empty", "spaces", "rating-key", "empty-rating-key"])
    def test_label_that_breaks_a_row_is_one_diagnostic(self, tmp_path, capsys, raw, field):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(raw))
        assert main(["run", str(config), "--format", "csv"]) == 1
        assert capsys.readouterr() == ("", f"{field}: must not be blank or contain a comma, a "
                                           "double quote or a non-printable character\n")

    def test_printable_labels_with_spaces_are_kept(self):
        raw = small_config(ratings=["Tier 2"], hedgeSourceLabel="Bank A", ratingTable={
            "Tier 2": {"cdsSpreadBp": 10, "riskWeight": 0.2, "cvaWeight": 0.01}})
        cfg, diags = validate_config(raw)
        assert diags == []
        header, row = render_csv(run_config(cfg)).splitlines()
        assert row.split(",")[0] == "Bank A" and row.split(",")[4] == "Tier 2"
        assert len(row.split(",")) == len(header.split(","))

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
                           collateralSpread=0.001)
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
        """The payload names the exposure by its engine, and carries no seed or path count."""
        payload = json.loads(render_json(result))
        assert payload["engine"] == "exact" and not {"seed", "paths"} & payload.keys()
        assert len(payload["rows"]) == len(result.rows)
        row = payload["rows"][0]
        assert row["currency"]["total"] == pytest.approx(result.breakdown.total[0])

    def test_machine_formats_are_deterministic(self):
        cfg, _ = validate_config(small_config())
        a = run_config(cfg)
        b = run_config(cfg)
        assert render_csv(a) == render_csv(b)
        assert render_json(a) == render_json(b)

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

    @pytest.mark.parametrize("argv, named", [
        (["run", "base-case", "--paths", "2000"], "--paths"),  # set in the config, not here
        (["run", "base-case", "--seed", "7"], "--seed"),
        (["run", "base-case", "--format", "xml"], "--format"),
        (["run"], "config"),
        (["bogus"], "command"),
    ])
    def test_usage_error_exits_1_naming_the_argument(self, capsys, argv, named):
        # argparse's own exit code, 2, is the code of a tolerance breach.
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err and len(err.splitlines()) == 1, err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and "--format" in out
        assert "--paths" not in out and "--seed" not in out

    def test_unreadable_config_is_an_io_failure(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Error" not in err, err

    def test_config_of_bad_bytes_is_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        text = json.dumps(small_config(hedgeSourceLabel="caf\u00e9"), ensure_ascii=False)
        path.write_bytes(text.encode("latin-1"))  # é is one byte, 0xe9, that UTF-8 refuses
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert str(path) in err and "invalid JSON" in err and "Error" not in err, err

    @pytest.mark.parametrize("market", ["missing", "directory", "bad bytes", "bad JSON"])
    def test_any_market_file_failure_names_market(self, tmp_path, capsys, market):
        target = tmp_path / "market.json"
        if market == "directory":
            target.mkdir()
        elif market == "bad bytes":
            target.write_bytes(b'{"curve": "\xff"}')
        elif market == "bad JSON":
            target.write_text("{curve")
        path = self.write_config(tmp_path, market="market.json")
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("market: ") and str(target) in err and "Error" not in err, err

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

    def test_maturity_near_its_schedule_prices_as_the_schedule(self, tmp_path):
        """A maturity within 1e-9 of a period is snapped to it, so the run's grid
        and every cell are those of the exact maturity."""
        reports = []
        for maturity in (10.0, 10.0000000001):
            path = self.write_config(tmp_path, swaps=[
                dict(swap, maturity=maturity) for swap in VALID_CONFIG["swaps"]])
            out = tmp_path / f"{maturity}.csv"
            assert main(["run", str(path), "--format", "csv", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_seed_paths_and_workers_are_read_by_nothing(self, tmp_path):
        """A config that sets them writes the CSV bytes of one that does not, whatever
        their values, and every row reports an se_bp of 0.0 and no warning."""
        reports = []
        for settings in ({}, {"seed": 1, "paths": 1000, "workers": 2},
                         {"seed": 8, "paths": 6, "workers": 3}):
            raw = small_config(**settings)
            for key in {"seed", "paths", "workers"} - settings.keys():
                raw.pop(key, None)
            path, out = tmp_path / "run.json", tmp_path / f"{len(reports)}.csv"
            path.write_text(json.dumps(raw))
            assert main(["run", str(path), "--format", "csv", "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[1:] == reports[:1] * 2
        header, *rows = [line.split(",") for line in reports[0].decode().splitlines()]
        assert {(row[header.index("se_bp")], row[header.index("warn")]) for row in rows} == {
            ("0.0", "false")}

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("filename", ["base_case.json", "warehouse_pos.json",
                                          "warehouse_neg.json"])
    def test_a_shipped_config_writes_the_same_bytes_with_seed_paths_and_workers(
            self, tmp_path, filename, fmt):
        raw = json.loads((CONFIGS / filename).read_text(encoding="utf-8"))
        shutil.copy(CONFIGS / raw["market"], tmp_path)
        reports = []
        for name, config in (("plain", raw), ("set", dict(raw, seed=3, paths=6, workers=4))):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.{fmt}"
            path.write_text(json.dumps(config), encoding="utf-8")
            assert main(["run", str(path), "--format", fmt, "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_every_row_reports_no_sampling_error(self, capsys, preset, fmt):
        """The exposure has no sampling error: ``se_bp`` is 0.0 and ``warn`` false on every
        row of each machine format, and the JSON names the exact engine."""
        assert main(["run", preset, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert payload["engine"] == "exact"
            cells = {(row["se_bp"], row["warn"]) for row in payload["rows"]}
            assert cells == {(0.0, False)} and len(payload["rows"]) == 8
        else:
            header, *rows = [line.split(",") for line in out.splitlines()]
            cells = {(row[header.index("se_bp")], row[header.index("warn")]) for row in rows}
            assert cells == {("0.0", "false")} and len(rows) == 8

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

    def test_run_rejects_an_odd_path_count(self, tmp_path, capsys):
        path = self.write_config(tmp_path, paths=999)
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr() == ("", "paths: must be even\n")

    @pytest.mark.parametrize("paths", [0, -2, 2, 4])
    def test_run_refuses_fewer_than_three_pairs(self, tmp_path, capsys, paths):
        # Nothing reads paths, yet it keeps its bounds: a config refused before is
        # still refused, with the key named.
        assert main(["run", str(self.write_config(tmp_path, paths=paths))]) == 1
        assert capsys.readouterr() == ("", "paths: must be >= 6\n")

    def test_run_refuses_an_overflowing_exposure(self, tmp_path, capsys):
        # The 30y long book at 300% and 500% volatility: its exposure overflows.
        raw = small_config(swaps=[
            {"notional": 100.0, "fixedRate": 0.022, "maturity": 5.0, "frequency": 4},
            {"notional": 100.0, "fixedRate": 0.019, "maturity": 10.0, "payer": False},
            {"notional": 100.0, "fixedRate": 0.024, "maturity": 20.0, "frequency": 4},
            {"notional": 100.0, "fixedRate": 0.018, "maturity": 30.0, "frequency": 4,
             "payer": False},
        ])
        for sigma in (3.0, 5.0):
            raw["market"]["model"]["sigma"] = sigma
            path = tmp_path / "run.json"
            path.write_text(json.dumps(raw))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["run", str(path), "--format", "csv"]) == 1
            out, err = capsys.readouterr()
            assert out == "" and caught == []
            assert err.startswith(f"market.model.sigma: {sigma} ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("sigma", [1e160, 1e200])
    def test_run_refuses_a_sigma_whose_square_overflows(self, tmp_path, capsys, sigma):
        # The factor's variance itself is infinite.
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

    def test_run_rejects_a_negative_seed(self, tmp_path, capsys):
        assert main(["run", str(self.write_config(tmp_path, seed=-5))]) == 1
        assert capsys.readouterr().err == "seed: must be >= 0\n"

    def test_pde_verify_passes(self, tmp_path, capsys):
        path = self.write_config(tmp_path, pde={"nSpace": 200, "nTime": 200})
        assert main(["pde-verify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[0] for line in lines] == [
            "adjustment", "components", "tax effect", "PASS"]

    def test_pde_verify_prints_a_coarse_grid_warning_as_one_line(self, tmp_path, capsys):
        path = self.write_config(tmp_path, pde={"nSpace": 40, "nTime": 40})
        assert main(["pde-verify", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "PASS"
        assert captured.err == ("warning: pde.nSpace: space step 0.2052 coarse relative to "
                                "sigma*sqrt(T) = 0.5590; the payoff kink may be under-resolved\n")

    def test_pde_verify_passes_with_full_recoveries(self, tmp_path, capsys):
        # No loss given default on either side: the oracle's credit curves take recovery 1.
        path = self.write_config(tmp_path, pde={"nSpace": 200, "nTime": 200,
                                                "issuerRecovery": 1.0,
                                                "counterpartyRecovery": 1.0})
        assert main(["pde-verify", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "PASS" and captured.err == ""

    @pytest.mark.parametrize("recovery", [5e-7, 1e-300])
    def test_pde_verify_passes_at_a_tiny_issuer_recovery(self, tmp_path, capsys, recovery):
        # Nothing in the verifier divides by the issuer's recovery.
        path = self.write_config(tmp_path, pde={"nSpace": 200, "nTime": 200,
                                                "issuerRecovery": recovery})
        assert main(["pde-verify", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "PASS" and captured.err == ""

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

    @pytest.mark.parametrize("n_space, peclet", [(40, "98"), (200, "19.6"), (1000, "3.92")])
    def test_pde_verify_refuses_convection_past_diffusion(self, tmp_path, capsys, n_space,
                                                          peclet):
        # The shipped problem at rate -1 over 100 years, without hazards: central
        # convection outweighed diffusion, and pde-verify printed adjustments near
        # 1e84 (exit 2) or, at nSpace 1000, 2.2e-4 against a quadrature of 0.
        root = Path(__file__).resolve().parent.parent
        raw = json.loads((root / "configs" / "pde_verify.json").read_text())
        raw["market"] = json.loads((root / "configs" / "market_gbp_flat.json").read_text())
        raw["pde"].update(rate=-1.0, maturity=100.0, nTime=200, issuerHazard=0.0,
                          counterpartyHazard=0.0, nSpace=n_space)
        path = tmp_path / "verify.json"
        path.write_text(json.dumps(raw))
        assert main(["pde-verify", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"pde.nSpace: cell Peclet number {peclet} > 1; none up to 2000 is enough\n")

    def test_pde_verify_names_the_least_space_grid_that_keeps_diffusion_ahead(self, tmp_path,
                                                                             capsys):
        pde = {"rate": -0.2, "maturity": 20.0, "nTime": 100}
        path = self.write_config(tmp_path, pde={**pde, "nSpace": 88})
        assert main(["validate", str(path)]) == 1
        assert capsys.readouterr() == (
            "", "pde.nSpace: cell Peclet number 1.01 > 1; needs >= 90\n")
        assert main(["validate", str(self.write_config(tmp_path, pde={**pde, "nSpace": 90}))]) == 0

    @pytest.mark.parametrize(
        "pde, field",
        [
            ({"capitalFactor": 0.2, "capitalReliefFactor": 0.3}, "pde.capitalReliefFactor"),
            ({"nSpace": 101}, "pde.nSpace"),
            ({"nTime": "400"}, "pde.nTime"),
            ({"accruals_taxed": 1}, "pde.accruals_taxed"),
            ({"repoRate": "0.03"}, "pde.repoRate"),
            ({"rate": math.nan}, "pde.rate"),
            ({"priceOfRisk": 1.5}, "pde.priceOfRisk"),
            ({"capitalFundingFraction": 1.2}, "pde.capitalFundingFraction"),
            ({"costOfCapital": -0.1}, "pde.costOfCapital"),
            ({"issuerRecovery": 1.2}, "pde.issuerRecovery"),
            ({"counterpartyRecovery": -0.1}, "pde.counterpartyRecovery"),
        ],
    )
    def test_pde_verify_bad_field_is_a_diagnostic(self, tmp_path, capsys, pde, field):
        path = self.write_config(tmp_path, pde=pde)
        assert main(["pde-verify", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(field + ":") and "Traceback" not in err

    @pytest.mark.parametrize(
        "raw, diagnostic",
        [
            (config_with(("market", "model", "sigma"), math.nan),
             "market.model.sigma: must be finite"),
            (config_with(("costOfCapital",), math.nan), "costOfCapital: must be finite"),
            (config_with(("costOfCapital",), math.inf), "costOfCapital: must be finite"),
            (config_with(("taxRate",), 10**400), "taxRate: must be finite"),
            (config_with(("swaps", 0, "fixedRate"), -math.inf),
             "swaps[0].fixedRate: must be finite"),
            (config_with(("market", "curve", "zeroRates"), [0.02, math.nan]),
             "market.curve.zeroRates[1]: must be finite"),
            (config_with(("costOfCapital",), -5), "costOfCapital: must be >= 0"),
            (config_with(("minCapitalRatio",), -0.1), "minCapitalRatio: must be >= 0"),
            (config_with(("seed",), -5), "seed: must be >= 0"),
            (config_with(("workers",), 0), "workers: must be >= 1"),
            (config_with(("ratings",), [["A"]]),
             "ratings: unknown rating ['A'] (known: AAA, A, BB, CCC)"),
            # Off the semiannual schedule: the first would drop its stub, the
            # second would pay at 10.5.
            (config_with(("swaps", 0, "maturity"), 10.1), OFF_SCHEDULE),
            (config_with(("swaps", 0, "maturity"), 10.3), OFF_SCHEDULE),
            (config_with(("swaps", 0, "maturity"), 1e308), "swaps[0].maturity: must be <= 100"),
            (config_with(("ratingTable",), {"XX": {"cdsSpreadBp": 10, "riskWeight": 0,
                                                   "cvaWeight": 0.01}}),
             "ratingTable.XX.riskWeight: must be > 0"),
            (config_with(("ratingTable",), {"XX": {"cdsSpreadBp": 10, "riskWeight": 0.2,
                                                   "cvaWeight": 0}}),
             "ratingTable.XX.cvaWeight: must be > 0"),
            (config_with(("ratingTable",), {"XX": {"cdsSpreadBp": -1, "riskWeight": 0.2,
                                                   "cvaWeight": 0.01}}),
             "ratingTable.XX.cdsSpreadBp: must be >= 0"),
            *OUT_OF_RANGE.values(),
        ],
        ids=["nan-sigma", "nan-cost", "inf-cost", "huge-int-tax", "inf-fixed-rate",
             "nan-zero-rate", "negative-cost", "negative-min-ratio", "negative-seed",
             "zero-workers", "unhashable-rating", "maturity-stub-dropped",
             "maturity-paid-late", "maturity-periods-overflow", "zero-risk-weight",
             "zero-cva-weight", "negative-cds-spread", *OUT_OF_RANGE],
    )
    def test_run_bad_number_is_a_diagnostic(self, tmp_path, capsys, raw, diagnostic):
        config = tmp_path / "run.json"
        # NaN and Infinity as Python's json writes them
        config.write_text(json.dumps(raw))
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr() == ("", diagnostic + "\n")

    @pytest.mark.parametrize("raw, diagnostic", [
        *OUT_OF_RANGE.values(),
        # On schedule, so without the bound a run asks for a 58 TiB array.
        # Checked by validation alone: never run.
        (config_with(("swaps", 0, "maturity"), 1e6), "swaps[0].maturity: must be <= 100"),
        # Read by nothing, yet bounded as when they sized threads and blocks.
        (config_with(("workers",), 65), "workers: must be <= 64"),
        (config_with(("paths",), 100_000_002), "paths: must be <= 100000000"),
    ], ids=[*OUT_OF_RANGE, "huge-maturity", "too-many-workers", "too-many-paths"])
    def test_validate_out_of_range_is_the_one_diagnostic(self, tmp_path, capsys, raw,
                                                         diagnostic):
        config = tmp_path / "run.json"
        config.write_text(json.dumps(raw))
        assert main(["validate", str(config)]) == 1
        assert capsys.readouterr() == ("", diagnostic + "\n")

    @pytest.mark.parametrize("field, value, diagnostic", [
        ("notional", -1, "swaps[0].notional: must be > 0"),
        ("frequency", 3, "swaps[0].frequency: must be one of 1, 2, 4"),
    ])
    def test_rejected_swap_is_one_diagnostic(self, tmp_path, capsys, field, value, diagnostic):
        # The book's other swap is collateralized: the rejected one is not also
        # missing from the uncollateralized notional.
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_with(("swaps", 0, field), value)))
        assert main(["run", str(config)]) == 1
        assert capsys.readouterr() == ("", diagnostic + "\n")

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("path, name", [
        (("accrualTaxed",), "accrualTaxed"),
        (("antithetic",), "antithetic"),  # no run samples
        (("format",), "format"),  # the report's format is the CLI's --format alone
        (("warnSeBp",), "warnSeBp"),  # the report flags no row
        (("market", "curves"), "market.curves"),
        (("market", "curve", "zeroRate"), "market.curve.zeroRate"),
        (("market", "model", "meanReverson"), "market.model.meanReverson"),
        (("market", "issuer", "spreadbp"), "market.issuer.spreadbp"),
        (("swaps", 0, "fixedrate"), "swaps[0].fixedrate"),
        (("ratingTable", "XX", "riskweight"), "ratingTable.XX.riskweight"),
    ])
    def test_unknown_key_is_the_one_diagnostic(self, tmp_path, capsys, command, path, name):
        raw = small_config(ratingTable={
            "XX": {"cdsSpreadBp": 10, "riskWeight": 0.2, "cvaWeight": 0.01}})
        config = tmp_path / "run.json"
        config.write_text(json.dumps(config_with(path, True, raw)))
        assert main([command, str(config)]) == 1
        assert capsys.readouterr() == ("", f"{name}: unknown field\n")

    def test_pde_block_reaches_every_problem_field(self):
        _, diags = validate_config(small_config(pde={"foo": 1}))
        assert diags == ["pde.foo: unknown field"]
        cfg, diags = validate_config(small_config(pde={
            "compensatorTaxed": True, "dividendYield": 0.01, "repoRate": 0.03, "nTime": 60}))
        assert diags == []
        assert cfg.pde.problem.compensator_taxed
        assert (cfg.pde.problem.dividend_yield, cfg.pde.problem.repo_rate) == (0.01, 0.03)
        assert (cfg.pde.grid.n_space, cfg.pde.grid.n_time) == (400, 60)

    @pytest.mark.parametrize("command", ["validate", "pde-verify"])
    def test_pde_block_takes_one_spelling_per_key(self, tmp_path, capsys, command):
        # The snake_case spelling once replaced or lost to the camelCase one unseen.
        path = self.write_config(tmp_path, pde={"taxRate": 0.21, "tax_rate": 0.0})
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", "pde.tax_rate: unknown field\n")

    @pytest.mark.parametrize("pde, diagnostic", [
        # Each exited 4 (a non-finite grid or march), exited 0, or passed whatever
        # the error, before the pde block was bounded.
        ({"sigma": 1000}, "pde.sigma: must lie in [1e-4, 1]"),
        ({"maturity": 1e6}, "pde.maturity: must lie in (0, 100]"),
        ({"rate": 1e300}, "pde.rate: must lie in [-1, 1]"),
        ({"dividendYield": 1e300}, "pde.dividendYield: must lie in [-1, 1]"),
        ({"sigma": 5, "maturity": 100}, "pde.sigma: must lie in [1e-4, 1]"),
        ({"costOfCapital": 1e300}, "pde.costOfCapital: must lie in [0, 1]"),
        ({"tolerance": 1e300}, "pde.tolerance: must lie in (0, 1)"),
        # Checked by validation alone, before any array is allocated: never run.
        ({"nSpace": 20000}, "pde.nSpace: must lie in [8, 2000]"),
        ({"nTime": 20000}, "pde.nTime: must lie in [4, 2000]"),
        # At -rate dt = 1 the start-up step's matrix is singular.
        ({"rate": -1.0, "maturity": 100, "nTime": 50},
         "pde.nTime: must be >= 2 maturity (-rate) = 200"),
    ])
    def test_pde_input_past_a_bound_is_the_one_diagnostic(self, tmp_path, capsys, pde,
                                                         diagnostic):
        assert main(["validate", str(self.write_config(tmp_path, pde=pde))]) == 1
        assert capsys.readouterr() == ("", diagnostic + "\n")

    def test_pde_verify_tolerance_breach_fails(self, tmp_path, capsys):
        path = self.write_config(tmp_path, pde={"nSpace": 48, "nTime": 24,
                                                "tolerance": 1e-9})
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["pde-verify", str(path)]) == 2
