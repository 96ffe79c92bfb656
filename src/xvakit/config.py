"""Run configuration: JSON schema, validation, presets.

A run configuration is a single JSON document (schema version 1).  The
``market`` entry is either an inline object or a path to a market file,
resolved relative to the configuration file.  Example::

    {
      "schemaVersion": 1,
      "market": {
        "curve": {"pillars": [1.0, 30.0], "zeroRates": [0.02, 0.02]},
        "model": {"meanReversion": 0.05, "sigma": 0.011},
        "issuer": {"spreadBp": 100, "recovery": 0.4}
      },
      "swaps": [
        {"notional": 100.0, "fixedRate": 0.027, "maturity": 10.0,
         "frequency": 2, "payer": true, "collateralized": false}
      ],
      "ratings": ["AAA", "A", "BB", "CCC"],
      "psi": [1.0],
      "priceOfRiskXi": [0.0],
      "phi": [0.0, 1.0],
      "costOfCapital": 0.10,
      "taxRate": 0.21,
      "seed": 20150106,
      "paths": 50000
    }

The market price of default risk can be given either as the dimensionless
``priceOfRiskXi`` or as an absolute ``mLambda`` (hazard-rate units, converted
per rating); supplying both is an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .credit import hazard_from_spread
from .exposure import SwapSpec, on_schedule
from .pde import Grid, PdeProblem
from .regcap import RATING_TABLE, CounterpartyProfile

SCHEMA_VERSION = 1
OUTPUT_FORMATS = ("table", "csv", "json")


class ConfigError(Exception):
    """Invalid run configuration; carries the full diagnostics list."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class MarketConfig:
    curve_pillars: tuple[float, ...]
    curve_zero_rates: tuple[float, ...]
    mean_reversion: float
    sigma: float
    issuer_spread_bp: float
    issuer_recovery: float


# Defaults of the ``pde`` block: the verifier's reference problem.
_PDE_DEFAULTS = dict(
    spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
    issuer_hazard=0.0167, counterparty_hazard=0.04, hedge_fraction=0.25, price_of_risk=0.3,
    capital_funding_fraction=0.5, cost_of_capital=0.10, tax_rate=0.21,
    collateral_spread=0.002, collateral_fraction=0.2,
    capital_factor=0.4, capital_relief_factor=0.25,
)
_PDE_KINDS = {"payoff": str, "accruals_taxed": bool, "compensator_taxed": bool,
              "n_space": int, "n_time": int}  # every other field is a number


@dataclass(frozen=True)
class PdeVerifyConfig:
    """The ``pde`` block: the verifier's problem, grid and tolerance."""

    problem: PdeProblem = PdeProblem(**_PDE_DEFAULTS)
    grid: Grid = Grid()
    tolerance: float = 0.005


@dataclass(frozen=True)
class RunConfig:
    market: MarketConfig
    swaps: tuple[SwapSpec, ...]
    ratings: tuple[str, ...]
    psi_values: tuple[float, ...]
    xi_values: tuple[float, ...] | None
    m_lambda_values: tuple[float, ...] | None
    phi_values: tuple[float, ...]
    cost_of_capital: float = 0.10
    tax_rate: float = 0.21
    accruals_taxed: bool = False
    compensator_taxed: bool = False
    collateral_spread: float = 0.0
    seed: int = 20150106
    paths: int = 50000
    output_format: str = "table"
    provider_rating: str | None = "A"
    min_capital_ratio: float = 0.08
    warn_se_bp: float = 1.0
    workers: int = 1
    antithetic: bool = True
    hedge_source_label: str = "A"
    pde: PdeVerifyConfig = field(default_factory=PdeVerifyConfig)
    rating_table: dict[str, CounterpartyProfile] = field(
        default_factory=lambda: dict(RATING_TABLE)
    )

    def price_of_risk_grid(self, counterparty_hazard: float) -> tuple[tuple[float, float | None], ...]:
        """(xi, displayed m_lambda) pairs for one counterparty hazard level."""
        if self.m_lambda_values is not None:
            return tuple((m / counterparty_hazard, m) for m in self.m_lambda_values)
        return tuple((xi, None) for xi in self.xi_values)


def _as_float(value: int | float) -> float:
    """``value`` as a float; an integer too large for one becomes inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _get(d: dict, key: str, kind, diags: list[str], prefix: str, default=None, required=False):
    if key not in d:
        if required:
            diags.append(f"{prefix}{key}: missing required field")
        return default
    value = d[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not math.isfinite(value := _as_float(value)):
            diags.append(f"{prefix}{key}: must be finite")
            return default
        return value
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is list and isinstance(value, list):
        return value
    if kind is dict and isinstance(value, dict):
        return value
    diags.append(f"{prefix}{key}: expected {kind.__name__}, got {type(value).__name__}")
    return default


def _number_list(d: dict, key: str, diags: list[str], prefix: str = "",
                 required: bool = False) -> list[float] | None:
    """The finite numbers of a non-empty list; each rejected element is named."""
    raw = _get(d, key, list, diags, prefix, required=required)
    if raw is None:
        return None
    if not raw:
        diags.append(f"{prefix}{key}: list must not be empty")
    out = []
    for i, v in enumerate(raw):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            diags.append(f"{prefix}{key}[{i}]: expected number")
        elif not math.isfinite(v := _as_float(v)):
            diags.append(f"{prefix}{key}[{i}]: must be finite")
        else:
            out.append(v)
    return out


def _validate_market(raw: dict, diags: list[str]) -> MarketConfig | None:
    local: list[str] = []
    curve = _get(raw, "curve", dict, local, "market.", required=True) or {}
    model = _get(raw, "model", dict, local, "market.", required=True) or {}
    issuer = _get(raw, "issuer", dict, local, "market.", required=True) or {}
    pillars = _number_list(curve, "pillars", local, "market.curve.", required=True) or []
    rates = _number_list(curve, "zeroRates", local, "market.curve.", required=True) or []
    if pillars and rates and len(pillars) != len(rates):
        local.append("market.curve: pillars and zeroRates lengths differ")
    if pillars and (pillars[0] <= 0 or any(b <= a for a, b in zip(pillars, pillars[1:]))):
        local.append("market.curve.pillars: must be strictly increasing and start > 0")
    a = _get(model, "meanReversion", float, local, "market.model.", required=True)
    sigma = _get(model, "sigma", float, local, "market.model.", required=True)
    if a is not None and a <= 0:
        local.append("market.model.meanReversion: must be > 0")
    if sigma is not None and sigma < 0:
        local.append("market.model.sigma: must be >= 0")
    spread = _get(issuer, "spreadBp", float, local, "market.issuer.", required=True)
    recovery = _get(issuer, "recovery", float, local, "market.issuer.", default=0.4)
    if recovery is not None and not 0 <= recovery < 1:
        local.append("market.issuer.recovery: must lie in [0, 1)")
    if spread is not None and spread < 0:
        local.append("market.issuer.spreadBp: must be >= 0")
    diags.extend(local)
    if local:
        return None
    return MarketConfig(
        curve_pillars=tuple(pillars),
        curve_zero_rates=tuple(rates),
        mean_reversion=a,
        sigma=sigma,
        issuer_spread_bp=spread,
        issuer_recovery=recovery,
    )


def _build_pde(kind, diags: list[str], **kwargs):
    """``kind(**kwargs)``, its ``"field: message"`` ValueError made a diagnostic."""
    try:
        return kind(**kwargs)
    except ValueError as exc:
        name, _, message = str(exc).partition(": ")
        diags.append(f"pde.{_camel(name)}: {message}")
        return None


def _validate_pde(raw: dict, diags: list[str]) -> PdeVerifyConfig:
    names = [f.name for f in fields(PdeProblem)] + ["n_space", "n_time", "tolerance"]
    keys = {key: name for name in names for key in (name, _camel(name))}
    for key in sorted(set(raw) - set(keys)):
        diags.append(f"pde.{key}: unknown field")
    values = {name: value for key, name in keys.items()
              if (value := _get(raw, key, _PDE_KINDS.get(name, float), diags, "pde.")) is not None}
    tolerance = values.pop("tolerance", PdeVerifyConfig.tolerance)
    if not tolerance > 0:
        diags.append("pde.tolerance: must be > 0")
    grid = _build_pde(Grid, diags, **{k: values.pop(k) for k in ("n_space", "n_time")
                                      if k in values})
    problem = _build_pde(PdeProblem, diags, **{**_PDE_DEFAULTS, **values})
    return PdeVerifyConfig(problem, grid, tolerance)


def _validate_swap(raw: dict, i: int, diags: list[str]) -> SwapSpec | None:
    prefix = f"swaps[{i}]."
    notional = _get(raw, "notional", float, diags, prefix, required=True)
    fixed = _get(raw, "fixedRate", float, diags, prefix, required=True)
    maturity = _get(raw, "maturity", float, diags, prefix, required=True)
    frequency = _get(raw, "frequency", int, diags, prefix, default=2)
    payer = _get(raw, "payer", bool, diags, prefix, default=True)
    collateralized = _get(raw, "collateralized", bool, diags, prefix, default=False)
    before = len(diags)
    if notional is not None and notional <= 0:
        diags.append(f"{prefix}notional: must be > 0")
    if maturity is not None and maturity <= 0:
        diags.append(f"{prefix}maturity: must be > 0")
    if frequency not in (1, 2, 4):
        diags.append(f"{prefix}frequency: must be one of 1, 2, 4")
    elif maturity is not None and not on_schedule(maturity, frequency):
        diags.append(f"{prefix}maturity: must be a whole number of 1/frequency periods")
    if None in (notional, fixed, maturity) or len(diags) > before:
        return None
    return SwapSpec(
        notional=notional, fixed_rate=fixed, maturity=maturity,
        frequency=frequency, payer=payer, collateralized=collateralized,
    )


def validate_config(raw: dict, base_dir: Path | None = None) -> tuple[RunConfig | None, list[str]]:
    """Full schema and range check without executing anything. Idempotent."""
    diags: list[str] = []
    if not isinstance(raw, dict):
        return None, ["configuration root must be an object"]
    version = _get(raw, "schemaVersion", int, diags, "", required=True)
    if version is not None and version != SCHEMA_VERSION:
        diags.append(f"schemaVersion: unsupported version {version} (expected {SCHEMA_VERSION})")

    market_raw = raw.get("market")
    market = None
    if isinstance(market_raw, str):
        path = (base_dir or Path.cwd()) / market_raw
        if not path.exists():
            diags.append(f"market: file not found: {path}")
        else:
            try:
                market_raw = json.loads(path.read_text())
            except json.JSONDecodeError as exc:
                diags.append(f"market: {path}: invalid JSON at line {exc.lineno}: {exc.msg}")
                market_raw = None
    if isinstance(market_raw, dict):
        market = _validate_market(market_raw, diags)
    elif market_raw is None and "market" not in raw:
        diags.append("market: missing required field")
    elif not isinstance(market_raw, (dict, str)):
        diags.append("market: expected object or file path")

    swaps_raw = _get(raw, "swaps", list, diags, "", required=True) or []
    swaps = []
    for i, s in enumerate(swaps_raw):
        if not isinstance(s, dict):
            diags.append(f"swaps[{i}]: expected object")
            continue
        spec = _validate_swap(s, i, diags)
        if spec is not None:
            swaps.append(spec)
    if "swaps" in raw and not swaps_raw:
        diags.append("swaps: list must not be empty")
    elif swaps and all(s.collateralized for s in swaps):
        diags.append("swaps: at least one must be uncollateralized "
                     "(figures are bp of its notional)")

    # Optional overrides/extensions of the built-in counterparty table.
    table = dict(RATING_TABLE)
    table_raw = _get(raw, "ratingTable", dict, diags, "", default=None)
    if table_raw is not None:
        for label, entry in table_raw.items():
            if not isinstance(entry, dict):
                diags.append(f"ratingTable.{label}: expected object")
                continue
            prefix = f"ratingTable.{label}."
            spread = _get(entry, "cdsSpreadBp", float, diags, prefix, required=True)
            weight = _get(entry, "riskWeight", float, diags, prefix, required=True)
            cva_w = _get(entry, "cvaWeight", float, diags, prefix, required=True)
            recovery = _get(entry, "recovery", float, diags, prefix, default=0.4)
            if recovery is not None and not 0 <= recovery < 1:
                diags.append(f"{prefix}recovery: must lie in [0, 1)")
                continue
            if None in (spread, weight, cva_w, recovery):
                continue
            try:
                table[label] = CounterpartyProfile(label, spread, weight, cva_w, recovery)
            except ValueError as exc:
                diags.append(f"ratingTable.{label}: {exc}")

    ratings = _get(raw, "ratings", list, diags, "", required=True) or []
    rejected = set(table_raw or ()) - set(table)  # reported above, under ratingTable
    known = [r for r in ratings if isinstance(r, str) and r in table]
    for r in ratings:
        if r not in known and not (isinstance(r, str) and r in rejected):
            diags.append(f"ratings: unknown rating {r!r} (known: {', '.join(table)})")
    if "ratings" in raw and not ratings:
        diags.append("ratings: list must not be empty")

    psi = _number_list(raw, "psi", diags, required=True) or []
    for v in psi:
        if not 0 <= v <= 1:
            diags.append(f"psi: value {v} outside [0, 1]")

    xi = _number_list(raw, "priceOfRiskXi", diags)
    m_lambda = _number_list(raw, "mLambda", diags)
    if xi is not None and m_lambda is not None:
        diags.append("priceOfRiskXi/mLambda: supply one or the other, not both")
    if xi is None and m_lambda is None:
        diags.append("priceOfRiskXi: missing (or provide mLambda)")
    for v in xi or []:
        if v > 1:
            diags.append(f"priceOfRiskXi: value {v} above 1 implies a negative physical hazard")
    hazards = {r: hazard_from_spread(table[r].cds_spread, table[r].recovery) for r in known}
    if m_lambda is not None:
        # xi = mLambda / hazard, so a rating without default risk has none
        for r, hazard in hazards.items():
            if hazard == 0:
                diags.append(f"mLambda: rating {r} has zero hazard; use priceOfRiskXi")
    for v in m_lambda or []:
        for r, hazard in hazards.items():
            if hazard > 0 and v / hazard > 1:
                diags.append(
                    f"mLambda: value {v} exceeds the {r} hazard rate, "
                    "implying a negative physical hazard"
                )

    phi = _number_list(raw, "phi", diags, required=True) or []
    for v in phi:
        if not 0 <= v <= 1:
            diags.append(f"phi: value {v} outside [0, 1]")

    gamma_k = _get(raw, "costOfCapital", float, diags, "", default=0.10)
    if gamma_k is not None and gamma_k < 0:
        diags.append("costOfCapital: must be >= 0")
    gamma_e = _get(raw, "taxRate", float, diags, "", default=0.21)
    if gamma_e is not None and not 0 <= gamma_e < 1:
        diags.append("taxRate: must lie in [0, 1)")
    accruals = _get(raw, "accrualsTaxed", bool, diags, "", default=False)
    compensator = _get(raw, "compensatorTaxed", bool, diags, "", default=False)
    s_x = _get(raw, "collateralSpread", float, diags, "", default=0.0)
    seed = _get(raw, "seed", int, diags, "", default=20150106)
    if seed is not None and seed < 0:
        diags.append("seed: must be >= 0")
    paths = _get(raw, "paths", int, diags, "", default=50000)
    if paths is not None and paths < 1:
        diags.append("paths: must be >= 1")
    fmt = _get(raw, "format", str, diags, "", default="table")
    if fmt not in OUTPUT_FORMATS:
        diags.append(f"format: must be one of {', '.join(OUTPUT_FORMATS)}")
    provider = _get(raw, "providerRating", str, diags, "", default="A")
    if provider is not None and provider not in table and provider not in rejected:
        diags.append(f"providerRating: unknown rating {provider!r}")
    min_ratio = _get(raw, "minCapitalRatio", float, diags, "", default=0.08)
    if min_ratio is not None and min_ratio < 0:
        diags.append("minCapitalRatio: must be >= 0")
    warn_se = _get(raw, "warnSeBp", float, diags, "", default=1.0)
    if warn_se is not None and warn_se < 0:
        diags.append("warnSeBp: must be >= 0")
    workers = _get(raw, "workers", int, diags, "", default=1)
    if workers is not None and workers < 1:
        diags.append("workers: must be >= 1")
    antithetic = _get(raw, "antithetic", bool, diags, "", default=True)
    label = _get(raw, "hedgeSourceLabel", str, diags, "", default=provider or "A")
    if antithetic and paths is not None and paths % 2:
        diags.append("paths: must be even with antithetic sampling")

    pde_raw = _get(raw, "pde", dict, diags, "", default=None)
    pde_cfg = PdeVerifyConfig() if pde_raw is None else _validate_pde(pde_raw, diags)

    if diags:
        return None, diags
    return (
        RunConfig(
            market=market,
            swaps=tuple(swaps),
            ratings=tuple(ratings),
            psi_values=tuple(psi),
            xi_values=tuple(xi) if xi is not None else None,
            m_lambda_values=tuple(m_lambda) if m_lambda is not None else None,
            phi_values=tuple(phi),
            cost_of_capital=gamma_k,
            tax_rate=gamma_e,
            accruals_taxed=accruals,
            compensator_taxed=compensator,
            collateral_spread=s_x,
            seed=seed,
            paths=paths,
            output_format=fmt,
            provider_rating=provider,
            min_capital_ratio=min_ratio,
            warn_se_bp=warn_se,
            workers=workers,
            antithetic=antithetic,
            hedge_source_label=label,
            pde=pde_cfg,
            rating_table=table,
        ),
        [],
    )


def _camel(name: str) -> str:
    parts = name.split("_")
    return parts[0] + "".join(p.title() for p in parts[1:])


def load_config(path: str | Path) -> RunConfig:
    """Load and validate a configuration file (or named preset)."""
    if str(path) in PRESETS:
        return PRESETS[str(path)]()
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"configuration file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"])
    cfg, diags = validate_config(raw, base_dir=p.parent)
    if cfg is None:
        raise ConfigError(diags)
    return cfg


# -- built-in presets ----------------------------------------------------------
#
# The market data is synthetic (flat GBP-style curve at 2%); the portfolio is
# a pair of back-to-back 10y payer/receiver swaps at 2.7% fixed, one side
# fully collateralized, the other facing the rated counterparty.

_PRESET_MARKET = MarketConfig(
    curve_pillars=(1.0, 30.0),
    curve_zero_rates=(0.02, 0.02),
    mean_reversion=0.05,
    sigma=0.011,
    issuer_spread_bp=100.0,
    issuer_recovery=0.4,
)

_PRESET_SWAPS = (
    SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, frequency=2,
             payer=True, collateralized=False),
    SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0, frequency=2,
             payer=False, collateralized=True),
)

_PRESET_COMMON = dict(
    market=_PRESET_MARKET,
    swaps=_PRESET_SWAPS,
    ratings=("AAA", "A", "BB", "CCC"),
    phi_values=(0.0, 1.0),
    m_lambda_values=None,
    cost_of_capital=0.10,
    tax_rate=0.21,
    seed=20150106,
    paths=50000,
)


def _base_case() -> RunConfig:
    return RunConfig(psi_values=(1.0,), xi_values=(0.0,), **_PRESET_COMMON)


def _warehouse_pos() -> RunConfig:
    return RunConfig(psi_values=(0.0,), xi_values=(0.5,), **_PRESET_COMMON)


def _warehouse_neg() -> RunConfig:
    return RunConfig(psi_values=(0.0,), xi_values=(-0.5,), **_PRESET_COMMON)


PRESETS = {
    "base-case": _base_case,
    "warehouse-pos": _warehouse_pos,
    "warehouse-neg": _warehouse_neg,
}
