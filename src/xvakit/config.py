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
      "taxRate": 0.21
    }

The market price of default risk can be given either as the dimensionless
``priceOfRiskXi`` or as an absolute ``mLambda`` (hazard-rate units, converted
per rating); supplying both is an error.  ``seed``, ``paths`` and
``workers`` are accepted and checked, and read by nothing: the exposure is
a closed form, and the benchmark's inputs still set them.

Each setting is declared once, in a block's field table (``_RUN`` for the
top level): its key, kind, default and bounds.  ``RunConfig`` has one field
per top-level key that a run reads, its snake_case form, and the market is
validated into the model objects a run prices with (``Market``).  The
``pde`` block takes the camelCase names of ``PdeProblem``'s and ``Grid``'s
fields; their bounds are those classes' own, reported as ``pde.<field>``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

from .credit import CreditCurve, hazard_from_spread
from .curves import DiscountCurve
from .exposure import SwapSpec
from .pde import TOLERANCE, Grid, PdeProblem, check_verifiable
from .ratemodel import ShortRateModel
from .regcap import RATING_TABLE, CounterpartyProfile

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid run configuration; carries the full diagnostics list."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


class Market(NamedTuple):
    """The market a run prices with."""

    curve: DiscountCurve
    model: ShortRateModel
    issuer: CreditCurve


# Defaults of the ``pde`` block: the verifier's reference problem.
_PDE_DEFAULTS = dict(
    spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
    issuer_hazard=0.0167, counterparty_hazard=0.04, hedge_fraction=0.25, price_of_risk=0.3,
    capital_funding_fraction=0.5, cost_of_capital=0.10, tax_rate=0.21,
    collateral_spread=0.002, collateral_fraction=0.2,
    capital_factor=0.4, capital_relief_factor=0.25,
)


@dataclass(frozen=True)
class PdeVerifyConfig:
    """The ``pde`` block: the verifier's problem, grid and tolerance."""

    problem: PdeProblem = PdeProblem(**_PDE_DEFAULTS)
    grid: Grid = Grid()
    tolerance: float = TOLERANCE


@dataclass(frozen=True)
class RunConfig:
    """A validated run: each field is the snake_case form of a key of ``_RUN``, whose
    ``seed``, ``paths`` and ``workers`` it drops."""

    market: Market
    swaps: tuple[SwapSpec, ...]
    rating_table: dict[str, CounterpartyProfile]  # RATING_TABLE with the config's entries
    ratings: tuple[str, ...]
    psi: tuple[float, ...]
    price_of_risk_xi: tuple[float, ...] | None
    m_lambda: tuple[float, ...] | None
    phi: tuple[float, ...]
    cost_of_capital: float
    tax_rate: float
    accruals_taxed: bool
    compensator_taxed: bool
    collateral_spread: float
    provider_rating: str
    hedge_source_label: str
    min_capital_ratio: float
    pde: PdeVerifyConfig

    def price_of_risk_grid(self, counterparty_hazard: float) -> tuple[tuple[float, float | None], ...]:
        """(xi, displayed m_lambda) pairs for one counterparty hazard level."""
        if self.m_lambda is not None:
            return tuple((m / counterparty_hazard, m) for m in self.m_lambda)
        return tuple((xi, None) for xi in self.price_of_risk_xi)


def _as_float(value: int | float) -> float:
    """``value`` as a float; an integer too large for one becomes inf."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _camel(name: str) -> str:
    parts = name.split("_")
    return parts[0] + "".join(p.title() for p in parts[1:])


# A field table maps each key of a block to ``(kind, default[, check])``.  The
# kind is a type (``float`` takes any finite number), NUMBERS, or the table of
# a nested block.  A check is ``(test, message)``; ``{}`` in the message stands
# for the value, and a number list's check tests each element.  These tables
# are the only place a run's defaults are written.
REQUIRED = object()  # a default: the field must be given
NUMBERS = object()  # a kind: a non-empty list of finite numbers

_POSITIVE = (lambda v: v > 0, "must be > 0")
_NON_NEGATIVE = (lambda v: v >= 0, "must be >= 0")
_AT_LEAST_ONE = (lambda v: v >= 1, "must be >= 1")
_BELOW_ONE = (lambda v: 0 <= v < 1, "must lie in [0, 1)")
_FRACTION = (lambda v: 0 <= v <= 1, "value {} outside [0, 1]")
_AT_MOST_ONE = (lambda v: v <= 1, "must be <= 1")
_RATE = (lambda v: -1 <= v <= 1, "value {} outside [-1, 1]")  # per year: a rate or spread
_NOT_EMPTY = (bool, "list must not be empty")
# A label is printed as a CSV cell and a table cell, unquoted, so a blank one is a blank cell.
_LABEL = (lambda v: v.strip() and v.isprintable() and "," not in v and '"' not in v,
          "must not be blank or contain a comma, a double quote or a non-printable character")

_MARKET = {
    "curve": ({"pillars": (NUMBERS, REQUIRED), "zeroRates": (NUMBERS, REQUIRED, _RATE)},
              REQUIRED),
    "model": ({"meanReversion": (float, REQUIRED, _POSITIVE),
               "sigma": (float, REQUIRED, _NON_NEGATIVE)}, REQUIRED),
    "issuer": ({"spreadBp": (float, REQUIRED, _NON_NEGATIVE),
                "recovery": (float, 0.4, _BELOW_ONE)}, REQUIRED),
}
_SWAP = {  # in SwapSpec's field order
    "notional": (float, REQUIRED, _POSITIVE, (lambda v: v <= 1e15, "must be <= 1e15")),
    "fixedRate": (float, REQUIRED, _RATE),
    "maturity": (float, REQUIRED, _POSITIVE, (lambda v: v <= 100, "must be <= 100")),
    "frequency": (int, 2, (lambda v: v in (1, 2, 4), "must be one of 1, 2, 4")),
    "payer": (bool, True),
    "collateralized": (bool, False),
}
_RATING = {  # in CounterpartyProfile's field order, after the rating
    "cdsSpreadBp": (float, REQUIRED, _NON_NEGATIVE),
    "riskWeight": (float, REQUIRED, _POSITIVE,
                   (lambda v: v <= 12.5, "must be <= 12.5 (the 1250% ceiling)")),
    "cvaWeight": (float, REQUIRED, _POSITIVE, _AT_MOST_ONE),
    "recovery": (float, 0.4, _BELOW_ONE),
}
_RUN = {
    "schemaVersion": (int, REQUIRED, (lambda v: v == SCHEMA_VERSION,
                                      f"unsupported version {{}} (expected {SCHEMA_VERSION})")),
    "market": (object, REQUIRED),  # an object, or the path of a file holding one
    "swaps": (list, REQUIRED, _NOT_EMPTY),
    "ratingTable": (dict, {}),  # entries override or extend RATING_TABLE
    "ratings": (list, REQUIRED, _NOT_EMPTY),
    "psi": (NUMBERS, REQUIRED, _FRACTION),
    "priceOfRiskXi": (NUMBERS, None, (lambda v: v <= 1,
                                      "value {} above 1 implies a negative physical hazard")),
    "mLambda": (NUMBERS, None, (lambda v: v >= -1, "value {} below -1")),
    "phi": (NUMBERS, REQUIRED, _FRACTION),
    "costOfCapital": (float, 0.10, _NON_NEGATIVE, _AT_MOST_ONE),
    "taxRate": (float, 0.21, _BELOW_ONE),
    "accrualsTaxed": (bool, False),
    "compensatorTaxed": (bool, False),
    "collateralSpread": (float, 0.0, _RATE),
    # seed, paths and workers are read by nothing; they keep their checks so that
    # the configs that still set them stay valid and a bad value is still named.
    "seed": (int, 20150106, _NON_NEGATIVE),
    "paths": (int, 50000, (lambda v: v >= 6, "must be >= 6"),
              (lambda v: v % 2 == 0, "must be even"),
              (lambda v: v <= 100_000_000, "must be <= 100000000")),
    "providerRating": (str, "A"),
    "hedgeSourceLabel": (str, None, _LABEL),  # None: the provider rating
    "minCapitalRatio": (float, 0.08, _NON_NEGATIVE, _AT_MOST_ONE),
    "workers": (int, 1, _AT_LEAST_ONE, (lambda v: v <= 64, "must be <= 64")),
    "pde": (dict, None),
}
# The pde block takes each field of PdeProblem and the grid, camelCased.
_PDE_KINDS = {"payoff": str, "accruals_taxed": bool, "compensator_taxed": bool,
              "n_space": int, "n_time": int}  # every other field is a number
_PDE_NAMES = {_camel(name): name for name in [f.name for f in fields(PdeProblem)]
              + ["n_space", "n_time", "tolerance"]}
_PDE = {key: (_PDE_KINDS.get(name, float), None) for key, name in _PDE_NAMES.items()}


def _fields(raw: dict, spec: dict, diags: list[str], prefix: str = "") -> dict:
    """Each field of table ``spec`` read from ``raw``: typed and checked, or its default.

    A field that fails is reported as ``<prefix><key>: <message>`` and reads as
    None, as does a nested block with a failing field.  A key the table does
    not name is reported as ``<prefix><key>: unknown field``.
    """
    diags.extend(f"{prefix}{key}: unknown field" for key in raw if key not in spec)
    values = {}
    for key, (kind, default, *checks) in spec.items():
        name = prefix + key
        if key not in raw:
            if default is REQUIRED:
                diags.append(f"{name}: missing required field")
                default = None
            values[key] = default
            continue
        before = len(diags)
        if (value := _typed(raw[key], kind, name, diags)) is not None:
            diags.extend(f"{name}: {message.format(v)}" for test, message in checks
                         for v in (value if kind is NUMBERS else [value]) if not test(v))
        values[key] = None if len(diags) > before else value
    return values


def _typed(value, kind, name: str, diags: list[str]):
    """``value`` as a ``kind``, or None with the reason in ``diags``."""
    if isinstance(kind, dict):
        if isinstance(value, dict):
            before = len(diags)
            block = _fields(value, kind, diags, name + ".")
            return block if len(diags) == before else None
        kind = dict
    elif kind is NUMBERS:
        if isinstance(value, list):
            if not value:
                diags.append(f"{name}: list must not be empty")
            numbers = [_typed(v, float, f"{name}[{i}]", diags) for i, v in enumerate(value)]
            return [v for v in numbers if v is not None]
        kind = list
    elif kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if math.isfinite(value := _as_float(value)):
            return value
        diags.append(f"{name}: must be finite")
        return None
    elif isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    diags.append(f"{name}: expected {kind.__name__}, got {type(value).__name__}")
    return None


def _read_json(path: Path):
    """The JSON document in the file at ``path``: ``OSError`` if it cannot be
    read, ``ValueError`` saying where if it is not UTF-8 JSON."""
    try:
        return json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise ValueError(f"invalid JSON: {exc}") from None


def _validate_market(raw, base_dir: Path | None, diags: list[str]) -> Market | None:
    if isinstance(raw, str):
        path = (base_dir or Path.cwd()) / raw
        try:
            raw = _read_json(path)
        except FileNotFoundError:
            diags.append(f"market: file not found: {path}")
            return None
        except OSError as exc:
            diags.append(f"market: cannot read {path}: {exc.strerror}")
            return None
        except ValueError as exc:
            diags.append(f"market: {path}: {exc}")
            return None
    if not isinstance(raw, dict):
        diags.append("market: expected object or file path")
        return None
    before = len(diags)
    curve, model, issuer = _fields(raw, _MARKET, diags, "market.").values()
    if curve is not None:
        curve = _build(DiscountCurve, diags, "market.curve.", *curve.values())
    if len(diags) > before:
        return None
    spread_bp, recovery = issuer.values()
    return Market(curve, ShortRateModel(*model.values()),
                  CreditCurve(hazard_from_spread(spread_bp / 1e4, recovery), recovery))


def _build(kind, diags: list[str], prefix: str, *args, **kwargs):
    """``kind(*args, **kwargs)``, its ``"field: message"`` ValueError made a
    diagnostic under ``prefix``."""
    try:
        return kind(*args, **kwargs)
    except ValueError as exc:
        name, _, message = str(exc).partition(": ")
        diags.append(f"{prefix}{_camel(name)}: {message}")
        return None


def _validate_pde(raw: dict, diags: list[str]) -> PdeVerifyConfig:
    values = {_PDE_NAMES[key]: value for key, value in _fields(raw, _PDE, diags, "pde.").items()
              if value is not None}
    tolerance = values.pop("tolerance", PdeVerifyConfig.tolerance)
    if not 0 < tolerance < 1:
        diags.append("pde.tolerance: must lie in (0, 1)")
    grid = _build(Grid, diags, "pde.", **{k: values.pop(k) for k in ("n_space", "n_time")
                                          if k in values})
    problem = _build(PdeProblem, diags, "pde.", **{**_PDE_DEFAULTS, **values})
    if grid is not None and problem is not None:
        _build(check_verifiable, diags, "pde.", problem, grid)
    return PdeVerifyConfig(problem, grid, tolerance)


def validate_config(raw: dict, base_dir: Path | None = None) -> tuple[RunConfig | None, list[str]]:
    """Full schema and range check without executing anything. Idempotent."""
    if not isinstance(raw, dict):
        return None, ["configuration root must be an object"]
    diags: list[str] = []
    v = _fields(raw, _RUN, diags)
    market = _validate_market(v["market"], base_dir, diags) if "market" in raw else None

    swaps = [_typed(s, _SWAP, f"swaps[{i}]", diags) for i, s in enumerate(v["swaps"] or [])]
    swaps = [None if s is None else _build(SwapSpec, diags, f"swaps[{i}].", *s.values())
             for i, s in enumerate(swaps)]
    if swaps and None not in swaps and all(s.collateralized for s in swaps):
        diags.append("swaps: at least one must be uncollateralized "
                     "(figures are bp of its notional)")

    entries = v["ratingTable"] or {}
    table = dict(RATING_TABLE)
    for label, entry in entries.items():
        if not _LABEL[0](label):
            diags.append(f"ratingTable.{label!r}: {_LABEL[1]}")
        elif (values := _typed(entry, _RATING, f"ratingTable.{label}", diags)) is not None:
            table[label] = CounterpartyProfile(label, *values.values())
    rejected = set(entries) - set(table)  # reported above, under ratingTable

    ratings = v["ratings"] or []
    known = [r for r in ratings if isinstance(r, str) and r in table]
    for r in ratings:
        if r not in known and not (isinstance(r, str) and r in rejected):
            diags.append(f"ratings: unknown rating {r!r} (known: {', '.join(table)})")

    m_lambda = v["mLambda"]
    given = {"priceOfRiskXi", "mLambda"} & raw.keys()
    if len(given) == 2:
        diags.append("priceOfRiskXi/mLambda: supply one or the other, not both")
    elif not given:
        diags.append("priceOfRiskXi: missing (or provide mLambda)")
    hazards = {r: hazard_from_spread(table[r].cds_spread, table[r].recovery) for r in known}
    if m_lambda is not None:
        # xi = mLambda / hazard, so a rating without default risk has none
        for r, hazard in hazards.items():
            if hazard == 0:
                diags.append(f"mLambda: rating {r} has zero hazard; use priceOfRiskXi")
        for m in m_lambda:
            for r, hazard in hazards.items():
                if hazard > 0 and m / hazard > 1:
                    diags.append(f"mLambda: value {m} exceeds the {r} hazard rate, "
                                 "implying a negative physical hazard")

    provider = v["providerRating"]
    if provider is not None and provider not in table and provider not in rejected:
        diags.append(f"providerRating: unknown rating {provider!r}")
    pde = PdeVerifyConfig() if v["pde"] is None else _validate_pde(v["pde"], diags)

    if diags:
        return None, diags
    v.update(market=market, swaps=swaps, ratingTable=table,
             hedgeSourceLabel=provider if v["hedgeSourceLabel"] is None else v["hedgeSourceLabel"],
             pde=pde)
    return RunConfig(**{f.name: tuple(value) if isinstance(value := v[_camel(f.name)], list)
                        else value for f in fields(RunConfig)}), []


# The built-in presets: configs/base_case.json with its market inlined, at each
# preset's hedge fraction psi and price of risk xi.  The market data is
# synthetic (a flat GBP-style curve at 2%); the book is a pair of back-to-back
# 10y payer/receiver swaps at 2.7% fixed, one side fully collateralized, the
# other facing the rated counterparty.
_PRESET = {
    "schemaVersion": 1,
    "market": {
        "curve": {"pillars": [1.0, 30.0], "zeroRates": [0.02, 0.02]},
        "model": {"meanReversion": 0.05, "sigma": 0.011},
        "issuer": {"spreadBp": 100, "recovery": 0.4},
    },
    "swaps": [
        {"notional": 100.0, "fixedRate": 0.027, "maturity": 10.0},
        {"notional": 100.0, "fixedRate": 0.027, "maturity": 10.0,
         "payer": False, "collateralized": True},
    ],
    "ratings": ["AAA", "A", "BB", "CCC"],
    "phi": [0.0, 1.0],
}
_PRESET_PSI_XI = {"base-case": (1.0, 0.0), "warehouse-pos": (0.0, 0.5),
                  "warehouse-neg": (0.0, -0.5)}


def load_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Load and validate a configuration file (or named preset).

    ``overrides`` replace top-level fields before validation, so they pass the
    same checks as the file's own.  A file that cannot be read raises ``OSError``.
    """
    if str(path) in _PRESET_PSI_XI:
        psi, xi = _PRESET_PSI_XI[str(path)]
        raw, base_dir = dict(_PRESET, psi=[psi], priceOfRiskXi=[xi]), None
    else:
        p = Path(path)
        try:
            raw = _read_json(p)
        except ValueError as exc:
            raise ConfigError([f"{p}: {exc}"]) from None
        base_dir = p.parent
    if overrides and isinstance(raw, dict):
        raw.update(overrides)
    cfg, diags = validate_config(raw, base_dir)
    if cfg is None:
        raise ConfigError(diags)
    return cfg


PRESETS = tuple(_PRESET_PSI_XI)  # the built-in presets' names, for ``load_config``
