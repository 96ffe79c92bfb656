"""Rendering of run results as a text table, CSV or JSON: the ``RENDERERS``.

All three read the same columns, built once per result: the row keys, and each
of ``xva.COMPONENTS`` and the total in bps of notional (``<name>_bp``).  The
table rounds to whole bps, ties away from zero; its Total is the rounded sum of
the unrounded components, so it can differ from the sum of the rounded cells.
CSV and JSON carry the unrounded values, JSON also in currency, and are
byte-stable for a given configuration.  They also carry ``se_bp``, always 0.0,
and ``warn``, always false: the exposure is a closed form with no sampling
error, and the columns stay so that readers of the reports keep parsing them.
The table's footer and the JSON's ``"engine"`` name the exposure, ``exact
Gaussian exposure``.  Renderers return text; the CLI writes files as UTF-8.
"""

from __future__ import annotations

import json
import math

from .runner import RunResult
from .xva import COMPONENTS

_COLUMNS = (*COMPONENTS, "total")


def round_half_away(x: float) -> int:
    """Round to the nearest integer with ties away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def _columns(result: RunResult) -> dict[str, list]:
    """The report's columns in CSV order, each a list of one plain value per row."""
    b = result.breakdown
    psi, xi, m_lambda, phi, rating = zip(*result.rows)
    columns = {
        "source": [result.config.hedge_source_label] * len(psi),
        "psi": list(psi),
        "mLambdaC": [x if m is None else m for x, m in zip(xi, m_lambda)],
        "phi": list(phi),
        "rating": list(rating),
    }
    columns.update((f"{name}_bp", values.tolist()) for name, values in b.as_bps().items())
    columns["se_bp"] = [0.0] * len(psi)
    columns["warn"] = [False] * len(psi)
    return columns


def render_table(result: RunResult) -> str:
    columns = _columns(result)
    # An absolute price of risk mLambda shows more digits than a relative xi.
    spec = "+.3g" if result.config.m_lambda is None else "+.4g"
    cells = {
        "Source": columns["source"],
        "psi": [f"{v:g}" for v in columns["psi"]],
        "m_lamC": ["na" if psi == 1.0 else format(m, spec)
                   for psi, m in zip(columns["psi"], columns["mLambdaC"])],
        "phi": [f"{v:g}" for v in columns["phi"]],
        "Rating": columns["rating"],
    }
    # The collateral column only appears when it carries anything.
    show_colva = any(abs(v) >= 0.005 for v in columns["colva_bp"])
    for name in _COLUMNS:
        if show_colva or name != "colva":
            title = name.upper() if name != "total" else "Total"
            cells[title] = [str(round_half_away(v)) for v in columns[f"{name}_bp"]]
    justified = []
    for title, texts in cells.items():
        width = max(len(title), *map(len, texts))
        justified.append([title.rjust(width), "-" * width, *(t.rjust(width) for t in texts)])
    lines = ["  ".join(line).rstrip() for line in zip(*justified)]
    return "\n".join(lines) + (f"\n\nvalues in bps of notional {result.breakdown.notional:g}; "
                               "exact Gaussian exposure\n")


def render_csv(result: RunResult) -> str:
    columns = _columns(result)
    columns["warn"] = ["true" if warn else "false" for warn in columns["warn"]]
    # Every column but the labels and warn holds floats, written by repr.
    cells = [v if isinstance(v[0], str) else map(repr, v) for v in columns.values()]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def render_json(result: RunResult) -> str:
    b = result.breakdown
    columns = _columns(result)
    currency = [getattr(b, name).tolist() for name in _COLUMNS]
    payload = {
        "schemaVersion": 1,
        "engine": "exact",
        "notional": b.notional,
        "rows": [dict(zip(columns, values), currency=dict(zip(_COLUMNS, amounts)))
                 for values, amounts in zip(zip(*columns.values()), zip(*currency))],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}
