"""Reference renderers: the report module as it stood when each renderer kept
its own row loop, to check the current renderers against byte for byte.

Only this docstring, the import of ``RunResult``, by its package path, and
the exposure's name in the table's footer and the JSON payload (``exact
Gaussian exposure`` and ``"engine": "exact"``), added since, differ from that
module.  Its ``RunResult`` still carried ``se_bp``, the total's standard error
in bps, so a result is handed to it with that field added back, as the zeros
of an exposure with no sampling error (see ``test_report.legacy``).
"""

from __future__ import annotations

import json
import math

import numpy as np

from xvakit.runner import RunResult

WARN_SE_BP = 1.0  # bp of notional

_COMPONENTS = ("cva", "dva", "fca", "colva", "kva_mr", "kva_ccr", "kva_cva", "tva")
_COLUMNS = _COMPONENTS + ("total",)
_COLUMN_TITLES = {
    "cva": "CVA", "dva": "DVA", "fca": "FCA", "colva": "COLVA",
    "kva_mr": "KVA_MR", "kva_ccr": "KVA_CCR", "kva_cva": "KVA_CVA", "tva": "TVA", "total": "Total",
}


def round_half_away(x: float) -> int:
    """Round to the nearest integer with ties away from zero."""
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def _per_row(columns) -> list[list[float]]:
    """Row-major plain floats of equal-length columns."""
    return np.array(columns).T.tolist()


def _price_of_risk_label(psi: float, xi: float, m_lambda: float | None) -> str:
    if psi == 1.0:
        return "na"
    if m_lambda is not None:
        return f"{m_lambda:+.4g}"
    return f"{xi:+.3g}"


def _records(result: RunResult) -> list[dict]:
    bps = result.breakdown.as_bps()
    source = result.config.hedge_source_label
    records = []
    for (psi, xi, m_lambda, phi, rating), values, se_bp in zip(
            result.rows, _per_row([bps[name] for name in _COLUMNS]), result.se_bp.tolist()):
        record = {"source": source, "psi": psi,
                  "mLambdaC": m_lambda if m_lambda is not None else xi,
                  "phi": phi, "rating": rating}
        record.update(zip((f"{name}_bp" for name in _COLUMNS), values))
        record["se_bp"] = se_bp
        record["warn"] = se_bp > WARN_SE_BP
        records.append(record)
    return records


def render_table(result: RunResult) -> str:
    bps = result.breakdown.as_bps()
    # The collateral column only appears when it carries anything.
    show_colva = bool(np.any(np.abs(bps["colva"]) >= 0.005))
    shown = tuple(c for c in _COLUMNS if show_colva or c != "colva")
    headers = (
        ("Source", "psi", "m_lamC", "phi", "Rating")
        + tuple(_COLUMN_TITLES[c] for c in shown)
        + ("",)
    )
    lines = []
    body = []
    source = result.config.hedge_source_label
    for (psi, xi, m_lambda, phi, rating), values, se_bp in zip(
            result.rows, _per_row([bps[c] for c in shown]), result.se_bp.tolist()):
        cells = [source, f"{psi:g}", _price_of_risk_label(psi, xi, m_lambda), f"{phi:g}", rating]
        cells += [str(round_half_away(v)) for v in values]
        cells.append("!" if se_bp > WARN_SE_BP else "")
        body.append(cells)
    widths = [max(len(h), *(len(r[i]) for r in body)) for i, h in enumerate(headers)]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths).rstrip())
    for cells in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)).rstrip())
    lines.append("")
    lines.append(f"values in bps of notional {result.breakdown.notional:g}; "
                 "exact Gaussian exposure")
    return "\n".join(lines) + "\n"


def render_csv(result: RunResult) -> str:
    fields = (
        ["source", "psi", "mLambdaC", "phi", "rating"]
        + [f"{name}_bp" for name in _COLUMNS]
        + ["se_bp", "warn"]
    )
    lines = [",".join(fields)]
    for record in _records(result):
        cells = []
        for f in fields:
            v = record[f]
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, float):
                cells.append(repr(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def render_json(result: RunResult) -> str:
    b = result.breakdown
    payload = {
        "schemaVersion": 1,
        "engine": "exact",
        "notional": b.notional,
        "rows": _records(result),
    }
    currency = _per_row([getattr(b, name) for name in _COLUMNS])
    for record, values in zip(payload["rows"], currency):
        record["currency"] = dict(zip(_COLUMNS, values))
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}
