"""Workload inputs and operations for the xvakit benchmark.

Each workload turns a workload seed into input files inside the benchmark's
own work directory and defines one operation ("op"): one
``xvakit.cli.main`` call.  The Monte Carlo seed is derived from the workload
seed, so the same workload seed always gives the same inputs; seed 0 maps to
the built-in presets' seed 20150106, at which the reference outputs in
``reference/`` were captured.

The program sees nothing but these files and argv.  The book definitions are
owned by the benchmark (copied, not read from ``configs/``), so a change to
the repository's example configs does not change what is measured.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
PRESET_MC_SEED = 20150106

# configs/market_gbp_flat.json at the time the benchmark was defined.
MARKET = {
    "curve": {"pillars": [1.0, 30.0], "zeroRates": [0.02, 0.02]},
    "model": {"meanReversion": 0.05, "sigma": 0.011},
    "issuer": {"spreadBp": 100, "recovery": 0.4},
}

RATINGS = ["AAA", "A", "BB", "CCC"]

# configs/base_case.json, with the market inlined: the book the others build on.
BASE_CASE = {
    "schemaVersion": 1,
    "market": MARKET,
    "swaps": [
        {"notional": 100.0, "fixedRate": 0.027, "maturity": 10.0, "frequency": 2,
         "payer": True, "collateralized": False},
        {"notional": 100.0, "fixedRate": 0.027, "maturity": 10.0, "frequency": 2,
         "payer": False, "collateralized": True},
    ],
    "ratings": RATINGS,
    "psi": [1.0],
    "priceOfRiskXi": [0.0],
    "phi": [0.0, 1.0],
    "costOfCapital": 0.10,
    "taxRate": 0.21,
    "providerRating": "A",
    "hedgeSourceLabel": "A",
    "seed": PRESET_MC_SEED,
    "paths": 50000,
}

# configs/pde_verify.json (only its "pde" block matters to pde-verify).
PDE_VERIFY = {
    "schemaVersion": 1,
    "market": MARKET,
    "swaps": BASE_CASE["swaps"][:1],
    "ratings": ["A"],
    "psi": [0.25],
    "priceOfRiskXi": [0.3],
    "phi": [0.5],
    "seed": PRESET_MC_SEED,
    "paths": 2000,
    "pde": {
        "spot": 100.0, "strike": 100.0, "maturity": 5.0, "sigma": 0.25, "rate": 0.02,
        "payoff": "call", "issuerHazard": 0.0167, "counterpartyHazard": 0.04,
        "hedgeFraction": 0.25, "priceOfRisk": 0.3, "capitalFundingFraction": 0.5,
        "costOfCapital": 0.10, "taxRate": 0.21, "collateralSpread": 0.002,
        "collateralFraction": 0.2, "capitalFactor": 0.4, "capitalReliefFactor": 0.25,
        "nSpace": 400, "nTime": 400, "tolerance": 0.005,
    },
}

VERIFY_SPOT = PDE_VERIFY["pde"]["spot"]
VERIFY_GRID = (PDE_VERIFY["pde"]["nTime"] + 1, PDE_VERIFY["pde"]["nSpace"] + 1)


def mc_seed(workload_seed: int) -> int:
    """Monte Carlo seed for a workload seed; 0 gives the built-in presets' seed."""
    return (PRESET_MC_SEED + workload_seed) % 2**32


def _long_book(seed: int, workers: int) -> dict:
    # Alternating payer/receiver swaps out to 30y plus a collateralised leg.
    swaps = [
        {"notional": 100.0, "fixedRate": 0.022, "maturity": 5.0, "frequency": 4,
         "payer": True, "collateralized": False},
        {"notional": 100.0, "fixedRate": 0.019, "maturity": 10.0, "frequency": 2,
         "payer": False, "collateralized": False},
        {"notional": 100.0, "fixedRate": 0.024, "maturity": 20.0, "frequency": 4,
         "payer": True, "collateralized": False},
        {"notional": 100.0, "fixedRate": 0.018, "maturity": 30.0, "frequency": 4,
         "payer": False, "collateralized": False},
        {"notional": 100.0, "fixedRate": 0.021, "maturity": 30.0, "frequency": 4,
         "payer": False, "collateralized": True},
    ]
    return dict(
        BASE_CASE, swaps=swaps, psi=[0.0, 0.5, 1.0], priceOfRiskXi=[-0.5, 0.5],
        phi=[0.0, 1.0], seed=seed, paths=65536, workers=workers,
    )


@dataclass
class Op:
    """One ``xva`` CLI call and the file it writes."""

    argv: list[str]
    out: Path


@dataclass
class Workload:
    name: str
    op: Op
    config: str  # the file the CLI loads, for the set-up probe
    kind: str = "run"  # "run" (a CSV report) or "verify"
    single_worker: Op | None = None  # the same op at workers: 1


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return str(path)


def _run_op(config: str, out: Path) -> Op:
    return Op(["run", config, "--format", "csv", "--out", str(out)], out)


def build(name: str, workload_seed: int, work: Path) -> Workload:
    """Write the workload's inputs under ``work`` and describe its op."""
    work.mkdir(parents=True, exist_ok=True)
    seed = mc_seed(workload_seed)
    if name == "long-book":
        cfg = _write(work / "long_book.json", _long_book(seed, workers=2))
        one = _write(work / "long_book_1w.json", _long_book(seed, workers=1))
        return Workload(name, _run_op(cfg, work / "long-book.csv"), cfg,
                        single_worker=_run_op(one, work / "long-book-1w.csv"))
    if name == "verify":
        cfg = _write(work / "pde_verify.json", PDE_VERIFY)
        out = work / "verify_surface.csv"
        return Workload(name, Op(["pde-verify", cfg, "--out", str(out)], out), cfg, kind="verify")
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("long-book", "verify")
