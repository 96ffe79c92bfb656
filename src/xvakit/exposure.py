"""Swap pricing on simulated rate paths and discounted exposure profiles.

A swap is revalued at a grid time ``t`` from the closed-form bonds of the
short-rate model via its remaining schedule:

    value = sign * notional * [(1 - P(t, T_end)) - fixed * annuity(t)]
          = sign * notional * (par(t) - fixed) * annuity(t)

i.e. the floating leg is treated as resetting at the valuation time.  This is
exact on payment dates and a standard desk approximation in between; it keeps
the revaluation state-free (no fixing carried along the path) and makes the
payer/receiver symmetry exact pathwise.

Under the affine bond formula ``P(t, T) = A(t, T) exp(-x B(t, T))`` a book
is linear in the bonds on the union of its payment dates.  So the book is
netted once per run into, per grid point, a constant ``c_k`` and one weight
per live date with ``A`` folded in, and each path is revalued as
``c_k + (w_k A_k) @ exp(-B_k x_k)``: one exponential per (path, date), not
per (path, swap, date).  A posted-collateral book is a second weight row
on the same product.  Paths arrive grid-major in blocks and are revalued in
tiles of ``TILE_SIZE`` paths, so the exponential temporary stays near 1 MB.

Exposure profiles report the Monte Carlo means of the pathwise-discounted
positive and negative parts of the value, with standard errors computed on
antithetic-pair means when antithetic sampling is on.  Accumulation happens
per deterministic path block and blocks are reduced in index order, so a
profile is byte-identical for a given seed no matter how many workers ran.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve
from .ratemodel import ShortRateModel, _simulate_block, _validate_grid, map_blocks

TILE_SIZE = 1024  # paths per matrix product; the (dates, tile) temporary stays <= 1 MB


@dataclass(frozen=True)
class SwapSpec:
    """A fixed-for-floating interest-rate swap.

    ``payer`` means the issuer pays fixed.  ``collateralized`` marks a swap
    under a perfect, continuously margined CSA: its residual exposure is
    identically zero, though it still contributes to market-risk netting.
    """

    notional: float
    fixed_rate: float
    maturity: float
    frequency: int = 2
    payer: bool = True
    collateralized: bool = False

    def __post_init__(self):
        if not self.notional > 0:
            raise ValueError("notional must be > 0")
        if not self.maturity > 0:
            raise ValueError("maturity must be > 0")
        if self.frequency not in (1, 2, 4):
            raise ValueError("frequency must be one of 1, 2, 4")
        if not np.isfinite(self.fixed_rate):
            raise ValueError("fixed_rate must be finite")

    @property
    def sign(self) -> float:
        return 1.0 if self.payer else -1.0

    def payment_times(self) -> np.ndarray:
        n = int(round(self.maturity * self.frequency))
        return np.arange(1, n + 1) / self.frequency


def annuity(curve: DiscountCurve, spec: SwapSpec, t: float = 0.0) -> float:
    """Discounted accrual factor of the remaining fixed leg, seen from time 0."""
    times = spec.payment_times()
    alive = times > t + 1e-12
    if not alive.any():
        return 0.0
    return float(np.sum(curve.df(times[alive])) / spec.frequency)


def par_rate(curve: DiscountCurve, spec: SwapSpec) -> float:
    """Fixed rate that makes the swap worth zero today."""
    a = annuity(curve, spec)
    return float((1.0 - curve.df(spec.maturity)) / a)


def swap_value(spec: SwapSpec, model: ShortRateModel, curve: DiscountCurve, t: float, x):
    """Swap value at time t given short-rate factor value(s) x.

    Vectorized over paths; returns an array shaped like ``x`` (scalar in,
    scalar out).  Zero at and only from the final payment date onward.
    """
    if t < 0 or t > spec.maturity + 1e-12:
        raise ValueError("valuation time outside the swap's life")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    times = spec.payment_times()
    alive = times > t + 1e-12
    if not alive.any():
        out = np.zeros_like(x_arr)
        return float(out[0]) if scalar else out
    p = model.bond_price(curve, t, times[alive], x_arr)
    ann = p.sum(axis=-1) / spec.frequency
    floating = 1.0 - p[..., -1]
    out = spec.sign * spec.notional * (floating - spec.fixed_rate * ann)
    return float(out[0]) if scalar else out


def _netted_plan(books, model: ShortRateModel, curve: DiscountCurve, grid) -> list:
    """Per grid point ``(c, -B, w A)`` netting each book over its live payment dates.

    ``c`` is a ``(books, 1)`` column, ``-B`` has one entry per live date and
    ``w A`` is shaped ``(books, live dates)``.  A date is live after
    ``t + 1e-12``, as in ``swap_value``; a swap with no live date adds nothing.
    """
    times = [s.payment_times() for book in books for s in book]
    dates = np.unique(np.concatenate([np.empty(0), *times]))
    weights = np.zeros((len(books), len(dates)))
    last = np.zeros((len(books), len(dates)))  # sign * notional ending on each date
    for j, book in enumerate(books):
        for s in book:
            idx = np.searchsorted(dates, s.payment_times())
            weights[j, idx] -= s.sign * s.notional * s.fixed_rate / s.frequency
            weights[j, idx[-1:]] -= s.sign * s.notional
            last[j, idx[-1:]] += s.sign * s.notional
    g = np.asarray(grid, dtype=float)
    log_a, b = model.affine(curve, g[:, None], dates[None, :])
    plan = []
    for k, t in enumerate(g):
        live = np.searchsorted(dates, t + 1e-12, side="right")
        plan.append((last[:, live:].sum(axis=1, keepdims=True), -b[k, live:],
                     weights[:, live:] * np.exp(log_a[k, live:])))
    return plan


def _revalue(x: np.ndarray, point, buf: np.ndarray) -> np.ndarray:
    """``c + (w A) @ exp(-B x)`` for one grid point: shaped ``(books, len(x))``.

    The exponentials go to the flat scratch ``buf``; reusing it spares a
    megabyte allocation per tile, which concurrent workers contend on.
    """
    const, neg_b, wa = point
    e = buf[: len(neg_b) * len(x)].reshape(len(neg_b), len(x))
    np.multiply.outer(neg_b, x, out=e)
    return const + wa @ np.exp(e, out=e)


def portfolio_value(
    swaps, model: ShortRateModel, curve: DiscountCurve, t: float, x: np.ndarray
) -> np.ndarray:
    """Netted value of several swaps on the same paths: one point of the kernel."""
    (point,) = _netted_plan([tuple(swaps)], model, curve, [t])
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _revalue(x, point, np.empty(len(point[1]) * len(x)))[0]


@dataclass
class ExposureProfile:
    """Discounted expected exposure of a netting set on a time grid.

    ``epe``/``ene`` are the means of the pathwise-discounted positive and
    negative value parts (so ``epe + ene`` equals the discounted mean value
    exactly); the undiscounted positive expectation feeds the capital rules.
    Standard errors are per grid point, on independent sampling units
    (antithetic pairs when antithetic sampling is on).
    """

    grid: np.ndarray
    epe: np.ndarray
    ene: np.ndarray
    mean_value: np.ndarray
    epe_undiscounted: np.ndarray
    mean_value_undiscounted: np.ndarray
    se_epe: np.ndarray
    se_ene: np.ndarray
    n_paths: int
    seed: int
    antithetic: bool = True
    collateral: ExposureProfile | None = None  # the posted book on the same paths

    def __post_init__(self):
        n = len(self.grid)
        for name in ("epe", "ene", "mean_value", "epe_undiscounted",
                     "mean_value_undiscounted", "se_epe", "se_ene"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must match the grid length")

    @classmethod
    def zeros(cls, grid, n_paths: int = 0, seed: int = 0) -> "ExposureProfile":
        g = np.asarray(grid, dtype=float)
        z = np.zeros_like(g)
        return cls(g, z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy(), z.copy(),
                   n_paths, seed)


def make_exposure_grid(maturity: float, frequency: int, points_per_year: int = 4) -> np.ndarray:
    """Union of a uniform grid and the payment dates, from 0 to maturity."""
    uniform = np.linspace(0.0, maturity, int(round(maturity * points_per_year)) + 1)
    pay = np.arange(1, int(round(maturity * frequency)) + 1) / frequency
    return np.union1d(np.round(uniform, 12), np.round(pay, 12))


def _moments(units: np.ndarray):
    """Per-row (count, mean, centred sum of squares); overwrites ``units``."""
    first = units[:, :1].copy()
    units -= first  # shifted first, a row of equal values centres to exactly 0
    shift = units.mean(axis=1, keepdims=True)
    units -= shift
    return units.shape[1], (first + shift)[:, 0], np.square(units, out=units).sum(axis=1)


def _merge_moments(a, b):
    """Chan, Golub & LeVeque's (1983) pairwise update of two ``_moments`` triples."""
    n_a, mean_a, m2_a = a
    n_b, mean_b, m2_b = b
    n = n_a + n_b
    delta = mean_b - mean_a
    return n, mean_a + delta * (n_b / n), m2_a + m2_b + delta**2 * (n_a * n_b / n)


def _block_stats(values_by_point: np.ndarray, discount: np.ndarray, antithetic: bool) -> dict:
    """Per-block accumulators for one simulated block.

    ``values_by_point`` and ``discount`` have shape (n_points, n_paths_in_block).
    """
    dv = values_by_point * discount
    dv_pos = np.maximum(dv, 0.0)
    dv_neg = np.minimum(dv, 0.0, out=dv)
    stats = {
        "n": dv.shape[1],
        "sum_dv_pos": dv_pos.sum(axis=1),
        "sum_dv_neg": dv_neg.sum(axis=1),
        "sum_v_pos": np.maximum(values_by_point, 0.0).sum(axis=1),
        "sum_v": values_by_point.sum(axis=1),
    }
    for side, part in (("pos", dv_pos), ("neg", dv_neg)):
        if antithetic:
            h = part.shape[1] // 2
            part = 0.5 * (part[:, :h] + part[:, h:])
        stats["unit_" + side] = _moments(part)
    return stats


def _reduce(parts: list[dict], grid: np.ndarray, seed: int, antithetic: bool) -> ExposureProfile:
    """Ordered reduction over blocks, which keeps results worker-count invariant."""
    acc = dict(parts[0])
    for part in parts[1:]:
        for key, value in part.items():
            acc[key] = (_merge_moments(acc[key], value) if key.startswith("unit_")
                        else acc[key] + value)
    n = acc["n"]
    epe = acc["sum_dv_pos"] / n
    ene = acc["sum_dv_neg"] / n

    def _se(moments):
        n_units, _, m2 = moments
        return np.sqrt(m2 / (n_units - 1) / n_units) if n_units > 1 else np.zeros_like(m2)

    return ExposureProfile(
        grid=grid,
        epe=epe,
        ene=ene,
        # V+ + V- == V holds per path in floating point, so the discounted
        # mean is the sum of the two parts by construction.
        mean_value=epe + ene,
        epe_undiscounted=acc["sum_v_pos"] / n,
        mean_value_undiscounted=acc["sum_v"] / n,
        se_epe=_se(acc["unit_pos"]),
        se_ene=_se(acc["unit_neg"]),
        n_paths=n,
        seed=seed,
        antithetic=antithetic,
    )


def exposure_profile(
    swaps,
    model: ShortRateModel,
    curve: DiscountCurve,
    grid,
    n_paths: int,
    seed: int,
    antithetic: bool = True,
    n_workers: int = 1,
    collateral_book=(),
) -> ExposureProfile:
    """Monte Carlo exposure profile of the netted uncollateralized swaps.

    ``swaps`` may be a single SwapSpec or a sequence; collateralized swaps
    contribute nothing here.  Swaps in ``collateral_book`` are valued on the
    same paths, whatever their flag, into the result's ``collateral``
    profile.  Streams through the same deterministic block substreams as
    ``simulate_paths``, never materializing the full path set.
    """
    if isinstance(swaps, SwapSpec):
        swaps = (swaps,)
    g = _validate_grid(grid)
    live = tuple(s for s in swaps if not s.collateralized)
    posted = tuple(collateral_book)
    if not (live or posted):
        return ExposureProfile.zeros(g, n_paths=n_paths, seed=seed)
    books = [live, posted] if posted else [live]
    plan = _netted_plan(books, model, curve, g)
    int_shift = np.asarray(model._integrated_shift(curve, g))[:, None]

    def run_block(idx, size):
        x, y = _simulate_block(model, g, size, seed, idx, antithetic)
        values = np.empty((len(books), len(g), size))
        buf = np.empty(len(plan[0][1]) * min(size, TILE_SIZE))  # t = 0 has every date live
        for k, point in enumerate(plan):
            for lo in range(0, size, TILE_SIZE):
                values[:, k, lo:lo + TILE_SIZE] = _revalue(x[k, lo:lo + TILE_SIZE], point, buf)
        del x
        y += int_shift
        discount = np.exp(np.negative(y, out=y), out=y)
        return [_block_stats(v, discount, antithetic) for v in values]

    parts = map_blocks(run_block, n_paths, antithetic, n_workers)
    profile = _reduce([p[0] for p in parts], g, seed, antithetic)
    if posted:
        profile.collateral = _reduce([p[1] for p in parts], g, seed, antithetic)
    return profile
