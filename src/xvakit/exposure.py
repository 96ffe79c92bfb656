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
per live date with ``A`` folded in: ``f_k(x) = c_k + (w_k A_k) @ exp(-B_k x)``
is the exact kernel, and a posted-collateral book is a second weight row.

``f_k`` is an entire function of one scalar, so each grid row of a path
block is revalued through a Chebyshev proxy rather than one exponential per
(path, date).  The row is fitted on its own range ``mid_k ± h_k`` of the
simulated factor, so no path is extrapolated: the exact kernel is evaluated
at ``n`` Chebyshev nodes, a DCT-II turns those values into coefficients, and
these become power coefficients whose even and odd parts are evaluated by
Horner in ``s^2``, for ``s`` the path's place in the range, as ``E + s G``.
``n`` is not a setting: with
``r = h_k max B_k``, the coefficients of ``exp(-B h s)`` are Bessel values
``I_m(B h)``, and ``n`` is the smallest count for which the tail bound
``2 (r/2)^n e^{r^2/4(n+1)} / (n! (1 - r/2(n+1)))`` is at most 2^-53 of each
term's value at the centre (``_chebyshev_terms``).  About 15 terms serve
where the exact kernel spends up to 120 exponentials per path.  Rows where
every path agrees (``t = 0``, or ``sigma = 0``) and rows with no live date
have nothing to fit and take the exact value.

Exposure profiles report the Monte Carlo means of the pathwise-discounted
positive and negative parts of the value, with standard errors computed on
antithetic-pair means when antithetic sampling is on.  Only a block's drawn
half is then simulated: each twin path is the exact negation of its drawn
path, so its factor is ``-x``, its range is ``[-max|x|, max|x|]`` (so
``mid_k`` is 0), its value is ``E - s G`` and its discount factor is
``exp(-(shift - y))``, each bit for bit what stepping the twin would give.
A path block is streamed in chunks of ``CHUNK_ROWS`` grid rows: each chunk
is simulated, revalued, discounted and reduced to per-row sums and moments
while it is in a core's cache, so apart from its normal draws a block never
holds a ``(grid x block)`` array.  Chunks start at multiples of
``CHUNK_ROWS``, as the Chebyshev term count is chosen per chunk.  Blocks are
reduced in index order, so a profile is byte-identical for a given seed no
matter how many workers ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve
from .ratemodel import (ShortRateModel, _draw_block, _simulate_block, _step_table, _validate_grid,
                        map_blocks)

CHUNK_ROWS = 8  # grid rows per streamed chunk: 8 x 8192 paths is 0.5 MB per temporary and book


def on_schedule(maturity: float, frequency: int) -> bool:
    """Whether ``maturity`` is a whole number of ``1/frequency`` periods, to 1e-9 of one."""
    return abs((maturity * frequency + 0.5) % 1.0 - 0.5) <= 1e-9  # NaN, so False, if infinite


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
        if not on_schedule(self.maturity, self.frequency):
            raise ValueError("maturity must be a whole number of 1/frequency periods")
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


def _revalue(x: np.ndarray, point) -> np.ndarray:
    """``c + (w A) @ exp(-B x)`` for one grid point: shaped ``(books, len(x))``."""
    const, neg_b, wa = point
    return const + wa @ np.exp(np.multiply.outer(neg_b, x))


def portfolio_value(
    swaps, model: ShortRateModel, curve: DiscountCurve, t: float, x: np.ndarray
) -> np.ndarray:
    """Netted value of several swaps on the same paths: one point of the kernel."""
    (point,) = _netted_plan([tuple(swaps)], model, curve, [t])
    return _revalue(np.atleast_1d(np.asarray(x, dtype=float)), point)[0]


def _chebyshev_terms(r: float) -> int:
    """Chebyshev terms that fit ``exp(-B x)`` to rounding where ``B h <= r``.

    On ``x = mid + h s``, ``s`` in [-1, 1], a term is ``exp(-B mid)`` times
    ``exp(-B h s) = I_0(B h) + 2 sum_{m>=1} (-1)^m I_m(B h) T_m(s)``.  From the
    series of ``I_m`` and ``(m + k)! >= m! (m + 1)^k``,

        I_m(r) <= (r/2)^m / m! * e^{r^2 / 4(m+1)},

    and with ``m! >= n! (n + 1)^(m-n)`` for ``m >= n`` and ``q = r / 2(n+1) < 1``,

        sum_{m>=n} I_m(r) <= (r/2)^n / n! * e^{r^2 / 4(n+1)} / (1 - q),

    so dropping the terms from degree ``n`` on costs at most twice that
    times the term at the centre of the interval; the bound grows with
    ``r``, so ``r = h max B`` covers every date at once.  The smallest ``n``
    with that bound <= 2^-53 is returned; interpolating at ``n`` nodes
    instead of truncating at most doubles the error (aliasing moves each
    dropped coefficient onto one kept one).
    """
    if not math.isfinite(r):
        raise ValueError(f"Chebyshev radius must be finite, got {r}")
    n = 1
    if r > 0:  # in logs, since the factors overflow long before their product is small
        log_eps, log_half_r = -53 * math.log(2.0), math.log(r / 2.0)
        while True:
            q = r / (2.0 * (n + 1))
            if q < 1 and (math.log(2.0) + n * log_half_r - math.lgamma(n + 1)
                          + r * r / (4.0 * (n + 1)) - math.log1p(-q)) <= log_eps:
                break
            n += 1
    return n


def _chebyshev_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev nodes ``cos(theta_i)`` and the DCT-II matrix ``(2/n) cos(m theta_i)``.

    ``theta_i = pi (i + 1/2) / n``, so ``m theta_i = k pi / 2n`` with
    ``k = m (2i + 1)``.  Folding ``k`` in integers to an angle in [0, pi/2]
    keeps each cosine within an ulp or so; ``cos`` of the rounded product
    ``m * theta_i`` errs by up to ``m`` ulps, which put several ulps of the
    book into every fitted value.
    """
    k = np.outer(2 * np.arange(n) + 1, np.arange(n + 1)) % (4 * n)  # m = 1 gives the nodes
    k = np.minimum(k, 4 * n - k)  # cos is even and 2 pi periodic
    sign = np.where(k > n, -1.0, 1.0)  # cos(pi - a) = -cos(a)
    cosines = sign * np.cos(np.pi / (2 * n) * np.where(k > n, 2 * n - k, k))
    return cosines[:, 1], (2.0 / n) * cosines[:, :n]


def _power_basis(n: int) -> np.ndarray:
    """``P`` with ``a @ P`` the power coefficients in ``s`` of ``a_0 / 2 + sum a_m T_m(s)``.

    Row ``m`` holds ``T_m``'s integer coefficients from ``T_{m+1} = 2 s T_m -
    T_{m-1}``, row 0 halved.  They grow like ``2^m``, so ``P`` multiplies the
    fast-decaying coefficients, never node values.
    """
    basis = np.eye(n)  # T_0 = 1, T_1 = s
    for m in range(2, n):
        basis[m, 1:] = 2.0 * basis[m - 1, :-1]
        basis[m] -= basis[m - 2]
    basis[0, 0] = 0.5
    return basis


def _chebyshev_revalue(x: np.ndarray, plan: list, out: np.ndarray) -> None:
    """The netted books at every path of grid-major rows ``x``, into ``out``.

    When ``out`` is twice as wide as ``x``, its second half receives the
    antithetic twins, the paths at ``-x``.  Row ``k`` is fitted on its own
    range ``mid_k ± h_k`` of the paths written (``[-max|x[k]|, max|x[k]|]``
    with twins), so no path is extrapolated: the exact kernel ``_revalue``
    is evaluated at the Chebyshev nodes of that interval and one cosine
    matrix (a DCT-II) turns the node values into coefficients.  These become
    power coefficients in ``s = (x - mid_k) / h_k``, and the even and odd
    parts ``E`` and ``G`` of the polynomial are evaluated together by Horner
    in ``s^2``: a path takes ``E + s G`` and its twin ``E - s G``, bit for bit
    what evaluating at ``-x`` gives.  Rows where every path agrees
    (``h_k = 0``) or no date is live have nothing to fit: their exact value
    at ``mid_k`` becomes the constant coefficient and passes through
    unchanged.  Every row takes the rows' largest term count; a streamed
    block passes one chunk of ``CHUNK_ROWS`` rows at a time.
    """
    n_x = x.shape[1]
    if out.shape[-1] == n_x:
        lo, hi = x.min(axis=1), x.max(axis=1)
    else:
        hi = np.maximum(x.max(axis=1), -x.min(axis=1))
        lo = -hi
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    b_max = np.array([np.max(-neg_b, initial=0.0) for _, neg_b, _ in plan])  # 0: none live
    fit = (half > 0) & (b_max > 0)
    n = _chebyshev_terms(np.max(half * b_max, where=fit, initial=0.0))
    nodes, cosines = _chebyshev_basis(n)
    coef = np.zeros((len(out), len(plan), n))
    for k, point in enumerate(plan):
        if fit[k]:
            coef[:, k] = _revalue(mid[k] + half[k] * nodes, point) @ cosines
        else:
            coef[:, k, 0] = 2.0 * _revalue(mid[k:k + 1], point)[:, 0]
    power = coef @ _power_basis(n)
    parts = np.zeros((2, *coef.shape[:2], (n + 1) // 2))  # E's and G's coefficients in s^2
    parts[0], parts[1, ..., :n // 2] = power[..., ::2], power[..., 1::2]
    h = half[:, None]
    s = np.divide(x - mid[:, None], h, out=np.zeros_like(x), where=h > 0)
    w = s * s
    acc = np.empty((*parts.shape[:3], n_x))
    acc[...] = parts[..., -1:]
    for i in range(parts.shape[-1] - 2, -1, -1):
        acc *= w
        acc += parts[..., i, None]
    even, odd = acc
    odd *= s
    np.add(even, odd, out=out[..., :n_x])
    if out.shape[-1] > n_x:
        np.subtract(even, odd, out=out[..., n_x:])


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
    collateral: np.ndarray | None = None  # the posted book's discounted mean, same paths

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


def _join_rows(chunks: tuple[dict, ...]) -> dict:
    """One block's ``_block_stats`` from those of its consecutive row chunks."""
    joined = {}
    for key, first in chunks[0].items():
        if key == "n":
            joined[key] = first
        elif key.startswith("unit_"):  # (count, per-row mean, per-row M2)
            joined[key] = (first[0], *map(np.concatenate, zip(*(c[key][1:] for c in chunks))))
        else:
            joined[key] = np.concatenate([c[key] for c in chunks])
    return joined


def _sum_blocks(parts: list[dict]) -> dict:
    """Blocks' accumulators summed (moments merged) in block order."""
    acc = dict(parts[0])
    for part in parts[1:]:
        for key, value in part.items():
            acc[key] = (_merge_moments(acc[key], value) if key.startswith("unit_")
                        else acc[key] + value)
    return acc


def _reduce(parts: list[dict], grid: np.ndarray, seed: int, antithetic: bool) -> ExposureProfile:
    """Ordered reduction over blocks, which keeps results worker-count invariant."""
    acc = _sum_blocks(parts)
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
    same paths, whatever their flag, into the result's ``collateral``, the
    book's discounted mean value.  Streams each deterministic block in
    ``CHUNK_ROWS`` row chunks, never materializing a block's paths.
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
    steps = _step_table(model, g)
    int_shift = np.asarray(model._integrated_shift(curve, g))[:, None]

    def run_block(idx, size):
        draws = _draw_block(len(steps), size, seed, idx, antithetic)
        n_draw = len(draws)  # with antithetic sampling, twins fill columns n_draw onward
        x, y = np.zeros((2, CHUNK_ROWS + 1, n_draw))  # row CHUNK_ROWS carries to the next chunk
        z = np.empty((CHUNK_ROWS, 2, n_draw))
        values = np.empty((len(books), CHUNK_ROWS, size))
        discount = np.empty((CHUNK_ROWS, size))
        chunks, posted_sums = [], []
        for k0 in range(0, len(g), CHUNK_ROWS):
            rows = min(CHUNK_ROWS, len(g) - k0)
            _simulate_block(steps, draws, k0, x, y, z)
            _chebyshev_revalue(x[:rows], plan[k0:k0 + rows], values[:, :rows])
            d, shift = discount[:rows], int_shift[k0:k0 + rows]
            np.negative(np.add(y[:rows], shift, out=d[:, :n_draw]), out=d[:, :n_draw])
            if antithetic:  # the twins' -(shift - y)
                np.subtract(y[:rows], shift, out=d[:, n_draw:])
            np.exp(d, out=d)
            chunks.append(_block_stats(values[0, :rows], d, antithetic))
            if posted:  # only its discounted mean is used: keep the two signed sums
                dv = values[1, :rows] * d
                posted_sums.append({"n": size, "sum_dv_pos": np.maximum(dv, 0.0).sum(axis=1),
                                    "sum_dv_neg": np.minimum(dv, 0.0, out=dv).sum(axis=1)})
            x[0], y[0] = x[rows], y[rows]
        return _join_rows(chunks), _join_rows(posted_sums) if posted else None

    parts = map_blocks(run_block, n_paths, antithetic, n_workers)
    profile = _reduce([p[0] for p in parts], g, seed, antithetic)
    if posted:
        acc = _sum_blocks([p[1] for p in parts])
        profile.collateral = acc["sum_dv_pos"] / acc["n"] + acc["sum_dv_neg"] / acc["n"]
    return profile
