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
is linear in the bonds on the union of its payment dates.  So each book is
netted once per run into ``(grid row, date)`` arrays: a constant ``c_k`` and
one weight per date with ``A`` folded in, zero once the date is paid, so
``f_k(x) = c_k + (w_k A_k) @ exp(-B_k x)`` is the exact kernel; a
posted-collateral book is a second weight row.

``f_k`` is an entire function of one scalar, so a chunk of grid rows is
revalued through Chebyshev proxies rather than one exponential per (path,
date).  Each row is fitted on its own range ``mid_k ± h_k`` of the
simulated factor, so no path is extrapolated: the exact kernel is evaluated
at ``n`` Chebyshev nodes of every row of the chunk in one call, a DCT-II
turns those values into coefficients, and these become power coefficients
whose even and odd parts are evaluated by Horner in ``s^2``, for ``s`` the
path's place in the range, as ``E + s G``.
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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .curves import DiscountCurve
from .ratemodel import (ShortRateModel, _draw_block, _simulate_block, _step_table, _validate_grid,
                        map_blocks)

CHUNK_ROWS = 8  # grid rows per streamed chunk: 8 x 8192 paths is 0.5 MB per temporary and book
_LOG_MAX = math.log(np.finfo(float).max)  # exp overflows above this


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


@dataclass(frozen=True)
class _NettedPlan:
    """Books netted per grid row: ``f_k(x) = const[k] + wa[k] @ exp(neg_b[k] x)`` per book.

    ``const`` is ``(rows, books)``, ``neg_b`` is ``(rows, dates)`` and ``wa``
    is ``(rows, books, dates)`` over the union of the books' payment dates.
    A date is live after ``t + 1e-12`` (paid at ``t`` it is not); a dead date has
    zero weight and zero ``neg_b``.  ``b_max`` is each row's largest live
    ``B``, 0 with none live.  Indexing selects rows.
    """

    const: np.ndarray
    neg_b: np.ndarray
    wa: np.ndarray
    b_max: np.ndarray

    def __len__(self) -> int:
        return len(self.b_max)

    def __getitem__(self, rows) -> "_NettedPlan":
        return _NettedPlan(self.const[rows], self.neg_b[rows], self.wa[rows], self.b_max[rows])


def _netted_plan(books, model: ShortRateModel, curve: DiscountCurve, grid) -> _NettedPlan:
    """Each book netted once, at every grid point, into the affine kernel's arrays."""
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
    live = dates[None, :] > g[:, None] + 1e-12
    return _NettedPlan(const=np.where(live[:, None], last, 0.0).sum(axis=2),
                       neg_b=np.where(live, -b, 0.0),
                       wa=np.where(live[:, None], weights * np.exp(log_a)[:, None], 0.0),
                       b_max=np.max(b, axis=1, where=live, initial=0.0))


def _revalue(x: np.ndarray, plan: _NettedPlan) -> np.ndarray:
    """The exact kernel at each row's points ``x`` ``(rows, m)``: shaped ``(books, rows, m)``."""
    e = np.multiply(plan.neg_b[:, :, None], x[:, None, :])
    return (plan.const[:, :, None] + plan.wa @ np.exp(e, out=e)).transpose(1, 0, 2)


def portfolio_value(
    swaps, model: ShortRateModel, curve: DiscountCurve, t: float, x: np.ndarray
) -> np.ndarray:
    """Netted value of several swaps on the same paths: one point of the kernel."""
    plan = _netted_plan([tuple(swaps)], model, curve, [t])
    return _revalue(np.atleast_1d(np.asarray(x, dtype=float))[None], plan)[0, 0]


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


@functools.lru_cache(maxsize=64)
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
    nodes, dct = cosines[:, 1].copy(), (2.0 / n) * cosines[:, :n]
    nodes.flags.writeable = dct.flags.writeable = False  # cached: shared by every caller
    return nodes, dct


@functools.lru_cache(maxsize=64)
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
    basis.flags.writeable = False  # cached: shared by every caller
    return basis


def _chebyshev_fit(x: np.ndarray, plan: _NettedPlan, twins: bool):
    """``(mid, half, coef)``: each row's range ``mid_k ± h_k`` of the paths
    (``[-max|x[k]|, max|x[k]|]`` with ``twins``) and its Chebyshev coefficients.

    The exact kernel is evaluated at the nodes of every row's range in one
    call and one cosine matrix (a DCT-II) turns the values into coefficients
    ``(books, rows, n)``, ``n`` the rows' largest term count.  Rows where
    every path agrees (``h_k = 0``) or no date is live have nothing to fit:
    their exact value at ``mid_k`` is the constant coefficient.  ``coef`` is
    None when a radius ``h_k B_k`` passes ``log`` of the largest float or is
    not finite.
    """
    if twins:
        hi = np.maximum(x.max(axis=1), -x.min(axis=1))
        lo = -hi
    else:
        lo, hi = x.min(axis=1), x.max(axis=1)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fit = (half > 0) & (plan.b_max > 0)
    radius = np.max(half * plan.b_max, where=fit, initial=0.0)
    if not radius <= _LOG_MAX:  # an infinite or NaN radius too
        return mid, half, None
    nodes, cosines = _chebyshev_basis(_chebyshev_terms(radius))
    coef = _revalue(mid[:, None] + half[:, None] * nodes, plan) @ cosines
    coef[:, ~fit] = 0.0
    coef[:, ~fit, 0] = 2.0 * _revalue(mid[~fit, None], plan[~fit])[..., 0]
    return mid, half, coef


def _chebyshev_revalue(x: np.ndarray, plan: _NettedPlan, out: np.ndarray) -> None:
    """The netted books at every path of grid-major rows ``x``, into ``out``.

    When ``out`` is twice as wide as ``x``, its second half receives the
    antithetic twins, the paths at ``-x``.  Each row is fitted on its own
    range of the paths written (``_chebyshev_fit``), so no path is
    extrapolated.  The coefficients become power coefficients in
    ``s = (x - mid_k) / h_k``, and the even and odd parts ``E`` and ``G`` of
    the polynomial are evaluated together by Horner in ``s^2``: a path takes
    ``E + s G`` and its twin ``E - s G``, bit for bit what evaluating at
    ``-x`` gives.  A streamed block passes one chunk of ``CHUNK_ROWS`` rows
    at a time.  Where the kernel overflows, ``out`` is NaN.
    """
    n_x = x.shape[1]
    mid, half, coef = _chebyshev_fit(x, plan, out.shape[-1] > n_x)
    if coef is None:
        out[...] = np.nan
        return
    n = coef.shape[-1]
    power = coef @ _power_basis(n)
    parts = np.zeros((2, *coef.shape[:2], (n + 1) // 2))  # E's and G's coefficients in s^2
    parts[0], parts[1, ..., :n // 2] = power[..., ::2], power[..., 1::2]
    h = half[:, None]
    s = np.subtract(x, mid[:, None])  # 0 on rows with h = 0, where every path is at mid
    np.divide(s, h, out=s, where=h > 0)
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

    ``values_by_point`` and ``discount`` have shape (n_points, n_paths_in_block);
    the discounted value's positive and negative parts are reduced stacked.
    """
    rows, n = values_by_point.shape
    parts = np.empty((2, rows, n))
    dv = np.multiply(values_by_point, discount, out=parts[1])
    np.maximum(dv, 0.0, out=parts[0])
    np.minimum(dv, 0.0, out=parts[1])
    sums = parts.sum(axis=2)
    units = parts
    if antithetic:
        units = np.add(parts[..., :n // 2], parts[..., n // 2:])
        units *= 0.5
    count, mean, m2 = _moments(units.reshape(2 * rows, -1))  # may overwrite parts
    return {
        "n": n,
        "sum_dv_pos": sums[0],
        "sum_dv_neg": sums[1],
        "sum_v_pos": np.maximum(values_by_point, 0.0, out=parts[0]).sum(axis=1),
        "sum_v": values_by_point.sum(axis=1),
        "unit_pos": (count, mean[:rows], m2[:rows]),
        "unit_neg": (count, mean[rows:], m2[rows:]),
    }


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
        z = np.empty((CHUNK_ROWS, 3, n_draw))
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
