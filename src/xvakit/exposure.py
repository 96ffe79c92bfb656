"""Swap pricing in the short-rate factor and discounted exposure profiles.

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
netted once per run into ``(grid row, date)`` arrays: a constant ``c_k`` and
one weight per date with ``A`` folded in, zero once the date is paid, so
``f_k(x) = c_k + (w_k A_k) @ exp(-B_k x)`` is the exact kernel.  Two of its
means are closed forms.  A discounted bond is a martingale, so the
discounted mean at ``t_k`` is ``c_k P(0, t_k) + w_k @ P(0, T)``, today's
value of the remaining flows; the posted-collateral book needs nothing else
and is never revalued.  Under Q, ``x_t ~ N(0, v_k)`` with
``v_k = sigma^2 B(2 t_k) / 2``, so the undiscounted mean, the expected MtM
that the capital rules read, is ``c_k + (w_k A_k) @ exp(B_k^2 v_k / 2)``.

The adjustments read only discounted means, and under the t-forward
measure ``E[D_t g(x_t)] = P(0, t) E[g(x_t + m_t)]``, ``m_t = -sigma^2
B(t)^2 / 2``, over the factor's law under Q.  ``f_k(x + m)`` is the same
exponential sum with weights ``w_k A_k e^{-B_k m}``, so ``_forward_kernel``
scales each row once: its value at a factor is the discounted value.

So each row's EPE is ``E[k(X)+]``, ``k`` the row's t-forward kernel and ``X
~ N(0, v_k)``, and ``exposure_profile`` takes it by ``positive_mean``: ``k``
is a sum of exponentials in one Gaussian factor, so between two of its roots
each term's mean is a difference of ``Phi`` (Jamshidian, *J. Finance* 44(1),
1989), and the roots are certified cell by cell.  It has no sampling error.

``_sampled_epe`` estimates the same means by plain Monte Carlo on the exact
kernel.  No run calls it: it is the tests' independent reference for
``positive_mean``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .curves import DiscountCurve
from .ratemodel import ShortRateModel, _validate_grid

POINTS_PER_YEAR = 4  # of the exposure grid; every swap frequency divides it
# ``positive_mean``: rows per block of its scan (0.5 MB of exponentials at 121 dates), the
# s.d. past which no term's Gaussian holds 2^-53 of its mass (Phi(-9) = 1.1e-19), the scan's
# cells, the halvings a cell may take before its row is refused, and ``_refine``'s last step.
_EXACT_ROWS, _TAIL, _SCAN_CELLS, _SPLITS, _NEWTON_TOL = 32, 9.0, 16, 40, 2.0 ** -30


def is_live(date, t):
    """Whether a flow on ``date`` is still to come at ``t``; one paid at ``t`` is not."""
    return date > t + 1e-12


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
            raise ValueError("notional: must be > 0")
        if not self.maturity > 0:
            raise ValueError("maturity: must be > 0")
        if self.frequency not in (1, 2, 4):
            raise ValueError("frequency: must be one of 1, 2, 4")
        if not on_schedule(self.maturity, self.frequency):
            raise ValueError("maturity: must be a whole number of 1/frequency periods")
        # Snapped to its schedule, so the grid holds the payment dates bit for bit.
        object.__setattr__(self, "maturity", round(self.maturity * self.frequency) / self.frequency)
        if not np.isfinite(self.fixed_rate):
            raise ValueError("fixed_rate: must be finite")

    @property
    def sign(self) -> float:
        return 1.0 if self.payer else -1.0

    def payment_times(self) -> np.ndarray:
        n = int(round(self.maturity * self.frequency))
        return np.arange(1, n + 1) / self.frequency


@dataclass(frozen=True)
class _NettedPlan:
    """A book netted per grid row: ``f_k(x) = const[k] + wa[k] @ exp(neg_b[k] x)``.

    ``const`` is ``(rows,)``, and ``neg_b`` and ``wa`` are ``(rows, dates)``
    over the union of the swaps' payment dates.  A date that is not
    ``is_live`` has zero weight and zero ``neg_b``.  ``forward`` is the discounted mean
    ``E[D_t f_k(x_t)]``, today's value of the remaining flows, and
    ``expected`` the undiscounted mean ``E[f_k(x_t)]``.  Indexing selects rows.
    """

    const: np.ndarray
    neg_b: np.ndarray
    wa: np.ndarray
    forward: np.ndarray
    expected: np.ndarray

    def __getitem__(self, rows) -> "_NettedPlan":
        return _NettedPlan(*(getattr(self, f.name)[rows] for f in fields(self)))


def _netted_flows(book, curve: DiscountCurve, grid):
    """``book`` netted on the union of its payment ``dates`` at each grid point ``g``: ``(g,
    dates, live, const, flows, forward)``, ``live`` ``is_live`` per row and date, ``const``
    the principal to come, ``flows`` each date's flow, zero once paid, and ``forward`` the
    discounted mean: ``E[D_t P(t, T)] = P(0, T)``, so ``c_k P(0, t_k) + flows_k @ P(0, T)``."""
    dates = np.unique(np.concatenate([np.empty(0), *(s.payment_times() for s in book)]))
    weights = np.zeros(len(dates))
    last = np.zeros(len(dates))  # sign * notional ending on each date
    for s in book:
        idx = np.searchsorted(dates, s.payment_times())
        weights[idx] -= s.sign * s.notional * s.fixed_rate / s.frequency
        weights[idx[-1:]] -= s.sign * s.notional
        last[idx[-1:]] += s.sign * s.notional
    g = np.asarray(grid, dtype=float)
    live = is_live(dates, g[:, None])
    const, flows = np.where(live, last, 0.0).sum(axis=1), np.where(live, weights, 0.0)
    return g, dates, live, const, flows, const * curve.df(g) + flows @ curve.df(dates)


def _netted_plan(book, model: ShortRateModel, curve: DiscountCurve, grid) -> _NettedPlan:
    """The swaps of ``book`` netted once, at every grid point, into the affine kernel's arrays.

    ``forward`` is ``_netted_flows``'.  Under Q, ``x_t ~ N(0, v_k)``, ``v_k = sigma^2 B(2 t_k)
    / 2``, and ``E[exp(-B x_t)] = exp(B^2 v_k / 2)``, so ``expected`` is ``c_k + sum_j wa_kj
    exp(B_kj^2 v_k / 2)``."""
    g, dates, live, const, flows, forward = _netted_flows(book, curve, grid)
    log_a, b = model.affine(curve, g[:, None], dates[None, :])
    neg_b = np.where(live, -b, 0.0)
    wa = np.where(live, flows * np.exp(log_a), 0.0)
    v = model.variance(g)[:, None]
    return _NettedPlan(const=const, neg_b=neg_b, wa=wa, forward=forward,
                       expected=const + np.sum(wa * np.exp(0.5 * v * neg_b * neg_b), axis=1))


def _forward_kernel(plan: _NettedPlan, model: ShortRateModel, curve: DiscountCurve,
                    grid) -> _NettedPlan:
    """``plan`` under each row's t-forward measure, ``P(0, t_k) f_k(x + m_k)``: constant
    ``P(0, t_k) c_k`` and weights ``P(0, t_k) wa_kj e^{-B_kj m_k}``, so its mean over
    the factor's law under Q is ``forward``.  The other fields are ``plan``'s.
    """
    g = np.asarray(grid, dtype=float)
    df, m = curve.df(g), model.forward_drift(g)
    return replace(plan, const=df * plan.const,
                   wa=df[:, None] * plan.wa * np.exp(m[:, None] * plan.neg_b))


def _revalue(x: np.ndarray, plan: _NettedPlan) -> np.ndarray:
    """The exact kernel at each row's points ``x`` ``(rows, m)``: shaped ``(rows, m)``."""
    e = np.multiply(plan.neg_b[:, :, None], x[:, None, :])
    return plan.const[:, None] + (plan.wa[:, None, :] @ np.exp(e, out=e))[:, 0]


def portfolio_value(
    swaps, model: ShortRateModel, curve: DiscountCurve, t: float, x: np.ndarray
) -> np.ndarray:
    """Netted value of several swaps on the same paths: one point of the kernel."""
    plan = _netted_plan(tuple(swaps), model, curve, [t])
    return _revalue(np.atleast_1d(np.asarray(x, dtype=float))[None], plan)[0]


@dataclass(kw_only=True)
class ExposureProfile:
    """Discounted expected exposure of a netting set on a time grid.

    ``epe`` is the discounted mean of the positive value part, priced
    through the t-forward kernel by ``positive_mean``; the negative part's
    mean is ``forward - epe``, the book's known discounted mean less ``epe``.
    The undiscounted mean value, a closed form, feeds the capital rules.
    ``collateral`` is the collateral held, the discounted mean value of the
    collateralized swaps, in closed form: zero where the book has none.
    """

    grid: np.ndarray
    epe: np.ndarray
    forward: np.ndarray
    mean_value_undiscounted: np.ndarray
    collateral: np.ndarray

    def __post_init__(self):
        n = len(self.grid)
        for name in ("epe", "forward", "mean_value_undiscounted", "collateral"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must match the grid length")


def make_exposure_grid(maturity: float) -> np.ndarray:
    """The quarterly grid from 0 to maturity: it holds every payment date of
    the swaps that end by then, whose maturities are snapped to schedule."""
    return np.linspace(0.0, maturity, int(round(maturity * POINTS_PER_YEAR)) + 1)


def normal_cdf(z):
    """The standard normal ``Phi(z) = erfc(-z / sqrt 2) / 2``, element by element through
    ``math.erfc``, so the lower tail keeps its relative accuracy; a float or an array.  The
    elements reach ``math.erfc`` as one list of floats, not one ufunc call each."""
    z = -np.asarray(z) / math.sqrt(2.0)
    return 0.5 * np.fromiter(map(math.erfc, z.ravel().tolist()), float, z.size).reshape(z.shape)


def _delta_phi(lo, hi, live=True):
    """``Phi(hi) - Phi(lo)``, ``lo <= hi``, from the tails ``Phi(-|z|)``: the lower tails'
    difference where both ends are at most 0, the upper tails' where both are at least 0,
    and 1 less both tails across 0, so a small difference is never a difference of two
    numbers near 1.  Tails are taken at finite ends where ``live`` (a term's weight is not 0)
    only; elsewhere they are 0, as they are exactly at an infinite end."""
    p, q = np.zeros(np.shape(lo)), np.zeros(np.shape(hi))
    for z, tail in ((lo, p), (hi, q)):
        at = np.isfinite(z) & live
        tail[at] = normal_cdf(-np.abs(z[at]))
    return np.where(hi <= 0, q - p, np.where(lo >= 0, p - q, 1.0 - p - q))


def _sums(x, mu, weights):
    """``weights[i] @ exp(mu[i] x[i, j])`` at the points ``x`` ``(n, points)``, ``(n, points,
    kinds)`` from ``mu`` ``(n, terms)`` and ``weights`` ``(n, kinds, terms)``: one batched
    product per row with its own weights.  The certifier's rounding allowance, ``(terms + 2)
    2^-52`` of the absolute sum, bounds the product's summation order, as it would any."""
    return np.matmul(np.exp(mu[:, None, :] * x[:, :, None]), weights.transpose(0, 2, 1))


def _refine(rows, lo, hi, g_lo, g_hi, mu, weights, scale):
    """The one root in each of the cells ``[lo, hi]`` where row ``rows``' ``g = weights[:, 0]
    @ exp(mu x)`` is monotone and changes sign, from ``g_lo`` to ``g_hi``: Newton from the
    secant's point, bisecting where a step would leave the shrinking bracket, until a step
    or the bracket is within ``_NEWTON_TOL = 2^-30`` of ``|x|`` plus the row's ``scale``.

    That is all the mean needs.  At a root ``r``, ``d/dr int_r k(x) phi(x) dx = -k(r) phi(r)
    = 0``, so a root off by ``delta`` moves the row's mean by ``O(k'(r) delta^2)``, and a
    Newton step of ``2^-30`` leaves a ``delta`` near its square."""
    mu, weights = mu[rows], weights[rows]
    x = np.clip(lo - g_lo * (hi - lo) / (g_hi - g_lo), lo, hi)
    active = np.arange(len(x))
    for _ in range(64):  # each step is Newton's or halves the bracket
        if not len(active):
            break
        at = x[active]
        g, slope = _sums(at[:, None], mu[active], weights[active])[:, 0].T
        same = (g < 0) == (g_lo[active] < 0)  # at is the bracket's new lower end, or upper
        lo[active] = a = np.where(same, at, lo[active])
        hi[active] = b = np.where(same, hi[active], at)
        step = at - np.divide(g, slope, out=np.full_like(g, np.inf), where=slope != 0)
        new = np.where(g == 0, at, np.where((step > a) & (step < b), step, 0.5 * (a + b)))
        tol = _NEWTON_TOL * (np.abs(new) + scale[rows[active]])
        x[active] = new
        active = active[(np.abs(new - at) > tol) & (b - a > tol)]
    return x


def _certified_cells(mu, weights, lo, hi, names):
    """Each row's scan of ``[lo, hi]`` halved until every cell is certified, as
    ``positive_mean`` says: ``(rows, x0, x1, g0, g1, definite)`` per cell, in order of row
    and ``x0``, with ``g`` at both ends and whether the cell holds no root.  ``weights``
    ``(rows, 5, terms)`` give ``g``, ``g'``, and the absolute sums ``S_0``, ``S_1``, ``S_2``:
    column ``k + 2`` is column ``k``'s rounding scale, and ``k + 3`` bounds its slope.  The
    scan goes ``_EXACT_ROWS`` rows at a time, each block without the terms that are zero on
    all of its rows."""
    n_rows, n = len(mu), mu.shape[1]
    x = lo[:, None] + np.multiply.outer(hi - lo, np.linspace(0.0, 1.0, _SCAN_CELLS + 1))
    f = np.empty((n_rows, _SCAN_CELLS + 1, 5))
    for block in (slice(r, r + _EXACT_ROWS) for r in range(0, n_rows, _EXACT_ROWS)):
        live = weights[block, 2].any(axis=0)
        f[block] = _sums(x[block], mu[block][:, live], weights[block][:, :, live])
    cells = (np.repeat(np.arange(n_rows), _SCAN_CELLS), x[:, :-1].ravel(), x[:, 1:].ravel(),
             f[:, :-1].reshape(-1, 5), f[:, 1:].reshape(-1, 5))
    eps, certified = (n + 2) * 2.0 ** -52, []  # rounding, relative to the absolute sums
    for _ in range(_SPLITS + 1):
        rows, x0, x1, f0, f1 = cells
        h = (x1 - x0) * (1.0 + eps)
        definite, monotone = (np.maximum(np.abs(f0[:, k]) - eps * f0[:, k + 2],
                                         np.abs(f1[:, k]) - eps * f1[:, k + 2]) >= h * f1[:, k + 3]
                              for k in (0, 1))
        ok = definite | monotone
        certified.append((rows[ok], x0[ok], x1[ok], f0[ok, 0], f1[ok, 0], definite[ok]))
        if ok.all():
            break
        rows, x0, x1, f0, f1 = (c[~ok] for c in cells)
        mid = 0.5 * (x0 + x1)
        f_mid = _sums(mid[:, None], mu[rows], weights[rows])[:, 0]
        cells = (np.tile(rows, 2), np.concatenate([x0, mid]), np.concatenate([mid, x1]),
                 np.concatenate([f0, f_mid]), np.concatenate([f_mid, f1]))
    else:
        raise RuntimeError(f"exact exposure: the roots of grid row {names[rows[0]]} are not "
                           f"certified within {_SPLITS} halvings of a scan cell")
    cells = [np.concatenate(c) for c in zip(*certified)]
    order = np.lexsort((cells[1], cells[0]))
    return tuple(c[order] for c in cells)


def positive_mean(const, wa, neg_b, variance) -> np.ndarray:
    """``E[k(X)+]`` per row, ``k(x) = const + wa @ exp(neg_b x)``, ``X ~ N(0, variance)``.

    ``const`` and ``variance`` are ``(rows,)``, ``wa`` and ``neg_b`` ``(rows, terms)``
    with ``neg_b = -B <= 0``.  Between two roots of ``k``, a term ``w e^{-B x}`` has the
    mean ``w e^{B^2 v / 2} (Phi(z_hi + B s) - Phi(z_lo + B s))``, ``s = sqrt(v)`` and
    ``z`` the interval's ends over ``s`` (Jamshidian, *J. Finance* 44(1), 1989), so a
    row's mean is that sum over the intervals where ``k > 0``; each difference of ``Phi``
    is ``_delta_phi``'s.  A row with ``v = 0`` is ``max(k(0), 0)``, and a row whose term
    means ``w e^{B^2 v / 2}`` leave the float range is NaN.

    The roots are certified on ``g = e^{b x} k``, ``b = max B``, an exponential sum with
    exponents ``mu = b - B >= 0``, finite wherever a term's mean is.  The scan covers
    ``[-b v - 9 s, 9 s]``, where each term's tilted law, centred at ``-B v``, holds all but
    ``Phi(-9)`` of its mass; past its ends ``k`` is taken to keep its sign.  On a cell
    ``[x0, x1]`` of width ``h`` each ``|w| mu^m e^{mu x}`` rises with ``x``, so ``sup |g^(m)|
    <= S_m(x1) = sum |w| mu^m e^{mu x1}``.  The cell holds no root if ``|g|`` at one end is
    at least ``h S_1``, and at most one if ``|g'|`` at one end is at least ``h S_2``, as
    ``g'`` then keeps its sign; it holds one where ``g`` is also of opposite signs at its
    ends.  Each test first takes from ``|g|`` or ``|g'|`` a rounding allowance of ``(terms
    + 2) 2^-52`` times its absolute sum.  The scan's ``_SCAN_CELLS`` cells are halved until
    each passes one of them; a row where one has not after ``_SPLITS`` halvings, as at a
    double root, is an internal failure (``RuntimeError``).  Each root is then polished by
    ``_refine``.  All rows share one certifier and one ``_refine``; only the scan goes in
    blocks of ``_EXACT_ROWS`` rows, so none of its temporaries is much over 0.5 MB.
    """
    const, wa, neg_b, variance = (np.asarray(a, dtype=float) for a in (const, wa, neg_b, variance))
    a = np.hstack([const[:, None], wa])  # the constant is the term with B = 0
    b = np.hstack([np.zeros((len(a), 1)), -neg_b])
    mean_w = a * np.exp(0.5 * variance[:, None] * b * b)  # each term's mean
    s = np.sqrt(variance)
    out = np.where(np.isfinite(mean_w).all(axis=1), np.maximum(a.sum(axis=1), 0.0), np.nan)
    todo = np.flatnonzero((s > 0) & np.isfinite(out))
    if not len(todo):
        return out
    a, b, mean_w, s = a[todo], b[todo], mean_w[todo], s[todo]
    b_max = b.max(axis=1)
    mu = b_max[:, None] - b  # g = e^{b_max x} k = a @ exp(mu x), mu >= 0
    weights = np.stack([a, a * mu, np.abs(a), np.abs(a) * mu, np.abs(a) * mu * mu], axis=1)
    rows, x0, x1, g0, g1, definite = _certified_cells(
        mu, weights, -b_max * s * s - _TAIL * s, _TAIL * s, todo)
    # Whether g > 0 just inside each end of a cell: a definite cell takes its larger end's sign.
    sign = np.where(np.abs(g0) >= np.abs(g1), g0, g1) > 0
    pos_l, pos_r = np.where(definite, sign, g0 > 0), np.where(definite, sign, g1 > 0)
    first = np.r_[True, rows[1:] != rows[:-1]]
    # g changes sign at the root of a cell whose ends differ, and where it is 0 at a cell's end.
    root, turn = pos_l != pos_r, np.r_[False, pos_r[:-1] != pos_l[1:]] & ~first
    at_row = np.concatenate([rows[root], rows[turn]])
    at = np.concatenate([_refine(rows[root], x0[root], x1[root], g0[root], g1[root], mu,
                                 weights[:, :2], s), x0[turn]])
    order = np.lexsort((at, at_row))
    at_row, at = at_row[order], at[order]
    # Each row's edges are -inf, its sign changes and +inf; the intervals between them take
    # turns being positive, from the sign at -inf, that of the row's first cell.
    count = np.bincount(at_row, minlength=len(a)) + 2
    start = np.cumsum(count) - count
    edges = np.full(len(at) + 2 * len(a), np.inf)
    edges[start] = -np.inf
    edges[np.arange(len(at)) + 2 * at_row + 1] = at
    edge_row = np.repeat(np.arange(len(a)), count)
    positive = (np.arange(len(edges)) - start[edge_row]) % 2 != pos_l[first][edge_row]
    keep = positive[:-1] & (edges[:-1] < np.inf)
    iv_row = edge_row[:-1][keep]
    sd, shift, w = s[iv_row, None], b[iv_row] * s[iv_row, None], mean_w[iv_row]
    dphi = _delta_phi(edges[:-1][keep, None] / sd + shift, edges[1:][keep, None] / sd + shift,
                      w != 0)
    out[todo] = np.bincount(iv_row, weights=np.sum(w * dphi, axis=1), minlength=len(a))
    return out


def _exposed_kernel(book, model: ShortRateModel, curve: DiscountCurve, g) -> _NettedPlan:
    """The t-forward kernel of the uncollateralized swaps of ``book``: the exposed ones."""
    return _forward_kernel(
        _netted_plan(tuple(s for s in book if not s.collateralized), model, curve, g),
        model, curve, g)


def _simulate_block(sd: np.ndarray, rng: np.random.Generator, k: int, n_paths: int):
    """Grid row ``k``'s factor on ``n_paths`` paths, ``(1, n_paths)``: its law under Q."""
    return sd[k] * rng.standard_normal((1, n_paths))


def _block_stats(values: np.ndarray):
    """The mean positive part of one row's sampled ``values`` and its standard error."""
    positive = np.maximum(values, 0.0)
    return positive.mean(), positive.std(ddof=1) / math.sqrt(len(positive))


def _sampled_epe(book, model: ShortRateModel, curve: DiscountCurve, grid, n_paths: int,
                 seed: int):
    """``(epe, se)`` of ``exposure_profile``'s EPE by plain Monte Carlo on ``n_paths`` paths.

    Each grid row in turn draws its factor from one generator of ``seed``
    (``_simulate_block``) and values the exact t-forward kernel there
    (``_revalue``); ``_block_stats`` takes the mean positive part and its
    standard error.  No proxy, control variate, antithetic twin, block or
    thread.  No run calls this: it is the tests' independent reference for
    ``positive_mean``.  The benchmark's tracer wraps its two halves by name,
    so its move to the tests waits on ROADMAP item 13.
    """
    g = _validate_grid(grid)
    kernel = _exposed_kernel(book, model, curve, g)
    sd, rng = np.sqrt(model.variance(g)), np.random.default_rng(seed)
    stats = [_block_stats(_revalue(_simulate_block(sd, rng, k, n_paths), kernel[k:k + 1])[0])
             for k in range(len(g))]
    return tuple(np.array(column) for column in zip(*stats))


def exposure_profile(book, model: ShortRateModel, curve: DiscountCurve, grid) -> ExposureProfile:
    """Exposure profile of a book of SwapSpec, its EPE taken by ``positive_mean``.

    The EPE, the forward and the undiscounted mean are those of the netted
    uncollateralized swaps; the collateralized ones carry no exposure.  The
    result's ``collateral`` is the collateralized swaps' discounted mean
    value, in closed form.
    """
    g = _validate_grid(grid)
    kernel = _exposed_kernel(book, model, curve, g)
    *_, posted = _netted_flows(tuple(s for s in book if s.collateralized), curve, g)
    return ExposureProfile(
        grid=g, epe=positive_mean(kernel.const, kernel.wa, kernel.neg_b, model.variance(g)),
        forward=kernel.forward, mean_value_undiscounted=kernel.expected, collateral=posted)
