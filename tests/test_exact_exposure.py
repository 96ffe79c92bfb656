"""The exact Gaussian exposure, ``exposure.positive_mean``, and its Monte Carlo oracle."""

import functools
import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from pathsim import simulate_paths
from test_exposure import (BOOK_CASES, FLAT, LONG_BOOK, MIXED_BOOK, POSTED, exact_epe,
                           payer_epe)
from xvakit import ShortRateModel, SwapSpec, exposure, exposure_profile, make_exposure_grid
from xvakit.cli import main
from xvakit.config import load_config
from xvakit.exposure import (_forward_kernel, _netted_plan, _revalue, _sampled_epe,
                             positive_mean)
from xvakit.report import render_csv
from xvakit.runner import run_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
BASE = load_config("base-case")
CURVE, MODEL, _ = BASE.market
VOLATILE = ShortRateModel(MODEL.mean_reversion, 0.3)
# The three presets price one book in one market; only the sweep differs.  The receiver
# turns the presets' exposed payer round, so its EPE is mostly its forward; at sigma 0.3
# the presets' book moves by tens of percent of rates.
ORACLE_CASES = {
    "presets": (BASE.swaps, MODEL, 50_000),
    "long-book": (LONG_BOOK + POSTED, MODEL, 65_536),
    "mixed": (MIXED_BOOK, MODEL, 50_000),
    "receiver": (tuple(replace(s, payer=s.collateralized) for s in BASE.swaps), MODEL, 50_000),
    "sigma-0.3": (BASE.swaps, VOLATILE, 50_000),
}
ORACLE_SEEDS = (20150106, 7)


def mpmath_positive_mean(const, wa, neg_b, v):
    """``E[k(X)+]`` of one row by ``mpmath.quad`` at 30 digits, split at the roots that
    ``mpmath.findroot`` takes from the sign changes of a 401-point scan."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    s = mp.sqrt(v)
    terms = [(w, b) for w, b in zip(wa, neg_b) if w != 0]

    def k(z):
        return const + sum(w * mp.exp(b * s * z) for w, b in terms)

    reach = 12 + max(-b for b in neg_b) * float(s)
    scan = np.linspace(-reach, reach, 401)
    signs = [mp.sign(k(z)) for z in scan]
    roots = [mp.findroot(k, (lo, hi), solver="anderson")
             for lo, hi, a, b in zip(scan[:-1], scan[1:], signs[:-1], signs[1:]) if a * b < 0]
    return float(mp.quad(lambda z: max(k(z), 0) * mp.npdf(z), [-mp.inf, *roots, mp.inf]))


def row_of(book, model, grid, k):
    kernel = _forward_kernel(_netted_plan(book, model, FLAT, grid), model, FLAT, grid)[k:k + 1]
    return kernel.const, kernel.wa, kernel.neg_b, model.variance(grid[k:k + 1])


class TestPositiveMean:
    def test_matches_the_dense_quadrature_of_the_kernel(self):
        """Every row of the long book and of the stressed one, whose 50y swap carries B up
        to 39, against the tests' 16-node Gauss-Legendre over the kernel's own roots."""
        for case in sorted(BOOK_CASES):
            book, model, grid = BOOK_CASES[case]
            profile = exposure_profile(book, model, FLAT, grid)
            reference, _ = exact_epe(book, model, grid)
            scale = 1e-13 * sum(s.notional for s in book)
            np.testing.assert_allclose(profile.epe, reference, rtol=1e-11, atol=scale)

    @pytest.mark.parametrize("sigma", [0.011, 0.03, 0.3])
    def test_matches_the_single_payer_closed_form(self, sigma):
        """One payer swap has one root, so its EPE is the brentq closed form of ``payer_epe``,
        which shares no code with the engine."""
        model = ShortRateModel(0.05, sigma)
        swap = SwapSpec(notional=100.0, fixed_rate=0.027, maturity=10.0)
        grid = make_exposure_grid(10.0)
        profile = exposure_profile((swap,), model, FLAT, grid)
        np.testing.assert_allclose(profile.epe, payer_epe(swap, model, FLAT, grid),
                                   rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("k", [1, 2, 73])
    def test_deep_rows_keep_their_digits(self, k):
        """The long book's 3- and 6-month rows are in the money only in the factor's upper
        tail (EPE 2e-6 and 7e-4 on 100 of notional), where each difference of Phi is
        taken from the upper tail; 73 is the 18.25y row."""
        grid = make_exposure_grid(30.0)
        const, wa, neg_b, v = row_of(LONG_BOOK, MODEL, grid, k)
        got = positive_mean(const, wa, neg_b, v)[0]
        want = mpmath_positive_mean(const[0], wa[0], neg_b[0], v[0])
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("k", [4, 85, 150])
    def test_rows_of_the_stressed_book_keep_their_digits(self, k):
        """Its 1-year row, whose 50y swap carries B near 39, its 21.25y row, the one whose
        mean moves most with a root, and its 37.5y row."""
        book, model, grid = BOOK_CASES["stressed"]
        const, wa, neg_b, v = row_of(book, model, grid, k)
        got = positive_mean(const, wa, neg_b, v)[0]
        assert got == pytest.approx(mpmath_positive_mean(const[0], wa[0], neg_b[0], v[0]),
                                    rel=1e-12)

    def test_a_loose_newton_tolerance_fails_them(self, monkeypatch):
        """``_refine`` stops at a step of ``2^-30`` because the mean is stationary in its
        roots; that bound is checked, not assumed.  At ``2^-10`` Newton's last step still
        lands within about ``2^-20`` of a root, so most rows keep 12 digits, but the stressed
        book's 21.25y row moves by 1.3e-11 of itself."""
        monkeypatch.setattr(exposure, "_NEWTON_TOL", 2.0 ** -10)
        with pytest.raises(AssertionError):
            for k in (4, 85, 150):
                self.test_rows_of_the_stressed_book_keep_their_digits(k)
            for k in (1, 2, 73):
                self.test_deep_rows_keep_their_digits(k)
            TestCertifiedRoots().assert_both_roots_found()

    def test_rows_with_no_spread_or_no_live_date(self):
        """At variance 0 a row is ``max(k(0), 0)``; with no live date it is ``max(c, 0)``
        at any variance; a row of zeros is 0."""
        got = positive_mean([1.0, -1.0, 2.0, -2.0, 0.0], [[-0.5], [0.5], [0.0], [0.0], [0.0]],
                            [[-1.0], [-1.0], [0.0], [0.0], [0.0]], [0.0, 0.0, 1.0, 1.0, 1.0])
        assert np.array_equal(got, [0.5, 0.0, 2.0, 0.0, 0.0])

    def test_a_term_mean_past_the_float_range_is_nan(self):
        """``e^{B^2 v / 2}`` overflows at ``B sqrt(v) = 37.7``: that row is NaN, which
        ``run`` refuses as a ``market.model.sigma`` error, and its neighbour is priced."""
        with np.errstate(over="ignore"):
            got = positive_mean([1.0, 1.0], [[-1.0], [-1.0]], [[-40.0], [-30.0]], [1.0, 1.0])
        assert np.isnan(got[0]) and np.isfinite(got[1])

    DELTA_PHI = ((-30.0, -28.0), (-9.0, -8.5), (-1.0, 2.0), (0.0, 0.0), (8.5, 9.0),
                 (28.0, 30.0), (-np.inf, -30.0), (30.0, np.inf), (-np.inf, np.inf))

    def test_delta_phi_keeps_its_relative_accuracy_in_both_tails(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 250  # 1 - Phi(28) is 1e-172
        lo, hi = (np.array(c) for c in zip(*self.DELTA_PHI))
        want = [float(mp.ncdf(b) - mp.ncdf(a)) for a, b in self.DELTA_PHI]
        np.testing.assert_allclose(exposure._delta_phi(lo, hi), want, rtol=1e-12, atol=0)

    def test_a_plain_phi_difference_fails_it(self, monkeypatch):
        monkeypatch.setattr(exposure, "_delta_phi",
                            lambda lo, hi: exposure.normal_cdf(hi) - exposure.normal_cdf(lo))
        with pytest.raises(AssertionError):
            self.test_delta_phi_keeps_its_relative_accuracy_in_both_tails()


class TestCertifiedRoots:
    """``k(x) = (e^{-x} - 1)^2 - delta`` at variance 1 is negative only on ``(-log(1 +
    sqrt(delta)), -log(1 - sqrt(delta)))``, two roots 0.02 apart at delta 1e-4, both inside
    the scan cell ``[-1, 0.25]`` of ``[-11, 9]``, at whose ends ``k`` is positive."""

    DELTA = 1e-4
    ROW = ([1.0 - DELTA], [[1.0, -2.0]], [[-2.0, -1.0]], [1.0])

    def assert_both_roots_found(self):
        const, wa, neg_b, v = self.ROW
        want = mpmath_positive_mean(const[0], wa[0], neg_b[0], v[0])
        mean = math.exp(2.0) - 2.0 * math.exp(0.5) + const[0]  # E[k], the dip kept in
        assert want > mean + 5e-7  # E[k+] = E[k] + E[k-]: the dip is worth 5.3e-7
        assert positive_mean(*self.ROW)[0] == pytest.approx(want, rel=1e-13)

    def test_two_close_roots_in_one_scan_cell_are_both_found(self):
        lo, hi = -2.0 - 9.0, 9.0
        cells = lo + (hi - lo) * np.arange(exposure._SCAN_CELLS + 1) / exposure._SCAN_CELLS
        assert np.count_nonzero(cells < 0.0) == np.count_nonzero(cells < 0.02)  # one cell
        self.assert_both_roots_found()

    def test_a_scan_only_root_finder_fails_it(self, monkeypatch):
        """With the bounds on ``|g'|`` and ``|g''|`` dropped every scan cell passes as
        root-free, so only sign changes at the scan points are found."""
        sums = exposure._sums

        def no_bounds(x, mu, weights):
            out = sums(x, mu, weights)
            out[..., 3:] = 0.0
            return out

        monkeypatch.setattr(exposure, "_sums", no_bounds)
        with pytest.raises(AssertionError):
            self.assert_both_roots_found()

    def test_a_double_root_is_refused(self):
        """At delta 0 the two roots meet, and no cell around them certifies."""
        const, wa, neg_b, v = self.ROW
        with pytest.raises(RuntimeError, match="not certified within 40 halvings"):
            positive_mean([1.0], wa, neg_b, v)

    def test_an_uncertified_row_exits_4(self, monkeypatch, capsys):
        """One scan cell and no halving: no row with a root certifies."""
        monkeypatch.setattr(exposure, "_SCAN_CELLS", 1)
        monkeypatch.setattr(exposure, "_SPLITS", 0)
        assert main(["run", "base-case"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal error: RuntimeError: exact exposure: ")


def black_positive_mean(c, w, b, v):
    """``E[(c + w e^{-b X})+]``, ``X ~ N(0, v)``, by hand: ``Y = e^{-b X}`` is lognormal
    with log-s.d. ``s = b sqrt(v)`` and mean ``e^{s^2 / 2}``, so the row is a constant
    plus a multiple of ``Y``, a call on ``Y`` or a put on it, or 0 (Black, 1976)."""
    s = b * math.sqrt(v)
    mean_y = math.exp(0.5 * s * s)
    if c >= 0 and w >= 0:
        return c + w * mean_y
    if c <= 0 and w <= 0:
        return 0.0
    strike = -c / w
    d1 = (-math.log(strike) + s * s) / s
    d2 = d1 - s
    if w > 0:
        return w * (mean_y * ndtr(d1) - strike * ndtr(d2))
    return -w * (strike * ndtr(-d2) - mean_y * ndtr(-d1))


def two_term_positive_mean(a, b1, c, b2, v, sign):
    """``E[(sign (a e^{-b1 X} - c e^{-b2 X}))+]``, ``X ~ N(0, v)``, ``a, c > 0`` and ``b1 >
    b2``, by hand: the difference is positive below its one root ``x* = log(a / c) / (b1 -
    b2)``, and ``E[e^{-b X} 1(X < x*)] = e^{b^2 v / 2} Phi(x* / s + b s)``, ``s = sqrt v``."""
    s = math.sqrt(v)
    root = math.log(a / c) / (b1 - b2)
    below = [w * math.exp(0.5 * b * b * v) * ndtr(root / s + b * s) for w, b in ((a, b1), (c, b2))]
    if sign > 0:
        return below[0] - below[1]
    return (c * math.exp(0.5 * b2 * b2 * v) - below[1]) - (a * math.exp(0.5 * b1 * b1 * v)
                                                          - below[0])


class TestPositiveMeanClosedForms:
    """Rows small enough to price by hand, with code that shares nothing with the engine."""

    @pytest.mark.parametrize("spread", [0.05, 1.0, 4.0])  # b sqrt(v), the log-s.d. of Y
    @pytest.mark.parametrize("c, w", [(0.7, 1.3), (-1.1, 1.0), (1.1, -1.0), (-0.4, -2.0)],
                             ids=["both-positive", "call", "put", "both-negative"])
    def test_one_term_row_is_black_formula(self, c, w, spread):
        b = 2.5
        v = (spread / b) ** 2
        got = positive_mean([c], [[w]], [[-b]], [v])[0]
        want = black_positive_mean(c, w, b, v)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        if c * w < 0:  # an option, so the row has a root for the engine to find
            assert 0.0 < got < max(c, 0.0) + max(w, 0.0) * math.exp(0.5 * spread * spread)

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive-below", "positive-above"])
    @pytest.mark.parametrize("a, b1, c, b2, v", [
        (1.0, 9.0, 0.98, 4.5, 1e-4),  # two bonds of a 10y book at its 1y row
        (2.0, 1.0, 1.0, 0.0, 0.5),  # a bond against cash
        (1.0, 30.0, 1.5, 2.0, 4e-3),  # a 50y bond against a 2y one
        (1.0, 0.25, 1.005, 0.0, 1e-2)])  # a bond a quarter out against cash: a flat root
    def test_two_term_row_with_one_root(self, a, b1, c, b2, v, sign):
        got = positive_mean([0.0], [[sign * a, -sign * c]], [[-b1, -b2]], [v])[0]
        want = two_term_positive_mean(a, b1, c, b2, v, sign)
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-11, abs=1e-14)


def long_kernel():
    """The t-forward kernel of the long book on its grid, and each row's variance."""
    grid = make_exposure_grid(30.0)
    kernel = _forward_kernel(_netted_plan(LONG_BOOK, MODEL, CURVE, grid), MODEL, CURVE, grid)
    return kernel, MODEL.variance(grid)


def assert_same_epe(got, want, gross=400.0):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-13 * gross)


class TestPositiveMeanInvariances:
    """What ``E[k(X)+]`` owes to no formula: parity, scale and the order of the rows."""

    PARITY_BOOKS = {
        "presets": (tuple(s for s in BASE.swaps if not s.collateralized), 10.0),
        "long-book": (LONG_BOOK, 30.0),
        "mixed": (MIXED_BOOK, 7.0),
        "stressed": (BOOK_CASES["stressed"][0], 50.0),
    }

    @pytest.mark.parametrize("sigma", [0.011, 0.03, 0.1, 0.3])
    @pytest.mark.parametrize("case", sorted(PARITY_BOOKS))
    def test_positive_less_negative_part_is_the_forward(self, case, sigma):
        """``E[k+] - E[(-k)+] = E[k]``, and the t-forward kernel's mean is ``forward``,
        today's value of the remaining flows, which reads the curve alone."""
        book, horizon = self.PARITY_BOOKS[case]
        model, grid = ShortRateModel(MODEL.mean_reversion, sigma), make_exposure_grid(horizon)
        plan = _netted_plan(book, model, CURVE, grid)
        k, v = _forward_kernel(plan, model, CURVE, grid), model.variance(grid)
        positive = positive_mean(k.const, k.wa, k.neg_b, v)
        negative = positive_mean(-k.const, -k.wa, k.neg_b, v)
        assert np.all(positive >= 0.0) and np.all(negative >= 0.0)
        assert_same_epe(positive - negative, plan.forward, sum(s.notional for s in book))
        assert np.count_nonzero((positive > 0) & (negative > 0)) > len(grid) // 2

    @pytest.mark.parametrize("scale", [1e-6, 3.0, 1e6])
    def test_scaling_the_row_scales_its_mean(self, scale):
        k, v = long_kernel()
        assert_same_epe(positive_mean(scale * k.const, scale * k.wa, k.neg_b, v) / scale,
                        positive_mean(k.const, k.wa, k.neg_b, v))

    @pytest.mark.parametrize("unit", [1e-2, 1e2])
    def test_the_factors_unit_does_not_matter(self, unit):
        """``B X`` is the same variable with ``B`` times ``unit`` and ``X`` over it."""
        k, v = long_kernel()
        assert_same_epe(positive_mean(k.const, k.wa, unit * k.neg_b, v / unit**2),
                        positive_mean(k.const, k.wa, k.neg_b, v))

    @pytest.mark.parametrize("rows", [1, 7, 121])
    def test_each_row_is_priced_alone(self, monkeypatch, rows):
        """A row's mean is the same whatever the size of the scan's blocks, the only thing
        ``_EXACT_ROWS`` sizes: a block drops only the dates paid on all its rows."""
        k, v = long_kernel()
        want = positive_mean(k.const, k.wa, k.neg_b, v)
        monkeypatch.setattr(exposure, "_EXACT_ROWS", rows)
        assert_same_epe(positive_mean(k.const, k.wa, k.neg_b, v), want)

    def test_the_order_of_the_rows_does_not_matter(self):
        k, v = long_kernel()
        backwards = positive_mean(k.const[::-1], k.wa[::-1], k.neg_b[::-1], v[::-1])
        assert_same_epe(backwards[::-1], positive_mean(k.const, k.wa, k.neg_b, v))


def counted(monkeypatch, name, size=lambda *args: 1):
    """``exposure.<name>`` wrapped so that each call appends ``size(*args)`` to the list
    returned."""
    calls, fn = [], getattr(exposure, name)

    def wrapper(*args):
        calls.append(size(*args))
        return fn(*args)

    monkeypatch.setattr(exposure, name, wrapper)
    return calls


def per_chunk(monkeypatch):
    """Plant the loop over chunks of ``_EXACT_ROWS`` rows that ``positive_mean`` once was:
    one certifier and one ``_refine`` per chunk."""
    one_pass = exposure.positive_mean

    def chunked(*args):
        return np.concatenate([one_pass(*(a[k0:k0 + exposure._EXACT_ROWS] for a in args))
                               for k0 in range(0, len(args[0]), exposure._EXACT_ROWS)])

    monkeypatch.setattr(exposure, "positive_mean", chunked)


def phi_at_every_end(lo, hi, live=True):
    """The planted ``_delta_phi`` that takes ``Phi`` at every end of every term."""
    p, q = exposure.normal_cdf(-np.abs(lo)), exposure.normal_cdf(-np.abs(hi))
    return np.where(hi <= 0, q - p, np.where(lo >= 0, p - q, 1.0 - p - q))


class TestOnePass:
    """The work of one ``positive_mean`` call on the long kernel: one ``_refine`` over every
    row's roots, and ``Phi`` only at a finite end of an interval where ``k > 0``, once per
    term of non-zero weight."""

    @pytest.mark.parametrize("rows", [1, 7, 32, 121])
    def test_one_refine_call_for_the_whole_grid(self, monkeypatch, rows):
        k, v = long_kernel()
        monkeypatch.setattr(exposure, "_EXACT_ROWS", rows)
        calls = counted(monkeypatch, "_refine")
        exposure.positive_mean(k.const, k.wa, k.neg_b, v)
        assert calls == [1]

    def test_a_per_chunk_loop_fails_it(self, monkeypatch):
        per_chunk(monkeypatch)
        with pytest.raises(AssertionError):
            self.test_one_refine_call_for_the_whole_grid(monkeypatch, 32)

    def test_phi_only_at_finite_ends_of_live_terms(self, monkeypatch):
        """Each root is the one finite end of an interval where ``k > 0``, so the entries
        are at most the roots times the terms of non-zero weight, row by row.  The roots
        are counted as sign changes of the kernel on 4001 points that cover the scan and 3
        s.d. more on each side."""
        k, v = long_kernel()
        s = np.sqrt(v)
        reach = (12.0 + np.max(-k.neg_b, axis=1) * s) * s
        values = _revalue(reach[:, None] * np.linspace(-1.0, 1.0, 4001), k)
        roots = np.count_nonzero(np.diff(np.sign(values), axis=1), axis=1)
        terms = np.count_nonzero(np.column_stack([k.const, k.wa]), axis=1)
        entries = counted(monkeypatch, "normal_cdf", np.size)
        exposure.positive_mean(k.const, k.wa, k.neg_b, v)
        assert 0 < sum(entries) <= roots @ terms

    def test_a_phi_at_every_end_fails_it(self, monkeypatch):
        monkeypatch.setattr(exposure, "_delta_phi", phi_at_every_end)
        with pytest.raises(AssertionError):
            self.test_phi_only_at_finite_ends_of_live_terms(monkeypatch)


@functools.lru_cache(maxsize=None)
def sampled(case, seed):
    """``(grid, epe, se)`` of ``_sampled_epe`` on the case's book at its path count."""
    book, model, paths = ORACLE_CASES[case]
    grid = make_exposure_grid(max(s.maturity for s in book))
    return (grid, *_sampled_epe(book, model, CURVE, grid, paths, seed))


# (case, seed, grid time): rows where the plain sampler's s.e. misreports its error.  Each
# is in the money on a few dozen sampled paths at most: the 3-month row's EPE is 1.95e-6
# and no path finds it (mean and s.e. 0); the 6-month row reads z = -4.1 at seed 7.
MC_DEFECTS = {
    ("long-book", 20150106, 0.25): "the 3-month row: EPE 1.95e-6, sampled 0 with s.e. 0",
    ("long-book", 7, 0.25): "the 3-month row: EPE 1.95e-6, sampled 0 with s.e. 0",
    ("long-book", 7, 0.5): "the 6-month row: z -4.1 on a skewed handful of paths",
}


def assert_sampled_within_4_se(case, seed, times=None):
    """``_sampled_epe`` within 4 of its s.e. of ``exposure_profile``'s EPE (and 1e-12 of
    the notional) at every row, or at the grid ``times`` given, less the ``MC_DEFECTS``."""
    book, model, _ = ORACLE_CASES[case]
    grid, epe, se = sampled(case, seed)
    exact = exposure_profile(book, model, CURVE, grid)
    known = [t for (c, s, t) in MC_DEFECTS if (c, s) == (case, seed)]
    rows = ~np.isin(grid, known) if times is None else np.isin(grid, times)
    error = np.abs(epe - exact.epe)[rows]
    bound = 4.0 * se[rows] + 1e-12 * sum(s.notional for s in book)
    assert np.all(error <= bound), (grid[rows][error > bound], np.max(error / bound))


class TestMonteCarloOracle:
    """A plain Monte Carlo of the exact kernel as ``positive_mean``'s independent check.
    Past the long book's 6-month row, |z| = |sampled - exact| / s.e. is at most 2.66 over
    the books in the presets' market at seeds 20150106 and 7, and 3.04 at sigma 0.3."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_mc_within_4_se_of_the_exact_epe(self, case, seed):
        assert_sampled_within_4_se(case, seed)

    @pytest.mark.parametrize("defect", ["payment date shifted", "convexity dropped",
                                        "m_t dropped"])
    def test_a_planted_defect_fails_it(self, monkeypatch, defect):
        """Each defect is planted after the sampled profile is taken, so it reaches only
        the exact engine's kernel."""
        sampled("long-book", ORACLE_SEEDS[0])
        payment_times = SwapSpec.payment_times

        def principal_late(spec):
            times = payment_times(spec)
            times[-1] += 0.25
            return times

        owner, name, planted = {
            "payment date shifted": (SwapSpec, "payment_times", principal_late),
            "convexity dropped": (ShortRateModel, "_convexity", lambda model, t, dt: 0.0 * dt),
            "m_t dropped": (ShortRateModel, "forward_drift",
                            lambda model, t: np.zeros_like(np.asarray(t, dtype=float))),
        }[defect]
        monkeypatch.setattr(owner, name, planted)
        with pytest.raises(AssertionError):
            assert_sampled_within_4_se("long-book", ORACLE_SEEDS[0])

    @pytest.mark.parametrize("case, seed, t", [
        pytest.param(*key, marks=pytest.mark.xfail(strict=True, reason=reason))
        for key, reason in MC_DEFECTS.items()])
    def test_known_monte_carlo_defects(self, case, seed, t):
        """Each known miss stays in the oracle as a strict expected failure."""
        assert_sampled_within_4_se(case, seed, times=[t])


class TestSampledEpe:
    """The oracle itself: its estimate and standard error are the plain sample statistics
    of the positive part, and that error is the spread of the estimate over seeds."""

    BOOK = MIXED_BOOK
    GRID = make_exposure_grid(7.0)

    def test_estimate_and_error_are_the_sample_mean_and_std_over_root_n(self):
        """Recomputed from ``pathsim.simulate_paths``, which draws the same rows of the
        same generator, through the whole-grid kernel."""
        n = 1_000
        epe, se = _sampled_epe(self.BOOK, MODEL, CURVE, self.GRID, n, 11)
        paths = simulate_paths(MODEL, CURVE, self.GRID, n, 11)
        kernel = _forward_kernel(_netted_plan(self.BOOK, MODEL, CURVE, self.GRID), MODEL,
                                 CURVE, self.GRID)
        positive = np.maximum(_revalue(paths.factor.T, kernel), 0.0)
        np.testing.assert_allclose(epe, positive.mean(axis=1), rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(se, positive.std(axis=1, ddof=1) / math.sqrt(n),
                                   rtol=1e-10, atol=1e-15)
        assert np.all(se[1:-1] > 0.0)

    def test_error_falls_as_one_over_root_paths(self):
        _, coarse = _sampled_epe(self.BOOK, MODEL, CURVE, self.GRID, 2_000, 3)
        _, fine = _sampled_epe(self.BOOK, MODEL, CURVE, self.GRID, 32_000, 3)
        ratio = fine[1:-1] / coarse[1:-1]
        np.testing.assert_allclose(ratio, 0.25, rtol=0.15)

    def test_rows_with_no_spread_are_exact(self):
        """Today the factor is 0 on every path, and at the book's end nothing is live; the
        receiver starts in the money."""
        book, model, _ = ORACLE_CASES["receiver"]
        grid = make_exposure_grid(10.0)
        epe, se = _sampled_epe(book, model, CURVE, grid, 1_000, 5)
        exact = exposure_profile(book, model, CURVE, grid).epe
        assert epe[0] == pytest.approx(exact[0], rel=1e-14) and exact[0] > 0.0
        assert se[0] <= 1e-14 * epe[0]
        assert (epe[-1], se[-1]) == (0.0, 0.0)

    def test_a_seed_reproduces_its_estimate_and_another_does_not(self):
        a, b, c = (_sampled_epe(self.BOOK, MODEL, CURVE, self.GRID, 1_000, seed)
                   for seed in (5, 5, 6))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[0], c[0])

    @pytest.mark.parametrize("case", ["mixed", "presets"])
    def test_reported_error_matches_the_spread_over_seeds(self, case):
        """Over 48 seeds at 2,000 paths, the variance of the estimate against the mean
        squared reported error, pooled over the rows that have one: each row's draws are
        its own, so the pooled ratio is within a few hundredths of 1."""
        book, model, _ = ORACLE_CASES[case]
        grid = make_exposure_grid(max(s.maturity for s in book))
        runs = [_sampled_epe(book, model, CURVE, grid, 2_000, seed) for seed in range(48)]
        epe, se = (np.array(column) for column in zip(*runs))
        rows = se.min(axis=0) > 0.0
        ratio = np.mean(epe[:, rows].var(axis=0, ddof=1) / np.mean(se[:, rows] ** 2, axis=0))
        assert 0.85 < ratio < 1.15, ratio


class TestEngineKey:
    @pytest.mark.parametrize("value", ["exact", "mc", "fast", 1, None])
    def test_engine_is_an_unknown_field(self, tmp_path, capsys, value):
        """There is one way to take the exposure, so any ``engine`` is refused by name."""
        raw = json.loads((CONFIGS / "base_case.json").read_text())
        raw.update(market=json.loads((CONFIGS / "market_gbp_flat.json").read_text()),
                   engine=value)
        path = tmp_path / "engine.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr() == ("", "engine: unknown field\n")

    def test_a_run_overflow_under_exact_names_sigma(self, tmp_path, capsys):
        raw = json.loads((CONFIGS / "base_case.json").read_text())
        raw["market"] = json.loads((CONFIGS / "market_gbp_flat.json").read_text())
        raw["market"]["model"]["sigma"] = 5.0
        path = tmp_path / "volatile.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path)]) == 1
        assert capsys.readouterr().err.startswith("market.model.sigma: 5.0 ")


def fastest(fn, bound, seconds=5.0):
    """The shortest wall time of ``fn`` over repeated calls, stopping at the first one
    under ``bound`` or once ``seconds`` have passed: on a shared host a neighbour can slow
    every call for a second or so, which the minimum over a longer window sees past."""
    best, deadline = math.inf, time.perf_counter() + seconds
    while best >= bound and time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_an_exact_op_is_fast():
    """In-process: the benchmark's long book (48 rows, 121 grid points, rendered as CSV)
    under 0.04 s, and base-case under 0.05 s.  The Monte Carlo op took about 0.15 s on the
    long book at 65,536 paths on 2 workers."""
    long_book = replace(BASE, swaps=LONG_BOOK + POSTED, psi=(0.0, 0.5, 1.0),
                        price_of_risk_xi=(-0.5, 0.5))
    assert fastest(lambda: render_csv(run_config(long_book)), 0.04) < 0.04
    assert fastest(lambda: render_csv(run_config(BASE)), 0.05) < 0.05
