"""Finite-difference solver vs closed forms and the quadrature oracle (``xva.breakdown``)."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import LinAlgError, solve_banded

from xvakit import (
    Grid,
    GridResolutionWarning,
    PdeProblem,
    black_scholes_value,
    density_expectations,
    quadrature_oracle,
    replication_state,
    solve_vhat,
    verify_decomposition,
)
from xvakit import pde
from xvakit.cli import _write_surfaces, main

FULL_PROBLEM = PdeProblem(
    spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
    issuer_hazard=0.0167, counterparty_hazard=0.04,
    hedge_fraction=0.25, price_of_risk=0.3,
    capital_funding_fraction=0.5, cost_of_capital=0.10,
    tax_rate=0.21, collateral_spread=0.002, collateral_fraction=0.2,
    capital_factor=0.4, capital_relief_factor=0.25,
)

FORWARD_PROBLEM = replace(FULL_PROBLEM, payoff="forward", strike=110.0)
PUT_PROBLEM = replace(FULL_PROBLEM, payoff="put", spot=90.0)

CVA_ONLY_CALL = PdeProblem(spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
                           counterparty_hazard=0.03)


def brute_force_unilateral_cva(problem, n_time=1500, n_space=3001):
    """Plain 2-d integration over time and the lognormal density.

    Written independently of the solver and the oracle: Simpson in both
    directions, density evaluated explicitly.
    """
    p = problem
    lam = p.effective_counterparty_hazard
    drift = p.carry - 0.5 * p.sigma**2
    u = np.linspace(1e-6, p.maturity - 1e-9, n_time)
    z = np.linspace(-8.5, 8.5, n_space)
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    inner = np.empty_like(u)
    for i, ui in enumerate(u):
        s = p.spot * np.exp(drift * ui + p.sigma * math.sqrt(ui) * z)
        v = black_scholes_value(p, s, p.maturity - ui)
        inner[i] = simpson(np.maximum(v, 0.0) * density, x=z)
    lgd = 1.0 - p.counterparty_recovery
    integrand = lam * np.exp(-(p.rate + p.issuer_hazard + lam) * u) * inner
    return -lgd * simpson(integrand, x=u)


class TestSolver:
    def test_black_scholes_reduction(self):
        problem = PdeProblem(spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02)
        solution = solve_vhat(problem, Grid(400, 400))
        price = solution.value_at_spot("economic")
        analytic = black_scholes_value(problem, 100.0, 5.0)
        assert price == pytest.approx(analytic, rel=1e-4)
        assert solution.value_at_spot("adjustment") == pytest.approx(0.0, abs=1e-10)

    def test_put_reduction(self):
        problem = PdeProblem(spot=90.0, strike=100.0, maturity=3.0, sigma=0.3, rate=0.02,
                             payoff="put")
        solution = solve_vhat(problem, Grid(400, 400))
        analytic = black_scholes_value(problem, 90.0, 3.0)
        assert solution.value_at_spot("economic") == pytest.approx(analytic, rel=1e-4)

    def test_put_pays_below_the_strike_and_keeps_parity(self):
        """The put pays ``K - S`` below the strike, and its closed form less the call's
        is ``K e^{-r t} - S e^{(b-r) t}``, written out here rather than read from the
        payoff table that both solver and closed form share."""
        p, t = replace(PUT_PROBLEM, repo_rate=0.05, dividend_yield=0.01), 3.0
        s = np.array([50.0, 90.0, 150.0])
        assert np.array_equal(p.terminal_payoff(s), [50.0, 10.0, 0.0])
        put_less_call = black_scholes_value(p, s, t) - black_scholes_value(
            replace(p, payoff="call"), s, t)
        want = p.strike * math.exp(-p.rate * t) - s * math.exp((p.carry - p.rate) * t)
        assert put_less_call == pytest.approx(want, rel=1e-12)

    def test_tax_off_equals_tax_terms_removed(self):
        base = replace(FULL_PROBLEM, tax_rate=0.0)
        toggled = replace(FULL_PROBLEM, tax_rate=0.0, accruals_taxed=True)
        a = solve_vhat(base, Grid(100, 100))
        b = solve_vhat(toggled, Grid(100, 100))
        assert np.array_equal(a.economic, b.economic)

    def test_comparison_principle_in_counterparty_hazard(self):
        lo = PdeProblem(spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
                        counterparty_hazard=0.02)
        hi = replace(lo, counterparty_hazard=0.05)
        sol_lo = solve_vhat(lo, Grid(200, 200))
        sol_hi = solve_vhat(hi, Grid(200, 200))
        assert np.all(sol_hi.economic <= sol_lo.economic + 1e-10)

    def test_coarse_grid_warns(self):
        problem = PdeProblem(spot=100.0, strike=100.0, maturity=1.0, sigma=0.2, rate=0.02)
        with pytest.warns(GridResolutionWarning):
            solve_vhat(problem, Grid(n_space=10, n_time=10))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid(n_space=101, n_time=100)
        with pytest.raises(ValueError):
            Grid(n_space=4, n_time=100)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            replace(FULL_PROBLEM, sigma=0.0)
        with pytest.raises(ValueError):
            replace(FULL_PROBLEM, payoff="digital")
        with pytest.raises(ValueError):
            replace(FULL_PROBLEM, capital_relief_factor=0.9)
        with pytest.raises(ValueError):
            replace(FULL_PROBLEM, hedge_fraction=1.4)
        with pytest.raises(ValueError):
            replace(FULL_PROBLEM, hedge_fraction=-0.1)
        with pytest.raises(ValueError):  # a negative physical hazard (1 - xi) lambda
            replace(FULL_PROBLEM, hedge_fraction=0.5, price_of_risk=1.5)


class TestOracle:
    def test_all_zero_when_nothing_on(self):
        problem = PdeProblem(spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.0)
        oracle = quadrature_oracle(problem)
        for name in ("cva", "dva", "fca", "colva", "kva", "tva"):
            assert getattr(oracle, name)[0] == pytest.approx(0.0, abs=1e-300)

    def test_cva_only_call_closed_form(self):
        """The discounted exposure of a call is the constant C0, so the trapezoid is
        exact and the midpoint survival weights sum as a geometric series."""
        oracle = quadrature_oracle(CVA_ONLY_CALL)
        c0 = black_scholes_value(CVA_ONLY_CALL, 100.0, 5.0)
        lam_h = 0.03 * 5.0 / 400
        exact = (-(1.0 - 0.4) * c0 * lam_h * math.exp(-lam_h / 2) * (1.0 - math.exp(-0.03 * 5.0))
                 / (1.0 - math.exp(-lam_h)))
        assert oracle.cva[0] == pytest.approx(exact, rel=1e-10)
        assert oracle.dva[0] == 0.0 and oracle.tva[0] == 0.0

    def test_cva_only_call_error_falls_fourfold_per_doubling(self, monkeypatch):
        c0 = black_scholes_value(CVA_ONLY_CALL, 100.0, 5.0)
        continuous = -(1.0 - 0.4) * c0 * (1.0 - math.exp(-0.03 * 5.0))
        errors = []
        for n in (101, 201, 401):
            monkeypatch.setattr(pde, "ORACLE_POINTS", n)
            errors.append(abs(quadrature_oracle(CVA_ONLY_CALL).cva[0] - continuous))
        assert errors[0] / errors[1] == pytest.approx(4.0, rel=0.01)
        assert errors[1] / errors[2] == pytest.approx(4.0, rel=0.01)

    def test_cva_only_call_vs_brute_force(self):
        oracle = quadrature_oracle(CVA_ONLY_CALL)
        brute = brute_force_unilateral_cva(CVA_ONLY_CALL)
        assert oracle.cva[0] == pytest.approx(brute, rel=1e-6)

    def test_tax_capital_ratio_at_full_hedge(self):
        problem = PdeProblem(
            spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
            issuer_hazard=0.0167, counterparty_hazard=0.04,
            hedge_fraction=1.0, capital_funding_fraction=0.0,
            cost_of_capital=0.10, tax_rate=0.21,
            capital_factor=0.4, capital_relief_factor=0.0,
        )
        oracle = quadrature_oracle(problem)
        assert oracle.kva[0] < 0.0
        assert oracle.tva[0] == pytest.approx(0.21 * oracle.kva[0], rel=1e-10)

    def test_forward_payoff_exercises_negative_exposure(self):
        oracle = quadrature_oracle(FORWARD_PROBLEM)
        assert oracle.dva[0] > 0.0
        assert oracle.cva[0] < 0.0

    @pytest.mark.parametrize("problem", [
        FULL_PROBLEM,
        PUT_PROBLEM,
        FORWARD_PROBLEM,
        replace(FORWARD_PROBLEM, repo_rate=0.05, dividend_yield=0.01),
    ], ids=["call", "put", "forward", "forward_carry"])
    def test_density_expectations_match_gauss_legendre(self, problem):
        times = np.linspace(0.0, problem.maturity, 401)
        got = density_expectations(problem, times)
        want = per_node_density_expectations(problem, times, 96)
        scale = np.max(np.abs(want[1]))
        for name, g, w in zip(("E[(V-X)+]", "E[V]"), got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * scale, name

    @pytest.mark.parametrize("problem", [FULL_PROBLEM, PUT_PROBLEM], ids=["call", "put"])
    def test_call_and_put_forward_is_their_epe(self, monkeypatch, problem):
        """An option is never negative: the oracle's forward profile is its EPE bit
        for bit, so its ENE and DVA are exactly 0."""
        inputs, priced = [], pde.breakdown
        monkeypatch.setattr(pde, "breakdown", lambda x: inputs.append(x) or priced(x))
        oracle = quadrature_oracle(problem)
        assert np.array_equal(inputs[0].exposure.forward, inputs[0].exposure.epe)
        assert oracle.dva[0] == 0.0

    def test_components_sum_to_total(self):
        oracle = quadrature_oracle(FULL_PROBLEM)
        assert oracle.total[0] == pytest.approx(
            (oracle.cva + oracle.dva + oracle.fca + oracle.colva + oracle.kva + oracle.tva)[0],
            rel=1e-15,
        )


class TestVerification:
    def test_full_problem_passes(self):
        report = verify_decomposition(FULL_PROBLEM, Grid(400, 400))
        assert report.passed
        assert report.rel_error <= 5e-3
        assert report.tax_rel_error <= 5e-3

    def test_forward_problem_passes(self):
        report = verify_decomposition(FORWARD_PROBLEM, Grid(400, 400))
        assert report.passed

    def test_mismatched_price_of_risk_detected(self):
        solution = solve_vhat(FULL_PROBLEM, Grid(200, 200))
        mismatched = quadrature_oracle(replace(FULL_PROBLEM, price_of_risk=-0.5)).total[0]
        rel = abs(solution.value_at_spot() - mismatched) / abs(mismatched)
        assert rel > 5e-3

    def test_refinement_improves_quadratically(self):
        oracle = quadrature_oracle(FULL_PROBLEM).total[0]
        errors = [
            abs(solve_vhat(FULL_PROBLEM, Grid(n, n)).value_at_spot() - oracle)
            for n in (100, 200)
        ]
        assert errors[0] / errors[1] > 2.8  # order >= 1.5 on a coarse pair


class TestReplication:
    def test_full_hedge_has_no_counterparty_error(self):
        problem = replace(FULL_PROBLEM, hedge_fraction=1.0)
        solution = solve_vhat(problem, Grid(100, 100))
        state = replication_state(problem, solution)
        assert np.array_equal(state.counterparty_error, np.zeros_like(state.counterparty_error))
        assert np.array_equal(state.compensator, np.zeros_like(state.compensator))

    def test_delta_hedges_against_rising_value(self):
        solution = solve_vhat(FULL_PROBLEM, Grid(200, 200))
        state = replication_state(FULL_PROBLEM, solution)
        # call-like economic value rises in S, so the stock hedge is short
        assert np.all(state.stock_delta[0] <= 1e-10)


class TestSinglePass:
    @pytest.mark.parametrize("problem", [
        FULL_PROBLEM,
        PUT_PROBLEM,
        FORWARD_PROBLEM,
        replace(FULL_PROBLEM, accruals_taxed=True),
        replace(FULL_PROBLEM, compensator_taxed=True),
    ], ids=["call", "put", "forward", "accruals_taxed", "compensator_taxed"])
    def test_untaxed_column_is_the_tax_off_solve(self, problem):
        joint = solve_vhat(problem, Grid(100, 100))
        tax_off = solve_vhat(replace(problem, tax_rate=0.0), Grid(100, 100))
        assert np.array_equal(joint.untaxed, tax_off.economic)
        assert np.array_equal(joint.risk_free, tax_off.risk_free)
        assert not np.array_equal(joint.untaxed, joint.economic)

    def test_surface_file_matches_one_string_writer(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridResolutionWarning)
            solution = solve_vhat(FULL_PROBLEM, Grid(20, 20))
        streamed, joined = tmp_path / "streamed.csv", tmp_path / "joined.csv"
        _write_surfaces(streamed, solution)
        write_surfaces_joined(joined, solution)
        assert streamed.read_bytes() == joined.read_bytes()
        assert len(streamed.read_text().splitlines()) == 1 + 21 * 21

    @pytest.mark.parametrize("problem", [FULL_PROBLEM, PUT_PROBLEM, FORWARD_PROBLEM],
                             ids=["call", "put", "forward"])
    def test_march_matches_a_banded_solve_per_step(self, monkeypatch, problem):
        """Each march of ``solve_vhat``, the Rannacher steps included, against one
        ``solve_banded`` per step on the same inputs: bit for bit."""
        marches, march = [], pde._march

        def recorded(*args):
            out = march(*args)
            marches.append((args, out))
            return out

        monkeypatch.setattr(pde, "_march", recorded)
        solve_vhat(problem, Grid(100, 100))
        assert len(marches) == 2
        for args, out in marches:
            assert np.array_equal(out, march_by_banded_solves(*args))

    def test_march_refuses_a_singular_matrix(self):
        # The first, fully implicit step's matrix 1 - dt diag is 0.
        grid, dt = Grid(8, 4), 0.5
        operator = (np.zeros(7), np.full(7, 1.0 / dt), np.zeros(7))
        with pytest.raises(LinAlgError, match="singular"):
            pde._march(operator, np.ones((1, 9)), np.zeros((1, 5, 7)), dt, grid, lambda v: None)

    def test_unwritable_surface_file_exits_3(self, tmp_path, capsys):
        root = Path(__file__).resolve().parent.parent
        raw = json.loads((root / "configs" / "pde_verify.json").read_text())
        raw["market"] = json.loads((root / "configs" / "market_gbp_flat.json").read_text())
        raw["pde"].update(nSpace=100, nTime=100)
        config = tmp_path / "verify.json"
        config.write_text(json.dumps(raw))
        out = tmp_path / "missing" / "surface.csv"
        assert main(["pde-verify", str(config), "--out", str(out)]) == 3
        assert "cannot write" in capsys.readouterr().err


def per_node_density_expectations(problem, times, n_density):
    """The oracle's profiles by quadrature: at each horizon, Gauss-Legendre over the
    lognormal density, ``n_density`` nodes per piece, split at the kink."""
    p = problem
    drift = p.carry - 0.5 * p.sigma**2
    out = np.empty((2, len(times)))
    for i, u in enumerate(times):
        if u <= 0.0:
            v = np.atleast_1d(black_scholes_value(p, p.spot, p.maturity))
            w = np.ones(1)
        else:
            vol = p.sigma * np.sqrt(u)
            tau = p.maturity - u
            s_kink = p.strike * np.exp(-p.carry * tau) if p.payoff == "forward" else p.strike
            z_kink = (np.log(s_kink / p.spot) - drift * u) / vol
            breaks = [-8.5] + ([float(z_kink)] if -8.5 < z_kink < 8.5 else []) + [8.5]
            gl_x, gl_w = np.polynomial.legendre.leggauss(n_density)
            z = np.concatenate([0.5 * (b - a) * gl_x + 0.5 * (a + b)
                                for a, b in zip(breaks, breaks[1:])])
            w = np.concatenate([0.5 * (b - a) * gl_w for a, b in zip(breaks, breaks[1:])])
            w = w * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
            v = black_scholes_value(p, p.spot * np.exp(drift * u + vol * z), tau)
        vx = (1.0 - p.collateral_fraction) * v
        out[:, i] = np.dot(w, np.maximum(vx, 0.0)), np.dot(w, v)
    return out


def march_by_banded_solves(operator, terminal, source, dt, grid, fold):
    """``pde._march`` as one banded solve per step, the matrix rebuilt at each."""
    lower, diag, upper = operator
    out = np.empty((terminal.shape[0], grid.n_time + 1, terminal.shape[1]))
    out[:, -1] = terminal
    for step in range(grid.n_time - 1, -1, -1):
        theta = 1.0 if (grid.n_time - 1 - step) < pde.RANNACHER_STEPS else 0.5
        v = out[:, step + 1, 1:-1]
        applied = diag * v
        applied[:, 1:] += lower[1:] * v[:, :-1]
        applied[:, :-1] += upper[:-1] * v[:, 1:]
        rhs = v + (1.0 - theta) * dt * applied + dt * (
            theta * source[:, step] + (1.0 - theta) * source[:, step + 1])
        banded = np.zeros((3, len(diag)))
        banded[0, 1:] = -theta * dt * upper[:-1]
        banded[1, :] = 1.0 - theta * dt * diag
        banded[2, :-1] = -theta * dt * lower[1:]
        out[:, step, 1:-1] = solve_banded((1, 1), banded, rhs.T).T
        fold(out[:, step])
    return out


def write_surfaces_joined(path, solution):
    """The surface file built as one string of f-string rows."""
    s_nodes = solution.s_nodes.tolist()
    lines = ["t,S,economic,adjustment"]
    for t, economic, adjustment in zip(solution.t_nodes.tolist(), solution.economic.tolist(),
                                       solution.adjustment.tolist()):
        for s, e, a in zip(s_nodes, economic, adjustment):
            lines.append(f"{t!r},{s!r},{e!r},{a!r}")
    path.write_text("\n".join(lines) + "\n")
