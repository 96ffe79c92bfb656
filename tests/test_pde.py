"""Finite-difference solver vs closed forms and the quadrature oracle."""

import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

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


class TestOracle:
    def test_all_zero_when_nothing_on(self):
        problem = PdeProblem(spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.0)
        oracle = quadrature_oracle(problem)
        for name in ("cva", "dva", "fca", "colva", "kva", "tva"):
            assert getattr(oracle, name) == pytest.approx(0.0, abs=1e-300)

    def test_cva_only_call_closed_form(self):
        problem = PdeProblem(spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
                             counterparty_hazard=0.03)
        oracle = quadrature_oracle(problem)
        c0 = black_scholes_value(problem, 100.0, 5.0)
        exact = -(1.0 - 0.4) * c0 * (1.0 - math.exp(-0.03 * 5.0))
        assert oracle.cva == pytest.approx(exact, rel=1e-10)
        assert oracle.dva == 0.0 and oracle.tva == 0.0

    def test_cva_only_call_vs_brute_force(self):
        problem = PdeProblem(spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
                             counterparty_hazard=0.03)
        oracle = quadrature_oracle(problem)
        brute = brute_force_unilateral_cva(problem)
        assert oracle.cva == pytest.approx(brute, rel=1e-6)

    def test_tax_capital_ratio_at_full_hedge(self):
        problem = PdeProblem(
            spot=100.0, strike=100.0, maturity=5.0, sigma=0.25, rate=0.02,
            issuer_hazard=0.0167, counterparty_hazard=0.04,
            hedge_fraction=1.0, capital_funding_fraction=0.0,
            cost_of_capital=0.10, tax_rate=0.21,
            capital_factor=0.4, capital_relief_factor=0.0,
        )
        oracle = quadrature_oracle(problem)
        assert oracle.kva < 0.0
        assert oracle.tva == pytest.approx(0.21 * oracle.kva, rel=1e-10)

    def test_forward_payoff_exercises_negative_exposure(self):
        oracle = quadrature_oracle(FORWARD_PROBLEM)
        assert oracle.dva > 0.0
        assert oracle.cva < 0.0

    def test_components_sum_to_total(self):
        oracle = quadrature_oracle(FULL_PROBLEM)
        assert oracle.total == pytest.approx(
            oracle.cva + oracle.dva + oracle.fca + oracle.colva + oracle.kva + oracle.tva,
            rel=1e-15,
        )


class TestVerification:
    def test_full_problem_passes(self):
        report = verify_decomposition(FULL_PROBLEM, Grid(400, 400))
        assert report.passed
        assert report.rel_error <= 5e-3
        assert report.tax_rel_error <= 5e-3
        assert report.max_funding_residual <= 1e-10

    def test_forward_problem_passes(self):
        report = verify_decomposition(FORWARD_PROBLEM, Grid(400, 400))
        assert report.passed

    def test_mismatched_price_of_risk_detected(self):
        solution = solve_vhat(FULL_PROBLEM, Grid(200, 200))
        mismatched = quadrature_oracle(replace(FULL_PROBLEM, price_of_risk=-0.5))
        rel = abs(solution.value_at_spot() - mismatched.total) / abs(mismatched.total)
        assert rel > 5e-3

    def test_refinement_improves_quadratically(self):
        oracle = quadrature_oracle(FULL_PROBLEM)
        errors = [
            abs(solve_vhat(FULL_PROBLEM, Grid(n, n)).value_at_spot() - oracle.total)
            for n in (100, 200)
        ]
        assert errors[0] / errors[1] > 2.8  # order >= 1.5 on a coarse pair


class TestReplication:
    def test_funding_condition_residual(self):
        solution = solve_vhat(FULL_PROBLEM, Grid(200, 200))
        state = replication_state(FULL_PROBLEM, solution)
        assert np.max(np.abs(state.funding_residual)) <= 1e-10

    def test_full_hedge_has_no_counterparty_error(self):
        problem = replace(FULL_PROBLEM, hedge_fraction=1.0)
        solution = solve_vhat(problem, Grid(100, 100))
        state = replication_state(problem, solution)
        assert np.array_equal(state.counterparty_error, np.zeros_like(state.counterparty_error))
        assert np.array_equal(state.compensator, np.zeros_like(state.compensator))

    def test_own_bond_split_reconstructs_portfolio(self):
        solution = solve_vhat(FULL_PROBLEM, Grid(100, 100))
        state = replication_state(FULL_PROBLEM, solution)
        total = state.bond_recovery_position + state.bond_zero_position
        assert np.allclose(total, state.own_portfolio, rtol=1e-12, atol=1e-12)

    def test_delta_hedges_against_rising_value(self):
        solution = solve_vhat(FULL_PROBLEM, Grid(200, 200))
        state = replication_state(FULL_PROBLEM, solution)
        # call-like economic value rises in S, so the stock hedge is short
        assert np.all(state.stock_delta[0] <= 1e-10)


class TestSinglePass:
    @pytest.mark.parametrize("problem", [
        FULL_PROBLEM,
        replace(FULL_PROBLEM, payoff="put", spot=90.0),
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

    @pytest.mark.parametrize("problem", [FULL_PROBLEM, FORWARD_PROBLEM], ids=["call", "forward"])
    def test_density_expectations_match_per_node_rule(self, problem):
        times = np.linspace(0.0, problem.maturity, 23)
        expected = per_node_density_expectations(problem, times, 40)
        for got, want in zip(density_expectations(problem, times, 40), expected):
            assert np.array_equal(got, want)

    def test_surface_file_matches_one_string_writer(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridResolutionWarning)
            solution = solve_vhat(FULL_PROBLEM, Grid(20, 20))
        streamed, joined = tmp_path / "streamed.csv", tmp_path / "joined.csv"
        _write_surfaces(streamed, solution)
        write_surfaces_joined(joined, solution)
        assert streamed.read_bytes() == joined.read_bytes()
        assert len(streamed.read_text().splitlines()) == 1 + 21 * 21

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
    """The oracle's inner integrals with the Gauss-Legendre rule rebuilt per node."""
    p = problem
    drift = p.carry - 0.5 * p.sigma**2
    out = np.empty((3, len(times)))
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
        out[:, i] = (np.dot(w, np.maximum(vx, 0.0)), np.dot(w, np.minimum(vx, 0.0)),
                     np.dot(w, v))
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
