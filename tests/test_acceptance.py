"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured figure and wall time (run with -s to see them).

Tolerances are pinned here, not tuned elsewhere.  Where a criterion compares
two numerically computed curves whose continuous counterparts coincide
exactly (the psi bound at H = 0.5, where the comparison curve equals the
exact solution), the inequality is asserted up to a Richardson error margin
estimated from a grid refinement inside the test itself.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from roughmv import (
    ConstMVObjective,
    ExponentialDiscount,
    FractionalKernel,
    LiftedFactors,
    LogMVObjective,
    MarketParams,
    RateCurve,
    RiccatiCoefficients,
    StrategyCurve,
    SumOfExponentialsKernel,
    TimeGrid,
    const_mv_strategy,
    integrated_resolvent_ratio,
    log_mv_existence_margin,
    log_mv_strategy,
    mittag_leffler,
    nonexp_log_strategy,
    prefer_rough_crossover,
    resolvent_numeric,
    riccati_bound_curve,
    simulate_variance,
    simulate_wealth,
    solve_riccati_volterra,
    terminal_stats,
)
from roughmv.cli import build_market, build_objective, load_config
from roughmv.volterra import negative_root
from conftest import STUDY, study_market
from oracles import heston_const_mv_total

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
TH, GAM, T = STUDY["theta"], STUDY["gamma"], STUDY["horizon"]


class Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_1_heston_limit_oracle():
    with Stopwatch() as sw:
        grid = TimeGrid(0.0, T, 750)
        market = MarketParams(0.04, STUDY["kappa"], 0.04, STUDY["sigma"], STUDY["rho"],
                              TH, RateCurve.flat(0.0), FractionalKernel(1.0, 1.0))
        curve = const_mv_strategy(market, GAM, T, grid)
        ref = heston_const_mv_total(
            TH, STUDY["rho"], STUDY["sigma"], STUDY["kappa"], GAM, T, 0.0,
            T - grid.nodes(),
        )
        err = float(np.max(np.abs(curve.total - ref)))
    assert err <= 1e-6
    assert sw.elapsed < 1.0
    print(f"PASS criterion 1 (Heston-limit oracle): max err {err:.2e}, {sw.elapsed:.2f}s")


def test_criterion_2_investment_horizon_effect():
    with Stopwatch() as sw:
        grid = TimeGrid(0.0, T, 750)
        crossings = {}
        for label, build in (
            ("const_mv", lambda m: const_mv_strategy(m, GAM, T, grid).total),
            ("log_mv", lambda m: log_mv_strategy(m, GAM, 1.0, T, grid).total),
        ):
            diff = build(study_market(0.1)) - build(study_market(0.5))
            flips = np.nonzero(diff[:-1] * diff[1:] < 0.0)[0]
            assert len(flips) == 1, f"{label}: {len(flips)} crossings"
            after = diff[flips[0] + 1 : -1]  # interior nodes past the crossing
            assert np.all(after > 0.0), f"{label}: rough not above smooth after crossing"
            crossings[label] = grid.nodes()[flips[0]]
    assert sw.elapsed < 5.0
    print(
        "PASS criterion 2 (investment horizon effect): single crossing at "
        f"t~{crossings['const_mv']:.2f} (const-MV) / {crossings['log_mv']:.2f} "
        f"(log-MV), rough above smooth afterwards, {sw.elapsed:.2f}s"
    )


def test_criterion_3_integrated_resolvent_monotone_in_alpha():
    with Stopwatch() as sw:
        lam = STUDY["kappa"] + STUDY["rho"] * STUDY["sigma"] * TH
        assert lam == pytest.approx(-0.015)
        alphas = [0.55, 0.7, 0.85, 1.0]
        long_tau = [integrated_resolvent_ratio(FractionalKernel(1.0, a), lam, 50.0)
                    for a in alphas]
        short_tau = [integrated_resolvent_ratio(FractionalKernel(1.0, a), lam, 0.01)
                     for a in alphas]
        assert all(x < y for x, y in zip(long_tau, long_tau[1:]))
        assert all(x > y for x, y in zip(short_tau, short_tau[1:]))
    assert sw.elapsed < 1.0
    print(
        "PASS criterion 3 (alpha monotonicity): increasing at tau=50, "
        f"decreasing at tau=0.01, {sw.elapsed:.2f}s"
    )


def test_criterion_4_psi_bounds_on_parameter_grid():
    with Stopwatch() as sw:
        worst_margin = math.inf
        for gamma in (0.1, 0.5, 5.0):
            for hurst in (0.1, 0.3, 0.5):
                kernel = FractionalKernel.from_hurst(hurst)
                coeffs = RiccatiCoefficients.log_mv(
                    STUDY["kappa"], STUDY["rho"], STUDY["sigma"], TH, gamma
                )
                coarse = solve_riccati_volterra(kernel, coeffs, TimeGrid(0.0, T, 750))
                fine = solve_riccati_volterra(kernel, coeffs, TimeGrid(0.0, T, 1500))
                # discretization margin for the bound comparison: at H=0.5 the
                # continuous bound -r1 EQUALS psi, so the sampled psi may sit
                # above it by its own O(h^2) error; 4x the Richardson estimate
                # covers that without loosening the rough cases (margin ~1e-7
                # versus genuine gaps >= 2e-7 at H<0.5)
                margin = 4.0 * float(np.max(np.abs(fine.values[::2] - coarse.values)))
                psi = coarse.values[1:]
                taus = coarse.grid.nodes()[1:]
                r1 = riccati_bound_curve(coeffs, kernel, taus)
                w_star = negative_root(coeffs)
                assert np.all(psi > 0.0), f"psi not positive at gamma={gamma}, H={hurst}"
                assert np.all(psi <= -r1 + margin), (
                    f"psi exceeds -r1 beyond margin at gamma={gamma}, H={hurst}"
                )
                assert np.all(-r1 < -w_star)
                worst_margin = min(worst_margin, float(np.min(-r1 - psi)))
    assert sw.elapsed < 10.0
    print(
        "PASS criterion 4 (psi bounds on 3x3 grid): 0 < psi <= -r1 < -w*, "
        f"tightest gap {worst_margin:.1e}, {sw.elapsed:.2f}s"
    )


def test_criterion_5_adams_self_convergence():
    with Stopwatch() as sw:
        coeffs = RiccatiCoefficients.log_mv(
            STUDY["kappa"], STUDY["rho"], STUDY["sigma"], TH, GAM
        )
        kernel = FractionalKernel.from_hurst(0.1)
        sols = {
            spy: solve_riccati_volterra(
                kernel, coeffs, TimeGrid(0.0, T, spy * 3)
            ).values
            for spy in (250, 500, 1000)
        }
        d1 = float(np.max(np.abs(sols[500][::2] - sols[250])))
        d2 = float(np.max(np.abs(sols[1000][::2] - sols[500])))
        ratio = d1 / d2
    assert ratio >= 2.0
    assert sw.elapsed < 10.0
    print(
        f"PASS criterion 5 (Adams self-convergence): diffs {d1:.2e} -> {d2:.2e}, "
        f"ratio {ratio:.2f} >= 2, {sw.elapsed:.2f}s"
    )


def test_criterion_6_resolvent_identity():
    with Stopwatch() as sw:
        variants = [
            SumOfExponentialsKernel((1.0,), (0.0,)),
            FractionalKernel(1.0, 0.6),
            SumOfExponentialsKernel((0.5,), (1.2,)),
        ]
        worst = 0.0
        for spec in variants:
            for lam in (-0.015, 0.3, 1.0):
                samples = resolvent_numeric(spec, lam, TimeGrid(0.0, 2.0, 250))
                worst = max(worst, samples.residual)
        assert worst <= 1e-6
    assert sw.elapsed < 1.0
    print(
        f"PASS criterion 6 (resolvent identity): max relative residual "
        f"{worst:.1e} <= 1e-6, {sw.elapsed:.2f}s"
    )


def test_criterion_7_crossover_gamma_structure():
    with Stopwatch() as sw:
        grid = TimeGrid(0.0, T, 750)
        rough, smooth = study_market(0.1), study_market(0.5)
        const_stars = [
            prefer_rough_crossover(rough, smooth, ConstMVObjective(g, T), grid)
            for g in (0.1, 1.0, 10.0)
        ]
        log_stars = [
            prefer_rough_crossover(rough, smooth, LogMVObjective(g, T), grid)
            for g in (0.1, 1.0, 10.0)
        ]
        assert max(const_stars) - min(const_stars) <= grid.spacing
        assert log_stars[0] > log_stars[1] > log_stars[2]
    assert sw.elapsed < 10.0
    print(
        "PASS criterion 7 (crossover structure): const-MV t* = "
        f"{const_stars[1]:.4f} gamma-invariant; log-MV t* decreasing "
        f"{log_stars[0]:.3f} > {log_stars[1]:.3f} > {log_stars[2]:.3f}, "
        f"{sw.elapsed:.2f}s"
    )


def test_criterion_8_monte_carlo_desk_scale():
    with Stopwatch() as sw:
        cfg = load_config(str(CONFIG_DIR / "simulation_comparison.json"))
        objective = build_objective(cfg)
        base = build_market(cfg)
        grid = TimeGrid.for_horizon(objective.horizon, 250)
        scheme = LiftedFactors(20)
        seed = int(cfg["sim"]["seed"])
        n_paths = int(cfg["sim"]["n_paths"])
        assert n_paths == 5000 and objective.horizon == 10.0

        # (a) zero strategy with zero risk-free rate: X stays at x0 on every
        # path, so the 3-standard-error band degenerates to exact equality
        import dataclasses

        flat_market = dataclasses.replace(base, rate_curve=RateCurve.flat(0.0))
        bundle0 = simulate_variance(flat_market, scheme, grid, n_paths, seed)
        zero = np.zeros(grid.n_steps + 1)
        strategy0 = StrategyCurve(grid, zero, zero, zero, kind="zero")
        bundle0 = simulate_wealth(bundle0, flat_market, strategy0, objective, 1.0)
        x = bundle0.wealth[:, -1]
        se = float(x.std(ddof=1) / math.sqrt(n_paths))
        assert abs(float(x.mean()) - 1.0) <= max(3.0 * se, 0.0)

        # (b) shared-parameter kernel swap: rough mean and variance dominate
        stats = {}
        bundles = {}
        for hurst in (0.1, 0.5):
            market = dataclasses.replace(
                base, kernel=FractionalKernel.from_hurst(hurst)
            )
            strat = const_mv_strategy(market, objective.gamma, objective.horizon, grid)
            b = simulate_variance(market, scheme, grid, n_paths, seed)
            b = simulate_wealth(b, market, strat, objective, 1.0)
            stats[hurst] = terminal_stats(b)
            bundles[hurst] = b
        assert stats[0.1].mean > stats[0.5].mean
        assert stats[0.1].variance > stats[0.5].variance

        # (c) seeded rerun is byte-exact
        market = dataclasses.replace(base, kernel=FractionalKernel.from_hurst(0.1))
        strat = const_mv_strategy(market, objective.gamma, objective.horizon, grid)
        again = simulate_variance(market, scheme, grid, n_paths, seed)
        again = simulate_wealth(again, market, strat, objective, 1.0)
        assert again.variance.tobytes() == bundles[0.1].variance.tobytes()
        assert again.wealth.tobytes() == bundles[0.1].wealth.tobytes()
    assert sw.elapsed < 120.0
    print(
        "PASS criterion 8 (Monte Carlo at desk scale): martingale exact, "
        f"rough ({stats[0.1].mean:.3f}, {stats[0.1].variance:.3f}) > "
        f"Heston ({stats[0.5].mean:.3f}, {stats[0.5].variance:.3f}), "
        f"rerun byte-exact, {sw.elapsed:.1f}s"
    )


def test_criterion_9_nonexp_kernel_invariance():
    with Stopwatch() as sw:
        grid = TimeGrid(0.0, T, 750)
        outs = [
            nonexp_log_strategy(study_market(h), ExponentialDiscount(0.0), T, grid)
            for h in (0.1, 0.5)  # alpha = 0.6 vs alpha = 1.0
        ]
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])
        assert outs[0][0][0] == 0.25
    assert sw.elapsed < 1.0
    print(
        "PASS criterion 9 (consumption kernel invariance): bitwise identical, "
        f"p(0) = {outs[0][0][0]}, {sw.elapsed:.2f}s"
    )


def test_criterion_10_mittag_leffler_accuracy():
    with Stopwatch() as sw:
        worst = 0.0
        for z in np.linspace(-20.0, 20.0, 41):
            err = abs(mittag_leffler(1.0, 1.0, float(z)) - math.exp(z))
            worst = max(worst, err / math.exp(abs(z)))
            assert err <= 1e-10 * math.exp(abs(z))
        assert abs(mittag_leffler(2.0, 1.0, 1.0) - math.cosh(1.0)) <= 1e-10
        for alpha in (0.6, 0.8):
            tail = mittag_leffler(alpha, 1.0, -1e4) * math.gamma(1.0 - alpha) * 1e4
            assert abs(tail - 1.0) <= 0.05
    assert sw.elapsed < 1.0
    print(
        "PASS criterion 10 (Mittag-Leffler accuracy): worst scaled exp error "
        f"{worst:.1e}, cosh and tail checks OK, {sw.elapsed:.2f}s"
    )


def test_roughness_adjustment_on_a_market_grid():
    # The paper's headline is the roughness adjustment of the strategy.  Here
    # it is max_t |pi_{H=0.1} - pi_{H=0.5}| / |pi_{H=0.5}| on the total
    # coefficient, over 54 markets (log-MV with delta = 1 on the 45 whose
    # existence margin is positive).  This grid does not reach the paper's
    # "up to 40 %"; the measured maxima are pinned to 0.05 percentage points,
    # at the market where each is reached.
    with Stopwatch() as sw:
        grid = TimeGrid.for_horizon(3.0, 250)
        builders = {
            "const_mv": lambda m, gamma: const_mv_strategy(m, gamma, 3.0, grid).total,
            "log_mv": lambda m, gamma: log_mv_strategy(m, gamma, 1.0, 3.0, grid).total,
        }
        worst = {kind: (0.0, None) for kind in builders}
        log_mv_markets = 0
        for rho, kappa, sigma, gamma in itertools.product(
            (-0.9, -0.7, -0.5), (0.1, 0.3, 1.0), (0.3, 0.5), (0.5, 1.0, 2.0)
        ):
            rough, smooth = (
                MarketParams(0.04, kappa, 0.04, sigma, rho, 1.5, RateCurve.flat(0.0),
                             FractionalKernel.from_hurst(hurst))
                for hurst in (0.1, 0.5)
            )
            for kind, build in builders.items():
                if kind == "log_mv":
                    if log_mv_existence_margin(rough, gamma) <= 0:
                        continue
                    log_mv_markets += 1
                ref = build(smooth, gamma)
                adjustment = float(np.max(np.abs(build(rough, gamma) - ref) / np.abs(ref)))
                if adjustment > worst[kind][0]:
                    worst[kind] = (adjustment, (rho, kappa, sigma, gamma))
    assert log_mv_markets == 45
    assert worst["const_mv"][0] == pytest.approx(0.2239, abs=5e-4)
    assert worst["const_mv"][1] == (-0.9, 0.1, 0.5, 0.5)
    assert worst["log_mv"][0] == pytest.approx(0.1193, abs=5e-4)
    assert worst["log_mv"][1] == (-0.7, 0.3, 0.5, 2.0)
    assert sw.elapsed < 5.0
    print(
        "PASS roughness adjustment (54 markets, H = 0.1 against 0.5): "
        f"const-MV {100 * worst['const_mv'][0]:.2f} %, log-MV "
        f"{100 * worst['log_mv'][0]:.2f} %, {sw.elapsed:.2f}s"
    )
