import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmv import (
    ConstMVObjective,
    FractionalKernel,
    LiftedFactors,
    LinearVieProblem,
    LogMVObjective,
    MarketParams,
    NonExpLogObjective,
    ExponentialDiscount,
    RateCurve,
    ResourceLimitError,
    StrategyCurve,
    TimeGrid,
    fit_sum_of_exponentials,
    kernel_eval,
    kernel_integral,
    nonexp_log_strategy,
    simulate_variance,
    simulate_wealth,
    solve_linear_vie,
    terminal_stats,
)
from roughmv.montecarlo import (
    MAX_ELEMENTS,
    PATH_BLOCK,
    _HISTORY_GROUP,
    _FIT_POINTS,
    _LIFTED_BLOCK,
    PATHS_CSV_HEADER,
    _as_factor_kernel,
    _draw_increments,
    _path_seed_words,
    _seed_words_type,
    _volterra_march,
    block_arrays,
    block_paths,
    bundle_csv_rows,
)
from oracles import lognormal_terminal_mean


def make_market(sigma=0.3, kappa=0.3, nu0=0.04, phi=0.04, rho=-0.7, rate=0.0, hurst=0.1):
    return MarketParams(
        nu0=nu0, kappa=kappa, phi=phi, sigma=sigma, rho=rho, theta=1.5,
        rate_curve=RateCurve.flat(rate), kernel=FractionalKernel.from_hurst(hurst),
    )


def paths_csv(bundle):
    """paths.csv of a bundle as the CLI streams it."""
    return PATHS_CSV_HEADER + "".join(bundle_csv_rows(bundle))


def factor_recursion(market, scheme, grid, dB):
    """Variance paths of the lifted scheme by the per-step update of every
    factor: u <- q (u + shock), nu = max(nu0 + w . u, 0)."""
    factors = _as_factor_kernel(market.kernel, scheme, grid.t_end)[0]
    h, w = grid.spacing, np.asarray(factors.weights)
    scale = np.exp(-np.asarray(factors.rates) * h)
    nu = np.empty((dB.shape[0], grid.n_steps + 1))
    nu[:, 0] = market.nu0
    u = np.zeros((dB.shape[0], len(w)))
    for i in range(grid.n_steps):
        dz = (market.kappa * (market.phi - nu[:, i]) * h
              + market.sigma * np.sqrt(nu[:, i]) * dB[:, i])
        u = scale[None, :] * (u + dz[:, None])
        nu[:, i + 1] = np.maximum(market.nu0 + np.einsum("pm,m->p", u, w), 0.0)
    return nu


def flat_strategy(grid, level, consumption=None):
    coef = np.full(grid.n_steps + 1, float(level))
    return StrategyCurve(grid, coef, np.zeros_like(coef), kind="test",
                         consumption=consumption)


# ---------------------------------------------------------------------------
# Variance simulation
# ---------------------------------------------------------------------------

class TestSimulateVariance:
    def test_deterministic_heston_limit(self):
        # sigma ~ 0 at alpha = 1: nu -> phi + (nu0 - phi) e^{-kappa t}
        market = make_market(sigma=1e-12, nu0=0.09, hurst=0.5)
        grid = TimeGrid(3.0, 2000)
        b = simulate_variance(market, LiftedFactors(20), grid, 1, 3)
        ref = 0.04 + 0.05 * np.exp(-0.3 * grid.nodes())
        assert np.max(np.abs(b.variance[0] - ref)) <= 1e-3

    def test_deterministic_rough_matches_linear_vie(self):
        # the 20-factor lift of H = 0.1 is 1.85e-4 from the linear VIE, the
        # Euler step's own error
        market = make_market(sigma=1e-12, nu0=0.09, hurst=0.1)
        grid = TimeGrid(3.0, 2000)
        b = simulate_variance(market, LiftedFactors(20), grid, 1, 3)
        forcing = market.nu0 + market.kappa * market.phi * kernel_integral(
            market.kernel, grid.nodes()
        )
        ref = solve_linear_vie(LinearVieProblem(market.kernel, market.kappa, forcing, grid))
        assert np.max(np.abs(b.variance[0] - ref)) <= 1e-3

    def test_no_drift_no_noise_is_constant(self):
        market = make_market(sigma=1e-14, kappa=1e-14, nu0=0.09)
        b = simulate_variance(market, LiftedFactors(20), TimeGrid(1.0, 100), 2, 5)
        np.testing.assert_allclose(b.variance, 0.09, atol=1e-10)

    def test_bitwise_determinism(self):
        market = make_market()
        grid = TimeGrid(1.0, 250)
        a = simulate_variance(market, LiftedFactors(10), grid, 40, 42)
        b = simulate_variance(market, LiftedFactors(10), grid, 40, 42)
        assert a.variance.tobytes() == b.variance.tobytes()
        assert a.dW1.tobytes() == b.dW1.tobytes()

    def test_path_substreams_independent_of_n_paths(self):
        market = make_market()
        grid = TimeGrid(1.0, 250)
        big = simulate_variance(market, LiftedFactors(10), grid, 40, 42)
        small = simulate_variance(market, LiftedFactors(10), grid, 15, 42)
        np.testing.assert_array_equal(big.variance[:15], small.variance)

    def test_chunking_does_not_change_results(self):
        # blocks of 7 path indices, the last one ragged, against one call
        market = make_market()
        grid = TimeGrid(1.0, 250)
        a = simulate_variance(market, LiftedFactors(10), grid, 40, 42)
        blocks = [
            simulate_variance(market, LiftedFactors(10), grid, range(lo, min(lo + 7, 40)), 42)
            for lo in range(0, 40, 7)
        ]
        b = np.concatenate([blk.variance for blk in blocks])
        assert a.variance.tobytes() == b.tobytes()

    @pytest.mark.parametrize("hurst, horizon, n_steps, n_paths", [
        (0.1, 2.0, 500, 1000), (0.3, 2.0, 500, 1000), (0.5, 2.0, 500, 1000),
        (0.1, 10.0, 2500, 2000),  # the comparison scale: ten years, 250 steps a year
    ], ids=["T2-H0.1", "T2-H0.3", "T2-H0.5", "T10-H0.1"])
    def test_lifted_mean_matches_the_exact_forward_variance(self, hurst, horizon, n_steps,
                                                            n_paths):
        # E[nu_t] = m solves m + kappa K * m = nu0 + kappa phi int K on the
        # model's own kernel (Abi Jaber, Larsson & Pulido, 2019): a reference
        # with no Monte-Carlo noise and no fit.  The 20-factor fit moves the
        # mean by 4e-6 at T = 2, against a standard error of 2.2e-3
        market = make_market(nu0=0.09, kappa=1.0, rho=0.7, rate=0.01, hurst=hurst)
        grid = TimeGrid(horizon, n_steps)
        forcing = market.nu0 + market.kappa * market.phi * kernel_integral(
            market.kernel, grid.nodes())
        exact = solve_linear_vie(LinearVieProblem(market.kernel, market.kappa, forcing, grid))[-1]
        x = simulate_variance(market, LiftedFactors(20), grid, n_paths, 11).variance[:, -1]
        assert abs(x.mean() - exact) <= 3.0 * x.std(ddof=1) / math.sqrt(x.size)

    def test_variance_nonnegative_everywhere(self):
        # high vol-of-vol forces truncation to bite
        market = make_market(sigma=1.5, nu0=0.02)
        b = simulate_variance(market, LiftedFactors(10), TimeGrid(1.0, 200), 200, 9)
        assert np.all(b.variance >= 0.0)

    def test_memory_budget_error(self):
        # one path over the budget; the check comes before any draw
        market = make_market()
        n_paths = MAX_ELEMENTS // (2 * 251) + 1
        with pytest.raises(ResourceLimitError, match="chunk"):
            simulate_variance(market, LiftedFactors(5), TimeGrid(1.0, 250), n_paths, 1)

    def test_lifted_metadata_reports_fit_error(self):
        market = make_market(hurst=0.1)
        b = simulate_variance(market, LiftedFactors(20), TimeGrid(1.0, 50), 2, 1)
        assert 0.0 < b.metadata["kernel_fit_l2_error"] < 0.05
        heston = make_market(hurst=0.5)
        b2 = simulate_variance(heston, LiftedFactors(20), TimeGrid(1.0, 50), 2, 1)
        assert b2.metadata["kernel_fit_l2_error"] == 0.0


class TestPathSeedWords:
    """The seeding words of a block equal those of NumPy's SeedSequence."""

    # ids of one, two (2^32 - 2 .. 2^32 + 1, 2^40) spawn-key words
    IDS = [*range(2048), *range(2**32 - 2, 2**32 + 2), 2**40]

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**127, 10**30, 2**128 + 5,
                                      2**200 + 3, 3**150, 2**300 + 1],
                             ids=["0", "1", "2^32-1", "2^32", "2^127", "10^30", "2^128+5",
                                  "2^200+3", "3^150", "2^300+1"])
    def test_words_equal_seed_sequence_state(self, seed):
        # seeds of one to ten words (2^127 has four, 2^128 + 5 five, 3^150
        # eight): each word past the pool's four moves the hash constant that
        # the spawn key's words start from
        words = np.concatenate([_path_seed_words(seed, r) for r in (
            range(2048), range(2**32 - 2, 2**32 + 2), range(2**40, 2**40 + 1))])
        expected = np.array([
            np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64)
            for i in self.IDS])
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        assert words.tobytes() == expected.tobytes()

    def test_ids_of_any_width_and_order(self):
        for paths in (range(2**70 + 3, 2**70 - 10, -4), range(0, 2**64 + 5, 2**64 - 1),
                      range(10, -1, -3)):
            expected = np.array([
                np.random.SeedSequence(5, spawn_key=(i,)).generate_state(4, np.uint64)
                for i in paths])
            assert _path_seed_words(5, paths).tobytes() == expected.tobytes()

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
            _path_seed_words(-1, range(3))

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "7", None])
    def test_a_seed_that_is_no_integer_is_named(self, seed):
        # 1.5 was "TypeError: 'float' object cannot be interpreted as an integer"
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got "
                                             f"{re.escape(repr(seed))}$"):
            simulate_variance(make_market(), LiftedFactors(2), TimeGrid(0.5, 4), 3, seed)

    def test_draws_equal_per_path_default_rng(self):
        # the per-path seeding the block pass replaced, written out
        grid, rho, paths, seed = TimeGrid(1.0, 40), -0.7, range(1000, 1300), 97
        dW1, dB = _draw_increments(make_market(rho=rho), grid, paths, seed)
        sqrt_h = np.sqrt(grid.spacing)
        for k, i in enumerate(paths):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
            z = rng.standard_normal((2, grid.n_steps))
            w1 = z[0] * sqrt_h
            b = z[1] * sqrt_h
            b *= np.sqrt(1.0 - rho**2)
            b += rho * w1
            assert dW1[:, k].tobytes() == w1.tobytes()
            assert dB[:, k].tobytes() == b.tobytes()

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64),
                                                (8, np.uint64), (4, np.int64)])
    def test_shim_refuses_any_other_request(self, n_words, dtype):
        seed_words = _seed_words_type()(_path_seed_words(3, range(1))[0])
        assert seed_words.generate_state(4, np.uint64) is seed_words.words
        with pytest.raises(ValueError, match="4 uint64"):
            seed_words.generate_state(n_words, dtype)


class TestPathBlocks:
    """Path i is a function of (seed, i): blocks of a range reproduce one call."""

    GRID = TimeGrid(1.0, 60)
    N, BLOCK = 23, 5  # five blocks, the last one ragged

    # one factor is a part of one chunk of the factor state's update, ten are two chunks
    @pytest.mark.parametrize("scheme", [LiftedFactors(1), LiftedFactors(10)])
    def test_range_equals_rows_of_full_call(self, scheme):
        market = make_market()
        full = simulate_variance(market, scheme, self.GRID, self.N, 8)
        part = simulate_variance(market, scheme, self.GRID, range(9, 17), 8)
        assert part.paths == range(9, 17)
        for name in ("variance", "dW1"):
            assert getattr(part, name).tobytes() == getattr(full, name)[9:17].tobytes()
        # the bundle keeps no dB: the variance is stored over it
        full_dB = _draw_increments(market, self.GRID, range(self.N), 8)[1]
        part_dB = _draw_increments(market, self.GRID, range(9, 17), 8)[1]
        assert part_dB.tobytes() == full_dB[:, 9:17].tobytes()

    def test_path_draws_are_the_spawned_substreams(self):
        rho = -0.7
        b = simulate_variance(make_market(rho=rho), LiftedFactors(3), self.GRID,
                              range(3, 5), 4)
        dB = _draw_increments(make_market(rho=rho), self.GRID, range(3, 5), 4)[1]
        sqrt_h = np.sqrt(self.GRID.spacing)
        for k, i in enumerate(range(3, 5)):
            child = np.random.SeedSequence(4).spawn(i + 1)[i]
            z = np.random.default_rng(child).standard_normal((2, self.GRID.n_steps))
            dW1, dW2 = sqrt_h * z[0], sqrt_h * z[1]
            assert b.dW1[k].tobytes() == dW1.tobytes()
            assert dB[:, k].tobytes() == (rho * dW1 + np.sqrt(1.0 - rho**2) * dW2).tobytes()

    @pytest.mark.parametrize("scheme", [LiftedFactors(1), LiftedFactors(10)])
    @pytest.mark.parametrize(
        "objective",
        [ConstMVObjective(0.5, 1.0), LogMVObjective(0.5, 1.0, delta=1.0),
         LogMVObjective(0.5, 1.0, delta=2.0), NonExpLogObjective(ExponentialDiscount(0.1), 1.0)],
        ids=["const_mv", "log_mv_delta1", "log_mv_delta2", "nonexp"],
    )
    def test_terminal_wealth_from_blocks_is_bit_identical(self, scheme, objective):
        # blocks of a range, with or without the paths kept, give the terminal
        # column of one call over the range that keeps them
        market = make_market(rate=0.01)
        consumption = (np.full(self.GRID.n_steps + 1, 0.05)
                       if isinstance(objective, NonExpLogObjective) else None)
        strategy = flat_strategy(self.GRID, 0.4, consumption)

        def wealth(paths, keep_paths=True):
            b = simulate_variance(market, scheme, self.GRID, paths, 31)
            return simulate_wealth(b, market, strategy, objective, 1.0, keep_paths=keep_paths)

        full = wealth(self.N)
        assert full.wealth.shape == (self.N, self.GRID.n_steps + 1)
        for keep_paths in (True, False):
            blocks = [wealth(range(lo, min(lo + self.BLOCK, self.N)), keep_paths)
                      for lo in range(0, self.N, self.BLOCK)]
            assert [b.wealth.shape[0] for b in blocks] == [5, 5, 5, 5, 3]
            terminal = np.concatenate([b.wealth[:, -1] for b in blocks])
            assert terminal.tobytes() == full.wealth[:, -1].tobytes()
            stats_full, stats_blocks = terminal_stats(full.wealth[:, -1]), terminal_stats(terminal)
            assert (stats_full.mean, stats_full.variance) == (stats_blocks.mean,
                                                              stats_blocks.variance)

        last = wealth(self.N, keep_paths=False)
        assert last.wealth.shape == (self.N, 1)
        assert last.wealth.tobytes() == full.wealth[:, -1:].tobytes()
        if isinstance(objective, ConstMVObjective):
            assert full.log_wealth is None and last.log_wealth is None
        else:
            assert last.log_wealth.shape == (self.N, 1)
            assert last.log_wealth.tobytes() == full.log_wealth[:, -1:].tobytes()
        stats_last, stats_full = (terminal_stats(b.wealth[:, -1]) for b in (last, full))
        assert (stats_last.mean, stats_last.variance) == (stats_full.mean, stats_full.variance)

    def test_time_major_march_matches_path_major_reference(self):
        # the per-step update of every factor that the blocked march replaced,
        # on a market whose paths stay mostly off the zero floor (see
        # test_blocked_factor_march_matches_the_per_step_recursion); and the strided
        # column loop of the wealth, written out with every expression
        # associated as in the library
        market = make_market(nu0=0.09, kappa=1.0, rho=0.7, rate=0.01)
        grid, n = self.GRID, self.GRID.n_steps
        b = simulate_variance(market, LiftedFactors(10), grid, self.N, 12)
        dB = _draw_increments(market, grid, range(self.N), 12)[1].T
        nu = factor_recursion(market, LiftedFactors(10), grid, dB)
        assert np.mean(nu[:, 1:] == 0.0) < 0.1
        assert np.max(np.abs(b.variance - nu)) <= 1e-12 * np.max(nu)

        nu = b.variance
        coef = np.linspace(0.2, 0.6, n + 1)
        strategy = StrategyCurve(grid, coef, np.zeros_like(coef), kind="test")
        h, th = grid.spacing, market.theta
        for delta in (1.0, 2.0):  # at delta = 1 the library's proportion is a scalar
            got = simulate_wealth(b, market, strategy, LogMVObjective(0.5, 1.0, delta), 1.0)
            expo = (delta - 1.0) / (2.0 * delta)
            log_w = np.empty_like(nu)
            log_w[:, 0] = 0.0
            for i in range(n):
                if expo == 0.0:
                    pi = np.full(self.N, coef[i])
                else:
                    pi = coef[i] * np.maximum(nu[:, i], 1e-300) ** expo
                drift = 0.01 + th * nu[:, i] * pi - 0.5 * pi**2 * nu[:, i]
                log_w[:, i + 1] = (log_w[:, i] + drift * h
                                   + pi * np.sqrt(nu[:, i]) * b.dW1[:, i])
            assert got.log_wealth.tobytes() == log_w.tobytes()
            assert got.wealth.tobytes() == np.exp(log_w).tobytes()

        got = simulate_wealth(b, market, strategy, ConstMVObjective(0.5, 1.0), 1.0)
        wealth = np.empty_like(nu)
        wealth[:, 0] = 1.0
        for i in range(n):
            drift = 0.01 * wealth[:, i] + th * nu[:, i] * coef[i]
            wealth[:, i + 1] = (wealth[:, i] + drift * h
                                + coef[i] * np.sqrt(nu[:, i]) * b.dW1[:, i])
        assert got.wealth.tobytes() == wealth.tobytes()

    @pytest.mark.parametrize("n_steps, n_paths, hurst, horizon", [
        (61, 40, 0.1, 1.0),    # a ragged last block; a padded second group
        (5, 40, 0.1, 1.0),     # fewer steps than one block
        (60, 1, 0.1, 1.0),     # one path
        (60, 33, 0.5, 1.0),    # a one-factor kernel
        (125, 40, 0.1, 0.5),   # the fastest factor's q^9 is subnormal
    ], ids=["ragged", "short", "one_path", "one_factor", "subnormal_powers"])
    def test_blocked_factor_march_matches_the_per_step_recursion(
            self, n_steps, n_paths, hurst, horizon):
        market = make_market(nu0=0.09, kappa=1.0, rho=0.7, rate=0.01, hurst=hurst)
        grid = TimeGrid(horizon, n_steps)
        got = simulate_variance(market, LiftedFactors(20), grid, n_paths, 12)
        dB = _draw_increments(market, grid, range(n_paths), 12)[1].T
        nu = factor_recursion(market, LiftedFactors(20), grid, dB)
        assert np.mean(nu[:, 1:] == 0.0) < 0.1
        assert np.max(np.abs(got.variance - nu)) <= 1e-12 * np.max(nu)

    @pytest.mark.parametrize("scheme", [LiftedFactors(20), LiftedFactors(1)],
                             ids=["lifted", "one_factor"])
    @pytest.mark.parametrize("n_steps, n_paths", [
        (101, 33),  # a ragged last block; a padded second group
        (101, 1),
        (50, 33),   # a ragged last block of two steps
        (5, 33),    # fewer steps than one block
        (1, 1),
    ])
    def test_variance_is_stored_over_the_draws(self, scheme, n_steps, n_paths):
        # node i + 1 is written over row i of dB, which the march has read by
        # then: the variance is byte for byte a march over a separate copy
        market, grid = make_market(), TimeGrid(n_steps / 250, n_steps)
        b = simulate_variance(market, scheme, grid, n_paths, 21)
        assert not np.shares_memory(b.variance, b.dW1)

        dB = _draw_increments(market, grid, range(n_paths), 21)[1].copy()
        nu = np.empty((n_steps + 1, n_paths))
        nu[0] = market.nu0
        factors = _as_factor_kernel(market.kernel, scheme, grid.t_end)[0]
        _volterra_march(market, grid, factors, nu, dB)
        assert not np.shares_memory(nu, dB)
        assert b.variance.tobytes() == nu.T.tobytes()

    def test_no_subnormal_reaches_the_factor_products(self):
        # at T = 0.5 and 250 steps a year the fastest factor decays by
        # q = exp(-80) a step, and q^9 is below the normal range: the march
        # sets such powers to 0, so no product underflows
        market, grid = make_market(nu0=0.09, kappa=1.0, rho=0.7), TimeGrid(0.5, 125)
        factors = _as_factor_kernel(market.kernel, LiftedFactors(20), grid.t_end)[0]
        q = math.exp(-max(factors.rates) * grid.spacing)
        assert q**_LIFTED_BLOCK > np.finfo(float).tiny > q ** (_LIFTED_BLOCK + 1)
        with np.errstate(under="raise"):
            b = simulate_variance(market, LiftedFactors(20), grid, 40, 3)
        assert np.all(np.isfinite(b.variance))

    def test_factor_state_rows_do_not_depend_on_the_call(self):
        # the factor state enters each block of 8 steps by matrix products,
        # whose rounding could depend on how many paths they carry
        market, grid = make_market(), TimeGrid(1.0, 101)
        assert grid.n_steps % _LIFTED_BLOCK and 70 > 2 * _HISTORY_GROUP
        full = simulate_variance(market, LiftedFactors(20), grid, 70, 8).variance
        for paths in (range(5, 6), range(9, 17), range(30, 70), range(69, 2, -3)):
            part = simulate_variance(market, LiftedFactors(20), grid, paths, 8).variance
            assert part.tobytes() == full[paths].tobytes()

    def test_consumption_march_matches_its_own_loop(self):
        # the consumption problem's separate loop that the log-wealth loop
        # replaced, drift r - c + (theta pi - pi^2/2) nu associated as it was
        market = make_market(rate=0.01)
        grid, n = self.GRID, self.GRID.n_steps
        b = simulate_variance(market, LiftedFactors(10), grid, self.N, 12)
        objective = NonExpLogObjective(ExponentialDiscount(0.1), 1.0)
        strategy = nonexp_log_strategy(market, objective.discount, grid)
        consumption, coef = strategy.consumption, strategy.total
        got = simulate_wealth(b, market, strategy, objective, 1.0)
        h, th, nu = grid.spacing, market.theta, b.variance
        rates = market.rate_curve.values_at(grid.nodes())
        log_w = np.zeros_like(nu)
        for i in range(n):
            drift = rates[i] - consumption[i] + (th * coef[i] - 0.5 * coef[i] ** 2) * nu[:, i]
            log_w[:, i + 1] = log_w[:, i] + drift * h + coef[i] * np.sqrt(nu[:, i]) * b.dW1[:, i]
        np.testing.assert_allclose(got.wealth, np.exp(log_w), rtol=1e-13, atol=0)
        np.testing.assert_allclose(got.log_wealth, log_w, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("steps", [12, 40_000, 10**6])
    def test_block_paths_fill_the_memory_budget(self, steps):
        # the arrays a block holds: dW1 and the variance, stored over dB;
        # wealth and log-wealth when paths.csv is written
        grid = TimeGrid(1.0, steps)
        for keep_paths, arrays in [(False, 2), (True, 4)]:
            assert block_arrays(keep_paths) == arrays
            k = block_paths(grid, keep_paths)
            assert 1 <= k <= PATH_BLOCK
            assert arrays * k * (steps + 1) <= MAX_ELEMENTS
            assert k == PATH_BLOCK or arrays * (k + 1) * (steps + 1) > MAX_ELEMENTS

    def test_desk_sim_grids_keep_full_blocks(self):
        # the benchmark's simulations: T up to 3 at 250 steps a year
        assert block_paths(TimeGrid(3.0, 750), False) == PATH_BLOCK

    @pytest.mark.parametrize("paths", [0, range(0), range(-1, 3), 2.0, "3"])
    def test_bad_path_sets_rejected(self, paths):
        with pytest.raises((ValueError, TypeError)):
            simulate_variance(make_market(), LiftedFactors(2), self.GRID, paths, 1)

    @pytest.mark.parametrize("paths", [2.0, 0, True])
    def test_path_count_must_be_an_integer(self, paths):
        with pytest.raises(ValueError, match="paths must be an integer >= 1"):
            simulate_variance(make_market(), LiftedFactors(2), self.GRID, paths, 1)

    def test_csv_rows_refuse_a_terminal_only_bundle(self):
        # the (n_paths, 1) terminal column would broadcast over every node
        market = make_market()
        grid = TimeGrid(0.5, 4)
        b = simulate_variance(market, LiftedFactors(3), grid, 3, 2)
        b = simulate_wealth(b, market, flat_strategy(grid, 0.3), ConstMVObjective(0.5, 0.5),
                            1.0, keep_paths=False)
        with pytest.raises(ValueError, match="terminal wealth only"):
            paths_csv(b)

    def test_csv_rows_carry_global_path_ids(self):
        market = make_market()
        grid = TimeGrid(0.5, 4)
        full = simulate_variance(market, LiftedFactors(3), grid, 6, 2)
        part = simulate_variance(market, LiftedFactors(3), grid, range(4, 6), 2)
        text_full, text_part = paths_csv(full), paths_csv(part)
        rows = text_part.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["4"] * 5 + ["5"] * 5
        assert text_full.endswith("".join(r + "\n" for r in rows))


# ---------------------------------------------------------------------------
# Sum-of-exponentials fit
# ---------------------------------------------------------------------------

class TestFit:
    def test_large_factor_count_is_accurate(self):
        _, err = fit_sum_of_exponentials(FractionalKernel(1.0, 0.6), 20, 10.0)
        assert err <= 0.05

    def test_alpha_one_is_exact_single_factor(self):
        # whatever the factor count: a kernel that needs no fit is never refused
        for n_factors in (7, 10**12):
            approx, err = fit_sum_of_exponentials(FractionalKernel(1.0, 1.0), n_factors, 10.0)
            assert approx.weights == (1.0,) and approx.rates == (0.0,)
            assert err == 0.0

    def test_error_decreases_with_factors(self):
        errs = [
            fit_sum_of_exponentials(FractionalKernel(1.0, 0.6), n, 10.0)[1]
            for n in (1, 3, 5, 10, 20)
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))

    def test_fit_matches_kernel_pointwise(self):
        approx, _ = fit_sum_of_exponentials(FractionalKernel(1.0, 0.6), 20, 10.0)
        t = np.geomspace(1e-2, 10.0, 50)
        rel = np.abs(kernel_eval(approx, t) - kernel_eval(FractionalKernel(1.0, 0.6), t))
        rel /= kernel_eval(FractionalKernel(1.0, 0.6), t)
        assert np.max(rel) <= 0.05

    def test_rejects_non_fractional(self):
        from roughmv import SumOfExponentialsKernel

        with pytest.raises(TypeError):
            fit_sum_of_exponentials(SumOfExponentialsKernel((1.0,), (0.0,)), 5, 10.0)

    # a NaN horizon wrote LAPACK's DLASCL complaint to stderr and raised
    # LinAlgError, an infinite one numpy's "Geometric sequence cannot include zero"
    @pytest.mark.parametrize("n_factors,horizon,field", [
        (5, math.nan, "horizon"), (5, math.inf, "horizon"), (5, 0.0, "horizon"),
        (2.5, 1.0, "n_factors"), (math.nan, 1.0, "n_factors"),
    ])
    def test_bad_inputs_rejected_by_name(self, n_factors, horizon, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            fit_sum_of_exponentials(FractionalKernel(1.0, 0.6), n_factors, horizon)

    # LiftedFactors(nan) was accepted
    @pytest.mark.parametrize("n_factors", [math.nan, 2.5, 0, True])
    def test_scheme_factor_count_must_be_an_integer(self, n_factors):
        with pytest.raises(ValueError, match="n_factors must be an integer >= 1"):
            LiftedFactors(n_factors)

    def test_scheme_rate_spread_must_be_a_number(self):
        # LiftedFactors(20, [1e4]) constructed
        with pytest.raises(ValueError, match=r"^rate_spread must be a number, got \[10000.0\]$"):
            LiftedFactors(20, [1e4])


# ---------------------------------------------------------------------------
# Wealth simulation
# ---------------------------------------------------------------------------

class TestSimulateWealth:
    def test_zero_strategy_zero_rate_is_constant(self):
        market = make_market()
        grid = TimeGrid(1.0, 250)
        b = simulate_variance(market, LiftedFactors(10), grid, 30, 4)
        b = simulate_wealth(b, market, flat_strategy(grid, 0.0), ConstMVObjective(0.5, 1.0), 1.0)
        np.testing.assert_array_equal(b.wealth[:, -1], np.ones(30))

    def test_zero_strategy_grows_at_risk_free_rate(self):
        market = make_market(rate=0.03)
        grid = TimeGrid(2.0, 500)
        b = simulate_variance(market, LiftedFactors(10), grid, 5, 4)
        b = simulate_wealth(b, market, flat_strategy(grid, 0.0), LogMVObjective(0.5, 2.0), 1.0)
        np.testing.assert_allclose(b.wealth[:, -1], math.exp(0.06), rtol=1e-12)

    def test_martingale_with_stochastic_exposure(self):
        # theta = 0 is outside the market contract, so emulate a driftless
        # book with rate 0 and a strategy whose drift term cancels:
        # const-MV wealth with tiny theta stays a martingale to MC accuracy
        market = make_market(rate=0.0)
        market = dataclasses.replace(market, theta=1e-8)
        grid = TimeGrid(1.0, 250)
        b = simulate_variance(market, LiftedFactors(10), grid, 4000, 21)
        b = simulate_wealth(b, market, flat_strategy(grid, 1.0), ConstMVObjective(0.5, 1.0), 1.0)
        x = b.wealth[:, -1]
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) <= 3.0 * se

    def test_lognormal_closed_form_mean(self):
        # constant variance: sigma ~ 0, kappa ~ 0 freeze nu at nu0
        market = make_market(sigma=1e-12, kappa=1e-12, nu0=0.09, rate=0.01)
        grid = TimeGrid(1.0, 250)
        b = simulate_variance(market, LiftedFactors(20), grid, 4000, 33)
        pi = 0.7
        b = simulate_wealth(b, market, flat_strategy(grid, pi), LogMVObjective(0.5, 1.0), 1.0)
        x = b.wealth[:, -1]
        ref = lognormal_terminal_mean(0.01, market.theta, 0.09, pi, 1.0, 1.0)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - ref) <= 3.0 * se
        # log-wealth drift check too
        drift_ref = (0.01 + market.theta * 0.09 * pi - 0.5 * pi**2 * 0.09) * 1.0
        l = b.log_wealth[:, -1]
        se_l = l.std(ddof=1) / math.sqrt(l.size)
        assert abs(l.mean() - drift_ref) <= 3.0 * se_l

    def test_consumption_drains_wealth(self):
        market = make_market(rate=0.0)
        grid = TimeGrid(2.0, 500)
        obj = NonExpLogObjective(ExponentialDiscount(0.0), 2.0)
        b = simulate_variance(market, LiftedFactors(10), grid, 5, 4)
        consumption = np.full(grid.n_steps + 1, 0.05)
        b2 = simulate_wealth(b, market, flat_strategy(grid, 0.0, consumption), obj, 1.0)
        np.testing.assert_allclose(b2.wealth[:, -1], math.exp(-0.1), rtol=1e-12)
        with pytest.raises(ValueError, match="consumption"):
            simulate_wealth(b, market, flat_strategy(grid, 0.0), obj, 1.0)

    @pytest.mark.parametrize("objective", [ConstMVObjective(0.5, 1.0),
                                           LogMVObjective(0.5, 1.0),
                                           LogMVObjective(0.5, 1.0, delta=2.0)])
    def test_consumption_is_read_only_by_the_consumption_problem(self, objective):
        market = make_market(rate=0.01)
        grid = TimeGrid(1.0, 100)
        b = simulate_variance(market, LiftedFactors(10), grid, 5, 4)
        consumption = np.full(grid.n_steps + 1, 0.05)
        with_c = simulate_wealth(b, market, flat_strategy(grid, 0.5, consumption), objective, 1.0)
        without = simulate_wealth(b, market, flat_strategy(grid, 0.5), objective, 1.0)
        assert np.array_equal(with_c.wealth, without.wealth)

    def test_log_mv_delta_changes_paths(self):
        market = make_market()
        grid = TimeGrid(1.0, 250)
        b = simulate_variance(market, LiftedFactors(10), grid, 10, 4)
        w1 = simulate_wealth(b, market, flat_strategy(grid, 0.5), LogMVObjective(0.5, 1.0), 1.0)
        w2 = simulate_wealth(b, market, flat_strategy(grid, 0.5),
                             LogMVObjective(0.5, 1.0, delta=2.0), 1.0)
        assert not np.array_equal(w1.wealth, w2.wealth)

    @pytest.mark.parametrize("delta", [0.1, 0.5])
    def test_log_mv_delta_at_most_half_rejected(self, delta):
        # the log-wealth coefficients diverge (delta < 1/2) or are lost
        # (delta = 1/2) at the truncated nu = 0, which this market reaches
        market = make_market(sigma=1.5, nu0=0.02)
        grid = TimeGrid(0.5, 10)
        b = simulate_variance(market, LiftedFactors(5), grid, 4, 7)
        assert (b.variance == 0.0).any()
        with pytest.raises(ValueError, match="delta > 1/2"):
            simulate_wealth(b, market, flat_strategy(grid, 0.3),
                            LogMVObjective(0.5, 0.5, delta=delta), 1.0)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, 0.0])
    def test_initial_wealth_must_be_finite_and_positive(self, x0):
        # x0 = NaN returned NaN wealth
        market, grid = make_market(), TimeGrid(0.5, 4)
        bundle = simulate_variance(market, LiftedFactors(2), grid, 2, 1)
        with pytest.raises(ValueError, match="x0 must be finite and > 0"):
            simulate_wealth(bundle, market, flat_strategy(grid, 1.0),
                            ConstMVObjective(0.5, 0.5), x0)

    def test_grid_mismatch_rejected(self):
        market = make_market()
        b = simulate_variance(market, LiftedFactors(10), TimeGrid(1.0, 250), 3, 4)
        with pytest.raises(ValueError, match="grid"):
            simulate_wealth(b, market, flat_strategy(TimeGrid(1.0, 100), 0.0),
                            ConstMVObjective(0.5, 1.0), 1.0)


# ---------------------------------------------------------------------------
# Terminal statistics and exports
# ---------------------------------------------------------------------------

class TestTerminalStats:
    @pytest.mark.parametrize("value", [5e300, np.inf])
    def test_unbinnable_range_is_named(self, value):
        with pytest.raises(ValueError, match="terminal wealth range"):
            terminal_stats(np.array([1.0, value] if value == np.inf else [value] * 3))

    def test_a_bool_is_no_wealth(self):
        # [True, False, True] had mean 0.667
        with pytest.raises(ValueError, match="^terminal wealth range must be a number, got "):
            terminal_stats([True, False, True])

    @pytest.mark.parametrize("n_bins", [2.5, 0, True])
    def test_bin_count_must_be_an_integer(self, n_bins):
        # 2.5 raised numpy's "`bins` must be an integer, a string, or an array"
        with pytest.raises(ValueError, match="n_bins must be an integer >= 1"):
            terminal_stats(np.array([1.0, 2.0, 3.0]), n_bins=n_bins)

    def test_identical_paths(self):
        st_ = terminal_stats(np.full(5, 2.5), n_bins=4)
        assert st_.mean == 2.5 and st_.variance == 0.0
        assert st_.histogram[1].sum() == 5

    def test_two_paths_hand_computed(self):
        st_ = terminal_stats(np.array([1.0, 3.0]), n_bins=2)
        assert st_.mean == 2.0
        assert st_.variance == 2.0  # unbiased
        assert st_.histogram[1].tolist() == [1, 1]

    def test_single_path_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            terminal_stats(np.ones(1))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=12))
    def test_histogram_counts_sum_to_paths(self, n_paths, n_bins):
        rng = np.random.default_rng(n_paths * 100 + n_bins)
        terminal = rng.lognormal(size=(n_paths, 2))[:, -1]
        st_ = terminal_stats(terminal, n_bins=n_bins)
        assert st_.histogram[1].sum() == n_paths
        assert st_.variance >= 0.0


class TestExports:
    def test_csv_round_trip(self):
        import io

        market = make_market()
        grid = TimeGrid(0.5, 10)
        b = simulate_variance(market, LiftedFactors(5), grid, 3, 7)
        b = simulate_wealth(b, market, flat_strategy(grid, 0.3), ConstMVObjective(0.5, 0.5), 1.0)
        text = paths_csv(b)
        assert text.splitlines()[0] == "path_id,t,nu,wealth"
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        assert data.shape == (3 * 11, 4)
        np.testing.assert_array_equal(data[:11, 2], b.variance[0])
        np.testing.assert_array_equal(data[:11, 3], b.wealth[0])

    @pytest.mark.parametrize("with_wealth", [True, False])
    def test_csv_matches_per_element_formatting(self, with_wealth):
        market = make_market(sigma=1.5, nu0=0.02)  # truncated zeros among the values
        grid = TimeGrid(0.5, 10)
        b = simulate_variance(market, LiftedFactors(5), grid, range(3, 7), 7)
        if with_wealth:
            b = simulate_wealth(b, market, flat_strategy(grid, 0.3),
                                LogMVObjective(0.5, 0.5), 1.0)
        lines = ["path_id,t,nu,wealth"]
        for k, p in enumerate(b.paths):
            for j, t in enumerate(grid.nodes()):
                w = "" if b.wealth is None else repr(float(b.wealth[k, j]))
                lines.append(f"{p},{repr(float(t))},{repr(float(b.variance[k, j]))},{w}")
        assert paths_csv(b) == "\n".join(lines) + "\n"


class TestFitDegenerate:
    def test_duplicated_rates_raise(self):
        # a unit rate spread collapses the geometric ladder onto one rate,
        # which fewer factors would not cure
        with pytest.raises(RuntimeError, match=r"rank 1 < 3\): the rates coincide; widen rate_spread"):
            fit_sum_of_exponentials(FractionalKernel(1.0, 0.6), 3, 10.0, rate_spread=1.0)

    def test_too_many_factors_raise(self):
        # as many factors as fit points: the design is square but its rank short
        with pytest.raises(RuntimeError, match=rf"< {_FIT_POINTS}\): try fewer factors"):
            fit_sum_of_exponentials(FractionalKernel(1.0, 0.6), _FIT_POINTS, 10.0)

    def test_more_factors_than_fit_points_raise_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError,
                               match=rf"rank <= {_FIT_POINTS} < 20000\): try fewer factors"):
                fit_sum_of_exponentials(FractionalKernel(1.0, 0.6), 20_000, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the design alone would be 400 x 20000 doubles, 64 MB

    def test_metadata_reports_squared_integral(self):
        market = make_market(hurst=0.1)
        b = simulate_variance(market, LiftedFactors(20), TimeGrid(1.0, 50), 2, 1)
        assert b.metadata["kernel_fit_sq_integral"] > 0.0


class TestMeanDynamics:
    @pytest.mark.parametrize("hurst", [0.1, 0.5])
    def test_terminal_mean_matches_semi_analytic(self, hurst):
        # E[X_T] = e^{rT} x0 + theta int e^{r(T-s)} total(s) Enu(s) ds with
        # Enu(s) = phi + (nu0 - phi) E_{alpha,1}(-kappa s^alpha): a joint check
        # of the strategy curve, the variance scheme, and the wealth Euler step
        from roughmv import const_mv_strategy, mittag_leffler

        market = make_market(nu0=0.09, kappa=1.0, rho=0.7, rate=0.01, hurst=hurst)
        horizon = 2.0
        grid = TimeGrid(horizon, 500)
        strat = const_mv_strategy(market, 0.5, grid)
        b = simulate_variance(market, LiftedFactors(20), grid, 4000, 55)
        b = simulate_wealth(b, market, strat, ConstMVObjective(0.5, horizon), 1.0)
        x = b.wealth[:, -1]

        alpha = market.kernel.alpha
        s = grid.nodes()
        mean_nu = market.phi + (market.nu0 - market.phi) * np.array(
            [mittag_leffler(alpha, 1.0, -market.kappa * v**alpha) if v > 0 else 1.0
             for v in s]
        )
        integrand = np.exp(0.01 * (horizon - s)) * strat.total * mean_nu
        ref = math.exp(0.01 * horizon) + market.theta * np.trapezoid(integrand, s)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - ref) <= 3.0 * se
