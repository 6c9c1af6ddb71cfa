import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmv import (
    ConstMVObjective,
    ExponentialDiscount,
    FractionalKernel,
    HyperbolicDiscount,
    LogMVObjective,
    MarketParams,
    NonExpLogObjective,
    RateCurve,
    RiccatiCoefficients,
    StrategyCurve,
    TabulatedDiscount,
    ThetaCurve,
    TimeGrid,
    admissibility_constant,
    const_mv_strategy,
    fit_sum_of_exponentials,
    integrated_resolvent_ratio_curve,
    log_mv_existence_margin,
    log_mv_strategy,
    nonexp_forward_variance,
    nonexp_log_strategy,
    nonexp_value_coeffs,
    prefer_rough_crossover,
    strategy_to_csv,
    strategy_to_json,
)
from roughmv.cli import _strategy_for
from roughmv.strategies import TEXT_PIECE, format_columns, strategy_columns
from conftest import STUDY, study_market
from oracles import (
    forward_variance_lifted,
    forward_variance_reference,
    heston_const_mv_total,
    heston_log_mv_curves,
    hyperbolic_integral_reference,
)

TH, GAM, T = STUDY["theta"], STUDY["gamma"], STUDY["horizon"]


# ---------------------------------------------------------------------------
# Market plumbing
# ---------------------------------------------------------------------------

class TestRateCurve:
    def test_flat_integral(self):
        c = RateCurve.flat(0.02)
        assert c.cumulative(np.array([0.0, 1.0, 3.5])) == pytest.approx([0.0, 0.02, 0.07])

    def test_piecewise_integral(self):
        c = RateCurve((0.0, 1.0, 2.0), (0.01, 0.03, 0.0))
        lo, hi = c.cumulative(np.array([0.5, 2.5]))
        assert lo == pytest.approx(0.5 * 0.01)
        assert hi - lo == pytest.approx(0.5 * 0.01 + 1.0 * 0.03)
        assert c.values_at(np.array([0.5, 1.5, 9.0])).tolist() == [0.01, 0.03, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            RateCurve((0.5,), (0.01,))
        with pytest.raises(ValueError):
            RateCurve((0.0, 0.0), (0.01, 0.02))
        with pytest.raises(ValueError):
            RateCurve((0.0,), (-0.01,))


class TestMarketValidation:
    def test_theta_nonzero(self):
        with pytest.raises(ValueError):
            MarketParams(0.04, 0.3, 0.04, 0.3, -0.7, 0.0, RateCurve.flat(0.0),
                         FractionalKernel(1.0, 0.6))

    def test_rho_range(self):
        with pytest.raises(ValueError):
            MarketParams(0.04, 0.3, 0.04, 0.3, -1.2, 1.5, RateCurve.flat(0.0),
                         FractionalKernel(1.0, 0.6))

    # True was kept as rho = True, and ran as 1
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
    def test_non_finite_rejected_by_name(self, bad):
        market = study_market(0.1)
        rule = "a number" if bad is True else "finite"
        for name in ("nu0", "kappa", "phi", "sigma", "rho", "theta"):
            with pytest.raises(ValueError, match=f"{name} must be {rule}"):
                dataclasses.replace(market, **{name: bad})
        for make, name in [
            (lambda: ConstMVObjective(bad, 1.0), "gamma"),
            (lambda: ConstMVObjective(0.5, bad), "horizon"),
            (lambda: LogMVObjective(bad, 1.0), "gamma"),
            (lambda: LogMVObjective(0.5, bad), "horizon"),
            (lambda: LogMVObjective(0.5, 1.0, bad), "delta"),
            (lambda: NonExpLogObjective(ExponentialDiscount(0.1), bad), "horizon"),
        ]:
            with pytest.raises(ValueError, match=f"{name} must be {rule}"):
                make()


# ---------------------------------------------------------------------------
# Const-MV
# ---------------------------------------------------------------------------

class TestConstMV:
    def test_boundary_at_maturity(self, market_rough, grid750):
        curve = const_mv_strategy(market_rough, GAM, grid750)
        assert curve.hedge[-1] == 0.0
        assert curve.total[-1] == pytest.approx(TH / GAM, rel=1e-14)

    def test_rho_zero_kills_hedge(self, grid750):
        curve = const_mv_strategy(study_market(0.1, rho=0.0), GAM, grid750)
        assert np.all(curve.hedge == 0.0)
        np.testing.assert_allclose(curve.total, TH / GAM, rtol=1e-14)

    def test_heston_hedge_at_zero(self, market_smooth, grid750):
        # lam = kappa + rho sigma theta = -0.015; hedge(0) =
        # 0.945 * (1 - e^{0.045})/(-0.015), frozen from the exp oracle
        curve = const_mv_strategy(market_smooth, GAM, grid750)
        assert curve.hedge[0] == pytest.approx(2.8997551742491674, rel=1e-12)

    def test_gamma_precondition(self, market_rough, grid750):
        with pytest.raises(ValueError):
            const_mv_strategy(market_rough, 0.0, grid750)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.01, max_value=20.0))
    def test_gamma_scaling(self, gamma):
        grid = TimeGrid(T, 150)
        market = study_market(0.1)
        base = const_mv_strategy(market, gamma, grid)
        double = const_mv_strategy(market, 2.0 * gamma, grid)
        np.testing.assert_allclose(base.total, 2.0 * double.total, rtol=1e-12)

    def test_g1_equals_v1(self, market_rough, grid750):
        curve = const_mv_strategy(market_rough, GAM, grid750)
        np.testing.assert_array_equal(curve.value_coeffs["g1"], curve.value_coeffs["V1"])

    def test_terminal_value_coefficients(self, market_rough, grid750):
        curve = const_mv_strategy(market_rough, GAM, grid750)
        vc = curve.value_coeffs
        assert vc["V1"][-1] == 1.0 and vc["g1"][-1] == 1.0
        assert vc["V0"][-1] == 0.0 and vc["g0"][-1] == 0.0
        assert vc["g2"][-1] == pytest.approx(TH**2 / GAM, rel=1e-14)

    def test_heston_oracle_full_curve(self, grid750):
        market = MarketParams(0.04, STUDY["kappa"], 0.04, STUDY["sigma"], STUDY["rho"],
                              TH, RateCurve.flat(0.0), FractionalKernel(1.0, 1.0))
        curve = const_mv_strategy(market, GAM, grid750)
        ref = heston_const_mv_total(
            TH, STUDY["rho"], STUDY["sigma"], STUDY["kappa"], GAM, T, 0.0,
            T - grid750.nodes(),
        )
        assert np.max(np.abs(curve.total - ref)) <= 1e-6

    def test_nonzero_rate_discounting(self):
        grid = TimeGrid(2.0, 100)
        market = study_market(0.5, rate=0.05)
        curve = const_mv_strategy(market, GAM, grid)
        assert curve.myopic[0] == pytest.approx((TH / GAM) * math.exp(-0.1), rel=1e-13)
        assert curve.value_coeffs["V1"][0] == pytest.approx(math.exp(0.1), rel=1e-13)

    def test_horizon_effect_long_horizon(self):
        grid = TimeGrid(10.0, 2500)
        rough = const_mv_strategy(study_market(0.1), GAM, grid)
        smooth = const_mv_strategy(study_market(0.5), GAM, grid)
        i_near_end = int(np.searchsorted(grid.nodes(), 10.0 - 0.05))
        assert rough.total[0] < smooth.total[0]
        assert rough.total[i_near_end] > smooth.total[i_near_end]


# ---------------------------------------------------------------------------
# Log-MV
# ---------------------------------------------------------------------------

class TestLogMV:
    def test_small_gamma_limit(self, market_rough, grid750):
        curve = log_mv_strategy(market_rough, 1e-12, grid750)
        np.testing.assert_allclose(curve.total, TH, rtol=1e-9)

    def test_boundary_at_maturity(self, market_rough, grid750):
        curve = log_mv_strategy(market_rough, GAM, grid750)
        assert curve.hedge[-1] == 0.0
        assert curve.total[-1] == pytest.approx(TH / (1.0 + GAM), rel=1e-14)

    def test_hedge_positive_under_leverage(self, market_rough, grid750):
        curve = log_mv_strategy(market_rough, GAM, grid750)
        assert np.all(curve.hedge[:-1] > 0.0)
        assert np.all(curve.total[:-1] > TH / (1.0 + GAM))

    def test_existence_condition_error(self, grid750):
        # kappa + gamma^2 rho sigma theta/(1+gamma)^2 <= 0 must be rejected
        market = study_market(0.1, rho=-0.9, kappa=0.05)
        gamma = 5.0
        assert log_mv_existence_margin(market, gamma) <= 0
        with pytest.raises(ValueError, match="existence"):
            log_mv_strategy(market, gamma, grid750)

    def test_existence_margin_is_minus_h1(self):
        # one formula: the margin is -H1 of the Riccati coefficients, the
        # paper's kappa + gamma^2 rho sigma theta / (1+gamma)^2 bit for bit
        for rho in (-1.0, -0.7, 0.0, 0.3, 1.0):
            for kappa in (0.05, 0.3, 3.0):
                for gamma in (0.05, 0.5, 5.0, 50.0):
                    market = study_market(0.1, rho=rho, kappa=kappa)
                    coeffs = RiccatiCoefficients.log_mv(
                        kappa, rho, market.sigma, market.theta, gamma)
                    paper = kappa + gamma**2 * rho * market.sigma * market.theta \
                        / (1.0 + gamma) ** 2
                    margin = log_mv_existence_margin(market, gamma)
                    assert margin.hex() == (-coeffs.H1).hex() == paper.hex()
                    assert (coeffs.H2 == 0.0) == (rho == 0.0)

    def test_delta_does_not_change_coefficient(self, market_rough, grid750):
        # the objective's delta reaches the simulator, not the strategy
        base = _strategy_for(market_rough, LogMVObjective(GAM, T, 1.0), grid750)
        gen = _strategy_for(market_rough, LogMVObjective(GAM, T, 2.0), grid750)
        np.testing.assert_array_equal(base.total, gen.total)

    def test_heston_oracle_curves(self):
        grid = TimeGrid(T, 3000)
        market = MarketParams(0.04, STUDY["kappa"], 0.04, STUDY["sigma"], STUDY["rho"],
                              TH, RateCurve.flat(0.0), FractionalKernel(1.0, 1.0))
        curve = log_mv_strategy(market, GAM, grid)
        taus = T - grid.nodes()
        psi_ref, v2_ref, v0_ref, g0_ref = heston_log_mv_curves(
            TH, STUDY["rho"], STUDY["sigma"], STUDY["kappa"], 0.04, GAM, 0.0, taus
        )
        total_ref = TH / (1.0 + GAM) - GAM * STUDY["rho"] * STUDY["sigma"] / (1.0 + GAM) * psi_ref
        assert np.max(np.abs(curve.total - total_ref)) <= 1e-6
        assert np.max(np.abs(curve.value_coeffs["V2"] - v2_ref)) <= 1e-6
        assert np.max(np.abs(curve.value_coeffs["V0"] - v0_ref)) <= 1e-6
        assert np.max(np.abs(curve.value_coeffs["g0"] - g0_ref)) <= 1e-6

    def test_horizon_effect_long_horizon(self):
        grid = TimeGrid(10.0, 2500)
        rough = log_mv_strategy(study_market(0.1), GAM, grid)
        smooth = log_mv_strategy(study_market(0.5), GAM, grid)
        i_near_end = int(np.searchsorted(grid.nodes(), 10.0 - 0.05))
        assert rough.total[0] < smooth.total[0]
        assert rough.total[i_near_end] > smooth.total[i_near_end]


# ---------------------------------------------------------------------------
# Non-exponential discounting
# ---------------------------------------------------------------------------

class TestNonExpStrategy:
    def test_unit_discount(self, market_rough, grid750):
        curve = nonexp_log_strategy(market_rough, ExponentialDiscount(0.0), grid750)
        assert curve.kind == "nonexp_log"
        assert curve.consumption[0] == 0.25  # V1(0) = 3 + 1 exactly for h = 1
        assert np.all(curve.total == TH) and np.all(curve.myopic == TH)
        assert np.all(curve.hedge == 0.0)

    def test_exponential_discount_value(self, market_rough):
        grid = TimeGrid(1.0, 250)
        p_hat = nonexp_log_strategy(market_rough, ExponentialDiscount(0.1), grid).consumption
        assert p_hat[0] == pytest.approx(0.53865866002908129, rel=1e-13)

    def test_kernel_invariance_is_bitwise(self, grid750):
        disc = HyperbolicDiscount(0.5, 0.8)
        outs = [
            nonexp_log_strategy(study_market(h), disc, grid750)
            for h in (0.1, 0.5)
        ]
        assert np.array_equal(outs[0].consumption, outs[1].consumption)
        assert np.array_equal(outs[0].total, outs[1].total)

    def test_h0_violation_rejected(self, market_rough, grid750):
        bad = dataclasses.replace(ExponentialDiscount(0.0))
        object.__setattr__(bad, "h", lambda s: np.asarray(s) * 0.0 + 0.999)
        with pytest.raises(ValueError):
            nonexp_log_strategy(market_rough, bad, grid750)

    def test_consumption_rises_toward_maturity(self, market_rough, grid750):
        p_hat = nonexp_log_strategy(market_rough, ExponentialDiscount(0.1), grid750).consumption
        assert np.all(np.diff(p_hat) > 0)
        assert p_hat[-1] == pytest.approx(1.0)  # V1(T) = h(0) = 1


class TestDiscounts:
    def test_hyperbolic_integral(self):
        d = HyperbolicDiscount(0.5, 0.8)
        from scipy.integrate import quad

        ref, _ = quad(lambda s: d.h(s), 0.0, 2.0)
        assert d.integral(2.0) == pytest.approx(ref, rel=1e-10)
        d_eq = HyperbolicDiscount(0.5, 0.5)
        ref2, _ = quad(lambda s: d_eq.h(s), 0.0, 2.0)
        assert d_eq.integral(2.0) == pytest.approx(ref2, rel=1e-10)

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["b_below_a", "b_above_a"])
    def test_hyperbolic_integral_holds_as_b_nears_a(self, sign):
        # c = (a - b)/a from 1e-16 to 1e-1: the former ((1 + a tau)^c - 1)/(a - b)
        # cancelled there (11 % off at c = -1e-13), the expm1/log1p form does not
        a, taus = 0.5, np.linspace(0.0, 3.0, 751)
        for c in [0.0, *np.logspace(-16, -1, 31)]:
            d = HyperbolicDiscount(a, a * (1.0 - sign * c))
            ref = [hyperbolic_integral_reference(d.a, d.b, tau) for tau in taus]
            np.testing.assert_allclose(d.integral(taus), ref, rtol=1e-15, atol=0,
                                       err_msg=f"c = {sign * c}")

    def test_tabulated_renormalizes_tiny_offset(self):
        d = TabulatedDiscount((0.0, 1.0, 2.0), (1.0 + 5e-10, 0.8, 0.5))
        assert d.h(0.0) == 1.0

    def test_tabulated_rejects_large_offset(self):
        with pytest.raises(ValueError):
            TabulatedDiscount((0.0, 1.0), (0.99, 0.5))

    def test_tabulated_integral_matches_trapezoid(self):
        d = TabulatedDiscount((0.0, 1.0, 3.0), (1.0, 0.6, 0.2))
        assert d.integral(3.0) == pytest.approx(0.5 * (1.0 + 0.6) + 2.0 * 0.5 * (0.6 + 0.2))
        assert d.integral(0.5) == pytest.approx(0.5 * 0.5 * (1.0 + 0.8))

    def test_tabulated_integral_keeps_the_input_dimension(self):
        # a one-element array stays an array, as for the other two discounts
        d = TabulatedDiscount((0.0, 1.0, 3.0), (1.0, 0.6, 0.2))
        one = d.integral(np.array([0.5]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert isinstance(d.integral(0.5), float)
        assert one[0] == d.integral(0.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ExponentialDiscount(-0.1)

    @pytest.mark.parametrize(
        "make,field",
        [
            (lambda bad: ExponentialDiscount(bad), "rate"),
            (lambda bad: HyperbolicDiscount(bad, 0.5), "a"),
            (lambda bad: HyperbolicDiscount(0.5, bad), "b"),
            (lambda bad: TabulatedDiscount((0.0, 1.0, 2.0), (1.0, bad, 0.5)), "values"),
            (lambda bad: TabulatedDiscount((0.0, 1.0), (bad, 0.5)), "values"),
            (lambda bad: TabulatedDiscount((0.0, 1.0, bad), (1.0, 0.8, 0.5)), "times"),
        ],
    )
    @pytest.mark.parametrize("bad", [math.nan, math.inf, True])
    def test_non_finite_rejected_by_name(self, make, field, bad):
        rule = "a number" if bad is True else "finite"
        with pytest.raises(ValueError, match=f"{field} must be {rule}"):
            make(bad)

    @pytest.mark.parametrize("make,field", [
        (lambda: TabulatedDiscount("01", (1.0, 0.5)), "times"),
        (lambda: TabulatedDiscount((0.0, 1.0), "10"), "values"),
        (lambda: RateCurve("01", (0.01, 0.02)), "times"),
        (lambda: RateCurve((0.0, 1.0), "12"), "rates"),
        (lambda: RateCurve.flat("0.01"), "rate"),
    ])
    def test_a_string_is_no_sequence_of_numbers(self, make, field):
        # TabulatedDiscount("01", ...) was read as the times (0.0, 1.0)
        with pytest.raises(ValueError, match=f"^{field} must be a number, got '"):
            make()


class TestForwardVariance:
    def test_flat_curve_is_exact(self, market_rough):
        theta_curve = ThetaCurve.flat(0.0, T, market_rough.phi)
        got = nonexp_forward_variance(market_rough, theta_curve, TimeGrid.for_horizon(2.0))
        assert got[-1] == pytest.approx(market_rough.phi * 2.0, abs=1e-15)

    @pytest.mark.parametrize("r", [1.2345, 2.005])
    def test_flat_curve_is_exact_between_samples(self, market_rough, r):
        # r off the grid of 250 steps a year: the grid ends at r
        theta_curve = ThetaCurve.flat(0.0, T, market_rough.phi)
        got = nonexp_forward_variance(market_rough, theta_curve, TimeGrid.for_horizon(r))
        assert got[-1] == pytest.approx(market_rough.phi * r, abs=1e-15)

    @pytest.mark.parametrize("r", [1.2345, 2.005])
    def test_matches_quadrature_oracle(self, market_rough, r):
        times = np.linspace(0.0, T, 301)
        theta_curve = ThetaCurve(0.0, times, 0.04 + 0.03 * np.sin(2.0 * times))
        kernel = market_rough.kernel
        ref = forward_variance_reference(market_rough.kappa, market_rough.phi, kernel.c,
                                         kernel.alpha, times, theta_curve.values, r)
        got = nonexp_forward_variance(market_rough, theta_curve, TimeGrid.for_horizon(r))
        assert abs(got[-1] - ref) <= 1e-6

    def test_multi_term_kernel_matches_the_lifted_ode(self):
        # the resolvent-ratio quadrature this solve replaced was 1.35e-4 off
        kernel, _ = fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 8, 3.0)
        market = MarketParams(0.05, 0.3, 0.04, 0.3, -0.7, 1.5, RateCurve.flat(0.0), kernel)
        got = nonexp_forward_variance(market, ThetaCurve.flat(0.0, 3.0, 0.05), TimeGrid(3.0, 300))
        ref = forward_variance_lifted(kernel.weights, kernel.rates, 0.3, 0.04, 0.05, 3.0)
        assert abs(got[-1] - ref) <= 1e-6

    def test_r_equals_anchor(self, market_rough):
        theta_curve = ThetaCurve.flat(0.0, T, 0.05)
        assert nonexp_forward_variance(market_rough, theta_curve, TimeGrid(T, 200))[0] == 0.0

    def test_vanishing_kappa_reduces_to_theta_integral(self):
        market = MarketParams(0.04, 1e-10, 0.04, 0.3, -0.7, 1.5, RateCurve.flat(0.0),
                              FractionalKernel.from_hurst(0.1))
        for n_samples in (301, 2):  # one linear curve, sampled densely and at its ends
            times = np.linspace(0.0, 3.0, n_samples)
            values = 0.04 + 0.01 * times
            theta_curve = ThetaCurve(0.0, times, values)
            got = nonexp_forward_variance(market, theta_curve, TimeGrid.for_horizon(3.0))
            assert got[-1] == pytest.approx(np.trapezoid(values, times), rel=1e-7)

    def test_out_of_range_rejected(self, market_rough):
        theta_curve = ThetaCurve.flat(0.0, T, 0.04)
        with pytest.raises(ValueError, match="^grid ends at 3.5, past the forward curve's"):
            nonexp_forward_variance(market_rough, theta_curve, TimeGrid.for_horizon(3.5))

    def test_theta_curve_validation(self):
        with pytest.raises(ValueError):
            ThetaCurve(0.0, np.array([0.1, 0.2]), np.array([0.04, 0.04]))
        with pytest.raises(ValueError):
            ThetaCurve(0.0, np.array([0.0, 0.0]), np.array([0.04, 0.04]))


# the multi-term branch takes the same inputs in
# test_kernels.py::TestBatchedResolventRatio::test_rejects_non_finite_tau_and_lambda
RATIO_KERNELS = {
    "one_term": FractionalKernel(1.0, 1.0),
    "fractional": FractionalKernel.from_hurst(0.1),
}
BAD_RATIO_INPUTS = {
    "lam_nan": (math.nan, [0.0, 1.0], "lambda must be finite"),
    "lam_inf": (math.inf, [0.0, 1.0], "lambda must be finite"),
    "tau_nan": (0.5, [0.0, math.nan], "tau values must be finite"),
    "tau_inf": (0.5, [0.0, math.inf], "tau values must be finite"),
}
TIMES, FLAT = np.linspace(0.0, 1.0, 101), np.full(101, 0.04)


def _with(samples, i, bad):
    out = samples.copy()
    out[i] = bad
    return out


NON_FINITE_CASES = [
    *[pytest.param(
        lambda k=kernel, lam=lam, taus=taus: integrated_resolvent_ratio_curve(k, lam, taus),
        match, id=f"ratio-{branch}-{bad}")
      for branch, kernel in RATIO_KERNELS.items()
      for bad, (lam, taus, match) in BAD_RATIO_INPUTS.items()],
    pytest.param(lambda: ThetaCurve(math.nan, TIMES, FLAT), "anchor must be finite",
                 id="theta-anchor-nan"),
    pytest.param(lambda: ThetaCurve(math.inf, TIMES, FLAT), "anchor must be finite",
                 id="theta-anchor-inf"),
    pytest.param(lambda: ThetaCurve(0.0, _with(TIMES, 50, math.nan), FLAT),
                 "times must be finite", id="theta-time-nan"),
    pytest.param(lambda: ThetaCurve(0.0, _with(TIMES, -1, math.inf), FLAT),
                 "times must be finite", id="theta-time-inf"),
    pytest.param(lambda: ThetaCurve(0.0, TIMES, _with(FLAT, 50, math.nan)),
                 "values must be finite", id="theta-value-nan"),
    pytest.param(lambda: ThetaCurve(0.0, TIMES, _with(FLAT, 0, math.inf)),
                 "values must be finite", id="theta-value-inf"),
    # each was converted first: True ran as 1.0, "0.05" as its number, and a
    # ragged list raised numpy's "setting an array element with a sequence"
    pytest.param(lambda: ThetaCurve(0.0, [0.0, 1.0], [0.04, True]),
                 r"^values must be a number, got \[0.04, True\]$", id="theta-value-bool"),
    pytest.param(lambda: ThetaCurve.flat(0.0, 1.0, "0.05"),
                 "^value must be a number, got '0.05'$", id="theta-flat-value-string"),
    pytest.param(lambda: integrated_resolvent_ratio_curve(RATIO_KERNELS["fractional"], 0.5,
                                                          [0.0, [1.0]]),
                 r"^tau values must be a 1-d sequence of numbers, got \[0.0, \[1.0\]\]$",
                 id="ratio-tau-ragged"),
    # a NaN gamma was refused as "forcing must be finite on the grid" or
    # "psi diverged at node 1", a NaN p or theta returned a NaN constant, and
    # the existence margin of a NaN gamma was NaN
    pytest.param(lambda: const_mv_strategy(study_market(0.1), math.nan, TimeGrid(1.0, 10)),
                 "gamma must be finite and > 0", id="const-mv-gamma-nan"),
    pytest.param(lambda: log_mv_strategy(study_market(0.1), math.nan, TimeGrid(1.0, 10)),
                 "gamma must be finite and > 0", id="log-mv-gamma-nan"),
    pytest.param(lambda: admissibility_constant(1.5, log_mv_strategy(
        study_market(0.1), 0.5, TimeGrid(1.0, 10)), math.nan),
                 "p must be finite", id="admissibility-p-nan"),
    pytest.param(lambda: admissibility_constant(math.nan, log_mv_strategy(
        study_market(0.1), 0.5, TimeGrid(1.0, 10)), 2.0),
                 "theta must be finite", id="admissibility-theta-nan"),
    pytest.param(lambda: log_mv_existence_margin(study_market(0.1), math.nan),
                 "gamma must be finite and > 0", id="log-mv-margin-gamma-nan"),
]


@pytest.mark.parametrize("call,match", NON_FINITE_CASES)
def test_non_finite_input_rejected_by_name(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestNonExpValueCoeffs:
    def test_boundary_and_f1(self, market_rough):
        theta_curve = ThetaCurve.flat(0.0, T, 0.04)
        vc = nonexp_value_coeffs(market_rough, ExponentialDiscount(0.0), theta_curve,
                                 TimeGrid(T, 300))
        assert vc.f1[-1] == 1.0  # h(T - T)
        assert vc.V1[0] == pytest.approx(T + 1.0)
        # c1 is h at the lags r_i - s_j = i - j cells, h(0) = 1 on the diagonal
        assert vc.c1.shape == vc.c2.shape == (301,)
        assert vc.c1[0] == 1.0

    def test_f2_at_anchor_equals_maturity_value_zero_theta(self):
        # theta != 0 is required by the market type; take theta tiny and
        # verify f2 -> -ln(T - t + 1) with h = 1, zero rate, flat forward curve
        market = MarketParams(0.04, 0.3, 0.04, 0.3, -0.7, 1e-9, RateCurve.flat(0.0),
                              FractionalKernel.from_hurst(0.1))
        theta_curve = ThetaCurve.flat(0.0, T, 0.04)
        vc = nonexp_value_coeffs(market, ExponentialDiscount(0.0), theta_curve,
                                 TimeGrid(T, 600))
        assert vc.f2[0] == pytest.approx(-math.log(T + 1.0), rel=1e-5)

    def test_f2_linear_in_theta_squared(self):
        theta_curve = ThetaCurve.flat(0.0, T, 0.04)
        grid = TimeGrid(T, 300)
        markets = [
            MarketParams(0.04, 0.3, 0.04, 0.3, -0.7, th, RateCurve.flat(0.0),
                         FractionalKernel.from_hurst(0.1))
            for th in (1.5, 1.5 * math.sqrt(2.0))
        ]
        parts = []
        for market in markets:
            vc = nonexp_value_coeffs(market, ExponentialDiscount(0.0), theta_curve, grid)
            base = vc.f1[0] * np.trapezoid(0.0 - 1.0 / vc.V1, dx=grid.spacing)
            parts.append(vc.f2[0] - base)
        assert parts[1] / parts[0] == pytest.approx(2.0, rel=1e-12)

    def test_stepped_rate_integrates_exactly(self, market_rough):
        # the bracket c2 holds int_0^r rate as RateCurve.cumulative does: the
        # trapezoid over the rate's values was 5.2e-5 off from the step on
        stepped = RateCurve((0.0, 1.0037), (0.01, 0.05))
        grid, theta_curve = TimeGrid(T, 300), ThetaCurve.flat(0.0, T, 0.04)
        got, ref = (nonexp_value_coeffs(dataclasses.replace(market_rough, rate_curve=curve),
                                        HyperbolicDiscount(0.5, 0.8), theta_curve, grid)
                    for curve in (stepped, RateCurve.flat(0.0)))
        np.testing.assert_allclose(got.c2 - ref.c2, stepped.cumulative(grid.nodes()),
                                   rtol=0, atol=1e-14)

    def test_traced_peak_without_the_lag_matrices(self, market_rough):
        # 1200 cells: the (n+1)^2 lag, c1 and c2 matrices traced 44 MB
        theta_curve = ThetaCurve.flat(0.0, T, 0.05)
        grid = TimeGrid(T, 1200)
        tracemalloc.start()
        try:
            nonexp_value_coeffs(market_rough, HyperbolicDiscount(0.5, 0.8), theta_curve, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6

    @pytest.mark.parametrize("discount", [ExponentialDiscount(0.1), HyperbolicDiscount(0.5, 0.8)],
                             ids=["exponential", "hyperbolic"])
    @pytest.mark.parametrize("anchor", [0.5, 1.25])
    def test_anchor_after_zero_reads_the_grid_from_the_anchor(self, anchor, discount):
        # a flat rate and a forward curve flat at phi make the problem
        # time-homogeneous: anchor a with T - a to go is anchor 0 on the same grid
        market = study_market(0.1, rate=0.02)
        grid = TimeGrid(T - anchor, 300)
        got = nonexp_value_coeffs(market, discount,
                                  ThetaCurve.flat(anchor, T, market.phi), grid)
        ref = nonexp_value_coeffs(market, discount,
                                  ThetaCurve.flat(0.0, T - anchor, market.phi), grid)
        np.testing.assert_allclose(got.s_nodes - anchor, ref.s_nodes, rtol=0, atol=1e-12)
        for name in ("V1", "f1", "f2", "c1", "c2", "V2"):
            np.testing.assert_allclose(getattr(got, name), getattr(ref, name),
                                       rtol=0, atol=1e-12, err_msg=name)


# ---------------------------------------------------------------------------
# Crossover and admissibility
# ---------------------------------------------------------------------------

class TestCrossover:
    def test_identical_kernels_return_none(self, market_rough, grid750):
        curve = const_mv_strategy(market_rough, GAM, grid750)
        assert prefer_rough_crossover(curve, curve) is None

    def test_const_mv_gamma_invariance(self, market_rough, market_smooth, grid750):
        stars = [
            prefer_rough_crossover(const_mv_strategy(market_rough, g, grid750),
                                   const_mv_strategy(market_smooth, g, grid750))
            for g in (0.1, 1.0, 10.0)
        ]
        assert stars[0] is not None
        assert max(stars) - min(stars) <= grid750.spacing

    def test_log_mv_more_risk_averse_prefers_rough_earlier(
        self, market_rough, market_smooth, grid750
    ):
        t_low, t_high = (
            prefer_rough_crossover(log_mv_strategy(market_rough, g, grid750),
                                   log_mv_strategy(market_smooth, g, grid750))
            for g in (0.5, 5.0)
        )
        assert t_high < t_low

    def test_curves_on_different_grids_rejected(self, market_rough, market_smooth, grid750):
        rough = const_mv_strategy(market_rough, GAM, grid750)
        smooth = const_mv_strategy(market_smooth, GAM, TimeGrid(T, 300))
        with pytest.raises(ValueError, match="share their grid"):
            prefer_rough_crossover(rough, smooth)


class TestAdmissibility:
    @staticmethod
    def _flat_curve(grid, level):
        from roughmv import StrategyCurve

        coef = np.full(grid.n_steps + 1, float(level))
        return StrategyCurve(grid, coef, np.zeros_like(coef), kind="test")

    def test_zero_strategy(self, grid750):
        assert admissibility_constant(TH, self._flat_curve(grid750, 0.0), 2.0) == 0.0

    @pytest.mark.parametrize(
        "level,expected", [(1.0, 28.0), (0.1, 0.6)]
    )
    def test_constant_strategy_values(self, grid750, level, expected):
        flat = self._flat_curve(grid750, level)
        assert admissibility_constant(1.5, flat, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_p_must_exceed_one(self, market_rough, grid750):
        curve = log_mv_strategy(market_rough, GAM, grid750)
        with pytest.raises(ValueError):
            admissibility_constant(TH, curve, 1.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_csv_round_trip_lossless(self, market_rough, grid750):
        curve = const_mv_strategy(market_rough, GAM, grid750)
        text = strategy_to_csv(curve)
        header, *rows = text.strip().split("\n")
        assert header.split(",") == [
            "t", "myopic", "hedge", "total", "V1", "V2", "V0", "g1", "g2", "g0",
        ]
        parsed = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
        np.testing.assert_array_equal(parsed[:, 0], grid750.nodes())
        np.testing.assert_array_equal(parsed[:, 3], curve.total)
        np.testing.assert_array_equal(parsed[:, 8], curve.value_coeffs["g2"])

    def test_log_mv_columns(self, market_rough, grid750):
        curve = log_mv_strategy(market_rough, GAM, grid750)
        header = strategy_to_csv(curve).split("\n", 1)[0]
        assert header.split(",") == ["t", "myopic", "hedge", "total", "V2", "V0", "g0"]

    def test_json_round_trip(self, market_rough, grid750):
        import json

        curve = const_mv_strategy(market_rough, GAM, grid750)
        payload = json.loads(strategy_to_json(curve))
        assert payload["kind"] == "const_mv"
        np.testing.assert_array_equal(np.array(payload["total"]), curve.total)

    def test_json_bytes_equal_the_indenting_encoder(self, market_rough, grid750):
        # strategy_to_json writes with the C encoder; json.dumps(indent=2) is
        # the reference layout, float repr and NaN/Infinity spelling
        import json

        n = grid750.n_steps + 1
        odd = np.linspace(-1.0, 1.0, n)
        odd[:5] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
        curves = [
            const_mv_strategy(market_rough, GAM, grid750),
            log_mv_strategy(market_rough, GAM, grid750),
            StrategyCurve(grid750, np.ones(n), np.zeros(n),
                          {"V1": odd, "g0": np.full(n, 1e300)}, kind="edge \"case\""),
        ]
        for curve in curves:
            payload = {k: np.asarray(v, dtype=float).tolist()
                       for k, v in strategy_columns(curve).items()}
            payload["kind"] = curve.kind
            assert strategy_to_json(curve) == json.dumps(payload, sort_keys=True, indent=2)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 751])
    def test_formatted_columns_are_the_reprs_of_their_values(self, n):
        # constant and repeated columns are formatted once and shared; bits,
        # not ==, decide, so -0.0 and 0.0 and the spellings of NaN and inf
        # come out as repr writes them value by value
        rng = np.random.default_rng(7)
        values = rng.standard_normal(n)
        signed_zeros = np.where(np.arange(n) % 2, -0.0, 0.0)  # all +0.0 at n = 1
        odd = rng.choice([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.5], n)
        cols = {
            "values": values,
            "values again": values.copy(),
            "zeros": np.zeros(n),
            "negative zeros": np.full(n, -0.0),
            "signed zeros": signed_zeros,
            "zeros again": np.zeros(n),
            "nan": np.full(n, np.nan),
            "negative nan": np.full(n, -np.nan),
            "inf": np.full(n, np.inf),
            "minus inf": np.full(n, -np.inf),
            "constant": np.full(n, 0.1),
            "odd": odd,
            "odd again": odd.copy(),
        }
        text = format_columns(cols)
        assert list(text) == list(cols)
        for name, col in cols.items():
            reprs = [repr(float(v)) for v in col]
            pieces = [", ".join(reprs[lo : lo + TEXT_PIECE]) for lo in range(0, n, TEXT_PIECE)]
            assert text[name] == pieces, name
        assert text["values again"] is text["values"]
        assert text["zeros again"] is text["zeros"]
        assert (text["signed zeros"] is text["zeros"]) == (n == 1)
