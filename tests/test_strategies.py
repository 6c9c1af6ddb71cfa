import dataclasses
import io
import math

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
    StrategyCurve,
    TabulatedDiscount,
    ThetaCurve,
    TimeGrid,
    admissibility_constant,
    const_mv_strategy,
    log_mv_existence_margin,
    log_mv_strategy,
    nonexp_forward_variance,
    nonexp_log_strategy,
    nonexp_value_coeffs,
    prefer_rough_crossover,
    strategy_to_csv,
    strategy_to_json,
)
from roughmv.strategies import TEXT_PIECE, format_columns, strategy_columns
from conftest import STUDY, study_market
from oracles import heston_const_mv_total, heston_log_mv_curves

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, bad):
        market = study_market(0.1)
        for name in ("nu0", "kappa", "phi", "sigma", "rho", "theta"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                dataclasses.replace(market, **{name: bad})
        for make, name in [
            (lambda: ConstMVObjective(bad, 1.0), "gamma"),
            (lambda: ConstMVObjective(0.5, bad), "horizon"),
            (lambda: LogMVObjective(bad, 1.0), "gamma"),
            (lambda: LogMVObjective(0.5, bad), "horizon"),
            (lambda: LogMVObjective(0.5, 1.0, bad), "delta"),
            (lambda: NonExpLogObjective(ExponentialDiscount(0.1), bad), "horizon"),
        ]:
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                make()


# ---------------------------------------------------------------------------
# Const-MV
# ---------------------------------------------------------------------------

class TestConstMV:
    def test_boundary_at_maturity(self, market_rough, grid750):
        curve = const_mv_strategy(market_rough, GAM, T, grid750)
        assert curve.hedge[-1] == 0.0
        assert curve.total[-1] == pytest.approx(TH / GAM, rel=1e-14)

    def test_rho_zero_kills_hedge(self, grid750):
        curve = const_mv_strategy(study_market(0.1, rho=0.0), GAM, T, grid750)
        assert np.all(curve.hedge == 0.0)
        np.testing.assert_allclose(curve.total, TH / GAM, rtol=1e-14)

    def test_heston_hedge_at_zero(self, market_smooth, grid750):
        # lam = kappa + rho sigma theta = -0.015; hedge(0) =
        # 0.945 * (1 - e^{0.045})/(-0.015), frozen from the exp oracle
        curve = const_mv_strategy(market_smooth, GAM, T, grid750)
        assert curve.hedge[0] == pytest.approx(2.8997551742491674, rel=1e-12)

    def test_gamma_precondition(self, market_rough, grid750):
        with pytest.raises(ValueError):
            const_mv_strategy(market_rough, 0.0, T, grid750)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.01, max_value=20.0))
    def test_gamma_scaling(self, gamma):
        grid = TimeGrid(0.0, T, 150)
        market = study_market(0.1)
        base = const_mv_strategy(market, gamma, T, grid)
        double = const_mv_strategy(market, 2.0 * gamma, T, grid)
        np.testing.assert_allclose(base.total, 2.0 * double.total, rtol=1e-12)

    def test_g1_equals_v1(self, market_rough, grid750):
        curve = const_mv_strategy(market_rough, GAM, T, grid750)
        np.testing.assert_array_equal(curve.value_coeffs["g1"], curve.value_coeffs["V1"])

    def test_terminal_value_coefficients(self, market_rough, grid750):
        curve = const_mv_strategy(market_rough, GAM, T, grid750)
        vc = curve.value_coeffs
        assert vc["V1"][-1] == 1.0 and vc["g1"][-1] == 1.0
        assert vc["V0"][-1] == 0.0 and vc["g0"][-1] == 0.0
        assert vc["g2"][-1] == pytest.approx(TH**2 / GAM, rel=1e-14)

    def test_heston_oracle_full_curve(self, grid750):
        market = MarketParams(0.04, STUDY["kappa"], 0.04, STUDY["sigma"], STUDY["rho"],
                              TH, RateCurve.flat(0.0), FractionalKernel(1.0, 1.0))
        curve = const_mv_strategy(market, GAM, T, grid750)
        ref = heston_const_mv_total(
            TH, STUDY["rho"], STUDY["sigma"], STUDY["kappa"], GAM, T, 0.0,
            T - grid750.nodes(),
        )
        assert np.max(np.abs(curve.total - ref)) <= 1e-6

    def test_nonzero_rate_discounting(self):
        grid = TimeGrid(0.0, 2.0, 100)
        market = study_market(0.5, rate=0.05)
        curve = const_mv_strategy(market, GAM, 2.0, grid)
        assert curve.myopic[0] == pytest.approx((TH / GAM) * math.exp(-0.1), rel=1e-13)
        assert curve.value_coeffs["V1"][0] == pytest.approx(math.exp(0.1), rel=1e-13)

    def test_horizon_effect_long_horizon(self):
        grid = TimeGrid(0.0, 10.0, 2500)
        rough = const_mv_strategy(study_market(0.1), GAM, 10.0, grid)
        smooth = const_mv_strategy(study_market(0.5), GAM, 10.0, grid)
        i_near_end = int(np.searchsorted(grid.nodes(), 10.0 - 0.05))
        assert rough.total[0] < smooth.total[0]
        assert rough.total[i_near_end] > smooth.total[i_near_end]

    def test_grid_horizon_mismatch(self, market_rough):
        with pytest.raises(ValueError):
            const_mv_strategy(market_rough, GAM, 3.0, TimeGrid(0.0, 2.0, 100))


# ---------------------------------------------------------------------------
# Log-MV
# ---------------------------------------------------------------------------

class TestLogMV:
    def test_small_gamma_limit(self, market_rough, grid750):
        curve = log_mv_strategy(market_rough, 1e-12, 1.0, T, grid750)
        np.testing.assert_allclose(curve.total, TH, rtol=1e-9)

    def test_boundary_at_maturity(self, market_rough, grid750):
        curve = log_mv_strategy(market_rough, GAM, 1.0, T, grid750)
        assert curve.hedge[-1] == 0.0
        assert curve.total[-1] == pytest.approx(TH / (1.0 + GAM), rel=1e-14)

    def test_hedge_positive_under_leverage(self, market_rough, grid750):
        curve = log_mv_strategy(market_rough, GAM, 1.0, T, grid750)
        assert np.all(curve.hedge[:-1] > 0.0)
        assert np.all(curve.total[:-1] > TH / (1.0 + GAM))

    def test_existence_condition_error(self, grid750):
        # kappa + gamma^2 rho sigma theta/(1+gamma)^2 <= 0 must be rejected
        market = study_market(0.1, rho=-0.9, kappa=0.05)
        gamma = 5.0
        assert log_mv_existence_margin(market, gamma) <= 0
        with pytest.raises(ValueError, match="existence"):
            log_mv_strategy(market, gamma, 1.0, T, grid750)

    def test_delta_does_not_change_coefficient(self, market_rough, grid750):
        base = log_mv_strategy(market_rough, GAM, 1.0, T, grid750)
        gen = log_mv_strategy(market_rough, GAM, 2.0, T, grid750)
        np.testing.assert_array_equal(base.total, gen.total)

    def test_heston_oracle_curves(self):
        grid = TimeGrid(0.0, T, 3000)
        market = MarketParams(0.04, STUDY["kappa"], 0.04, STUDY["sigma"], STUDY["rho"],
                              TH, RateCurve.flat(0.0), FractionalKernel(1.0, 1.0))
        curve = log_mv_strategy(market, GAM, 1.0, T, grid)
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
        grid = TimeGrid(0.0, 10.0, 2500)
        rough = log_mv_strategy(study_market(0.1), GAM, 1.0, 10.0, grid)
        smooth = log_mv_strategy(study_market(0.5), GAM, 1.0, 10.0, grid)
        i_near_end = int(np.searchsorted(grid.nodes(), 10.0 - 0.05))
        assert rough.total[0] < smooth.total[0]
        assert rough.total[i_near_end] > smooth.total[i_near_end]


# ---------------------------------------------------------------------------
# Non-exponential discounting
# ---------------------------------------------------------------------------

class TestNonExpStrategy:
    def test_unit_discount(self, market_rough, grid750):
        p_hat, coef = nonexp_log_strategy(market_rough, ExponentialDiscount(0.0), T, grid750)
        assert p_hat[0] == 0.25  # V1(0) = 3 + 1 exactly for h = 1
        assert np.all(coef == TH)

    def test_exponential_discount_value(self, market_rough):
        grid = TimeGrid(0.0, 1.0, 250)
        p_hat, _ = nonexp_log_strategy(market_rough, ExponentialDiscount(0.1), 1.0, grid)
        assert p_hat[0] == pytest.approx(0.53865866002908129, rel=1e-13)

    def test_kernel_invariance_is_bitwise(self, grid750):
        disc = HyperbolicDiscount(0.5, 0.8)
        outs = [
            nonexp_log_strategy(study_market(h), disc, T, grid750)
            for h in (0.1, 0.5)
        ]
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_h0_violation_rejected(self, market_rough, grid750):
        bad = dataclasses.replace(ExponentialDiscount(0.0))
        object.__setattr__(bad, "h", lambda s: np.asarray(s) * 0.0 + 0.999)
        with pytest.raises(ValueError):
            nonexp_log_strategy(market_rough, bad, T, grid750)

    def test_consumption_rises_toward_maturity(self, market_rough, grid750):
        p_hat, _ = nonexp_log_strategy(market_rough, ExponentialDiscount(0.1), T, grid750)
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
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected_by_name(self, make, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            make(bad)


class TestForwardVariance:
    def test_flat_curve_is_exact(self, market_rough):
        theta_curve = ThetaCurve.flat(0.0, T, market_rough.phi, 300)
        got = nonexp_forward_variance(market_rough, theta_curve, 2.0)
        assert got == pytest.approx(market_rough.phi * 2.0, abs=1e-15)

    def test_r_equals_anchor(self, market_rough):
        theta_curve = ThetaCurve.flat(0.0, T, 0.05, 200)
        assert nonexp_forward_variance(market_rough, theta_curve, 0.0) == 0.0

    def test_sparse_curve_rejected(self, market_rough):
        theta_curve = ThetaCurve.flat(0.0, T, 0.05, 60)  # 20 nodes/year
        with pytest.raises(ValueError, match="nodes/year"):
            nonexp_forward_variance(market_rough, theta_curve, 2.0)

    def test_vanishing_kappa_reduces_to_theta_integral(self):
        market = MarketParams(0.04, 1e-10, 0.04, 0.3, -0.7, 1.5, RateCurve.flat(0.0),
                              FractionalKernel.from_hurst(0.1))
        times = np.linspace(0.0, 3.0, 301)
        values = 0.04 + 0.01 * times
        theta_curve = ThetaCurve(0.0, times, values)
        got = nonexp_forward_variance(market, theta_curve, 3.0)
        assert got == pytest.approx(np.trapezoid(values, times), rel=1e-7)

    def test_out_of_range_rejected(self, market_rough):
        theta_curve = ThetaCurve.flat(0.0, T, 0.04, 100)
        with pytest.raises(ValueError):
            nonexp_forward_variance(market_rough, theta_curve, 3.5)

    def test_theta_curve_validation(self):
        with pytest.raises(ValueError):
            ThetaCurve(0.0, np.array([0.1, 0.2]), np.array([0.04, 0.04]))
        with pytest.raises(ValueError):
            ThetaCurve(0.0, np.array([0.0, 0.0]), np.array([0.04, 0.04]))


class TestNonExpValueCoeffs:
    def test_boundary_and_f1(self, market_rough):
        theta_curve = ThetaCurve.flat(0.0, T, 0.04, 300)
        vc = nonexp_value_coeffs(market_rough, ExponentialDiscount(0.0), theta_curve,
                                 TimeGrid(0.0, T, 300))
        assert vc.f1[-1] == 1.0  # h(T - T)
        assert vc.V1[0] == pytest.approx(T + 1.0)
        # c1 on the diagonal is h(0) = 1; above the diagonal undefined
        assert vc.c1[10, 10] == 1.0
        assert math.isnan(vc.c1[5, 10])

    def test_f2_at_anchor_equals_maturity_value_zero_theta(self):
        # theta != 0 is required by the market type; take theta tiny and
        # verify f2 -> -ln(T - t + 1) with h = 1, zero rate, flat forward curve
        market = MarketParams(0.04, 0.3, 0.04, 0.3, -0.7, 1e-9, RateCurve.flat(0.0),
                              FractionalKernel.from_hurst(0.1))
        theta_curve = ThetaCurve.flat(0.0, T, 0.04, 600)
        vc = nonexp_value_coeffs(market, ExponentialDiscount(0.0), theta_curve,
                                 TimeGrid(0.0, T, 600))
        assert vc.f2[0] == pytest.approx(-math.log(T + 1.0), rel=1e-5)

    def test_f2_linear_in_theta_squared(self):
        theta_curve = ThetaCurve.flat(0.0, T, 0.04, 300)
        grid = TimeGrid(0.0, T, 300)
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


# ---------------------------------------------------------------------------
# Crossover and admissibility
# ---------------------------------------------------------------------------

class TestCrossover:
    def test_identical_kernels_return_none(self, market_rough, grid750):
        assert prefer_rough_crossover(
            market_rough, market_rough, ConstMVObjective(GAM, T), grid750
        ) is None

    def test_const_mv_gamma_invariance(self, market_rough, market_smooth, grid750):
        stars = [
            prefer_rough_crossover(
                market_rough, market_smooth, ConstMVObjective(g, T), grid750
            )
            for g in (0.1, 1.0, 10.0)
        ]
        assert stars[0] is not None
        assert max(stars) - min(stars) <= grid750.spacing

    def test_log_mv_more_risk_averse_prefers_rough_earlier(
        self, market_rough, market_smooth, grid750
    ):
        t_low = prefer_rough_crossover(
            market_rough, market_smooth, LogMVObjective(0.5, T), grid750
        )
        t_high = prefer_rough_crossover(
            market_rough, market_smooth, LogMVObjective(5.0, T), grid750
        )
        assert t_high < t_low

    def test_non_kernel_difference_rejected(self, market_rough, grid750):
        other = dataclasses.replace(study_market(0.5), sigma=0.4)
        with pytest.raises(ValueError, match="kernel"):
            prefer_rough_crossover(market_rough, other, ConstMVObjective(GAM, T), grid750)


class TestAdmissibility:
    @staticmethod
    def _flat_curve(grid, level):
        from roughmv import StrategyCurve

        coef = np.full(grid.n_steps + 1, float(level))
        return StrategyCurve(grid, coef, np.zeros_like(coef), coef, kind="test")

    def test_zero_strategy(self, grid750):
        assert admissibility_constant(TH, self._flat_curve(grid750, 0.0), 2.0) == 0.0

    @pytest.mark.parametrize(
        "level,expected", [(1.0, 28.0), (0.1, 0.6)]
    )
    def test_constant_strategy_values(self, grid750, level, expected):
        flat = self._flat_curve(grid750, level)
        assert admissibility_constant(1.5, flat, 2.0) == pytest.approx(expected, rel=1e-12)

    def test_p_must_exceed_one(self, market_rough, grid750):
        curve = log_mv_strategy(market_rough, GAM, 1.0, T, grid750)
        with pytest.raises(ValueError):
            admissibility_constant(TH, curve, 1.0)

    def test_inconsistent_curve_rejected(self, grid750):
        from roughmv import StrategyCurve

        n = grid750.n_steps + 1
        with pytest.raises(ValueError, match="myopic \\+ hedge"):
            StrategyCurve(grid750, np.ones(n), np.zeros(n), np.full(n, 2.0))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_csv_round_trip_lossless(self, market_rough, grid750):
        curve = const_mv_strategy(market_rough, GAM, T, grid750)
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
        curve = log_mv_strategy(market_rough, GAM, 1.0, T, grid750)
        header = strategy_to_csv(curve).split("\n", 1)[0]
        assert header.split(",") == ["t", "myopic", "hedge", "total", "V2", "V0", "g0"]

    def test_json_round_trip(self, market_rough, grid750):
        import json

        curve = const_mv_strategy(market_rough, GAM, T, grid750)
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
            const_mv_strategy(market_rough, GAM, T, grid750),
            log_mv_strategy(market_rough, GAM, 1.0, T, grid750),
            StrategyCurve(grid750, np.ones(n), np.zeros(n), np.ones(n),
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
