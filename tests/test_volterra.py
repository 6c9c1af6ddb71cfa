import math

import numpy as np
import pytest

from roughmv import (
    DivergenceError,
    FractionalKernel,
    LinearVieProblem,
    RiccatiCoefficients,
    SumOfExponentialsKernel,
    TimeGrid,
    fit_sum_of_exponentials,
    integrated_resolvent_ratio_curve,
    kernel_integral,
    riccati_bound_curve,
    solve_linear_vie,
    solve_riccati_volterra,
)
from roughmv import volterra
from roughmv.kernels import MARCH_BLOCK, _lag_weights, _ml_array, cell_moments
from roughmv.strategies import log_mv_existence_margin
from roughmv.volterra import negative_root
from conftest import STUDY, study_market
from oracles import convolve, heston_log_mv_curves, q1, q1_quadrature, riccati_lifted_ode

UNIT = SumOfExponentialsKernel((1.0,), (0.0,))  # the constant kernel 1


# ---------------------------------------------------------------------------
# convolve
# ---------------------------------------------------------------------------

class TestConvolve:
    def test_fractional_against_ones(self):
        grid = TimeGrid(1.0, 100)
        out = convolve(FractionalKernel(1.0, 0.6), np.ones(101), grid)
        # exact for constants: K*1 = int_0^t K
        ref = grid.nodes() ** 0.6 / math.gamma(1.6)
        np.testing.assert_allclose(out, ref, atol=1e-13)
        assert out[-1] == pytest.approx(1.1191749540701223, rel=1e-12)

    def test_zero_curve(self):
        grid = TimeGrid(2.0, 50)
        out = convolve(SumOfExponentialsKernel((3.0,), (0.0,)), np.zeros(51), grid)
        assert np.all(out == 0.0)

    def test_constant_kernel_linear_curve(self):
        grid = TimeGrid(1.0, 100)
        out = convolve(SumOfExponentialsKernel((2.0,), (0.0,)), grid.nodes(), grid)
        np.testing.assert_allclose(out, grid.nodes() ** 2, atol=1e-13)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            convolve(UNIT, np.ones(7), TimeGrid(1.0, 10))


# ---------------------------------------------------------------------------
# solve_linear_vie
# ---------------------------------------------------------------------------

class TestLinearVie:
    def test_alpha_one_exponential_decay(self):
        # x + int_0^t x = 1  <=>  x' = -x, x(0) = 1
        grid = TimeGrid(2.0, 200)
        x = solve_linear_vie(
            LinearVieProblem(FractionalKernel(1.0, 1.0), 1.0, np.ones(201), grid)
        )
        np.testing.assert_allclose(x, np.exp(-grid.nodes()), atol=1e-4)

    def test_zero_multiplier_returns_forcing(self):
        grid = TimeGrid(1.0, 40)
        f = grid.nodes() ** 2
        x = solve_linear_vie(LinearVieProblem(FractionalKernel(1.0, 0.6), 0.0, f, grid))
        np.testing.assert_array_equal(x, f)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
    def test_constant_forcing_matches_resolvent_representation(self, alpha):
        theta, gamma, lam = STUDY["theta"], STUDY["gamma"], 0.3
        kernel = FractionalKernel(1.0, alpha)
        grid = TimeGrid(2.0, 1000)
        level = theta**2 / gamma
        x = solve_linear_vie(
            LinearVieProblem(kernel, lam, np.full(1001, level), grid)
        )
        ref = level * (1.0 - lam * integrated_resolvent_ratio_curve(kernel, lam, grid.nodes()))
        assert np.max(np.abs(x - ref)) <= 1e-4

    def test_empirical_order_at_least_alpha(self):
        kernel = FractionalKernel(1.0, 0.6)
        errs = []
        for n in (250, 500, 1000):
            grid = TimeGrid(2.0, n)
            x = solve_linear_vie(LinearVieProblem(kernel, 0.3, np.full(n + 1, 4.5), grid))
            ref = 4.5 * (1.0 - 0.3 * integrated_resolvent_ratio_curve(kernel, 0.3, grid.nodes()))
            errs.append(np.max(np.abs(x - ref)))
        assert errs[0] / errs[1] >= 2 ** min(1.0, 0.6) * 0.9
        assert errs[1] / errs[2] >= 2 ** min(1.0, 0.6) * 0.9

    def test_callable_forcing(self):
        grid = TimeGrid(1.0, 50)
        x = solve_linear_vie(
            LinearVieProblem(UNIT, 0.0, grid.nodes() + 1.0, grid)
        )
        np.testing.assert_allclose(x, grid.nodes() + 1.0)

    def test_non_finite_solution_raises_naming_the_solve(self):
        # the solution grows like exp(232 t), and its discretisation overflows
        # before t = 3;
        # the history sums overflow to inf inside np.convolve, which raises
        # no floating-point error even under np.errstate(over="raise")
        grid = TimeGrid(3.0, 750)
        problem = LinearVieProblem(FractionalKernel.from_hurst(0.05), -20.0,
                                   np.ones(751), grid)
        message = r"linear Volterra solve is not finite \(multiplier -20, 750 steps to t = 3\)"
        with pytest.raises(ValueError, match=message):
            solve_linear_vie(problem)
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            solve_linear_vie(problem)

    def test_bad_grid_and_forcing(self):
        with pytest.raises(ValueError):
            LinearVieProblem(
                UNIT, 1.0, np.ones(5), TimeGrid(1.0, 10)
            ).forcing_samples()
        with pytest.raises(ValueError):
            LinearVieProblem(
                UNIT, 1.0, np.full(11, np.inf), TimeGrid(1.0, 10)
            ).forcing_samples()
        # solved as the forcing 1.0
        with pytest.raises(ValueError, match=r"^forcing must be a number, got \[True, "):
            LinearVieProblem(UNIT, 1.0, [True] * 5, TimeGrid(1.0, 4)).forcing_samples()


# ---------------------------------------------------------------------------
# Riccati-Volterra solver
# ---------------------------------------------------------------------------

def fig_coeffs(gamma=STUDY["gamma"]):
    return RiccatiCoefficients.log_mv(
        STUDY["kappa"], STUDY["rho"], STUDY["sigma"], STUDY["theta"], gamma
    )


class TestRiccatiVolterra:
    def test_linear_case_matches_ode(self):
        # H2 = 0, H1 = -kappa, H0 = -q gives psi' = -kappa psi + q
        kappa, q = 0.7, 0.3
        coeffs = RiccatiCoefficients(0.0, -kappa, -q)
        grid = TimeGrid(3.0, 1500)
        psi = solve_riccati_volterra(FractionalKernel(1.0, 1.0), coeffs, grid)
        ref = (q / kappa) * (1.0 - np.exp(-kappa * grid.nodes()))
        assert np.max(np.abs(psi - ref)) <= 1e-6

    def test_zero_fixed_point(self):
        coeffs = RiccatiCoefficients(0.5, 0.3, 0.0)
        psi = solve_riccati_volterra(FractionalKernel(1.0, 0.6), coeffs, TimeGrid(2.0, 100))
        assert np.all(psi == 0.0)

    def test_self_convergence_against_refined_grid(self):
        coeffs = fig_coeffs()
        kernel = FractionalKernel(1.0, 0.6)
        coarse = solve_riccati_volterra(kernel, coeffs, TimeGrid(3.0, 750))
        fine = solve_riccati_volterra(kernel, coeffs, TimeGrid(3.0, 1500))
        assert np.max(np.abs(fine[::2] - coarse)) <= 1e-3

    def test_adams_convergence_order(self):
        # max-norm difference between n and 2n shrinks by >= 2 per doubling
        coeffs = fig_coeffs()
        kernel = FractionalKernel(1.0, 0.6)
        sols = {
            n: solve_riccati_volterra(kernel, coeffs, TimeGrid(3.0, n))
            for n in (750, 1500, 3000, 6000)
        }
        diffs = [
            np.max(np.abs(sols[2 * n][::2] - sols[n])) for n in (750, 1500, 3000)
        ]
        assert diffs[0] / diffs[1] >= 2.0
        assert diffs[1] / diffs[2] >= 2.0

    def test_heston_limit_matches_adaptive_ode(self):
        coeffs = fig_coeffs()
        grid = TimeGrid(3.0, 3000)
        psi = solve_riccati_volterra(FractionalKernel(1.0, 1.0), coeffs, grid)
        psi_ref, _, _, _ = heston_log_mv_curves(
            STUDY["theta"], STUDY["rho"], STUDY["sigma"], STUDY["kappa"],
            0.04, STUDY["gamma"], 0.0, grid.nodes(),
        )
        assert np.max(np.abs(psi - psi_ref)) <= 1e-6

    def test_rho_zero_reduces_to_linear_vie(self):
        # H2 = 0 at rho = 0: the converged corrector fixed point, iterated on
        # the reference march, coincides with the implicit product-trapezoidal
        # solve node for node
        coeffs = RiccatiCoefficients.log_mv(
            STUDY["kappa"], 0.0, STUDY["sigma"], STUDY["theta"], STUDY["gamma"]
        )
        assert coeffs.H2 == 0.0
        kernel = FractionalKernel(1.0, 0.6)
        grid = TimeGrid(3.0, 750)
        psi = reference_riccati(kernel, coeffs, grid, **CONVERGED)
        from roughmv import kernel_integral

        forcing = -coeffs.H0 * kernel_integral(kernel, grid.nodes())
        lin = solve_linear_vie(LinearVieProblem(kernel, -coeffs.H1, forcing, grid))
        assert np.max(np.abs(psi - lin)) <= 1e-10

    def test_divergence_guard_names_node(self, monkeypatch):
        coeffs = fig_coeffs()
        monkeypatch.setattr(volterra, "_DIVERGENCE_FACTOR", 0.05)
        with pytest.raises(DivergenceError, match="node"):
            solve_riccati_volterra(
                FractionalKernel(1.0, 0.6), coeffs, TimeGrid(3.0, 750)
            )


# ---------------------------------------------------------------------------
# Discrete equations, checked through np.convolve rather than the node loop
# ---------------------------------------------------------------------------

RESIDUAL_KERNELS = [
    FractionalKernel(1.0, 0.6),
    FractionalKernel(1.0, 1.0),
    fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 8, 2.0)[0],
]


class TestDiscreteResidual:
    @pytest.mark.parametrize("kernel", RESIDUAL_KERNELS, ids=["a0.6", "a1.0", "soe8"])
    def test_linear_vie(self, kernel):
        grid = TimeGrid(2.0, 400)
        f = np.cos(3.0 * grid.nodes()) + 0.5
        x = solve_linear_vie(LinearVieProblem(kernel, 0.3, f, grid))
        resid = np.max(np.abs(x + 0.3 * convolve(kernel, x, grid) - f))
        assert resid <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("kernel", RESIDUAL_KERNELS, ids=["a0.6", "a1.0", "soe8"])
    def test_converged_riccati_fixed_point(self, kernel):
        grid = TimeGrid(2.0, 400)
        coeffs = RiccatiCoefficients.log_mv(0.3, -0.7, 0.3, 1.5, 0.5)
        psi = reference_riccati(kernel, coeffs, grid, **CONVERGED)
        resid = np.max(np.abs(psi - convolve(kernel, coeffs.rhs(psi), grid)))
        assert resid <= 1e-12 * np.max(np.abs(psi))


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

class TestRiccatiBounds:
    def test_quadratic_root_example(self):
        coeffs = RiccatiCoefficients(0.5, -1.5, -0.5)
        w_star = negative_root(coeffs)
        (r1,) = riccati_bound_curve(coeffs, FractionalKernel(1.0, 0.6), [1.0])
        assert w_star == pytest.approx(-0.30277563773199465, rel=1e-12)
        assert w_star < r1 < 0.0

    def test_linear_root(self):
        w_star = negative_root(RiccatiCoefficients(0.0, -0.7, -0.3))
        assert w_star == pytest.approx(-0.3 / 0.7, rel=1e-14)

    def test_r1_vanishes_at_short_times(self):
        coeffs = RiccatiCoefficients(0.5, -1.5, -0.5)
        (r1,) = riccati_bound_curve(coeffs, FractionalKernel(1.0, 0.6), [1e-9])
        assert -1e-4 < r1 < 0.0

    def test_precondition_errors(self):
        # outside its preconditions the curve is no bound; H0 > 0 gave a
        # positive r1
        for coeffs, field in [
            (RiccatiCoefficients(0.5, 0.1, -0.5), "H1"),
            (RiccatiCoefficients(0.5, -1.5, 0.1), "H0"),
            (RiccatiCoefficients(-0.5, -1.5, -0.5), "H2"),
        ]:
            with pytest.raises(ValueError, match=field):
                riccati_bound_curve(coeffs, UNIT, [0.5, 1.0])
        with pytest.raises(ValueError, match="> 0"):
            riccati_bound_curve(RiccatiCoefficients(0.5, -1.5, -0.5), UNIT, [0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_times_rejected_by_name(self, bad):
        # a NaN time returned a NaN bound
        with pytest.raises(ValueError, match="taus must be finite and > 0"):
            riccati_bound_curve(RiccatiCoefficients(0.5, -1.5, -0.5), UNIT, [0.5, bad])

    @pytest.mark.parametrize("field", ["H2", "H1", "H0"])
    def test_non_finite_coefficients_rejected_by_name(self, field):
        # H2 = NaN passed the bound's preconditions and returned a NaN bound
        coeffs = {"H2": 0.5, "H1": -1.5, "H0": -0.5, field: math.nan}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RiccatiCoefficients(**coeffs)

    @pytest.mark.parametrize("coeffs, field", [
        ((0.5, 0.1, -0.5), "H1=0.1"),
        ((0.0, 0.0, -0.5), "H1=0.0"),
        ((0.5, -1.5, 0.1), "H0=0.1"),
        ((-0.5, -1.5, -0.5), "H2=-0.5"),
    ])
    def test_negative_root_refuses_coefficients_outside_the_bound(self, coeffs, field):
        # H1 > 0 had a branch of its own and H2 = H1 = 0 a no-root error;
        # neither is a bound's w_star
        with pytest.raises(ValueError, match=f"requires .*{field}"):
            negative_root(RiccatiCoefficients(*coeffs))

    @pytest.mark.parametrize("w", [0.5, 1e-300, -1.0, "w_star", math.nan])
    def test_q1_refuses_w_outside_its_domain(self, w):
        # w = 0.5 returned -0.632, w = -1.0 and NaN returned NaN
        coeffs = RiccatiCoefficients(0.5, -1.5, -0.5)
        w = negative_root(coeffs) if w == "w_star" else w
        with pytest.raises(ValueError, match=r"w must lie in \(w_star, 0\]"):
            q1(coeffs, w)

    @pytest.mark.parametrize("w", [-0.05, -0.15, -0.25, -0.3])
    def test_q1_closed_form_against_quadrature(self, w):
        coeffs = RiccatiCoefficients(0.5, -1.5, -0.5)
        assert q1(coeffs, w) == pytest.approx(q1_quadrature(coeffs, w), rel=1e-10)

    def test_q1_closed_form_linear_case(self):
        coeffs = RiccatiCoefficients(0.0, -0.7, -0.3)
        for w in (-0.1, -0.3, -0.42):
            assert q1(coeffs, w) == pytest.approx(q1_quadrature(coeffs, w), rel=1e-10)

    def test_bound_curve_solves_q1_pointwise(self):
        # r1(t) solves Q1(r1) = int_0^t K, at each time alone as in the array
        coeffs = fig_coeffs()
        kernel = FractionalKernel(1.0, 0.6)
        taus = np.array([0.1, 0.5, 1.5, 3.0])
        curve = riccati_bound_curve(coeffs, kernel, taus)
        for t, v in zip(taus, curve):
            assert v == pytest.approx(riccati_bound_curve(coeffs, kernel, [t])[0], rel=1e-12)
            assert q1(coeffs, v) == pytest.approx(kernel_integral(kernel, t), rel=1e-12)

    def test_psi_respects_bounds(self):
        coeffs = fig_coeffs()
        kernel = FractionalKernel(1.0, 0.6)
        grid = TimeGrid(3.0, 750)
        psi = solve_riccati_volterra(kernel, coeffs, grid)
        r1 = riccati_bound_curve(coeffs, kernel, grid.nodes()[1:])
        w_star = negative_root(coeffs)
        assert np.all(psi[1:] > 0.0)
        assert np.all(psi[1:] <= -r1)
        assert np.all(-r1 < -w_star)


# perfect correlation, near-zero roughness, extreme risk aversion and mean
# reversion; markets without the bounded solution that log-MV needs are left out
EXTREME_MARKETS = [
    (rho, hurst, gamma, kappa)
    for rho in (-1.0, 1.0) for hurst in (0.01, 0.1)
    for gamma in (0.05, 5.0, 50.0) for kappa in (0.05, 3.0)
    if log_mv_existence_margin(study_market(hurst, rho=rho, kappa=kappa), gamma) > 0
]


class TestRiccatiAtExtremeMarkets:
    @pytest.mark.parametrize("rho,hurst,gamma,kappa", EXTREME_MARKETS)
    def test_psi_runs_and_keeps_its_bounds(self, rho, hurst, gamma, kappa):
        # T = 1 at 50 steps a year; at 10 steps a year psi overshoots -r1 by up
        # to 31 % of its largest value at H = 0.01, a coarse-grid error
        market = study_market(hurst, rho=rho, kappa=kappa)
        coeffs = RiccatiCoefficients.log_mv(kappa, rho, market.sigma, market.theta, gamma)
        grid = TimeGrid(1.0, 50)
        psi = solve_riccati_volterra(market.kernel, coeffs, grid)
        bound = -riccati_bound_curve(coeffs, market.kernel, grid.nodes()[1:])
        assert np.all(psi[1:] > 0.0)
        assert np.all(psi[1:] <= bound + 1e-6 * bound.max())


# ---------------------------------------------------------------------------
# Adams solver against the Markovian lift of a sum-of-exponentials kernel
# ---------------------------------------------------------------------------

LIFTED_COEFFS = RiccatiCoefficients.log_mv(0.3, -0.7, 0.3, 1.5, 0.5)


def lifted_errors(kernel, weights, rates, ns):
    """|psi(1) - lifted-ODE psi(1)| of solve_riccati_volterra on TimeGrid(1, n)."""
    ref = riccati_lifted_ode(weights, rates, LIFTED_COEFFS, 1.0)
    return np.array([
        abs(solve_riccati_volterra(kernel, LIFTED_COEFFS, TimeGrid(1.0, n))[-1] - ref)
        for n in ns
    ])


class TestLiftedOdeOracle:
    @pytest.mark.parametrize(
        "kernel,weights,rates",
        [
            (FractionalKernel(1.0, 1.0), (1.0,), (0.0,)),  # classic Heston
            (SumOfExponentialsKernel((0.5,), (1.2,)), (0.5,), (1.2,)),
            (SumOfExponentialsKernel((0.6, -0.2, 0.9), (0.5, 5.0, 40.0)),
             (0.6, -0.2, 0.9), (0.5, 5.0, 40.0)),
        ],
        ids=["constant", "exponential", "soe3"],
    )
    def test_second_order_on_smooth_kernels(self, kernel, weights, rates):
        errs = lifted_errors(kernel, weights, rates, [100, 200, 400, 800, 1600])
        orders = np.log2(errs[:-1] / errs[1:])
        assert np.all(np.abs(orders - 2.0) < 0.05), orders

    def test_eight_factor_fit_of_rough_kernel(self):
        # rates span four decades; at these grids the order is not yet
        # asymptotic (1.7-1.9), so only a falling, small error is required
        kernel = fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 8, 1.0)[0]
        errs = lifted_errors(kernel, kernel.weights, kernel.rates, [250, 500, 1000, 2000, 4000])
        assert np.all(np.diff(errs) < 0), errs
        assert errs[0] < 5e-5


# ---------------------------------------------------------------------------
# The blocked node loop against a plain sequential march
# ---------------------------------------------------------------------------
# reference_march sums each node's whole history afresh, lag by lag, as the
# node loop did before it was blocked.  The blocked loop sums in another
# order, so the two agree to rounding, not bit for bit.

def reference_march(a_w, b_w, y0, node_rule, rect_w=None):
    n = len(a_w)
    y = np.empty(n + 1)
    y[0] = y0
    for i in range(1, n + 1):
        hist = y[i - 1 :: -1]
        past = a_w[:i] @ hist + b_w[1:i] @ hist[:-1]
        y[i] = node_rule(i, past) if rect_w is None else node_rule(i, rect_w[:i] @ hist, past)
    return y


def moments_and_weights(kernel, grid):
    i0, i1 = cell_moments(kernel, grid.spacing, grid.n_steps)
    return i0, *_lag_weights(i0, i1, grid.spacing)


def reference_vie(kernel, lam, f, grid):
    _, a_w, b_w = moments_and_weights(kernel, grid)
    denom = 1.0 + lam * b_w[0]
    return reference_march(a_w, b_w, f[0], lambda i, s: (f[i] - lam * s) / denom)


# the corrector iterated to its fixed point: 100 corrections at most, stopping
# where one moves psi by no more than 1e-16
CONVERGED = {"corrections": 100, "tol": 1e-16}


def reference_riccati(kernel, coeffs, grid, corrections=2, tol=None):
    """psi by the Adams step with the given number of product-trapezoidal
    corrections (the library makes two), stopping early where a correction
    moves psi by no more than tol."""
    i0, a_w, b_w = moments_and_weights(kernel, grid)
    b1, h = b_w[0], grid.spacing
    guard = volterra._DIVERGENCE_FACTOR * abs(negative_root(coeffs))
    psi = np.zeros(grid.n_steps + 1)

    def pece(i, pred, past):
        value = pred
        for _ in range(corrections):
            prev = value
            value = past + b1 * coeffs.rhs(value)
            if tol is not None and abs(value - prev) <= tol:
                break
        if not np.isfinite(value) or abs(value) > guard:
            raise DivergenceError(
                f"psi diverged at node {i} (t = {i * h:.6g}): "
                f"|psi| = {abs(value):.3g} exceeds {guard:.3g}"
            )
        psi[i] = value
        return coeffs.rhs(value)

    reference_march(a_w, b_w, coeffs.rhs(0.0), pece, rect_w=i0)
    return psi


MARCH_KERNELS = [
    FractionalKernel(1.0, 0.6),
    FractionalKernel(1.0, 1.0),
    SumOfExponentialsKernel((0.5,), (1.2,)),
    fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 8, 2.0)[0],
]
MARCH_KERNEL_IDS = ["a0.6", "a1.0", "exp", "soe8"]
# one node, a block but one, a block, a block and one, two blocks and three
MARCH_SIZES = [1, MARCH_BLOCK - 1, MARCH_BLOCK, MARCH_BLOCK + 1, 2 * MARCH_BLOCK + 3]


def assert_close_to_reference(got, ref):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestBlockedMarch:
    @pytest.mark.parametrize("n", MARCH_SIZES)
    @pytest.mark.parametrize("kernel", MARCH_KERNELS, ids=MARCH_KERNEL_IDS)
    def test_linear_vie(self, kernel, n):
        grid = TimeGrid(2.0, n)
        f = np.cos(3.0 * grid.nodes()) + 0.5
        got = solve_linear_vie(LinearVieProblem(kernel, 0.7, f, grid))
        assert_close_to_reference(got, reference_vie(kernel, 0.7, f, grid))

    @pytest.mark.parametrize("n", MARCH_SIZES)
    @pytest.mark.parametrize("kernel", MARCH_KERNELS, ids=MARCH_KERNEL_IDS)
    def test_riccati(self, kernel, n):
        grid = TimeGrid(2.0, n)
        got = solve_riccati_volterra(kernel, LIFTED_COEFFS, grid)
        assert_close_to_reference(got, reference_riccati(kernel, LIFTED_COEFFS, grid))

    def test_divergence_at_the_same_node_with_the_same_message(self, monkeypatch):
        kernel = FractionalKernel(1.0, 0.6)
        grid = TimeGrid(3.0, 2 * MARCH_BLOCK + 3)
        # a guard that psi crosses in the second block
        psi = reference_riccati(kernel, LIFTED_COEFFS, grid)
        node = MARCH_BLOCK + 40
        assert psi[node - 1] < psi[node]
        guard = 0.5 * (psi[node - 1] + psi[node])
        monkeypatch.setattr(volterra, "_DIVERGENCE_FACTOR",
                            guard / abs(negative_root(LIFTED_COEFFS)))
        with pytest.raises(DivergenceError) as ref:
            reference_riccati(kernel, LIFTED_COEFFS, grid)
        with pytest.raises(DivergenceError) as got:
            solve_riccati_volterra(kernel, LIFTED_COEFFS, grid)
        assert f"at node {node} " in str(ref.value)
        assert str(got.value) == str(ref.value)


# ---------------------------------------------------------------------------
# Observed order against the Mittag-Leffler closed form
# ---------------------------------------------------------------------------
# With H2 = 0 the Riccati equation psi = K * (H1 psi - H0) is linear; for
# K = t^(a-1)/Gamma(a) it has psi = (H0/H1)(1 - E_a(H1 t^a)), and the linear
# VIE x + (-H1) K*x = -H0 has x = -H0 E_a(H1 t^a).  The product-integration
# schemes converge as 2a (Diethelm, Ford & Freed, Numer. Algorithms 36, 2004).

ORDER_H1, ORDER_H0 = -1.3, -0.9


def closed_form_errors(alpha, ns):
    """Max-norm errors of the Adams and the linear-VIE solves on TimeGrid(1, n)."""
    kernel = FractionalKernel(1.0, alpha)
    coeffs = RiccatiCoefficients(0.0, ORDER_H1, ORDER_H0)
    adams, vie = [], []
    for n in ns:
        grid = TimeGrid(1.0, n)
        ml = _ml_array(alpha, 1.0, ORDER_H1 * grid.nodes() ** alpha)
        psi = solve_riccati_volterra(kernel, coeffs, grid)
        x = solve_linear_vie(LinearVieProblem(kernel, -ORDER_H1, np.full(n + 1, -ORDER_H0), grid))
        adams.append(np.max(np.abs(psi - ORDER_H0 / ORDER_H1 * (1.0 - ml))))
        vie.append(np.max(np.abs(x + ORDER_H0 * ml)))
    return np.array(adams), np.array(vie)


class TestConvergenceOrder:
    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.0])
    def test_order_two_alpha(self, alpha):
        adams, vie = closed_form_errors(alpha, [400, 800, 1600])
        for errs in (adams, vie):
            orders = np.log2(errs[:-1] / errs[1:])
            assert np.all(np.abs(orders - 2.0 * alpha) < 0.05), orders
