import math

import numpy as np
import pytest

from roughmv import (
    ConstantKernel,
    DivergenceError,
    FractionalKernel,
    LinearVieProblem,
    RiccatiCoefficients,
    SolverConfig,
    TimeGrid,
    convolve,
    fit_sum_of_exponentials,
    integrated_resolvent_ratio_curve,
    riccati_bound_curve,
    riccati_bounds,
    solve_linear_vie,
    solve_riccati_volterra,
)
from roughmv.volterra import negative_root, q1
from conftest import STUDY
from oracles import heston_log_mv_curves, q1_quadrature


# ---------------------------------------------------------------------------
# convolve
# ---------------------------------------------------------------------------

class TestConvolve:
    def test_fractional_against_ones(self):
        grid = TimeGrid(0.0, 1.0, 100)
        out = convolve(FractionalKernel(1.0, 0.6), np.ones(101), grid)
        # exact for constants: K*1 = int_0^t K
        ref = grid.nodes() ** 0.6 / math.gamma(1.6)
        np.testing.assert_allclose(out, ref, atol=1e-13)
        assert out[-1] == pytest.approx(1.1191749540701223, rel=1e-12)

    def test_zero_curve(self):
        grid = TimeGrid(0.0, 2.0, 50)
        out = convolve(ConstantKernel(3.0), np.zeros(51), grid)
        assert np.all(out == 0.0)

    def test_constant_kernel_linear_curve(self):
        grid = TimeGrid(0.0, 1.0, 100)
        out = convolve(ConstantKernel(2.0), grid.nodes(), grid)
        np.testing.assert_allclose(out, grid.nodes() ** 2, atol=1e-13)

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            convolve(ConstantKernel(1.0), np.ones(7), TimeGrid(0.0, 1.0, 10))


# ---------------------------------------------------------------------------
# solve_linear_vie
# ---------------------------------------------------------------------------

class TestLinearVie:
    def test_alpha_one_exponential_decay(self):
        # x + int_0^t x = 1  <=>  x' = -x, x(0) = 1
        grid = TimeGrid(0.0, 2.0, 200)
        x = solve_linear_vie(
            LinearVieProblem(FractionalKernel(1.0, 1.0), 1.0, np.ones(201), grid)
        )
        np.testing.assert_allclose(x, np.exp(-grid.nodes()), atol=1e-4)

    def test_zero_multiplier_returns_forcing(self):
        grid = TimeGrid(0.0, 1.0, 40)
        f = grid.nodes() ** 2
        x = solve_linear_vie(LinearVieProblem(FractionalKernel(1.0, 0.6), 0.0, f, grid))
        np.testing.assert_array_equal(x, f)

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0])
    def test_constant_forcing_matches_resolvent_representation(self, alpha):
        theta, gamma, lam = STUDY["theta"], STUDY["gamma"], 0.3
        kernel = FractionalKernel(1.0, alpha)
        grid = TimeGrid(0.0, 2.0, 1000)
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
            grid = TimeGrid(0.0, 2.0, n)
            x = solve_linear_vie(LinearVieProblem(kernel, 0.3, np.full(n + 1, 4.5), grid))
            ref = 4.5 * (1.0 - 0.3 * integrated_resolvent_ratio_curve(kernel, 0.3, grid.nodes()))
            errs.append(np.max(np.abs(x - ref)))
        assert errs[0] / errs[1] >= 2 ** min(1.0, 0.6) * 0.9
        assert errs[1] / errs[2] >= 2 ** min(1.0, 0.6) * 0.9

    def test_callable_forcing(self):
        grid = TimeGrid(0.0, 1.0, 50)
        x = solve_linear_vie(
            LinearVieProblem(ConstantKernel(1.0), 0.0, lambda t: t + 1.0, grid)
        )
        np.testing.assert_allclose(x, grid.nodes() + 1.0)

    def test_bad_grid_and_forcing(self):
        with pytest.raises(ValueError):
            solve_linear_vie(
                LinearVieProblem(ConstantKernel(1.0), 1.0, np.ones(11), TimeGrid(0.5, 1.0, 10))
            )
        with pytest.raises(ValueError):
            LinearVieProblem(
                ConstantKernel(1.0), 1.0, np.ones(5), TimeGrid(0.0, 1.0, 10)
            ).forcing_samples()
        with pytest.raises(ValueError):
            LinearVieProblem(
                ConstantKernel(1.0), 1.0, np.full(11, np.inf), TimeGrid(0.0, 1.0, 10)
            ).forcing_samples()


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
        sol = solve_riccati_volterra(FractionalKernel(1.0, 1.0), coeffs, TimeGrid(0.0, 3.0, 1500))
        t = sol.grid.nodes()
        ref = (q / kappa) * (1.0 - np.exp(-kappa * t))
        assert np.max(np.abs(sol.values - ref)) <= 1e-6

    def test_zero_fixed_point(self):
        coeffs = RiccatiCoefficients(0.5, 0.3, 0.0)
        sol = solve_riccati_volterra(FractionalKernel(1.0, 0.6), coeffs, TimeGrid(0.0, 2.0, 100))
        assert np.all(sol.values == 0.0)

    def test_self_convergence_against_refined_grid(self):
        coeffs = fig_coeffs()
        kernel = FractionalKernel(1.0, 0.6)
        coarse = solve_riccati_volterra(kernel, coeffs, TimeGrid(0.0, 3.0, 750)).values
        fine = solve_riccati_volterra(kernel, coeffs, TimeGrid(0.0, 3.0, 1500)).values
        assert np.max(np.abs(fine[::2] - coarse)) <= 1e-3

    def test_adams_convergence_order(self):
        # max-norm difference between n and 2n shrinks by >= 2 per doubling
        coeffs = fig_coeffs()
        kernel = FractionalKernel(1.0, 0.6)
        sols = {
            n: solve_riccati_volterra(kernel, coeffs, TimeGrid(0.0, 3.0, n)).values
            for n in (750, 1500, 3000, 6000)
        }
        diffs = [
            np.max(np.abs(sols[2 * n][::2] - sols[n])) for n in (750, 1500, 3000)
        ]
        assert diffs[0] / diffs[1] >= 2.0
        assert diffs[1] / diffs[2] >= 2.0

    def test_heston_limit_matches_adaptive_ode(self):
        coeffs = fig_coeffs()
        grid = TimeGrid(0.0, 3.0, 3000)
        sol = solve_riccati_volterra(FractionalKernel(1.0, 1.0), coeffs, grid)
        psi_ref, _, _, _ = heston_log_mv_curves(
            STUDY["theta"], STUDY["rho"], STUDY["sigma"], STUDY["kappa"],
            0.04, STUDY["gamma"], 0.0, grid.nodes(),
        )
        assert np.max(np.abs(sol.values - psi_ref)) <= 1e-6

    def test_rho_zero_reduces_to_linear_vie(self):
        # H2 = 0 at rho = 0: the converged corrector fixed point coincides
        # with the implicit product-trapezoidal solve node for node
        coeffs = RiccatiCoefficients.log_mv(
            STUDY["kappa"], 0.0, STUDY["sigma"], STUDY["theta"], STUDY["gamma"]
        )
        assert coeffs.H2 == 0.0
        kernel = FractionalKernel(1.0, 0.6)
        grid = TimeGrid(0.0, 3.0, 750)
        config = SolverConfig(corrector_iterations=100, corrector_tol=1e-16)
        psi = solve_riccati_volterra(kernel, coeffs, grid, config).values
        from roughmv import kernel_integral

        forcing = -coeffs.H0 * kernel_integral(kernel, grid.nodes())
        lin = solve_linear_vie(LinearVieProblem(kernel, -coeffs.H1, forcing, grid))
        assert np.max(np.abs(psi - lin)) <= 1e-10

    def test_divergence_guard_names_node(self):
        coeffs = fig_coeffs()
        config = SolverConfig(divergence_factor=0.05)
        with pytest.raises(DivergenceError, match="node"):
            solve_riccati_volterra(
                FractionalKernel(1.0, 0.6), coeffs, TimeGrid(0.0, 3.0, 750), config
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(corrector_iterations=0)


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
        grid = TimeGrid(0.0, 2.0, 400)
        f = np.cos(3.0 * grid.nodes()) + 0.5
        x = solve_linear_vie(LinearVieProblem(kernel, 0.3, f, grid))
        resid = np.max(np.abs(x + 0.3 * convolve(kernel, x, grid) - f))
        assert resid <= 1e-12 * np.max(np.abs(f))

    @pytest.mark.parametrize("kernel", RESIDUAL_KERNELS, ids=["a0.6", "a1.0", "soe8"])
    def test_converged_riccati_fixed_point(self, kernel):
        grid = TimeGrid(0.0, 2.0, 400)
        coeffs = RiccatiCoefficients.log_mv(0.3, -0.7, 0.3, 1.5, 0.5)
        config = SolverConfig(corrector_iterations=100, corrector_tol=1e-16)
        psi = solve_riccati_volterra(kernel, coeffs, grid, config).values
        resid = np.max(np.abs(psi - convolve(kernel, coeffs.rhs(psi), grid)))
        assert resid <= 1e-12 * np.max(np.abs(psi))


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

class TestRiccatiBounds:
    def test_quadratic_root_example(self):
        coeffs = RiccatiCoefficients(0.5, -1.5, -0.5)
        w_star, r1 = riccati_bounds(coeffs, FractionalKernel(1.0, 0.6), 1.0)
        assert w_star == pytest.approx(-0.30277563773199465, rel=1e-12)
        assert w_star < r1 < 0.0

    def test_linear_root(self):
        coeffs = RiccatiCoefficients(0.0, -0.7, -0.3)
        w_star, _ = riccati_bounds(coeffs, FractionalKernel(1.0, 1.0), 1.0)
        assert w_star == pytest.approx(-0.3 / 0.7, rel=1e-14)

    def test_r1_vanishes_at_short_times(self):
        coeffs = RiccatiCoefficients(0.5, -1.5, -0.5)
        _, r1 = riccati_bounds(coeffs, FractionalKernel(1.0, 0.6), 1e-9)
        assert -1e-4 < r1 < 0.0

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            riccati_bounds(RiccatiCoefficients(0.5, 0.1, -0.5), ConstantKernel(1.0), 1.0)
        with pytest.raises(ValueError):
            riccati_bounds(RiccatiCoefficients(0.5, -1.5, 0.1), ConstantKernel(1.0), 1.0)
        with pytest.raises(ValueError):
            riccati_bounds(RiccatiCoefficients(0.5, -1.5, -0.5), ConstantKernel(1.0), 0.0)

    @pytest.mark.parametrize("w", [-0.05, -0.15, -0.25, -0.3])
    def test_q1_closed_form_against_quadrature(self, w):
        coeffs = RiccatiCoefficients(0.5, -1.5, -0.5)
        assert q1(coeffs, w) == pytest.approx(q1_quadrature(coeffs, w), rel=1e-10)

    def test_q1_closed_form_linear_case(self):
        coeffs = RiccatiCoefficients(0.0, -0.7, -0.3)
        for w in (-0.1, -0.3, -0.42):
            assert q1(coeffs, w) == pytest.approx(q1_quadrature(coeffs, w), rel=1e-10)

    def test_bound_curve_matches_scalar_api(self):
        coeffs = fig_coeffs()
        kernel = FractionalKernel(1.0, 0.6)
        taus = np.array([0.1, 0.5, 1.5, 3.0])
        curve = riccati_bound_curve(coeffs, kernel, taus)
        for t, v in zip(taus, curve):
            assert v == pytest.approx(riccati_bounds(coeffs, kernel, t)[1], rel=1e-12)

    def test_psi_respects_bounds(self):
        coeffs = fig_coeffs()
        kernel = FractionalKernel(1.0, 0.6)
        sol = solve_riccati_volterra(kernel, coeffs, TimeGrid(0.0, 3.0, 750))
        taus = sol.grid.nodes()[1:]
        r1 = riccati_bound_curve(coeffs, kernel, taus)
        w_star = negative_root(coeffs)
        assert np.all(sol.values[1:] > 0.0)
        assert np.all(sol.values[1:] <= -r1)
        assert np.all(-r1 < -w_star)
