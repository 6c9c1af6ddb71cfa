import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmv import (
    ConstantKernel,
    ExponentialKernel,
    FractionalKernel,
    KernelDomainError,
    SumOfExponentialsKernel,
    TimeGrid,
    UnsupportedVariantError,
    integrated_resolvent_ratio,
    integrated_resolvent_ratio_curve,
    kernel_eval,
    kernel_integral,
    mittag_leffler,
    resolvent_closed_form,
    resolvent_numeric,
)
from roughmv.kernels import _ml_array
from oracles import convolution_identity_residual, ml_reference

TABLE_VARIANTS = [
    ConstantKernel(1.0),
    FractionalKernel(1.0, 0.6),
    FractionalKernel(1.0, 1.0),
    ExponentialKernel(0.5, 1.2),
]


# ---------------------------------------------------------------------------
# kernel_eval / kernel_integral
# ---------------------------------------------------------------------------

class TestKernelEval:
    def test_constant(self):
        assert kernel_eval(ConstantKernel(0.3), 5.0) == 0.3

    def test_fractional_alpha_one_is_flat(self):
        assert kernel_eval(FractionalKernel(1.0, 1.0), 2.0) == pytest.approx(1.0)

    def test_fractional_at_one(self):
        # 1/Gamma(0.6), frozen from the high-precision gamma oracle
        got = kernel_eval(FractionalKernel(1.0, 0.6), 1.0)
        assert got == pytest.approx(0.67150497244207336, rel=1e-14)

    def test_exponential(self):
        assert kernel_eval(ExponentialKernel(2.0, 0.5), 1.0) == pytest.approx(2.0 * math.exp(-0.5))

    def test_sum_of_exponentials(self):
        k = SumOfExponentialsKernel((1.0, 2.0), (0.0, 1.0))
        assert kernel_eval(k, 1.0) == pytest.approx(1.0 + 2.0 * math.exp(-1.0))

    def test_singular_at_zero_raises(self):
        with pytest.raises(KernelDomainError):
            kernel_eval(FractionalKernel(1.0, 0.6), 0.0)

    def test_negative_time_raises(self):
        with pytest.raises(KernelDomainError):
            kernel_eval(ConstantKernel(1.0), -0.5)

    def test_nonsingular_zero_finite(self):
        assert kernel_eval(ConstantKernel(0.3), 0.0) == 0.3
        assert kernel_eval(FractionalKernel(2.0, 1.0), 0.0) == pytest.approx(2.0)

    def test_integral_fractional(self):
        got = kernel_integral(FractionalKernel(1.0, 0.6), 1.0)
        assert got == pytest.approx(1.1191749540701223, rel=1e-14)

    def test_integral_matches_quadrature(self):
        from scipy.integrate import quad

        for spec in (ExponentialKernel(0.7, 2.0), SumOfExponentialsKernel((0.5, 1.0), (0.0, 3.0))):
            ref, _ = quad(lambda s: kernel_eval(spec, s), 0.0, 1.7)
            assert kernel_integral(spec, 1.7) == pytest.approx(ref, rel=1e-10)


class TestValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            ConstantKernel(0.0)
        with pytest.raises(ValueError):
            SumOfExponentialsKernel((1.0, 0.0), (0.1, 0.2))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            FractionalKernel(1.0, 0.0)
        with pytest.raises(ValueError):
            FractionalKernel(1.0, 1.2)

    def test_hurst_maps_to_alpha(self):
        assert FractionalKernel.from_hurst(0.1).alpha == pytest.approx(0.6)
        with pytest.raises(ValueError):
            FractionalKernel.from_hurst(0.7)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            ExponentialKernel(1.0, -0.1)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 10)
        g = TimeGrid(0.0, 2.0, 4)
        assert g.spacing == 0.5
        np.testing.assert_allclose(g.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])


# ---------------------------------------------------------------------------
# Mittag-Leffler
# ---------------------------------------------------------------------------

class TestMittagLeffler:
    def test_exp_case(self):
        assert mittag_leffler(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-13)

    def test_cosh_case(self):
        assert mittag_leffler(2.0, 1.0, 1.0) == pytest.approx(1.5430806348152438, abs=1e-12)

    def test_series_at_zero(self):
        assert mittag_leffler(0.7, 0.7, 0.0) == pytest.approx(1.0 / math.gamma(0.7), rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.0, 1.0, math.nan)

    def test_overflow_is_explicit(self):
        with pytest.raises(OverflowError):
            mittag_leffler(0.55, 1.0, 50.0)
        with pytest.raises(OverflowError):
            mittag_leffler(1.0, 1.0, 800.0)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=-20.0, max_value=20.0))
    def test_exp_consistency_property(self, z):
        assert abs(mittag_leffler(1.0, 1.0, z) - math.exp(z)) <= 1e-10 * math.exp(abs(z))

    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.8, 0.95, 1.0])
    @pytest.mark.parametrize("z", [-30.0, -10.0, -3.0, -0.7, 0.4, 6.0, 25.0])
    def test_reference_accuracy(self, alpha, z):
        for beta in (alpha, 1.0):
            ref = ml_reference(alpha, beta, z)
            assert mittag_leffler(alpha, beta, z) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("alpha", [0.6, 0.8])
    @pytest.mark.parametrize("x", [1e3, 1e4])
    def test_negative_tail_asymptotics(self, alpha, x):
        got = mittag_leffler(alpha, 1.0, -x)
        assert abs(got * math.gamma(1.0 - alpha) * x - 1.0) <= 0.05


class TestMittagLefflerArray:
    @pytest.mark.parametrize("alpha", [0.55, 0.6, 0.8, 1.0])
    @pytest.mark.parametrize("beta_is_alpha", [False, True])
    def test_dense_sweep_across_branch_seams(self, alpha, beta_is_alpha):
        beta = alpha if beta_is_alpha else 1.0
        seam = 38.0**alpha  # |z| where alpha < 1 switches to the asymptotic branch
        z = np.concatenate([
            np.linspace(-1.7, -1.3, 17),
            [np.nextafter(-1.5, -2.0), -1.5, np.nextafter(-1.5, 0.0)],
            -seam * np.linspace(0.97, 1.03, 17),
            [np.nextafter(-seam, -np.inf), -seam, np.nextafter(-seam, 0.0)],
            np.linspace(-4.0, 2.0, 13),
        ])
        got = _ml_array(alpha, beta, z)
        ref = np.array([ml_reference(alpha, beta, v) for v in z])
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0.0)
        scalar = np.array([mittag_leffler(alpha, beta, v) for v in z])
        np.testing.assert_allclose(got, scalar, rtol=1e-14, atol=0.0)

    def test_shape_is_kept(self):
        z = np.array([[-3.0, -0.5], [0.0, 1.0]])
        got = _ml_array(0.6, 1.0, z)
        assert got.shape == z.shape
        assert got[1, 0] == pytest.approx(1.0)
        assert _ml_array(0.6, 1.0, -3.0).shape == ()

    def test_nan_anywhere_raises(self):
        for i in range(5):
            z = np.array([-40.0, -3.0, -0.5, 0.0, 1.0])
            z[i] = math.nan
            with pytest.raises(ValueError, match="finite"):
                _ml_array(0.6, 1.0, z)

    def test_overflowing_positive_entry_raises(self):
        with pytest.raises(OverflowError):
            _ml_array(0.55, 1.0, np.array([-40.0, -3.0, 0.5, 50.0]))

    def test_mp_coefficients_are_shared_across_a_curve(self, monkeypatch):
        # the T = 10 curve of configs/simulation_comparison.json: H = 0.1,
        # lam = kappa + rho sigma theta, 2500 steps; most of its 2501 nodes
        # take the arbitrary-precision branch, which must compute one set of
        # reciprocal gammas for all of them, not one per node
        import mpmath

        calls = []
        for name in ("gamma", "rgamma"):
            fn = getattr(mpmath, name)
            monkeypatch.setattr(mpmath, name,
                                lambda *a, _fn=fn, **k: calls.append(a) or _fn(*a, **k))
        lam = 1.0 + 0.7 * 0.3 * 1.5
        taus = 10.0 - np.linspace(0.0, 10.0, 2501)
        kernel = FractionalKernel.from_hurst(0.1)
        integrated_resolvent_ratio_curve(kernel, lam, taus)
        mp_nodes = np.sum(-lam * taus**kernel.alpha < -1.5)
        assert mp_nodes > 2000
        assert 0 < len(calls) <= 300


def test_importing_roughmv_leaves_mpmath_unloaded():
    # commands that never reach the arbitrary-precision branch do not load
    # mpmath; run in a fresh interpreter because the oracles import it here
    import roughmv

    src = str(Path(roughmv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = "import sys, roughmv.cli; sys.exit('mpmath' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# Resolvents
# ---------------------------------------------------------------------------

class TestClosedFormResolvent:
    def test_constant(self):
        r = resolvent_closed_form(ConstantKernel(1.0), 1.0)
        assert r(2.0) == pytest.approx(0.13533528323661269, rel=1e-13)

    def test_fractional_alpha_one_reduces_to_constant(self):
        r = resolvent_closed_form(FractionalKernel(1.0, 1.0), 0.5)
        assert r(1.0) == pytest.approx(0.30326532985631671, rel=1e-12)

    def test_lambda_zero_is_zero(self):
        for spec in TABLE_VARIANTS:
            r = resolvent_closed_form(spec, 0.0)
            assert r(1.3) == 0.0

    def test_sum_of_exponentials_unsupported(self):
        with pytest.raises(UnsupportedVariantError):
            resolvent_closed_form(SumOfExponentialsKernel((1.0,), (0.5,)), 1.0)

    def test_exponential_row(self):
        spec = ExponentialKernel(0.5, 1.2)
        r = resolvent_closed_form(spec, 2.0)
        assert r(0.7) == pytest.approx(1.0 * math.exp(-(1.2 + 1.0) * 0.7), rel=1e-13)


class TestNumericResolvent:
    def test_constant_matches_exponential(self):
        grid = TimeGrid(0.0, 2.0, 200)
        s = resolvent_numeric(ConstantKernel(1.0), 1.0, grid)
        np.testing.assert_allclose(s.values, np.exp(-grid.nodes()), atol=1e-4)

    def test_lambda_zero_all_zero(self):
        s = resolvent_numeric(FractionalKernel(1.0, 0.6), 0.0, TimeGrid(0.0, 1.0, 100))
        assert np.all(s.values == 0.0)

    @pytest.mark.parametrize("lam", [-0.015, 0.3, 1.0])
    @pytest.mark.parametrize("spec", TABLE_VARIANTS)
    def test_matches_closed_form(self, spec, lam):
        grid = TimeGrid(0.0, 3.0, 300)
        s = resolvent_numeric(spec, lam, grid)
        ref = resolvent_closed_form(spec, lam)(grid.nodes()[1:])
        assert np.max(np.abs(s.values[1:] - ref)) <= 1e-4

    @pytest.mark.parametrize("lam", [-0.015, 0.3, 1.0])
    @pytest.mark.parametrize("spec", TABLE_VARIANTS)
    def test_discrete_identity_residual(self, spec, lam):
        s = resolvent_numeric(spec, lam, TimeGrid(0.0, 2.0, 250))
        assert s.residual <= 1e-6

    def test_identity_via_independent_quadrature(self):
        # residual of lam*(K*R) - lam*K + R computed by adaptive quadrature of
        # the closed forms, independent of any library discretization
        lam, alpha = 0.7, 0.6
        spec = FractionalKernel(1.0, alpha)
        r = resolvent_closed_form(spec, lam)
        k = lambda t: kernel_eval(spec, t)
        smooth_k = lambda u: 1.0 / math.gamma(alpha)
        smooth_r = lambda u: lam * mittag_leffler(alpha, alpha, -lam * u**alpha)
        for t in (0.5, 1.0, 2.0):
            resid = convolution_identity_residual(
                k, r, lam, t, alg_exponent=alpha - 1.0,
                smooth_k=smooth_k, smooth_r=smooth_r,
            )
            assert resid <= 1e-6 * abs(lam * k(t))
        spec_c = ConstantKernel(1.0)
        r_c = resolvent_closed_form(spec_c, lam)
        for t in (0.5, 2.0):
            resid = convolution_identity_residual(lambda u: 1.0, r_c, lam, t)
            assert resid <= 1e-8

    def test_coarse_singular_grid_warns(self):
        s = resolvent_numeric(FractionalKernel(1.0, 0.52), 1.0, TimeGrid(0.0, 1.0, 20))
        assert s.warning is not None
        s2 = resolvent_numeric(FractionalKernel(1.0, 0.52), 1.0, TimeGrid(0.0, 1.0, 200))
        assert s2.warning is None

    def test_sum_of_exponentials_solves(self):
        spec = SumOfExponentialsKernel((0.5, 0.8), (0.2, 2.0))
        grid = TimeGrid(0.0, 2.0, 400)
        s = resolvent_numeric(spec, 0.6, grid)
        assert s.residual <= 1e-10
        # cross-check against the single-exponential closed form componentwise
        single = ExponentialKernel(0.5, 0.2)
        s1 = resolvent_numeric(single, 0.6, grid)
        ref = resolvent_closed_form(single, 0.6)(grid.nodes())
        np.testing.assert_allclose(s1.values, ref, atol=1e-6)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(ValueError):
            resolvent_numeric(ConstantKernel(1.0), 1.0, TimeGrid(0.5, 1.0, 10))


# ---------------------------------------------------------------------------
# Integrated resolvent ratio
# ---------------------------------------------------------------------------

class TestIntegratedResolventRatio:
    def test_lambda_zero_alpha_one(self):
        assert integrated_resolvent_ratio(FractionalKernel(1.0, 1.0), 0.0, 2.0) == pytest.approx(2.0)

    def test_lambda_zero_fractional(self):
        got = integrated_resolvent_ratio(FractionalKernel(1.0, 0.6), 0.0, 1.0)
        assert got == pytest.approx(1.1191749540701223, rel=1e-13)

    def test_alpha_one_exponential_closed_form(self):
        got = integrated_resolvent_ratio(FractionalKernel(1.0, 1.0), -0.015, 3.0)
        assert got == pytest.approx(3.0685239939144628, rel=1e-12)

    def test_cross_check_quadrature_of_numeric_resolvent(self):
        lam, tau = -0.015, 3.0
        s = resolvent_numeric(FractionalKernel(1.0, 1.0), lam, TimeGrid(0.0, tau, 3000))
        via_quad = np.trapezoid(s.values, dx=s.grid.spacing) / lam
        assert via_quad == pytest.approx(3.0685239939144628, rel=1e-6)

    def test_tau_zero(self):
        assert integrated_resolvent_ratio(FractionalKernel(1.0, 0.6), 0.7, 0.0) == 0.0

    @pytest.mark.parametrize("tau", [0.5, 1.0, 3.0])
    def test_continuity_in_lambda_at_zero(self, tau):
        spec = FractionalKernel(1.0, 0.6)
        a = integrated_resolvent_ratio(spec, 1e-8, tau)
        b = integrated_resolvent_ratio(spec, 0.0, tau)
        assert abs(a - b) <= 1e-6

    def test_monotone_in_alpha_large_and_small_tau(self):
        lam = -0.015
        alphas = [0.55, 0.7, 0.85, 1.0]
        at_50 = [integrated_resolvent_ratio(FractionalKernel(1.0, a), lam, 50.0) for a in alphas]
        at_001 = [integrated_resolvent_ratio(FractionalKernel(1.0, a), lam, 0.01) for a in alphas]
        assert all(x < y for x, y in zip(at_50, at_50[1:]))
        assert all(x > y for x, y in zip(at_001, at_001[1:]))

    def test_other_variants_against_quadrature(self):
        from scipy.integrate import quad

        for spec, lam in [
            (ConstantKernel(0.8), 0.9),
            (ExponentialKernel(0.5, 1.2), 0.4),
            (ExponentialKernel(0.5, 1.2), -2.4),  # beta + lam*c = 0 branch
        ]:
            r = resolvent_closed_form(spec, lam)
            ref, _ = quad(lambda s: r(s) / lam, 0.0, 1.5)
            assert integrated_resolvent_ratio(spec, lam, 1.5) == pytest.approx(ref, rel=1e-9)

    def test_sum_of_exponentials_fallback(self):
        sum_spec = SumOfExponentialsKernel((0.5,), (1.2,))
        exp_spec = ExponentialKernel(0.5, 1.2)
        got = integrated_resolvent_ratio(sum_spec, 0.4, 1.5)
        ref = integrated_resolvent_ratio(exp_spec, 0.4, 1.5)
        assert got == pytest.approx(ref, rel=1e-5)

    def test_curve_matches_scalar(self):
        taus = np.array([0.0, 0.3, 1.0, 2.5])
        for spec in (
            FractionalKernel(1.0, 0.6),
            ConstantKernel(0.8),
            ExponentialKernel(0.5, 1.2),
            SumOfExponentialsKernel((0.3, 0.5), (0.0, 1.5)),
        ):
            for lam in (0.3, 0.0):
                curve = integrated_resolvent_ratio_curve(spec, lam, taus)
                for t, v in zip(taus, curve):
                    scalar = integrated_resolvent_ratio(spec, lam, t)
                    assert v == pytest.approx(scalar, rel=1e-14, abs=0.0)


class TestCompleteMonotonicity:
    # positive-weight kernels are completely monotone; spot-check the first
    # two derivative signs on a sampled grid
    @pytest.mark.parametrize(
        "spec",
        [
            ConstantKernel(0.7),
            FractionalKernel(1.0, 0.6),
            FractionalKernel(2.0, 0.85),
            ExponentialKernel(0.5, 1.2),
            SumOfExponentialsKernel((0.5, 1.5), (0.3, 4.0)),
        ],
    )
    def test_decreasing_and_convex(self, spec):
        t = np.linspace(0.05, 5.0, 400)
        k = kernel_eval(spec, t)
        assert np.all(np.diff(k) <= 1e-15)
        assert np.all(np.diff(k, 2) >= -1e-12)
