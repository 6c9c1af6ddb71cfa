import ast
import functools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughmv import (
    FractionalKernel,
    KernelDomainError,
    LinearVieProblem,
    RateCurve,
    SumOfExponentialsKernel,
    TimeGrid,
    integrated_resolvent_ratio_curve,
    kernel_eval,
    kernel_integral,
    kernels,
    mittag_leffler,
    resolvent_numeric,
    solve_linear_vie,
)
from roughmv.kernels import (
    MARCH_BLOCK,
    _lag_weights,
    _ml_array,
    _ml_series_mp,
    _numeric_resolvent_ratio,
    _rgamma,
    _series_inverse,
    _vie_direct,
    cell_moments,
)
from roughmv.montecarlo import LiftedFactors, _as_factor_kernel, fit_sum_of_exponentials
from oracles import (
    blocked_vie,
    convolution_identity_residual,
    exp_cell_moments_reference,
    ml_reference,
)


def constant(c):
    """The constant kernel c, the one-term sum c exp(-0 t)."""
    return SumOfExponentialsKernel((c,), (0.0,))


def exponential(c, beta):
    """The exponential kernel c exp(-beta t), a one-term sum."""
    return SumOfExponentialsKernel((c,), (beta,))


TABLE_VARIANTS = [
    constant(1.0),
    FractionalKernel(1.0, 0.6),
    FractionalKernel(1.0, 1.0),
    exponential(0.5, 1.2),
]


# ---------------------------------------------------------------------------
# kernel_eval / kernel_integral
# ---------------------------------------------------------------------------

class TestKernelEval:
    def test_constant(self):
        assert kernel_eval(constant(0.3), 5.0) == 0.3

    def test_fractional_alpha_one_is_flat(self):
        assert kernel_eval(FractionalKernel(1.0, 1.0), 2.0) == pytest.approx(1.0)

    def test_fractional_at_one(self):
        # 1/Gamma(0.6), frozen from the high-precision gamma oracle
        got = kernel_eval(FractionalKernel(1.0, 0.6), 1.0)
        assert got == pytest.approx(0.67150497244207336, rel=1e-14)

    def test_exponential(self):
        assert kernel_eval(exponential(2.0, 0.5), 1.0) == pytest.approx(2.0 * math.exp(-0.5))

    def test_sum_of_exponentials(self):
        k = SumOfExponentialsKernel((1.0, 2.0), (0.0, 1.0))
        assert kernel_eval(k, 1.0) == pytest.approx(1.0 + 2.0 * math.exp(-1.0))

    def test_singular_at_zero_raises(self):
        with pytest.raises(KernelDomainError):
            kernel_eval(FractionalKernel(1.0, 0.6), 0.0)

    def test_negative_time_raises(self):
        with pytest.raises(KernelDomainError):
            kernel_eval(constant(1.0), -0.5)

    def test_nonsingular_zero_finite(self):
        assert kernel_eval(constant(0.3), 0.0) == 0.3
        assert kernel_eval(FractionalKernel(2.0, 1.0), 0.0) == pytest.approx(2.0)

    def test_integral_fractional(self):
        got = kernel_integral(FractionalKernel(1.0, 0.6), 1.0)
        assert got == pytest.approx(1.1191749540701223, rel=1e-14)

    def test_integral_matches_quadrature(self):
        from scipy.integrate import quad

        for spec in (exponential(0.7, 2.0), SumOfExponentialsKernel((0.5, 1.0), (0.0, 3.0))):
            ref, _ = quad(lambda s: kernel_eval(spec, s), 0.0, 1.7)
            assert kernel_integral(spec, 1.7) == pytest.approx(ref, rel=1e-10)


class TestValidation:
    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            constant(0.0)
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
            exponential(1.0, -0.1)

    @pytest.mark.parametrize("weights,rates,field", [
        ("12", (1.0, 2.0), "kernel weights"), ((1.0, 2.0), "12", "kernel rates"),
    ])
    def test_a_string_is_no_sequence_of_numbers(self, weights, rates, field):
        # "12" was read as the weights (1.0, 2.0)
        with pytest.raises(ValueError, match=f"^{field} must be a number, got '12'"):
            SumOfExponentialsKernel(weights, rates)

    # a TypeError from the comparison, numpy's inhomogeneous-shape ValueError,
    # float()'s TypeError and "'float' object is not iterable" named no field
    @pytest.mark.parametrize("make, message", [
        (lambda: FractionalKernel.from_hurst("0.1"), "hurst must be a number, got '0.1'"),
        (lambda: SumOfExponentialsKernel([1.0, [2.0]], (1.0, 2.0)),
         "kernel weights must be a 1-d sequence of numbers, got [1.0, [2.0]]"),
        (lambda: SumOfExponentialsKernel([[1.0]], [[1.0]]),
         "kernel weights must be a 1-d sequence of numbers, got [[1.0]]"),
        (lambda: RateCurve(5.0, 0.1), "times must be a 1-d sequence of numbers, got 5.0"),
    ], ids=["string_hurst", "ragged_weights", "nested_weights", "scalar_rate_table"])
    def test_a_wrongly_shaped_input_names_its_field(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    # True was taken as the number 1
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True])
    def test_non_finite_fields_rejected_by_name(self, bad):
        for make, field in [
            (lambda: FractionalKernel(bad, 0.6), "kernel weight c"),
            (lambda: constant(bad), "kernel weights"),
            (lambda: exponential(1.0, bad), "kernel rates"),
            (lambda: SumOfExponentialsKernel((1.0, bad), (0.0, 1.0)), "kernel weights"),
            (lambda: SumOfExponentialsKernel((1.0, 2.0), (0.0, bad)), "kernel rates"),
        ]:
            with pytest.raises(ValueError, match=field):
                make()

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError, match="t_end must be finite and > 0"):
            TimeGrid(0.0, 10)
        g = TimeGrid(2.0, 4)
        assert g.spacing == 0.5
        np.testing.assert_allclose(g.nodes(), [0.0, 0.5, 1.0, 1.5, 2.0])

    @pytest.mark.parametrize("t_end", [math.inf, math.nan, -math.inf])
    def test_grid_rejects_non_finite_bounds(self, t_end):
        with pytest.raises(ValueError, match="t_end must be finite and > 0"):
            TimeGrid(t_end, 10)

    def test_grid_takes_an_int_past_int64_as_its_float(self):
        # numpy made 10**30 an object array, whose isfinite raised TypeError
        grid = TimeGrid(10**30, 4)
        assert grid.t_end == 1e30 and isinstance(grid.t_end, float)
        assert grid.nodes().tobytes() == np.linspace(0.0, 1e30, 5).tobytes()
        with pytest.raises(ValueError, match="t_end must be finite and > 0, got -1e\\+30"):
            TimeGrid(-(10**30), 4)
        with pytest.raises(ValueError, match="t_end must be finite and > 0, got inf"):
            TimeGrid(10**400, 4)

    @pytest.mark.parametrize("t_end", ["1", None, [1.0, "a"], 1j, True])
    def test_grid_end_must_be_a_number(self, t_end):
        # "1" raised numpy's "ufunc 'isfinite' not supported", naming no field,
        # and True built a grid on [0, 1.0]
        with pytest.raises(ValueError, match="^t_end must be a number, got "):
            TimeGrid(t_end, 4)

    def test_grid_takes_a_numpy_integer_count(self):
        assert TimeGrid(1.0, np.int64(4)).nodes().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    # each was a grid whose nodes() raised TypeError, or one cell for True
    @pytest.mark.parametrize("n_steps", [math.nan, 2.5, 10.0, True, "10"])
    def test_grid_step_count_must_be_an_integer(self, n_steps):
        with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
            TimeGrid(1.0, n_steps)

    # each returned NaN, or raised numpy's "arange: cannot compute length"
    @pytest.mark.parametrize("call,match", [
        pytest.param(lambda: kernel_eval(FractionalKernel(1.0, 0.6), math.nan),
                     "^t must be finite", id="eval-nan"),
        pytest.param(lambda: kernel_eval(constant(1.0), [0.5, math.nan]),
                     "^t must be finite", id="eval-constant-nan"),
        pytest.param(lambda: kernel_integral(FractionalKernel(1.0, 0.6), math.nan),
                     "^t must be finite", id="integral-nan"),
        pytest.param(lambda: kernel_integral(exponential(1.0, 0.5), [0.5, math.inf]),
                     "^t must be finite", id="integral-inf"),
        pytest.param(lambda: cell_moments(FractionalKernel(1.0, 0.6), 0.1, math.nan),
                     "^n must be an integer >= 1", id="cell-moments-n-nan"),
        pytest.param(lambda: cell_moments(FractionalKernel(1.0, 0.6), 0.1, 2.5),
                     "^n must be an integer >= 1", id="cell-moments-n-fractional"),
        # each was converted first: "0.5" and True ran as their numbers
        pytest.param(lambda: kernel_eval(FractionalKernel(1.0, 0.6), "0.5"),
                     "^t must be a number, got '0.5'$", id="eval-string"),
        pytest.param(lambda: kernel_integral(FractionalKernel(1.0, 0.6), True),
                     "^t must be a number, got True$", id="integral-bool"),
        pytest.param(lambda: mittag_leffler(0.6, 1.0, "1.5"),
                     "^z must be a number, got '1.5'$", id="mittag-leffler-string"),
    ])
    def test_non_finite_time_or_count_rejected_by_name(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()


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

    @pytest.mark.parametrize("x", [60.0, 100.0, 300.0])
    def test_exp_far_negative(self, x):
        # e^-x cancels terms of order e^x: the sum needs digits for its own
        # smallness on top of the cancellation (it read 9.5e-38 at x = 100)
        assert mittag_leffler(1.0, 1.0, -x) == pytest.approx(math.exp(-x), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("alpha", [0.6, 0.8])
    @pytest.mark.parametrize("x", [1e3, 1e4])
    def test_negative_tail_asymptotics(self, alpha, x):
        got = mittag_leffler(alpha, 1.0, -x)
        assert abs(got * math.gamma(1.0 - alpha) * x - 1.0) <= 0.05

    def test_asymptotic_branch_through_gamma_poles(self):
        # E_{1/2,1}(-x) = exp(x^2) erfc(x).  From x = 6.2 on (x^2 >= 38) it
        # takes the asymptotic branch, whose coefficients 1/Gamma(1 - k/2)
        # vanish at every even k; x is a multiple of 1/8, so x^2 is exact
        for x in np.arange(50, 209) / 8.0:
            exact = math.exp(x * x) * math.erfc(x)
            assert mittag_leffler(0.5, 1.0, -x) == pytest.approx(exact, rel=1e-13), x

    def test_rgamma_poles_and_overflow(self):
        for x in (0.0, -1.0, -2.0, 200.0):
            assert _rgamma(x) == 0.0
        assert _rgamma(0.5) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
        assert _rgamma(-0.5) == pytest.approx(-0.5 / math.sqrt(math.pi), rel=1e-15)

    @pytest.mark.parametrize("x", [-171.5, -172.5, -200.5, -201.5])
    def test_rgamma_beyond_gamma_underflow(self, x):
        # 1/Gamma overflows to inf with Gamma's sign, where math.gamma is a
        # subnormal (-171.5, -172.5) or a signed zero (-200.5, -201.5)
        assert _rgamma(x) == math.copysign(math.inf, float(mpmath.rgamma(x)))
        assert _rgamma(math.floor(x)) == 0.0


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

    @pytest.mark.parametrize("alpha, beta", [(0.55, 0.55), (0.55, 1.0), (0.8, 0.8),
                                             (0.8, 1.0), (1.0, 1.0)])
    def test_dense_positive_sweep(self, alpha, beta):
        # up to just below the overflow limit z^(1/alpha) = 700, so the
        # elements of one call stop their series at very different n
        z = np.geomspace(1e-3, 0.95 * 700.0**alpha, 33)
        got = _ml_array(alpha, beta, z)
        ref = np.array([ml_reference(alpha, beta, v) for v in z])
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0.0)

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

    def test_an_empty_band_is_not_evaluated(self):
        # a band without elements used to run its series anyway: at alpha =
        # 1e-20 the [-1.5, 0) series never stopped and raised IndexError
        z = np.array([0.5, 0.0, 0.25])
        np.testing.assert_allclose(_ml_array(1e-20, 1.0, z), 1.0 / (1.0 - z), rtol=1e-14)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
    def test_tiny_alpha_is_the_geometric_series(self, beta):
        # E_{a,b}(z) -> 1/((1 - z) Gamma(b)) as a -> 0 for |z| < 1; beta + n
        # alpha stays beta in floats, so the series stops by its term count
        z = np.array([-0.9, -0.685, -0.3, -1e-3, 0.0, 0.4])
        got = _ml_array(1e-20, beta, z)
        np.testing.assert_allclose(got, 1.0 / ((1.0 - z) * math.gamma(beta)), rtol=1e-14)
        assert mittag_leffler(1e-20, 1.0, -0.685) == pytest.approx(1.0 / 1.685, rel=1e-15)

    def test_a_curve_takes_one_band_call(self, monkeypatch):
        # the T = 10 curve of configs/simulation_comparison.json: H = 0.1,
        # lam = kappa + rho sigma theta, 2500 steps; most of its 2501 nodes
        # lie below -1.5 and before the asymptotic seam, and the contour
        # evaluates all of them in one call, not one per node
        from roughmv import kernels

        band = kernels._ml_series_mp
        calls = []
        monkeypatch.setattr(kernels, "_ml_series_mp",
                            lambda a, b, z: calls.append(z.size) or band(a, b, z))
        lam = 1.0 + 0.7 * 0.3 * 1.5
        taus = 10.0 - np.linspace(0.0, 10.0, 2501)
        kernel = FractionalKernel.from_hurst(0.1)
        integrated_resolvent_ratio_curve(kernel, lam, taus)
        z = -lam * taus**kernel.alpha
        band_nodes = np.sum((z < -1.5) & ((-z) ** (1.0 / kernel.alpha) < 38.0))
        assert band_nodes > 2000
        assert calls == [band_nodes]


class TestMittagLefflerContour:
    """The band z < -1.5 before the asymptotic seam, where the series cancels
    and the Laplace transform is inverted on a fixed parabolic contour."""

    @pytest.mark.parametrize("alpha", [0.55, 0.7, 0.9, 0.99])
    def test_band_sweep_against_reference(self, alpha):
        z = -np.linspace(1.5, 38.0**alpha, 20)
        z[0] = np.nextafter(-1.5, -2.0)
        for beta in (alpha, 1.0, alpha + 1.0):
            got = _ml_series_mp(alpha, beta, z)
            ref = np.array([ml_reference(alpha, beta, v) for v in z])
            np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0.0, err_msg=f"beta={beta}")
            np.testing.assert_array_equal(_ml_array(alpha, beta, z[:-1]), got[:-1])

    @pytest.mark.parametrize("beta", [0.5, 2.0])
    def test_alpha_one_far_down_the_axis(self, beta):
        # E_{1,beta}(z) = 1F1(1; beta; z)/Gamma(beta); at alpha = 1 the band
        # has no asymptotic seam, so it reaches every z < -1.5
        z = -np.geomspace(1.5 + 1e-9, 900.0, 20)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.hyp1f1(1, beta, v) / mpmath.gamma(beta)) for v in z])
        np.testing.assert_allclose(_ml_array(1.0, beta, z), ref, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("alpha, beta", [(1.5, 1.0), (0.6, 2.6)])
    def test_outside_the_contour_domain_raises(self, alpha, beta):
        # alpha > 1, or beta > alpha + 1: the contour does not apply
        with pytest.raises(ValueError, match=r"alpha <= 1 and beta <= alpha \+ 1"):
            mittag_leffler(alpha, beta, -3.0)
        assert mittag_leffler(alpha, beta, -1.0) == pytest.approx(
            ml_reference(alpha, beta, -1.0), rel=1e-13)


def test_importing_roughmv_leaves_mpmath_unloaded():
    # the library never loads mpmath or scipy, not even for a Mittag-Leffler
    # argument in the band below -1.5 or for the T = 10 curve of
    # configs/simulation_comparison.json, and the commands that never
    # simulate do not load numpy.random (start-up is measured); run in a
    # fresh interpreter because the oracles import all three here
    import roughmv

    src = str(Path(roughmv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    code = (
        "import sys, numpy as np, roughmv.cli; "
        "from roughmv import FractionalKernel, integrated_resolvent_ratio_curve, mittag_leffler; "
        "mittag_leffler(0.6, 1.0, -3.0); "
        "integrated_resolvent_ratio_curve(FractionalKernel.from_hurst(0.1), 1.315, "
        "10.0 - np.linspace(0.0, 10.0, 2501)); "
        "print(sorted(m for m in ('mpmath', 'numpy.random', 'scipy') if m in sys.modules))"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_runtime_imports_are_the_listed_dependencies():
    # every third-party module the library imports, at module level or inside
    # a function, is a runtime dependency of pyproject.toml, and vice versa
    import roughmv

    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

    package = Path(roughmv.__file__).resolve().parent
    imported = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"roughmv"}
    project = tomllib.loads((package.parents[1] / "pyproject.toml").read_text())["project"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert third_party == listed


def test_module_level_imports_are_used():
    # every name a library module imports at module level is read in that
    # module; __init__.py imports in order to export
    import roughmv

    package = Path(roughmv.__file__).resolve().parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.partition(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read]
    assert unused == []


# ---------------------------------------------------------------------------
# Resolvents
# ---------------------------------------------------------------------------

class UnsupportedVariantError(ValueError):
    """Operation has no closed form for this kernel variant."""


def resolvent_closed_form(spec, lam: float):
    """Closed-form R_lam as a vectorized callable of t > 0.

    lam = 0 returns the zero function.  A sum of two or more exponentials has
    no tabulated closed form here; use resolvent_numeric for it.
    """
    if not kernels.is_singular(spec) and len(kernels._exponential_terms(spec)[0]) > 1:
        raise UnsupportedVariantError(
            "no closed-form resolvent for a sum of two or more exponentials; "
            "use resolvent_numeric"
        )
    return functools.partial(_closed_form_resolvent, spec, lam)


def _closed_form_resolvent(spec, lam: float, t):
    """R_lam(t) for a singular fractional or a one-term kernel (see the
    kernels module doc).  Mittag-Leffler is looked up on the module at each
    call, so a test that patches kernels._ml_array sees this call too."""
    t_arr = np.asarray(t, dtype=float)
    if lam == 0.0:
        out = np.zeros_like(t_arr)
    elif kernels.is_singular(spec):
        lc = lam * spec.c
        al = spec.alpha
        if np.any(t_arr <= 0):
            raise KernelDomainError("fractional resolvent is singular at t <= 0")
        out = lc * t_arr ** (al - 1.0) * kernels._ml_array(al, al, -lc * t_arr**al)
    else:
        (c,), (beta,) = kernels._exponential_terms(spec)
        lc = lam * c
        out = lc * np.exp(-(beta + lc) * t_arr)
    return out if out.ndim else float(out)


class TestClosedFormResolvent:
    def test_constant(self):
        r = resolvent_closed_form(constant(1.0), 1.0)
        assert r(2.0) == pytest.approx(0.13533528323661269, rel=1e-13)

    def test_fractional_alpha_one_reduces_to_constant(self):
        r = resolvent_closed_form(FractionalKernel(1.0, 1.0), 0.5)
        assert r(1.0) == pytest.approx(0.30326532985631671, rel=1e-12)

    def test_lambda_zero_is_zero(self):
        for spec in TABLE_VARIANTS:
            r = resolvent_closed_form(spec, 0.0)
            assert r(1.3) == 0.0

    def test_exponential_row(self):
        spec = exponential(0.5, 1.2)
        r = resolvent_closed_form(spec, 2.0)
        assert r(0.7) == pytest.approx(1.0 * math.exp(-(1.2 + 1.0) * 0.7), rel=1e-13)


class TestNumericResolvent:
    def test_constant_matches_exponential(self):
        grid = TimeGrid(2.0, 200)
        s = resolvent_numeric(constant(1.0), 1.0, grid)
        np.testing.assert_allclose(s.values, np.exp(-grid.nodes()), atol=1e-4)

    def test_lambda_zero_all_zero(self):
        s = resolvent_numeric(FractionalKernel(1.0, 0.6), 0.0, TimeGrid(1.0, 100))
        assert np.all(s.values == 0.0)

    @pytest.mark.parametrize("lam", [-0.015, 0.3, 1.0])
    @pytest.mark.parametrize("spec", TABLE_VARIANTS)
    def test_matches_closed_form(self, spec, lam):
        grid = TimeGrid(3.0, 300)
        s = resolvent_numeric(spec, lam, grid)
        ref = resolvent_closed_form(spec, lam)(grid.nodes()[1:])
        assert np.max(np.abs(s.values[1:] - ref)) <= 1e-4

    @pytest.mark.parametrize("lam", [-0.015, 0.3, 1.0])
    @pytest.mark.parametrize("spec", TABLE_VARIANTS)
    def test_discrete_identity_residual(self, spec, lam):
        s = resolvent_numeric(spec, lam, TimeGrid(2.0, 250))
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
        spec_c = constant(1.0)
        r_c = resolvent_closed_form(spec_c, lam)
        for t in (0.5, 2.0):
            resid = convolution_identity_residual(lambda u: 1.0, r_c, lam, t)
            assert resid <= 1e-8

    def test_sum_of_exponentials_solves(self):
        spec = SumOfExponentialsKernel((0.5, 0.8), (0.2, 2.0))
        grid = TimeGrid(2.0, 400)
        s = resolvent_numeric(spec, 0.6, grid)
        assert s.residual <= 1e-10
        # cross-check against the single-exponential closed form componentwise
        single = exponential(0.5, 0.2)
        s1 = resolvent_numeric(single, 0.6, grid)
        ref = resolvent_closed_form(single, 0.6)(grid.nodes())
        np.testing.assert_allclose(s1.values, ref, atol=1e-6)

    def test_non_finite_solve_raises_naming_the_solve(self):
        # the remainder's solve overflows before t = 3, inside np.convolve,
        # which raises no floating-point error even under np.errstate(all="raise");
        # it was returned as inf values with a nan residual
        spec, grid = FractionalKernel.from_hurst(0.05), TimeGrid(3.0, 750)
        message = r"resolvent solve is not finite \(multiplier -20, 750 steps to t = 3\)"
        with pytest.raises(ValueError, match=message):
            resolvent_numeric(spec, -20.0, grid)
        with np.errstate(all="raise"), pytest.raises(ValueError, match=message):
            resolvent_numeric(spec, -20.0, grid)


# ---------------------------------------------------------------------------
# Integrated resolvent ratio
# ---------------------------------------------------------------------------

class TestIntegratedResolventRatio:
    def test_lambda_zero_alpha_one(self):
        got = integrated_resolvent_ratio_curve(FractionalKernel(1.0, 1.0), 0.0, [2.0])[0]
        assert got == pytest.approx(2.0)

    def test_lambda_zero_fractional(self):
        got = integrated_resolvent_ratio_curve(FractionalKernel(1.0, 0.6), 0.0, [1.0])[0]
        assert got == pytest.approx(1.1191749540701223, rel=1e-13)

    def test_alpha_one_exponential_closed_form(self):
        got = integrated_resolvent_ratio_curve(FractionalKernel(1.0, 1.0), -0.015, [3.0])[0]
        assert got == pytest.approx(3.0685239939144628, rel=1e-12)

    def test_cross_check_quadrature_of_numeric_resolvent(self):
        lam, tau = -0.015, 3.0
        grid = TimeGrid(tau, 3000)
        s = resolvent_numeric(FractionalKernel(1.0, 1.0), lam, grid)
        via_quad = np.trapezoid(s.values, dx=grid.spacing) / lam
        assert via_quad == pytest.approx(3.0685239939144628, rel=1e-6)

    def test_tau_zero(self):
        assert integrated_resolvent_ratio_curve(FractionalKernel(1.0, 0.6), 0.7, [0.0])[0] == 0.0

    @pytest.mark.parametrize("hurst", [0.1, 0.3])
    def test_small_argument_against_reference(self, hurst):
        # the configs/hedge_curves.json market: lam = kappa + rho sigma theta
        # = -0.015 and T = 3 at 250 steps/yr, so |z| = |lam c tau^a| < 0.05 at
        # every node, where (1 - E_{a,1}(z))/lam cancels to 3.6e-13
        spec = FractionalKernel.from_hurst(hurst)
        lam = 0.3 - 0.7 * 0.3 * 1.5
        taus = 3.0 - TimeGrid.for_horizon(3.0, 250).nodes()
        got = integrated_resolvent_ratio_curve(spec, lam, taus)
        scaled = spec.c * taus**spec.alpha
        ref = np.array([s * ml_reference(spec.alpha, spec.alpha + 1.0, -lam * s)
                        for s in scaled.tolist()])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
        assert got[-1] == 0.0 and math.copysign(1.0, got[-1]) == 1.0  # +0.0 at tau = 0

    @pytest.mark.parametrize("lam", [1.3, -1.3])
    def test_both_forms_across_the_seam(self, lam):
        # |z| runs through 1.5, where the E_{a,a+1} form hands over to
        # (1 - E_{a,1}(z))/lam; z < -1.5 reaches the arbitrary-precision branch
        spec = FractionalKernel(0.9, 0.6)
        taus = np.linspace(0.0, 4.0, 81)
        got = integrated_resolvent_ratio_curve(spec, lam, taus)
        scaled = spec.c * taus**spec.alpha
        assert np.any(np.abs(lam * scaled) < 1.5) and np.any(np.abs(lam * scaled) > 1.5)
        ref = np.array([s * ml_reference(spec.alpha, spec.alpha + 1.0, -lam * s)
                        for s in scaled.tolist()])
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("tau", [0.5, 1.0, 3.0])
    def test_continuity_in_lambda_at_zero(self, tau):
        spec = FractionalKernel(1.0, 0.6)
        a = integrated_resolvent_ratio_curve(spec, 1e-8, [tau])[0]
        b = integrated_resolvent_ratio_curve(spec, 0.0, [tau])[0]
        assert abs(a - b) <= 1e-6

    def test_monotone_in_alpha_large_and_small_tau(self):
        lam = -0.015
        alphas = [0.55, 0.7, 0.85, 1.0]
        at_50, at_001 = (
            [integrated_resolvent_ratio_curve(FractionalKernel(1.0, a), lam, [tau])[0]
             for a in alphas]
            for tau in (50.0, 0.01)
        )
        assert all(x < y for x, y in zip(at_50, at_50[1:]))
        assert all(x > y for x, y in zip(at_001, at_001[1:]))

    def test_other_variants_against_quadrature(self):
        from scipy.integrate import quad

        for spec, lam in [
            (constant(0.8), 0.9),
            (exponential(0.5, 1.2), 0.4),
            (exponential(0.5, 1.2), -2.4),  # beta + lam*c = 0 branch
        ]:
            r = resolvent_closed_form(spec, lam)
            ref, _ = quad(lambda s: r(s) / lam, 0.0, 1.5)
            got = integrated_resolvent_ratio_curve(spec, lam, [1.5])[0]
            assert got == pytest.approx(ref, rel=1e-9)

    def test_sum_of_exponentials_fallback(self):
        # two terms at one rate: the quadrature fallback against the one-term form
        sum_spec = SumOfExponentialsKernel((0.2, 0.3), (1.2, 1.2))
        exp_spec = exponential(0.5, 1.2)
        got = integrated_resolvent_ratio_curve(sum_spec, 0.4, [1.5])[0]
        ref = integrated_resolvent_ratio_curve(exp_spec, 0.4, [1.5])[0]
        assert got == pytest.approx(ref, rel=1e-5)

    def test_curve_matches_scalar(self):
        taus = np.array([0.0, 0.3, 1.0, 2.5])
        for spec in (
            FractionalKernel(1.0, 0.6),
            constant(0.8),
            exponential(0.5, 1.2),
            SumOfExponentialsKernel((0.3, 0.5), (0.0, 1.5)),
        ):
            for lam in (0.3, 0.0):
                curve = integrated_resolvent_ratio_curve(spec, lam, taus)
                for t, v in zip(taus, curve):
                    scalar = integrated_resolvent_ratio_curve(spec, lam, [t])[0]
                    assert v == pytest.approx(scalar, rel=1e-14, abs=0.0)


# Integrating R + lam K*R = lam K over [0, tau] gives an equation for the
# ratio itself: F(tau) = int_0^tau R_lam/lam solves F + lam K*F = int_0^tau K,
# a linear VIE with smooth forcing, so one solve on a grid gives F at every
# node, with no resolvent and no closed form.  Each gate sits above the
# solve's discretisation error at 250 steps a year; for the fits of H = 0.1,
# scipy's expm of the lifted system is within 7.7e-4 of the solve.
MULTI_TERM_RATIO = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 3: the multi-term quadrature ratio is 3.8-7.1 % off")
RATIO_BY_SOLVE = [
    pytest.param(lambda: FractionalKernel.from_hurst(0.1), 1.0, 1e-3, id="H0.1"),
    pytest.param(lambda: FractionalKernel.from_hurst(0.3), 3.0, 5e-5, id="H0.3"),
    pytest.param(lambda: exponential(0.7, 1.5), 1.0, 5e-6, id="exp"),
    pytest.param(lambda: fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 8, 1.0)[0],
                 1.0, 1e-3, id="soe8", marks=MULTI_TERM_RATIO),
    pytest.param(lambda: fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 20, 1.0)[0],
                 1.0, 1e-3, id="soe20", marks=MULTI_TERM_RATIO),
]


class TestRatioBySolve:
    @pytest.mark.parametrize("make_spec, horizon, tol", RATIO_BY_SOLVE)
    def test_matches_one_linear_solve(self, make_spec, horizon, tol):
        spec = make_spec()
        grid = TimeGrid.for_horizon(horizon, 250)
        nodes = grid.nodes()
        for lam in (-1.0, -0.315, 0.5, 2.0):
            ratio = integrated_resolvent_ratio_curve(spec, lam, nodes)
            by_solve = solve_linear_vie(
                LinearVieProblem(spec, lam, kernel_integral(spec, nodes), grid))
            assert np.max(np.abs(by_solve - ratio)) <= tol * np.max(np.abs(ratio)), lam


class TestBatchedResolventRatio:
    """The sum-of-exponentials ratio advances every tau in one time loop; each
    value agrees with trapezoid quadrature of resolvent_numeric on its grid."""

    @staticmethod
    def _per_tau(spec, lam, taus):
        out = np.zeros_like(taus)
        for j in np.flatnonzero(taus):
            n = max(200, int(250 * taus[j]))
            grid = TimeGrid(taus[j], n)
            samples = resolvent_numeric(spec, lam, grid)
            out[j] = np.trapezoid(samples.values, dx=grid.spacing) / lam
        return np.where(taus > 0, out, 0.0)

    @pytest.mark.parametrize("hurst,n_factors,lam", [
        (0.1, 8, -0.105), (0.1, 20, 0.5), (0.05, 20, -1.0), (0.3, 8, 2.4),
    ])
    def test_matches_per_tau_solves(self, hurst, n_factors, lam):
        # the weights of the 20-factor fits reach 96 with alternating signs,
        # and the history sums of the two forms round differently: at most
        # 3.5e-13 of the largest value
        spec, _ = fit_sum_of_exponentials(FractionalKernel.from_hurst(hurst), n_factors, 1.6)
        # 1.6 - t on 131 nodes: n from 200 to 400 cells and a zero tau; then
        # unsorted, with a zero first
        taus = 1.6 - np.linspace(0.0, 1.6, 131)
        shuffled = np.concatenate([[0.0, 1.6, 1e-3], taus[::7], [0.8, 0.804, 0.808]])
        for t in (taus, shuffled):
            got = integrated_resolvent_ratio_curve(spec, lam, t)
            ref = self._per_tau(spec, lam, t)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_makes_no_per_tau_resolvent_solve(self, monkeypatch):
        import roughmv.kernels as kernels

        def forbidden(*args):
            raise AssertionError("resolvent_numeric called")

        monkeypatch.setattr(kernels, "resolvent_numeric", forbidden)
        spec, _ = fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 8, 1.0)
        integrated_resolvent_ratio_curve(spec, 0.5, np.linspace(0.0, 1.0, 251))

    def test_rejects_non_finite_tau_and_lambda(self):
        spec = SumOfExponentialsKernel((0.3, 0.5), (0.0, 1.5))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="tau values must be finite"):
                integrated_resolvent_ratio_curve(spec, 0.5, [0.5, bad])
            with pytest.raises(ValueError, match="lambda must be finite"):
                integrated_resolvent_ratio_curve(spec, bad, [0.5])

    def test_memory_is_bounded_by_the_tau_block(self):
        # 401 taus up to T = 1.6 with 20 factors: the loop holds a few
        # (taus, factors) arrays and no grid; the march of all taus in one
        # padded block took 13 MB
        import tracemalloc

        spec, _ = fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 20, 1.6)
        taus = 1.6 - np.linspace(0.0, 1.6, 401)
        tracemalloc.start()
        try:
            integrated_resolvent_ratio_curve(spec, 0.5, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6


def marched_ratio(spec, lam, taus):
    """The ratio of each tau by the blocked node loop on its own grid."""
    out = np.zeros_like(taus)
    for j in np.flatnonzero(taus):
        grid = TimeGrid(taus[j], max(200, int(250 * taus[j])))
        a_w, b_w = _lag_weights(*cell_moments(spec, grid.spacing, grid.n_steps), grid.spacing)
        values = blocked_vie(lam, a_w, b_w, lam * kernel_eval(spec, grid.nodes()))
        out[j] = np.trapezoid(values, dx=grid.spacing) / lam
    return out


RECURRENCE_KERNELS = [
    exponential(0.5, 1.2),  # the curve takes one term's closed form instead
    constant(-0.8),
    SumOfExponentialsKernel((0.6, -0.2), (0.5, 40.0)),  # the fuzz test's kernel
    SumOfExponentialsKernel((0.3, 0.5), (0.0, 1.5)),  # q = 1
    SumOfExponentialsKernel((0.5, 0.3), (5e-324, 2.0)),
    SumOfExponentialsKernel((0.4, 0.7, -0.2), (1.0, 1e300, 3.0)),
]


class TestLagWeightRecurrence:
    """The ratio's recurrence over one state per term against the march of
    each tau's own product-trapezoidal equations."""

    @pytest.mark.parametrize("lam", [-2.4, -0.4, 0.9, 5.0])
    @pytest.mark.parametrize("spec", RECURRENCE_KERNELS)
    def test_matches_the_march(self, spec, lam):
        # n = 200, 201 and 202 cells either side of the n = 200 floor, a
        # zero tau, and taus out of order
        taus = np.array([0.804, 0.0, 0.8, 1.3, 0.808, 0.01, 0.5])
        got = _numeric_resolvent_ratio(spec, lam, taus)
        ref = marched_ratio(spec, lam, taus)
        assert np.all(np.isfinite(got)) and got[1] == 0.0
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_all_taus_zero(self):
        spec = RECURRENCE_KERNELS[2]
        for taus in (np.zeros(3), np.zeros(0)):
            assert_bits(_numeric_resolvent_ratio(spec, 0.7, taus), taus)
            assert_bits(integrated_resolvent_ratio_curve(spec, 0.7, taus), taus)


class TestSeriesInverse:
    @pytest.mark.parametrize("m", [1, 2, 3, 64, 100, 128])
    @pytest.mark.parametrize("a", [0.5, -0.9, 1.1])
    def test_geometric_series(self, a, m):
        # 1/(1 - a z) = sum a^k z^k; the product is exact where a is a power of two
        c = _series_inverse(np.array([1.0, -a]), m)
        assert c.shape == (m,)
        ref = a ** np.arange(m)
        assert np.max(np.abs(c - ref) / np.abs(ref)) <= 1e-13
        if a == 0.5:
            assert c.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("m", [1, 5, 127, 128])
    def test_product_is_one_modulo_z_to_the_m(self, m):
        t = np.random.default_rng(3).standard_normal(m) * 0.3
        t[0] = 1.7
        c = _series_inverse(t, m)
        product = np.convolve(t, c)[:m]
        product[0] -= 1.0
        # zero to the rounding of the sums: relative to the sums of |terms|
        scale = np.convolve(np.abs(t), np.abs(c))[:m]
        assert np.max(np.abs(product) / scale) <= 1e-14


# the direct solve against the node loop of oracles.blocked_vie: one node, a
# block but one, a block, a block and one, two blocks and three, and the
# longest grid of the benchmark
DIRECT_SIZES = [1, MARCH_BLOCK - 1, MARCH_BLOCK, MARCH_BLOCK + 1, 2 * MARCH_BLOCK + 3, 2100]
DIRECT_KERNELS = {
    "H0.05": FractionalKernel.from_hurst(0.05),
    "H0.1": FractionalKernel.from_hurst(0.1),
    "H0.5": FractionalKernel.from_hurst(0.5),
    "constant": constant(0.8),
    "exp": exponential(0.5, 1.2),
    "soe8": fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 8, 2.0)[0],
    "soe20": fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 20, 2.0)[0],
}
DIRECT_LAMS = [-20.0, -1.0, 0.3, 2.0, 50.0, 5000.0]


class TestDirectSolve:
    @pytest.mark.parametrize("n", DIRECT_SIZES)
    @pytest.mark.parametrize("name", DIRECT_KERNELS)
    def test_matches_the_march(self, name, n):
        # at lam = -20 the diagonal 1 + lam b_w[0] of both solves crosses 0
        # where H = 0.05 and h is about 1/133, so [0, 1] would put n = 127..129
        # next to a singular system; on [0, 0.5] every n stays clear of it
        grid = TimeGrid(0.5, n)
        a_w, b_w = _lag_weights(*cell_moments(DIRECT_KERNELS[name], grid.spacing, n),
                                grid.spacing)
        f = np.cos(3.0 * grid.nodes()) + 0.5
        for lam in DIRECT_LAMS:
            ref = blocked_vie(lam, a_w, b_w, f)
            assert np.all(np.isfinite(ref))
            got = _vie_direct(lam, a_w, b_w, f)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), lam

    @pytest.mark.parametrize("n", [MARCH_BLOCK - 1, MARCH_BLOCK + 1])
    def test_refined_where_the_right_hand_side_dwarfs_the_solution(self, n):
        # lam h near 116: the solution falls to 1e-3 of its start, while the
        # right-hand side holds lam a_w x_0 near 87; the product with the
        # series alone was 1.9e-12 off the march here
        grid = TimeGrid(3.0, n)
        a_w, b_w = _lag_weights(*cell_moments(constant(1.0), grid.spacing, n), grid.spacing)
        f = np.cos(3.0 * grid.nodes()) + 0.5
        ref = blocked_vie(5000.0, a_w, b_w, f)
        got = _vie_direct(5000.0, a_w, b_w, f)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestCompleteMonotonicity:
    # positive-weight kernels are completely monotone; spot-check the first
    # two derivative signs on a sampled grid
    @pytest.mark.parametrize(
        "spec",
        [
            constant(0.7),
            FractionalKernel(1.0, 0.6),
            FractionalKernel(2.0, 0.85),
            exponential(0.5, 1.2),
            SumOfExponentialsKernel((0.5, 1.5), (0.3, 4.0)),
        ],
    )
    def test_decreasing_and_convex(self, spec):
        t = np.linspace(0.05, 5.0, 400)
        k = kernel_eval(spec, t)
        assert np.all(np.diff(k) <= 1e-15)
        assert np.all(np.diff(k, 2) >= -1e-12)


# ---------------------------------------------------------------------------
# One-term sums: the constant kernel c (rate 0) and c exp(-beta t)
# ---------------------------------------------------------------------------
# The old_* functions keep the expressions kernels.py used when the constant
# and exponential kernels had classes of their own, and for sums before all
# kernels that are not singular shared one path.  The shared path must give
# their bits, signed zeros included, apart from the changes listed in
# test_listed_changes.  The cell moments left them on purpose (their closed
# form cancelled where beta*h is small); they are held to an mpmath oracle.

def old_kernel_eval(spec, t):
    t_arr = np.asarray(t, dtype=float)
    if spec.n_factors == 1:
        out = spec.weights[0] * np.exp(-spec.rates[0] * t_arr)
    else:
        out = np.exp(-t_arr[..., None] * np.asarray(spec.rates)) @ np.asarray(spec.weights)
    return out if out.ndim else float(out)


def old_kernel_integral(spec, t):
    t_arr = np.asarray(t, dtype=float)
    if spec.n_factors == 1:
        (c,), (b,) = spec.weights, spec.rates
        out = c * t_arr if b == 0 else c * (-np.expm1(-b * t_arr)) / b
    else:
        out = np.zeros_like(t_arr)
        for w, r in zip(spec.weights, spec.rates):
            out = out + (w * t_arr if r == 0 else w * (-np.expm1(-r * t_arr)) / r)
    return out if out.ndim else float(out)


def old_resolvent(spec, lam, t):
    """Mittag-Leffler form for a fractional kernel, whatever its alpha."""
    t_arr = np.asarray(t, dtype=float)
    if lam == 0.0:
        out = np.zeros_like(t_arr)
    elif isinstance(spec, FractionalKernel):
        lc = lam * spec.c
        al = spec.alpha
        out = lc * t_arr ** (al - 1.0) * _ml_array(al, al, -lc * t_arr**al)
    else:
        (c,), (beta,) = spec.weights, spec.rates
        lc = lam * c
        out = lc * np.exp(-(beta + lc) * t_arr)
    return out if out.ndim else float(out)


def old_ratio_curve(spec, lam, taus):
    if lam == 0.0:
        return np.asarray(old_kernel_integral(spec, taus), dtype=float)
    (c,), (beta,) = spec.weights, spec.rates
    rate = beta + lam * c
    out = c * taus if rate == 0.0 else c * (-np.expm1(-rate * taus)) / rate
    return np.where(taus > 0, out, 0.0)


def old_constant_ratio_curve(c, lam, taus):
    """The constant kernel's own form, (1 - e^{-lam c tau})/lam."""
    return np.where(taus > 0, -np.expm1(-lam * c * taus) / lam, 0.0)


def assert_bits(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    assert got.shape == ref.shape
    assert got.tobytes() == ref.tobytes(), (got, ref)


def all_negative_sum(spec):
    return isinstance(spec, SumOfExponentialsKernel) and max(spec.weights) < 0


def assert_cell_moments_match_oracle(spec, h, n, cells=None):
    """cell_moments against exp_cell_moments_reference term by term: each sum
    within 1e-13 of the sum of its terms' magnitudes (of each term alone for
    one term), on the cells given (all by default).  Values whose reference
    is below the normal range of doubles need only be as small."""
    got = cell_moments(spec, h, n)
    edges = np.arange(n + 1, dtype=float) * h
    cells = range(n) if cells is None else cells
    for m in cells:
        a, b = float(edges[m]), float(edges[m + 1])
        terms = np.array([exp_cell_moments_reference(w, r, a, b)
                          for w, r in zip(spec.weights, spec.rates)])
        for k in range(2):
            value = got[k][m]
            ref, scale = terms[:, k].sum(), np.abs(terms[:, k]).sum()
            if scale < 1e-290:
                assert abs(value) < 1e-280, (m, k, value)
            else:
                assert abs(value - ref) <= 1e-13 * scale, (m, k, value, ref)


FIT8 = fit_sum_of_exponentials(FractionalKernel.from_hurst(0.1), 8, 2.0)[0]
ONE_TERM = [
    constant(1.0), constant(-0.7), constant(2.5),
    exponential(0.5, 1.2), exponential(-0.8, 3.0),
    exponential(1.3, 0.0), exponential(-2.0, 0.0),
]
SUMS = [
    SumOfExponentialsKernel((0.4, -1.1), (0.0, 2.5)),
    SumOfExponentialsKernel((-0.3, -0.6), (0.7, 4.0)),
    FIT8,
    SumOfExponentialsKernel(tuple(-abs(w) for w in FIT8.weights), FIT8.rates),
]
SWEEP_T = np.array([0.0, 1e-3, 0.37, 1.0, 2.5, 40.0])
SWEEP_LAMS = [0.0, -0.4, 0.9, -2.4]  # -2.4 makes beta + lam c = 0 for (0.5, 1.2)


class TestOneTermSums:
    @pytest.mark.parametrize("spec", ONE_TERM + SUMS)
    def test_kernel_eval_and_integral(self, spec):
        assert_bits(kernel_eval(spec, SWEEP_T), old_kernel_eval(spec, SWEEP_T))
        assert_bits(kernel_eval(spec, SWEEP_T[:, None]), old_kernel_eval(spec, SWEEP_T[:, None]))
        ref = old_kernel_integral(spec, SWEEP_T)
        if all_negative_sum(spec):
            ref[0] = -0.0
        assert_bits(kernel_integral(spec, SWEEP_T), ref)
        for t in SWEEP_T.tolist():
            assert_bits(kernel_eval(spec, t), old_kernel_eval(spec, t))
            assert type(kernel_eval(spec, t)) is float
            if t > 0 or not all_negative_sum(spec):
                assert_bits(kernel_integral(spec, t), old_kernel_integral(spec, t))

    @pytest.mark.parametrize("spec", ONE_TERM + SUMS)
    @pytest.mark.parametrize("h", [0.02, np.array([0.004, 0.02, 0.3])], ids=["scalar", "array"])
    def test_cell_moments(self, spec, h):
        # moved on purpose: the old closed form cancelled for small beta*h
        # (FIT8's slowest rate at h = 0.004 lost 7 digits); now held to the
        # oracle at each spacing
        for hr in np.atleast_1d(h).tolist():
            assert_cell_moments_match_oracle(spec, hr, 60)

    @pytest.mark.parametrize(
        "spec", ONE_TERM + [FractionalKernel(1.0, 0.6), FractionalKernel(-0.5, 1.0)]
    )
    @pytest.mark.parametrize("lam", SWEEP_LAMS)
    def test_resolvent_closed_form(self, spec, lam):
        r = resolvent_closed_form(spec, lam)
        t = SWEEP_T[1:] if isinstance(spec, FractionalKernel) else SWEEP_T
        if isinstance(spec, FractionalKernel) and spec.alpha == 1.0:
            # moved on purpose: classic Heston runs as the one-term sum c, not
            # through Mittag-Leffler; the two forms agree to 1e-13
            ref = old_resolvent(constant(spec.c), lam, t)
            np.testing.assert_allclose(ref, old_resolvent(spec, lam, t), rtol=1e-13, atol=0.0)
            assert_bits(r(t), ref)
            assert_bits(r(0.37), old_resolvent(constant(spec.c), lam, 0.37))
        else:
            assert_bits(r(t), old_resolvent(spec, lam, t))
            assert_bits(r(0.37), old_resolvent(spec, lam, 0.37))
        assert type(r(0.37)) is float

    @pytest.mark.parametrize("spec", ONE_TERM)
    @pytest.mark.parametrize("lam", SWEEP_LAMS)
    def test_integrated_resolvent_ratio_curve(self, spec, lam):
        got = integrated_resolvent_ratio_curve(spec, lam, SWEEP_T)
        assert_bits(got, old_ratio_curve(spec, lam, SWEEP_T))
        if spec.rates == (0.0,) and lam != 0.0:
            # c (1 - e^{-lam c tau})/(lam c) in place of (1 - e^{-lam c tau})/lam
            ref = old_constant_ratio_curve(spec.weights[0], lam, SWEEP_T)
            np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)
            assert np.array_equal(np.signbit(got), np.signbit(ref))
            if spec.weights[0] == 1.0:
                assert_bits(got, ref)

    @pytest.mark.parametrize("spec", SUMS)
    def test_integrated_resolvent_ratio_curve_of_sums_at_lam_zero(self, spec):
        ref = old_kernel_integral(spec, SWEEP_T)
        if all_negative_sum(spec):
            ref[0] = -0.0
        assert_bits(integrated_resolvent_ratio_curve(spec, 0.0, SWEEP_T), ref)

    @pytest.mark.parametrize("spec", ONE_TERM + SUMS)
    def test_factor_kernel_of_non_fractional_kernels(self, spec):
        got, rel, sq = _as_factor_kernel(spec, LiftedFactors(8), 2.0)
        assert got == spec and (rel, sq) == (0.0, 0.0)
        assert_bits(got.weights, spec.weights)
        assert_bits(got.rates, spec.rates)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5])
    def test_factor_kernel_fit_residual(self, hurst):
        kernel = FractionalKernel.from_hurst(hurst)
        approx, rel = fit_sum_of_exponentials(kernel, 8, 2.0)
        t_err = np.geomspace(2.0 / 1.0e4, 2.0, 2000)
        resid = kernel_eval(kernel, t_err) - kernel_eval(approx, t_err)
        sq = float(np.trapezoid(resid**2, t_err))
        ref_rel = float(np.sqrt(sq / np.trapezoid(kernel_eval(kernel, t_err) ** 2, t_err)))
        assert_bits(rel, ref_rel)
        got = _as_factor_kernel(kernel, LiftedFactors(8), 2.0)
        assert got[0] == approx
        assert_bits(got[1:], (ref_rel, sq))

    def test_listed_changes(self):
        # the only bits the shared path changes: signed zeros of sums that
        # underflow or start from a negative first term
        assert math.copysign(1.0, kernel_eval(exponential(-0.8, 3.0), 300.0)) == 1.0
        assert math.copysign(1.0, old_kernel_eval(exponential(-0.8, 3.0), 300.0)) == -1.0
        neg = SumOfExponentialsKernel((-0.3, -0.6), (700.0, 900.0))
        assert math.copysign(1.0, kernel_integral(neg, 0.0)) == -1.0
        i0 = cell_moments(neg, 2.0, 3)[0]
        assert_bits(i0[1:], [-0.0, -0.0])  # a sum started from zeros gave +0.0


class TestExpCellMoments:
    """Moments of c exp(-beta u) over the lag cells, against the mpmath oracle,
    from beta = 0 through beta*h = 1e-300 (the series) to 1e3."""

    @pytest.mark.parametrize("x", [0.0, 1e-300, 1e-200, 1e-100, 1e-30, 1e-12, 1e-6,
                                   1e-4, 1e-2, 0.0999, 0.1, 0.1001, 0.5, 1.0, 10.0,
                                   100.0, 1e3])
    @pytest.mark.parametrize("c", [1.0, -0.7])
    def test_against_oracle(self, x, c):
        h, n = 0.004, 750
        spec = exponential(c, x / h)
        assert_cell_moments_match_oracle(spec, h, n, cells=[0, 1, 2, 9, 99, 748, 749])
        for hr in (h, 0.3 * h):
            assert_cell_moments_match_oracle(spec, hr, 3)

    def test_rate_far_below_the_spacing_runs(self):
        # 1/beta^2 underflowed to a ZeroDivisionError at beta = 1e-300
        spec = exponential(1.0, 1e-300)
        i0, i1 = cell_moments(spec, 0.004, 10)
        ref = cell_moments(constant(1.0), 0.004, 10)
        np.testing.assert_allclose(i0, ref[0], rtol=1e-15)
        np.testing.assert_allclose(i1, ref[1], rtol=1e-14)


class TestClassicHeston:
    """alpha = 1 is the one-term sum c exp(-0 t): exact forms, no Mittag-Leffler."""

    @pytest.mark.parametrize("c", [1.0, -0.5, 2.5])
    def test_same_bits_as_the_constant_sum(self, c, monkeypatch):
        import roughmv.kernels as kernels

        heston, flat = FractionalKernel(c, 1.0), constant(c)
        t = SWEEP_T
        ref_eval, ref_int = kernel_eval(flat, t), kernel_integral(flat, t)
        ref_cells = cell_moments(flat, 0.02, 60)
        monkeypatch.setattr(kernels, "_ml_array", lambda *a: pytest.fail("Mittag-Leffler call"))
        assert_bits(kernel_eval(heston, t), ref_eval)
        assert_bits(kernel_integral(heston, t), ref_int)
        for got, ref in zip(cell_moments(heston, 0.02, 60), ref_cells):
            assert_bits(got, ref)
        for lam in SWEEP_LAMS:
            assert_bits(resolvent_closed_form(heston, lam)(t[1:]),
                        resolvent_closed_form(flat, lam)(t[1:]))
            assert_bits(integrated_resolvent_ratio_curve(heston, lam, t),
                        integrated_resolvent_ratio_curve(flat, lam, t))
        assert _as_factor_kernel(heston, LiftedFactors(8), 2.0) == (flat, 0.0, 0.0)

    @pytest.mark.parametrize("c", [1.0, -0.5, 2.5])
    @pytest.mark.parametrize("lam", [-0.4, 0.9, -2.4])
    def test_ratio_against_oracle(self, c, lam):
        # moved on purpose: (1 - E_{1,1}(-lam c tau))/lam, which cancels for
        # small tau (3.3e-13 relative at tau = 1e-3), gave way to the exact
        # one-term form; both are held to (1 - e^{-lam c tau})/lam in mpmath
        import mpmath

        taus = SWEEP_T[1:]
        with mpmath.workdps(40):
            ref = np.array([float(-mpmath.expm1(-mpmath.mpf(lam) * c * t) / lam)
                            for t in taus.tolist()])
        got = integrated_resolvent_ratio_curve(FractionalKernel(c, 1.0), lam, taus)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
        ml = (1.0 - _ml_array(1.0, 1.0, -lam * c * taus)) / lam
        np.testing.assert_allclose(ml, ref, rtol=1e-12, atol=0.0)
