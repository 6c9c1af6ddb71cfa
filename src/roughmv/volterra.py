"""Discretized linear and Riccati Volterra solvers.

Linear equations x(t) + lam * int_0^t K(t-s) x(s) ds = f(t) are solved by an
implicit product-trapezoidal rule: the kernel is integrated exactly against a
piecewise-linear interpolant of x, which stays stable across the t^(alpha-1)
singularity at the origin.

The quadratic (Riccati) equation is solved by the fractional Adams
predictor-corrector: product-rectangle prediction, then two
product-trapezoidal corrections.  The solved equation is

    psi(t) = int_0^t K(t-s) * (-H2 psi^2 + H1 psi - H0)(s) ds,

equivalently -psi = K * H(-psi) for H(w) = H2 w^2 + H1 w + H0, which is the
form whose comparison bounds (w_star, r1 below) apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import (
    MARCH_BLOCK,
    Kernel,
    TimeGrid,
    cell_moments,
    kernel_integral,
    _check_finite,
    _finite_vie_direct,
    _lag_weights,
)


# the Riccati solve stops where |psi| passes this many times |w_star|
_DIVERGENCE_FACTOR = 10.0


class DivergenceError(RuntimeError):
    """Riccati iteration blew past the theoretical bound."""


@dataclass(frozen=True)
class LinearVieProblem:
    """x(t) + multiplier * (K*x)(t) = forcing(t) on the grid."""

    kernel: Kernel
    multiplier: float
    forcing: np.ndarray
    grid: TimeGrid

    def forcing_samples(self) -> np.ndarray:
        _check_finite(forcing=self.forcing)
        f = np.asarray(self.forcing, dtype=float)
        shape = (self.grid.n_steps + 1,)
        if f.shape != shape:
            raise ValueError(f"forcing has shape {f.shape}, expected {shape}")
        return f


@dataclass(frozen=True)
class RiccatiCoefficients:
    """Coefficients of H(w) = H2 w^2 + H1 w + H0.

    The mean-variance-on-log-returns instantiation has
        H2 = gamma^2 rho^2 sigma^2 / (2 (1+gamma)^2) >= 0,
        H1 = -(kappa + gamma^2 rho sigma theta / (1+gamma)^2),
        H0 = -(1+2 gamma) theta^2 / (2 (1+gamma)^2) <= 0,
    and the solution bound below requires H1 < 0 and H0 < 0.
    """

    H2: float
    H1: float
    H0: float

    def __post_init__(self):
        _check_finite(H2=self.H2, H1=self.H1, H0=self.H0)

    def rhs(self, w):
        """Integrand -H2 w^2 + H1 w - H0 of the psi equation."""
        return -self.H2 * w * w + self.H1 * w - self.H0

    @classmethod
    def log_mv(cls, kappa, rho, sigma, theta, gamma) -> "RiccatiCoefficients":
        g1 = (1.0 + gamma) ** 2
        return cls(
            H2=gamma**2 * rho**2 * sigma**2 / (2.0 * g1),
            H1=-(kappa + gamma**2 * rho * sigma * theta / g1),
            H0=-(1.0 + 2.0 * gamma) * theta**2 / (2.0 * g1),
        )


# ---------------------------------------------------------------------------
# Linear solve
# ---------------------------------------------------------------------------

def solve_linear_vie(problem: LinearVieProblem) -> np.ndarray:
    """Solution samples of x + multiplier*(K*x) = forcing on the grid."""
    grid = problem.grid
    f = problem.forcing_samples()
    lam = problem.multiplier
    if lam == 0.0:
        return f.copy()
    i0, i1 = cell_moments(problem.kernel, grid.spacing, grid.n_steps)
    a_w, b_w = _lag_weights(i0, i1, grid.spacing)
    return _finite_vie_direct(lam, a_w, b_w, f, grid, "linear Volterra solve")


# ---------------------------------------------------------------------------
# Riccati-Volterra solver (fractional Adams predictor-corrector)
# ---------------------------------------------------------------------------

def solve_riccati_volterra(
    kernel: Kernel,
    coeffs: RiccatiCoefficients,
    grid: TimeGrid,
) -> np.ndarray:
    """psi on the grid by the fractional Adams step; psi[0] = 0.

    Each node is predicted by the product-rectangle rule and then corrected
    twice by the product-trapezoidal rule.  The step sums the history of the
    integrand g = rhs(psi): the predictor by the product-rectangle weights i0
    against g from node 0, the corrector by the product-trapezoidal weights,
    as a_w[i-1] g[0] plus the combined lag weights a_w[m-1] + b_w[m] against
    g from node 1; the corrector's weight b_w[0] on the new node is b1.  The
    grid is walked in blocks of MARCH_BLOCK nodes (Hairer, Lubich & Schlichte
    1985): the history from before a block enters all of its nodes by one
    np.convolve per sum, and inside the block each new node adds its terms to
    the later nodes' sums.
    Where |psi| passes the guard (_DIVERGENCE_FACTOR times |w_star|, when
    the bound applies) or leaves the floats, DivergenceError names the node.
    """
    h = grid.spacing
    n = grid.n_steps
    i0, i1 = cell_moments(kernel, h, n)
    a_w, b_w = _lag_weights(i0, i1, h)
    b1 = float(b_w[0])

    guard = math.inf
    if coeffs.H1 < 0 and coeffs.H0 < 0 and coeffs.H2 >= 0:
        guard = float(_DIVERGENCE_FACTOR * abs(negative_root(coeffs)))

    lag = a_w.copy()
    lag[:-1] += b_w[1:]
    rhs = coeffs.rhs
    psi = np.zeros(n + 1)
    g = np.empty(n + 1)
    g[0] = g0 = rhs(0.0)
    width = min(MARCH_BLOCK, n)
    # node k of a block keeps its (predictor, corrector) sums in acc[2k:2k+2],
    # and near interleaves the two sums' weights on lags 1..width-1 alike;
    # steps[k] holds node k's sums, the later nodes' sums and their weights
    # on node k
    acc = np.empty(2 * width)
    near = np.stack((i0[: width - 1], lag[: width - 1]), axis=1).ravel()
    steps = [(acc[2 * k : 2 * k + 2], acc[2 * k + 2 :], near[: 2 * (width - 1 - k)])
             for k in range(width)]
    for s in range(1, n + 1, width):
        size = min(width, n + 1 - s)
        acc.fill(0.0)
        acc[1 : 2 * size : 2] = a_w[s - 1 : s - 1 + size] * g0
        acc[0 : 2 * size : 2] += np.convolve(i0[: s + size - 1], g[:s], "valid")
        if s > 1:
            acc[1 : 2 * size : 2] += np.convolve(lag[: s + size - 2], g[1:s], "valid")
        for i, (sums, later, weights) in enumerate(steps[:size], start=s):
            pred, past = sums.tolist()
            # two corrections: another count changes psi and every file with it
            value = past + b1 * rhs(pred)
            value = past + b1 * rhs(value)
            if not math.isfinite(value) or abs(value) > guard:
                raise DivergenceError(
                    f"psi diverged at node {i} (t = {i * h:.6g}): "
                    f"|psi| = {abs(value):.3g} exceeds {guard:.3g}"
                )
            psi[i] = value
            g[i] = g_new = rhs(value)
            later += g_new * weights
    return psi


# ---------------------------------------------------------------------------
# Analytic bound machinery
# ---------------------------------------------------------------------------

def _check_bound_preconditions(coeffs: RiccatiCoefficients):
    if not (coeffs.H1 < 0 and coeffs.H0 < 0):
        raise ValueError(
            f"bound requires H1 < 0 and H0 < 0, got H1={coeffs.H1}, H0={coeffs.H0}"
        )
    if coeffs.H2 < 0:
        raise ValueError(f"bound requires H2 >= 0, got H2={coeffs.H2}")


def negative_root(coeffs: RiccatiCoefficients) -> float:
    """The root w_star < 0 of H where the bound applies (H1 < 0, H0 < 0,
    H2 >= 0; other coefficients are refused), in the product form
    2 H0 / (-H1 + sqrt(H1^2 - 4 H2 H0)): it is -H0/H1 at H2 = 0 exactly, where
    (-H1 - sqrt(H1^2 - 4 H2 H0)) / (2 H2) cancels as H2 -> 0."""
    _check_bound_preconditions(coeffs)
    h2, h1, h0 = coeffs.H2, coeffs.H1, coeffs.H0
    return 2.0 * h0 / (-h1 + np.sqrt(h1**2 - 4.0 * h2 * h0))


def _q1_inverse(coeffs: RiccatiCoefficients, m) -> np.ndarray:
    """w in (w_star, 0] with Q1(w) = m >= 0, in closed form, where
    Q1(w) = -int_w^0 du / H(u) is finite on (w_star, 0] and -> inf at w_star."""
    m = np.asarray(m, dtype=float)
    h2, h1, h0 = coeffs.H2, coeffs.H1, coeffs.H0
    if h2 == 0.0:
        out = h0 * np.expm1(h1 * m) / h1
    else:
        sq = np.sqrt(h1**2 - 4.0 * h2 * h0)
        r_plus = (-h1 + sq) / (2.0 * h2)
        r_minus = negative_root(coeffs)
        e = np.exp(sq * m)
        out = r_minus * r_plus * (1.0 - e) / (r_minus - e * r_plus)
    return out if out.ndim else float(out)


def riccati_bound_curve(
    coeffs: RiccatiCoefficients, kernel: Kernel, taus
) -> np.ndarray:
    """r1 at an array of times > 0, with negative_root(coeffs) < r1(t) < 0;
    -r1 dominates psi pointwise.

    r1(t) solves Q1(r1) = int_0^t K; since Q1 inverts in closed form the
    root is exact up to rounding.
    """
    _check_bound_preconditions(coeffs)
    _check_finite(positive=True, taus=taus)
    targets = np.asarray(kernel_integral(kernel, taus), dtype=float)
    return np.asarray(_q1_inverse(coeffs, targets), dtype=float)
