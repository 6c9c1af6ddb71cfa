"""Discretized linear and Riccati Volterra solvers.

Linear equations x(t) + lam * int_0^t K(t-s) x(s) ds = f(t) are solved by an
implicit product-trapezoidal rule: the kernel is integrated exactly against a
piecewise-linear interpolant of x, which stays stable across the t^(alpha-1)
singularity at the origin.

The quadratic (Riccati) equation is solved by the fractional Adams
predictor-corrector: product-rectangle prediction, product-trapezoidal
correction, one PECE sweep by default.  The solved equation is

    psi(t) = int_0^t K(t-s) * (-H2 psi^2 + H1 psi - H0)(s) ds,

equivalently -psi = K * H(-psi) for H(w) = H2 w^2 + H1 w + H0, which is the
form whose comparison bounds (w_star, r1 below) apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import (
    MARCH_BLOCK,
    Kernel,
    TimeGrid,
    cell_moments,
    discrete_convolution,
    kernel_integral,
    _finite_vie_direct,
    _lag_weights,
)


class DivergenceError(RuntimeError):
    """Riccati iteration blew past the theoretical bound."""


@dataclass(frozen=True)
class LinearVieProblem:
    """x(t) + multiplier * (K*x)(t) = forcing(t) on the grid."""

    kernel: Kernel
    multiplier: float
    forcing: np.ndarray | Callable[[np.ndarray], np.ndarray]
    grid: TimeGrid

    def forcing_samples(self) -> np.ndarray:
        nodes = self.grid.nodes()
        if callable(self.forcing):
            f = np.asarray(self.forcing(nodes), dtype=float)
        else:
            f = np.asarray(self.forcing, dtype=float)
        if f.shape != nodes.shape:
            raise ValueError(
                f"forcing has shape {f.shape}, expected {nodes.shape}"
            )
        if not np.all(np.isfinite(f)):
            raise ValueError("forcing must be finite on the grid")
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


@dataclass(frozen=True)
class SolverConfig:
    corrector_iterations: int = 1
    corrector_tol: float | None = None
    divergence_factor: float = 10.0

    def __post_init__(self):
        if self.corrector_iterations < 1:
            raise ValueError("corrector_iterations must be >= 1")


@dataclass(frozen=True)
class PsiSolution:
    """psi sampled on a time-to-maturity grid; psi(0) = 0."""

    grid: TimeGrid
    values: np.ndarray
    coefficients: RiccatiCoefficients
    kernel: Kernel


# ---------------------------------------------------------------------------
# Convolution and linear solve
# ---------------------------------------------------------------------------

def convolve(kernel: Kernel, curve: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """(K * curve)(t_i) on the grid by product-trapezoidal quadrature.

    Exact for piecewise-linear curves (hence for constants: K*1 equals
    int_0^t K at every node, bit-for-bit with kernel_integral up to rounding).
    """
    curve = np.asarray(curve, dtype=float)
    nodes = grid.nodes()
    if curve.shape != nodes.shape:
        raise ValueError(f"curve has shape {curve.shape}, expected {nodes.shape}")
    i0, i1 = cell_moments(kernel, grid.spacing, grid.n_steps)
    a_w, b_w = _lag_weights(i0, i1, grid.spacing)
    return discrete_convolution(a_w, b_w, curve)


def solve_linear_vie(problem: LinearVieProblem) -> np.ndarray:
    """Solution samples of x + multiplier*(K*x) = forcing on the grid."""
    grid = problem.grid
    if grid.t_start != 0.0:
        raise ValueError("linear VIE grid must start at t = 0")
    f = problem.forcing_samples()
    lam = problem.multiplier
    if lam == 0.0:
        return f.copy()
    i0, i1 = cell_moments(problem.kernel, grid.spacing, grid.n_steps)
    a_w, b_w = _lag_weights(i0, i1, grid.spacing)
    return _finite_vie_direct(lam, a_w, b_w, f, grid, "linear Volterra solve")


# ---------------------------------------------------------------------------
# Riccati-Volterra solver (fractional Adams PECE)
# ---------------------------------------------------------------------------

def solve_riccati_volterra(
    kernel: Kernel,
    coeffs: RiccatiCoefficients,
    grid: TimeGrid,
    config: SolverConfig = SolverConfig(),
) -> PsiSolution:
    """psi on the grid by the fractional Adams PECE step.

    The step sums the history of the integrand g = rhs(psi): the predictor by
    the product-rectangle weights i0 against g from node 0, the corrector by
    the product-trapezoidal weights, as a_w[i-1] g[0] plus the combined lag
    weights a_w[m-1] + b_w[m] against g from node 1; the corrector's weight
    b_w[0] on the new node is b1.  The grid is walked in blocks of
    MARCH_BLOCK nodes (Hairer, Lubich & Schlichte 1985): the history from
    before a block enters all of its nodes by one np.convolve per sum, and
    inside the block each new node adds its terms to the later nodes' sums.
    Where |psi| passes the guard (divergence_factor times |w_star|, when the
    bound applies) or leaves the floats, DivergenceError names the node.
    """
    if grid.t_start != 0.0:
        raise ValueError("Riccati grid must start at t = 0")
    h = grid.spacing
    n = grid.n_steps
    i0, i1 = cell_moments(kernel, h, n)
    a_w, b_w = _lag_weights(i0, i1, h)
    b1 = float(b_w[0])

    guard = math.inf
    if coeffs.H1 < 0 and coeffs.H0 < 0 and coeffs.H2 >= 0:
        guard = float(config.divergence_factor * abs(negative_root(coeffs)))

    lag = a_w.copy()
    lag[:-1] += b_w[1:]
    rhs = coeffs.rhs
    iterations, tol = config.corrector_iterations, config.corrector_tol
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
            value = past + b1 * rhs(pred)
            for _ in range(iterations):
                prev = value
                value = past + b1 * rhs(value)
                if tol is not None and abs(value - prev) <= tol:
                    break
            if not math.isfinite(value) or abs(value) > guard:
                raise DivergenceError(
                    f"psi diverged at node {i} (t = {i * h:.6g}): "
                    f"|psi| = {abs(value):.3g} exceeds {guard:.3g}"
                )
            psi[i] = value
            g[i] = g_new = rhs(value)
            later += g_new * weights
    return PsiSolution(grid=grid, values=psi, coefficients=coeffs, kernel=kernel)


# ---------------------------------------------------------------------------
# Analytic bound machinery
# ---------------------------------------------------------------------------

def negative_root(coeffs: RiccatiCoefficients) -> float:
    """The root w_star < 0 of H on the decreasing branch.

    w_star = (-H1 - sqrt(H1^2 - 4 H2 H0)) / (2 H2), degenerating to
    -H0/H1 when H2 = 0.  For H1 < 0 the subtraction cancels as H2 -> 0, so
    the root is computed through the product form 2 H0 / (-H1 + sqrt(disc)),
    which also covers H2 = 0 exactly.
    """
    if coeffs.H2 == 0.0 and coeffs.H1 == 0.0:
        raise ValueError("H has no root when H2 = H1 = 0")
    disc = coeffs.H1**2 - 4.0 * coeffs.H2 * coeffs.H0
    if disc < 0:
        raise ValueError("H has no real root (discriminant < 0)")
    if coeffs.H1 <= 0.0:
        return 2.0 * coeffs.H0 / (-coeffs.H1 + np.sqrt(disc))
    return (-coeffs.H1 - np.sqrt(disc)) / (2.0 * coeffs.H2)


def _check_bound_preconditions(coeffs: RiccatiCoefficients):
    if not (coeffs.H1 < 0 and coeffs.H0 < 0):
        raise ValueError(
            f"bound requires H1 < 0 and H0 < 0, got H1={coeffs.H1}, H0={coeffs.H0}"
        )
    if coeffs.H2 < 0:
        raise ValueError(f"bound requires H2 >= 0, got H2={coeffs.H2}")


def q1(coeffs: RiccatiCoefficients, w) -> np.ndarray:
    """Q1(w) = -int_w^0 du / H(u), finite on (w_star, 0], -> inf at w_star.

    H is quadratic, so the integral is evaluated by partial fractions rather
    than numerical quadrature (H has no root inside (w_star, 0], so the
    integrand is smooth there and the logarithms below are well defined).
    """
    _check_bound_preconditions(coeffs)
    w = np.asarray(w, dtype=float)
    h2, h1, h0 = coeffs.H2, coeffs.H1, coeffs.H0
    if h2 == 0.0:
        out = np.log((h1 * w + h0) / h0) / h1
    else:
        sq = np.sqrt(h1**2 - 4.0 * h2 * h0)
        r_plus = (-h1 + sq) / (2.0 * h2)   # > 0 since H0 < 0
        r_minus = 2.0 * h0 / (-h1 + sq)    # = w_star < 0, cancellation-free
        # note h2 * (r_plus - r_minus) = sq
        out = np.log((-r_minus) * (1.0 - w / r_plus) / (w - r_minus)) / sq
    return out if out.ndim else float(out)


def _q1_inverse(coeffs: RiccatiCoefficients, m) -> np.ndarray:
    """w in (w_star, 0] with Q1(w) = m >= 0, in closed form."""
    m = np.asarray(m, dtype=float)
    h2, h1, h0 = coeffs.H2, coeffs.H1, coeffs.H0
    if h2 == 0.0:
        out = h0 * np.expm1(h1 * m) / h1
    else:
        sq = np.sqrt(h1**2 - 4.0 * h2 * h0)
        r_plus = (-h1 + sq) / (2.0 * h2)
        r_minus = 2.0 * h0 / (-h1 + sq)
        e = np.exp(sq * m)
        out = r_minus * r_plus * (1.0 - e) / (r_minus - e * r_plus)
    return out if out.ndim else float(out)


def riccati_bounds(
    coeffs: RiccatiCoefficients, kernel: Kernel, t: float
) -> tuple[float, float]:
    """(w_star, r1(t)) with w_star < r1(t) < 0; -r1 dominates psi pointwise.

    r1(t) solves Q1(r1) = int_0^t K; since Q1 inverts in closed form the
    root is exact up to rounding.
    """
    _check_bound_preconditions(coeffs)
    if not t > 0:
        raise ValueError(f"t must be > 0, got {t}")
    w_star = negative_root(coeffs)
    target = float(kernel_integral(kernel, t))
    return float(w_star), float(_q1_inverse(coeffs, target))


def riccati_bound_curve(
    coeffs: RiccatiCoefficients, kernel: Kernel, taus
) -> np.ndarray:
    """r1 at an array of times > 0."""
    taus = np.asarray(taus, dtype=float)
    if np.any(taus <= 0):
        raise ValueError("all times must be > 0")
    targets = np.asarray(kernel_integral(kernel, taus), dtype=float)
    return np.asarray(_q1_inverse(coeffs, targets), dtype=float)
