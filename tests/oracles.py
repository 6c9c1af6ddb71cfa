"""Independent oracles used to freeze expected values.

Everything here deliberately avoids the library's own numerical paths:
Mittag-Leffler via bounded-precision mpmath series, classic-Heston curves via
adaptive ODE integration (for the constant kernel the integral equations
differentiate into ODEs), and convolution identities via adaptive quadrature.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp

from roughmv import RiccatiCoefficients
from roughmv.kernels import MARCH_BLOCK


def ml_reference(alpha: float, beta: float, z: float) -> float:
    """Mittag-Leffler by brute-force series at scaled precision."""
    peak = abs(z) ** (1.0 / alpha) if z != 0 else 1.0
    dps = int(0.4343 * peak) + 40
    with mpmath.workdps(dps):
        ma, mb, mz = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(z)
        total = mpmath.mpf(0)
        power = mpmath.mpf(1)
        n = 0
        while True:
            term = power / mpmath.gamma(ma * n + mb)
            total += term
            power *= mz
            n += 1
            if n > peak / alpha + 5 and abs(term) <= abs(total) * mpmath.mpf(10) ** (-dps + 8):
                return float(total)


def heston_const_mv_total(theta, rho, sigma, kappa, gamma, horizon, rate, taus):
    """Dollar-amount coefficient for the constant kernel via ODE integration.

    With K = 1 the integral equations differentiate to
    g2' = lam g2 (terminal theta^2/gamma) and I = int_t^T g2; the coefficient
    is e^{-rate (T-t)} (theta - gamma sigma rho I)/gamma.  Returned on the
    given time-to-maturity points.
    """
    lam = kappa + rho * sigma * theta

    def rhs(_tau, y):
        return [-lam * y[0], y[0]]

    order = np.argsort(taus)
    sol = solve_ivp(
        rhs,
        [0.0, float(np.max(taus))],
        [theta * theta / gamma, 0.0],
        t_eval=np.asarray(taus)[order],
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    i_tau = np.empty_like(np.asarray(taus, dtype=float))
    i_tau[order] = sol.y[1]
    return np.exp(-rate * np.asarray(taus)) * (theta - gamma * sigma * rho * i_tau) / gamma


def heston_log_mv_curves(theta, rho, sigma, kappa, phi, gamma, rate, taus):
    """(psi, V2, V0, g0) on time-to-maturity points for the constant kernel."""
    co = RiccatiCoefficients.log_mv(kappa, rho, sigma, theta, gamma)

    def forcing(psi):
        return (theta - gamma * rho * sigma * psi) ** 2 / (2.0 * (1.0 + gamma)) \
            - gamma * sigma**2 / 2.0 * psi * psi

    def rhs(_tau, y):
        psi, w, _iv, _ipsi = y
        dpsi = -co.H2 * psi * psi + co.H1 * psi - co.H0
        d_forcing = (
            -gamma * rho * sigma * (theta - gamma * rho * sigma * psi) / (1.0 + gamma)
            - gamma * sigma**2 * psi
        ) * dpsi
        return [dpsi, d_forcing - kappa * w, forcing(psi) - w, psi]

    order = np.argsort(taus)
    sol = solve_ivp(
        rhs,
        [0.0, float(np.max(taus))],
        [0.0, forcing(0.0), 0.0, 0.0],
        t_eval=np.asarray(taus)[order],
        rtol=1e-12,
        atol=1e-14,
        method="DOP853",
    )
    out = np.empty((4, len(taus)))
    out[:, order] = sol.y
    psi, w, int_fw, int_psi = out
    taus = np.asarray(taus, dtype=float)
    v0 = rate * taus + phi * int_fw
    g0 = rate * taus + kappa * phi * int_psi
    return psi, w, v0, g0


def riccati_lifted_ode(weights, rates, coeffs: RiccatiCoefficients, T: float) -> float:
    """psi(T) for the kernel sum_j w_j exp(-x_j t) through its Markovian lift.

    psi = sum_j w_j y_j with y_j' = -x_j y_j + rhs(psi), y_j(0) = 0 (Abi Jaber
    & El Euch, SIAM J. Financial Math. 10, 2019), integrated by Radau since
    the rates may span decades.
    """
    w = np.asarray(weights, dtype=float)
    x = np.asarray(rates, dtype=float)

    def rhs(_t, y):
        return -x * y + coeffs.rhs(w @ y)

    def jac(_t, y):
        slope = -2.0 * coeffs.H2 * (w @ y) + coeffs.H1  # d rhs / d psi
        return np.diag(-x) + slope * w[None, :]

    sol = solve_ivp(rhs, [0.0, T], np.zeros(len(w)), method="Radau", jac=jac,
                    rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return float(w @ sol.y[:, -1])


def blocked_vie(lam, a_w, b_w, forcing):
    """x_i + lam (K*x)_i = f_i with x_0 = f_0, node by node on the lag weights.

    The product-trapezoidal history of node i is a_w[i-1] x_0 plus the lag
    weights a_w[m-1] + b_w[m] against x_{i-m}, m = 1..i-1.  The part from
    before each block of MARCH_BLOCK nodes is one np.convolve; each node adds
    its in-block lags by a dot product.  Without the blocks the rounding
    strays from the direct solve's by more than 1e-13 at H = 0.05.
    """
    n = len(a_w)
    lag = a_w.copy()
    lag[:-1] += b_w[1:]
    denom = 1.0 + lam * b_w[0]
    x = np.empty(n + 1)
    x[0] = forcing[0]
    for s in range(1, n + 1, MARCH_BLOCK):
        size = min(MARCH_BLOCK, n + 1 - s)
        far = a_w[s - 1 : s - 1 + size] * x[0]
        if s > 1:
            far += np.convolve(lag[: s + size - 2], x[1:s], "valid")
        for k in range(size):
            past = far[k] + lag[:k][::-1] @ x[s : s + k]
            x[s + k] = (forcing[s + k] - lam * past) / denom
    return x


def q1_quadrature(coeffs: RiccatiCoefficients, w: float) -> float:
    """-int_w^0 du/H(u) by adaptive quadrature, H(u) = H2 u^2 + H1 u + H0."""
    h_of = lambda u: coeffs.H2 * u * u + coeffs.H1 * u + coeffs.H0
    val, _err = quad(lambda u: -1.0 / h_of(u), w, 0.0, limit=400)
    return val


def convolution_identity_residual(
    kernel_fn, resolvent_fn, lam, t, alg_exponent=None, smooth_k=None, smooth_r=None
):
    """|lam*(K*R)(t) - lam*K(t) + R(t)| via adaptive quadrature of closed forms.

    For kernels behaving like u^p at the origin pass alg_exponent=p together
    with the analytically smooth factors smooth_k(u) = K(u)/u^p and
    smooth_r(u) = R(u)/u^p; quad's algebraic endpoint weighting absorbs the
    singular powers exactly.
    """
    if alg_exponent is None:
        integrand = lambda s: kernel_fn(t - s) * resolvent_fn(s)
        conv, _ = quad(integrand, 0.0, t, limit=400)
    else:
        p = alg_exponent
        smooth = lambda s: smooth_k(t - s) * smooth_r(s)
        conv, _ = quad(smooth, 0.0, t, weight="alg", wvar=(p, p), limit=400)
    return abs(lam * conv - lam * kernel_fn(t) + resolvent_fn(t))


def lognormal_terminal_mean(rate, theta, nu, pi, horizon, x0):
    """E[X_T] for constant variance and constant proportional strategy."""
    drift = rate + theta * nu * pi - 0.5 * pi**2 * nu
    return x0 * math.exp((drift + 0.5 * pi**2 * nu) * horizon)


def exp_cell_moments_reference(c: float, beta: float, a: float, b: float) -> tuple[float, float]:
    """(int_a^b c e^(-beta u) du, int_a^b u c e^(-beta u) du), from the closed
    forms at a working precision that outlasts their cancellation.

    With x = beta (b - a) the first closed form cancels about log10(1/x)
    digits and the second about twice that; both are evaluated with that many
    digits on top of 40, at the exact cell edges a and b.
    """
    a_mp, b_mp = mpmath.mpf(a), mpmath.mpf(b)
    x = beta * (b - a)
    digits = 40 + (2 * int(-math.log10(x)) if 0 < x < 1 else 0)
    with mpmath.workdps(digits):
        if beta == 0:
            i0 = c * (b_mp - a_mp)
            i1 = c * (b_mp**2 - a_mp**2) / 2
        else:
            bt = mpmath.mpf(beta)
            ea, eb = mpmath.exp(-bt * a_mp), mpmath.exp(-bt * b_mp)
            i0 = c * (ea - eb) / bt
            i1 = c * (ea * (bt * a_mp + 1) - eb * (bt * b_mp + 1)) / bt**2
        return float(i0), float(i1)
