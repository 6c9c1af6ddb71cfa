"""Volterra convolution kernels, Mittag-Leffler functions, and resolvents.

The variance process convolves its shocks against a kernel K.  Everything
downstream (hedge terms, Riccati solvers, forward variance) is driven by K,
by the resolvent of the second kind R_lam of lam*K, defined through

    lam*K * R_lam = R_lam * lam*K = lam*K - R_lam,

and by the integrated ratio  int_0^tau R_lam(s)/lam ds.  For lam = 0 the
convention is R_lam = 0 and R_lam/lam = K.

Two kernel types (weight c != 0):

    fractional          K(t) = c t^(a-1)/Gamma(a)   R(t) = c t^(a-1) E_{a,a}(-c t^a)
    sum of exponentials K(t) = sum_j w_j exp(-x_j t)

where E_{a,b} is the Mittag-Leffler function and the resolvent of lam*K is
obtained by rescaling the weight c -> lam*c.  Every kernel that is not
singular is a sum of exponentials: the constant kernel c (classic Heston, the
fractional kernel with a = 1) is the one term c exp(-0 t), and a one-term
kernel c exp(-b t) has the exact resolvent R(t) = c exp(-(b + c) t).
"""

from __future__ import annotations

import functools
import math
import reprlib
from dataclasses import dataclass

import numpy as np


class KernelDomainError(ValueError):
    """Kernel evaluated outside its domain (e.g. t <= 0 for a singular kernel)."""


# ---------------------------------------------------------------------------
# Input rules, shared by every module
# ---------------------------------------------------------------------------

_SEQUENCE_RULE = "{} must be a 1-d sequence of numbers, got {}"


def _check_finite(*, positive: bool = False, sequence: bool = False, **values):
    """ValueError("<name> must be finite[ and > 0], got <value>") for the first
    keyword value, a number or an array of numbers, that breaks the rule, and
    ValueError("<name> must be a number, got <value>") for one that is none: a
    bool, a string (no sequence of numbers either), or a sequence holding
    either.  A list or tuple must be flat, and with sequence every value must
    be a 1-d sequence or array: ValueError("<name> must be a 1-d sequence of
    numbers, got <value>") for a ragged or nested sequence, or a number where
    a sequence belongs.  A Python int past the int64 range is checked as the
    float it converts to."""
    rule = "finite and > 0" if positive else "finite"
    for name, value in values.items():
        if (not sequence and isinstance(value, float) and math.isfinite(value)
                and (value > 0 or not positive)):
            continue  # a Python float that passes needs no array
        try:
            x = np.asarray(value)  # no float conversion: a string is no number
        except ValueError:  # a ragged sequence
            raise ValueError(_SEQUENCE_RULE.format(name, reprlib.repr(value))) from None
        if x.dtype == object and all(isinstance(v, int) for v in x.flat):
            try:
                x = x.astype(float)
            except OverflowError:  # past the float range, where floats are inf
                x = np.asarray(math.inf)
        # a bool is no number, also among the numbers of a sequence
        if x.dtype.kind not in "iuf" or isinstance(value, (list, tuple)) and any(
                isinstance(v, (bool, np.bool_)) for v in value):
            raise ValueError(f"{name} must be a number, got {reprlib.repr(value)}")
        if (sequence or isinstance(value, (list, tuple))) and x.ndim != 1:
            raise ValueError(_SEQUENCE_RULE.format(name, reprlib.repr(value)))
        ok = np.isfinite(x) & (x > 0) if positive else np.isfinite(x)
        if not ok.all():
            raise ValueError(f"{name} must be {rule}, got {x[~ok][0]}")


def _check_count(**counts):
    """ValueError("<name> must be an integer >= 1, got <value>") for the first
    keyword value that is no int or NumPy integer >= 1; a bool is none."""
    for name, n in counts.items():
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")


# ---------------------------------------------------------------------------
# Kernel variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FractionalKernel:
    """Power-law kernel c * t^(alpha-1)/Gamma(alpha), alpha in (0, 1].

    alpha = hurst + 1/2; alpha = 1 is the constant kernel c (classic Heston),
    which runs as the one-term sum of exponentials c exp(-0 t); smaller alpha
    means rougher variance paths.
    """

    c: float
    alpha: float

    def __post_init__(self):
        _check_finite(**{"kernel weight c": self.c}, alpha=self.alpha)
        if self.c == 0:
            raise ValueError(f"kernel weight c must be finite and nonzero, got {self.c}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    @classmethod
    def from_hurst(cls, hurst: float, c: float = 1.0) -> "FractionalKernel":
        _check_finite(hurst=hurst)
        if not 0.0 < hurst <= 0.5:
            raise ValueError(f"hurst must lie in (0, 0.5], got {hurst}")
        return cls(c=c, alpha=hurst + 0.5)

    @property
    def hurst(self) -> float:
        return self.alpha - 0.5


@dataclass(frozen=True)
class SumOfExponentialsKernel:
    weights: tuple
    rates: tuple

    def __post_init__(self):
        _check_finite(sequence=True, **{"kernel weights": self.weights,
                                        "kernel rates": self.rates})
        w = tuple(float(x) for x in self.weights)
        r = tuple(float(x) for x in self.rates)
        if len(w) != len(r) or len(w) < 1:
            raise ValueError("weights and rates must have equal length >= 1")
        if not all(x != 0 for x in w):
            raise ValueError(f"kernel weights must be finite and nonzero, got {w}")
        if not all(x >= 0 for x in r):
            raise ValueError(f"kernel rates must be finite and >= 0, got {r}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)

    @property
    def n_factors(self) -> int:
        return len(self.weights)


Kernel = FractionalKernel | SumOfExponentialsKernel


def is_singular(spec: Kernel) -> bool:
    return isinstance(spec, FractionalKernel) and spec.alpha < 1.0


def _exponential_terms(spec: Kernel) -> tuple[tuple, tuple]:
    """(weights, rates) of a kernel that is not singular, as sum_j w_j exp(-r_j t).

    The fractional kernel with alpha = 1 is the constant c, the one term
    c exp(-0 t).
    """
    if isinstance(spec, SumOfExponentialsKernel):
        return spec.weights, spec.rates
    if isinstance(spec, FractionalKernel) and spec.alpha == 1.0:
        return (spec.c,), (0.0,)
    raise TypeError(f"{spec!r} is not a sum of exponentials")


# ---------------------------------------------------------------------------
# Time grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with n_steps cells (n_steps+1 nodes)."""

    t_end: float
    n_steps: int

    def __post_init__(self):
        _check_count(n_steps=self.n_steps)
        _check_finite(positive=True, t_end=self.t_end)
        object.__setattr__(self, "t_end", float(self.t_end))  # nodes() of an int past int64

    @property
    def spacing(self) -> float:
        return self.t_end / self.n_steps

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    @classmethod
    def for_horizon(cls, horizon: float, steps_per_year: int = 250) -> "TimeGrid":
        """Grid on [0, horizon] at the default resolution of 250 steps/year."""
        n = max(1, round(steps_per_year * horizon))
        return cls(float(horizon), int(n))


# ---------------------------------------------------------------------------
# Pointwise evaluation and exact integrals
# ---------------------------------------------------------------------------

def kernel_eval(spec: Kernel, t):
    """K(t) for finite scalar or array t > 0 (t = 0 allowed for non-singular variants)."""
    t_arr = np.asarray(t, dtype=float)
    _check_finite(t=t_arr)
    if np.any(t_arr < 0):
        raise KernelDomainError("kernel is defined on t >= 0 only")
    if is_singular(spec):
        if np.any(t_arr == 0):
            raise KernelDomainError(
                f"fractional kernel with alpha={spec.alpha} is singular at t = 0"
            )
        out = spec.c * t_arr ** (spec.alpha - 1.0) / math.gamma(spec.alpha)
    else:
        w, r = _exponential_terms(spec)
        out = np.exp(-t_arr[..., None] * np.asarray(r)) @ np.asarray(w)
    return out if out.ndim else float(out)


def kernel_integral(spec: Kernel, t):
    """int_0^t K(s) ds for finite scalar or array t >= 0, exact for every variant."""
    t_arr = np.asarray(t, dtype=float)
    _check_finite(t=t_arr)
    if np.any(t_arr < 0):
        raise KernelDomainError("kernel integral requires t >= 0")
    if is_singular(spec):
        out = spec.c * t_arr ** spec.alpha / math.gamma(spec.alpha + 1.0)
    else:
        # summed from the first term, so one term keeps its own signed zero
        out = functools.reduce(np.add, (
            w * t_arr if r == 0 else w * (-np.expm1(-r * t_arr)) / r
            for w, r in zip(*_exponential_terms(spec))
        ))
    return out if out.ndim else float(out)


def cell_moments(spec: Kernel, h, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact first two kernel moments over the lag cells [(m-1)h, mh], m = 1..n.

    Returns (I0, I1) with I0[m-1] = int K(u) du and I1[m-1] = int u K(u) du over
    the m-th cell.  These are the building blocks of product-integration rules:
    integrating t^(alpha-1) exactly is what keeps quadrature stable at the
    origin where the fractional kernel blows up.
    """
    _check_finite(positive=True, h=h)
    _check_count(n=n)
    edges = np.arange(n + 1, dtype=float) * h
    a, b = edges[:-1], edges[1:]
    if is_singular(spec):
        al = spec.alpha
        i0 = spec.c * (b**al - a**al) / math.gamma(al + 1.0)
        i1 = spec.c * (b ** (al + 1.0) - a ** (al + 1.0)) / ((al + 1.0) * math.gamma(al))
    else:
        terms = (_exp_cell_moments(w, r, a, b, h) for w, r in zip(*_exponential_terms(spec)))
        i0, i1 = next(terms)  # summed from the first term, as in kernel_integral
        for j0, j1 in terms:
            i0 += j0
            i1 += j1
    return i0, i1


# x = beta*h below which _exp_cell_moments sums the Taylor series of phi1 and
# phi2: their closed forms lose about log10(2/x) digits to cancellation, and
# 12 terms leave a truncation error below x^12/12! < 1e-20 there
_EXP_SERIES_CUTOFF = 0.1
_PHI1_SERIES = [(-1.0) ** k / math.factorial(k + 1) for k in range(11, -1, -1)]
_PHI2_SERIES = [(-1.0) ** k / (math.factorial(k) * (k + 2)) for k in range(11, -1, -1)]


def _exp_cell_moments(c, beta, a, b, h):
    """Moments of c exp(-beta u) over the cells [a, b] of width h.

    With x = beta h, int_a^b e^(-beta u) du = e^(-beta a) h phi1(x) and
    int_a^b u e^(-beta u) du = e^(-beta a) (a h phi1(x) + h^2 phi2(x)), where
    phi1(x) = (1 - e^-x)/x in (0, 1] and phi2(x) = (phi1(x) - e^-x)/x in
    (0, 1/2]; they depend on h only, and for x < _EXP_SERIES_CUTOFF they are
    summed as power series, so no difference of nearly equal terms is formed.
    """
    if beta == 0:
        return c * (b - a), c * (b**2 - a**2) / 2.0
    x = beta * h
    small = x < _EXP_SERIES_CUTOFF
    xc = np.where(small, 1.0, x)  # x for the closed forms, 1 where the series is used
    xs = np.where(small, x, 0.0)  # and x for the series, whose powers of a large x overflow
    phi1 = np.where(small, np.polyval(_PHI1_SERIES, xs), -np.expm1(-xc) / xc)
    phi2 = np.where(small, np.polyval(_PHI2_SERIES, xs), (phi1 - np.exp(-xc)) / xc)
    p1 = h * phi1
    p2 = h * h * phi2
    ea = c * np.exp(-beta * a)
    return ea * p1, ea * (a * p1 + p2)


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

# Branches of _ml_array, each one pass over its share of the array:
#   z > 0                  float series in log space: every term is positive,
#                          so it is accurate up to overflow;
#   -1.5 <= z < 0          plain float series: no term exceeds 1.5^n/Gamma;
#   z < -1.5               the series cancels catastrophically (the worst
#                          term grows like exp(|z|^(1/alpha))), so the
#                          Laplace transform is inverted on a fixed contour
#                          (0 < alpha <= 1 and beta <= alpha + 1 only);
#   |z|^(1/alpha) >= 38    (alpha < 1) the algebraic asymptotic expansion,
#                          whose optimally-truncated remainder ~ e^-38 is
#                          negligible.
# The series take the gamma-function coefficient of each term index once,
# for all their arguments.  A naive switch-at-|z|=5 rule cannot reach 1e-10
# relative accuracy on the negative axis, hence this layout.
_ML_NEG_FLOAT_CUTOFF = -1.5
_ML_ASYMPTOTIC_PEAK = 38.0
_ML_MAX_EXPONENT = 700.0  # exp argument beyond which float64 overflows

# The parabolic contour s(u) = mu (1 + iu)^2 of Garrappa (SIAM J. Numer.
# Anal. 53(3), 2015) for a transform whose only singularity is a branch point
# of strength 0 at the origin: mu, the step h and the node count N then
# depend on the tolerance alone (1e-15 against eps = 2^-52: mu = 1.5049,
# h = 0.18126, N = 27).  The trapezoidal weights h/(2 pi i) e^s s'(u) =
# h mu (1 + iu) e^s / pi sit at u = k h, k = 0..N, doubled for k > 0 to stand
# for the conjugate nodes k < 0.
_CONTOUR_MU = math.log(1e-15 / 2.0**-52)
_CONTOUR_N = 27
_CONTOUR_H = math.sqrt(math.log(2.0**-52) / math.log(2.0**-52 / 1e-15)) / _CONTOUR_N
_CONTOUR_U = 1.0 + 1j * _CONTOUR_H * np.arange(_CONTOUR_N + 1)
_CONTOUR_NODES = _CONTOUR_MU * _CONTOUR_U**2
_CONTOUR_WEIGHTS = (np.r_[1.0, np.full(_CONTOUR_N, 2.0)] * (_CONTOUR_H * _CONTOUR_MU / math.pi)
                    * _CONTOUR_U * np.exp(_CONTOUR_NODES))


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) = sum_n z^n / Gamma(alpha*n + beta) for real z."""
    return float(_ml_array(alpha, beta, float(z)))


def _rgamma(x: float) -> float:
    """1/Gamma(x): 0 at the poles 0, -1, -2, ... and where Gamma(x) overflows,
    +-inf where it underflows.

    math.gamma raises at a pole and beyond its overflow (x > 171.62), where
    1/Gamma(x) is below the smallest normal double.  Far down the negative
    axis (x < -180 or so) it underflows to a zero that keeps Gamma's sign.
    """
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    try:
        gamma = math.gamma(x)
    except OverflowError:
        return 0.0
    return 1.0 / gamma if gamma else math.copysign(math.inf, gamma)


def _ml_array(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta} elementwise over a float array z, same shape.

    The branch of every element is decided once for the whole array, and
    each branch evaluates all its arguments in one pass; all the arguments
    below -1.5 and before the asymptotic seam go to one _ml_series_mp call.
    """
    _check_finite(positive=True, alpha=alpha, beta=beta)
    z_arr = np.asarray(z, dtype=float)
    _check_finite(z=z_arr)
    zf = z_arr.ravel()
    out = np.empty(zf.shape)
    out[zf == 0.0] = _rgamma(beta)
    pos = zf > 0
    if pos.any():
        out[pos] = _ml_series_positive(alpha, beta, zf[pos])
    small = (zf < 0) & (zf >= _ML_NEG_FLOAT_CUTOFF)
    if small.any():
        out[small] = _ml_series_small_negative(alpha, beta, zf[small])
    far = zf < _ML_NEG_FLOAT_CUTOFF
    if alpha < 1.0:
        with np.errstate(over="ignore"):  # inf is past the seam all the same
            asym = far & (np.abs(zf) ** (1.0 / alpha) >= _ML_ASYMPTOTIC_PEAK)
        out[asym] = _ml_asymptotic_negative(alpha, beta, -zf[asym])
        far &= ~asym
    if far.any():
        out[far] = _ml_series_mp(alpha, beta, zf[far])
    return out.reshape(z_arr.shape)


def _ml_series_positive(alpha, beta, z):
    # Series over an array z > 0 in log space, because z^n may overflow long
    # before the Gamma denominator catches up (small alpha, moderate z).
    # Every element stops adding terms at its own convergence, past its peak
    # term and below 1e-18 of its sum, as a scalar loop would.
    with np.errstate(over="ignore"):  # inf is past the limit all the same
        peaks = z ** (1.0 / alpha)
    over = peaks > _ML_MAX_EXPONENT
    if over.any():
        raise OverflowError(
            f"E_{{{alpha},{beta}}}({z[over][0]}) overflows double precision "
            f"(growth ~ exp(z^(1/alpha)))"
        )
    log_z = np.log(z)
    n_peak = peaks / alpha
    total = np.zeros_like(z)
    live = np.ones(z.shape, dtype=bool)
    for n in range(int(n_peak.max(initial=0.0)) + 10_000):
        log_term = n * log_z - math.lgamma(alpha * n + beta)
        over = log_term > 709.0  # never true once stopped: terms fall past the peak
        if over.any():
            raise OverflowError(f"Mittag-Leffler series overflowed for z={z[over][0]}")
        term = np.exp(log_term)
        total = np.where(live, total + term, total)
        live &= (n <= n_peak) | (term >= 1e-18 * total)
        if not live.any():
            return total
    raise RuntimeError(f"Mittag-Leffler series failed to converge for z={z[live][0]}")


def _ml_series_small_negative(alpha, beta, z):
    # Plain float series over an array z in [-1.5, 0); every element stops
    # adding terms at its own convergence, as a scalar loop would, from the
    # third term on (counted, since beta + n alpha need not grow in floats).
    total = np.zeros_like(z)
    power = np.ones_like(z)
    live = np.ones(z.shape, dtype=bool)
    term_arg = beta
    for n in range(10_000):
        term = power * _rgamma(term_arg)
        total = np.where(live, total + term, total)
        if n >= 2:
            live &= np.abs(term) >= 1e-18 * np.maximum(np.abs(total), 1.0)
            if not live.any():
                return total
        power *= z
        term_arg += alpha
    raise RuntimeError(f"Mittag-Leffler series failed to converge for z={z[live][0]}")


def _ml_series_mp(alpha, beta, z):
    """E_{alpha,beta} over an array z < -1.5 by Laplace inversion on a fixed contour.

    t^(beta-1) E_{alpha,beta}(z t^alpha) has the Laplace transform
    s^(alpha-beta)/(s^alpha - z), so E_{alpha,beta}(z) is its inverse at
    t = 1, the trapezoidal sum over the nodes of _CONTOUR_WEIGHTS.  For
    0 < alpha <= 1 and z < 0 the transform is analytic off the branch cut,
    and for beta <= alpha + 1 the cut's branch point at 0 is integrable, so
    one contour serves every such argument; outside that domain it raises
    ValueError.  The sum is exact to about 1e-15 of the scale of its terms,
    1/|z| or so, so at alpha = beta = 1, where E_{1,1}(z) = e^z falls far
    below that, e^z itself is returned.

    The name dates from the arbitrary-precision series this contour
    replaced; perfbench/test_perfbench.py patches the function by it to
    count the calls that reach this band.
    """
    if not (alpha <= 1.0 and beta <= alpha + 1.0):
        raise ValueError(
            f"E_{{{alpha},{beta}}}(z) below z = {_ML_NEG_FLOAT_CUTOFF} is implemented "
            f"for 0 < alpha <= 1 and beta <= alpha + 1 only"
        )
    z = np.asarray(z, dtype=float)
    if alpha == 1.0 and beta == 1.0:
        return np.exp(z)
    total = np.zeros(z.shape)
    weights = _CONTOUR_WEIGHTS * _CONTOUR_NODES ** (alpha - beta)
    for weight, node in zip(weights, _CONTOUR_NODES**alpha):
        total += (weight / (node - z)).real
    return total


def _ml_asymptotic_negative(alpha, beta, x):
    # E_{a,b}(-x) = sum_{k>=1} (-1)^(k-1) x^(-k) / Gamma(b - a k) + O(opt) over
    # an array x, valid for 0 < alpha < 1.  Truncation is decided on a smooth
    # envelope: once b - a k < 1/2 the raw terms carry an oscillating
    # |sin(pi(b - a k))| factor (reflection formula) that would trip a naive
    # smallest-term rule, so the envelope drops the sine via
    # x^-k Gamma(1 - b + a k) / pi.  Each element stops before the term
    # where its envelope rises, or that is 40 e-folds below its sum.
    log_x = np.log(x)
    log_pi = math.log(math.pi)
    total = np.zeros_like(x)
    prev_env = np.full(x.shape, np.inf)
    live = np.ones(x.shape, dtype=bool)
    for k in range(1, 400):
        arg = beta - alpha * k
        sign = 1.0 if k % 2 else -1.0
        if arg < 0.5:
            # reflection: 1/Gamma(arg) = Gamma(1 - arg) sin(pi arg) / pi
            log_coef, factor = math.lgamma(1.0 - arg) - log_pi, sign * math.sin(math.pi * arg)
        else:
            # Gamma(arg) regular and positive: the envelope is the term itself
            log_coef, factor = -math.lgamma(arg), sign
        # in log space: x^-k / Gamma(b - a k) can pair an underflowing power
        # with an overflowing reciprocal gamma
        log_env = log_coef - k * log_x
        if k > 1:
            live &= log_env <= prev_env
        if k > 2:
            live &= log_env >= np.log(np.maximum(np.abs(total), 1e-300)) - 40.0
        if not live.any():
            break
        total = np.where(live, total + np.exp(log_env) * factor, total)
        prev_env = log_env
    return total


# ---------------------------------------------------------------------------
# Resolvents of the second kind
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResolventSamples:
    """R_lam sampled on a grid, with the discrete-identity residual attached.

    residual is max_i |lam*(K*R)(t_i) - lam*K(t_i) + R(t_i)| over interior
    nodes, relative to max_i |lam*K(t_i)|, with the convolution taken by the
    same product-integration rule the solver enforced; it certifies the
    triangular solve, while accuracy against closed forms is a separate check.
    """

    values: np.ndarray
    residual: float


def resolvent_numeric(spec: Kernel, lam: float, grid: TimeGrid) -> ResolventSamples:
    """Solve R + lam*(K*R) = lam*K on the grid by product integration.

    For singular fractional kernels R itself blows up at 0, so the leading
    Neumann terms sum_{k<=m} (-1)^(k-1) lam^k K^{*k} (closed-form powers
    c^k t^(k a - 1)/Gamma(k a)) are split off analytically, with m chosen so
    the remainder's forcing t^((m+1)a - 1) is C^1; only the smooth remainder
    is solved numerically, by _vie_direct; a solve that is not finite raises
    ValueError.  The node at t = 0 is stored as +-inf.
    """
    _check_finite(**{"lambda": lam})
    nodes = grid.nodes()
    n = grid.n_steps
    h = grid.spacing

    if lam == 0.0:
        return ResolventSamples(np.zeros(n + 1), 0.0)

    i0, i1 = cell_moments(spec, h, n)
    a_w, b_w = _lag_weights(i0, i1, h)

    if is_singular(spec):
        al = spec.alpha
        m = math.ceil(2.0 / al) - 1
        partial = np.zeros(n)  # leading Neumann sum at nodes[1:]
        for k in range(1, m + 1):
            partial += (
                (-1.0) ** (k - 1)
                * (lam * spec.c) ** k
                * nodes[1:] ** (k * al - 1.0)
                * _rgamma(k * al)
            )
        s = (m + 1) * al - 1.0
        forcing = (
            (-1.0) ** m
            * (lam * spec.c) ** (m + 1)
            / lam
            * nodes**s
            * _rgamma((m + 1) * al)
        ) * lam
        rem = _finite_vie_direct(lam, a_w, b_w, forcing, grid, "resolvent solve")
        resid = _vie_residual(lam, a_w, b_w, forcing, rem)
        values = np.empty(n + 1)
        values[0] = np.inf if spec.c * lam > 0 else -np.inf
        values[1:] = partial + rem[1:]
        scale = np.max(np.abs(lam * kernel_eval(spec, nodes[1:])))
    else:
        forcing = lam * kernel_eval(spec, nodes)
        values = _finite_vie_direct(lam, a_w, b_w, forcing, grid, "resolvent solve")
        resid = _vie_residual(lam, a_w, b_w, forcing, values)
        scale = np.max(np.abs(forcing))

    return ResolventSamples(values, float(resid / scale))


def _lag_weights(i0: np.ndarray, i1: np.ndarray, h: float):
    """Product-trapezoidal lag weights from cell moments.

    For (K*x)(t_i) = sum_m A[m] x_{i-m} + B[m] x_{i-m+1} with x piecewise
    linear; A[m] + B[m] = I0[m] and the rule is exact for linear x.
    Index m-1 holds lag m.
    """
    m = np.arange(1, len(i0) + 1, dtype=float)
    a_w = (i1 - (m - 1.0) * h * i0) / h
    b_w = (m * h * i0 - i1) / h
    return a_w, b_w


MARCH_BLOCK = 128  # nodes per block of the Volterra solves; earlier blocks enter as one product


def _series_inverse(t, m):
    """The first m coefficients of the power series 1/t(z), t[0] != 0.

    Newton doubling: c <- c (2 - t c) mod z^2k doubles the number of correct
    coefficients k with two np.convolve per step.
    """
    c = np.array([1.0 / t[0]])
    while len(c) < m:
        k = min(2 * len(c), m)
        e = -np.convolve(t[:k], c)[:k]
        e[0] += 2.0
        c = np.convolve(c, e)[:k]
    return c


def _vie_direct(lam, a_w, b_w, forcing):
    """x_i + lam * (K*x)_i = f_i with x_0 = f_0, 1-D, without a node loop.

    The product-trapezoidal equations of the lag weights, on blocks of
    MARCH_BLOCK nodes.  Inside a block the system is lower-triangular
    Toeplitz, t0 = 1 + lam b_w[0] on the diagonal and lam (a_w[m-1] + b_w[m])
    on the m-th sub-diagonal, so the block is its right-hand side convolved
    with the power series 1/t(z), taken once per solve.  The right-hand side
    is the forcing less lam times the x[0] term and the far history of the
    earlier blocks, one np.convolve.  Where the right-hand side is much
    larger than the solution (large |lam|), the rounding of the series'
    coefficients shows in the product (1.9e-12 of the largest value at
    lam = 5000), so each block takes one step of iterative refinement, which
    brings it back to the rounding level of a node-by-node solve.
    """
    n = len(a_w)
    lag = a_w.copy()
    lag[:-1] += b_w[1:]
    width = min(MARCH_BLOCK, n)
    t = np.concatenate(([1.0 + lam * b_w[0]], lam * lag[: width - 1]))
    inverse = _series_inverse(t, width)
    x = np.empty(n + 1)
    x[0] = forcing[0]
    for s in range(1, n + 1, width):
        size = min(width, n + 1 - s)
        rhs = forcing[s : s + size] - lam * x[0] * a_w[s - 1 : s - 1 + size]
        if s > 1:
            rhs -= lam * np.convolve(lag[: s + size - 2], x[1:s], "valid")
        y = np.convolve(inverse[:size], rhs)[:size]
        y += np.convolve(inverse[:size], rhs - np.convolve(t[:size], y)[:size])[:size]
        x[s : s + size] = y
    return x


def _finite_vie_direct(lam, a_w, b_w, forcing, grid: TimeGrid, what: str):
    """_vie_direct, raising ValueError that names the solve where it is not finite.

    np.convolve overflows without a floating-point error, so the result is
    checked as a whole, whatever np.errstate the caller has set.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = _vie_direct(lam, a_w, b_w, forcing)
    if not np.all(np.isfinite(x)):
        raise ValueError(
            f"{what} is not finite (multiplier {lam:g}, "
            f"{grid.n_steps} steps to t = {grid.t_end:g})"
        )
    return x


def _vie_residual(lam, a_w, b_w, forcing, x):
    conv = discrete_convolution(a_w, b_w, x)
    return float(np.max(np.abs(x + lam * conv - forcing)))


def discrete_convolution(a_w: np.ndarray, b_w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(K*x) at all nodes from lag weights; out[0] = 0."""
    n = len(a_w)
    out = np.zeros(n + 1)
    full_a = np.convolve(x[:-1], a_w)
    full_b = np.convolve(x[1:], b_w)
    out[1:] = full_a[:n] + full_b[:n]
    return out


# ---------------------------------------------------------------------------
# Integrated resolvent ratio  int_0^tau R_lam(s)/lam ds
# ---------------------------------------------------------------------------

# |z| up to which the singular-kernel ratio takes the E_{a,a+1} form; within it
# both Mittag-Leffler calls stay on the float series branches
_RATIO_NEAR_ZERO = 1.5


def integrated_resolvent_ratio_curve(spec: Kernel, lam: float, taus) -> np.ndarray:
    """int_0^tau R_lam(s)/lam ds over an array of tau >= 0, continuous in lam at 0.

    lam = 0 reduces to int_0^tau K.  Singular fractional kernels use the
    Mittag-Leffler identity (1 - E_{a,1}(z))/lam with z = -lam c tau^a, or
    its equal c tau^a E_{a,a+1}(z) where |z| <= 1.5, which does not cancel;
    a one-term kernel c exp(-beta t) (constant, alpha = 1 included:
    beta = 0) integrates its resolvent exactly,
    c (1 - exp(-(beta + lam c) tau))/(beta + lam c); a sum of two or more
    exponentials falls back to trapezoid quadrature of the numeric resolvent
    (see _numeric_resolvent_ratio).
    """
    taus = np.asarray(taus, dtype=float)
    _check_finite(**{"lambda": lam, "tau values": taus})
    if np.any(taus < 0):
        raise ValueError("tau values must be >= 0")
    if lam == 0.0:
        return np.asarray(kernel_integral(spec, taus), dtype=float)
    if is_singular(spec):
        z = -lam * spec.c * taus**spec.alpha
        # 1 - E_{a,1}(z) cancels for small |z|; there the ratio is
        # c tau^a E_{a,a+1}(z) exactly, and each node takes one of the forms
        near = np.abs(z) <= _RATIO_NEAR_ZERO
        out = np.empty_like(z)
        out[near] = spec.c * taus[near] ** spec.alpha * _ml_array(
            spec.alpha, spec.alpha + 1.0, z[near])
        out[~near] = (1.0 - _ml_array(spec.alpha, 1.0, z[~near])) / lam
        return out
    weights, rates = _exponential_terms(spec)
    if len(weights) > 1:
        out = _numeric_resolvent_ratio(spec, lam, taus)
    else:
        (c,), (beta,) = weights, rates
        rate = beta + lam * c
        out = c * taus if rate == 0.0 else c * (-np.expm1(-rate * taus)) / rate
    return np.where(taus > 0, out, 0.0)  # +0.0 at tau = 0, whatever the signs


def _numeric_resolvent_ratio(spec: Kernel, lam: float, taus: np.ndarray):
    """Trapezoid quadrature of the numeric resolvent over [0, tau], / lam.

    Each tau > 0 keeps its own grid of n = max(200, int(250 tau)) cells of
    h = tau / n, with the product-trapezoidal equations of resolvent_numeric.
    There a term c exp(-x u) has the lag weights a q^(m-1) and b q^(m-1) at
    lag m, q = exp(-x h), from the first cell's moments (a = I1/h, b = I0 - a),
    so the history of node i is sum_j a_j q_j^(i-1) R_0 + (a_j + b_j q_j) S_j
    with one state per term, S_j <- q_j S_j + R_i (the Markovian lift), and
    the forcing is lam sum_j c_j q_j^i.  One time loop runs every tau: ordered
    by n, the taus still running are a prefix.  The ratio is 0 at tau = 0.
    """
    ratio = np.zeros_like(taus)
    rows = np.flatnonzero(taus)
    n = np.maximum(200, (250 * taus[rows]).astype(int))
    order = np.argsort(-n, kind="stable")
    rows, n = rows[order], n[order]
    h = taus[rows] / n
    c, x = (np.array(v) for v in _exponential_terms(spec))
    q = np.exp(-h[:, None] * x)
    i0, i1 = np.moveaxis([_exp_cell_moments(cj, xj, 0.0, h, h) for cj, xj in zip(c, x)], 0, -1)
    a = i1 / h[:, None]
    b = i0 - a
    r0 = lam * c.sum()
    # R_i = lam sum(w z) / denom over the state z = [q^(i-1), S]; each step
    # multiplies it by [q, q] and adds R_i to S
    w = np.hstack([c * q - a * r0, -(a + b * q)])
    z = np.hstack([np.ones_like(q), np.zeros_like(q)])
    decay = np.hstack([q, q])
    denom = 1.0 + lam * b.sum(axis=1)
    total = np.full(len(rows), r0)
    last = np.empty(len(rows))
    k = len(rows)
    for i in range(1, n.max(initial=0) + 1):
        while n[k - 1] < i:
            k -= 1
        r = lam * np.einsum("ij,ij->i", w[:k], z[:k]) / denom[:k]
        total[:k] += r
        last[:k] = r
        z[:k] *= decay[:k]
        z[:k, len(c):] += r[:, None]
    ratio[rows] = h * (total - 0.5 * (r0 + last)) / lam
    return ratio
