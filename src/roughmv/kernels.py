"""Volterra convolution kernels, Mittag-Leffler functions, and resolvents.

The variance process convolves its shocks against a kernel K.  Everything
downstream (hedge terms, Riccati solvers, forward variance) is driven by K,
by the resolvent of the second kind R_lam of lam*K, defined through

    lam*K * R_lam = R_lam * lam*K = lam*K - R_lam,

and by the integrated ratio  int_0^tau R_lam(s)/lam ds.  For lam = 0 the
convention is R_lam = 0 and R_lam/lam = K.

Closed forms (weight c != 0):

    constant     K(t) = c                      R(t) = c exp(-c t)
    fractional   K(t) = c t^(a-1)/Gamma(a)     R(t) = c t^(a-1) E_{a,a}(-c t^a)
    exponential  K(t) = c exp(-b t)            R(t) = c exp(-b t) exp(-c t)

where E_{a,b} is the Mittag-Leffler function and the resolvent of lam*K is
obtained by rescaling the weight c -> lam*c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma, rgamma as _rgamma


class KernelDomainError(ValueError):
    """Kernel evaluated outside its domain (e.g. t <= 0 for a singular kernel)."""


class UnsupportedVariantError(ValueError):
    """Operation has no closed form for this kernel variant."""


# ---------------------------------------------------------------------------
# Kernel variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantKernel:
    c: float

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("kernel weight c must be nonzero")


@dataclass(frozen=True)
class FractionalKernel:
    """Power-law kernel c * t^(alpha-1)/Gamma(alpha), alpha in (0, 1].

    alpha = hurst + 1/2; alpha = 1 recovers the constant kernel (classic
    Heston), smaller alpha means rougher variance paths.
    """

    c: float
    alpha: float

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("kernel weight c must be nonzero")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    @classmethod
    def from_hurst(cls, hurst: float, c: float = 1.0) -> "FractionalKernel":
        if not 0.0 < hurst <= 0.5:
            raise ValueError(f"hurst must lie in (0, 0.5], got {hurst}")
        return cls(c=c, alpha=hurst + 0.5)

    @property
    def hurst(self) -> float:
        return self.alpha - 0.5


@dataclass(frozen=True)
class ExponentialKernel:
    c: float
    beta: float

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("kernel weight c must be nonzero")
        if self.beta < 0:
            raise ValueError(f"decay rate beta must be >= 0, got {self.beta}")


@dataclass(frozen=True)
class SumOfExponentialsKernel:
    weights: tuple
    rates: tuple

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        r = tuple(float(x) for x in self.rates)
        if len(w) != len(r) or len(w) < 1:
            raise ValueError("weights and rates must have equal length >= 1")
        if any(x == 0 for x in w):
            raise ValueError("all weights must be nonzero")
        if any(x < 0 for x in r):
            raise ValueError("all rates must be >= 0")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "rates", r)

    @property
    def n_factors(self) -> int:
        return len(self.weights)


Kernel = ConstantKernel | FractionalKernel | ExponentialKernel | SumOfExponentialsKernel


def is_singular(spec: Kernel) -> bool:
    return isinstance(spec, FractionalKernel) and spec.alpha < 1.0


# ---------------------------------------------------------------------------
# Time grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_start, t_end] with n_steps cells (n_steps+1 nodes)."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not self.t_end > self.t_start:
            raise ValueError("grid must be strictly increasing")

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / self.n_steps

    def nodes(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)

    @classmethod
    def for_horizon(cls, horizon: float, steps_per_year: int = 250) -> "TimeGrid":
        """Grid on [0, horizon] at the default resolution of 250 steps/year."""
        n = max(1, round(steps_per_year * horizon))
        return cls(0.0, float(horizon), int(n))


# ---------------------------------------------------------------------------
# Pointwise evaluation and exact integrals
# ---------------------------------------------------------------------------

def kernel_eval(spec: Kernel, t):
    """K(t) for scalar or array t > 0 (t = 0 allowed for non-singular variants)."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise KernelDomainError("kernel is defined on t >= 0 only")
    if is_singular(spec) and np.any(t_arr == 0):
        raise KernelDomainError(
            f"fractional kernel with alpha={spec.alpha} is singular at t = 0"
        )
    if isinstance(spec, ConstantKernel):
        out = np.full_like(t_arr, spec.c)
    elif isinstance(spec, FractionalKernel):
        out = spec.c * t_arr ** (spec.alpha - 1.0) / _gamma(spec.alpha)
    elif isinstance(spec, ExponentialKernel):
        out = spec.c * np.exp(-spec.beta * t_arr)
    elif isinstance(spec, SumOfExponentialsKernel):
        w = np.asarray(spec.weights)
        r = np.asarray(spec.rates)
        out = np.exp(-t_arr[..., None] * r) @ w
    else:
        raise TypeError(f"unknown kernel variant {type(spec).__name__}")
    return out if out.ndim else float(out)


def kernel_integral(spec: Kernel, t):
    """int_0^t K(s) ds, exact for every variant."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise KernelDomainError("kernel integral requires t >= 0")
    if isinstance(spec, ConstantKernel):
        out = spec.c * t_arr
    elif isinstance(spec, FractionalKernel):
        out = spec.c * t_arr ** spec.alpha / _gamma(spec.alpha + 1.0)
    elif isinstance(spec, ExponentialKernel):
        if spec.beta == 0:
            out = spec.c * t_arr
        else:
            out = spec.c * (-np.expm1(-spec.beta * t_arr)) / spec.beta
    elif isinstance(spec, SumOfExponentialsKernel):
        out = np.zeros_like(t_arr)
        for w, r in zip(spec.weights, spec.rates):
            if r == 0:
                out = out + w * t_arr
            else:
                out = out + w * (-np.expm1(-r * t_arr)) / r
    else:
        raise TypeError(f"unknown kernel variant {type(spec).__name__}")
    return out if out.ndim else float(out)


def cell_moments(spec: Kernel, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact first two kernel moments over the lag cells [(m-1)h, mh], m = 1..n.

    Returns (I0, I1) with I0[m-1] = int K(u) du and I1[m-1] = int u K(u) du over
    the m-th cell.  These are the building blocks of product-integration rules:
    integrating t^(alpha-1) exactly is what keeps quadrature stable at the
    origin where the fractional kernel blows up.
    """
    if h <= 0 or n < 1:
        raise ValueError("need h > 0 and n >= 1")
    edges = h * np.arange(n + 1, dtype=float)
    a, b = edges[:-1], edges[1:]
    if isinstance(spec, ConstantKernel):
        i0 = spec.c * (b - a)
        i1 = spec.c * (b**2 - a**2) / 2.0
    elif isinstance(spec, FractionalKernel):
        al = spec.alpha
        i0 = spec.c * (b**al - a**al) / _gamma(al + 1.0)
        i1 = spec.c * (b ** (al + 1.0) - a ** (al + 1.0)) / ((al + 1.0) * _gamma(al))
    elif isinstance(spec, ExponentialKernel):
        i0, i1 = _exp_cell_moments(spec.c, spec.beta, a, b)
    elif isinstance(spec, SumOfExponentialsKernel):
        i0 = np.zeros(n)
        i1 = np.zeros(n)
        for w, r in zip(spec.weights, spec.rates):
            j0, j1 = _exp_cell_moments(w, r, a, b)
            i0 += j0
            i1 += j1
    else:
        raise TypeError(f"unknown kernel variant {type(spec).__name__}")
    return i0, i1


def _exp_cell_moments(c, beta, a, b):
    if beta == 0:
        return c * (b - a), c * (b**2 - a**2) / 2.0
    ea = np.exp(-beta * a)
    eb = np.exp(-beta * b)
    i0 = c * (ea - eb) / beta
    i1 = c * (ea * (a / beta + 1.0 / beta**2) - eb * (b / beta + 1.0 / beta**2))
    return i0, i1


# ---------------------------------------------------------------------------
# Mittag-Leffler function
# ---------------------------------------------------------------------------

# For z >= 0 every series term is positive, so summation in log space is
# accurate up to overflow.  For z < 0 the series cancels catastrophically
# (worst term grows like exp(|z|^(1/alpha))), so moderate negative arguments
# are summed in arbitrary precision and far-negative ones (alpha < 1,
# |z|^(1/alpha) >= 38, where the optimally-truncated remainder ~ e^-38 is
# negligible) use the algebraic asymptotic expansion.  A naive
# switch-at-|z|=5 rule cannot reach 1e-10 relative accuracy on the negative
# axis, hence this three-branch layout.
_ML_NEG_FLOAT_CUTOFF = -1.5
_ML_ASYMPTOTIC_PEAK = 38.0
_ML_MAX_EXPONENT = 700.0  # exp argument beyond which float64 overflows


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) = sum_n z^n / Gamma(alpha*n + beta) for real z."""
    return float(_ml_array(alpha, beta, float(z)))


def _ml_array(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta} elementwise over a float array z, same shape.

    The branch of every element is decided once for the whole array, and all
    arguments that need arbitrary precision go to one _ml_series_mp call, so
    they share its reciprocal-gamma coefficients.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta}")
    z_arr = np.asarray(z, dtype=float)
    zf = z_arr.ravel()
    finite = np.isfinite(zf)
    if not finite.all():
        raise ValueError(f"z must be finite, got {zf[~finite][0]}")
    out = np.empty(zf.shape)
    out[zf == 0.0] = _rgamma(beta)
    pos = zf > 0
    out[pos] = [_ml_series_positive(alpha, beta, v) for v in zf[pos].tolist()]
    small = (zf < 0) & (zf >= _ML_NEG_FLOAT_CUTOFF)
    out[small] = _ml_series_small_negative(alpha, beta, zf[small])
    far = zf < _ML_NEG_FLOAT_CUTOFF
    if alpha < 1.0:
        with np.errstate(over="ignore"):  # inf is past the seam all the same
            asym = far & (np.abs(zf) ** (1.0 / alpha) >= _ML_ASYMPTOTIC_PEAK)
        out[asym] = [_ml_asymptotic_negative(alpha, beta, -v) for v in zf[asym].tolist()]
        far &= ~asym
    if far.any():
        out[far] = _ml_series_mp(alpha, beta, zf[far])
    return out.reshape(z_arr.shape)


def _ml_series_positive(alpha, beta, z):
    # All terms positive; work in log space because z^n may overflow long
    # before the Gamma denominator catches up (small alpha, moderate z).
    if z ** (1.0 / alpha) > _ML_MAX_EXPONENT:
        raise OverflowError(
            f"E_{{{alpha},{beta}}}({z}) overflows double precision "
            f"(growth ~ exp(z^(1/alpha)))"
        )
    log_z = math.log(z)
    n_peak = z ** (1.0 / alpha) / alpha
    total = 0.0
    for n in range(int(n_peak) + 10_000):
        log_term = n * log_z - math.lgamma(alpha * n + beta)
        if log_term > 709.0:
            raise OverflowError(f"Mittag-Leffler series overflowed for z={z}")
        term = math.exp(log_term)
        total += term
        if n > n_peak and term < 1e-18 * total:
            return total
    raise RuntimeError(f"Mittag-Leffler series failed to converge for z={z}")


def _ml_series_small_negative(alpha, beta, z):
    # Plain float series over an array z in [-1.5, 0); every element stops
    # adding terms at its own convergence, as a scalar loop would.
    total = np.zeros_like(z)
    power = np.ones_like(z)
    live = np.ones(z.shape, dtype=bool)
    term_arg = beta
    for _ in range(10_000):
        term = power * _rgamma(term_arg)
        total = np.where(live, total + term, total)
        if term_arg > alpha + beta:
            live &= np.abs(term) >= 1e-18 * np.maximum(np.abs(total), 1.0)
            if not live.any():
                return total
        power *= z
        term_arg += alpha
    raise RuntimeError(f"Mittag-Leffler series failed to converge for z={z[live][0]}")


def _ml_series_mp(alpha, beta, z):
    """Series for z < -1 (float or array, same shape back) in arbitrary precision.

    Cancellation amplifies the worst term exp(|z|^(1/alpha)); the working
    precision carries that many decimal digits plus 35, set by the most
    negative argument so no element gets less than it would alone.  The
    coefficients 1/Gamma(alpha*n + beta) do not depend on z: each is computed
    once, with alpha*n + beta formed at working precision (in float64 its
    rounding error alone corrupts the cancellation).  Every argument's series
    is then summed forward in Python-int fixed point: x^n is kept to `prec`
    significant bits, each coefficient as an mpf mantissa of `prec` bits, and
    their product is shifted onto one accumulator scale.  A coefficient stored
    at a fixed absolute scale instead would need len(coeffs) * log2(max|z|)
    more bits, its absolute error being multiplied by |z|^n; Horner's scheme
    in fixed point is unstable for |z| > 1.
    """
    import mpmath
    from mpmath.libmp import to_man_exp

    z_arr = np.asarray(z, dtype=float)
    order = np.argsort(z_arr.ravel())  # most negative first
    x = -z_arr.ravel()[order]
    peak = float(x[0]) ** (1.0 / alpha)
    extra = int(0.4343 * peak) + 15
    if extra > 10_000:
        raise ValueError(
            f"z={-x[0]} too negative for series evaluation at alpha={alpha}"
        )
    # an argument sums terms while n is before its peak term or the term is
    # above 2^-bits, bits being the 35 + 0.4343 * peak digits it would get
    # alone; both tests are monotone in x, so the arguments still summing
    # are a prefix of x
    peaks = x ** (1.0 / alpha)
    n_peak = peaks / alpha + 5.0
    floor_log2 = -3.33 * (35.0 + 0.4343 * peaks)
    log2_x = np.log2(x)
    # x * 2^52 as Python ints; exact because x >= 1 has no bits below 2^-52
    x_fixed = np.array([int(v) for v in (x * 2.0**52).tolist()], dtype=object)
    with mpmath.workdps(20 + extra):
        prec = mpmath.mp.prec
        ma = mpmath.mpf(alpha)
        mb = mpmath.mpf(beta)
        power = np.full(x.shape, 1 << prec, dtype=object)  # x^n * 2^prec
        acc = np.zeros(x.shape, dtype=object)  # sum * 2^(prec + 16)
        live = len(x)
        for n in range(200_000):
            man, exp = to_man_exp(mpmath.rgamma(ma * n + mb)._mpf_)  # rgamma > 0 here
            terms = power[:live] * (-man if n & 1 else man)
            shift = exp + 16  # mantissa * 2^exp * 2^-prec * 2^(prec + 16)
            acc[:live] += terms << shift if shift >= 0 else terms >> -shift
            power[:live] = (power[:live] * x_fixed[:live]) >> 52
            log2_term = (n + 1) * log2_x[:live] + exp + man.bit_length()  # >= term n+1
            needed = (n + 1 <= n_peak[:live]) | (log2_term > floor_log2[:live])
            if not needed.any():
                break
            live = int(np.flatnonzero(needed)[-1]) + 1
        else:
            raise RuntimeError(f"Mittag-Leffler series failed to converge for z={-x[0]}")
    out = np.empty(x.shape)
    out[order] = (acc / (1 << (prec + 16))).astype(float)  # int / int rounds correctly
    out = out.reshape(z_arr.shape)
    return out if out.ndim else float(out)


def _ml_asymptotic_negative(alpha, beta, x):
    # E_{a,b}(-x) = sum_{k>=1} (-1)^(k-1) x^(-k) / Gamma(b - a k) + O(opt),
    # valid for 0 < alpha < 1.  Truncation is decided on a smooth envelope:
    # once b - a k < 0 the raw terms carry an oscillating |sin(pi(b - a k))|
    # factor (reflection formula) that would trip a naive smallest-term rule,
    # so the envelope drops the sine via x^-k Gamma(1 - b + a k) / pi.
    log_x = math.log(x)
    log_pi = math.log(math.pi)
    total = 0.0
    sign = 1.0
    prev_env = math.inf
    for k in range(1, 400):
        refl_arg = 1.0 - beta + alpha * k
        if refl_arg > 0.5:
            log_env = -k * log_x + math.lgamma(refl_arg) - log_pi
            # term assembled in log space: x^-k / Gamma(b-ak) can pair an
            # underflowing power with an overflowing reciprocal gamma
            term = sign * math.exp(log_env) * math.sin(math.pi * (beta - alpha * k))
        else:
            # Gamma(b - a k) still regular here; raw magnitude is smooth
            term = sign * math.exp(-k * log_x) * float(_rgamma(beta - alpha * k))
            mag = abs(term)
            log_env = math.log(mag) if mag > 0 else prev_env
        if log_env > prev_env and k > 1:
            break
        if k > 2 and log_env < math.log(max(abs(total), 1e-300)) - 40.0:
            break
        prev_env = log_env
        total += term
        sign = -sign
    return total


# ---------------------------------------------------------------------------
# Resolvents of the second kind
# ---------------------------------------------------------------------------

def resolvent_closed_form(spec: Kernel, lam: float):
    """Closed-form R_lam as a vectorized callable of t > 0.

    lam = 0 returns the zero function.  The sum-of-exponentials variant has no
    tabulated closed form here; use resolvent_numeric for it.
    """
    if isinstance(spec, SumOfExponentialsKernel):
        raise UnsupportedVariantError(
            "no closed-form resolvent for SumOfExponentialsKernel; "
            "use resolvent_numeric"
        )
    if lam == 0.0:
        def zero(t):
            t_arr = np.asarray(t, dtype=float)
            out = np.zeros_like(t_arr)
            return out if out.ndim else 0.0
        return zero

    if isinstance(spec, ConstantKernel):
        lc = lam * spec.c

        def r_const(t):
            t_arr = np.asarray(t, dtype=float)
            out = lc * np.exp(-lc * t_arr)
            return out if out.ndim else float(out)

        return r_const

    if isinstance(spec, ExponentialKernel):
        lc = lam * spec.c
        b = spec.beta

        def r_exp(t):
            t_arr = np.asarray(t, dtype=float)
            out = lc * np.exp(-(b + lc) * t_arr)
            return out if out.ndim else float(out)

        return r_exp

    if isinstance(spec, FractionalKernel):
        lc = lam * spec.c
        al = spec.alpha

        def r_frac(t):
            t_arr = np.asarray(t, dtype=float)
            if np.any(t_arr <= 0) and al < 1.0:
                raise KernelDomainError("fractional resolvent is singular at t <= 0")
            ml = _ml_array(al, al, -lc * t_arr**al)
            out = lc * t_arr ** (al - 1.0) * ml
            return out if out.ndim else float(out)

        return r_frac

    raise TypeError(f"unknown kernel variant {type(spec).__name__}")


@dataclass(frozen=True)
class ResolventSamples:
    """R_lam sampled on a grid, with the discrete-identity residual attached.

    residual is max_i |lam*(K*R)(t_i) - lam*K(t_i) + R(t_i)| over interior
    nodes, relative to max_i |lam*K(t_i)|, with the convolution taken by the
    same product-integration rule the solver enforced; it certifies the
    triangular solve, while accuracy against closed forms is a separate check.
    """

    grid: TimeGrid
    values: np.ndarray
    lam: float
    residual: float
    warning: str | None = None


def resolvent_numeric(spec: Kernel, lam: float, grid: TimeGrid) -> ResolventSamples:
    """Solve R + lam*(K*R) = lam*K on the grid by product integration.

    For singular fractional kernels R itself blows up at 0, so the leading
    Neumann terms sum_{k<=m} (-1)^(k-1) lam^k K^{*k} (closed-form powers
    c^k t^(k a - 1)/Gamma(k a)) are split off analytically, with m chosen so
    the remainder's forcing t^((m+1)a - 1) is C^1; only the smooth remainder
    is solved numerically.  The node at t = 0 is stored as +-inf.
    """
    if grid.t_start != 0.0:
        raise ValueError("resolvent grid must start at t = 0")
    if not math.isfinite(lam):
        raise ValueError("lambda must be finite")
    nodes = grid.nodes()
    n = grid.n_steps
    h = grid.spacing

    warning = None
    if isinstance(spec, FractionalKernel) and spec.alpha < 0.55 and n < 50:
        warning = (
            f"grid with {n} steps is too coarse to resolve the t^(alpha-1) "
            f"singularity at alpha={spec.alpha}; refine the grid"
        )

    if lam == 0.0:
        return ResolventSamples(grid, np.zeros(n + 1), 0.0, 0.0, warning)

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
        rem = _vie_solve(lam, a_w, b_w, forcing)
        resid = _vie_residual(lam, a_w, b_w, forcing, rem)
        values = np.empty(n + 1)
        values[0] = np.inf if spec.c * lam > 0 else -np.inf
        values[1:] = partial + rem[1:]
        scale = np.max(np.abs(lam * kernel_eval(spec, nodes[1:])))
    else:
        forcing = lam * kernel_eval(spec, nodes)
        values = _vie_solve(lam, a_w, b_w, forcing)
        resid = _vie_residual(lam, a_w, b_w, forcing, values)
        scale = np.max(np.abs(forcing))

    return ResolventSamples(grid, values, lam, float(resid / scale), warning)


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


def _march(a_w, b_w, y0: float, node_rule, rect_w=None) -> np.ndarray:
    """Node loop of every product-integration Volterra solve.

    At node i = 1..n, y[i] = node_rule(i, past) with the product-trapezoidal
    history past = sum_{m=1..i} a_w[m-1] y[i-m] + sum_{m=2..i} b_w[m-1] y[i-m+1];
    node_rule owns the weight b_w[0] on y[i].  With rect_w, y[i] =
    node_rule(i, rect, past) also gets the product-rectangle history
    rect = sum_{m=1..i} rect_w[m-1] y[i-m] (the Adams predictor).
    """
    n = len(a_w)
    y = np.empty(n + 1)
    y[0] = y0
    for i in range(1, n + 1):
        hist = y[i - 1 :: -1]
        past = a_w[:i] @ hist
        if i >= 2:
            past += b_w[1:i] @ hist[:-1]
        y[i] = node_rule(i, past) if rect_w is None else node_rule(i, rect_w[:i] @ hist, past)
    return y


def _vie_solve(lam, a_w, b_w, forcing):
    """Sequential solve of x_i + lam * (K*x)_i = f_i with x_0 = f_0."""
    denom = 1.0 + lam * b_w[0]
    return _march(a_w, b_w, forcing[0], lambda i, s: (forcing[i] - lam * s) / denom)


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

def integrated_resolvent_ratio(spec: Kernel, lam: float, tau: float) -> float:
    """int_0^tau R_lam(s)/lam ds at one tau; see integrated_resolvent_ratio_curve."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    return float(integrated_resolvent_ratio_curve(spec, lam, [tau])[0])


def integrated_resolvent_ratio_curve(spec: Kernel, lam: float, taus) -> np.ndarray:
    """int_0^tau R_lam(s)/lam ds over an array of tau >= 0, continuous in lam at 0.

    lam = 0 reduces to int_0^tau K.  Fractional kernels use the Mittag-Leffler
    identity (1 - E_{a,1}(-lam c tau^a))/lam; constant and exponential kernels
    integrate their exponential resolvents exactly; sum-of-exponentials falls
    back to trapezoid quadrature of the numeric resolvent, solved per tau.
    """
    taus = np.asarray(taus, dtype=float)
    if np.any(taus < 0):
        raise ValueError("tau values must be >= 0")
    if lam == 0.0:
        return np.asarray(kernel_integral(spec, taus), dtype=float)
    if isinstance(spec, FractionalKernel):
        ml = _ml_array(spec.alpha, 1.0, -lam * spec.c * taus**spec.alpha)
        return (1.0 - ml) / lam
    if isinstance(spec, ConstantKernel):
        out = -np.expm1(-lam * spec.c * taus) / lam
    elif isinstance(spec, ExponentialKernel):
        rate = spec.beta + lam * spec.c
        out = spec.c * taus if rate == 0.0 else spec.c * (-np.expm1(-rate * taus)) / rate
    elif isinstance(spec, SumOfExponentialsKernel):
        out = np.zeros_like(taus)
        for j in np.flatnonzero(taus):
            n = max(200, int(250 * taus[j]))
            samples = resolvent_numeric(spec, lam, TimeGrid(0.0, taus[j], n))
            out[j] = np.trapezoid(samples.values, dx=samples.grid.spacing) / lam
    else:
        raise TypeError(f"unknown kernel variant {type(spec).__name__}")
    return np.where(taus > 0, out, 0.0)  # +0.0 at tau = 0, whatever the signs
