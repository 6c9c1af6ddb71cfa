"""Equilibrium strategies and value-function coefficients.

Three time-inconsistent objectives are covered:

* mean-variance on terminal wealth with constant risk aversion ("const-MV"):
  the dollar-amount coefficient is closed form in the integrated resolvent,

      total(t) = (theta/gamma) e^{-int_t^T rate}
                 * (1 - rho sigma theta * int_0^{T-t} R_lam(s)/lam ds),
      lam = kappa + rho sigma theta,

  and the wealth control is total(t) * sqrt(nu_t);

* mean-variance on terminal log-return ("log-MV"): the proportional strategy
  is theta/(1+gamma) plus a hedge -gamma rho sigma/(1+gamma) * psi(T-t) with
  psi from the Riccati-Volterra solver;

* investment/consumption with a non-exponential discount and log utility:
  consumption rate 1/V1(t) and investment coefficient theta, independent of
  the kernel (roughness only moves the value function).

Curves store the state-free coefficient; multiplication by sqrt(nu) (or
nu^((delta-1)/(2 delta)) for the generalized-Heston exponent) happens in the
simulator.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import (
    Kernel,
    TimeGrid,
    integrated_resolvent_ratio_curve,
)
from .volterra import (
    LinearVieProblem,
    RiccatiCoefficients,
    SolverConfig,
    solve_linear_vie,
    solve_riccati_volterra,
)


# ---------------------------------------------------------------------------
# Market description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateCurve:
    """Piecewise-constant deterministic risk-free rate.

    rates[j] applies on [times[j], times[j+1]) and rates[-1] beyond times[-1].
    """

    times: tuple
    rates: tuple

    def __post_init__(self):
        t = tuple(float(x) for x in self.times)
        r = tuple(float(x) for x in self.rates)
        if len(t) != len(r) or len(t) < 1:
            raise ValueError("times and rates must have equal length >= 1")
        for name, values in (("times", t), ("rates", r)):
            if not all(math.isfinite(x) for x in values):
                raise ValueError(f"rate curve {name} must be finite, got {values}")
        if t[0] != 0.0:
            raise ValueError("rate curve must start at time 0")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("rate breakpoints must be strictly increasing")
        if any(x < 0 for x in r):
            raise ValueError("risk-free rates must be >= 0")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "rates", r)

    @classmethod
    def flat(cls, rate: float) -> "RateCurve":
        return cls(times=(0.0,), rates=(float(rate),))

    def cumulative(self, nodes: np.ndarray) -> np.ndarray:
        """int_0^{t_i} rate ds for each node t_i >= 0: rates[j] times the length
        of [0, t_i] inside interval j, summed over j."""
        total = np.zeros(len(nodes))
        edges = self.times + (math.inf,)
        for j, r in enumerate(self.rates):
            hi = np.minimum(nodes, edges[j + 1])
            total += np.where(hi > edges[j], r * (hi - edges[j]), 0.0)
        return total

    def values_at(self, nodes: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(np.asarray(self.times), np.asarray(nodes), side="right") - 1
        return np.asarray(self.rates)[np.clip(idx, 0, len(self.rates) - 1)]


def _check_finite(spec, *names):
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class MarketParams:
    nu0: float
    kappa: float
    phi: float
    sigma: float
    rho: float
    theta: float
    rate_curve: RateCurve
    kernel: Kernel

    def __post_init__(self):
        _check_finite(self, "nu0", "kappa", "phi", "sigma", "rho", "theta")
        if self.nu0 < 0:
            raise ValueError("nu0 must be >= 0")
        if self.kappa <= 0 or self.phi <= 0 or self.sigma <= 0:
            raise ValueError("kappa, phi, sigma must all be > 0")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if self.theta == 0:
            raise ValueError("theta must be nonzero")


# ---------------------------------------------------------------------------
# Discount functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentialDiscount:
    rate: float

    def __post_init__(self):
        _check_finite(self, "rate")
        if self.rate < 0:
            raise ValueError("discount rate must be >= 0")

    def h(self, s):
        return np.exp(-self.rate * np.asarray(s, dtype=float))

    def integral(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.rate == 0.0:
            out = tau.copy()
        else:
            out = -np.expm1(-self.rate * tau) / self.rate
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class HyperbolicDiscount:
    """h(s) = (1 + a s)^(-b/a), a > 0, b > 0."""

    a: float
    b: float

    def __post_init__(self):
        _check_finite(self, "a", "b")
        if self.a <= 0 or self.b <= 0:
            raise ValueError("hyperbolic discount needs a > 0 and b > 0")

    def h(self, s):
        return (1.0 + self.a * np.asarray(s, dtype=float)) ** (-self.b / self.a)

    def integral(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.a == self.b:
            out = np.log1p(self.a * tau) / self.a
        else:
            out = ((1.0 + self.a * tau) ** (1.0 - self.b / self.a) - 1.0) / (self.a - self.b)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class TabulatedDiscount:
    """Linearly interpolated discount; h(0) renormalized to 1 if within 1e-9."""

    times: tuple
    values: tuple

    def __post_init__(self):
        t = tuple(float(x) for x in self.times)
        v = tuple(float(x) for x in self.values)
        if len(t) != len(v) or len(t) < 2:
            raise ValueError("need at least two samples")
        for name, samples in (("times", t), ("values", v)):
            if not all(math.isfinite(x) for x in samples):
                raise ValueError(f"tabulated discount {name} must be finite, got {samples}")
        if t[0] != 0.0:
            raise ValueError("tabulated discount must start at s = 0")
        if any(b <= a for a, b in zip(t, t[1:])):
            raise ValueError("sample times must be strictly increasing")
        if any(x < 0 for x in v):
            raise ValueError("discount values must be >= 0")
        if abs(v[0] - 1.0) > 1e-9:
            raise ValueError(f"h(0) = {v[0]} is not 1 within 1e-9")
        if v[0] != 1.0:
            v = tuple(x / v[0] for x in v)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def h(self, s):
        # held flat beyond the last knot
        return np.interp(np.asarray(s, dtype=float), self.times, self.values)

    def integral(self, tau):
        tau = np.atleast_1d(np.asarray(tau, dtype=float))
        t = np.asarray(self.times)
        v = np.asarray(self.values)
        cum = np.concatenate([[0.0], np.cumsum(np.diff(t) * 0.5 * (v[:-1] + v[1:]))])
        # exact for the piecewise-linear h: knot integral plus a trapezoid
        j = np.searchsorted(t, tau, side="right") - 1
        inside = cum[j] + (tau - t[j]) * 0.5 * (v[j] + np.interp(tau, t, v))
        out = np.where(tau < t[-1], inside, cum[-1] + v[-1] * (tau - t[-1]))
        return out if out.size > 1 else float(out[0])


Discount = ExponentialDiscount | HyperbolicDiscount | TabulatedDiscount


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstMVObjective:
    gamma: float
    horizon: float

    def __post_init__(self):
        _check_finite(self, "gamma", "horizon")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")


@dataclass(frozen=True)
class LogMVObjective:
    gamma: float
    horizon: float
    delta: float = 1.0

    def __post_init__(self):
        _check_finite(self, "gamma", "horizon", "delta")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        if self.delta <= 0:
            raise ValueError("delta must be > 0")


@dataclass(frozen=True)
class NonExpLogObjective:
    discount: Discount
    horizon: float

    def __post_init__(self):
        _check_finite(self, "horizon")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")


ObjectiveSpec = ConstMVObjective | LogMVObjective | NonExpLogObjective


# ---------------------------------------------------------------------------
# Strategy curves
# ---------------------------------------------------------------------------

VALUE_COEFF_ORDER = ("V1", "V2", "V0", "g1", "g2", "g0")


@dataclass(frozen=True)
class StrategyCurve:
    """Time-sampled strategy coefficient, split as total = myopic + hedge."""

    grid: TimeGrid
    myopic: np.ndarray
    hedge: np.ndarray
    total: np.ndarray
    value_coeffs: dict = field(default_factory=dict)
    kind: str = ""
    consumption: np.ndarray | None = None  # the consumption problem's rate 1/V1

    def __post_init__(self):
        n = self.grid.n_steps + 1
        for name in ("myopic", "hedge", "total", "consumption"):
            arr = getattr(self, name)
            if arr is not None and arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if not np.allclose(self.total, self.myopic + self.hedge, rtol=1e-12, atol=1e-12):
            raise ValueError("total must equal myopic + hedge at every node")
        for key, arr in self.value_coeffs.items():
            if arr.shape != (n,):
                raise ValueError(f"value coefficient {key} has shape {arr.shape}")


@dataclass(frozen=True)
class ThetaCurve:
    """Conditional forward-variance inputs Theta^t_s for s in [t, T].

    values[0] must equal the time-t spot variance (the forward curve is
    continuous at its anchor).
    """

    anchor: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("times and values must be equal-length 1-d arrays")
        if abs(t[0] - self.anchor) > 1e-12:
            raise ValueError("times must start at the anchor")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def flat(cls, anchor: float, t_end: float, value: float, n: int = 200) -> "ThetaCurve":
        times = np.linspace(anchor, t_end, n + 1)
        return cls(anchor, times, np.full(n + 1, float(value)))


def _check_grid(grid: TimeGrid, horizon: float):
    if grid.t_start != 0.0 or abs(grid.t_end - horizon) > 1e-12:
        raise ValueError(
            f"grid must cover [0, {horizon}], got [{grid.t_start}, {grid.t_end}]"
        )


def _cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * h * (y[:-1] + y[1:]))
    return out


# ---------------------------------------------------------------------------
# Const-MV
# ---------------------------------------------------------------------------

def const_mv_strategy(
    market: MarketParams, gamma: float, horizon: float, grid: TimeGrid
) -> StrategyCurve:
    """Equilibrium dollar-amount coefficient under constant risk aversion.

    The caller multiplies total(t) by sqrt(nu_t) to get the control u_t;
    u_t / sqrt(nu_t) is the dollar amount held in the stock.
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    _check_grid(grid, horizon)
    th, rho, sig, kap, phi = (
        market.theta, market.rho, market.sigma, market.kappa, market.phi,
    )
    lam = kap + rho * sig * th
    nodes = grid.nodes()
    taus = horizon - nodes
    taus[-1] = 0.0

    irr_cal = integrated_resolvent_ratio_curve(market.kernel, lam, taus)
    rate_cum = market.rate_curve.cumulative(nodes)
    disc = np.exp(-(rate_cum[-1] - rate_cum))  # e^{-int_t^T rate}

    myopic = (th / gamma) * disc
    hedge = -(rho * sig * th**2 / gamma) * disc * irr_cal
    total = myopic + hedge

    # value coefficients, solved on the time-to-maturity grid and flipped back
    n = grid.n_steps
    tau_grid = TimeGrid(0.0, horizon, n)
    irr_tau = irr_cal[::-1].copy()
    psi_conv = (th**2 / gamma) * irr_tau  # int_t^T g2(s) K(s-t) ds at tau
    forcing = (th - gamma * sig * rho * psi_conv) ** 2 / (2.0 * gamma) \
        - (gamma * sig**2 / 2.0) * psi_conv**2
    v2_tau = solve_linear_vie(
        LinearVieProblem(market.kernel, kap, forcing, tau_grid)
    )
    g0_tau = kap * phi * _cumtrapz(psi_conv, tau_grid.spacing)
    v0_tau = phi * _cumtrapz(forcing - v2_tau, tau_grid.spacing)

    g1 = 1.0 / disc
    coeffs = {
        "V1": g1.copy(),
        "V2": v2_tau[::-1].copy(),
        "V0": v0_tau[::-1].copy(),
        "g1": g1,
        "g2": (th**2 / gamma) * (1.0 - lam * irr_cal),
        "g0": g0_tau[::-1].copy(),
    }
    return StrategyCurve(grid, myopic, hedge, total, coeffs, kind="const_mv")


# ---------------------------------------------------------------------------
# Log-MV
# ---------------------------------------------------------------------------

def log_mv_existence_margin(market: MarketParams, gamma: float) -> float:
    """kappa + gamma^2 rho sigma theta / (1+gamma)^2; must be > 0 for psi."""
    return market.kappa + gamma**2 * market.rho * market.sigma * market.theta \
        / (1.0 + gamma) ** 2


def log_mv_strategy(
    market: MarketParams,
    gamma: float,
    delta: float,
    horizon: float,
    grid: TimeGrid,
    solver_config: SolverConfig = SolverConfig(),
) -> StrategyCurve:
    """Equilibrium proportional-investment coefficient for log-return MV.

    For delta != 1 the curve returned is the state-independent factor; the
    control multiplies nu^((delta-1)/(2 delta)) on top of it (the factor
    itself does not depend on delta).
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    if delta <= 0:
        raise ValueError("delta must be > 0")
    _check_grid(grid, horizon)
    margin = log_mv_existence_margin(market, gamma)
    if margin <= 0:
        raise ValueError(
            "psi existence condition violated: kappa + gamma^2 rho sigma theta"
            f" / (1+gamma)^2 = {margin:.6g} <= 0; no bounded global solution"
            " is guaranteed"
        )
    th, rho, sig, kap, phi = (
        market.theta, market.rho, market.sigma, market.kappa, market.phi,
    )
    n = grid.n_steps
    tau_grid = TimeGrid(0.0, horizon, n)
    coeffs = RiccatiCoefficients.log_mv(kap, rho, sig, th, gamma)
    psi = solve_riccati_volterra(market.kernel, coeffs, tau_grid, solver_config)
    psi_tau = psi.values

    myopic = np.full(n + 1, th / (1.0 + gamma))
    hedge = -(gamma * rho * sig / (1.0 + gamma)) * psi_tau[::-1]
    total = myopic + hedge

    forcing = (th - gamma * rho * sig * psi_tau) ** 2 / (2.0 * (1.0 + gamma)) \
        - (gamma * sig**2 / 2.0) * psi_tau**2
    v2_tau = solve_linear_vie(
        LinearVieProblem(market.kernel, kap, forcing, tau_grid)
    )
    nodes = grid.nodes()
    rate_cum = market.rate_curve.cumulative(nodes)
    rate_to_maturity = (rate_cum[-1] - rate_cum)[::-1]  # indexed by tau
    g0_tau = rate_to_maturity + kap * phi * _cumtrapz(psi_tau, tau_grid.spacing)
    v0_tau = rate_to_maturity + phi * _cumtrapz(forcing - v2_tau, tau_grid.spacing)

    value = {
        "V2": v2_tau[::-1].copy(),
        "V0": v0_tau[::-1].copy(),
        "g0": g0_tau[::-1].copy(),
    }
    return StrategyCurve(grid, myopic, hedge, total, value, kind="log_mv")


# ---------------------------------------------------------------------------
# Non-exponential discounting with log utility
# ---------------------------------------------------------------------------

def nonexp_log_strategy(
    market: MarketParams, discount: Discount, horizon: float, grid: TimeGrid
) -> tuple[np.ndarray, np.ndarray]:
    """(consumption rate 1/V1(t), investment coefficient theta) on the grid.

    V1(t) = int_0^{T-t} h + h(T-t).  Neither output reads the kernel or the
    rate curve: roughness and rates move the value function only, so the
    curves are bitwise identical across kernels by construction.
    """
    _check_grid(grid, horizon)
    h0 = float(discount.h(0.0))
    if abs(h0 - 1.0) > 1e-12:
        raise ValueError(f"discount h(0) = {h0} violates h(0) = 1")
    consumption = 1.0 / nonexp_v1(discount, horizon, grid)
    investment = np.full(grid.n_steps + 1, float(market.theta))
    return consumption, investment


def nonexp_v1(discount: Discount, horizon: float, grid: TimeGrid) -> np.ndarray:
    """V1(t) = int_0^{T-t} h + h(T-t) at the grid's nodes, the last one taken as T."""
    taus = horizon - grid.nodes()
    taus[-1] = 0.0
    return np.asarray(discount.integral(taus), dtype=float) + np.asarray(
        discount.h(taus), dtype=float
    )


def nonexp_forward_variance(
    market: MarketParams, theta_curve: ThetaCurve, r: float
) -> float:
    """E(t, r, Theta) = int_t^r E[nu_l | F_t] dl via the resolvent of kappa*K.

    Flat forward curves at the mean level phi return phi*(r - t) exactly: the
    two resolvent terms cancel node-for-node under the shared trapezoid rule.
    """
    t = theta_curve.anchor
    if r < t - 1e-12 or r > theta_curve.times[-1] + 1e-12:
        raise ValueError(
            f"r = {r} outside [{t}, {theta_curve.times[-1]}]"
        )
    span = theta_curve.times[-1] - t
    density = (theta_curve.times.size - 1) / span if span > 0 else math.inf
    if density < 50.0:
        raise ValueError(
            f"forward-variance curve sampled at {density:.1f} nodes/year; "
            f"need at least 50"
        )
    if r <= t:
        return 0.0
    kap, phi = market.kappa, market.phi
    mask = theta_curve.times < r - 1e-15
    z = np.concatenate([theta_curve.times[mask], [r]])
    th_z = np.concatenate([
        theta_curve.values[mask],
        [np.interp(r, theta_curve.times, theta_curve.values)],
    ])
    irr = integrated_resolvent_ratio_curve(market.kernel, kap, r - z)
    term1 = np.trapezoid(th_z, z)
    term2 = kap * np.trapezoid(irr * th_z, z)
    term3 = kap * phi * np.trapezoid(irr[::-1], z)
    return float(term1 - term2 + term3)


@dataclass(frozen=True)
class NonExpValueCoeffs:
    """Value-function pieces for one forward-variance anchor.

    s_nodes spans [anchor, T].  c1/c2 are (r, s) matrices on s <= r (NaN
    above the diagonal); V2 is the scalar value-function remainder at the
    anchor.
    """

    s_nodes: np.ndarray
    V1: np.ndarray
    f1: np.ndarray
    f2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    V2: float


def nonexp_value_coeffs(
    market: MarketParams,
    discount: Discount,
    theta_curve: ThetaCurve,
    grid: TimeGrid,
) -> NonExpValueCoeffs:
    anchor = theta_curve.anchor
    horizon = grid.t_end
    if abs(grid.t_start - anchor) > 1e-12:
        raise ValueError("grid must start at the theta-curve anchor")
    nodes = grid.nodes()
    h_spacing = grid.spacing
    th = market.theta

    v1 = nonexp_v1(discount, horizon, grid)

    rates = market.rate_curve.values_at(nodes)
    integrand = rates - 1.0 / v1
    cum_int = _cumtrapz(integrand, h_spacing)  # int_anchor^r (rate - 1/V1)

    e_vals = np.array(
        [nonexp_forward_variance(market, theta_curve, float(r)) for r in nodes]
    )

    f1 = np.asarray(discount.h(horizon - nodes), dtype=float)
    bracket_f = cum_int[-1] + 0.5 * th**2 * e_vals[-1]
    f2 = f1 * bracket_f

    bracket_c = np.log(1.0 / v1) + cum_int + 0.5 * th**2 * e_vals
    lag = nodes[:, None] - nodes[None, :]  # r - s
    with np.errstate(invalid="ignore"):
        h_lag = np.asarray(discount.h(np.maximum(lag, 0.0)), dtype=float)
    h_lag[lag < 0] = np.nan
    c1 = h_lag
    c2 = h_lag * bracket_c[:, None]

    v2_scalar = float(np.trapezoid(c2[:, 0], dx=h_spacing) + f2[0])
    return NonExpValueCoeffs(nodes, v1, f1, f2, c1, c2, v2_scalar)


# ---------------------------------------------------------------------------
# Crossover analysis and admissibility
# ---------------------------------------------------------------------------

def _strategy_total(market: MarketParams, objective: ObjectiveSpec, grid: TimeGrid):
    if isinstance(objective, ConstMVObjective):
        return const_mv_strategy(market, objective.gamma, objective.horizon, grid).total
    if isinstance(objective, LogMVObjective):
        return log_mv_strategy(
            market, objective.gamma, objective.delta, objective.horizon, grid
        ).total
    raise ValueError("crossover analysis supports const-MV and log-MV objectives")


def prefer_rough_crossover(
    market_rough: MarketParams,
    market_smooth: MarketParams,
    objective: ObjectiveSpec,
    grid: TimeGrid,
) -> float | None:
    """Latest calendar time where the rough and smooth coefficients cross.

    Returns None when the difference never changes sign.  The last strict
    sign change is used (curves can touch numerically far from maturity),
    with the crossing located by linear interpolation in the bracketing cell.
    """
    if dataclasses.replace(market_rough, kernel=market_smooth.kernel) != market_smooth:
        raise ValueError("markets must differ only in their kernel")
    total_r = _strategy_total(market_rough, objective, grid)
    total_s = _strategy_total(market_smooth, objective, grid)
    diff = total_r - total_s
    sign_flip = diff[:-1] * diff[1:] < 0.0
    idx = np.nonzero(sign_flip)[0]
    if idx.size == 0:
        return None
    i = int(idx[-1])
    nodes = grid.nodes()
    frac = diff[i] / (diff[i] - diff[i + 1])
    return float(nodes[i] + frac * grid.spacing)


def admissibility_constant(theta: float, strategy: StrategyCurve, p: float) -> float:
    """Exponential-moment constant certifying admissibility of a proportional
    strategy: max(2 p |theta| sup|pi|, (8 p^2 - 2 p) sup pi^2) over the grid.
    """
    if p <= 1:
        raise ValueError("p must be > 1")
    pi = np.asarray(strategy.total)
    if pi.size == 0:
        raise ValueError("strategy curve is empty")
    sup_abs = float(np.max(np.abs(pi)))
    return max(2.0 * p * abs(theta) * sup_abs, (8.0 * p**2 - 2.0 * p) * sup_abs**2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def strategy_columns(curve: StrategyCurve) -> dict[str, np.ndarray]:
    cols = {
        "t": curve.grid.nodes(),
        "myopic": curve.myopic,
        "hedge": curve.hedge,
        "total": curve.total,
    }
    if curve.consumption is not None:
        cols["consumption"] = curve.consumption
    for key in VALUE_COEFF_ORDER:
        if key in curve.value_coeffs:
            cols[key] = curve.value_coeffs[key]
    return cols


# Every float in a data file is written as repr(float): the shortest text that
# reads back as the same double, and the form json.dumps writes.  A column is
# formatted once, in pieces of TEXT_PIECE values, and each file is assembled
# from those pieces: a piece holds its values in one string rather than one
# object per value, and a CSV writer interleaves the columns piece by piece.
# Pieces of 256 values and more raised the curves benchmark's peak RSS by
# 0.7-1.5 MB over formatting each file on its own; at 64 it is level.
TEXT_PIECE = 64


def format_columns(cols: dict[str, np.ndarray]) -> dict[str, list[str]]:
    """Each column as pieces of up to TEXT_PIECE values, the reprs of a piece
    joined by ', ' (the repr of the piece's list without its brackets).

    A column whose doubles equal an earlier column's bit for bit shares that
    column's pieces, and a column of one double repeated takes its repr once.
    Bits, not ==, decide, so 0.0 and -0.0 are told apart as repr tells them.
    """
    text = {}
    formatted = {}  # a column's bytes -> its pieces
    for name, col in cols.items():
        values = np.asarray(col, dtype=float)
        key = values.tobytes()
        if key not in formatted:
            bits = values.view(np.int64)
            if values.size and (bits == bits[0]).all():
                one = repr(float(values[0]))
                full, rest = divmod(values.size, TEXT_PIECE)
                formatted[key] = ([", ".join([one] * TEXT_PIECE)] * full
                                  + [", ".join([one] * rest)] * (rest > 0))
            else:
                formatted[key] = [repr(values[lo : lo + TEXT_PIECE].tolist())[1:-1]
                                  for lo in range(0, values.size, TEXT_PIECE)]
        text[name] = formatted[key]
    return text


def columns_to_csv(text: dict[str, list[str]]) -> str:
    """A header of column names, then one row per index of the formatted columns."""
    parts = [",".join(text) + "\n"]
    for pieces in zip(*text.values()):
        rows = zip(*(piece.split(", ") for piece in pieces))
        parts.append("\n".join(map(",".join, rows)) + "\n")
    return "".join(parts)


class CurveText(NamedTuple):
    """A strategy curve as its files hold it: the kind and the formatted columns."""

    kind: str
    columns: dict[str, list[str]]


def strategy_text(curve: StrategyCurve | CurveText) -> CurveText:
    """The curve's columns formatted once, for strategy_to_csv and strategy_to_json."""
    if isinstance(curve, CurveText):
        return curve
    return CurveText(curve.kind, format_columns(strategy_columns(curve)))


def strategy_to_csv(curve: StrategyCurve | CurveText) -> str:
    """strategy_columns of the curve as CSV, one row per grid node."""
    return columns_to_csv(strategy_text(curve).columns)


def strategy_to_json(curve: StrategyCurve | CurveText) -> str:
    """The columns and kind as json.dumps(..., sort_keys=True, indent=2) would
    write them, byte for byte.

    The indenting encoder is pure Python and would format every value again;
    each column is instead the formatted pieces with the separators of the
    indented layout, and NaN/Infinity spelled as the encoder spells them.
    """
    text = strategy_text(curve)
    items = {name: _json_array(pieces) for name, pieces in text.columns.items()}
    items["kind"] = json.dumps(text.kind)
    parts = ["{\n"]
    for key, value in sorted(items.items()):  # the values are joined once, not copied
        parts += [f"  {json.dumps(key)}: ", value, ",\n"]
    parts[-1] = "\n}"
    return "".join(parts)


def _json_array(pieces: list[str]) -> str:
    """A formatted column as a list at depth 1 of an indent=2 document."""
    values = ", ".join(pieces).replace(", ", ",\n    ")
    if "n" in values:  # the only letter of a finite repr is the exponent's 'e'
        values = values.replace("nan", "NaN").replace("inf", "Infinity")
    return "[\n    " + values + "\n  ]"
