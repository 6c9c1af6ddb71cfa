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

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .kernels import (
    Kernel,
    TimeGrid,
    _check_finite,
    integrated_resolvent_ratio_curve,
)
from .volterra import (
    LinearVieProblem,
    RiccatiCoefficients,
    solve_linear_vie,
    solve_riccati_volterra,
)


# ---------------------------------------------------------------------------
# Market description
# ---------------------------------------------------------------------------

def _sampled_table(times, values, name: str, min_size: int) -> tuple[tuple, tuple]:
    """times and values (called name) as float tuples of one length >= min_size,
    finite, with the times strictly increasing from 0 and the values >= 0."""
    _check_finite(sequence=True, times=times, **{name: values})
    t = tuple(float(x) for x in times)
    v = tuple(float(x) for x in values)
    if len(t) != len(v) or len(t) < min_size:
        raise ValueError(f"times and {name} must have equal length >= {min_size}")
    if t[0] != 0.0 or any(b <= a for a, b in zip(t, t[1:])):
        raise ValueError(f"times must increase strictly from 0, got {t}")
    if min(v) < 0:
        raise ValueError(f"{name} must be >= 0, got {v}")
    return t, v


@dataclass(frozen=True)
class RateCurve:
    """Piecewise-constant deterministic risk-free rate.

    rates[j] applies on [times[j], times[j+1]) and rates[-1] beyond times[-1].
    """

    times: tuple
    rates: tuple

    def __post_init__(self):
        t, r = _sampled_table(self.times, self.rates, "rates", 1)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "rates", r)

    @classmethod
    def flat(cls, rate: float) -> "RateCurve":
        _check_finite(rate=rate)
        return cls(times=(0.0,), rates=(rate,))

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
        _check_finite(nu0=self.nu0, rho=self.rho, theta=self.theta)
        _check_finite(positive=True, kappa=self.kappa, phi=self.phi, sigma=self.sigma)
        if self.nu0 < 0:
            raise ValueError("nu0 must be >= 0")
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
        _check_finite(rate=self.rate)
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
        _check_finite(positive=True, a=self.a, b=self.b)

    def h(self, s):
        return (1.0 + self.a * np.asarray(s, dtype=float)) ** (-self.b / self.a)

    def integral(self, tau):
        # ((1 + a tau)^c - 1)/(c a), c = (a - b)/a, in the expm1/log1p form,
        # which does not cancel as b -> a; c = 0 is its limit log1p(a tau)/a
        tau = np.asarray(tau, dtype=float)
        c = (self.a - self.b) / self.a
        log_growth = np.log1p(self.a * tau)
        out = log_growth / self.a if c == 0.0 else np.expm1(c * log_growth) / (c * self.a)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class TabulatedDiscount:
    """Linearly interpolated discount; h(0) renormalized to 1 if within 1e-9."""

    times: tuple
    values: tuple

    def __post_init__(self):
        t, v = _sampled_table(self.times, self.values, "values", 2)
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
        tau = np.asarray(tau, dtype=float)
        t = np.asarray(self.times)
        v = np.asarray(self.values)
        cum = np.concatenate([[0.0], np.cumsum(np.diff(t) * 0.5 * (v[:-1] + v[1:]))])
        # exact for the piecewise-linear h: knot integral plus a trapezoid
        j = np.searchsorted(t, tau, side="right") - 1
        inside = cum[j] + (tau - t[j]) * 0.5 * (v[j] + np.interp(tau, t, v))
        out = np.where(tau < t[-1], inside, cum[-1] + v[-1] * (tau - t[-1]))
        return out if out.ndim else float(out)


Discount = ExponentialDiscount | HyperbolicDiscount | TabulatedDiscount


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstMVObjective:
    gamma: float
    horizon: float

    def __post_init__(self):
        _check_finite(positive=True, gamma=self.gamma, horizon=self.horizon)


@dataclass(frozen=True)
class LogMVObjective:
    gamma: float
    horizon: float
    delta: float = 1.0

    def __post_init__(self):
        _check_finite(positive=True, gamma=self.gamma, horizon=self.horizon, delta=self.delta)


@dataclass(frozen=True)
class NonExpLogObjective:
    discount: Discount
    horizon: float

    def __post_init__(self):
        _check_finite(positive=True, horizon=self.horizon)


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
    value_coeffs: dict = field(default_factory=dict)
    kind: str = ""
    consumption: np.ndarray | None = None  # the consumption problem's rate 1/V1

    def __post_init__(self):
        n = self.grid.n_steps + 1
        arrays = {"myopic": self.myopic, "hedge": self.hedge, "consumption": self.consumption,
                  **self.value_coeffs}
        for name, arr in arrays.items():
            if arr is not None and arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")

    @property
    def total(self) -> np.ndarray:
        return self.myopic + self.hedge


@dataclass(frozen=True)
class ThetaCurve:
    """Conditional forward-variance inputs Theta^t_s for s in [t, T], read as
    the linear interpolant of the samples.

    values[0] must equal the time-t spot variance (the forward curve is
    continuous at its anchor).
    """

    anchor: float
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _check_finite(anchor=self.anchor)
        _check_finite(sequence=True, times=self.times, values=self.values)
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape or t.size < 2:
            raise ValueError("times and values must be equal-length 1-d arrays")
        if abs(t[0] - self.anchor) > 1e-12:
            raise ValueError("times must start at the anchor")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @classmethod
    def flat(cls, anchor: float, t_end: float, value: float) -> "ThetaCurve":
        """The curve at value on [anchor, t_end], exact with its two end samples."""
        _check_finite(value=value)
        return cls(anchor, [anchor, t_end], [value, value])


def _cumtrapz(y: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * h * (y[:-1] + y[1:]))
    return out


def _mv_value_coeffs(market: MarketParams, grid: TimeGrid, forcing: np.ndarray, psi: np.ndarray,
                     rate_to_maturity: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """V2, V0 and g0 of a mean-variance strategy in calendar time, from its
    forcing, psi and integrated rate (if any) in time to maturity:
    V2 + kappa K*V2 = forcing, g0 = rate + kappa phi int psi and
    V0 = rate + phi int (forcing - V2), the integrals trapezoids from maturity."""
    v2 = solve_linear_vie(LinearVieProblem(market.kernel, market.kappa, forcing, grid))
    g0 = market.kappa * market.phi * _cumtrapz(psi, grid.spacing)
    v0 = market.phi * _cumtrapz(forcing - v2, grid.spacing)
    if rate_to_maturity is not None:
        g0, v0 = rate_to_maturity + g0, rate_to_maturity + v0
    return {name: tau[::-1].copy() for name, tau in (("V2", v2), ("V0", v0), ("g0", g0))}


# ---------------------------------------------------------------------------
# Const-MV
# ---------------------------------------------------------------------------

def const_mv_strategy(market: MarketParams, gamma: float, grid: TimeGrid) -> StrategyCurve:
    """Equilibrium dollar-amount coefficient under constant risk aversion on the grid.

    The caller multiplies total(t) by sqrt(nu_t) to get the control u_t;
    u_t / sqrt(nu_t) is the dollar amount held in the stock.
    """
    _check_finite(positive=True, gamma=gamma)
    th, rho, sig = market.theta, market.rho, market.sigma
    lam = market.kappa + rho * sig * th
    nodes = grid.nodes()
    taus = grid.t_end - nodes

    irr_cal = integrated_resolvent_ratio_curve(market.kernel, lam, taus)
    rate_cum = market.rate_curve.cumulative(nodes)
    disc = np.exp(-(rate_cum[-1] - rate_cum))  # e^{-int_t^T rate}

    myopic = (th / gamma) * disc
    hedge = -(rho * sig * th**2 / gamma) * disc * irr_cal

    psi_conv = (th**2 / gamma) * irr_cal[::-1]  # int_t^T g2(s) K(s-t) ds at tau
    forcing = (th - gamma * sig * rho * psi_conv) ** 2 / (2.0 * gamma) \
        - (gamma * sig**2 / 2.0) * psi_conv**2

    g1 = 1.0 / disc
    coeffs = {
        "V1": g1.copy(),
        "g1": g1,
        "g2": (th**2 / gamma) * (1.0 - lam * irr_cal),
        **_mv_value_coeffs(market, grid, forcing, psi_conv),
    }
    return StrategyCurve(grid, myopic, hedge, coeffs, kind="const_mv")


# ---------------------------------------------------------------------------
# Log-MV
# ---------------------------------------------------------------------------

def log_mv_existence_margin(market: MarketParams, gamma: float) -> float:
    """kappa + gamma^2 rho sigma theta / (1+gamma)^2, which is -H1 of the
    log-MV Riccati coefficients; must be > 0 for psi."""
    _check_finite(positive=True, gamma=gamma)
    coeffs = RiccatiCoefficients.log_mv(market.kappa, market.rho, market.sigma,
                                        market.theta, gamma)
    return -coeffs.H1


def log_mv_strategy(market: MarketParams, gamma: float, grid: TimeGrid) -> StrategyCurve:
    """Equilibrium proportional-investment coefficient for log-return MV on the grid.

    The curve is the state-independent factor, which does not depend on the
    generalized-Heston exponent delta; for delta != 1 the control multiplies
    nu^((delta-1)/(2 delta)) on top of it.
    """
    margin = log_mv_existence_margin(market, gamma)
    if margin <= 0:
        raise ValueError(
            "psi existence condition violated: kappa + gamma^2 rho sigma theta"
            f" / (1+gamma)^2 = {margin:.6g} <= 0; no bounded global solution"
            " is guaranteed"
        )
    th, rho, sig = market.theta, market.rho, market.sigma
    # psi is solved in time to maturity, on the grid read as a tau grid
    coeffs = RiccatiCoefficients.log_mv(market.kappa, rho, sig, th, gamma)
    psi_tau = solve_riccati_volterra(market.kernel, coeffs, grid)

    myopic = np.full(grid.n_steps + 1, th / (1.0 + gamma))
    hedge = -(gamma * rho * sig / (1.0 + gamma)) * psi_tau[::-1]

    forcing = (th - gamma * rho * sig * psi_tau) ** 2 / (2.0 * (1.0 + gamma)) \
        - (gamma * sig**2 / 2.0) * psi_tau**2
    rate_cum = market.rate_curve.cumulative(grid.nodes())
    rate_to_maturity = (rate_cum[-1] - rate_cum)[::-1]  # indexed by tau
    value = _mv_value_coeffs(market, grid, forcing, psi_tau, rate_to_maturity)
    return StrategyCurve(grid, myopic, hedge, value, kind="log_mv")


# ---------------------------------------------------------------------------
# Non-exponential discounting with log utility
# ---------------------------------------------------------------------------

def nonexp_log_strategy(
    market: MarketParams, discount: Discount, grid: TimeGrid
) -> StrategyCurve:
    """The consumption problem's strategy on the grid:
    the Merton fraction theta as total (no hedge), and the consumption rate
    1/V1(t), V1(t) = int_0^{T-t} h + h(T-t).

    Neither reads the kernel or the rate curve: roughness and rates move the
    value function only, so the curves are bitwise identical across kernels by
    construction.
    """
    h0 = float(discount.h(0.0))
    if abs(h0 - 1.0) > 1e-12:
        raise ValueError(f"discount h(0) = {h0} violates h(0) = 1")
    theta = np.full(grid.n_steps + 1, float(market.theta))
    return StrategyCurve(grid, theta, np.zeros_like(theta), kind="nonexp_log",
                         consumption=1.0 / nonexp_v1(discount, grid))


def nonexp_v1(discount: Discount, grid: TimeGrid) -> np.ndarray:
    """V1(t) = int_0^{T-t} h + h(T-t) at the grid's nodes, T = grid.t_end."""
    taus = grid.t_end - grid.nodes()
    return np.asarray(discount.integral(taus), dtype=float) + np.asarray(
        discount.h(taus), dtype=float
    )


def nonexp_forward_variance(
    market: MarketParams, theta_curve: ThetaCurve, grid: TimeGrid
) -> np.ndarray:
    """E(t, r, Theta) = int_t^r E[nu_l | F_t] dl at r = anchor + grid.nodes().

    The forward variance xi = E[nu | F_t] solves the linear Volterra equation
    (xi - phi) + kappa K*(xi - phi) = Theta - phi (Abi Jaber, Larsson &
    Pulido 2019), with Theta the curve's linear interpolant at the nodes, and
    E = phi (r - t) + int_t^r (xi - phi), the integral a trapezoid from the
    anchor.  A curve flat at phi gives phi (r - t) to rounding.
    """
    lags = grid.nodes()
    nodes = theta_curve.anchor + lags
    end = theta_curve.times[-1]
    if nodes[-1] > end + 1e-12:
        raise ValueError(f"grid ends at {nodes[-1]}, past the forward curve's last time {end}")
    theta = np.interp(nodes, theta_curve.times, theta_curve.values)
    x = solve_linear_vie(LinearVieProblem(market.kernel, market.kappa, theta - market.phi, grid))
    return market.phi * lags + _cumtrapz(x, grid.spacing)


@dataclass(frozen=True)
class NonExpValueCoeffs:
    """Value-function pieces for one forward-variance anchor.

    s_nodes spans [anchor, T].  c1 and c2 are the vectors of the (r, s)
    coefficients on s_j <= r_i: c1(r_i, s_j) = c1[i - j], the discount at
    the lag, and c2(r_i, s_j) = c1[i - j] * c2[i], with c2 the bracket
    log(1/V1) + int_anchor^r (rate - 1/V1) + theta^2/2 E(anchor, r, Theta).
    V2 is the scalar value-function remainder at the anchor.
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
    """The value-function pieces on the grid read as time since the anchor."""
    lags = grid.nodes()
    nodes = theta_curve.anchor + lags  # nodes[-1] is anchor + grid.t_end, the horizon
    th = market.theta

    v1 = nonexp_v1(discount, grid)
    rate_cum = market.rate_curve.cumulative(nodes)
    # int_anchor^r (rate - 1/V1): the rate exactly, 1/V1 by the trapezoid
    cum_int = rate_cum - rate_cum[0] - _cumtrapz(1.0 / v1, grid.spacing)
    e_vals = nonexp_forward_variance(market, theta_curve, grid)

    f1 = np.asarray(discount.h(nodes[-1] - nodes), dtype=float)
    f2 = f1 * (cum_int[-1] + 0.5 * th**2 * e_vals[-1])
    c1 = np.asarray(discount.h(lags), dtype=float)
    c2 = np.log(1.0 / v1) + cum_int + 0.5 * th**2 * e_vals
    v2 = float(np.trapezoid(c1 * c2, dx=grid.spacing) + f2[0])
    return NonExpValueCoeffs(nodes, v1, f1, f2, c1, c2, v2)


# ---------------------------------------------------------------------------
# Crossover analysis and admissibility
# ---------------------------------------------------------------------------

def prefer_rough_crossover(rough: StrategyCurve, smooth: StrategyCurve) -> float | None:
    """Latest calendar time where the rough and smooth curves' totals cross.

    The two curves must share their grid.  Returns None when the difference
    never changes sign.  The last strict sign change is used (curves can touch
    numerically far from maturity), with the crossing located by linear
    interpolation in the bracketing cell.
    """
    grid = rough.grid
    if smooth.grid != grid:
        raise ValueError(f"curves must share their grid, got {grid} and {smooth.grid}")
    diff = rough.total - smooth.total
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
    _check_finite(theta=theta, p=p)
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
