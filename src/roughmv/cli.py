"""Command-line front end: config ingestion, experiment orchestration, CSV/JSON
emission, and the data recipes behind the hedge-term, crossover, simulation,
and consumption figures.

Subcommands: hedge-curve, crossover, simulate, nonexp, strategy.
Exit codes: 0 success, 2 config error, 3 numeric error.

Every command writes a manifest.json holding the fully resolved config, the
library version, and the seed; pointing --config at a manifest reruns the
command and reproduces the data files byte-for-byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .kernels import (
    ConstantKernel,
    ExponentialKernel,
    FractionalKernel,
    SumOfExponentialsKernel,
    TimeGrid,
)
from .montecarlo import (
    EulerConvolution,
    LiftedFactors,
    bundle_to_csv,
    simulate_variance,
    simulate_wealth,
    terminal_stats,
)
from .strategies import (
    ConstMVObjective,
    ExponentialDiscount,
    HyperbolicDiscount,
    LogMVObjective,
    MarketParams,
    NonExpLogObjective,
    RateCurve,
    StrategyCurve,
    TabulatedDiscount,
    columns_to_csv,
    const_mv_strategy,
    log_mv_strategy,
    nonexp_log_strategy,
    prefer_rough_crossover,
    strategy_to_csv,
    strategy_to_json,
)


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "market": {
        "nu0": 0.04,
        "kappa": 0.3,
        "phi": 0.04,
        "sigma": 0.3,
        "rho": -0.7,
        "theta": 1.5,
        "rate": 0.0,
        "kernel": {"variant": "fractional", "c": 1.0, "hurst": 0.1},
    },
    "objective": {"variant": "const_mv", "gamma": 0.5, "horizon": 3.0},
    "grid": {"steps_per_year": 250},
    "hurst_values": [0.1, 0.5],
    "gamma_values": [0.5],
    "sim": {"scheme": "lifted", "n_factors": 20, "rate_spread": 1.0e4,
            "n_paths": 5000, "seed": 12345, "write_paths": False},
    "output": {"directory": "out", "formats": ["csv", "json"]},
    "notes": "",
}


def _reject_unknown(section: dict, allowed, path: str):
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config field '{path}.{key}'")


def _merge(base: dict, override: dict, path: str = "config") -> dict:
    _reject_unknown(override, base.keys(), path)
    merged = {}
    for key, default in base.items():
        if key in override:
            value = override[key]
            if isinstance(default, dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"'{path}.{key}' must be an object")
                merged[key] = _merge(default, value, f"{path}.{key}")
            else:
                merged[key] = value
        else:
            merged[key] = default
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        raw = {}
    else:
        try:
            raw = json.loads(Path(path).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}")
    if isinstance(raw, dict) and "config" in raw and "command" in raw:  # a manifest
        raw = raw["config"]
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("market", "objective"):
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"'config.{key}' must be an object")
    # kernel/objective sections carry variant-dependent fields; validate there
    kernel_raw = raw.get("market", {}).pop("kernel", None) if "market" in raw else None
    objective_raw = raw.pop("objective", None)
    cfg = _merge(
        {k: v for k, v in DEFAULT_CONFIG.items() if k != "objective"},
        raw,
    )
    cfg["objective"] = objective_raw if objective_raw is not None else DEFAULT_CONFIG["objective"]
    cfg["market"]["kernel"] = kernel_raw if kernel_raw is not None else DEFAULT_CONFIG["market"]["kernel"]
    return cfg


_KERNEL_FIELDS = {
    "fractional": {"variant", "c", "hurst", "alpha"},
    "constant": {"variant", "c"},
    "exponential": {"variant", "c", "beta"},
    "sum_of_exponentials": {"variant", "weights", "rates"},
}


def build_kernel(spec: dict):
    try:
        variant = spec["variant"]
        if variant not in _KERNEL_FIELDS:
            raise ConfigError(f"unknown kernel variant '{variant}'")
        _reject_unknown(spec, _KERNEL_FIELDS[variant], "config.market.kernel")
        if variant == "fractional":
            c = float(spec.get("c", 1.0))
            if "hurst" in spec:
                return FractionalKernel.from_hurst(float(spec["hurst"]), c=c)
            return FractionalKernel(c=c, alpha=float(spec["alpha"]))
        if variant == "constant":
            return ConstantKernel(c=float(spec["c"]))
        if variant == "exponential":
            return ExponentialKernel(c=float(spec["c"]), beta=float(spec["beta"]))
        return SumOfExponentialsKernel(tuple(spec["weights"]), tuple(spec["rates"]))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad kernel spec {spec}: {exc}")


def build_market(cfg: dict) -> MarketParams:
    m = cfg["market"]
    rate = m["rate"]
    try:
        if isinstance(rate, dict):
            curve = RateCurve(tuple(rate["times"]), tuple(rate["rates"]))
        else:
            curve = RateCurve.flat(float(rate))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad market.rate {rate!r}: {exc}")
    try:
        return MarketParams(
            nu0=float(m["nu0"]),
            kappa=float(m["kappa"]),
            phi=float(m["phi"]),
            sigma=float(m["sigma"]),
            rho=float(m["rho"]),
            theta=float(m["theta"]),
            rate_curve=curve,
            kernel=build_kernel(m["kernel"]),
        )
    except ValueError as exc:
        raise ConfigError(f"bad market parameters: {exc}")


_DISCOUNT_FIELDS = {
    "exponential": {"variant", "rate"},
    "hyperbolic": {"variant", "a", "b"},
    "tabulated": {"variant", "times", "values"},
}


def build_discount(spec: dict):
    try:
        variant = spec["variant"]
        if variant not in _DISCOUNT_FIELDS:
            raise ConfigError(f"unknown discount variant '{variant}'")
        _reject_unknown(spec, _DISCOUNT_FIELDS[variant], "config.objective.discount")
        if variant == "exponential":
            return ExponentialDiscount(float(spec["rate"]))
        if variant == "hyperbolic":
            return HyperbolicDiscount(float(spec["a"]), float(spec["b"]))
        return TabulatedDiscount(tuple(spec["times"]), tuple(spec["values"]))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad discount spec {spec}: {exc}")


def build_objective(cfg: dict):
    o = cfg["objective"]
    allowed = {
        "const_mv": {"variant", "gamma", "horizon"},
        "log_mv": {"variant", "gamma", "horizon", "delta"},
        "nonexp_log": {"variant", "discount", "horizon"},
    }
    try:
        variant = o["variant"]
        if variant not in allowed:
            raise ConfigError(f"unknown objective variant '{variant}'")
        _reject_unknown(o, allowed[variant], "config.objective")
        horizon = float(o["horizon"])
        if variant == "const_mv":
            return ConstMVObjective(float(o["gamma"]), horizon)
        if variant == "log_mv":
            return LogMVObjective(float(o["gamma"]), horizon, float(o.get("delta", 1.0)))
        return NonExpLogObjective(build_discount(o["discount"]), horizon)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad objective spec {o}: {exc}")


def build_grid(cfg: dict, horizon: float) -> TimeGrid:
    value = cfg["grid"]["steps_per_year"]
    try:
        spy = int(value)
        integral = spy == float(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigError(f"grid.steps_per_year must be an integer, got {value!r}")
    if spy < 1:
        raise ConfigError("grid.steps_per_year must be >= 1")
    return TimeGrid.for_horizon(horizon, spy)


def build_scheme(cfg: dict):
    s = cfg["sim"]
    if s["scheme"] == "lifted":
        return LiftedFactors(int(s["n_factors"]), float(s["rate_spread"]))
    if s["scheme"] == "euler_convolution":
        return EulerConvolution()
    raise ConfigError(f"unknown sim scheme '{s['scheme']}'")


def _with_hurst(market: MarketParams, hurst: float) -> MarketParams:
    import dataclasses

    if not isinstance(market.kernel, FractionalKernel):
        raise ConfigError("hurst_values require a fractional kernel")
    return dataclasses.replace(
        market, kernel=FractionalKernel.from_hurst(hurst, c=market.kernel.c)
    )


def _write(out_dir: Path, name: str, text: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(text)
    return path


def _write_manifest(out_dir: Path, command: str, cfg: dict):
    manifest = {
        "command": command,
        "version": __version__,
        "seed": cfg["sim"]["seed"],
        "config": cfg,
    }
    _write(out_dir, "manifest.json", json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _strategy_for(market, objective, grid) -> StrategyCurve:
    if isinstance(objective, ConstMVObjective):
        return const_mv_strategy(market, objective.gamma, objective.horizon, grid)
    if isinstance(objective, LogMVObjective):
        return log_mv_strategy(
            market, objective.gamma, objective.delta, objective.horizon, grid
        )
    raise ConfigError("this command needs a const_mv or log_mv objective")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_hedge_curve(cfg: dict, out_dir: Path) -> int:
    market = build_market(cfg)
    objective = build_objective(cfg)
    grid = build_grid(cfg, objective.horizon)
    for hurst in cfg["hurst_values"]:
        curve = _strategy_for(_with_hurst(market, hurst), objective, grid)
        cols = {"t": grid.nodes(), "myopic": curve.myopic, "hedge": curve.hedge,
                "total": curve.total}
        _write(out_dir, f"hedge_curve_H{hurst:g}.csv", columns_to_csv(cols))
    _write_manifest(out_dir, "hedge-curve", cfg)
    return 0


def cmd_crossover(cfg: dict, out_dir: Path) -> int:
    if len(cfg["hurst_values"]) != 2:
        raise ConfigError(
            f"crossover needs exactly two hurst_values, got {cfg['hurst_values']}"
        )
    market = build_market(cfg)
    objective = build_objective(cfg)
    grid = build_grid(cfg, objective.horizon)
    h_rough, h_smooth = sorted(cfg["hurst_values"])
    rough = _with_hurst(market, h_rough)
    smooth = _with_hurst(market, h_smooth)
    rows = ["gamma,t_star_const_mv,t_star_log_mv"]
    for gamma in cfg["gamma_values"]:
        t_c = prefer_rough_crossover(
            rough, smooth, ConstMVObjective(gamma, objective.horizon), grid
        )
        t_l = prefer_rough_crossover(
            rough, smooth, LogMVObjective(gamma, objective.horizon), grid
        )
        fmt = lambda v: "" if v is None else f"{v:.17g}"
        rows.append(f"{gamma:.17g},{fmt(t_c)},{fmt(t_l)}")
    _write(out_dir, "crossover.csv", "\n".join(rows) + "\n")
    _write_manifest(out_dir, "crossover", cfg)
    return 0


def cmd_simulate(cfg: dict, out_dir: Path) -> int:
    market = build_market(cfg)
    objective = build_objective(cfg)
    grid = build_grid(cfg, objective.horizon)
    scheme = build_scheme(cfg)
    seed = int(cfg["sim"]["seed"])
    n_paths = int(cfg["sim"]["n_paths"])

    bundle = simulate_variance(market, scheme, grid, n_paths, seed)
    consumption = None
    if isinstance(objective, NonExpLogObjective):
        p_hat, coef = nonexp_log_strategy(
            market, objective.discount, objective.horizon, grid
        )
        strategy = StrategyCurve(
            grid, coef, np.zeros_like(coef), coef, kind="nonexp_log"
        )
        consumption = p_hat
    else:
        strategy = _strategy_for(market, objective, grid)
    bundle = simulate_wealth(bundle, market, strategy, objective, 1.0, consumption)
    stats = terminal_stats(bundle)
    payload = {
        "mean": stats.mean,
        "variance": stats.variance,
        "n_paths": stats.n_paths,
        "histogram": {
            "bin_edges": list(map(float, stats.histogram[0])),
            "counts": list(map(int, stats.histogram[1])),
        },
        "kernel_fit_l2_error": bundle.metadata.get("kernel_fit_l2_error"),
    }
    _write(out_dir, "terminal_stats.json", json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if cfg["sim"]["write_paths"] and "csv" in cfg["output"]["formats"]:
        _write(out_dir, "paths.csv", bundle_to_csv(bundle))
    _write_manifest(out_dir, "simulate", cfg)
    return 0


def cmd_nonexp(cfg: dict, out_dir: Path) -> int:
    market = build_market(cfg)
    objective = build_objective(cfg)
    if not isinstance(objective, NonExpLogObjective):
        raise ConfigError("nonexp needs objective.variant = 'nonexp_log'")
    grid = build_grid(cfg, objective.horizon)
    hursts = cfg["hurst_values"]
    if len(hursts) < 2:
        hursts = list(hursts) + [0.5]
    outputs = []
    for hurst in hursts[:2]:
        p_hat, coef = nonexp_log_strategy(
            _with_hurst(market, hurst), objective.discount, objective.horizon, grid
        )
        outputs.append((p_hat, coef, 1.0 / p_hat))
    p_hat, coef, v1 = outputs[0]
    cols = {"t": grid.nodes(), "consumption_rate": p_hat,
            "investment_coefficient": coef, "V1": v1}
    _write(out_dir, "nonexp_strategy.csv", columns_to_csv(cols))
    identical = all(
        np.array_equal(outputs[0][i], outputs[1][i]) for i in range(3)
    )
    _write(
        out_dir,
        "kernel_invariance.json",
        json.dumps(
            {"hurst_pair": hursts[:2], "bitwise_identical": identical},
            sort_keys=True,
            indent=2,
        )
        + "\n",
    )
    if not identical:
        raise RuntimeError("kernel invariance violated for the consumption problem")
    _write_manifest(out_dir, "nonexp", cfg)
    return 0


def cmd_strategy(cfg: dict, out_dir: Path) -> int:
    market = build_market(cfg)
    objective = build_objective(cfg)
    grid = build_grid(cfg, objective.horizon)
    curve = _strategy_for(market, objective, grid)
    if "csv" in cfg["output"]["formats"]:
        _write(out_dir, "strategy.csv", strategy_to_csv(curve))
    if "json" in cfg["output"]["formats"]:
        _write(out_dir, "strategy.json", strategy_to_json(curve) + "\n")
    _write_manifest(out_dir, "strategy", cfg)
    return 0


COMMANDS = {
    "hedge-curve": cmd_hedge_curve,
    "crossover": cmd_crossover,
    "simulate": cmd_simulate,
    "nonexp": cmd_nonexp,
    "strategy": cmd_strategy,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughmv",
        description="Equilibrium strategies under rough (Volterra Heston) volatility",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config or manifest path")
        p.add_argument("--seed", type=int, default=None, help="override sim.seed")
        p.add_argument("--out", default=None, help="override output.directory")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict output.formats")
        p.add_argument("--steps-per-year", type=int, default=None,
                       help="override grid.steps_per_year (default 250)")
        p.add_argument("--paths", type=int, default=None,
                       help="override sim.n_paths (default 5000)")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["sim"]["seed"] = args.seed
        if args.out is not None:
            cfg["output"]["directory"] = args.out
        if args.format is not None:
            cfg["output"]["formats"] = [args.format]
        if args.steps_per_year is not None:
            cfg["grid"]["steps_per_year"] = args.steps_per_year
        if args.paths is not None:
            cfg["sim"]["n_paths"] = args.paths
        out_dir = Path(cfg["output"]["directory"])
        return COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OverflowError, FloatingPointError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
