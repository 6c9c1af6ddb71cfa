"""Command-line front end: config ingestion, experiment orchestration, CSV/JSON
emission, and the data recipes behind the hedge-term, crossover, simulation,
and consumption figures.

Subcommands: hedge-curve, crossover, simulate, nonexp, strategy.
Exit codes: 0 success, 2 config error, 3 numeric or I/O error.

Every command writes a manifest.json holding the fully resolved config, the
library version, and the seed; pointing --config at a manifest reruns the
command and reproduces the data files byte-for-byte.  A run commits its data
files and the manifest together, or leaves the output directory as it was.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .kernels import (
    FractionalKernel,
    SumOfExponentialsKernel,
    TimeGrid,
    _check_weight,
)
from .montecarlo import (
    PATHS_CSV_HEADER,
    EulerConvolution,
    LiftedFactors,
    SimScheme,
    block_paths,
    bundle_csv_rows,
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
    format_columns,
    log_mv_strategy,
    nonexp_log_strategy,
    nonexp_v1,
    prefer_rough_crossover,
    strategy_text,
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
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable
            raise ConfigError(f"cannot read config file {path}: {exc}")
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
        if variant == "sum_of_exponentials":
            # fitted sums alternate in sign, so their weights may be negative
            return SumOfExponentialsKernel(tuple(spec["weights"]), tuple(spec["rates"]))
        # a weight c <= 0 turns kappa K negative, and the solves grow without bound
        c = float(spec.get("c", 1.0)) if variant == "fractional" else float(spec["c"])
        if c <= 0:
            raise ConfigError(f"market.kernel.c must be > 0 for the {variant} kernel, got {c}")
        if variant == "fractional":
            if "hurst" in spec:
                return FractionalKernel.from_hurst(float(spec["hurst"]), c=c)
            return FractionalKernel(c=c, alpha=float(spec["alpha"]))
        # constant and exponential kernels are the one-term sums c exp(-beta t)
        _check_weight(c)
        beta = float(spec["beta"]) if variant == "exponential" else 0.0
        if not (math.isfinite(beta) and beta >= 0):
            raise ValueError(f"decay rate beta must be finite and >= 0, got {beta}")
        return SumOfExponentialsKernel((c,), (beta,))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad market.kernel {spec}: {exc}")


def build_market(cfg: dict) -> MarketParams:
    m = cfg["market"]
    rate = m["rate"]
    try:
        if isinstance(rate, dict):
            curve = RateCurve(tuple(rate["times"]), tuple(rate["rates"]))
        else:
            curve = RateCurve.flat(float(rate))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad market.rate {rate!r}: {exc}")
    scalars = {}
    for name in ("nu0", "kappa", "phi", "sigma", "rho", "theta"):
        try:
            scalars[name] = float(m[name])
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad market.{name} {m[name]!r}: {exc}")
    kernel = build_kernel(m["kernel"])
    try:
        return MarketParams(**scalars, rate_curve=curve, kernel=kernel)
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad objective.discount {spec}: {exc}")


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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad objective spec {o}: {exc}")


def _integer(value, name: str, minimum: int) -> int:
    try:
        number = int(value)
        integral = not isinstance(value, bool) and number == float(value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if number < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {number}")
    return number


MAX_GRID_STEPS = 10**6  # cells of one grid; each array over its nodes is then 8 MB


def build_grid(cfg: dict, horizon: float) -> TimeGrid:
    """The time grid, refused before any allocation if it is over budget."""
    spy = _integer(cfg["grid"]["steps_per_year"], "grid.steps_per_year", 1)
    steps = spy * horizon
    if steps > MAX_GRID_STEPS:
        raise ConfigError(
            f"grid.steps_per_year x objective.horizon = {spy} x {horizon:g} = "
            f"{steps:.6g} steps exceeds the budget of {MAX_GRID_STEPS} steps"
        )
    return TimeGrid.for_horizon(horizon, spy)


class SimSettings(NamedTuple):
    scheme: SimScheme
    n_paths: int
    seed: int
    write_paths: bool


def build_sim(cfg: dict) -> SimSettings:
    """The validated sim section; every field is checked whatever the scheme."""
    s = cfg["sim"]
    n_paths = _integer(s["n_paths"], "sim.n_paths", 2)  # a sample variance needs 2
    seed = _integer(s["seed"], "sim.seed", 0)
    n_factors = _integer(s["n_factors"], "sim.n_factors", 1)
    try:
        lifted = LiftedFactors(n_factors, float(s["rate_spread"]))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad sim.rate_spread {s['rate_spread']!r}: {exc}")
    if not isinstance(s["write_paths"], bool):
        raise ConfigError(f"sim.write_paths must be true or false, got {s['write_paths']!r}")
    if s["scheme"] == "lifted":
        scheme = lifted
    elif s["scheme"] == "euler_convolution":
        scheme = EulerConvolution()
    else:
        raise ConfigError(f"unknown sim.scheme {s['scheme']!r}")
    return SimSettings(scheme, n_paths, seed, s["write_paths"])


def _finite_number(value) -> bool:
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an integer too large for a float
        return False


def check_sweeps(cfg: dict):
    """hurst_values and gamma_values, which every manifest records."""
    for key, valid, requirement in (
        ("hurst_values", lambda h: 0 < h <= 0.5, "numbers in (0, 0.5]"),
        ("gamma_values", lambda g: g > 0, "finite numbers > 0"),
    ):
        values = cfg[key]
        if not (isinstance(values, list) and values
                and all(_finite_number(v) and valid(v) for v in values)):
            raise ConfigError(f"{key} must be a non-empty list of {requirement}, got {values!r}")


def build_output(cfg: dict) -> Path:
    """The output directory, once the output section is checked."""
    out = cfg["output"]
    formats = out["formats"]
    if not (isinstance(formats, list) and formats
            and all(isinstance(f, str) and f in ("csv", "json") for f in formats)):
        raise ConfigError(
            f"output.formats must be a non-empty list of 'csv' and 'json', got {formats!r}"
        )
    if not (isinstance(out["directory"], str) and out["directory"]):
        raise ConfigError(f"output.directory must be a path, got {out['directory']!r}")
    directory = Path(out["directory"])
    existing = next(p for p in (directory, *directory.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output.directory {out['directory']!r}: {existing} is not a directory")
    return directory


def _with_hurst(market: MarketParams, hurst: float) -> MarketParams:
    import dataclasses

    if not isinstance(market.kernel, FractionalKernel):
        raise ConfigError("hurst_values require a fractional kernel")
    return dataclasses.replace(
        market, kernel=FractionalKernel.from_hurst(hurst, c=market.kernel.c)
    )


class OutputError(Exception):
    """An output file could not be written."""


class _Outputs(contextlib.AbstractContextManager):
    """The files of one run, committed together or not at all.

    Each file is written as <name>.part.  After the run, manifest.json is
    written last and the parts are renamed into place in order, so the
    manifest lands last.  On any error the parts and the directories the run
    made are removed; only a rename that fails midway leaves the files renamed
    before it.  An OSError becomes an OutputError naming its file, or else the
    part being written.
    """

    def __init__(self, out_dir: Path, command: str, cfg: dict):
        self.out_dir = out_dir
        self.manifest = {"command": command, "version": __version__,
                         "seed": cfg["sim"]["seed"], "config": cfg}
        self._parts: list[Path] = []
        self._missing = list(itertools.takewhile(lambda d: not d.exists(),
                                                 (out_dir, *out_dir.parents)))

    @contextlib.contextmanager
    def open(self, name: str):
        """A text handle on <name>.part, closed however the block ends."""
        if not self._parts:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        part = self.out_dir / f"{name}.part"
        self._parts.append(part)
        with part.open("w") as fh:
            yield fh

    def write(self, name: str, *texts: str):
        with self.open(name) as fh:
            fh.writelines(texts)

    def __exit__(self, kind, exc, tb):
        try:
            if exc is None:
                self.write("manifest.json", json.dumps(self.manifest, sort_keys=True, indent=2),
                           "\n")
                for part in self._parts:  # the manifest was written last
                    part.replace(part.with_suffix(""))
                return
        except BaseException as failure:
            exc = failure
        for part in self._parts:
            with contextlib.suppress(OSError):
                part.unlink(missing_ok=True)
        for directory in self._missing:  # deepest first
            with contextlib.suppress(OSError):
                directory.rmdir()
        if isinstance(exc, OSError):
            path = exc.filename or (self._parts[-1] if self._parts else self.out_dir)
            raise OutputError(f"{path}: {exc.strerror or exc}") from exc
        raise exc


def _strategy_for(market, objective, grid) -> StrategyCurve:
    if isinstance(objective, ConstMVObjective):
        return const_mv_strategy(market, objective.gamma, objective.horizon, grid)
    if isinstance(objective, LogMVObjective):
        return log_mv_strategy(
            market, objective.gamma, objective.delta, objective.horizon, grid
        )
    # the consumption problem: the Merton fraction theta, no hedge, and 1/V1
    p_hat, theta = nonexp_log_strategy(market, objective.discount, objective.horizon, grid)
    return StrategyCurve(grid, theta, np.zeros_like(theta), theta, kind="nonexp_log",
                         consumption=p_hat)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_hedge_curve(cfg: dict, outputs: _Outputs):
    market = build_market(cfg)
    objective = build_objective(cfg)
    grid = build_grid(cfg, objective.horizon)
    names = [f"hedge_curve_H{hurst:g}.csv" for hurst in cfg["hurst_values"]]
    if len(set(names)) < len(names):
        raise ConfigError(f"hurst_values {cfg['hurst_values']!r} give two files one name "
                          "(hedge_curve_H<value>.csv keeps 6 significant digits)")
    for hurst, name in zip(cfg["hurst_values"], names):
        curve = _strategy_for(_with_hurst(market, hurst), objective, grid)
        cols = {"t": grid.nodes(), "myopic": curve.myopic, "hedge": curve.hedge,
                "total": curve.total}
        outputs.write(name, columns_to_csv(format_columns(cols)))


def cmd_crossover(cfg: dict, outputs: _Outputs):
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
        fmt = lambda v: "" if v is None else repr(float(v))
        rows.append(f"{fmt(gamma)},{fmt(t_c)},{fmt(t_l)}")
    outputs.write("crossover.csv", "\n".join(rows), "\n")


def cmd_simulate(cfg: dict, outputs: _Outputs):
    market = build_market(cfg)
    objective = build_objective(cfg)
    if isinstance(objective, LogMVObjective) and not objective.delta > 0.5:
        # simulate_wealth refuses it too, but only after the strategy is solved
        raise ConfigError(
            f"simulate needs objective.delta > 0.5 for log_mv, got {objective.delta!r}: "
            "below it the log-wealth coefficients diverge, or are lost, at nu = 0"
        )
    grid = build_grid(cfg, objective.horizon)
    sim = build_sim(cfg)
    strategy = _strategy_for(market, objective, grid)

    # Blocks of at most PATH_BLOCK paths: memory is O(block x steps) whatever
    # n_paths, and path i depends on (seed, i) only, so the outputs do not
    # depend on the block.
    block_size = block_paths(grid)
    terminal = np.empty(sim.n_paths)
    write_paths = sim.write_paths and "csv" in cfg["output"]["formats"]
    sink = outputs.open("paths.csv") if write_paths else contextlib.nullcontext()
    with sink as paths_csv:
        if paths_csv is not None:
            paths_csv.write(PATHS_CSV_HEADER)
        for lo in range(0, sim.n_paths, block_size):
            block = range(lo, min(lo + block_size, sim.n_paths))
            bundle = simulate_variance(market, sim.scheme, grid, block, sim.seed)
            bundle = simulate_wealth(bundle, market, strategy, objective, 1.0,
                                     keep_paths=write_paths)
            terminal[lo : block.stop] = bundle.wealth[:, -1]
            if paths_csv is not None:
                paths_csv.writelines(bundle_csv_rows(bundle))
            fit_error = bundle.metadata.get("kernel_fit_l2_error")
            del bundle  # free this block's paths before the next block is drawn
        stats = terminal_stats(terminal)
    payload = {
        "mean": stats.mean,
        "variance": stats.variance,
        "n_paths": stats.n_paths,
        "histogram": {
            "bin_edges": list(map(float, stats.histogram[0])),
            "counts": list(map(int, stats.histogram[1])),
        },
        "kernel_fit_l2_error": fit_error,
    }
    outputs.write("terminal_stats.json", json.dumps(payload, sort_keys=True, indent=2), "\n")


def cmd_nonexp(cfg: dict, outputs: _Outputs):
    market = build_market(cfg)
    objective = build_objective(cfg)
    if not isinstance(objective, NonExpLogObjective):
        raise ConfigError("nonexp needs objective.variant = 'nonexp_log'")
    grid = build_grid(cfg, objective.horizon)
    hursts = cfg["hurst_values"]
    if len(hursts) < 2:
        hursts = list(hursts) + [0.5]
    results = []
    for hurst in hursts[:2]:
        curve = _strategy_for(_with_hurst(market, hurst), objective, grid)
        results.append((curve.consumption, curve.total))
    identical = all(np.array_equal(a, b) for a, b in zip(*results))
    if not identical:
        raise RuntimeError("kernel invariance violated for the consumption problem")
    p_hat, coef = results[0]
    # V1 as the library sums it; 1/p_hat would round it a second time
    cols = {"t": grid.nodes(), "consumption_rate": p_hat, "investment_coefficient": coef,
            "V1": nonexp_v1(objective.discount, objective.horizon, grid)}
    outputs.write("nonexp_strategy.csv", columns_to_csv(format_columns(cols)))
    outputs.write("kernel_invariance.json", json.dumps(
        {"hurst_pair": hursts[:2], "bitwise_identical": identical}, sort_keys=True, indent=2,
    ), "\n")


def cmd_strategy(cfg: dict, outputs: _Outputs):
    market = build_market(cfg)
    objective = build_objective(cfg)
    grid = build_grid(cfg, objective.horizon)
    # every value is formatted once, and both files are written from that text
    text = strategy_text(_strategy_for(market, objective, grid))
    if "csv" in cfg["output"]["formats"]:
        outputs.write("strategy.csv", strategy_to_csv(text))
    if "json" in cfg["output"]["formats"]:
        outputs.write("strategy.json", strategy_to_json(text), "\n")


COMMANDS = {
    "hedge-curve": cmd_hedge_curve,
    "crossover": cmd_crossover,
    "simulate": cmd_simulate,
    "nonexp": cmd_nonexp,
    "strategy": cmd_strategy,
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after it."""
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
        # every manifest records these sections, so they are checked always
        build_sim(cfg)
        check_sweeps(cfg)
        outputs = _Outputs(build_output(cfg), args.command, cfg)
        # a float overflow, a division by zero or an invalid operation is a
        # numeric error, not a warning after which the run goes on with inf or NaN
        with np.errstate(over="raise", divide="raise", invalid="raise"), outputs:
            COMMANDS[args.command](cfg, outputs)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"numeric error: out of memory: {exc}", file=sys.stderr)
        return 3
    except OutputError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
