"""Command-line front end: config ingestion, experiment orchestration, CSV/JSON
emission, and the data recipes behind the hedge-term, crossover, simulation,
and consumption figures.

Subcommands: hedge-curve, crossover, simulate, nonexp, strategy.
Exit codes: 0 success, 2 config error, 3 numeric or I/O error.  load_config
checks every field name once, and every leaf once by its kind (_LEAVES), and
main builds each input once (Inputs) before any work: a field at fault exits 2,
named, whatever the command.

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
)
from .montecarlo import (
    MAX_ELEMENTS,
    PATHS_CSV_HEADER,
    LiftedFactors,
    _as_factor_kernel,
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


# Every config leaf (a field that is no section), by its path, with its kind:
# float, a JSON number (never a bool or a string) taken as its float; an int
# k, an integer >= k taken exactly within the float range (an integral float
# counts); bool; str; a tuple, one of its strings; a dict, the variant of a
# section, one of its keys, which maps it to the fields the section takes
# besides "variant" (such a section replaces its default whole); [kind], a
# non-empty list of that kind; _RATE, a number or the table {"times": [...],
# "rates": [...]}.  The ranges (finite, > 0, ...) are the library classes'.
_RATE = "rate"
_LEAVES = {
    **dict.fromkeys(["market.nu0", "market.kappa", "market.phi", "market.sigma", "market.rho",
                     "market.theta"], float),
    "market.rate": _RATE,
    "market.kernel.variant": {"fractional": {"c", "hurst", "alpha"}, "constant": {"c"},
                              "exponential": {"c", "beta"},
                              "sum_of_exponentials": {"weights", "rates"}},
    **dict.fromkeys(["market.kernel.c", "market.kernel.hurst", "market.kernel.alpha",
                     "market.kernel.beta"], float),
    **dict.fromkeys(["market.kernel.weights", "market.kernel.rates"], [float]),
    "objective.variant": {"const_mv": {"gamma", "horizon"},
                          "log_mv": {"gamma", "horizon", "delta"},
                          "nonexp_log": {"discount", "horizon"}},
    **dict.fromkeys(["objective.gamma", "objective.horizon", "objective.delta"], float),
    "objective.discount.variant": {"exponential": {"rate"}, "hyperbolic": {"a", "b"},
                                   "tabulated": {"times", "values"}},
    **dict.fromkeys(["objective.discount.rate", "objective.discount.a",
                     "objective.discount.b"], float),
    **dict.fromkeys(["objective.discount.times", "objective.discount.values"], [float]),
    "grid.steps_per_year": 1,
    "hurst_values": [float],
    "gamma_values": [float],
    "sim.scheme": ("lifted",),
    "sim.n_factors": 1,
    "sim.rate_spread": float,
    "sim.n_paths": 2,  # a sample variance needs 2
    "sim.seed": 0,
    "sim.write_paths": bool,
    "output.directory": str,
    "output.formats": [("csv", "json")],
    "notes": str,
}


def _leaf(name: str, value, kind=None):
    """value as the build_* functions take it, if it is of the kind of leaf
    name (or of kind); else ConfigError naming the leaf."""
    kind = _LEAVES[name] if kind is None else kind
    if isinstance(kind, list):
        if not (isinstance(value, list) and value):
            raise ConfigError(f"{name} must be a non-empty list, got {value!r}")
        return [_leaf(name, item, kind[0]) for item in value]
    if kind is _RATE and isinstance(value, dict):
        for key in value:
            if key not in ("times", "rates"):
                raise ConfigError(f"unknown config field 'config.{name}.{key}'")
        return {key: _leaf(f"{name}.{key}", value.get(key), [float]) for key in ("times", "rates")}
    if isinstance(kind, (tuple, dict)):
        if not (isinstance(value, str) and value in kind):
            raise ConfigError(f"unknown {name} {value!r}")
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind in (float, _RATE):
        ok, what = number, "a number"
    elif kind in (bool, str):
        ok, what = isinstance(value, kind), "true or false" if kind is bool else "a string"
    else:
        ok, what = number and (value.is_integer() if isinstance(value, float)
                               else abs(value) <= sys.float_info.max), "an integer"
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if kind in (float, _RATE):
        try:
            return float(value)
        except OverflowError:  # an integer past the float range
            raise ConfigError(f"{name} must be a number in the float range, got {value}") from None
    if isinstance(kind, int):
        if value < kind:
            raise ConfigError(f"{name} must be >= {kind}, got {int(value)}")
        return int(value)
    return value


def _merge(base: dict, override, path: str = "config") -> dict:
    """base with override's fields, checked against base's or the variant's, leaves by _leaf."""
    if not isinstance(override, dict):
        raise ConfigError(f"'{path}' must be an object")
    merged, allowed, prefix = {}, base.keys(), path.removeprefix("config").lstrip(".") + "."
    if prefix + "variant" in _LEAVES:  # no default is merged into the section
        variant = merged["variant"] = _leaf(prefix + "variant", override.get("variant"))
        allowed = {"variant", *_LEAVES[prefix + "variant"][variant]}
        base = {key: value for key, value in override.items() if key != "variant"}
    for key in override:
        if key not in allowed:
            raise ConfigError(f"unknown config field '{path}.{key}'")
    for key, default in base.items():
        leaf, value = (prefix + key).lstrip("."), override.get(key, default)
        merged[key] = (_leaf(leaf, value) if leaf in _LEAVES
                       else _merge(default, value, f"{path}.{key}"))
    return merged


def load_config(path: str | None) -> dict:
    if path is None:
        raw = {}
    else:
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable
            raise ConfigError(f"cannot read config file {path}: {exc}")
        # a syntax error (JSONDecodeError), an integer past int()'s digit
        # limit, or arrays nested past the recursion limit
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}")
    if isinstance(raw, dict) and "config" in raw and "command" in raw:  # a manifest
        raw = raw["config"]
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return _merge(DEFAULT_CONFIG, raw)


@contextlib.contextmanager
def _config_errors(section: str, spec):
    """A library error in the block becomes ConfigError("bad <section> <spec>: ..."),
    and a field the block looks up in vain ConfigError("<section>.<key> is missing")."""
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:  # a field the section's variant needs
        raise ConfigError(f"{section}.{exc.args[0]} is missing") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {section} {spec!r}: {exc}")


def build_kernel(spec: dict):
    with _config_errors("market.kernel", spec):
        variant = spec["variant"]
        if variant == "sum_of_exponentials":
            # fitted sums alternate in sign, so their weights may be negative
            return SumOfExponentialsKernel(spec["weights"], spec["rates"])
        # a weight c <= 0 turns kappa K negative, and the solves grow without bound
        c = spec.get("c", 1.0) if variant == "fractional" else spec["c"]
        if c <= 0:
            raise ConfigError(f"market.kernel.c must be > 0 for the {variant} kernel, got {c}")
        if variant == "fractional":
            if "hurst" in spec and "alpha" in spec:
                raise ConfigError("market.kernel takes hurst or alpha, not both")
            if "alpha" in spec:
                return FractionalKernel(c=c, alpha=spec["alpha"])
            return FractionalKernel.from_hurst(spec["hurst"], c=c)
        # constant and exponential kernels are the one-term sums c exp(-beta t)
        beta = spec["beta"] if variant == "exponential" else 0.0
        return SumOfExponentialsKernel((c,), (beta,))


def build_market(cfg: dict) -> MarketParams:
    m = cfg["market"]
    rate = m["rate"]
    with _config_errors("market.rate", rate):
        curve = (RateCurve(rate["times"], rate["rates"]) if isinstance(rate, dict)
                 else RateCurve.flat(rate))
    kernel = build_kernel(m["kernel"])
    scalars = {name: value for name, value in m.items() if name not in ("rate", "kernel")}
    try:
        return MarketParams(**scalars, rate_curve=curve, kernel=kernel)
    except ValueError as exc:
        raise ConfigError(f"bad market parameters: {exc}")


def build_discount(spec: dict):
    with _config_errors("objective.discount", spec):
        if spec["variant"] == "exponential":
            return ExponentialDiscount(spec["rate"])
        if spec["variant"] == "hyperbolic":
            return HyperbolicDiscount(spec["a"], spec["b"])
        return TabulatedDiscount(spec["times"], spec["values"])


def build_objective(cfg: dict):
    o = cfg["objective"]
    with _config_errors("objective", o):
        if o["variant"] == "const_mv":
            return ConstMVObjective(o["gamma"], o["horizon"])
        if o["variant"] == "log_mv":
            return LogMVObjective(o["gamma"], o["horizon"], o.get("delta", 1.0))
        return NonExpLogObjective(build_discount(o["discount"]), o["horizon"])


MAX_GRID_STEPS = 10**6  # cells of one grid; each array over its nodes is then 8 MB


def build_grid(cfg: dict, horizon: float) -> TimeGrid:
    """The time grid, refused before its nodes are allocated if it is over budget."""
    spy = cfg["grid"]["steps_per_year"]
    try:
        grid = TimeGrid.for_horizon(horizon, spy)
        steps = grid.n_steps
    except OverflowError:  # round() refuses a product past the float range
        steps = math.inf
    if steps > MAX_GRID_STEPS:
        raise ConfigError(
            f"grid.steps_per_year x objective.horizon = {spy} x {horizon!r} rounds to "
            f"{steps} steps, over the budget of {MAX_GRID_STEPS} steps"
        )
    return grid


def build_sim(cfg: dict) -> LiftedFactors:
    """The sim section's scheme, checked whatever the command."""
    s = cfg["sim"]
    if s["n_paths"] > MAX_ELEMENTS:  # the terminal values alone would exceed the budget
        raise ConfigError(f"sim.n_paths = {s['n_paths']} exceeds the memory budget of "
                          f"{MAX_ELEMENTS} terminal values")
    with _config_errors("sim.rate_spread", s["rate_spread"]):
        return LiftedFactors(s["n_factors"], s["rate_spread"])


class Inputs(NamedTuple):
    """What the commands read of the config, built once by main."""
    market: MarketParams
    objective: ConstMVObjective | LogMVObjective | NonExpLogObjective
    grid: TimeGrid
    scheme: LiftedFactors


def build_output(cfg: dict) -> Path:
    """The output directory, which must be a path that is or can be a directory."""
    directory = cfg["output"]["directory"]
    if not directory:
        raise ConfigError("output.directory must be a path, got ''")
    existing = next(p for p in (Path(directory), *Path(directory).parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"output.directory {directory!r}: {existing} is not a directory")
    return Path(directory)


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
    """The objective's equilibrium strategy on the grid over [0, objective.horizon]."""
    if isinstance(objective, ConstMVObjective):
        return const_mv_strategy(market, objective.gamma, grid)
    if isinstance(objective, LogMVObjective):
        return log_mv_strategy(market, objective.gamma, grid)
    return nonexp_log_strategy(market, objective.discount, grid)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_hedge_curve(cfg: dict, inputs: Inputs, outputs: _Outputs):
    market, objective, grid, _ = inputs
    names = [f"hedge_curve_H{hurst:g}.csv" for hurst in cfg["hurst_values"]]
    if len(set(names)) < len(names):
        raise ConfigError(f"hurst_values {cfg['hurst_values']!r} give two files one name "
                          "(hedge_curve_H<value>.csv keeps 6 significant digits)")
    for hurst, name in zip(cfg["hurst_values"], names):
        curve = _strategy_for(_with_hurst(market, hurst), objective, grid)
        cols = {"t": grid.nodes(), "myopic": curve.myopic, "hedge": curve.hedge,
                "total": curve.total}
        outputs.write(name, columns_to_csv(format_columns(cols)))


def cmd_crossover(cfg: dict, inputs: Inputs, outputs: _Outputs):
    if len(set(cfg["hurst_values"])) != 2:  # a curve never crosses itself
        raise ConfigError(f"crossover needs exactly two hurst_values, got {cfg['hurst_values']}")
    market, objective, grid, _ = inputs
    h_rough, h_smooth = sorted(cfg["hurst_values"])
    rough = _with_hurst(market, h_rough)
    smooth = _with_hurst(market, h_smooth)
    rows = ["gamma,t_star_const_mv,t_star_log_mv"]
    fmt = lambda v: "" if v is None else repr(v)
    for gamma in cfg["gamma_values"]:
        t_stars = [
            prefer_rough_crossover(_strategy_for(rough, sweep, grid),
                                   _strategy_for(smooth, sweep, grid))
            for sweep in (ConstMVObjective(gamma, objective.horizon),
                          LogMVObjective(gamma, objective.horizon))
        ]
        rows.append(",".join(map(fmt, [gamma, *t_stars])))
    outputs.write("crossover.csv", "\n".join(rows), "\n")


def cmd_simulate(cfg: dict, inputs: Inputs, outputs: _Outputs):
    market, objective, grid, scheme = inputs
    n_paths, seed = cfg["sim"]["n_paths"], cfg["sim"]["seed"]
    if isinstance(objective, LogMVObjective) and not objective.delta > 0.5:
        # simulate_wealth refuses it too, but only after the strategy is solved
        raise ConfigError(
            f"simulate needs objective.delta > 0.5 for log_mv, got {objective.delta!r}: "
            "below it the log-wealth coefficients diverge, or are lost, at nu = 0"
        )
    # the fit is memoised, so the blocks reuse it
    try:
        _as_factor_kernel(market.kernel, scheme, grid.t_end)
    except RuntimeError as exc:
        raise ConfigError(
            f"sim.n_factors = {scheme.n_factors} and sim.rate_spread = "
            f"{scheme.rate_spread!r} give no kernel fit: {exc}"
        ) from None
    strategy = _strategy_for(market, objective, grid)

    # Blocks of at most PATH_BLOCK paths: memory is O(block x steps) whatever
    # n_paths, and path i depends on (seed, i) only, so the outputs do not
    # depend on the block.
    write_paths = cfg["sim"]["write_paths"] and "csv" in cfg["output"]["formats"]
    block_size = block_paths(grid, write_paths)
    terminal = np.empty(n_paths)
    sink = outputs.open("paths.csv") if write_paths else contextlib.nullcontext()
    with sink as paths_csv:
        if paths_csv is not None:
            paths_csv.write(PATHS_CSV_HEADER)
        for lo in range(0, n_paths, block_size):
            block = range(lo, min(lo + block_size, n_paths))
            bundle = simulate_variance(market, scheme, grid, block, seed)
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


def cmd_nonexp(cfg: dict, inputs: Inputs, outputs: _Outputs):
    market, objective, grid, _ = inputs
    if not isinstance(objective, NonExpLogObjective):
        raise ConfigError("nonexp needs objective.variant = 'nonexp_log'")
    hursts = cfg["hurst_values"]
    if len(hursts) < 2:
        hursts = list(hursts) + [0.5]
    # both Hurst values must give a kernel, but nonexp_log_strategy reads
    # none: one solve serves the pair, bit for bit (the library's
    # test_kernel_invariance_is_bitwise checks it)
    first, _ = (_with_hurst(market, hurst) for hurst in hursts[:2])
    curve = _strategy_for(first, objective, grid)
    # V1 as the library sums it; 1/p_hat would round it a second time
    cols = {"t": grid.nodes(), "consumption_rate": curve.consumption,
            "investment_coefficient": curve.total, "V1": nonexp_v1(objective.discount, grid)}
    outputs.write("nonexp_strategy.csv", columns_to_csv(format_columns(cols)))
    outputs.write("kernel_invariance.json", json.dumps(
        {"hurst_pair": hursts[:2], "bitwise_identical": True}, sort_keys=True, indent=2,
    ), "\n")


def cmd_strategy(cfg: dict, inputs: Inputs, outputs: _Outputs):
    market, objective, grid, _ = inputs
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
        for name, value in (("sim.seed", args.seed), ("output.directory", args.out),
                            ("output.formats", args.format and [args.format]),
                            ("grid.steps_per_year", args.steps_per_year),
                            ("sim.n_paths", args.paths)):
            if value is not None:
                section, key = name.split(".")
                cfg[section][key] = _leaf(name, value)
        # a float overflow, a division by zero or an invalid operation is a
        # numeric error, not a warning after which the run goes on with inf or NaN
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            scheme = build_sim(cfg)
            market, objective = build_market(cfg), build_objective(cfg)
            # every manifest records the sweeps, so every command checks their ranges
            with _config_errors("hurst_values", cfg["hurst_values"]):
                for hurst in cfg["hurst_values"]:
                    FractionalKernel.from_hurst(hurst)
            with _config_errors("gamma_values", cfg["gamma_values"]):
                for gamma in cfg["gamma_values"]:
                    ConstMVObjective(gamma, objective.horizon)
            inputs = Inputs(market, objective, build_grid(cfg, objective.horizon), scheme)
            with _Outputs(build_output(cfg), args.command, cfg) as outputs:
                COMMANDS[args.command](cfg, inputs, outputs)
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
