"""Mutated JSON configs fed to every command of the CLI.

Whatever a config holds, main() returns 0, 2 or 3, raises nothing, and never
leaves a data file in the output directory without a manifest.json, also when
the disk fills up at the open or at the first write of one of its files: a
run that fails leaves no output directory behind.  Most such configs are
refused before any file opens, so a second property mutates configs only
inside their valid ranges, where the runs reach the writes.  The
mutations keep every run small: at most 400 grid cells (steps_per_year <= 100
and horizon <= 4), at most 50 paths and 50 factors, or else a size far over
its budget, which is refused before anything of that size is allocated: a
grid far over cli.MAX_GRID_STEPS, n_paths over montecarlo.MAX_ELEMENTS, or
more factors than the kernel fit has sample points (a kernel that needs no
fit runs with any number of factors).  Some mutations put in a value that
exits 2 naming its field: kappa, phi or sigma at or below 0 or NaN, a
fractional kernel's hurst together with alpha, an equal crossover pair.
A third property puts a value of a wrong kind (a bool, a string or null
where a number belongs, a string where a list does) into one leaf of the
table cli._LEAVES, and holds that the run exits 2 naming that leaf and
writes nothing.  All three are derandomized: the first draws 300 configs and
runs 5 pinned examples besides, the second 100 runs and the third 200.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from roughmv.cli import _LEAVES, _RATE, COMMANDS, main
from conftest import disk_full_at_part

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# leaves that no size field accepts as a number
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "x", math.nan, math.inf, -math.inf, "1e-300"]),
    st.lists(st.integers(-3, 3), max_size=2),
    st.fixed_dictionaries({"a": st.integers(-3, 3)}),
)
NUMBERS = st.one_of(
    st.integers(-10, 10),
    st.sampled_from([10**400, -10**400, 1e-300, 1e300, -0.0]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-2.0, 2.0),
)
LEAVES = st.one_of(JUNK, NUMBERS, st.sampled_from(["0.5", "7", "fractional", "constant"]))
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["times", "rates", "variant", "x"]), inner, max_size=3),
    max_leaves=6,
)


def size(high):
    return st.one_of(JUNK, st.integers(-2, high), st.floats(-1.0, float(high)))


# fields whose value sets the cost of a run, with the values they may take
SIZE_FIELDS = {
    ("grid", "steps_per_year"): size(100),
    ("objective", "horizon"): st.one_of(JUNK, st.floats(-1.0, 4.0), st.just(1e9)),
    ("sim", "n_paths"): st.one_of(size(50), st.just(10**11), st.just(10**30)),
    ("sim", "n_factors"): st.one_of(size(50), st.just(10**30), st.just(20_000)),
}
# values that exit 2 naming their field: a market parameter that must be
# positive at or below 0 or NaN, alpha beside a fractional kernel's hurst
# (on another variant an unknown field), and a Hurst pair of one value, whose
# curves cannot cross
NOT_POSITIVE = st.sampled_from([0.0, -0.0, -1.0, -0.04, float("nan")])
EXIT_FIELDS = {
    ("market", "kappa"): NOT_POSITIVE,
    ("market", "phi"): NOT_POSITIVE,
    ("market", "sigma"): NOT_POSITIVE,
    ("market", "kernel", "alpha"): st.floats(0.05, 1.0),
    ("hurst_values",): st.floats(0.05, 0.5).map(lambda h: [h, h]),
}
# kernel decay rates, whose size against the grid spacing picks a branch
RATES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-8, 0.5, 1e3, 1e300]), NUMBERS)
RATE_FIELDS = {
    ("market", "kernel", "beta"): RATES,
    ("market", "kernel", "rates"): st.lists(RATES, min_size=1, max_size=3),
}
# every leaf of the config (cli._LEAVES) besides the size fields, the
# sections, the two lists of a rate table, and a field that does not exist
OTHER_FIELDS = [
    ("market",), ("objective",), ("grid",), ("sim",), ("output",), ("market", "kernel"),
    ("objective", "discount"), ("market", "rate", "times"), ("market", "rate", "rates"),
    ("unknown",),
    *(path for path in (tuple(leaf.split(".")) for leaf in _LEAVES) if path not in SIZE_FIELDS),
]
# sections holding size fields: an object put in their place, or a size
# field deleted, would bring back the defaults (250 steps a year, 5000 paths)
SIZE_PARENTS = {("grid",), ("objective",), ("sim",)}


def small(cfg):
    cfg = copy.deepcopy(cfg)
    cfg["grid"] = {"steps_per_year": 50}
    cfg["objective"]["horizon"] = 2.0
    cfg["sim"] = {"scheme": "lifted", "n_factors": 8, "rate_spread": 1e4,
                  "n_paths": 20, "seed": 5, "write_paths": True}
    cfg.setdefault("hurst_values", [0.1, 0.5])
    cfg["gamma_values"] = cfg.get("gamma_values", [0.5])[:2]
    cfg.pop("output", None)
    return cfg


SHIPPED = [json.loads(p.read_text()) for p in sorted(CONFIG_DIR.glob("*.json"))]
KERNELS = [
    {"variant": "constant", "c": 1.0},
    {"variant": "exponential", "c": 0.7, "beta": 1.5},
    {"variant": "sum_of_exponentials", "weights": [0.6, -0.2], "rates": [0.5, 40.0]},
    {"variant": "fractional", "c": 1.0, "alpha": 0.8},
]
BASES = [small(cfg) for cfg in SHIPPED] + [
    small(dict(SHIPPED[0], market=dict(SHIPPED[0]["market"], kernel=k))) for k in KERNELS
] + [small(dict(SHIPPED[0], objective={"variant": "log_mv", "gamma": 0.5, "delta": 2.0}))]


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.integers(0, 4))
        if kind < 3:
            fields = (SIZE_FIELDS, RATE_FIELDS, EXIT_FIELDS)[kind]
            path = draw(st.sampled_from(sorted(fields)))
            value = draw(fields[path])
        else:
            path = draw(st.sampled_from(OTHER_FIELDS))
            value = draw(st.one_of(NUMBERS, VALUES))
        sized = path in SIZE_FIELDS or path in SIZE_PARENTS
        if sized and isinstance(value, dict):
            continue
        node = cfg
        for key in path[:-1]:
            if not isinstance(node.get(key), dict):
                break
            node = node[key]
        else:
            if not sized and draw(st.integers(0, 4)) == 0:
                node.pop(path[-1], None)
            else:
                node[path[-1]] = value
    if draw(st.integers(0, 9)) == 0:  # the same config as a manifest
        cfg = {"command": "strategy", "config": cfg}
    return cfg


def with_market(**fields):
    cfg = copy.deepcopy(BASES[0])
    cfg["market"].update(fields)
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(command=st.sampled_from(sorted(COMMANDS)), cfg=mutated_configs(),
       full_disk=st.one_of(st.none(), st.tuples(st.integers(0, 4),
                                                st.sampled_from(["open", "write"]))))
# a market scalar that is no number was a TypeError traceback, a rate far
# below the grid spacing a ZeroDivisionError one, alpha = 1e-20 an IndexError one
@example(command="strategy", cfg=with_market(kappa=None), full_disk=None)
@example(command="strategy", cfg=with_market(kernel={"variant": "fractional", "alpha": 1e-20}),
         full_disk=None)
@example(command="simulate", cfg=with_market(
    kernel={"variant": "sum_of_exponentials", "weights": [1.0], "rates": [1e-300]}),
    full_disk=None)
# hurst with alpha ran at hurst, and an equal Hurst pair exited 0 with no crossing
@example(command="strategy", cfg=with_market(
    kernel={"variant": "fractional", "c": 1.0, "hurst": 0.1, "alpha": 0.9}), full_disk=None)
@example(command="crossover", cfg=dict(BASES[0], hurst_values=[0.1, 0.1]), full_disk=None)
def test_main_exits_0_2_or_3_and_writes_no_data_without_a_manifest(command, cfg, full_disk):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()), \
                disk_full_at_part(*(full_disk or (None,))) as opened:
            rc = main([command, "--config", str(path), "--out", str(out)])
        assert rc in (0, 2, 3)
        assert all(fh.closed for _, fh in opened)
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if rc == 0 or written:
            assert "manifest.json" in written, (rc, written)
        if rc == 3:
            assert not out.exists()


# fields of the bases and values inside their valid ranges, as small as above
VALID_FIELDS = {
    ("market", "nu0"): st.floats(0.0, 0.2),
    ("market", "kappa"): st.floats(0.05, 3.0),
    ("market", "phi"): st.floats(0.01, 0.2),
    ("market", "sigma"): st.floats(0.05, 1.0),
    ("market", "rho"): st.floats(-1.0, 1.0),
    ("market", "theta"): st.floats(0.1, 3.0),
    ("market", "rate"): st.floats(0.0, 0.05),
    ("market", "kernel", "hurst"): st.floats(0.05, 0.5),
    ("objective", "gamma"): st.floats(0.1, 5.0),
    ("objective", "horizon"): st.floats(0.1, 4.0),
    ("objective", "delta"): st.floats(0.6, 3.0),
    ("grid", "steps_per_year"): st.integers(1, 100),
    ("sim", "n_paths"): st.integers(2, 50),
    ("sim", "n_factors"): st.integers(1, 20),
    ("sim", "seed"): st.integers(0, 2**32),
    ("sim", "write_paths"): st.booleans(),
}


def accepts(command, cfg):
    """Whether the command runs on the base at all: the Hurst sweeps need a
    fractional kernel, the crossover two Hurst values, nonexp its objective."""
    fractional = cfg["market"]["kernel"]["variant"] == "fractional"
    return {
        "hedge-curve": fractional,
        "crossover": fractional and len(cfg["hurst_values"]) == 2,
        "nonexp": cfg["objective"]["variant"] == "nonexp_log",
    }.get(command, True)


@st.composite
def valid_runs(draw):
    command, base = draw(st.sampled_from(
        [(c, b) for c in sorted(COMMANDS) for b in BASES if accepts(c, b)]))
    cfg = copy.deepcopy(base)
    for path in draw(st.lists(st.sampled_from(sorted(VALID_FIELDS)), max_size=4)):
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if path[-1] in node:
            node[path[-1]] = draw(VALID_FIELDS[path])
    cfg["output"] = {"formats": draw(st.sampled_from([["csv"], ["json"], ["csv", "json"]]))}
    return command, cfg


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(run=valid_runs(), full_disk=st.tuples(st.integers(0, 3), st.sampled_from(["open", "write"])))
def test_valid_configs_fail_whole_when_the_disk_fills(run, full_disk):
    # every run of a valid config exits 0 or 3: 0 only if it opened no more
    # parts than the drawn failure point, and 3 with no output directory
    command, cfg = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(io.StringIO()), \
                disk_full_at_part(*full_disk) as opened:
            rc = main([command, "--config", str(path), "--out", str(out)])
        assert all(fh.closed for _, fh in opened)
        if rc == 0:
            assert len(opened) <= full_disk[0]
            assert "manifest.json" in (p.name for p in out.iterdir())
        else:
            assert rc == 3 and not out.exists()


# values of a wrong kind for each kind of leaf in cli._LEAVES: a bool, a
# string or null where a number belongs, a string where a list does
NOT_NUMBERS = [True, False, None, "0.5", "12", "", [0.5], {"a": 1}]


def wrong_kinds(kind):
    if isinstance(kind, list):  # no list, an empty one, or one with an item of a wrong kind
        return [None, True, "12", 0.5, {"a": 1}, [], *([item] for item in wrong_kinds(kind[0]))]
    if kind is float:
        return NOT_NUMBERS
    if kind == _RATE:  # a number, or a table of the two lists and no other field
        return [*NOT_NUMBERS[:7], {"times": [0.0], "rates": [0.01], "x": 1}, {"times": [0.0]},
                {"times": "01", "rates": [0.01, 0.02]}]
    if kind is bool:
        return [0, 1, None, "true", [True]]
    if kind is str:
        return [5, True, None, ["x"], {"a": 1}]
    if isinstance(kind, (tuple, dict)):  # one of the names
        return [5, True, None, "x", ["x"]]
    return [*NOT_NUMBERS, 2.5, math.nan, math.inf]  # an integer >= kind


def with_leaf(leaf, value):
    """A config that sets the leaf to value, in a variant section of a
    variant that takes it, and leaves every other field to its default."""
    cfg = node = {}
    keys = leaf.split(".")
    for depth, key in enumerate(keys[:-1]):
        node[key] = {}
        node = node[key]
        variants = _LEAVES.get(".".join([*keys[:depth + 1], "variant"]), {})
        for variant, fields in variants.items():
            if keys[depth + 1] in fields | {"variant"}:
                node["variant"] = variant
                break
    node[keys[-1]] = value
    return cfg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(leaf=st.sampled_from(sorted(_LEAVES)), data=st.data())
def test_a_leaf_of_a_wrong_kind_exits_2_naming_it(leaf, data):
    value = data.draw(st.sampled_from(wrong_kinds(_LEAVES[leaf])))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(with_leaf(leaf, value)))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["strategy", "--config", str(path), "--out", str(Path(tmp) / "out")])
        assert rc == 2 and leaf in err.getvalue(), (rc, err.getvalue())
        assert sorted(p.name for p in Path(tmp).iterdir()) == ["config.json"]
