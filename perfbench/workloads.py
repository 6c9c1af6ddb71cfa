"""Seeded workload generator for the roughmv benchmark.

A workload is an endless sequence of rounds.  Every round holds the same
slots (op kind and size class) in a seeded order, and the seed draws the
parameters inside each slot, so any whole number of rounds has the same mix
of op kinds and size classes whatever the seed.  Round ``r`` depends only on
``(seed, workload, r)``.

The program sees only the JSON configs written by ``write_configs``; the
parameters a check needs are kept beside each config in ``Op.expect``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HURSTS = (0.05, 0.1, 0.2, 0.3, 0.5)
SIGMA, THETA = 0.3, 1.5

# The shipped configs/simulation_comparison.json market, copied here so that
# a change to the shipped config does not change the benchmark.
SIM_COMPARISON_MARKET = {
    "nu0": 0.09, "kappa": 1.0, "phi": 0.04, "sigma": 0.3, "rho": 0.7,
    "theta": 1.5, "rate": 0.01,
}

# Mittag-Leffler branch seams of roughmv.kernels.mittag_leffler, restated so
# the generator and the tracer can classify calls from their arguments.
ML_NEG_FLOAT_CUTOFF = -1.5
ML_ASYMPTOTIC_PEAK = 38.0

# const-MV size classes, in mpmath cost units (see mp_cost_units).  The whole
# (kappa, rho, T) box reaches ~7000 units, several seconds per op; the classes
# keep an op near half a second at most and every round at about one cost.
CONST_MV_CLASSES = {
    "float": (0.0, 0.0),
    "mp-light": (600.0, 900.0),
    "mp-heavy": (1500.0, 2000.0),
}
# log-MV grid sizes, one per slot of a round.  Their costs sit close together
# and below every other op but the float-branch ones, so the median latency
# falls inside this one cluster rather than between kinds.
LOG_MV_STEPS = tuple(range(1500, 2101, 75))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mix: str
    sizes: str
    round_slots: int
    trace_rounds: int


WORKLOADS = {
    "curves": Workload(
        name="curves",
        why=(
            "strategy ops, 9 const-MV fractional + 2 const-MV sum-of-exp + 9 "
            "log-MV per 20: kernels (Mittag-Leffler, resolvents) and volterra "
            "do nearly all the work, montecarlo none"
        ),
        mix=(
            "20 ops a round: 9 const-MV on fractional kernels (2 float-branch, "
            "3 mp-light, 4 mp-heavy), 2 const-MV on 8-factor fitted "
            "sum-of-exponentials kernels, 9 log-MV"
        ),
        sizes=(
            "const-MV: H in {0.05,0.1,0.2,0.3,0.5}, kappa in [0.3,2], "
            "rho in [-0.9,0.9], T in [0.5,3], 250 steps/yr, size class by "
            "mpmath cost units; sum-of-exp: H in {0.1,0.3}, T in [0.55,0.6] "
            "and [0.9,1]; log-MV: 1500, 1575, ..., 2100 steps at 1000-4000 "
            "steps/yr, T in [0.5,1.5]"
        ),
        round_slots=20,
        trace_rounds=3,
    ),
    "desk-sim": Workload(
        name="desk-sim",
        why=(
            "lifted 20-factor simulate, stats only, log-MV, 1000-5000 paths, T "
            "1-3: montecarlo does >90% of the work on a working set of tens to "
            "hundreds of MB"
        ),
        mix=(
            "9 simulate ops a round: 5 x 1000, 3 x 2000 and 1 x 5000 paths; "
            "scheme lifted (20 factors), write_paths off"
        ),
        sizes=(
            "simulation_comparison market, log-MV objective, H in "
            "{0.1,0.3,0.5}, T in [1,3] at 250 steps/yr (one of 8 bins per "
            "slot); the 5000-path op cycles T over {3,1,2,1.5,2.5}"
        ),
        round_slots=9,
        trace_rounds=3,
    ),
}

# Rounds written at set-up; a run that outlasts them starts again at round 0.
CONFIG_ROUNDS = 16


@dataclass
class Op:
    op_id: str
    command: str
    kind: str
    config: dict
    expect: dict = field(default_factory=dict)


def mp_cost_units(alpha: float, lam: float, horizon: float, steps_per_year: int) -> float:
    """Work the const-MV hedge curve of one op does in the mpmath series.

    The curve evaluates E_{alpha,1}(-lam tau^alpha) at every node tau of the
    time-to-maturity grid.  A call takes the mpmath series when its argument
    lies below -1.5 and outside the alpha < 1 asymptotic range, and then sums
    about |z|^(1/alpha)/alpha + 5 terms.  A term at alpha = 1 costs about a
    third of one at alpha < 1 (measured).  Zero means no mpmath call.
    """
    n = max(1, round(steps_per_year * horizon))
    tau = horizon - np.arange(n) * (horizon / n)
    z = -lam * tau**alpha
    peak = np.abs(z) ** (1.0 / alpha)
    mp = (z < ML_NEG_FLOAT_CUTOFF) & ~((alpha < 1.0) & (peak >= ML_ASYMPTOTIC_PEAK))
    terms = float(np.sum(peak[mp] / alpha + 5.0))
    return terms / 3.0 if alpha == 1.0 else terms


def is_mp_branch(alpha: float, z: float) -> bool:
    """True when mittag_leffler(alpha, beta, z) takes the mpmath series branch."""
    if not z < ML_NEG_FLOAT_CUTOFF:
        return False
    return not (alpha < 1.0 and (-z) ** (1.0 / alpha) >= ML_ASYMPTOTIC_PEAK)


def _rng(seed: int, workload: str, round_index: int) -> random.Random:
    return random.Random(f"roughmv-bench/{workload}/{seed}/{round_index}")


def _binned(rng: random.Random, k: int, r: int, n: int, lo: float, hi: float) -> float:
    """A draw from bin (k + r) mod n of [lo, hi] cut into n equal bins.

    Slot k of round r always gets the same bin, so the sizes of a round do not
    depend on the seed; the seed only places the draw inside its bin.
    """
    return lo + (hi - lo) * ((k + r) % n + rng.random()) / n


def _fractional(hurst: float) -> dict:
    return {"variant": "fractional", "c": 1.0, "hurst": hurst}


def _strategy_op(op_id, kind, market, objective, steps_per_year, expect) -> Op:
    config = {
        "market": market,
        "objective": objective,
        "grid": {"steps_per_year": steps_per_year},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
    expect = dict(expect, objective=objective["variant"],
                  gamma=objective["gamma"], horizon=objective["horizon"],
                  steps=max(1, round(steps_per_year * objective["horizon"])),
                  theta=market["theta"], rho=market["rho"],
                  sigma=market["sigma"], kappa=market["kappa"])
    return Op(op_id, "strategy", kind, config, expect)


def _curve_market(rng: random.Random, kernel: dict) -> dict:
    return {
        "nu0": 0.04, "kappa": rng.uniform(0.3, 2.0), "phi": 0.04,
        "sigma": SIGMA, "rho": rng.uniform(-0.9, 0.9), "theta": THETA,
        "rate": rng.uniform(0.0, 0.03), "kernel": kernel,
    }


def _const_mv_fractional(rng, op_id, hurst, size_class) -> Op:
    lo, hi = CONST_MV_CLASSES[size_class]
    alpha = hurst + 0.5
    while True:
        market = _curve_market(rng, _fractional(hurst))
        horizon = rng.uniform(0.5, 3.0)
        lam = market["kappa"] + market["rho"] * SIGMA * THETA
        units = mp_cost_units(alpha, lam, horizon, 250)
        if lo <= units <= hi:
            break
    objective = {"variant": "const_mv", "gamma": rng.uniform(0.25, 2.0),
                 "horizon": horizon}
    return _strategy_op(op_id, f"const-mv/{size_class}", market, objective, 250,
                        {"hurst": hurst})


def _const_mv_soe(rng, op_id, hurst, horizon, fit) -> Op:
    kernel = fit(hurst, horizon)
    market = _curve_market(rng, kernel)
    objective = {"variant": "const_mv", "gamma": rng.uniform(0.25, 2.0),
                 "horizon": horizon}
    return _strategy_op(op_id, "const-mv/sum-of-exp", market, objective, 250, {})


def _log_mv(rng, op_id, hurst, horizon, steps_per_year) -> Op:
    market = _curve_market(rng, _fractional(hurst))
    objective = {"variant": "log_mv", "gamma": rng.uniform(0.25, 2.0),
                 "horizon": horizon, "delta": 1.0}
    return _strategy_op(op_id, "log-mv", market, objective, steps_per_year,
                        {"hurst": hurst})


def _curves_round(seed, r, fit) -> list[Op]:
    rng = _rng(seed, "curves", r)
    ops = []
    classes = ["float"] * 2 + ["mp-light"] * 3 + ["mp-heavy"] * 4
    for k, size_class in enumerate(classes):
        hurst = HURSTS[(k + r) % len(HURSTS)]
        ops.append(_const_mv_fractional(rng, f"c{k}", hurst, size_class))
    for k, (t_lo, t_hi) in enumerate(((0.55, 0.6), (0.9, 1.0))):
        hurst = (0.1, 0.3)[(k + r) % 2]
        ops.append(_const_mv_soe(rng, f"s{k}", hurst, rng.uniform(t_lo, t_hi), fit))
    for k, steps in enumerate(LOG_MV_STEPS):
        # a horizon in [0.5, 1.5] and a density in [1000, 4000] steps/yr
        # whose product is this slot's grid size
        horizon = rng.uniform(max(0.5, steps / 4000.0), min(1.5, steps / 1000.0))
        hurst = HURSTS[(k + r) % len(HURSTS)]
        ops.append(_log_mv(rng, f"l{k}", hurst, horizon, round(steps / horizon)))
    return ops


def _sim_op(op_id, kind, market, objective, sim, expect) -> Op:
    horizon = objective["horizon"]
    config = {
        "market": market,
        "objective": objective,
        "grid": {"steps_per_year": 250},
        "sim": sim,
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
    expect = dict(expect, objective=objective["variant"], horizon=horizon,
                  steps=max(1, round(250 * horizon)), n_paths=sim["n_paths"],
                  write_paths=sim["write_paths"])
    return Op(op_id, "simulate", kind, config, expect)


def _desk_sim_round(seed, r) -> list[Op]:
    rng = _rng(seed, "desk-sim", r)
    paths = [1000] * 5 + [2000] * 3 + [5000]
    horizons = [_binned(rng, k, r, 8, 1.0, 3.0) for k in range(8)]
    # the largest op runs at T = 3 in round 0, so peak RSS does not hinge on
    # how many rounds a run reaches
    horizons.append((3.0, 1.0, 2.0, 1.5, 2.5)[r % 5])
    ops = []
    for k, n_paths in enumerate(paths):
        hurst = (0.1, 0.3, 0.5)[(k + r) % 3]
        market = dict(SIM_COMPARISON_MARKET, kernel=_fractional(hurst))
        objective = {"variant": "log_mv", "gamma": rng.uniform(0.25, 2.0),
                     "horizon": horizons[k], "delta": 1.0}
        sim = {"scheme": "lifted", "n_factors": 20, "rate_spread": 1.0e4,
               "n_paths": n_paths, "seed": rng.randrange(2**31),
               "write_paths": False}
        ops.append(_sim_op(f"d{k}", f"lifted/{n_paths}", market, objective, sim,
                           {"hurst": hurst}))
    return ops


def make_round(workload: str, seed: int, r: int, fit=None) -> list[Op]:
    """The ops of round r, interleaved in a seeded order.

    ``fit(hurst, horizon)`` returns a sum-of-exponentials kernel spec; it is
    needed by the curves workload only.
    """
    if workload == "curves":
        if fit is None:
            raise ValueError("the curves workload needs a kernel fit")
        ops = _curves_round(seed, r, fit)
    elif workload == "desk-sim":
        ops = _desk_sim_round(seed, r)
    else:
        raise ValueError(f"unknown workload '{workload}'")
    _rng(seed, workload + "/order", r).shuffle(ops)
    for op in ops:
        op.op_id = f"r{r:02d}-{op.op_id}"
    return ops


def make_rounds(workload: str, seed: int, n_rounds: int, fit=None) -> list[list[Op]]:
    return [make_round(workload, seed, r, fit) for r in range(n_rounds)]


def warmup_op(workload: str, fit=None) -> Op:
    """A fixed, seed-independent op of the workload's kind, run at set-up."""
    if workload == "curves":
        rng = random.Random(f"roughmv-bench/{workload}/warmup")
        op = _const_mv_fractional(rng, "warmup", 0.1, "mp-light")
    elif workload == "desk-sim":
        op = _desk_sim_round(0, 1)[0]
    else:
        raise ValueError(f"unknown workload '{workload}'")
    op.op_id = "warmup"
    return op


def write_configs(ops, directory: Path) -> dict[str, Path]:
    """Write one JSON config per op; returns op_id -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        path = directory / f"{op.op_id}.json"
        path.write_text(json.dumps(op.config, sort_keys=True, indent=1))
        paths[op.op_id] = path
    return paths


def sum_of_exp_fitter():
    """Kernel fit for the curves workload, memoised by (hurst, horizon)."""
    from roughmv import FractionalKernel, fit_sum_of_exponentials

    cache = {}

    def fit(hurst: float, horizon: float) -> dict:
        key = (hurst, horizon)
        if key not in cache:
            approx, _ = fit_sum_of_exponentials(
                FractionalKernel.from_hurst(hurst), 8, horizon
            )
            cache[key] = {"variant": "sum_of_exponentials",
                          "weights": list(approx.weights),
                          "rates": list(approx.rates)}
        return cache[key]

    return fit
