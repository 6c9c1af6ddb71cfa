"""Per-op output checks and output digests.

``check_op`` reads the files one ``roughmv`` command wrote, raises
``CheckError`` naming the first property that fails, and returns a short
digest of the outputs.  Digests let a run compare itself with a golden record
(default seed only) and let the traced pass compare itself with the untraced
one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Relative tolerance for digest comparisons.  Differences below 1e-12 of the
# largest entry of a digest count as equal, so near-zero entries (the hedge of
# an op with rho close to 0) are not compared to 1e-9 of themselves.
DIGEST_RTOL = 1e-9
DIGEST_FLOOR = 1e-12

# The Adams solution sits on the analytic bound -r1 at H = 0.5 and may exceed
# it by its own O(h^2) discretisation error there; at the log-MV grid sizes of
# the curves workload (h <= 1e-3) that error stays below 1e-6 of max(-r1).
PSI_BOUND_SLACK = 1e-6


class CheckError(ValueError):
    pass


def _require(ok, what: str):
    if not ok:
        raise CheckError(what)


def check_strategy(out_dir: Path, expect: dict) -> list[float]:
    payload = json.loads((out_dir / "strategy.json").read_text())
    n = expect["steps"] + 1
    cols = {k: np.asarray(payload[k], dtype=float)
            for k in ("t", "myopic", "hedge", "total")}
    for name, col in cols.items():
        _require(col.shape == (n,), f"{name} has {col.shape} values, expected {n}")
        _require(np.all(np.isfinite(col)), f"{name} is not finite")
    csv_rows = (out_dir / "strategy.csv").read_bytes().count(b"\n")
    _require(csv_rows == n + 1, f"strategy.csv has {csv_rows} lines, expected {n + 1}")
    myopic, hedge, total = cols["myopic"], cols["hedge"], cols["total"]
    # the tolerance StrategyCurve itself enforces
    _require(np.allclose(total, myopic + hedge, rtol=1e-12, atol=1e-12),
             "total != myopic + hedge")
    gamma, theta = expect["gamma"], expect["theta"]
    if expect["objective"] == "const_mv":
        _require(payload["kind"] == "const_mv", "kind is not const_mv")
        terminal = theta / gamma
    else:
        _require(payload["kind"] == "log_mv", "kind is not log_mv")
        terminal = theta / (1.0 + gamma)
        _check_psi_bound(cols["t"], hedge, expect)
    _require(math.isclose(total[-1], terminal, rel_tol=1e-12),
             f"terminal value {total[-1]!r} != {terminal!r}")
    v2 = np.asarray(payload["V2"], dtype=float)
    _require(np.all(np.isfinite(v2)), "V2 is not finite")
    return [float(np.sum(np.abs(myopic))), float(np.sum(np.abs(hedge))),
            float(np.sum(np.abs(total))), float(total[0]),
            float(np.sum(np.abs(v2)))]


def _check_psi_bound(t, hedge, expect):
    """psi recovered from the log-MV hedge lies in [0, -r1(tau)]."""
    rho = expect["rho"]
    if rho == 0.0:
        return
    from roughmv import FractionalKernel, RiccatiCoefficients, riccati_bound_curve

    gamma, sigma = expect["gamma"], expect["sigma"]
    psi = -hedge[::-1] * (1.0 + gamma) / (gamma * rho * sigma)
    taus = expect["horizon"] - t[::-1]
    coeffs = RiccatiCoefficients.log_mv(
        expect["kappa"], rho, sigma, expect["theta"], gamma
    )
    kernel = FractionalKernel.from_hurst(expect["hurst"])
    bound = -riccati_bound_curve(coeffs, kernel, taus[1:])
    slack = PSI_BOUND_SLACK * float(np.max(bound))
    _require(np.all(psi[1:] >= 0.0), "psi < 0")
    _require(np.all(psi[1:] <= bound + slack), "psi > -r1")


def check_simulate(out_dir: Path, expect: dict) -> list[float]:
    stats = json.loads((out_dir / "terminal_stats.json").read_text())
    n_paths = expect["n_paths"]
    _require(stats["n_paths"] == n_paths, f"n_paths {stats['n_paths']} != {n_paths}")
    _require(math.isfinite(stats["mean"]) and math.isfinite(stats["variance"]),
             "terminal mean or variance is not finite")
    _require(stats["variance"] >= 0.0, "terminal variance < 0")
    counts = stats["histogram"]["counts"]
    _require(sum(counts) == n_paths, f"histogram counts sum to {sum(counts)}")
    _require(not (out_dir / "paths.csv").exists(), "paths.csv written with write_paths off")
    return [float(stats["mean"]), float(stats["variance"])]


def check_op(command: str, out_dir: Path, expect: dict) -> list[float]:
    if command == "strategy":
        return check_strategy(out_dir, expect)
    if command == "simulate":
        return check_simulate(out_dir, expect)
    raise ValueError(f"no check for command '{command}'")


def digests_match(a, b) -> bool:
    if len(a) != len(b):
        return False
    scale = max([abs(x) for x in a] + [abs(x) for x in b] + [0.0])
    return all(
        abs(x - y) <= max(DIGEST_RTOL * max(abs(x), abs(y)), DIGEST_FLOOR * scale)
        for x, y in zip(a, b)
    )
