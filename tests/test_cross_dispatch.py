"""The shipped configs' data files under other CPU dispatch, within README's bounds.

Across hosts the bytes depend on numpy's SIMD dispatch and on the OpenBLAS
kernel that np.convolve and matmul reach.  Each setting below reruns
`strategy` on every shipped config and `simulate --paths 200` on
simulation_comparison.json in subprocesses, and compares each file's columns
(tools/compare_outputs.py reads them) with the default run's: a column moves
by at most its bound times its largest magnitude.  A setting the host cannot
force is skipped.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

FORCED = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
AVX512 = [f for f in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if f in __cpu_dispatch__]
SETTINGS = {
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512)},
}
SIMULATION = ROOT / "configs" / "simulation_comparison.json"
RUNS = [("strategy", config, []) for config in sorted((ROOT / "configs").glob("*.json"))]
RUNS.append(("simulate", SIMULATION, ["--paths", "200"]))

# |change| / a column's peak, as README states them: the strategy files of the
# horizon-3 configs, simulation_comparison's (its V2, solved over 2500 steps,
# moved 8.8e-14), and simulate's, whose 200 paths all touch the variance's
# zero floor, where rounding can grow (it moved 3.4e-11, the kernel-fit error)
STRATEGY_BOUND = 1.2e-15
LONG_STRATEGY_BOUND = 1e-13
FLOOR_BOUND = 1e-8

# the core OpenBLAS runs on, read from the library numpy's wheel loads
CORENAME = """
import ctypes, glob, os, numpy
libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
for path in glob.glob(libs):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                 "openblas_get_corename64_", "openblas_get_corename"):
        if hasattr(lib, name):
            corename = getattr(lib, name)
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            print(corename().decode())
"""


def _run_all(tmp: Path, monkeypatch, env: dict) -> dict:
    """{(command, config name): (exit code, stderr, files)} under env."""
    with monkeypatch.context() as m:
        for name in FORCED:
            m.delenv(name, raising=False)
        for name, value in env.items():
            m.setenv(name, value)
        return {(command, config.name): compare.run(ROOT, command, config, args,
                                                    tmp / f"{command}-{config.stem}")
                for command, config, args in RUNS}


def _column_moves(name: str, a: bytes, b: bytes) -> dict[str, float]:
    """Each column's largest |b - a| over its largest |a|, for the columns that moved."""
    reader = compare.csv_columns if name.endswith(".csv") else compare.json_columns
    cols_a, cols_b = reader(a), reader(b)
    assert cols_a.keys() == cols_b.keys(), name
    moves = {}
    for key, col_a in cols_a.items():
        xs = [compare.as_number(v) for v in col_a]
        ys = [compare.as_number(v) for v in cols_b[key]]
        assert [x is None for x in xs] == [y is None for y in ys], (name, key)
        diff = max((abs(y - x) for x, y in zip(xs, ys) if x is not None), default=0.0)
        if diff:
            moves[key] = diff / max(abs(x) for x in xs if x is not None)
    return moves


def _bound(command: str, config: str) -> float:
    if command == "simulate":
        return FLOOR_BOUND
    return LONG_STRATEGY_BOUND if config == SIMULATION.name else STRATEGY_BOUND


def _can_force(setting: str) -> str | None:
    """Why the host cannot force the setting, or None."""
    if setting == "numpy-no-avx512":
        if not any(__cpu_features__.get(f) for f in AVX512):
            return "numpy dispatches no AVX-512 loops on this host"
        return None
    env = {k: v for k, v in os.environ.items() if k not in FORCED} | SETTINGS[setting]
    forced = subprocess.run([sys.executable, "-c", CORENAME], capture_output=True, text=True,
                            env=env)
    if "Haswell" not in forced.stdout.split():
        return f"OpenBLAS does not report the forced core (read {forced.stdout.split()})"
    return None


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    with pytest.MonkeyPatch.context() as m:
        return _run_all(tmp_path_factory.mktemp("default"), m, {})


@pytest.mark.parametrize("setting", SETTINGS)
def test_outputs_move_within_the_stated_bounds(setting, request, tmp_path, monkeypatch):
    reason = _can_force(setting)
    if reason:
        pytest.skip(reason)
    default_run = request.getfixturevalue("default_run")
    forced = _run_all(tmp_path, monkeypatch, SETTINGS[setting])
    for (command, config), (code, stderr, files) in forced.items():
        base_code, base_stderr, base_files = default_run[command, config]
        assert (code, stderr) == (base_code, base_stderr) == (0, ""), (command, config)
        assert files.keys() == base_files.keys(), (command, config)
        bound = _bound(command, config)
        for name in files.keys() - {"manifest.json"}:
            moves = _column_moves(name, base_files[name], files[name])
            assert all(m <= bound for m in moves.values()), (command, config, name, moves)
        assert files["manifest.json"] == base_files["manifest.json"]
