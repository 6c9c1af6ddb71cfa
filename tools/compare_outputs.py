"""Compare the data files that two source trees write for the same commands.

    python tools/compare_outputs.py TREE_A TREE_B [--config FILE ...]
        [--command NAME ...] [--cli-args="ARGS"]

Each tree is a repository root; its ``src/`` is put on PYTHONPATH and
``python -m roughmv.cli COMMAND --config FILE --out out`` runs in a fresh
temporary directory per tree, so the manifests record the same output
path.  By default every command runs on every config in this repository's
``configs/``.  For each run the script prints the two exit codes, whether
stderr matches, and per file either ``identical`` (same bytes) or, per
column of a CSV file or per key of a JSON file, how many values changed and
the largest relative change |b - a| / |a|.  A numeric cell changes when its
double changes bit for bit, so -0 against 0 counts and NaN against NaN does
not; a file whose text differs but whose values all match reads ``text
only, values identical``.

Exit status: 0 when every run has equal exit codes, equal stderr and
byte-identical files; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("hedge-curve", "crossover", "simulate", "nonexp", "strategy")


def run(tree: Path, command: str, config: Path, cli_args: list[str], cwd: Path):
    """(exit code, stderr, {file name: bytes}) of one command run from tree."""
    cwd.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "roughmv.cli", command, "--config", str(config),
         "--out", "out", *cli_args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    out = cwd / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return proc.returncode, proc.stderr, files


def csv_columns(data: bytes) -> dict[str, list[str]]:
    lines = data.decode().splitlines()
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {name: [row[j] for row in rows] for j, name in enumerate(names)}


def json_columns(data: bytes) -> dict[str, list]:
    """The scalar leaves of a JSON document, grouped by their key path."""
    columns: dict[str, list] = {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            for item in value:
                walk(item, path)
        else:
            columns.setdefault(path, []).append(value)

    walk(json.loads(data), "")
    return columns


def as_number(value):
    """A finite float, or None for a value that is none (text, null, inf, NaN)."""
    if isinstance(value, bool):
        return None
    try:
        number = float(value)
    except (TypeError, ValueError):
        return None
    return number if math.isfinite(number) else None


def same_value(x, y) -> bool:
    """x and y parse to the same double bit for bit, or, when either is not a
    number, are equal."""
    if not (isinstance(x, bool) or isinstance(y, bool)):
        try:
            return struct.pack("<d", float(x)) == struct.pack("<d", float(y))
        except (TypeError, ValueError, OverflowError):  # text, null, a huge int
            pass
    return x == y


def column_change(a: list, b: list) -> str | None:
    """'k of n changed, max rel r' for two columns of equal length, or None
    when no value changed."""
    changed, worst = 0, 0.0
    for x, y in zip(a, b):
        if same_value(x, y):
            continue
        changed += 1
        fx, fy = as_number(x), as_number(y)
        if fx is None or fy is None:
            worst = math.inf
        elif fx != fy:
            worst = max(worst, abs(fy - fx) / abs(fx) if fx else math.inf)
    return f"{changed} of {len(a)} changed, max rel {worst:.3g}" if changed else None


def describe(name: str, a: bytes, b: bytes) -> str:
    if a == b:
        return "identical"
    reader = csv_columns if name.endswith(".csv") else json_columns
    try:
        cols_a, cols_b = reader(a), reader(b)
    except (ValueError, IndexError) as exc:
        return f"differs, not parsed ({exc!r})"
    if cols_a.keys() != cols_b.keys() or any(
        len(cols_a[k]) != len(cols_b[k]) for k in cols_a
    ):
        return "differs in its columns or their lengths"
    changes = {k: column_change(cols_a[k], cols_b[k]) for k in cols_a}
    parts = [f"{k}: {change}" for k, change in changes.items() if change]
    if parts:
        return "differs; " + "; ".join(parts)
    return "differs in layout only" if cols_a == cols_b else "text only, values identical"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--config", type=Path, action="append",
                        help="config file (repeatable; default: every configs/*.json)")
    parser.add_argument("--command", action="append", choices=COMMANDS,
                        help="command (repeatable; default: all five)")
    parser.add_argument("--cli-args", default="",
                        help="extra arguments for every run, e.g. --cli-args=\"--paths 500\"")
    args = parser.parse_args(argv)
    configs = [c.resolve() for c in args.config or sorted((ROOT / "configs").glob("*.json"))]
    commands = args.command or list(COMMANDS)
    cli_args = shlex.split(args.cli_args)
    trees = (args.tree_a.resolve(), args.tree_b.resolve())

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        same = True
        for config in configs:
            for command in commands:
                case = f"{config.stem}-{command}"
                (code_a, err_a, files_a), (code_b, err_b, files_b) = (
                    run(tree, command, config, cli_args, work / case / label)
                    for tree, label in zip(trees, "ab"))
                stderr = "stderr equal" if err_a == err_b else "stderr differs"
                print(f"{command} {config.name}: exit {code_a}/{code_b}, {stderr}")
                same &= code_a == code_b and err_a == err_b
                for name in sorted(files_a.keys() | files_b.keys()):
                    if name not in files_b or name not in files_a:
                        status = "only in " + ("a" if name in files_a else "b")
                    else:
                        status = describe(name, files_a[name], files_b[name])
                    same &= status == "identical"
                    print(f"  {name}: {status}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
