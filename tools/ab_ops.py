"""Time whole CLI ops of two source trees, interleaved op by op.

    python tools/ab_ops.py TREE_A TREE_B --workload W [--rounds N] [--seed S]

The ops are the first N rounds of a benchmark workload, built once with this
checkout's ``perfbench/workloads.py`` and written as JSON configs that both
trees run.  Each tree gets one worker process with its ``src/`` on
PYTHONPATH and the benchmark's thread pins.  A worker first runs the
workload's warm-up op untimed, then times ``roughmv.cli.main([...])`` on
each op it is sent.  Every op runs on both trees back to back, and which
tree goes first swaps from one op to the next, so a drift of the host's
speed falls on both trees alike.

Prints the total op time of each tree per op kind and over all ops, with the
ratio B/A (below 1: B is faster), the median of the per-op ratios B/A and
the number of ops on which B was faster.  One slow op can swing a total; the
median and the count it moves by one op at most.  The same follows per Hurst
value for the ops whose ``expect`` names one, since a change can speed up
one kernel and not another (the one-factor kernel of H = 0.5, say).  Then
each tree's nearest-rank p50 and p90 over all its op times, as perfbench computes
op_p50_s and op_p90_s: a change can speed up most ops and still move these
the other way, when it changes which kinds of op sit at a percentile.
Last, each worker's peak resident memory (ru_maxrss, in MB, as perfbench
computes peak_rss_mb), first after its warm-up op and then after every op:
both trees ran the same ops, so the two peaks compare at equal op counts,
which perfbench's fixed-time runs do not give.  The first reading is the
set-up's; a rise from it to the second is a high-water mark that the timed
ops set, often the first large one.
Exit status: 0 when every op exits 0 on both trees; 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import THREAD_PINS, percentile  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    make_rounds,
    sum_of_exp_fitter,
    warmup_op,
    write_configs,
)

# Reads one JSON argv per line from stdin, answers one JSON line per op:
# [exit code or null when main raised, seconds, the process's peak resident
# memory so far in MB].  The command's own output goes to stderr, so that
# stdout carries only the answers.
WORKER = """\
import contextlib, json, resource, sys, time, traceback
import roughmv.cli as cli
answers = sys.stdout
for line in sys.stdin:
    argv = json.loads(line)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(argv)
    except Exception:  # a failed op, reported; the worker serves the next one
        traceback.print_exc()
        rc = None
    seconds = time.perf_counter() - t0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    answers.write(json.dumps([rc, seconds, peak_mb]) + "\\n")
    answers.flush()
"""


class Worker:
    """One tree's worker process."""

    def __init__(self, tree: Path):
        env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(tree / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER], env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        self.peak_mb = 0.0

    def run(self, argv: list[str]) -> tuple[int | None, float]:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        rc, seconds, self.peak_mb = json.loads(answer)
        return rc, seconds

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def run_pairs(trees, ops, warmup, config_dir: Path, out_dir: Path):
    """{kind: [[seconds on A, seconds on B], ...]}, the same pairs as
    {Hurst value: pairs} for the ops whose expect names one, the failed runs,
    [peak resident MB of A's worker, of B's] after the warm-up op, and the
    same after the last op.

    Op k runs on A first when k is even and on B first when it is odd.
    """
    paths = write_configs([*ops, warmup], config_dir)
    workers = [Worker(tree) for tree in trees]
    times = defaultdict(list)
    by_hurst = defaultdict(list)
    failed = []
    try:
        for w, label in zip(workers, "AB"):
            rc, _ = w.run([warmup.command, "--config", str(paths[warmup.op_id]),
                           "--out", str(out_dir / f"warmup-{label}")])
            if rc != 0:
                failed.append(f"warm-up on {label}: exit {rc}")
        warmup_mb = [w.peak_mb for w in workers]
        for k, op in enumerate(ops):
            pair = [0.0, 0.0]
            for j in ((0, 1) if k % 2 == 0 else (1, 0)):
                argv = [op.command, "--config", str(paths[op.op_id]),
                        "--out", str(out_dir / f"{op.op_id}-{'AB'[j]}")]
                rc, pair[j] = workers[j].run(argv)
                shutil.rmtree(argv[-1], ignore_errors=True)
                if rc != 0:
                    failed.append(f"{op.op_id} ({op.kind}) on {'AB'[j]}: exit {rc}")
            times[op.kind].append(pair)
            if "hurst" in op.expect:
                by_hurst[op.expect["hurst"]].append(pair)
    finally:
        for w in workers:
            w.close()
    return dict(times), dict(by_hurst), failed, warmup_mb, [w.peak_mb for w in workers]


def report(times, peaks_mb, by_hurst=None, warmup_mb=None) -> list[str]:
    lines = [f"{'kind':<24} {'ops':>4} {'A s':>9} {'B s':>9} {'B/A':>7}"
             f" {'median':>7} {'B won':>6}"]
    every = [p for ps in times.values() for p in ps]
    rows = sorted(times.items()) + [("all", every)]
    rows += [(f"H={hurst:g}", pairs) for hurst, pairs in sorted((by_hurst or {}).items())]
    for kind, pairs in rows:
        a = sum(p[0] for p in pairs)
        b = sum(p[1] for p in pairs)
        median = statistics.median(p[1] / p[0] for p in pairs)
        won = sum(p[1] < p[0] for p in pairs)
        lines.append(f"{kind:<24} {len(pairs):>4} {a:>9.3f} {b:>9.3f} {b / a:>7.3f}"
                     f" {median:>7.3f} {won:>6}")
    for name, q in (("op_p50_s", 0.5), ("op_p90_s", 0.9)):
        a, b = (percentile([p[j] for p in every], q) for j in (0, 1))
        lines.append(f"{name:<24} {len(every):>4} {a:>9.4f} {b:>9.4f} {b / a:>7.3f}")
    # ru_maxrss after the warm-up (no timed op yet), then after every op
    for name, ops_run, peaks in (("warmup_rss_mb", 0, warmup_mb),
                                 ("peak_rss_mb", len(every), peaks_mb)):
        if peaks is not None:
            a, b = peaks
            lines.append(f"{name:<24} {ops_run:>4} {a:>9.2f} {b:>9.2f} {b / a:>7.3f}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")

    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    fit = None
    if args.workload == "curves":  # its sum-of-exponentials kernels are fitted here
        sys.path.insert(0, str(ROOT / "src"))
        fit = sum_of_exp_fitter()
    ops = [op for r in make_rounds(args.workload, args.seed, args.rounds, fit) for op in r]
    with tempfile.TemporaryDirectory() as tmp:
        times, by_hurst, failed, warmup_mb, peaks_mb = run_pairs(
            trees, ops, warmup_op(args.workload, fit), Path(tmp) / "configs", Path(tmp) / "out")
    print(f"A = {trees[0]}\nB = {trees[1]}")
    print(f"{args.workload}, seed {args.seed}, {args.rounds} round(s), {len(ops)} ops")
    print("\n".join(report(times, peaks_mb, by_hurst, warmup_mb)))
    for line in failed:
        print(f"FAILED {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
