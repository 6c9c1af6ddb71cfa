"""roughmv benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload curves --seed 3 --seconds 50 --trace 0

Set-up imports roughmv from ``src/`` of this checkout, writes the workload's
seeded configs and runs one warm-up op; it is done SETUP_REPEATS times and
``setup_s`` is the median.  Then ops are
sent through ``roughmv.cli.main([...])`` one at a time, each checked after it
returns (checking is not timed), in whole rounds until the ops' own time
reaches ``--seconds`` and at least MIN_OPS ops have run.

With ``--trace 1`` every op of a fixed set of rounds runs twice instead,
untraced and traced, and the per-layer numbers of the traced runs are
printed; both runs of an op must produce equal output digests.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it, prefixed ``#``, give the sample
counts and the environment.  A full report goes to ``.perfbench/``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: one client, one thread.
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import CheckError, check_op, digests_match  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    CONFIG_ROUNDS,
    WORKLOADS,
    make_rounds,
    sum_of_exp_fitter,
    warmup_op,
    write_configs,
)

ROOT = Path(__file__).resolve().parents[1]
WORK_ROOT = ROOT / ".perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 1
MIN_OPS = 100
SETUP_REPEATS = 5
# A run stops early, at an op boundary, once this much wall time has passed.
WALL_LIMIT_S = 150.0


@dataclass
class OpResult:
    op_id: str
    kind: str
    latency_s: float
    ok: bool
    digest: list | None = None
    error: str | None = None
    files: int = 0
    bytes: int = 0


def load_program():
    """Import roughmv.cli afresh from src/ of this checkout.

    roughmv and its pure-Python dependency mpmath are dropped from
    sys.modules first, so every set-up pays their import again; numpy and
    scipy stay loaded once imported.
    """
    src = ROOT / "src"
    if not (src / "roughmv" / "__init__.py").is_file():
        raise ImportError(f"no roughmv package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.partition(".")[0] in ("roughmv", "mpmath")]:
        del sys.modules[name]
    import roughmv.cli as cli

    return cli


class Runner:
    def __init__(self, cli, workload: str, seed: int, work_dir: Path):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.config_dir = work_dir / "configs"
        self.out_dir = work_dir / "out"
        self.rounds = []
        self.config_paths = {}

    def generate(self) -> OpResult:
        """Generate and write this run's configs; returns the warm-up op's result."""
        shutil.rmtree(self.config_dir, ignore_errors=True)
        fit = sum_of_exp_fitter() if self.workload == "curves" else None
        self.rounds = make_rounds(self.workload, self.seed, CONFIG_ROUNDS, fit)
        warm = warmup_op(self.workload, fit)
        ops = [op for r in self.rounds for op in r] + [warm]
        self.config_paths = write_configs(ops, self.config_dir)
        return self.run(warm)

    def _argv(self, op, out: Path) -> list[str]:
        shutil.rmtree(out, ignore_errors=True)
        return [op.command, "--config", str(self.config_paths[op.op_id]), "--out", str(out)]

    def run(self, op, tracer=None) -> OpResult:
        out = self.out_dir / op.op_id
        argv = self._argv(op, out)
        error = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                rc = tracer.run_op(op.op_id, self.cli.main, argv)
        except Exception:  # an op that raises is a failed op, not a crash
            rc, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        result = OpResult(op.op_id, op.kind, latency, ok=False, error=error)
        if rc == 0:
            try:
                result.digest = check_op(op.command, out, op.expect)
                result.ok = True
            except (CheckError, OSError, KeyError, ValueError) as exc:
                result.error = f"check failed: {exc}"
            files = [p for p in out.rglob("*") if p.is_file()]
            result.files = len(files)
            result.bytes = sum(p.stat().st_size for p in files)
        elif error is None:
            result.error = f"exit code {rc}"
        shutil.rmtree(out, ignore_errors=True)
        return result

    def peak_traced_mb(self, op) -> float:
        """Peak of tracemalloc over one more run of op, neither timed nor checked."""
        out = self.out_dir / op.op_id
        argv = self._argv(op, out)
        tracemalloc.start()
        try:
            self.cli.main(argv)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
            shutil.rmtree(out, ignore_errors=True)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": THREAD_PINS,
        "platform": platform.platform(),
    }


def check_golden(workload: str, results: list[OpResult]):
    """Compare the default seed's round-0 digests with the recorded ones."""
    golden = json.loads(GOLDEN.read_text())["workloads"][workload]
    for res in results:
        if res.ok and res.op_id in golden and not digests_match(res.digest, golden[res.op_id]):
            res.ok = False
            res.error = f"digest {res.digest} != golden {golden[res.op_id]}"


def measure(runner: Runner, seconds: float, started: float) -> list[OpResult]:
    results, busy, r = [], 0.0, 0
    while busy < seconds or len(results) < MIN_OPS:
        for op in runner.rounds[r % len(runner.rounds)]:
            res = runner.run(op)
            results.append(res)
            busy += res.latency_s
            if time.perf_counter() - started > WALL_LIMIT_S:
                return results
        r += 1
    return results


def end_to_end(results, setup_s) -> dict:
    busy = sum(r.latency_s for r in results)
    completed = sum(r.ok for r in results)
    # a failed op misses every latency limit
    latencies = [r.latency_s if r.ok else math.inf for r in results]
    p50, p90 = percentile(latencies, 0.5), percentile(latencies, 0.9)
    return {
        "ops_per_s": (completed / busy, "1/s"),
        "op_p50_s": (p50 if math.isfinite(p50) else busy, "s"),
        "op_p90_s": (p90 if math.isfinite(p90) else busy, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced(runner: Runner, report_dir: Path):
    ops = [op for r in runner.rounds[: WORKLOADS[runner.workload].trace_rounds] for op in r]
    tracer = Tracer()
    plain, with_spans = [], []
    for i, op in enumerate(ops):
        # each op runs untraced and traced back to back; which one goes first
        # alternates, so caches the first run fills favour neither pass
        for traced_run in ((False, True) if i % 2 == 0 else (True, False)):
            if not traced_run:
                plain.append(runner.run(op))
                continue
            tracer.install()
            try:
                with_spans.append(runner.run(op, tracer))
            finally:
                tracer.restore()
    for a, b in zip(plain, with_spans):
        if a.ok and b.ok and not digests_match(a.digest, b.digest):
            b.ok = False
            b.error = f"traced digest {b.digest} != untraced {a.digest}"
    tracer.write_spans(report_dir / "spans.jsonl")
    layers = tracer.layer_metrics()
    layers["cli.bytes_written"] = sum(r.bytes for r in with_spans)
    layers["cli.files_written"] = sum(r.files for r in with_spans)
    layers["trace_overhead"] = (sum(r.latency_s for r in with_spans)
                                / sum(r.latency_s for r in plain))
    # tracemalloc would slow the spans it overlaps several times over, so it
    # gets a run of its own: the largest simulate op of the set
    sims = [op for op in ops if op.command == "simulate"]
    layers["montecarlo.peak_traced_mb"] = runner.peak_traced_mb(
        max(sims, key=lambda op: op.expect["n_paths"] * op.expect["steps"])
    ) if sims else 0.0
    return plain + with_spans, layers


# per-layer numbers that come from the op loop, not from the tracer
TRACED_EXTRAS = ("cli.bytes_written", "cli.files_written", "trace_overhead",
                 "montecarlo.peak_traced_mb")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "bytes"
    if name in ("trace_overhead", "montecarlo.truncated_fraction",
                "montecarlo.kernel_fit_l2_error"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        load_program()
    except ImportError as exc:
        print(f"cannot import roughmv: {exc}", file=sys.stderr)
        return 2

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    report_dir = WORK_ROOT / args.workload
    report_dir.mkdir(parents=True, exist_ok=True)
    try:
        reps, warmups = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            runner = Runner(load_program(), args.workload, args.seed, work_dir)
            warmups.append(runner.generate())
            reps.append(time.perf_counter() - t0)
        setup_s = statistics.median(reps)

        if args.trace:
            results, layers = traced(runner, report_dir)
            metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
        else:
            results = measure(runner, args.seconds, started)
            metrics = end_to_end(results, setup_s)
        if args.seed == DEFAULT_SEED:
            check_golden(args.workload, results)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    # a failed warm-up op counts as a failed op; the others are set-up
    failed_warmups = [r for r in warmups if not r.ok]
    failed = failed_warmups + [r for r in results if not r.ok]
    attempted = len(results) + len(failed_warmups)
    env = environment()
    workload = WORKLOADS[args.workload]
    report = {
        "workload": args.workload, "mix": workload.mix, "sizes": workload.sizes,
        "why": workload.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "setup_repeats_s": reps,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "ops": [r.__dict__ for r in results],
    }
    (report_dir / f"report-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed}: {attempted} ops, {len(failed)} failed, "
          f"error_rate={len(failed) / attempted:.4g}")
    for res in failed[:5]:
        print(f"# FAILED {res.op_id} ({res.kind}): {res.error}")
    if not args.trace:
        print(f"# op_p50_s and op_p90_s over n={len(results)} op latencies; "
              f"setup_s = median of {SETUP_REPEATS} set-ups {[round(x, 4) for x in reps]}")
    line = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
