"""In-memory spans around roughmv's public functions, and the per-layer
numbers derived from them.

``Tracer.install()`` replaces each function in ``WRAP_SITES`` by a wrapper,
at the module attribute through which roughmv itself calls it, and
``Tracer.restore()`` puts the originals back.  A span records its function,
op, parent span, start and end.  Counts that need a call's arguments or
result (grid sizes, path steps, clipped variance samples) are taken in the
wrapper after the span has ended, so they do not count as the function's
time.  Spans inside the program are not recorded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass

from workloads import is_mp_branch

# (module, attribute, span name).  One function may be wrapped at several
# import sites; all of them count under the defining module's name.
WRAP_SITES = (
    ("roughmv.cli", "const_mv_strategy", "strategies.const_mv_strategy"),
    ("roughmv.cli", "log_mv_strategy", "strategies.log_mv_strategy"),
    ("roughmv.cli", "strategy_to_csv", "strategies.strategy_to_csv"),
    ("roughmv.cli", "strategy_to_json", "strategies.strategy_to_json"),
    ("roughmv.cli", "simulate_variance", "montecarlo.simulate_variance"),
    ("roughmv.cli", "simulate_wealth", "montecarlo.simulate_wealth"),
    ("roughmv.cli", "terminal_stats", "montecarlo.terminal_stats"),
    ("roughmv.strategies", "integrated_resolvent_ratio_curve",
     "kernels.integrated_resolvent_ratio_curve"),
    ("roughmv.strategies", "solve_linear_vie", "volterra.solve_linear_vie"),
    ("roughmv.strategies", "solve_riccati_volterra", "volterra.solve_riccati_volterra"),
    ("roughmv.kernels", "mittag_leffler", "kernels.mittag_leffler"),
    ("roughmv.kernels", "resolvent_numeric", "kernels.resolvent_numeric"),
    ("roughmv.kernels", "cell_moments", "kernels.cell_moments"),
    ("roughmv.volterra", "cell_moments", "kernels.cell_moments"),
    ("roughmv.montecarlo", "fit_sum_of_exponentials", "montecarlo.fit_sum_of_exponentials"),
)

OP_SPAN = "cli.main"

# Functions whose per-layer numbers are .calls and .self_s.
TIMED_FUNCTIONS = (
    "kernels.mittag_leffler",
    "kernels.integrated_resolvent_ratio_curve",
    "kernels.resolvent_numeric",
    "kernels.cell_moments",
    "volterra.solve_riccati_volterra",
    "volterra.solve_linear_vie",
    "strategies.const_mv_strategy",
    "strategies.log_mv_strategy",
    "strategies.strategy_to_csv",
    "strategies.strategy_to_json",
    "montecarlo.simulate_variance",
    "montecarlo.simulate_wealth",
    "montecarlo.terminal_stats",
    "montecarlo.fit_sum_of_exponentials",
)


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    op_id: str
    name: str
    start: float
    end: float = 0.0


def self_times(spans) -> dict[int, float]:
    """span_id -> duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.span_id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.kernel_fit_l2_error = 0.0  # the largest seen
        self._stack: list[Span] = []
        self._op_id = ""
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self._op_id, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def run_op(self, op_id: str, fn, *args):
        """Run one op under a cli.main span."""
        self._op_id = op_id
        span = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(span)

    # -- wrapping ---------------------------------------------------------
    def install(self):
        import importlib

        for module_name, attr, name in WRAP_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def restore(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        count = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -----------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            self_s[s.name] += selfs[s.span_id]
        out = {}
        for name in TIMED_FUNCTIONS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["cli.main.self_s"] = self_s[OP_SPAN]
        for key in COUNTER_NAMES:
            out[key] = self.counters[key]
        samples = self.counters["montecarlo.variance_samples"]
        out["montecarlo.truncated_fraction"] = (
            self.counters["montecarlo.clipped_samples"] / samples if samples else 0.0
        )
        out["montecarlo.kernel_fit_l2_error"] = self.kernel_fit_l2_error
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "parent": s.parent_id,
                                     "op": s.op_id, "name": s.name,
                                     "start": s.start, "end": s.end}) + "\n")


# ---------------------------------------------------------------------------
# Counters taken at the wrapped boundaries, from arguments and results.
# ---------------------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_mittag_leffler(tr, result, *args, **kwargs):
    alpha = float(_arg(args, kwargs, 0, "alpha"))
    z = float(_arg(args, kwargs, 2, "z"))
    if is_mp_branch(alpha, z):
        tr.counters["kernels.mittag_leffler.mp_branch_calls"] += 1


def _count_solve(prefix, grid):
    def count(tr, result, *args, **kwargs):
        n = grid(args, kwargs).n_steps
        tr.counters[f"{prefix}.nodes"] += n + 1
        # one lag-weighted history sum per node: sum_i i = n(n+1)/2
        tr.counters["volterra.history_madds"] += n * (n + 1) // 2
    return count


def _count_simulate_variance(tr, bundle, *args, **kwargs):
    variance = bundle.variance
    tr.counters["montecarlo.path_steps"] += variance.shape[0] * (variance.shape[1] - 1)
    tr.counters["montecarlo.variance_samples"] += variance[:, 1:].size
    tr.counters["montecarlo.clipped_samples"] += int((variance[:, 1:] == 0.0).sum())
    fit = bundle.metadata.get("kernel_fit_l2_error")
    if fit is not None:
        tr.kernel_fit_l2_error = max(tr.kernel_fit_l2_error, fit)


def _count_simulate_wealth(tr, bundle, *args, **kwargs):
    arrays = {id(a): a for a in (bundle.variance, bundle.dW1, bundle.dB,
                                 bundle.wealth, bundle.log_wealth) if a is not None}
    tr.counters["montecarlo.array_bytes"] += sum(a.nbytes for a in arrays.values())


_COUNTERS = {
    "kernels.mittag_leffler": _count_mittag_leffler,
    "volterra.solve_riccati_volterra": _count_solve(
        "volterra.solve_riccati_volterra", lambda a, k: _arg(a, k, 2, "grid")),
    "volterra.solve_linear_vie": _count_solve(
        "volterra.solve_linear_vie", lambda a, k: _arg(a, k, 0, "problem").grid),
    "montecarlo.simulate_variance": _count_simulate_variance,
    "montecarlo.simulate_wealth": _count_simulate_wealth,
}

COUNTER_NAMES = (
    "kernels.mittag_leffler.mp_branch_calls",
    "volterra.solve_riccati_volterra.nodes",
    "volterra.solve_linear_vie.nodes",
    "volterra.history_madds",
    "montecarlo.path_steps",
    "montecarlo.array_bytes",
)
