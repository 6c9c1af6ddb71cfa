"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import run
from spans import Span, Tracer, WRAP_SITES, self_times
from workloads import WORKLOADS, is_mp_branch, make_rounds, sum_of_exp_fitter

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _configs(workload, seed):
    fit = sum_of_exp_fitter() if workload == "curves" else None
    return [[(op.op_id, op.kind, op.config, op.expect) for op in r]
            for r in make_rounds(workload, seed, 2, fit)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = _configs(workload, 7)
    assert first == _configs(workload, 7)
    other = _configs(workload, 8)
    assert other != first
    # the seed moves parameters, never the mix of op kinds in a round
    for a, b in zip(first, other):
        assert sorted(k for _, k, _, _ in a) == sorted(k for _, k, _, _ in b)
        assert len(a) == WORKLOADS[workload].round_slots


def test_self_time_of_synthetic_span_tree():
    spans = [
        Span(0, None, "op", "root", 0.0, 10.0),
        Span(1, 0, "op", "a", 1.0, 3.0),
        Span(2, 0, "op", "b", 2.0, 5.0),    # overlaps a: [1, 5] is covered once
        Span(3, 0, "op", "c", 8.0, 12.0),   # ends after its parent: clipped at 10
        Span(4, 2, "op", "d", 3.0, 4.0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)


@pytest.mark.parametrize("alpha", [0.55, 0.6, 0.8, 1.0])
def test_mp_branch_rule_matches_mittag_leffler(alpha, monkeypatch):
    from roughmv import kernels

    taken = []
    monkeypatch.setattr(kernels, "_ml_series_mp",
                        lambda a, b, z: taken.append(z) or 0.0)
    seam = -(38.0 ** alpha)
    for z in (-1.0, -1.5, -1.5000001, -3.0, seam * 0.999, seam * 1.001, -50.0, 2.0):
        before = len(taken)
        kernels.mittag_leffler(alpha, 1.0, z)
        assert (len(taken) > before) == is_mp_branch(alpha, z), z


def test_traced_and_untraced_runs_give_equal_digests(tmp_path):
    cli = run.load_program()
    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _ in WRAP_SITES}
    for workload in sorted(WORKLOADS):
        runner = run.Runner(cli, workload, 5, tmp_path / workload)
        assert runner.generate().ok
        # one op of each kind, the cheapest config of that kind in round 0
        ops = {}
        for op in runner.rounds[0]:
            size = op.expect.get("n_paths", 1) * op.expect["steps"]
            if op.kind not in ops or size < ops[op.kind][0]:
                ops[op.kind] = (size, op)
        ops = [op for _, op in ops.values() if "heavy" not in op.kind]
        plain = [runner.run(op) for op in ops]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [runner.run(op, tracer) for op in ops]
        finally:
            tracer.restore()
        for a, b in zip(plain, traced):
            assert a.ok and b.ok, (a.error, b.error)
            assert a.digest == b.digest
        layers = tracer.layer_metrics()
        assert layers["cli.main.self_s"] > 0.0
        if workload == "curves":
            assert layers["montecarlo.path_steps"] == 0
            assert layers["volterra.history_madds"] > 0
        else:
            assert layers["montecarlo.path_steps"] > 0
            assert layers["kernels.mittag_leffler.mp_branch_calls"] == 0
    for (m, a), fn in originals.items():
        assert getattr(sys.modules[m], a) is fn


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = set(Tracer().layer_metrics()) | set(run.TRACED_EXTRAS)
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"]), m["name"]
    e2e = run.end_to_end([run.OpResult("x", "k", 1.0, True)], 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (_, u) in e2e.items()
    }
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
