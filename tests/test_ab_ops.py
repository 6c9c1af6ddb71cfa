"""tools/ab_ops.py: whole CLI ops of two trees, timed op by op."""

import dataclasses
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_ops", ROOT / "tools" / "ab_ops.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _small_desk_sim_ops(n):
    return [op for op in ab.make_rounds("desk-sim", 1, 1)[0] if op.kind == "lifted/1000"][:n]


def test_a_tree_against_itself(tmp_path):
    ops = _small_desk_sim_ops(2)
    times, by_hurst, failed, warmup_mb, peaks_mb = ab.run_pairs(
        (ROOT, ROOT), ops, ab.warmup_op("desk-sim"), tmp_path / "configs", tmp_path / "out")
    assert failed == []
    # every desk-sim op names its Hurst value; the pairs are the same objects
    hursts = [op.expect["hurst"] for op in ops]
    assert sorted(by_hurst) == sorted(set(hursts))
    assert sorted(map(id, sum(by_hurst.values(), []))) == sorted(map(id, times["lifted/1000"]))
    # each worker's ru_maxrss: an interpreter with numpy and a simulated block
    assert len(peaks_mb) == 2 and all(10.0 < mb < 4096.0 for mb in peaks_mb)
    # the warm-up op also simulates; ru_maxrss only rises from there
    assert len(warmup_mb) == 2 and all(10.0 < mb <= peak for mb, peak in zip(warmup_mb, peaks_mb))
    assert list(times) == ["lifted/1000"]
    assert len(times["lifted/1000"]) == 2
    assert all(seconds > 0 for pair in times["lifted/1000"] for seconds in pair)
    assert not any((tmp_path / "out").glob("r00-*"))  # op outputs are removed


def test_a_failing_op_is_reported(tmp_path):
    op = _small_desk_sim_ops(1)[0]
    bad = dataclasses.replace(op, config=dict(op.config, sim=dict(op.config["sim"], n_paths=1)))
    times, _, failed, _, _ = ab.run_pairs((ROOT, ROOT), [bad], ab.warmup_op("desk-sim"),
                                       tmp_path / "configs", tmp_path / "out")
    assert failed == [f"{op.op_id} (lifted/1000) on A: exit 2",
                      f"{op.op_id} (lifted/1000) on B: exit 2"]


def test_report_totals_per_kind():
    # kind, ops, total on A, total on B, their ratio, median per-op ratio, ops B won
    lines = ab.report({"x": [[1.0, 0.5], [1.0, 1.5]], "y": [[2.0, 1.0]],
                       "z": [[1.0, 0.9], [1.0, 0.9], [0.1, 2.0]]}, [73.9, 64.7])
    assert [line.split() for line in lines[1:]] == [
        ["x", "2", "2.000", "2.000", "1.000", "1.000", "1"],
        ["y", "1", "2.000", "1.000", "0.500", "0.500", "1"],
        ["z", "3", "2.100", "3.800", "1.810", "0.900", "2"],
        ["all", "6", "6.100", "6.800", "1.115", "0.900", "4"],
        # nearest rank over all ops: A sorted 0.1 1 1 1 1 2, B 0.5 0.9 0.9 1 1.5 2
        ["op_p50_s", "6", "1.0000", "0.9000", "0.900"],
        ["op_p90_s", "6", "2.0000", "2.0000", "1.000"],
        # each worker's peak resident memory, in MB, after the same ops
        ["peak_rss_mb", "6", "73.90", "64.70", "0.876"],
    ]


def test_report_totals_per_hurst():
    # the ops whose expect names a Hurst value, after the kinds and all ops
    times = {"x": [[1.0, 0.5], [1.0, 1.5]], "y": [[2.0, 1.0]]}
    by_hurst = {0.5: [times["x"][1]], 0.1: [times["x"][0], times["y"][0]]}
    lines = ab.report(times, [73.9, 64.7], by_hurst)
    assert [line.split() for line in lines[3:6]] == [
        ["all", "3", "4.000", "3.000", "0.750", "0.500", "2"],
        ["H=0.1", "2", "3.000", "1.500", "0.500", "0.500", "2"],
        ["H=0.5", "1", "1.000", "1.500", "1.500", "1.500", "0"],
    ]
    assert lines[6].split()[0] == "op_p50_s"
    # without such ops, no rows
    assert ab.report(times, [73.9, 64.7], {}) == ab.report(times, [73.9, 64.7])


def test_report_peak_after_the_warm_up():
    # set-up's peak, after no timed op, then the peak after every op
    times = {"x": [[1.0, 0.5], [1.0, 1.5]]}
    lines = ab.report(times, [64.95, 56.6], None, [53.3, 53.2])
    assert [line.split() for line in lines[-2:]] == [
        ["warmup_rss_mb", "0", "53.30", "53.20", "0.998"],
        ["peak_rss_mb", "2", "64.95", "56.60", "0.871"],
    ]
    assert lines[:-2] == ab.report(times, [64.95, 56.6])[:-1]
