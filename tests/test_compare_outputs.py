"""tools/compare_outputs.py: the per-file report of two trees' data files."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "tools" / "compare_outputs.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def test_identical_bytes():
    assert compare.describe("a.csv", b"t,x\n0,1\n", b"t,x\n0,1\n") == "identical"


def test_csv_reports_changed_values_per_column():
    a = b"t,x,y\n0,1,2\n1,4,5\n2,,8\n"
    b = b"t,x,y\n0,1,2.5\n1,4,5\n2,,6\n"
    assert compare.describe("f.csv", a, b) == "differs; y: 2 of 3 changed, max rel 0.25"


def test_a_value_changes_bit_for_bit():
    # -0 against 0 is a changed double; NaN against NaN is not
    a = b"t,x\n0,-0.0\n1,nan\n"
    b = b"t,x\n0,0.0\n1,nan\n"
    assert compare.describe("f.csv", a, b) == "differs; x: 1 of 2 changed, max rel 0"


def test_text_only_change():
    a = b"t,x\n0.10000000000000001,1\n2,1e+300\n"
    b = b"t,x\n0.1,1.0\n2.0,1e300\n"
    assert compare.describe("f.csv", a, b) == "text only, values identical"


def test_json_leaves_are_grouped_by_key_path():
    a = json.dumps({"mean": 1.0, "histogram": {"counts": [1, 2], "bin_edges": [0.0, 1.0]}})
    b = json.dumps({"mean": 1.0, "histogram": {"counts": [1, 3], "bin_edges": [0.0, 1.0]}})
    assert (compare.describe("s.json", a.encode(), b.encode())
            == "differs; histogram.counts: 1 of 2 changed, max rel 0.5")


def test_layout_and_structure():
    a = json.dumps({"x": [1.0, 2.0]})
    assert (compare.describe("s.json", a.encode(), json.dumps({"x": [1.0, 2.0]}, indent=2).encode())
            == "differs in layout only")
    assert (compare.describe("f.csv", b"t,x\n0,1\n", b"t,y\n0,1\n")
            == "differs in its columns or their lengths")


def test_a_tree_against_itself(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"objective": {"variant": "log_mv", "gamma": 0.5,
                                                "horizon": 1.0}}))
    argv = [str(ROOT), str(ROOT), "--config", str(config), "--command", "strategy",
            "--command", "nonexp", "--cli-args", "--steps-per-year 20"]
    assert compare.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["strategy c.json: exit 0/0, stderr equal",
                   "  manifest.json: identical",
                   "  strategy.csv: identical",
                   "  strategy.json: identical",
                   "nonexp c.json: exit 2/2, stderr equal"]
