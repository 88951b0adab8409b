"""The report differ of ``tools/reportdiff.py``: two small CSVs and a JSON file
with known differences, a sign-only change, and files that one side lacks."""

import importlib.util
import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_reportdiff():
    spec = importlib.util.spec_from_file_location("attnlab_reportdiff", ROOT / "tools" / "reportdiff.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def _write(d: Path, files: dict) -> Path:
    for name, text in files.items():
        (d / name).parent.mkdir(parents=True, exist_ok=True)
        (d / name).write_text(text)
    return d


SAME_CSV = "draw,alpha\n0,1\n1,2\n"
PARENT = {
    "same.csv": SAME_CSV,
    "sub/sweep.csv": "draw,entropy,variance,label\n0,-0,0.5,a\n1,0.25,2,b\n2,1,4,c\n",
    "summary.json": json.dumps({"gamma": 1.35, "flops": {"cells": 480, "exact": True},
                                "rows": [{"v": 2.0}, {"v": 4.0}], "mode": "scalar"}),
    "only_parent.csv": SAME_CSV,
}
CHANGE = {
    "same.csv": SAME_CSV,
    # entropy: -0 -> 0 (sign only); variance: 2 -> 3 (+50 %) and 4 -> 3 (-25 %).
    "sub/sweep.csv": "draw,entropy,variance,label\n0,0,0.5,a\n1,0.25,3,b\n2,1,3,c\n",
    # rows[].v: 4 -> 5 (+25 %); mode: a string change; flops.exact: a flag change.
    "summary.json": json.dumps({"gamma": 1.35, "flops": {"cells": 480, "exact": False},
                                "rows": [{"v": 2.0}, {"v": 5.0}], "mode": "energy"}),
    "only_change.json": "{}",
}


def test_compare_lists_each_differing_column_and_the_odd_files(tmp_path):
    rd = _load_reportdiff()
    result = rd.compare(_write(tmp_path / "a", PARENT), _write(tmp_path / "b", CHANGE))
    assert result.missing == ["only_parent.csv"]
    assert result.extra == ["only_change.json"]
    assert result.bytes_only == []
    got = {(d.file, d.column): (d.cells, d.max_rel_change, d.sign_only) for d in result.columns}
    assert got == {
        ("sub/sweep.csv", "entropy"): (1, 0.0, 1),
        ("sub/sweep.csv", "variance"): (2, 0.5, 0),
        ("summary.json", "rows[].v"): (1, 0.25, 0),
        ("summary.json", "mode"): (1, None, 0),
        ("summary.json", "flops.exact"): (1, None, 0),
    }
    assert not result.identical


def test_relative_change_from_zero_is_infinite_and_rows_may_be_missing(tmp_path):
    rd = _load_reportdiff()
    a = _write(tmp_path / "a", {"r.csv": "x,y\n0,1\n"})
    b = _write(tmp_path / "b", {"r.csv": "x,y\n2,1\n5,6\n"})
    got = {d.column: (d.cells, d.max_rel_change) for d in rd.compare(a, b).columns}
    # Row 2 exists only in the change: one more differing cell per column, not numeric.
    assert got["x"] == (2, math.inf)
    assert got["y"] == (1, None)


def test_equal_cells_with_other_bytes_are_reported(tmp_path):
    rd = _load_reportdiff()
    a = _write(tmp_path / "a", {"s.json": '{"a": 1.0, "b": [1, 2]}'})
    b = _write(tmp_path / "b", {"s.json": '{"b": [1, 2], "a": 1.0}\n'})
    result = rd.compare(a, b)
    assert result.columns == [] and result.bytes_only == ["s.json"]
    assert not result.identical


def test_main_exits_0_on_identical_reports_and_1_otherwise(tmp_path, capsys):
    rd = _load_reportdiff()
    a = _write(tmp_path / "a", PARENT)
    same = _write(tmp_path / "same", PARENT)
    b = _write(tmp_path / "b", CHANGE)
    assert rd.main([str(a), str(same)]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 differing columns across 4 reports"]
    assert rd.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"missing in {b}: only_parent.csv" in out
    assert f"extra in {b}: only_change.json" in out
    assert "sub/sweep.csv entropy: 1 cells differ, max rel change 0, 1 sign-only" in out
    assert "sub/sweep.csv variance: 2 cells differ, max rel change 0.5" in out
    assert "summary.json mode: 1 cells differ, max rel change n/a" in out
    assert out[-1] == "5 differing columns across 5 reports"
