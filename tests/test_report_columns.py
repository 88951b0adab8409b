"""Suite and sweep reports written from columns match the per-row writer byte for byte."""

import json
import operator

import numpy as np
import pytest

from attnlab import verification as V
from attnlab.cli import main, write_report
from attnlab.config import SUITE_NAMES


def _reference_report(path, columns, rows, fmt):
    """The per-row writer: every cell pulled out of its row dict by column name."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        if fmt == "json":
            payload = {"columns": list(columns), "rows": [{c: r[c] for c in columns} for r in rows]}
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
            return
        row_format = ",".join(["%.17g"] * len(columns)) + "\n"
        f.write(",".join(columns) + "\n")
        if columns:
            cells = operator.itemgetter(*columns)
            f.writelines(row_format % cells(row) for row in rows)


def _assert_reports_match(res, written, tmp_path, fmt):
    ref = tmp_path / f"reference.{fmt}"
    _reference_report(ref, res.columns, res.rows, fmt)
    assert written.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("name", SUITE_NAMES)
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("inject_bug", [False, True])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_suite_report_from_columns_matches_the_row_writer(tmp_path, name, seed, inject_bug, fmt):
    argv = ["verify", name, "--seed", str(seed), "--draws", "25", "--probes", "6",
            "--format", fmt, "--out", str(tmp_path)]
    assert main(argv + ["--inject-bug"] * inject_bug) == int(inject_bug)
    res = V.run_suite(name, seed=seed, draws=25, probes=6, inject_bug=inject_bug)
    assert res.row_count == len(res.rows) == (6 if name == "deviation" else 25)
    _assert_reports_match(res, tmp_path / f"verify_{name}.{fmt}", tmp_path, fmt)


SWEEPS = {
    "default grid": ({}, []),
    "unsorted grid with a repeat": (
        {"alpha_grid": [3.0, 0.5, 3.0, 40.0]}, ["--alpha-grid", "3,0.5,3,40"]),
    "one vector": ({"z": [2.0, 1.0, 0.0]}, ["--z", "2,1,0"]),
    "one vector on a grid": (
        {"z": [1e7 + 3.0, 1e7, 1e7 - 2.5], "alpha_grid": [2.0, 0.25]},
        ["--z", "10000003,10000000,9999997.5", "--alpha-grid", "2,0.25"]),
}


@pytest.mark.parametrize("case", sorted(SWEEPS))
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_report_from_columns_matches_the_row_writer(tmp_path, case, seed, fmt):
    kwargs, flags = SWEEPS[case]
    argv = ["sweep", "--seed", str(seed), "--draws", "20", "--format", fmt, "--out", str(tmp_path)]
    assert main(argv + flags) == 0
    if "z" in kwargs:
        kwargs = {**kwargs, "z": np.array(kwargs["z"])}
    res = V.run_sweep(seed=seed, draws=20, **kwargs)
    _assert_reports_match(res, tmp_path / f"sweep.{fmt}", tmp_path, fmt)


@pytest.mark.parametrize("name", SUITE_NAMES + ("sweep",))
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_with_no_draws_has_no_columns(tmp_path, name, fmt):
    if name == "sweep":
        res = V.run_sweep(draws=0)
    else:
        res = V.run_suite(name, draws=0, probes=0, inject_bug=True)
    assert (res.columns, res.data, res.row_count, res.rows) == ((), (), 0, [])
    assert res.violations == 0
    written = write_report(str(tmp_path), "report", res.columns, res.row_tuples(), fmt)
    _assert_reports_match(res, tmp_path / f"report.{fmt}", tmp_path, fmt)
    assert written == str(tmp_path / f"report.{fmt}")


def test_csv_verify_and_sweep_never_build_row_dicts(tmp_path, monkeypatch, capsys):
    runs = [
        ["verify", "--draws", "30", "--probes", "4"],
        ["verify", "curvature", "--draws", "30", "--inject-bug"],
        ["sweep", "--draws", "30"],
        ["sweep", "--z", "2,1,0", "--alpha-grid", "1,2"],
    ]

    def run_all():
        codes = [main(argv + ["--out", str(tmp_path)]) for argv in runs]
        return codes, capsys.readouterr().out

    want = run_all()

    def no_rows(self):
        raise AssertionError("a CSV run built the row dicts")

    monkeypatch.setattr(V.SuiteResult, "rows", property(no_rows))
    got = run_all()
    assert got == want
    assert want[0] == [0, 1, 0, 0]
    assert "rows=30 " in want[1] and "sweep: draws=30 rows=240 " in want[1]


def test_sweep_of_a_subnormal_gap_runs_without_a_warning(tmp_path):
    # The test suite turns warnings into errors. 2/Delta overflows to inf for
    # this gap, so the envelope is checked at no alpha; the bytes are those the
    # sweep wrote when the overflow still printed a RuntimeWarning.
    argv = ["sweep", "--z", "1e-320,0", "--alpha-grid", "1", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert (tmp_path / "sweep.csv").read_text() == (
        "draw,alpha,entropy,variance,spectral_norm,tail_mass,tail_bound,gershgorin_bound,"
        "decay_bound,logit_gap,entropy_monotone_ok,envelope_ok,collapse_ok\n"
        "0,1,0.69314718055994529,0,0.5,0.5,1,0.5,2,9.9998886718268301e-321,1,1,1\n"
    )
