"""Smoke run of the benchmark at tiny size, so it cannot rot.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, workload: str, trace: int, seed: int = 5):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170, cwd=root)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = bench(ROOT, "simulate-long", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({n: m["value"] for n, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["simulate.baseline_forward.calls"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "certify", 0)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_metric_of_a_missing_function_is_an_error(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import run
    import tracer

    spans = tracer.Tracer()
    spans.install()
    spans.uninstall()
    # With no call at all, every metric of BENCHMARK.json still has a recorder.
    assert set(run.per_layer(spans, 0.0)) == {m["name"] for m in SPEC["per_layer"]}
    for name in ("analysis.no_such_report.calls", "verification.suite.no-such-suite.s",
                 "numerics.row_softmax.bytes"):
        fake = [{"name": name, "unit": "count", "better": "lower"}]
        monkeypatch.setitem(run.SPEC, "per_layer", fake)
        with pytest.raises(KeyError, match="has no recorder"):
            run.per_layer(spans, 0.0)


def test_probe_time_is_taken_out_of_the_interval(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import hostspeed

    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe("calls", 0.01)
    with probe.measure() as iv:
        time.sleep(0.2)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(iv.probes) >= 2 + 5  # around the interval, and sampled inside it
    assert iv.wall_s - iv.program_s == pytest.approx(sum(iv.probes[1:-1]))
    assert iv.program_s == pytest.approx(0.2, abs=0.05)
    assert iv.scaled_s(probe.nominal) == pytest.approx(
        iv.program_s * statistics.mean(probe.nominal / p for p in iv.probes))
