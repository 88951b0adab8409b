"""Every per-layer metric named in BENCHMARK.json has a recorder in perfbench/tracer.py.

A renamed or deleted library function would otherwise surface only when the
traced benchmark runs. This installs the tracer in process, without running
any workload, and uninstalls it before returning.
"""

import importlib.util
import json
from pathlib import Path

from attnlab import analysis

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "attnlab_bench_tracer", ROOT / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_per_layer_metric_has_a_recorder():
    tracer = _load_tracer()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    original = analysis.curvature_report
    spans = tracer.Tracer()
    spans.install()
    try:
        missing = [
            n
            for n in names
            if not (n in tracer.DERIVED or n == "trace.overhead_frac" or spans.records(n))
        ]
    finally:
        spans.uninstall()
    assert analysis.curvature_report is original  # uninstalled
    assert names
    assert missing == []
