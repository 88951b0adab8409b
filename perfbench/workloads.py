"""Benchmark workloads: the CLI argv of each, its inputs and its output checks.

Every workload is a list of CLI invocations. Each invocation names the report
files it writes and a check that reads them and returns a list of problems
(empty when the outputs are right). Sizes have a ``full`` scale, which is the
benchmark, and a ``tiny`` scale for the smoke run.
"""

from __future__ import annotations

import csv
import json
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

SCALES = {
    "full": {"steps": 100, "blocks": 32, "draws": 1000, "probes": 120,
             "latent": (1, 16, 4, 16, 16), "stack_blocks": 16},
    "tiny": {"steps": 10, "blocks": 4, "draws": 10, "probes": 4,
             "latent": (1, 4, 2, 8, 8), "stack_blocks": 4},
}
# Rows per draw in the sweep report: the default grid has eight alphas.
SWEEP_ROWS_PER_DRAW = 8
# Suites that write one row per draw (the fifth, deviation, one per probe).
DRAW_SUITES = 4

_VIOLATIONS = re.compile(r"violations=(\d+)")


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    reports: tuple[str, ...]
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    generated_inputs: bool = False
    # hostspeed.Probe arguments: the probe kernel that stands for this
    # workload's kind of work, and how often to sample it during a pass.
    probe: tuple[str, float | None] = ("calls", 0.02)

    def prepare(self, scale: str, seed: int, work: Path) -> None:
        """Write the workload's input files in a separate process."""
        if not self.generated_inputs:
            return
        cmd = [sys.executable, str(HERE / "gen_inputs.py"), "--seed", str(seed),
               "--scale", scale, "--out", str(work)]
        subprocess.run(cmd, check=True, timeout=120)


def printed_violations(stdout: str) -> list[str]:
    return [f"printed violations={n}" for n in _VIOLATIONS.findall(stdout) if n != "0"]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _check_simulate(steps: int):
    def check(out: Path) -> list[str]:
        problems = []
        summary = json.loads((out / "summary.json").read_text())
        if summary["flops"]["exact_match"] is not True:
            problems.append("flops.exact_match is not true")
        rows = _csv_rows(out / "trajectory.csv")
        if [int(r["step"]) for r in rows] != list(range(1, steps + 1)):
            problems.append(f"trajectory has {len(rows)} rows, want one per step 1..{steps}")
        for r in rows:
            if int(r["active_blocks"]) == 0 and not (
                float(r["entropy_ratio"]) == 1.0
                and r["entropy_cond"] == r["entropy_cond_base"]
            ):
                problems.append(f"step {r['step']}: zero gate but scheduled != baseline")
        return problems

    return check


def _check_row_count(stems: tuple[str, ...], want: int):
    def check(out: Path) -> list[str]:
        got = sum(len(_csv_rows(out / f"{s}.csv")) for s in stems)
        return [] if got == want else [f"{'+'.join(stems)}: {got} rows, want {want}"]

    return check


def _check_calibrate(out: Path) -> list[str]:
    table = json.loads((out / "block_table.json").read_text())
    ratios, tau = table["ratios"], table["tau"]
    problems = []
    if any(not 0.0 <= r <= 1.0 for r in ratios):
        problems.append("ratio outside [0, 1]")
    if table["selected"] != [l for l, r in enumerate(ratios) if r > tau]:
        problems.append("selected blocks differ from ratio > tau")
    if table["degenerate_blocks"]:
        problems.append(f"degenerate blocks {table['degenerate_blocks']}")
    if not any(r > tau for r in ratios) or all(r > tau for r in ratios):
        problems.append("generated inputs do not span both sides of tau")
    return problems


def build(name: str, scale: str, seed: int, work: Path) -> Workload:
    size = SCALES[scale]
    common = ("--seed", str(seed), "--out", str(work / "out"))
    if name == "simulate-long":
        return Workload(name, (Invocation(
            ("simulate", "--steps", str(size["steps"]), "--blocks", str(size["blocks"]),
             "--preset", "early", "--gamma", "1.35") + common,
            ("trajectory.csv", "summary.json"),
            _check_simulate(size["steps"]),
        ),))
    if name == "certify":
        suites = ("scale-equivalence", "entropy-slope", "curvature", "lipschitz", "deviation")
        draws = size["draws"]
        return Workload(name, (
            Invocation(
                ("verify", "--draws", str(draws), "--probes", str(size["probes"])) + common,
                tuple(f"verify_{s}.csv" for s in suites),
                _check_row_count(tuple(f"verify_{s}" for s in suites),
                                 DRAW_SUITES * draws + size["probes"]),
            ),
            Invocation(
                ("sweep", "--draws", str(draws)) + common,
                ("sweep.csv",),
                _check_row_count(("sweep",), SWEEP_ROWS_PER_DRAW * draws),
            ),
        ))
    if name == "calibrate-files":
        return Workload(name, (Invocation(
            ("calibrate", "--latent", str(work / "latent.atnb"),
             "--attention", str(work / "attention.atnb")) + common,
            ("block_table.json",),
            _check_calibrate,
        ),), generated_inputs=True, probe=("pages", None))
    raise ValueError(f"unknown workload {name!r}")
