"""Steadiness self-check: run the benchmark in two sets on the same code.

    python3 perfbench/steadiness.py --runs 10

Two sets each run every workload of BENCHMARK.json ``--runs`` times, each run
with its own seed (set 1 takes seeds 1..runs, set 2 the next ``--runs``) and
the ``run_seconds`` of BENCHMARK.json, with tracing off. The sets are
interleaved run by run, so a slow drift of the host's speed falls on both
alike. For every end-to-end metric and workload it prints, per set, the
median and the spread (q3 - q1) / median of the values, quartiles as
``statistics.quantiles(values, n=4)`` gives them, and then whether

* each spread, except that of setup_s, is within the metric's bound, and
* the two sets' medians differ by no more than the bound, in either
  direction (the printed change is signed, positive meaning set 2 is worse).

setup_s is left out of the spread check because the benchmark contract
judges set-up time only by its median: one run's setup_s is already the
median of several interpreter spawns of about 0.3 s, whose spread between
runs is mostly the host's process start-up jitter. Its spread is still
printed, and its medians are checked like every other metric's.

It exits 1 when any check fails. The table also goes to
``.bench_out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETS = 2
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a signed share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description="two-set steadiness check of the benchmark")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2 to form quartiles")
    names = [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    values = {(s, w): {} for s in range(SETS) for w in names}
    for i in range(args.runs):
        for s in range(SETS):
            seed = FIRST_SEED + s * args.runs + i
            for w in names:
                for name, v in run_once(w, seed, seconds).items():
                    values[(s, w)].setdefault(name, []).append(v)
                print(f"run {i + 1}/{args.runs} set {s + 1} {w} seed {seed} done", flush=True)
    ok = True
    table = []
    for w in names:
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [values[(s, w)][name] for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            spread_ok = name == "setup_s" or all(x <= bound for x in spreads)
            change = worse_by(medians[0], medians[1], m["better"])
            change_ok = abs(change) <= bound
            ok &= spread_ok and change_ok
            table.append({"workload": w, "metric": name, "bound": bound, "medians": medians,
                          "spreads": spreads, "change": change,
                          "ok": spread_ok and change_ok, "values": sets})
            print(f"{w:16s} {name:12s} bound {bound:<5g} "
                  + " ".join(f"median {md:.6g} spread {sp:.4f} ({sp / bound:.2f} of bound)"
                             for md, sp in zip(medians, spreads))
                  + f" change {change:+.4f} {'ok' if spread_ok and change_ok else 'FAIL'}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(table, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
