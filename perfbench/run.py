"""attnlab benchmark: drive the CLI in process on seeded workloads.

    python3 perfbench/run.py --workload simulate-long --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Load model: closed loop, one client in one process, one CLI invocation at a
time through ``attnlab.cli.main(argv)``; BLAS threads pinned to one, and the
process and its children pinned to one CPU. The program is imported from
``src/`` of the checkout this file sits in.

Times are scaled to a nominal host speed by the probe kernels of
hostspeed.py, which see how fast the shared host runs at the moment; the raw
wall-time medians are printed beside them.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
  setup_s      median time of fresh interpreters that import attnlab.cli
               and resolve the workload's argv (build_parser + load_config)
  run_s        median time of one pass of the workload in a warm process
  peak_rss_mb  peak resident memory of this process (inputs are generated
               and set-up is timed in child processes, which do not count)
  ok_frac      1 - fail_frac, the share of invocations that passed every check

``--trace 1`` repeats the untimed loop, then runs one traced pass and reports
the per-layer metrics of BENCHMARK.json (see tracer.py); the spans go to
``.bench_out/spans-<workload>.npz``.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. Set-up, input generation and report files stay in
``.bench_tmp/`` under the checkout and are removed at exit.
"""

from __future__ import annotations

import os

PINNED_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before anything imports numpy
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Set-up spawns per run, after one discarded spawn that fills the bytecode cache.
SETUP_SPAWNS = {"full": 15, "tiny": 2}
SPAWN_TIMEOUT_S = 60
MIN_SAMPLES = {"full": 3, "tiny": 1}
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from attnlab import cli
for argv in json.loads(sys.argv[2]):
    cli.load_config(cli.build_parser().parse_args(argv))
"""


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def environment() -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            env["cpu"] = next(
                (l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "unknown"
            )
        caches = []
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind, size = (
                (idx / n).read_text().strip() for n in ("level", "type", "size")
            )
            caches.append(f"L{level} {kind} {size}")
        env["caches"] = caches
    except OSError:
        env.setdefault("cpu", "unknown")
    # A reported L3 larger than the calibrate-files stack means its bytes
    # metrics are sizes computed from arrays, not measured memory traffic.
    env["bytes_metrics"] = "computed from array sizes"
    return env


def measure_setup(wl: workloads.Workload, spawns: int) -> tuple[list[float], list[float]]:
    """Raw and scaled times of ``spawns`` set-up interpreters."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC),
           json.dumps([list(inv.argv) for inv in wl.invocations])]
    # Interpreter start-up and imports are CPU-bound Python; the parent waits
    # on the same CPU, so it probes only around each spawn.
    probe = hostspeed.Probe("calls", None)
    raw, scaled = [], []
    for i in range(spawns + 1):
        with probe.measure() as iv:
            proc = subprocess.Popen(cmd)
            # wait(timeout=...) polls in 50 ms steps; a blocking wait plus a
            # kill timer keeps the exit time exact and still bounds a hung child.
            killer = threading.Timer(SPAWN_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                rc = proc.wait()
            finally:
                killer.cancel()
        if rc != 0:
            raise subprocess.CalledProcessError(rc, cmd)
        if i:
            raw.append(iv.program_s)
            scaled.append(iv.scaled_s(probe.nominal))
    return raw, scaled


class Runner:
    """Runs passes of one workload and checks every invocation's outputs."""

    def __init__(self, cli, wl: workloads.Workload, out: Path):
        self.cli, self.wl, self.out = cli, wl, out
        self.probe = hostspeed.Probe(*wl.probe)
        self.reference: list[str | None] = [None] * len(wl.invocations)
        self.attempted = 0
        self.failed = 0

    def _invoke(self, argv) -> tuple[int, str, hostspeed.Interval]:
        buf = io.StringIO()
        with self.probe.measure() as iv:
            try:
                with contextlib.redirect_stdout(buf):
                    rc = self.cli.main(list(argv))
            except Exception:  # a crash is a failed invocation, not a crashed benchmark
                traceback.print_exc()
                rc = -1
        return rc, buf.getvalue(), iv

    def _digest(self, inv) -> str:
        h = hashlib.sha256()
        for name in inv.reports:
            h.update((self.out / name).read_bytes())
        return h.hexdigest()

    def run_pass(self) -> tuple[float, float]:
        """One pass of the workload; returns its raw and scaled time in cli.main."""
        raw = scaled = 0.0
        for i, inv in enumerate(self.wl.invocations):
            rc, stdout, iv = self._invoke(inv.argv)
            raw += iv.program_s
            scaled += iv.scaled_s(self.probe.nominal)
            self.attempted += 1
            problems = [] if rc == 0 else [f"exit code {rc}"]
            problems += workloads.printed_violations(stdout)
            if rc == 0:
                try:
                    digest = self._digest(inv)
                    if self.reference[i] is None:
                        self.reference[i] = digest
                        problems += inv.check(self.out)
                    elif digest != self.reference[i]:
                        problems.append("report bytes differ from the first invocation")
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"unreadable report: {e!r}")
            if problems:
                self.failed += 1
                print(f"{self.wl.name} {inv.argv[0]}: {'; '.join(problems)}", file=sys.stderr)
        return raw, scaled

    def timed_passes(self, seconds: float, min_samples: int) -> tuple[list[float], list[float]]:
        """Raw and scaled times of every pass that fits in ``seconds``."""
        self.run_pass()  # warm-up: lazy imports, caches, first report write
        raw, scaled = [], []
        deadline = perf_counter() + seconds
        while len(raw) < min_samples or perf_counter() < deadline:
            gc.collect()
            r, s = self.run_pass()
            raw.append(r)
            scaled.append(s)
        return raw, scaled


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def per_layer(spans: tracer.Tracer, overhead: float) -> dict:
    derived = tracer.layer_metrics(spans)
    derived["trace.overhead_frac"] = overhead
    out = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if not (name in tracer.DERIVED or name == "trace.overhead_frac" or spans.records(name)):
            raise KeyError(f"per-layer metric {name} has no recorder")
        # A span that was wrapped but never entered on this workload reads 0.
        out[name] = metric(name, derived.get(name, 0.0))
    return out


def run_one(args) -> dict:
    from attnlab import cli  # src/ is first on sys.path

    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"attnlab imported from {cli.__file__}, not from {SRC}")
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        (work / "out").mkdir()
        wl = workloads.build(args.workload, args.scale, args.seed, work)
        wl.prepare(args.scale, args.seed, work)
        setup_raw, setup = ([], []) if args.trace else measure_setup(wl, SETUP_SPAWNS[args.scale])
        runner = Runner(cli, wl, work / "out")
        raw, samples = runner.timed_passes(args.seconds, MIN_SAMPLES[args.scale])
        run_s = statistics.median(samples)
        print(f"{wl.name} seed={args.seed} scale={args.scale} trace={args.trace} "
              f"probe={runner.probe.kind}")
        q1, q3 = quartiles(samples)
        print(f"  run_s        {run_s:.6f} s   median of {len(samples)} passes "
              f"(q1 {q1:.6f}, q3 {q3:.6f}); raw wall median {statistics.median(raw):.6f} s")
        if args.trace:
            spans = tracer.Tracer()
            spans.install()
            try:
                gc.collect()
                _, traced = runner.run_pass()
            finally:
                spans.uninstall()
            metrics = per_layer(spans, traced / run_s - 1.0)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            spans.save(out_dir / f"spans-{wl.name}.npz")
            for name, m in metrics.items():
                print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
        else:
            q1, q3 = quartiles(setup)
            print(f"  setup_s      {statistics.median(setup):.6f} s   median of "
                  f"{len(setup)} spawns (q1 {q1:.6f}, q3 {q3:.6f}); "
                  f"raw wall median {statistics.median(setup_raw):.6f} s")
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"  peak_rss_mb  {peak:.3f} MiB")
            fail_frac = runner.failed / runner.attempted
            print(f"  fail_frac    {fail_frac:g} ratio   ({runner.failed}/{runner.attempted}"
                  " invocations)")
            metrics = {
                "setup_s": metric("setup_s", statistics.median(setup)),
                "run_s": metric("run_s", run_s),
                "peak_rss_mb": metric("peak_rss_mb", peak),
                "ok_frac": metric("ok_frac", 1.0 - fail_frac),
            }
        return {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()


def run_all(args) -> dict:
    """Each workload in its own process, so each gets its own peak memory."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"{name}: benchmark exited with code {proc.returncode}")
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for m, v in res["metrics"].items():
            total["metrics"][f"{name}.{m}"] = v
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description="attnlab benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                        help="'tiny' is the smoke-test size; the benchmark is 'full'")
    args = parser.parse_args()
    if not (SRC / "attnlab" / "__init__.py").is_file():
        print(f"no attnlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("env " + json.dumps(environment(), sort_keys=True))
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
