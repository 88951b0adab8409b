"""Command-line surface: verify / sweep / calibrate / simulate.

Exit codes: 0 clean pass, 1 property violation, 2 usage or config error,
3 I/O error. Reports are CSV (default) or JSON; CSV reals carry 17
significant digits with '.' decimal so values round-trip at 64-bit. Output
lands in --out, else the config's out_dir, else $ATTNLAB_OUT, else the
working directory.

Parsing a command line and resolving its config load no suite, simulator or
analysis module: ``verify``, ``sweep`` and ``simulate`` import the modules
they run when they run, so ``calibrate`` never loads them.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
from dataclasses import fields

import numpy as np

from .calibration import (
    BlockRatioTable,
    _ratios,
    _scores,
    calibrate_synthetic,
    fixture_names,
    foreground_mask,
    load_block_fixture,
    pca_pseudo_rgb,
    select_blocks,
    validate_mask,
)
from .config import SUITE_NAMES, ConfigError, RunConfig, check_config, read_config_file
from .scheduling import BlockGateTable, WINDOW_PRESETS, active_steps
from .tensorio import BlockReader, TensorFormatError, read_tensor

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

VERIFY_SUITES = SUITE_NAMES + ("all",)

OUT_DIR_ENV = "ATTNLAB_OUT"
INJECT_BUG_ENV = "ATTNLAB_INJECT_BUG"


def write_csv(path: str, columns, rows) -> None:
    """One line per row tuple, each cell formatted with ``%.17g``, streamed to the file.

    Suite and sweep rows are zipped from their report columns. Every cell is
    a float or an int: ``%.17g`` prints a float exactly as ``format(x,
    ".17g")`` does, an int of magnitude up to 2**53 as its exact decimal, and
    a bool as 1 or 0.
    """
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(columns) + "\n")
        f.writelines(row_format % row for row in rows)


def write_report(out_dir: str, stem: str, columns, rows, fmt: str) -> str:
    """Write a tabular report of row tuples, in ``columns`` order; returns the path written."""
    if fmt != "csv":
        payload = {"columns": list(columns), "rows": [dict(zip(columns, r)) for r in rows]}
        return write_json(out_dir, stem, payload)
    path = os.path.join(out_dir, stem + ".csv")
    write_csv(path, columns, rows)
    return path


def write_json(out_dir: str, stem: str, payload: dict) -> str:
    path = os.path.join(out_dir, stem + ".json")
    with open(path, "w", encoding="utf-8", newline="") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


# The config-file keys each command reads. Every command also reads ``seed``
# and ``out_dir``, and accepts ``arch``, whose one valid value is the
# attention layout every command assumes.
CONFIG_KEYS = {
    "verify": ("draws", "probes", "format"),
    "sweep": ("draws", "alpha_grid", "format"),
    "calibrate": ("samples", "num_blocks", "high_quantile", "tau"),
    "simulate": (
        "total_steps", "num_blocks", "gamma", "gamma_max", "kappa", "mode", "position",
        "boost", "window", "block_gates", "dims", "format",
    ),
}


def load_config(args) -> RunConfig:
    """The config file, if any, with the command line's flags laid over it.

    Each flag backed by a config key has that key as its ``dest``. A file key
    the command does not read is a ``ConfigError``, so a value that would
    change nothing is never silently accepted; a schema error in the file is
    reported before it.
    """
    data = {}
    if args.config is not None:
        data = read_config_file(args.config)
        check_config(data)
        unread = sorted(set(data) - {"seed", "out_dir", "arch", *CONFIG_KEYS[args.command]})
        if unread:
            raise ConfigError(f"{args.command} does not read config keys: {', '.join(unread)}")
    keys = {"seed", "out_dir", *CONFIG_KEYS[args.command]}
    data.update({key: value for key, value in vars(args).items() if key in keys and value is not None})
    grid = getattr(args, "alpha_grid", None)
    if grid is not None:
        # An empty value is an empty grid, which the schema rejects.
        try:
            data["alpha_grid"] = [float(a) for a in grid.split(",")] if grid else []
        except ValueError:
            raise ConfigError(f"could not parse --alpha-grid {grid!r}") from None
    if getattr(args, "preset", None) is not None:
        data["window"] = {"preset": args.preset}
    return RunConfig.from_dict(data)


def resolve_out_dir(cfg: RunConfig) -> str:
    out = cfg.out_dir if cfg.out_dir is not None else os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_verify(args) -> int:
    cfg = load_config(args)
    from .verification import run_suite

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    inject = args.inject_bug or os.environ.get(INJECT_BUG_ENV) == "1"
    failed = None
    for idx, name in enumerate(names):
        # Only the first suite gets the injected bug; one violation suffices.
        res = run_suite(
            name, seed=cfg.seed, draws=cfg.draws, probes=cfg.probes, inject_bug=inject and idx == 0
        )
        path = write_report(
            resolve_out_dir(cfg), f"verify_{res.name}", res.columns, res.row_tuples(), cfg.format
        )
        status = "ok" if res.passed else "FAIL"
        print(f"{res.name}: {status} rows={res.row_count} violations={res.violations} -> {path}")
        if not res.passed and failed is None:
            failed = res
    if failed is not None:
        print(f"first failure [{failed.name}]: {failed.detail}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    z = None
    if args.z is not None:
        try:
            z = np.array([float(x) for x in args.z.split(",")], dtype=np.float64)
        except ValueError:
            raise ConfigError(f"could not parse --z vector {args.z!r}") from None
        if z.size < 2:
            raise ConfigError("--z needs at least two entries")
    from .verification import run_sweep

    res = run_sweep(seed=cfg.seed, draws=cfg.draws, alpha_grid=cfg.alpha_grid, z=z)
    path = write_report(resolve_out_dir(cfg), "sweep", res.columns, res.row_tuples(), cfg.format)
    n_draws = 1 if z is not None else cfg.draws
    print(f"sweep: draws={n_draws} rows={res.row_count} violations={res.violations} -> {path}")
    if not res.passed:
        print(f"first failure: {res.detail}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_calibrate(args) -> int:
    # The three modes (fixture, files, synthetic) are exclusive, and a mode
    # rejects the flags it does not read; both before any file is read.
    def given(**flags):
        return [flag for dest, flag in flags.items() if getattr(args, dest) is not None]

    file_flags = given(latent="--latent", attention="--attention", mask="--mask")
    synthetic_flags = given(samples="--samples", num_blocks="--blocks")
    if args.fixture is not None:
        unread = file_flags + synthetic_flags + given(high_quantile="--quantile", tau="--tau")
        if unread:
            raise ConfigError(f"--fixture cannot be combined with {', '.join(unread)}")
    if file_flags and args.latent is None:
        raise ConfigError(f"{', '.join(file_flags)} requires --latent with the latent tensor")
    if args.latent is not None and args.attention is None:
        raise ConfigError("--latent requires --attention with the block stack")
    if file_flags and synthetic_flags:
        raise ConfigError(
            f"{', '.join(synthetic_flags)} only applies to synthetic calibration, "
            f"not with {', '.join(file_flags)}"
        )
    cfg = load_config(args)
    if args.fixture is not None:
        fx = load_block_fixture(args.fixture)
        gates = BlockGateTable.from_selected(fx.blocks, fx.num_blocks)
        payload = {
            "source": f"fixture:{fx.name}",
            "num_blocks": fx.num_blocks,
            "selected": list(fx.blocks),
            "gates": list(gates.gates),
        }
        path = write_json(resolve_out_dir(cfg), "block_table", payload)
        print(
            f"calibrate: fixture {fx.name} blocks={len(fx.blocks)}/{fx.num_blocks} -> {path}"
        )
        return EXIT_OK
    if args.latent is not None:
        latent = read_tensor(args.latent)
        # The stack is the large input: each block is read and scored one row
        # slab of at most 512 KiB at a time, so no block is held whole.
        with BlockReader(args.attention) as stack:
            if stack.ndim != 3:
                raise ConfigError(
                    f"attention stack must be 3-D (blocks, n, n), got {stack.ndim}-D"
                )
            rgb = pca_pseudo_rgb(latent)
            if args.mask is not None:
                mask = validate_mask(read_tensor(args.mask), rgb.shape[1:])
            else:
                mask = foreground_mask(rgb)
            scores = (_scores(stack.row_slabs(l), stack.shape[1:]) for l in range(stack.shape[0]))
            reports = _ratios(scores, mask, cfg.high_quantile)
        table = BlockRatioTable(
            ratios=tuple(r.ratio for r in reports), sample_count=1
        )
        degenerate = [l for l, r in enumerate(reports) if r.degenerate]
        source = "files"
    else:
        table = calibrate_synthetic(
            cfg.seed,
            num_blocks=cfg.num_blocks,
            samples=cfg.samples,
            high_quantile=cfg.high_quantile,
        )
        degenerate = []
        source = f"synthetic:seed={cfg.seed}"
    selected = select_blocks(table, cfg.tau)
    payload = {
        "source": source,
        "num_blocks": table.num_blocks,
        "sample_count": table.sample_count,
        "tau": cfg.tau,
        "high_quantile": cfg.high_quantile,
        "ratios": list(table.ratios),
        "selected": list(selected),
        "gates": list(BlockGateTable.from_selected(selected, table.num_blocks).gates),
        "degenerate_blocks": degenerate,
    }
    path = write_json(resolve_out_dir(cfg), "block_table", payload)
    print(
        f"calibrate: {source} blocks={table.num_blocks} selected={len(selected)} -> {path}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    schedule = cfg.schedule()
    from .numerics import sample_gaussian
    from .simulate import (
        ConflictConfig,
        StepCoefficients,
        TrajectoryRow,
        conflict_experiment,
        flops_audit,
        make_toy_denoiser,
        run_trajectory,
    )

    denoiser = make_toy_denoiser(cfg.seed, num_blocks=schedule.num_blocks, **cfg.dims)
    coeffs = StepCoefficients.linear(cfg.total_steps)
    x0 = sample_gaussian((cfg.dims["n_video"], denoiser.d_model), seed=cfg.seed + 1_000_003)
    trajectory = run_trajectory(denoiser, coeffs, schedule, x0)
    audit = flops_audit(trajectory, schedule)
    conflict = conflict_experiment(
        cfg.seed,
        ConflictConfig(boost=cfg.boost, gamma=cfg.gamma, targets=schedule.modulation.targets),
    )
    columns = [f.name for f in fields(TrajectoryRow)]
    rows = map(operator.attrgetter(*columns), trajectory.rows)
    out_dir = resolve_out_dir(cfg)
    traj_path = write_report(out_dir, "trajectory", columns, rows, cfg.format)
    nondeg = sum(conflict.nondegenerate)
    ratios_nd = [
        r for r, ok in zip(conflict.entropy_ratios, conflict.nondegenerate) if ok
    ]
    summary = {
        "total_steps": cfg.total_steps,
        "num_blocks": schedule.num_blocks,
        "window": {"low": schedule.window.low, "high": schedule.window.high},
        "active_steps": list(active_steps(cfg.total_steps, schedule.window)),
        "gamma": cfg.gamma,
        "mode": cfg.mode,
        "flops": vars(audit),
        "conflict": {
            # The per-query tuples are summarized by the three entries below.
            **{k: v for k, v in vars(conflict).items() if not isinstance(v, tuple)},
            "entropy_ratio_mean": float(np.mean(conflict.entropy_ratios)),
            "entropy_ratio_max_nondegenerate": float(max(ratios_nd)) if ratios_nd else None,
            "nondegenerate_queries": int(nondeg),
        },
    }
    sum_path = write_json(out_dir, "summary", summary)
    print(
        f"simulate: steps={cfg.total_steps} blocks={schedule.num_blocks} "
        f"scaled_cells={audit.measured_cells} -> {traj_path}, {sum_path}"
    )
    if not audit.exact_match:
        print(
            f"flops audit mismatch: measured {audit.measured_cells} cells, "
            f"expected {audit.expected_cells}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnlab",
        description="Numerical laboratory for temperature-scaled attention and guidance scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file (validated against the published schema)")
        p.add_argument("--seed", type=int, help="master seed (overrides config)")
        p.add_argument(
            "--out", dest="out_dir", help=f"output directory (default: config, then ${OUT_DIR_ENV}, then cwd)"
        )

    def add_format(p):
        p.add_argument("--format", choices=("csv", "json"), help="report format")

    p_verify = sub.add_parser("verify", help="run the certified-bound suites")
    # No ``choices``: argparse checks them as soon as the positional takes a
    # value, so in ``verify --gamma 2`` the "2" of the unknown --gamma would be
    # reported as a bad suite. main checks the suite after the whole line.
    p_verify.add_argument(
        "suite",
        nargs="?",
        default="all",
        metavar="{" + ",".join(VERIFY_SUITES) + "}",
        help="which suite to run (default: all)",
    )
    p_verify.add_argument("--draws", type=int, help="draws per suite")
    p_verify.add_argument("--probes", type=int, help="probe configurations for the deviation suite")
    p_verify.add_argument(
        "--inject-bug",
        action="store_true",
        help="harness self-test: flip one margin sign so the run must fail",
    )
    add_common(p_verify)
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="entropy/curvature profile over an alpha grid")
    p_sweep.add_argument("--z", help="explicit logit vector, comma-separated (e.g. '2,1,0')")
    p_sweep.add_argument(
        "--alpha-grid",
        dest="alpha_grid",
        help="comma-separated alphas; default spans 0.5/gap .. 50/gap per draw",
    )
    p_sweep.add_argument("--draws", type=int, help="random draws when --z is not given")
    add_common(p_sweep)
    add_format(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="foreground-block calibration")
    p_cal.add_argument("--fixture", help=f"validate a published block table: {', '.join(fixture_names())}")
    p_cal.add_argument("--latent", help="ATNB latent tensor (B, D, T, H, W)")
    p_cal.add_argument("--attention", help="ATNB attention stack (blocks, n, n)")
    p_cal.add_argument("--mask", help="ATNB boolean mask (T, H, W); default is Otsu on pseudo-RGB")
    p_cal.add_argument("--samples", type=int, help="synthetic calibration samples")
    p_cal.add_argument("--blocks", dest="num_blocks", type=int, help="synthetic block count")
    p_cal.add_argument("--quantile", dest="high_quantile", type=float, help="high-attention quantile")
    p_cal.add_argument("--tau", type=float, help="foreground-ratio threshold")
    add_common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_sim = sub.add_parser("simulate", help="scheduled toy denoising trajectory + reports")
    p_sim.add_argument("--steps", dest="total_steps", type=int, help="total denoising steps")
    p_sim.add_argument(
        "--blocks", dest="num_blocks", type=int, help="denoiser block count (first_half gating)"
    )
    p_sim.add_argument("--gamma", type=float, help="scaling coefficient")
    p_sim.add_argument("--preset", choices=sorted(WINDOW_PRESETS), help="step-window preset")
    add_common(p_sim)
    add_format(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.suite not in VERIFY_SUITES:
        parser.error(
            f"verify: invalid suite {args.suite!r} (choose from {', '.join(VERIFY_SUITES)})"
        )
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except TensorFormatError as e:
        print(f"tensor format error: {e}", file=sys.stderr)
        return EXIT_IO
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
