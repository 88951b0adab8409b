"""Command-line surface: verify / sweep / calibrate / simulate.

Exit codes: 0 clean pass, 1 property violation, 2 usage or config error,
3 I/O error. Reports are CSV (default) or JSON; CSV reals carry 17
significant digits with '.' decimal so values round-trip at 64-bit. Output
lands in --out, else the config's out_dir, else $ATTNLAB_OUT, else the
working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .attention import ArchMode, ScalingTargets
from .calibration import (
    BlockRatioTable,
    calibrate_synthetic,
    fixture_names,
    foreground_mask,
    foreground_ratio,
    load_block_fixture,
    pca_pseudo_rgb,
    select_blocks,
    validate_mask,
)
from .config import ConfigError, RunConfig
from .numerics import sample_gaussian
from .scheduling import BlockGateTable, WINDOW_PRESETS, active_steps
from .simulate import (
    ConflictConfig,
    StepCoefficients,
    TrajectoryRow,
    conflict_experiment,
    flops_audit,
    make_toy_denoiser,
    run_trajectory,
)
from .tensorio import TensorFormatError, read_tensor
from .verification import SUITE_NAMES, run_suites, run_sweep

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3

OUT_DIR_ENV = "ATTNLAB_OUT"
INJECT_BUG_ENV = "ATTNLAB_INJECT_BUG"


def _format_value(x) -> str:
    # Exact-type fast path for the Python floats and ints that fill most
    # cells; bool (an int subclass) and numpy scalars take the chain below.
    if type(x) is float:
        return format(x, ".17g")
    if type(x) is int:
        return str(x)
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path: str, columns, rows) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_format_value(row[c]) for c in columns))
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write("\n".join(lines) + "\n")


def _jsonable(x):
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    return x


def write_report(out_dir: str, stem: str, columns, rows, fmt: str) -> str:
    """Write a tabular report; returns the path written."""
    if fmt != "csv":
        payload = {
            "columns": list(columns),
            "rows": [{c: _jsonable(r[c]) for c in columns} for r in rows],
        }
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


def load_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    updates = {}
    for attr, key in (
        ("seed", "seed"),
        ("draws", "draws"),
        ("probes", "probes"),
        ("samples", "samples"),
        ("gamma", "gamma"),
        ("tau", "tau"),
        ("quantile", "high_quantile"),
        ("steps", "total_steps"),
        ("blocks", "num_blocks"),
        ("format", "format"),
        ("out", "out_dir"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            updates[key] = value
    if getattr(args, "preset", None):
        updates["window"] = {"preset": args.preset}
    if getattr(args, "alpha_grid", None):
        updates["alpha_grid"] = [float(a) for a in args.alpha_grid.split(",") if a.strip()]
    return cfg.replace(**updates) if updates else cfg


def resolve_out_dir(cfg: RunConfig) -> str:
    out = cfg.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_verify(args) -> int:
    cfg = load_config(args)
    out_dir = resolve_out_dir(cfg)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    inject = args.inject_bug or os.environ.get(INJECT_BUG_ENV) == "1"
    results = run_suites(
        names, seed=cfg.seed, draws=cfg.draws, probes=cfg.probes, inject_bug=inject
    )
    failed = None
    for res in results:
        path = write_report(out_dir, f"verify_{res.name}", res.columns, res.rows, cfg.format)
        status = "ok" if res.passed else "FAIL"
        print(f"{res.name}: {status} rows={len(res.rows)} violations={res.violations} -> {path}")
        if not res.passed and failed is None:
            failed = res
    if failed is not None:
        print(f"first failure [{failed.name}]: {failed.detail}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args)
    out_dir = resolve_out_dir(cfg)
    z = None
    if args.z:
        try:
            z = np.array([float(x) for x in args.z.split(",")], dtype=np.float64)
        except ValueError:
            raise ConfigError(f"could not parse --z vector {args.z!r}") from None
        if z.size < 2:
            raise ConfigError("--z needs at least two entries")
    res = run_sweep(seed=cfg.seed, draws=cfg.draws, alpha_grid=cfg.alpha_grid, z=z)
    path = write_report(out_dir, "sweep", res.columns, res.rows, cfg.format)
    n_draws = 1 if z is not None else cfg.draws
    print(f"sweep: draws={n_draws} rows={len(res.rows)} violations={res.violations} -> {path}")
    if not res.passed:
        print(f"first failure: {res.detail}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_calibrate(args) -> int:
    cfg = load_config(args)
    out_dir = resolve_out_dir(cfg)
    if args.fixture:
        fx = load_block_fixture(args.fixture)
        gates = BlockGateTable.from_selected(fx.blocks, fx.num_blocks)
        payload = {
            "source": f"fixture:{fx.name}",
            "num_blocks": fx.num_blocks,
            "selected": list(fx.blocks),
            "gates": list(gates.gates),
        }
        path = write_json(out_dir, "block_table", payload)
        print(
            f"calibrate: fixture {fx.name} blocks={len(fx.blocks)}/{fx.num_blocks} -> {path}"
        )
        return EXIT_OK
    if args.latent:
        latent = read_tensor(args.latent)
        if args.attention is None:
            raise ConfigError("--latent requires --attention with the block stack")
        stack = read_tensor(args.attention)
        if stack.ndim != 3:
            raise ConfigError(
                f"attention stack must be 3-D (blocks, n, n), got {stack.ndim}-D"
            )
        rgb = pca_pseudo_rgb(latent)
        if args.mask:
            mask = validate_mask(read_tensor(args.mask), rgb.shape[1:])
        else:
            mask = foreground_mask(rgb)
        reports = [
            foreground_ratio(stack[l], mask, cfg.high_quantile)
            for l in range(stack.shape[0])
        ]
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
    path = write_json(out_dir, "block_table", payload)
    print(
        f"calibrate: {source} blocks={table.num_blocks} selected={len(selected)} -> {path}"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = load_config(args)
    schedule = cfg.schedule()
    if schedule.modulation.arch is ArchMode.FACTORIZED:
        raise ConfigError(
            "simulate runs a joint-attention toy denoiser; arch 'factorized' is not supported"
        )
    out_dir = resolve_out_dir(cfg)
    dims = cfg.dims
    denoiser = make_toy_denoiser(
        cfg.seed,
        num_blocks=schedule.num_blocks,
        n_text=dims["n_text"],
        n_image=dims["n_image"],
        n_video=dims["n_video"],
        d_k=dims["d_k"],
        d_v=dims["d_v"],
    )
    coeffs = StepCoefficients.linear(cfg.total_steps)
    x0 = sample_gaussian((dims["n_video"], denoiser.d_model), seed=cfg.seed + 1_000_003)
    trajectory = run_trajectory(denoiser, coeffs, schedule, x0)
    audit = flops_audit(trajectory, schedule)
    key_groups = schedule.modulation.targets.key_groups or frozenset({"text", "image"})
    conflict = conflict_experiment(
        cfg.seed,
        ConflictConfig(
            boost=cfg.boost,
            gamma=cfg.gamma,
            targets=ScalingTargets(key_groups=key_groups),
        ),
    )
    columns = [f.name for f in fields(TrajectoryRow)]
    rows = [asdict(r) for r in trajectory.rows]
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
        "flops": asdict(audit),
        "conflict": {
            "gamma": conflict.gamma,
            "boost": conflict.boost,
            "base_mass_text": conflict.base_mass_text,
            "base_mass_image": conflict.base_mass_image,
            "base_mass_video": conflict.base_mass_video,
            "delta_mass_text": conflict.delta_mass_text,
            "delta_mass_image": conflict.delta_mass_image,
            "delta_mass_video": conflict.delta_mass_video,
            "entropy_ratio_mean": float(np.mean(conflict.entropy_ratios)),
            "entropy_ratio_max_nondegenerate": float(max(ratios_nd)) if ratios_nd else None,
            "nondegenerate_queries": int(nondeg),
            "argmax_flips_to_text": conflict.argmax_flips_to_text,
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
        p.add_argument("--gamma", type=float, help="scaling coefficient")
        p.add_argument("--tau", type=float, help="foreground-ratio threshold")
        p.add_argument("--preset", choices=sorted(WINDOW_PRESETS), help="step-window preset")
        p.add_argument("--out", help=f"output directory (default: config, then ${OUT_DIR_ENV}, then cwd)")
        p.add_argument("--format", choices=("csv", "json"), help="report format")

    p_verify = sub.add_parser("verify", help="run the certified-bound suites")
    p_verify.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=SUITE_NAMES + ("all",),
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
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="foreground-block calibration")
    p_cal.add_argument("--fixture", help=f"validate a published block table: {', '.join(fixture_names())}")
    p_cal.add_argument("--latent", help="ATNB latent tensor (B, D, T, H, W)")
    p_cal.add_argument("--attention", help="ATNB attention stack (blocks, n, n)")
    p_cal.add_argument("--mask", help="ATNB boolean mask (T, H, W); default is Otsu on pseudo-RGB")
    p_cal.add_argument("--samples", type=int, help="synthetic calibration samples")
    p_cal.add_argument("--blocks", type=int, help="synthetic block count")
    p_cal.add_argument("--quantile", type=float, help="high-attention quantile")
    add_common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_sim = sub.add_parser("simulate", help="scheduled toy denoising trajectory + reports")
    p_sim.add_argument("--steps", type=int, help="total denoising steps")
    p_sim.add_argument("--blocks", type=int, help="denoiser block count (first_half gating)")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
