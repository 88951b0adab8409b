import argparse
import csv
import dataclasses
import json
import re
import tracemalloc

import jsonschema
import numpy as np
import pytest

from attnlab import cli, config, simulate, verification
from attnlab.calibration import fixture_names
from attnlab.cli import main, write_csv
from attnlab.config import _SCHEMA, ConfigError, RunConfig, check_config, read_config_file
from attnlab.numerics import row_softmax
from attnlab.tensorio import encode_tensor, read_tensor, write_tensor
from attnlab.verification import SUITE_NAMES


def test_defaults():
    cfg = RunConfig()
    assert cfg.seed == 0
    assert cfg.gamma == 1.35
    assert cfg.tau == 0.5
    assert cfg.total_steps == 25
    assert cfg.window == {"preset": "early"}
    assert cfg.block_gates == {"source": "first_half"}
    assert cfg.format == "csv"


def test_from_dict_round_trip():
    cfg = RunConfig.from_dict({"seed": 9, "gamma": 1.2, "window": {"preset": "late"}})
    again = RunConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert again.seed == 9
    assert json.loads(json.dumps(cfg.to_dict()))["gamma"] == 1.2


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="config invalid at <root>"):
        RunConfig.from_dict({"gama": 1.2})
    with pytest.raises(ConfigError, match="config invalid at window"):
        RunConfig.from_dict({"window": {"name": "early"}})
    with pytest.raises(ConfigError, match="config invalid at dims"):
        RunConfig.from_dict({"dims": {"n_audio": 2}})


def test_shipped_schema_passes_check_schema():
    jsonschema.validators.validator_for(_SCHEMA).check_schema(_SCHEMA)


@pytest.mark.parametrize(
    "data",
    [
        {"gama": 1.2},
        {"gamma": -1.0},
        {"window": {"name": "early"}},
        {"dims": {"n_audio": 2}},
        {"mode": "annealed", "tau": 1.5},
        {"alpha_grid": ["x"]},
    ],
)
def test_invalid_config_message_is_the_jsonschema_validate_message(data):
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(instance=data, schema=_SCHEMA)
    path = "/".join(str(p) for p in want.value.absolute_path) or "<root>"
    with pytest.raises(ConfigError) as got:
        RunConfig.from_dict(data)
    assert str(got.value) == f"config invalid at {path}: {want.value.message}"


def test_schema_value_constraints():
    with pytest.raises(ConfigError, match="gamma"):
        RunConfig.from_dict({"gamma": -1.0})
    with pytest.raises(ConfigError, match="tau"):
        RunConfig.from_dict({"tau": 1.5})
    with pytest.raises(ConfigError, match="mode"):
        RunConfig.from_dict({"mode": "annealed"})


def test_semantic_errors_caught_at_parse():
    with pytest.raises(ConfigError, match="not valid for arch"):
        RunConfig.from_dict({"arch": "joint", "position": "Query-image"})
    with pytest.raises(ConfigError, match="low <= high"):
        RunConfig.from_dict({"window": {"low": 0.9, "high": 0.1}})
    # only the joint layout exists: a factorized arch fails the schema
    with pytest.raises(ConfigError, match="config invalid at arch"):
        RunConfig.from_dict({"arch": "factorized", "position": "Query-image"})
    cfg = RunConfig.from_dict({"arch": "joint", "position": "Key-text"})
    assert cfg.schedule().modulation.targets.key_groups == frozenset({"text"})


def test_explicit_window_wins_over_preset():
    cfg = RunConfig.from_dict({"window": {"preset": "late", "low": 0.1, "high": 0.2}})
    w = cfg.schedule().window
    assert (w.low, w.high) == (0.1, 0.2)
    with pytest.raises(ConfigError, match="both 'low' and 'high'"):
        RunConfig.from_dict({"window": {"low": 0.1}})


def test_gate_sources():
    assert RunConfig.from_dict({"num_blocks": 6}).schedule().gates.gates == (1, 1, 1, 0, 0, 0)
    assert RunConfig.from_dict({"block_gates": {"source": "all"}, "num_blocks": 3}).schedule().gates.gates == (1, 1, 1)
    assert RunConfig.from_dict({"block_gates": {"source": "none"}, "num_blocks": 3}).schedule().gates.gates == (0, 0, 0)
    explicit = RunConfig.from_dict({"block_gates": {"source": "explicit", "gates": [1, 0, 1]}})
    assert explicit.schedule().gates.gates == (1, 0, 1)
    fixture = RunConfig.from_dict({"block_gates": {"source": "fixture", "name": "framepack"}})
    gates = fixture.schedule().gates
    assert gates.num_blocks == 34  # fixture overrides num_blocks
    assert sum(gates.gates) == 24
    with pytest.raises(ConfigError, match="needs 'name'"):
        RunConfig.from_dict({"block_gates": {"source": "fixture"}})
    with pytest.raises(ConfigError, match="needs 'gates'"):
        RunConfig.from_dict({"block_gates": {"source": "explicit"}})


def test_from_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"seed": 5, "window": {"preset": "middle"}}')
    cfg = RunConfig.from_dict(read_config_file(path))
    assert cfg.seed == 5
    assert cfg.schedule().window.low == 0.35
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.from_dict(read_config_file(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        RunConfig.from_dict(read_config_file(arr))


def test_schedule_resolution():
    cfg = RunConfig.from_dict({"num_blocks": 4, "gamma": 1.5})
    sched = cfg.schedule()
    assert sched.num_blocks == 4
    assert sched.modulation.gamma == 1.5
    assert sched.window.high == 0.30


# -- CLI ----------------------------------------------------------------------


def test_verify_all_suites_pass(tmp_path, capsys):
    rc = main(["verify", "--draws", "40", "--probes", "10", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("scale-equivalence", "entropy-slope", "curvature", "lipschitz", "deviation"):
        assert f"{name}: ok" in out
        assert (tmp_path / f"verify_{name}.csv").exists()


def test_verify_single_suite_json_format(tmp_path):
    rc = main(["verify", "curvature", "--draws", "25", "--format", "json", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "verify_curvature.json").read_text())
    assert payload["rows"]
    assert "spectral_norm" in payload["columns"]


def test_verify_inject_bug_fails(tmp_path, capsys):
    rc = main(["verify", "lipschitz", "--draws", "20", "--inject-bug", "--out", str(tmp_path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "first failure [lipschitz]" in captured.err


def test_verify_inject_bug_via_env(tmp_path, monkeypatch):
    monkeypatch.setenv("ATTNLAB_INJECT_BUG", "1")
    rc = main(["verify", "entropy-slope", "--draws", "20", "--out", str(tmp_path)])
    assert rc == 1


def test_verify_unknown_suite_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus-suite", "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'bogus-suite'" in err
    assert all(name in err for name in (*SUITE_NAMES, "all"))


VERIFY_HELP = """\
usage: attnlab verify [-h] [--draws DRAWS] [--probes PROBES] [--inject-bug]
                      [--config CONFIG] [--seed SEED] [--out OUT_DIR]
                      [--format {csv,json}]
                      [{scale-equivalence,entropy-slope,curvature,lipschitz,deviation,all}]

positional arguments:
  {scale-equivalence,entropy-slope,curvature,lipschitz,deviation,all}
                        which suite to run (default: all)

options:
  -h, --help            show this help message and exit
  --draws DRAWS         draws per suite
  --probes PROBES       probe configurations for the deviation suite
  --inject-bug          harness self-test: flip one margin sign so the run
                        must fail
  --config CONFIG       JSON config file (validated against the published
                        schema)
  --seed SEED           master seed (overrides config)
  --out OUT_DIR         output directory (default: config, then $ATTNLAB_OUT,
                        then cwd)
  --format {csv,json}   report format
"""


def test_suite_names_have_one_definition_in_run_order(capsys, monkeypatch):
    # The parser names the suites from config.SUITE_NAMES, without loading
    # verification, whose suite table follows the same order.
    assert cli.SUITE_NAMES is config.SUITE_NAMES is verification.SUITE_NAMES
    assert config.SUITE_NAMES == tuple(verification._SUITE_FUNCS)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == VERIFY_HELP
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: attnlab [-h] {verify,sweep,calibrate,simulate} ...\n"
        "attnlab: error: verify: invalid suite 'nope' (choose from scale-equivalence, "
        "entropy-slope, curvature, lipschitz, deviation, all)\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--gamma", "2"],
        ["verify", "--tau", "0.9"],
        ["verify", "--preset", "late"],
        ["sweep", "--gamma", "2"],
        ["sweep", "--tau", "0.9"],
        ["sweep", "--preset", "late"],
        ["calibrate", "--gamma", "2"],
        ["calibrate", "--preset", "late"],
        ["calibrate", "--format", "json"],
        ["simulate", "--tau", "0.9"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())
    # The message names the flag; verify must not take its value for a suite.
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[1]}" in err
    assert "suite" not in err


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("ATTNLAB_OUT", str(tmp_path / "envout"))
    rc = main(["verify", "curvature", "--draws", "10"])
    assert rc == 0
    assert (tmp_path / "envout" / "verify_curvature.csv").exists()


def test_sweep_explicit_vector_frozen_values(tmp_path):
    rc = main(["sweep", "--z", "2,1,0", "--alpha-grid", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "sweep.csv").read_text()
    lines = text.strip().split("\n")
    assert len(lines) == 3  # header + 2 alphas
    assert "0.83239558183993889" in text  # H at alpha=1 for z=(2,1,0), 17 sig digits
    assert "0.44105744405816344" in text  # H at alpha=2


def test_sweep_report_invariant_under_logit_shift(tmp_path):
    # softmax ignores a constant shift, so every column (variance included) must too
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--z", "2,1,0", "--alpha-grid", "1,2", "--out", str(d1)]) == 0
    shifted = ["--z", "10000002,10000001,10000000", "--alpha-grid", "1,2", "--out", str(d2)]
    assert main(["sweep", *shifted]) == 0
    assert (d2 / "sweep.csv").read_bytes() == (d1 / "sweep.csv").read_bytes()


def test_sweep_random_draws_pass(tmp_path):
    rc = main(["sweep", "--draws", "15", "--seed", "3", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 15 * 8  # default grid has 8 alphas per draw


def test_sweep_byte_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["sweep", "--draws", "5", "--seed", "11", "--out", str(d)]) == 0
    assert (d1 / "sweep.csv").read_bytes() == (d2 / "sweep.csv").read_bytes()


def test_sweep_bad_vector_config_error(tmp_path, capsys):
    rc = main(["sweep", "--z", "2,x,0", "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    rc = main(["sweep", "--z", "2", "--out", str(tmp_path)])
    assert rc == 2


def test_sweep_tied_maximum_default_grid_is_a_usage_error(tmp_path, capsys):
    # The default grid is SWEEP_GAP_RATIOS / gap, undefined at gap 0.
    rc = main(["sweep", "--z", "1,1,0", "--out", str(tmp_path)])
    assert rc == 2
    assert "--alpha-grid" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_tied_maximum_explicit_grid_passes(tmp_path):
    # The curvature bounds take the "bound not applicable" path at gap 0.
    rc = main(["sweep", "--z", "1,1,0", "--alpha-grid", "1,2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 3


def test_config_file_plus_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"draws": 12, "seed": 1}')
    rc = main(["sweep", "--config", str(cfg_path), "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 12 * 8  # draws from file; seed overridden by flag


def test_config_file_invalid_exit_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"gamma": -3}')
    rc = main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_missing_exit_3(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 3
    assert "i/o error" in capsys.readouterr().err


def test_config_file_run_builds_the_config_once(tmp_path, monkeypatch):
    cfg_path = tmp_path / "v.json"
    cfg_path.write_text('{"draws": 3, "seed": 1}')
    calls = []
    from_dict = RunConfig.from_dict.__func__

    def counted(cls, data):
        calls.append(dict(data))
        return from_dict(cls, data)

    monkeypatch.setattr(RunConfig, "from_dict", classmethod(counted))
    argv = ["verify", "curvature", "--config", str(cfg_path), "--seed", "2"]
    cfg = cli.load_config(cli.build_parser().parse_args(argv))
    assert calls == [{"draws": 3, "seed": 2}]
    assert (cfg.draws, cfg.seed) == (3, 2)


def test_schema_error_in_file_is_reported_before_an_unread_key(tmp_path, capsys):
    # ``gamma`` is a key verify does not read; ``draws`` breaks the schema.
    cfg_path = tmp_path / "v.json"
    cfg_path.write_text('{"gamma": 7, "draws": 0}')
    argv = ["verify", "curvature", "--config", str(cfg_path), "--draws", "3"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: config invalid at draws: 0 is less than the minimum of 1\n"
    )


# Runs rejected after the config is read, each before it writes anything.
REJECTED_RUNS = {
    "sweep-empty-z": (["sweep", "--z", ""], 2),
    "sweep-tied-maximum": (["sweep", "--z", "1,1,0"], 2),
    "calibrate-unknown-fixture": (["calibrate", "--fixture", "nosuch"], 2),
    "calibrate-missing-latent": (["calibrate", "--latent", "nosuch", "--attention", "nosuch"], 3),
}


@pytest.mark.parametrize("name", sorted(REJECTED_RUNS))
def test_rejected_run_leaves_no_output_directory(tmp_path, name):
    argv, code = REJECTED_RUNS[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    assert not out.exists()


def test_write_csv_cell_text(tmp_path):
    row = {
        "a": 0.1, "b": 1 / 3, "c": -0.0, "d": float("nan"), "e": float("inf"),
        "f": 7, "g": True, "h": np.float64(2.5),
    }
    path = tmp_path / "r.csv"
    write_csv(str(path), list(row), [tuple(row.values())])
    assert path.read_text() == (
        "a,b,c,d,e,f,g,h\n0.10000000000000001,0.33333333333333331,-0,nan,inf,7,1,2.5\n"
    )


def test_write_csv_with_no_columns_or_one_column(tmp_path):
    # No rows means no columns: the file is the empty header line alone.
    path = tmp_path / "r.csv"
    write_csv(str(path), (), [])
    assert path.read_text() == "\n"
    write_csv(str(path), ["x"], [(0.5,), (3,)])
    assert path.read_text() == "x\n0.5\n3\n"


# -- calibrate ------------------------------------------------------------------


def test_calibrate_fixture_mode(tmp_path):
    rc = main(["calibrate", "--fixture", "framepack_f1", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "block_table.json").read_text())
    assert payload["source"] == "fixture:framepack_f1"
    assert payload["num_blocks"] == 40
    assert len(payload["selected"]) == 24
    assert sum(payload["gates"]) == 24


def test_calibrate_fixture_bytes_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["calibrate", "--fixture", "wan2.1", "--out", str(d)]) == 0
    assert (d1 / "block_table.json").read_bytes() == (d2 / "block_table.json").read_bytes()


def test_calibrate_synthetic_mode(tmp_path):
    rc = main(["calibrate", "--samples", "6", "--blocks", "5", "--seed", "2", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "block_table.json").read_text())
    assert payload["source"] == "synthetic:seed=2"
    assert len(payload["ratios"]) == 5
    assert payload["sample_count"] == 6
    assert all(0.0 <= r <= 1.0 for r in payload["ratios"])


def _write_calibration_files(tmp_path):
    rng = np.random.default_rng(6)
    d, t, h, w = 4, 2, 6, 6
    n = t * h * w
    latent = rng.normal(0.0, 0.2, size=(1, d, t, h, w))
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    latent[0, :, :, 1:4, 1:4] += 3.0 * direction[:, None, None, None]
    truth = np.zeros((t, h, w), dtype=bool)
    truth[:, 1:4, 1:4] = True
    flat = truth.ravel().astype(np.float64)
    stack = np.empty((3, n, n))
    for l, affinity in enumerate((-1.0, 0.0, 4.0)):
        logits = rng.normal(size=(n, n)) + affinity * flat[None, :]
        stack[l] = row_softmax(logits).T  # received orientation
    lat_path = tmp_path / "latent.atnb"
    att_path = tmp_path / "attn.atnb"
    mask_path = tmp_path / "mask.atnb"
    write_tensor(lat_path, latent)
    write_tensor(att_path, stack)
    write_tensor(mask_path, truth)
    return lat_path, att_path, mask_path


def test_calibrate_from_files(tmp_path):
    lat, att, mask = _write_calibration_files(tmp_path)
    rc = main(["calibrate", "--latent", str(lat), "--attention", str(att), "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "block_table.json").read_text())
    assert payload["source"] == "files"
    assert len(payload["ratios"]) == 3
    # PCA polarity can invert the Otsu mask, but the attracted and repelled
    # blocks must land on opposite extremes either way
    assert abs(payload["ratios"][2] - payload["ratios"][0]) > 0.5
    assert payload["selected"] == [
        l for l, r in enumerate(payload["ratios"]) if r > payload["tau"]
    ]


def test_calibrate_with_supplied_mask(tmp_path):
    lat, att, mask = _write_calibration_files(tmp_path)
    rc = main([
        "calibrate", "--latent", str(lat), "--attention", str(att),
        "--mask", str(mask), "--out", str(tmp_path),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "block_table.json").read_text())
    assert payload["ratios"][2] > 0.9


def test_calibrate_latent_without_attention_exit_2(tmp_path, capsys):
    lat, _, _ = _write_calibration_files(tmp_path)
    rc = main(["calibrate", "--latent", str(lat), "--out", str(tmp_path)])
    assert rc == 2
    assert "requires --attention" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--attention", "MISSING"], "--attention requires --latent"),
        (["--fixture", "wan2.1", "--latent", "MISSING"], "--fixture cannot be combined with --latent"),
        (["--latent", "MISSING"], "--latent requires --attention"),
    ],
    ids=["attention-without-latent", "fixture-with-latent", "missing-latent-without-attention"],
)
def test_calibrate_mixed_modes_exit_2_before_reading(tmp_path, capsys, flags, message):
    # MISSING names no file, so exit 2 (not 3) shows the mix is rejected before any read.
    missing = str(tmp_path / "missing.atnb")
    argv = [missing if f == "MISSING" else f for f in flags]
    assert main(["calibrate", *argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "block_table.json").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--fixture", "wan2.1", "--samples", "3", "--blocks", "5"],
         "--fixture cannot be combined with --samples, --blocks"),
        (["--latent", "MISSING", "--attention", "MISSING", "--blocks", "5"],
         "--blocks only applies to synthetic calibration, not with --latent, --attention"),
    ],
    ids=["fixture", "files"],
)
def test_calibrate_synthetic_flags_outside_synthetic_mode_exit_2(tmp_path, capsys, flags, message):
    missing = str(tmp_path / "missing.atnb")
    argv = [missing if f == "MISSING" else f for f in flags]
    assert main(["calibrate", *argv, "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "block_table.json").exists()


@pytest.mark.parametrize("flags", [["--quantile", "0.3"], ["--tau", "0.9"]], ids=["quantile", "tau"])
def test_calibrate_ratio_flags_with_fixture_exit_2(tmp_path, capsys, flags):
    # A published block table has no ratios to threshold or quantile to apply.
    assert main(["calibrate", "--fixture", "wan2.1", *flags, "--out", str(tmp_path)]) == 2
    assert f"--fixture cannot be combined with {flags[0]}" in capsys.readouterr().err
    assert not (tmp_path / "block_table.json").exists()


@pytest.mark.parametrize(
    "stack, code, message",
    [
        (encode_tensor(np.full((72, 72), 1 / 72)), 2, "attention stack must be 3-D (blocks, n, n), got 2-D"),
        (encode_tensor(np.full((3, 72, 72), 1 / 72))[:-8], 3, "truncated payload at byte 37: need 124416 bytes, have 124408"),
        (encode_tensor(np.full((3, 72, 72), 1 / 72)) + b"\x00", 3, "trailing data at byte 124453: 1 extra bytes"),
    ],
    ids=["2-D", "truncated", "trailing-bytes"],
)
def test_calibrate_bad_attention_stack_writes_no_table(tmp_path, capsys, stack, code, message):
    lat, _, _ = _write_calibration_files(tmp_path)
    att = tmp_path / "bad_attention.atnb"
    att.write_bytes(stack)
    out = tmp_path / "out"
    rc = main(["calibrate", "--latent", str(lat), "--attention", str(att), "--out", str(out)])
    assert rc == code
    assert message in capsys.readouterr().err
    assert not (out / "block_table.json").exists()


def _nan_in_a_later_block(s):
    s[2, 70, 5] = np.nan
    return s


def _negative_entry(s):
    s[1, 71, 3] = -1e-3
    return s


def _negative_block_before_a_nan_block(s):
    s[1, 0, 0], s[2, 0, 0] = -1.0, np.nan
    return s


def _negative_before_an_inf_in_one_block(s):
    s[1, 0, 0], s[1, 71, 71] = -1.0, np.inf
    return s


def _non_square_with_a_nan(s):
    s = s[:, :, :36].copy()
    s[0, 50, 1] = np.nan
    return s


# Each stderr was recorded before calibrate scored blocks from row slabs.
@pytest.mark.parametrize(
    "edit, message",
    [
        (_nan_in_a_later_block, "non-finite attention"),
        (_negative_entry, "attention matrix entries must be nonnegative"),
        (_negative_block_before_a_nan_block, "attention matrix entries must be nonnegative"),
        (_negative_before_an_inf_in_one_block, "non-finite attention"),
        (lambda s: s[:, :, :36].copy(), "attention matrix must be square, got (72, 36)"),
        (_non_square_with_a_nan, "non-finite attention"),
        (lambda s: s[:, :0, :0].copy(), "empty attention matrix"),
        (lambda s: s[:, :64, :64].copy(), "mask has 72 tokens, attention matrix has 64"),
    ],
    ids=["nan-later-block", "negative", "negative-then-nan-block", "negative-then-inf",
         "non-square", "non-square-nan", "empty", "fewer-tokens-than-mask"],
)
def test_calibrate_files_rejects_a_bad_block_as_before(tmp_path, capsys, edit, message):
    lat, att, _ = _write_calibration_files(tmp_path)
    write_tensor(att, edit(read_tensor(att)))
    out = tmp_path / "out"
    assert main(["calibrate", "--latent", str(lat), "--attention", str(att), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not out.exists()


def test_calibrate_files_rejects_a_mask_of_the_wrong_shape(tmp_path, capsys):
    lat, att, mask = _write_calibration_files(tmp_path)
    write_tensor(mask, read_tensor(mask)[:, :, :5].copy())
    out = tmp_path / "out"
    argv = ["calibrate", "--latent", str(lat), "--attention", str(att), "--mask", str(mask)]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "invalid input: mask shape (2, 6, 5) != expected (2, 6, 6)\n"
    assert not out.exists()


def test_calibrate_files_scores_a_boolean_stack_as_its_0_1_floats(tmp_path, capsys):
    lat, att, _ = _write_calibration_files(tmp_path)
    stack = read_tensor(att) > 1 / 72
    digests = []
    for name, array in (("bool", stack), ("float", stack.astype(np.float64))):
        write_tensor(att, array)
        out = tmp_path / name
        assert main(["calibrate", "--latent", str(lat), "--attention", str(att), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        digests.append((out / "block_table.json").read_bytes())
    assert digests[0] == digests[1]


def test_calibrate_files_streams_the_attention_stack(tmp_path):
    # An 8 x 256 x 256 stack is 4 MiB; read one 512 KiB block at a time, the
    # run's traced peak stays well below the stack's own size.
    rng = np.random.default_rng(8)
    latent = rng.normal(size=(1, 4, 4, 8, 8))
    latent[0, :, :, 2:6, 2:6] += 3.0
    stack = rng.random(size=(8, 256, 256))
    write_tensor(tmp_path / "latent.atnb", latent)
    write_tensor(tmp_path / "attention.atnb", stack)
    argv = [
        "calibrate", "--latent", str(tmp_path / "latent.atnb"),
        "--attention", str(tmp_path / "attention.atnb"), "--out", str(tmp_path / "out"),
    ]
    tracemalloc.start()
    try:
        rc = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < stack.nbytes


def test_calibrate_malformed_tensor_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.atnb"
    bad.write_bytes(b"garbage bytes")
    rc = main(["calibrate", "--latent", str(bad), "--attention", str(bad), "--out", str(tmp_path)])
    assert rc == 3
    assert "tensor format error" in capsys.readouterr().err


# -- simulate -------------------------------------------------------------------


def test_simulate_default_schedule(tmp_path, capsys):
    rc = main(["simulate", "--steps", "10", "--blocks", "4", "--out", str(tmp_path)])
    assert rc == 0
    assert "scaled_cells=" in capsys.readouterr().out
    lines = (tmp_path / "trajectory.csv").read_text().strip().split("\n")
    assert len(lines) == 11  # header + 10 steps
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["flops"]["exact_match"] is True
    assert summary["flops"]["measured_cells"] == summary["flops"]["expected_cells"]
    assert summary["conflict"]["base_mass_image"] > summary["conflict"]["base_mass_text"]
    assert summary["active_steps"] == [1, 2, 3]  # phi(t) = (t-1)/9 <= 0.30


def test_every_conflict_report_field_reaches_the_summary(tmp_path):
    # A field is written to summary.json's conflict object, or is one of the
    # per-query tuples its three named summaries are built from; a field
    # that is computed and then dropped fails here.
    assert main(["simulate", "--steps", "2", "--blocks", "2", "--out", str(tmp_path)]) == 0
    conflict = json.loads((tmp_path / "summary.json").read_text())["conflict"]
    summarised = {"entropy_ratios", "nondegenerate"}
    assert {"entropy_ratio_mean", "entropy_ratio_max_nondegenerate",
            "nondegenerate_queries"} <= conflict.keys()
    for f in dataclasses.fields(simulate.ConflictReport):
        assert f.name in conflict or f.name in summarised, f.name


def test_simulate_gamma_one_zero_cells(tmp_path):
    rc = main(["simulate", "--steps", "8", "--blocks", "4", "--gamma", "1.0", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["flops"]["measured_cells"] == 0
    assert summary["flops"]["model_fraction"] == 0.0


def test_simulate_energy_gamma_max_one_scales_nothing(tmp_path, capsys):
    # The energy coefficient 1 + (gamma_max - 1) * logistic(.) is exactly 1.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mode": "energy", "gamma_max": 1.0}))
    out = tmp_path / "out"
    rc = main(["simulate", "--config", str(cfg_path), "--steps", "10", "--blocks", "4",
               "--out", str(out)])
    assert rc == 0
    assert "scaled_cells=0 " in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["flops"]["measured_cells"] == 0
    assert summary["flops"]["expected_cells"] == 0
    assert summary["flops"]["multiplies_total"] == 0
    assert summary["flops"]["exact_match"] is True
    with open(out / "trajectory.csv", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    assert all(int(r["active_blocks"]) == 0 and int(r["scaling_multiplies"]) == 0 for r in rows)
    assert all(float(r["entropy_ratio"]) == 1.0 for r in rows)


def test_simulate_preset_flag(tmp_path):
    rc = main(["simulate", "--steps", "8", "--blocks", "4", "--preset", "late", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["window"] == {"low": 0.70, "high": 1.00}
    assert summary["active_steps"] == [6, 7, 8]


def test_simulate_byte_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["simulate", "--steps", "6", "--blocks", "2", "--out", str(d)]) == 0
    assert (d1 / "trajectory.csv").read_bytes() == (d2 / "trajectory.csv").read_bytes()
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()


TINY_RUNS = {
    "verify": ["verify", "curvature", "--draws", "2"],
    "sweep": ["sweep", "--draws", "2"],
    "calibrate": ["calibrate", "--samples", "1", "--blocks", "2"],
    "simulate": ["simulate", "--steps", "2", "--blocks", "2"],
}


@pytest.mark.parametrize("arch, code", [("factorized", 2), ("joint", 0)])
@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_arch_accepts_joint_only(tmp_path, capsys, command, arch, code):
    # Scaling is key-side only, which is a per-group operation in joint
    # attention alone; no command can honour a factorized layout.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"arch": arch}))
    out = tmp_path / "out"
    assert main([*TINY_RUNS[command], "--config", str(cfg_path), "--out", str(out)]) == code
    if code:
        assert "config invalid at arch" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


# The config-file keys each command reads, spelled out apart from the CLI's own
# table; ``arch`` is accepted by every command.
READ_KEYS = {
    "verify": {"arch", "seed", "out_dir", "draws", "probes", "format"},
    "sweep": {"arch", "seed", "out_dir", "draws", "alpha_grid", "format"},
    "calibrate": {"arch", "seed", "out_dir", "samples", "num_blocks", "high_quantile", "tau"},
    "simulate": {
        "arch", "seed", "out_dir", "total_steps", "num_blocks", "gamma", "gamma_max", "kappa",
        "mode", "position", "boost", "window", "block_gates", "dims", "format",
    },
}


def _default_config(keys):
    defaults = RunConfig().to_dict()
    return {key: defaults[key] for key in sorted(keys)}


def test_every_config_key_is_read_by_some_command():
    assert set().union(*READ_KEYS.values()) == set(_SCHEMA["properties"])


def test_config_key_the_command_does_not_read_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"gamma": 7, "tau": 0.9, "window": {"preset": "late"}, "total_steps": 3})
    )
    out = tmp_path / "out"
    argv = ["verify", "curvature", "--draws", "5", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: verify does not read config keys: gamma, tau, total_steps, window\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_config_keys_each_command_does_not_read_are_rejected(tmp_path, capsys, command):
    unread = set(_SCHEMA["properties"]) - READ_KEYS[command]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_default_config(unread)))
    out = tmp_path / "out"
    assert main([*TINY_RUNS[command], "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {command} does not read config keys: {', '.join(sorted(unread))}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(TINY_RUNS))
def test_config_keys_each_command_reads_are_accepted(tmp_path, command):
    # Every key the command reads, at its default value: the reports match a
    # run without a config byte for byte.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_default_config(READ_KEYS[command])))
    plain, configured = tmp_path / "plain", tmp_path / "configured"
    assert main([*TINY_RUNS[command], "--out", str(plain)]) == 0
    assert main([*TINY_RUNS[command], "--config", str(cfg_path), "--out", str(configured)]) == 0
    files = sorted(f.name for f in plain.iterdir())
    assert files == sorted(f.name for f in configured.iterdir())
    for name in files:
        assert (plain / name).read_bytes() == (configured / name).read_bytes()


# An empty value counts as given: each run names a value that cannot be read,
# so it exits non-zero instead of running another mode.
EMPTY_VALUE_RUNS = {
    "sweep-z": (["sweep", "--z", ""], 2, "could not parse --z vector ''"),
    "sweep-alpha-grid": (
        ["sweep", "--z", "2,1,0", "--alpha-grid", ""], 2, "config invalid at alpha_grid"
    ),
    "calibrate-fixture": (["calibrate", "--fixture", ""], 2, "unknown fixture ''"),
    "calibrate-latent": (
        ["calibrate", "--latent", "", "--samples", "1", "--blocks", "2"],
        2,
        "--latent requires --attention",
    ),
    "verify-config": (["verify", "--draws", "2", "--probes", "2", "--config", ""], 3, "i/o error"),
}


@pytest.mark.parametrize("name", sorted(EMPTY_VALUE_RUNS))
def test_empty_flag_value_is_given_and_rejected(tmp_path, capsys, name):
    argv, code, message = EMPTY_VALUE_RUNS[name]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_empty_out_dir_is_given_and_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ATTNLAB_OUT", str(tmp_path / "envout"))
    assert main(["verify", "curvature", "--draws", "2", "--out", ""]) == 3
    assert "i/o error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# Flags that set no config key of their own name, each with what it does.
NOT_CONFIG_FLAGS = {
    "--config": "names the config file",
    "--inject-bug": "harness self-test, not a run setting",
    "--z": "an explicit logit vector in place of the seeded draws",
    "--fixture": "selects fixture mode",
    "--latent": "an input file",
    "--attention": "an input file",
    "--mask": "an input file",
    "--preset": "sets window to {'preset': value}",
}


def test_every_config_flag_has_its_key_as_dest():
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            flag = action.option_strings[0] if action.option_strings else None
            if flag in (None, "-h") or flag in NOT_CONFIG_FLAGS:
                continue
            assert action.dest in ("seed", "out_dir", *cli.CONFIG_KEYS[command]), (command, flag)
            assert action.dest in _SCHEMA["properties"], (command, flag)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simulate_point_mass_conditioning_has_entropy_ratio_one(tmp_path, fmt):
    # One conditioning key: its renormalized block is the same point mass with
    # and without scaling, so every step's ratio is exactly 1.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"dims": {"n_text": 0, "n_image": 1}}))
    out = tmp_path / "out"
    argv = ["simulate", "--config", str(cfg_path), "--steps", "3", "--blocks", "2"]
    with pytest.warns(UserWarning, match="empty group 'text'"):
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
    text = (out / f"trajectory.{fmt}").read_text()
    assert "nan" not in text.lower()
    if fmt == "csv":
        rows = list(csv.DictReader(text.splitlines()))
    else:
        rows = json.loads(text)["rows"]
    assert [int(r["active_blocks"]) for r in rows] == [1, 0, 0]
    assert [float(r["entropy_ratio"]) for r in rows] == [1.0, 1.0, 1.0]


def test_to_dict_round_trips_an_alpha_grid():
    cfg = RunConfig.from_dict({"alpha_grid": [0.5, 2]})
    assert cfg.alpha_grid == (0.5, 2.0)
    data = cfg.to_dict()
    assert data["alpha_grid"] == [0.5, 2.0]
    assert RunConfig.from_dict(json.loads(json.dumps(data))) == cfg


# -- non-finite numbers ---------------------------------------------------------


@pytest.mark.parametrize(
    "data, message",
    [
        ({"boost": float("nan")}, "boost: nan is not a finite number"),
        ({"kappa": float("inf")}, "kappa: inf is not a finite number"),
        ({"window": {"low": float("nan"), "high": 0.5}}, "window/low: nan is not a finite number"),
        ({"alpha_grid": [1.0, float("inf")]}, "alpha_grid/1: inf is not a finite number"),
    ],
)
def test_non_finite_number_is_rejected_after_the_schema(data, message):
    check_config(data)  # the schema, like jsonschema, admits them
    with pytest.raises(ConfigError) as exc:
        RunConfig.from_dict(data)
    assert str(exc.value) == f"config invalid at {message}"


def test_schema_error_is_reported_before_a_non_finite_number():
    with pytest.raises(ConfigError, match="config invalid at tau: inf is greater than the maximum"):
        RunConfig.from_dict({"tau": float("inf"), "boost": float("nan")})


# Runs whose config fails after the schema check, each given as its argv, the
# text of a config file to add (or None), and the one line it writes to stderr.
REJECTED_CONFIG_RUNS = {
    "simulate-gamma-nan": (
        ["simulate", "--steps", "3", "--blocks", "2", "--gamma", "nan"],
        None,
        "config invalid at gamma: nan is not a finite number",
    ),
    "calibrate-tau-nan": (
        ["calibrate", "--samples", "2", "--blocks", "3", "--tau", "nan"],
        None,
        "config invalid at tau: nan is not a finite number",
    ),
    "simulate-kappa-infinity": (
        ["simulate", "--steps", "3", "--blocks", "2"],
        '{"mode": "energy", "kappa": Infinity}',
        "config invalid at kappa: inf is not a finite number",
    ),
    "simulate-unknown-fixture": (
        ["simulate"],
        '{"block_gates": {"source": "fixture", "name": "nosuch"}}',
        f"unknown fixture 'nosuch'; available: {list(fixture_names())}",
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTED_CONFIG_RUNS))
def test_rejected_config_exits_2_and_writes_nothing(tmp_path, capsys, name):
    argv, config, message = REJECTED_CONFIG_RUNS[name]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        argv = [*argv, "--config", str(cfg_path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


# The size flags each command takes, by config key, at a tiny value.
SIZE_FLAGS = {
    "verify": {"draws": ["--draws", "2"], "probes": ["--probes", "2"]},
    "sweep": {"draws": ["--draws", "2"]},
    "calibrate": {"samples": ["--samples", "1"], "num_blocks": ["--blocks", "2"]},
    "simulate": {"total_steps": ["--steps", "2"], "num_blocks": ["--blocks", "2"]},
}
# Every integer config key, as its path in the file, at a valid integral float.
INTEGER_KEYS = {
    ("seed",): 1.0, ("draws",): 2.0, ("samples",): 1.0, ("probes",): 2.0,
    ("total_steps",): 2.0, ("num_blocks",): 2.0, ("dims", "n_text"): 1.0,
    ("dims", "n_image"): 1.0, ("dims", "n_video"): 2.0, ("dims", "d_k"): 2.0,
    ("dims", "d_v"): 2.0,
}
INTEGER_KEY_RUNS = [
    (command, path) for path in INTEGER_KEYS for command in sorted(READ_KEYS)
    if path[0] in READ_KEYS[command]
]


def test_the_integer_key_table_covers_the_schema():
    props = _SCHEMA["properties"]
    integer = {(key,) for key in props if props[key].get("type") == "integer"}
    integer |= {("dims", key) for key, sub in props["dims"]["properties"].items()
                if sub["type"] == "integer"}
    assert set(INTEGER_KEYS) == integer


@pytest.mark.parametrize(
    "command, path", INTEGER_KEY_RUNS, ids=[f"{c}-{'/'.join(p)}" for c, p in INTEGER_KEY_RUNS]
)
def test_an_integral_float_for_an_integer_key_exits_2_and_writes_nothing(
    tmp_path, capsys, command, path
):
    # JSON Schema counts 4.0 as an integer, but every size is an int: the run
    # names the key before it writes a report.
    value = INTEGER_KEYS[path]
    data = {path[0]: value} if len(path) == 1 else {path[0]: {path[1]: value}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    flags = [f for key, pair in SIZE_FLAGS[command].items() if key != path[0] for f in pair]
    out = tmp_path / "out"
    assert main([command, *flags, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: config invalid at {'/'.join(path)}: {value!r} is not an integer\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("gates, at", [([1.0, 0], 0), ([1, 0.0], 1)])
def test_an_integral_float_gate_exits_2_and_writes_nothing(tmp_path, capsys, gates, at):
    # The table above walks only the top-level and dims keys; a gate is an
    # integer item inside block_gates.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"block_gates": {"source": "explicit", "gates": gates}}))
    out = tmp_path / "out"
    argv = ["simulate", "--steps", "2", "--blocks", "2", "--config", str(cfg_path)]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: config invalid at block_gates/gates/{at}: {gates[at]!r} is not an integer\n"
    )
    assert not out.exists()


# -- violations found by the checks themselves ----------------------------------


def test_verify_counts_each_violating_draw(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verification, "PAIRWISE_TOLERANCE", -1.0)
    res = verification.run_suite("scale-equivalence", seed=0, draws=4, probes=1)
    assert res.violations == 4
    assert res.detail.startswith("draw 0: pairwise diff ")
    assert res.detail.endswith(" exceeds -1.0")
    out = tmp_path / "out"
    assert main(["verify", "scale-equivalence", "--draws", "4", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "scale-equivalence: FAIL rows=4 violations=4 -> " in captured.out
    assert captured.err == f"first failure [scale-equivalence]: {res.detail}\n"


def test_sweep_exits_1_when_a_draw_has_not_collapsed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(verification, "COLLAPSE_NORM_LIMIT", 0.0)
    out = tmp_path / "out"
    assert main(["sweep", "--draws", "3", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "violations=3 -> " in captured.out
    assert captured.err == (
        "first failure: draw 0: monotone_ok=True envelope_ok=True collapse_ok=False bounds_ok=True\n"
    )


def test_simulate_exits_1_on_a_flops_audit_mismatch(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(simulate, "active_steps", lambda total_steps, window: ())
    out = tmp_path / "out"
    assert main(["simulate", "--steps", "4", "--blocks", "4", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "scaled_cells=2 -> " in captured.out
    assert captured.err == "flops audit mismatch: measured 2 cells, expected 0\n"


# -- runs rejected before anything is written --------------------------------------

# Each run given as its argv, the text of a config file to add (or None), and
# the one line it writes to stderr.
UNWRITTEN_RUNS = {
    "simulate-blocks-flag-vs-explicit-gates": (
        ["simulate", "--steps", "3", "--blocks", "4"],
        '{"block_gates": {"source": "explicit", "gates": [1, 0, 1]}}',
        "config error: num_blocks is 4, but the block gates cover 3 blocks",
    ),
    "simulate-blocks-flag-vs-fixture": (
        ["simulate", "--steps", "3", "--blocks", "4"],
        '{"block_gates": {"source": "fixture", "name": "wan2.1"}}',
        "config error: num_blocks is 4, but the block gates cover 34 blocks",
    ),
    "simulate-blocks-key-vs-explicit-gates": (
        ["simulate", "--steps", "3"],
        '{"num_blocks": 5, "block_gates": {"source": "explicit", "gates": [1, 0, 1]}}',
        "config error: num_blocks is 5, but the block gates cover 3 blocks",
    ),
    "simulate-no-tokens": (
        ["simulate", "--steps", "3", "--blocks", "2"],
        '{"dims": {"n_text": 0, "n_image": 0}}',
        "invalid input: need at least one conditioning token and one video token",
    ),
    "sweep-blank-alpha": (
        ["sweep", "--z", "2,1,0", "--alpha-grid", "1,,2"],
        None,
        "config error: could not parse --alpha-grid '1,,2'",
    ),
    "sweep-non-numeric-alpha": (
        ["sweep", "--z", "2,1,0", "--alpha-grid", "1,x"],
        None,
        "config error: could not parse --alpha-grid '1,x'",
    ),
}


@pytest.mark.parametrize("name", sorted(UNWRITTEN_RUNS))
def test_rejected_run_exits_2_and_makes_no_directory(tmp_path, capsys, name):
    argv, config, message = UNWRITTEN_RUNS[name]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        argv = [*argv, "--config", str(cfg_path)]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


def test_num_blocks_that_matches_the_gates_is_accepted():
    explicit = {"source": "explicit", "gates": [1, 0, 1]}
    cfg = RunConfig.from_dict({"num_blocks": 3, "block_gates": explicit})
    assert cfg.schedule().gates.gates == (1, 0, 1)
    with pytest.raises(ConfigError, match="num_blocks is 8, but the block gates cover 3 blocks"):
        RunConfig.from_dict({"num_blocks": 8, "block_gates": explicit})


def test_verify_makes_no_directory_when_a_suite_fails_to_run(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("suite broke")

    monkeypatch.setattr(verification, "run_suite", broken)
    out = tmp_path / "out"
    assert main(["verify", "--draws", "2", "--probes", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "invalid input: suite broke\n"
    assert not out.exists()


def test_gamma_that_overflows_the_keys_is_named_and_writes_nothing(tmp_path, capsys):
    # The key scaling leaves the float64 range: the error names gamma, and no
    # numpy overflow warning is printed (tier-1 turns warnings into errors).
    out = tmp_path / "out"
    argv = ["simulate", "--steps", "3", "--blocks", "2", "--gamma", "1e308", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "invalid input: gamma must keep the scaled keys finite, got 1e+308\n"
    )
    assert not out.exists()


def test_alpha_that_overflows_the_logits_is_named_and_writes_nothing(tmp_path, capsys):
    # 1e308 * 3 leaves the float64 range though the logits are finite: the
    # error names the grid's alpha, and no numpy overflow warning is printed.
    out = tmp_path / "out"
    assert main(["sweep", "--z", "3,1", "--alpha-grid", "1e308", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "invalid input: alpha must keep the tempered logits finite, got 1e+308\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "z, grid, message",
    [
        # z - max(z) overflows: the profile would read NaN and certify.
        ("1e308,-1e308", "1", "logit spread max - min = 1e+308 - (-1e+308) overflows float64"),
        ("1e308,-1e308", None, "logit spread max - min = 1e+308 - (-1e+308) overflows float64"),
        # A tied maximum whose spread overflows cannot be profiled on any grid.
        ("1e308,1e308,-1e308", None,
         "logit spread max - min = 1e+308 - (-1e+308) overflows float64"),
        # 50 / gap overflows: the default grid's alpha is not the user's to blame.
        ("1e-320,0", None,
         "draw 0 has a top-two gap of 1e-320, so the default grid SWEEP_GAP_RATIOS / gap "
         "overflows; give an explicit grid with --alpha-grid"),
        ("1,1,0", None,
         "draw 0 has a tied maximum (top-two gap 0), so the default grid SWEEP_GAP_RATIOS / gap "
         "is undefined; give an explicit grid with --alpha-grid"),
        ("inf,0", "1", "non-finite logits"),
        ("1e308,nan", None, "non-finite logits"),
    ],
)
def test_sweep_logits_it_cannot_profile_are_named_and_write_nothing(
    tmp_path, capsys, z, grid, message
):
    # Exit 2 with no numpy warning first (tier-1 turns warnings into errors).
    out = tmp_path / "out"
    grid_flag = [] if grid is None else ["--alpha-grid", grid]
    assert main(["sweep", "--z", z, *grid_flag, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"invalid input: {message}\n"
    assert not out.exists()


def test_alpha_whose_square_overflows_is_named_and_writes_nothing(tmp_path, capsys):
    # 1e160 * 3 is finite, but alpha^2 is not: the curvature would read NaN
    # and certify. The error names alpha, and no numpy warning is printed.
    out = tmp_path / "out"
    assert main(["sweep", "--z", "3,1", "--alpha-grid", "1e160", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "invalid input: alpha must keep the curvature and its decay bound finite, got 1e+160\n"
    )
    assert not out.exists()


def test_energy_gamma_that_overflows_the_logits_is_named_and_writes_nothing(tmp_path, capsys):
    # gamma_max = 1e308 gives an energy coefficient near 4.9e307: every scaled
    # key stays finite, but Q K^T leaves the float64 range. The error names
    # the coefficient, and no numpy overflow warning is printed.
    cfg = tmp_path / "e.json"
    cfg.write_text(json.dumps({"mode": "energy", "gamma_max": 1e308, "window": {"preset": "all"}}))
    out = tmp_path / "out"
    argv = ["simulate", "--steps", "3", "--blocks", "2", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    match = re.fullmatch(r"invalid input: gamma must keep the scaled logits finite, got (\S+)\n", err)
    assert match, err
    assert float(match[1]) == pytest.approx(4.90772347985081e307, rel=1e-12)
    assert not out.exists()
