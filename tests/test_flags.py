"""Every CLI flag is honoured: setting it changes the report bytes, or it is allowlisted.

``FLAGS`` holds exactly one entry per (subcommand, flag) that
``cli.build_parser()`` declares, verify's positional ``suite`` included. An
entry names a tiny base run and the arguments that set the flag to another
value, and that run must write different report bytes from the base run. A
run whose flag cannot change the bytes is in ``SAME_BYTES`` with its reason,
and it must write the base run's bytes exactly.
"""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from attnlab import cli, tensorio
from attnlab.numerics import row_softmax

BASES = {
    "verify": ["verify", "--draws", "2", "--probes", "2"],
    "sweep": ["sweep", "--draws", "2"],
    "calibrate-synthetic": ["calibrate", "--samples", "1", "--blocks", "2"],
    "calibrate-fixture": ["calibrate", "--fixture", "wan2.1"],
    "calibrate-files": ["calibrate", "--latent", "{latent}", "--attention", "{attention}"],
    "simulate": ["simulate", "--steps", "2", "--blocks", "2"],
}

# (subcommand, flag): (base run, the arguments that set the flag)
FLAGS = {
    ("verify", "suite"): ("verify", ["curvature"]),
    ("verify", "--draws"): ("verify", ["--draws", "3"]),
    ("verify", "--probes"): ("verify", ["--probes", "3"]),
    ("verify", "--inject-bug"): ("verify", ["--inject-bug"]),
    ("verify", "--config"): ("verify", ["--config", "{seed_config}"]),
    ("verify", "--seed"): ("verify", ["--seed", "9"]),
    ("verify", "--out"): ("verify", ["--out", "{other_out}"]),
    ("verify", "--format"): ("verify", ["--format", "json"]),
    ("sweep", "--z"): ("sweep", ["--z", "2,1,0"]),
    ("sweep", "--alpha-grid"): ("sweep", ["--alpha-grid", "1,2"]),
    ("sweep", "--draws"): ("sweep", ["--draws", "3"]),
    ("sweep", "--config"): ("sweep", ["--config", "{seed_config}"]),
    ("sweep", "--seed"): ("sweep", ["--seed", "9"]),
    ("sweep", "--out"): ("sweep", ["--out", "{other_out}"]),
    ("sweep", "--format"): ("sweep", ["--format", "json"]),
    ("calibrate", "--fixture"): ("calibrate-fixture", ["--fixture", "framepack_f1"]),
    ("calibrate", "--latent"): ("calibrate-files", ["--latent", "{latent2}"]),
    ("calibrate", "--attention"): ("calibrate-files", ["--attention", "{attention2}"]),
    ("calibrate", "--mask"): ("calibrate-files", ["--mask", "{mask}"]),
    ("calibrate", "--samples"): ("calibrate-synthetic", ["--samples", "2"]),
    ("calibrate", "--blocks"): ("calibrate-synthetic", ["--blocks", "3"]),
    ("calibrate", "--quantile"): ("calibrate-synthetic", ["--quantile", "0.3"]),
    ("calibrate", "--tau"): ("calibrate-synthetic", ["--tau", "0.9"]),
    ("calibrate", "--config"): ("calibrate-synthetic", ["--config", "{seed_config}"]),
    ("calibrate", "--seed"): ("calibrate-synthetic", ["--seed", "9"]),
    ("calibrate", "--out"): ("calibrate-synthetic", ["--out", "{other_out}"]),
    ("simulate", "--steps"): ("simulate", ["--steps", "3"]),
    ("simulate", "--blocks"): ("simulate", ["--blocks", "3"]),
    ("simulate", "--gamma"): ("simulate", ["--gamma", "2"]),
    ("simulate", "--preset"): ("simulate", ["--preset", "late"]),
    ("simulate", "--config"): ("simulate", ["--config", "{seed_config}"]),
    ("simulate", "--seed"): ("simulate", ["--seed", "9"]),
    ("simulate", "--out"): ("simulate", ["--out", "{other_out}"]),
    ("simulate", "--format"): ("simulate", ["--format", "json"]),
}

OUT_REASON = "names the directory the reports go to, not what they hold"
SEED_REASON = (
    "this calibrate mode draws nothing at random; --seed is accepted in every "
    "mode because the calibrate-files benchmark passes it"
)

# (base run, flag): why setting the flag leaves the report bytes as they are.
SAME_BYTES = {
    ("verify", "--out"): OUT_REASON,
    ("sweep", "--out"): OUT_REASON,
    ("calibrate-synthetic", "--out"): OUT_REASON,
    ("simulate", "--out"): OUT_REASON,
    ("calibrate-files", "--seed"): SEED_REASON,
    ("calibrate-fixture", "--seed"): SEED_REASON,
}

# Every entry of FLAGS, plus --seed in calibrate's other two modes.
RUNS = list(FLAGS.values()) + [
    ("calibrate-files", ["--seed", "9"]),
    ("calibrate-fixture", ["--seed", "9"]),
]


def _declared():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        (name, a.option_strings[0] if a.option_strings else a.dest)
        for name, p in sub.choices.items()
        for a in p._actions
        if not isinstance(a, argparse._HelpAction)
    }


def _flag(args):
    return args[0] if args[0].startswith("--") else "suite"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """ATNB inputs for calibrate's files mode, each with an alternative, and a config."""
    d = tmp_path_factory.mktemp("flag-inputs")
    rng = np.random.default_rng(6)
    latent = rng.normal(0.0, 0.2, size=(1, 4, 1, 6, 6))
    latent2 = latent.copy()
    latent[0, :, :, 1:4, 1:4] += 3.0
    latent2[0, :, :, 3:, :] += 3.0
    blob = np.zeros((1, 6, 6))
    blob[:, 1:4, 1:4] = 1.0
    logits = rng.normal(size=(3, 36, 36)) + np.array([-1.0, 0.0, 4.0])[:, None, None] * blob.ravel()
    attention = row_softmax(logits.reshape(-1, 36)).reshape(3, 36, 36).transpose(0, 2, 1)
    mask = np.zeros((1, 6, 6), dtype=bool)
    mask[:, :, :2] = True
    arrays = {
        "latent": latent, "latent2": latent2, "attention": attention,
        "attention2": attention[::-1], "mask": mask,
    }
    paths = {}
    for name, array in arrays.items():
        paths[name] = str(d / f"{name}.atnb")
        with open(paths[name], "wb") as f:
            f.write(tensorio.encode_tensor(array))
    paths["seed_config"] = str(d / "seed.json")
    (d / "seed.json").write_text(json.dumps({"seed": 9}))
    return paths


def _run(argv, out):
    """Exit code and {file name: bytes} of the reports the run writes to ``out``."""
    code = cli.main([argv[0], "--out", str(out), *argv[1:]])
    if "--out" in argv:  # the run's own --out comes later and wins
        out = Path(argv[argv.index("--out") + 1])
    return code, {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_declared_flags_are_the_table():
    assert _declared() == set(FLAGS)
    assert len(FLAGS) == 34


def test_every_allowlisted_run_is_run():
    assert set(SAME_BYTES) <= {(base, _flag(args)) for base, args in RUNS}


@pytest.mark.parametrize(
    "base, args", RUNS, ids=[f"{base} {' '.join(args)}" for base, args in RUNS]
)
def test_flag_changes_report_bytes_unless_allowlisted(tmp_path, inputs, base, args):
    paths = dict(inputs, other_out=str(tmp_path / "other"))
    base_argv = [a.format(**paths) for a in BASES[base]]
    set_argv = base_argv + [a.format(**paths) for a in args]
    base_code, base_reports = _run(base_argv, tmp_path / "base")
    code, reports = _run(set_argv, tmp_path / "set")
    assert base_code == 0
    assert code == (1 if "--inject-bug" in args else 0)
    assert reports
    if (base, _flag(args)) in SAME_BYTES:
        assert reports == base_reports
    else:
        assert reports != base_reports
