"""Every public library function is reached by some CLI path, or has a named reason not to be.

This installs perfbench/tracer.py's ``Tracer`` in process, runs every
subcommand and mode at tiny size, and compares the public module-level
functions that were never called with ``UNREACHED``. A function that drops
out of every CLI path shows up here, as does an allowlisted one that a CLI
path starts to use. The tracer is uninstalled before the test returns.
"""

import json

import numpy as np

from attnlab import cli, tensorio
from test_bench_names import _load_tracer

# Public functions no CLI path reaches, each with why it stays.
UNREACHED = {
    "scheduling.block_gate": "pinned by the acceptance module",
    "simulate.ddim_step": "pinned by the acceptance module",
    "simulate.sharpening_curve": "pinned by the acceptance module",
    "numerics.softmax_vec": "pinned by the acceptance module",
    "analysis.curvature_report": "named as a layer in BENCHMARK.json",
    "analysis.group_mass_report": "named as a layer in BENCHMARK.json",
    "tensorio.decode_tensor": "named as a layer in BENCHMARK.json",
    "tensorio.write_tensor": "writes the benchmark's generated inputs",
}


def _write_inputs(d):
    """ATNB latent, attention stack and mask that calibrate reads in files mode."""
    rng = np.random.default_rng(0)
    latent = rng.normal(size=(1, 3, 1, 4, 4))
    latent[0, :, 0, :2, :2] += 3.0
    stack = np.full((2, 16, 16), 1.0 / 16)
    stack[1, :4] += 1.0
    mask = np.zeros((1, 4, 4), dtype=bool)
    mask[0, :2, :2] = True
    paths = {}
    for name, array in (("latent", latent), ("attention", stack), ("mask", mask)):
        paths[name] = str(d / f"{name}.atnb")
        with open(paths[name], "wb") as f:
            f.write(tensorio.encode_tensor(array))
    return paths


def _configs(d):
    configs = {
        "energy": {"mode": "energy", "window": {"preset": "all"}},
        "explicit": {
            "window": {"low": 0.0, "high": 0.5},
            "block_gates": {"source": "explicit", "gates": [1, 0]},
        },
        "fixture": {"block_gates": {"source": "fixture", "name": "wan2.1"}},
    }
    for name, config in configs.items():
        (d / f"{name}.json").write_text(json.dumps(config))
    return {name: str(d / f"{name}.json") for name in configs}


def test_every_public_function_is_reached_or_allowlisted(tmp_path):
    tracer = _load_tracer()
    spans = tracer.Tracer()
    spans.install()
    try:
        files = _write_inputs(tmp_path)
        configs = _configs(tmp_path)
        out = ["--out", str(tmp_path / "out")]
        runs = [
            (["verify", "--draws", "3", "--probes", "2"], 0),
            (["verify", "--draws", "3", "--probes", "2", "--format", "json"], 0),
            (["sweep", "--draws", "3"], 0),
            (["sweep", "--z", "2,1,0"], 0),
            (["sweep", "--z", "1,1,0", "--alpha-grid", "1,2"], 0),
            (["sweep", "--z", "1,1,0"], 2),
            (["calibrate", "--samples", "1", "--blocks", "2"], 0),
            (["calibrate", "--fixture", "wan2.1"], 0),
            (["calibrate", "--latent", files["latent"], "--attention", files["attention"]], 0),
            (["calibrate", "--latent", files["latent"], "--attention", files["attention"],
              "--mask", files["mask"]], 0),
            (["simulate", "--steps", "3", "--blocks", "2"], 0),
            (["simulate", "--config", configs["energy"], "--steps", "3", "--blocks", "2"], 0),
            (["simulate", "--config", configs["explicit"], "--steps", "3", "--blocks", "2"], 0),
            (["simulate", "--config", configs["fixture"], "--steps", "2"], 0),
        ]
        codes = [cli.main(argv + out) for argv, _ in runs]
    finally:
        spans.uninstall()
    assert codes == [rc for _, rc in runs]
    called = {spans.names[i] for i in set(spans.name_id)}
    public = {n for n in spans.wrapped if not n.startswith("verification.suite.")}
    assert {n: UNREACHED.get(n) for n in public - called} == UNREACHED
