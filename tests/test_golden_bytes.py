"""Report bytes pinned across commits: the behaviour-preserving refactor contract.

Each case runs one small CLI command and compares the sha256 of every report
it writes with a digest recorded before the verification harness, the sweep
and the denoiser block loop were folded into one implementation each. A
refactor that keeps behaviour keeps these bytes; a deliberate output change
must re-record the digests and say why in CHANGES.md. The three cases
``sweep-random-300``, ``verify-curvature-300`` and ``sweep-tied-maximum`` were
recorded before the curvature pass was stacked per draw (one softmax stack,
one Hessian stack and one eigensolve per draw), so they pin that change at scale.
``simulate-energy-unit-gamma`` was recorded before ``scheduled_attention``
became the one place that decides whether a cell is scaled: with kappa = 1e-3
the energy coefficient of its gated cells rounds to exactly 1.0.
``simulate-json`` and ``sweep-json`` were recorded before the JSON writer
stopped converting row values, so they pin the JSON trajectory and sweep rows.
``simulate-key-image`` was recorded before the query-side scaling path was
deleted: it is the one case that scales a single key group, in the denoiser
and in the conflict experiment. ``simulate-key-text`` was recorded before
the conflict experiment's per-query loop became one stacked pass: it scales
the text group alone, and its conflict summary has nonzero argmax flips.
``verify-scale-equivalence-1000`` was recorded before the scale-equivalence
suite drew every case first and made one softmax pass per key count: at 1,000
draws each key count holds dozens of draws, where the 20- and 30-draw cases
leave most of them with one.
``simulate-long`` is the benchmark's simulate-long workload at seed 1, with
its exact argv: 3,200 (block, step) cells, 480 of them scaled. It was
recorded before a scaled cell's baseline ran on the video query rows alone,
before the denoiser's norms were solved as one stack, and before contiguous
key groups were indexed by slice.
``calibrate-files`` and ``calibrate-files-mask``
were recorded before calibrate read the attention stack one block at a time;
their ATNB inputs are written by ``_write_calibration_inputs``. Their
128 x 128 blocks fit in one 512 KiB row slab, so ``calibrate-files-slabs``
was recorded before calibrate scored each block from row slabs: its
384 x 384 blocks span two full slabs and a partial one.
The entropy-slope reports and every sweep report were re-recorded once
``analysis._variance_rows`` replaced E[z^2] - E[z]^2 with two passes about
z_max: only their variance column (and, in entropy-slope, the slope_gap and
margin columns derived from it) changed. The curvature reports and every
sweep report but ``sweep-tied-maximum`` were re-recorded once ``tail_mass``
became the sum of the non-maximal probabilities instead of 1 - p_max: only
that column changed. The curvature reports and every sweep report but
``sweep-tied-maximum`` were re-recorded once the secular solve replaced the
dense Hessian eigensolve and the top Gershgorin term became 2 p_max t: only
``spectral_norm`` and ``gershgorin_bound`` changed, and in the curvature
reports the ``margin`` and ``collapse_norm`` columns derived from the norm.

Float output depends on the numpy build, so the digests hold only for the
numpy version they were recorded with; under any other version the test
skips and says so.
"""

import hashlib
import json

import numpy as np
import pytest

from attnlab.cli import main
from attnlab.numerics import row_softmax
from attnlab.tensorio import write_tensor

RECORDED_NUMPY = "2.4.6"

CONFIGS = {
    "energy": {"mode": "energy", "window": {"preset": "all"}},
    "energy_unit_gamma": {"mode": "energy", "kappa": 0.001},
    "key_image": {"position": "key-image"},
    "key_text": {"position": "key-text"},
}

CASES = {
    "verify-csv": (
        ["verify", "--draws", "30", "--probes", "6", "--seed", "5"],
        {
            "verify_curvature.csv": "5a90cc4416287a15dbb7bb643c777562f67bbae2525e2a351e1b1581baaf4251",
            "verify_deviation.csv": "dc3d6212936d14eaa930eae2cf5001d59710c10cb6088a6723c964ea53f99e13",
            "verify_entropy-slope.csv": "ea8ba2a344052984cecbfc39f5ef2db200050d8568073b9308b9e73cee37702c",
            "verify_lipschitz.csv": "84a7d47b8c2e353efb8df62952a5a35d6d88bf9d50b19755fb223d1907412114",
            "verify_scale-equivalence.csv": "0c48b53445d1c8023e0b50b73445b4acc79a6b5b81dd54e8fb7e9450705eb07f",
        },
    ),
    "verify-json": (
        ["verify", "--draws", "20", "--probes", "4", "--format", "json"],
        {
            "verify_curvature.json": "d207410a3503c32385f7c7b9a4b643ce60d2d6bb27180e473c836af41f08fe68",
            "verify_deviation.json": "73f6b12cd9a38dd3be1095ac1ea217473dcb3b53fc0cc95d15b5b666295ae786",
            "verify_entropy-slope.json": "0c00170515500f6a95112f0dcaa985b558ca7fd1c84a6300c5741199f11c8cbc",
            "verify_lipschitz.json": "914fb2cd54ddbb576fa18e39f1ddcb99f3aa69ce62fa8e6ab5b1d9b0b81c8d45",
            "verify_scale-equivalence.json": "9f17accdd7afcbe222b37a6bc12c319463eb761b4f67f93c52b0a03eeddc0679",
        },
    ),
    "sweep-random": (
        ["sweep", "--draws", "20", "--seed", "7"],
        {"sweep.csv": "35aff91e6eec48a7ae0d5d9539a01ca85d7ebd7247856dbf8c7232d62dfcf924"},
    ),
    "sweep-json": (
        ["sweep", "--format", "json", "--draws", "20", "--seed", "7"],
        {"sweep.json": "7d36249ab3aad86d95861bf8e9953ac6ec2b71266ac7d130e940af4ea10c59c5"},
    ),
    "sweep-vector": (
        ["sweep", "--z", "2,1,0", "--alpha-grid", "1,2"],
        {"sweep.csv": "ea6aef6de876a503fd96a72d7b3cbc7e759e0b6a7c695f625a0abe06032e44ff"},
    ),
    "sweep-random-300": (
        ["sweep", "--draws", "300", "--seed", "31"],
        {"sweep.csv": "550bae795d788acb7d5a1bb12774022d259ab0b470af3a5bc4da1b88339e96b1"},
    ),
    "verify-curvature-300": (
        ["verify", "curvature", "--draws", "300", "--seed", "31"],
        {"verify_curvature.csv": "9851526cc17d2a8f5ea8bc683c64abc551d51145050f9febc9c81786cfa54f2c"},
    ),
    "verify-scale-equivalence-1000": (
        ["verify", "scale-equivalence", "--draws", "1000", "--seed", "1"],
        {"verify_scale-equivalence.csv": "4b02751e83b654cc915553a3f288f13bf9736a4d862b688fb6158b1edc445811"},
    ),
    "sweep-tied-maximum": (
        ["sweep", "--z", "1,1,0", "--alpha-grid", "1,2"],
        {"sweep.csv": "434a4d8ac0f641a3784bae071bedea53fab07922b88f5b77b8eea572c8432d7d"},
    ),
    "simulate-scalar": (
        ["simulate", "--steps", "8", "--blocks", "4", "--seed", "3"],
        {
            "summary.json": "e97b0bc4663bc879b6e89456f1b1220cd273a8b6b13961f2fc3d248142916b7d",
            "trajectory.csv": "2a5467d268289eeafed5ba3c97bea5a0b0e7030d322e8498ac96ae128b20f585",
        },
    ),
    "simulate-json": (
        ["simulate", "--format", "json", "--steps", "8", "--blocks", "4", "--seed", "3"],
        {
            "summary.json": "e97b0bc4663bc879b6e89456f1b1220cd273a8b6b13961f2fc3d248142916b7d",
            "trajectory.json": "68f0b19bf44408af7a06237b6a7581763824115a03574ac5c412e4b47a01c399",
        },
    ),
    "simulate-energy": (
        ["simulate", "--config", "{energy}", "--steps", "6", "--blocks", "4"],
        {
            "summary.json": "22a7d292afc40be5515f067f4dbf2b9bb11c267628e5d00e5e66a61860893b08",
            "trajectory.csv": "83f56b43d1950b0c0ced242bd2a932d2c36b48114a1ead64ab83a2991c607f29",
        },
    ),
    "simulate-energy-unit-gamma": (
        ["simulate", "--config", "{energy_unit_gamma}", "--steps", "10", "--blocks", "2", "--seed", "4"],
        {
            "summary.json": "74801d36edbec78f613892ff7ba26fe94af3045b6baf74a0db67c7517b08ba6f",
            "trajectory.csv": "ac6d64cf43271a8cea60eac148aed4d6803c8f8e9006799b24ca6faedf7b0224",
        },
    ),
    "simulate-key-image": (
        ["simulate", "--config", "{key_image}", "--steps", "6", "--blocks", "4"],
        {
            "summary.json": "ba0b9954e149695b65b78d138244b754ba84c8624fb54ccdc39ead02112f76b4",
            "trajectory.csv": "8c09630f611b0d78fee858b9f86b63f5677e13ad87c0f02d30a3f63a6c64fc36",
        },
    ),
    "simulate-key-text": (
        ["simulate", "--config", "{key_text}", "--steps", "6", "--blocks", "4"],
        {
            "summary.json": "71b3a05fe6769ec3e0da97ff784c659f9dede7d976d6257047ac8afa07734650",
            "trajectory.csv": "bee29e7769d127ef5083ced57dcec5b1e2227244cae98f1c96d9f1901969f0b8",
        },
    ),
    "simulate-long": (
        ["simulate", "--steps", "100", "--blocks", "32", "--preset", "early", "--gamma", "1.35",
         "--seed", "1"],
        {
            "summary.json": "016c22d623d8418eb9d4c471ac9f164698f50eb7a16aed0cab94d9ad61f8fd30",
            "trajectory.csv": "c3c18f9a8921ea224ae5729f53957c3f6eb75268a9bc438ba73cea23cd3b3943",
        },
    ),
    "calibrate-files": (
        ["calibrate", "--latent", "{latent}", "--attention", "{attention}"],
        {"block_table.json": "95688f0d0ab8fb48aa541fbd0f2fb0c47b3e716f234d0ad72b188be3b4de4a73"},
    ),
    "calibrate-files-mask": (
        ["calibrate", "--latent", "{latent}", "--attention", "{attention}", "--mask", "{mask}",
         "--tau", "0.4"],
        {"block_table.json": "7574d97752aed9984b6196ff7880898a54935a8c37162b07f6725511e0d5b782"},
    ),
    "calibrate-files-slabs": (
        ["calibrate", "--latent", "{latent}", "--attention", "{attention}"],
        {"block_table.json": "9734d2436a10bf4da0d827d14ae1d573223e631f3f4fbe3e69fbd307326f9bf1"},
    ),
    "calibrate-synthetic": (
        ["calibrate", "--samples", "5", "--blocks", "6", "--seed", "2"],
        {"block_table.json": "556d1d5e9fad4d13e9115f4f90747564ab416d26cf47d68c4e69539254ac7174"},
    ),
}


# Cases whose calibration inputs are not the default size.
INPUT_SIZES = {"calibrate-files-slabs": {"frames": 6, "blocks": 3}}


def _write_calibration_inputs(d, frames=2, blocks=5):
    """Seeded ATNB latent (1, 4, frames, 8, 8), attention stack (blocks, n, n)
    with n = 64 frames, and mask.

    Block l's received attention favours a planted blob by affinity[l], from
    repelled to attracted, so the ratios fall on both sides of tau.
    """
    rng = np.random.default_rng(23)
    latent = rng.normal(0.0, 0.2, size=(1, 4, frames, 8, 8))
    direction = rng.normal(size=4)
    latent[0, :, :, 2:6, 1:5] += 2.0 * (direction / np.linalg.norm(direction))[:, None, None, None]
    blob = np.zeros((frames, 8, 8), dtype=bool)
    blob[:, 2:6, 1:5] = True
    n = blob.size
    affinity = np.linspace(-0.5, 1.0, blocks)[:, None, None]
    logits = rng.normal(size=(blocks, n, n)) + affinity * blob.ravel()
    stack = row_softmax(logits.reshape(-1, n)).reshape(blocks, n, n).transpose(0, 2, 1)
    mask = np.zeros_like(blob)
    mask[:, 1:7, 1:5] = True
    paths = {}
    for name, array in (("latent", latent), ("attention", stack), ("mask", mask)):
        paths[name] = d / f"{name}.atnb"
        write_tensor(paths[name], array)
    return paths


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"digests were recorded with numpy {RECORDED_NUMPY}, this is numpy {np.__version__}",
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_recorded_digests(case, tmp_path):
    argv, expected = CASES[case]
    paths = _write_calibration_inputs(tmp_path, **INPUT_SIZES.get(case, {}))
    for name, config in CONFIGS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
    assert main(argv) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == expected
