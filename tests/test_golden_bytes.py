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

Float output depends on the numpy build, so the digests hold only for the
numpy version they were recorded with; under any other version the test
skips and says so.
"""

import hashlib
import json

import numpy as np
import pytest

from attnlab.cli import main

RECORDED_NUMPY = "2.4.6"

CONFIGS = {
    "energy": {"mode": "energy", "window": {"preset": "all"}},
    "energy_unit_gamma": {"mode": "energy", "kappa": 0.001},
}

CASES = {
    "verify-csv": (
        ["verify", "--draws", "30", "--probes", "6", "--seed", "5"],
        {
            "verify_curvature.csv": "a8fc592338039801fffc3cc683be157444d8524b380e03d6e03a3f072532149e",
            "verify_deviation.csv": "dc3d6212936d14eaa930eae2cf5001d59710c10cb6088a6723c964ea53f99e13",
            "verify_entropy-slope.csv": "b4a969b4b7122e2dbeae5f1cb7cb01cdee720620c54c93f425e476c6b02ec9b5",
            "verify_lipschitz.csv": "84a7d47b8c2e353efb8df62952a5a35d6d88bf9d50b19755fb223d1907412114",
            "verify_scale-equivalence.csv": "0c48b53445d1c8023e0b50b73445b4acc79a6b5b81dd54e8fb7e9450705eb07f",
        },
    ),
    "verify-json": (
        ["verify", "--draws", "20", "--probes", "4", "--format", "json"],
        {
            "verify_curvature.json": "c38e7d94ae90ec0d87003427aa9f4431c6e71beaf4f3ed9573d520b4c03275dc",
            "verify_deviation.json": "73f6b12cd9a38dd3be1095ac1ea217473dcb3b53fc0cc95d15b5b666295ae786",
            "verify_entropy-slope.json": "a1fd912dd9277dbc78ada215e5bdf0e04af6aa7687f4ec2c724f1c3c0b36574e",
            "verify_lipschitz.json": "914fb2cd54ddbb576fa18e39f1ddcb99f3aa69ce62fa8e6ab5b1d9b0b81c8d45",
            "verify_scale-equivalence.json": "9f17accdd7afcbe222b37a6bc12c319463eb761b4f67f93c52b0a03eeddc0679",
        },
    ),
    "sweep-random": (
        ["sweep", "--draws", "20", "--seed", "7"],
        {"sweep.csv": "2b0eae6407becdcccbffcdd459e307ea273fda9b5d0d79c8ba71d3d4c2c81e67"},
    ),
    "sweep-vector": (
        ["sweep", "--z", "2,1,0", "--alpha-grid", "1,2"],
        {"sweep.csv": "0060e544dc3ae82a98601a779b16bf5387503bb6ef6125fb8d6a59a257a1bf5d"},
    ),
    "sweep-random-300": (
        ["sweep", "--draws", "300", "--seed", "31"],
        {"sweep.csv": "3dbf015e899f99f9ceac781ea4b0197f50762dcc2a8bf4e8fb0983460559ae83"},
    ),
    "verify-curvature-300": (
        ["verify", "curvature", "--draws", "300", "--seed", "31"],
        {"verify_curvature.csv": "c45edbce98f2eeb2a65a4f2f836c1657848a4579546733c5bc26842e362ef4ec"},
    ),
    "sweep-tied-maximum": (
        ["sweep", "--z", "1,1,0", "--alpha-grid", "1,2"],
        {"sweep.csv": "87f2c7d21b5e837bfeedd74292c92cc57766a0cf5f5dce34600ceef60952af9f"},
    ),
    "simulate-scalar": (
        ["simulate", "--steps", "8", "--blocks", "4", "--seed", "3"],
        {
            "summary.json": "e97b0bc4663bc879b6e89456f1b1220cd273a8b6b13961f2fc3d248142916b7d",
            "trajectory.csv": "2a5467d268289eeafed5ba3c97bea5a0b0e7030d322e8498ac96ae128b20f585",
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
    "calibrate-synthetic": (
        ["calibrate", "--samples", "5", "--blocks", "6", "--seed", "2"],
        {"block_table.json": "556d1d5e9fad4d13e9115f4f90747564ab416d26cf47d68c4e69539254ac7174"},
    ),
}


@pytest.mark.skipif(
    np.__version__ != RECORDED_NUMPY,
    reason=f"digests were recorded with numpy {RECORDED_NUMPY}, this is numpy {np.__version__}",
)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_recorded_digests(case, tmp_path):
    argv, expected = CASES[case]
    paths = {}
    for name, config in CONFIGS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [a.format(**paths) for a in argv] + ["--out", str(out)]
    assert main(argv) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == expected
