"""Work counts of the verification hot paths.

The sweep and the curvature suite make one ``curvature_rows`` pass per logit
length over all of its draws, and that pass forms no Hessian and calls no
eigensolver; the entropy-slope suite makes two softmax stacks per subset
size, and the scale-equivalence suite three per key count in each block of
draws. A return to per-draw calls or to a dense eigensolve fails here.
"""

from collections import Counter

import numpy as np
import pytest

from attnlab import analysis, cli, verification
from attnlab.analysis import curvature_rows
from attnlab.verification import run_sweep


@pytest.fixture
def eigensolves(monkeypatch):
    """Shapes of every ``np.linalg.eigvalsh`` call made while the test runs."""
    shapes = []
    original = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    return shapes


@pytest.fixture
def curvature_passes(monkeypatch, eigensolves):
    """The (rows, m) stack of every ``curvature_rows`` call the suites make."""
    shapes = []

    def counting_curvature_rows(z, alphas):
        shapes.append((np.size(alphas), np.shape(z)[-1]))
        return curvature_rows(z, alphas)

    monkeypatch.setattr(verification, "curvature_rows", counting_curvature_rows)
    return shapes


def test_curvature_rows_makes_no_eigensolve(eigensolves):
    z = np.random.default_rng(8).normal(scale=3.0, size=(4, 64))
    z[1, 5] = z[1].max()  # a tied maximum
    rows = curvature_rows(z, np.geomspace([0.1] * 4, [100.0] * 4, 6, axis=1))
    assert (rows.spectral_norm > 0).all()
    assert eigensolves == []


def test_sweep_explicit_grid_makes_no_eigensolve(eigensolves, curvature_passes):
    run_sweep(z=np.array([1.0, 1.0, 0.0]), alpha_grid=[1.0, 2.0, 2.0])
    assert curvature_passes == [(3, 3)]
    assert eigensolves == []


def _one_pass_per_length(shapes, rows):
    """Every length's rows, ``rows`` in all, solved in one pass per length."""
    solved = Counter()
    for count, m in shapes:
        solved[m] += count
    assert sum(solved.values()) == rows
    assert len(shapes) == len(solved) <= 15  # logit lengths 2..16


@pytest.mark.parametrize(
    "argv, rows_per_draw",
    [(["verify", "curvature"], 2), (["sweep"], len(verification.SWEEP_GAP_RATIOS))],
)
def test_cli_runs_one_curvature_pass_per_logit_length(
    curvature_passes, eigensolves, tmp_path, argv, rows_per_draw
):
    draws = 200
    assert cli.main(argv + ["--draws", str(draws), "--seed", "3", "--out", str(tmp_path)]) == 0
    _one_pass_per_length(curvature_passes, draws * rows_per_draw)
    assert eigensolves == []


def test_sweep_runs_one_curvature_pass_per_logit_length(curvature_passes, eigensolves):
    draws = 25
    assert run_sweep(seed=4, draws=draws).passed
    _one_pass_per_length(curvature_passes, draws * len(verification.SWEEP_GAP_RATIOS))
    assert len(curvature_passes) < draws
    assert eigensolves == []


def test_curvature_suite_runs_one_curvature_pass_per_logit_length(curvature_passes, eigensolves):
    draws = 25
    # The drawn alpha and the collapse point 50/Delta of every draw.
    assert verification.run_suite("curvature", seed=4, draws=draws).passed
    _one_pass_per_length(curvature_passes, 2 * draws)
    assert len(curvature_passes) < draws
    assert eigensolves == []


def test_entropy_slope_runs_two_softmax_stacks_per_subset_size(monkeypatch):
    calls = []
    original = analysis.row_softmax

    def counting_row_softmax(z):
        calls.append(len(z))
        return original(z)

    monkeypatch.setattr(analysis, "row_softmax", counting_row_softmax)
    draws = 200
    res = verification.run_suite("entropy-slope", seed=3, draws=draws)
    sizes = {row["subset_size"] for row in res.rows}
    assert len(calls) == 2 * len(sizes) <= 32
    # Three probe rows per draw (alpha - h, alpha, alpha + h), then one at alpha2.
    assert sum(calls) == 4 * draws


def test_scale_equivalence_runs_three_softmax_stacks_per_key_count(monkeypatch):
    calls = []
    original = analysis.row_softmax

    def counting_row_softmax(z):
        calls.append(len(z))
        return original(z)

    monkeypatch.setattr(analysis, "row_softmax", counting_row_softmax)
    monkeypatch.setattr(verification, "row_softmax", counting_row_softmax)
    draws = 450
    res = verification.run_suite("scale-equivalence", seed=2, draws=draws)
    key_counts = {row["m"] for row in res.rows}
    assert len(calls) <= 3 * len(key_counts) <= 3 * 16
    # Each route's softmax runs once over every query row of every draw.
    assert sum(calls) == 3 * sum(row["n"] for row in res.rows)
