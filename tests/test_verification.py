"""Work counts of the verification hot paths.

The sweep and the curvature suite solve the Hessians of all draws of one
logit length in one stacked symmetric eigensolve, split only where the stack
would exceed ``_HESSIAN_STACK_ENTRIES``; the entropy-slope suite makes two
softmax stacks per subset size. A return to per-draw calls fails here.
"""

import math
from collections import Counter

import numpy as np
import pytest

from attnlab import analysis, cli, verification
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


def test_sweep_explicit_grid_runs_one_stacked_eigensolve(eigensolves):
    run_sweep(z=np.array([1.0, 1.0, 0.0]), alpha_grid=[1.0, 2.0, 2.0])
    assert eigensolves == [(3, 3, 3)]


@pytest.fixture
def hessian_stacks(monkeypatch):
    """Shapes of every ``eigvalsh_sym`` call that ``curvature_rows`` makes."""
    shapes = []
    original = analysis.eigvalsh_sym

    def counting_eigvalsh_sym(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(analysis, "eigvalsh_sym", counting_eigvalsh_sym)
    return shapes


def _one_solve_per_length_plus_splits(shapes, rows):
    """Every length's Hessians, ``rows`` in all, solved in the fewest chunks."""
    solved = Counter()
    calls = Counter()
    for count, m, _ in shapes:
        solved[m] += count
        calls[m] += 1
    assert sum(solved.values()) == rows
    assert len(calls) <= 15  # logit lengths 2..16
    for m, count in solved.items():
        chunk = max(1, analysis._HESSIAN_STACK_ENTRIES // (m * m))
        assert calls[m] == math.ceil(count / chunk)
    return sum(calls.values())


@pytest.mark.parametrize(
    "argv, rows_per_draw",
    [(["verify", "curvature"], 2), (["sweep"], len(verification.SWEEP_GAP_RATIOS))],
)
def test_cli_runs_one_stacked_eigensolve_per_logit_length(
    hessian_stacks, tmp_path, argv, rows_per_draw
):
    draws = 200
    assert cli.main(argv + ["--draws", str(draws), "--seed", "3", "--out", str(tmp_path)]) == 0
    calls = _one_solve_per_length_plus_splits(hessian_stacks, draws * rows_per_draw)
    assert calls < draws // 4


def test_sweep_runs_one_stacked_eigensolve_per_logit_length(hessian_stacks):
    draws = 25
    assert run_sweep(seed=4, draws=draws).passed
    _one_solve_per_length_plus_splits(hessian_stacks, draws * len(verification.SWEEP_GAP_RATIOS))
    assert len(hessian_stacks) < draws


def test_curvature_suite_runs_one_stacked_eigensolve_per_logit_length(hessian_stacks):
    draws = 25
    # The drawn alpha and the collapse point 50/Delta of every draw.
    assert verification.run_suite("curvature", seed=4, draws=draws).passed
    _one_solve_per_length_plus_splits(hessian_stacks, 2 * draws)
    assert len(hessian_stacks) < draws


def test_entropy_slope_runs_two_softmax_stacks_per_subset_size(monkeypatch):
    calls = []
    original = verification.row_softmax

    def counting_row_softmax(z):
        calls.append(len(z))
        return original(z)

    monkeypatch.setattr(verification, "row_softmax", counting_row_softmax)
    monkeypatch.setattr(analysis, "row_softmax", counting_row_softmax)
    draws = 200
    res = verification.run_suite("entropy-slope", seed=3, draws=draws)
    sizes = {row["subset_size"] for row in res.rows}
    assert len(calls) == 2 * len(sizes) <= 32
    # Three probe rows per draw (alpha - h, alpha, alpha + h), then one at alpha2.
    assert sum(calls) == 4 * draws
