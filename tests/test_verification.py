"""Work counts of the verification hot paths.

Each sweep draw and each curvature-suite draw solves all of its Hessians in
one stacked symmetric eigensolve.
"""

import numpy as np
import pytest

from attnlab.verification import SWEEP_GAP_RATIOS, run_suite, run_sweep


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


def test_sweep_runs_one_stacked_eigensolve_per_draw(eigensolves):
    draws = 25
    res = run_sweep(seed=4, draws=draws)
    assert res.passed
    assert len(eigensolves) == draws
    assert all(s[0] == len(SWEEP_GAP_RATIOS) and s[1] == s[2] for s in eigensolves)


def test_sweep_explicit_grid_runs_one_stacked_eigensolve(eigensolves):
    run_sweep(z=np.array([1.0, 1.0, 0.0]), alpha_grid=[1.0, 2.0, 2.0])
    assert eigensolves == [(3, 3, 3)]


def test_curvature_suite_runs_one_stacked_eigensolve_per_draw(eigensolves):
    draws = 25
    res = run_suite("curvature", seed=4, draws=draws)
    assert res.passed
    assert len(eigensolves) == draws
    # The drawn alpha and the collapse point 50/Delta, in one stack.
    assert all(s[0] == 2 and s[1] == s[2] for s in eigensolves)
