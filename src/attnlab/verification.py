"""Seeded verification suites: each draws random cases and checks a certified bound.

Five suites cover the machinery end to end:

- scale-equivalence: scaling Q, scaling K, and tempering the logits give the
  same attention probabilities (pairwise within 1e-12);
- entropy-slope: dH/dalpha = -alpha Var matches a central difference and
  entropy never increases with alpha;
- curvature: tail-mass and spectral-norm decay bounds hold, the Hessian is
  PSD, the decay envelope is nonincreasing past 2/Delta, and the norm at
  alpha = 50/Delta is below 1e-6;
- lipschitz: the output-deviation bound has nonnegative margin;
- deviation: the single-step state deviation bound holds on probed toy
  denoisers.

Each suite is a per-draw generator that yields the draw's report rows and a
problem string (None when the draw passes); one collector turns the draws into
a :class:`SuiteResult` with the violation count and the first problem as
``detail``. The ``sweep`` command's alpha-grid profile runs on the same
harness (:func:`run_sweep`). ``inject_bug=True`` flips the sign of the first
row's margin column after the fact — a harness self-test proving the
violation path is live.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    _row_entropies,
    _variance_rows,
    curvature_rows,
    entropy,
    entropy_alpha_report,
    lipschitz_report,
    logit_gap,
)
from .attention import attention_forward, scaled_logits
from .numerics import row_softmax, softmax_vec
from .simulate import StepCoefficients, deviation_bound_check, make_toy_denoiser

PAIRWISE_TOLERANCE = 1e-12
SLOPE_TOLERANCE = 1e-5
MONOTONE_SLACK = 1e-12
PSD_SLACK = 1e-10
COLLAPSE_NORM_LIMIT = 1e-6
MIN_LOGIT_GAP = 1e-3

# Default sweep grid, in units of 1/Delta: spans the pre-collapse regime up to
# the 50/Delta collapse point checked by the curvature suite.
SWEEP_GAP_RATIOS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0)


@dataclass
class SuiteResult:
    """Rows for the report, their columns, and the violation count.

    ``columns`` are the keys of the first row, in order (empty with no rows).
    """

    name: str
    columns: tuple[str, ...]
    rows: list[dict]
    violations: int
    detail: str | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _draw_gapped_logits(rng: np.random.Generator, m: int) -> np.ndarray:
    """Logits with a top-two gap of at least MIN_LOGIT_GAP (unique maximum).

    Tiny gaps make the decay bounds vacuous at representable alpha, so draws
    below the floor are rejected and redrawn.
    """
    while True:
        z = rng.uniform(-10.0, 10.0, size=m)
        if m == 1 or logit_gap(z) >= MIN_LOGIT_GAP:
            return z


def _collect(name: str, draws) -> SuiteResult:
    """Build a SuiteResult from ``(rows, problem)`` pairs, one per draw."""
    rows = []
    violations = 0
    detail = None
    for draw_rows, problem in draws:
        rows.extend(draw_rows)
        if problem is not None:
            violations += 1
            if detail is None:
                detail = problem
    columns = tuple(rows[0]) if rows else ()
    return SuiteResult(name, columns, rows, violations, detail)


def _nonincreasing(values, scale: float = 1.0) -> bool:
    """Each value is at most its predecessor plus MONOTONE_SLACK * scale."""
    slack = MONOTONE_SLACK * scale
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def _scale_equivalence(seed: int, draws: int):
    rng = np.random.default_rng(seed)
    for i in range(draws):
        n = int(rng.integers(1, 17))
        m = int(rng.integers(1, 17))
        d = int(rng.integers(1, 9))
        gamma = float(rng.uniform(0.5, 3.0))
        q = rng.normal(size=(n, d))
        k = rng.normal(size=(m, d))
        v = rng.normal(size=(m, d))
        p_q = attention_forward(gamma * q, k, v).probabilities
        p_k = attention_forward(q, gamma * k, v).probabilities
        p_t = row_softmax(gamma * scaled_logits(q, k))
        max_diff = max(
            float(np.abs(p_q - p_k).max()),
            float(np.abs(p_q - p_t).max()),
            float(np.abs(p_k - p_t).max()),
        )
        margin = PAIRWISE_TOLERANCE - max_diff
        row = {
            "draw": i,
            "n": n,
            "m": m,
            "d": d,
            "gamma": gamma,
            "max_diff": max_diff,
            "margin": margin,
        }
        yield [row], (
            f"draw {i}: pairwise diff {max_diff:.3e} exceeds {PAIRWISE_TOLERANCE}"
            if margin < 0
            else None
        )


def _entropy_slope(seed: int, draws: int):
    rng = np.random.default_rng(seed)
    for i in range(draws):
        m = int(rng.integers(2, 17))
        z = rng.uniform(-10.0, 10.0, size=m)
        alpha = float(rng.uniform(0.1, 10.0))
        if rng.random() < 0.5:
            subset = tuple(range(m))
        else:
            size = int(rng.integers(1, m + 1))
            subset = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
        rep = entropy_alpha_report(z, subset, alpha)
        alpha2 = alpha + float(rng.uniform(0.1, 2.0))
        h2 = entropy(softmax_vec(alpha2 * z[list(subset)]))
        monotone_ok = _nonincreasing((rep.entropy, h2))
        bad = not (monotone_ok and rep.abs_gap < SLOPE_TOLERANCE)
        row = {
            "draw": i,
            "m": m,
            "subset_size": len(subset),
            "alpha": alpha,
            "entropy": rep.entropy,
            "variance": rep.variance,
            "slope_gap": rep.abs_gap,
            "margin": SLOPE_TOLERANCE - rep.abs_gap,
            "monotone_ok": int(monotone_ok),
        }
        yield [row], (
            f"draw {i}: slope gap {rep.abs_gap:.3e}, "
            f"H({alpha2:.3f})={h2:.6f} vs H({alpha:.3f})={rep.entropy:.6f}"
            if bad
            else None
        )


def _curvature(seed: int, draws: int):
    rng = np.random.default_rng(seed)
    for i in range(draws):
        m = int(rng.integers(2, 17))
        z = _draw_gapped_logits(rng, m)
        alpha = float(rng.uniform(0.1, 10.0))
        delta = logit_gap(z)
        # One stacked solve: the drawn alpha and the collapse point 50/Delta.
        curv = curvature_rows(z, (alpha, 50.0 / delta))
        norm, collapse_norm = curv.spectral_norm.tolist()
        decay_bound = curv.decay_bound.tolist()[0]
        psd_ok = float(curv.min_eigenvalue[0]) >= -PSD_SLACK
        grid = np.linspace(2.0 / delta, 50.0 / delta, 25)
        envelope = (2.0 * grid**2 * (m - 1) * np.exp(-grid * delta)).tolist()
        env_ok = _nonincreasing(envelope, max(1.0, envelope[0]))
        collapse_ok = collapse_norm < COLLAPSE_NORM_LIMIT
        row = {
            "draw": i,
            "m": m,
            "alpha": alpha,
            "logit_gap": delta,
            "spectral_norm": norm,
            "decay_bound": decay_bound,
            "tail_mass": curv.tail_mass.tolist()[0],
            "tail_bound": curv.tail_bound.tolist()[0],
            "gershgorin_bound": curv.gershgorin_bound.tolist()[0],
            "margin": decay_bound - norm,
            "collapse_norm": collapse_norm,
            "psd_ok": int(psd_ok),
            "envelope_ok": int(env_ok),
        }
        bad = bool(curv.violations[0]) or not (psd_ok and env_ok and collapse_ok)
        yield [row], (
            f"draw {i}: bound violations {curv.violations[0]}, psd_ok={psd_ok}, "
            f"env_ok={env_ok}, norm at 50/gap = {collapse_norm:.3e}"
            if bad
            else None
        )


def _lipschitz(seed: int, draws: int):
    rng = np.random.default_rng(seed)
    for i in range(draws):
        m = int(rng.integers(2, 17))
        d_v = int(rng.integers(1, 9))
        z = rng.normal(0.0, 2.0, size=m)
        v = rng.normal(size=(m, d_v))
        alpha1 = float(rng.uniform(0.5, 3.0))
        alpha2 = float(rng.uniform(0.5, 3.0))
        rep = lipschitz_report(z, v, alpha1, alpha2)
        row = {
            "draw": i,
            "m": m,
            "d_v": d_v,
            "alpha1": alpha1,
            "alpha2": alpha2,
            "deviation": rep.deviation,
            "bound": rep.bound,
            "margin": rep.margin,
        }
        yield [row], (
            f"draw {i}: deviation {rep.deviation:.6e} exceeds bound {rep.bound:.6e}"
            if rep.margin < 0
            else None
        )


DEVIATION_ALPHA_GRID = (1.15, 1.25, 1.35)


def _deviation(seed: int, probes: int):
    """Half the probes use the sweep grid alphas, half continuous [0.5, 3]."""
    total_steps = 8
    coeffs = StepCoefficients.linear(total_steps)
    for i in range(probes):
        rng = np.random.default_rng([seed, i])
        n_video = int(rng.integers(3, 9))
        den = make_toy_denoiser(
            seed=int(rng.integers(2**32)),
            num_blocks=int(rng.integers(1, 4)),
            n_text=int(rng.integers(2, 5)),
            n_image=int(rng.integers(2, 6)),
            n_video=n_video,
            d_k=int(rng.integers(4, 9)),
            d_v=int(rng.integers(3, 7)),
        )
        t = int(rng.integers(1, total_steps + 1))
        x = rng.normal(size=(n_video, den.d_model))
        if i < probes // 2:
            alpha = DEVIATION_ALPHA_GRID[i % len(DEVIATION_ALPHA_GRID)]
        else:
            alpha = float(rng.uniform(0.5, 3.0))
        query = int(rng.integers(0, n_video))
        rep = deviation_bound_check(den, coeffs, t, x, alpha, query=query)
        row = {
            "probe": i,
            "alpha": alpha,
            "t": t,
            "b_t": rep.b_t,
            "deviation": rep.deviation,
            "bound": rep.bound,
            "margin": rep.margin,
            "lipschitz_upper": rep.lipschitz_upper,
        }
        yield [row], (
            f"probe {i}: deviation {rep.deviation:.6e} exceeds bound {rep.bound:.6e}"
            if rep.margin < 0
            else None
        )


# Per-draw generators by suite name; each takes (seed, count), where count is
# the probe count for the deviation suite and the draw count for the others.
_SUITE_FUNCS = {
    "scale-equivalence": _scale_equivalence,
    "entropy-slope": _entropy_slope,
    "curvature": _curvature,
    "lipschitz": _lipschitz,
    "deviation": _deviation,
}
SUITE_NAMES = tuple(_SUITE_FUNCS)


def run_suite(
    name: str, seed: int = 0, draws: int = 1000, probes: int = 120, inject_bug: bool = False
) -> SuiteResult:
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; valid: {sorted(_SUITE_FUNCS)}")
    count = probes if name == "deviation" else draws
    result = _collect(name, _SUITE_FUNCS[name](seed, count))
    if inject_bug and result.rows:
        first = result.rows[0]
        if "margin" in first:
            first["margin"] = -abs(first["margin"]) - 1.0
        result.violations += 1
        result.detail = "injected-bug hook: flipped the sign of row 0's margin"
    return result


def _sweep(z_draws, alpha_grid):
    for i, z in enumerate(z_draws):
        gap = logit_gap(z)
        if alpha_grid:
            grid = sorted(alpha_grid)
        elif gap > 0:
            grid = sorted(r / gap for r in SWEEP_GAP_RATIOS)
        else:
            raise ValueError(
                f"draw {i} has a tied maximum (top-two gap 0), so the default grid "
                "SWEEP_GAP_RATIOS / gap is undefined; give an explicit grid with --alpha-grid"
            )
        # One stacked pass over the draw's grid; row k is curvature_report(z, grid[k]).
        curv = curvature_rows(z, grid)
        entropies = _row_entropies(curv.p).tolist()
        variances = _variance_rows(curv.p, z).tolist()
        norms, tails, tail_bounds, gersh, decay = (
            col.tolist()
            for col in (curv.spectral_norm, curv.tail_mass, curv.tail_bound,
                        curv.gershgorin_bound, curv.decay_bound)
        )
        monotone_ok = _nonincreasing(entropies)
        env = [d for a, d in zip(grid, decay) if gap > 0 and a >= 2.0 / gap]
        envelope_ok = _nonincreasing(env, max(1.0, env[0]) if env else 1.0)
        # The default grid ends at 50/Delta, where the curvature has collapsed.
        collapse_ok = bool(alpha_grid) or norms[-1] < COLLAPSE_NORM_LIMIT
        bound_ok = not any(curv.violations)
        rows = [
            {
                "draw": i,
                "alpha": alpha,
                "entropy": entropies[k],
                "variance": variances[k],
                "spectral_norm": norms[k],
                "tail_mass": tails[k],
                "tail_bound": tail_bounds[k],
                "gershgorin_bound": gersh[k],
                "decay_bound": decay[k],
                "logit_gap": gap,
                "entropy_monotone_ok": int(monotone_ok),
                "envelope_ok": int(envelope_ok),
                "collapse_ok": int(collapse_ok),
            }
            for k, alpha in enumerate(grid)
        ]
        bad = not (monotone_ok and envelope_ok and collapse_ok and bound_ok)
        yield rows, (
            f"draw {i}: monotone_ok={monotone_ok} envelope_ok={envelope_ok} "
            f"collapse_ok={collapse_ok} bounds_ok={bound_ok}"
            if bad
            else None
        )


def run_sweep(seed: int = 0, draws: int = 200, alpha_grid=None, z=None) -> SuiteResult:
    """Entropy/curvature profile of each logit draw over an alpha grid.

    The draws are the single vector ``z`` when given, else ``draws`` seeded
    gapped logit vectors of length 2..16. The grid is ``alpha_grid`` when
    given, else SWEEP_GAP_RATIOS / Delta per draw (Delta the top-two gap),
    which needs Delta > 0: a tied maximum raises ``ValueError``. A draw fails
    when entropy increases along the grid, the decay envelope increases past
    2/Delta, any curvature bound is violated, or (default grid only) the
    curvature at 50/Delta is not below COLLAPSE_NORM_LIMIT.
    """
    if z is not None:
        z_draws = [z]
    else:
        rng = np.random.default_rng(seed)
        z_draws = [_draw_gapped_logits(rng, int(rng.integers(2, 17))) for _ in range(draws)]
    return _collect("sweep", _sweep(z_draws, alpha_grid))
