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

Each suite reports its draws as columns: one array per report column (int64
for the integer and flag columns, float64 for the rest), a per-draw failure
mask, and a function that describes a failing draw. One collector turns them
into a :class:`SuiteResult` with the violation count and, as ``detail``, the
description of the first failing draw; no row dict is built unless ``rows``
is read. Every suite but deviation, and the sweep (:func:`run_sweep`), draws
its cases first, in the seeded order, then makes one stacked pass per group:
of same-shaped draws, or for scale-equivalence of the draws with one key
count m. There each draw's three logit products stay unpadded 2-D calls,
since their rounding is what ``max_diff`` records. :func:`_batched` joins
the groups' columns in draw order.
``inject_bug=True`` flips the sign of the first row's margin column after the
fact — a harness self-test proving the violation path is live.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import (
    _tempered,
    _top_gaps,
    _variance_rows,
    curvature_rows,
    entropy,
    entropy_alpha_report,
    lipschitz_report,
    logit_gap,
)
from .attention import scaled_logits
from .config import SUITE_NAMES
from .numerics import row_softmax
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


@dataclass(eq=False)
class SuiteResult:
    """A report as columns, and the violation count.

    ``data`` holds one array per name of ``columns``, with one entry per row
    in report order: int64 for the integer and flag columns, float64 for the
    rest. With no rows both are empty. :meth:`row_tuples` gives the rows as
    tuples of Python numbers, and ``rows`` as one dict per row, built the
    first time it is read.
    """

    name: str
    columns: tuple[str, ...]
    data: tuple[np.ndarray, ...]
    violations: int
    detail: str | None = None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    @property
    def row_count(self) -> int:
        return len(self.data[0]) if self.data else 0

    def row_tuples(self):
        return zip(*(c.tolist() for c in self.data))

    @cached_property
    def rows(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.row_tuples()]


def _draw_gapped_logits(rng: np.random.Generator, m: int) -> tuple[np.ndarray, float]:
    """Logits with a top-two gap of at least MIN_LOGIT_GAP (unique maximum), and that gap.

    Tiny gaps make the decay bounds vacuous at representable alpha, so draws
    below the floor are rejected and redrawn.
    """
    while True:
        z = rng.uniform(-10.0, 10.0, size=m)
        gap = float(_top_gaps(z[None, :])[0])
        if m == 1 or gap >= MIN_LOGIT_GAP:
            return z, gap


def _collect(name: str, cols: dict, bad: np.ndarray, problem) -> SuiteResult:
    """Build a SuiteResult from a report's columns and its per-draw failure mask.

    ``cols`` maps each column name to its array over the rows, ``bad`` marks
    the failing draws, and ``problem(i)`` describes draw i; only the first
    failing draw is described, as ``detail``.
    """
    violations = int(np.count_nonzero(bad))
    detail = problem(int(np.argmax(bad))) if violations else None
    cols = cols if len(bad) else {}
    return SuiteResult(name, tuple(cols), tuple(cols.values()), violations, detail)


def _batched(draws: list, run_group) -> tuple:
    """The ``(cols, bad, problem)`` report of ``draws``, from one pass per group.

    ``draws`` holds one tuple of fields per draw, and draws whose fields have
    equal shapes form a group. ``run_group(idx, *fields)`` gets the group's
    draw indices and each field stacked over its draws, and returns the
    group's report: its columns, whose first axis runs over the group's
    draws and whose second, if any, over each draw's rows; its failure mask;
    and ``problem(k)``, which describes the group's k-th draw. The groups'
    columns and masks are joined and put back in draw order with one inverse
    permutation; a per-draw column is repeated on each of its draw's rows.
    """
    groups: dict[tuple, list[int]] = {}
    for i, draw in enumerate(draws):
        groups.setdefault(tuple(getattr(x, "shape", ()) for x in draw), []).append(i)
    idxs = list(groups.values())
    if not idxs:
        return {}, np.zeros(0, bool), None
    parts = [run_group(idx, *(np.array(f) for f in zip(*(draws[i] for i in idx)))) for idx in idxs]
    inv = np.argsort(np.concatenate(idxs))
    joined = [np.concatenate(c)[inv].reshape(len(draws), -1)
              for c in zip(*(part[0].values() for part in parts))]

    def problem(i):
        g = next(g for g, idx in enumerate(idxs) if i in idx)
        return parts[g][2](idxs[g].index(i))

    cols = dict(zip(parts[0][0], (c.ravel() for c in np.broadcast_arrays(*joined))))
    return cols, np.concatenate([part[1] for part in parts])[inv], problem


def _nonincreasing(values: np.ndarray, scale=1.0) -> np.ndarray:
    """Per row: each value is at most its predecessor plus MONOTONE_SLACK * scale."""
    slack = MONOTONE_SLACK * np.reshape(scale, (-1, 1))
    return (values[:, 1:] <= values[:, :-1] + slack).all(axis=1)


def _scale_equivalence(seed: int, draws: int):
    rng = np.random.default_rng(seed)
    shapes, drawn, groups = [], [], {}
    for i in range(draws):
        n, m, d = (int(rng.integers(1, high)) for high in (17, 17, 9))
        gamma = float(rng.uniform(0.5, 3.0))
        drawn.append((gamma, rng.normal(size=(n, d)), rng.normal(size=(m, d))))
        rng.normal(size=(m, d))  # V: no route reads it, but the stream keeps its draw
        shapes.append((n, m, d))
        groups.setdefault(m, []).append(i)
    max_diff = np.empty(draws)
    for idx in groups.values():
        # Each draw's products stay 2-D and unpadded, as attention_forward
        # forms them; only the softmax passes run on the stacks.
        ns, gs, z_q, z_k, z = zip(*(
            (len(q), g, scaled_logits(g * q, k), scaled_logits(q, g * k), scaled_logits(q, k))
            for g, q, k in (drawn[i] for i in idx)))
        p_q, p_k = row_softmax(np.concatenate(z_q)), row_softmax(np.concatenate(z_k))
        p_t = _tempered(np.concatenate(z), np.repeat(gs, ns)[:, None])
        pairs = ((p_q, p_k), (p_q, p_t), (p_k, p_t))
        diffs = np.max([np.abs(a - b).max(axis=1) for a, b in pairs], axis=0)
        max_diff[idx] = np.maximum.reduceat(diffs, np.cumsum((0,) + ns[:-1]))
    n, m, d = np.reshape(shapes, (-1, 3)).T
    margin = PAIRWISE_TOLERANCE - max_diff
    cols = {"draw": np.arange(draws), "n": n, "m": m, "d": d,
            "gamma": np.array([g for g, _, _ in drawn]), "max_diff": max_diff, "margin": margin}
    return cols, margin < 0, lambda i: (
        f"draw {i}: pairwise diff {max_diff[i]:.3e} exceeds {PAIRWISE_TOLERANCE}")


def _entropy_slope(seed: int, draws: int):
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(draws):
        m = int(rng.integers(2, 17))
        z = rng.uniform(-10.0, 10.0, size=m)
        alpha = float(rng.uniform(0.1, 10.0))
        if rng.random() < 0.5:
            subset = tuple(range(m))
        else:
            size = int(rng.integers(1, m + 1))
            subset = tuple(sorted(rng.choice(m, size=size, replace=False).tolist()))
        drawn.append((z[list(subset)], m, alpha, alpha + float(rng.uniform(0.1, 2.0))))
    return _batched(drawn, _entropy_slope_pass)


def _entropy_slope_pass(idx, zs, ms, alphas, alphas2):
    rep = entropy_alpha_report(zs, range(zs.shape[1]), alphas)
    h, gap = rep.entropy, rep.abs_gap
    h2 = entropy(_tempered(zs, alphas2[:, None]))
    monotone = _nonincreasing(np.stack([h, h2], axis=1))
    cols = {"draw": idx, "m": ms, "subset_size": np.full(len(idx), zs.shape[1]), "alpha": alphas,
            "entropy": h, "variance": rep.variance, "slope_gap": gap,
            "margin": SLOPE_TOLERANCE - gap, "monotone_ok": monotone.astype(int)}
    return cols, ~(monotone & (gap < SLOPE_TOLERANCE)), lambda k: (
        f"draw {idx[k]}: slope gap {gap[k]:.3e}, "
        f"H({alphas2[k]:.3f})={h2[k]:.6f} vs H({alphas[k]:.3f})={h[k]:.6f}")


def _curvature(seed: int, draws: int):
    rng = np.random.default_rng(seed)
    drawn = [(*_draw_gapped_logits(rng, int(rng.integers(2, 17))), float(rng.uniform(0.1, 10.0)))
             for _ in range(draws)]
    return _batched(drawn, _curvature_pass)


def _curvature_pass(idx, zs, deltas, alphas):
    m = zs.shape[1]
    # Two alphas per draw: the drawn one and the collapse point 50/Delta.
    curv = curvature_rows(zs, np.stack([alphas, 50.0 / deltas], axis=1))
    grid = np.linspace(2.0 / deltas, 50.0 / deltas, 25, axis=1)
    envelope = 2.0 * grid**2 * (m - 1) * np.exp(-grid * deltas[:, None])
    env_ok = _nonincreasing(envelope, np.maximum(1.0, envelope[:, 0]))
    psd_ok = curv.min_eigenvalue[:, 0] >= -PSD_SLACK
    norm, collapse = curv.spectral_norm.T
    decay = curv.decay_bound[:, 0]
    viol = [v[0] for v in curv.violations]
    cols = {"draw": idx, "m": np.full(len(idx), m), "alpha": alphas, "logit_gap": deltas,
            "spectral_norm": norm, "decay_bound": decay, "tail_mass": curv.tail_mass[:, 0],
            "tail_bound": curv.tail_bound[:, 0], "gershgorin_bound": curv.gershgorin_bound[:, 0],
            "margin": decay - norm, "collapse_norm": collapse, "psd_ok": psd_ok.astype(int),
            "envelope_ok": env_ok.astype(int)}
    bad = np.array([bool(v) for v in viol]) | ~(psd_ok & env_ok & (collapse < COLLAPSE_NORM_LIMIT))
    return cols, bad, lambda k: (
        f"draw {idx[k]}: bound violations {viol[k]}, psd_ok={psd_ok[k]}, "
        f"env_ok={env_ok[k]}, norm at 50/gap = {collapse[k]:.3e}")


def _lipschitz(seed: int, draws: int):
    rng = np.random.default_rng(seed)
    drawn = []
    for _ in range(draws):
        m = int(rng.integers(2, 17))
        d_v = int(rng.integers(1, 9))
        z = rng.normal(0.0, 2.0, size=m)
        v = rng.normal(size=(m, d_v))
        drawn.append((z, v, float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.5, 3.0))))
    return _batched(drawn, _lipschitz_pass)


def _lipschitz_pass(idx, zs, vs, alphas1, alphas2):
    g, m, d_v = vs.shape
    rep = lipschitz_report(zs, vs, alphas1, alphas2)
    cols = {"draw": idx, "m": np.full(g, m), "d_v": np.full(g, d_v), "alpha1": alphas1,
            "alpha2": alphas2, "deviation": rep.deviation, "bound": rep.bound,
            "margin": rep.margin}
    return cols, rep.margin < 0, lambda k: (
        f"draw {idx[k]}: deviation {rep.deviation[k]:.6e} exceeds bound {rep.bound[k]:.6e}")


DEVIATION_ALPHA_GRID = (1.15, 1.25, 1.35)


def _deviation(seed: int, probes: int):
    """Half the probes use the sweep grid alphas, half continuous [0.5, 3]."""
    total_steps = 8
    coeffs = StepCoefficients.linear(total_steps)
    reps = []
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
        reps.append(deviation_bound_check(den, coeffs, t, x, alpha, query=query))
    names = ("alpha", "t", "b_t", "deviation", "bound", "margin", "lipschitz_upper")
    cols = {"probe": np.arange(probes), **{c: np.array([getattr(r, c) for r in reps]) for c in names}}
    return cols, cols["margin"] < 0, lambda i: (
        f"probe {i}: deviation {reps[i].deviation:.6e} exceeds bound {reps[i].bound:.6e}")


# Suites by name; each takes (seed, count), where count is the probe count for
# the deviation suite and the draw count for the others, and gives the
# (cols, bad, problem) report that _collect takes, in draw order.
_SUITE_FUNCS = dict(
    zip(SUITE_NAMES, (_scale_equivalence, _entropy_slope, _curvature, _lipschitz, _deviation))
)


def run_suite(
    name: str, seed: int = 0, draws: int = 1000, probes: int = 120, inject_bug: bool = False
) -> SuiteResult:
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; valid: {sorted(_SUITE_FUNCS)}")
    count = probes if name == "deviation" else draws
    result = _collect(name, *_SUITE_FUNCS[name](seed, count))
    if inject_bug and result.data:
        margin = result.data[result.columns.index("margin")]
        margin[0] = -abs(margin[0]) - 1.0
        result.violations += 1
        result.detail = "injected-bug hook: flipped the sign of row 0's margin"
    return result


def _sweep(idx, zs, gaps, grid):
    n = gaps.size
    alphas = np.tile(grid, (n, 1)) if grid else np.divide(SWEEP_GAP_RATIOS, gaps[:, None])
    curv = curvature_rows(zs, alphas)
    entropies = entropy(curv.p.reshape(-1, zs.shape[1])).reshape(n, -1)
    variances = _variance_rows(curv.p, zs[:, None, :])
    monotone = _nonincreasing(entropies)
    # The envelope is checked from 2/Delta on, a suffix of each sorted grid;
    # the decay bounds before it (all of them when Delta = 0, or when 2/Delta
    # overflows to inf for a subnormal Delta) read as inf.
    with np.errstate(over="ignore"):
        start = np.divide(2.0, gaps, out=np.full(n, np.inf), where=gaps > 0)
    checked = alphas >= start[:, None]
    first = curv.decay_bound[np.arange(n), np.argmax(checked, axis=1)]
    env = np.where(checked, curv.decay_bound, np.inf)
    envelope = _nonincreasing(env, np.maximum(1.0, first))
    # The default grid ends at 50/Delta, where the curvature has collapsed.
    collapse = (curv.spectral_norm[:, -1] < COLLAPSE_NORM_LIMIT) | bool(grid)
    bounds = np.array([not any(v) for v in curv.violations])
    cols = {"draw": idx, "alpha": alphas, "entropy": entropies, "variance": variances,
            "spectral_norm": curv.spectral_norm, "tail_mass": curv.tail_mass,
            "tail_bound": curv.tail_bound, "gershgorin_bound": curv.gershgorin_bound,
            "decay_bound": curv.decay_bound, "logit_gap": gaps,
            "entropy_monotone_ok": monotone.astype(int), "envelope_ok": envelope.astype(int),
            "collapse_ok": collapse.astype(int)}
    return cols, ~(monotone & envelope & collapse & bounds), lambda k: (
        f"draw {idx[k]}: monotone_ok={monotone[k]} envelope_ok={envelope[k]} "
        f"collapse_ok={collapse[k]} bounds_ok={bounds[k]}")


def run_sweep(seed: int = 0, draws: int = 200, alpha_grid=None, z=None) -> SuiteResult:
    """Entropy/curvature profile of each logit draw over an alpha grid.

    The draws are the single vector ``z`` when given, else ``draws`` seeded
    gapped logit vectors of length 2..16. The grid is ``alpha_grid`` when
    given, else SWEEP_GAP_RATIOS / Delta per draw (Delta the top-two gap),
    which needs Delta > 0 and 50/Delta finite: a tied maximum or a smaller gap
    raises ``ValueError``, as does a ``z`` whose spread max - min overflows
    float64, since then z - max(z) is not finite. A draw fails
    when entropy increases along the grid, the decay envelope increases past
    2/Delta, any curvature bound is violated, or (default grid only) the
    curvature at 50/Delta is not below COLLAPSE_NORM_LIMIT.
    """
    if z is not None:
        # In Python floats an overflowing spread reads inf without a numpy warning.
        hi, lo = float(np.max(z)), float(np.min(z))
        if math.isinf(hi - lo) and np.isfinite(z).all():
            raise ValueError(f"logit spread max - min = {hi!r} - ({lo!r}) overflows float64")
        gap = logit_gap(z)
        # Drawn logits have a gap of at least MIN_LOGIT_GAP, so only z can fail these.
        if not alpha_grid and gap == 0:
            raise ValueError(
                "draw 0 has a tied maximum (top-two gap 0), so the default grid "
                "SWEEP_GAP_RATIOS / gap is undefined; give an explicit grid with --alpha-grid"
            )
        if not alpha_grid and math.isinf(SWEEP_GAP_RATIOS[-1] / gap):
            raise ValueError(
                f"draw 0 has a top-two gap of {gap!r}, so the default grid "
                "SWEEP_GAP_RATIOS / gap overflows; give an explicit grid with --alpha-grid"
            )
        z_draws = [(z, gap)]
    else:
        rng = np.random.default_rng(seed)
        z_draws = [_draw_gapped_logits(rng, int(rng.integers(2, 17))) for _ in range(draws)]
    grid = sorted(alpha_grid) if alpha_grid else None
    return _collect("sweep", *_batched(z_draws, lambda idx, *fields: _sweep(idx, *fields, grid)))
