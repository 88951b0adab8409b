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

Each suite gives every draw its report rows and a problem string (None when
the draw passes); one collector turns the draws into a :class:`SuiteResult`
with the violation count and the first problem as ``detail``. Every suite but
deviation, and the sweep (:func:`run_sweep`), draws its cases first, in the
seeded order, then makes one stacked pass per group: of same-shaped draws, or
for scale-equivalence of the draws with one key count m in each block of
``_EQUIVALENCE_BLOCK`` draws. There each draw's three logit products stay
unpadded 2-D calls, since their rounding is what ``max_diff`` records.
``inject_bug=True`` flips the sign of the first row's margin column after the
fact — a harness self-test proving the violation path is live.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import (
    _tempered,
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
# Draws the scale-equivalence suite holds at once: its softmax stacks are formed
# per key count within each block of this many consecutive draws.
_EQUIVALENCE_BLOCK = 200

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


def _draw_gapped_logits(rng: np.random.Generator, m: int) -> tuple[np.ndarray, float]:
    """Logits with a top-two gap of at least MIN_LOGIT_GAP (unique maximum), and that gap.

    Tiny gaps make the decay bounds vacuous at representable alpha, so draws
    below the floor are rejected and redrawn.
    """
    while True:
        z = rng.uniform(-10.0, 10.0, size=m)
        gap = logit_gap(z)
        if m == 1 or gap >= MIN_LOGIT_GAP:
            return z, gap


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


def _batched(draws: list, run_group) -> list:
    """Replace each draw of ``draws`` by its ``(rows, problem)`` pair, one pass per group.

    ``draws`` holds one tuple of fields per draw, and draws whose fields have
    equal shapes form a group. ``run_group(idx, *columns)`` gets the group's
    draw indices and each field stacked over its draws, and yields one pair
    per draw of the group, in order; each pair takes its draw's slot, so the
    list ends in draw order and holds each draw's inputs or its result.
    """
    groups: dict[tuple, list[int]] = {}
    for i, draw in enumerate(draws):
        groups.setdefault(tuple(getattr(x, "shape", ()) for x in draw), []).append(i)
    for idx in groups.values():
        columns = (np.array(col) for col in zip(*(draws[i] for i in idx)))
        for i, pair in zip(idx, run_group(idx, *columns)):
            draws[i] = pair
    return draws


def _per_draw(*columns):
    """Zip the columns of a group pass, arrays as Python numbers."""
    return zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))


def _nonincreasing(values: np.ndarray, scale=1.0) -> list[bool]:
    """Per row: each value is at most its predecessor plus MONOTONE_SLACK * scale."""
    slack = MONOTONE_SLACK * np.reshape(scale, (-1, 1))
    return (values[:, 1:] <= values[:, :-1] + slack).all(axis=1).tolist()


def _scale_equivalence(seed: int, draws: int):
    rng = np.random.default_rng(seed)
    for start in range(0, draws, _EQUIVALENCE_BLOCK):
        block, groups = [], {}
        for j in range(min(_EQUIVALENCE_BLOCK, draws - start)):
            n, m, d = (int(rng.integers(1, high)) for high in (17, 17, 9))
            gamma = float(rng.uniform(0.5, 3.0))
            q = rng.normal(size=(n, d))
            k = rng.normal(size=(m, d))
            rng.normal(size=(m, d))  # V: no route reads it, but the stream keeps its draw
            block.append((n, m, d, gamma, q, k))
            groups.setdefault(m, []).append(j)
        max_diffs = {}
        for idx in groups.values():
            # Each draw's products stay 2-D and unpadded, as attention_forward
            # forms them; only the softmax passes run on the stacks.
            ns, gammas, z_q, z_k, z = zip(*(
                (n, g, scaled_logits(g * q, k), scaled_logits(q, g * k), scaled_logits(q, k))
                for n, _, _, g, q, k in (block[j] for j in idx)))
            p_q, p_k = row_softmax(np.concatenate(z_q)), row_softmax(np.concatenate(z_k))
            p_t = _tempered(np.concatenate(z), np.repeat(gammas, ns)[:, None])
            pairs = ((p_q, p_k), (p_q, p_t), (p_k, p_t))
            diffs = np.max([np.abs(a - b).max(axis=1) for a, b in pairs], axis=0)
            starts = np.cumsum((0,) + ns[:-1])
            max_diffs.update(zip(idx, np.maximum.reduceat(diffs, starts).tolist()))
        for j, (n, m, d, gamma, _, _) in enumerate(block):
            i, max_diff = start + j, max_diffs[j]
            margin = PAIRWISE_TOLERANCE - max_diff
            row = {"draw": i, "n": n, "m": m, "d": d, "gamma": gamma, "max_diff": max_diff,
                   "margin": margin}
            yield [row], (
                f"draw {i}: pairwise diff {max_diff:.3e} exceeds {PAIRWISE_TOLERANCE}"
                if margin < 0
                else None
            )


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
    h2 = entropy(_tempered(zs, alphas2[:, None]))
    monotone = _nonincreasing(np.stack([rep.entropy, h2], axis=1))
    cols = _per_draw(idx, ms, alphas, alphas2, rep.entropy, rep.variance, rep.abs_gap, h2, monotone)
    for i, m, alpha, alpha2, h, variance, abs_gap, h_2, monotone_ok in cols:
        row = {"draw": i, "m": m, "subset_size": zs.shape[1], "alpha": alpha, "entropy": h,
               "variance": variance, "slope_gap": abs_gap, "margin": SLOPE_TOLERANCE - abs_gap,
               "monotone_ok": int(monotone_ok)}
        yield [row], (
            f"draw {i}: slope gap {abs_gap:.3e}, "
            f"H({alpha2:.3f})={h_2:.6f} vs H({alpha:.3f})={h:.6f}"
            if not (monotone_ok and abs_gap < SLOPE_TOLERANCE)
            else None
        )


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
    env_oks = _nonincreasing(envelope, np.maximum(1.0, envelope[:, 0]))
    psd_oks = curv.min_eigenvalue[:, 0] >= -PSD_SLACK
    cols = _per_draw(idx, alphas, deltas, curv.spectral_norm, curv.decay_bound[:, 0],
                     curv.tail_mass[:, 0], curv.tail_bound[:, 0], curv.gershgorin_bound[:, 0],
                     psd_oks, env_oks, [v[0] for v in curv.violations])
    for i, alpha, delta, (norm, collapse), decay, tail, tail_b, gersh, psd_ok, env_ok, viol in cols:
        row = {"draw": i, "m": m, "alpha": alpha, "logit_gap": delta, "spectral_norm": norm,
               "decay_bound": decay, "tail_mass": tail, "tail_bound": tail_b,
               "gershgorin_bound": gersh, "margin": decay - norm, "collapse_norm": collapse,
               "psd_ok": int(psd_ok), "envelope_ok": int(env_ok)}
        bad = bool(viol) or not (psd_ok and env_ok and collapse < COLLAPSE_NORM_LIMIT)
        yield [row], (
            f"draw {i}: bound violations {viol}, psd_ok={psd_ok}, "
            f"env_ok={env_ok}, norm at 50/gap = {collapse:.3e}"
            if bad
            else None
        )


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
    _, m, d_v = vs.shape
    rep = lipschitz_report(zs, vs, alphas1, alphas2)
    cols = _per_draw(idx, alphas1, alphas2, rep.deviation, rep.bound, rep.margin)
    for i, alpha1, alpha2, deviation, bound, margin in cols:
        row = {"draw": i, "m": m, "d_v": d_v, "alpha1": alpha1, "alpha2": alpha2,
               "deviation": deviation, "bound": bound, "margin": margin}
        problem = f"draw {i}: deviation {deviation:.6e} exceeds bound {bound:.6e}"
        yield [row], problem if margin < 0 else None


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
        row = {"probe": i, "alpha": alpha, "t": t, "b_t": rep.b_t, "deviation": rep.deviation,
               "bound": rep.bound, "margin": rep.margin, "lipschitz_upper": rep.lipschitz_upper}
        yield [row], (
            f"probe {i}: deviation {rep.deviation:.6e} exceeds bound {rep.bound:.6e}"
            if rep.margin < 0
            else None
        )


# Suites by name; each takes (seed, count), where count is the probe count for
# the deviation suite and the draw count for the others, and gives one
# (rows, problem) pair per draw, in draw order.
_SUITE_FUNCS = dict(
    zip(SUITE_NAMES, (_scale_equivalence, _entropy_slope, _curvature, _lipschitz, _deviation))
)


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


def _sweep(idx, zs, gaps, grid):
    n = gaps.size
    alphas = np.tile(grid, (n, 1)) if grid else np.divide(SWEEP_GAP_RATIOS, gaps[:, None])
    curv = curvature_rows(zs, alphas)
    entropies = entropy(curv.p.reshape(-1, zs.shape[1])).reshape(n, -1)
    variances = _variance_rows(curv.p, zs[:, None, :])
    monotone = _nonincreasing(entropies)
    # The envelope is checked from 2/Delta on, a suffix of each sorted grid;
    # the decay bounds before it (all of them when Delta = 0) read as inf.
    checked = alphas >= np.divide(2.0, gaps, out=np.full(n, np.inf), where=gaps > 0)[:, None]
    first = curv.decay_bound[np.arange(n), np.argmax(checked, axis=1)]
    env = np.where(checked, curv.decay_bound, np.inf)
    envelope = _nonincreasing(env, np.maximum(1.0, first))
    # The default grid ends at 50/Delta, where the curvature has collapsed.
    collapse = (curv.spectral_norm[:, -1] < COLLAPSE_NORM_LIMIT) | bool(grid)
    cols = _per_draw(idx, gaps, [grid] * n if grid else alphas, monotone, envelope, collapse,
                     curv.violations, entropies, variances, curv.spectral_norm, curv.tail_mass,
                     curv.tail_bound, curv.gershgorin_bound, curv.decay_bound)
    for i, gap, grid_i, monotone_ok, envelope_ok, collapse_ok, violations, *per_alpha in cols:
        bound_ok = not any(violations)
        rows = [
            {"draw": i, "alpha": alpha, "entropy": h, "variance": var, "spectral_norm": norm,
             "tail_mass": tail, "tail_bound": tail_bound, "gershgorin_bound": gersh,
             "decay_bound": decay, "logit_gap": gap, "entropy_monotone_ok": int(monotone_ok),
             "envelope_ok": int(envelope_ok), "collapse_ok": int(collapse_ok)}
            for alpha, h, var, norm, tail, tail_bound, gersh, decay in zip(grid_i, *per_alpha)
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
        if np.isinf(hi - lo) and np.isfinite(z).all():
            raise ValueError(f"logit spread max - min = {hi!r} - ({lo!r}) overflows float64")
        gap = logit_gap(z)
        # Drawn logits have a gap of at least MIN_LOGIT_GAP, so only z can fail these.
        if not alpha_grid and gap == 0:
            raise ValueError(
                "draw 0 has a tied maximum (top-two gap 0), so the default grid "
                "SWEEP_GAP_RATIOS / gap is undefined; give an explicit grid with --alpha-grid"
            )
        if not alpha_grid and np.isinf(SWEEP_GAP_RATIOS[-1] / gap):
            raise ValueError(
                f"draw 0 has a top-two gap of {gap!r}, so the default grid "
                "SWEEP_GAP_RATIOS / gap overflows; give an explicit grid with --alpha-grid"
            )
        z_draws = [(z, gap)]
    else:
        rng = np.random.default_rng(seed)
        z_draws = [_draw_gapped_logits(rng, int(rng.integers(2, 17))) for _ in range(draws)]
    grid = sorted(alpha_grid) if alpha_grid else None
    return _collect("sweep", _batched(z_draws, lambda idx, *cols: _sweep(idx, *cols, grid)))
