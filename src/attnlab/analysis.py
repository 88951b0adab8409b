"""Diagnostics on attention distributions: entropy, curvature, sensitivity bounds.

All entropies are in nats. The inverse-temperature parameter alpha multiplies
the logits: p_j(alpha) = exp(alpha z_j) / sum_k exp(alpha z_k), optionally
restricted to an index subset S with renormalization over S only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .attention import KeyPartition
from .numerics import as_matrix, as_vector, row_softmax, spectral_norms

ENTROPY_SUM_TOLERANCE = 1e-8
DEFAULT_FD_STEP = 1e-5
# Float slack for bound checks that are exact in real arithmetic.
_BOUND_SLACK = 1e-12
_SECULAR_STEPS = 100  # cap on the secular solve's steps; brackets close long before
# Curvature violations by bitmask (bit 0 gershgorin, bit 1 tail, bit 2 decay),
# each listing the violated bounds in that order.
_CURVATURE_VIOLATIONS = tuple(
    tuple(name for bit, name in enumerate(("gershgorin", "tail", "decay")) if mask >> bit & 1)
    for mask in range(8)
)


def _rows(x, name: str) -> tuple[np.ndarray, bool]:
    """``x`` as C-ordered rows, and whether it is a stack.

    An (n, m) stack passes the checks of :func:`as_matrix`; anything else
    those of :func:`as_vector`, and becomes one row. The rows are C-ordered
    so that each reduces, and each dot product rounds, as a vector would.
    """
    stacked = np.ndim(x) == 2
    rows = as_matrix(x, name) if stacked else as_vector(x, name)[None, :]
    return np.ascontiguousarray(rows), stacked


def _tempered(z: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """softmax(alpha z) of every logit row at every alpha of its grid row.

    ``z`` is an (n, m) logit stack and ``alphas`` an (n, k) grid; row i k + j
    of the (n k, m) result is softmax(alphas[i, j] z[i]). This is the one
    place the library forms tempered logits. They are laid out C-ordered
    whatever the layout of ``z``, so each row reduces as a vector would.
    Finite logits whose products overflow raise ``ValueError`` naming the
    grid's largest alpha; non-finite logits keep ``row_softmax``'s message.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        products = np.multiply(alphas[:, :, None], z[:, None, :], order="C")
    try:
        return row_softmax(products.reshape(alphas.size, z.shape[1]))
    except ValueError:
        if np.isfinite(z).all() and not np.isfinite(products).all():
            raise ValueError(
                f"alpha must keep the tempered logits finite, got {float(np.max(alphas))!r}"
            ) from None
        raise


def entropy(p):
    """Shannon entropy -sum p_j ln p_j in nats, with 0 ln 0 := 0.

    ``p`` must be a distribution: nonnegative entries summing to 1 within
    ``ENTROPY_SUM_TOLERANCE``. An (n, m) stack of distributions gives an
    array of n entropies, one per row. This is :func:`_row_entropies` after
    the checks of :func:`_rows`.
    """
    pm, stacked = _rows(p, "distribution")
    if (pm < 0).any():
        raise ValueError("invalid distribution: negative entry")
    h = _row_entropies(pm)
    return h if stacked else float(h[0])


def _row_entropies(q: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row of a nonnegative, finite, C-ordered (n, m) stack.

    A row whose sum is off 1 by more than ``ENTROPY_SUM_TOLERANCE`` raises
    ``ValueError`` (giving the first such row's sum). Each row sums only its
    positive terms, in index order, so a row's entropy does not depend on the
    stack it sits in.
    """
    totals = q.sum(axis=1)
    bad = np.abs(totals - 1.0) > ENTROPY_SUM_TOLERANCE
    if bad.any():
        raise ValueError(f"invalid distribution: sum is {float(totals[bad][0])!r}, not 1")
    positive = q > 0
    h = -(q * np.log(np.where(positive, q, 1.0))).sum(axis=1)
    if positive.all():
        return h
    # A zero term would change how the pairwise sum groups the positive ones,
    # so a row with zeros sums its positive entries alone: the rows with c
    # positive entries gather them, in index order, into a contiguous (rows, c)
    # stack, whose rows each sum as a vector of c would.
    counts = positive.sum(axis=1)
    gapped = np.flatnonzero(counts < q.shape[1])
    for c in set(counts[gapped].tolist()):
        rows = gapped[counts[gapped] == c]
        nz = q[rows][positive[rows]].reshape(-1, c)
        h[rows] = -(nz * np.log(nz)).sum(axis=1)
    return h


def _subset_indices(s, size: int) -> np.ndarray:
    idx = np.asarray(list(s), dtype=np.intp)
    if idx.size == 0:
        raise ValueError("index subset must be nonempty")
    if len(set(idx.tolist())) != idx.size:
        raise ValueError("index subset contains duplicates")
    if (idx < 0).any() or (idx >= size).any():
        raise ValueError(f"index subset out of range 0..{size - 1}")
    return np.sort(idx)


def _variance_rows(p: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Var_{p_i}[z_i] for each row p_i of a (..., m) softmax stack over its logits ``z``.

    ``z`` is one logit vector for all rows, or one per row. Two passes about
    z_max, the shift the softmax already subtracts: the mean of d = z - z_max,
    then the mean square of d about it. Each term is nonnegative, so no
    E[z^2] - E[z]^2 cancellation occurs and the result is unchanged when a
    constant shift of ``z`` leaves d and p unchanged.
    """
    d = z - z.max(axis=-1, keepdims=True)
    mean = (p * d).sum(axis=-1)
    return (p * (d - mean[..., None]) ** 2).sum(axis=-1)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy of p_S(alpha) with its analytic and finite-difference slopes."""

    alpha: float
    entropy: float
    variance: float
    analytic_derivative: float
    numeric_derivative: float
    abs_gap: float


def entropy_alpha_report(z, s, alpha) -> EntropyReport:
    """Compare dH/dalpha = -alpha * Var_{p_S(alpha)}[z_S] with a central difference.

    The analytic slope comes from the moment identity; the numeric slope is
    (H(alpha+h) - H(alpha-h)) / 2h with h = ``DEFAULT_FD_STEP``. Requires
    alpha - h > 0 so both probe points stay in the valid range.

    With an (n, m) stack ``z`` and n alphas, every field is an array and row
    i equals ``entropy_alpha_report(z[i], s, alpha[i])`` bit for bit: the
    three probe points of every row make one softmax and entropy stack.
    """
    zm, stacked = _rows(z, "logits")
    # A copy: the report's alpha must not follow a later edit of the caller's array.
    a = np.ravel(np.array(alpha, dtype=np.float64))
    h = DEFAULT_FD_STEP
    bad = np.flatnonzero(a - h <= 0)
    if bad.size:
        raise ValueError(f"alpha={np.ravel(alpha)[bad[0]]} too small for fd_step={h}")
    # A fancy-indexed column subset is F-ordered; the rows are summed C-ordered.
    zs = np.ascontiguousarray(zm[:, _subset_indices(s, zm.shape[1])])
    p = _tempered(zs, np.stack([a - h, a, a + h], axis=1))
    h_lo, h_mid, h_hi = _row_entropies(p).reshape(-1, 3).T
    variance = _variance_rows(p[1::3], zs)
    analytic = -a * variance
    numeric = (h_hi - h_lo) / (2.0 * h)
    cols = (h_mid, variance, analytic, numeric, np.abs(analytic - numeric))
    return EntropyReport(a, *cols) if stacked else EntropyReport(alpha, *(float(c[0]) for c in cols))


def _top_gaps(zm: np.ndarray) -> np.ndarray:
    """:func:`logit_gap` of each row of an (n, m) logit stack, without its checks."""
    top = np.sort(zm, axis=1)
    return top[:, -1] - top[:, -2] if zm.shape[1] > 1 else np.zeros(zm.shape[0])


def logit_gap(z):
    """Gap between the two largest logits: 0.0 for a tied maximum or a single logit.
    An (n, m) stack of logit vectors gives an array of gaps, one per row.
    Empty logits, a vector or a stack with no column, raise ``ValueError``."""
    zm, stacked = _rows(z, "logits")
    if not zm.shape[1]:
        raise ValueError("empty logits")
    gaps = _top_gaps(zm)
    return gaps if stacked else float(gaps[0])


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature of the log-partition at alpha and the decay bounds on it.

    ``p`` is softmax(alpha z) and ``min_eigenvalue`` the smallest eigenvalue
    of the Hessian alpha^2 (diag(p) - p p^T), whose norm is
    ``spectral_norm``. ``tail_mass`` is t = 1 - p_max, summed over the other
    entries of p so that it does not cancel to 0; ``tail_bound`` is
    (m-1) exp(-alpha Delta) with Delta the top-two logit gap;
    ``gershgorin_bound`` bounds the unscaled curvature matrix diag(p) - p p^T
    by its largest Gershgorin row sum 2 p_i (1 - p_i), taken as 2 p_max t for
    the top entry, so the Hessian norm is at most alpha^2 * gershgorin_bound;
    ``decay_bound`` is 2 alpha^2 (m-1) exp(-alpha Delta). With a tied maximum
    (Delta = 0) the gap-based bounds are vacuous and ``gap_applicable`` is
    False. ``violations`` names any bound the computed norm exceeded.

    One alpha (:func:`curvature_report`) gives Python floats, the softmax
    vector ``p`` and one tuple of names. A grid (:func:`curvature_rows`)
    gives arrays with one entry per alpha, ``p`` the (k, m) softmax stack and
    one ``violations`` tuple per alpha; ``logit_gap`` and ``gap_applicable``
    belong to the logit vector. A stack of N logit vectors adds a leading
    axis of length N to every field.
    """

    alpha: float
    p: np.ndarray
    spectral_norm: float
    min_eigenvalue: float
    gershgorin_bound: float
    tail_mass: float
    tail_bound: float
    decay_bound: float
    logit_gap: float
    gap_applicable: bool
    violations: tuple


def _secular(x, q, top, t):
    """Phi(x) = top - x + (top - t x) sum_j q_j^2 / (x - q_j), and dPhi/dx, per row."""
    d = x[:, None] - q
    w = q * q / d
    a, s = top - t * x, w.sum(axis=1)
    return top - x + a * s, -1.0 - t * s - a * (w / d).sum(axis=1)


def _spectrum_ends(top, tail, t):
    """Largest and smallest eigenvalue of diag(p) - p p^T for each row p of a softmax stack.

    ``top`` is each row's entry at its top logit, ``tail`` the C-ordered
    (rows, m - 1) stack of the others and ``t`` their sums. The eigenvalues
    are the roots of the secular equation of the rank-one downdate (Golub,
    SIAM Rev. 1973; Bunch, Nielsen & Sorensen, Numer. Math. 1978), whose top
    term, written through t, does not cancel near a one-hot row:
    f(lam) = (top t - lam) / (top - lam) - sum_j tail_j^2 / (tail_j - lam).
    lam_max, its root in [p_(2), min(top, Gershgorin)], is found in units of
    t (lam = t x, q = tail / t) on Phi = (top - lam) f / t, convex and
    decreasing there: Newton steps from the upper end, on the open rows,
    bisecting when a step leaves the bracket or lands on its pole p_(2); a
    row stops once its next point is a bracket end, as a step that rounds to
    zero is. lam_min is the
    root nearest 0: 0 when p has an exact 0, else one Newton step from 0.
    """
    q = np.divide(tail, t[:, None], out=np.zeros_like(tail), where=t[:, None] > 0.0)
    lo = q.max(axis=1, initial=0.0)
    gersh = np.maximum(2.0 * top, (2.0 * q * (1.0 - tail)).max(axis=1, initial=0.0))
    # top / t >= 2 >= gersh once t <= top / 2, so the clamp keeps the minimum.
    hi = np.minimum(top / np.maximum(t, 0.5 * top), gersh)
    x = np.maximum(lo, hi)  # a tie, p_(2) = top, closes the bracket at top
    pole = lo
    rows = np.flatnonzero(lo < hi)
    lo, hi = lo[rows], hi[rows]
    for _ in range(_SECULAR_STEPS):
        if not rows.size:
            break
        xr = x[rows]
        phi, dphi = _secular(xr, q[rows], top[rows], t[rows])
        lo, hi = np.where(phi >= 0.0, xr, lo), np.where(phi <= 0.0, xr, hi)
        step = xr - phi / dphi
        # lo starts at the pole q_max = p_(2) / t, where Phi is never evaluated: a
        # step that lands on it (from a near tie) would close the row off the root.
        inside = (lo <= step) & (step <= hi) & (step != pole[rows])
        x[rows] = xr = np.where(inside, step, 0.5 * (lo + hi))
        open_ = (xr != lo) & (xr != hi)
        rows, lo, hi = rows[open_], lo[open_], hi[open_]
    full = np.flatnonzero((tail > 0.0).all(axis=1))
    phi, dphi = _secular(np.zeros(full.size), q[full], top[full], t[full])
    lam_min = np.zeros(t.size)
    lam_min[full] = t[full] * (-phi / dphi)
    return t * x, lam_min


def curvature_rows(z, alphas) -> CurvatureReport:
    """Curvature and its decay bounds at every alpha of a grid, in one stacked pass.

    The stack form of :func:`curvature_report`, as a :class:`CurvatureReport`
    of arrays whose ``alpha`` is the validated grid: entry i equals
    ``curvature_report(z, alphas[i])`` bit for bit, and the same inputs are
    rejected (non-finite or empty ``z``, any alpha <= 0), as is an empty grid.
    With an (N, k) grid, ``z`` is an (N, m) stack of logit vectors, row n of
    the grid belongs to ``z[n]``, and vector n's fields equal
    ``curvature_rows(z[n], alphas[n])`` bit for bit.

    The (N k, m) softmax stack is built in one pass. The Hessian
    alpha^2 (diag(p) - p p^T) is never formed: :func:`_spectrum_ends` solves
    for its extreme eigenvalues in O(m) per row and step.
    """
    a = np.array(alphas, dtype=np.float64)  # a copy, as in entropy_alpha_report
    stacked = a.ndim == 2
    zm = as_matrix(z, "logits") if stacked else as_vector(z, "logits")[None, :]
    if a.size == 0:
        raise ValueError("alpha grid must be nonempty")
    bad = np.flatnonzero(a <= 0)
    if bad.size:
        raise ValueError(f"alpha must be positive, got {np.ravel(alphas)[bad[0]]}")
    n, m = zm.shape
    if a.shape[0] != n and stacked:
        raise ValueError(f"alpha grid rows ({a.shape[0]}) != logit rows ({n})")
    a = a.reshape(n, -1)
    k = a.shape[1]
    p = _tempered(zm, a)
    delta = _top_gaps(zm)
    # With m == 1 the bounds are exactly 0 and hold trivially.
    gap_applicable = (delta > 0.0) | (m == 1)
    # The mass off the top logit, s/(1+s) with s = sum_{j != j*} exp(alpha (z_j -
    # z_max)), as the sum of its own entries: 1 - p_max rounds to 0 once s
    # falls below half an ulp of 1 (Blanchard, Higham & Higham, IMA J. Numer.
    # Anal. 2021). Tied maxima leave other maxima in the sum; their bound is
    # not applicable. The entries are gathered into a contiguous row of m - 1,
    # so each row's pairwise sum groups them as a vector of m - 1 would.
    off = np.arange(m - 1)
    off = off + (off >= np.argmax(zm, axis=1)[:, None])
    tail = np.take_along_axis(p.reshape(n, k, m), off[:, None, :], axis=2).reshape(n * k, m - 1)
    tail_mass = tail.sum(axis=1)
    top = p.max(axis=1)  # p at the top logit: softmax keeps the logits' order
    af = a.ravel()
    gaps = np.repeat(delta, k).tolist()
    tail_bound = np.array([(m - 1) * math.exp(-x * g) for x, g in zip(af.tolist(), gaps)])
    # The top row's Gershgorin sum p_max (1 - p_max) is p_max t, which does not cancel.
    gersh = np.maximum(2.0 * top * tail_mass, (2.0 * tail * (1.0 - tail)).max(axis=1, initial=0.0))
    lam_max, lam_min = _spectrum_ends(top, tail, tail_mass)
    # alpha^2 leaves the float64 range near alpha = 1.3e154, long before the
    # tempered logits do: name alpha rather than report a NaN norm or bound.
    with np.errstate(over="ignore", invalid="ignore"):
        decay_bound = 2.0 * af * af * tail_bound
        norm = af * af * lam_max
    if not (np.isfinite(decay_bound).all() and np.isfinite(norm).all()):
        raise ValueError(
            f"alpha must keep the curvature and its decay bound finite, got {float(np.max(a))!r}"
        )

    slack = _BOUND_SLACK * np.maximum(1.0, af * af)
    mask = (norm > af * af * gersh + slack).astype(int)
    mask += np.repeat(gap_applicable, k) * (
        2 * (tail_mass > tail_bound + _BOUND_SLACK) + 4 * (norm > decay_bound + slack)
    )
    per_alpha = (norm, af * af * lam_min, gersh, tail_mass, tail_bound, decay_bound)
    cols = (a, p.reshape(n, k, m), *(c.reshape(n, k) for c in per_alpha))
    violations = tuple(
        tuple(_CURVATURE_VIOLATIONS[j] for j in row) for row in mask.reshape(n, k).tolist()
    )
    if stacked:
        return CurvatureReport(*cols, delta, gap_applicable, violations)
    return CurvatureReport(*(c[0] for c in cols), float(delta[0]), bool(gap_applicable[0]),
                           violations[0])


def curvature_report(z, alpha: float) -> CurvatureReport:
    """Curvature of the log-partition at one alpha: the first entry of
    ``curvature_rows(z, (alpha,))``, with its checks and errors, its floats
    Python floats and ``p`` the softmax vector.

    The spectral norm is alpha^2 times the largest root of the secular
    equation of diag(p) - p p^T (see :func:`_spectrum_ends`).
    """
    r = curvature_rows(z, (alpha,))
    # The per-alpha floats, spectral_norm to decay_bound, follow alpha and p.
    return CurvatureReport(float(alpha), r.p[0],
                           *(float(getattr(r, f.name)[0]) for f in fields(r)[2:8]),
                           r.logit_gap, r.gap_applicable, r.violations[0])


@dataclass(frozen=True)
class LipschitzReport:
    """Output deviation of y(alpha) = V^T p(alpha) against the analytic bound."""

    alpha1: float
    alpha2: float
    deviation: float
    bound: float
    margin: float


def lipschitz_report(z, v, alpha1, alpha2) -> LipschitzReport:
    """Check ||y(alpha1) - y(alpha2)|| <= (1/2) ||V||_2 ||z||_2 |alpha1 - alpha2|.

    The map alpha |-> softmax(alpha z) has Jacobian norm at most ||z|| / 2, so
    the bound holds for every logit vector and value matrix; ``margin`` is
    bound minus deviation and is nonnegative up to float rounding.

    With an (n, m) stack ``z``, an (n, m, d) stack ``v`` and n alphas each,
    every field is an array, row i equal to ``lipschitz_report(z[i], v[i],
    alpha1[i], alpha2[i])`` bit for bit: the products are batched matrix by
    matrix, ``||V||_2`` is :func:`~attnlab.numerics.spectral_norms`, and
    the vector norms are dot products of C-ordered rows, which round as each
    row's ``np.linalg.norm`` does.
    """
    zm, stacked = _rows(z, "logits")
    vm = np.asarray(v, dtype=np.float64) if stacked else as_matrix(v, "V")[None]
    if stacked and (vm.ndim != 3 or not np.isfinite(vm).all()):
        raise ValueError("V must be a finite 3-D stack")
    if vm.shape[:2] != zm.shape:
        raise ValueError(f"V rows ({vm.shape[1]}) != logit length ({zm.shape[1]})")
    for name, col in (("alpha1", alpha1), ("alpha2", alpha2)):
        if (np.asarray(col) <= 0).any():
            raise ValueError(f"{name} must be positive, got {col}")
    a = np.stack([np.ravel(alpha1), np.ravel(alpha2)], axis=1).astype(np.float64)
    n, m = zm.shape
    vt = np.swapaxes(vm, 1, 2)
    y = vt[:, None] @ _tempered(zm, a).reshape(n, 2, m, 1)
    gap = (y[:, 0] - y[:, 1]).reshape(n, -1)
    deviation = np.sqrt(np.vecdot(gap, gap))
    bound = 0.5 * spectral_norms(vm) * np.sqrt(np.vecdot(zm, zm)) * np.abs(a[:, 0] - a[:, 1])
    cols = (deviation, bound, bound - deviation)
    if stacked:
        return LipschitzReport(a[:, 0], a[:, 1], *cols)
    return LipschitzReport(alpha1, alpha2, *(float(c[0]) for c in cols))


@dataclass(frozen=True)
class GroupMassReport:
    """Attention mass per key group plus the conditioning-block entropy.

    ``entropy_cond`` is the entropy of p restricted to text+image indices and
    renormalized; NaN flags a degenerate case (empty conditioning set or zero
    conditioning mass) rather than raising. One row
    (:func:`group_mass_report`) gives Python floats; a stack
    (:func:`group_mass_rows`) gives arrays with one entry per row.
    """

    mass_text: float
    mass_image: float
    mass_video: float
    entropy_cond: float


def group_mass_rows(p, partition: KeyPartition) -> GroupMassReport:
    """Group masses and conditioning entropy of every row of ``p`` in one pass.

    Returns a :class:`GroupMassReport` of arrays, one entry per row. Row i
    equals ``group_mass_report(p[i], partition)`` bit for bit, and the same
    inputs are rejected: a non-finite or negative entry, or a nonzero
    conditioning row that does not renormalize to a sum of 1 within
    ``ENTROPY_SUM_TOLERANCE`` (the error gives the first such row's sum).
    """
    pm = as_matrix(p, "distribution")
    n, m = pm.shape
    if m != partition.size:
        raise ValueError(f"distribution length {m} != partition size {partition.size}")
    if (pm < 0).any():
        raise ValueError("invalid distribution: negative entry")

    def columns(idx: range) -> np.ndarray:
        # A column slice of p is not C-ordered, and its sum(axis=1) rounds
        # differently from a 1-D row sum; the C-ordered copy sums each row
        # like a vector. An empty group sums to exact zeros.
        return np.ascontiguousarray(pm[:, idx.start:idx.stop])

    h_cond = np.full(n, math.nan)
    cond = partition.conditioning
    if cond:
        c = columns(cond)
        cond_mass = c.sum(axis=1)
        ok = cond_mass > 0.0
        if ok.all():
            ok = slice(None)  # no masked copy when every row has conditioning mass
        h_cond[ok] = _row_entropies(c[ok] / cond_mass[ok, None])
    return GroupMassReport(
        mass_text=columns(partition.text).sum(axis=1),
        mass_image=columns(partition.image).sum(axis=1),
        mass_video=columns(partition.video).sum(axis=1),
        entropy_cond=h_cond,
    )


def group_mass_report(p, partition: KeyPartition) -> GroupMassReport:
    """The single-row case of :func:`group_mass_rows`, its fields Python floats."""
    rows = group_mass_rows(as_vector(p, "distribution")[None, :], partition)
    return GroupMassReport(*(float(getattr(rows, f.name)[0]) for f in fields(rows)))


def flops_overhead(
    scaled_blocks: int, total_blocks: int, scaled_steps: int, total_steps: int
) -> float:
    """Overhead fraction (L_s / L) * (T_s / T) of the product schedule."""
    if total_blocks < 1 or total_steps < 1:
        raise ValueError("totals must be >= 1")
    if not 0 <= scaled_blocks <= total_blocks:
        raise ValueError(f"scaled_blocks {scaled_blocks} out of range 0..{total_blocks}")
    if not 0 <= scaled_steps <= total_steps:
        raise ValueError(f"scaled_steps {scaled_steps} out of range 0..{total_steps}")
    return (scaled_blocks / total_blocks) * (scaled_steps / total_steps)
