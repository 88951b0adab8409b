"""Diagnostics on attention distributions: entropy, curvature, sensitivity bounds.

All entropies are in nats. The inverse-temperature parameter alpha multiplies
the logits: p_j(alpha) = exp(alpha z_j) / sum_k exp(alpha z_k), optionally
restricted to an index subset S with renormalization over S only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .attention import KeyPartition
from .numerics import as_matrix, as_vector, eigvalsh_sym, row_softmax, softmax_vec, spectral_norm

ENTROPY_SUM_TOLERANCE = 1e-8
DEFAULT_FD_STEP = 1e-5
# Float slack for bound checks that are exact in real arithmetic.
_BOUND_SLACK = 1e-12
# Largest Hessian stack curvature_rows builds at once, in float64 entries
# (16 MiB): a long logit vector is solved a few alphas at a time.
_HESSIAN_STACK_ENTRIES = 1 << 21
# Curvature violations by bitmask (bit 0 gershgorin, bit 1 tail, bit 2 decay),
# each listing the violated bounds in that order.
_CURVATURE_VIOLATIONS = tuple(
    tuple(name for bit, name in enumerate(("gershgorin", "tail", "decay")) if mask >> bit & 1)
    for mask in range(8)
)


def entropy(p) -> float:
    """Shannon entropy -sum p_j ln p_j in nats, with 0 ln 0 := 0.

    ``p`` must be a distribution: nonnegative entries summing to 1 within
    ``ENTROPY_SUM_TOLERANCE``. This is the one-row case of
    :func:`_row_entropies`, after the vector checks of :func:`as_vector`.
    """
    pv = as_vector(p, "distribution")
    if (pv < 0).any():
        raise ValueError("invalid distribution: negative entry")
    return float(_row_entropies(np.ascontiguousarray(pv)[None, :])[0])


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
    # A zero term would change how the pairwise sum groups the positive ones,
    # so a row with zeros sums its positive entries alone.
    for i in np.flatnonzero(~positive.all(axis=1)):
        nz = q[i][positive[i]]
        h[i] = -(nz * np.log(nz)).sum()
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
    """Var_{p_i}[z] for each row p_i of a (k, m) softmax stack over the logits ``z``.

    Two passes about z_max, the shift the softmax already subtracts: the
    mean of d = z - z_max, then the mean square of d about it. Each term is
    nonnegative, so no E[z^2] - E[z]^2 cancellation occurs and the result is
    unchanged when a constant shift of ``z`` leaves d and p unchanged.
    """
    d = z - z.max()
    mean = (p * d).sum(axis=1)
    return (p * (d - mean[:, None]) ** 2).sum(axis=1)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy of p_S(alpha) with its analytic and finite-difference slopes."""

    alpha: float
    entropy: float
    variance: float
    analytic_derivative: float
    numeric_derivative: float
    abs_gap: float


def entropy_alpha_report(z, s, alpha: float) -> EntropyReport:
    """Compare dH/dalpha = -alpha * Var_{p_S(alpha)}[z_S] with a central difference.

    The analytic slope comes from the moment identity; the numeric slope is
    (H(alpha+h) - H(alpha-h)) / 2h with h = ``DEFAULT_FD_STEP``. Requires
    alpha - h > 0 so both probe points stay in the valid range.
    """
    zv = as_vector(z, "logits")
    h = DEFAULT_FD_STEP
    if alpha - h <= 0:
        raise ValueError(f"alpha={alpha} too small for fd_step={h}")
    zs = zv[_subset_indices(s, zv.size)]
    # One stack over the probe points alpha - h, alpha, alpha + h.
    p = row_softmax(np.array([alpha - h, alpha, alpha + h])[:, None] * zs)
    h_lo, h_mid, h_hi = _row_entropies(p).tolist()
    variance = float(_variance_rows(p[1:2], zs)[0])
    analytic = -alpha * variance
    numeric = (h_hi - h_lo) / (2.0 * h)
    return EntropyReport(
        alpha=alpha,
        entropy=h_mid,
        variance=variance,
        analytic_derivative=analytic,
        numeric_derivative=numeric,
        abs_gap=abs(analytic - numeric),
    )


def _hessians(p: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The (k, m, m) stack alpha_k^2 (diag(p_k) - p_k p_k^T) for the rows p_k of ``p``.

    Every matrix is exactly symmetric in IEEE arithmetic: entry (i, j) and
    entry (j, i) are the same products of the same operands.
    """
    m = p.shape[1]
    unscaled = p[:, :, None] * np.eye(m) - p[:, :, None] * p[:, None, :]
    return (alphas * alphas)[:, None, None] * unscaled


def attention_hessian(z, alpha: float) -> np.ndarray:
    """Hessian of the log-partition alpha |-> log sum exp(alpha z): alpha^2 (diag(p) - p p^T).

    Symmetric PSD with zero row sums; p = softmax(alpha z).
    """
    zv = as_vector(z, "logits")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    p = softmax_vec(alpha * zv)
    return _hessians(p[None, :], np.array([alpha], dtype=np.float64))[0]


def logit_gap(z) -> float:
    """Gap between the two largest logits: 0.0 for a tied maximum or a single logit."""
    zv = as_vector(z, "logits")
    if zv.size == 1:
        return 0.0
    top_two = np.sort(zv)[-2:]
    return float(top_two[1] - top_two[0])


@dataclass(frozen=True)
class CurvatureReport:
    """Curvature of the log-partition at alpha and the decay bounds on it.

    ``tail_mass`` is 1 - p_max, summed over the other entries of p so that it
    does not cancel to 0; ``tail_bound`` is (m-1) exp(-alpha Delta) with
    Delta the top-two logit gap; ``gershgorin_bound`` bounds the unscaled
    curvature matrix diag(p) - p p^T by max_i 2 p_i (1 - p_i), so the Hessian
    norm is at most alpha^2 * gershgorin_bound; ``decay_bound`` is
    2 alpha^2 (m-1) exp(-alpha Delta). With a tied maximum (Delta = 0) the
    gap-based bounds are vacuous and ``gap_applicable`` is False.
    ``violations`` names any bound the computed norm exceeded.
    """

    alpha: float
    spectral_norm: float
    gershgorin_bound: float
    tail_mass: float
    tail_bound: float
    decay_bound: float
    logit_gap: float
    gap_applicable: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class CurvatureRows:
    """:class:`CurvatureReport` fields of one logit vector over a grid of alphas.

    The per-alpha fields are arrays with one entry per alpha, in grid order,
    and ``violations`` is one tuple per alpha. ``p`` is the (k, m) softmax
    stack and ``min_eigenvalue`` the smallest Hessian eigenvalue at each
    alpha. ``logit_gap`` and ``gap_applicable`` belong to the logit vector
    and hold for every alpha.
    """

    p: np.ndarray
    spectral_norm: np.ndarray
    min_eigenvalue: np.ndarray
    gershgorin_bound: np.ndarray
    tail_mass: np.ndarray
    tail_bound: np.ndarray
    decay_bound: np.ndarray
    logit_gap: float
    gap_applicable: bool
    violations: tuple[tuple[str, ...], ...]


def curvature_rows(z, alphas) -> CurvatureRows:
    """Curvature and its decay bounds at every alpha of a grid, in one stacked pass.

    The stack form of :func:`curvature_report`: row i equals
    ``curvature_report(z, alphas[i])`` bit for bit, and the same inputs are
    rejected (non-finite or empty ``z``, any alpha <= 0), as is an empty grid.
    The (k, m) softmax stack and the (k, m, m) Hessian stack are built in one
    pass, and one batched :func:`~attnlab.numerics.eigvalsh_sym` call solves
    every Hessian. Each Hessian is exactly symmetric (see :func:`_hessians`),
    so its symmetrized solve equals a plain ``eigvalsh`` of it, and stacked
    and one-at-a-time solves agree. A stack larger than
    ``_HESSIAN_STACK_ENTRIES`` entries is built and solved in chunks of
    alphas, so a long logit vector needs no more memory than one Hessian
    (or one chunk) at a time.
    """
    zv = as_vector(z, "logits")
    grid = tuple(alphas)
    if not grid:
        raise ValueError("alpha grid must be nonempty")
    for alpha in grid:
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
    a = np.array(grid, dtype=np.float64)
    p = row_softmax(a[:, None] * zv)
    m = zv.size
    delta = logit_gap(zv)
    # With m == 1 the bounds are exactly 0 and hold trivially.
    gap_applicable = m == 1 or delta > 0.0
    # The mass off the top logit, s/(1+s) with s = sum_{j != j*} exp(alpha (z_j -
    # z_max)), as the sum of its own entries: 1 - p_max rounds to 0 once s
    # falls below half an ulp of 1 (Blanchard, Higham & Higham, IMA J. Numer.
    # Anal. 2021). Tied maxima leave other maxima in the sum; their bound is
    # not applicable.
    tail_mass = np.delete(p, int(np.argmax(zv)), axis=1).sum(axis=1)
    tail_bound = np.array([(m - 1) * math.exp(-alpha * delta) for alpha in a.tolist()])
    gersh = (2.0 * p * (1.0 - p)).max(axis=1)
    decay_bound = 2.0 * a * a * tail_bound
    chunk = max(1, _HESSIAN_STACK_ENTRIES // (m * m))
    eigs = np.concatenate(
        [
            eigvalsh_sym(_hessians(p[i : i + chunk], a[i : i + chunk]))
            for i in range(0, a.size, chunk)
        ]
    )
    norm = np.abs(eigs).max(axis=1)

    slack = _BOUND_SLACK * np.maximum(1.0, a * a)
    mask = (norm > a * a * gersh + slack).astype(int)
    if gap_applicable:
        mask += 2 * (tail_mass > tail_bound + _BOUND_SLACK) + 4 * (norm > decay_bound + slack)
    return CurvatureRows(
        p=p,
        spectral_norm=norm,
        min_eigenvalue=eigs[:, 0],
        gershgorin_bound=gersh,
        tail_mass=tail_mass,
        tail_bound=tail_bound,
        decay_bound=decay_bound,
        logit_gap=delta,
        gap_applicable=gap_applicable,
        violations=tuple(_CURVATURE_VIOLATIONS[k] for k in mask.tolist()),
    )


def curvature_report(z, alpha: float) -> CurvatureReport:
    """Curvature of the log-partition at one alpha: the one-alpha case of
    :func:`curvature_rows`, with its checks and errors.

    The spectral norm comes from a symmetric eigensolve of the exactly
    symmetric Hessian alpha^2 (diag(p) - p p^T).
    """
    rows = curvature_rows(z, (alpha,))
    return CurvatureReport(
        alpha=alpha,
        spectral_norm=float(rows.spectral_norm[0]),
        gershgorin_bound=float(rows.gershgorin_bound[0]),
        tail_mass=float(rows.tail_mass[0]),
        tail_bound=float(rows.tail_bound[0]),
        decay_bound=float(rows.decay_bound[0]),
        logit_gap=rows.logit_gap,
        gap_applicable=rows.gap_applicable,
        violations=rows.violations[0],
    )


@dataclass(frozen=True)
class LipschitzReport:
    """Output deviation of y(alpha) = V^T p(alpha) against the analytic bound."""

    alpha1: float
    alpha2: float
    deviation: float
    bound: float
    margin: float


def lipschitz_report(z, v, alpha1: float, alpha2: float) -> LipschitzReport:
    """Check ||y(alpha1) - y(alpha2)|| <= (1/2) ||V||_2 ||z||_2 |alpha1 - alpha2|.

    The map alpha |-> softmax(alpha z) has Jacobian norm at most ||z|| / 2, so
    the bound holds for every logit vector and value matrix; ``margin`` is
    bound minus deviation and is nonnegative up to float rounding.
    """
    zv = as_vector(z, "logits")
    vm = as_matrix(v, "V")
    if vm.shape[0] != zv.size:
        raise ValueError(f"V rows ({vm.shape[0]}) != logit length ({zv.size})")
    for name, a in (("alpha1", alpha1), ("alpha2", alpha2)):
        if a <= 0:
            raise ValueError(f"{name} must be positive, got {a}")
    p1, p2 = row_softmax(np.array([alpha1, alpha2])[:, None] * zv)
    deviation = float(np.linalg.norm(vm.T @ p1 - vm.T @ p2))
    bound = (
        0.5
        * spectral_norm(vm)
        * float(np.linalg.norm(zv))
        * abs(alpha1 - alpha2)
    )
    return LipschitzReport(
        alpha1=alpha1,
        alpha2=alpha2,
        deviation=deviation,
        bound=bound,
        margin=bound - deviation,
    )


@dataclass(frozen=True)
class GroupMassReport:
    """Attention mass per key group plus the conditioning-block entropy.

    ``entropy_cond`` is the entropy of p restricted to text+image indices and
    renormalized; NaN flags a degenerate case (empty conditioning set or zero
    conditioning mass) rather than raising.
    """

    mass_text: float
    mass_image: float
    mass_video: float
    entropy_cond: float


@dataclass(frozen=True)
class GroupMassRows:
    """:class:`GroupMassReport` fields for a stack of rows, one array entry per row."""

    mass_text: np.ndarray
    mass_image: np.ndarray
    mass_video: np.ndarray
    entropy_cond: np.ndarray


def group_mass_rows(p, partition: KeyPartition) -> GroupMassRows:
    """Group masses and conditioning entropy of every row of ``p`` in one pass.

    Row i equals ``group_mass_report(p[i], partition)`` bit for bit, and the
    same inputs are rejected: a non-finite or negative entry, or a nonzero
    conditioning row that does not renormalize to a sum of 1 within
    ``ENTROPY_SUM_TOLERANCE`` (the error gives the first such row's sum).
    """
    pm = as_matrix(p, "distribution")
    n, m = pm.shape
    if m != partition.size:
        raise ValueError(f"distribution length {m} != partition size {partition.size}")
    if (pm < 0).any():
        raise ValueError("invalid distribution: negative entry")

    def columns(idx) -> np.ndarray:
        # p[:, idx] is F-ordered, and its sum(axis=1) rounds differently from
        # a 1-D row sum; the C-ordered copy sums each row like a vector.
        return np.ascontiguousarray(pm[:, list(idx)])

    def mass(idx) -> np.ndarray:
        return columns(idx).sum(axis=1) if idx else np.zeros(n)

    h_cond = np.full(n, math.nan)
    cond = partition.conditioning
    if cond:
        c = columns(cond)
        cond_mass = c.sum(axis=1)
        ok = cond_mass > 0.0
        h_cond[ok] = _row_entropies(c[ok] / cond_mass[ok, None])
    return GroupMassRows(
        mass_text=mass(partition.text),
        mass_image=mass(partition.image),
        mass_video=mass(partition.video),
        entropy_cond=h_cond,
    )


def group_mass_report(p, partition: KeyPartition) -> GroupMassReport:
    """The single-row case of :func:`group_mass_rows`."""
    pv = as_vector(p, "distribution")
    rows = group_mass_rows(pv[None, :], partition)
    return GroupMassReport(
        mass_text=float(rows.mass_text[0]),
        mass_image=float(rows.mass_image[0]),
        mass_video=float(rows.mass_video[0]),
        entropy_cond=float(rows.entropy_cond[0]),
    )


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
