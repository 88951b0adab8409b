"""Desk-scale denoising simulator: toy transformer, scheduled trajectories, bounds.

The denoiser is a stack of attention blocks over [conditioning | video]
tokens: each block projects the token matrix to Q/K/V, attends, and maps the
video rows back to model width through a post-attention projection. It is
deliberately tiny — its job is to exercise the scheduling machinery and make
the single-step deviation bound checkable end to end, not to generate video.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _subset_indices, _tempered, flops_overhead, group_mass_rows
from .attention import (
    DEFAULT_TARGETS,
    KeyPartition,
    ScalingTargets,
    _check_positive_finite,
    build_partition,
    key_scale_factors,
    scaled_logits,
)
from .numerics import (
    _all_finite,
    _max_scaled,
    _row_softmax,
    as_matrix,
    row_softmax,
    sample_gaussian,
    spectral_norm,
    spectral_norms,
)
from .scheduling import ScheduleConfig, active_steps, scheduled_attention


@dataclass(frozen=True)
class StepCoefficients:
    """Per-step affine update coefficients: x <- a_t x + b_t eps."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, tuple(float(x) for x in getattr(self, name)))
        if len(self.a) != len(self.b):
            raise ValueError("a and b tables must have equal length")
        if not self.a:
            raise ValueError("need at least one step")
        if not all(math.isfinite(x) for x in self.a + self.b):
            raise ValueError("non-finite step coefficients")

    @property
    def total_steps(self) -> int:
        return len(self.a)

    @classmethod
    def linear(cls, total_steps: int) -> "StepCoefficients":
        """The default table a_t = 1, b_t = 1/T; ``total_steps`` must be an integer >= 1."""
        if not isinstance(total_steps, (int, np.integer)) or total_steps < 1:
            raise ValueError(f"total_steps must be an integer >= 1, got {total_steps!r}")
        return cls(a=(1.0,) * total_steps, b=(1.0 / total_steps,) * total_steps)


@dataclass(frozen=True)
class ToyDenoiser:
    """Fixed-weight attention stack with a [text | image | video] token layout.

    The weights are three block stacks, one array per kind: ``w_qk`` holds
    each block's ``(W_q, W_k)`` as an ``(L, 2, d_model, d_k)`` array, so a
    pass forms a block's Q and K with one product; ``w_v`` is ``(L, d_model,
    d_v)`` and ``w_o`` is ``(L, d_v, d_model)``. A stack cannot be ragged, so
    every block has one shape. Each weight, and ``cond_embed`` (one 2-D row
    per conditioning token), must be a numpy array; any other object or shape,
    or a non-finite ``w_o``, raises ``ValueError`` naming the field.

    ``lipschitz_upper`` is the product of the post-attention projections'
    spectral norms, solved from ``w_o`` each time it is read — an upper
    Lipschitz constant for the map from any single block's attention output
    to the predicted noise, provided every factor is >= 1 (which
    :func:`make_toy_denoiser` enforces when sampling).
    """

    partition: KeyPartition
    cond_embed: np.ndarray
    w_qk: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    def __post_init__(self):
        for name in ("cond_embed", "w_qk", "w_v", "w_o"):
            if not isinstance(getattr(self, name), np.ndarray):
                raise ValueError(f"{name} must be a numpy array")
        n_cond = len(self.partition.conditioning)
        if self.cond_embed.ndim != 2 or len(self.cond_embed) != n_cond:
            raise ValueError(
                f"cond_embed shape {self.cond_embed.shape} needs (text+image = {n_cond}, d_model)"
            )
        d = self.d_model
        qk, v = self.w_qk.shape, self.w_v.shape
        if len(qk) != 4 or qk[1:3] != (2, d):
            raise ValueError(f"w_qk shape {qk} needs (blocks, 2, d_model = {d}, d_k)")
        if not qk[0]:
            raise ValueError("denoiser needs at least one block")
        if not qk[3]:
            raise ValueError("w_qk needs at least one key column")
        if len(v) != 3 or v[:2] != (qk[0], d):
            raise ValueError(f"w_v shape {v} needs (blocks = {qk[0]}, d_model = {d}, d_v)")
        if self.w_o.shape != (qk[0], v[2], d):
            raise ValueError(f"w_o shape {self.w_o.shape} != (blocks, d_v, d_model) = "
                             f"{(qk[0], v[2], d)}")
        # The last block's W_o reaches the state unchecked by any later pass.
        if not _all_finite(self.w_o):
            raise ValueError("non-finite w_o")

    @property
    def lipschitz_upper(self) -> float:
        # math.prod multiplies the norms in block order, from 1.
        return math.prod(spectral_norms(self.w_o).tolist())

    @property
    def num_blocks(self) -> int:
        return len(self.w_qk)

    @property
    def n_video(self) -> int:
        return len(self.partition.video)

    @property
    def d_model(self) -> int:
        return self.cond_embed.shape[1]


def make_toy_denoiser(
    seed: int,
    num_blocks: int = 3,
    n_text: int = 4,
    n_image: int = 6,
    n_video: int = 8,
    d_k: int = 8,
    d_v: int = 6,
) -> ToyDenoiser:
    """Sample a denoiser with N(0, 1/sqrt(d_k))-style weights from one seed.

    The model width equals the value width ``d_v``; ``num_blocks`` and the key
    width ``d_k`` must be at least 1. Each block draws W_q, W_k,
    W_v and W_o in turn, and the draws are then stacked as
    :class:`ToyDenoiser` holds them.

    Every post-attention projection is rescaled to spectral norm >= 1 so the
    product over blocks dominates each individual factor; see
    :class:`ToyDenoiser`.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    if d_k < 1:
        raise ValueError("d_k must be >= 1")
    if min(n_text + n_image, n_video) < 1:
        raise ValueError("need at least one conditioning token and one video token")
    d_model = d_v
    partition = build_partition(n_text, n_image, n_video)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(d_k)
    cond_embed = rng.normal(0.0, 1.0, size=(n_text + n_image, d_model))
    shapes = ((d_model, d_k), (d_model, d_k), (d_model, d_v), (d_v, d_model))
    drawn = [[rng.normal(0.0, scale, size=s) for s in shapes] for _ in range(num_blocks)]
    w_o = np.array([w[3] for w in drawn])
    # A norm below 1 is clamped up to exactly 1; x / 1.0 is x.
    w_o /= np.minimum(spectral_norms(w_o), 1.0)[:, None, None]
    return ToyDenoiser(
        partition=partition,
        cond_embed=cond_embed,
        w_qk=np.array([w[:2] for w in drawn]),
        w_v=np.array([w[2] for w in drawn]),
        w_o=w_o,
    )


def _forward(
    denoiser: ToyDenoiser,
    x,
    t: int,
    schedule: ScheduleConfig | None = None,
    observe=None,
) -> np.ndarray:
    """One denoiser pass: the block loop shared by every caller; returns eps.

    ``observe(block, q, k, v, result)``, if given, is called at every block
    after attention. It only reads: its return value is ignored, and every
    block continues with ``result.output``.

    The state is checked here and the weights' shapes by
    :class:`ToyDenoiser`. Every block runs :func:`scheduled_attention` (the
    plain pass when ``schedule`` is None), whose attention calls check V and
    test the logits once, and check Q and K only when that test fails; so a
    NaN, an infinity or an overflow raises their ``ValueError``. Numpy's
    floating-point warnings are silenced for the pass, since that error
    reports what they would.
    """
    h = as_matrix(x, "state")
    if h.shape != (denoiser.n_video, denoiser.d_model):
        raise ValueError(
            f"state shape {h.shape} != ({denoiser.n_video}, {denoiser.d_model})"
        )
    n_cond = denoiser.cond_embed.shape[0]
    # One [cond | video] buffer per pass: each block writes the next state
    # into its video rows.
    tokens = np.vstack([denoiser.cond_embed, h])
    video = tokens[n_cond:]
    with np.errstate(all="ignore"):
        for l in range(denoiser.num_blocks):
            # One product for Q and K: each slice equals its separate product bit
            # for bit, and indexing the slices costs less than unpacking them.
            qk = tokens @ denoiser.w_qk[l]
            q, k = qk[0], qk[1]
            v = tokens @ denoiser.w_v[l]
            res = scheduled_attention(l, t, q, k, v, denoiser.partition, schedule)
            if observe is not None:
                observe(l, q, k, v, res)
            np.matmul(res.output[n_cond:], denoiser.w_o[l], out=video)
    return video


def ddim_step(
    denoiser: ToyDenoiser,
    x,
    t: int,
    coeffs: StepCoefficients,
    schedule: ScheduleConfig | None = None,
) -> np.ndarray:
    """One update x <- a_t x + b_t eps_theta(x, t); t is 1-based.

    The denoiser pass checks x; the returned state is tested too, so a
    non-finite one raises ``ValueError`` at the step that makes it.
    """
    if not 1 <= t <= coeffs.total_steps:
        raise ValueError(f"step t={t} out of range 1..{coeffs.total_steps}")
    xm = np.asarray(x, dtype=np.float64)
    eps = _forward(denoiser, xm, t, schedule)
    return as_matrix(coeffs.a[t - 1] * xm + coeffs.b[t - 1] * eps, "state")


@dataclass(frozen=True)
class DeviationReport:
    """Single-step state deviation under a logit-scale probe vs its bound."""

    alpha: float
    t: int
    b_t: float
    deviation: float
    bound: float
    margin: float
    lipschitz_upper: float


def deviation_bound_check(
    denoiser: ToyDenoiser,
    coeffs: StepCoefficients,
    t: int,
    x,
    alpha: float,
    query: int = 0,
) -> DeviationReport:
    """Certify ||x'_next - x_next|| <= |b_t| L_y (1/2) ||V|| ||z|| |alpha - 1|.

    The probe scales one video query's logits by ``alpha`` at the FINAL block,
    so exactly one linear map (that block's post-projection, norm <=
    ``lipschitz_upper``) separates the perturbed attention output from the
    predicted noise and the per-query output bound transfers to the state.
    """
    if not 1 <= t <= coeffs.total_steps:
        raise ValueError(f"step t={t} out of range 1..{coeffs.total_steps}")
    _check_positive_finite("alpha", alpha)
    if not 0 <= query < denoiser.n_video:
        raise ValueError(f"probe query {query} out of range 0..{denoiser.n_video - 1}")
    xm = as_matrix(x, "state")
    n_cond = denoiser.cond_embed.shape[0]
    row = n_cond + query
    seen = []
    _forward(denoiser, xm, t, observe=lambda l, q, k, v, res: seen.append((v, res)))
    v_mat, res = seen[-1]
    z_row = res.logits[row]
    b_t = coeffs.b[t - 1]
    lip = denoiser.lipschitz_upper
    x_next = []
    for p in _tempered(z_row[None, :], np.array([[1.0, alpha]])):
        # The last block's output with the probe row replaced by softmax(a z) V,
        # for a = 1 and a = alpha.
        y = res.output.copy()
        y[row] = p @ v_mat
        x_next.append(coeffs.a[t - 1] * xm + b_t * (y[n_cond:] @ denoiser.w_o[-1]))
    deviation = float(np.linalg.norm(x_next[1] - x_next[0]))
    with np.errstate(over="ignore"):
        # The sum of squares may overflow, which the norm itself need not.
        z_norm = _max_scaled(np.linalg.norm, z_row)
        bound = (
            abs(b_t)
            * lip
            * 0.5
            * spectral_norm(v_mat)
            * z_norm
            * abs(alpha - 1.0)
        )
    if not math.isfinite(bound):
        raise ValueError(f"deviation bound must be finite, got {bound}")
    return DeviationReport(
        alpha=alpha,
        t=t,
        b_t=b_t,
        deviation=deviation,
        bound=bound,
        margin=bound - deviation,
        lipschitz_upper=lip,
    )


def scaling_multiply_count(
    partition: KeyPartition, targets: ScalingTargets, n_rows: int, d_k: int
) -> int:
    """Extra multiplications one scaled attention call performs: |G| * d_k per
    flagged key group G.

    ``n_rows`` (the call's query rows) does not enter the count, since only
    keys are scaled. It stays because ``tests/test_acceptance.py`` pins the
    four-positional-argument call.
    """
    return sum(len(partition.group(name)) for name in targets.key_groups) * d_k


def _entropy_ratio(h_mod, h_base) -> np.ndarray:
    """Scaled over baseline entropy, elementwise: the quotient where the baseline
    is positive, 1.0 where both are 0 (the same point mass), and NaN otherwise."""
    out = np.where((h_mod == 0.0) & (h_base == 0.0), 1.0, np.nan)
    return np.divide(h_mod, h_base, out=out, where=h_base > 0.0)


@dataclass(frozen=True)
class TrajectoryRow:
    step: int
    active_blocks: int
    scaling_multiplies: int
    mass_text: float
    mass_image: float
    mass_video: float
    entropy_cond: float
    entropy_cond_base: float
    entropy_ratio: float
    state_norm: float


@dataclass(frozen=True)
class Trajectory:
    rows: tuple[TrajectoryRow, ...]

    @property
    def total_active_cells(self) -> int:
        return sum(r.active_blocks for r in self.rows)

    @property
    def total_multiplies(self) -> int:
        return sum(r.scaling_multiplies for r in self.rows)


def run_trajectory(
    denoiser: ToyDenoiser,
    coeffs: StepCoefficients,
    schedule: ScheduleConfig,
    x0,
) -> Trajectory:
    """Roll the full schedule and record paired per-step attention statistics.

    At every (block, step) the scheduled call drives the state and is paired
    with a baseline on the same Q/K, so the reported entropy ratio compares
    the same logits. A cell is scaled when its scheduled call says so
    (``result.gamma`` is set; see :func:`scheduled_attention`), and only a
    scaled cell counts its multiplies and forms a separate baseline. That
    baseline is the plain logits of the video query rows alone, the only rows
    the statistics read. :func:`scaled_logits` tests them at the cell, so an
    overflow is named there, and every scaled cell's tested baseline logits
    are then softmaxed in one pass of the unchecked kernel behind
    :func:`~attnlab.numerics.row_softmax` per step. A row's logits and softmax
    do not depend on the other rows, so each row equals the full plain call's
    row bit for bit. Any other cell reuses its scheduled result, which is the
    plain pass bit for bit (so such cells have ratio exactly 1). Masses and
    conditioning entropies are averaged over blocks and video query rows,
    from one :func:`group_mass_rows` pass per step over the scheduled rows
    and the scaled cells' baselines. A row's statistics do not depend on the
    stack it sits in, so any other cell's baseline entropies are copied from
    its scheduled rows. A step whose state is not finite raises ``ValueError``
    ("non-finite state") at that step; the finite common case costs no extra
    test, since only a non-finite ``state_norm`` triggers one.
    """
    if schedule.total_steps != coeffs.total_steps:
        raise ValueError(
            f"schedule has {schedule.total_steps} steps, coefficients {coeffs.total_steps}"
        )
    if denoiser.num_blocks != schedule.num_blocks:
        raise ValueError(
            f"denoiser has {denoiser.num_blocks} blocks, schedule {schedule.num_blocks}"
        )
    x = as_matrix(x0, "state").copy()
    n_cond = denoiser.cond_embed.shape[0]
    n_meas = denoiser.num_blocks * denoiser.n_video
    part = denoiser.partition
    # One count per run: every block has the same key width (see ToyDenoiser).
    cell_multiplies = scaling_multiply_count(
        part, schedule.modulation.targets, part.size, denoiser.w_qk.shape[-1]
    )
    rows = []
    for t in range(1, coeffs.total_steps + 1):
        results, scaled, baselines = [], [], []

        def observe(l, q, k, v, res):
            results.append(res)
            if res.gamma is not None:
                scaled.append(l)
                # scaled_logits tests the logits, so an overflow is named at its cell.
                baselines.append(scaled_logits(q[n_cond:], k))

        h = _forward(denoiser, x, t, schedule, observe)
        x = coeffs.a[t - 1] * x + coeffs.b[t - 1] * h
        active = len(scaled)
        # Video rows of every block, block-major, then of each scaled cell's baseline.
        probs = [res.probabilities[n_cond:] for res in results]
        if baselines:
            probs.append(_row_softmax(np.vstack(baselines)))
        stats = group_mass_rows(np.vstack(probs), part)
        h_mod = stats.entropy_cond[:n_meas]
        h_base = h_mod.reshape(-1, denoiser.n_video).copy()
        h_base[scaled] = stats.entropy_cond[n_meas:].reshape(-1, denoiser.n_video)
        # cumsum adds row by row, as a running total would.
        masses = [
            np.cumsum(col[:n_meas])[-1]
            for col in (stats.mass_text, stats.mass_image, stats.mass_video)
        ]
        mean_mod = float(np.mean(h_mod))
        mean_base = float(np.mean(h_base))
        ratio = float(_entropy_ratio(mean_mod, mean_base))
        state_norm = float(np.linalg.norm(x))
        if not math.isfinite(state_norm):
            as_matrix(x, "state")  # names a non-finite state; an overflowing norm passes
        rows.append(
            TrajectoryRow(
                step=t,
                active_blocks=active,
                scaling_multiplies=active * cell_multiplies,
                mass_text=float(masses[0] / n_meas),
                mass_image=float(masses[1] / n_meas),
                mass_video=float(masses[2] / n_meas),
                entropy_cond=mean_mod,
                entropy_cond_base=mean_base,
                entropy_ratio=ratio,
                state_norm=state_norm,
            )
        )
    return Trajectory(rows=tuple(rows))


@dataclass(frozen=True)
class FlopsAudit:
    """Measured scaled-cell pattern against the (L_s/L)(T_s/T) overhead model."""

    measured_cells: int
    expected_cells: int
    measured_fraction: float
    model_fraction: float
    multiplies_total: int
    exact_match: bool


def flops_audit(trajectory: Trajectory, schedule: ScheduleConfig) -> FlopsAudit:
    """Compare the trajectory's scaled cells with the product-schedule model.

    The measured cells are the ones :func:`scheduled_attention` scaled, as
    counted by :func:`run_trajectory`; the model is computed independently
    from the schedule and ``ModulationConfig.effective``. For a scalar
    schedule with gamma != 1, and for energy mode with gamma_max > 1, every
    gated (block, step) cell fires, so the measured fraction equals
    (L_s/L)(T_s/T) exactly. A coefficient of exactly 1 (scalar gamma == 1, or
    energy mode with gamma_max == 1) fires nothing.
    """
    l_total = schedule.num_blocks
    t_total = schedule.total_steps
    l_s = sum(schedule.gates.gates)
    t_s = len(active_steps(t_total, schedule.window))
    effective = schedule.modulation.effective
    expected = l_s * t_s if effective else 0
    measured = trajectory.total_active_cells
    model = flops_overhead(l_s, l_total, t_s, t_total) if effective else 0.0
    return FlopsAudit(
        measured_cells=measured,
        expected_cells=expected,
        measured_fraction=measured / (l_total * t_total),
        model_fraction=model,
        multiplies_total=trajectory.total_multiplies,
        exact_match=measured == expected,
    )


@dataclass(frozen=True)
class ConflictConfig:
    """Synthetic text/image conflict: image keys get a logit dominance boost."""

    n_text: int = 6
    n_image: int = 8
    n_video: int = 16
    n_queries: int = 32
    boost: float = 2.0
    gamma: float = 1.35
    targets: ScalingTargets = DEFAULT_TARGETS

    def __post_init__(self):
        if min(self.n_text, self.n_image) < 1:
            raise ValueError("conflict experiment needs text and image keys")
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        _check_positive_finite("gamma", self.gamma)


@dataclass(frozen=True)
class ConflictReport:
    """Mass and entropy movement when conditioning keys are scaled by gamma.

    ``entropy_ratios`` compare the renormalized conditioning block after vs
    before scaling, per query, following :func:`_entropy_ratio`; their
    direction depends on which groups are scaled. ``nondegenerate`` flags the
    queries whose conditioning logits vary and whose baseline entropy is
    positive. Mass deltas are means over queries. ``simulate`` writes every
    scalar field and summarises the two per-query tuples.
    """

    gamma: float
    boost: float
    base_mass_text: float
    base_mass_image: float
    base_mass_video: float
    delta_mass_text: float
    delta_mass_image: float
    delta_mass_video: float
    entropy_ratios: tuple[float, ...]
    nondegenerate: tuple[bool, ...]
    argmax_flips_to_text: int


# A query's conditioning logits vary when their variance exceeds this.
NONDEGENERATE_VARIANCE = 1e-12


def conflict_logits(seed: int, config: ConflictConfig) -> tuple[np.ndarray, KeyPartition]:
    """Seeded conflict logit matrix (n_queries x m) with boosted image columns."""
    part = build_partition(config.n_text, config.n_image, config.n_video)
    z = sample_gaussian((config.n_queries, part.size), seed)
    z[:, part.image.start:part.image.stop] += config.boost
    return z, part


def conflict_experiment(seed: int, config: ConflictConfig | None = None) -> ConflictReport:
    if config is None:
        config = ConflictConfig()
    z, part = conflict_logits(seed, config)
    # Scaling key rows by gamma scales exactly those keys' logit columns.
    z_mod = z * key_scale_factors(part, config.targets.key_groups, config.gamma)
    p_base = row_softmax(z)
    p_mod = row_softmax(z_mod)
    # The conditioning keys lead the layout, text first.
    cond = slice(part.conditioning.stop)
    stats_b = group_mass_rows(p_base, part)
    stats_m = group_mass_rows(p_mod, part)
    ratios = _entropy_ratio(stats_m.entropy_cond, stats_b.entropy_cond)
    # Column slices are copied C-ordered, so each row reduces like a vector.
    nondeg = np.var(np.ascontiguousarray(z[:, cond]), axis=1) > NONDEGENERATE_VARIANCE
    nondeg &= stats_b.entropy_cond > 0.0
    from_text_b = np.argmax(p_base[:, cond], axis=1) < part.n_text
    to_text_m = np.argmax(p_mod[:, cond], axis=1) < part.n_text
    flips = int(np.count_nonzero(~from_text_b & to_text_m))

    def mass_means(stats):
        return (
            float(np.mean(stats.mass_text)),
            float(np.mean(stats.mass_image)),
            float(np.mean(stats.mass_video)),
        )

    bt, bi, bv = mass_means(stats_b)
    mt, mi, mv = mass_means(stats_m)
    return ConflictReport(
        gamma=config.gamma,
        boost=config.boost,
        base_mass_text=bt,
        base_mass_image=bi,
        base_mass_video=bv,
        delta_mass_text=mt - bt,
        delta_mass_image=mi - bi,
        delta_mass_video=mv - bv,
        entropy_ratios=tuple(ratios.tolist()),
        nondegenerate=tuple(nondeg.tolist()),
        argmax_flips_to_text=flips,
    )


def sharpening_curve(z: np.ndarray, subset, gammas) -> np.ndarray:
    """Restricted max-probability p_{S,j*}(gamma) per query row and gamma.

    j* is the subset argmax of the raw logits; scaling the subset's logits by
    gamma sharpens the renormalized distribution, so each row of the returned
    (n_queries x n_gammas) array is nondecreasing. ``subset`` must be a
    nonempty set of distinct column indices, and every gamma positive.
    """
    zm = as_matrix(z, "logits")
    zs = zm[:, _subset_indices(subset, zm.shape[1])]
    g = np.array([float(x) for x in gammas])
    if (g <= 0).any():
        raise ValueError("gammas must be positive")
    n, k = zs.shape
    # One softmax stack over every (query, gamma) pair, query-major.
    p = _tempered(zs, np.tile(g, (n, 1))).reshape(n, g.size, k)
    return p[np.arange(n), :, np.argmax(zs, axis=1)]
