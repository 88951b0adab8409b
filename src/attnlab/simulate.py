"""Desk-scale denoising simulator: toy transformer, scheduled trajectories, bounds.

The denoiser is a stack of attention blocks over [conditioning | video]
tokens: each block projects the token matrix to Q/K/V, attends, and maps the
video rows back to model width through a post-attention projection. It is
deliberately tiny — its job is to exercise the scheduling machinery and make
the single-step deviation bound checkable end to end, not to generate video.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import entropy, flops_overhead, group_mass_rows
from .attention import (
    KeyPartition,
    ScalingTargets,
    attention_forward,
    build_partition,
    key_scale_factors,
)
from .numerics import as_matrix, row_softmax, sample_gaussian, softmax_vec, spectral_norm
from .scheduling import ScheduleConfig, active_steps, scheduled_attention


@dataclass(frozen=True)
class StepCoefficients:
    """Per-step affine update coefficients: x <- a_t x + b_t eps."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
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
        """The default table a_t = 1, b_t = 1/T."""
        if total_steps < 1:
            raise ValueError("total_steps must be >= 1")
        return cls(a=(1.0,) * total_steps, b=(1.0 / total_steps,) * total_steps)


@dataclass(frozen=True)
class BlockWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray


@dataclass(frozen=True)
class ToyDenoiser:
    """Fixed-weight attention stack with a [text | image | video] token layout.

    ``lipschitz_upper`` is the product of the post-attention projections'
    spectral norms — an upper Lipschitz constant for the map from any single
    block's attention output to the predicted noise, provided every factor is
    >= 1 (which :func:`make_toy_denoiser` enforces when sampling).
    """

    partition: KeyPartition
    cond_embed: np.ndarray
    blocks: tuple[BlockWeights, ...]
    lipschitz_upper: float = field(init=False)

    def __post_init__(self):
        if not self.blocks:
            raise ValueError("denoiser needs at least one block")
        n_cond = len(self.partition.text) + len(self.partition.image)
        if self.cond_embed.shape[0] != n_cond:
            raise ValueError(
                f"cond_embed rows ({self.cond_embed.shape[0]}) != text+image size ({n_cond})"
            )
        lip = 1.0
        for blk in self.blocks:
            lip *= spectral_norm(blk.w_o)
        object.__setattr__(self, "lipschitz_upper", lip)

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

    The model width equals the value width ``d_v``.

    Every post-attention projection is rescaled to spectral norm >= 1 so the
    product over blocks dominates each individual factor; see
    :class:`ToyDenoiser`.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    if min(n_text + n_image, n_video) < 1 or n_video < 1:
        raise ValueError("need at least one conditioning token and one video token")
    d_model = d_v
    partition = build_partition(n_text, n_image, n_video)
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(d_k)
    cond_embed = rng.normal(0.0, 1.0, size=(n_text + n_image, d_model))
    blocks = []
    for _ in range(num_blocks):
        w_q = rng.normal(0.0, scale, size=(d_model, d_k))
        w_k = rng.normal(0.0, scale, size=(d_model, d_k))
        w_v = rng.normal(0.0, scale, size=(d_model, d_v))
        w_o = rng.normal(0.0, scale, size=(d_v, d_model))
        sigma = spectral_norm(w_o)
        if sigma < 1.0:
            w_o = w_o / sigma  # clamp the norm up to exactly 1
        blocks.append(BlockWeights(w_q=w_q, w_k=w_k, w_v=w_v, w_o=w_o))
    return ToyDenoiser(partition=partition, cond_embed=cond_embed, blocks=tuple(blocks))


@dataclass(frozen=True)
class LogitScaleProbe:
    """Uniform logit scaling by alpha at one block, one video query row."""

    block: int
    query: int
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


def _forward(
    denoiser: ToyDenoiser,
    x,
    t: int,
    schedule: ScheduleConfig | None = None,
    observe=None,
) -> np.ndarray:
    """One denoiser pass: the block loop shared by every caller; returns eps.

    ``observe(block, q, k, v, result)``, if given, is called at every block
    after attention and returns the attention output the block continues
    with (``result.output`` to leave the pass unchanged).
    """
    h = as_matrix(x, "state")
    if h.shape != (denoiser.n_video, denoiser.d_model):
        raise ValueError(
            f"state shape {h.shape} != ({denoiser.n_video}, {denoiser.d_model})"
        )
    n_cond = denoiser.cond_embed.shape[0]
    for l, blk in enumerate(denoiser.blocks):
        tokens = np.vstack([denoiser.cond_embed, h])
        q = tokens @ blk.w_q
        k = tokens @ blk.w_k
        v = tokens @ blk.w_v
        if schedule is None:
            res = attention_forward(q, k, v)
        else:
            res = scheduled_attention(l, t, q, k, v, denoiser.partition, schedule)
        y = res.output if observe is None else observe(l, q, k, v, res)
        h = y[n_cond:] @ blk.w_o
    return h


def _probe_observer(denoiser: ToyDenoiser, probe: LogitScaleProbe, captured: list):
    """Observer that replaces the probe row's output at the probe block by
    softmax(alpha z) V and appends that row's unscaled logits and V to
    ``captured``."""
    row = denoiser.cond_embed.shape[0] + probe.query

    def observe(l, q, k, v, res):
        if l != probe.block:
            return res.output
        if not 0 <= probe.query < denoiser.n_video:
            raise ValueError(f"probe query {probe.query} out of range")
        z_row = res.logits[row].copy()
        y = res.output.copy()
        y[row] = softmax_vec(probe.alpha * z_row) @ v
        captured.append((z_row, v.copy()))
        return y

    return observe


def ddim_step(
    denoiser: ToyDenoiser,
    x,
    t: int,
    coeffs: StepCoefficients,
    schedule: ScheduleConfig | None = None,
) -> np.ndarray:
    """One update x <- a_t x + b_t eps_theta(x, t); t is 1-based."""
    if not 1 <= t <= coeffs.total_steps:
        raise ValueError(f"step t={t} out of range 1..{coeffs.total_steps}")
    xm = as_matrix(x, "state")
    eps = _forward(denoiser, xm, t, schedule)
    return coeffs.a[t - 1] * xm + coeffs.b[t - 1] * eps


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
    xm = as_matrix(x, "state")
    last = len(denoiser.blocks) - 1
    captured = []

    def probed_eps(a: float) -> np.ndarray:
        probe = LogitScaleProbe(block=last, query=query, alpha=a)
        return _forward(denoiser, xm, t, observe=_probe_observer(denoiser, probe, captured))

    base_eps = probed_eps(1.0)
    mod_eps = probed_eps(alpha)
    z_row, v_mat = captured[0]
    b_t = coeffs.b[t - 1]
    x_base = coeffs.a[t - 1] * xm + b_t * base_eps
    x_mod = coeffs.a[t - 1] * xm + b_t * mod_eps
    deviation = float(np.linalg.norm(x_mod - x_base))
    bound = (
        abs(b_t)
        * denoiser.lipschitz_upper
        * 0.5
        * spectral_norm(v_mat)
        * float(np.linalg.norm(z_row))
        * abs(alpha - 1.0)
    )
    return DeviationReport(
        alpha=alpha,
        t=t,
        b_t=b_t,
        deviation=deviation,
        bound=bound,
        margin=bound - deviation,
        lipschitz_upper=denoiser.lipschitz_upper,
    )


def scaling_multiply_count(
    partition: KeyPartition, targets: ScalingTargets, n_rows: int, d_k: int
) -> int:
    """Extra multiplications one scaled attention call performs.

    Key side: |G| * d_k per flagged nonempty group. Query side: n_rows * d_k
    once if any flagged group is nonempty in the partition.
    """
    count = 0
    for name in targets.key_groups:
        count += len(partition.group(name)) * d_k
    if any(partition.group(name) for name in targets.query_groups):
        count += n_rows * d_k
    return count


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
    final_state: np.ndarray
    total_steps: int
    num_blocks: int

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
    scaled cell counts its multiplies and runs a separate unscheduled call for
    its baseline; any other cell reuses its scheduled result, which is the
    plain pass bit for bit (so such cells have ratio exactly 1). Masses and
    conditioning entropies are averaged over blocks and video query rows,
    from one :func:`group_mass_rows` pass per step.
    """
    if schedule.total_steps != coeffs.total_steps:
        raise ValueError(
            f"schedule has {schedule.total_steps} steps, coefficients {coeffs.total_steps}"
        )
    if len(denoiser.blocks) != schedule.num_blocks:
        raise ValueError(
            f"denoiser has {len(denoiser.blocks)} blocks, schedule {schedule.num_blocks}"
        )
    x = as_matrix(x0, "state").copy()
    n_cond = denoiser.cond_embed.shape[0]
    n_video = denoiser.n_video
    n_meas = len(denoiser.blocks) * n_video
    part = denoiser.partition
    targets = schedule.modulation.targets
    rows = []
    for t in range(1, coeffs.total_steps + 1):
        # Video rows of every block, block-major: scheduled, then baseline.
        probs = np.empty((2 * n_meas, part.size))
        active = 0
        multiplies = 0

        def observe(l, q, k, v, res):
            nonlocal active, multiplies
            sched = res.probabilities[n_cond:]
            base = sched
            if res.gamma is not None:
                active += 1
                multiplies += scaling_multiply_count(part, targets, q.shape[0], q.shape[1])
                base = attention_forward(q, k, v).probabilities[n_cond:]
            probs[l * n_video : (l + 1) * n_video] = sched
            probs[n_meas + l * n_video : n_meas + (l + 1) * n_video] = base
            return res.output

        h = _forward(denoiser, x, t, schedule, observe)
        x = coeffs.a[t - 1] * x + coeffs.b[t - 1] * h
        stats = group_mass_rows(probs, part)
        # cumsum adds row by row, as a running total would.
        masses = [
            np.cumsum(col[:n_meas])[-1]
            for col in (stats.mass_text, stats.mass_image, stats.mass_video)
        ]
        mean_mod = float(np.mean(stats.entropy_cond[:n_meas]))
        mean_base = float(np.mean(stats.entropy_cond[n_meas:]))
        ratio = mean_mod / mean_base if mean_base > 0 else float("nan")
        rows.append(
            TrajectoryRow(
                step=t,
                active_blocks=active,
                scaling_multiplies=multiplies,
                mass_text=float(masses[0] / n_meas),
                mass_image=float(masses[1] / n_meas),
                mass_video=float(masses[2] / n_meas),
                entropy_cond=mean_mod,
                entropy_cond_base=mean_base,
                entropy_ratio=ratio,
                state_norm=float(np.linalg.norm(x)),
            )
        )
    return Trajectory(
        rows=tuple(rows),
        final_state=x,
        total_steps=coeffs.total_steps,
        num_blocks=len(denoiser.blocks),
    )


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
    targets: ScalingTargets = field(
        default_factory=lambda: ScalingTargets(key_groups=frozenset({"text", "image"}))
    )

    def __post_init__(self):
        if min(self.n_text, self.n_image) < 1:
            raise ValueError("conflict experiment needs text and image keys")
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class ConflictReport:
    """Mass and entropy movement when conditioning keys are scaled by gamma.

    ``entropy_ratios`` compare the renormalized conditioning block after vs
    before scaling, per query — a measured quantity whose direction depends on
    which groups are scaled. ``scaled_entropy_ratios`` restrict instead to the
    union of the scaled key groups, where scaling is a pure temperature change
    and the decrease is certified for every query flagged in
    ``scaled_nondegenerate`` (positive logit variance within that union). When
    the whole conditioning block is scaled the two coincide. Mass deltas are
    means over queries and are reported, not certified.
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
    scaled_entropy_ratios: tuple[float, ...]
    scaled_nondegenerate: tuple[bool, ...]
    argmax_flips_to_text: int


def conflict_logits(seed: int, config: ConflictConfig) -> tuple[np.ndarray, KeyPartition]:
    """Seeded conflict logit matrix (n_queries x m) with boosted image columns."""
    part = build_partition(config.n_text, config.n_image, config.n_video)
    z = sample_gaussian((config.n_queries, part.size), seed)
    z[:, list(part.image)] += config.boost
    return z, part


def conflict_experiment(seed: int, config: ConflictConfig | None = None) -> ConflictReport:
    if config is None:
        config = ConflictConfig()
    z, part = conflict_logits(seed, config)
    # Scaling key rows by gamma scales exactly those keys' logit columns.
    z_mod = z * key_scale_factors(part, config.targets.key_groups, config.gamma)
    p_base = row_softmax(z)
    p_mod = row_softmax(z_mod)
    cond = list(part.conditioning)
    scaled_union = sorted(
        i for name in config.targets.key_groups for i in part.group(name)
    )
    text_set = set(part.text)
    stats_b = group_mass_rows(p_base, part)
    stats_m = group_mass_rows(p_mod, part)
    ratios = stats_m.entropy_cond / stats_b.entropy_cond
    nondeg = []
    scaled_ratios = []
    scaled_nondeg = []
    flips = 0
    for i in range(z.shape[0]):
        zb = z[i, cond]
        nondeg.append(bool(np.var(zb) > 1e-12))
        if scaled_union:
            zs = z[i, scaled_union]
            scaled_nondeg.append(bool(np.var(zs) > 1e-12))
            h_b = entropy(softmax_vec(zs)) if len(zs) > 1 else 0.0
            h_m = entropy(softmax_vec(config.gamma * zs)) if len(zs) > 1 else 0.0
            scaled_ratios.append(h_m / h_b if h_b > 0 else 1.0)
        argmax_b = cond[int(np.argmax(p_base[i, cond]))]
        argmax_m = cond[int(np.argmax(p_mod[i, cond]))]
        if argmax_b not in text_set and argmax_m in text_set:
            flips += 1

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
        nondegenerate=tuple(nondeg),
        scaled_entropy_ratios=tuple(scaled_ratios),
        scaled_nondegenerate=tuple(scaled_nondeg),
        argmax_flips_to_text=flips,
    )


def sharpening_curve(z: np.ndarray, subset, gammas) -> np.ndarray:
    """Restricted max-probability p_{S,j*}(gamma) per query row and gamma.

    j* is the subset argmax of the raw logits; scaling the subset's logits by
    gamma sharpens the renormalized distribution, so each row of the returned
    (n_queries x n_gammas) array is nondecreasing.
    """
    zm = as_matrix(z, "logits")
    idx = sorted(int(i) for i in subset)
    if not idx:
        raise ValueError("subset must be nonempty")
    out = np.empty((zm.shape[0], len(tuple(gammas))))
    glist = [float(g) for g in gammas]
    if any(g <= 0 for g in glist):
        raise ValueError("gammas must be positive")
    for i in range(zm.shape[0]):
        zs = zm[i, idx]
        j_star = int(np.argmax(zs))
        for gi, g in enumerate(glist):
            out[i, gi] = softmax_vec(g * zs)[j_star]
    return out
