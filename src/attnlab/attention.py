"""Multi-modal attention with key-group partitioning and group-targeted Q/K scaling.

Keys are partitioned into text / image / video index groups. Scaling a key
group's rows by gamma multiplies exactly that group's logit columns by gamma,
so modulation is local: untouched groups keep bit-identical logits. Scaling Q
instead multiplies every logit row, which is the per-stream query-side variant
used by factorized cross-attention backbones.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import as_matrix, row_softmax

GROUP_NAMES = ("text", "image", "video")


class ArchMode(Enum):
    """Backbone attention layout.

    JOINT: one self-attention over the concatenated [text | image | video]
    sequence. FACTORIZED: video self-attention plus separate per-modality
    cross-attention streams; query-side scaling only exists here.
    """

    JOINT = "joint"
    FACTORIZED = "factorized"

    @classmethod
    def parse(cls, s: str) -> "ArchMode":
        try:
            return cls(s.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown arch mode {s!r}; expected 'joint' or 'factorized'"
            ) from None


def _as_index_tuple(idx, name: str) -> tuple[int, ...]:
    out = []
    for v in idx:
        i = int(v)
        if i != v or i < 0:
            raise ValueError(f"{name} indices must be nonnegative integers, got {v!r}")
        out.append(i)
    return tuple(out)


@dataclass(frozen=True)
class KeyPartition:
    """Disjoint key-index groups covering exactly 0..size-1."""

    text: tuple[int, ...]
    image: tuple[int, ...]
    video: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "text", _as_index_tuple(self.text, "text"))
        object.__setattr__(self, "image", _as_index_tuple(self.image, "image"))
        object.__setattr__(self, "video", _as_index_tuple(self.video, "video"))
        merged = sorted(self.text + self.image + self.video)
        if not merged:
            raise ValueError("partition must contain at least one key index")
        if merged != list(range(len(merged))):
            raise ValueError("groups must be disjoint and cover 0..m-1 exactly")

    @property
    def size(self) -> int:
        return len(self.text) + len(self.image) + len(self.video)

    def group(self, name: str) -> tuple[int, ...]:
        if name not in GROUP_NAMES:
            raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")
        return getattr(self, name)

    @property
    def conditioning(self) -> tuple[int, ...]:
        """Text and image indices (the conditioning block), sorted."""
        return tuple(sorted(self.text + self.image))


def build_partition(n_text: int, n_image: int, n_video: int) -> KeyPartition:
    """Contiguous [text | image | video] partition from group sizes."""
    for name, n in (("n_text", n_text), ("n_image", n_image), ("n_video", n_video)):
        if n < 0:
            raise ValueError(f"{name} must be nonnegative, got {n}")
    if n_text + n_image + n_video == 0:
        raise ValueError("all group sizes are zero; partition would be empty")
    a, b = n_text, n_text + n_image
    c = b + n_video
    return KeyPartition(
        text=tuple(range(a)), image=tuple(range(a, b)), video=tuple(range(b, c))
    )


@dataclass(frozen=True)
class ScalingTargets:
    """Which token groups get their query / key embeddings scaled.

    A group may appear on at most one side: per stream the scaling acts on
    either its queries or its keys, never both.
    """

    query_groups: frozenset = frozenset()
    key_groups: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "query_groups", frozenset(self.query_groups))
        object.__setattr__(self, "key_groups", frozenset(self.key_groups))
        for side, groups in (("query", self.query_groups), ("key", self.key_groups)):
            bad = groups - set(GROUP_NAMES)
            if bad:
                raise ValueError(f"unknown {side} group(s): {sorted(bad)}")
        overlap = self.query_groups & self.key_groups
        if overlap:
            raise ValueError(
                f"group(s) {sorted(overlap)} flagged on both query and key side"
            )

    @property
    def empty(self) -> bool:
        return not self.query_groups and not self.key_groups


def _t(*names: str) -> ScalingTargets:
    q = frozenset(n.split(":", 1)[1] for n in names if n.startswith("q:"))
    k = frozenset(n.split(":", 1)[1] for n in names if n.startswith("k:"))
    return ScalingTargets(query_groups=q, key_groups=k)


# Joint self-attention exposes key-side positions only: with a shared softmax
# over the whole sequence, scaling the queries of one modality is not a
# well-defined per-group operation, so query-side names are rejected.
_JOINT_POSITIONS = {
    "key-image": _t("k:image"),
    "key-text": _t("k:text"),
    "key-image and key-text": _t("k:image", "k:text"),
}

_FACTORIZED_POSITIONS = {
    "key in self-attention": _t("k:video"),
    "query-image": _t("q:image"),
    "key-image": _t("k:image"),
    "query-text": _t("q:text"),
    "key-text": _t("k:text"),
    "key-image and query-text": _t("k:image", "q:text"),
    "key-image and key-text": _t("k:image", "k:text"),
    "query-image and key-text": _t("q:image", "k:text"),
}


def resolve_targets(arch: ArchMode, position: str) -> ScalingTargets:
    """Map a named scaling position to concrete group targets for ``arch``."""
    table = _JOINT_POSITIONS if arch is ArchMode.JOINT else _FACTORIZED_POSITIONS
    key = position.strip().lower()
    if key not in table:
        raise ValueError(
            f"position {position!r} is not valid for arch {arch.value!r}; "
            f"valid positions: {sorted(table)}"
        )
    return table[key]


@dataclass(frozen=True)
class AttentionResult:
    """One attention call: scaled logits, row-stochastic probabilities, output.

    ``gamma`` is the coefficient the call scaled its targeted groups by, or
    None for a plain pass. Only :func:`~attnlab.scheduling.scheduled_attention`
    sets it: it alone decides whether a (block, step) cell is scaled.
    """

    logits: np.ndarray
    probabilities: np.ndarray
    output: np.ndarray
    gamma: float | None = None


def scaled_logits(q, k) -> np.ndarray:
    """Q K^T / sqrt(d_k), d_k the key width, with shape/width validation."""
    qm = as_matrix(q, "Q")
    km = as_matrix(k, "K")
    if qm.shape[1] != km.shape[1]:
        raise ValueError(f"Q cols ({qm.shape[1]}) != K cols ({km.shape[1]})")
    if qm.shape[1] == 0:
        raise ValueError("Q and K must have at least one column")
    return qm @ km.T / math.sqrt(qm.shape[1])


def attention_forward(q, k, v) -> AttentionResult:
    """Plain scaled-dot-product attention: softmax(Q K^T / sqrt(d_k)) V."""
    vm = as_matrix(v, "V")
    logits = scaled_logits(q, k)
    if vm.shape[0] != logits.shape[1]:
        raise ValueError(f"V rows ({vm.shape[0]}) != K rows ({logits.shape[1]})")
    p = row_softmax(logits)
    return AttentionResult(logits=logits, probabilities=p, output=p @ vm)


def key_scale_factors(partition: KeyPartition, key_groups, gamma: float) -> np.ndarray:
    """Per-key factors: ``gamma`` on the flagged groups' indices, exactly 1.0 elsewhere.

    Multiplying K's rows (or, equivalently, the logit columns) by this vector
    is the one group-scaling operation; keys outside the flagged groups are
    multiplied by 1.0 and so stay bit-identical. A flag naming a group that is
    empty in the partition warns and is a no-op.
    """
    factors = np.ones(partition.size)
    for name in sorted(key_groups):
        idx = partition.group(name)
        if not idx:
            warnings.warn(
                f"key scaling requested for empty group {name!r}; no-op",
                stacklevel=3,
            )
        factors[list(idx)] = gamma
    return factors


def apply_group_scaling(
    q, k, partition: KeyPartition, targets: ScalingTargets, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Return (Q', K') with the targeted groups scaled by ``gamma``.

    Key flags scale the flagged group's rows of K (see
    :func:`key_scale_factors`). A query flag scales the whole Q matrix once if
    the flagged group is present (nonempty) in the partition: in a factorized
    stream call the partition holds that stream's keys and Q holds its
    queries, so this is the per-stream query-side scaling. A flag naming a
    group that is empty in the partition warns and is a no-op. Inputs are
    copied; untouched rows are bit-identical to the originals.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    qm = as_matrix(q, "Q").copy()
    km = as_matrix(k, "K")
    if partition.size != km.shape[0]:
        raise ValueError(
            f"partition size {partition.size} != K rows {km.shape[0]}"
        )
    km = km * key_scale_factors(partition, targets.key_groups, gamma)[:, None]
    scale_q = False
    for name in sorted(targets.query_groups):
        if partition.group(name):
            scale_q = True
        else:
            warnings.warn(
                f"query scaling requested for empty group {name!r}; no-op",
                stacklevel=2,
            )
    if scale_q:
        qm *= gamma
    return qm, km


def _logistic(u: float) -> float:
    # Branch keeps the exponent nonpositive on both sides.
    if u >= 0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def energy_gamma(logits, gamma_max: float = 1.5, kappa: float = 1.0) -> float:
    """Adaptive scaling coefficient from mean logit energy.

    gamma_e = 1 + (gamma_max - 1) * logistic(-mean(logits) / kappa), a smooth
    decreasing map: low-energy (diffuse) logits get a coefficient near
    gamma_max, high-energy logits stay near 1. In exact arithmetic it lies in
    (1, gamma_max); in floats it is in [1, gamma_max], and it rounds to
    exactly 1.0 when (gamma_max - 1) * logistic(...) is below half an ulp of
    1. A gated cell with such a coefficient is still scaled (by 1.0, which
    leaves its logits bit-identical).
    """
    zm = as_matrix(logits, "logits")
    if zm.size == 0:
        raise ValueError("empty logits")
    if gamma_max < 1:
        raise ValueError(f"gamma_max must be >= 1, got {gamma_max}")
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    xbar = float(zm.mean())
    return 1.0 + (gamma_max - 1.0) * _logistic(-xbar / kappa)


@dataclass(frozen=True)
class ModulationConfig:
    """How an attention call is modulated.

    mode "scalar" uses the fixed coefficient ``gamma``; mode "energy" derives
    the coefficient per call from that call's unscaled logits via
    :func:`energy_gamma` (no state is carried across calls or steps).
    """

    mode: str = "scalar"
    gamma: float = 1.35
    gamma_max: float = 1.5
    kappa: float = 1.0
    targets: ScalingTargets = field(
        default_factory=lambda: ScalingTargets(key_groups=frozenset({"text", "image"}))
    )
    arch: ArchMode = ArchMode.JOINT

    def __post_init__(self):
        if self.mode not in ("scalar", "energy"):
            raise ValueError(f"unknown modulation mode {self.mode!r}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.gamma_max < 1:
            raise ValueError(f"gamma_max must be >= 1, got {self.gamma_max}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")

    @property
    def effective(self) -> bool:
        """Whether active cells are scaled: a coefficient of exactly 1 folds
        to the identity, which is scalar gamma == 1 and energy mode with
        gamma_max == 1. :func:`~attnlab.scheduling.scheduled_attention` reads
        it to decide each cell; ``flops_audit`` reads it for its model."""
        if self.mode == "energy":
            return self.gamma_max != 1.0
        return self.gamma != 1.0
