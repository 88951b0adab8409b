"""Multi-modal attention with key-group partitioning and group-targeted key scaling.

Keys are partitioned into text / image / video index groups. Scaling a key
group's rows by gamma multiplies exactly that group's logit columns by gamma,
so modulation is local: untouched groups keep bit-identical logits. In joint
self-attention over the whole sequence this is the only per-group scaling:
scaling the queries would multiply every logit column at once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import _row_softmax, as_matrix, row_softmax

GROUP_NAMES = ("text", "image", "video")


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
    """Which token groups get their key embeddings scaled."""

    key_groups: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "key_groups", frozenset(self.key_groups))
        bad = self.key_groups - set(GROUP_NAMES)
        if bad:
            raise ValueError(f"unknown key group(s): {sorted(bad)}")


# Both conditioning groups: the default wherever keys are scaled.
DEFAULT_TARGETS = ScalingTargets(key_groups=frozenset({"image", "text"}))
# Joint self-attention exposes key-side positions only: with a shared softmax
# over the whole sequence, scaling the queries of one modality is not a
# well-defined per-group operation, so query-side names are rejected.
_POSITIONS = {
    "key-image": ScalingTargets(key_groups=frozenset({"image"})),
    "key-text": ScalingTargets(key_groups=frozenset({"text"})),
    "key-image and key-text": DEFAULT_TARGETS,
}


def resolve_targets(position: str) -> ScalingTargets:
    """Map a named scaling position to the key groups it scales."""
    key = position.strip().lower()
    if key not in _POSITIONS:
        raise ValueError(
            f"position {position!r} is not valid for arch 'joint'; "
            f"valid positions: {sorted(_POSITIONS)}"
        )
    return _POSITIONS[key]


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


def _logits(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    z = q @ k.T
    z /= math.sqrt(q.shape[1])
    return z


def scaled_logits(q, k) -> np.ndarray:
    """Q K^T / sqrt(d_k), d_k the key width, with shape/width validation."""
    qm = as_matrix(q, "Q")
    km = as_matrix(k, "K")
    if qm.shape[1] != km.shape[1]:
        raise ValueError(f"Q cols ({qm.shape[1]}) != K cols ({km.shape[1]})")
    if qm.shape[1] == 0:
        raise ValueError("Q and K must have at least one column")
    return _logits(qm, km)


def attention_forward(q, k, v) -> AttentionResult:
    """Plain scaled-dot-product attention: softmax(Q K^T / sqrt(d_k)) V.

    Each step checks its inputs; :func:`_attend` is the same computation
    without the checks.
    """
    vm = as_matrix(v, "V")
    logits = scaled_logits(q, k)
    if vm.shape[0] != logits.shape[1]:
        raise ValueError(f"V rows ({vm.shape[0]}) != K rows ({logits.shape[1]})")
    p = row_softmax(logits)
    return AttentionResult(logits=logits, probabilities=p, output=p @ vm)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> AttentionResult:
    """:func:`attention_forward` without its checks, for the simulator's block loop.

    The caller vouches for float64 matrices of agreeing shapes with at least
    one key, and checks Q, K, V and the logits it gets back for NaN and
    infinity: nothing here does, and a logit that overflows to -inf leaves
    its probability row finite.
    """
    logits = _logits(q, k)
    p = _row_softmax(logits)
    return AttentionResult(logits, p, p @ v)


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


def _check_positive_finite(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_gamma_max(gamma_max: float) -> None:
    if not 1 <= gamma_max < math.inf:
        raise ValueError(f"gamma_max must be >= 1 and finite, got {gamma_max}")


def apply_group_scaling(
    k, partition: KeyPartition, targets: ScalingTargets, gamma: float
) -> np.ndarray:
    """Return K' with the targeted key groups' rows scaled by ``gamma``.

    See :func:`key_scale_factors`: a flag naming a group that is empty in the
    partition warns and is a no-op. K is copied; untouched rows are
    bit-identical to the originals. A non-positive or non-finite ``gamma``, or
    one that takes a key entry out of the float64 range, raises ``ValueError``.
    """
    _check_positive_finite("gamma", gamma)
    km = as_matrix(k, "K")
    if partition.size != km.shape[0]:
        raise ValueError(
            f"partition size {partition.size} != K rows {km.shape[0]}"
        )
    factors = key_scale_factors(partition, targets.key_groups, gamma)[:, None]
    try:
        with np.errstate(over="raise"):
            return km * factors
    except FloatingPointError:
        raise ValueError(f"gamma must keep the scaled keys finite, got {gamma}") from None


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
    _check_gamma_max(gamma_max)
    _check_positive_finite("kappa", kappa)
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
    targets: ScalingTargets = DEFAULT_TARGETS

    def __post_init__(self):
        if self.mode not in ("scalar", "energy"):
            raise ValueError(f"unknown modulation mode {self.mode!r}")
        _check_positive_finite("gamma", self.gamma)
        _check_gamma_max(self.gamma_max)
        _check_positive_finite("kappa", self.kappa)

    @property
    def effective(self) -> bool:
        """Whether active cells are scaled: a coefficient of exactly 1 folds
        to the identity, which is scalar gamma == 1 and energy mode with
        gamma_max == 1. :func:`~attnlab.scheduling.scheduled_attention` reads
        it to decide each cell; ``flops_audit`` reads it for its model."""
        if self.mode == "energy":
            return self.gamma_max != 1.0
        return self.gamma != 1.0
