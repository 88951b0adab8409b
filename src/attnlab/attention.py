"""Multi-modal attention with key-group partitioning and group-targeted key scaling.

Keys sit in one fixed layout, [text | image | video]: the conditioning keys
(text, then image) first and the video keys last, so every group is a
contiguous range of key indices (see :class:`KeyPartition`). Scaling a key
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

from .numerics import _all_finite, _max_scaled, _row_softmax, as_matrix, row_softmax

GROUP_NAMES = ("text", "image", "video")


@dataclass(frozen=True)
class KeyPartition:
    """The fixed [text | image | video] key layout, held as its three group sizes.

    Each size is a nonnegative integer (a Python or numpy int, stored as an
    int), and not all are zero. The groups are read-only ranges in that order:
    text, then image, then video, so the conditioning keys (text and image)
    come first and the video keys last, and a group's logit columns are a
    slice.
    """

    n_text: int
    n_image: int
    n_video: int

    def __post_init__(self):
        for name in ("n_text", "n_image", "n_video"):
            n = getattr(self, name)
            if not isinstance(n, (int, np.integer)) or n < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {n!r}")
            object.__setattr__(self, name, int(n))
        if not self.size:
            raise ValueError("all group sizes are zero; partition would be empty")

    @property
    def size(self) -> int:
        return self.n_text + self.n_image + self.n_video

    @property
    def text(self) -> range:
        return range(self.n_text)

    @property
    def image(self) -> range:
        return range(self.n_text, self.n_text + self.n_image)

    @property
    def video(self) -> range:
        return range(self.n_text + self.n_image, self.size)

    @property
    def conditioning(self) -> range:
        """Text and image indices (the conditioning block), which lead the layout."""
        return range(self.n_text + self.n_image)

    def group(self, name: str) -> range:
        if name not in GROUP_NAMES:
            raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")
        return getattr(self, name)


def build_partition(n_text: int, n_image: int, n_video: int) -> KeyPartition:
    """The [text | image | video] partition of these group sizes; see :class:`KeyPartition`."""
    return KeyPartition(n_text, n_image, n_video)


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


def scaled_logits(q, k, v_rows=None) -> np.ndarray:
    """Q K^T / sqrt(d_k), d_k the key width, with shape/width validation.

    ``v_rows``, when given, is the row count of a V that must have one row
    per key (see :func:`attention_forward`). A NaN or an infinity in Q or K,
    or a logit that overflows, raises ``ValueError`` naming the first of Q,
    K and the logits that has one.

    The product is formed under the caller's errstate and tested once. Only
    when that test fails, or a shape check does, or the product is empty
    (which hides a non-finite input), are Q, then K, then the widths, then V's
    rows checked before the logits are named; so the first bad input is
    named as if each had been checked before the product.
    """
    qm = np.asarray(q, dtype=np.float64)
    km = np.asarray(k, dtype=np.float64)
    if qm.ndim == km.ndim == 2 and qm.shape[1] == km.shape[1] > 0 and v_rows in (None, len(km)):
        z = qm @ km.T
        z /= math.sqrt(qm.shape[1])
        if z.size and _all_finite(z):
            return z
    # A failed test or shape check: name the first bad input.
    as_matrix(qm, "Q")
    as_matrix(km, "K")
    if qm.shape[1] != km.shape[1]:
        raise ValueError(f"Q cols ({qm.shape[1]}) != K cols ({km.shape[1]})")
    if qm.shape[1] == 0:
        raise ValueError("Q and K must have at least one column")
    if v_rows not in (None, len(km)):
        raise ValueError(f"V rows ({v_rows}) != K rows ({len(km)})")
    return as_matrix(z, "logits")


def attention_forward(q, k, v) -> AttentionResult:
    """Plain scaled-dot-product attention: softmax(Q K^T / sqrt(d_k)) V.

    V is checked first. The logits are then formed and tested once, and Q
    and K are checked only when that test fails or the logits are empty, so a
    NaN or an infinity in V, Q, K or the logits, or a logit that overflows,
    raises ``ValueError`` naming the first of them in that order. Tested
    logits go to the unchecked softmax kernel.
    """
    vm = as_matrix(v, "V")
    logits = scaled_logits(q, k, len(vm))
    # Empty logits take the checked softmax, which rejects a row with no column.
    p = _row_softmax(logits) if logits.size else row_softmax(logits)
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
        factors[idx.start:idx.stop] = gamma
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
    leaves its logits bit-identical). Finite logits whose sum overflows take
    their mean as s * mean(z / s), s = max |z| (see ``numerics._max_scaled``).
    """
    zm = as_matrix(logits, "logits")
    _check_gamma_max(gamma_max)
    _check_positive_finite("kappa", kappa)
    return _energy_gamma(zm, gamma_max, kappa)


def _energy_gamma(zm: np.ndarray, gamma_max: float, kappa: float) -> float:
    """:func:`energy_gamma` of finite float64 logits and valid parameters,
    without their checks; empty logits still raise."""
    if zm.size == 0:
        raise ValueError("empty logits")
    with np.errstate(all="ignore"):
        xbar = _max_scaled(np.mean, zm)
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
