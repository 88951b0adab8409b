"""Step windows, block gates, and the scheduled attention call.

Steps are 1-based with t=1 the highest-noise step. The normalized position is
phi(t) = (t-1)/(T-1), defined as 0 for T=1; a window [low, high] is inclusive
at both ends. Block gates are 0/1 flags per attention block. A (block, step)
cell is active when both its step mask and its block gate are 1; an active
cell scales the targeted groups by gamma unless the modulation cannot scale
(see ``ModulationConfig.effective``), and any other cell runs the plain pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (
    AttentionResult,
    KeyPartition,
    ModulationConfig,
    _check_positive_finite,
    apply_group_scaling,
    attention_forward,
    energy_gamma,
    scaled_logits,
)


@dataclass(frozen=True)
class StepWindow:
    low: float = 0.0
    high: float = 0.30

    def __post_init__(self):
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ValueError(
                f"window must satisfy 0 <= low <= high <= 1, got [{self.low}, {self.high}]"
            )


WINDOW_PRESETS = {
    "early": StepWindow(0.0, 0.30),
    "middle": StepWindow(0.35, 0.65),
    "late": StepWindow(0.70, 1.00),
    "all": StepWindow(0.0, 1.0),
}

DEFAULT_WINDOW = WINDOW_PRESETS["early"]


def window_preset(name: str) -> StepWindow:
    key = name.strip().lower()
    if key not in WINDOW_PRESETS:
        raise ValueError(
            f"unknown window preset {name!r}; valid presets: {sorted(WINDOW_PRESETS)}"
        )
    return WINDOW_PRESETS[key]


def step_fraction(t: int, total_steps: int) -> float:
    """phi(t) = (t-1)/(T-1); 0.0 for the single-step schedule."""
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")
    if not 1 <= t <= total_steps:
        raise ValueError(f"step t={t} out of range 1..{total_steps}")
    if total_steps == 1:
        return 0.0
    return (t - 1) / (total_steps - 1)


def step_mask(t: int, total_steps: int, window: StepWindow) -> int:
    """1 if phi(t) lands inside the window (endpoints inclusive), else 0."""
    phi = step_fraction(t, total_steps)
    return int(window.low <= phi <= window.high)


def active_steps(total_steps: int, window: StepWindow) -> tuple[int, ...]:
    """All 1-based steps whose phi(t) lies in the window."""
    return tuple(
        t for t in range(1, total_steps + 1) if step_mask(t, total_steps, window)
    )


@dataclass(frozen=True)
class BlockGateTable:
    """Per-block 0/1 gate flags, index l = 0..L-1."""

    gates: tuple[int, ...]

    def __post_init__(self):
        g = tuple(int(x) for x in self.gates)
        if not g:
            raise ValueError("gate table must cover at least one block")
        if any(x not in (0, 1) for x in g):
            raise ValueError("gates must be 0 or 1")
        object.__setattr__(self, "gates", g)

    @property
    def num_blocks(self) -> int:
        return len(self.gates)

    @classmethod
    def from_selected(cls, selected, num_blocks: int) -> "BlockGateTable":
        sel = {int(l) for l in selected}
        bad = [l for l in sel if not 0 <= l < num_blocks]
        if bad:
            raise ValueError(f"selected block(s) {sorted(bad)} out of range 0..{num_blocks - 1}")
        return cls(tuple(1 if l in sel else 0 for l in range(num_blocks)))

    @classmethod
    def first_half(cls, num_blocks: int) -> "BlockGateTable":
        """Gate the leading floor(L/2) blocks — the depth heuristic default."""
        half = num_blocks // 2
        return cls(tuple(1 if l < half else 0 for l in range(num_blocks)))

    @classmethod
    def uniform(cls, num_blocks: int, on: bool = True) -> "BlockGateTable":
        return cls((1 if on else 0,) * num_blocks)


def block_gate(foreground_ratio: float, tau: float, gamma: float) -> float:
    """gamma if the block's foreground ratio strictly exceeds tau, else 1."""
    if not 0.0 <= foreground_ratio <= 1.0:
        raise ValueError(f"foreground_ratio must be in [0, 1], got {foreground_ratio}")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    _check_positive_finite("gamma", gamma)
    return gamma if foreground_ratio > tau else 1.0


@dataclass(frozen=True)
class ScheduleConfig:
    """Full schedule: step window x block gates x modulation settings."""

    gates: BlockGateTable
    total_steps: int = 25
    window: StepWindow = DEFAULT_WINDOW
    modulation: ModulationConfig = field(default_factory=ModulationConfig)

    def __post_init__(self):
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")

    @property
    def num_blocks(self) -> int:
        return self.gates.num_blocks

    def is_active(self, block: int, t: int) -> bool:
        if not 0 <= block < self.num_blocks:
            raise ValueError(f"block {block} out of range 0..{self.num_blocks - 1}")
        return bool(
            step_mask(t, self.total_steps, self.window) and self.gates.gates[block]
        )


def scheduled_attention(
    block: int,
    t: int,
    q,
    k,
    v,
    partition: KeyPartition,
    config: ScheduleConfig | None,
) -> AttentionResult:
    """Attention at (block, t) under the schedule: the one place that decides
    whether a cell is scaled.

    A cell is scaled exactly when it is active and the modulation is
    effective; it then scales the targeted groups and returns its coefficient
    in ``result.gamma``. Any other cell, and every cell when ``config`` is
    None, runs :func:`~attnlab.attention.attention_forward` itself
    (``result.gamma`` is None), so the result is bit-identical to an
    unscheduled call. In energy mode the coefficient is derived from this
    call's own unscaled logits and is only computed on a scaled cell.

    A scaled cell checks K when it scales it (a gamma that takes a scaled key
    out of range raises ``ValueError`` naming it; see
    :func:`~attnlab.attention.apply_group_scaling`). Each attention call then
    checks V and tests its logits once, and checks Q and K only when that
    test fails, so a non-finite Q, K, V or logit is named as if each had
    been checked first. The scaled call runs under ``errstate(over="raise")``:
    scaled logits that overflow name gamma only when the plain pass's logits
    are finite; otherwise the cell raises what the plain pass raises.
    """
    if config is None or not (config.is_active(block, t) and config.modulation.effective):
        return attention_forward(q, k, v)
    mod = config.modulation
    if mod.mode == "energy":
        gamma = energy_gamma(scaled_logits(q, k), mod.gamma_max, mod.kappa)
    else:
        gamma = mod.gamma
    k2 = apply_group_scaling(k, partition, mod.targets, gamma)
    try:
        with np.errstate(over="raise"):
            res = attention_forward(q, k2, v)
    except FloatingPointError:
        # Unscaled logits that overflow are not gamma's doing: the plain pass names them.
        with np.errstate(all="ignore"):
            attention_forward(q, k, v)
        raise ValueError(f"gamma must keep the scaled logits finite, got {gamma}") from None
    return AttentionResult(res.logits, res.probabilities, res.output, gamma)
