import math
import re
from fractions import Fraction

import numpy as np
import pytest

from attnlab.attention import ModulationConfig, ScalingTargets, build_partition
from attnlab.scheduling import (
    BlockGateTable,
    ScheduleConfig,
    StepWindow,
    active_steps,
    block_gate,
    scheduled_attention,
    step_fraction,
    step_mask,
    window_preset,
)


def test_step_fraction_endpoints():
    assert step_fraction(1, 25) == 0.0
    assert step_fraction(25, 25) == 1.0
    assert step_fraction(13, 25) == pytest.approx(0.5)
    assert step_fraction(1, 1) == 0.0  # single-step schedule maps to 0


def test_step_fraction_range_checks():
    with pytest.raises(ValueError, match=r"^t must be an integer in 1\.\.25, got 0$"):
        step_fraction(0, 25)
    with pytest.raises(ValueError, match=r"^t must be an integer in 1\.\.25, got 26$"):
        step_fraction(26, 25)
    with pytest.raises(ValueError, match="total_steps"):
        step_fraction(1, 0)


def test_window_presets_t25_frozen_sets():
    # enumerated by hand from phi(t) = (t-1)/24 against each preset interval
    assert active_steps(25, window_preset("early")) == tuple(range(1, 9))
    assert active_steps(25, window_preset("middle")) == tuple(range(10, 17))
    assert active_steps(25, window_preset("late")) == tuple(range(18, 26))
    assert active_steps(25, window_preset("all")) == tuple(range(1, 26))


def test_active_steps_matches_direct_enumeration():
    # oracle: recompute membership from the raw inequality at many T values
    for total in (1, 2, 3, 7, 25, 50, 100):
        for name in ("early", "middle", "late", "all"):
            w = window_preset(name)
            expected = tuple(
                t
                for t in range(1, total + 1)
                if w.low <= ((t - 1) / (total - 1) if total > 1 else 0.0) <= w.high
            )
            assert active_steps(total, w) == expected


def test_window_endpoints_inclusive():
    # T=11 puts phi(t=4) exactly at 0.30: it must be inside the early window
    assert step_mask(4, 11, StepWindow(0.0, 0.30)) == 1
    assert step_mask(5, 11, StepWindow(0.0, 0.30)) == 0
    assert step_mask(1, 11, StepWindow(0.0, 0.30)) == 1


def test_single_step_schedule_windows():
    # T=1: phi=0, so any window containing 0 is active and others are not
    assert active_steps(1, window_preset("early")) == (1,)
    assert active_steps(1, window_preset("late")) == ()


def test_window_validation():
    with pytest.raises(ValueError, match="low <= high"):
        StepWindow(0.5, 0.2)
    with pytest.raises(ValueError, match="low <= high"):
        StepWindow(-0.1, 0.5)
    with pytest.raises(ValueError, match="unknown window preset"):
        window_preset("mid")


def test_block_gate_strict_threshold():
    assert block_gate(0.6, 0.5, 1.35) == 1.35
    assert block_gate(0.5, 0.5, 1.35) == 1.0  # exactly tau: off
    assert block_gate(0.4, 0.5, 1.35) == 1.0


def test_block_gate_validation():
    with pytest.raises(ValueError, match="foreground_ratio"):
        block_gate(1.5, 0.5, 1.35)
    with pytest.raises(ValueError, match="tau"):
        block_gate(0.5, -0.1, 1.35)
    with pytest.raises(ValueError, match="gamma"):
        block_gate(0.6, 0.5, 0.0)


@pytest.mark.parametrize("gamma", [math.nan, math.inf])
def test_block_gate_rejects_a_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match=f"^gamma must be positive and finite, got {gamma}$"):
        block_gate(0.6, 0.5, gamma)


def test_gate_table_construction():
    tbl = BlockGateTable((1, 0, 1, 0))
    assert tbl.num_blocks == 4
    assert BlockGateTable.from_selected([2, 0], 4).gates == (1, 0, 1, 0)
    assert BlockGateTable.uniform(3).gates == (1, 1, 1)
    assert BlockGateTable.uniform(3, on=False).gates == (0, 0, 0)


def test_gate_table_first_half():
    assert BlockGateTable.first_half(8).gates == (1, 1, 1, 1, 0, 0, 0, 0)
    assert BlockGateTable.first_half(5).gates == (1, 1, 0, 0, 0)  # floor(5/2) = 2
    assert BlockGateTable.first_half(1).gates == (0,)


def test_gate_table_validation():
    with pytest.raises(ValueError, match=r"^gates must be an integer in 0\.\.1, got 2$"):
        BlockGateTable((1, 2))
    with pytest.raises(ValueError, match="at least one block"):
        BlockGateTable(())
    with pytest.raises(ValueError, match=r"^selected must be an integer in 0\.\.3, got 4$"):
        BlockGateTable.from_selected([4], 4)


def test_schedule_is_active_grid():
    cfg = ScheduleConfig(gates=BlockGateTable((1, 0)), total_steps=25)
    assert cfg.is_active(0, 1)
    assert cfg.is_active(0, 8)
    assert not cfg.is_active(0, 9)  # phi(9) = 1/3 > 0.30
    assert not cfg.is_active(1, 1)  # block gated off
    with pytest.raises(ValueError, match=r"^block must be an integer in 0\.\.1, got 2$"):
        cfg.is_active(2, 1)


# (block, t) -> is_active's value, or the start of its error message, on three
# blocks gated (1, 0, 1) over 11 steps with the early window [0, 0.30]. The
# out-of-range steps raise even on the gated-off block 1. Only an int (Python
# or numpy, not a bool) is a block or a step: a Fraction or a float step would
# be placed on the window between two steps, and True would be step 1.
_IS_ACTIVE_CASES = [
    (-1, 1, "block must be an integer in 0..2, got -1"),
    (3, 1, "block must be an integer in 0..2, got 3"),
    (0, 0, "t must be an integer in 1..11, got 0"),
    (0, 12, "t must be an integer in 1..11, got 12"),
    (1, 0, "t must be an integer in 1..11, got 0"),
    (1, 12, "t must be an integer in 1..11, got 12"),
    (0, 1, True),
    (0, 4, True),  # phi(4) = 0.3, the closed end of the window
    (0, Fraction(4), "t must be an integer in 1..11, got Fraction(4, 1)"),
    (0, 5, False),
    (1, 1, False),
    (2, 11, False),
    (0, 2.5, "t must be an integer in 1..11, got 2.5"),
    (0, 4.5, "t must be an integer in 1..11, got 4.5"),
    (0, 0.5, "t must be an integer in 1..11, got 0.5"),
    (0, True, "t must be an integer in 1..11, got True"),
    (0, np.int64(4), True),
    (2, np.array(2), "t must be an integer in 1..11, got array(2)"),
    (np.int64(2), 11, False),
    (True, 1, "block must be an integer in 0..2, got True"),
    (1.0, 1, "block must be an integer in 0..2, got 1.0"),
]


def test_is_active_values_and_errors_at_the_edges():
    cfg = ScheduleConfig(gates=BlockGateTable((1, 0, 1)), total_steps=11)
    for block, t, want in _IS_ACTIVE_CASES:
        if isinstance(want, str):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                cfg.is_active(block, t)
        else:
            assert cfg.is_active(block, t) is want, (block, t)


# -- scheduled forward pass --------------------------------------------------


def _setup(seed=0, mode="scalar", gamma=1.35):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(4, 8))
    k = rng.normal(size=(6, 8))
    v = rng.normal(size=(6, 5))
    part = build_partition(2, 2, 2)
    mod = ModulationConfig(mode=mode, gamma=gamma)
    cfg = ScheduleConfig(gates=BlockGateTable((1, 0)), total_steps=25, modulation=mod)
    return q, k, v, part, cfg


def test_inactive_cell_bit_identical_to_plain_forward():
    from attnlab.attention import attention_forward

    q, k, v, part, cfg = _setup()
    plain = attention_forward(q, k, v)
    for block, t in ((1, 1), (0, 9), (1, 25)):
        res = scheduled_attention(block, t, q, k, v, part, cfg)
        assert res.gamma is None
        assert np.array_equal(res.output, plain.output)
        assert np.array_equal(res.probabilities, plain.probabilities)
        assert np.array_equal(res.logits, plain.logits)
    _, _, _, _, energy = _setup(mode="energy")
    assert scheduled_attention(1, 1, q, k, v, part, energy).gamma is None


def test_gamma_one_active_cell_bit_identical():
    from attnlab.attention import attention_forward

    q, k, v, part, cfg = _setup(gamma=1.0)
    plain = attention_forward(q, k, v)
    res = scheduled_attention(0, 1, q, k, v, part, cfg)
    assert res.gamma is None
    assert np.array_equal(res.output, plain.output)
    # energy mode with gamma_max = 1 has the coefficient 1 on every cell
    mod = ModulationConfig(mode="energy", gamma_max=1.0)
    energy = ScheduleConfig(gates=cfg.gates, total_steps=25, modulation=mod)
    res = scheduled_attention(0, 1, q, k, v, part, energy)
    assert res.gamma is None
    assert np.array_equal(res.output, plain.output)


def test_active_cell_sharpens_conditioning_columns():
    q, k, v, part, cfg = _setup(gamma=1.35)
    res = scheduled_attention(0, 1, q, k, v, part, cfg)
    from attnlab.attention import attention_forward

    plain = attention_forward(q, k, v)
    assert res.gamma == 1.35
    # conditioning logit columns scaled by gamma, video columns untouched
    np.testing.assert_allclose(
        res.logits[:, :4], 1.35 * plain.logits[:, :4], atol=1e-13
    )
    assert np.array_equal(res.logits[:, 4:], plain.logits[:, 4:])


def test_active_cell_applies_gamma_itself_below_one_half():
    # 1 + (gamma - 1) rounds away from gamma below 0.5; the cell must use gamma.
    from attnlab.attention import apply_group_scaling, attention_forward

    q, k, v, part, cfg = _setup(gamma=0.1)
    assert 1.0 + (0.1 - 1.0) != 0.1
    res = scheduled_attention(0, 1, q, k, v, part, cfg)
    k2 = apply_group_scaling(k, part, cfg.modulation.targets, 0.1)
    expected = attention_forward(q, k2, v)
    assert res.gamma == 0.1
    assert np.array_equal(res.logits, expected.logits)
    assert np.array_equal(res.probabilities, expected.probabilities)
    assert np.array_equal(res.output, expected.output)


def test_energy_mode_uses_per_call_coefficient():
    from attnlab.attention import attention_forward, energy_gamma

    q, k, v, part, cfg = _setup(mode="energy")
    res = scheduled_attention(0, 1, q, k, v, part, cfg)
    plain = attention_forward(q, k, v)
    gamma_e = energy_gamma(plain.logits, cfg.modulation.gamma_max, cfg.modulation.kappa)
    assert res.gamma == gamma_e
    np.testing.assert_allclose(
        res.logits[:, :4], gamma_e * plain.logits[:, :4], rtol=1e-13
    )


def test_custom_targets_respected():
    q, k, v, part, _ = _setup()
    mod = ModulationConfig(targets=ScalingTargets(key_groups={"video"}))
    cfg = ScheduleConfig(gates=BlockGateTable((1,)), total_steps=25, modulation=mod)
    res = scheduled_attention(0, 1, q, k, v, part, cfg)
    from attnlab.attention import attention_forward

    plain = attention_forward(q, k, v)
    assert res.gamma == 1.35
    assert np.array_equal(res.logits[:, :4], plain.logits[:, :4])
    np.testing.assert_allclose(res.logits[:, 4:], 1.35 * plain.logits[:, 4:], atol=1e-13)
