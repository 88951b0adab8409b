import math

import numpy as np
import pytest

from attnlab import scheduling, simulate
from attnlab.attention import ModulationConfig, ScalingTargets, build_partition
from attnlab.numerics import sample_gaussian, spectral_norm
from attnlab.scheduling import BlockGateTable, ScheduleConfig, window_preset
from attnlab.simulate import (
    ConflictConfig,
    LogitScaleProbe,
    StepCoefficients,
    conflict_experiment,
    conflict_logits,
    ddim_step,
    deviation_bound_check,
    flops_audit,
    make_toy_denoiser,
    run_trajectory,
    scaling_multiply_count,
    sharpening_curve,
)


def test_step_coefficients_linear_table():
    c = StepCoefficients.linear(8)
    assert c.total_steps == 8
    assert c.a == (1.0,) * 8
    assert c.b == (0.125,) * 8


def test_step_coefficients_validation():
    with pytest.raises(ValueError, match="equal length"):
        StepCoefficients(a=(1.0,), b=(1.0, 2.0))
    with pytest.raises(ValueError, match="at least one step"):
        StepCoefficients(a=(), b=())
    with pytest.raises(ValueError, match="non-finite"):
        StepCoefficients(a=(1.0,), b=(math.nan,))


def test_make_toy_denoiser_deterministic():
    d1 = make_toy_denoiser(seed=3)
    d2 = make_toy_denoiser(seed=3)
    np.testing.assert_array_equal(d1.cond_embed, d2.cond_embed)
    np.testing.assert_array_equal(d1.blocks[0].w_o, d2.blocks[0].w_o)
    assert d1.lipschitz_upper == d2.lipschitz_upper


def test_make_toy_denoiser_output_norms_clamped():
    den = make_toy_denoiser(seed=1, num_blocks=5)
    norms = [spectral_norm(blk.w_o) for blk in den.blocks]
    assert all(s >= 1.0 - 1e-12 for s in norms)
    assert den.lipschitz_upper == pytest.approx(np.prod(norms), rel=1e-12)
    assert den.lipschitz_upper >= 1.0 - 1e-10


def test_make_toy_denoiser_validation():
    with pytest.raises(ValueError, match="num_blocks"):
        make_toy_denoiser(seed=0, num_blocks=0)
    with pytest.raises(ValueError, match="at least one conditioning token"):
        make_toy_denoiser(seed=0, n_text=0, n_image=0)


def test_ddim_step_state_shape_check():
    den = make_toy_denoiser(seed=2)
    x = sample_gaussian((den.n_video, den.d_model), seed=5)
    coeffs = StepCoefficients.linear(4)
    assert ddim_step(den, x, 1, coeffs).shape == x.shape
    with pytest.raises(ValueError, match="state shape"):
        ddim_step(den, x.T, 1, coeffs)


def test_ddim_step_linear_update():
    den = make_toy_denoiser(seed=2)
    x = sample_gaussian((den.n_video, den.d_model), seed=5)
    # a = 0, b = 1 makes the step return the predicted noise itself
    eps = ddim_step(den, x, 2, StepCoefficients(a=(0.0,) * 4, b=(1.0,) * 4))
    assert eps.shape == x.shape
    coeffs = StepCoefficients(a=(0.9,) * 4, b=(0.1,) * 4)
    np.testing.assert_allclose(ddim_step(den, x, 2, coeffs), 0.9 * x + 0.1 * eps, atol=1e-14)
    with pytest.raises(ValueError, match="out of range"):
        ddim_step(den, x, 5, coeffs)


def test_probe_rejects_nonpositive_alpha():
    # The alpha = 1 identity is pinned by test_deviation_zero_at_alpha_one.
    with pytest.raises(ValueError, match="alpha must be positive"):
        LogitScaleProbe(block=0, query=0, alpha=0.0)


# -- deviation bound -----------------------------------------------------------


def test_deviation_zero_at_alpha_one():
    den = make_toy_denoiser(seed=7)
    x = sample_gaussian((den.n_video, den.d_model), seed=8)
    rep = deviation_bound_check(den, StepCoefficients.linear(8), t=1, x=x, alpha=1.0)
    assert rep.deviation == 0.0
    assert rep.bound == 0.0


def test_deviation_zero_coefficient_zero_bound():
    den = make_toy_denoiser(seed=7)
    x = sample_gaussian((den.n_video, den.d_model), seed=8)
    coeffs = StepCoefficients(a=(1.0,), b=(0.0,))
    rep = deviation_bound_check(den, coeffs, t=1, x=x, alpha=2.0)
    assert rep.deviation == 0.0
    assert rep.bound == 0.0
    assert rep.b_t == 0.0


def test_deviation_bound_holds_over_probes():
    coeffs = StepCoefficients.linear(8)
    for i in range(25):
        rng = np.random.default_rng([99, i])
        den = make_toy_denoiser(seed=int(rng.integers(1 << 30)))
        x = rng.normal(size=(den.n_video, den.d_model))
        alpha = float(rng.uniform(0.5, 3.0))
        t = int(rng.integers(1, 9))
        q = int(rng.integers(0, den.n_video))
        rep = deviation_bound_check(den, coeffs, t=t, x=x, alpha=alpha, query=q)
        assert rep.margin >= -1e-12
        assert rep.deviation >= 0.0


def test_deviation_scales_with_b_t():
    den = make_toy_denoiser(seed=11)
    x = sample_gaussian((den.n_video, den.d_model), seed=12)
    small = StepCoefficients(a=(1.0,), b=(0.01,))
    large = StepCoefficients(a=(1.0,), b=(1.0,))
    r_small = deviation_bound_check(den, small, 1, x, alpha=1.5)
    r_large = deviation_bound_check(den, large, 1, x, alpha=1.5)
    assert r_small.deviation == pytest.approx(0.01 * r_large.deviation, rel=1e-10)
    assert r_small.bound == pytest.approx(0.01 * r_large.bound, rel=1e-10)


# -- scheduling bookkeeping -------------------------------------------------------


def test_scaling_multiply_count():
    part = build_partition(2, 3, 4)
    key_ti = ScalingTargets(key_groups={"text", "image"})
    assert scaling_multiply_count(part, key_ti, n_rows=9, d_k=8) == (2 + 3) * 8
    q_img = ScalingTargets(query_groups={"image"})
    assert scaling_multiply_count(part, q_img, n_rows=9, d_k=8) == 9 * 8
    empty_part = build_partition(2, 0, 4)
    assert scaling_multiply_count(empty_part, ScalingTargets(key_groups={"image"}), 6, 8) == 0


def _schedule(gamma=1.35, mode="scalar", num_blocks=8, total_steps=25, kappa=1.0):
    mod = ModulationConfig(mode=mode, gamma=gamma, kappa=kappa)
    return ScheduleConfig(
        gates=BlockGateTable.first_half(num_blocks),
        total_steps=total_steps,
        window=window_preset("early"),
        modulation=mod,
    )


def test_trajectory_cell_pattern_matches_product_schedule():
    den = make_toy_denoiser(seed=0, num_blocks=8)
    coeffs = StepCoefficients.linear(25)
    sched = _schedule()
    x0 = sample_gaussian((den.n_video, den.d_model), seed=1, std=0.5)
    traj = run_trajectory(den, coeffs, sched, x0)
    assert traj.total_active_cells == 4 * 8  # floor(8/2) blocks x early steps 1..8
    per_step = [r.active_blocks for r in traj.rows]
    assert per_step[:8] == [4] * 8
    assert per_step[8:] == [0] * 17
    audit = flops_audit(traj, sched)
    assert audit.exact_match
    assert audit.measured_cells == audit.expected_cells == 32
    assert audit.measured_fraction == pytest.approx(0.16)
    assert audit.model_fraction == pytest.approx(0.16)
    assert audit.multiplies_total == 32 * scaling_multiply_count(
        den.partition, sched.modulation.targets, den.partition.size, 8
    )


def test_trajectory_gamma_one_is_inert():
    den = make_toy_denoiser(seed=0, num_blocks=4)
    coeffs = StepCoefficients.linear(10)
    base = run_trajectory(den, coeffs, _schedule(num_blocks=4, total_steps=10),
                          sample_gaussian((den.n_video, den.d_model), seed=1))
    inert = run_trajectory(den, coeffs, _schedule(gamma=1.0, num_blocks=4, total_steps=10),
                           sample_gaussian((den.n_video, den.d_model), seed=1))
    assert inert.total_active_cells == 0
    assert inert.total_multiplies == 0
    for row in inert.rows:
        assert row.entropy_ratio == pytest.approx(1.0, abs=1e-15)
    audit = flops_audit(inert, _schedule(gamma=1.0, num_blocks=4, total_steps=10))
    assert audit.exact_match and audit.expected_cells == 0
    # and the gamma=1 run is bit-identical to a fully unscheduled rollout
    plain_sched = _schedule(gamma=1.35, num_blocks=4, total_steps=10)
    x = sample_gaussian((den.n_video, den.d_model), seed=1)
    for t in range(1, 3):
        a = ddim_step(den, x, t, coeffs, schedule=None)
        b = ddim_step(den, x, t, coeffs, schedule=_schedule(gamma=1.0, num_blocks=4, total_steps=10))
        assert np.array_equal(a, b)
    assert base.total_active_cells > 0


def test_trajectory_active_steps_sharpen_conditioning():
    den = make_toy_denoiser(seed=0, num_blocks=8)
    coeffs = StepCoefficients.linear(25)
    sched = _schedule(gamma=1.35)
    x0 = sample_gaussian((den.n_video, den.d_model), seed=1, std=0.5)
    traj = run_trajectory(den, coeffs, sched, x0)
    active = [r for r in traj.rows if r.active_blocks > 0]
    inactive = [r for r in traj.rows if r.active_blocks == 0]
    assert all(r.entropy_ratio < 1.0 for r in active)
    assert all(r.entropy_ratio == pytest.approx(1.0, abs=1e-15) for r in inactive)
    for r in traj.rows:
        assert r.mass_text + r.mass_image + r.mass_video == pytest.approx(1.0, abs=1e-9)


def test_trajectory_energy_mode_counts_all_gated_cells(monkeypatch):
    # Every gated cell is scaled, and counted, exactly once: also a cell whose
    # energy coefficient rounds to 1.0, as all of them do at kappa = 1e-3.
    gammas = []
    original = scheduling.apply_group_scaling

    def counting_scaling(q, k, partition, targets, gamma):
        gammas.append(gamma)
        return original(q, k, partition, targets, gamma)

    monkeypatch.setattr(scheduling, "apply_group_scaling", counting_scaling)
    for seed, num_blocks, kappa in ((0, 4, 1.0), (4, 2, 1e-3)):
        gammas.clear()
        den = make_toy_denoiser(seed=seed, num_blocks=num_blocks)
        coeffs = StepCoefficients.linear(10)
        sched = _schedule(mode="energy", num_blocks=num_blocks, total_steps=10, kappa=kappa)
        x0 = sample_gaussian((den.n_video, den.d_model), seed=1)
        traj = run_trajectory(den, coeffs, sched, x0)
        audit = flops_audit(traj, sched)
        assert audit.exact_match
        assert audit.expected_cells == num_blocks // 2 * len(
            [t for t in range(1, 11) if (t - 1) / 9 <= 0.30]
        )
        assert len(gammas) == traj.total_active_cells == audit.measured_cells
    assert gammas == [1.0] * 3


def test_trajectory_runs_baseline_only_on_scaled_cells(monkeypatch):
    # Every cell runs its scheduled call; only a scaled cell adds a baseline.
    calls = []

    def counting_forward(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    original = simulate.attention_forward
    monkeypatch.setattr(simulate, "attention_forward", counting_forward)
    monkeypatch.setattr(scheduling, "attention_forward", counting_forward)
    den = make_toy_denoiser(seed=0, num_blocks=4)
    coeffs = StepCoefficients.linear(10)
    traj = run_trajectory(den, coeffs, _schedule(num_blocks=4, total_steps=10),
                          sample_gaussian((den.n_video, den.d_model), seed=1))
    cells = 4 * 10
    assert traj.total_active_cells == 2 * 3  # blocks 0-1 x steps 1-3
    assert len(calls) == cells + traj.total_active_cells
    assert len(calls) < 2 * cells


def test_trajectory_shape_mismatches_rejected():
    den = make_toy_denoiser(seed=0, num_blocks=4)
    with pytest.raises(ValueError, match="steps"):
        run_trajectory(den, StepCoefficients.linear(10), _schedule(num_blocks=4, total_steps=9),
                       np.zeros((den.n_video, den.d_model)))
    with pytest.raises(ValueError, match="blocks"):
        run_trajectory(den, StepCoefficients.linear(10), _schedule(num_blocks=5, total_steps=10),
                       np.zeros((den.n_video, den.d_model)))


# -- conflict experiment ------------------------------------------------------------


def test_conflict_logits_layout():
    cfg = ConflictConfig()
    z, part = conflict_logits(seed=0, config=cfg)
    assert z.shape == (32, 30)
    assert part.image == tuple(range(6, 14))
    # boosted image columns dominate on average
    assert z[:, list(part.image)].mean() > z[:, list(part.text)].mean() + 1.0


def test_key_scale_factors_scale_key_rows_and_logit_columns_alike():
    from attnlab.attention import apply_group_scaling, key_scale_factors, scaled_logits

    rng = np.random.default_rng(5)
    q = rng.normal(size=(4, 8))
    k = rng.normal(size=(6, 8))
    part = build_partition(2, 2, 2)
    targets = ScalingTargets(key_groups={"text", "image"})
    factors = key_scale_factors(part, targets.key_groups, 1.35)
    assert factors.tolist() == [1.35] * 4 + [1.0] * 2
    z = scaled_logits(q, k)
    _, ks = apply_group_scaling(q, k, part, targets, 1.35)
    np.testing.assert_array_equal(ks, k * factors[:, None])
    np.testing.assert_allclose(z * factors, scaled_logits(q, ks), atol=1e-13)
    # untouched keys keep bit-identical logit columns
    assert np.array_equal((z * factors)[:, 4:], z[:, 4:])


def test_conflict_image_dominates_baseline():
    rep = conflict_experiment(seed=0)
    assert rep.base_mass_image > 0.7
    assert rep.base_mass_image > rep.base_mass_text


def test_conflict_scaled_union_entropy_certified():
    # scaling the whole conditioning block: the restricted distribution is a
    # pure temperature sharpening, so every nondegenerate ratio drops below 1
    for seed in range(5):
        rep = conflict_experiment(seed=seed)
        for ratio, ok in zip(rep.scaled_entropy_ratios, rep.scaled_nondegenerate):
            if ok:
                assert ratio < 1.0
        # whole-block scaling: measured and certified objects coincide
        np.testing.assert_allclose(rep.entropy_ratios, rep.scaled_entropy_ratios, atol=1e-12)


def test_conflict_text_only_scaling_direction():
    cfg = ConflictConfig(gamma=1.35, targets=ScalingTargets(key_groups={"text"}))
    rep = conflict_experiment(seed=0, config=cfg)
    # certified object: entropy restricted to the scaled (text) group drops
    for ratio, ok in zip(rep.scaled_entropy_ratios, rep.scaled_nondegenerate):
        if ok:
            assert ratio < 1.0
    # measured direction on average: text mass up, image mass down
    assert rep.delta_mass_text > 0.0
    assert rep.delta_mass_image < 0.0


def test_conflict_gamma_one_no_motion():
    cfg = ConflictConfig(gamma=1.0)
    rep = conflict_experiment(seed=3, config=cfg)
    assert rep.delta_mass_text == 0.0
    assert rep.delta_mass_image == 0.0
    assert rep.delta_mass_video == 0.0
    assert all(r == pytest.approx(1.0, abs=1e-12) for r in rep.entropy_ratios)
    assert rep.argmax_flips_to_text == 0


def test_conflict_extreme_gamma_text_takeover():
    # gamma large enough makes the max text logit dominate every scaled column
    cfg = ConflictConfig(gamma=50.0, targets=ScalingTargets(key_groups={"text"}))
    rep = conflict_experiment(seed=0, config=cfg)
    assert rep.delta_mass_text > 0.5
    assert rep.argmax_flips_to_text > 25


def test_conflict_config_validation():
    with pytest.raises(ValueError, match="text and image"):
        ConflictConfig(n_text=0)
    with pytest.raises(ValueError, match="n_queries"):
        ConflictConfig(n_queries=0)
    with pytest.raises(ValueError, match="gamma"):
        ConflictConfig(gamma=0.0)


def test_sharpening_curve_rows_nondecreasing():
    z, part = conflict_logits(seed=1, config=ConflictConfig())
    gammas = (1.0, 1.15, 1.25, 1.35)
    curve = sharpening_curve(z, part.conditioning, gammas)
    assert curve.shape == (32, 4)
    diffs = np.diff(curve, axis=1)
    assert (diffs >= -1e-12).all()
    # gamma = 1 column equals the raw restricted max-probability
    from attnlab.numerics import softmax_vec

    cond = list(part.conditioning)
    for i in (0, 5, 31):
        p = softmax_vec(z[i, cond])
        assert curve[i, 0] == pytest.approx(float(p.max()), abs=1e-12)


def test_sharpening_curve_validation():
    z = np.zeros((2, 4))
    with pytest.raises(ValueError, match="nonempty"):
        sharpening_curve(z, [], (1.0,))
    with pytest.raises(ValueError, match="positive"):
        sharpening_curve(z, [0, 1], (0.0,))
