import dataclasses
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest

from attnlab import attention, scheduling, simulate
from attnlab.attention import (
    KeyPartition,
    ModulationConfig,
    ScalingTargets,
    build_partition,
    resolve_targets,
)
from attnlab.analysis import entropy_alpha_report, flops_overhead
from attnlab.calibration import BlockFixture, BlockRatioTable, calibrate_synthetic
from attnlab.numerics import pca_top_k, sample_gaussian, spectral_norm, spectral_norms
from attnlab.scheduling import (
    BlockGateTable,
    ScheduleConfig,
    active_steps,
    step_fraction,
    step_mask,
    window_preset,
)
from attnlab.tensorio import BlockReader, write_tensor
from attnlab.verification import run_suite, run_sweep
from attnlab.simulate import (
    ConflictConfig,
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


@pytest.mark.parametrize("total_steps", [2.5, 3.0, "4", None])
def test_linear_coefficients_name_a_step_count_that_is_not_an_integer(total_steps):
    with pytest.raises(ValueError, match=r"^total_steps must be an integer >= 1, got "):
        StepCoefficients.linear(total_steps)


def test_linear_coefficients_take_a_numpy_integer():
    assert StepCoefficients.linear(np.int64(4)) == StepCoefficients.linear(4)


def test_make_toy_denoiser_deterministic():
    d1 = make_toy_denoiser(seed=3)
    d2 = make_toy_denoiser(seed=3)
    np.testing.assert_array_equal(d1.cond_embed, d2.cond_embed)
    for name in ("w_qk", "w_v", "w_o"):
        np.testing.assert_array_equal(getattr(d1, name), getattr(d2, name))
    assert d1.lipschitz_upper == d2.lipschitz_upper


def test_make_toy_denoiser_output_norms_clamped():
    den = make_toy_denoiser(seed=1, num_blocks=5)
    norms = [spectral_norm(w_o) for w_o in den.w_o]
    assert all(s >= 1.0 - 1e-12 for s in norms)
    assert den.lipschitz_upper == pytest.approx(np.prod(norms), rel=1e-12)
    assert den.lipschitz_upper >= 1.0 - 1e-10


def test_lipschitz_upper_follows_an_in_place_edit_of_w_o():
    den = make_toy_denoiser(0)
    den.w_o[0] *= 4
    assert den.lipschitz_upper == math.prod(spectral_norms(den.w_o).tolist())


@pytest.mark.parametrize("block", [0, -1])
def test_denoiser_names_a_non_finite_w_o(block):
    den = make_toy_denoiser(0)
    w_o = den.w_o.copy()
    w_o[block, 0, 0] = math.nan
    with pytest.raises(ValueError, match=r"^non-finite w_o$"):
        dataclasses.replace(den, w_o=w_o)


def test_a_step_that_makes_a_non_finite_state_names_it():
    # An in-place edit after construction: the last block's W_o writes the state.
    den = make_toy_denoiser(0, num_blocks=2)
    den.w_o[-1, 0, 0] = math.nan
    x = sample_gaussian((den.n_video, den.d_model), seed=1)
    coeffs = StepCoefficients.linear(1)
    with pytest.raises(ValueError, match="^non-finite state$"):
        ddim_step(den, x, 1, coeffs)
    with pytest.raises(ValueError, match="^non-finite state$"):
        run_trajectory(den, coeffs, _schedule(num_blocks=2, total_steps=1), x)


# Every library site that takes a size: id -> (a call with the size n, the
# size's name, its least value[, its most value]).
SIZE_SITES = {
    "KeyPartition-n_text": (lambda n: KeyPartition(n, 1, 1), "n_text", 0),
    "KeyPartition-n_image": (lambda n: KeyPartition(1, n, 1), "n_image", 0),
    "KeyPartition-n_video": (lambda n: KeyPartition(1, 1, n), "n_video", 0),
    "build_partition-n_image": (lambda n: build_partition(1, n, 1), "n_image", 0),
    "StepCoefficients.linear": (StepCoefficients.linear, "total_steps", 1),
    "make_toy_denoiser-num_blocks": (lambda n: make_toy_denoiser(0, num_blocks=n), "num_blocks", 1),
    "make_toy_denoiser-d_k": (lambda n: make_toy_denoiser(0, d_k=n), "d_k", 1),
    "make_toy_denoiser-d_v": (lambda n: make_toy_denoiser(0, d_v=n), "d_v", 1),
    "step_fraction": (lambda n: step_fraction(1, n), "total_steps", 1),
    "active_steps": (lambda n: active_steps(n, window_preset("early")), "total_steps", 1),
    "ScheduleConfig": (
        lambda n: ScheduleConfig(gates=BlockGateTable((1,)), total_steps=n), "total_steps", 1
    ),
    "BlockGateTable.first_half": (BlockGateTable.first_half, "num_blocks", 1),
    "BlockGateTable.uniform": (BlockGateTable.uniform, "num_blocks", 1),
    "BlockGateTable.from_selected": (
        lambda n: BlockGateTable.from_selected([0], n), "num_blocks", 1
    ),
    "BlockRatioTable": (lambda n: BlockRatioTable((0.5,), n), "sample_count", 1),
    "calibrate_synthetic-num_blocks": (
        lambda n: calibrate_synthetic(0, num_blocks=n, samples=1), "num_blocks", 1
    ),
    "calibrate_synthetic-samples": (
        lambda n: calibrate_synthetic(0, num_blocks=2, samples=n), "samples", 1
    ),
    "ConflictConfig-n_text": (lambda n: ConflictConfig(n_text=n), "n_text", 1),
    "ConflictConfig-n_image": (lambda n: ConflictConfig(n_image=n), "n_image", 1),
    "ConflictConfig-n_video": (lambda n: ConflictConfig(n_video=n), "n_video", 0),
    "ConflictConfig-n_queries": (lambda n: ConflictConfig(n_queries=n), "n_queries", 1),
    "BlockFixture-num_blocks": (lambda n: BlockFixture("x", n, ()), "num_blocks", 1),
    "flops_overhead-total_blocks": (lambda n: flops_overhead(0, n, 0, 1), "total_blocks", 1),
    "flops_overhead-total_steps": (lambda n: flops_overhead(0, 1, 0, n), "total_steps", 1),
    "flops_overhead-scaled_blocks": (lambda n: flops_overhead(n, 4, 0, 1), "scaled_blocks", 0, 4),
    "flops_overhead-scaled_steps": (lambda n: flops_overhead(0, 1, n, 4), "scaled_steps", 0, 4),
    "run_suite-draws": (lambda n: run_suite("curvature", draws=n), "draws", 0),
    "run_suite-probes": (lambda n: run_suite("deviation", probes=n), "probes", 0),
    "run_sweep-draws": (lambda n: run_sweep(draws=n), "draws", 0),
    "pca_top_k": (lambda n: pca_top_k(np.eye(3), n), "k", 1, 3),
}


@pytest.mark.parametrize("value", ["bool", "integral float", "float", "below the least"])
@pytest.mark.parametrize("site", sorted(SIZE_SITES))
def test_a_size_that_is_not_an_int_count_is_named(site, value):
    # True would pass a bare comparison as 1, and a float would pass it only to
    # fail later inside range() or numpy; each site names the size instead.
    make, name, least, *most = SIZE_SITES[site]
    n = {"bool": True, "integral float": 2.0, "float": 2.5, "below the least": least - 1}[value]
    bound = f"in {least}..{most[0]}" if most else f">= {least}"
    message = f"{name} must be an integer {bound}, got {n!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(n)


def test_a_numpy_integer_size_is_kept_as_an_int():
    part = KeyPartition(np.int64(3), np.int32(0), np.int64(2))
    assert [type(n) for n in (part.n_text, part.n_image, part.n_video)] == [int, int, int]
    assert part == KeyPartition(3, 0, 2)
    table = BlockRatioTable((0.5,), np.int64(3))
    assert type(table.sample_count) is int and table.sample_count == 3


def _row_slabs(n):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.atnb")
        write_tensor(path, np.zeros((3, 2, 2)))
        with BlockReader(path) as reader:
            return [s.copy() for s in reader.row_slabs(n)]


def _probe(t=1, query=0):
    den = make_toy_denoiser(seed=7)
    x = sample_gaussian((den.n_video, den.d_model), seed=8)
    return deviation_bound_check(den, StepCoefficients.linear(8), t, x, 1.5, query=query)


def _ddim(t):
    den = make_toy_denoiser(seed=2)
    x = sample_gaussian((den.n_video, den.d_model), seed=5)
    return ddim_step(den, x, t, StepCoefficients.linear(3))


_IS_ACTIVE = ScheduleConfig(gates=BlockGateTable((1, 0, 1)), total_steps=4)

# Every library site that takes an index: id -> (a call with the index n, the
# index's name, its least and most values).
INDEX_SITES = {
    "step_fraction-t": (lambda n: step_fraction(n, 4), "t", 1, 4),
    "step_mask-t": (lambda n: step_mask(n, 4, window_preset("early")), "t", 1, 4),
    "ScheduleConfig.is_active-block": (lambda n: _IS_ACTIVE.is_active(n, 1), "block", 0, 2),
    "ScheduleConfig.is_active-t": (lambda n: _IS_ACTIVE.is_active(0, n), "t", 1, 4),
    "BlockGateTable-gates": (lambda n: BlockGateTable((0, n)), "gates", 0, 1),
    "BlockGateTable.from_selected-selected": (
        lambda n: BlockGateTable.from_selected([0, n], 3), "selected", 0, 2
    ),
    "ddim_step-t": (_ddim, "t", 1, 3),
    "deviation_bound_check-t": (lambda n: _probe(t=n), "t", 1, 8),
    "deviation_bound_check-query": (lambda n: _probe(query=n), "query", 0, 7),
    "entropy_alpha_report-s": (
        lambda n: entropy_alpha_report(np.arange(3.0), [0, n], 1.0), "subset", 0, 2
    ),
    "sharpening_curve-subset": (
        lambda n: sharpening_curve(np.zeros((2, 4)), [n], (1.0,)), "subset", 0, 3
    ),
    "BlockFixture-blocks": (lambda n: BlockFixture("x", 4, (n,)), "blocks", 0, 3),
    "BlockReader.row_slabs-l": (_row_slabs, "l", 0, 2),
}


@pytest.mark.parametrize(
    "value", ["bool", "integral float", "float", "below the least", "above the most"]
)
@pytest.mark.parametrize("site", sorted(INDEX_SITES))
def test_an_index_that_is_not_an_int_in_range_is_named(site, value):
    # True would index as 1 and a float would be truncated or placed between
    # two steps; each site names the index instead, with its range.
    make, name, least, most = INDEX_SITES[site]
    n = {
        "bool": True,
        "integral float": 1.0,
        "float": 1.5,
        "below the least": least - 1,
        "above the most": most + 1,
    }[value]
    message = f"{name} must be an integer in {least}..{most}, got {n!r}"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(n)


@pytest.mark.parametrize("site", sorted(INDEX_SITES))
def test_each_index_site_takes_a_numpy_integer(site):
    make, _, _, most = INDEX_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_equal(make(np.int64(most)), make(most))


def test_a_numpy_integer_index_is_kept_as_an_int():
    gates = BlockGateTable((np.int64(1), np.int32(0))).gates
    assert gates == (1, 0) and [type(g) for g in gates] == [int, int]
    fixture = BlockFixture("x", np.int64(4), (np.int32(0), np.int64(3)))
    assert fixture == BlockFixture("x", 4, (0, 3))
    assert [type(n) for n in (fixture.num_blocks, *fixture.blocks)] == [int, int, int]
    assert type(_probe(t=np.int64(2)).t) is int


@pytest.mark.parametrize("n_text", ["3", None])
def test_make_toy_denoiser_names_a_group_size_that_is_not_an_int(n_text):
    # The partition is built before anything adds the group sizes.
    with pytest.raises(ValueError, match=f"^n_text must be an integer >= 0, got {n_text!r}$"):
        make_toy_denoiser(0, n_text=n_text)


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
    with pytest.raises(ValueError, match=r"^t must be an integer in 1\.\.4, got 5$"):
        ddim_step(den, x, 5, coeffs)


def test_probe_rejects_nonpositive_alpha():
    # The alpha = 1 identity is pinned by test_deviation_zero_at_alpha_one.
    den = make_toy_denoiser(seed=7)
    x = sample_gaussian((den.n_video, den.d_model), seed=8)
    with pytest.raises(ValueError, match="alpha must be positive"):
        deviation_bound_check(den, StepCoefficients.linear(8), t=1, x=x, alpha=0.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf])
def test_probe_rejects_a_non_finite_alpha(alpha):
    den = make_toy_denoiser(seed=7)
    x = sample_gaussian((den.n_video, den.d_model), seed=8)
    with pytest.raises(ValueError, match=f"^alpha must be positive and finite, got {alpha}$"):
        deviation_bound_check(den, StepCoefficients.linear(8), t=1, x=x, alpha=alpha)


def test_probe_rejects_query_out_of_range():
    den = make_toy_denoiser(seed=7)
    x = sample_gaussian((den.n_video, den.d_model), seed=8)
    with pytest.raises(ValueError, match=r"^query must be an integer in 0\.\.7, got 8$"):
        deviation_bound_check(den, StepCoefficients.linear(8), 1, x, 1.5, query=den.n_video)


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
    # only keys are scaled, so the query row count does not enter
    assert scaling_multiply_count(part, key_ti, n_rows=1, d_k=8) == (2 + 3) * 8
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
    x0 = 0.5 * sample_gaussian((den.n_video, den.d_model), seed=1)
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
    x0 = 0.5 * sample_gaussian((den.n_video, den.d_model), seed=1)
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

    def counting_scaling(k, partition, targets, gamma):
        gammas.append(gamma)
        return original(k, partition, targets, gamma)

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
    # Every cell runs the scheduled call once; only a scaled cell adds a
    # baseline, which is one product of its plain logits.
    calls = _counting(monkeypatch, simulate, "scheduled_attention")
    baselines = _counting(monkeypatch, simulate, "scaled_logits")
    den = make_toy_denoiser(seed=0, num_blocks=4)
    coeffs = StepCoefficients.linear(10)
    traj = run_trajectory(den, coeffs, _schedule(num_blocks=4, total_steps=10),
                          sample_gaussian((den.n_video, den.d_model), seed=1))
    cells = 4 * 10
    assert traj.total_active_cells == 2 * 3  # blocks 0-1 x steps 1-3
    assert len(calls) + len(baselines) == cells + traj.total_active_cells
    assert len(calls) + len(baselines) < 2 * cells


@pytest.mark.parametrize("num_blocks, total_steps, message", [
    (4, 10, "^schedule has 10 steps, coefficients 25$"),
    (6, 25, "^denoiser has 4 blocks, schedule 6$"),
])
def test_ddim_step_refuses_a_schedule_that_does_not_fit(num_blocks, total_steps, message):
    # A 10-step schedule would take phi(t) over T = 10, not the run's 25; a
    # 6-gate schedule gates blocks the denoiser does not have. A step refuses
    # both as the trajectory does, before it checks the step's range.
    den = make_toy_denoiser(seed=0, num_blocks=4)
    x = sample_gaussian((den.n_video, den.d_model), seed=1)
    coeffs = StepCoefficients.linear(25)
    schedule = _schedule(num_blocks=num_blocks, total_steps=total_steps)
    for t in (5, 26):
        with pytest.raises(ValueError, match=message):
            ddim_step(den, x, t, coeffs, schedule)
    with pytest.raises(ValueError, match=message):
        run_trajectory(den, coeffs, schedule, x)


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
    assert part.image == range(6, 14)
    # boosted image columns dominate on average
    assert z[:, 6:14].mean() > z[:, :6].mean() + 1.0


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
    ks = apply_group_scaling(k, part, targets, 1.35)
    np.testing.assert_array_equal(ks, k * factors[:, None])
    np.testing.assert_allclose(z * factors, scaled_logits(q, ks), atol=1e-13)
    # untouched keys keep bit-identical logit columns
    assert np.array_equal((z * factors)[:, 4:], z[:, 4:])


def test_conflict_image_dominates_baseline():
    rep = conflict_experiment(seed=0)
    assert rep.base_mass_image > 0.7
    assert rep.base_mass_image > rep.base_mass_text


def test_conflict_whole_block_entropy_drops():
    # Scaling the whole conditioning block is a pure temperature sharpening of
    # the renormalized block, so every nondegenerate ratio drops below 1.
    for seed in range(5):
        rep = conflict_experiment(seed=seed)
        assert any(rep.nondegenerate)
        assert all(r < 1.0 for r, ok in zip(rep.entropy_ratios, rep.nondegenerate) if ok)


def test_conflict_text_only_scaling_direction():
    cfg = ConflictConfig(gamma=1.35, targets=ScalingTargets(key_groups={"text"}))
    rep = conflict_experiment(seed=0, config=cfg)
    # measured direction on average: text mass up, image mass down
    assert rep.delta_mass_text > 0.0
    assert rep.delta_mass_image < 0.0


def test_entropy_ratio_rule():
    ratio = simulate._entropy_ratio
    h_mod = np.array([0.5, 0.0, 0.3, 0.0, math.nan, 0.2])
    h_base = np.array([2.0, 0.0, 0.0, 1.0, 1.0, math.nan])
    got = ratio(h_mod, h_base)
    np.testing.assert_array_equal(got, [0.25, 1.0, math.nan, 0.0, math.nan, math.nan])
    assert float(ratio(0.0, 0.0)) == 1.0
    assert float(ratio(0.3, 0.6)) == 0.3 / 0.6


def test_conflict_point_mass_baseline_is_degenerate():
    # One image key boosted by 800 underflows every other conditioning
    # probability: the baseline conditioning block is a point mass.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        same = conflict_experiment(1, ConflictConfig(n_image=1, boost=800.0))
        softened = conflict_experiment(1, ConflictConfig(n_image=1, boost=800.0, gamma=0.5))
    # gamma = 1.35 keeps the point mass: the same distribution, ratio 1.
    assert same.entropy_ratios == (1.0,) * 32
    # gamma = 0.5 lifts the text keys off 0 against a zero baseline entropy.
    assert all(math.isnan(r) for r in softened.entropy_ratios)
    for rep in (same, softened):
        assert not any(rep.nondegenerate)


def test_default_targets_are_both_conditioning_groups():
    assert ModulationConfig().targets is ConflictConfig().targets
    assert ConflictConfig().targets == resolve_targets("Key-image and Key-text")


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
    with pytest.raises(ValueError, match="^n_text must be an integer >= 1, got 0$"):
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


def test_sharpening_curve_consumes_a_gamma_generator_once():
    z, part = conflict_logits(seed=1, config=ConflictConfig())
    gammas = (1.0, 1.35, 2.0)
    want = sharpening_curve(z, part.conditioning, gammas)
    got = sharpening_curve(z, part.conditioning, (g for g in gammas))
    np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError, match="positive"):
        sharpening_curve(z, part.conditioning, (g for g in (1.0, -2.0)))


@pytest.mark.parametrize(
    "subset, fault", [([0, 0, 1], "duplicates"), ([7], "out of range"), ([-1], "out of range")]
)
def test_sharpening_curve_rejects_a_bad_subset(subset, fault):
    message = {
        "duplicates": "index subset contains duplicates",
        "out of range": f"subset must be an integer in 0..3, got {subset[0]}",
    }[fault]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sharpening_curve(np.zeros((2, 4)), subset, (1.0,))


# -- the denoiser pass is only read ---------------------------------------------------


def _counting(monkeypatch, module, name):
    """Replace ``module.name`` with a wrapper; returns the list of its call args."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_forward_ignores_the_observer_return_value():
    den = make_toy_denoiser(seed=2, num_blocks=3)
    x = sample_gaussian((den.n_video, den.d_model), seed=4)
    plain = simulate._forward(den, x, 1)
    seen = []

    def observe(l, q, k, v, res):
        seen.append(l)
        return np.zeros_like(res.output)

    np.testing.assert_array_equal(simulate._forward(den, x, 1, observe=observe), plain)
    assert seen == [0, 1, 2]


def test_deviation_check_makes_one_pass(monkeypatch):
    calls = _counting(monkeypatch, simulate, "scheduled_attention")
    den = make_toy_denoiser(seed=0, num_blocks=3)
    x = sample_gaussian((den.n_video, den.d_model), seed=1)
    rep = deviation_bound_check(den, StepCoefficients.linear(5), 2, x, alpha=1.7, query=3)
    assert len(calls) == 3  # one attention call per block
    assert 0.0 < rep.deviation <= rep.bound


@pytest.mark.parametrize("name, shape, message", [
    ("w_qk", (3, 2, 5, 8), r"^w_qk shape \(3, 2, 5, 8\) needs \(blocks, 2, d_model = 6, d_k\)$"),
    ("w_qk", (3, 3, 6, 8), r"^w_qk shape \(3, 3, 6, 8\) needs \(blocks, 2, d_model = 6, d_k\)$"),
    ("w_qk", (2, 6, 8), r"^w_qk shape \(2, 6, 8\) needs \(blocks, 2, d_model = 6, d_k\)$"),
    ("w_v", (3, 5, 6), r"^w_v shape \(3, 5, 6\) needs \(blocks = 3, d_model = 6, d_v\)$"),
    ("w_v", (2, 6, 6), r"^w_v shape \(2, 6, 6\) needs \(blocks = 3, d_model = 6, d_v\)$"),
    ("w_v", (6, 6), r"^w_v shape \(6, 6\) needs \(blocks = 3, d_model = 6, d_v\)$"),
    ("w_o", (3, 6, 5), r"^w_o shape \(3, 6, 5\) != \(blocks, d_v, d_model\) = \(3, 6, 6\)$"),
    ("w_o", (3, 5, 6), r"^w_o shape \(3, 5, 6\) != \(blocks, d_v, d_model\) = \(3, 6, 6\)$"),
    ("w_o", (4, 6, 6), r"^w_o shape \(4, 6, 6\) != \(blocks, d_v, d_model\) = \(3, 6, 6\)$"),
])
def test_denoiser_rejects_a_misshapen_stack_at_construction(name, shape, message):
    den = make_toy_denoiser(seed=0, num_blocks=3)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(den, **{name: np.ones(shape)})


def test_denoiser_needs_a_block_and_a_key_column():
    den = make_toy_denoiser(seed=0, num_blocks=2)
    with pytest.raises(ValueError, match="^denoiser needs at least one block$"):
        dataclasses.replace(den, w_qk=den.w_qk[:0], w_v=den.w_v[:0], w_o=den.w_o[:0])
    with pytest.raises(ValueError, match="^w_qk needs at least one key column$"):
        dataclasses.replace(den, w_qk=den.w_qk[..., :0])


def test_make_toy_denoiser_names_a_zero_key_width():
    with pytest.raises(ValueError, match="^d_k must be an integer >= 1, got 0$"):
        make_toy_denoiser(0, d_k=0)


def test_denoiser_names_a_cond_embed_that_is_not_2d():
    den = make_toy_denoiser(seed=0)
    with pytest.raises(ValueError, match=r"^cond_embed shape \(10,\) needs \(text\+image = 10, "):
        dataclasses.replace(den, cond_embed=np.zeros(10))


@pytest.mark.parametrize("name", ["cond_embed", "w_qk", "w_v", "w_o"])
def test_denoiser_names_a_list_in_place_of_an_array(name):
    den = make_toy_denoiser(seed=0)
    with pytest.raises(ValueError, match=f"^{name} must be a numpy array$"):
        dataclasses.replace(den, **{name: getattr(den, name).tolist()})


def test_forward_reads_the_stacks_in_place():
    # Each stack is the one copy of its weights: editing it in place changes the pass.
    den = make_toy_denoiser(seed=0, num_blocks=3)
    x = sample_gaussian((den.n_video, den.d_model), seed=1)
    before = simulate._forward(den, x, 1)
    for name in ("w_qk", "w_v", "w_o"):
        w = getattr(den, name)
        saved = w.copy()
        w[0] *= 0.5
        assert not np.array_equal(simulate._forward(den, x, 1), before), name
        w[...] = saved
        np.testing.assert_array_equal(simulate._forward(den, x, 1), before)


def test_trajectory_takes_the_multiply_count_once_per_run(monkeypatch):
    calls = _counting(monkeypatch, simulate, "scaling_multiply_count")
    den = make_toy_denoiser(seed=0, num_blocks=4)
    traj = run_trajectory(den, StepCoefficients.linear(10), _schedule(num_blocks=4, total_steps=10),
                          sample_gaussian((den.n_video, den.d_model), seed=1))
    assert len(calls) == 1
    assert traj.total_active_cells == 6
    assert traj.total_multiplies == 6 * scaling_multiply_count(*calls[0])


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_conflict_config_rejects_a_non_finite_gamma(gamma):
    with pytest.raises(ValueError, match="gamma must be positive"):
        ConflictConfig(gamma=gamma)


# -- error paths of the denoiser pass -------------------------------------------------


def _with_nan(den, block, name):
    """A copy of ``den`` with one NaN in ``block``'s W_q (``name`` "w_q") or W_v."""
    stacks = {"w_qk": den.w_qk.copy(), "w_v": den.w_v.copy()}
    w = stacks["w_qk"][block, 0] if name == "w_q" else stacks["w_v"][block]
    w[1, 2] = math.nan
    return dataclasses.replace(den, **stacks)


@pytest.mark.parametrize("name, message", [("w_q", "non-finite Q"), ("w_v", "non-finite V")])
@pytest.mark.parametrize("block", [0, 2])
@pytest.mark.parametrize("t, mode", [(1, None), (1, "scalar"), (1, "energy"), (9, "scalar")])
def test_forward_names_a_non_finite_projection(name, message, block, t, mode):
    # Step 1 scales blocks 0-1 and step 9 scales none; mode None runs unscheduled.
    bad = _with_nan(make_toy_denoiser(seed=0, num_blocks=4), block, name)
    x = sample_gaussian((bad.n_video, bad.d_model), seed=1)
    sched = None if mode is None else _schedule(mode=mode, num_blocks=4, total_steps=10)
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate._forward(bad, x, t, sched)


@pytest.mark.parametrize("name, message", [("w_q", "non-finite Q"), ("w_v", "non-finite V")])
def test_scaled_cell_names_a_non_finite_projection_before_an_overflow(name, message):
    # Cell (0, 1) is scaled and its scaled logits overflow as well.
    bad = _with_nan(make_toy_denoiser(seed=0, num_blocks=4), 0, name)
    x = 1e300 * sample_gaussian((bad.n_video, bad.d_model), seed=1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        simulate._forward(bad, x, 1, _schedule(num_blocks=4, total_steps=10))


def test_forward_names_a_logit_that_overflows_to_minus_inf():
    # Each video token has one coordinate and K swaps them, so every q_i . k_i is 0
    # while q_0 . k_1 overflows to -inf. Each softmax row keeps a finite maximum,
    # so the probabilities stay finite; only the logits show the overflow.
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    den = simulate.ToyDenoiser(partition=build_partition(1, 0, 2), cond_embed=np.zeros((1, 2)),
                               w_qk=np.array([[np.eye(2), swap]]), w_v=1e-200 * np.eye(2)[None],
                               w_o=np.eye(2)[None])
    x = np.array([[1e200, 0.0], [0.0, -1e200]])
    with pytest.raises(ValueError, match="^non-finite logits$"):
        simulate._forward(den, x, 1)


def test_forward_replays_a_false_alarm_through_the_checked_call():
    # Logits near 1e200 are finite, but the sum of their squares in the
    # finiteness check overflows, so the check falls back to testing each entry.
    den = make_toy_denoiser(seed=0, num_blocks=3)
    x = 1e100 * sample_gaussian((den.n_video, den.d_model), seed=1)
    eps = simulate._forward(den, x, 1)
    h = x
    for (w_q, w_k), w_v, w_o in zip(den.w_qk, den.w_v, den.w_o):
        tokens = np.vstack([den.cond_embed, h])
        res = attention.attention_forward(tokens @ w_q, tokens @ w_k, tokens @ w_v)
        h = res.output[den.cond_embed.shape[0]:] @ w_o
    np.testing.assert_array_equal(eps, h)


def test_trajectory_names_an_overflowing_baseline_at_its_cell(monkeypatch):
    # Block 0 keeps the video state near [0, b] and block 1 is the first scaled
    # cell. There every video query meets the conditioning keys with q . k = b c,
    # which overflows, while gamma = 0.5 keeps the scheduled call's scaled
    # logits finite. So only the cell's plain baseline overflows, and it must
    # raise before block 2 runs.
    b = c = 1.5e154
    calls = []
    original = simulate.scheduled_attention

    def counted(*args):
        calls.append(original(*args))
        return calls[-1]

    monkeypatch.setattr(simulate, "scheduled_attention", counted)
    # Blocks 0 and 2 keep the state; block 1 meets the video query with the keys.
    keep_qk, meet_qk = np.zeros((2, 2, 1)), np.array([[[0.0], [1.0]], [[1.0], [0.0]]])
    keep_v = np.diag([0.0, 3.0])
    den = simulate.ToyDenoiser(partition=build_partition(1, 1, 1),
                               cond_embed=np.array([[c, 0.0], [c, 0.0]]),
                               w_qk=np.array([keep_qk, meet_qk, keep_qk]),
                               w_v=np.array([keep_v, np.eye(2), keep_v]),
                               w_o=np.tile(np.eye(2), (3, 1, 1)))
    sched = ScheduleConfig(gates=BlockGateTable((0, 1, 0)), total_steps=4,
                           modulation=ModulationConfig(gamma=0.5))
    with pytest.raises(ValueError, match="^non-finite logits$"):
        run_trajectory(den, StepCoefficients.linear(4), sched, np.array([[0.0, b]]))
    assert len(calls) == 2  # cell (block 1, step 1) is the second cell
    assert calls[-1].gamma == 0.5


@pytest.mark.parametrize("window, message", [
    # Cell (0, 1) is scaled, but its unscaled video-video logits overflow too.
    ("early", "non-finite logits"),
    ("late", "non-finite logits"),  # cell (0, 1) runs the plain pass
])
def test_trajectory_names_overflowing_logits_without_a_numpy_warning(window, message):
    # filterwarnings = error turns a numpy overflow warning into the raised exception.
    den = make_toy_denoiser(seed=0, num_blocks=4)
    sched = dataclasses.replace(_schedule(num_blocks=4, total_steps=10), window=window_preset(window))
    x = 1e300 * sample_gaussian((den.n_video, den.d_model), seed=1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_trajectory(den, StepCoefficients.linear(10), sched, x)


def test_deviation_check_names_overflowing_logits_without_a_numpy_warning():
    den = make_toy_denoiser(seed=0, num_blocks=4)
    x = 1e300 * sample_gaussian((den.n_video, den.d_model), seed=1)
    with pytest.raises(ValueError, match="^non-finite logits$"):
        deviation_bound_check(den, StepCoefficients.linear(10), 2, x, alpha=1.7)


@pytest.mark.parametrize("scale, gamma, message", [
    # The unscaled video-video logits overflow, which no gamma causes.
    (1e155, 1.35, "non-finite logits"),
    (1e160, 1e-300, "non-finite logits"),
    # Only the scaled conditioning columns overflow.
    (1e150, 1e160, r"gamma must keep the scaled logits finite, got 1e\+160"),
])
def test_scaled_cell_names_the_cause_of_an_overflow(scale, gamma, message):
    den = make_toy_denoiser(seed=0, num_blocks=4)
    x = scale * sample_gaussian((den.n_video, den.d_model), seed=1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_trajectory(den, StepCoefficients.linear(10),
                       _schedule(gamma=gamma, num_blocks=4, total_steps=10), x)


@pytest.mark.parametrize("scale, bound", [
    # The sum of squares of a logit row overflows, but its norm and the bound do not.
    (1e90, 7.947213230951807e+266),
    (1e100, 7.947213230951806e+296),
    # The logits are finite, but the bound overflows.
    (1e110, None),
    (1e150, None),
])
def test_deviation_check_rejects_a_non_finite_bound_without_a_numpy_warning(scale, bound):
    den = make_toy_denoiser(seed=0, num_blocks=4)
    x = scale * sample_gaussian((den.n_video, den.d_model), seed=1)
    if bound is None:
        with pytest.raises(ValueError, match="^deviation bound must be finite, got inf$"):
            deviation_bound_check(den, StepCoefficients.linear(10), 2, x, alpha=1.7)
    else:
        rep = deviation_bound_check(den, StepCoefficients.linear(10), 2, x, alpha=1.7)
        assert rep.bound == bound and rep.margin >= 0
