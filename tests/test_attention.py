import dataclasses
import warnings

import numpy as np
import pytest

from attnlab.attention import (
    KeyPartition,
    ModulationConfig,
    ScalingTargets,
    apply_group_scaling,
    attention_forward,
    build_partition,
    energy_gamma,
    resolve_targets,
    scaled_logits,
)
from attnlab.scheduling import BlockGateTable, ScheduleConfig, scheduled_attention
from attnlab.simulate import make_toy_denoiser

PAIRWISE_TOLERANCE = 1e-12


def test_build_partition_contiguous_layout():
    p = build_partition(2, 3, 4)
    assert p.text == range(0, 2)
    assert p.image == range(2, 5)
    assert p.video == range(5, 9)
    assert p.size == 9
    assert p.conditioning == range(0, 5)
    # The partition is the three sizes; its groups are read-only ranges.
    assert [f.name for f in dataclasses.fields(p)] == ["n_text", "n_image", "n_video"]
    with pytest.raises(AttributeError):
        p.video = range(0, 4)
    with pytest.raises(TypeError):
        KeyPartition(text=(3, 4), image=(5, 6), video=(0, 1, 2))


def test_build_partition_allows_empty_group():
    p = build_partition(0, 2, 3)
    assert p.text == range(0, 0)
    assert p.size == 5


def test_build_partition_rejects_all_empty():
    with pytest.raises(ValueError, match="empty"):
        build_partition(0, 0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        build_partition(-1, 2, 3)


@pytest.mark.parametrize("sizes, name", [
    ((1.5, 2, 3), "n_text"), ((1, 2.0, 3), "n_image"), ((1, 2, "3"), "n_video"),
])
def test_build_partition_names_a_size_that_is_not_an_integer(sizes, name):
    with pytest.raises(ValueError, match=f"^{name} must be a nonnegative integer, got "):
        build_partition(*sizes)


def test_build_partition_takes_numpy_integers():
    assert build_partition(np.int64(1), 2, np.int32(3)) == build_partition(1, 2, 3)


@pytest.mark.parametrize("sizes, message", [
    ((1.5, 2, 3), "^n_text must be a nonnegative integer, got 1.5$"),
    ((1, 2.0, 3), "^n_image must be a nonnegative integer, got 2.0$"),
    ((1, 2, "3"), "^n_video must be a nonnegative integer, got '3'$"),
    ((-1, 2, 3), "^n_text must be a nonnegative integer, got -1$"),
    ((1, 2, (3,)), r"^n_video must be a nonnegative integer, got \(3,\)$"),
    ((0, 0, 0), "^all group sizes are zero; partition would be empty$"),
])
def test_key_partition_checks_its_sizes_as_build_partition_does(sizes, message):
    # Direct construction runs the same checks: no constructor skips them.
    for make in (KeyPartition, build_partition):
        with pytest.raises(ValueError, match=message):
            make(*sizes)
        with pytest.raises(ValueError, match=message):
            make(**dict(zip(("n_text", "n_image", "n_video"), sizes)))


def test_key_partition_stores_numpy_integer_sizes_as_ints():
    p = KeyPartition(np.int64(1), np.uint8(200), np.int32(3))
    assert p == KeyPartition(1, 200, 3) == build_partition(1, 200, 3)
    assert all(type(n) is int for n in dataclasses.astuple(p))
    # Python ints: a uint8 sum would wrap, 200 + 56 to 0.
    assert KeyPartition(0, np.uint8(200), np.uint8(56)).size == 256


def test_partition_group_lookup():
    p = build_partition(1, 1, 1)
    assert p.group("image") == range(1, 2)
    with pytest.raises(ValueError, match="unknown group"):
        p.group("audio")


@pytest.mark.parametrize("position, cols", [
    ("key-text", range(0, 3)), ("key-image", range(3, 7)), ("key-image and key-text", range(0, 7)),
])
def test_a_denoiser_cell_scales_only_its_targeted_conditioning_columns(position, cols):
    # Tokens [3 text | 4 image | 5 video]: the scaled columns lie in [0, 7).
    den = make_toy_denoiser(0, num_blocks=1, n_text=3, n_image=4, n_video=5)
    x = np.random.default_rng(1).normal(size=(den.n_video, den.d_model))
    tokens = np.vstack([den.cond_embed, x])
    qk = tokens @ den.w_qk[0]
    q, k, v = qk[0], qk[1], tokens @ den.w_v[0]
    mod = ModulationConfig(gamma=1.35, targets=resolve_targets(position))
    cell = ScheduleConfig(gates=BlockGateTable((1,)), total_steps=1, modulation=mod)
    res = scheduled_attention(0, 1, q, k, v, den.partition, cell)
    plain = scaled_logits(q, k)
    assert res.gamma == 1.35
    for j in range(12):
        if j in cols:
            np.testing.assert_allclose(res.logits[:, j], 1.35 * plain[:, j], rtol=1e-14)
            assert not np.array_equal(res.logits[:, j], plain[:, j])
        else:  # every video column, and the untargeted conditioning group
            assert np.array_equal(res.logits[:, j], plain[:, j])


def test_scaling_targets_reject_unknown_group():
    assert ScalingTargets(key_groups=["text", "text"]).key_groups == frozenset({"text"})
    with pytest.raises(ValueError, match="unknown key group"):
        ScalingTargets(key_groups={"depth"})


# -- named positions --------------------------------------------------------


def test_joint_positions():
    cases = {
        "Key-image": {"image"},
        " key-text ": {"text"},
        "Key-image and Key-text": {"image", "text"},
    }
    for name, k in cases.items():
        assert set(resolve_targets(name).key_groups) == k


def test_query_side_rejected_for_joint():
    with pytest.raises(ValueError, match="not valid for arch 'joint'"):
        resolve_targets("Query-image")


def test_unknown_position_lists_valid_names():
    with pytest.raises(ValueError, match="valid positions") as exc:
        resolve_targets("key-audio")
    assert "'key-image and key-text'" in str(exc.value)


# -- forward pass and group scaling ----------------------------------------


def _random_qkv(seed, n=5, m=7, d_k=4, d_v=3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d_k)), rng.normal(size=(m, d_k)), rng.normal(size=(m, d_v))


def test_scaled_logits_matches_definition():
    q, k, _ = _random_qkv(0)
    np.testing.assert_allclose(scaled_logits(q, k), q @ k.T / 2.0, atol=1e-15)


def test_scaled_logits_shape_errors():
    with pytest.raises(ValueError, match="Q cols"):
        scaled_logits(np.ones((2, 3)), np.ones((4, 5)))


def test_attention_forward_output_shape_and_rows():
    q, k, v = _random_qkv(1)
    res = attention_forward(q, k, v)
    assert res.output.shape == (5, 3)
    np.testing.assert_allclose(res.probabilities.sum(axis=1), 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="V rows"):
        attention_forward(q, k, v[:-1])


def test_key_scaling_scales_exactly_those_logit_columns():
    # oracle: scaling key-group rows by gamma multiplies that group's logit
    # columns by gamma and leaves every other column bit-identical
    q, k, _ = _random_qkv(2, m=6)
    part = build_partition(2, 2, 2)
    gamma = 1.35
    targets = ScalingTargets(key_groups={"image"})
    ks = apply_group_scaling(k, part, targets, gamma)
    z0 = scaled_logits(q, k)
    z1 = scaled_logits(q, ks)
    np.testing.assert_allclose(z1[:, [2, 3]], gamma * z0[:, [2, 3]], atol=1e-15)
    assert np.array_equal(z1[:, [0, 1, 4, 5]], z0[:, [0, 1, 4, 5]])


def test_key_scaling_untouched_rows_bit_identical():
    _, k, _ = _random_qkv(3, m=6)
    part = build_partition(2, 2, 2)
    ks = apply_group_scaling(k, part, ScalingTargets(key_groups={"text"}), 2.0)
    assert np.array_equal(ks[2:], k[2:])
    np.testing.assert_array_equal(ks[:2], 2.0 * k[:2])


def test_gamma_one_is_bit_exact_identity():
    _, k, _ = _random_qkv(5, m=6)
    part = build_partition(2, 2, 2)
    ks = apply_group_scaling(k, part, ScalingTargets(key_groups={"text", "image"}), 1.0)
    assert np.array_equal(ks, k)


def test_scaling_copies_inputs():
    _, k, _ = _random_qkv(6, m=6)
    k_before = k.copy()
    apply_group_scaling(k, build_partition(2, 2, 2), ScalingTargets(key_groups={"text"}), 3.0)
    assert np.array_equal(k, k_before)


def test_empty_group_scaling_warns_and_noops():
    _, k, _ = _random_qkv(7, m=5)
    part = build_partition(0, 2, 3)
    with pytest.warns(UserWarning, match="empty group 'text'"):
        ks = apply_group_scaling(k, part, ScalingTargets(key_groups={"text"}), 2.0)
    assert np.array_equal(ks, k)


def test_scaling_rejects_bad_gamma_and_size():
    _, k, _ = _random_qkv(8, m=6)
    part = build_partition(2, 2, 2)
    with pytest.raises(ValueError, match="gamma must be positive"):
        apply_group_scaling(k, part, ScalingTargets(key_groups={"text"}), 0.0)
    with pytest.raises(ValueError, match="partition size"):
        apply_group_scaling(k[:-1], part, ScalingTargets(key_groups={"text"}), 2.0)


def test_three_scaling_routes_agree():
    # scaling Q by gamma, scaling all of K by gamma, and scaling the logits by
    # gamma give identical probabilities (all three are the same temperature)
    q, k, v = _random_qkv(9, m=6)
    part = build_partition(2, 2, 2)
    gamma = 1.35
    all_keys = ScalingTargets(key_groups={"text", "image", "video"})
    kk = apply_group_scaling(k, part, all_keys, gamma)
    p_q = attention_forward(gamma * q, k, v).probabilities
    p_k = attention_forward(q, kk, v).probabilities
    from attnlab.numerics import row_softmax

    p_z = row_softmax(gamma * scaled_logits(q, k))
    assert np.abs(p_q - p_z).max() < PAIRWISE_TOLERANCE
    assert np.abs(p_k - p_z).max() < PAIRWISE_TOLERANCE


# -- energy coefficient -----------------------------------------------------


def test_energy_gamma_zero_mean_fixture():
    # logistic(0) = 1/2, so gamma_e = 1 + 0.5 * (gamma_max - 1) = 1.25
    assert energy_gamma([[0.0]]) == pytest.approx(1.25, abs=1e-15)


def test_energy_gamma_monotone_decreasing_in_energy():
    lo = energy_gamma([[-5.0]])
    mid = energy_gamma([[0.0]])
    hi = energy_gamma([[5.0]])
    assert lo > mid > hi
    assert 1.0 < hi and lo < 1.5


def test_energy_gamma_bounds_and_extremes():
    assert energy_gamma([[1e6]]) == pytest.approx(1.0, abs=1e-12)
    assert energy_gamma([[-1e6]]) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("logits, want", [
    # Finite logits whose sum overflows: the mean is 0, so gamma_e = 1.25.
    ([[1.7e308, 1.7e308, -1.7e308, -1.7e308]], 1.25),
    # numpy's pairwise sum meets inf and -inf here, so the sum is NaN.
    ([[1.7e308, 1.7e308, -1.7e308, -1.7e308] * 2], 1.25),
    # The mean is 1e308, so logistic(-1e308) is 0.
    ([[1e308] * 4], 1.0),
])
def test_energy_gamma_of_logits_whose_sum_overflows(logits, want):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert energy_gamma(logits, 1.5, 1.0) == want


def test_energy_gamma_kappa_sharpness():
    # smaller kappa pushes the same negative energy closer to gamma_max
    soft = energy_gamma([[-1.0]], kappa=4.0)
    sharp = energy_gamma([[-1.0]], kappa=0.25)
    assert sharp > soft


def test_energy_gamma_validation():
    with pytest.raises(ValueError, match="empty"):
        energy_gamma(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="gamma_max"):
        energy_gamma([[0.0]], gamma_max=0.5)
    with pytest.raises(ValueError, match="kappa"):
        energy_gamma([[0.0]], kappa=0.0)


def test_modulation_config_defaults_and_validation():
    cfg = ModulationConfig()
    assert cfg.mode == "scalar"
    assert cfg.gamma == 1.35
    assert set(cfg.targets.key_groups) == {"text", "image"}
    with pytest.raises(ValueError, match="unknown modulation mode"):
        ModulationConfig(mode="annealed")
    with pytest.raises(ValueError, match="gamma must be positive"):
        ModulationConfig(gamma=-1.0)


# -- non-finite coefficients ----------------------------------------------------------

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE)
def test_modulation_config_rejects_a_non_finite_gamma(value):
    with pytest.raises(ValueError, match="gamma must be positive"):
        ModulationConfig(gamma=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_modulation_config_rejects_a_non_finite_gamma_max(value):
    with pytest.raises(ValueError, match="gamma_max must be >= 1"):
        ModulationConfig(mode="energy", gamma_max=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_modulation_config_rejects_a_non_finite_kappa(value):
    with pytest.raises(ValueError, match="kappa must be positive"):
        ModulationConfig(mode="energy", kappa=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_energy_gamma_rejects_a_non_finite_gamma_max(value):
    with pytest.raises(ValueError, match="gamma_max must be >= 1 and finite, got"):
        energy_gamma([[0.0]], gamma_max=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_energy_gamma_rejects_a_non_finite_kappa(value):
    with pytest.raises(ValueError, match="kappa must be positive and finite, got"):
        energy_gamma([[0.0]], kappa=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_apply_group_scaling_rejects_a_non_finite_gamma(value):
    k = np.ones((6, 2))
    with pytest.raises(ValueError, match="gamma must be positive and finite, got"):
        apply_group_scaling(k, build_partition(2, 2, 2), ScalingTargets({"text"}), value)


def test_apply_group_scaling_names_a_gamma_that_overflows_the_keys():
    # Only the scaled rows can leave the float64 range: a huge untouched key
    # is multiplied by 1.0 and stays finite. No overflow warning is emitted.
    part = build_partition(1, 1, 1)
    k = np.array([[2.0, 1.0], [1e300, -3.0], [0.5, 0.25]])
    scaled = apply_group_scaling(k, part, ScalingTargets({"text", "video"}), 1e307)
    assert scaled[1].tolist() == k[1].tolist()
    with pytest.raises(ValueError, match=r"^gamma must keep the scaled keys finite, got 1e\+307$"):
        apply_group_scaling(k, part, ScalingTargets({"image"}), 1e307)
    with pytest.raises(ValueError, match=r"got 1e\+308$"):
        apply_group_scaling(k, part, ScalingTargets({"text"}), 1e308)


# -- the message each bad input gets --------------------------------------------------
#
# Q, K and V each take one of four states: finite; one NaN or one +inf entry;
# or every entry 1e200, so that Q K^T overflows when Q and K both have it.
# Every combination runs at (6, 6), (0, 6) and (6, 0) query x key rows, at
# three call sites, under warnings-as-errors. The expected outcome is the
# order in which the inputs are named: V, Q and K first, then the product.

INPUT_STATES = ("finite", "nan", "inf", "1e200")
ROW_COUNTS = ((6, 6), (0, 6), (6, 0))
_SCALED_CELL = ScheduleConfig(gates=BlockGateTable((1,)), total_steps=1)
_SITES = {
    "attention_forward": lambda q, k, v: attention_forward(q, k, v),
    "scaled_logits": lambda q, k, v: scaled_logits(q, k),
    "scaled cell": lambda q, k, v: scheduled_attention(
        0, 1, q, k, v, build_partition(2, 2, 2), _SCALED_CELL),
}


def _in_state(state, rows, cols, seed):
    if state == "1e200":
        return np.full((rows, cols), 1e200)
    a = np.random.default_rng(seed).normal(size=(rows, cols))
    if state != "finite" and rows:
        a[0, 0] = np.nan if state == "nan" else np.inf
    return a


def _named(site, n, m, qs, ks, vs):
    """(exception type, message) the site raises, or None when it returns."""
    bad = {name: state in ("nan", "inf") and rows
           for name, state, rows in (("Q", qs, n), ("K", ks, m), ("V", vs, m))}
    overflow = qs == ks == "1e200" and n and m
    if site == "scaled cell":
        if bad["K"]:
            return ValueError, "non-finite K"
        if m != 6:
            return ValueError, f"partition size 6 != K rows {m}"
        order = ("V", "Q")
        # The scaled product's overflow sends the cell to the plain pass, which names it.
        last = (ValueError, "non-finite logits")
    else:
        order = ("V", "Q", "K") if site == "attention_forward" else ("Q", "K")
        last = (RuntimeWarning, "overflow encountered in matmul")
    for name in order:
        if bad[name]:
            return ValueError, f"non-finite {name}"
    if overflow:
        return last
    if site == "attention_forward" and not m:
        return ValueError, "logits must have at least one column"
    return None


_CASES = [
    (n, m, qs, ks, vs)
    for n, m in ROW_COUNTS
    for qs in INPUT_STATES
    for ks in INPUT_STATES
    for vs in INPUT_STATES
]


@pytest.mark.parametrize("site", sorted(_SITES))
@pytest.mark.parametrize("n, m, qs, ks, vs", _CASES)
def test_each_bad_input_is_named_in_order(site, n, m, qs, ks, vs):
    q, k, v = _in_state(qs, n, 4, 1), _in_state(ks, m, 4, 2), _in_state(vs, m, 3, 3)
    want = _named(site, n, m, qs, ks, vs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if want is None:
            _SITES[site](q, k, v)
        else:
            with pytest.raises(want[0], match=f"^{want[1]}$"):
                _SITES[site](q, k, v)


@pytest.mark.parametrize("site, message", [
    ("attention_forward", "non-finite Q"),
    ("scaled_logits", "non-finite Q"),
    ("scaled cell", "K must be 2-D, got 3-D"),
])
def test_a_non_finite_q_beside_a_3d_k_is_named_as_before(site, message):
    q = _in_state("nan", 6, 4, 1)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _SITES[site](q, np.ones((6, 4, 1)), np.ones((6, 3)))


def test_scaled_logits_names_logits_that_overflow_under_a_silenced_errstate():
    # Finite Q and K whose product overflows: the logits are named even when
    # numpy's overflow warning is silenced, as the simulator's pass does.
    huge = np.full((2, 2), 1e200)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="^non-finite logits$"):
        scaled_logits(huge, huge)


def test_an_infinite_query_that_meets_a_zero_key_entry_is_named():
    # inf * 0 makes a NaN logit; the blame falls on Q, not on the logits.
    q = np.array([[np.inf, 1.0], [1.0, 1.0]])
    k = np.array([[0.0, 1.0], [1.0, 1.0]])
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="^non-finite Q$"):
        attention_forward(q, k, np.ones((2, 2)))
