import numpy as np
import pytest

from attnlab.attention import (
    ArchMode,
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

PAIRWISE_TOLERANCE = 1e-12


def test_build_partition_contiguous_layout():
    p = build_partition(2, 3, 4)
    assert p.text == (0, 1)
    assert p.image == (2, 3, 4)
    assert p.video == (5, 6, 7, 8)
    assert p.size == 9
    assert p.conditioning == (0, 1, 2, 3, 4)


def test_build_partition_allows_empty_group():
    p = build_partition(0, 2, 3)
    assert p.text == ()
    assert p.size == 5


def test_build_partition_rejects_all_empty():
    with pytest.raises(ValueError, match="empty"):
        build_partition(0, 0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        build_partition(-1, 2, 3)


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError, match="disjoint"):
        KeyPartition(text=(0, 1), image=(1, 2), video=(3,))
    with pytest.raises(ValueError, match="disjoint"):
        KeyPartition(text=(0,), image=(2,), video=(3,))  # index 1 missing


def test_partition_group_lookup():
    p = build_partition(1, 1, 1)
    assert p.group("image") == (1,)
    with pytest.raises(ValueError, match="unknown group"):
        p.group("audio")


def test_scaling_targets_disjoint_sides():
    ScalingTargets(query_groups={"image"}, key_groups={"text"})
    with pytest.raises(ValueError, match="both query and key"):
        ScalingTargets(query_groups={"text"}, key_groups={"text"})
    with pytest.raises(ValueError, match="unknown key group"):
        ScalingTargets(key_groups={"depth"})


# -- named positions --------------------------------------------------------


def test_joint_positions():
    cases = {
        "Key-image": (set(), {"image"}),
        "Key-text": (set(), {"text"}),
        "Key-image and Key-text": (set(), {"image", "text"}),
    }
    for name, (q, k) in cases.items():
        t = resolve_targets(ArchMode.JOINT, name)
        assert (set(t.query_groups), set(t.key_groups)) == (q, k)


def test_factorized_positions():
    cases = {
        "Key in self-attention": (set(), {"video"}),
        "Query-image": ({"image"}, set()),
        "Key-image": (set(), {"image"}),
        "Query-text": ({"text"}, set()),
        "Key-text": (set(), {"text"}),
        "Key-image and Query-text": ({"text"}, {"image"}),
        "Key-image and Key-text": (set(), {"image", "text"}),
        "Query-image and Key-text": ({"image"}, {"text"}),
    }
    for name, (q, k) in cases.items():
        t = resolve_targets(ArchMode.FACTORIZED, name)
        assert (set(t.query_groups), set(t.key_groups)) == (q, k)


def test_query_side_rejected_for_joint():
    with pytest.raises(ValueError, match="not valid for arch 'joint'"):
        resolve_targets(ArchMode.JOINT, "Query-image")


def test_unknown_position_lists_valid_names():
    with pytest.raises(ValueError, match="valid positions"):
        resolve_targets(ArchMode.FACTORIZED, "key-audio")


def test_arch_mode_parse():
    assert ArchMode.parse(" Joint ") is ArchMode.JOINT
    assert ArchMode.parse("factorized") is ArchMode.FACTORIZED
    with pytest.raises(ValueError, match="unknown arch mode"):
        ArchMode.parse("dual")


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
    qs, ks = apply_group_scaling(q, k, part, targets, gamma)
    z0 = scaled_logits(q, k)
    z1 = scaled_logits(qs, ks)
    np.testing.assert_allclose(z1[:, [2, 3]], gamma * z0[:, [2, 3]], atol=1e-15)
    assert np.array_equal(z1[:, [0, 1, 4, 5]], z0[:, [0, 1, 4, 5]])
    assert np.array_equal(qs, q)


def test_key_scaling_untouched_rows_bit_identical():
    q, k, _ = _random_qkv(3, m=6)
    part = build_partition(2, 2, 2)
    _, ks = apply_group_scaling(q, k, part, ScalingTargets(key_groups={"text"}), 2.0)
    assert np.array_equal(ks[2:], k[2:])
    np.testing.assert_array_equal(ks[:2], 2.0 * k[:2])


def test_query_scaling_scales_all_logits():
    q, k, _ = _random_qkv(4, m=6)
    part = build_partition(2, 2, 2)
    qs, ks = apply_group_scaling(
        q, k, part, ScalingTargets(query_groups={"image"}), 1.7
    )
    assert np.array_equal(ks, k)
    np.testing.assert_allclose(scaled_logits(qs, ks), 1.7 * scaled_logits(q, k), atol=1e-14)


def test_gamma_one_is_bit_exact_identity():
    q, k, _ = _random_qkv(5, m=6)
    part = build_partition(2, 2, 2)
    qs, ks = apply_group_scaling(
        q, k, part, ScalingTargets(key_groups={"text", "image"}), 1.0
    )
    assert np.array_equal(qs, q)
    assert np.array_equal(ks, k)


def test_scaling_copies_inputs():
    q, k, _ = _random_qkv(6, m=6)
    k_before = k.copy()
    apply_group_scaling(q, k, build_partition(2, 2, 2), ScalingTargets(key_groups={"text"}), 3.0)
    assert np.array_equal(k, k_before)


def test_empty_group_scaling_warns_and_noops():
    q, k, _ = _random_qkv(7, m=5)
    part = build_partition(0, 2, 3)
    with pytest.warns(UserWarning, match="empty group 'text'"):
        qs, ks = apply_group_scaling(q, k, part, ScalingTargets(key_groups={"text"}), 2.0)
    assert np.array_equal(qs, q)
    assert np.array_equal(ks, k)
    with pytest.warns(UserWarning, match="empty group 'text'"):
        qs, _ = apply_group_scaling(q, k, part, ScalingTargets(query_groups={"text"}), 2.0)
    assert np.array_equal(qs, q)


def test_scaling_rejects_bad_gamma_and_size():
    q, k, _ = _random_qkv(8, m=6)
    part = build_partition(2, 2, 2)
    with pytest.raises(ValueError, match="gamma must be positive"):
        apply_group_scaling(q, k, part, ScalingTargets(key_groups={"text"}), 0.0)
    with pytest.raises(ValueError, match="partition size"):
        apply_group_scaling(q, k[:-1], part, ScalingTargets(key_groups={"text"}), 2.0)


def test_three_scaling_routes_agree():
    # scaling Q by gamma, scaling all of K by gamma, and scaling the logits by
    # gamma give identical probabilities (all three are the same temperature)
    q, k, v = _random_qkv(9, m=6)
    part = build_partition(2, 2, 2)
    gamma = 1.35
    all_keys = ScalingTargets(key_groups={"text", "image", "video"})
    qq, _ = apply_group_scaling(q, k, part, ScalingTargets(query_groups={"image"}), gamma)
    _, kk = apply_group_scaling(q, k, part, all_keys, gamma)
    p_q = attention_forward(qq, k, v).probabilities
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
