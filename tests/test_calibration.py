import numpy as np
import pytest

from attnlab import tensorio
from attnlab.calibration import (
    BlockFixture,
    BlockRatioTable,
    calibrate_synthetic,
    fixture_names,
    foreground_mask,
    foreground_ratio,
    load_block_fixture,
    otsu_threshold,
    pca_pseudo_rgb,
    select_blocks,
    token_scores,
    validate_mask,
    _scores,
)
from attnlab.tensorio import BlockReader, read_tensor, write_tensor


def _exhaustive_otsu(values, bins=256):
    # brute-force oracle: try every candidate edge, maximize between-class variance
    v = np.asarray(values, dtype=np.float64).ravel()
    counts, edges = np.histogram(v, bins=bins, range=(v.min(), v.max()))
    best_var, best_edge = -np.inf, edges[1]
    for k in range(bins):
        thr = edges[k + 1]
        lo = v[v <= thr]
        hi = v[v > thr]
        if lo.size == 0 or hi.size == 0:
            continue
        w0 = lo.size / v.size
        w1 = hi.size / v.size
        var = w0 * w1 * (lo.mean() - hi.mean()) ** 2
        if var > best_var:
            best_var, best_edge = var, thr
    return best_edge


def test_otsu_separates_bimodal_samples():
    rng = np.random.default_rng(2)
    lo = rng.normal(0.0, 0.05, size=400)
    hi = rng.normal(1.0, 0.05, size=300)
    thr = otsu_threshold(np.concatenate([lo, hi]))
    # any edge inside the empty gap is a valid split; just keep it off the modes
    assert 0.1 < thr < 0.9
    labels = np.concatenate([lo, hi]) > thr
    truth = np.concatenate([np.zeros(400, bool), np.ones(300, bool)])
    # oracle: mislabel rate under the returned split is at most 1%
    assert (labels != truth).mean() <= 0.01


def test_otsu_close_to_exhaustive_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        v = np.concatenate(
            [rng.normal(0, 0.1, size=200), rng.normal(rng.uniform(0.8, 2.0), 0.15, size=150)]
        )
        fast = otsu_threshold(v)
        slow = _exhaustive_otsu(v)
        # same histogram bin (the histogram-based variance and the sample-based
        # variance can disagree by one bin on flat plateaus)
        bin_width = (v.max() - v.min()) / 256
        assert abs(fast - slow) <= bin_width + 1e-12


def test_otsu_all_equal_all_background():
    v = np.full(50, 0.7)
    thr = otsu_threshold(v)
    assert thr == 0.7
    assert not (v > thr).any()


def test_otsu_validation():
    with pytest.raises(ValueError, match="empty"):
        otsu_threshold([])
    with pytest.raises(ValueError, match="non-finite"):
        otsu_threshold([0.1, np.nan])


# -- pseudo-RGB + mask --------------------------------------------------------


def _blob_latent(seed=0, b=1, d=6, t=2, h=8, w=8, amp=2.0):
    rng = np.random.default_rng(seed)
    lat = rng.normal(0.0, 0.2, size=(b, d, t, h, w))
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    lat[:, :, :, 2:6, 2:6] += amp * direction[None, :, None, None, None]
    return lat, np.index_exp[:, 2:6, 2:6]


def test_pca_pseudo_rgb_shape_and_range():
    lat, _ = _blob_latent()
    rgb = pca_pseudo_rgb(lat)
    assert rgb.shape == (3, 2, 8, 8)
    assert rgb.min() >= 0.0 and rgb.max() <= 1.0
    assert rgb[0].max() == 1.0 and rgb[0].min() == 0.0  # min-max hits both ends


def test_pca_pseudo_rgb_averages_batch():
    lat, _ = _blob_latent(b=3)
    lat[1] += 10.0
    np.testing.assert_array_equal(
        pca_pseudo_rgb(lat), pca_pseudo_rgb(lat.mean(axis=0, keepdims=True))
    )


def test_pca_pseudo_rgb_validation():
    with pytest.raises(ValueError, match="5-D"):
        pca_pseudo_rgb(np.zeros((3, 4, 5)))
    with pytest.raises(ValueError, match="at least 3 channels"):
        pca_pseudo_rgb(np.zeros((1, 2, 2, 4, 4)))
    lat, _ = _blob_latent()
    lat[0, 0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        pca_pseudo_rgb(lat)
    with pytest.raises(ValueError, match="degenerate covariance"):
        pca_pseudo_rgb(np.zeros((1, 4, 2, 4, 4)))


def test_foreground_mask_recovers_planted_blob():
    lat, blob = _blob_latent(seed=3, amp=3.0)
    mask = foreground_mask(pca_pseudo_rgb(lat))
    assert mask.shape == (2, 8, 8)
    truth = np.zeros((2, 8, 8), dtype=bool)
    truth[blob] = True
    agreement = (mask == truth).mean()
    # the channel-0 PCA direction may flip sign; accept either polarity
    assert max(agreement, 1.0 - agreement) > 0.9


def test_foreground_mask_validation():
    with pytest.raises(ValueError, match=r"\(3, T, H, W\)"):
        foreground_mask(np.zeros((2, 2, 4, 4)))


def test_validate_mask():
    m = np.zeros((2, 4, 4), dtype=bool)
    out = validate_mask(m, (2, 4, 4))
    assert out is m
    with pytest.raises(ValueError, match="boolean"):
        validate_mask(np.zeros((2, 4, 4)), (2, 4, 4))
    with pytest.raises(ValueError, match="shape"):
        validate_mask(m, (2, 4, 5))


# -- token scores and ratios ----------------------------------------------------


def test_token_scores_row_means():
    m = np.array([[0.0, 1.0], [2.0, 3.0]])
    np.testing.assert_allclose(token_scores(m), [0.5, 2.5], atol=1e-15)


def test_token_scores_row_stochastic_collapses_to_uniform():
    # rows summing to 1 always average to 1/L: documented orientation trap
    rng = np.random.default_rng(0)
    p = rng.dirichlet(np.ones(6), size=6)
    np.testing.assert_allclose(token_scores(p), np.full(6, 1 / 6), atol=1e-12)
    # the transpose carries the per-key signal
    assert token_scores(p.T).std() > 1e-3


def test_token_scores_validation():
    with pytest.raises(ValueError, match="square"):
        token_scores(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        token_scores(np.array([[0.5, -0.5], [0.5, 0.5]]))


@pytest.mark.parametrize("order", ["C", "F"])
def test_token_scores_are_row_means_bit_for_bit(order):
    # calibrate_synthetic scores an F-ordered transposed softmax: it must be
    # reduced as given, as mean(axis=1) reduces it.
    rng = np.random.default_rng(11)
    m = np.asarray(rng.random(size=(97, 97)) * 10.0 ** rng.integers(-8, 8, size=(97, 1)), order=order)
    assert token_scores(m).tobytes() == m.mean(axis=1).tobytes()


# -- scores from row slabs: the files path ------------------------------------


def _slab_stack(tmp_path, dtype):
    """A (3, 12, 12) stack whose rows mix magnitudes, exact zeros and -0.0."""
    rng = np.random.default_rng(5)
    a = rng.random(size=(3, 12, 12)) * 10.0 ** rng.integers(-6, 6, size=(3, 12, 1))
    a[1, 4] = 0.0
    a[2, :, 0] = -0.0
    if dtype == np.bool_:
        a = a > 0.5
    path = tmp_path / "stack.atnb"
    write_tensor(path, a)
    return path


@pytest.mark.parametrize("dtype", [np.float64, np.bool_], ids=["float64", "bool"])
@pytest.mark.parametrize(
    "rows_per_slab, lengths",
    [(1, [1] * 12), (4, [4, 4, 4]), (5, [5, 5, 2])],
    ids=["one-row", "exact-multiple", "partial-last"],
)
def test_slab_scores_equal_token_scores_of_read_tensor(tmp_path, monkeypatch, dtype, rows_per_slab, lengths):
    path = _slab_stack(tmp_path, dtype)
    monkeypatch.setattr(tensorio, "_SLAB_BYTES", rows_per_slab * 12 * np.dtype(dtype).itemsize)
    whole = read_tensor(path)
    with BlockReader(path) as reader:
        for l in range(3):
            slabs = list(reader.row_slabs(l))
            assert [len(s) for s in slabs] == lengths
            assert all(s.dtype == dtype and s.shape[1:] == (12,) for s in slabs)
            if dtype == np.float64:  # one buffer, refilled slab after slab
                assert len({s.__array_interface__["data"][0] for s in slabs}) == 1
            got = _scores(reader.row_slabs(l), reader.shape[1:])
            assert got.tobytes() == token_scores(whole[l]).tobytes()


def test_slab_scores_at_the_default_slab_size(tmp_path):
    # Rows of 2,400 bytes: 218 of them (523,200 bytes) fit in 512 KiB, so a
    # 300-row block reads as 218 + 82 rows.
    rng = np.random.default_rng(6)
    path = tmp_path / "stack.atnb"
    write_tensor(path, rng.random(size=(2, 300, 300)))
    whole = read_tensor(path)
    with BlockReader(path) as reader:
        assert [len(s) for s in reader.row_slabs(1)] == [218, 82]
        for l in range(2):
            got = _scores(reader.row_slabs(l), reader.shape[1:])
            assert got.tobytes() == token_scores(whole[l]).tobytes()


def test_foreground_ratio_planted_case():
    # scores: tokens 0..3 high, the mask marks exactly tokens 0..2 foreground
    n = 10
    att = np.zeros((n, n))
    att[:4] = 1.0  # rows 0..3 have mean 1, rest 0
    mask = np.zeros(n, dtype=bool)
    mask[:3] = True
    rep = foreground_ratio(att, mask, high_quantile=0.4)
    assert rep.high_count == 4
    assert rep.ratio == pytest.approx(0.75)
    assert not rep.degenerate


def test_foreground_ratio_strict_quantile_cutoff():
    # all scores equal: nothing is strictly above the quantile -> degenerate
    att = np.full((5, 5), 0.2)
    rep = foreground_ratio(att, np.ones(5, dtype=bool), high_quantile=0.2)
    assert rep.degenerate
    assert rep.ratio == 0.0
    assert rep.high_count == 0


def test_foreground_ratio_validation():
    att = np.eye(4)
    with pytest.raises(ValueError, match="high_quantile"):
        foreground_ratio(att, np.ones(4, bool), high_quantile=1.0)
    with pytest.raises(ValueError, match="mask has"):
        foreground_ratio(att, np.ones(5, bool))


def test_select_blocks_strict_and_monotone():
    table = BlockRatioTable(ratios=(0.2, 0.5, 0.65, 0.9), sample_count=3)
    assert select_blocks(table, 0.5) == (2, 3)  # 0.5 itself excluded
    assert select_blocks(table, 0.1) == (0, 1, 2, 3)
    assert select_blocks(table, 0.95) == ()
    # selections shrink monotonically as tau rises
    sizes = [len(select_blocks(table, tau)) for tau in (0.0, 0.3, 0.6, 0.9)]
    assert sizes == sorted(sizes, reverse=True)
    with pytest.raises(ValueError, match="tau"):
        select_blocks(table, 1.5)


def test_ratio_table_validation():
    with pytest.raises(ValueError, match="at least one block"):
        BlockRatioTable(ratios=(), sample_count=1)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        BlockRatioTable(ratios=(1.2,), sample_count=1)
    with pytest.raises(ValueError, match="sample_count"):
        BlockRatioTable(ratios=(0.5,), sample_count=0)


# -- published fixtures -----------------------------------------------------------


def test_fixture_names():
    assert fixture_names() == ("framepack", "framepack_f1", "wan2.1")


def test_fixture_tables_load_and_validate():
    fp = load_block_fixture("framepack")
    assert fp.num_blocks == 34
    assert len(fp.blocks) == 24
    assert fp.blocks[0] == 0 and fp.blocks[-1] == 33
    f1 = load_block_fixture("framepack_f1")
    assert f1.num_blocks == 40
    assert len(f1.blocks) == 24
    wan = load_block_fixture("wan2.1")
    assert wan.num_blocks == 34
    assert wan.blocks == fp.blocks
    with pytest.raises(ValueError, match="unknown fixture"):
        load_block_fixture("cogvideo")


def test_fixture_validation_rules():
    with pytest.raises(ValueError, match="sorted and unique"):
        BlockFixture(name="x", num_blocks=4, blocks=(2, 1))
    with pytest.raises(ValueError, match="out of range"):
        BlockFixture(name="x", num_blocks=4, blocks=(0, 4))


# -- synthetic end-to-end ------------------------------------------------------------


def test_calibrate_synthetic_deterministic_and_monotone_in_affinity():
    t1 = calibrate_synthetic(seed=7, num_blocks=6, samples=8)
    t2 = calibrate_synthetic(seed=7, num_blocks=6, samples=8)
    assert t1.ratios == t2.ratios
    assert t1.sample_count == 8
    # high-affinity blocks must score clearly above repelled ones
    assert t1.ratios[-1] > t1.ratios[0] + 0.3
    # a different seed moves the numbers
    t3 = calibrate_synthetic(seed=8, num_blocks=6, samples=8)
    assert t3.ratios != t1.ratios


def test_calibrate_synthetic_selection_threshold_behaviour():
    table = calibrate_synthetic(seed=7, num_blocks=6, samples=8)
    sel_mid = select_blocks(table, 0.5)
    sel_high = select_blocks(table, 0.9)
    assert len(sel_mid) >= 1
    assert set(sel_high) <= set(sel_mid)


def test_calibrate_synthetic_validation():
    with pytest.raises(ValueError, match="num_blocks"):
        calibrate_synthetic(seed=0, num_blocks=0)
    with pytest.raises(ValueError, match="samples"):
        calibrate_synthetic(seed=0, samples=0)
