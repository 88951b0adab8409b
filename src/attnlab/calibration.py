"""Foreground-block calibration: pseudo-RGB PCA, Otsu masks, per-block ratios.

The pipeline mirrors how gated blocks are picked for a video backbone: project
the latent's channel axis to a 3-channel pseudo-RGB via PCA, segment each
frame by thresholding, score tokens by their mean received attention, and call
a block foreground-focused when its high-attention tokens mostly land inside
the mask. Published block tables for three backbones ship as package data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .numerics import as_matrix, pca_top_k, row_softmax

DEFAULT_HIGH_QUANTILE = 0.2
OTSU_BINS = 256
# (D, T, H, W) of each synthetic calibration latent.
SYNTHETIC_SHAPE = (6, 2, 8, 8)


def pca_pseudo_rgb(latent, batch: int | str = "mean") -> np.ndarray:
    """Project a (B, D, T, H, W) latent to pseudo-RGB channels (3, T, H, W).

    ``batch`` selects one sample index or "mean" for the batch average. Tokens
    are the T*H*W positions, features the D channels; the top-3 principal
    components become channels, each min-max normalized to [0, 1] (a
    zero-range channel maps to all zeros). Requires D >= 3; constant latents
    raise the degenerate-covariance error from the PCA kernel.
    """
    lat = np.asarray(latent, dtype=np.float64)
    if lat.ndim != 5:
        raise ValueError(f"latent must be 5-D (B, D, T, H, W), got {lat.ndim}-D")
    if not np.isfinite(lat).all():
        raise ValueError("non-finite latent")
    b, d, t, h, w = lat.shape
    if d < 3:
        raise ValueError(f"need at least 3 channels for pseudo-RGB, got {d}")
    if batch == "mean":
        sel = lat.mean(axis=0)
    else:
        idx = int(batch)
        if not 0 <= idx < b:
            raise ValueError(f"batch index {idx} out of range 0..{b - 1}")
        sel = lat[idx]
    tokens = sel.reshape(d, t * h * w).T
    _, proj = pca_top_k(tokens, 3)
    channels = proj.T.reshape(3, t, h, w)
    out = np.empty_like(channels)
    for c in range(3):
        lo = channels[c].min()
        hi = channels[c].max()
        if hi > lo:
            out[c] = (channels[c] - lo) / (hi - lo)
        else:
            out[c] = 0.0
    return out


def otsu_threshold(values, bins: int = OTSU_BINS) -> float:
    """Otsu's threshold: the histogram split maximizing between-class variance.

    Returns the bin edge separating background (<= threshold) from foreground
    (> threshold). All-equal input returns that constant, so ``values >
    threshold`` is all False — the all-background convention.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("empty values")
    if not np.isfinite(v).all():
        raise ValueError("non-finite values")
    vmin = float(v.min())
    vmax = float(v.max())
    if vmin == vmax:
        return vmax
    counts, edges = np.histogram(v, bins=bins, range=(vmin, vmax))
    weights = counts / counts.sum()
    centers = (edges[:-1] + edges[1:]) / 2.0
    omega0 = np.cumsum(weights)
    mu_cum = np.cumsum(weights * centers)
    mu_total = mu_cum[-1]
    omega1 = 1.0 - omega0
    valid = (omega0 > 0) & (omega1 > 0)
    sigma_b = np.full(bins, -np.inf)
    with np.errstate(invalid="ignore", divide="ignore"):
        mu0 = mu_cum / omega0
        mu1 = (mu_total - mu_cum) / omega1
        sb = omega0 * omega1 * (mu0 - mu1) ** 2
    sigma_b[valid] = sb[valid]
    k = int(np.argmax(sigma_b))
    return float(edges[k + 1])


def foreground_mask(pseudo_rgb) -> np.ndarray:
    """Per-frame Otsu segmentation of pseudo-RGB channel 0 -> boolean (T, H, W).

    Frames whose first channel is constant come back all-background.
    """
    rgb = np.asarray(pseudo_rgb, dtype=np.float64)
    if rgb.ndim != 4 or rgb.shape[0] != 3:
        raise ValueError(f"pseudo_rgb must be (3, T, H, W), got shape {rgb.shape}")
    if not np.isfinite(rgb).all():
        raise ValueError("non-finite pseudo_rgb")
    t = rgb.shape[1]
    mask = np.zeros(rgb.shape[1:], dtype=bool)
    for f in range(t):
        frame = rgb[0, f]
        mask[f] = frame > otsu_threshold(frame)
    return mask


def validate_mask(mask, shape: tuple[int, int, int]) -> np.ndarray:
    """Check an externally supplied mask: boolean dtype, exact (T, H, W) shape."""
    m = np.asarray(mask)
    if m.dtype != np.bool_:
        raise ValueError(f"mask must be boolean, got dtype {m.dtype}")
    if m.shape != tuple(shape):
        raise ValueError(f"mask shape {m.shape} != expected {tuple(shape)}")
    return m


def token_scores(attention) -> np.ndarray:
    """Row means of a square aggregated-attention matrix.

    The expected orientation is attention *received*: entry (u, v) is the
    weight token u collects from query v, so the row mean is token u's average
    received attention. Feeding a query->key row-stochastic matrix directly
    collapses every score to 1/L (rows sum to 1) — transpose it first.
    """
    m = as_matrix(attention, "attention")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"attention matrix must be square, got {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("empty attention matrix")
    if (m < 0).any():
        raise ValueError("attention matrix entries must be nonnegative")
    return m.mean(axis=1)


@dataclass(frozen=True)
class RatioReport:
    """Foreground ratio of one block's high-attention token set."""

    ratio: float
    high_count: int
    degenerate: bool


def foreground_ratio(
    attention, mask, high_quantile: float = DEFAULT_HIGH_QUANTILE
) -> RatioReport:
    """Fraction of the top-``high_quantile`` attention tokens inside the mask.

    Tokens with score strictly above the (1 - high_quantile) quantile form the
    high-attention set; the ratio is the share of those tokens the mask marks
    as foreground. An empty high set (e.g. constant scores) is flagged
    degenerate with ratio 0.
    """
    if not 0.0 < high_quantile < 1.0:
        raise ValueError(f"high_quantile must be in (0, 1), got {high_quantile}")
    scores = token_scores(attention)
    flat = np.asarray(mask).ravel()
    if flat.size != scores.size:
        raise ValueError(
            f"mask has {flat.size} tokens, attention matrix has {scores.size}"
        )
    flat = flat.astype(bool)
    cutoff = float(np.quantile(scores, 1.0 - high_quantile))
    high = scores > cutoff
    count = int(high.sum())
    if count == 0:
        return RatioReport(ratio=0.0, high_count=0, degenerate=True)
    ratio = float(flat[high].sum() / count)
    return RatioReport(ratio=ratio, high_count=count, degenerate=False)


@dataclass(frozen=True)
class BlockRatioTable:
    """Mean foreground ratio per block over the calibration samples."""

    ratios: tuple[float, ...]
    sample_count: int

    def __post_init__(self):
        r = tuple(float(x) for x in self.ratios)
        if not r:
            raise ValueError("ratio table must cover at least one block")
        if any(not 0.0 <= x <= 1.0 for x in r):
            raise ValueError("ratios must lie in [0, 1]")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")
        object.__setattr__(self, "ratios", r)

    @property
    def num_blocks(self) -> int:
        return len(self.ratios)


def select_blocks(table: BlockRatioTable, tau: float) -> tuple[int, ...]:
    """Blocks whose mean ratio strictly exceeds ``tau``, ascending."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    return tuple(l for l, r in enumerate(table.ratios) if r > tau)


@dataclass(frozen=True)
class BlockFixture:
    """A published gated-block table for a named backbone."""

    name: str
    num_blocks: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        b = tuple(int(x) for x in self.blocks)
        if list(b) != sorted(set(b)):
            raise ValueError(f"fixture {self.name!r}: blocks must be sorted and unique")
        if b and (b[0] < 0 or b[-1] >= self.num_blocks):
            raise ValueError(
                f"fixture {self.name!r}: block indices out of range 0..{self.num_blocks - 1}"
            )
        object.__setattr__(self, "blocks", b)


def _fixture_data() -> dict:
    text = (
        resources.files("attnlab").joinpath("data/foreground_blocks.json").read_text()
    )
    return json.loads(text)


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(_fixture_data()))


def load_block_fixture(name: str) -> BlockFixture:
    """Load and validate one published block table by backbone name."""
    data = _fixture_data()
    key = name.strip().lower()
    if key not in data:
        raise ValueError(f"unknown fixture {name!r}; available: {sorted(data)}")
    entry = data[key]
    return BlockFixture(
        name=key, num_blocks=int(entry["num_blocks"]), blocks=tuple(entry["blocks"])
    )


def calibrate_synthetic(
    seed: int,
    num_blocks: int = 8,
    samples: int = 50,
    high_quantile: float = DEFAULT_HIGH_QUANTILE,
) -> BlockRatioTable:
    """Run the calibration pipeline end-to-end on seeded synthetic scenes.

    Each sample draws a noisy latent with a planted rectangular foreground
    blob, recovers the mask via pseudo-RGB + Otsu, and scores ``num_blocks``
    synthetic attention maps whose foreground affinity increases linearly with
    block index (from repelled to strongly attracted), so the resulting table
    spans both sides of any reasonable threshold. Fully determined by
    ``seed``; each latent has shape (1, *SYNTHETIC_SHAPE).
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d, t, h, w = SYNTHETIC_SHAPE
    n = t * h * w
    affinity = np.linspace(-1.0, 2.5, num_blocks)
    totals = np.zeros(num_blocks)
    for s in range(samples):
        rng = np.random.default_rng([seed, s])
        latent = rng.normal(0.0, 0.2, size=(1, d, t, h, w))
        rh = int(rng.integers(h // 4, h // 2 + 1))
        rw = int(rng.integers(w // 4, w // 2 + 1))
        r0 = int(rng.integers(0, h - rh + 1))
        c0 = int(rng.integers(0, w - rw + 1))
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        latent[0, :, :, r0 : r0 + rh, c0 : c0 + rw] += 2.0 * direction[:, None, None, None]
        mask = foreground_mask(pca_pseudo_rgb(latent))
        flat = mask.ravel().astype(np.float64)
        for l in range(num_blocks):
            logits = rng.normal(size=(n, n)) + affinity[l] * flat[None, :]
            # Transpose to the received orientation token_scores expects.
            received = row_softmax(logits).T
            report = foreground_ratio(received, mask, high_quantile)
            totals[l] += report.ratio
    return BlockRatioTable(
        ratios=tuple(totals / samples), sample_count=samples
    )
