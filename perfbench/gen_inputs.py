"""Write the seeded ATNB inputs of the calibrate-files workload.

Run as its own process so that generation counts in neither the timed runs
nor the benchmark process's peak memory:

    python3 perfbench/gen_inputs.py --seed 1 --scale full --out DIR

The latent (B, D, T, H, W) is Gaussian noise with a planted rectangular blob
along one random channel direction in every frame, so pseudo-RGB + Otsu finds
a nondegenerate mask. Block l of the attention stack is the transpose of a
row-softmax whose logits favour the blob by ``affinity[l]``, i.e. a
column-stochastic received-attention matrix; the affinities run from repelled
to strongly attracted, so the foreground ratios fall on both sides of tau.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from attnlab.tensorio import write_tensor  # noqa: E402
from workloads import SCALES  # noqa: E402


def make_inputs(seed: int, latent_shape, stack_blocks: int):
    rng = np.random.default_rng([seed, 0xCA11B])
    b, d, t, h, w = latent_shape
    latent = rng.normal(0.0, 0.2, size=latent_shape)
    # Blob sides near h/2 keep the foreground at >= 14% of the tokens, so the
    # most attracted blocks can fill the top-20% set mostly from inside it.
    rh = int(rng.integers(h // 2 - h // 8, h // 2 + h // 8 + 1))
    rw = int(rng.integers(w // 2 - w // 8, w // 2 + w // 8 + 1))
    r0 = int(rng.integers(0, h - rh + 1))
    c0 = int(rng.integers(0, w - rw + 1))
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    latent[:, :, :, r0 : r0 + rh, c0 : c0 + rw] += 2.0 * direction[None, :, None, None, None]
    blob = np.zeros((t, h, w))
    blob[:, r0 : r0 + rh, c0 : c0 + rw] = 1.0
    flat = blob.ravel()
    n = flat.size
    stack = np.empty((stack_blocks, n, n))
    for l, affinity in enumerate(np.linspace(-1.0, 2.5, stack_blocks)):
        logits = rng.normal(size=(n, n)) + affinity * flat[None, :]
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        stack[l] = logits.T
    return latent, stack


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--out", required=True, help="directory for the .atnb files")
    args = parser.parse_args()
    size = SCALES[args.scale]
    latent, stack = make_inputs(args.seed, size["latent"], size["stack_blocks"])
    out = Path(args.out)
    write_tensor(out / "latent.atnb", latent)
    del latent
    write_tensor(out / "attention.atnb", stack)
    return 0


if __name__ == "__main__":
    sys.exit(main())
