"""From a link table to channel matrices and back, losslessly.

Generates a small surrogate dataset, fits the codec (virtual-path ranges +
Min-Max scaler), encodes one link into its 8x25 channel matrix, renders the
matrix as the paper's 64x50 channel image, and shows that decoding the
matrix recovers the original paths while stripping the virtual padding.
Run:  python3 demos/02_channel_images.py
"""

import numpy as np

from chanimg import SurrogateConfig, fit_codec, generate_dataset, tile
from chanimg.rng import substream

cfg = SurrogateConfig(num_tx=5, num_rx_per_height=20, seed=42)
dataset = generate_dataset(cfg)  # a LinkTable: padded path arrays, one row per link
print(f"surrogate dataset: {len(dataset)} links, "
      f"{dataset.counts.mean():.1f} paths/link on average")

codec = fit_codec(dataset, substream(42, "padding"))
print("fitted per-feature scaler ranges (min/max):")
for name, lo, hi in zip(("pathloss", "delay", "aod", "zod", "aoa", "zoa", "phase", "state"),
                        codec.scaler.feature_min, codec.scaler.feature_max):
    print(f"  {name:9s} [{lo:9.3f}, {hi:9.3f}]")

# encode takes a link table and returns a stack of scaled 8x25 matrices plus
# their (dist2d, height) conditions
table = dataset.take([np.argmax(dataset.counts)])  # the link with the most paths
matrices, conds = codec.encode(table, substream(7, "demo"))
matrix = matrices[0]
print(f"\nencoded a {table.state[0].value} link with {table.counts[0]} paths "
      f"-> matrix {matrix.shape}, value range [{matrix.min():.3f}, {matrix.max():.3f}]")

# the paper's channel image renders each matrix cell as a constant 8x2 block
image = tile(matrix)
block = image[0:8, 0:2]
print(f"rendered image {image.shape}; top-left 8x2 block is constant: "
      f"{bool(np.all(block == matrix[0, 0]))}")

# decode takes a stack of matrices and a table with one geometry row per
# matrix, and returns the decoded table
decoded = codec.decode(matrices, table)
print(f"\ndecoded: state={decoded.state[0].value} paths={decoded.counts[0]} "
      f"(virtual columns stripped)")
orig = table.paths[0, :table.counts[0]]
back = decoded.paths[0, :decoded.counts[0]]
err = np.abs(orig - back).max(axis=0)
labels = ("pathloss dB", "delay s", "aod deg", "zod deg", "aoa deg", "zoa deg", "phase deg")
print("worst per-feature round-trip error:")
for lab, e in zip(labels, err):
    print(f"  {lab:12s} {e:.2e}")
