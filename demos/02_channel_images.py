"""From a link table to channel matrices and back, losslessly.

Generates a small surrogate dataset, fits the codec (the pathloss and
delay rows of the Min-Max scaler and the virtual delay band; the angle,
phase and link-state rows are fixed), encodes one link into its 8x25
channel matrix, renders the matrix as the paper's 64x50 channel image,
and shows that decoding the matrix recovers the original paths while
stripping the virtual padding.
Run:  python3 demos/02_channel_images.py
"""

import numpy as np

from chanimg import LinkState, SurrogateConfig, fit_codec, generate_dataset, tile
from chanimg.rng import substream

cfg = SurrogateConfig(num_tx=5, num_rx_per_height=20, seed=42)
dataset = generate_dataset(cfg)  # a LinkTable: every link's path rows, and one row per link
print(f"surrogate dataset: {len(dataset)} links, "
      f"{dataset.counts.mean():.1f} paths/link on average")

codec = fit_codec(dataset)
print("fitted scaler ranges (min/max; re-referenced pathloss dB, delay in 1e-7 s):")
for name, lo, hi in zip(("pathloss", "delay"), codec.scaler.feature_min,
                        codec.scaler.feature_max):
    print(f"  {name:9s} [{lo:9.3f}, {hi:9.3f}]")
lo, hi = codec.virtual_delay
print(f"virtual delays drawn in [{lo:.3e}, {hi:.3e}] s, the real delays' range")

# encode takes a link table and returns a stack of scaled 8x25 matrices plus
# their (dist2d, height) conditions
table = dataset.take([np.argmax(dataset.counts)])  # the link with the most paths
matrices, conds = codec.encode(table, substream(7, "demo"))
matrix = matrices[0]
print(f"\nencoded a {LinkState(table.state[0]).name} link with {table.counts[0]} paths "
      f"-> matrix {matrix.shape}, value range [{matrix.min():.3f}, {matrix.max():.3f}]")

# the paper's channel image renders each matrix cell as a constant 8x2 block
image = tile(matrix)
block = image[0:8, 0:2]
print(f"rendered image {image.shape}; top-left 8x2 block is constant: "
      f"{bool(np.all(block == matrix[0, 0]))}")

# decode takes a stack of matrices and a table with one geometry row per
# matrix, and returns the decoded table
decoded = codec.decode(matrices, table)
print(f"\ndecoded: state={LinkState(decoded.state[0]).name} paths={decoded.counts[0]} "
      f"(virtual columns stripped)")
# a table holds only real paths: link i's are paths[offsets[i]:offsets[i + 1]],
# and this one-link table's are all of them
orig, back = table.paths, decoded.paths
err = np.abs(orig - back).max(axis=0)
labels = ("pathloss dB", "delay s", "aod deg", "zod deg", "aoa deg", "zoa deg", "phase deg")
print("worst per-feature round-trip error:")
for lab, e in zip(labels, err):
    print(f"  {lab:12s} {e:.2e}")
