"""From link records to channel matrices and back, losslessly.

Generates a small surrogate dataset, fits the codec (virtual-path ranges +
Min-Max scaler), encodes one link into its 8x25 channel matrix, renders the
matrix as the paper's 64x50 channel image, and shows that decoding the
matrix recovers the original paths while stripping the virtual padding.
Run:  python3 demos/02_channel_images.py
"""

import numpy as np

from chanimg import LinkTable, SurrogateConfig, fit_codec, generate_dataset, tile
from chanimg.rng import substream

cfg = SurrogateConfig(num_tx=5, num_rx_per_height=20, seed=42)
links = generate_dataset(cfg)
print(f"surrogate dataset: {len(links)} links, "
      f"{np.mean([lk.n_paths for lk in links]):.1f} paths/link on average")

codec = fit_codec(LinkTable.from_links(links), substream(42, "padding"))
print("fitted per-feature scaler ranges (min/max):")
for name, lo, hi in zip(("pathloss", "delay", "aod", "zod", "aoa", "zoa", "phase", "state"),
                        codec.scaler.feature_min, codec.scaler.feature_max):
    print(f"  {name:9s} [{lo:9.3f}, {hi:9.3f}]")

# encode takes a link table and returns a stack of scaled 8x25 matrices plus
# their (dist2d, height) conditions
link = max(links, key=lambda lk: lk.n_paths)
table = LinkTable.from_links([link])
matrices, conds = codec.encode(table, substream(7, "demo"))
matrix = matrices[0]
print(f"\nencoded a {link.link_state.value} link with {link.n_paths} paths "
      f"-> matrix {matrix.shape}, value range [{matrix.min():.3f}, {matrix.max():.3f}]")

# the paper's channel image renders each matrix cell as a constant 8x2 block
image = tile(matrix)
block = image[0:8, 0:2]
print(f"rendered image {image.shape}; top-left 8x2 block is constant: "
      f"{bool(np.all(block == matrix[0, 0]))}")

# decode takes a stack of matrices and a table with one geometry row per matrix
decoded = codec.decode(matrices, table)[0]
print(f"\ndecoded: state={decoded.link_state.value} paths={decoded.n_paths} "
      f"(virtual columns stripped)")
orig = np.stack([p.as_array() for p in link.paths])
back = np.stack([p.as_array() for p in decoded.paths])
err = np.abs(orig - back).max(axis=0)
labels = ("pathloss dB", "delay s", "aod deg", "zod deg", "aoa deg", "zoa deg", "phase deg")
print("worst per-feature round-trip error:")
for lab, e in zip(labels, err):
    print(f"  {lab:12s} {e:.2e}")
