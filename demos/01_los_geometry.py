"""Closed-form line-of-sight physics on a few hand-picked links.

Every LOS path is fully determined by the endpoint coordinates and the
carrier frequency: free-space loss, straight-line delay, departure/arrival
azimuths (back-to-back), zeniths (summing to 180) and the leftover carrier
phase.  Run:  python3 demos/01_los_geometry.py
"""

import numpy as np

from chanimg import SPEED_OF_LIGHT, closed_forms

FREQ = 12e9  # upper mid-band carrier

links = [
    ("street level, 200 m", (0.0, 0.0, 25.0), (200.0, 0.0, 1.6)),
    ("rooftop to drone", (50.0, 80.0, 40.0), (300.0, 420.0, 120.0)),
    ("same height", (0.0, 0.0, 10.0), (100.0, 100.0, 10.0)),
]

# one call evaluates every link: distances, free-space loss and LOS path rows
names, tx, rx = zip(*links)
dist2d, dist3d, _, los = closed_forms(tx, rx, [FREQ] * len(links))
for name, d2, d3, (pathloss, delay, aod, zod, aoa, zoa, phase) in zip(names, dist2d, dist3d,
                                                                      los):
    print(f"{name}: dist2d={d2:.1f} m dist3d={d3:.1f} m")
    print(f"  pathloss {pathloss:7.2f} dB   (free space at {FREQ/1e9:.0f} GHz)")
    print(f"  delay    {delay*1e9:7.1f} ns  (= dist3d/c: {d3/SPEED_OF_LIGHT*1e9:.1f})")
    print(f"  aod {aod:7.2f}  aoa {aoa:7.2f}  (back direction, 180 apart)")
    print(f"  zod {zod:7.2f}  zoa {zoa:7.2f}  (sum {zod + zoa:.0f})")
    print(f"  phase {phase:8.2f} deg")
    print()

# free-space loss grows 6 dB per distance doubling
d = np.array([50.0, 100.0, 200.0, 400.0])
fspl = closed_forms(np.zeros((4, 3)), np.column_stack([d, np.zeros((4, 2))]), [FREQ] * 4)[2]
print("fspl(d) at 12 GHz:", np.round(fspl, 2))
print("increments:       ", np.round(np.diff(fspl), 4), "(20 log10 2 = 6.0206)")
