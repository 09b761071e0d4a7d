"""Conditional WGAN-GP sanity run on a two-condition toy set.

The model works on 8x25 channel matrices, the free values of a 64x50
channel image.  Half the matrices are constant +0.5 (near links at street
level), half are constant -0.5 (far, high links).  After training,
sampling under each condition must reproduce the matching constant.
Takes about 10 seconds.
Run:  python3 demos/03_train_toy_wgan.py
"""

import numpy as np

from chanimg.genmodel import WganGpHyperparams, sample, train_wgan_gp

n = 2048
matrices = np.concatenate([np.full((n // 2, 8, 25), 0.5),
                           np.full((n // 2, 8, 25), -0.5)])
conds = np.concatenate([np.tile([[50.0, 1.6]], (n // 2, 1)),
                        np.tile([[300.0, 120.0]], (n // 2, 1))])

hyper = WganGpHyperparams(hidden=(128, 128), noise_dim=16, lr=5e-4,
                          epochs=60, batch_size=128)
print("training conditional WGAN-GP on the toy set "
      f"({hyper.epochs} epochs, batch {hyper.batch_size}) ...")
netp, log = train_wgan_gp(matrices, conds, hyper, seed=3)
counts = log.param_counts
print(f"parameters: generator {counts['generator']:,} / critic {counts['critic']:,}")
critic_loss = [row[log.COLUMNS.index("critic_loss")] for row in log.rows]  # one per step
print(f"critic loss: start {np.mean(critic_loss[:20]):+.3f} "
      f"end {np.mean(critic_loss[-20:]):+.3f}")

for cond, target in ([50.0, 1.6], 0.5), ([300.0, 120.0], -0.5):
    out = sample(netp, cond, 200, seed=4)
    print(f"condition {cond}: sample mean {out.mean():+.3f} (target {target:+.1f})")
