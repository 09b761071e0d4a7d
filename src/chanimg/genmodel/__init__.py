"""Conditional generative backends over channel images.

Two backends produce channel data in [-1, 1] given a (dist2d, height)
condition: a conditional WGAN trained with a gradient penalty, which
models the 8x25 matrix each 64x50 image carries (the CLI tiles its
samples into images), and a nearest-condition empirical resampler that
returns stored 64x50 images and serves as a codec-isolating baseline.
"""

from .nn import AdamState, Mlp, adam_step
from .resampler import EmpiricalResampler
from .wgan import (
    ArrayBatches,
    NetworkParams,
    WganGpHyperparams,
    sample,
    train_wgan_gp,
)

__all__ = [
    "Mlp",
    "AdamState",
    "adam_step",
    "WganGpHyperparams",
    "NetworkParams",
    "train_wgan_gp",
    "sample",
    "ArrayBatches",
    "EmpiricalResampler",
]
