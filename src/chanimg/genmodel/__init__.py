"""Conditional generative backends over 8x25 channel matrices.

Two backends produce channel matrices in [-1, 1] given a (dist2d, height)
condition: a conditional WGAN trained with a gradient penalty, and a
nearest-condition empirical resampler that returns stored training
matrices and serves as a codec-isolating baseline.
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
