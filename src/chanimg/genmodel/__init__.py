"""Conditional generative backends over channel images.

Two interchangeable backends produce 64x50 images in [-1, 1] given a
(dist2d, height) condition: a conditional WGAN trained with a gradient
penalty, and a nearest-condition empirical resampler that serves as a
codec-isolating baseline.
"""

from .nn import AdamState, Mlp, adam_step
from .resampler import EmpiricalResampler
from .wgan import (
    ArrayBatches,
    NetworkParams,
    WganGpHyperparams,
    critic_loss,
    generator_loss,
    sample,
    train_wgan_gp,
)

__all__ = [
    "Mlp",
    "AdamState",
    "adam_step",
    "WganGpHyperparams",
    "NetworkParams",
    "critic_loss",
    "generator_loss",
    "train_wgan_gp",
    "sample",
    "ArrayBatches",
    "EmpiricalResampler",
]
