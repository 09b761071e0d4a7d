"""Conditional generative backends over 8x25 channel matrices.

Two backends produce channel matrices in [-1, 1] given a (dist2d, height)
condition: a conditional WGAN trained with a gradient penalty, and a
nearest-condition empirical resampler that returns stored training
matrices and serves as a codec-isolating baseline.  Each name is imported
on first access, so the resampler loads without the networks.
"""

from .. import _lazy_exports

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

__getattr__ = _lazy_exports(globals(), {
    name: (module, name) for module, names in (
        (".nn", ("AdamState", "Mlp", "adam_step")),
        (".resampler", ("EmpiricalResampler",)),
        (".wgan", ("ArrayBatches", "NetworkParams", "WganGpHyperparams", "sample",
                   "train_wgan_gp")),
    ) for name in names})
