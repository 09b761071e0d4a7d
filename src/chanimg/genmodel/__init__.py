"""Conditional generative backends over 8x25 channel matrices.

Two backends produce channel matrices in [-1, 1] given a (dist2d, height)
condition: a conditional WGAN trained with a gradient penalty, and a
nearest-condition empirical resampler that returns stored training
matrices and serves as a codec-isolating baseline.  Each name is imported
on first access, so the resampler loads without the networks.
"""

import numpy as np

from .. import _lazy_exports
from ..core import is_int
from ..errors import DataError

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


def sample_request(cond, n, shape, dtype, out):
    """(conditions (n, 2), out) of a backend's request for n matrices of shape.

    cond is one (dist2d, height) pair for every sample, or an (n, 2) array
    pairing one condition per sample.  out, when given, must be an
    (n, *shape) array; otherwise a new one of dtype is made.  An n that is
    not a non-negative integer, a cond of any other shape or with a value
    that is not finite, and an out of another shape are DataErrors.
    """
    if not is_int(n) or n < 0:
        raise DataError(f"n must be a non-negative integer, got {n!r}")
    shape = (n, *shape)
    if out is None:
        out = np.empty(shape, dtype)
    elif out.shape != shape:
        raise DataError(f"sample fills an array of shape {shape}, got {out.shape}")
    cond = np.asarray(cond, dtype=np.float64)
    if cond.shape == (2,):
        cond = np.broadcast_to(cond, (n, 2))
    if cond.shape != (n, 2):
        raise DataError("cond must be one pair or an (n, 2) array")
    if not np.isfinite(cond).all():
        raise DataError("cond holds a value that is not finite")
    return cond, out
