"""Named random streams.

All randomness in the package flows from a single 64-bit seed.  Every
consumer derives its own independent stream from (seed, label, ...) and
draws from it in a fixed order: the surrogate's tx, rx and link draws,
the split, the codec's padding, weight init, batch orders, training and
sampling noise, and the resampler's picks.  So each consumer's draws are
reproducible independently of each other and of execution order.

substream builds the Generator of one stream: numpy's default_rng over
SeedSequence(seed, spawn_key=keys).
"""

import zlib

import numpy as np

__all__ = ["substream"]


def _key_to_int(key) -> int:
    if isinstance(key, str):
        # crc32 is stable across platforms and Python versions
        return zlib.crc32(key.encode("utf-8"))
    return int(key)


def substream(seed: int, *keys) -> np.random.Generator:
    """Return a Generator for the substream identified by (seed, *keys).

    Keys may be ints or short strings ("link", "init", ...).  The same
    (seed, keys) tuple always yields an identical stream.
    """
    spawn_key = tuple(_key_to_int(k) for k in keys)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key))
