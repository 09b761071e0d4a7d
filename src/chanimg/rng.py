"""Named random substreams.

All randomness in the package flows from a single 64-bit seed.  Every
consumer derives its own independent stream from (seed, label, indices...),
so datasets, padding realizations, weight inits, batch orders and sampling
draws are reproducible independently of each other and of execution order.

substream builds the Generator of one stream: numpy's default_rng over
SeedSequence(seed, spawn_key=keys).  substreams yields the streams
(seed, *keys, i) for i = 0..n-1, bit for bit the same, at a fraction of
the cost: SeedSequence's hash (pool mixing, then generate_state(4,
uint64)) runs as uint32 array operations over all indices at once,
PCG64's seeding step runs on Python ints, and one Generator is re-seeded
for each index through its bit generator's state.  This is the loop form
for per-link and per-sample streams.
"""

import zlib

import numpy as np

from .errors import DataError

__all__ = ["substream", "substreams"]

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _key_to_int(key) -> int:
    if isinstance(key, str):
        # crc32 is stable across platforms and Python versions
        return zlib.crc32(key.encode("utf-8"))
    return int(key)


def substream(seed: int, *keys) -> np.random.Generator:
    """Return a Generator for the substream identified by (seed, *keys).

    Keys may be ints or short strings ("data", "init", ...).  The same
    (seed, keys) tuple always yields an identical stream.
    """
    spawn_key = tuple(_key_to_int(k) for k in keys)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=spawn_key))


def substreams(seed: int, *keys, n: int):
    """Iterate over the Generators of substream(seed, *keys, i), i = 0..n-1.

    Each stream is bit for bit substream's.  The iterator yields one
    Generator, re-seeded for each index: a yielded generator is valid only
    until the next one is yielded, so draw from it before advancing.  An
    index must fit one 32-bit word, so n above 2**32 is a DataError.
    """
    if not 0 <= n <= 1 << 32:
        raise DataError(f"substreams covers 0 to 2**32 indices, not {n}")
    return _reseeded(_pcg_states(seed, keys, np.arange(n, dtype=np.uint32)))


def _words(value: int) -> list:
    """The uint32 words SeedSequence makes of a non-negative int, low word first."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _pcg_states(seed, keys, indices):
    """(state, inc) of PCG64 seeded from SeedSequence(seed, (*keys, i)) per index."""
    # the entropy SeedSequence assembles: the seed's words padded to the pool
    # size, then the spawn key's words; only the last word, i, varies
    run = _words(int(seed))
    run += [0] * (_POOL_SIZE - len(run))
    fixed = run + [w for k in keys for w in _words(_key_to_int(k))]
    entropy = [np.array([w], dtype=np.uint32) for w in fixed] + [indices]

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        return value

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        result ^= result >> 16
        return result

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): 8 words cycling over the pool, paired low
    # word first into (seed high, seed low, increment high, increment low)
    hash_const = _INIT_B
    words = np.empty((len(indices), 8), dtype=np.uint32)
    for k in range(8):
        value = pool[k % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        words[:, k] = value
    words = words.astype("<u4", copy=False).view("<u8")
    for lo in range(0, len(words), 1024):  # Python ints for a block of indices at a time
        for s_hi, s_lo, i_hi, i_lo in words[lo:lo + 1024].tolist():
            # pcg64 srandom: state 0, one step, add the seed, one more step
            inc = (((i_hi << 64 | i_lo) << 1) | 1) & _MASK128
            yield ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc


def _reseeded(states):
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    value = bit_generator.state
    for state, inc in states:
        value["state"] = {"state": state, "inc": inc}
        bit_generator.state = value
        yield generator
