"""Bulk seeding: substreams against the single-stream reference, substream."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanimg.errors import DataError
from chanimg.rng import _pcg_states, _reseeded, substream, substreams

SEEDS = (0, 7, 2**32, 2**64 + 3)
KEYS = (("link",), ("sampling",), ("a", 3))


def assert_same_stream(got, want):
    """The full PCG64 state, then the first draws of several kinds."""
    assert got.bit_generator.state == want.bit_generator.state
    assert got.uniform(size=3).tobytes() == want.uniform(size=3).tobytes()
    assert got.standard_normal(5).tobytes() == want.standard_normal(5).tobytes()
    assert got.integers(1 << 62, size=2).tolist() == want.integers(1 << 62, size=2).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("keys", KEYS)
def test_substreams_are_the_substreams(seed, keys):
    want = (0, 1, 4999)
    seen = 0
    for i, rng in enumerate(substreams(seed, *keys, n=5000)):
        if i in want:
            assert_same_stream(rng, substream(seed, *keys, i))
            seen += 1
    assert (i, seen) == (4999, len(want))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("keys", KEYS)
def test_last_32_bit_index_is_its_substream(seed, keys):
    # substreams(n) seeds np.arange(n); the same steps over the last index
    indices = np.array([2**32 - 1], dtype=np.uint32)
    (rng,) = _reseeded(_pcg_states(seed, keys, indices))
    assert_same_stream(rng, substream(seed, *keys, 2**32 - 1))


@pytest.mark.parametrize("n", [2**32 + 1, 2**40, -1])
def test_index_beyond_32_bits_is_refused(n):
    # refused when called, before any index array is built
    with pytest.raises(DataError, match="2\\*\\*32"):
        substreams(0, "link", n=n)


def test_zero_streams():
    assert list(substreams(3, "link", n=0)) == []


def test_one_generator_reseeded_per_index():
    rngs = substreams(5, "sampling", n=3)
    first = next(rngs)
    first.standard_normal(4)  # drawing does not leak into the next stream
    second = next(rngs)
    assert second is first
    assert_same_stream(second, substream(5, "sampling", 1))


def test_negative_seed_is_refused_like_seed_sequence():
    with pytest.raises(ValueError):
        substream(-1, "link")
    with pytest.raises(ValueError):
        next(substreams(-1, "link", n=1))


KEY = st.one_of(st.integers(0, 2**70), st.text(max_size=6))


# a fixed example set, so the suite's outcome does not vary between runs
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**140), keys=st.lists(KEY, max_size=3),
       n=st.integers(1, 40), picks=st.lists(st.integers(0, 39), min_size=1, max_size=3))
def test_substreams_match_substream_on_any_key(seed, keys, n, picks):
    picks = {p % n for p in picks}
    for i, rng in enumerate(substreams(seed, *keys, n=n)):
        if i in picks:
            assert_same_stream(rng, substream(seed, *keys, i))
