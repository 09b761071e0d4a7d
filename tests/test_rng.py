"""substream: the stream of one (seed, keys) tuple."""

import pytest

from chanimg.rng import substream


def test_negative_seed_is_refused_like_seed_sequence():
    with pytest.raises(ValueError):
        substream(-1, "link")
