"""The array formatter of dataset numbers: the bytes of repr, value by value."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chanimg import floattext


def texts(values):
    """The rows of shortest(values), checking their form.

    Each row must hold its text in one run of non-zero bytes that starts
    at column 0 or 1.
    """
    chars = floattext.shortest(np.asarray(values, dtype=np.float64))
    assert chars.shape == (len(values), floattext.SLOT) and chars.dtype == np.uint8
    filled = chars != 0
    lengths = filled.sum(axis=1)
    first = np.argmax(filled, axis=1)
    last = floattext.SLOT - 1 - np.argmax(filled[:, ::-1], axis=1)
    assert (lengths > 0).all()
    assert (last - first + 1 == lengths).all() and (first <= 1).all()
    return chars


def assert_repr(values):
    chars = texts(values)
    values = np.asarray(values, dtype=np.float64).tolist()
    # one line per value: the rows' bytes in order, their zeros dropped
    lines = np.column_stack([chars, np.full(len(chars), ord("\n"), dtype=np.uint8)])
    got = lines.tobytes().translate(None, b"\0").split(b"\n")[:-1]
    want = [repr(v).encode() for v in values]
    if got != want:
        i = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        raise AssertionError(f"value {i}: {values[i]!r} written as {got[i]!r}, repr {want[i]!r}")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_any_finite_float_is_its_repr(values):  # subnormals and -0.0 included
    assert_repr(values)


def test_random_bit_patterns_are_their_repr():
    bits = np.random.default_rng(24).integers(0, 2**64, 10**6 + 2**12, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:10**6]
    assert len(values) == 10**6
    assert_repr(values)


def test_powers_of_two_are_their_repr():
    powers = [2.0**e for e in range(-1074, 1024)]
    assert_repr(powers + [-p for p in powers])


def test_edges_of_the_layout_are_their_repr():
    edges = [1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0,  # positional to exponent
             float(2**53 - 1), float(2**53), float(2**53 + 2), 2.0**53 + 1,  # integers at 2^53
             0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
             12e9, 1.5, 0.1, 1e23, 2e-7, 100.0]
    assert_repr(edges + [-v for v in edges])


def test_the_longest_text_fills_the_slot():
    longest = -1.2345678901234567e-300
    assert len(repr(longest)) == floattext.SLOT == 24
    assert_repr([longest])


def test_non_finite_values_are_written_as_repr():
    # the writer keeps Python's text
    assert_repr([float("nan"), float("inf"), -float("inf")])


def test_table_multipliers_are_126_bits():
    g = [(int(g1) << 63) | int(g0) for g1, g0 in zip(floattext._G1, floattext._G0)]
    assert len(g) == 617 and all(2**125 <= v < 2**126 for v in g)
