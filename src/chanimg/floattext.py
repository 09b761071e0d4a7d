"""The shortest text of float64 arrays, as repr writes it, in array passes.

shortest(values) gives for each value the bytes of repr(float(value)) in
a row of char slots.  Three passes make them:

  - digits: Schubfach (R. Giulietti, "The Schubfach way to render
    doubles", 2020; java.lang.Double.toString since JDK 19) finds the
    shortest decimal f 10^e that rounds to the value, the closest one
    where several are as short, in uint64 arithmetic: a 126-bit
    multiplier g of 10^-k from a table of 617 (k from -324 to 292) and
    multiply-high through 32-bit limbs.  Trailing zeros are then taken
    off f.  This is the decimal Python's repr writes (David Gay's
    shortest mode, ties to even).
  - layout: Python's rule for repr, positional where 1e-4 <= |v| < 1e16
    (with ".0" on an integral value) and d.ddde+XX otherwise.  The text
    of |v| is fixed by its digit count and decimal-point position (or
    exponent sign and width), so the values are grouped by those, and
    each group's text, its sign char first, is gathered through one uint8
    index vector from rows of each value's digit chars, sign char and the
    other chars a text may use.
  - the rest: zeros take the array path ("0.0", "-0.0"); subnormals and
    non-finite values are formatted by repr one at a time.  A valid link
    table may hold a subnormal (a delay of 5e-324 keeps every rule), but
    the generated and decoded tables hold none in practice.

Importing the module builds the table (about 2 ms), so io imports it only
when it first formats dataset text.
"""

from __future__ import annotations

import functools

import numpy as np

SLOT = 24  # the longest repr of a float64: sign, 17 digits, point and "e-308"

_C_MIN = 1 << 52  # the implicit bit of a normal float64's significand
_K_MIN, _K_MAX = -324, 292  # the decimal exponents of the table
_MASK32 = np.uint64(0xFFFFFFFF)
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 1233 (ints or int64 arrays)."""
    return (e * 913_124_641_741) >> 38


def _g_table():
    """(g1, g0) uint64 arrays: g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1, k from _K_MIN.

    r = floor(log2(10^-k)) - 125, so that 2^125 <= g < 2^126.
    """
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


_G1, _G0 = _g_table()


def _mulhi(a, b):
    """The high 64 bits of each 128-bit product a b, from the 32-bit limbs (lo, hi) of each."""
    (a0, a1), (b0, b1) = a, b
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _limbs(a):
    return a & _MASK32, a >> 32


def _shifted(product, g, shift, add):
    """The 128-bit (hi, lo) of product plus (add) or less g 2^shift; shift = (s, 64 - s)."""
    hi, lo = product
    d_hi, d_lo = g >> shift[1], g << shift[0]
    if add:
        lo = lo + d_lo
        return hi + d_hi + (lo < d_lo), lo
    return hi - d_hi - (lo < d_lo), lo - d_lo


def _rop(x1, y1, y0):
    """cp g / 2^127 rounded to odd, from x1 (g0 cp's high half) and g1 cp, y1 2^64 + y0.

    As the paper's rop: its floor, with the low bit set unless it is exact.
    """
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | ((z << 1) != 0)


def _schubfach(bits):
    """(f, e): f 10^e is the shortest decimal that rounds to each normal float64 of bits.

    Of several such decimals it is the closest, an even f on a tie.  f
    has 16 or 17 digits and may end in zeros; e is int64.  Only the
    normal values give meaning.  The products g cp of the interval's
    ends are those of v plus or minus g's shifts, with their carries.
    """
    bq = (bits >> 52).astype(np.int64) & 0x7FF
    c = (bits & np.uint64(_C_MIN - 1)) | np.uint64(_C_MIN)
    q = bq - 1075
    # the gap below a power of two is half the gap above, but not below the least normal
    irregular = (c == np.uint64(_C_MIN)) & (bq > 1)
    # k = floor(log10(2^q)), or of 3/4 2^q where irregular
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    k_at = k - _K_MIN
    g1, g0 = _G1[k_at], _G0[k_at]
    cp = c << (h + np.uint64(2))  # cb 2^h, cb = 4 c
    cp_limbs = _limbs(cp)
    g0cp = _mulhi(_limbs(g0), cp_limbs), g0 * cp
    g1cp = _mulhi(_limbs(g1), cp_limbs), g1 * cp
    vb = _rop(g0cp[0], *g1cp)
    # the interval's ends: cb - 2 (cb - 1 where irregular) and cb + 2, times 2^h
    low = h + np.uint64(1) - irregular
    low = low, 64 - low
    high = h + np.uint64(1)
    high = high, 64 - high
    vbl = _rop(_shifted(g0cp, g0, low, False)[0], *_shifted(g1cp, g1, low, False))
    vbr = _rop(_shifted(g0cp, g0, high, True)[0], *_shifted(g1cp, g1, high, True))
    out = c & np.uint64(1)  # an odd c leaves out the ends of its rounding interval
    vbl += out
    vbr -= out
    s = vb >> np.uint64(2)
    s4, sp40 = s << np.uint64(2), s // 10 * 40  # u = s and u' = 10 floor(s / 10), times 4
    # a digit fewer where exactly one of u' and u' + 10 lies in the interval
    upin, wpin = vbl <= sp40, sp40 + 40 <= vbr
    # else u or u + 1: the one in it, or the closer, an even u on a tie
    uin, win = vbl <= s4, s4 + 4 <= vbr
    up = np.where(uin != win, win, (vb > s4 + 2) | ((vb == s4 + 2) & (s & np.uint64(1) == 1)))
    return np.where(upin != wpin, (sp40 >> np.uint64(2)) + wpin * np.uint64(10), s + up), k


def _strip_zeros(f, e):
    """Move the trailing zeros of each nonzero f into e, in place."""
    some = np.flatnonzero((f % 10 == 0) & (f != 0))
    fs, es = f[some], e[some]
    for n in (16, 8, 4, 2, 1):  # at most 16 zeros: f has 16 or 17 digits
        div = fs // _POW10[n]
        drop = div * _POW10[n] == fs
        fs = np.where(drop, div, fs)
        es += drop * n
    f[some], e[some] = fs, es


def _digit_chars(x):
    """The 8 ASCII digits, zero-padded, of each uint64 below 10^8, as a little-endian word.

    SWAR: the halves, quarters and digits are split in lanes of one word.
    """
    hi4 = x // 10000
    a = hi4 | ((x - hi4 * 10000) << np.uint64(32))  # lanes of 32 bits: 4 digits each
    h = ((a * 10486) >> np.uint64(20)) & np.uint64(0x0000007F0000007F)  # // 100 in each lane
    b = h | ((a - h * 100) << np.uint64(16))  # lanes of 16 bits: 2 digits each
    h = ((b * 103) >> np.uint64(10)) & np.uint64(0x000F000F000F000F)  # // 10 in each lane
    return (h | ((b - h * 10) << np.uint64(8))) | np.uint64(0x3030303030303030)


# A value's source row, 4 little-endian words: the digits d1-d8 and d9-d16
# of its 17 zero-padded digits d0-d16; d0 and the constant chars "0.-e+"
# and the hundreds and tens of the magnitude x of its decimal exponent;
# the units of x, then its sign char ("-", or a zero byte).
_DIGIT = [16, *range(16)]  # the source column of each of the 17 digits
_ZERO, _DOT, _MINUS, _E, _PLUS, _EXP, _SIGN = 17, 18, 19, 20, 21, 22, 25
_CONST = int.from_bytes(b"00.-e+00", "little")
_EXP_HIGH = np.array([(x // 100 << 48) | (x // 10 % 10 << 56) for x in range(400)],
                     dtype=np.uint64)
_EXP_LOW = np.array([0x30 | x % 10 for x in range(400)], dtype=np.uint64)

# a value's layout class: decpt + 4 (0 to 20) for the positional text, where
# |v| is 0.d1d2... 10^decpt; 21 + 2 (exponent < 0) + (3 exponent digits)
_POSITIONAL = 21
_CLASSES = 25
_KEYS = 18 * _CLASSES  # (digit count, class)


def _layout(key) -> list:
    """The source columns of the text of the values of one (digit count, class) key."""
    nd, cls = divmod(key, _CLASSES)
    digits = [_DIGIT[i] for i in range(17 - nd, 17)]
    if cls < _POSITIONAL:
        decpt = cls - 4
        if decpt <= 0:
            body = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
        elif decpt < nd:
            body = digits[:decpt] + [_DOT] + digits[decpt:]
        else:
            body = digits + [_ZERO] * (decpt - nd) + [_DOT, _ZERO]
    else:
        negative, wide = divmod(cls - _POSITIONAL, 2)
        body = (digits[:1] + ([_DOT] + digits[1:] if nd > 1 else [])
                + [_E, _MINUS if negative else _PLUS] + [_EXP, _EXP + 1, _EXP + 2][1 - wide:])
    return [_SIGN] + body


_ONE = np.float64(1.0).view(np.uint64)


@functools.cache
def _gather(key):
    return np.array(_layout(key), dtype=np.uint8)


def shortest(values):
    """Row i of the (n, SLOT) uint8 result holds repr(float(values[i])).encode() between zeros.

    values is a 1-D float64 array.  Each row holds the repr's bytes with
    zero bytes before (at most one) and after them.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = len(values)
    bits = values.view(np.uint64)
    exponent = (bits >> np.uint64(52)) & np.uint64(0x7FF)
    normal = (exponent != 0) & (exponent != 0x7FF)
    f, e = _schubfach(np.where(normal, bits, _ONE))
    f, e = np.where(normal, f, np.uint64(0)), np.where(normal, e, 0)  # ±0.0: "0.0"
    nd = (f >= _POW10[16]) + np.where(normal, 16, 1) + e
    _strip_zeros(f, e)
    nd -= e  # less the zeros taken off
    decpt = nd + e
    x = np.abs(decpt - 1)  # the magnitude of the exponent of d.ddd 10^x
    key = nd * _CLASSES + np.where((decpt < -3) | (decpt > 16),
                                   _POSITIONAL + 2 * (decpt < 1) + (x >= 100), decpt + 4)
    negative = bits >> np.uint64(63)

    # in key order (a radix sort of small ints), each key's run of values gets its text
    # through one gather from the source rows
    order = np.argsort(key.astype(np.uint16), kind="stable")
    f, x = np.take(f, order), np.take(x, order)
    source = np.empty((n, 4), dtype="<u8")
    lead = f // _POW10[16]
    f -= lead * _POW10[16]
    source[:, :2] = _digit_chars(np.column_stack([f // _POW10[8], f % _POW10[8]]))
    source[:, 2] = np.take(_EXP_HIGH, x) | lead | np.uint64(_CONST)
    source[:, 3] = np.take(_EXP_LOW, x) | (np.take(negative, order) * np.uint64(ord("-") << 8))
    source = source.view(np.uint8)
    text = np.zeros((n, SLOT), dtype=np.uint8)
    counts = np.bincount(key, minlength=_KEYS)
    start = 0
    for k in np.flatnonzero(counts).tolist():
        stop = start + int(counts[k])
        layout = _gather(k)
        text[start:stop, :len(layout)] = source[start:stop, layout]
        start = stop
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.arange(n)
    chars = np.take(text, inverse, axis=0)

    rest = ~normal & ((bits << np.uint64(1)) != 0)  # subnormal, or not finite
    for i in np.flatnonzero(rest).tolist():
        r = repr(float(values[i])).encode()
        chars[i] = 0
        chars[i, :len(r)] = np.frombuffer(r, dtype=np.uint8)
    return chars
