"""The text of doubles, computed for a whole array at once.

`repr_bytes(values)` gives, for each element of a float64 array, the bytes
of `repr(float(v))`: the shortest decimal that reads back as the same
double (the nearest such decimal when two have that length), laid out as
Python lays it out.  So a CSV cell written from it reads back as the exact
double, and its text is the one a per-value `repr` would have written.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020; U. Adams's Ryu, PLDI 2018, is the same idea).  For a double
c * 2**q it picks k with 10**k just below 2**q, and multiplies the interval
of decimals that round to the double, scaled by 4, by a 128-bit
approximation g of 10**-k, rounding the top 64 bits of each 192-bit product
to odd.  That is exact enough to decide which of s = floor(v * 10**-k) and
s + 1, or which multiple of ten near them, lies in the interval, and so
gives the shortest digits without a loop.  Here every step is a numpy
operation on 64-bit integer arrays; the 128 x 64-bit products run on
30-bit limbs.  The layout works on each text as three little-endian 64-bit
words and moves bytes by shifts.

Only integer operations are used, so the bytes do not depend on the
floating-point loops a host's numpy happens to dispatch.  They run on
int64 arrays of non-negative values, so that right shifts are logical, and
a shift that drops set bits runs on a uint64 view, where it wraps as C's
unsigned shifts do.  They keep to shifts, additions, multiplications,
`divmod`, comparisons, `minimum`, `maximum`, `where` and `take`, which the
fits that run before a CSV is written use too: the first call of any
other kind of numpy loop maps its machine code into the process's
resident memory (`searchsorted` about 0.3 MB; a bitwise and, or a floor
division, 64 KB each).
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = ["WIDTH", "repr_bytes"]

WIDTH = 24  # the longest text: sign, 17 digits, point and "e-308"

_ONE = np.float64(1.0).view(np.int64)
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_ZEROS = int.from_bytes(b"0" * 8, "little")
_PAIRS = np.array([int.from_bytes(f"{i:02d}".encode(), "little") for i in range(100)], dtype=np.int64)
# x // 10**p == x * factor >> shift for 0 <= x < 2**30 (Granlund and Montgomery, PLDI 1994)
_RECIPROCALS = {p: (-(-(1 << 30 + (10**p).bit_length()) // 10**p), 30 + (10**p).bit_length()) for p in (1, 2, 4, 8)}
# g(e) for e in [-292, 324] covers 10**-k for every k of a finite double
_G_MIN, _G_MAX = -292, 324
# scientific exponents e-324 .. e+308, then an empty entry for the plain layout
_E_MIN, _E_MAX = -324, 308


class _Tables(NamedTuple):
    g: np.ndarray  # (5, 617) int64: 30-bit limbs of g(e), least significant first
    exponent: np.ndarray  # (634,) int64: "e+XX" text as a little-endian word
    exponent_length: np.ndarray  # (634,) int64


@cache
def _tables() -> _Tables:
    """Built on first use, not at import."""
    g = np.empty((5, _G_MAX - _G_MIN + 1), np.int64)
    for j, e in enumerate(range(_G_MIN, _G_MAX + 1)):
        # g(e) = floor(10**e * 2**r) + 1, with 2**127 <= 10**e * 2**r < 2**128
        r = 127 - ((e * 1741647) >> 19)
        v = (10 ** max(e, 0) << max(r, 0)) // (10 ** max(-e, 0) << max(-r, 0)) + 1
        g[:, j] = [(v >> (30 * i)) % (1 << 30) for i in range(5)]
    texts = [f"e{x:+03d}".encode() for x in range(_E_MIN, _E_MAX + 1)] + [b""]
    return _Tables(
        g,
        np.array([int.from_bytes(t, "little") for t in texts], dtype=np.int64),
        np.array([len(t) for t in texts], dtype=np.int64),
    )


def repr_bytes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of `repr(float(v))` for each element of `values`, in order.

    Returns an (m, 24) uint8 array, zero after each text, and the (m,)
    int64 lengths, for the m elements of `values` flattened.  Non-finite
    values read `inf`, `-inf` and `nan` (whatever the sign of a NaN), and
    negative zero reads `-0.0`.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64)
    magnitude = (bits.view(np.uint64) << 1 >> 1).view(np.int64)
    biased = magnitude >> 52
    fraction = magnitude - (biased << 52)
    zero = magnitude == 0
    nonfinite = biased == 0x7FF
    nan = nonfinite & (fraction != 0)
    negative = (bits < 0) & ~nan
    special = zero | nonfinite
    # a special value's text is fixed; 1.0 stands in for it in the arithmetic
    words, length = _layout(*_shortest(np.where(special, _ONE, magnitude)))
    if special.any():
        words[:, special] = 0
        words[0, special] = np.where(zero[special], _word(b"0.0"), np.where(nan[special], _word(b"nan"), _word(b"inf")))
        length[special] = 3
    sign = np.where(negative, 1, 0)
    _shift(words, sign)
    words[0] += sign * ord("-")
    length += sign
    return np.ascontiguousarray(words.T, dtype="<i8").view(np.uint8), length


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits d and exponent k of the shortest decimal d * 10**k that rounds
    to each positive finite double, the nearest one on a tie of length
    (Giulietti, figures 4 and 6); d may end in zeros."""
    q = bits >> 52
    c = bits - (q << 52)
    # at a power of two the gap below is half the gap above
    closer = (c == 0) & (q > 1)
    c += np.minimum(q, 1) << 52
    np.maximum(q, 1, out=q)
    q -= 1075  # the double is c * 2**q
    k = q * 1262611
    k -= np.where(closer, 524031, 0)
    k >>= 22  # floor(log10(2**q)), or of 3/4 * 2**q when closer
    # the interval's ends and the double, scaled by 4 * 2**h, where h is 1..4
    x = np.empty((3, c.size), np.int64)
    np.left_shift(c, 2, out=x[1])
    np.subtract(x[1], np.where(closer, 1, 2), out=x[0])
    np.add(x[1], 2, out=x[2])
    h = k * -1741647
    h >>= 19
    h += q
    h += 1
    del q, closer
    index = -_G_MIN - k  # of g(-k)
    for row in x:
        row <<= h
        _round_to_odd(index, row)
    del h, index
    lower, v, upper = x
    odd = c - (c >> 1 << 1)  # the interval's ends round to the double only when c is even
    lower += odd
    upper -= odd
    del c, odd
    s = v >> 2
    # a multiple of ten in the interval has one digit less: 10 * tens or 10 * (tens + 1)
    tens = np.divmod(s, 10)[0]
    t = tens * 40
    up_in = lower <= t
    t += 40
    wp_in = t <= upper
    shorter = (up_in != wp_in) & (s >= 10)  # exactly one of the two is in
    # else s or s + 1, whichever alone is in the interval; when both are, the
    # nearer, and the even one at the midpoint
    np.left_shift(s, 2, out=t)
    u_in = lower <= t
    t += 4
    w_in = t <= upper
    t -= 2
    up = (v > t) | ((v == t) & (s - (s >> 1 << 1) == 1))
    up = np.where(u_in != w_in, w_in, up)
    del x, lower, v, upper, t, u_in, w_in
    d = np.where(shorter, np.where(wp_in, tens + 1, tens), np.where(up, s + 1, s))
    return d, np.where(shorter, k + 1, k)


def _round_to_odd(index: np.ndarray, x: np.ndarray) -> None:
    """x becomes the top 64 bits of each 192-bit product g(e) * x, with e
    read from `index`, with its last bit set when the middle 64 bits exceed 1.

    g(e) has five 30-bit limbs, and x, below 2**60, is split into two here.
    Each 30-bit column of the product sums two limb products below 2**60
    and the carry, so nothing wraps."""
    g = _tables().g
    high = x >> 30
    product = high << 30
    x -= product
    below = g[0].take(index)
    carry = below * x
    carry >>= 30
    column = np.empty_like(x)
    for i in range(1, 6):
        np.multiply(below, high, out=product)
        if i < 5:
            below = g[i].take(index)
            np.multiply(below, x, out=column)
            column += carry
        else:
            column, carry = carry, column
        column += product
        if i < 5:
            np.right_shift(column, 30, out=carry)
            np.left_shift(carry, 30, out=product)
            column -= product  # this column's 30 bits
        if i == 2:  # bits 60..89: the middle word's bits from 65 on
            sticky = column >> 5
        elif i == 3:  # bits 90..119
            sticky += column
        elif i == 4:  # bits 120..149: the middle word's last 8, the top word's first 22
            np.right_shift(column, 8, out=x)
            sticky += column
            np.left_shift(x, 8, out=product)
            sticky -= product
    # the last column, bits 150 on
    column <<= 22
    x += column
    # round to odd: the last bit set when anything below the top word is
    np.right_shift(x, 1, out=product)
    product <<= 1
    x -= product  # the last bit
    np.minimum(sticky, 1, out=sticky)
    np.maximum(x, sticky, out=x)
    x += product


def _layout(d: np.ndarray, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of each positive d * 10**k, given k, as (3, m) little-endian
    words, zero after the text, and its length: `repr`'s rules without the
    sign.  Both arguments are overwritten."""
    # the digits of d: 15 to 17 for a normal double; a subnormal one's by a
    # binary search over the powers of ten
    n = np.where(d >= 10**16, 17, np.where(d >= 10**15, 16, 15))
    few = d < 10**14
    if few.any():
        small = d[few]
        count = np.ones(small.size, np.int64)
        for step in (8, 4, 2, 1):
            candidate = count + step
            count = np.where(small >= _POW10.take(candidate - 1), candidate, count)
        n[few] = count
    point += n  # the value is 0.DIGITS * 10**point
    # the digits padded to 17 with zeros: 8 in top, 9 in rest
    d *= _POW10.take(17 - n)
    top, rest = np.divmod(d, 10**9)
    del d
    # the significant digits: 17 less the padded string's trailing zeros
    tail = rest == 0
    n = np.where(tail, 8, 17)
    value = np.where(tail, top, rest)
    for p in (8, 4, 2, 1):
        cut = _quotient(value, p)
        strip = cut * 10**p == value
        value = np.where(strip, cut, value)
        n = np.where(strip, n - p, n)
    del tail, value, cut, strip
    scientific = (point < -3) | (point > 16)
    # 0.000ddd: up to four zeros in front
    zeros = np.where(scientific, 0, np.maximum(1 - point, 0))
    # the point: after the first digit in scientific form (none for one digit), else after the integer part
    dot = np.where(scientific, np.where(n > 1, 1, WIDTH), np.maximum(point, 1))
    length = np.where(scientific, n + np.minimum(n - 1, 1), np.maximum(n + zeros, dot + 1) + 1)
    exponent = np.where(scientific, point - 1 - _E_MIN, _E_MAX - _E_MIN + 1)
    del scientific, point, n
    # the 17 digits in ASCII in bytes 0..16, then '0's
    words = np.empty((3, top.size), np.int64)
    _ascii8(top, words[0])
    del top
    middle = _quotient(rest, 1)
    _ascii8(middle, words[1])
    np.subtract(rest, middle * 10, out=words[2])
    words[2] += _ZEROS
    del middle, rest
    _shift(words, zeros)
    words[0] += _low(np.full(zeros.size, _ZEROS), zeros << 3)
    del zeros
    # the bytes from the point on move up one place, the top word first, while the one below is unchanged
    for w in (2, 1, 0):
        moved = _low(words[w], 56) << 8
        if w:
            moved += words[w - 1] >> 56
        before, through = _bits_below(dot, w), _bits_below(dot + 1, w)
        words[w] = _low(words[w], before)
        words[w] += moved >> through << through
        words[w] += np.where(through > before, np.left_shift(ord("."), before), 0)
    del dot, moved, before, through
    for w in range(3):
        words[w] = _low(words[w], _bits_below(length, w))
    tables = _tables()
    _place(words, tables.exponent.take(exponent), length)
    length += tables.exponent_length.take(exponent)
    return words, length


def _ascii8(x: np.ndarray, out: np.ndarray) -> None:
    """out becomes the eight decimal digits of each x < 10**8 in ASCII, most significant in the lowest byte."""
    high = _quotient(x, 4)
    low = x - high * 10_000
    out[...] = 0
    for part, at in ((high, 0), (low, 32)):
        tens = _quotient(part, 2)
        out += _PAIRS.take(tens) << at
        part -= tens * 100
        out += _PAIRS.take(part) << at + 16


def _quotient(x: np.ndarray, p: int) -> np.ndarray:
    """x // 10**p for each 0 <= x < 2**30, by one multiplication and a shift."""
    factor, shift = _RECIPROCALS[p]
    return x * factor >> shift


def _low(x: np.ndarray, bits) -> np.ndarray:
    """The low `bits` (0..64) bits of each x >= 0, by shifts: no bitwise-and loop."""
    return x - (x >> bits << bits)  # a shift by 64 gives 0


def _bits_below(count: np.ndarray, word: int) -> np.ndarray:
    """How many bits of each text's `word` (0..2) lie before byte `count`: 0..64."""
    bits = np.maximum(count - 8 * word, 0)
    np.minimum(bits, 8, out=bits)
    bits <<= 3
    return bits


def _shift(words: np.ndarray, count: np.ndarray) -> None:
    """Moves each text's bytes `count` (0..7) places up, zeros coming in at
    byte 0 and the last bytes dropping out."""
    words = words.view(np.uint64)
    bits = (count << 3).view(np.uint64)
    back = 64 - bits  # a shift by 64 gives 0
    for w in (2, 1):
        words[w] <<= bits
        words[w] += words[w - 1] >> back
    words[0] <<= bits


def _place(words: np.ndarray, word: np.ndarray, at: np.ndarray) -> None:
    """Adds each text's `word` to its words from byte `at` (0..18) on, where
    they are zero; `word` has at most five bytes."""
    bits = at % 8 << 3
    index = at >> 3
    low = _low(word, 64 - bits) << bits
    word >>= 64 - bits
    for w in range(3):
        words[w] += np.where(index == w, low, 0)
        if w:
            words[w] += np.where(index == w - 1, word, 0)
