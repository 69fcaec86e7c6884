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
30-bit limbs, the interval's three points as one (3, m) array.

The layout is a table.  A text's shape is fixed by its class: its sign, its
count of significant digits, and where its decimal point goes or which
exponent form it takes (a special value is a class of its own).  Each row of
a scratch array holds the 17 digits in ASCII, from a table of 4-digit
groups, and an exponent's text after the last significant digit.  One
25-byte window per row is read from it, at an offset the class gives; byte
i of the text is then a literal, or byte i + 1 of the window (a digit before
the point), or byte i (a digit after it, one place further on), as the
class's row of the layout table says.

Only integer operations are used, so the bytes do not depend on the
floating-point loops a host's numpy happens to dispatch.  They run on
int64 arrays of non-negative values, so that right shifts are logical.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

__all__ = ["WIDTH", "repr_bytes"]

WIDTH = 24  # the longest text: sign, 17 digits, point and "e-308"

_ONE = np.float64(1.0).view(np.int64)
_INF = np.float64(np.inf).view(np.int64)
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_DIGITS = np.frombuffer(b"0123456789", np.uint8)
_PLACES = np.arange(0, 16, 4)[:, None]  # the digits before each of the four groups, less the first
_GROUPS = 10 ** np.arange(12, -1, -4)[:, None]  # the place of each group's last digit, in a 17-digit d
_LIMB = (1 << 30) - 1  # the low 30 bits: one limb
# g(e) for e in [-292, 324] covers 10**-k for every k of a finite double
_G_MIN, _G_MAX = -292, 324
# a finite double is 0.DIGITS * 10**point with point in [-323, 309]
_POINT_MIN, _POINT_MAX = -323, 309
# forms 0..19: plain, the point at -3..16; 20 and 21: scientific, with a 2- and a 3-digit exponent
_FORMS = 22
_NEGATIVE = 18 * _FORMS  # classes: sign * _NEGATIVE + digits * _FORMS + form, then the special values
_SPECIAL = 2 * _NEGATIVE  # 0.0, -0.0, inf, -inf, nan
# a scratch row: the first digit at byte 7, then four 4-digit groups at bytes 8..23 (4-byte aligned),
# then room for an exponent word written after the last significant digit
_FIRST, _ROW = 7, 32
_A, _B = 1, 2  # layout codes: a digit before the point, a digit after it
# byte maps from a layout to its planes: literals (codes to 0), and 1 at each code of one kind
_LITERAL = bytes(i if i > _B else 0 for i in range(256))
_BEFORE, _AFTER = (bytes(int(i == code) for i in range(256)) for code in (_A, _B))


class _Tables(NamedTuple):
    g: np.ndarray  # (5, 617) int64: 30-bit limbs of g(e), least significant first
    form: np.ndarray  # (633,) int64: the form of each point
    exponent: np.ndarray  # (633,) int64: the exponent's text ("e+XX") as a little-endian word, 0 when plain
    groups: np.ndarray  # (10000,) uint32: "dddd" for each 4-digit group
    digits: np.ndarray  # (10000,) int64: 5 less the trailing zeros of each group, -11 for 0000
    literal: np.ndarray  # (classes, 25) uint8: each text byte's literal, 0 at a digit
    before: np.ndarray  # (classes, 25) uint8: 1 at a digit before the point (or of an exponent, with one digit)
    after: np.ndarray  # (classes, 25) uint8: 1 at a digit after the point (or of an exponent)
    start: np.ndarray  # (classes,) int64: where the class's window starts in a scratch row


@cache
def _tables() -> _Tables:
    """Built on first use, not at import."""
    g = np.empty((5, _G_MAX - _G_MIN + 1), np.int64)
    for j, e in enumerate(range(_G_MIN, _G_MAX + 1)):
        # g(e) = floor(10**e * 2**r) + 1, with 2**127 <= 10**e * 2**r < 2**128
        r = 127 - ((e * 1741647) >> 19)
        v = (10 ** max(e, 0) << max(r, 0)) // (10 ** max(-e, 0) << max(-r, 0)) + 1
        g[:, j] = [(v >> (30 * i)) % (1 << 30) for i in range(5)]
    points = range(_POINT_MIN, _POINT_MAX + 1)
    plain = [-3 <= p <= 16 for p in points]
    # each 4-digit group's digits, most significant first, and how many of its last places are 0
    group, places, zeros = np.arange(10_000), np.empty((10_000, 4), np.uint8), np.zeros(10_000, np.int64)
    for j in range(4):
        places[:, 3 - j] = _DIGITS.take(group // 10**j % 10)
        zeros += group % 10 ** (j + 1) == 0
    texts = [_code(sign, n, form) for sign in (0, 1) for n in range(18) for form in range(_FORMS)]
    texts += [(b"0.0", 0), (b"-0.0", 0), (b"inf", 0), (b"-inf", 0), (b"nan", 0)]
    # each text byte's literal, whether it is a digit before the point, and whether after it;
    # a 25th byte, always 0, lines the planes up with the 25-byte windows
    planes = np.zeros((3, len(texts), WIDTH + 1), np.uint8)
    for j, (code, _) in enumerate(texts):
        for plane, keep in zip(planes, (_LITERAL, _BEFORE, _AFTER)):
            plane[j, : len(code)] = np.frombuffer(code.translate(keep), np.uint8)
    return _Tables(
        g,
        np.array([p + 3 if fits else 20 + (abs(p - 1) >= 100) for p, fits in zip(points, plain)], np.int64),
        np.array([0 if fits else int.from_bytes(f"e{p - 1:+03d}".encode(), "little") for p, fits in zip(points, plain)],
                 np.int64),
        places.view("<u4").reshape(-1),
        np.where(zeros < 4, 5 - zeros, -11),
        *planes,
        np.array([start for _, start in texts], np.int64),
    )


def _code(sign: int, n: int, form: int) -> tuple[bytes, int]:
    """The layout of a text with `n` significant digits, and where its window starts.

    `_A` stands for the next digit before the point, read at the text's own
    byte of the window, which starts one byte before it; `_B` for one after
    the point, read a byte further back.  An exponent is read as a digit."""
    a, b = bytes([_A]), bytes([_B])
    if form < 20:
        point = form - 3
        if point <= 0:  # 0.000ddd
            text = b"0." + b"0" * -point + a * n
        elif point < n:
            text = a * point + b"." + b * (n - point)
        else:  # integral: ddd000.0
            text = a * n + b"0" * (point - n) + b".0"
    else:  # d.ddde-05, or de-05 for one digit
        text = a + (b"." + b * (n - 1) + b * (4 + form - 20) if n > 1 else a * (4 + form - 20))
    lead = sign + max(text.find(a), 0)  # the bytes before the first digit
    return b"-" * sign + text, _FIRST - lead - 1


def repr_bytes(values: np.ndarray) -> np.ndarray:
    """The bytes of `repr(float(v))` for each element of `values`, in order.

    Returns an (m, 24) uint8 array, one row per element of `values`
    flattened: its text, then zeros (a text holds no zero byte).  Non-finite
    values read `inf`, `-inf` and `nan` (whatever the sign of a NaN), and
    negative zero reads `-0.0`.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).reshape(-1).view(np.int64)
    if not bits.size:
        return np.zeros((0, WIDTH), np.uint8)
    magnitude = bits & 0x7FFF_FFFF_FFFF_FFFF
    negative = bits < 0
    special = (magnitude == 0) | (magnitude >= _INF)
    if special.any():
        # a special value's text is fixed; 1.0 stands in for it in the arithmetic
        kind = np.where(magnitude == 0, _SPECIAL, np.where(magnitude == _INF, _SPECIAL + 2, _SPECIAL + 4))
        kind += negative & (magnitude <= _INF)
        magnitude = np.where(special, _ONE, magnitude)
    scratch, cls, n, point = _digits(*_shortest(magnitude), np.where(negative, _NEGATIVE, 0))
    if special.any():
        cls = np.where(special, kind, cls)
    return _layout(scratch, cls, n, point)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Digits d and exponent k of the shortest decimal d * 10**k that rounds
    to each positive finite double, the nearest one on a tie of length
    (Giulietti, figures 4 and 6); d may end in zeros."""
    q = bits >> 52
    c = bits & (1 << 52) - 1
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
    np.subtract(x[1], 2, out=x[0])
    x[0] += closer
    np.add(x[1], 2, out=x[2])
    h = k * -1741647
    h >>= 19
    h += q
    h += 1
    x <<= h
    del q, closer, h
    _round_to_odd(-_G_MIN - k, x)  # g(-k)
    lower, v, upper = x
    odd = c & 1  # the interval's ends round to the double only when c is even
    lower += odd
    upper -= odd
    del c, odd
    s = v >> 2
    # a multiple of ten in the interval has one digit less: 10 * tens or 10 * (tens + 1)
    tens = s // 10
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
    t -= 2  # the midpoint
    v += s & 1  # at the midpoint, an odd s goes up
    up = np.where(u_in != w_in, w_in, v > t)
    del x, lower, v, upper, t, u_in, w_in
    d = np.where(shorter, tens, s)
    d += np.where(shorter, wp_in, up)
    k += shorter
    return d, k


def _round_to_odd(index: np.ndarray, x: np.ndarray) -> None:
    """Each row of the (3, m) x becomes the top 64 bits of the 192-bit
    products g(e) * x, with e read from `index`, with its last bit set when
    the middle 64 bits exceed 1.

    g(e) has five 30-bit limbs, and x, below 2**60, is split into two here.
    Column i of the product, bits 30i on, sums two limb products below
    2**60 and the carry from column i - 1, so nothing wraps; the top word,
    below 2**60, is column 4 from bit 8 on plus the last product."""
    g = _tables().g.take(index, axis=1)
    high = x >> 30
    x &= _LIMB  # the low limb
    carry = g[0] * x
    carry >>= 30
    column, part = np.empty_like(x), np.empty_like(x)
    for i in range(1, 5):
        np.multiply(g[i], x, out=column)
        column += carry
        np.multiply(g[i - 1], high, out=part)
        column += part
        if i < 4:
            np.right_shift(column, 30, out=carry)
        if i == 2:  # bits 60..89: the middle word's bits from 65 on
            sticky = (column & _LIMB) >> 5
        elif i == 3:  # bits 90..119
            sticky += column & _LIMB
    # column 4, bits 120 on: the middle word's last 8 bits, then the top word
    sticky += column & 0xFF
    np.right_shift(column, 8, out=x)
    np.multiply(g[4], high, out=part)
    part <<= 22
    x += part
    x |= sticky != 0  # round to odd: the last bit set when anything of the middle word from bit 65 on is


def _digits(d: np.ndarray, point: np.ndarray, cls: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each positive d * 10**k, given k, as a scratch row holding its 17
    digits in ASCII, padded with zeros, from byte `_FIRST` on; with its
    class (`cls` holds its sign's part), its count of significant digits
    and its point's index into the tables.  The arguments are overwritten."""
    # the digits of d: 15 to 17 for a normal double; a subnormal one's by a
    # binary search over the powers of ten
    n = 15 + (d >= 10**15) + (d >= 10**16)
    few = d < 10**14
    if few.any():
        small = d[few]
        count = np.ones(small.size, np.int64)
        for step in (8, 4, 2, 1):
            candidate = count + step
            count = np.where(small >= _POW10.take(candidate - 1), candidate, count)
        n[few] = count
    point += n  # the value is 0.DIGITS * 10**point
    point -= _POINT_MIN
    d *= _POW10.take(17 - n)
    first = d // 10**16
    groups = d // _GROUPS % 10**4  # the 16 digits after the first as four groups of four
    del d, n
    tables = _tables()
    scratch = np.empty((first.size, _ROW), np.uint8)
    scratch[:, _FIRST] = _DIGITS.take(first)
    scratch[:, _FIRST + 1 : _FIRST + 17].view("<u4")[...] = tables.groups.take(groups).T
    # the significant digits: the last group that is not 0000 says how many; when all are, the
    # first digit alone (a 0000 group's count is 1 at most)
    counts = tables.digits.take(groups)
    counts += _PLACES
    n = np.maximum(np.maximum(counts[0], counts[1]), np.maximum(counts[2], counts[3]))
    cls += n * _FORMS
    cls += tables.form.take(point)
    return scratch, cls, n, point


def _layout(scratch: np.ndarray, cls: np.ndarray, n: np.ndarray, point: np.ndarray) -> np.ndarray:
    """The texts as the layout table puts them together from each class's
    window of its scratch row."""
    tables = _tables()
    rows = np.arange(0, scratch.size, _ROW)
    exponent = tables.exponent.take(point)
    if exponent.max() > 0:  # after the last significant digit, as a little-endian word
        words = np.ndarray((scratch.size - 7,), "<i8", scratch, strides=(1,))
        words[rows + _FIRST + n] = exponent
    del exponent
    rows += tables.start.take(cls)
    # indexing, not `take`, which would copy the overlapping windows out whole first
    window = np.ndarray((scratch.size - WIDTH, WIDTH + 1), np.uint8, scratch, strides=(1, 1))[rows]
    del scratch, rows
    # each plane and the windows as one flat array, so that every operation runs over one contiguous loop
    window = window.reshape(-1)
    text = tables.before.take(cls, axis=0).reshape(-1)
    text[:-1] *= window[1:]
    after = tables.after.take(cls, axis=0).reshape(-1)
    after *= window
    text += after
    del window, after
    text += tables.literal.take(cls, axis=0).reshape(-1)
    return text.reshape(-1, WIDTH + 1)[:, :WIDTH]
