import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

import quasifit
from quasifit.floattext import WIDTH, repr_bytes


def _lengths(text):
    """Each row's text length, found from its zero padding, after checking
    that no zero byte sits inside a text and nothing non-zero follows it."""
    length = np.count_nonzero(text, axis=1)
    assert np.array_equal(text != 0, np.arange(WIDTH) < length[:, None])
    return length


def _texts(values):
    """Each text of `repr_bytes`, as str."""
    text = repr_bytes(values)
    assert text.shape == (np.size(values), WIDTH) and text.dtype == np.uint8
    return [bytes(row[:n]).decode("ascii") for row, n in zip(text, _lengths(text).tolist())]


def _assert_repr(values):
    values = np.asarray(values, dtype=np.float64)
    for value, got in zip(values.tolist(), _texts(values)):
        assert got == repr(value), value


def _boundaries():
    special = [
        0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, 2.2250738585072014e-308,
        2.225073858507201e-308, 1e15, 1e16, 1e-4, 1e-5, 2.0**53 + 2, 2.0**53, 1.7976931348623157e308,
        # either side of both bounds of the exponent layout
        9999999999999998.0, 1e16, 0.0001, 9.999999999999999e-05, 0.1, 0.005, 123.456,
    ]
    powers = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{e}") for e in range(-323, 309)]
    base = np.array(special + powers)
    with np.errstate(over="ignore"):
        around = [np.nextafter(base, np.inf), np.nextafter(base, -np.inf)]
    values = np.concatenate([base, *around])
    return np.concatenate([values, -values])


def test_boundaries_read_as_repr():
    values = _boundaries()
    assert np.isnan(values).any() and np.isinf(values).any() and (values == 0).any()
    _assert_repr(values)


def test_nan_reads_nan_whatever_its_sign_and_payload():
    bits = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF], np.uint64)
    assert _texts(bits.view(np.float64)) == ["nan"] * 4


def test_subnormals_read_as_repr():
    rng = np.random.default_rng(5)
    fractions = np.concatenate([np.arange(1, 4097), rng.integers(1, 2**52, 20_000), 2**52 - np.arange(1, 100)])
    values = fractions.view(np.float64)
    _assert_repr(np.concatenate([values, -values]))


def test_a_million_bit_patterns_read_as_repr():
    # random 64-bit patterns: every exponent about equally often, NaNs and infinities included
    bits = np.random.default_rng(2022).integers(0, 2**64, 1_000_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    for start in range(0, values.size, 1 << 16):
        chunk = values[start : start + (1 << 16)]
        text = repr_bytes(chunk)
        ends = np.arange(WIDTH + 1) == _lengths(text)[:, None]
        lines = np.where(ends, ord("\n"), np.pad(text, ((0, 0), (0, 1))))
        got = bytes(lines[lines != 0]).decode("ascii")
        assert got == "".join(f"{v!r}\n" for v in chunk.tolist())


def test_decimal_and_integral_values_read_as_repr():
    rng = np.random.default_rng(7)
    decimals = [np.round(rng.standard_normal(20_000) * 1000, places) for places in range(6)]
    scaled = rng.standard_normal(20_000) * 10.0 ** rng.integers(-30, 31, 20_000)
    integers = rng.integers(0, 10**17, 20_000).astype(np.float64)
    _assert_repr(np.concatenate([*decimals, scaled, integers]))


def _with_digits(rng, n, point):
    """A double whose shortest text has n significant digits: 0.DIGITS * 10**point."""
    while True:
        digits = str(rng.integers(1, 10)) + "".join(map(str, rng.integers(0, 10, n - 1)))
        digits = digits[:-1] + str(rng.integers(1, 10)) if n > 1 else digits
        value = float(f"0.{digits}e{point}")
        if repr(value).replace("-", "").replace(".", "").split("e")[0].strip("0") == digits:
            return value


def test_every_layout_class_reads_as_repr():
    # each sign, significant-digit count and point position, and both exponent widths
    rng = np.random.default_rng(23)
    points = list(range(-3, 17)) + [-4, 17, -98, 100, -99, 101, -306, 308]
    values = np.array([_with_digits(rng, n, point) for n in range(1, 18) for point in points])
    forms = set()
    for n, text in zip(np.repeat(np.arange(1, 18), len(points)).tolist(), map(repr, values.tolist())):
        if "e" in text:
            forms.add((n, "e", len(text.split("e")[1])))
        elif text.startswith("0."):
            forms.add((n, -(len(text) - len(text[2:].lstrip("0")) - 2)))
        else:
            forms.add((n, text.index(".")))
    assert len(forms) == 17 * (20 + 2)  # point -3..16, then e+XX and e+XXX
    _assert_repr(np.concatenate([values, -values]))


@given(hnp.arrays(np.float64, st.integers(0, 200), elements=st.floats(width=64)))
def test_any_array_reads_as_repr(values):
    _assert_repr(values)


def test_layout_follows_the_shape_of_the_input():
    grid = np.array([[1.5, -2.0], [1e300, 5e-324]])
    assert _texts(grid) == ["1.5", "-2.0", "1e+300", "5e-324"]
    assert _texts(grid[:, 0]) == ["1.5", "1e+300"]  # a strided column
    assert _texts(grid.astype(">f8")) == ["1.5", "-2.0", "1e+300", "5e-324"]  # big-endian
    assert _texts(np.array([], dtype=np.float64)) == []
    assert _texts(np.float32(0.1)) == [repr(float(np.float32(0.1)))]


def test_tables_are_built_on_first_use_not_at_import():
    code = ("import quasifit.cli, quasifit.floattext as f; assert f._tables.cache_info().currsize == 0; "
            "f.repr_bytes([1.0]); assert f._tables.cache_info().currsize == 1")
    env = dict(os.environ, PYTHONPATH=str(Path(quasifit.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
