"""The bytes `'%.17g' % x` writes, for a whole float64 array at once.

For 1 <= |x| < 1e15, `%.17g` is fixed notation: the 17 significant digits
of x, correctly rounded (half to even, as CPython's `dtoa` does: Gay,
"Correctly Rounded Binary-Decimal and Decimal-Binary Conversions", 1990),
with a '.' after the X + 1 integer digits, X = floor(log10 |x|), and the
fraction's trailing zeros (and a bare '.') dropped. In that range x = m 2^e
with e < 0, and the digits are round(m 5^(16-X) / 2^s) for a shift s of 1 to
36: a product of at most 91 bits, formed here in uint64 halves. No rounding
carries the digits to 10^17 there, since the double below 10^(X+1) is more
than ten units of the 17th digit away from it.

The CSV writer imports this module only to write a full block, so
`qbm --version` and the commands that write short tables never load it.
"""

from __future__ import annotations

import numpy as np

# bytes of one cell: the sign, the integer part right-aligned in 16 digits,
# the '.', and the fraction left-aligned in 16 digits; NUL where `%` writes nothing
WIDTH = 34

# from Python integers: a numpy power pages in numpy code that `synth` has no other use for
_EXP10 = np.array([10**k for k in range(16)], dtype=np.float64)  # exact
_POW5 = np.array([5**k for k in range(17)], dtype=np.uint64)
_POW10 = np.array([10**k for k in range(17)])
_LOW = np.uint64(2**32 - 1)


def _quads() -> np.ndarray:
    """`'%04d' % v` for v in 0-9999 as uint32 of 4 ASCII bytes; then the same
    with the leading zeros, and with the trailing zeros, as NUL bytes."""
    digits = (np.arange(10000)[:, None] // _POW10[3::-1] % 10).astype(np.uint8)
    text = digits + ord("0")
    after_leading = np.logical_or.accumulate(digits != 0, axis=1)
    before_trailing = np.logical_or.accumulate(digits[:, ::-1] != 0, axis=1)[:, ::-1]
    return np.concatenate([text, text * after_leading, text * before_trailing]).view(np.uint32).ravel()


_QUADS = _quads()
_LEADING, _TRAILING = 10000, 20000  # where the two stripped tables start


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 significant digits of each x in [1, 1e15) as one int64 in
    [10^16, 10^17), rounded half to even, and the decimal exponent X."""
    bits = x.view(np.uint64)
    E = (bits >> 52).view(np.int64) - 1023  # floor(log2 x), 0 to 49; x = m 2^(E-52)
    X = E * 1233 >> 12  # floor(E log10 2): floor(log10 x) or one less
    X += x >= _EXP10[X + 1]
    # x 10^(16-X) = m 5^(16-X) / 2^s, s = 36 + X - E
    hi, lo = _product(bits & np.uint64(2**52 - 1) | np.uint64(2**52), _POW5[16 - X])
    s = (36 + X - E).view(np.uint64)
    digits = hi << (64 - s)
    digits |= lo >> s
    lo &= (1 << s) - 1  # the bits shifted out
    s -= 1
    digits += lo + (digits & 1) > 1 << s  # half to even
    return digits.view(np.int64), X


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a b as hi 2^64 + lo, for uint64 a < 2^53 and b < 2^38, from 32-bit
    halves; a and b are overwritten."""
    a_hi, b_hi = a >> 32, b >> 32
    a &= _LOW
    b &= _LOW
    lo = a * b
    mid = a_hi * b
    mid += a * b_hi
    hi = a_hi * b_hi
    hi += mid >> 32
    mid <<= 32
    lo += mid  # wraps: carry into hi
    hi += lo < mid
    return hi, lo


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer part of each x in [1, 1e15), and its fraction as 16
    digits, both from the 17 significant digits."""
    digits, X = _digits(x)
    unit = _POW10[16 - X]
    whole = digits // unit
    digits -= whole * unit
    digits *= _POW10[X]
    return whole, digits


def _put_digits(out: np.ndarray, v: np.ndarray, leading: bool) -> None:
    """Write each v < 10^16 as 16 ASCII digits into the rows of out, shape
    (len(v), 16), with its leading zeros, or else its trailing zeros, as NUL
    bytes: in groups of four, each from the table its place calls for."""
    groups = np.empty((4, len(v)), dtype=np.int64)
    high = v // 10**8
    low = v - high * 10**8
    groups[0] = high // 10**4
    groups[1] = high - groups[0] * 10**4
    groups[2] = low // 10**4
    groups[3] = low - groups[2] * 10**4
    if leading:  # a group after only zero groups loses its leading zeros
        groups[0] += _LEADING
        np.add(groups[1:], _LEADING, out=groups[1:], where=v < _POW10[12:3:-4, None])
    else:  # a group before only zero groups loses its trailing zeros
        zeros = groups[1:] == 0
        zeros[1] &= zeros[2]
        zeros[0] &= zeros[1]
        np.add(groups[:-1], _TRAILING, out=groups[:-1], where=zeros)
        groups[-1] += _TRAILING
    out.view(np.uint32).T[...] = _QUADS.take(groups)


def g17(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`(cells, done)` for a 1-d float64 array: cells[i] is the WIDTH bytes
    of `'%.17g' % values[i]` with NUL bytes where it writes nothing, wherever
    done[i], that is 1 <= |values[i]| < 1e15; elsewhere cells[i] is undefined."""
    x = np.abs(values)
    done = (1.0 <= x) & (x < 1e15)
    x[~done] = 1.0
    whole, fraction = _split(x)
    cells = np.empty((len(x), WIDTH), dtype=np.uint8)
    cells[:, 0] = (values < 0) * ord("-")
    _put_digits(cells[:, 1:17], whole, leading=True)
    cells[:, 17] = (fraction > 0) * ord(".")
    _put_digits(cells[:, 18:], fraction, leading=False)
    return cells, done
